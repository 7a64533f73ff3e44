// perfbench: the repository benchmark program.
//
// Runs one workload (write / read / stall, see README.md) over four
// reclamation schemes — Hyaline-S, Hyaline, Epoch and HP — calling the
// library's public API directly: harness::scheme_traits<D>::make with the
// default scheme_params (only max_threads sized), the src/ds structures
// through insert/remove/get under a caller-held guard, and the domains'
// counters()/flush()/quiesce()/drain() plus smr::core::slab::stats().
//
// The load is a closed loop of kWorkers threads. A run is kRounds rounds;
// each round gives every scheme one slice on a fresh domain and structure:
// set-up (timed), warm-up, then a timed interval during which the main
// thread samples counters().unreclaimed() every millisecond. Reported
// figures are medians over the rounds.
//
//   perfbench --workload write --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced slices and prints the per-layer metrics, writing the sampled
// op spans to --trace-out. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 means a
// correctness breach, 2 a usage error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ds/michael_hashmap.hpp"
#include "ds/natarajan_tree.hpp"
#include "harness/schemes.hpp"
#include "obs/trace.hpp"
#include "smr/core/slab_alloc.hpp"

namespace {

using namespace hyaline;
using clk = std::chrono::steady_clock;
namespace slab = smr::core::slab;

constexpr unsigned kWorkers = 3;
/// Tid-pool sizing: the workers, the stalled reader and the main thread
/// (prefill and verification sweep). The same on every workload, so
/// `stall` differs from `write` only by the stalled thread.
constexpr unsigned kMaxThreads = kWorkers + 2;
constexpr unsigned kRounds = 6;
constexpr double kWarmupS = 0.1;
/// Every kSampleEvery-th timed op of a worker is timed (and, in the traced
/// run, recorded as spans).
constexpr std::uint64_t kSampleEvery = 8;
constexpr auto kUnreclaimedPeriod = std::chrono::milliseconds(1);
/// Sampled ops per worker written to the trace file (last traced slice of
/// each scheme); the metrics use every recorded span.
constexpr std::size_t kExportOps = 1024;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clk::now().time_since_epoch())
          .count());
}

/// Pin the calling thread to one CPU when the machine has a CPU per
/// benchmark thread (workers on 1..kWorkers, the main thread and the
/// stalled reader on 0), so that slices do not differ by where the
/// scheduler put the workers. Measured: it halves the run-to-run spread of
/// `mops` on `write`.
void pin_self(unsigned cpu) {
  if (std::thread::hardware_concurrency() < kWorkers + 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Duration of [a, b] in ns, saturated to 32 bits for compact storage.
std::uint32_t span_ns(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(b - a, UINT32_MAX));
}

double seconds_since(clk::time_point t) {
  return std::chrono::duration<double>(clk::now() - t).count();
}

// ------------------------------------------------------------- inputs --

/// The benchmark's own generator, so that no library change can alter the
/// inputs a seed produces.
struct splitmix64 {
  std::uint64_t state;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n) by multiply-high.
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

std::uint64_t mix(std::uint64_t x) { return splitmix64{x}.next(); }

/// Per-(round, thread) stream: every scheme sees the same inputs.
std::uint64_t stream_seed(std::uint64_t seed, unsigned round, unsigned thread) {
  return mix(seed ^ mix((std::uint64_t{round} << 8) + thread + 1));
}

/// The only value ever stored under `key`; a get that returns anything
/// else read a node it should not have.
std::uint64_t value_of(std::uint64_t key) {
  return mix(key ^ 0x5bd1e9955bd1e995ULL);
}

enum class op : std::uint8_t { insert, remove, get };
constexpr const char* kOpNames[] = {"insert", "remove", "get"};

struct workload {
  const char* name;
  bool tree;  // natarajan_tree, else michael_hashmap
  std::uint64_t range;
  std::uint64_t prefill;
  unsigned insert_pct;
  unsigned remove_pct;
  bool stalled;  // one extra thread holds a guard for the whole slice
};

constexpr workload kWorkloads[] = {
    {"write", false, 4096, 2048, 50, 50, false},
    {"read", true, 16384, 8192, 5, 5, false},
    {"stall", false, 4096, 2048, 50, 50, true},
};

constexpr const char* kSchemes[] = {"hyaline-s", "hyaline", "epoch", "hp"};
constexpr unsigned kNumSchemes = 4;

/// Call `f.template operator()<D>()` with the domain type of scheme `i`.
template <class F>
void with_scheme(unsigned i, F&& f) {
  switch (i) {
    case 0: f.template operator()<domain_s>(); break;
    case 1: f.template operator()<domain>(); break;
    case 2: f.template operator()<smr::ebr_domain>(); break;
    default: f.template operator()<smr::hp_domain>(); break;
  }
}

struct options {
  const workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  double slowdown = 0;  // injected per-op spin, as a share of op time
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// ------------------------------------------------------------ helpers --

template <class D>
concept has_flush = requires(D d) { d.flush(); };
template <class D>
concept has_quiesce = requires(D d) { d.quiesce(); };

/// What a thread does when it stops taking guards: finalize its partial
/// Hyaline batch, drop a lingering Epoch burst reservation.
template <class D>
void leave_domain(D& dom) {
  if constexpr (has_flush<D>) dom.flush();
  if constexpr (has_quiesce<D>) dom.quiesce();
}

/// Nearest-rank quantile of `v` (reordered in place); 0 when empty.
template <class T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(std::ceil(q * v.size()));
  k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Quantile of the library's log2 lag histogram (bucket b holds
/// [2^(b-1), 2^b - 1] ns), interpolated linearly inside the bucket.
double lag_quantile_ns(const std::uint64_t* bucket, double q) {
  std::uint64_t total = 0;
  for (unsigned b = 0; b < smr::lag_counters::kBuckets; ++b) total += bucket[b];
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (unsigned b = 0; b < smr::lag_counters::kBuckets; ++b) {
    if (bucket[b] == 0) continue;
    if (seen + static_cast<double>(bucket[b]) >= rank) {
      if (b == 0) return 0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double frac = (rank - seen) / static_cast<double>(bucket[b]);
      return lo + frac * (lo - 1);
    }
    seen += static_cast<double>(bucket[b]);
  }
  return 0;
}

smr::stats_snapshot minus(const smr::stats_snapshot& a,
                          const smr::stats_snapshot& b) {
  smr::stats_snapshot d;
  d.allocated = a.allocated - b.allocated;
  d.retired = a.retired - b.retired;
  d.freed = a.freed - b.freed;
  d.scans = a.scans - b.scans;
  d.steals = a.steals - b.steals;
  d.rearms = a.rearms - b.rearms;
  d.finalizes = a.finalizes - b.finalizes;
  d.era_advances = a.era_advances - b.era_advances;
  d.tid_acquires = a.tid_acquires - b.tid_acquires;
  for (unsigned i = 0; i < smr::lag_counters::kBuckets; ++i) {
    d.lag_bucket[i] = a.lag_bucket[i] - b.lag_bucket[i];
  }
  return d;
}

// ------------------------------------------------------------ workers --

enum phase : int { kIdle, kWarm, kTimed, kStop };

/// One sampled op of the traced run: six readings bound four spans that
/// share the op id (the op's index in its thread's vector). op =
/// [op_begin, op_end] is the parent of enter = [enter_begin, enter_end],
/// ds = [enter_end, ds_end] and leave = [ds_end, leave_end]; the op's self
/// time is the key/op draw before enter plus the bookkeeping after leave.
struct op_span {
  std::uint64_t op_begin, enter_begin, enter_end, ds_end, leave_end, op_end;
  op kind;
};

struct breach {
  std::uint64_t count = 0;
  std::string first;

  void add(const std::string& what) {
    if (count++ == 0) first = what;
  }

  void merge(const breach& o) {
    if (count == 0) first = o.first;
    count += o.count;
  }
};

struct thread_result {
  std::uint64_t timed_ops = 0;
  std::uint64_t all_ops = 0;
  std::uint64_t upd_try = 0;  // timed insert/remove attempts
  std::uint64_t upd_ok = 0;   // ... that changed the structure
  std::int64_t net = 0;       // successful inserts - removes, all phases
  breach bad;
  std::vector<std::uint32_t> lat_ns;
  std::vector<op_span> spans;
};

template <class DS, class G>
bool apply(DS& s, G& g, op kind, std::uint64_t key, breach& bad) {
  switch (kind) {
    case op::insert:
      return s.insert(g, key, value_of(key));
    case op::remove:
      return s.remove(g, key);
    case op::get: {
      std::uint64_t v = 0;
      const bool found = s.get(g, key, v);
      if (found && v != value_of(key)) {
        bad.add("get(" + std::to_string(key) + ") returned a foreign value");
      }
      return found;
    }
  }
  return false;
}

template <bool Traced, class D, class DS>
void work(D& dom, DS& s, const workload& w, std::uint64_t stream,
          double slowdown, const std::atomic<int>& ph, thread_result& r) {
  using guard = typename D::guard;
  splitmix64 rng{stream};
  r.lat_ns.reserve(std::size_t{1} << 18);
  if constexpr (Traced) r.spans.reserve(std::size_t{1} << 18);
  while (ph.load(std::memory_order_acquire) == kIdle) {
  }
  const std::uint64_t warm_begin = now_ns();
  std::uint64_t spin_ns = 0;
  bool timed = false;
  for (;;) {
    const int p = ph.load(std::memory_order_relaxed);
    if (p == kStop) break;
    if (p == kTimed && !timed) {
      timed = true;
      // Calibrated regression for the self-test: stretch every timed op
      // by slowdown/(1-slowdown) of its warm-up cost, so throughput drops
      // by `slowdown`.
      if (slowdown > 0 && r.all_ops > 0) {
        const double op_ns =
            static_cast<double>(now_ns() - warm_begin) / r.all_ops;
        spin_ns = static_cast<std::uint64_t>(op_ns * slowdown / (1 - slowdown));
      }
    }
    if (spin_ns != 0) {
      const std::uint64_t until = now_ns() + spin_ns;
      while (now_ns() < until) {
      }
    }
    const bool sampled = timed && r.timed_ops % kSampleEvery == 0;
    op_span sp{};
    if (Traced && sampled) sp.op_begin = now_ns();
    const std::uint64_t key = rng.below(w.range);
    const std::uint64_t dice = rng.below(100);
    const op kind = dice < w.insert_pct                  ? op::insert
                    : dice < w.insert_pct + w.remove_pct ? op::remove
                                                         : op::get;
    bool ok = false;
    if (Traced && sampled) {
      std::optional<guard> g;
      sp.enter_begin = now_ns();
      g.emplace(dom);
      sp.enter_end = now_ns();
      ok = apply(s, *g, kind, key, r.bad);
      sp.ds_end = now_ns();
      g.reset();
      sp.leave_end = now_ns();
    } else {
      const std::uint64_t t0 = sampled ? now_ns() : 0;
      {
        guard g(dom);
        ok = apply(s, g, kind, key, r.bad);
      }
      if (sampled) r.lat_ns.push_back(span_ns(t0, now_ns()));
    }
    ++r.all_ops;
    if (ok && kind == op::insert) ++r.net;
    if (ok && kind == op::remove) --r.net;
    if (timed) {
      ++r.timed_ops;
      if (kind != op::get) {
        ++r.upd_try;
        r.upd_ok += ok ? 1 : 0;
      }
    }
    if (Traced && sampled) {
      sp.kind = kind;
      sp.op_end = now_ns();
      r.spans.push_back(sp);
    }
  }
  leave_domain(dom);
}

// ------------------------------------------------------------- slices --

/// Per-scheme accumulation over all slices of a run.
struct scheme_acc {
  // end to end, one entry per slice
  std::vector<double> setup_s, mops, p50_ns, p99_ns, unreclaimed_p50;
  std::uint64_t lat_samples = 0, unreclaimed_samples = 0;
  // traced slices only
  unsigned traced_slices = 0;
  std::vector<double> traced_mops;
  std::vector<std::uint32_t> enter_ns, leave_ns, ds_ns[3], sweep_get_ns, self_ns;
  std::uint64_t timed_ops = 0, upd_try = 0, upd_ok = 0;
  smr::stats_snapshot delta;  // summed over traced timed intervals
  std::uint64_t unreclaimed_peak = 0, tid_acquires = 0;
  std::uint64_t slab_chunks = 0, slab_external = 0, slab_remote_flushes = 0;
  std::vector<std::vector<op_span>> export_spans;  // last traced slice
};

struct run_totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void report_breach(const options& o, const char* scheme, unsigned round,
                   const breach& b, run_totals& tot) {
  if (b.count == 0) return;
  tot.failed += b.count;
  std::printf(
      "BREACH workload=%s scheme=%s seed=%llu round=%u count=%llu: %s\n",
      o.w->name, scheme, static_cast<unsigned long long>(o.seed), round,
      static_cast<unsigned long long>(b.count), b.first.c_str());
  std::fflush(stdout);
}

/// One slice: fresh domain and structure, prefill, warm-up, timed interval,
/// verification sweep, quiescent drain and the ledger checks.
template <class D, class DS, bool Traced>
void run_slice(const options& o, unsigned scheme, unsigned round,
               double timed_s, scheme_acc& acc, run_totals& tot) {
  using guard = typename D::guard;
  const workload& w = *o.w;
  const char* label = kSchemes[scheme];
  breach bad;
  if constexpr (Traced) obs::set_lag_tracking(true);

  const auto t_setup = clk::now();
  harness::scheme_params params;
  params.max_threads = kMaxThreads;
  auto dom = harness::scheme_traits<D>::make(params);
  std::vector<thread_result> res(kWorkers);
  std::vector<std::uint64_t> unreclaimed;
  smr::stats_snapshot s0, s1;
  slab::slab_stats slab0{}, slab1{};
  double secs = 0;
  {
    DS s(*dom);
    splitmix64 prng{mix(o.seed)};
    std::uint64_t live = 0;
    while (live < w.prefill) {
      guard g(*dom);
      const std::uint64_t key = prng.below(w.range);
      if (s.insert(g, key, value_of(key))) ++live;
      ++tot.attempted;
    }
    leave_domain(*dom);
    const double setup_s = seconds_since(t_setup);

    std::atomic<int> ph{kIdle};
    std::atomic<bool> stall_ready{false};
    breach stall_bad;
    std::thread staller;
    if (w.stalled) {
      // Paper Fig. 10a: enter, touch one node, then hold the guard for the
      // whole slice.
      staller = std::thread([&] {
        pin_self(0);
        {
          guard g(*dom);
          splitmix64 rng{stream_seed(o.seed, round, kWorkers)};
          apply(s, g, op::get, rng.below(w.range), stall_bad);
          stall_ready.store(true, std::memory_order_release);
          while (ph.load(std::memory_order_acquire) != kStop) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        leave_domain(*dom);
      });
      while (!stall_ready.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kWorkers; ++t) {
      ts.emplace_back([&, t] {
        pin_self(t + 1);
        work<Traced>(*dom, s, w, stream_seed(o.seed, round, t), o.slowdown,
                     ph, res[t]);
      });
    }
    ph.store(kWarm, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));

    s0 = dom->counters().snapshot();
    slab0 = slab::stats();
    const auto t0 = clk::now();
    const clk::time_point t_end =
        t0 + std::chrono::duration_cast<clk::duration>(
                 std::chrono::duration<double>(timed_s));
    ph.store(kTimed, std::memory_order_release);
    unreclaimed.reserve(static_cast<std::size_t>(timed_s * 1000) + 16);
    for (auto next = t0; clk::now() < t_end;) {
      unreclaimed.push_back(dom->counters().unreclaimed());
      next += kUnreclaimedPeriod;
      std::this_thread::sleep_until(std::min(next, t_end));
    }
    ph.store(kStop, std::memory_order_release);
    secs = seconds_since(t0);
    s1 = dom->counters().snapshot();
    slab1 = slab::stats();
    for (auto& th : ts) th.join();
    if (staller.joinable()) staller.join();
    tot.attempted += w.stalled ? 1 : 0;
    bad.merge(stall_bad);

    // Verification sweep, quiescent: every present key holds its value.
    std::uint64_t found = 0;
    for (std::uint64_t key = 0; key < w.range; ++key) {
      std::uint64_t v = 0;
      bool hit = false;
      {
        guard g(*dom);
        const std::uint64_t t = Traced ? now_ns() : 0;
        hit = s.get(g, key, v);
        if (Traced) acc.sweep_get_ns.push_back(span_ns(t, now_ns()));
      }
      ++tot.attempted;
      if (!hit) continue;
      ++found;
      if (v != value_of(key)) {
        bad.add("sweep get(" + std::to_string(key) +
                ") returned a foreign value");
      }
    }
    leave_domain(*dom);
    std::int64_t net = 0;
    for (const auto& r : res) net += r.net;
    const auto expected_size = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(w.prefill) + net);
    const std::uint64_t size_after = s.unsafe_size();
    ++tot.attempted;
    if (size_after != expected_size || found != size_after) {
      bad.add("size " + std::to_string(size_after) + ", expected " +
              std::to_string(expected_size) + " (sweep found " +
              std::to_string(found) + ")");
    }
    acc.setup_s.push_back(setup_s);
  }
  dom->drain();
  const smr::stats_snapshot fin = dom->counters().snapshot();
  ++tot.attempted;
  if (fin.retired != fin.freed) {
    bad.add("after drain retired " + std::to_string(fin.retired) +
            " != freed " + std::to_string(fin.freed));
  }
  if constexpr (Traced) obs::set_lag_tracking(false);

  std::uint64_t ops = 0;
  for (auto& r : res) {
    ops += r.timed_ops;
    tot.attempted += r.all_ops;
    bad.merge(r.bad);
  }
  report_breach(o, label, round, bad, tot);
  const double mops = static_cast<double>(ops) / secs / 1e6;

  if constexpr (!Traced) {
    std::vector<std::uint32_t> lat;
    for (auto& r : res) lat.insert(lat.end(), r.lat_ns.begin(), r.lat_ns.end());
    acc.mops.push_back(mops);
    acc.lat_samples += lat.size();
    acc.p50_ns.push_back(quantile(lat, 0.50));
    acc.p99_ns.push_back(quantile(lat, 0.99));
    acc.unreclaimed_samples += unreclaimed.size();
    acc.unreclaimed_p50.push_back(quantile(unreclaimed, 0.50));
  } else {
    ++acc.traced_slices;
    acc.traced_mops.push_back(mops);
    acc.export_spans.clear();
    for (auto& r : res) {
      for (const op_span& sp : r.spans) {
        acc.enter_ns.push_back(span_ns(sp.enter_begin, sp.enter_end));
        acc.leave_ns.push_back(span_ns(sp.ds_end, sp.leave_end));
        acc.ds_ns[static_cast<int>(sp.kind)].push_back(
            span_ns(sp.enter_end, sp.ds_end));
        acc.self_ns.push_back(span_ns(sp.op_begin, sp.enter_begin) +
                              span_ns(sp.leave_end, sp.op_end));
      }
      const std::size_t keep = std::min(r.spans.size(), kExportOps);
      acc.export_spans.emplace_back(r.spans.begin(), r.spans.begin() + keep);
      acc.upd_try += r.upd_try;
      acc.upd_ok += r.upd_ok;
    }
    acc.timed_ops += ops;
    acc.delta.accumulate(minus(s1, s0));
    for (const std::uint64_t u : unreclaimed) {
      acc.unreclaimed_peak = std::max(acc.unreclaimed_peak, u);
    }
    acc.tid_acquires += fin.tid_acquires;
    acc.slab_chunks += slab1.chunks - slab0.chunks;
    acc.slab_external += slab1.external - slab0.external;
    acc.slab_remote_flushes += slab1.remote_flushes - slab0.remote_flushes;
  }
}

template <bool Traced>
void run_scheme_slice(const options& o, unsigned scheme, unsigned round,
                      double timed_s, scheme_acc& acc, run_totals& tot) {
  with_scheme(scheme, [&]<class D>() {
    if (o.w->tree) {
      run_slice<D, ds::natarajan_tree<D>, Traced>(o, scheme, round, timed_s,
                                                  acc, tot);
    } else {
      run_slice<D, ds::michael_hashmap<D>, Traced>(o, scheme, round, timed_s,
                                                   acc, tot);
    }
  });
}

// ------------------------------------------------------------- output --

struct metric {
  std::string name;
  double value;
  const char* unit;
};

void add(std::vector<metric>& m, const std::string& name, double v,
         const char* unit) {
  m.push_back({name, v, unit});
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max = __get_cpuid_max(0x80000000u, nullptr);
  if (max >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char buf[49] = {};
    std::memcpy(buf, regs, 48);
    std::string s(buf);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

/// Chrome trace-event JSON of the exported spans (one process per scheme,
/// one thread per worker).
bool write_trace(const std::string& path, const std::vector<scheme_acc>& acc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& a : acc) {
    for (const auto& v : a.export_spans) {
      if (!v.empty()) t0 = std::min(t0, v.front().op_begin);
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  auto event = [&](const char* name, unsigned pid, unsigned tid,
                   std::uint64_t id, std::uint64_t b, std::uint64_t e,
                   const char* kind, bool child) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op_id\":%llu,"
                 "\"op\":\"%s\"%s}}",
                 first ? "" : ",\n", name, pid, tid, (b - t0) / 1e3,
                 (e - b) / 1e3, static_cast<unsigned long long>(id), kind,
                 child ? ",\"parent\":\"op\"" : "");
    first = false;
  };
  for (unsigned s = 0; s < acc.size(); ++s) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", s, kSchemes[s]);
    first = false;
    for (unsigned t = 0; t < acc[s].export_spans.size(); ++t) {
      const auto& spans = acc[s].export_spans[t];
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const op_span& sp = spans[i];
        const std::uint64_t id = (std::uint64_t{t} << 32) | i;
        const char* k = kOpNames[static_cast<int>(sp.kind)];
        event("op", s, t, id, sp.op_begin, sp.op_end, k, false);
        event("smr.enter", s, t, id, sp.enter_begin, sp.enter_end, k, true);
        event("ds.call", s, t, id, sp.enter_end, sp.ds_end, k, true);
        event("smr.leave", s, t, id, sp.ds_end, sp.leave_end, k, true);
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload write|read|stall "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--inject-slowdown F] [--git-sha X] [--source-digest Y]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      for (const workload& w : kWorkloads) {
        if (v == w.name) o.w = &w;
      }
      if (o.w == nullptr) return usage(("unknown workload " + v).c_str());
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("bad --trace");
      o.trace = v == "1";
    } else if (a == "--inject-slowdown") {
      o.slowdown = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.slowdown >= 0 && o.slowdown < 0.9)) {
        return usage("bad --inject-slowdown");
      }
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else if (a == "--source-digest") {
      o.source_digest = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (o.w == nullptr) return usage("--workload is required");

  std::printf(
      "provenance: workload=%s seed=%llu seconds=%g trace=%d "
      "inject_slowdown=%g git=%s source=%s compiler=\"%s\" cpu=\"%s\" "
      "nproc=%u workers=%u rounds=%u schemes=%s,%s,%s,%s\n",
      o.w->name, static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.slowdown, o.git_sha.c_str(), o.source_digest.c_str(),
      __VERSION__, cpu_brand().c_str(), std::thread::hardware_concurrency(),
      kWorkers, kRounds, harness::scheme_traits<domain_s>::name,
      harness::scheme_traits<domain>::name,
      harness::scheme_traits<smr::ebr_domain>::name,
      harness::scheme_traits<smr::hp_domain>::name);
  std::fflush(stdout);

  // The timed budget is split evenly over rounds x schemes (x 2 in the
  // traced run, which alternates an untraced and a traced slice).
  pin_self(0);
  // The traced run gives each round two slices per scheme (untraced and
  // traced) and so runs half the rounds, keeping the slice length.
  const unsigned rounds = o.trace ? kRounds / 2 : kRounds;
  const double timed_s = o.seconds / (kRounds * kNumSchemes);
  std::vector<scheme_acc> acc(kNumSchemes);
  run_totals tot;
  std::vector<double> setup_round;
  for (unsigned round = 0; round < rounds; ++round) {
    double setup = 0;
    for (unsigned k = 0; k < kNumSchemes; ++k) {
      const unsigned s = (k + round) % kNumSchemes;  // rotate the order
      if (!o.trace) {
        run_scheme_slice<false>(o, s, round, timed_s, acc[s], tot);
      } else if ((round + k) % 2 == 0) {
        run_scheme_slice<false>(o, s, round, timed_s, acc[s], tot);
        run_scheme_slice<true>(o, s, round, timed_s, acc[s], tot);
      } else {
        run_scheme_slice<true>(o, s, round, timed_s, acc[s], tot);
        run_scheme_slice<false>(o, s, round, timed_s, acc[s], tot);
      }
      setup += acc[s].setup_s.back();
    }
    setup_round.push_back(setup);
  }

  std::vector<metric> m;
  for (unsigned s = 0; s < kNumSchemes; ++s) {
    scheme_acc& a = acc[s];
    const std::string sfx = std::string(".") + kSchemes[s];
    const double mops = median(a.mops);
    std::string per_round;
    for (const double v : a.mops) per_round += " " + std::to_string(v).substr(0, 6);
    std::printf(
        "%-9s mops %.3f (rounds:%s) | op latency p50 %.0f ns p99 %.0f ns "
        "(%llu samples, every %lluth op) | unreclaimed p50 %.0f "
        "(%llu samples)\n",
        kSchemes[s], mops, per_round.c_str(), median(a.p50_ns), median(a.p99_ns),
        static_cast<unsigned long long>(a.lat_samples),
        static_cast<unsigned long long>(kSampleEvery),
        median(a.unreclaimed_p50),
        static_cast<unsigned long long>(a.unreclaimed_samples));
    if (!o.trace) {
      add(m, "mops" + sfx, mops, "Mops/s");
      add(m, "op_p99_ns" + sfx, median(a.p99_ns), "ns");
      add(m, "unreclaimed_p50" + sfx, median(a.unreclaimed_p50), "objects");
      continue;
    }
    const double kops = static_cast<double>(a.timed_ops) / 1e3;
    const double n = a.traced_slices;
    const smr::stats_snapshot& d = a.delta;
    const bool loop_gets = !a.ds_ns[2].empty();
    std::vector<std::uint32_t>& gets = loop_gets ? a.ds_ns[2] : a.sweep_get_ns;
    const double traced = median(a.traced_mops);
    add(m, "ds.insert_ns.p50" + sfx, quantile(a.ds_ns[0], 0.50), "ns");
    add(m, "ds.insert_ns.p99" + sfx, quantile(a.ds_ns[0], 0.99), "ns");
    add(m, "ds.remove_ns.p50" + sfx, quantile(a.ds_ns[1], 0.50), "ns");
    add(m, "ds.remove_ns.p99" + sfx, quantile(a.ds_ns[1], 0.99), "ns");
    add(m, "ds.get_ns.p50" + sfx, quantile(gets, 0.50), "ns");
    add(m, "ds.get_ns.p99" + sfx, quantile(gets, 0.99), "ns");
    add(m, "ds.update_success" + sfx,
        a.upd_try == 0 ? 0 : static_cast<double>(a.upd_ok) / a.upd_try,
        "ratio");
    add(m, "smr.enter_ns.p50" + sfx, quantile(a.enter_ns, 0.50), "ns");
    add(m, "smr.enter_ns.p99" + sfx, quantile(a.enter_ns, 0.99), "ns");
    add(m, "smr.leave_ns.p50" + sfx, quantile(a.leave_ns, 0.50), "ns");
    add(m, "smr.leave_ns.p99" + sfx, quantile(a.leave_ns, 0.99), "ns");
    add(m, "smr.retired_per_kop" + sfx, d.retired / kops, "1/kop");
    add(m, "smr.scans_per_kop" + sfx, d.scans / kops, "1/kop");
    add(m, "smr.finalizes_per_kop" + sfx, d.finalizes / kops, "1/kop");
    add(m, "smr.era_advances_per_kop" + sfx, d.era_advances / kops, "1/kop");
    add(m, "smr.freed_per_scan" + sfx,
        d.scans == 0 ? 0 : static_cast<double>(d.freed) / d.scans, "ratio");
    add(m, "smr.unreclaimed_peak" + sfx, a.unreclaimed_peak, "objects");
    add(m, "smr.lag_p50_us" + sfx, lag_quantile_ns(d.lag_bucket, 0.50) / 1e3,
        "us");
    add(m, "smr.lag_p99_us" + sfx, lag_quantile_ns(d.lag_bucket, 0.99) / 1e3,
        "us");
    add(m, "core.tid_acquires" + sfx, a.tid_acquires / n, "count");
    add(m, "core.slab_chunks" + sfx, a.slab_chunks / n, "count");
    add(m, "core.slab_external" + sfx, a.slab_external / n, "count");
    add(m, "core.slab_remote_flushes_per_kop" + sfx,
        a.slab_remote_flushes / kops, "1/kop");
    add(m, "trace.overhead_pct" + sfx, (mops - traced) / mops * 100, "%");
    add(m, "trace.op_self_ns.p50" + sfx, quantile(a.self_ns, 0.50), "ns");
    std::printf(
        "%-9s traced mops %.3f | %zu sampled ops as spans | get spans "
        "from %s\n",
        kSchemes[s], traced, a.self_ns.size(),
        loop_gets ? "the timed loop" : "the verification sweep");
  }
  if (!o.trace) add(m, "setup_s", median(setup_round), "s");

  if (o.trace && !o.trace_out.empty()) {
    if (write_trace(o.trace_out, acc)) {
      std::printf("trace: %s\n", o.trace_out.c_str());
    } else {
      std::printf("trace: could not write %s\n", o.trace_out.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tot.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tot.attempted),
              static_cast<unsigned long long>(tot.failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value, m[i].unit);
  }
  std::printf("}}\n");
  return tot.failed == 0 ? 0 : 1;
}
