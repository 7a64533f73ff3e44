// Workload driver: a reimplementation of the measurement loop of the test
// framework the paper uses (Wen et al. [35]).
//
// Per data point (paper §6): prefill the structure with `prefill` elements,
// run `threads` worker threads for `duration_ms`, each performing randomly
// drawn operations on keys uniform in [0, key_range); report throughput in
// Mops/sec and the mean number of retired-but-unreclaimed objects sampled
// once every `sample_every` operations (Figures 9/12/14/16). Repeat
// `repeats` times and average.
//
// Extras used by specific figures:
//   - stalled_threads: extra threads that enter, touch one node, and then
//     block until the run ends (the Figure 10a robustness experiment).
//     Internally this is the degenerate case `stall:tid@0+inf` of the
//     robustness lab's fault plans (lab/fault_plan.hpp);
//   - faults / sample_ms: the robustness lab (fig_timeline) — a scripted
//     schedule of transient faults executed by a lab clock thread that
//     the loops below poll at operation boundaries, and a telemetry
//     sampler producing the time series in workload_result::timeline;
//   - use_trim: hold one guard per thread and trim() after every operation
//     instead of leave+enter (the Figure 10b trimming experiment).
//
// Container workloads (fig_queue) run through run_container_workload
// instead: an asymmetric producer/consumer split over a FIFO queue or
// stack, where every successful operation allocates or retires a node.
// Accounting is exact — pushed items (prefill included), popped items, and
// the residual drained at the end must balance (the conservation
// invariant checked by the registry runners and tests).
//
// Every loop also samples per-op latency (one in kLatencyEvery operations
// is timed around its guard + operation) into a shared log-bucketed
// histogram; the p50/p90/p99/max land in every workload_result.
//
// Correctness oracle (src/check): when workload_config::history is set,
// every operation both loops perform — prefill and the container drain
// included — is recorded as a timestamped invocation/response interval
// with its result, feeding the linearizability checker. Benchmark runs
// leave it null and pay one predicted-not-taken branch per operation.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "common/rng.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "obs/trace.hpp"
#include "smr/stats.hpp"

namespace hyaline::harness {

namespace detail {
/// Default latency-sampling period: one in this many operations is timed.
/// Sampling keeps the two clock reads off the common path so the histogram
/// does not perturb the throughput it is measured alongside. Overridable
/// per run via workload_config::lat_sample (the --lat-sample flag).
inline constexpr std::uint64_t kLatencyEvery = 32;
}  // namespace detail

struct workload_config {
  unsigned threads = 4;
  unsigned stalled_threads = 0;
  unsigned duration_ms = 500;
  unsigned repeats = 1;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  /// Percentages; must sum to 100. Paper: write = {50,50,0}, read = {5,5,90}
  /// ("90% get, 10% put", put split evenly between insert and remove to
  /// keep the size in equilibrium).
  unsigned insert_pct = 50;
  unsigned remove_pct = 50;
  unsigned get_pct = 0;
  bool use_trim = false;
  unsigned sample_every = 128;
  /// Latency-sampling period: one in `lat_sample` operations is timed
  /// around its guard + operation. Must be a power of two (the CLI
  /// validates); 1 times every op (max detail, max perturbation).
  std::uint64_t lat_sample = detail::kLatencyEvery;
  std::uint64_t seed = 0x5eed;
  /// Container workloads only: the producer/consumer thread split. Both
  /// zero means "derive from `threads`" (see container_split). Set drivers
  /// ignore these, exactly as container drivers ignore key_range and the
  /// op mix — the registry's structure-kind dimension keeps the two option
  /// families apart.
  unsigned producers = 0;
  unsigned consumers = 0;
  /// Robustness lab: scripted transient faults executed against every
  /// repetition (nullptr = none). stalled_threads is folded into the same
  /// machinery as stall@0+inf workers either way. The plan must outlive
  /// the run and have been validated against the worker-thread count.
  const lab::fault_plan* faults = nullptr;
  /// Telemetry cadence in ms; nonzero fills workload_result::timeline.
  /// Meant for single-repetition runs (fig_timeline): with repeats > 1
  /// only the last repetition's series is kept.
  unsigned sample_ms = 0;
  /// Correctness oracle: non-null turns history recording on — every
  /// operation lands in a per-thread append-only log of timestamped
  /// invocation/response intervals (check/history.hpp). The recorder must
  /// outlive the run; collect() only after the driver returned.
  check::history_recorder* history = nullptr;
  /// Per-thread operation budget (0 = none), checked at op boundaries:
  /// each worker leaves its loop after this many operations even if the
  /// duration has not elapsed, and the run ends as soon as every worker
  /// has retired its budget. This is what makes the --seed contract a
  /// determinism *guarantee* for single-threaded runs: a time-based stop
  /// cuts the op stream at a timing-dependent point, a budget does not.
  std::uint64_t op_limit = 0;
};

struct workload_result {
  double mops = 0;              ///< throughput, million operations / second
  double unreclaimed_avg = 0;   ///< mean retired-not-yet-freed per sample
  /// Worst retired-not-yet-freed value over all samples of all repeats —
  /// the number the paper's robustness bound (§5) actually caps, which an
  /// average can launder (a brief spike amortized over a long run looks
  /// harmless).
  std::uint64_t unreclaimed_peak = 0;
  std::uint64_t total_ops = 0;  ///< operations completed across all threads
  /// Per-op latency percentiles (ns) over the sampled operations (one in
  /// detail::kLatencyEvery ops is timed around guard + operation), and
  /// the exact maximum among them.
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  std::uint64_t max_ns = 0;
  /// Final domain counters, captured after structure teardown and a
  /// quiescent drain (filled in by the registry runners; retired != freed
  /// means the scheme leaked).
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  /// Container workloads: the conservation ledger. Items pushed (prefill
  /// included), items popped during the run, and items drained from the
  /// residual at the end; enqueued == dequeued + drained or the container
  /// lost or duplicated values. Zero for set workloads.
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t drained = 0;
  /// Time series from the telemetry sampler (empty unless
  /// workload_config::sample_ms was set).
  std::vector<lab::sample_point> timeline;
  /// Full domain counter snapshot (scans/finalizes/lag histogram),
  /// captured by the registry runners after the quiescent drain. The lag
  /// buckets are all-zero unless obs::lag_tracking() was on for the run.
  smr::stats_snapshot obs;
  /// Retire->free lag percentiles (ns) rehydrated from obs.lag_bucket;
  /// zero when lag tracking was off.
  double lag_p50_ns = 0;
  double lag_p99_ns = 0;
  std::uint64_t lag_max_ns = 0;
};

/// True iff the op-mix percentages cover exactly the whole dice range.
/// A mix that does not sum to 100 silently skews the distribution (the
/// remainder falls through to get), so drivers reject it up front. Summed
/// in 64 bits so overflowing values cannot wrap back to 100.
constexpr bool valid_mix(const workload_config& cfg) {
  return std::uint64_t{cfg.insert_pct} + cfg.remove_pct + cfg.get_pct ==
         100;
}

namespace detail {

/// THE definition of how a history interval wraps an operation, shared by
/// every recording site (prefill, workers, bursts, drain): invocation
/// read, run `op` (which returns {ok, key/token}), response read, one
/// record. Keeping a single copy is what the checker's soundness argument
/// assumes — all op classes must be fenced and timed identically. Returns
/// the operation's `ok`.
template <class F>
bool record_op(check::thread_log* log, check::op_kind kind, F&& op) {
  if (log == nullptr) return op().first;
  const std::uint64_t t_inv = check::inv_now();
  const auto [ok, key] = op();
  log->record(kind, key, ok, t_inv, check::ret_now());
  return ok;
}

template <class D>
concept has_flush = requires(D d) { d.flush(); };

/// Finalize the calling thread's partial retirement batch, for schemes
/// that batch (the Hyaline family). No-op elsewhere.
template <class D>
void flush_thread(D& dom) {
  if constexpr (has_flush<D>) {
    dom.flush();
  } else {
    (void)dom;
  }
}

template <class D>
concept has_quiesce = requires(D d) { d.quiesce(); };

/// Clear the calling thread's lingering burst-entry reservation, for
/// schemes with amortized guard exit (EBR/IBR with entry_burst). Called
/// wherever a thread stops taking guards — worker exit, after prefill, and
/// after the final drain loop — so an idle reservation cannot stall epoch
/// or era advancement for the threads still running. No-op elsewhere.
template <class D>
void quiesce_thread(D& dom) {
  if constexpr (has_quiesce<D>) {
    dom.quiesce();
  } else {
    (void)dom;
  }
}

template <class G>
concept has_trim = requires(G g) { g.trim(); };

/// Relaxed monotone max — the peak counter is a statistic, not
/// synchronization (same stance as smr::stats).
inline void atomic_max(std::atomic<std::uint64_t>& m, std::uint64_t v) {
  std::uint64_t cur = m.load(std::memory_order_relaxed);
  while (cur < v &&
         !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Per-repetition shared counters every worker thread updates.
struct rep_counters {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> sample_sum{0};
  std::atomic<std::uint64_t> sample_cnt{0};

  /// Record one unreclaimed-counter observation (worker-side); the
  /// worker's running peak stays thread-local until merged at exit.
  void sample(std::uint64_t unreclaimed, std::uint64_t& local_peak) {
    if (unreclaimed > local_peak) local_peak = unreclaimed;
    sample_sum.fetch_add(unreclaimed, std::memory_order_relaxed);
    sample_cnt.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Cross-repetition accumulator shared by both workload drivers, so the
/// mops / unreclaimed_avg / unreclaimed_peak columns keep exactly one
/// meaning however the figure was produced.
struct run_stats {
  double mops_sum = 0;
  double unrecl_sum = 0;
  std::uint64_t ops_total = 0;
  std::atomic<std::uint64_t> peak{0};

  /// Fold one repetition in. `end_unreclaimed` backs the too-short-run
  /// fallback: a repetition that never reached a sampling point
  /// contributes one end-of-run observation to both statistics.
  void finish_rep(rep_counters& c, double secs,
                  std::uint64_t end_unreclaimed) {
    const std::uint64_t n = c.ops.load(std::memory_order_relaxed);
    ops_total += n;
    mops_sum += static_cast<double>(n) / secs / 1e6;
    const std::uint64_t cnt = c.sample_cnt.load(std::memory_order_relaxed);
    if (cnt == 0) {
      atomic_max(peak, end_unreclaimed);
      unrecl_sum += static_cast<double>(end_unreclaimed);
    } else {
      unrecl_sum += static_cast<double>(
                        c.sample_sum.load(std::memory_order_relaxed)) /
                    static_cast<double>(cnt);
    }
  }

  void fill(workload_result& r, unsigned repeats) const {
    r.mops = mops_sum / repeats;
    r.unreclaimed_avg = unrecl_sum / repeats;
    r.unreclaimed_peak = peak.load(std::memory_order_relaxed);
    r.total_ops = ops_total;
  }
};

/// Sleep out one repetition: the full duration, or — on op-budget runs —
/// until every worker has published its budgeted count (workers publish
/// at exit), whichever comes first. Budgeted tests then cost their op
/// count, not their worst-case wall clock.
inline void wait_rep_end(std::chrono::steady_clock::time_point t0,
                         const workload_config& cfg,
                         unsigned total_threads,
                         const rep_counters& counters) {
  const auto deadline = t0 + std::chrono::milliseconds(cfg.duration_ms);
  if (cfg.op_limit == 0) {
    std::this_thread::sleep_until(deadline);
    return;
  }
  const std::uint64_t target = std::uint64_t{total_threads} * cfg.op_limit;
  while (std::chrono::steady_clock::now() < deadline &&
         counters.ops.load(std::memory_order_relaxed) < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

inline std::uint64_t ns_since(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t)
          .count());
}

/// Shared run-level lab state for one workload invocation: the merged
/// latency histogram plus the (per-repetition) fault director and
/// telemetry collector, so both workload drivers wire the hooks the same
/// way.
struct lab_state {
  lab::latency_histogram hist;
  std::mutex hist_mu;
  lab::fault_director* dir = nullptr;
  lab::telemetry_collector* tele = nullptr;

  void merge_hist(const lab::latency_histogram& local) {
    std::lock_guard<std::mutex> lk(hist_mu);
    hist.merge(local);
  }

  void fill(workload_result& r) const {
    r.p50_ns = hist.percentile(0.50);
    r.p90_ns = hist.percentile(0.90);
    r.p99_ns = hist.percentile(0.99);
    r.max_ns = hist.max();
  }
};

/// The user's fault plan plus the legacy permanently-stalled extras,
/// expressed as what they are: workers that stall at t=0 forever.
inline lab::fault_plan effective_plan(const workload_config& cfg) {
  lab::fault_plan plan;
  if (cfg.faults != nullptr) plan = *cfg.faults;
  for (unsigned i = 0; i < cfg.stalled_threads; ++i) {
    lab::fault_event e;
    e.kind = lab::fault_kind::stall;
    e.tid = cfg.threads + i;
    e.start_ms = 0;
    e.dur_ms = std::numeric_limits<double>::infinity();
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace detail

/// Resolved producer/consumer split for a container workload: explicit
/// counts win; otherwise `threads` is split evenly, producers taking the
/// odd one out (threads == 1 means a lone producer — pure enqueue is a
/// valid, maximally allocation-heavy workload; the drain still balances
/// the ledger).
struct thread_split {
  unsigned producers = 0;
  unsigned consumers = 0;
  unsigned total() const { return producers + consumers; }
};

constexpr thread_split container_split(const workload_config& cfg) {
  if (cfg.producers != 0 || cfg.consumers != 0) {
    return {cfg.producers, cfg.consumers};
  }
  const unsigned consumers = cfg.threads / 2;
  return {cfg.threads - consumers, consumers};
}

/// Run one configuration against structure `s` over domain `dom`.
/// DS must provide insert/remove/contains(guard&, key[, value]).
template <class DS, class D>
workload_result run_workload(D& dom, DS& s, const workload_config& cfg) {
  using guard_t = typename D::guard;
  assert(valid_mix(cfg) && "op-mix percentages must sum to 100");

  // --- prefill (quiescent) ---------------------------------------------
  {
    check::thread_log* plog =
        cfg.history != nullptr ? &cfg.history->attach(check::kMainTid)
                               : nullptr;
    xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    std::size_t live = 0;
    while (live < cfg.prefill) {
      guard_t g(dom);
      const std::uint64_t key = rng.below(cfg.key_range);
      if (detail::record_op(plog, check::op_kind::insert, [&] {
            return std::pair{s.insert(g, key, 1), key};
          })) {
        ++live;
      }
    }
    // The prefilling (main) thread takes no further guards: release any
    // burst-entry reservation so it cannot pin the epoch for the workers.
    detail::quiesce_thread(dom);
  }

  detail::run_stats stats;
  detail::lab_state lab;
  const lab::fault_plan plan = detail::effective_plan(cfg);
  const unsigned total_threads = cfg.threads + cfg.stalled_threads;
  std::vector<lab::sample_point> timeline;

  for (unsigned rep = 0; rep < cfg.repeats; ++rep) {
    std::atomic<bool> start{false};
    std::atomic<bool> stop{false};
    detail::rep_counters counters;

    auto worker = [&](unsigned tid, std::uint32_t gen) {
      xoshiro256 rng(cfg.seed + tid * 1000003 + rep * 7919);
      check::thread_log* hlog =
          cfg.history != nullptr ? &cfg.history->attach(tid) : nullptr;
      lab::latency_histogram lhist;
      std::uint64_t local_ops = 0;
      std::uint64_t local_peak = 0;
      auto kind_of = [&](std::uint64_t dice) {
        return dice < cfg.insert_pct ? check::op_kind::insert
               : dice < cfg.insert_pct + cfg.remove_pct
                   ? check::op_kind::remove
                   : check::op_kind::contains;
      };
      auto dispatch = [&](guard_t& g, std::uint64_t key,
                          check::op_kind kind) -> bool {
        switch (kind) {
          case check::op_kind::insert:
            return s.insert(g, key, key);
          case check::op_kind::remove:
            return s.remove(g, key);
          default:
            return s.contains(g, key);
        }
      };
      // dispatch plus (when the oracle is on) one history record around
      // it: the interval is taken tightly around the call, inside the
      // guard, so it contains the linearization point and nothing else.
      auto apply = [&](guard_t& g, check::op_kind kind,
                       std::uint64_t key) -> bool {
        return detail::record_op(hlog, kind, [&] {
          return std::pair{dispatch(g, key, kind), key};
        });
      };
      auto after_op = [&] {
        ++local_ops;
        if (lab.tele != nullptr) lab.tele->on_op(tid);
        if (local_ops % cfg.sample_every == 0) {
          counters.sample(dom.counters().unreclaimed(), local_peak);
        }
      };
      /// Op-budget check, at the same boundaries as the stop flag.
      auto within_limit = [&] {
        return cfg.op_limit == 0 || local_ops < cfg.op_limit;
      };
      // One claimed burst unit: remove a random key (a successful remove
      // retires its node) and reinsert to hold the size at equilibrium.
      auto burst_pair = [&](guard_t& g) {
        const std::uint64_t key = rng.below(cfg.key_range);
        if (apply(g, check::op_kind::remove, key)) {
          apply(g, check::op_kind::insert, key);
        }
      };
      if (lab.tele != nullptr) lab.tele->thread_enter();
      while (!start.load(std::memory_order_acquire)) {
      }
      // Each worker completes at least one op before honoring `stop`:
      // under heavy instrumentation (TSan) on a loaded machine the
      // duration deadline can expire before a worker is first
      // scheduled, and a zero-op rep is indistinguishable from a hang
      // to the validators downstream. Only for fault-free runs: a
      // worker stalled by the director at t=0 never counts an op, so
      // the guarantee would turn its release into a spin.
      auto keep_going = [&] {
        return ((local_ops == 0 && lab.dir == nullptr) ||
                !stop.load(std::memory_order_relaxed)) &&
               within_limit();
      };
      if (!cfg.use_trim) {
        while (keep_going()) {
          if (lab.dir != nullptr) {
            if (lab.dir->exited(tid, gen)) break;
            if (lab.dir->stalled(tid)) {
              // The paper's stalled-thread protocol: enter, touch one
              // node, block holding the guard for the stall window.
              guard_t g(dom);
              apply(g, check::op_kind::contains, rng.below(cfg.key_range));
              obs::emit(obs::event::stall_begin, tid);
              lab.dir->wait_stall_end(tid);
              obs::emit(obs::event::stall_end, tid);
              continue;
            }
            if (const std::uint32_t us = lab.dir->slow_delay_us(tid)) {
              std::this_thread::sleep_for(std::chrono::microseconds(us));
            }
            for (std::uint64_t n = lab.dir->claim_burst(128);
                 n != 0 && !stop.load(std::memory_order_relaxed) &&
                 within_limit();
                 --n) {
              guard_t g(dom);
              burst_pair(g);
              after_op();
            }
          }
          const std::uint64_t key = rng.below(cfg.key_range);
          const auto kind = kind_of(rng.below(100));
          const bool timed = local_ops % cfg.lat_sample == 0;
          const auto t_op = timed ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
          {
            guard_t g(dom);
            apply(g, kind, key);
          }
          if (timed) lhist.record(detail::ns_since(t_op));
          after_op();
        }
      } else {
        // Trimming mode (§3.3): one guard spans many operations; trim()
        // after each op reclaims without touching Head. Re-enter
        // periodically to bound the retirement sublists. Fault polls
        // happen under the held guard (a stall here pins exactly what
        // the long-lived guard pins).
        constexpr std::uint64_t regrip_every = 1024;
        while (keep_going()) {
          if (lab.dir != nullptr && lab.dir->exited(tid, gen)) break;
          guard_t g(dom);
          for (std::uint64_t i = 0; i < regrip_every && keep_going(); ++i) {
            if (lab.dir != nullptr) {
              if (lab.dir->exited(tid, gen)) break;
              if (lab.dir->stalled(tid)) {
                apply(g, check::op_kind::contains,
                      rng.below(cfg.key_range));
                obs::emit(obs::event::stall_begin, tid);
                lab.dir->wait_stall_end(tid);
                obs::emit(obs::event::stall_end, tid);
              }
              if (const std::uint32_t us = lab.dir->slow_delay_us(tid)) {
                std::this_thread::sleep_for(std::chrono::microseconds(us));
              }
              for (std::uint64_t n = lab.dir->claim_burst(128);
                   n != 0 && !stop.load(std::memory_order_relaxed) &&
                   within_limit();
                   --n) {
                burst_pair(g);
                if constexpr (detail::has_trim<guard_t>) g.trim();
                after_op();
              }
            }
            const std::uint64_t key = rng.below(cfg.key_range);
            const auto kind = kind_of(rng.below(100));
            const bool timed = local_ops % cfg.lat_sample == 0;
            const auto t_op =
                timed ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
            apply(g, kind, key);
            if constexpr (detail::has_trim<guard_t>) g.trim();
            if (timed) lhist.record(detail::ns_since(t_op));
            after_op();
          }
        }
      }
      counters.ops.fetch_add(local_ops, std::memory_order_relaxed);
      detail::atomic_max(stats.peak, local_peak);
      detail::flush_thread(dom);
      detail::quiesce_thread(dom);
      lab.merge_hist(lhist);
      if (lab.tele != nullptr) lab.tele->thread_exit();
    };

    // Churn replacements spawned by the lab clock thread mid-run; joined
    // after the primary workers (the director is stopped first, so the
    // clock thread no longer appends by then).
    std::vector<std::thread> replacements;
    std::mutex spawn_mu;
    std::unique_ptr<lab::fault_director> dir_holder;
    if (!plan.empty()) {
      dir_holder = std::make_unique<lab::fault_director>(
          plan, total_threads, [&](unsigned tid) {
            const std::uint32_t gen = lab.dir->generation(tid);
            std::lock_guard<std::mutex> lk(spawn_mu);
            replacements.emplace_back([&worker, tid, gen] {
              char name[16];
              std::snprintf(name, sizeof name, "churn-%u", tid);
              obs::name_thread(name);
              worker(tid, gen);
            });
          });
    }
    lab.dir = dir_holder.get();
    std::unique_ptr<lab::telemetry_collector> tele_holder;
    if (cfg.sample_ms != 0) {
      tele_holder = std::make_unique<lab::telemetry_collector>(
          total_threads, cfg.sample_ms, &dom.counters());
    }
    lab.tele = tele_holder.get();

    std::vector<std::thread> ts;
    ts.reserve(total_threads);
    for (unsigned t = 0; t < total_threads; ++t) {
      ts.emplace_back(worker, t, 0);
    }

    const auto t0 = std::chrono::steady_clock::now();
    start.store(true, std::memory_order_release);
    if (lab.dir != nullptr) lab.dir->start();
    if (lab.tele != nullptr) lab.tele->start();
    detail::wait_rep_end(t0, cfg, total_threads, counters);
    stop.store(true, std::memory_order_release);
    // Stop the director before joining: it releases in-guard stall waits
    // (a stalled worker cannot observe `stop` until released) and joins
    // the clock thread, after which `replacements` is quiescent.
    if (lab.dir != nullptr) lab.dir->stop();
    // Telemetry stops BEFORE the joins: teardown samples would record
    // the unreclaimed count after per-thread flushes — a drop the
    // recovery check must not credit to the scheme (threads exiting is
    // not recovery).
    if (lab.tele != nullptr) {
      lab.tele->stop();
      timeline = lab.tele->take_points();
    }
    for (auto& th : ts) th.join();
    for (auto& th : replacements) th.join();
    const auto t1 = std::chrono::steady_clock::now();

    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    stats.finish_rep(counters, secs, dom.counters().unreclaimed());
    lab.dir = nullptr;
    lab.tele = nullptr;
  }

  workload_result r;
  stats.fill(r, cfg.repeats);
  lab.fill(r);
  r.timeline = std::move(timeline);
  return r;
}

/// Run one producer/consumer configuration against container `q` over
/// domain `dom`. Q must provide push(guard&, value) and
/// try_pop(guard&, value&) (ms_queue, treiber_stack). Producers push
/// monotonically stamped values as fast as they can; consumers pop (an
/// empty pop still counts as an operation — spinning on an empty queue is
/// real work the throughput number must not hide). After the timed
/// repeats, the residual content is drained quiescently so the
/// conservation ledger (enqueued == dequeued + drained) can be checked by
/// the caller. Fault plans and telemetry apply exactly as in
/// run_workload; burst events run push+pop pairs (each successful pop
/// retires a node) with both sides entered into the ledger.
template <class Q, class D>
workload_result run_container_workload(D& dom, Q& q,
                                       const workload_config& cfg) {
  using guard_t = typename D::guard;
  const thread_split split = container_split(cfg);
  assert(split.total() > 0 && "container workload needs at least 1 thread");

  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> dequeued{0};
  /// Token source for pushed values: every worker invocation (churn
  /// replacements included) draws a distinct high-bit base, and the
  /// prefill owns base 0, so every value ever pushed is unique — the
  /// linearizability oracle's token matching depends on it, and nothing
  /// else reads the payloads (the FIFO/LIFO property tests stamp their
  /// own).
  std::atomic<std::uint64_t> stamp_src{1};

  // --- prefill (quiescent) ---------------------------------------------
  {
    check::thread_log* plog =
        cfg.history != nullptr ? &cfg.history->attach(check::kMainTid)
                               : nullptr;
    for (std::size_t i = 0; i < cfg.prefill; ++i) {
      guard_t g(dom);
      detail::record_op(plog, check::op_kind::push, [&] {
        q.push(g, i);
        return std::pair{true, std::uint64_t{i}};
      });
    }
    detail::quiesce_thread(dom);  // main thread idles while workers run
  }
  enqueued.fetch_add(cfg.prefill, std::memory_order_relaxed);

  detail::run_stats stats;
  detail::lab_state lab;
  workload_config plan_cfg = cfg;
  plan_cfg.threads = split.total();  // stalled extras ride above the split
  const lab::fault_plan plan = detail::effective_plan(plan_cfg);
  const unsigned total_threads = split.total() + cfg.stalled_threads;
  std::vector<lab::sample_point> timeline;

  for (unsigned rep = 0; rep < cfg.repeats; ++rep) {
    std::atomic<bool> start{false};
    std::atomic<bool> stop{false};
    detail::rep_counters counters;

    auto body = [&](unsigned tid, std::uint32_t gen) {
      const bool producing = tid < split.producers;
      check::thread_log* hlog =
          cfg.history != nullptr ? &cfg.history->attach(tid) : nullptr;
      std::uint64_t local_ops = 0;
      std::uint64_t local_enq = 0;
      std::uint64_t local_deq = 0;
      std::uint64_t local_peak = 0;
      lab::latency_histogram lhist;
      std::uint64_t stamp =
          stamp_src.fetch_add(1, std::memory_order_relaxed) << 40;
      auto do_push = [&](guard_t& g) {
        const std::uint64_t v = stamp++;
        detail::record_op(hlog, check::op_kind::push, [&] {
          q.push(g, v);
          return std::pair{true, v};
        });
        ++local_enq;
      };
      auto do_pop = [&](guard_t& g) {
        if (detail::record_op(hlog, check::op_kind::pop, [&] {
              std::uint64_t v = 0;
              const bool ok = q.try_pop(g, v);
              return std::pair{ok, ok ? v : 0};
            })) {
          ++local_deq;
        }
      };
      auto after_op = [&] {
        ++local_ops;
        if (lab.tele != nullptr) lab.tele->on_op(tid);
        if (local_ops % cfg.sample_every == 0) {
          counters.sample(dom.counters().unreclaimed(), local_peak);
        }
      };
      auto within_limit = [&] {
        return cfg.op_limit == 0 || local_ops < cfg.op_limit;
      };
      // As in the set workload: guarantee one op per worker even when
      // the deadline beats the scheduler (e.g. TSan on a loaded box),
      // but only in fault-free runs — stalled workers never count ops.
      auto keep_going = [&] {
        return ((local_ops == 0 && lab.dir == nullptr) ||
                !stop.load(std::memory_order_relaxed)) &&
               within_limit();
      };
      if (lab.tele != nullptr) lab.tele->thread_enter();
      while (!start.load(std::memory_order_acquire)) {
      }
      while (keep_going()) {
        if (lab.dir != nullptr) {
          if (lab.dir->exited(tid, gen)) break;
          if (lab.dir->stalled(tid)) {
            // Containers have no read-only touch; holding the guard
            // alone pins whatever the scheme's reservation pins.
            guard_t g(dom);
            obs::emit(obs::event::stall_begin, tid);
            lab.dir->wait_stall_end(tid);
            obs::emit(obs::event::stall_end, tid);
            continue;
          }
          if (const std::uint32_t us = lab.dir->slow_delay_us(tid)) {
            std::this_thread::sleep_for(std::chrono::microseconds(us));
          }
          for (std::uint64_t n = lab.dir->claim_burst(128);
               n != 0 && !stop.load(std::memory_order_relaxed) &&
               within_limit();
               --n) {
            // Retire-generating pair with an exact ledger: the push is
            // counted, and the pop (usually of the just-pushed value)
            // retires one node.
            guard_t g(dom);
            do_push(g);
            do_pop(g);
            after_op();
          }
        }
        const bool timed = local_ops % cfg.lat_sample == 0;
        const auto t_op = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
        {
          guard_t g(dom);
          if (producing) {
            do_push(g);
          } else {
            do_pop(g);
          }
        }
        if (timed) lhist.record(detail::ns_since(t_op));
        after_op();
      }
      counters.ops.fetch_add(local_ops, std::memory_order_relaxed);
      enqueued.fetch_add(local_enq, std::memory_order_relaxed);
      dequeued.fetch_add(local_deq, std::memory_order_relaxed);
      detail::atomic_max(stats.peak, local_peak);
      detail::flush_thread(dom);
      detail::quiesce_thread(dom);
      lab.merge_hist(lhist);
      if (lab.tele != nullptr) lab.tele->thread_exit();
    };

    std::vector<std::thread> replacements;
    std::mutex spawn_mu;
    std::unique_ptr<lab::fault_director> dir_holder;
    if (!plan.empty()) {
      dir_holder = std::make_unique<lab::fault_director>(
          plan, total_threads, [&](unsigned tid) {
            const std::uint32_t gen = lab.dir->generation(tid);
            std::lock_guard<std::mutex> lk(spawn_mu);
            replacements.emplace_back([&body, tid, gen] {
              char name[16];
              std::snprintf(name, sizeof name, "churn-%u", tid);
              obs::name_thread(name);
              body(tid, gen);
            });
          });
    }
    lab.dir = dir_holder.get();
    std::unique_ptr<lab::telemetry_collector> tele_holder;
    if (cfg.sample_ms != 0) {
      tele_holder = std::make_unique<lab::telemetry_collector>(
          total_threads, cfg.sample_ms, &dom.counters());
    }
    lab.tele = tele_holder.get();

    std::vector<std::thread> ts;
    ts.reserve(total_threads);
    for (unsigned t = 0; t < total_threads; ++t) {
      ts.emplace_back(body, t, 0);
    }

    const auto t0 = std::chrono::steady_clock::now();
    start.store(true, std::memory_order_release);
    if (lab.dir != nullptr) lab.dir->start();
    if (lab.tele != nullptr) lab.tele->start();
    detail::wait_rep_end(t0, cfg, total_threads, counters);
    stop.store(true, std::memory_order_release);
    if (lab.dir != nullptr) lab.dir->stop();
    // Telemetry stops BEFORE the joins: teardown samples would record
    // the unreclaimed count after per-thread flushes — a drop the
    // recovery check must not credit to the scheme (threads exiting is
    // not recovery).
    if (lab.tele != nullptr) {
      lab.tele->stop();
      timeline = lab.tele->take_points();
    }
    for (auto& th : ts) th.join();
    for (auto& th : replacements) th.join();
    const auto t1 = std::chrono::steady_clock::now();

    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    stats.finish_rep(counters, secs, dom.counters().unreclaimed());
    lab.dir = nullptr;
    lab.tele = nullptr;
  }

  // --- drain (quiescent) -----------------------------------------------
  // Pop the residual so the ledger closes and every node the structure
  // still owns besides the ms_queue dummy flows through retire. Recorded
  // like any other ops (the trailing empty pop too): the drain is part of
  // the container's checkable life, and it is what lets the oracle call
  // the history complete.
  std::uint64_t drained = 0;
  {
    check::thread_log* dlog =
        cfg.history != nullptr ? &cfg.history->attach(check::kMainTid)
                               : nullptr;
    for (;;) {
      guard_t g(dom);
      if (!detail::record_op(dlog, check::op_kind::pop, [&] {
            std::uint64_t v = 0;
            const bool ok = q.try_pop(g, v);
            return std::pair{ok, ok ? v : 0};
          })) {
        break;
      }
      ++drained;
    }
  }
  detail::flush_thread(dom);
  detail::quiesce_thread(dom);  // the drain loop above took guards

  workload_result r;
  stats.fill(r, cfg.repeats);
  lab.fill(r);
  r.enqueued = enqueued.load(std::memory_order_relaxed);
  r.dequeued = dequeued.load(std::memory_order_relaxed);
  r.drained = drained;
  r.timeline = std::move(timeline);
  return r;
}

}  // namespace hyaline::harness
