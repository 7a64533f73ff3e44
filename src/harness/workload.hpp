// Workload drivers: the op sources of the paper's measurement loop
// (Wen et al. [35]) over the one run engine (harness/engine.hpp), which
// owns the lifecycle — flags, fault director, telemetry, spawn/join,
// teardown order, and the duration / op-budget wait.
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
//     schedule of transient faults the engine polls at operation
//     boundaries, and a telemetry sampler producing the time series in
//     workload_result::timeline;
//   - use_trim: hold one guard across many operations and trim() after
//     each instead of leave+enter (the Figure 10b trimming experiment).
//
// Container workloads (fig_queue) run through run_container_workload
// instead: an asymmetric producer/consumer split over a FIFO queue or
// stack, where every successful operation allocates or retires a node.
// Accounting is exact — pushed items (prefill included), popped items, and
// the residual drained at the end must balance (the conservation
// invariant checked by the registry's ledger_violation and tests).
//
// Both sources sample per-op latency (one in lat_sample operations is
// timed around its guard + operation) into a shared log-bucketed
// histogram; the p50/p90/p99/max land in every workload_result.
//
// Correctness oracle (src/check): when workload_config::history is set,
// every operation both sources perform — prefill and the container drain
// included — is recorded as a timestamped invocation/response interval
// with its result, feeding the linearizability checker. Benchmark runs
// leave it null and pay one predicted-not-taken branch per operation.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "common/rng.hpp"
#include "harness/engine.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
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
/// in 64 bits so overflowing values cannot wrap back to 100. One check for
/// every keyed config (workload_config, svc::service_config).
template <class Cfg>
constexpr bool valid_mix(const Cfg& cfg) {
  return std::uint64_t{cfg.insert_pct} + cfg.remove_pct + cfg.get_pct ==
         100;
}

/// The one mapping from a dice roll in [0, 100) to a keyed operation:
/// [0, insert) inserts, [insert, insert + remove) removes, the rest reads.
template <class Cfg>
constexpr check::op_kind op_for_dice(const Cfg& cfg, std::uint64_t dice) {
  return dice < cfg.insert_pct                    ? check::op_kind::insert
         : dice < cfg.insert_pct + cfg.remove_pct ? check::op_kind::remove
                                                  : check::op_kind::contains;
}

/// Rehydrate `r.obs`'s retire->free lag buckets into the lag p50/p99/max
/// columns through the shared histogram math (zero when lag tracking was
/// off). One copy for workload_result and svc::service_result.
template <class R>
void fill_lag_percentiles(R& r) {
  const auto lagh =
      lab::latency_histogram::from_counts(r.obs.lag_bucket, r.obs.lag_max_ns);
  r.lag_p50_ns = lagh.percentile(0.50);
  r.lag_p99_ns = lagh.percentile(0.99);
  r.lag_max_ns = r.obs.lag_max_ns;
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

template <class G>
concept has_trim = requires(G g) { g.trim(); };

/// The history log of thread `tid`, or nullptr when the oracle is off.
inline check::thread_log* log_for(const workload_config& cfg, unsigned tid) {
  return cfg.history != nullptr ? &cfg.history->attach(tid) : nullptr;
}

/// Run `f`, timing it into `h` when it is a sampled op (op index `i`, one
/// in `every`). The clock reads stay off the unsampled ops; `f` has one
/// call site so it inlines as the untimed op would.
template <class F>
void timed_op(std::uint64_t i, std::uint64_t every, lab::latency_histogram& h,
              F&& f) {
  const bool timed = i % every == 0;
  const auto t = timed ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
  f();
  if (timed) h.record(ns_since(t));
}

/// The run-level latency histogram both sources merge into at thread exit.
struct latency_sink {
  lab::latency_histogram hist;
  std::mutex mu;

  void merge(const lab::latency_histogram& local) {
    std::lock_guard<std::mutex> lk(mu);
    hist.merge(local);
  }
};

/// The user's fault plan plus the legacy permanently-stalled extras,
/// expressed as what they are: workers above the first `workers` tids
/// that stall at t=0 forever.
inline lab::fault_plan effective_plan(const workload_config& cfg,
                                      unsigned workers) {
  lab::fault_plan plan;
  if (cfg.faults != nullptr) plan = *cfg.faults;
  for (unsigned i = 0; i < cfg.stalled_threads; ++i) {
    lab::fault_event e;
    e.kind = lab::fault_kind::stall;
    e.tid = workers + i;
    e.start_ms = 0;
    e.dur_ms = std::numeric_limits<double>::infinity();
    plan.events.push_back(e);
  }
  return plan;
}

/// The engine run for `workers` op-source threads plus the stalled extras
/// over domain `dom`.
template <class D>
engine_config engine_config_of(const workload_config& cfg, unsigned workers,
                               const lab::fault_plan& plan, D& dom) {
  engine_config ec;
  ec.workers = workers + cfg.stalled_threads;
  ec.repeats = cfg.repeats;
  ec.duration_ms = cfg.duration_ms;
  ec.op_limit = cfg.op_limit;
  ec.sample_every = cfg.sample_every;
  ec.sample_ms = cfg.sample_ms;
  ec.seed = cfg.seed;
  ec.faults = &plan;
  ec.stats = {&dom.counters()};
  return ec;
}

inline workload_result to_result(engine_result&& er,
                                 const lab::latency_histogram& h) {
  workload_result r;
  r.mops = er.mops;
  r.unreclaimed_avg = er.unreclaimed_avg;
  r.unreclaimed_peak = er.unreclaimed_peak;
  r.total_ops = er.total_ops;
  r.p50_ns = h.percentile(0.50);
  r.p90_ns = h.percentile(0.90);
  r.p99_ns = h.percentile(0.99);
  r.max_ns = h.max();
  r.timeline = std::move(er.timeline);
  return r;
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
    check::thread_log* plog = detail::log_for(cfg, check::kMainTid);
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
  }

  const lab::fault_plan plan = detail::effective_plan(cfg, cfg.threads);
  detail::latency_sink lat;
  auto keyed = [&](worker& w) {
    xoshiro256 rng(w.seed());
    check::thread_log* hlog = detail::log_for(cfg, w.tid);
    lab::latency_histogram lhist;
    // The op plus (when the oracle is on) one history record around
    // it: the interval is taken tightly around the call, inside the
    // guard, so it contains the linearization point and nothing else.
    auto apply = [&](guard_t& g, check::op_kind kind, std::uint64_t key) {
      return detail::record_op(hlog, kind, [&] {
        switch (kind) {
          case check::op_kind::insert:
            return std::pair{s.insert(g, key, key), key};
          case check::op_kind::remove:
            return std::pair{s.remove(g, key), key};
          default:
            return std::pair{s.contains(g, key), key};
        }
      });
    };
    // Trimming mode (§3.3): one guard spans kRegripEvery operations
    // and trim() after each reclaims without touching Head; the
    // periodic re-entry bounds the retirement sublists. Stalls and
    // bursts land under the held guard, so a stall pins exactly what
    // the long-lived guard pins.
    constexpr std::uint64_t kRegripEvery = 1024;
    std::optional<guard_t> held;
    std::uint64_t held_ops = 0;
    auto guarded = [&](auto&& f) {
      if (!cfg.use_trim) {
        guard_t g(dom);
        f(g);
        return;
      }
      if (!held) held.emplace(dom);
      f(*held);
      if constexpr (detail::has_trim<guard_t>) held->trim();
    };
    w.loop(
        [&] {
          const std::uint64_t key = rng.below(cfg.key_range);
          const auto kind = op_for_dice(cfg, rng.below(100));
          // Re-grip outside the timed region: emplace leaves the old
          // guard before entering the new one.
          if (cfg.use_trim && held_ops++ % kRegripEvery == 0) {
            held.emplace(dom);
          }
          detail::timed_op(w.ops(), cfg.lat_sample, lhist, [&] {
            guarded([&](guard_t& g) { apply(g, kind, key); });
          });
          return true;
        },
        [&](auto&& hold) {
          guarded([&](guard_t& g) {
            apply(g, check::op_kind::contains, rng.below(cfg.key_range));
            hold();
          });
        },
        // One burst unit: remove a random key (a successful remove
        // retires its node) and reinsert to hold the size steady.
        [&] {
          guarded([&](guard_t& g) {
            const std::uint64_t key = rng.below(cfg.key_range);
            if (apply(g, check::op_kind::remove, key)) {
              apply(g, check::op_kind::insert, key);
            }
          });
        });
    held.reset();
    detail::flush_thread(dom);
    lat.merge(lhist);
  };
  return detail::to_result(
      run_engine(detail::engine_config_of(cfg, cfg.threads, plan, dom), keyed),
      lat.hist);
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
    check::thread_log* plog = detail::log_for(cfg, check::kMainTid);
    for (std::size_t i = 0; i < cfg.prefill; ++i) {
      guard_t g(dom);
      detail::record_op(plog, check::op_kind::push, [&] {
        q.push(g, i);
        return std::pair{true, std::uint64_t{i}};
      });
    }
  }
  enqueued.fetch_add(cfg.prefill, std::memory_order_relaxed);

  // Stalled extras ride above the split.
  const lab::fault_plan plan = detail::effective_plan(cfg, split.total());
  detail::latency_sink lat;
  auto split_worker = [&](worker& w) {
    const bool producing = w.tid < split.producers;
    check::thread_log* hlog = detail::log_for(cfg, w.tid);
    std::uint64_t local_enq = 0;
    std::uint64_t local_deq = 0;
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
    w.loop(
        [&] {
          detail::timed_op(w.ops(), cfg.lat_sample, lhist, [&] {
            guard_t g(dom);
            if (producing) {
              do_push(g);
            } else {
              do_pop(g);
            }
          });
          return true;
        },
        // Containers have no read-only touch; holding the guard
        // alone pins whatever the scheme's reservation pins.
        [&](auto&& hold) {
          guard_t g(dom);
          hold();
        },
        // Retire-generating pair with an exact ledger: the push is
        // counted, and the pop (usually of the just-pushed value)
        // retires one node.
        [&] {
          guard_t g(dom);
          do_push(g);
          do_pop(g);
        });
    enqueued.fetch_add(local_enq, std::memory_order_relaxed);
    dequeued.fetch_add(local_deq, std::memory_order_relaxed);
    detail::flush_thread(dom);
    lat.merge(lhist);
  };
  engine_result er = run_engine(
      detail::engine_config_of(cfg, split.total(), plan, dom), split_worker);

  // --- drain (quiescent) -----------------------------------------------
  // Pop the residual so the ledger closes and every node the structure
  // still owns besides the ms_queue dummy flows through retire. Recorded
  // like any other ops (the trailing empty pop too): the drain is part of
  // the container's checkable life, and it is what lets the oracle call
  // the history complete.
  std::uint64_t drained = 0;
  {
    check::thread_log* dlog = detail::log_for(cfg, check::kMainTid);
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

  workload_result r = detail::to_result(std::move(er), lat.hist);
  r.enqueued = enqueued.load(std::memory_order_relaxed);
  r.dequeued = dequeued.load(std::memory_order_relaxed);
  r.drained = drained;
  return r;
}

}  // namespace hyaline::harness
