// The run engine: the one measurement lifecycle behind every driver loop
// (run_workload, run_container_workload, svc::run_service) — the loop of
// the test framework the paper uses (Wen et al. [35], §6), written once.
//
// Per repetition the engine owns:
//   - the start/stop flags and the per-repetition op counters;
//   - the fault director (lab/fault_plan.hpp) and its churn spawner;
//   - the telemetry collector over the caller's stats blocks;
//   - worker spawn and naming (primaries `<name>-N`, churn replacements
//     `churn-N`), the duration / op-budget wait, and the joins;
//   - the single teardown order: stop flag, director stop (releases
//     in-guard stalls — a stalled worker cannot observe stop until
//     released), telemetry stop BEFORE the joins (thread-exit flushes
//     must not masquerade as recovery), join primaries, join churn
//     replacements.
//
// A driver supplies only its op source: a body the engine runs on every
// worker thread. The body sets up per-thread state, calls worker::loop
// with three callables — one operation, the stall-in-guard touch, and
// one burst unit — and then runs its own exit path (ledgers, flushes,
// histogram merges). The loop polls the director at op boundaries.
// Everything on the per-op path is a template/lambda call; std::function
// appears only at spawn time (the director's churn callback).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "obs/trace.hpp"
#include "smr/stats.hpp"

namespace hyaline::harness {

struct engine_config {
  /// Worker threads, tids 0..workers-1 (a plan's stalled extras included).
  unsigned workers = 1;
  unsigned repeats = 1;
  unsigned duration_ms = 500;
  /// Per-worker op budget (0 = none); see workload_config::op_limit.
  std::uint64_t op_limit = 0;
  /// Each worker samples the summed unreclaimed count of `stats` every
  /// this many of its ops (0 = never).
  std::uint64_t sample_every = 0;
  /// Telemetry cadence in ms; nonzero fills engine_result::timeline.
  unsigned sample_ms = 0;
  /// Base of the per-worker stream seeds (worker::seed).
  std::uint64_t seed = 0;
  /// Thread-name prefix of the primaries.
  const char* name = "worker";
  /// Scripted faults (nullptr or empty = fault-free); must outlive the run.
  const lab::fault_plan* faults = nullptr;
  /// The domains' counters, summed by the telemetry sampler and the
  /// unreclaimed samples; must outlive the run.
  std::vector<const smr::stats*> stats;
};

struct engine_result {
  double mops = 0;             ///< mean over repetitions
  double unreclaimed_avg = 0;  ///< mean of the per-repetition sample means
  std::uint64_t unreclaimed_peak = 0;
  std::uint64_t total_ops = 0;
  double secs = 0;  ///< wall time, summed over repetitions
  /// The last repetition's telemetry series (empty unless sample_ms).
  std::vector<lab::sample_point> timeline;
};

namespace detail {

/// Relaxed monotone max — the peak counter is a statistic, not
/// synchronization (same stance as smr::stats).
inline void atomic_max(std::atomic<std::uint64_t>& m, std::uint64_t v) {
  std::uint64_t cur = m.load(std::memory_order_relaxed);
  while (cur < v &&
         !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline std::uint64_t ns_since(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t)
          .count());
}

inline std::uint64_t unreclaimed(const std::vector<const smr::stats*>& st) {
  std::uint64_t n = 0;
  for (const smr::stats* s : st) n += s->unreclaimed();
  return n;
}

/// State shared by the workers of one repetition.
struct rep_state {
  const engine_config& cfg;
  unsigned rep;
  lab::fault_director* dir = nullptr;
  lab::telemetry_collector* tele = nullptr;
  std::chrono::steady_clock::time_point t0{};  // written before start
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  // Every worker's unreclaimed samples bump these: a line of their own,
  // so the fields above, read on every op, never share it.
  alignas(cache_line_size) std::atomic<std::uint64_t> sample_sum{0};
  std::atomic<std::uint64_t> sample_cnt{0};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> peak{0};
};

}  // namespace detail

/// One worker thread's handle on the engine: its identity, its stream
/// seed, its op count, and the op-boundary protocol (worker::loop).
class worker {
 public:
  worker(detail::rep_state& rs, unsigned tid_, std::uint32_t gen_)
      : tid(tid_), gen(gen_), rs_(rs) {}

  const unsigned tid;
  const std::uint32_t gen;  ///< 0 = primary, > 0 = churn replacement

  /// The one stream-seed rule for every driver. A churn replacement
  /// (gen > 0) is a fresh request stream, not a replay of its
  /// predecessor's.
  std::uint64_t seed() const {
    return rs_.cfg.seed + std::uint64_t{tid} * 1000003 +
           std::uint64_t{rs_.rep} * 7919 + std::uint64_t{gen} * 104729;
  }

  std::uint64_t ops() const { return ops_; }
  const std::atomic<bool>& stop_flag() const { return rs_.stop; }
  /// The repetition's t=0 (the fault schedule's and telemetry's too).
  std::chrono::steady_clock::time_point start_time() const { return rs_.t0; }

  /// Run until stop, the op budget, or an exit/churn event. Between ops
  /// the director is polled: a stall calls `stall(hold)`, which must
  /// enter a guard, touch what the source would touch, and call `hold()`
  /// inside it (the paper's stalled-thread protocol — the engine blocks
  /// there for the window); a slow window sleeps; claimed burst work
  /// runs `burst()` units. `op()` performs one operation and returns
  /// false to leave the loop (a stop seen mid-op).
  template <class Op, class Stall, class Burst>
  void loop(Op&& op, Stall&& stall, Burst&& burst) {
    lab::fault_director* const dir = rs_.dir;
    while (keep_going(dir)) {
      if (dir != nullptr) {
        if (dir->exited(tid, gen)) break;
        if (dir->stalled(tid)) {
          stall([&] {
            obs::emit(obs::event::stall_begin, tid);
            dir->wait_stall_end(tid);
            obs::emit(obs::event::stall_end, tid);
          });
          continue;
        }
        if (const std::uint32_t us = dir->slow_delay_us(tid)) {
          std::this_thread::sleep_for(std::chrono::microseconds(us));
        }
        for (std::uint64_t n = dir->claim_burst(128);
             n != 0 && !rs_.stop.load(std::memory_order_relaxed) &&
             within_limit();
             --n) {
          burst();
          after_op();
        }
      }
      if (!op()) break;
      after_op();
    }
  }

 private:
  template <class Body>
  friend engine_result run_engine(const engine_config&, Body&&);

  bool within_limit() const {
    return rs_.cfg.op_limit == 0 || ops_ < rs_.cfg.op_limit;
  }

  /// Each worker completes at least one op before honoring stop: under
  /// heavy instrumentation (TSan) on a loaded machine the deadline can
  /// expire before a worker is first scheduled, and a zero-op rep is
  /// indistinguishable from a hang to the validators downstream. Only
  /// for fault-free runs: a worker stalled by the director at t=0 never
  /// counts an op, so the guarantee would turn its release into a spin.
  bool keep_going(const lab::fault_director* dir) const {
    return ((ops_ == 0 && dir == nullptr) ||
            !rs_.stop.load(std::memory_order_relaxed)) &&
           within_limit();
  }

  void after_op() {
    ++ops_;
    if (rs_.tele != nullptr) rs_.tele->on_op(tid);
    const std::uint64_t every = rs_.cfg.sample_every;
    if (every != 0 && ops_ % every == 0) {
      const std::uint64_t u = detail::unreclaimed(rs_.cfg.stats);
      if (u > peak_) peak_ = u;
      rs_.sample_sum.fetch_add(u, std::memory_order_relaxed);
      rs_.sample_cnt.fetch_add(1, std::memory_order_relaxed);
    }
  }

  detail::rep_state& rs_;
  std::uint64_t ops_ = 0;
  std::uint64_t peak_ = 0;  ///< thread-local until merged at exit
};

/// Run `cfg.repeats` repetitions of `body(worker&)` on `cfg.workers`
/// threads (plus any churn replacements the plan spawns).
template <class Body>
engine_result run_engine(const engine_config& cfg, Body&& body) {
  using clock = std::chrono::steady_clock;
  engine_result res;
  double mops_sum = 0;
  double unrecl_sum = 0;
  for (unsigned rep = 0; rep < cfg.repeats; ++rep) {
    detail::rep_state rs{cfg, rep};
    auto run_worker = [&](unsigned tid, std::uint32_t gen) {
      char name[32];
      std::snprintf(name, sizeof name, "%s-%u", gen == 0 ? cfg.name : "churn",
                    tid);
      obs::name_thread(name);
      worker w(rs, tid, gen);
      if (rs.tele != nullptr) rs.tele->thread_enter();
      while (!rs.start.load(std::memory_order_acquire)) {
      }
      body(w);
      rs.ops.fetch_add(w.ops_, std::memory_order_relaxed);
      detail::atomic_max(rs.peak, w.peak_);
      if (rs.tele != nullptr) rs.tele->thread_exit();
    };

    // Churn replacements are spawned by the director's clock thread and
    // joined after the primaries (the director is stopped first, so the
    // clock thread no longer appends by then).
    std::vector<std::thread> replacements;
    std::mutex spawn_mu;
    std::unique_ptr<lab::fault_director> dir;
    if (cfg.faults != nullptr && !cfg.faults->empty()) {
      dir = std::make_unique<lab::fault_director>(
          *cfg.faults, cfg.workers, [&](unsigned tid) {
            const std::uint32_t gen = rs.dir->generation(tid);
            std::lock_guard<std::mutex> lk(spawn_mu);
            replacements.emplace_back(run_worker, tid, gen);
          });
    }
    rs.dir = dir.get();
    std::unique_ptr<lab::telemetry_collector> tele;
    if (cfg.sample_ms != 0) {
      tele = std::make_unique<lab::telemetry_collector>(
          cfg.workers, cfg.sample_ms, cfg.stats);
    }
    rs.tele = tele.get();

    std::vector<std::thread> ts;
    ts.reserve(cfg.workers);
    for (unsigned t = 0; t < cfg.workers; ++t) {
      ts.emplace_back(run_worker, t, std::uint32_t{0});
    }

    rs.t0 = clock::now();
    rs.start.store(true, std::memory_order_release);
    if (dir != nullptr) dir->start();
    if (tele != nullptr) tele->start();
    // The full duration, or — on op-budget runs — until every worker has
    // published its budgeted count (workers publish at exit), whichever
    // comes first: budgeted tests cost their op count, not their
    // worst-case wall clock.
    const auto deadline = rs.t0 + std::chrono::milliseconds(cfg.duration_ms);
    if (cfg.op_limit == 0) {
      std::this_thread::sleep_until(deadline);
    } else {
      const std::uint64_t target = std::uint64_t{cfg.workers} * cfg.op_limit;
      while (clock::now() < deadline &&
             rs.ops.load(std::memory_order_relaxed) < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // The teardown order (see the header): stop, director, telemetry, joins.
    rs.stop.store(true, std::memory_order_release);
    if (dir != nullptr) dir->stop();
    if (tele != nullptr) {
      tele->stop();
      res.timeline = tele->take_points();
    }
    for (auto& th : ts) th.join();
    for (auto& th : replacements) th.join();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            clock::now() - rs.t0)
            .count();

    const std::uint64_t n = rs.ops.load(std::memory_order_relaxed);
    res.total_ops += n;
    res.secs += secs;
    mops_sum += static_cast<double>(n) / secs / 1e6;
    std::uint64_t peak = rs.peak.load(std::memory_order_relaxed);
    const std::uint64_t cnt = rs.sample_cnt.load(std::memory_order_relaxed);
    if (cnt == 0) {
      // Too short to reach a sampling point: one end-of-run observation
      // stands in for both statistics.
      const std::uint64_t end = detail::unreclaimed(cfg.stats);
      if (end > peak) peak = end;
      unrecl_sum += static_cast<double>(end);
    } else {
      unrecl_sum +=
          static_cast<double>(rs.sample_sum.load(std::memory_order_relaxed)) /
          static_cast<double>(cnt);
    }
    if (peak > res.unreclaimed_peak) res.unreclaimed_peak = peak;
  }
  res.mops = mops_sum / cfg.repeats;
  res.unreclaimed_avg = unrecl_sum / cfg.repeats;
  return res;
}

}  // namespace hyaline::harness
