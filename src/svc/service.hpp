// Service scenario, part 5: the swarm driver.
//
// run_service<D> stands up a shard_router over scheme D, prefills it,
// and runs a tenant swarm against it for a fixed duration:
//
//   - every tenant is one worker thread with an open-loop pacer
//     (svc/loadgen.hpp) drawing Zipfian keys — the simulated slice of a
//     million-user population behind one connection;
//   - connection churn and stall-in-guard windows are lowered into a
//     lab::fault_plan (svc/tenant.hpp) and executed by the robustness
//     lab's fault_director — tenants poll its control words at op
//     boundaries exactly like the workload loops;
//   - hot-key and scan-storm windows run inline, unpaced, against the
//     router; a scripted tenant's latency goes to a separate histogram
//     so its self-inflicted backlog cannot pollute the victim numbers
//     the latency SLOs gate;
//   - the telemetry sampler aggregates retired/freed across all shard
//     domains into one time series for the memory SLOs.
//
// The lifecycle — flags, director, telemetry, spawn/join and the
// teardown order — is the run engine's (harness/engine.hpp); this file
// supplies only the op source (the paced Zipf tenant and its scripted
// windows). After the engine's teardown come router shutdown (structures
// destroyed, domains drained) and the retired == freed leak gate reading.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/engine.hpp"
#include "harness/schemes.hpp"
#include "harness/workload.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "smr/stats.hpp"
#include "svc/loadgen.hpp"
#include "svc/shard_router.hpp"
#include "svc/tenant.hpp"

namespace hyaline::svc {

struct service_config {
  unsigned shards = 4;
  unsigned tenants = 16;
  /// Total offered load across the swarm, ops/s, split evenly over the
  /// tenants; 0 = closed-loop (no pacing, latency CO-unsafe — only for
  /// saturation probes).
  double rate_ops_s = 0;
  arrival_kind arrival = arrival_kind::poisson;
  /// Zipfian skew over [0, key_range); 0 = uniform, 0.99 = YCSB default.
  double zipf_theta = 0.99;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  /// Op mix, percent; must sum to 100. Cache default: read-mostly.
  unsigned insert_pct = 5;
  unsigned remove_pct = 5;
  unsigned get_pct = 90;
  unsigned duration_ms = 2000;
  unsigned sample_ms = 20;  ///< telemetry cadence; 0 = no timeline
  std::uint64_t seed = 0x5eed;
  /// Connection-churn period (0 = none): every period one well-behaved
  /// tenant hangs up and reconnects through tid_lease recycling.
  unsigned churn_period_ms = 0;
  std::size_t buckets_per_shard = 4096;
  /// Bad-tenant script (nullptr = everyone behaves). Must be validated
  /// against `tenants` and outlive the run.
  const tenant_plan* script = nullptr;
};

struct service_result {
  lab::latency_histogram victim_hist;    ///< well-behaved tenants, CO-safe
  lab::latency_histogram scripted_hist;  ///< bad tenants (reported only)
  std::vector<lab::sample_point> timeline;
  std::vector<shard_snapshot> shards;  ///< post-shutdown, leak-gate state
  std::uint64_t ops = 0;               ///< tenant ops (prefill excluded)
  std::uint64_t retired = 0;           ///< summed across shard domains
  std::uint64_t freed = 0;
  std::uint64_t unreclaimed_peak = 0;  ///< worst timeline sample
  double duration_s = 0;
  double mops = 0;
  /// Domain counters summed across every shard domain after shutdown
  /// (scans/finalizes and the retire->free lag histogram).
  smr::stats_snapshot obs;
  /// Retire->free lag percentiles (ns) over all shards; zero when lag
  /// tracking was off.
  double lag_p50_ns = 0;
  double lag_p99_ns = 0;
  std::uint64_t lag_max_ns = 0;
};

template <class D>
service_result run_service(const harness::scheme_params& base,
                           const service_config& cfg) {
  using guard_t = typename D::guard;
  using clock = pacer::clock;
  assert(harness::valid_mix(cfg) && "op-mix percentages must sum to 100");

  const unsigned tenants = cfg.tenants == 0 ? 1 : cfg.tenants;
  const tenant_plan no_script;
  const tenant_plan& script =
      cfg.script != nullptr ? *cfg.script : no_script;
  const lab::fault_plan plan = to_fault_plan(
      script, tenants, cfg.churn_period_ms, cfg.duration_ms);

  // Every tenant may touch every shard's domain, and churn replacements
  // transiently overlap their predecessors' leases — size each domain
  // with the lab's one headroom formula.
  harness::scheme_params p = base;
  p.max_threads = plan.lease_headroom(tenants);

  shard_router<D> router(
      cfg.shards, [&] { return harness::scheme_traits<D>::make(p); },
      cfg.buckets_per_shard);
  const unsigned shards = router.shards();

  // --- prefill (quiescent) ---------------------------------------------
  {
    xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    std::size_t live = 0;
    while (live < cfg.prefill) {
      if (router.put(rng.below(cfg.key_range), 1)) ++live;
    }
    router.flush_thread();  // main thread idles while tenants run
  }

  const zipf_generator zipf(cfg.key_range, cfg.zipf_theta);
  const double tenant_rate = cfg.rate_ops_s / tenants;

  harness::engine_config ec;
  ec.workers = tenants;
  ec.duration_ms = cfg.duration_ms;
  ec.sample_ms = cfg.sample_ms;
  ec.seed = cfg.seed + 1;  // the tenants' stream base
  ec.name = "tenant";
  ec.faults = &plan;
  ec.stats = router.stats_pointers();

  service_result res;
  std::mutex hist_mu;
  auto tenant = [&](harness::worker& w) {
    xoshiro256 rng(w.seed());
    pacer pace(cfg.arrival, tenant_rate, cfg.seed ^ (w.tid * 0x9e37 + w.gen));
    lab::latency_histogram lhist;
    const bool scripted = script.is_scripted(w.tid);
    bool in_window = false;

    auto good_op = [&](std::uint64_t key) {
      std::uint64_t out = 0;
      switch (harness::op_for_dice(cfg, rng.below(100))) {
        case check::op_kind::insert:
          router.put(key, key);
          break;
        case check::op_kind::remove:
          router.del(key);
          break;
        default:
          router.get(key, out);
      }
    };

    // Each tenant anchors its own schedule at its own loop entry, so a
    // churn replacement starts fresh instead of inheriting the backlog
    // of a schedule anchored at run start.
    pace.anchor(clock::now());
    w.loop(
        [&] {
          if (scripted) {
            const double t_ms =
                std::chrono::duration_cast<
                    std::chrono::duration<double, std::milli>>(
                    clock::now() - w.start_time())
                    .count();
            if (const behavior_event* be = script.active(w.tid, t_ms)) {
              in_window = true;
              const auto t_op = clock::now();
              if (be->kind == behavior_kind::hot_keys) {
                // Hammer the hottest Zipf rank with unpaced writes: one
                // shard's bucket chain takes the retire churn.
                if ((w.ops() & 1) == 0) {
                  router.put(0, 0);
                } else {
                  router.del(0);
                }
              } else {
                router.scan(static_cast<unsigned>(rng.below(shards)),
                            rng.below(cfg.key_range), 256);
              }
              lhist.record(intended_latency_ns(t_op, clock::now()));
              return true;
            }
            if (in_window) {
              in_window = false;
              pace.reanchor();  // the window's backlog was self-inflicted
            }
          }
          const clock::time_point intended =
              pace.paced() ? pace.next_intended() : clock::now();
          if (pace.paced() && !pacer::await(intended, w.stop_flag())) {
            return false;
          }
          good_op(zipf(rng));
          lhist.record(intended_latency_ns(intended, clock::now()));
          return true;
        },
        // Stall-in-guard: enter one shard's domain, touch a node so the
        // guard pins something, and block for the window. The blast
        // radius is that shard; the others keep reclaiming.
        [&](auto&& hold) {
          const unsigned s = w.tid % shards;
          guard_t g(router.domain(s));
          router.touch(g, s, rng.below(cfg.key_range));
          hold();
          // A stalled tenant is a scripted tenant: its pacer backlog is
          // the fault's doing, not the service's.
          pace.reanchor();
        },
        // Tenant scripts lower to stall and churn only (to_fault_plan),
        // so the director never hands a tenant burst work.
        [] {});

    router.flush_thread();
    std::lock_guard<std::mutex> lk(hist_mu);
    (scripted ? res.scripted_hist : res.victim_hist).merge(lhist);
  };
  harness::engine_result er = harness::run_engine(ec, tenant);

  res.timeline = std::move(er.timeline);
  res.duration_s = er.secs;
  res.ops = er.total_ops;
  res.mops = er.mops;
  for (const lab::sample_point& pt : res.timeline) {
    if (pt.unreclaimed > res.unreclaimed_peak) {
      res.unreclaimed_peak = pt.unreclaimed;
    }
  }

  // Leak gate: destroy structures, drain every shard domain, and read
  // the final ledger. retired != freed afterwards means the scheme
  // leaked under churn + faults.
  router.shutdown();
  res.shards = router.snapshot();
  for (const shard_snapshot& s : res.shards) {
    res.retired += s.retired;
    res.freed += s.freed;
  }
  // Full counter state, summed across the shard domains (each owns its
  // own stats block), then the lag buckets rehydrated through the shared
  // histogram math.
  for (const smr::stats* st : router.stats_pointers()) {
    res.obs.accumulate(st->snapshot());
  }
  harness::fill_lag_percentiles(res);
  return res;
}

/// Type-erased entry point for the scheme-name dispatch in svc/matrix.cpp
/// (every registry scheme except the Mutex external baseline, which has
/// no guard/retire protocol to shard).
using service_runner_fn = service_result (*)(const harness::scheme_params&,
                                             const service_config&);

/// nullptr for unknown or unsupported (Mutex) scheme names.
service_runner_fn find_service_runner(const std::string& scheme);

/// The scheme names with a service runner, in registry order.
std::vector<std::string> service_schemes();

}  // namespace hyaline::svc
