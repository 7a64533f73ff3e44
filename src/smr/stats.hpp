// Reclamation statistics shared by every SMR domain.
//
// The paper's Figures 9/12/14/16 plot the average number of retired but not
// yet reclaimed objects per operation; these counters are what the harness
// samples to regenerate them. Counters are relaxed (they are monotone
// statistics, not synchronization).
//
// Three surfaces live here:
//   - the original alloc/retire/free ledgers,
//   - `domain_counters`: mechanism-level event counts (scans, rearms,
//     batch finalizes, era advances, tid acquires) bumped by the
//     core primitives every scheme is built from, so all 12 schemes report
//     them uniformly without per-scheme bookkeeping,
//   - `lag_counters`: a log-bucketed retire->free lag histogram (same
//     bucket geometry as lab::latency_histogram) fed at free time from the
//     retire timestamp stamped on the node. Lag tracking is gated by
//     obs::lag_tracking() — off, retire/free pay one relaxed load each.
//
// Layout: per-thread stripes, summed on read. A domain's `stats` holds
// kStatsStripes cache-line-aligned `stats_stripe`s, each with its own copy
// of every counter above. A thread bumps the stripe picked by
// core::thread_hint(): nothing on the alloc/retire/free path writes a line
// another thread's stripe lives on, which is the no-false-sharing premise
// of the paper's §3.3 (see common/align.hpp). Bumps stay relaxed
// fetch_adds because threads whose hints collide share a stripe. Readers
// (`retired.load(order)`, `events.scans.load(order)`, unreclaimed(),
// snapshot()) sum the stripes one at a time, so totals read mid-run may be
// momentarily inconsistent with each other (freed briefly above retired, a
// histogram a few counts off its ledger); once the threads are quiescent
// every total is exact.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/thread_hint.hpp"

namespace hyaline::smr {

/// Stripes per stats block; a power of two so the stripe index is a mask.
inline constexpr unsigned kStatsStripes = 16;
static_assert(std::has_single_bit(kStatsStripes));

/// Log2-bucketed histogram of retire->free lag in nanoseconds (one per
/// stripe). Bucket geometry matches lab::latency_histogram exactly (bucket 0
/// holds {0}, bucket b holds [2^(b-1), 2^b - 1]) so the harness can
/// rehydrate a latency_histogram from a snapshot and reuse its percentile
/// math.
struct lag_counters {
  static constexpr unsigned kBuckets = 65;

  std::atomic<std::uint64_t> bucket[kBuckets] = {};
  std::atomic<std::uint64_t> max_ns{0};

  void record(std::uint64_t ns) {
    bucket[std::bit_width(ns)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t m = max_ns.load(std::memory_order_relaxed);
    while (ns > m &&
           !max_ns.compare_exchange_weak(m, ns, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
};

/// One stripe: a private copy of every counter. The first cache line holds
/// the eight event and ledger counts; the lag histogram (lag tracking on)
/// follows.
struct alignas(cache_line_size) stats_stripe {
  std::atomic<std::uint64_t> allocated{0};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::uint64_t> freed{0};
  std::atomic<std::uint64_t> scans{0};      // reclamation passes over a retired set
  std::atomic<std::uint64_t> rearms{0};     // adaptive rescan-point resets
  std::atomic<std::uint64_t> finalizes{0};  // Hyaline batch finalizations
  std::atomic<std::uint64_t> era_advances{0};
  std::atomic<std::uint64_t> tid_acquires{0};  // slow-path tid pool checkouts
  lag_counters lag;
};
static_assert(sizeof(stats_stripe) == 10 * cache_line_size);

/// The calling thread's stripe of `stripes` (a kStatsStripes array).
inline stats_stripe& my_stripe(stats_stripe* stripes) {
  return stripes[core::thread_hint() & (kStatsStripes - 1)];
}

/// Read side of one counter: load() sums field F over every stripe.
template <std::atomic<std::uint64_t> stats_stripe::*F>
class striped_total {
 public:
  explicit striped_total(const stats_stripe* stripes) : stripes_(stripes) {}

  std::uint64_t load(std::memory_order order) const {
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kStatsStripes; ++i) {
      total += (stripes_[i].*F).load(order);
    }
    return total;
  }

 private:
  const stats_stripe* stripes_;
};

/// Mechanism-level event counters, bumped (relaxed) by the core retired-set
/// primitives and the schemes' finalize call sites into the calling
/// thread's stripe of the owning `stats`. Monotone statistics only — never
/// synchronization.
class domain_counters {
  stats_stripe* stripes_;

 public:
  explicit domain_counters(stats_stripe* stripes)
      : stripes_(stripes),
        scans(stripes),
        rearms(stripes),
        finalizes(stripes),
        era_advances(stripes),
        tid_acquires(stripes) {}
  domain_counters(const domain_counters&) = delete;
  domain_counters& operator=(const domain_counters&) = delete;

  striped_total<&stats_stripe::scans> scans;
  striped_total<&stats_stripe::rearms> rearms;
  striped_total<&stats_stripe::finalizes> finalizes;
  striped_total<&stats_stripe::era_advances> era_advances;
  striped_total<&stats_stripe::tid_acquires> tid_acquires;

  void on_scan() { bump(&stats_stripe::scans); }
  void on_rearm() { bump(&stats_stripe::rearms); }
  void on_finalize() { bump(&stats_stripe::finalizes); }
  void on_era_advance() { bump(&stats_stripe::era_advances); }
  void on_tid_acquire() { bump(&stats_stripe::tid_acquires); }

 private:
  void bump(std::atomic<std::uint64_t> stats_stripe::*f) {
    (my_stripe(stripes_).*f).fetch_add(1, std::memory_order_relaxed);
  }
};

/// Plain-integer copy of everything a domain counts, for carrying results
/// across domain teardown (workload_result, service_result).
struct stats_snapshot {
  std::uint64_t allocated = 0;
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::uint64_t scans = 0;
  std::uint64_t steals = 0;  // always 0; perfbench/bench.cpp still reads it
  std::uint64_t rearms = 0;
  std::uint64_t finalizes = 0;
  std::uint64_t era_advances = 0;
  std::uint64_t tid_acquires = 0;
  std::uint64_t lag_bucket[lag_counters::kBuckets] = {};
  std::uint64_t lag_count = 0;
  std::uint64_t lag_max_ns = 0;

  /// Element-wise sum (sharded service domains report one total).
  void accumulate(const stats_snapshot& o) {
    allocated += o.allocated;
    retired += o.retired;
    freed += o.freed;
    scans += o.scans;
    rearms += o.rearms;
    finalizes += o.finalizes;
    era_advances += o.era_advances;
    tid_acquires += o.tid_acquires;
    for (unsigned b = 0; b < lag_counters::kBuckets; ++b) {
      lag_bucket[b] += o.lag_bucket[b];
    }
    lag_count += o.lag_count;
    if (o.lag_max_ns > lag_max_ns) lag_max_ns = o.lag_max_ns;
  }
};

/// Every counter of one domain: 10368 bytes (asserted below), almost all of
/// it the stripes, paid once per domain — e.g. once per shard in the svc
/// sharded service.
class stats {
  stats_stripe stripes_[kStatsStripes];

 public:
  stats() = default;
  stats(const stats&) = delete;
  stats& operator=(const stats&) = delete;

  striped_total<&stats_stripe::allocated> allocated{stripes_};
  striped_total<&stats_stripe::retired> retired{stripes_};
  striped_total<&stats_stripe::freed> freed{stripes_};
  domain_counters events{stripes_};

  void on_alloc(std::uint64_t n = 1) {
    my_stripe(stripes_).allocated.fetch_add(n, std::memory_order_relaxed);
  }
  void on_retire(std::uint64_t n = 1) {
    my_stripe(stripes_).retired.fetch_add(n, std::memory_order_relaxed);
  }
  void on_free(std::uint64_t n = 1) {
    my_stripe(stripes_).freed.fetch_add(n, std::memory_order_relaxed);
  }
  /// One retire->free lag sample (free_node's path when tracking is on).
  void on_lag(std::uint64_t ns) { my_stripe(stripes_).lag.record(ns); }

  /// Retire-path half of lag tracking: stamp the node with the current
  /// tick count. One relaxed load + predicted branch when tracking is off.
  void stamp_retire(core::reclaimable* n) {
    on_retire();
    if (obs::lag_tracking()) [[unlikely]] {
      n->obs_retire_ticks = obs::now_ticks();
    }
  }

  /// Free-path counterpart: feed the lag histogram from the retire stamp,
  /// destroy the node through its typed thunk, bump the freed ledger.
  /// Every scheme's reclamation loop funnels user-retired nodes here.
  template <class Node>
  void free_node(Node* n) {
    stats_stripe& mine = my_stripe(stripes_);
    if (obs::lag_tracking()) [[unlikely]] {
      if (n->obs_retire_ticks != 0) {
        mine.lag.record(
            obs::ticks_to_ns(obs::now_ticks() - n->obs_retire_ticks));
      }
    }
    core::destroy(n);
    mine.freed.fetch_add(1, std::memory_order_relaxed);
  }

  /// Retired-but-not-yet-reclaimed sample, clamped at zero (mid-run the
  /// stripe sums may briefly show freed above retired).
  std::uint64_t unreclaimed() const {
    std::uint64_t r = 0;
    std::uint64_t f = 0;
    for (const stats_stripe& s : stripes_) {
      r += s.retired.load(std::memory_order_relaxed);
      f += s.freed.load(std::memory_order_relaxed);
    }
    return r >= f ? r - f : 0;
  }

  /// Relaxed sum of every counter over the stripes (see stats_snapshot).
  stats_snapshot snapshot() const {
    stats_snapshot t;
    for (const stats_stripe& s : stripes_) {
      t.allocated += s.allocated.load(std::memory_order_relaxed);
      t.retired += s.retired.load(std::memory_order_relaxed);
      t.freed += s.freed.load(std::memory_order_relaxed);
      t.scans += s.scans.load(std::memory_order_relaxed);
      t.rearms += s.rearms.load(std::memory_order_relaxed);
      t.finalizes += s.finalizes.load(std::memory_order_relaxed);
      t.era_advances += s.era_advances.load(std::memory_order_relaxed);
      t.tid_acquires += s.tid_acquires.load(std::memory_order_relaxed);
      for (unsigned b = 0; b < lag_counters::kBuckets; ++b) {
        const std::uint64_t c = s.lag.bucket[b].load(std::memory_order_relaxed);
        t.lag_bucket[b] += c;
        t.lag_count += c;
      }
      const std::uint64_t m = s.lag.max_ns.load(std::memory_order_relaxed);
      if (m > t.lag_max_ns) t.lag_max_ns = m;
    }
    return t;
  }
};
static_assert(sizeof(stats) == 10368);  // 16 stripes + two lines of views

}  // namespace hyaline::smr
