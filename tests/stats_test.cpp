// Striped SMR ledger (smr/stats.hpp): every counter lives in per-thread
// stripes and is summed on read. With more threads than stripes, threads
// must share stripes; once they are quiescent every total — the `.load()`
// views, snapshot() and unreclaimed() — must still be exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "ds/michael_hashmap.hpp"
#include "smr/hyaline.hpp"
#include "smr/stats.hpp"

namespace hyaline {
namespace {

static_assert(alignof(smr::stats_stripe) == cache_line_size,
              "a stripe must start on its own cache line");
static_assert(sizeof(smr::stats_stripe) % cache_line_size == 0,
              "a stripe must not share its last line with the next stripe");

constexpr unsigned kThreads = 2 * smr::kStatsStripes + 1;
constexpr std::uint64_t kIters = 2000;

/// Lag sample of thread t's i-th bump: distinct across all threads, so the
/// true maximum is known and the buckets cover a wide range.
std::uint64_t lag_sample(unsigned t, std::uint64_t i) {
  return (std::uint64_t{t} * kIters + i) * 977;
}

template <class F>
void run_threads(F&& body) {
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) ts.emplace_back(body, t);
  for (auto& th : ts) th.join();
}

TEST(StripedStats, SharedStripesStayExactAtQuiescence) {
  smr::stats st;
  run_threads([&st](unsigned t) {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      st.on_alloc();
      st.on_retire();
      st.on_free();
      st.events.on_scan();
      st.events.on_rearm();
      st.events.on_finalize();
      st.events.on_era_advance();
      st.events.on_tid_acquire();
      st.on_lag(lag_sample(t, i));
    }
    // Bulk bumps land in the same stripe as unit ones.
    st.on_alloc(3);
    st.on_retire(2);
  });

  const std::uint64_t n = std::uint64_t{kThreads} * kIters;
  EXPECT_EQ(st.allocated.load(std::memory_order_relaxed), n + 3 * kThreads);
  EXPECT_EQ(st.retired.load(std::memory_order_relaxed), n + 2 * kThreads);
  EXPECT_EQ(st.freed.load(std::memory_order_relaxed), n);
  EXPECT_EQ(st.events.scans.load(std::memory_order_relaxed), n);
  EXPECT_EQ(st.events.rearms.load(std::memory_order_relaxed), n);
  EXPECT_EQ(st.events.finalizes.load(std::memory_order_relaxed), n);
  EXPECT_EQ(st.events.era_advances.load(std::memory_order_relaxed), n);
  EXPECT_EQ(st.events.tid_acquires.load(std::memory_order_relaxed), n);
  EXPECT_EQ(st.unreclaimed(), 2u * kThreads);

  std::uint64_t want_bucket[smr::lag_counters::kBuckets] = {};
  std::uint64_t want_max = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      ++want_bucket[std::bit_width(lag_sample(t, i))];
      want_max = std::max(want_max, lag_sample(t, i));
    }
  }

  const smr::stats_snapshot s = st.snapshot();
  EXPECT_EQ(s.allocated, n + 3 * kThreads);
  EXPECT_EQ(s.retired, n + 2 * kThreads);
  EXPECT_EQ(s.freed, n);
  EXPECT_EQ(s.scans, n);
  EXPECT_EQ(s.rearms, n);
  EXPECT_EQ(s.finalizes, n);
  EXPECT_EQ(s.era_advances, n);
  EXPECT_EQ(s.tid_acquires, n);
  EXPECT_EQ(s.lag_count, n);
  EXPECT_EQ(s.lag_max_ns, want_max);
  for (unsigned b = 0; b < smr::lag_counters::kBuckets; ++b) {
    EXPECT_EQ(s.lag_bucket[b], want_bucket[b]) << "bucket " << b;
  }
}

TEST(StripedStats, DomainLedgerBalancesAfterDrain) {
  // The same stripe sharing through a real scheme: every successful remove
  // retires exactly one node, and drain() must free every one of them.
  domain dom(config{.slots = 4, .batch_min = 8});
  ds::michael_hashmap<domain> map(dom, 64);
  std::atomic<std::uint64_t> removes{0};
  run_threads([&](unsigned t) {
    std::uint64_t mine = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
      domain::guard g(dom);
      const std::uint64_t k = (t * 7 + i) % 256;
      if (i % 2 == 0) {
        map.insert(g, k, k);
      } else if (map.remove(g, k)) {
        ++mine;
      }
    }
    dom.flush();
    removes.fetch_add(mine, std::memory_order_relaxed);
  });
  dom.drain();

  const std::uint64_t retired = dom.counters().retired.load(std::memory_order_relaxed);
  EXPECT_EQ(retired, removes.load(std::memory_order_relaxed));
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), retired);
  EXPECT_EQ(dom.counters().unreclaimed(), 0u);
  EXPECT_EQ(dom.counters().snapshot().freed, retired);
}

}  // namespace
}  // namespace hyaline
