// The observability layer's contracts: ring buffers overwrite oldest and
// account every drop, the merged timeline is time-ordered across threads,
// a disabled tracer records nothing at all, and the per-domain event
// counters (smr/stats.hpp) come back nonzero through the same registry
// runners the figures use — so a scheme that silently stops reporting
// scans or finalizes fails here, not in a plot review.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "harness/registry.hpp"
#include "harness/schemes.hpp"
#include "obs/trace.hpp"

namespace hyaline {
namespace {

/// Every test starts from a quiescent tracer and leaves it that way; the
/// ring capacity is restored to the shipping default so later suites in
/// this binary do not inherit a test-sized ring.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override {
    obs::reset();
    obs::set_ring_capacity(8192);
  }
};

/// The one ring this test populated: tests share a process, so earlier
/// suites may have left registered-but-empty rings behind.
const obs::thread_trace* only_nonempty(
    const std::vector<obs::thread_trace>& traces) {
  const obs::thread_trace* found = nullptr;
  for (const obs::thread_trace& t : traces) {
    if (t.emitted == 0) continue;
    if (found != nullptr) return nullptr;  // ambiguous
    found = &t;
  }
  return found;
}

TEST_F(ObsTraceTest, RingOverwritesOldestAndAccountsDrops) {
  obs::set_ring_capacity(16);
  obs::set_tracing(true);
  for (std::uint64_t i = 0; i < 100; ++i) {
    obs::emit(obs::event::retire, i);
  }
  obs::set_tracing(false);

  const auto traces = obs::snapshot();
  const obs::thread_trace* t = only_nonempty(traces);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->emitted, 100u);
  EXPECT_EQ(t->dropped, 100u - 16u);
  ASSERT_EQ(t->records.size(), 16u);
  // Oldest-first, and the survivors are exactly the newest 16 records.
  for (std::size_t i = 0; i < t->records.size(); ++i) {
    EXPECT_EQ(t->records[i].arg, 84u + i);
    EXPECT_EQ(static_cast<obs::event>(t->records[i].ev),
              obs::event::retire);
    if (i > 0) EXPECT_GE(t->records[i].ts, t->records[i - 1].ts);
  }
}

TEST_F(ObsTraceTest, DisabledTracerRecordsNothing) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    obs::emit(obs::event::free_node, i);
  }
  std::uint64_t total = 0;
  for (const obs::thread_trace& t : obs::snapshot()) total += t.emitted;
  EXPECT_EQ(total, 0u) << "emit() with tracing off must not even register "
                          "a ring for the calling thread";
}

TEST_F(ObsTraceTest, MergedTimelineIsOrderedAcrossThreads) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 256;
  obs::set_ring_capacity(1024);
  obs::set_tracing(true);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      char name[16];
      std::snprintf(name, sizeof name, "emitter-%u", t);
      obs::name_thread(name);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        obs::emit(obs::event::retire, (std::uint64_t{t} << 32) | i);
      }
    });
  }
  for (auto& th : ts) th.join();
  obs::set_tracing(false);

  // Thread names survive into the snapshot metadata.
  unsigned named = 0;
  for (const obs::thread_trace& t : obs::snapshot()) {
    if (t.emitted == 0) continue;
    EXPECT_EQ(t.emitted, kPerThread);
    EXPECT_EQ(t.name.rfind("emitter-", 0), 0u) << t.name;
    ++named;
  }
  EXPECT_EQ(named, kThreads);

  const std::vector<obs::record> merged = obs::merged_records();
  ASSERT_EQ(merged.size(), kThreads * kPerThread);
  std::uint64_t per_thread_next[kThreads] = {};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(merged[i].ts, merged[i - 1].ts)
          << "merged timeline must be sorted by timestamp";
    }
    // Each thread's own subsequence keeps its emission order.
    const unsigned t = static_cast<unsigned>(merged[i].arg >> 32);
    const std::uint64_t seq = merged[i].arg & 0xffffffffu;
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(seq, per_thread_next[t]++);
  }
}

// ------------------------------------------------------- event counters --

harness::workload_result run_cell(const char* scheme) {
  const auto& reg = harness::scheme_registry::instance();
  harness::runner_fn run = reg.runner(scheme, "hashmap");
  EXPECT_NE(run, nullptr);
  harness::workload_config cfg;
  cfg.threads = 2;
  cfg.repeats = 1;
  cfg.op_limit = 30000;
  cfg.duration_ms = 10000;  // upper bound; the op budget stops the run
  cfg.key_range = 256;
  cfg.prefill = 64;
  cfg.seed = 0x0b5;
  harness::scheme_params p;
  p.max_threads = 4;
  return run(p, cfg);
}

TEST_F(ObsTraceTest, HazardPointerRunReportsScansAndRearms) {
  const harness::workload_result r = run_cell("HP");
  EXPECT_GT(r.obs.scans, 0u);
  EXPECT_GT(r.obs.rearms, 0u);
  EXPECT_GT(r.obs.tid_acquires, 0u);
  EXPECT_GT(r.obs.freed, 0u);
}

TEST_F(ObsTraceTest, EpochRunReportsEraAdvances) {
  const harness::workload_result r = run_cell("Epoch");
  EXPECT_GT(r.obs.era_advances, 0u);
  EXPECT_GT(r.obs.scans, 0u);
}

TEST_F(ObsTraceTest, HyalineRunReportsBatchFinalizes) {
  const harness::workload_result r = run_cell("Hyaline");
  EXPECT_GT(r.obs.finalizes, 0u);
  EXPECT_GT(r.obs.freed, 0u);
}

}  // namespace
}  // namespace hyaline
