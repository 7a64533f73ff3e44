// The amortized guard-entry burst (scheme_params::entry_burst), driven
// through the registry's type-erased runners: across burst lengths the
// leak ledger must close (retired == freed after the quiescent drain) —
// a lingering burst reservation may delay reclamation, never block it or
// free under a live guard.
//
// All allocations route through debug_alloc (hooks installed at static
// init, before any node exists), so a dropped or double-freed node fails
// deterministically here rather than flakily in a benchmark.
#include <gtest/gtest.h>

#include <string>

#include "common/debug_alloc.hpp"
#include "ds_test_common.hpp"
#include "harness/registry.hpp"

namespace hyaline {
namespace {

const bool hooks_installed = test_support::install_debug_alloc_hooks();

TEST(BurstEntry, LedgerClosesAcrossBurstLengths) {
  // EBR and IBR amortize guard entry (caps.burst_entry); with a live
  // burst window the ledger must still close — the drain clears every
  // lingering reservation before reclaiming.
  ASSERT_TRUE(hooks_installed);
  const auto& reg = harness::scheme_registry::instance();
  harness::workload_config cfg;
  cfg.threads = 4;
  cfg.duration_ms = 40;
  cfg.repeats = 1;
  cfg.key_range = 128;
  cfg.prefill = 32;
  cfg.insert_pct = 40;
  cfg.remove_pct = 40;
  cfg.get_pct = 20;

  for (const char* scheme : {"Epoch", "IBR"}) {
    for (std::uint32_t burst : {1u, 8u, 64u}) {
      SCOPED_TRACE(std::string(scheme) + " burst=" +
                   std::to_string(burst));
      debug_alloc::reset();
      harness::scheme_params p;
      p.max_threads = 8;
      p.entry_burst = burst;
      harness::runner_fn run = reg.runner(scheme, "hashmap");
      ASSERT_NE(run, nullptr);
      const harness::workload_result r = run(p, cfg);
      EXPECT_GT(r.total_ops, 0u);
      EXPECT_EQ(r.retired, r.freed)
          << "a lingering burst reservation blocked reclamation forever";
      EXPECT_EQ(debug_alloc::live_count(), 0u);
      EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
          << "write-after-free: burst elision freed under a live guard";
    }
  }

  // The burst caps are advertised: schemes that amortize entry say so.
  EXPECT_TRUE(reg.find("Epoch")->caps.burst_entry);
  EXPECT_TRUE(reg.find("IBR")->caps.burst_entry);
  EXPECT_TRUE(reg.find("Hyaline")->caps.burst_entry);
  EXPECT_FALSE(reg.find("HP")->caps.burst_entry);
  EXPECT_FALSE(reg.find("HE")->caps.burst_entry);
}

}  // namespace
}  // namespace hyaline
