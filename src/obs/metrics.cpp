#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "lab/telemetry.hpp"

namespace hyaline::obs {
namespace {

/// The plain counters, one exposition block each: a pointer-to-member
/// table keeps the HELP/TYPE text and the per-series sample lines in one
/// place instead of nine copy-pasted loops.
struct counter_field {
  const char* name;
  const char* help;
  std::uint64_t smr::stats_snapshot::* field;
};

constexpr counter_field kCounters[] = {
    {"smr_allocated_total", "Nodes allocated through the domain.",
     &smr::stats_snapshot::allocated},
    {"smr_retired_total", "Nodes passed to retire().",
     &smr::stats_snapshot::retired},
    {"smr_freed_total", "Nodes reclaimed (destructor run).",
     &smr::stats_snapshot::freed},
    {"smr_scans_total", "Reclamation passes over a retired set.",
     &smr::stats_snapshot::scans},
    {"smr_rearms_total", "Adaptive rescan-point resets.",
     &smr::stats_snapshot::rearms},
    {"smr_batch_finalizes_total", "Hyaline batch finalizations.",
     &smr::stats_snapshot::finalizes},
    {"smr_era_advances_total", "Global era/epoch advances.",
     &smr::stats_snapshot::era_advances},
    {"smr_tid_acquires_total", "Slow-path thread-id pool checkouts.",
     &smr::stats_snapshot::tid_acquires},
};

}  // namespace

bool write_prometheus(const std::string& path,
                      const std::vector<metric_series>& series,
                      std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open '" + path + "' for writing";
    return false;
  }

  for (const counter_field& c : kCounters) {
    std::fprintf(f, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help,
                 c.name);
    for (const metric_series& s : series) {
      std::fprintf(f, "%s{scheme=\"%s\"} %" PRIu64 "\n", c.name,
                   s.scheme.c_str(), s.snap.*(c.field));
    }
  }

  // Retire->free lag as a cumulative-le histogram. The bucket bounds are
  // the inclusive upper edges of the log2 buckets shared with
  // lab::latency_histogram; trailing all-zero buckets are elided (the
  // +Inf line carries the total). _sum is approximated from bucket
  // midpoints — the recorder keeps counts, not a running sum — which is
  // within the 2x bucket resolution any le-histogram consumer already
  // accepts.
  std::fprintf(f,
               "# HELP smr_retire_free_lag_ns Retire->free lag per "
               "reclaimed node (zero unless the run enabled lag "
               "tracking); _sum approximated from bucket midpoints.\n"
               "# TYPE smr_retire_free_lag_ns histogram\n");
  for (const metric_series& s : series) {
    unsigned top = 0;
    for (unsigned b = 0; b < smr::lag_counters::kBuckets; ++b) {
      if (s.snap.lag_bucket[b] != 0) top = b;
    }
    std::uint64_t cum = 0;
    double sum = 0;
    for (unsigned b = 0; b <= top; ++b) {
      cum += s.snap.lag_bucket[b];
      const double lo =
          static_cast<double>(lab::latency_histogram::bucket_lo(b));
      const double hi =
          static_cast<double>(lab::latency_histogram::bucket_hi(b));
      sum += static_cast<double>(s.snap.lag_bucket[b]) * (lo + hi) / 2.0;
      if (s.snap.lag_bucket[b] == 0 && b != top) continue;
      std::fprintf(f,
                   "smr_retire_free_lag_ns_bucket{scheme=\"%s\",le=\"%" PRIu64
                   "\"} %" PRIu64 "\n",
                   s.scheme.c_str(), lab::latency_histogram::bucket_hi(b),
                   cum);
    }
    std::fprintf(f,
                 "smr_retire_free_lag_ns_bucket{scheme=\"%s\",le=\"+Inf\"} "
                 "%" PRIu64 "\n",
                 s.scheme.c_str(), s.snap.lag_count);
    std::fprintf(f, "smr_retire_free_lag_ns_sum{scheme=\"%s\"} %.0f\n",
                 s.scheme.c_str(), sum);
    std::fprintf(f, "smr_retire_free_lag_ns_count{scheme=\"%s\"} %" PRIu64 "\n",
                 s.scheme.c_str(), s.snap.lag_count);
  }

  std::fprintf(f,
               "# HELP smr_retire_free_lag_max_ns Exact maximum "
               "retire->free lag observed.\n"
               "# TYPE smr_retire_free_lag_max_ns gauge\n");
  for (const metric_series& s : series) {
    std::fprintf(f, "smr_retire_free_lag_max_ns{scheme=\"%s\"} %" PRIu64 "\n",
                 s.scheme.c_str(), s.snap.lag_max_ns);
  }

  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && err != nullptr) *err = "error writing '" + path + "'";
  return ok;
}

}  // namespace hyaline::obs
