// Minimal command-line parsing shared by the benchmark binaries.
//
// Supported flags (all optional; each bench supplies paper-shaped
// defaults scaled to finish quickly on a laptop/CI box):
//   --threads 1,2,4,8    thread counts to sweep
//   --duration <ms>      per-data-point run time
//   --repeats <n>        runs averaged per point (paper uses 5)
//   --prefill <n>        initial element count (paper: 50000)
//   --range <n>          key range (paper: 100000)
//   --stalled 0,1,...    stalled-thread counts (fig10a)
//   --schemes a,b        restrict to named schemes (validated against the
//                        runtime scheme registry by the figure drivers)
//   --mix i,r,g          op-mix percentages (insert,remove,get); rejected
//                        unless they sum to exactly 100 (set figures only)
//   --producers a,b,...  producer-thread counts  (container figures only;
//   --consumers a,b,...  consumer-thread counts   zipped pairwise into
//                        (producers, consumers) sweep points)
//   --seed <n>           base PRNG seed threaded through every workload
//                        generator (prefill, workers, stall draws); echoed
//                        in the CSV header comment and the --json config
//                        block so any run can be reproduced exactly
//   --faults <spec>      timeline figures only: fault-injection schedule
//                        (grammar in lab/fault_plan.hpp)
//   --sample-ms <n>      timeline figures only: telemetry cadence
//   --structure <name>   timeline figures only: structure to drive
//   --lat-sample <n>     latency-sampling period: one in n operations is
//                        timed (default 32; must be a power of two so the
//                        modulo stays a mask); echoed in the CSV header
//                        comment and the --json config block
//   --trace <path>       record SMR-internals events (guard enter/exit,
//                        retire, scan, finalize, free, era advance,
//                        stall windows) into per-thread ring buffers and
//                        export them as Chrome trace-event JSON on exit
//                        (load in Perfetto / chrome://tracing). Bounded
//                        memory: oldest records are overwritten, drops are
//                        counted in the trace metadata
//   --metrics <path>     service scenario only: write a Prometheus-style
//                        text snapshot of the domain counters and the
//                        retire->free lag histogram at end of run
//   --json <path>        also write the run as machine-readable JSON
//                        (per-scheme throughput + unreclaimed + latency
//                        series plus the resolved workload config as
//                        metadata; timeline figures add the time series)
//   --mutate <mode>      check binary only: run an injected-bug self-test
//                        (drop-validate | skip-protect) instead of the
//                        matrix; the checker is expected to catch it
//   --counterexample <p> check binary only: on a violation, also write
//                        the counterexample history to this file (CI
//                        uploads it as a workflow artifact)
//   --svc-shards <n>     service scenario only: cache shard count (each
//                        shard owns its own SMR domain)
//   --tenants <n>        service scenario only: swarm size
//   --rate <ops/s>       service scenario only: total offered load,
//                        split over the tenants (0 = closed loop)
//   --skew <theta>       service scenario only: Zipfian skew in [0, 1)
//   --arrival <kind>     service scenario only: fixed | poisson
//   --tenant-script <s>  service scenario only: bad-tenant schedule
//                        (grammar in svc/tenant.hpp)
//   --slo <spec>         service scenario only: SLO assertions
//                        (grammar in svc/slo.hpp); any gated violation
//                        exits 6
//   --churn <ms>         service scenario only: connection-churn period
//   --full               paper-scale settings (duration 10s, repeats 5)
//
// Duplicate entries in the --schemes, --threads, and --stalled lists are
// deduplicated with a warning: each would silently re-run (and re-plot)
// an identical series, which skews averaged CSV post-processing. The
// container figure driver applies the same rule to its zipped
// (producers, consumers) sweep points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hyaline::harness {

/// The CSV column list — the one source both the header line and the row
/// printer derive from (print_csv_row statically asserts its value count
/// against this), so adding a column cannot leave the two out of sync.
inline constexpr const char* kCsvColumns[] = {
    "figure",        "structure",          "scheme",
    "threads",       "stalled",            "producers",
    "consumers",     "mops",               "unreclaimed_per_op",
    "unreclaimed_peak", "p50_ns",          "p99_ns",
    "max_ns",        "lag_p50_ns",         "lag_p99_ns",
    "lag_max_ns",
};

struct cli_options {
  std::vector<unsigned> threads;
  std::vector<unsigned> stalled;
  unsigned duration_ms = 300;
  unsigned repeats = 1;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  std::vector<std::string> schemes;  // empty = all
  /// Op-mix override {insert,remove,get}; empty = the figure's default.
  /// parse_cli guarantees: empty, or exactly 3 values summing to 100.
  std::vector<unsigned> mix;
  /// Producer/consumer sweep lists (container figures). Empty = the
  /// figure's defaults; the figure driver zips them pairwise.
  std::vector<unsigned> producers;
  std::vector<unsigned> consumers;
  /// True iff --range / --threads were given explicitly (the value alone
  /// cannot tell — defaults are figure-supplied). Container figures
  /// reject these set-only flags, which would otherwise be silently
  /// ignored.
  bool range_set = false;
  bool threads_set = false;
  /// Base PRNG seed for every workload generator (default matches
  /// workload_config's).
  std::uint64_t seed = 0x5eed;
  /// Robustness-lab knobs (timeline figures only; other kinds reject
  /// them). `faults` is the raw spec text — parsed and validated by the
  /// timeline driver, which knows the thread count.
  std::string faults;
  unsigned sample_ms = 0;
  bool sample_ms_set = false;
  std::string structure;
  /// Latency-sampling period: one in `lat_sample` operations is timed.
  /// parse_cli guarantees a power of two >= 1. `lat_sample_set` marks an
  /// explicit flag (the service scenario records every op CO-safely and
  /// rejects the flag rather than silently ignoring it).
  std::uint64_t lat_sample = 32;
  bool lat_sample_set = false;
  /// Path for the Chrome trace-event JSON export of the SMR-internals
  /// event rings (empty = tracing stays off).
  std::string trace;
  /// Path for the Prometheus-style counter snapshot (fig_service only;
  /// empty = none).
  std::string metrics;
  /// Path for the machine-readable JSON trajectory file (empty = none).
  std::string json;
  /// Correctness-oracle knobs (the check binary only; figure binaries
  /// reject them): `mutate` selects an injected-bug self-test
  /// (drop-validate | skip-protect), `counterexample` is where a
  /// violation's counterexample history is mirrored.
  std::string mutate;
  std::string counterexample;
  /// Service-scenario knobs (fig_service only; other figures reject
  /// them). Sentinels mark "unset" so the driver can apply its own
  /// defaults: 0 for the counts/periods, negative for the rates, empty
  /// for the specs.
  unsigned svc_shards = 0;    ///< cache shards (each owns a domain)
  unsigned tenants = 0;       ///< swarm size (worker threads)
  double rate_ops_s = -1;     ///< total offered load; 0 = closed loop
  double skew = -1;           ///< Zipfian theta in [0, 1); 0 = uniform
  std::string arrival;        ///< fixed | poisson
  std::string tenant_script;  ///< bad-tenant spec (svc/tenant.hpp)
  std::string slo;            ///< SLO spec (svc/slo.hpp)
  unsigned churn_ms = 0;      ///< connection-churn period; 0 = none
  bool full = false;

  /// True if any service-scenario flag was given (used by the figure
  /// kinds that must reject them).
  bool service_flag_set() const;

  /// True if `name` should run under the --schemes filter.
  bool scheme_enabled(const std::string& name) const;
};

/// Parse argv; exits with a usage message on malformed input. `defaults`
/// seeds the sweep lists benches want when flags are absent.
cli_options parse_cli(int argc, char** argv, cli_options defaults);

/// Print the standard CSV header used by all figure benches: a comment
/// line naming the figure, one echoing the seed, one echoing the
/// latency-sampling period (omitted when `lat_sample` is 0), then the
/// kCsvColumns line.
void print_csv_header(const char* figure, std::uint64_t seed,
                      std::uint64_t lat_sample = 0);

/// Emit one CSV data row (column meanings per kCsvColumns; producers and
/// consumers are 0 on set-structure rows, latency columns are the sampled
/// per-op percentiles in ns, lag columns the retire->free percentiles —
/// zero unless the run had lag tracking on).
void print_csv_row(const char* figure, const char* structure,
                   const char* scheme, unsigned threads, unsigned stalled,
                   unsigned producers, unsigned consumers, double mops,
                   double unreclaimed, double unreclaimed_peak,
                   double p50_ns, double p99_ns, double max_ns,
                   double lag_p50_ns, double lag_p99_ns, double lag_max_ns);

}  // namespace hyaline::harness
