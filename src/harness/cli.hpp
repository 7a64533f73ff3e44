// Command-line parsing shared by the benchmark binaries: one flag table.
//
// Every flag has one row in cli.cpp: its name, its value hint, its
// one-line help text, and the rule that parses and range-checks its
// value. Each binary names the set of rows it takes (the k*Flags sets
// below); parse_cli rejects every other flag with exit 2, `--help` lists
// exactly the binary's rows, and `cli_options::given` records which flags
// appeared. The help strings are the flag reference: run any binary with
// `--help`.
//
// Duplicate entries in the --schemes, --threads and --stalled lists are
// dropped with a warning: each would silently re-run (and re-plot) an
// identical series, which skews averaged CSV post-processing. The
// container figure driver applies the same rule to its zipped
// (producers, consumers) sweep points.
#pragma once

#include <cstdint>
#include <initializer_list>
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

/// One row of the flag table. `threads` and `thread_count` are the same
/// `--threads` flag: a sweep list for the binaries that sweep it, one
/// count for the binaries that run a single thread count.
enum class flag : unsigned {
  threads,
  thread_count,
  stalled,
  producers,
  consumers,
  duration,
  repeats,
  full,
  prefill,
  range,
  mix,
  schemes,
  seed,
  lat_sample,
  faults,
  structure,
  sample_ms,
  json,
  trace,
  metrics,
  mutate,
  counterexample,
  svc_shards,
  tenants,
  rate,
  skew,
  arrival,
  tenant_script,
  slo,
  churn,
  out,
  iters,
  fastpath,
  count_,
};

inline constexpr unsigned kFlagCount = static_cast<unsigned>(flag::count_);

/// A set of flag-table rows: the flags one binary takes, or the flags one
/// command line gave.
class flag_set {
 public:
  constexpr flag_set() = default;
  constexpr flag_set(std::initializer_list<flag> fs) {
    for (flag f : fs) add(f);
  }
  constexpr void add(flag f) { bits_ |= bit(f); }
  constexpr bool has(flag f) const { return (bits_ & bit(f)) != 0; }

 private:
  static constexpr std::uint64_t bit(flag f) {
    return std::uint64_t{1} << static_cast<unsigned>(f);
  }
  std::uint64_t bits_ = 0;
};

static_assert(kFlagCount <= 64, "flag_set holds one bit per flag");

/// The matrix figures (fig8/9/11/12/13-16): four structures x the scheme
/// line-up x a thread sweep.
inline constexpr flag_set kMatrixFlags = {
    flag::threads,  flag::duration, flag::repeats, flag::full,
    flag::prefill,  flag::range,    flag::mix,     flag::schemes,
    flag::seed,     flag::lat_sample, flag::json,  flag::trace};
/// fig10b: the hash map with trim() on and off; the same knobs as the
/// matrix figures.
inline constexpr flag_set kTrimFlags = kMatrixFlags;
/// fig10a: one active thread count, sweeping stalled threads.
inline constexpr flag_set kRobustnessFlags = {
    flag::thread_count, flag::stalled,  flag::duration, flag::repeats,
    flag::full,         flag::prefill,  flag::range,    flag::mix,
    flag::schemes,      flag::seed,     flag::lat_sample, flag::json,
    flag::trace};
/// fig_queue: the container family over (producers, consumers) pairs.
inline constexpr flag_set kContainerFlags = {
    flag::producers, flag::consumers, flag::duration, flag::repeats,
    flag::full,      flag::prefill,   flag::schemes,  flag::seed,
    flag::lat_sample, flag::json,     flag::trace};
/// fig_timeline: one structure, one thread count, one repetition, under
/// a fault schedule.
inline constexpr flag_set kTimelineFlags = {
    flag::thread_count, flag::duration,  flag::prefill, flag::range,
    flag::mix,          flag::schemes,   flag::seed,    flag::lat_sample,
    flag::faults,       flag::structure, flag::sample_ms, flag::json,
    flag::trace};
/// fig_service: the sharded cache under a tenant swarm, sized by
/// --tenants; every paced op is timed, so no --lat-sample.
inline constexpr flag_set kServiceFlags = {
    flag::duration,  flag::prefill,       flag::range,   flag::mix,
    flag::schemes,   flag::seed,          flag::sample_ms, flag::json,
    flag::trace,     flag::metrics,       flag::svc_shards, flag::tenants,
    flag::rate,      flag::skew,          flag::arrival, flag::tenant_script,
    flag::slo,       flag::churn};
/// check: the linearizability oracle, one repetition per cell.
inline constexpr flag_set kCheckFlags = {
    flag::thread_count, flag::duration, flag::prefill,   flag::range,
    flag::mix,          flag::schemes,  flag::seed,      flag::faults,
    flag::structure,    flag::mutate,   flag::counterexample};
/// ablation_hyaline: the hash map under batch/slot/head/era variants.
inline constexpr flag_set kAblationFlags = {
    flag::threads, flag::duration, flag::repeats,   flag::full,
    flag::prefill, flag::range,    flag::seed,      flag::lat_sample};
/// sweep: the pinned trajectory lineup.
inline constexpr flag_set kSweepFlags = {
    flag::out,  flag::thread_count, flag::duration, flag::repeats,
    flag::seed, flag::fastpath,     flag::schemes};
/// fig_opcost: single-thread per-primitive costs.
inline constexpr flag_set kOpcostFlags = {flag::iters, flag::fastpath,
                                          flag::schemes, flag::json};

/// Parsed command line. Each binary seeds the fields it reads with its
/// own defaults before parsing; fields of flags outside its set keep them.
struct cli_options {
  std::vector<unsigned> threads;  ///< never empty once parsed with --threads
  std::vector<unsigned> stalled;
  unsigned duration_ms = 300;
  unsigned repeats = 1;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  std::vector<std::string> schemes;  // empty = all
  /// Op-mix override {insert,remove,get}; empty = the figure's default.
  /// Given: exactly 3 values summing to 100.
  std::vector<unsigned> mix;
  /// Producer/consumer sweep lists (container figures); the figure driver
  /// zips them pairwise.
  std::vector<unsigned> producers;
  std::vector<unsigned> consumers;
  /// Base PRNG seed for every workload generator (default matches
  /// workload_config's).
  std::uint64_t seed = 0x5eed;
  /// Fault schedule text, parsed and validated by the driver, which knows
  /// the thread count.
  std::string faults;
  unsigned sample_ms = 10;  ///< telemetry sampling period
  std::string structure;
  /// Latency-sampling period: one in `lat_sample` operations is timed.
  /// Always a power of two >= 1.
  std::uint64_t lat_sample = 32;
  std::string trace;    ///< Chrome trace-event export path (empty = off)
  std::string metrics;  ///< Prometheus snapshot path (empty = none)
  std::string json;     ///< JSON trajectory path (empty = none)
  std::string mutate;   ///< oracle self-test mode (empty = the matrix)
  std::string counterexample;
  unsigned svc_shards = 0;    ///< cache shards (each owns a domain)
  unsigned tenants = 0;       ///< swarm size (worker threads)
  double rate_ops_s = 0;      ///< total offered load; 0 = closed loop
  double skew = 0;            ///< Zipfian theta in [0, 1); 0 = uniform
  std::string arrival;        ///< fixed | poisson
  std::string tenant_script;  ///< bad-tenant spec (svc/tenant.hpp)
  std::string slo;            ///< SLO spec (svc/slo.hpp)
  unsigned churn_ms = 0;      ///< connection-churn period; 0 = none
  std::string out;            ///< trajectory file (sweep)
  std::uint64_t iters = 0;    ///< timed iterations per primitive
  bool fastpath = true;       ///< slab allocator
  bool full = false;
  bool help = false;
  /// The flags this command line gave.
  flag_set given;

  /// True if `name` should run under the --schemes filter.
  bool scheme_enabled(const std::string& name) const;
};

/// `--name` of a flag-table row.
const char* flag_name(flag f);

/// Parse argv[1..] against the flag set into `o`, which holds the
/// binary's defaults on entry. Returns false with the reason in `err`
/// (naming the offending flag) on a flag outside `accepted`, a missing
/// value, or a value its row's rule rejects. `--help` sets `o.help`.
bool parse_flags(int argc, char** argv, flag_set accepted, cli_options& o,
                 std::string& err);

/// The `--help` text: a usage line for `prog`, then one line per flag in
/// `accepted`.
std::string help_text(const char* prog, flag_set accepted);

/// parse_flags for a binary's main(): on an error prints it with the
/// binary's name and exits 2; on `--help` prints help_text and exits 0.
cli_options parse_cli(int argc, char** argv, flag_set accepted,
                      cli_options defaults);

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
