#include "harness/cli.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string_view>

namespace hyaline::harness {
namespace {

/// A whole unsigned integer: digits only (hex too with base 0), no sign,
/// no trailing junk, no overflow — `5ms` and `-1` are errors, not 5 and
/// 2^64-1.
bool read_u64(const char* v, std::uint64_t& out, int base = 10) {
  if (!std::isdigit(static_cast<unsigned char>(v[0]))) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(v, &end, base);
  return errno == 0 && *end == '\0';
}

template <class T>
bool read_uint(const char* v, T min, T& out) {
  std::uint64_t n = 0;
  if (!read_u64(v, n) || n < min || n > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(n);
  return true;
}

bool read_double(const char* v, double& out) {
  char* end = nullptr;
  out = std::strtod(v, &end);
  return end != v && *end == '\0' && std::isfinite(out);
}

/// Comma-separated elements, none empty, at least one.
std::vector<std::string> split(const char* v) {
  std::vector<std::string> out(1);
  for (const char* p = v; *p != '\0'; ++p) {
    if (*p == ',') {
      out.emplace_back();
    } else {
      out.back().push_back(*p);
    }
  }
  for (const std::string& s : out) {
    if (s.empty()) return {};
  }
  return out;
}

bool read_list(const char* v, unsigned min, std::vector<unsigned>& out) {
  std::vector<unsigned> vals;
  for (const std::string& s : split(v)) {
    if (!read_uint(s.c_str(), min, vals.emplace_back())) return false;
  }
  if (vals.empty()) return false;
  out = std::move(vals);
  return true;
}

bool read_text(const char* v, std::string& out) {
  out = v;
  return !out.empty();
}

bool read_choice(const char* v, const char* a, const char* b,
                 std::string& out) {
  if (std::string_view(v) != a && std::string_view(v) != b) return false;
  out = v;
  return true;
}

/// One flag: `apply` parses and range-checks the value into the options
/// and returns false when the value is not `wants`. `hint` is nullptr for
/// a flag that takes no value.
struct flag_row {
  flag id;
  const char* name;
  const char* hint;
  const char* help;
  const char* wants;
  bool (*apply)(const char* v, cli_options& o);
};

constexpr const char* kCounts = "a comma-separated list of integers >= 1";
constexpr const char* kCountsOrZero =
    "a comma-separated list of integers >= 0";
constexpr const char* kPositive = "an integer >= 1";
constexpr const char* kPath = "a non-empty path";
constexpr const char* kSpec = "a non-empty spec";

constexpr flag_row kRows[] = {
    {flag::threads, "--threads", "a,b,...", "thread counts to sweep",
     kCounts,
     [](const char* v, cli_options& o) { return read_list(v, 1, o.threads); }},
    {flag::thread_count, "--threads", "n", "worker thread count", kPositive,
     [](const char* v, cli_options& o) {
       unsigned n = 0;
       if (!read_uint(v, 1u, n)) return false;
       o.threads = {n};
       return true;
     }},
    {flag::stalled, "--stalled", "a,b,...",
     "stalled-thread counts to sweep",
     kCountsOrZero,
     [](const char* v, cli_options& o) { return read_list(v, 0, o.stalled); }},
    {flag::producers, "--producers", "a,b,...",
     "producer-thread counts, zipped with --consumers",
     kCountsOrZero,
     [](const char* v, cli_options& o) {
       return read_list(v, 0, o.producers);
     }},
    {flag::consumers, "--consumers", "a,b,...",
     "consumer-thread counts, zipped with --producers", kCountsOrZero,
     [](const char* v, cli_options& o) {
       return read_list(v, 0, o.consumers);
     }},
    {flag::duration, "--duration", "ms", "run time per data point",
     kPositive,
     [](const char* v, cli_options& o) {
       return read_uint(v, 1u, o.duration_ms);
     }},
    {flag::repeats, "--repeats", "n", "runs averaged per data point",
     kPositive,
     [](const char* v, cli_options& o) { return read_uint(v, 1u, o.repeats); }},
    {flag::full, "--full", nullptr,
     "paper scale: 10 s runs, 5 repeats", nullptr,
     [](const char*, cli_options& o) {
       o.full = true;
       return true;
     }},
    {flag::prefill, "--prefill", "n", "initial element count (paper: 50000)",
     "an integer >= 0",
     [](const char* v, cli_options& o) {
       return read_uint<std::size_t>(v, 0, o.prefill);
     }},
    {flag::range, "--range", "n", "key range (paper: 100000)", kPositive,
     [](const char* v, cli_options& o) {
       return read_uint<std::uint64_t>(v, 1, o.key_range);
     }},
    // A mix that does not sum to 100 would silently skew the op
    // distribution (the dice remainder falls through to get).
    {flag::mix, "--mix", "i,r,g",
     "op mix in percent: insert,remove,get (sum 100)",
     "three percentages insert,remove,get summing to 100",
     [](const char* v, cli_options& o) {
       std::vector<unsigned> m;
       if (!read_list(v, 0, m) || m.size() != 3 ||
           std::uint64_t{m[0]} + m[1] + m[2] != 100) {
         return false;
       }
       o.mix = std::move(m);
       return true;
     }},
    {flag::schemes, "--schemes", "a,b,...", "run only these schemes",
     "a comma-separated list of scheme names",
     [](const char* v, cli_options& o) {
       std::vector<std::string> names = split(v);
       if (names.empty()) return false;
       o.schemes = std::move(names);
       return true;
     }},
    // Base 0: hex seeds (0x5eed) round-trip from the CSV header comment.
    {flag::seed, "--seed", "n",
     "base PRNG seed of every workload (0x hex accepted)",
     "an integer (decimal or 0x hex)",
     [](const char* v, cli_options& o) { return read_u64(v, o.seed, 0); }},
    // A power of two keeps the per-op modulo a mask and the sampled-op
    // spacing exact; 0 would divide by zero.
    {flag::lat_sample, "--lat-sample", "n",
     "time one in n operations (a power of two)",
     "a power of two >= 1",
     [](const char* v, cli_options& o) {
       return read_u64(v, o.lat_sample) && std::has_single_bit(o.lat_sample);
     }},
    {flag::faults, "--faults", "spec",
     "fault schedule (grammar in lab/fault_plan.hpp)", kSpec,
     [](const char* v, cli_options& o) { return read_text(v, o.faults); }},
    {flag::structure, "--structure", "name",
     "drive only this registered structure", "a structure name",
     [](const char* v, cli_options& o) { return read_text(v, o.structure); }},
    {flag::sample_ms, "--sample-ms", "ms", "telemetry sampling period",
     kPositive,
     [](const char* v, cli_options& o) {
       return read_uint(v, 1u, o.sample_ms);
     }},
    {flag::json, "--json", "path",
     "also write the run and its config as JSON", kPath,
     [](const char* v, cli_options& o) { return read_text(v, o.json); }},
    {flag::trace, "--trace", "path",
     "write SMR events as Chrome trace JSON", kPath,
     [](const char* v, cli_options& o) { return read_text(v, o.trace); }},
    {flag::metrics, "--metrics", "path",
     "write a Prometheus snapshot of the counters", kPath,
     [](const char* v, cli_options& o) { return read_text(v, o.metrics); }},
    {flag::mutate, "--mutate", "mode",
     "oracle self-test, must exit 5: drop-validate|skip-protect",
     "drop-validate or skip-protect",
     [](const char* v, cli_options& o) {
       return read_choice(v, "drop-validate", "skip-protect", o.mutate);
     }},
    {flag::counterexample, "--counterexample", "path",
     "also write each violation's history to this file", kPath,
     [](const char* v, cli_options& o) {
       return read_text(v, o.counterexample);
     }},
    {flag::svc_shards, "--svc-shards", "n",
     "cache shards, one SMR domain each", kPositive,
     [](const char* v, cli_options& o) {
       return read_uint(v, 1u, o.svc_shards);
     }},
    {flag::tenants, "--tenants", "n", "tenant (worker thread) count",
     kPositive,
     [](const char* v, cli_options& o) { return read_uint(v, 1u, o.tenants); }},
    {flag::rate, "--rate", "ops/s", "total offered load (0 = closed loop)",
     "a non-negative ops/s",
     [](const char* v, cli_options& o) {
       return read_double(v, o.rate_ops_s) && o.rate_ops_s >= 0;
     }},
    // theta = 1 makes the Zipf normalization's alpha = 1/(1-theta)
    // diverge; the YCSB-style generator is defined on [0, 1).
    {flag::skew, "--skew", "theta", "Zipfian key skew in [0, 1)",
     "a theta in [0, 1)",
     [](const char* v, cli_options& o) {
       return read_double(v, o.skew) && o.skew >= 0 && o.skew < 1;
     }},
    {flag::arrival, "--arrival", "kind", "request arrivals: fixed | poisson",
     "fixed or poisson",
     [](const char* v, cli_options& o) {
       return read_choice(v, "fixed", "poisson", o.arrival);
     }},
    {flag::tenant_script, "--tenant-script", "spec",
     "bad-tenant schedule (grammar in svc/tenant.hpp)", kSpec,
     [](const char* v, cli_options& o) {
       return read_text(v, o.tenant_script);
     }},
    {flag::slo, "--slo", "spec",
     "SLO gate, exit 6 on a violation (grammar in svc/slo.hpp)", kSpec,
     [](const char* v, cli_options& o) { return read_text(v, o.slo); }},
    {flag::churn, "--churn", "ms", "connection-churn period", kPositive,
     [](const char* v, cli_options& o) {
       return read_uint(v, 1u, o.churn_ms);
     }},
    {flag::out, "--out", "path", "trajectory file to write", kPath,
     [](const char* v, cli_options& o) { return read_text(v, o.out); }},
    {flag::iters, "--iters", "n", "timed iterations per primitive",
     kPositive,
     [](const char* v, cli_options& o) {
       return read_uint<std::uint64_t>(v, 1, o.iters);
     }},
    {flag::fastpath, "--fastpath", "on|off",
     "slab allocator", "on or off",
     [](const char* v, cli_options& o) {
       std::string s;
       if (!read_choice(v, "on", "off", s)) return false;
       o.fastpath = s == "on";
       return true;
     }},
};

constexpr bool rows_follow_enum() {
  if (std::size(kRows) != kFlagCount) return false;
  for (unsigned i = 0; i < kFlagCount; ++i) {
    if (kRows[i].id != static_cast<flag>(i)) return false;
  }
  return true;
}
static_assert(rows_follow_enum(), "kRows must list every flag in enum order");

void warn_duplicate(const char* flag_text, unsigned v) {
  std::fprintf(stderr, "%s: ignoring duplicate entry '%u'\n", flag_text, v);
}

void warn_duplicate(const char* flag_text, const std::string& v) {
  std::fprintf(stderr, "%s: ignoring duplicate entry '%s'\n", flag_text,
               v.c_str());
}

/// Drop repeated entries, keeping first occurrences in order. A duplicate
/// in --schemes or --threads would silently run (and emit) an identical
/// series twice, skewing any averaging done over the CSV — warn instead
/// of multiplying work.
template <class T>
void dedupe_list(std::vector<T>& v, const char* flag_text) {
  std::vector<T> out;
  out.reserve(v.size());
  for (T& x : v) {
    if (std::find(out.begin(), out.end(), x) != out.end()) {
      warn_duplicate(flag_text, x);
    } else {
      out.push_back(std::move(x));
    }
  }
  v = std::move(out);
}

const char* base_name(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

bool cli_options::scheme_enabled(const std::string& name) const {
  if (schemes.empty()) return true;
  for (const auto& s : schemes) {
    if (s == name) return true;
  }
  return false;
}

const char* flag_name(flag f) { return kRows[static_cast<unsigned>(f)].name; }

bool parse_flags(int argc, char** argv, flag_set accepted, cli_options& o,
                 std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      o.help = true;
      continue;
    }
    const flag_row* row = nullptr;
    for (const flag_row& r : kRows) {
      if (accepted.has(r.id) && arg == r.name) row = &r;
    }
    if (row == nullptr) {
      err = "unknown flag '" + std::string(arg) + "'";
      return false;
    }
    o.given.add(row->id);
    const char* v = nullptr;
    if (row->hint != nullptr) {
      if (i + 1 >= argc) {
        err = std::string(row->name) + " requires a value (" + row->hint + ")";
        return false;
      }
      v = argv[++i];
    }
    if (!row->apply(v, o)) {
      err = std::string(row->name) + " wants " + row->wants + " (got '" + v +
            "')";
      return false;
    }
  }
  if (o.full) {
    o.duration_ms = 10000;  // paper §6: 10-second runs,
    o.repeats = 5;          // averaged over 5 repetitions
  }
  dedupe_list(o.threads, "--threads");
  dedupe_list(o.stalled, "--stalled");
  dedupe_list(o.schemes, "--schemes");
  return true;
}

std::string help_text(const char* prog, flag_set accepted) {
  std::string s = "usage: " + std::string(base_name(prog)) + " [flags]\n";
  for (const flag_row& r : kRows) {
    if (!accepted.has(r.id)) continue;
    char line[160];
    const std::string name =
        std::string(r.name) + (r.hint != nullptr ? " " : "") +
        (r.hint != nullptr ? r.hint : "");
    std::snprintf(line, sizeof line, "  %-22s %s\n", name.c_str(), r.help);
    s += line;
  }
  s += "  --help                 print this list\n";
  return s;
}

cli_options parse_cli(int argc, char** argv, flag_set accepted,
                      cli_options defaults) {
  cli_options o = std::move(defaults);
  std::string err;
  const char* prog = base_name(argv[0]);
  if (!parse_flags(argc, argv, accepted, o, err)) {
    std::fprintf(stderr, "%s: %s; run '%s --help' for its flags\n", prog,
                 err.c_str(), prog);
    std::exit(2);
  }
  if (o.help) {
    std::fputs(help_text(prog, accepted).c_str(), stdout);
    std::exit(0);
  }
  return o;
}

void print_csv_header(const char* figure, std::uint64_t seed,
                      std::uint64_t lat_sample) {
  std::printf("# %s\n# seed=0x%llx\n", figure,
              static_cast<unsigned long long>(seed));
  if (lat_sample != 0) {
    std::printf("# lat_sample=%llu\n",
                static_cast<unsigned long long>(lat_sample));
  }
  for (std::size_t i = 0; i < std::size(kCsvColumns); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", kCsvColumns[i]);
  }
  std::printf("\n");
  std::fflush(stdout);
}

namespace {

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace

void print_csv_row(const char* figure, const char* structure,
                   const char* scheme, unsigned threads, unsigned stalled,
                   unsigned producers, unsigned consumers, double mops,
                   double unreclaimed, double unreclaimed_peak,
                   double p50_ns, double p99_ns, double max_ns,
                   double lag_p50_ns, double lag_p99_ns, double lag_max_ns) {
  const std::string vals[] = {
      figure,
      structure,
      scheme,
      std::to_string(threads),
      std::to_string(stalled),
      std::to_string(producers),
      std::to_string(consumers),
      fixed(mops, 4),
      fixed(unreclaimed, 2),
      fixed(unreclaimed_peak, 0),
      fixed(p50_ns, 0),
      fixed(p99_ns, 0),
      fixed(max_ns, 0),
      fixed(lag_p50_ns, 0),
      fixed(lag_p99_ns, 0),
      fixed(lag_max_ns, 0),
  };
  static_assert(std::size(vals) == std::size(kCsvColumns),
                "row values and kCsvColumns must stay in lockstep");
  for (std::size_t i = 0; i < std::size(vals); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", vals[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace hyaline::harness
