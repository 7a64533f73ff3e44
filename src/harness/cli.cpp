#include "harness/cli.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace hyaline::harness {
namespace {

std::vector<unsigned> parse_list(const char* s) {
  std::vector<unsigned> out;
  const char* p = s;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) break;
    // Saturate instead of truncating: a silently wrapped value could slip
    // past downstream range checks (e.g. the --mix sum-to-100 rule).
    out.push_back(v > ~0u ? ~0u : static_cast<unsigned>(v));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

std::vector<std::string> parse_names(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--threads a,b,...] [--stalled a,b,...]\n"
               "          [--duration ms] [--repeats n] [--prefill n]\n"
               "          [--range n] [--schemes name,...]\n"
               "          [--mix insert,remove,get]\n"
               "          [--producers a,b,...] [--consumers a,b,...]\n"
               "          [--seed n] [--faults spec] [--sample-ms n]\n"
               "          [--structure name] [--lat-sample n]\n"
               "          [--trace path] [--metrics path]\n"
               "          [--json path] [--full]\n"
               "          [--mutate mode] [--counterexample path]\n"
               "          [--svc-shards n] [--tenants n] [--rate ops/s]\n"
               "          [--skew theta] [--arrival fixed|poisson]\n"
               "          [--tenant-script spec] [--slo spec] [--churn ms]\n",
               prog);
  std::exit(2);
}

void warn_duplicate(const char* flag, unsigned v) {
  std::fprintf(stderr, "%s: ignoring duplicate entry '%u'\n", flag, v);
}

void warn_duplicate(const char* flag, const std::string& v) {
  std::fprintf(stderr, "%s: ignoring duplicate entry '%s'\n", flag,
               v.c_str());
}

/// Drop repeated entries, keeping first occurrences in order. A duplicate
/// in --schemes or --threads would silently run (and emit) an identical
/// series twice, skewing any averaging done over the CSV — warn instead
/// of multiplying work.
template <class T>
void dedupe_list(std::vector<T>& v, const char* flag) {
  std::vector<T> out;
  out.reserve(v.size());
  for (T& x : v) {
    if (std::find(out.begin(), out.end(), x) != out.end()) {
      warn_duplicate(flag, x);
    } else {
      out.push_back(std::move(x));
    }
  }
  v = std::move(out);
}

}  // namespace

bool cli_options::service_flag_set() const {
  return svc_shards != 0 || tenants != 0 || rate_ops_s >= 0 || skew >= 0 ||
         !arrival.empty() || !tenant_script.empty() || !slo.empty() ||
         churn_ms != 0;
}

bool cli_options::scheme_enabled(const std::string& name) const {
  if (schemes.empty()) return true;
  for (const auto& s : schemes) {
    if (s == name) return true;
  }
  return false;
}

cli_options parse_cli(int argc, char** argv, cli_options defaults) {
  cli_options o = defaults;
  for (int i = 1; i < argc; ++i) {
    auto need_val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--threads") == 0) {
      o.threads = parse_list(need_val("--threads"));
      o.threads_set = true;
    } else if (std::strcmp(argv[i], "--stalled") == 0) {
      o.stalled = parse_list(need_val("--stalled"));
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      o.duration_ms =
          static_cast<unsigned>(std::strtoul(need_val("--duration"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      o.repeats =
          static_cast<unsigned>(std::strtoul(need_val("--repeats"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--prefill") == 0) {
      o.prefill = std::strtoull(need_val("--prefill"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--range") == 0) {
      o.key_range = std::strtoull(need_val("--range"), nullptr, 10);
      o.range_set = true;
    } else if (std::strcmp(argv[i], "--producers") == 0) {
      o.producers = parse_list(need_val("--producers"));
    } else if (std::strcmp(argv[i], "--consumers") == 0) {
      o.consumers = parse_list(need_val("--consumers"));
    } else if (std::strcmp(argv[i], "--schemes") == 0) {
      o.schemes = parse_names(need_val("--schemes"));
    } else if (std::strcmp(argv[i], "--mix") == 0) {
      o.mix = parse_list(need_val("--mix"));
      // Reject malformed mixes up front: a mix that does not sum to 100
      // would silently skew the op distribution (the dice remainder falls
      // through to get). Sum in 64 bits so huge values cannot wrap back
      // to 100.
      unsigned long long sum = 0;
      for (unsigned v : o.mix) sum += v;
      if (o.mix.size() != 3 || sum != 100) {
        std::fprintf(stderr,
                     "--mix wants three percentages insert,remove,get "
                     "summing to 100 (got %zu values, sum %llu)\n",
                     o.mix.size(), sum);
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      // Base 0: hex seeds (0x5eed) round-trip from the header comment.
      o.seed = std::strtoull(need_val("--seed"), nullptr, 0);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      o.faults = need_val("--faults");
    } else if (std::strcmp(argv[i], "--sample-ms") == 0) {
      o.sample_ms = static_cast<unsigned>(
          std::strtoul(need_val("--sample-ms"), nullptr, 10));
      o.sample_ms_set = true;
      if (o.sample_ms == 0) {
        std::fprintf(stderr, "--sample-ms must be >= 1\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--structure") == 0) {
      o.structure = need_val("--structure");
    } else if (std::strcmp(argv[i], "--lat-sample") == 0) {
      const char* v = need_val("--lat-sample");
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      // Power of two keeps the per-op modulo a mask and makes the
      // sampled-op spacing exact; 0 would divide by zero.
      if (end == v || *end != '\0' || !std::has_single_bit(n)) {
        std::fprintf(stderr,
                     "--lat-sample wants a power of two >= 1 (got '%s')\n",
                     v);
        usage(argv[0]);
      }
      o.lat_sample = n;
      o.lat_sample_set = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      o.trace = need_val("--trace");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      o.metrics = need_val("--metrics");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      o.json = need_val("--json");
    } else if (std::strcmp(argv[i], "--mutate") == 0) {
      o.mutate = need_val("--mutate");
    } else if (std::strcmp(argv[i], "--counterexample") == 0) {
      o.counterexample = need_val("--counterexample");
    } else if (std::strcmp(argv[i], "--svc-shards") == 0) {
      o.svc_shards = static_cast<unsigned>(
          std::strtoul(need_val("--svc-shards"), nullptr, 10));
      if (o.svc_shards == 0) {
        std::fprintf(stderr, "--svc-shards must be >= 1\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      o.tenants = static_cast<unsigned>(
          std::strtoul(need_val("--tenants"), nullptr, 10));
      if (o.tenants == 0) {
        std::fprintf(stderr, "--tenants must be >= 1\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      const char* v = need_val("--rate");
      char* end = nullptr;
      o.rate_ops_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || o.rate_ops_s < 0) {
        std::fprintf(stderr,
                     "--rate wants a non-negative ops/s (0 = closed loop)\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--skew") == 0) {
      const char* v = need_val("--skew");
      char* end = nullptr;
      o.skew = std::strtod(v, &end);
      // theta = 1 makes the Zipf normalization's alpha = 1/(1-theta)
      // diverge; the YCSB-style generator is defined on [0, 1).
      if (end == v || *end != '\0' || o.skew < 0 || o.skew >= 1) {
        std::fprintf(stderr, "--skew wants a theta in [0, 1)\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--arrival") == 0) {
      o.arrival = need_val("--arrival");
      if (o.arrival != "fixed" && o.arrival != "poisson") {
        std::fprintf(stderr, "--arrival wants 'fixed' or 'poisson'\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--tenant-script") == 0) {
      o.tenant_script = need_val("--tenant-script");
    } else if (std::strcmp(argv[i], "--slo") == 0) {
      o.slo = need_val("--slo");
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      o.churn_ms = static_cast<unsigned>(
          std::strtoul(need_val("--churn"), nullptr, 10));
      if (o.churn_ms == 0) {
        std::fprintf(stderr, "--churn must be >= 1 (omit for no churn)\n");
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--full") == 0) {
      o.full = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (o.full) {
    o.duration_ms = 10000;  // paper §6: 10-second runs,
    o.repeats = 5;          // averaged over 5 repetitions
  }
  dedupe_list(o.threads, "--threads");
  dedupe_list(o.stalled, "--stalled");
  dedupe_list(o.schemes, "--schemes");
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
