// Flag-table tests: every binary's set accepts exactly its own flags,
// every value rule rejects malformed input naming the flag, and the list
// rules (duplicate entries in --schemes / --threads / --stalled are dropped,
// first occurrence wins, with a warning) hold. parse_flags reports errors
// instead of exiting, so malformed input is tested in-process.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cli.hpp"

namespace hyaline::harness {
namespace {

/// Every flag, for tests that sweep the whole table.
flag_set all_flags() {
  flag_set s;
  for (unsigned i = 0; i < kFlagCount; ++i) {
    // --threads has two rows; the list row takes every value the single
    // one does.
    if (static_cast<flag>(i) != flag::thread_count) s.add(static_cast<flag>(i));
  }
  return s;
}

/// Parse `args` against `set`; returns the error ("" on success).
std::string try_parse(flag_set set, std::vector<const char*> args,
                      cli_options* out = nullptr,
                      cli_options defaults = {}) {
  args.insert(args.begin(), "test_prog");
  std::string err;
  if (!parse_flags(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()), set, defaults, err)) {
    EXPECT_FALSE(err.empty());
    return err;
  }
  if (out != nullptr) *out = defaults;
  return "";
}

cli_options parse(std::vector<const char*> args, cli_options defaults = {}) {
  cli_options o;
  EXPECT_EQ(try_parse(all_flags(), std::move(args), &o, std::move(defaults)),
            "");
  return o;
}

/// A well-formed value for each row (nullptr: the flag takes none).
const char* sample_value(flag f) {
  switch (f) {
    case flag::threads: return "2,4";
    case flag::thread_count: return "3";
    case flag::stalled: return "0,1";
    case flag::producers: return "1,2";
    case flag::consumers: return "2";
    case flag::duration: return "50";
    case flag::repeats: return "2";
    case flag::full: return nullptr;
    case flag::prefill: return "100";
    case flag::range: return "400";
    case flag::mix: return "30,20,50";
    case flag::schemes: return "HP,Epoch";
    case flag::seed: return "0x5eed";
    case flag::lat_sample: return "64";
    case flag::faults: return "stall:1@5ms+10ms";
    case flag::structure: return "msqueue";
    case flag::sample_ms: return "25";
    case flag::json: return "x.json";
    case flag::trace: return "x.trace";
    case flag::metrics: return "m.prom";
    case flag::mutate: return "skip-protect";
    case flag::counterexample: return "cx.txt";
    case flag::svc_shards: return "2";
    case flag::tenants: return "4";
    case flag::rate: return "8000";
    case flag::skew: return "0.5";
    case flag::arrival: return "fixed";
    case flag::tenant_script: return "stall:3@300ms+200ms";
    case flag::slo: return "p99=1ms";
    case flag::churn: return "200";
    case flag::out: return "o.json";
    case flag::iters: return "1000";
    case flag::fastpath: return "off";
    case flag::count_: break;
  }
  return nullptr;
}

struct named_set {
  const char* binary;
  flag_set set;
};

const named_set kSets[] = {
    {"matrix", kMatrixFlags},       {"trim", kTrimFlags},
    {"robustness", kRobustnessFlags}, {"container", kContainerFlags},
    {"timeline", kTimelineFlags},   {"service", kServiceFlags},
    {"check", kCheckFlags},         {"ablation", kAblationFlags},
    {"sweep", kSweepFlags},         {"opcost", kOpcostFlags},
};

TEST(CliTest, EachSetAcceptsExactlyItsOwnFlags) {
  for (const named_set& ns : kSets) {
    for (unsigned i = 0; i < kFlagCount; ++i) {
      const flag f = static_cast<flag>(i);
      std::vector<const char*> args = {flag_name(f)};
      if (const char* v = sample_value(f); v != nullptr) args.push_back(v);
      // A single thread count is also a one-element sweep list.
      const bool expect_ok =
          ns.set.has(f) ||
          (f == flag::thread_count && ns.set.has(flag::threads));
      const std::string err = try_parse(ns.set, args);
      if (expect_ok) {
        EXPECT_EQ(err, "") << ns.binary << " " << flag_name(f);
      } else {
        EXPECT_NE(err.find(flag_name(f)), std::string::npos)
            << ns.binary << " " << flag_name(f) << ": " << err;
      }
    }
  }
}

TEST(CliTest, FlagsOtherBinariesOwnAreRejected) {
  // Each of these was accepted and then ignored before the flag table.
  EXPECT_NE(try_parse(kAblationFlags, {"--json", "x.json"}), "");
  EXPECT_NE(try_parse(kCheckFlags, {"--trace", "t"}), "");
  EXPECT_NE(try_parse(kCheckFlags, {"--lat-sample", "64"}), "");
  EXPECT_NE(try_parse(kMatrixFlags, {"--stalled", "3"}), "");
  EXPECT_NE(try_parse(kRobustnessFlags, {"--threads", "2,4"}), "");
  // ...and these were rejected by per-binary checks, as they still are.
  EXPECT_NE(try_parse(kMatrixFlags, {"--faults", "stall:0@0+inf"}), "");
  EXPECT_NE(try_parse(kContainerFlags, {"--range", "400"}), "");
  EXPECT_NE(try_parse(kTimelineFlags, {"--stalled", "1"}), "");
  EXPECT_NE(try_parse(kServiceFlags, {"--threads", "4"}), "");
  EXPECT_NE(try_parse(kCheckFlags, {"--json", "x.json"}), "");
  EXPECT_NE(try_parse(kMatrixFlags, {"--bogus"}), "");
}

TEST(CliTest, HelpListsOnlyTheBinarysFlags) {
  const std::string help = help_text("/x/fig8_throughput_write", kMatrixFlags);
  EXPECT_NE(help.find("usage: fig8_throughput_write"), std::string::npos);
  EXPECT_NE(help.find("--threads"), std::string::npos);
  EXPECT_EQ(help.find("--svc-shards"), std::string::npos);
  EXPECT_EQ(help.find("--mutate"), std::string::npos);
  EXPECT_EQ(help.find("--tenant-script"), std::string::npos);
  for (const named_set& ns : kSets) {
    const std::string h = help_text(ns.binary, ns.set);
    for (unsigned i = 0; i < kFlagCount; ++i) {
      const flag f = static_cast<flag>(i);
      const bool listed = h.find(std::string(flag_name(f)) + " ") !=
                          std::string::npos;
      const bool owned =
          ns.set.has(f) ||
          (f == flag::threads && ns.set.has(flag::thread_count)) ||
          (f == flag::thread_count && ns.set.has(flag::threads));
      EXPECT_EQ(listed, owned) << ns.binary << " " << flag_name(f);
    }
  }
  cli_options o;
  EXPECT_EQ(try_parse(kMatrixFlags, {"--help"}, &o), "");
  EXPECT_TRUE(o.help);
}

TEST(CliTest, MalformedValuesAreRejectedNamingTheFlag) {
  struct bad {
    std::vector<const char*> args;
    const char* named;
  };
  const bad cases[] = {
      {{"--duration", "5ms"}, "--duration"},
      {{"--duration", "0"}, "--duration"},
      {{"--duration", "-1"}, "--duration"},
      {{"--duration", "99999999999"}, "--duration"},
      {{"--duration"}, "--duration"},
      {{"--repeats", "0"}, "--repeats"},
      {{"--threads", "abc"}, "--threads"},
      {{"--threads", "0"}, "--threads"},
      {{"--threads", "2,0"}, "--threads"},
      {{"--threads", ""}, "--threads"},
      {{"--threads", "2,,4"}, "--threads"},
      {{"--threads", "2,"}, "--threads"},
      {{"--stalled", "1x"}, "--stalled"},
      {{"--producers", ""}, "--producers"},
      {{"--prefill", "1e3"}, "--prefill"},
      {{"--range", "0"}, "--range"},
      {{"--mix", "50,30,10"}, "--mix"},
      {{"--mix", "100"}, "--mix"},
      {{"--mix", "4294967295,4294967297,100"}, "--mix"},
      {{"--schemes", ""}, "--schemes"},
      {{"--schemes", "HP,,HE"}, "--schemes"},
      {{"--seed", "0xzz"}, "--seed"},
      {{"--lat-sample", "33"}, "--lat-sample"},
      {{"--lat-sample", "0"}, "--lat-sample"},
      {{"--sample-ms", "0"}, "--sample-ms"},
      {{"--json", ""}, "--json"},
      {{"--mutate", "skip"}, "--mutate"},
      {{"--svc-shards", "0"}, "--svc-shards"},
      {{"--tenants", "0"}, "--tenants"},
      {{"--rate", "-1"}, "--rate"},
      {{"--rate", "fast"}, "--rate"},
      {{"--skew", "1"}, "--skew"},
      {{"--skew", "nan"}, "--skew"},
      {{"--arrival", "burst"}, "--arrival"},
      {{"--churn", "0"}, "--churn"},
      {{"--iters", "0"}, "--iters"},
      {{"--fastpath", "maybe"}, "--fastpath"},
  };
  for (const bad& c : cases) {
    const std::string err = try_parse(all_flags(), c.args);
    EXPECT_NE(err.find(c.named), std::string::npos)
        << c.args[0] << ": '" << err << "'";
  }
  // The single-valued --threads rejects a list.
  EXPECT_NE(try_parse(kTimelineFlags, {"--threads", "2,4"}).find("--threads"),
            std::string::npos);
  EXPECT_NE(try_parse(kCheckFlags, {"--threads", "0"}).find("--threads"),
            std::string::npos);
}

TEST(CliTest, ZeroStaysLegalWhereItMeansSomething) {
  const cli_options o = parse(
      {"--stalled", "0", "--producers", "0,2", "--consumers", "2,0",
       "--prefill", "0", "--rate", "0", "--skew", "0", "--mix", "0,0,100"});
  EXPECT_EQ(o.stalled, (std::vector<unsigned>{0}));
  EXPECT_EQ(o.producers, (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(o.consumers, (std::vector<unsigned>{2, 0}));
  EXPECT_EQ(o.prefill, 0u);
}

TEST(CliTest, GivenRecordsExactlyTheFlagsOnTheCommandLine) {
  cli_options defaults;
  defaults.threads = {1, 2};
  const cli_options o = parse({"--duration", "100", "--range", "1024"},
                              defaults);
  EXPECT_EQ(o.threads, (std::vector<unsigned>{1, 2}));
  EXPECT_FALSE(o.given.has(flag::threads));
  EXPECT_TRUE(o.given.has(flag::duration));
  EXPECT_TRUE(o.given.has(flag::range));
  EXPECT_FALSE(o.given.has(flag::sample_ms));
  EXPECT_EQ(o.duration_ms, 100u);
  EXPECT_EQ(o.key_range, 1024u);
}

TEST(CliTest, ThreadsListDeduplicatesPreservingOrder) {
  const cli_options o = parse({"--threads", "4,4,2,8,2,4"});
  EXPECT_EQ(o.threads, (std::vector<unsigned>{4, 2, 8}));
  EXPECT_TRUE(o.given.has(flag::threads));
}

TEST(CliTest, SingleThreadCountParses) {
  cli_options o;
  EXPECT_EQ(try_parse(kSweepFlags, {"--threads", "3"}, &o), "");
  EXPECT_EQ(o.threads, (std::vector<unsigned>{3}));
  EXPECT_TRUE(o.given.has(flag::thread_count));
}

TEST(CliTest, StalledListDeduplicates) {
  const cli_options o = parse({"--stalled", "0,1,0,2,1"});
  EXPECT_EQ(o.stalled, (std::vector<unsigned>{0, 1, 2}));
}

TEST(CliTest, SchemesListDeduplicatesPreservingOrder) {
  const cli_options o = parse({"--schemes", "HP,Hyaline,HP,HE,Hyaline"});
  EXPECT_EQ(o.schemes,
            (std::vector<std::string>{"HP", "Hyaline", "HE"}));
  EXPECT_TRUE(o.scheme_enabled("HE"));
  EXPECT_FALSE(o.scheme_enabled("Epoch"));
}

TEST(CliTest, ProducerConsumerListsParse) {
  const cli_options o =
      parse({"--producers", "1,2,4", "--consumers", "4"});
  EXPECT_EQ(o.producers, (std::vector<unsigned>{1, 2, 4}));
  EXPECT_EQ(o.consumers, (std::vector<unsigned>{4}));
  // Set-only flags stay untouched defaults.
  EXPECT_TRUE(o.mix.empty());
  EXPECT_FALSE(o.given.has(flag::range));
}

TEST(CliTest, MixParsesWhenSummingToHundred) {
  const cli_options o = parse({"--mix", "30,20,50"});
  EXPECT_EQ(o.mix, (std::vector<unsigned>{30, 20, 50}));
}

TEST(CliTest, FullOverridesDurationAndRepeats) {
  const cli_options o = parse({"--full", "--duration", "50"});
  EXPECT_EQ(o.duration_ms, 10000u);
  EXPECT_EQ(o.repeats, 5u);
}

TEST(CliTest, SeedParsesDecimalAndHex) {
  EXPECT_EQ(parse({"--seed", "12345"}).seed, 12345u);
  // Hex round-trips from the CSV header comment (`# seed=0x...`).
  EXPECT_EQ(parse({"--seed", "0x5eed"}).seed, 0x5eedu);
  EXPECT_EQ(cli_options{}.seed, 0x5eedu);  // matches workload_config
}

TEST(CliTest, LabFlagsParse) {
  const cli_options o = parse({"--faults", "stall:2@500ms+300ms",
                               "--sample-ms", "25", "--structure",
                               "msqueue"});
  EXPECT_EQ(o.faults, "stall:2@500ms+300ms");
  EXPECT_EQ(o.sample_ms, 25u);
  EXPECT_TRUE(o.given.has(flag::sample_ms));
  EXPECT_EQ(o.structure, "msqueue");
}

TEST(CliTest, ServiceAndToolFlagsParse) {
  const cli_options o =
      parse({"--rate", "8000.5", "--skew", "0.99", "--arrival", "fixed",
             "--fastpath", "off", "--iters", "1000", "--out", "o.json",
             "--mutate", "drop-validate"});
  EXPECT_DOUBLE_EQ(o.rate_ops_s, 8000.5);
  EXPECT_DOUBLE_EQ(o.skew, 0.99);
  EXPECT_EQ(o.arrival, "fixed");
  EXPECT_FALSE(o.fastpath);
  EXPECT_EQ(o.iters, 1000u);
  EXPECT_EQ(o.out, "o.json");
  EXPECT_EQ(o.mutate, "drop-validate");
}

}  // namespace
}  // namespace hyaline::harness
