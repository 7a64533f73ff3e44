// Per-op cost breakdown: where the nanoseconds of one SMR'd operation go.
//
// The throughput figures report whole-workload mops — useful for trends,
// useless for attribution. This bench times the four primitives the per-op
// fast path targets, per scheme, in isolation:
//
//   guard    — enter+leave pair (amortized entry shows up here)
//   protect  — one protect() under a held guard (hazard publication)
//   alloc    — node allocate+free pair through the hooked_alloc seam
//              (the slab allocator shows up here)
//   retire   — guard + allocate + retire, inclusive of the amortized
//              scan/reclaim work retire triggers (subtract the guard and
//              alloc rows to isolate retire proper)
//
// Single-threaded by design: cross-thread interference is the throughput
// figures' job; this one answers "what does the uncontended path cost".
//
//   fig_opcost [--iters n] [--fastpath on|off] [--schemes a,b,...]
//              [--json path]
//
// CSV (scheme,op,ns_per_op) to stdout; --json adds a machine-readable
// file with the usual provenance block.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/provenance.hpp"
#include "harness/schemes.hpp"
#include "smr/core/slab_alloc.hpp"

namespace {

using namespace hyaline;
using harness::scheme_params;
using harness::scheme_traits;

struct opcost_options {
  std::uint64_t iters = 200000;
  bool fastpath = true;
  std::vector<std::string> schemes;
  std::string json;
};

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--iters n] [--fastpath on|off]\n"
               "          [--schemes a,b,...] [--json path]\n",
               prog);
  std::exit(2);
}

opcost_options parse_args(int argc, char** argv) {
  opcost_options o;
  for (int i = 1; i < argc; ++i) {
    auto need_val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--iters") == 0) {
      o.iters = std::strtoull(need_val("--iters"), nullptr, 10);
      if (o.iters == 0) usage(argv[0]);
    } else if (std::strcmp(argv[i], "--fastpath") == 0) {
      const char* v = need_val("--fastpath");
      if (std::strcmp(v, "on") == 0) {
        o.fastpath = true;
      } else if (std::strcmp(v, "off") == 0) {
        o.fastpath = false;
      } else {
        usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--schemes") == 0) {
      std::string cur;
      for (const char* p = need_val("--schemes");; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!cur.empty()) o.schemes.push_back(cur);
          cur.clear();
          if (*p == '\0') break;
        } else {
          cur.push_back(*p);
        }
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      o.json = need_val("--json");
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  return o;
}

bool scheme_wanted(const opcost_options& o, const char* name) {
  if (o.schemes.empty()) return true;
  for (const auto& s : o.schemes) {
    if (s == name) return true;
  }
  return false;
}

/// Keep `v` alive past the optimizer without a memory barrier.
inline void escape(const void* v) { asm volatile("" : : "r"(v) : ); }

struct row {
  const char* scheme;
  const char* op;
  double ns;
};

using clock_type = std::chrono::steady_clock;

double ns_per(clock_type::time_point t0, clock_type::time_point t1,
              std::uint64_t iters) {
  const double ns =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(
          t1 - t0)
          .count();
  return ns / static_cast<double>(iters);
}

template <class D>
void measure(const opcost_options& o, std::vector<row>& rows) {
  const char* name = scheme_traits<D>::name;
  if (!scheme_wanted(o, name)) return;

  scheme_params p;
  p.max_threads = 4;
  p.entry_burst = o.fastpath ? 64 : 0;
  auto dom = scheme_traits<D>::make(p);
  using guard_t = typename D::guard;
  struct pnode : D::node {
    std::uint64_t v = 0;
  };

  // guard enter+leave
  {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < o.iters; ++i) {
      guard_t g(*dom);
      escape(&g);
    }
    const auto t1 = clock_type::now();
    rows.push_back({name, "guard", ns_per(t0, t1, o.iters)});
  }

  // protect under a held guard
  {
    pnode* n = new pnode();
    dom->on_alloc(n);
    std::atomic<typename D::node*> src{n};
    {
      guard_t g(*dom);
      const auto t0 = clock_type::now();
      for (std::uint64_t i = 0; i < o.iters; ++i) {
        auto pp = g.protect(src);
        escape(pp.get());
      }
      const auto t1 = clock_type::now();
      rows.push_back({name, "protect", ns_per(t0, t1, o.iters)});
      g.retire(static_cast<pnode*>(src.load(std::memory_order_relaxed)));
    }
  }

  // node allocate+free pair (the hooked_alloc seam: debug hook -> slab ->
  // heap)
  {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < o.iters; ++i) {
      pnode* x = new pnode();
      escape(x);
      delete x;
    }
    const auto t1 = clock_type::now();
    rows.push_back({name, "alloc", ns_per(t0, t1, o.iters)});
  }

  // guard + alloc + retire, amortized reclaim included
  {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < o.iters; ++i) {
      guard_t g(*dom);
      pnode* x = new pnode();
      dom->on_alloc(x);
      g.retire(x);
    }
    const auto t1 = clock_type::now();
    rows.push_back({name, "retire", ns_per(t0, t1, o.iters)});
  }

  dom->drain();
  const auto retired = dom->counters().retired.load(std::memory_order_relaxed);
  const auto freed = dom->counters().freed.load(std::memory_order_relaxed);
  if (retired != freed) {
    std::fprintf(stderr, "%s: leak after drain — retired %llu, freed %llu\n",
                 name, static_cast<unsigned long long>(retired),
                 static_cast<unsigned long long>(freed));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const opcost_options o = parse_args(argc, argv);
  smr::core::slab::set_enabled(o.fastpath);

  std::vector<row> rows;
  measure<smr::leaky_domain>(o, rows);
  measure<smr::ebr_domain>(o, rows);
  measure<domain>(o, rows);
  measure<domain_1>(o, rows);
  measure<domain_s>(o, rows);
  measure<domain_1s>(o, rows);
  measure<smr::ibr_domain>(o, rows);
  measure<smr::he_domain>(o, rows);
  measure<smr::hp_domain>(o, rows);

  if (rows.empty()) {
    std::fprintf(stderr, "no schemes matched --schemes\n");
    return 2;
  }

  std::printf("# fig_opcost\nscheme,op,ns_per_op\n");
  for (const row& r : rows) {
    std::printf("%s,%s,%.2f\n", r.scheme, r.op, r.ns);
  }

  if (!o.json.empty()) {
    std::string j = "{\n  \"bench\": \"opcost\",\n  \"version\": 1,\n";
    j += "  " + harness::provenance_json() + ",\n";
    j += "  \"config\": {\"iters\": " + std::to_string(o.iters) +
         ", \"fastpath\": \"" + (o.fastpath ? "on" : "off") +
         "\"},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "    {\"scheme\": \"%s\", \"op\": \"%s\", \"ns\": "
                    "%.2f}%s\n",
                    rows[i].scheme, rows[i].op, rows[i].ns,
                    i + 1 == rows.size() ? "" : ",");
      j += buf;
    }
    j += "  ]\n}\n";
    std::FILE* f = std::fopen(o.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open '%s'\n", o.json.c_str());
      return 2;
    }
    std::fputs(j.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
