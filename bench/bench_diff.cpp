// Trajectory comparator: diff two BENCH_<n>.json files and fail loudly on
// regression.
//
//   bench_diff OLD.json NEW.json [--tolerance x] [--min-mops x]
//              [--require-cells]
//
// Points are joined on (cell, structure, scheme, threads). A joined point
// regresses when
//     new_mops < old_mops * (1 - tolerance)   and   old_mops >= min-mops
// The tolerance is deliberately wide by default (35%): these are
// sub-second runs on shared machines, and a perf gate that cries wolf
// gets deleted. --min-mops filters points too slow to measure reliably
// (their relative noise is unbounded). External-baseline points (the
// coarse-mutex cells) are printed for context but never gate.
// --require-cells turns a dropped point — a (cell, structure, scheme,
// threads) tuple present in OLD but missing from NEW — into a failure:
// a pinned lineup cell silently vanishing from the fresh sweep is how a
// perf gate quietly stops covering what it was built to cover.
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/load error.
// Provenance from both files is printed first — a diff across machines,
// compilers, or configs is visibly apples-to-oranges before anyone reads
// its percentages.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/trajectory.hpp"

namespace {

using hyaline::harness::load_sweep;
using hyaline::harness::sweep_file;
using hyaline::harness::sweep_point;

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s OLD.json NEW.json [--tolerance x] "
               "[--min-mops x] [--require-cells]\n",
               prog);
  std::exit(2);
}

const sweep_point* find_match(const sweep_file& f, const sweep_point& p) {
  for (const sweep_point& q : f.points) {
    if (q.cell == p.cell && q.structure == p.structure &&
        q.scheme == p.scheme && q.threads == p.threads) {
      return &q;
    }
  }
  return nullptr;
}

void print_provenance(const char* label, const std::string& path,
                      const sweep_file& f) {
  std::printf("%s %s\n  rev %s | %s | %s | fastpath=%s\n", label,
              path.c_str(), f.git_sha.empty() ? "?" : f.git_sha.c_str(),
              f.compiler.empty() ? "?" : f.compiler.c_str(),
              f.cpu_model.empty() ? "?" : f.cpu_model.c_str(),
              f.fastpath.empty() ? "?" : f.fastpath.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_path, new_path;
  double tolerance = 0.35;
  double min_mops = 0.05;
  bool require_cells = false;
  for (int i = 1; i < argc; ++i) {
    auto need_val = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--tolerance") == 0) {
      tolerance = std::strtod(need_val("--tolerance"), nullptr);
      if (tolerance < 0 || tolerance >= 1) {
        std::fprintf(stderr, "--tolerance wants [0, 1)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--min-mops") == 0) {
      min_mops = std::strtod(need_val("--min-mops"), nullptr);
    } else if (std::strcmp(argv[i], "--require-cells") == 0) {
      require_cells = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
    } else if (old_path.empty()) {
      old_path = argv[i];
    } else if (new_path.empty()) {
      new_path = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (old_path.empty() || new_path.empty()) usage(argv[0]);

  sweep_file oldf, newf;
  std::string err;
  if (!load_sweep(old_path, oldf, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (!load_sweep(new_path, newf, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  print_provenance("old:", old_path, oldf);
  print_provenance("new:", new_path, newf);
  if (oldf.cpu_model != newf.cpu_model || oldf.compiler != newf.compiler) {
    std::printf(
        "note: machine or compiler differs between files — treat "
        "percentages as indicative, not as a gate\n");
  }
  if (oldf.seed != newf.seed) {
    std::printf("note: seeds differ (0x%llx vs 0x%llx)\n",
                static_cast<unsigned long long>(oldf.seed),
                static_cast<unsigned long long>(newf.seed));
  }
  std::printf("tolerance %.0f%%, min-mops %.3f\n\n", tolerance * 100,
              min_mops);

  std::printf("%-10s %-11s %-14s %3s %10s %10s %8s  %s\n", "cell",
              "structure", "scheme", "thr", "old-mops", "new-mops",
              "delta", "verdict");
  int regressions = 0;
  std::size_t joined = 0, only_old = 0;
  for (const sweep_point& p : oldf.points) {
    const sweep_point* q = find_match(newf, p);
    if (q == nullptr) {
      ++only_old;
      std::printf("%-10s %-11s %-14s %3u %10.4f %10s %8s  dropped\n",
                  p.cell.c_str(), p.structure.c_str(), p.scheme.c_str(),
                  p.threads, p.mops, "-", "-");
      continue;
    }
    ++joined;
    const double delta =
        p.mops > 0 ? (q->mops - p.mops) / p.mops * 100.0 : 0.0;
    const char* verdict = "ok";
    if (p.external || q->external) {
      verdict = "baseline";
    } else if (p.mops >= min_mops && q->mops < p.mops * (1.0 - tolerance)) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (p.mops < min_mops) {
      verdict = "below-floor";
    }
    std::printf("%-10s %-11s %-14s %3u %10.4f %10.4f %+7.1f%%  %s\n",
                p.cell.c_str(), p.structure.c_str(), p.scheme.c_str(),
                p.threads, p.mops, q->mops, delta, verdict);
  }
  std::size_t only_new = 0;
  for (const sweep_point& q : newf.points) {
    if (find_match(oldf, q) == nullptr) {
      ++only_new;
      std::printf("%-10s %-11s %-14s %3u %10s %10.4f %8s  new\n",
                  q.cell.c_str(), q.structure.c_str(), q.scheme.c_str(),
                  q.threads, "-", q.mops, "-");
    }
  }

  std::printf("\n%zu joined, %zu dropped, %zu new: %s\n", joined, only_old,
              only_new,
              regressions == 0
                  ? "no regression"
                  : (std::to_string(regressions) + " REGRESSION(S)")
                        .c_str());
  // Machine-greppable comparability trailer: how many provenance fields
  // disagree between the two files. 0 = a clean apples-to-apples diff;
  // anything else and CI logs carry the caveat even after the human-prose
  // notes above scroll away.
  {
    int mismatches = 0;
    if (oldf.cpu_model != newf.cpu_model) ++mismatches;
    if (oldf.compiler != newf.compiler) ++mismatches;
    if (oldf.seed != newf.seed) ++mismatches;
    if (oldf.fastpath != newf.fastpath) ++mismatches;
    std::printf("# provenance: %d mismatches\n", mismatches);
  }
  if (require_cells && only_old != 0) {
    std::fprintf(stderr,
                 "--require-cells: %zu pinned cell(s) missing from the "
                 "fresh sweep (see 'dropped' rows above)\n",
                 only_old);
    return 1;
  }
  return regressions == 0 ? 0 : 1;
}
