#include "harness/trajectory.hpp"

#include <cstdio>
#include <utility>

#include "harness/json.hpp"

namespace hyaline::harness {

// The JSON value type + reader formerly defined here moved to
// harness/json.hpp so the trace validator (bench/trace_check) parses the
// same dialect the trajectory gate does.
using json::get;
using json::jvalue;
using json::want_num;
using json::want_str;

bool load_sweep(const std::string& path, sweep_file& out, std::string& err) {
  jvalue root;
  if (!json::load_file(path, root, err)) return false;
  if (!root.is_obj()) {
    err = path + ": top level is not an object";
    return false;
  }
  double d = 0;
  if (!want_num(root, "version", d, err)) {
    err = path + ": " + err;
    return false;
  }
  out.version = static_cast<int>(d);
  if (out.version != 1) {
    err = path + ": unsupported trajectory version " +
          std::to_string(out.version);
    return false;
  }
  if (!want_num(root, "seed", d, err)) {
    err = path + ": " + err;
    return false;
  }
  out.seed = static_cast<std::uint64_t>(d);

  if (const jvalue* prov = get(root, "provenance");
      prov != nullptr && prov->is_obj()) {
    want_str(*prov, "git_sha", out.git_sha, err);
    want_str(*prov, "compiler", out.compiler, err);
    want_str(*prov, "cpu_model", out.cpu_model, err);
    err.clear();  // provenance strings are advisory, not load-fatal
  }
  if (const jvalue* cfg = get(root, "config");
      cfg != nullptr && cfg->is_obj()) {
    want_str(*cfg, "fastpath", out.fastpath, err);
    err.clear();
  }

  const jvalue* cells = get(root, "cells");
  if (cells == nullptr || !cells->is_arr()) {
    err = path + ": missing 'cells' array";
    return false;
  }
  out.points.clear();
  out.points.reserve(cells->arr->size());
  for (std::size_t i = 0; i < cells->arr->size(); ++i) {
    const jvalue& c = (*cells->arr)[i];
    sweep_point pt;
    std::string ferr;
    double threads = 0;
    if (!c.is_obj() || !want_str(c, "cell", pt.cell, ferr) ||
        !want_str(c, "structure", pt.structure, ferr) ||
        !want_str(c, "scheme", pt.scheme, ferr) ||
        !want_num(c, "threads", threads, ferr) ||
        !want_num(c, "mops", pt.mops, ferr)) {
      err = path + ": cells[" + std::to_string(i) + "]: " +
            (ferr.empty() ? "not an object" : ferr);
      return false;
    }
    pt.threads = static_cast<unsigned>(threads);
    if (double peak = 0; want_num(c, "unreclaimed_peak", peak, ferr)) {
      pt.unreclaimed_peak = peak;
    }
    if (const jvalue* ext = get(c, "external");
        ext != nullptr && ext->k == jvalue::kind::boolean) {
      pt.external = ext->b;
    }
    out.points.push_back(std::move(pt));
  }
  err.clear();
  return true;
}

}  // namespace hyaline::harness
