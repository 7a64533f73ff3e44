#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload write|read|stall --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark program (bench.cpp) is built
from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. Its standard output is relayed; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 1
the sampled op spans are also written to
.bench_build/perfbench/traces/<workload>-seed<N>.json (Chrome trace format).

Exit codes: 0 success, 1 correctness breach, 2 build or usage error.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then (re)build; returns the benchmark binary's path."""
    if not (ROOT / "src" / "smr" / "hyaline.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "perfbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True, env=env,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["write", "read", "stall"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-slowdown", type=float, default=0.0,
                    help="self-test only: spin per op to cut throughput by this share")
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.inject_slowdown:
        cmd += ["--inject-slowdown", str(args.inject_slowdown)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode not in (0, 1) or not lines:
        sys.stdout.write(r.stdout)
        fail(f"benchmark exited with code {r.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if set(result["metrics"]) != want:
        sys.stdout.write(r.stdout)
        fail("metric names differ from BENCHMARK.json: "
             f"missing {sorted(want - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - want)}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
