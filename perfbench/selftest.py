#!/usr/bin/env python3
"""Show that the benchmark's gate catches a known regression.

    python3 perfbench/selftest.py [--runs N] [--seconds S]

Runs the `write` workload three ways, interleaved, on seeds 1..runs:
A and B are unmodified; C injects a calibrated per-op spin into the
benchmark program (not the library) sized to cut throughput by twice the
`mops` bound of BENCHMARK.json. The gate is the one BENCHMARK.json defines:
a metric regresses when its median over the runs is worse than the
baseline median by more than the metric's bound.

Passes (exit 0) when B shows no regression against A on any end-to-end
metric, and C shows a regression against A on every `mops.<scheme>`.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(seed, seconds, slowdown):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           "write", "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if slowdown:
        cmd += ["--inject-slowdown", str(slowdown)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit(f"selftest: run failed: {' '.join(cmd)}")
    return {k: v["value"] for k, v in json.loads(r.stdout.splitlines()[-1])["metrics"].items()}


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (negative = better)."""
    d = (new - base) / base
    return -d if metric["better"] == "higher" else d


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    mops_bound = max(m["bound"] for m in metrics if m["name"].startswith("mops."))
    slowdown = 2 * mops_bound
    sides = {"A": [], "B": [], "C": []}
    for seed in range(1, args.runs + 1):
        sides["A"].append(run(seed, args.seconds, 0))
        sides["B"].append(run(seed, args.seconds, 0))
        sides["C"].append(run(seed, args.seconds, slowdown))
    med = {s: {m["name"]: statistics.median(r[m["name"]] for r in runs) for m in metrics}
           for s, runs in sides.items()}

    ok = True
    print(f"injected slowdown {slowdown:.2f} (2 x mops bound {mops_bound:.2f}), "
          f"{args.runs} runs per side")
    print(f"{'metric':28s} {'A':>12s} {'B':>12s} {'C':>12s}  B-vs-A  C-vs-A  bound")
    for m in metrics:
        n = m["name"]
        wb = worse_by(m, med["A"][n], med["B"][n])
        wc = worse_by(m, med["A"][n], med["C"][n])
        verdict = []
        if wb > m["bound"]:
            ok = False
            verdict.append("UNMODIFIED RUN READS AS REGRESSION")
        if n.startswith("mops.") and wc <= m["bound"]:
            ok = False
            verdict.append("INJECTED REGRESSION MISSED")
        print(f"{n:28s} {med['A'][n]:12.4f} {med['B'][n]:12.4f} {med['C'][n]:12.4f}"
              f"  {wb:+6.3f}  {wc:+6.3f}  {m['bound']:.2f} {' '.join(verdict)}")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
