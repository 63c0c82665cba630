"""Steadiness check: is the benchmark steady enough to judge a change?

    python3 perfbench/steady.py

Runs ``run.py`` untraced on every workload of BENCHMARK.json for seeds
1-10, two sets over, one run at a time.  For each set, workload and
end-to-end metric it prints the spread, the distance between the first
and third quartile of the runs as a share of their median, against the
metric's bound; between the sets it prints how much worse the median
got.  It also prints the p90 of the single-operation times pooled over
all runs of a workload, which no single run holds enough operations to
estimate.  Exits 1 when a run fails or is not correct, when a spread
exceeds its bound, or when a median gets worse by more than its bound.

Seeds 1-10 were used while the benchmark was tuned; check claims about
a later change also on the held-out seed 9173 with
``run.py --seed 9173``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
SETS = 2


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def _run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    op_seconds = [float(line.split(": ")[1].split(" s ")[0])
                  for line in proc.stderr.splitlines()
                  if line.startswith(f"{workload} seed ")]
    return json.loads(lines[-1]), op_seconds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        medians_by_set = []
        pooled = []
        for k in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for seed in SEEDS:
                result, op_seconds = _run(workload, seed, spec["run_seconds"])
                pooled += op_seconds
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} operations failed")
                    ok = False
                for name, v in result["metrics"].items():
                    values[name].append(v["value"])
                print(f"{workload} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.4g}"
                    for n, v in result["metrics"].items()), flush=True)
            medians = {}
            for m in metrics:
                vals = values[m["name"]]
                spread = _spread(vals)
                medians[m["name"]] = statistics.median(vals)
                verdict = "ok" if spread <= m["bound"] / 3 else (
                    "WIDE" if spread <= m["bound"] else "FAIL")
                ok &= verdict != "FAIL"
                print(f"  {workload} set {k + 1} {m['name']}: median "
                      f"{medians[m['name']]:.5g} {m['unit']}, spread "
                      f"{spread:.3f} vs bound {m['bound']} [{verdict}]")
            if medians_by_set:
                for m in metrics:
                    worse = _worse(medians_by_set[-1][m["name"]],
                                   medians[m["name"]], m["better"])
                    verdict = "ok" if worse <= m["bound"] else "FAIL"
                    ok &= verdict == "ok"
                    print(f"  {workload} set {k + 1} vs {k} {m['name']}: "
                          f"{worse:+.3f} worse vs bound {m['bound']} "
                          f"[{verdict}]")
            medians_by_set.append(medians)
        if pooled:
            ordered = sorted(pooled)
            p90 = ordered[math.ceil(0.9 * len(ordered)) - 1]
            print(f"  {workload} pooled operation time: median "
                  f"{statistics.median(ordered):.4g} s, p90 {p90:.4g} s "
                  f"over {len(ordered)} operations")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
