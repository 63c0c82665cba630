"""End-to-end placement benchmark: one run of one workload.

    python3 perfbench/run.py --workload place-mb --seed 1 --seconds 45 --trace 0

Run from the repository root.  The run makes its inputs from
``--seed``, sets them up, then runs whole passes over its episodes
(see ``cases.py``): at least one, and another only while it is
expected to end within ``--seconds``, so every episode weighs the
same in the medians whatever the speed.  Every operation is checked:
it fails if it raises, if its placement is illegal by
``check_legality`` (movebound containment included), if an ECO delta
does not commit in ``eco`` mode, or if its position hash differs from
an earlier run of the same operation on the same seed with the same
code (the placer is deterministic by contract; hashes are kept in
``.perfbench/hashes.json``, keyed by a digest of the Python sources
under ``src/repro`` and ``perfbench``, so runs of different code are
never compared).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs episodes in turn, each once untraced and once
traced, for ``--seconds`` seconds (at least two episodes), then the
first once more with the invariant checks on (flow conservation,
region capacity, movebound containment), and reports the per-layer
metrics; its spans are written to
``.perfbench/trace-<workload>-seed<n>.json``.

The last line of standard output is the JSON result; the log goes to
standard error.  Every run is one process with the default
``BonnPlaceOptions`` (no worker pool) and BLAS threads capped at the
number of usable cores.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"
WORKLOADS = ("place-mb", "eco-mb")
#: calibration time that op_ref_s is scaled to: about what the loop
#: took on a 2-core Intel Xeon VM with CPython 3.11 in a quiet minute
CALIBRATION_REF_S = 0.045
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _pin_environment() -> None:
    """Runs must not depend on the caller's REPRO_* knobs, and BLAS
    may use at most the usable cores.  Must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        limit = min(int(cur), cores) if cur.isdigit() and int(cur) > 0 else cores
        os.environ[var] = str(limit)


def _calibration_s(data) -> float:
    """Wall seconds of a fixed workload that uses no code of this
    repository: an interpreter loop over a dict and a heap, then four
    passes over ``data`` (16 MB of float64 in the runs here)."""
    t0 = time.perf_counter()
    sums: dict = {}
    heap: list = []
    for q in range(60000):
        sums[q % 997] = sums.get(q % 997, 0.0) + q * 0.5
        heapq.heappush(heap, (q * 7919) % 10007)
        if len(heap) > 64:
            heapq.heappop(heap)
    sorted(range(30000), key=lambda x: (x * 7919) % 10007)
    for _ in range(4):
        data *= 1.0
    return time.perf_counter() - t0


class Calibration:
    """Scales measured times to a reference machine speed.

    On a shared machine the speed of the whole process swings by up to
    2x for seconds to minutes at a time (CPU time moves with wall
    time).  The calibration loop runs before the first timed interval
    and after each one; an interval's reference time is its time times
    CALIBRATION_REF_S over the mean of the two calibrations around it,
    which cancels most of the swing."""

    def __init__(self, data) -> None:
        self.data = data
        self.last = _calibration_s(data)

    def scale(self, seconds: float) -> float:
        """Reference seconds of an interval that has just ended."""
        before, self.last = self.last, _calibration_s(self.data)
        return seconds * CALIBRATION_REF_S * 2.0 / (before + self.last)


def _code_digest() -> str:
    """Digest of the Python sources that decide the placements."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_hashes(name: str, seed: int, results) -> None:
    """Fail every operation whose position hash differs from the first
    one recorded for it with the same code, in this run or an earlier
    run of the seed."""
    path = STATE / "hashes.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    code = _code_digest()
    for r in results:
        if r.error:
            continue
        key = f"{code}/{name}/seed{seed}/{r.key}"
        first = known.setdefault(key, r.sha)
        if first != r.sha:
            r.error = f"position hash {r.sha[:12]} != {first[:12]}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _checked_episode(workload):
    """Run the first episode once with the invariant checks on.  It
    fails if a check reports a violation, even one the placer caught
    and recovered from, or if no check ran at all."""
    from repro.obs import get_tracer, set_invariants_enabled

    def invariant_counts():
        counts = {"runs": 0.0, "violations": 0.0}
        for name, value in get_tracer().counters.items():
            kind = name.rsplit(".", 1)[-1]
            if name.startswith("invariants.") and kind in counts:
                counts[kind] += value
        return counts

    before = invariant_counts()
    set_invariants_enabled(True)
    try:
        result = workload.episode(0, None)
    finally:
        set_invariants_enabled(None)
    after = invariant_counts()
    violations = after["violations"] - before["violations"]
    if not result.error and violations:
        result.error = f"{violations:.0f} invariant violations"
    elif not result.error and after["runs"] == before["runs"]:
        result.error = "no invariant check ran"
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _pin_environment()
    sys.path.insert(0, str(src))

    import numpy as np

    import cases
    from layers import LAYER_METRICS, Recorder, fold_ops

    STATE.mkdir(exist_ok=True)
    workload = cases.make_workload(args.workload, str(STATE))
    calibration = Calibration(np.ones(2_000_000))

    setup_times = workload.setup(args.seed, calibration.scale)
    n = workload.episodes
    metrics = {}
    if not args.trace:
        results = []
        t0 = time.perf_counter()
        passes = 0
        while True:
            for i in range(n):
                r = workload.episode(i, None)
                r.ref_seconds = calibration.scale(r.seconds)
                results.append(r)
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / passes > args.seconds:
                break
        _check_hashes(args.workload, args.seed, results)
        ok = [r for r in results if not r.error]
        if ok:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_ref_s": statistics.median(r.ref_seconds for r in ok),
                # repeats of an operation are hash-checked equal
                "hpwl": statistics.fmean({r.key: r.hpwl for r in ok}.values()),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    else:
        recorder = Recorder()
        untraced, traced = [], []
        t0 = time.perf_counter()
        i = 0
        while i < 2 or (i < n and time.perf_counter() - t0 < args.seconds):
            untraced.append(workload.episode(i % n, None))
            traced.append(workload.episode(i % n, recorder))
            i += 1
        results = untraced + traced + [_checked_episode(workload)]
        _check_hashes(args.workload, args.seed, results)
        ops = fold_ops(recorder)
        metrics = {m.name: m.compute(ops) for m in LAYER_METRICS}
        metrics["trace.overhead_share"] = (
            statistics.median(o.wall_s for o in ops)
            / statistics.median(r.seconds for r in untraced) - 1.0
        )
        (STATE / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(recorder.to_json()))

    for r in results:
        status = f"FAIL {r.error}" if r.error else "ok"
        print(f"{args.workload} seed {args.seed} {r.key}: {r.seconds:.3f} s "
              f"(ref {r.ref_seconds:.3f} s) hpwl {r.hpwl:.1f} "
              f"sha {r.sha[:16]} {status}", file=sys.stderr)
    failed = sum(1 for r in results if r.error)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if metrics and {m["name"] for m in declared} != set(metrics):
        print("perfbench: metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
