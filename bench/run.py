"""graphspan benchmark: one workload (or all) with end-to-end or per-layer metrics.

    python3 bench/run.py --workload family-queries --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Each workload runs in its own worker process (worker.py), after
SETUP_STARTS workers that stop once set-up is done; ``setup_s`` is the median
set-up time over all of them. With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, and the spans are written under bench/.run/traces/.
Exits non-zero without a result line when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedprobe import REFERENCE_S
from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("family-queries", "minlen-small", "corpus-scan")
SETUP_STARTS = 6
# passes every run makes, whatever --seconds says; minlen-small has fewer,
# longer items, so it needs more passes for steady figures
MIN_PASSES = {"family-queries": 3, "minlen-small": 4, "corpus-scan": 3}
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "witness_entries": "count",
}


class BenchError(Exception):
    pass


def _spawn(argv: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv, "--t0", repr(t0)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(name: str, items_per_pass: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it in every
    run, which makes at least MIN_PASSES passes."""
    n = MIN_PASSES[name] * items_per_pass
    return max(50, min(99, math.floor(100 - 1000 / n)))


def percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    workdir = BENCH / ".run" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--min-passes", str(MIN_PASSES[name]), "--workdir", str(workdir)]
    try:
        starts = [_spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_STARTS)]
        extra = []
        if trace:
            traces = BENCH / ".run" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            extra = ["--trace", "1", "--trace-out", str(traces / f"{name}-seed{seed}.json")]
        main = _spawn([*common, *extra], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    starts.append(main)
    main["setup_samples"] = [s["setup_s"] * REFERENCE_S / s["setup_probe_s"] for s in starts]
    main["import_samples"] = [s["import_s"] for s in starts]
    return main


def end_to_end(name: str, res: dict) -> dict:
    """The end-to-end metrics; times scaled to the reference speed."""
    lat_ms = [x * 1000 * REFERENCE_S / p for x, p in zip(res["latencies"], res["probes"])]
    q = tail_percentile(name, res["items_per_pass"])
    res["tail"] = (q, len(lat_ms), sum(1 for x in lat_ms if x > percentile(lat_ms, q)))
    return {
        "setup_s": statistics.median(res["setup_samples"]),
        "items_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, q),
        "peak_rss_mb": res["peak_rss_mb"],
        "witness_entries": res["witness_entries"],
    }


def report(name: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    print(f"== {name}  seed {seed}  python {platform.python_version()}  nproc {os.cpu_count()}")
    kind = "traced passes" if trace else "passes"
    print(f"   {kind}: {res['passes']} x {res['items_per_pass']} items,"
          " closed loop, 1 client, 1 thread")
    if trace:
        res["layer"]["cli.import_s"] = statistics.median(res["import_samples"])
        out = {k: {"value": res["layer"][k], "unit": unit}
               for k, (unit, _) in LAYER_METRICS.items()}
        for k, m in out.items():
            mark = "  (absent)" if k in res["absent"] else ""
            print(f"   {k:34} {m['value']:>16.6g} {m['unit']}{mark}")
        print(f"   tracing overhead: {res['layer']['trace.overhead_s']:.4f} s per pass "
              f"(untraced {res['untraced_pass_s']:.3f} s, traced {res['traced_pass_s']:.3f} s, "
              f"means over {res['passes']} passes each after a warm-up pass)")
        return out
    values = end_to_end(name, res)
    out = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    q, n, beyond = res["tail"]
    raw = res["latencies"]
    print(f"   times scaled to the reference speed; the speed probe took "
          f"{statistics.median(res['probes']) * 1000:.2f} ms (median), "
          f"reference {REFERENCE_S * 1000:g} ms")
    notes = {
        "setup_s": f"median of {len(res['setup_samples'])} worker starts",
        "items_per_s": f"unscaled {len(raw) / sum(raw):.6g}",
        "latency_p50_ms": f"over {n} items; unscaled {statistics.median(raw) * 1000:.6g}",
        "latency_tail_ms": f"p{q} over {n} items, {beyond} beyond it",
        "witness_entries": "per pass",
    }
    for k, m in out.items():
        print(f"   {k:18} {m['value']:>14.6g} {m['unit']:6} {notes.get(k, '')}")
    print(f"   {'failed_frac':18} {res['failed'] / res['attempted']:>14.6g} {'':6} "
          f"{res['failed']} of {res['attempted']} items failed")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        metrics = report(name, args.seed, res, bool(args.trace))
        for problem in res["problems"]:
            print(f"   FAILED {problem}")
        inconsistent = args.trace and res["layer"]["trace.inconsistent_items"]
        correct = res["failed"] == 0 and not inconsistent
        results[name] = {"correct": correct, "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": metrics}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
