"""One workload in one process: set-up, timed passes, checks and, when traced,
the layer spans. Started by run.py; prints one JSON object on stdout.

The loop is closed with one client and one thread: items run back to back,
each timed on its own. A pass is the workload's whole item list. The run
makes at least ``--min-passes`` passes and then whole passes until the timed
item latencies add up to ``--seconds``. Every output is checked after its
pass, outside the timed intervals; identical outputs are checked once.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speedprobe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_EVERY_S = 0.25


def run_pass(items, tracer=None):
    """Run the item list once; return (latency_s, output, error, probe_s) per
    item.

    Speed probes run between items, at least PROBE_EVERY_S apart, and before
    and after the pass. An item's probe_s is the median of the three probes
    on either side of it, which follows drifts in machine speed but not the
    jitter of single probes.
    """
    probes = [speedprobe.probe_s()]
    last = time.perf_counter()
    records = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = len(tracer.item_walls)
        error = output = None
        t0 = time.perf_counter()
        try:
            output = item.run()
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.item_walls[tracer.item] = latency
            tracer.item = None
            text = getattr(output, "text", None)
            if isinstance(text, str):
                tracer.counts["cli.output_bytes"] += len(text.encode())
        records.append((latency, output, error, len(probes) - 1))
        if time.perf_counter() - last >= PROBE_EVERY_S or i == len(items) - 1:
            probes.append(speedprobe.probe_s())
            last = time.perf_counter()
    return [(*r[:3], statistics.median(probes[max(0, r[3] - 2):r[3] + 4])) for r in records]


def run_passes(items, checker, min_passes: int, seconds: float, tracer=None):
    """Whole passes until both min_passes and `seconds` of timed item latency
    are reached; each pass is checked right after it, outside the timing.
    Returns (latency_s, probe_s) per item, one list per pass."""
    passes = []
    timed = 0.0
    while len(passes) < min_passes or timed < seconds:
        records = run_pass(items, tracer)
        checker.add_pass(records)
        passes.append([(r[0], r[3]) for r in records])
        timed += sum(r[0] for r in records)
    return passes


class Checker:
    """Counts failed items and witness entries; memoizes equal outputs."""

    def __init__(self, items):
        self.items = items
        self.memo: dict = {}
        self.attempted = 0
        self.failed = 0
        self.witness_entries = 0
        self.problems: list[str] = []

    def _verdict(self, idx: int, output):
        key = (idx, self.items[idx].plain(output))
        if key not in self.memo:
            self.memo[key] = self.items[idx].check(key[1])
        return self.memo[key]

    def add_pass(self, records) -> None:
        for idx, (_, output, error, _) in enumerate(records):
            self.attempted += 1
            problems = [error] if error else []
            if not error:
                try:
                    verdict = self._verdict(idx, output)
                    problems = list(verdict.problems)
                    self.witness_entries += verdict.witness_entries
                except Exception as exc:
                    problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{self.items[idx].key}: {problems[0]}")


def _parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-passes", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "graphspan" / "__init__.py").is_file():
        print(f"graphspan sources not found under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import graphspan.cli
    import_s = time.perf_counter() - t
    if Path(graphspan.__file__).resolve().parent != (SRC / "graphspan").resolve():
        print(f"imported graphspan from {graphspan.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    import workloads

    items = workloads.build(args.workload, args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "import_s": import_s,
              "setup_probe_s": statistics.median(speedprobe.probe_s() for _ in range(3))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    checker = Checker(items)
    if args.trace:
        from tracing import Tracer, absent_metrics, layer_metrics

        # a warm-up pass, then untraced and traced passes in turn, so that
        # the overhead compares passes run under the same conditions
        run_passes(items, checker, 1, 0.0)
        tracer = Tracer()
        untraced, passes = [], []
        while not passes or sum(x for p in untraced + passes for x, _ in p) < args.seconds:
            untraced += run_passes(items, checker, 1, 0.0)
            tracer.install()
            passes += run_passes(items, checker, 1, 0.0, tracer)
            tracer.uninstall()
        # pass times at the reference speed, as for the end-to-end metrics
        walls = [sum(x * speedprobe.REFERENCE_S / y for x, y in p) for p in passes]
        base = sum(x * speedprobe.REFERENCE_S / y for p in untraced for x, y in p) / len(untraced)
        overhead = sum(walls) / len(walls) - base
        layer = layer_metrics(tracer, len(passes))
        layer.update({
            "trace.overhead_s": overhead,
            "trace.overhead_frac": overhead / base,
            "trace.spans": len(tracer.spans) / len(passes),
            "trace.inconsistent_items": len(tracer.inconsistent_items()),
        })
        result.update(layer=layer, absent=absent_metrics(tracer), untraced_pass_s=base,
                      traced_pass_s=sum(walls) / len(walls))
        if args.trace_out:
            tracer.dump(args.trace_out)
    else:
        passes = run_passes(items, checker, args.min_passes, args.seconds)

    result.update(
        passes=len(passes),
        items_per_pass=len(items),
        latencies=[x for p in passes for x, _ in p],
        probes=[y for p in passes for _, y in p],
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        witness_entries=checker.witness_entries / (checker.attempted / len(items)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
