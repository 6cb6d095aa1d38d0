"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a few small items through the same runner and checker as the benchmark,
next to three faulty ones: a witness with one entry altered, a span table
with one wrong value, and an item that raises. Passes when each faulty item
counts as exactly one failed item and every other item passes.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from worker import SRC, Checker, run_pass

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs graphspan on the path)
from checks import family_graph  # noqa: E402
from workloads import CliOutput, Item, _cli  # noqa: E402

SPEC = "cycle:6"


def _alter_witness_entry(out: CliOutput) -> CliOutput:
    """Replace one entry of the first f walk by a vertex not adjacent to the
    entry before it."""
    g = family_graph(SPEC)
    lines = out.text.splitlines()
    entries = lines[1].split(",")
    i = len(entries) // 2
    prev = int(entries[i - 1][1:]) - 1
    x = next(v for v in range(g.n) if v != prev and v not in g.adj[prev])
    entries[i] = f"v{x + 1}"
    lines[1] = ",".join(entries)
    return CliOutput(out.rc, "\n".join(lines) + "\n")


def _wrong_span_value(out: CliOutput) -> CliOutput:
    lines = out.text.splitlines()
    label, v, e = lines[2].split()
    wrong = int(v) - 1 if int(v) else 1
    lines[2] = f"{label:<12}{wrong:>10}{e:>10}"
    return CliOutput(out.rc, "\n".join(lines) + "\n")


def _raise():
    raise RuntimeError("injected failure")


def main() -> int:
    workdir = Path(__file__).resolve().parent / ".run" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        family = {it.key: it for it in workloads.build("family-queries", 1, workdir)}
        corpus = workloads.build("corpus-scan", 1, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    g = family_graph(SPEC)
    span_item = Item(f"span --family {SPEC}", lambda: _cli(["span", "--family", SPEC]),
                     lambda out: workloads.check_span(out, g, SPEC))
    witness_item = Item(f"witness --family {SPEC}", lambda: _cli(["witness", "--family", SPEC]),
                        lambda out: workloads.check_witness(out, g, SPEC, False))
    good = [span_item, witness_item, family["postman --family complete:16 --mode closed"],
            family["witness --family kn_plus:9"], corpus[0], *corpus[1:8], corpus[-1]]
    faulty = [
        Item("witness with one entry altered", lambda: _alter_witness_entry(witness_item.run()),
             witness_item.check),
        Item("span table with a wrong value", lambda: _wrong_span_value(span_item.run()),
             span_item.check),
        Item("item that raises", _raise, span_item.check),
    ]
    items = good + faulty
    checker = Checker(items)
    records = run_pass(items)
    checker.add_pass(records)
    for problem in checker.problems:
        print(f"failed: {problem}")
    failed_keys = {p.split(": ", 1)[0] for p in checker.problems}
    ok = checker.failed == len(faulty) and failed_keys == {it.key for it in faulty}
    print(f"{checker.failed} of {checker.attempted} items failed; expected exactly the "
          f"{len(faulty)} faulty ones: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
