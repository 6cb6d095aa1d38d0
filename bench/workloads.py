"""The benchmark workloads: fixed item lists, seeded input files, and how each
item runs and is checked.

An item is one closed-loop request: a CLI command run in-process through
``graphspan.cli.main`` with stdout captured, or a group of library calls. The
program is always called through its module attributes at call time, so the
traced run sees the same calls as the untimed one.

Seeded inputs: each seeded slot holds a random connected graph with a fixed
(n, m). Its isomorphism class is drawn once, from a seed fixed per slot; the
run's ``--seed`` draws the vertex labels, the edge order and so the bytes of
the file. Exact search costs depend on the class, not on the labels:
drawing a fresh class per seed made one minlen slot cost anywhere from 0.16 s
to 1.8 s, which no run length could average out.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, NamedTuple

from graphspan import cli, families, minlen, spans
from graphspan.errors import NoClosedForm
from graphspan.families import closed_minlen, closed_span
from graphspan.graph import FamilySpec, Graph
from graphspan.minlen import length_lower_bounds
from graphspan.spans import Rule, Target

from checks import (
    A001349,
    VARIANTS,
    RefGraph,
    Verdict,
    covering_walk_problems,
    expected_postman_length,
    family_graph,
    isomorphic,
    parse_minlen_text,
    parse_postman_text,
    parse_span_text,
    parse_witness_output,
    walk_pair_problems,
)

# ---------------------------------------------------------------------------
# Item lists

FAMILY_SPAN = ("path:40", "path:50", "cycle:80", "complete:20", "kn_plus:12", "star:40")
FAMILY_WITNESS = (
    ("complete:10",),
    ("complete:11", "--format", "structured"),
    ("path:30",),
    ("kn_plus:9",),
    ("cycle:40",),
    ("complete_bipartite:5,6",),
)
FAMILY_POSTMAN = (
    ("complete:18",),
    ("complete:16", "--mode", "closed"),
    ("complete_bipartite:9,10",),
    ("cycle:200",),
)
# (command, n, m, file format)
FAMILY_SEEDED = (
    ("span", 18, 30, "edge-list"),
    ("span", 24, 40, "graph6"),
    ("witness", 20, 32, "graph6"),
    ("witness", 26, 40, "edge-list"),
    ("postman", 22, 36, "edge-list"),
    ("postman", 28, 44, "graph6"),
)
MINLEN_FIXED = (
    "complete:4", "complete:5", "kn_plus:4", "complete_bipartite:2,3", "complete_bipartite:2,4",
    "cycle:6", "cycle:8", "path:8", "star:6",
)
MINLEN_SEEDED = ((5, 7), (5, 8), (6, 7), (6, 8))
CORPUS_ORDER = 6


class CliOutput(NamedTuple):
    rc: int
    text: str


@dataclass
class Item:
    key: str
    run: Callable[[], object]
    check: Callable[[Hashable], Verdict]
    # maps the raw output to plain hashable data; equal data gets one check
    plain: Callable[[object], Hashable] = lambda out: out


def _cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliOutput(rc, buf.getvalue())


def _closed(table, spec: str | None, rule: str, target: str):
    if spec is None:
        return None
    try:
        return table(FamilySpec.from_string(spec), Rule(rule), Target(target))
    except NoClosedForm:
        return None


# ---------------------------------------------------------------------------
# Seeded input files


def _draw_class(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random connected graph: a random spanning tree plus random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _graph6(n: int, edges) -> str:
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def seeded_graph(workload: str, slot: int, n: int, m: int, seed: int, fmt: str, workdir: Path):
    """Write one seeded input file; return its path and the graph it holds."""
    base = _draw_class(n, m, random.Random(f"graphspan-bench/{workload}/{slot}"))
    rng = random.Random(f"{seed}/{workload}/{slot}")
    label = list(range(n))
    rng.shuffle(label)
    edges = [tuple(sorted((label[u], label[v]))) for u, v in base]
    rng.shuffle(edges)
    path = workdir / f"{workload}-{slot}.{'g6' if fmt == 'graph6' else 'txt'}"
    if fmt == "graph6":
        text = _graph6(n, edges) + "\n"
    else:
        lines = [f"# seeded {workload} slot {slot}, seed {seed}", str(n)]
        text = "\n".join(lines + [f"{u} {v}" for u, v in edges]) + "\n"
    path.write_text(text, encoding="utf-8")
    return str(path), RefGraph(n, edges)


# ---------------------------------------------------------------------------
# Checks of CLI outputs


def _rc_problems(out: CliOutput) -> list[str]:
    return [] if out.rc == 0 else [f"exit status {out.rc}"]


def check_span(out: CliOutput, g: RefGraph, spec: str | None) -> Verdict:
    problems = _rc_problems(out)
    values, more = parse_span_text(out.text, g)
    problems += more
    if sorted(values) != sorted(VARIANTS):
        problems.append(f"span table holds {len(values)} of 6 variants")
    for (rule, target), value in sorted(values.items()):
        if not 0 <= value <= g.radius:
            problems.append(f"{rule}/{target}: span {value} outside 0..{g.radius}")
        want = _closed(closed_span, spec, rule, target)
        if want is not None and want != value:
            problems.append(f"{rule}/{target}: span {value}, table {want}")
    return Verdict(tuple(problems))


def check_witness(out: CliOutput, g: RefGraph, spec: str | None, structured: bool) -> Verdict:
    problems = _rc_problems(out)
    entries = parse_witness_output(out.text, g, structured)
    if sorted((r, t) for r, t, *_ in entries) != sorted(VARIANTS):
        problems.append("witness output does not hold each of the 6 variants once")
    total = 0
    for rule, target, distance, f, h in entries:
        problems += walk_pair_problems(g, rule, target, f, h, distance)
        want = _closed(closed_span, spec, rule, target)
        if want is not None and want != distance:
            problems.append(f"{rule}/{target}: witness distance {distance}, table span {want}")
        total += len(f) + len(h)
    return Verdict(tuple(problems), total)


def check_postman(out: CliOutput, g: RefGraph, spec: str | None, closed: bool) -> Verdict:
    problems = _rc_problems(out)
    mode, length, walk, more = parse_postman_text(out.text, g)
    problems += more
    if walk is None:
        return Verdict(tuple(problems))
    if mode != ("closed" if closed else "free_endpoints"):
        problems.append(f"mode {mode!r}")
    problems += covering_walk_problems(g, walk, closed)
    if length != len(walk) - 1:
        problems.append(f"length_edges {length} but the walk has {len(walk) - 1} steps")
    want = expected_postman_length(spec, g, closed)
    if length != want:
        problems.append(f"length_edges {length}, route inspection gives {want}")
    return Verdict(tuple(problems))


def _minlen_problems(g: RefGraph, lib_graph: Graph, spec, rule, target, length, capped,
                     span_value, f, h, span_expected=None, ub=None) -> list[str]:
    tag = f"{rule}/{target}"
    if capped:
        return [f"{tag}: search capped"]
    problems = []
    lb = length_lower_bounds(lib_graph, Rule(rule), Target(target))
    if length < lb:
        problems.append(f"{tag}: L={length} below the lower bound {lb}")
    if ub is not None and length > ub:
        problems.append(f"{tag}: L={length} above the witness length {ub}")
    for table, value, what in ((closed_minlen, length, "L"), (closed_span, span_value, "span")):
        want = _closed(table, spec, rule, target)
        if want is not None and want != value:
            problems.append(f"{tag}: {what}={value}, table {want}")
    if span_expected is not None and span_value != span_expected:
        problems.append(f"{tag}: minlen span {span_value}, span engine {span_expected}")
    if f is None:
        return problems + [f"{tag}: no witness"]
    if len(f) != length:
        problems.append(f"{tag}: witness has {len(f)} entries, L={length}")
    return problems + walk_pair_problems(g, rule, target, f, h, span_value)


def check_minlen(out: CliOutput, g: RefGraph, spec: str | None) -> Verdict:
    problems = _rc_problems(out)
    entries, more = parse_minlen_text(out.text, g)
    problems += more
    if sorted((r, t) for r, t, *_ in entries) != sorted(VARIANTS):
        problems.append("minlen output does not hold each of the 6 variants once")
    lib_graph = Graph(g.n, sorted(g.edges))
    total = 0
    for rule, target, length, capped, span_value, f, h in entries:
        problems += _minlen_problems(g, lib_graph, spec, rule, target, length, capped,
                                     span_value, f, h)
        total += len(f) + len(h) if f else 0
    return Verdict(tuple(problems), total)


# ---------------------------------------------------------------------------
# Workload item lists


def _family_items(seed: int, workdir: Path) -> list[Item]:
    items = []
    for spec in FAMILY_SPAN:
        g = family_graph(spec)
        items.append(Item(f"span --family {spec}",
                          lambda spec=spec: _cli(["span", "--family", spec]),
                          lambda out, g=g, spec=spec: check_span(out, g, spec)))
    for spec, *extra in FAMILY_WITNESS:
        g = family_graph(spec)
        structured = "structured" in extra
        items.append(Item(" ".join(["witness --family", spec, *extra]),
                          lambda spec=spec, x=extra: _cli(["witness", "--family", spec, *x]),
                          lambda out, g=g, spec=spec, s=structured: check_witness(out, g, spec, s)))
    for spec, *extra in FAMILY_POSTMAN:
        g = family_graph(spec)
        closed = "closed" in extra
        items.append(Item(" ".join(["postman --family", spec, *extra]),
                          lambda spec=spec, x=extra: _cli(["postman", "--family", spec, *x]),
                          lambda out, g=g, spec=spec, c=closed: check_postman(out, g, spec, c)))
    for slot, (command, n, m, fmt) in enumerate(FAMILY_SEEDED):
        path, g = seeded_graph("family-queries", slot, n, m, seed, fmt, workdir)
        run = lambda command=command, path=path: _cli([command, "--file", path])
        if command == "span":
            check = lambda out, g=g: check_span(out, g, None)
        elif command == "witness":
            check = lambda out, g=g: check_witness(out, g, None, False)
        else:
            check = lambda out, g=g: check_postman(out, g, None, False)
        items.append(Item(f"{command} --file <{fmt} n={n} m={m}>", run, check))
    return items


def _minlen_items(seed: int, workdir: Path) -> list[Item]:
    items = []
    for spec in MINLEN_FIXED:
        g = family_graph(spec)
        items.append(Item(f"minlen --family {spec}",
                          lambda spec=spec: _cli(["minlen", "--family", spec]),
                          lambda out, g=g, spec=spec: check_minlen(out, g, spec)))
    for slot, (n, m) in enumerate(MINLEN_SEEDED):
        path, g = seeded_graph("minlen-small", slot, n, m, seed, "edge-list", workdir)
        items.append(Item(f"minlen --file <edge-list n={n} m={m}>",
                          lambda path=path: _cli(["minlen", "--file", path]),
                          lambda out, g=g: check_minlen(out, g, None)))
    return items


class _Corpus:
    """Graphs yielded by this pass's enumeration item, read by the later items."""

    def __init__(self):
        self.graphs: list = []


def _enumerate_item(ctx: _Corpus) -> Item:
    def run():
        ctx.graphs = list(families.enumerate_connected(CORPUS_ORDER))
        return ctx.graphs

    def check(plain) -> Verdict:
        counts = [sum(1 for n, _ in plain if n == order) for order in range(1, CORPUS_ORDER + 1)]
        problems = []
        if tuple(counts) != A001349:
            problems.append(f"per-order counts {counts}, A001349 {list(A001349)}")
        if any(not RefGraph(n, edges).connected for n, edges in plain):
            problems.append("a yielded graph is disconnected")
        return Verdict(tuple(problems))

    return Item(f"enumerate_connected({CORPUS_ORDER})", run, check,
                lambda out: tuple((g.n, tuple(g.edges)) for g in out))


def _graph_item(ctx: _Corpus, i: int) -> Item:
    def run():
        g = ctx.graphs[i]
        reports = spans.all_spans(g)
        witnesses = tuple(spans.witness_sweeps(g, r, t) for r in Rule for t in Target)
        minlens = tuple(minlen.min_length(g, r, Target.VERTICES) for r in Rule)
        return g, reports, witnesses, minlens, families.canonical_form(g)

    def plain(out):
        g, reports, witnesses, minlens, canon = out
        return (
            g.n, tuple(g.edges),
            tuple((r.rule.value, r.target.value, r.value) for r in reports),
            tuple((f.seq, h.seq) for f, h in witnesses),
            tuple((r.rule.value, r.target.value, r.length, r.capped, r.span_value,
                   r.witness[0].seq if r.witness else None,
                   r.witness[1].seq if r.witness else None) for r in minlens),
            tuple(canon),
        )

    def check(p) -> Verdict:
        n, edges, reports, witnesses, minlens, canon = p
        g = RefGraph(n, edges)
        lib_graph = Graph(n, edges)
        problems = []
        values = {(r, t): v for r, t, v in reports}
        if [(r, t) for r, t, _ in reports] != list(VARIANTS):
            problems.append("all_spans does not list the 6 variants in order")
        for (rule, target), v in values.items():
            if not 0 <= v <= g.radius:
                problems.append(f"{rule}/{target}: span {v} outside 0..{g.radius}")
        total = 0
        lengths = {}
        for (rule, target), (f, h) in zip(VARIANTS, witnesses):
            problems += walk_pair_problems(g, rule, target, f, h, values.get((rule, target), -1))
            lengths[(rule, target)] = len(f)
            total += len(f) + len(h)
        for rule, target, length, capped, span_value, f, h in minlens:
            problems += _minlen_problems(g, lib_graph, None, rule, target, length, capped,
                                         span_value, f, h, values.get((rule, target)),
                                         lengths.get((rule, target)))
        if canon[0] != n or bin(canon[1]).count("1") != g.m:
            problems.append(f"canonical form {canon} does not have order {n} and size {g.m}")
        return Verdict(tuple(problems), total)

    return Item(f"corpus graph #{i}", run, check, plain)


def _gap_item() -> Item:
    def check(plain) -> Verdict:
        n, edges = plain
        if isomorphic(RefGraph(n, edges), family_graph("kn_plus:4")):
            return Verdict(())
        return Verdict((f"gap graph (order {n}, edges {edges}) is not the once-subdivided K4",))

    return Item("find_minimal_direct_gap()", lambda: families.find_minimal_direct_gap(), check,
                lambda g: (g.n, tuple(g.edges)))


def _corpus_items() -> list[Item]:
    ctx = _Corpus()
    count = sum(A001349)
    return [_enumerate_item(ctx), *(_graph_item(ctx, i) for i in range(count)), _gap_item()]


def build(workload: str, seed: int, workdir: Path) -> list[Item]:
    """The item list of one pass; seeded input files are written to workdir."""
    if workload == "family-queries":
        return _family_items(seed, workdir)
    if workload == "minlen-small":
        return _minlen_items(seed, workdir)
    if workload == "corpus-scan":
        return _corpus_items()
    raise ValueError(f"unknown workload {workload!r}")

