"""Command-line interface.

Subcommands: span, minlen, witness, postman, verify-family, verify-fixtures,
search-gap. Exit status 0 on success, 1 when a verification check fails, 2 on
input errors, 3 on an internal error (a breached engine invariant). Output is
deterministic: identical invocations produce byte-identical output.

Each subcommand's handler returns its report as ``(status, doc, lines)``: the
exit status, the command's own structured fields and its text lines. ``main``
is the one place that prints a report. Under ``--format structured`` it adds
``schema`` and ``command`` to ``doc``, so every structured document carries
both.

``main(argv)`` may be called repeatedly in one process and returns the exit
status. It builds its argument parser once, on the first call, and only reads
it afterwards; ``build_parser()`` returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from typing import Iterator, Optional

from .errors import GraphSpanError, InternalError, MalformedInput, VerificationFailure
from .families import closed_minlen, closed_span, find_minimal_direct_gap
from .graph import FamilySpec, Graph, _content_lines, _digits, complete, generate, kn_plus
from .graph import parse_edge_list, parse_graph6
from .minlen import DEFAULT_STATE_BUDGET, min_length
from .postman import shortest_covering_walk
from .spans import RULES, TARGETS, Rule, Target, span, witness_sweeps
from .walks import Walk, classify, format_walk, is_opposite_lazy, pair_distance, parse_walk

SCHEMA = "graphspan/v1"


def _variants(args) -> tuple[tuple[Rule, ...], tuple[Target, ...]]:
    rules = RULES if args.rule == "all" else (Rule.from_name(args.rule),)
    targets = TARGETS if args.target == "both" else (Target(args.target),)
    return rules, targets


def _load_graph(args) -> tuple[Graph, str]:
    if args.family:
        spec = FamilySpec.from_string(args.family)
        return generate(spec), str(spec)
    with open(args.file, "rb") as fh:
        data = fh.read()
    try:
        # a leading byte order mark is dropped, as the utf-8-sig codec does,
        # but decode errors keep their offset from the start of the file
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{args.file}: not UTF-8 text (byte {exc.start})") from None
    source = f"file:{args.file}"
    # graph6 when the first non-comment line is a graph6 string (every
    # character in 63..126, or the optional header); an edge list otherwise
    lines = _content_lines(text)
    if lines:
        lineno, first = lines[0]
        if first.startswith(">>graph6<<") or all(63 <= ord(c) <= 126 for c in first):
            if len(lines) > 1:
                raise MalformedInput(
                    f"line {lines[1][0]}: graph6 file holds one graph, found a second line"
                )
            try:
                return parse_graph6(first), source
            except MalformedInput as exc:
                raise MalformedInput(f"line {lineno}: {exc}") from None
    return parse_edge_list(text), source


def _graph_doc(g: Graph, source: str) -> dict:
    return {"source": source, "order": g.n, "size": g.m}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_span(args) -> tuple[int, dict, list[str]]:
    g, source = _load_graph(args)
    rules, targets = _variants(args)
    values = {(r, t): span(g, r, t).value for r in rules for t in targets}
    lines = [
        f"graph: {source} (order {g.n}, size {g.m})",
        f"{'rule':<12}" + "".join(f"{t.value:>10}" for t in targets),
    ]
    lines += [f"{r.product_name:<12}" + "".join(f"{values[r, t]:>10}" for t in targets) for r in rules]
    reports = [
        {"rule": r.product_name, "target": t.value, "value": value}
        for (r, t), value in values.items()
    ]
    return 0, {"graph": _graph_doc(g, source), "reports": reports}, lines


def _cmd_minlen(args) -> tuple[int, dict, list[str]]:
    g, source = _load_graph(args)
    rules, targets = _variants(args)
    lines = [f"graph: {source} (order {g.n}, size {g.m})"]
    reports = []
    for r in rules:
        for t in targets:
            rep = min_length(g, r, t, state_budget=args.budget)
            entry = {
                "rule": r.product_name,
                "target": t.value,
                "value": rep.length,
                "span": rep.span_value,
                "explored_states": rep.explored_states,
                "capped": rep.capped,
            }
            mark = " (capped: lower bound only)" if rep.capped else ""
            lines.append(
                f"{r.product_name:<12}{t.value:<10}L={rep.length}{mark}"
                f"  span={rep.span_value}  explored={rep.explored_states}"
            )
            if rep.witness is not None:
                f, h = map(format_walk, rep.witness)
                entry["witness"] = {"f": f, "g": h}
                lines += [f"  f: {f}", f"  g: {h}"]
            reports.append(entry)
    return 0, {"graph": _graph_doc(g, source), "reports": reports}, lines


def _cmd_witness(args) -> tuple[int, dict, list[str]]:
    g, source = _load_graph(args)
    rules, targets = _variants(args)
    lines = []
    reports = []
    for r in rules:
        for t in targets:
            # the pair keeps exactly the span value, a memo hit here
            value = span(g, r, t).value
            fw, hw = map(format_walk, witness_sweeps(g, r, t))
            lines += [f"# {r.product_name} {t.value} (distance {value})", fw, hw]
            reports.append(
                {
                    "rule": r.product_name,
                    "target": t.value,
                    "value": value,
                    "witness": {"f": fw, "g": hw},
                }
            )
    return 0, {"graph": _graph_doc(g, source), "reports": reports}, lines


def _cmd_postman(args) -> tuple[int, dict, list[str]]:
    g, source = _load_graph(args)
    mode = "closed" if args.mode == "closed" else "free_endpoints"
    res = shortest_covering_walk(g, mode)
    walk = format_walk(res.walk)
    lines = [
        f"graph: {source} (order {g.n}, size {g.m})",
        f"mode: {mode}",
        f"length_edges: {res.length_edges}",
        walk,
    ]
    doc = {
        "graph": _graph_doc(g, source),
        "mode": mode,
        "length_edges": res.length_edges,
        "duplicated": [list(e) for e in res.duplicated],
        "walk": walk,
    }
    return 0, doc, lines


def family_closed_checks(state_budget: int) -> Iterator[tuple[str, str, str, str, int, object]]:
    """Engine-vs-table rows (kind, family, rule, target, table, engine): every
    "span" row, then every "minlen" row. A minimal-length search that stores
    more than state_budget states reports "capped" as its engine value."""
    span_cases = (("path", 2, 9), ("cycle", 3, 9), ("complete", 1, 7), ("kn_plus", 4, 8))
    minlen_cases = (("path", 2, 9), ("cycle", 3, 9), ("complete", 2, 8))
    for kind, cases in (("span", span_cases), ("minlen", minlen_cases)):
        for family, lo, hi in cases:
            for n in range(lo, hi):
                spec = FamilySpec(family, (n,))
                g = generate(spec)
                for rule in Rule:
                    for target in Target:
                        if kind == "span":
                            want = closed_span(spec, rule, target)
                            got: object = span(g, rule, target).value
                        else:
                            want = closed_minlen(spec, rule, target)
                            rep = min_length(g, rule, target, state_budget=state_budget)
                            got = "capped" if rep.capped else rep.length
                        yield kind, str(spec), rule.value, target.value, want, got


def _verdict(checks: list[dict], lines: list[str]) -> tuple[int, dict, list[str]]:
    """The report of a verify command: it passes unless a check failed."""
    ok = all(check["status"] != "FAIL" for check in checks)
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 1), {"ok": ok, "checks": checks}, lines


def _cmd_verify_family(args) -> tuple[int, dict, list[str]]:
    lines = [
        f"{'check':<8}{'graph':<22}{'rule':<14}{'target':<10}{'table':>6}{'engine':>8}  status"
    ]
    checks = []
    for kind, family, rule, target, want, got in family_closed_checks(args.budget):
        status = "CAPPED" if got == "capped" else "PASS" if want == got else "FAIL"
        lines.append(
            f"{kind:<8}{family:<22}{rule:<14}{target:<10}{want:>6}{str(got):>8}  {status}"
        )
        checks.append(
            {
                "kind": kind,
                "graph": family,
                "rule": rule,
                "target": target,
                "expected": want,
                "actual": got,
                "status": status,
            }
        )
    return _verdict(checks, lines)


_FIXTURES = (
    {
        "name": "lazy 21-sweep pair on the once-subdivided K5",
        "files": ("knplus5_lazy_sweeps_f.walk", "knplus5_lazy_sweeps_g.walk"),
        "graph": lambda: kn_plus(5),
        "length": 21,
        "distance": 2,
        "kind": "lazy_sweep",
    },
    {
        "name": "11-sweep pair on K5",
        "files": ("k5_sweeps_f.walk", "k5_sweeps_g.walk"),
        "graph": lambda: complete(5),
        "length": 11,
        "distance": 1,
        "kind": "sweep",
    },
    {
        "name": "opposite lazy 21-sweep pair on K5",
        "files": ("k5_opposite_lazy_f.walk", "k5_opposite_lazy_g.walk"),
        "graph": lambda: complete(5),
        "length": 21,
        "distance": 1,
        "kind": "opposite_lazy_sweep",
    },
)


def load_fixture_walks(names: tuple[str, str], n: int) -> tuple[Walk, Walk]:
    pkg = resources.files("graphspan") / "fixtures"
    f = parse_walk((pkg / names[0]).read_text(encoding="utf-8"), n)
    h = parse_walk((pkg / names[1]).read_text(encoding="utf-8"), n)
    return f, h


def verify_fixture_pair(fix: dict) -> list[str]:
    """Return a list of problems with one shipped walk pair (empty if valid)."""
    g = fix["graph"]()
    f, h = load_fixture_walks(fix["files"], g.n)
    problems = []
    if f.l != fix["length"] or h.l != fix["length"]:
        problems.append(f"lengths {f.l}/{h.l}, expected {fix['length']}")
    cf, ch = classify(g, f), classify(g, h)
    if fix["kind"] == "sweep":
        if not (cf.is_sweep and ch.is_sweep):
            problems.append("walks are not sweeps")
    else:
        if not (cf.is_lazy_sweep and ch.is_lazy_sweep):
            problems.append("walks are not lazy sweeps")
    if fix["kind"] == "opposite_lazy_sweep" and not is_opposite_lazy(g, f, h):
        problems.append("pair is not opposite lazy")
    d = pair_distance(g, f, h)
    if d != fix["distance"]:
        problems.append(f"pair distance {d}, expected {fix['distance']}")
    return problems


def _cmd_verify_fixtures(args) -> tuple[int, dict, list[str]]:
    lines = []
    checks = []
    for fix in _FIXTURES:
        problems = verify_fixture_pair(fix)
        status = "FAIL" if problems else "PASS"
        lines += [f"{fix['name']}: {status}", *(f"  {p}" for p in problems)]
        checks.append({"name": fix["name"], "status": status, "problems": problems})
    return _verdict(checks, lines)


def _cmd_search_gap(args) -> tuple[int, dict, list[str]]:
    hit = find_minimal_direct_gap()
    sv = span(hit, Rule.ACTIVE, Target.VERTICES).value
    se = span(hit, Rule.ACTIVE, Target.EDGES).value
    lines = [
        "first graph with direct vertex span != direct edge span:",
        f"order {hit.n}, size {hit.m} (the once-subdivided K4)",
        f"edges: {' '.join(f'{u}-{v}' for u, v in hit.edges)}",
        f"direct vertex span {sv}, direct edge span {se}",
    ]
    doc = {
        "graph": {"order": hit.n, "size": hit.m, "edges": [list(e) for e in hit.edges]},
        "direct_vertex_span": sv,
        "direct_edge_span": se,
    }
    return 0, doc, lines


# ---------------------------------------------------------------------------


def _budget(text: str) -> int:
    try:
        return _digits(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget must be a non-negative integer, got {text!r}"
        ) from None


# each option group: its options' flags and add_argument keywords; the
# input group is one required choice of a family or a file
_GROUPS = {
    "input": {
        "--family": dict(help="family spec, e.g. kn_plus:5 or complete_bipartite:2,3"),
        "--file": dict(help="path to an edge-list or graph6 file"),
    },
    "variant": {
        "--rule": dict(choices=[*(r.product_name for r in RULES), "all"], default="all"),
        "--target": dict(choices=["vertices", "edges", "both"], default="both"),
    },
    "mode": {"--mode": dict(choices=["closed", "free"], default="free")},
    "budget": {"--budget": dict(
        type=_budget, default=DEFAULT_STATE_BUDGET,
        help="cap on the states the minimal-length search stores (default 2**20)")},
    "format": {"--format": dict(choices=["text", "structured"], default="text")},
}

# each subcommand, in the order --help lists them: its help, its handler and
# its option groups, in the order its --help lists their options; main runs
# the handler of the parsed command
_COMMANDS = {
    "span": ("compute span values", _cmd_span, ("input", "variant", "format")),
    "minlen": ("compute minimal walk lengths", _cmd_minlen, ("input", "variant", "format", "budget")),
    "witness": ("emit witness walk pairs", _cmd_witness, ("input", "variant", "format")),
    "postman": ("shortest covering walk", _cmd_postman, ("input", "mode", "format")),
    "verify-family": ("cross-check closed forms against the engines", _cmd_verify_family,
                      ("budget", "format")),
    "verify-fixtures": ("validate the shipped walk-table fixtures", _cmd_verify_fixtures,
                        ("format",)),
    "search-gap": ("scan for the smallest direct-span gap graph", _cmd_search_gap, ("format",)),
}


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the graphspan command line."""
    parser = argparse.ArgumentParser(
        prog="graphspan",
        description="Safety-distance spans, witness walks, and minimal walk lengths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, groups) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for group in groups:
            into = p.add_mutually_exclusive_group(required=True) if group == "input" else p
            for flag, options in _GROUPS[group].items():
                into.add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import: importers that never
    # parse a command line do not pay for it
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command, print its report and return its exit status.

    The command's handler returns ``(status, doc, lines)``. ``main`` prints
    ``doc`` as JSON, with ``schema`` and ``command`` added, under
    ``--format structured``, and ``lines`` otherwise. An error raised while
    the handler runs or the report prints is reported on stderr instead,
    with its exit status.

    ``main`` may be called repeatedly in one process. The first call builds
    the argument parser; later calls only read it. ``build_parser()``
    returns a fresh parser instead. A usage error raises ``SystemExit(2)``,
    as argparse does.
    """
    args = _parser().parse_args(argv)
    try:
        status, doc, lines = _COMMANDS[args.command][1](args)
        if args.format == "structured":
            doc = {"schema": SCHEMA, "command": args.command, **doc}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return status
    except VerificationFailure as exc:
        print(f"verification failed ({args.command}): {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error ({args.command}): {exc}", file=sys.stderr)
        return 3
    except (GraphSpanError, OSError) as exc:
        print(f"input error ({args.command}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
