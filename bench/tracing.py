"""Span tracing of the graphspan layers, installed from outside the package.

Each public function named in ``TRACED`` is replaced, in every graphspan
module namespace that holds a reference to it, by a wrapper that records a
span (name, start, end, parent, item) while a benchmark item is running.
Generator functions get one span per ``next()``. A few wrappers also record
counts taken from arguments or results at the same boundary. Spans stay in
memory until ``dump`` writes them out; ``layer_metrics`` derives the
per-layer numbers from them.

A name that the package no longer defines is reported as absent, and every
metric derived from it is reported as 0 and listed as absent. So are the
counts of a hook whose argument or result no longer has the shape it reads.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from math import comb

# (module, attribute) of every traced function; for a class, its constructor.
TRACED = (
    ("graph", "Graph"),
    ("graph", "parse_edge_list"),
    ("graph", "parse_graph6"),
    ("spans", "span"),
    ("spans", "build_product"),
    ("spans", "witness_sweeps"),
    ("postman", "euler_walk_multigraph"),
    ("postman", "shortest_covering_walk"),
    ("walks", "classify"),
    ("walks", "pair_distance"),
    ("walks", "format_walk"),
    ("minlen", "min_length"),
    ("families", "enumerate_connected"),
    ("families", "canonical_form"),
    ("families", "find_minimal_direct_gap"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name_id, start, end, parent, item, ok]
        self.stack: list[int] = []
        self.item = None  # id of the running benchmark item; spans only while set
        self.item_walls: dict[int, float] = {}  # item id -> its traced wall time
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list | None = None  # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.item, False])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = ok
        self.stack.pop()

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if tracer.item is None:
                    return gen
                if hook:
                    tracer._count(name, hook, args, kwargs, None)
                return _TracedIterator(tracer, name_id, gen)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(idx, ok)
            if hook:
                tracer._count(name, hook, args, kwargs, result)
            return result
        return wrapper

    def _count(self, name: str, hook, args, kwargs, result) -> None:
        """Run a counting hook; if the arguments or result no longer have the
        shape it reads, report its counts as absent instead of failing."""
        try:
            hook(self, args, kwargs, result)
        except (AttributeError, TypeError, ValueError):
            if f"{name} counts" not in self.absent:
                self.absent.append(f"{name} counts")

    def install(self) -> None:
        """Replace every reference to each traced function in the package."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches or ():
            setattr(owner, key, original)

    def _find_patches(self) -> list:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "graphspan" or k.startswith("graphspan."))]
        patches = []
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules.get(f"graphspan.{module_name}"), attr, None)
            if not callable(original):
                self.absent += [name, f"{name} counts"]
                continue
            if isinstance(original, type):
                init = original.__init__
                patches.append((original, "__init__", init, self._wrap(name, init, None)))
                continue
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def inconsistent_items(self) -> list[int]:
        """Items whose layer self times add up to more than their wall time."""
        summed: defaultdict[int, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            summed[s[4]] += own
        return [item for item, total in summed.items() if total > self.item_walls[item] + 1e-6]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


class _TracedIterator:
    def __init__(self, tracer: Tracer, name_id: int, gen):
        self.tracer, self.name_id, self.gen = tracer, name_id, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        idx = tracer._open(self.name_id)
        try:
            value = next(self.gen)
        except StopIteration:
            tracer._close(idx, True)
            raise
        except BaseException:
            tracer._close(idx, False)
            raise
        tracer._close(idx, True)
        tracer.counts["families.graphs_yielded"] += 1
        return value


# ---------------------------------------------------------------------------
# Counts recorded at the boundaries


def _build_product(tracer, args, kwargs, pg):
    tracer.counts["spans.product_states"] += len(pg.states)
    tracer.counts["spans.product_edges"] += len(pg.product_edges)
    tracer.counts["spans.components"] += len(pg.components)


def _euler(tracer, args, kwargs, seq):
    tracer.counts["postman.euler_steps"] += len(seq) - 1


def _covering_walk(tracer, args, kwargs, result):
    g = args[0]
    odd = sum(1 for u in range(g.n) if len(g.adj[u]) % 2)
    tracer.counts["postman.pairing_subsets"] += 2 ** odd


def _format_walk(tracer, args, kwargs, text):
    tracer.counts["walks.format_bytes"] += len(text)


def _min_length(tracer, args, kwargs, rep):
    g, rule, target = args[:3]
    tracer.counts["minlen.explored_states"] += rep.explored_states
    if rep.capped:
        return
    lb = _length_lower_bounds(g, rule, target)
    tracer.counts["minlen.depth_reruns"] += rep.length - lb + 1
    width = g.n if target.value == "vertices" else g.m
    visited = 2 * g.n * g.n * 4 ** width
    tracer.maxima["minlen.visited_bytes_computed"] = max(
        tracer.maxima["minlen.visited_bytes_computed"], visited)


def _enumerate(tracer, args, kwargs, _):
    max_n = kwargs.get("max_n", args[0] if args else None)
    tracer.counts["families.labeled_subsets"] += sum(2 ** comb(n, 2) for n in range(1, max_n + 1))


def _length_lower_bounds(g, rule, target):
    from graphspan.minlen import length_lower_bounds
    return length_lower_bounds(g, rule, target)


_HOOKS = {
    "spans.build_product": _build_product,
    "postman.euler_walk_multigraph": _euler,
    "postman.shortest_covering_walk": _covering_walk,
    "walks.format_walk": _format_walk,
    "minlen.min_length": _min_length,
    "families.enumerate_connected": _enumerate,
}


# ---------------------------------------------------------------------------
# Per-layer metrics

# metric name -> (unit, traced names it needs)
LAYER_METRICS = {
    "graph.build_calls": ("count", ("graph.Graph",)),
    "graph.build_s": ("s", ("graph.Graph",)),
    "graph.parse_s": ("s", ("graph.parse_edge_list", "graph.parse_graph6")),
    "graph.parse_useful_ratio": ("ratio", ("graph.parse_edge_list", "graph.parse_graph6")),
    "spans.span_calls": ("count", ("spans.span",)),
    "spans.build_product_calls": ("count", ("spans.build_product",)),
    "spans.thresholds_per_span": ("ratio", ("spans.span", "spans.build_product")),
    "spans.build_product_s": ("s", ("spans.build_product",)),
    "spans.product_states": ("count", ("spans.build_product", "spans.build_product counts")),
    "spans.product_edges": ("count", ("spans.build_product", "spans.build_product counts")),
    "spans.components": ("count", ("spans.build_product", "spans.build_product counts")),
    "spans.span_self_s": ("s", ("spans.span",)),
    "spans.witness_s": ("s", ("spans.witness_sweeps",)),
    "postman.euler_calls": ("count", ("postman.euler_walk_multigraph",)),
    "postman.euler_s": ("s", ("postman.euler_walk_multigraph",)),
    "postman.euler_steps": ("count", ("postman.euler_walk_multigraph",
                                      "postman.euler_walk_multigraph counts")),
    "postman.cover_self_s": ("s", ("postman.shortest_covering_walk",)),
    "postman.pairing_subsets": ("count", ("postman.shortest_covering_walk",
                                          "postman.shortest_covering_walk counts")),
    "walks.validate_s": ("s", ("walks.classify", "walks.pair_distance")),
    "walks.format_s": ("s", ("walks.format_walk",)),
    "walks.format_bytes": ("bytes", ("walks.format_walk", "walks.format_walk counts")),
    "minlen.calls": ("count", ("minlen.min_length",)),
    "minlen.self_s": ("s", ("minlen.min_length",)),
    "minlen.span_s": ("s", ("minlen.min_length", "spans.span")),
    "minlen.ub_witness_s": ("s", ("minlen.min_length", "spans.witness_sweeps")),
    "minlen.explored_states": ("count", ("minlen.min_length", "minlen.min_length counts")),
    "minlen.depth_reruns": ("count", ("minlen.min_length", "minlen.min_length counts")),
    "minlen.useful_ratio": ("ratio", ("minlen.min_length", "minlen.min_length counts")),
    "minlen.visited_bytes_computed": ("bytes", ("minlen.min_length", "minlen.min_length counts")),
    "families.enumerate_s": ("s", ("families.enumerate_connected",)),
    "families.graphs_yielded": ("count", ("families.enumerate_connected",)),
    "families.labeled_subsets": ("count", ("families.enumerate_connected",
                                           "families.enumerate_connected counts")),
    "families.enumerate_useful_ratio": ("ratio", ("families.enumerate_connected",
                                                  "families.enumerate_connected counts")),
    "families.canonical_s": ("s", ("families.canonical_form",)),
    "families.gap_scan_s": ("s", ("families.find_minimal_direct_gap",)),
    "cli.calls": ("count", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.output_bytes": ("bytes", ("cli.main",)),
    "cli.import_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
    "trace.spans": ("count", ()),
    "trace.inconsistent_items": ("count", ()),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer values per traced pass (maxima are not divided).

    Entries for the ``cli.import_s`` and ``trace.*`` metrics are filled in by
    the caller, which measured them.
    """
    calls: defaultdict[str, int] = defaultdict(int)
    ok: defaultdict[str, int] = defaultdict(int)
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    under_minlen: defaultdict[str, float] = defaultdict(float)
    names = tracer.names
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        name = names[s[0]]
        calls[name] += 1
        ok[name] += s[5]
        total[name] += s[2] - s[1]
        own[name] += self_s
        if s[3] >= 0 and names[tracer.spans[s[3]][0]] == "minlen.min_length":
            under_minlen[name] += s[2] - s[1]
    c = tracer.counts
    parse_calls = calls["graph.parse_edge_list"] + calls["graph.parse_graph6"]
    values = {
        "graph.build_calls": calls["graph.Graph"],
        "graph.build_s": total["graph.Graph"],
        "graph.parse_s": own["graph.parse_edge_list"] + own["graph.parse_graph6"],
        "spans.span_calls": calls["spans.span"],
        "spans.build_product_calls": calls["spans.build_product"],
        "spans.build_product_s": total["spans.build_product"],
        "spans.product_states": c["spans.product_states"],
        "spans.product_edges": c["spans.product_edges"],
        "spans.components": c["spans.components"],
        "spans.span_self_s": own["spans.span"],
        "spans.witness_s": total["spans.witness_sweeps"],
        "postman.euler_calls": calls["postman.euler_walk_multigraph"],
        "postman.euler_s": total["postman.euler_walk_multigraph"],
        "postman.euler_steps": c["postman.euler_steps"],
        "postman.cover_self_s": own["postman.shortest_covering_walk"],
        "postman.pairing_subsets": c["postman.pairing_subsets"],
        "walks.validate_s": total["walks.classify"] + total["walks.pair_distance"],
        "walks.format_s": total["walks.format_walk"],
        "walks.format_bytes": c["walks.format_bytes"],
        "minlen.calls": calls["minlen.min_length"],
        "minlen.self_s": own["minlen.min_length"],
        "minlen.span_s": under_minlen["spans.span"],
        "minlen.ub_witness_s": under_minlen["spans.witness_sweeps"],
        "minlen.explored_states": c["minlen.explored_states"],
        "minlen.depth_reruns": c["minlen.depth_reruns"],
        "families.enumerate_s": total["families.enumerate_connected"],
        "families.graphs_yielded": c["families.graphs_yielded"],
        "families.labeled_subsets": c["families.labeled_subsets"],
        "families.canonical_s": total["families.canonical_form"],
        "families.gap_scan_s": total["families.find_minimal_direct_gap"],
        "cli.calls": calls["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.output_bytes": c["cli.output_bytes"],
    }
    values = {k: v / passes for k, v in values.items()}
    # ratios and maxima do not scale with the number of passes
    parse_ok = ok["graph.parse_edge_list"] + ok["graph.parse_graph6"]
    values["graph.parse_useful_ratio"] = _ratio(parse_ok, parse_calls)
    values["spans.thresholds_per_span"] = _ratio(calls["spans.build_product"], calls["spans.span"])
    values["minlen.useful_ratio"] = _ratio(calls["minlen.min_length"], c["minlen.depth_reruns"])
    values["families.enumerate_useful_ratio"] = _ratio(c["families.graphs_yielded"],
                                                       c["families.labeled_subsets"])
    values["minlen.visited_bytes_computed"] = tracer.maxima["minlen.visited_bytes_computed"]
    return values


def absent_metrics(tracer: Tracer) -> list[str]:
    gone = set(tracer.absent)
    return [m for m, (_, needs) in LAYER_METRICS.items() if gone.intersection(needs)]
