"""Minimal walk lengths achieving the span value.

The minimum is found by one best-first (A*) search over (ordered vertex
pair, coverage bitset, coverage bitset) states. States wait in a bucket queue
keyed by the entries so far plus an admissible bound on the steps still
needed: the larger count of targets a player has yet to cover, or the sum of
both counts under the lazy rule, where only one player moves per step. The
bound drops by at most one per step, so the first fully covered state popped
ends a shortest pair, and its parent chain is the witness. Any pair whose
distance never drops below the span value attains it exactly (the span is
the maximum), so the search filters on distance >= span throughout.

The search starts from one vertex pair per orbit of Aut(G) x player swap,
not from every pair at distance >= span. The rules, the distance filter and
the coverage goal are invariant under automorphisms and under swapping the
players, so the minimum from a pair equals the minimum from its orbit's
representative, and the lengths stay exact.

One canonical search gives generators of Aut(G) for the orbits and the
canonical relabeling of the graph, on which the search runs before mapping the
witness back: the order in which it takes ties, and with it the states it
stores, its time and its memory, are then the same for every labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalError
from .families import _canonical_search
from .graph import Graph
from .spans import Rule, Target, _moves, span
from .walks import Walk

DEFAULT_STATE_BUDGET = 1 << 27


@dataclass(frozen=True)
class MinLenReport:
    """Minimal length of the variant at its span value.

    ``explored_states`` counts the states stored by the one search, seeded
    with the orbit-representative start pairs only.
    ``capped`` marks a search over ``state_budget``: ``length`` is then only
    the combinatorial lower bound and ``witness`` is None.
    """

    rule: Rule
    target: Target
    span_value: int
    length: int
    witness: Optional[tuple[Walk, Walk]]
    explored_states: int
    capped: bool


def length_lower_bounds(g: Graph, rule: Rule, target: Target) -> int:
    """Combinatorial floor on the walk length for the variant.

    Both walks must hold n distinct entries (vertex target) or m+1 entries
    (edge target); under the lazy rule only one player advances per step, so
    the floors double to 2n-1 and 2m+1.
    """
    if target is Target.VERTICES:
        return 2 * g.n - 1 if rule is Rule.LAZY else g.n
    return 2 * g.m + 1 if rule is Rule.LAZY else g.m + 1


def _transition_tables(g: Graph, rule: Rule, target: Target, sigma: int, width: int):
    """Per-position successor lists of (encoded next base, coverage add bits).

    Position encoding is u*n + v; a full search state is
    (pos << 2*width) | (f_cov << width) | g_cov.
    """
    n = g.n
    dist = g.dist
    cov_bits = 2 * width
    fwd: list[list[tuple[int, int]]] = [[] for _ in range(n * n)]

    def addbit(a: int, b: int) -> int:
        if a == b:
            return 0
        if target is Target.VERTICES:
            return 1 << b
        return 1 << g.edge_index(a, b)

    for u in range(n):
        for v in range(n):
            if dist[u][v] < sigma:
                continue
            for x, y in _moves(g, rule, u, v):
                if dist[x][y] < sigma:
                    continue
                add = (addbit(u, x) << width) | addbit(v, y)
                fwd[u * n + v].append(((x * n + y) << cov_bits, add))
    return fwd


def _start_pairs(g: Graph, sigma: int, gens: list[list[int]]) -> list[tuple[int, int]]:
    """One ordered pair at distance >= sigma per orbit of Aut(g) x player swap.

    ``gens`` generate Aut(g). Pairs are scanned in u*n + v order, and each
    one not yet reached starts an orbit, closed under the generators and the
    swap, so each orbit is represented by its lowest pair. Swapping maps the
    state (u, v, F, G) to (v, u, G, F).
    """
    reps: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u in range(g.n):
        for v in range(g.n):
            if g.dist[u][v] < sigma or (u, v) in seen:
                continue
            reps.append((u, v))
            seen.add((u, v))
            orbit = [(u, v)]
            for a, b in orbit:  # grows while it is walked
                for pair in [(b, a)] + [(t[a], t[b]) for t in gens]:
                    if pair not in seen:
                        seen.add(pair)
                        orbit.append(pair)
    return reps


def _start_states(g: Graph, target: Target, sigma: int, width: int, gens: list[list[int]]) -> list[int]:
    starts = []
    for u, v in _start_pairs(g, sigma, gens):
        cov = (1 << u << width) | (1 << v) if target is Target.VERTICES else 0
        starts.append(((u * g.n + v) << 2 * width) | cov)
    return starts


def _best_first(starts: list[int], fwd, width: int, lazy: bool):
    """Best-first search for a shortest covering pair.

    Bucket f holds the states whose entries so far plus bound equal f,
    popped LIFO. f never falls along a path, as the bound drops by at most
    one per step, so the first full state popped ends a shortest pair.
    Returns that state and the parent map, which holds every stored state.
    """
    cov_bits = 2 * width
    cov_mask = (1 << cov_bits) - 1
    full_each = (1 << width) - 1
    full_cov = (full_each << width) | full_each

    def bound(cov: int) -> int:
        hf = width - (cov >> width).bit_count()
        hg = width - (cov & full_each).bit_count()
        return hf + hg if lazy else (hf if hf > hg else hg)

    depth = dict.fromkeys(starts, 1)
    parent: dict[int, Optional[int]] = dict.fromkeys(starts)
    buckets: list[list[int]] = []
    for s in reversed(starts):  # LIFO: the lowest start pops first
        f = 1 + bound(s & cov_mask)
        while len(buckets) <= f:
            buckets.append([])
        buckets[f].append(s)

    f = 0
    while f < len(buckets):
        bucket = buckets[f]
        while bucket:
            s = bucket.pop()
            cov = s & cov_mask
            d = depth[s]
            if d + bound(cov) != f:
                continue  # stale: s was reached again by a shorter prefix
            if cov == full_cov:
                return s, parent
            nd = d + 1
            for npb, add in fwd[s >> cov_bits]:
                ns = npb | cov | add
                if depth.get(ns, nd + 1) <= nd:
                    continue
                depth[ns] = nd
                parent[ns] = s
                nf = nd + bound(cov | add)
                while len(buckets) <= nf:
                    buckets.append([])
                buckets[nf].append(ns)
        f += 1
    raise InternalError("best-first search ran out of states before covering")


def min_length(
    g: Graph,
    rule: Rule,
    target: Target,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> MinLenReport:
    """Exact minimum number of entries of a covering pair at the span value.

    The budget bounds the index space n^2 * 4^w of the search (w targets per
    player), which also bounds the states it can store. When the index space
    exceeds ``state_budget`` the report carries ``capped=True`` and
    ``length`` is only the combinatorial lower bound, never an unproven
    exact claim.
    """
    sigma = span(g, rule, target).value
    width = g.n if target is Target.VERTICES else g.m
    if g.n * g.n << (2 * width) > state_budget:
        return MinLenReport(
            rule=rule,
            target=target,
            span_value=sigma,
            length=length_lower_bounds(g, rule, target),
            witness=None,
            explored_states=0,
            capped=True,
        )

    # search the canonical copy, so that the order of the search, and with it
    # the states stored and the witness, do not depend on the input's labels
    label, gens = _canonical_search(g)
    vertex = sorted(range(g.n), key=label.__getitem__)
    c = Graph(g.n, [(label[u], label[v]) for u, v in g.edges])
    c_gens = [[label[t[v]] for v in vertex] for t in gens]
    goal, parent = _best_first(
        _start_states(c, target, sigma, width, c_gens),
        _transition_tables(c, rule, target, sigma, width),
        width,
        rule is Rule.LAZY,
    )
    positions = []
    while goal is not None:
        positions.append(goal >> (2 * width))
        goal = parent[goal]
    positions.reverse()
    f = Walk(tuple(vertex[p // g.n] for p in positions))
    h = Walk(tuple(vertex[p % g.n] for p in positions))
    return MinLenReport(
        rule=rule,
        target=target,
        span_value=sigma,
        length=f.l,
        witness=(f, h),
        explored_states=len(parent),
        capped=False,
    )
