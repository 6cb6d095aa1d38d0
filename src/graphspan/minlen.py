"""Minimal walk lengths achieving the span value.

The minimum is found by breadth-first search over (ordered vertex pair,
coverage bitset, coverage bitset) states, run as iterative deepening on the
candidate length with an admissible remaining-coverage bound pruning states
that cannot finish in time. Any pair whose distance never drops below the
span value attains it exactly (the span is the maximum), so the search
filters on distance >= span throughout.

The search starts from one vertex pair per orbit of Aut(G) x player swap,
not from every pair at distance >= span. The rules, the distance filter and
the coverage goal are invariant under automorphisms and under swapping the
players, so the minimum from a pair equals the minimum from its orbit's
representative, and the lengths stay exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .errors import InternalError
from .graph import Graph
from .spans import Rule, Target, _moves, span, witness_sweeps
from .walks import Walk

DEFAULT_STATE_BUDGET = 1 << 27


@dataclass(frozen=True)
class MinLenReport:
    """Minimal length of the variant at its span value.

    ``explored_states`` counts the states stored by every iterative-deepening
    pass, each seeded with the orbit-representative start pairs only.
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
    rev: list[list[tuple[int, int]]] = [[] for _ in range(n * n)]

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
            pos = u * n + v
            for x, y in _moves(g, rule, u, v):
                if dist[x][y] < sigma:
                    continue
                add = (addbit(u, x) << width) | addbit(v, y)
                npos = x * n + y
                fwd[pos].append((npos << cov_bits, add))
                rev[npos].append((pos, add))
    return fwd, rev


def _maps_by_automorphism(g: Graph, sig, a: int, b: int, x: int, y: int) -> bool:
    """Does some automorphism of g send a to x and b to y?

    Exact backtracking over partial maps that preserve every distance; a
    permutation preserving ``g.dist`` preserves adjacency, so a complete map
    is an automorphism. ``sig[v]`` is v's sorted distance row, which every
    automorphism preserves.
    """
    dist = g.dist
    if sig[a] != sig[x] or sig[b] != sig[y] or dist[a][b] != dist[x][y]:
        return False
    mapped = [(a, x), (b, y)]
    used = {x, y}
    rest = [v for v in range(g.n) if v != a and v != b]

    def extend(i: int) -> bool:
        if i == len(rest):
            return True
        v = rest[i]
        for w in range(g.n):
            if w in used or sig[w] != sig[v]:
                continue
            if all(dist[v][p] == dist[w][q] for p, q in mapped):
                mapped.append((v, w))
                used.add(w)
                if extend(i + 1):
                    return True
                mapped.pop()
                used.discard(w)
        return False

    return extend(0)


def _start_pairs(g: Graph, sigma: int) -> list[tuple[int, int]]:
    """One ordered pair at distance >= sigma per orbit of Aut(g) x player swap.

    Pairs are scanned in u*n + v order and kept unless a kept pair maps to
    them or to their swap, so each orbit is represented by its lowest index.
    Swapping maps the state (u, v, F, G) to (v, u, G, F).
    """
    n = g.n
    sig = [sorted(row) for row in g.dist]
    reps: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(n):
            if g.dist[u][v] < sigma:
                continue
            if not any(
                _maps_by_automorphism(g, sig, a, b, u, v)
                or _maps_by_automorphism(g, sig, a, b, v, u)
                for a, b in reps
            ):
                reps.append((u, v))
    return reps


def _start_states(g: Graph, target: Target, sigma: int, width: int) -> list[int]:
    n = g.n
    cov_bits = 2 * width
    starts = []
    for u, v in _start_pairs(g, sigma):
        if target is Target.VERTICES:
            cov = (1 << u << width) | (1 << v)
        else:
            cov = 0
        starts.append(((u * n + v) << cov_bits) | cov)
    return starts


def _search_exact_length(
    l: int,
    starts: list[int],
    fwd,
    index_space: int,
    width: int,
    full_each: int,
    lazy: bool,
):
    """Level BFS for a covering pair of exactly l entries.

    Returns (goal_state, depth_array, explored) on success or
    (None, None, explored). A successor is dropped when the bound on steps
    still needed (per-player maximum, or the sum under the lazy rule)
    exceeds the steps left, which never discards a completable path.
    """
    cov_bits = 2 * width
    cov_mask = (1 << cov_bits) - 1
    full_cov = (full_each << width) | full_each
    size_each = full_each.bit_count()
    depth = array("H", bytes(2 * index_space))
    explored = 0

    frontier: list[int] = []
    for s in starts:
        if depth[s]:
            continue
        depth[s] = 1
        explored += 1
        if s & cov_mask == full_cov:
            return s, depth, explored
        frontier.append(s)

    for t in range(l - 1):
        budget = l - 2 - t  # steps remaining after taking this one
        nxt: list[int] = []
        for s in frontier:
            cov = s & cov_mask
            for npb, add in fwd[s >> cov_bits]:
                ns = npb | cov | add
                if depth[ns]:
                    continue
                depth[ns] = t + 2
                explored += 1
                ncov = ns & cov_mask
                if ncov == full_cov:
                    return ns, depth, explored
                hf = size_each - (ncov >> width).bit_count()
                hg = size_each - (ncov & full_each).bit_count()
                need = hf + hg if lazy else (hf if hf > hg else hg)
                if need <= budget:
                    nxt.append(ns)
        if not nxt:
            break
        frontier = nxt
    return None, depth, explored


def _backtrack(goal: int, depth, rev, width: int, n: int) -> tuple[Walk, Walk]:
    cov_bits = 2 * width
    cov_mask = (1 << cov_bits) - 1
    states = [goal]
    cur = goal
    while depth[cur] > 1:
        t = depth[cur]
        cov = cur & cov_mask
        fc, gc = cov >> width, cov & ((1 << width) - 1)
        found = None
        for pos, add in rev[cur >> cov_bits]:
            fa, ga = add >> width, add & ((1 << width) - 1)
            if add & cov != add:
                continue
            for pfc in ({fc, fc ^ fa} if fa else {fc}):
                for pgc in ({gc, gc ^ ga} if ga else {gc}):
                    p = (pos << cov_bits) | (pfc << width) | pgc
                    if depth[p] == t - 1:
                        found = p
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise InternalError("backtrack lost the BFS trail")
        states.append(found)
        cur = found
    states.reverse()
    fseq = tuple((s >> cov_bits) // n for s in states)
    gseq = tuple((s >> cov_bits) % n for s in states)
    return Walk(fseq), Walk(gseq)


def min_length(
    g: Graph,
    rule: Rule,
    target: Target,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> MinLenReport:
    """Exact minimum number of entries of a covering pair at the span value.

    When the state space would exceed ``state_budget`` stored states the
    report carries ``capped=True`` and ``length`` is only the best proven
    lower bound, never an unproven exact claim.
    """
    sigma = span(g, rule, target).value
    width = g.n if target is Target.VERTICES else g.m
    full_each = (1 << width) - 1
    lb = length_lower_bounds(g, rule, target)
    index_space = g.n * g.n << (2 * width)

    if index_space > state_budget:
        return MinLenReport(
            rule=rule,
            target=target,
            span_value=sigma,
            length=lb,
            witness=None,
            explored_states=0,
            capped=True,
        )

    wf, wg = witness_sweeps(g, rule, target)
    ub = wf.l  # the witness pair is valid, so the minimum is at most its length
    fwd, rev = _transition_tables(g, rule, target, sigma, width)
    starts = _start_states(g, target, sigma, width)
    lazy = rule is Rule.LAZY

    explored_total = 0
    for l in range(lb, ub + 1):
        goal, depth, explored = _search_exact_length(
            l, starts, fwd, index_space, width, full_each, lazy
        )
        explored_total += explored
        if goal is not None:
            f, h = _backtrack(goal, depth, rev, width, g.n)
            if f.l != l:
                raise InternalError("iterative deepening returned a non-minimal pair")
            return MinLenReport(
                rule=rule,
                target=target,
                span_value=sigma,
                length=l,
                witness=(f, h),
                explored_states=explored_total,
                capped=False,
            )
    raise InternalError("witness length must be attainable")
