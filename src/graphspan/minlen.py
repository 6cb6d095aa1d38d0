"""Minimal walk lengths achieving the span value.

The minimum is found by one best-first (A*) search over (ordered vertex
pair, coverage bitset, coverage bitset) states. States wait in a bucket queue
keyed by the entries so far plus an admissible bound on the steps still
needed. Each player's part is a metric lower bound on the steps a lone
walker at p needs for its uncovered targets U (``_remaining_bound``):
MST(U) + d(p, U) for the vertex target, the spanning tree weight of U in the
graph metric plus the distance to it; |U| plus the cheapest pairing of
odd(U) ^ {p} that leaves one vertex out for the edge target, the route
inspection relaxation of Edmonds and Johnson, since the repeated crossings
of a walk from p to its end e have odd degree exactly at odd(U) ^ {p} ^ {e}.
The bound takes the larger of the two players' values, or their sum under
the lazy rule, where only one player moves per step.

Each part drops by at most one per step. A vertex step off U moves d(p, U)
by at most one; a step onto x in U comes from distance 1 and leaves at least
MST(U), as MST(U) <= MST(U - x) + d(x, U - x). An edge step across an edge
of U lowers |U| by one and leaves odd(U) ^ {p} unchanged; any other step
moves p by one edge, and that edge added to an optimal set of repeats after
the step gives one before it. So the bound is consistent: the first fully
covered state popped ends a shortest pair, and its parent chain is the
witness. Any pair whose distance never drops below the span value attains
it exactly (the span is the maximum), so the search filters on distance >=
span throughout.

The budget counts the states the search stores. It is checked once per pop,
and a search past it stops with the combinatorial floor as a capped report,
so a capped search holds about ``state_budget`` states at most.

The search starts from one vertex pair per orbit of Aut(G) x player swap,
not from every pair at distance >= span. The rules, the distance filter and
the coverage goal are invariant under automorphisms and under swapping the
players, so the minimum from a pair equals the minimum from its orbit's
representative, and the lengths stay exact.

One canonical search gives generators of Aut(G) for the orbits and the
canonical relabeling of the graph, on which the search runs before mapping the
witness back: the order in which it takes ties, and with it the states it
stores, its time and its memory, are then the same for every labeling. The
relabeled copy, its coverage tables (``spans._cover``, the bits a start or a
move adds) and its bound rows are built once per graph and kept on it, so
the six searches of one graph share them; a search that leaves more than
``KEPT_BOUND_ROWS`` rows empties its table, so what a graph keeps stays
bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from .errors import InternalError
from .families import SEARCH_ORDER_LIMIT, _canonical_answers
from .graph import Graph
from .spans import Rule, Target, _check_variant, _cover, _moves, span
from .walks import Walk

DEFAULT_STATE_BUDGET = 1 << 20  # stored states, about 125 bytes each
# Bound rows a graph keeps per target after a search, about 110 bytes each;
# a search that leaves more empties the table. The graphs of order <= 6 keep
# at most 1,794 (edges) and 54 (vertices); the K7 lazy/edges search builds
# 25,219.
KEPT_BOUND_ROWS = 1 << 12


@dataclass(frozen=True)
class MinLenReport:
    """Minimal length of the variant at its span value.

    ``explored_states`` counts the states stored by the one search, seeded
    with the orbit-representative start pairs only.
    ``capped`` marks a search that stored more than ``state_budget`` states
    before it ended: ``length`` is then only the combinatorial lower bound,
    ``witness`` is None and ``explored_states`` is the count at the stop.
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
    _check_variant(rule, target)
    if target is Target.VERTICES:
        return 2 * g.n - 1 if rule is Rule.LAZY else g.n
    return 2 * g.m + 1 if rule is Rule.LAZY else g.m + 1


def _transition_tables(g: Graph, rule: Rule, target: Target, sigma: int):
    """succ(pos): the successor list of position pos = u*n + v, as tuples
    (encoded next base, coverage add bits, next f vertex, next g vertex).

    Each list is built from ``_moves`` the first time the search expands its
    position and kept for later expansions; positions the search never
    expands cost nothing. A full search state is
    (pos << 2*width) | (f_cov << width) | g_cov. The add bits come from
    ``_cover``; for the vertex target a stay adds the player's own vertex,
    which is already in its coverage word, so no state changes by it.
    """
    n = g.n
    dist = g.dist
    width, bit = _cover(g, target)
    cov_bits = 2 * width
    lists: list[Optional[list[tuple[int, int, int, int]]]] = [None] * (n * n)

    def succ(pos: int) -> list[tuple[int, int, int, int]]:
        out = lists[pos]
        if out is None:
            u, v = divmod(pos, n)
            fu, gv = bit[u], bit[v]
            out = lists[pos] = [
                ((x * n + y) << cov_bits, fu[x] << width | gv[y], x, y)
                for x, y in _moves(g, rule, u, v)
                if dist[x][y] >= sigma
            ]
        return out

    return succ


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


def _min_pairing(dist) -> Callable[[int], int]:
    """cost(mask << 2 | spare): the minimum total distance of a pairing of
    the vertices whose bits are set in mask (bit v is vertex v) that leaves
    at most spare of them unpaired; the popcount of mask must have the
    parity of spare.

    Exact recursion over subsets, computed on demand: cost(key) takes the
    lowest member and, while spare allows, leaves it unpaired, or pairs it
    with each other member, plus the cost of the rest. Only the keys
    reachable from the queried ones are computed, each once. The cost of a
    pair is the shortest-path distance.

    This stays beside ``postman._min_perfect_matching``, which pairs the odd
    vertices of a covering walk, because the edge-target bound asks for
    many small overlapping masks of one graph, and the recursion shares its
    sub-masks between them. Answering the nine minlen-small graphs of the
    benchmark with the matching instead, one call per mask and a cache per
    mask, made 305 matching calls and took the pass from about 0.031 to
    0.041 s (2 cores, Python 3.11); the recursion computes 233 keys in
    about 0.001 s of it. The matching has no bound on the number of
    vertices, while the keys grow as Fibonacci(k + 1), so the recursion
    serves only the small graphs that ``min_length`` searches.
    """

    @cache
    def cost(key: int) -> int:
        mask, spare = key >> 2, key & 3
        if not mask:
            return 0
        low = mask & -mask
        rest = mask ^ low
        row = dist[low.bit_length() - 1]
        best = cost(rest << 2 | spare - 1) if spare else -1
        sub = rest
        while sub:
            bit = sub & -sub
            cand = cost((rest ^ bit) << 2 | spare) + row[bit.bit_length() - 1]
            if best < 0 or cand < best:
                best = cand
            sub ^= bit
        return best

    return cost


def _bound_rows(c: Graph, target: Target) -> dict[int, bytes]:
    """The rows of ``_remaining_bound`` kept on c, keyed by coverage word."""
    return c._memoized(("bound rows", target), dict)


def _remaining_bound(c: Graph, target: Target) -> Callable[[int, int], int]:
    """rest(cov, p): a lower bound on the steps a lone player at p still
    needs to cover the targets whose bits are clear in the coverage word cov.

    Vertex target, with U the uncovered vertices: MST(U) + d(p, U), the
    minimum spanning tree weight of U in the graph metric plus the distance
    from p to U. By Kruskal over thresholds, MST(U) is the sum over t >= 0
    of c_t(U) - 1, where c_t(U) counts the classes of U linked by distances
    up to t; each class is flood-filled over the masks near[t][v] of the
    vertices within distance t of v, and d(p, U) is the least t with
    near[t][p] meeting U.

    Edge target: |U| + min over v of PM(odd(U) ^ {p} - v), where odd(U)
    holds the vertices of odd degree in U and PM is the least total
    distance of a pairing: the extra crossings of a walk from p to its end
    e join the vertices of odd(U) ^ {p} ^ {e} in pairs. The minimum over v
    is ``_min_pairing`` asked with one spare end.

    Both bounds drop by at most one per step (the module docstring gives
    the argument), so the search stays exact. The rows depend on the graph
    and the target only, so they are kept on the graph (``_bound_rows``)
    and shared by every rule and span value, as is rest with the distance
    masks and the pairing costs it reads them from. Each row is
    computed once, on first use, and stored as n bytes (every value fits in
    a byte up to order 14) in a dict keyed by the coverage words met, for
    both targets. ``_shortest_pair`` empties a table that has grown past
    ``KEPT_BOUND_ROWS`` once its search ends.
    """

    def build() -> Callable[[int, int], int]:
        n = c.n
        if target is Target.VERTICES:
            near = [
                [sum(1 << v for v in range(n) if row[v] <= t) for row in c.dist]
                for t in range(c.diameter + 1)
            ]

            def row_of(left: int) -> bytes:
                if not left:
                    return bytes(n)
                tree = left.bit_count() - 1  # c_0(U) - 1: no two targets linked
                for within in near[1:]:
                    classes = 0
                    unlinked = left
                    while unlinked:
                        grown = frontier = unlinked & -unlinked
                        while frontier:
                            reach = 0
                            while frontier:
                                bit = frontier & -frontier
                                reach |= within[bit.bit_length() - 1]
                                frontier ^= bit
                            frontier = reach & unlinked & ~grown
                            grown |= frontier
                        unlinked &= ~grown
                        classes += 1
                    if classes == 1:
                        break
                    tree += classes - 1
                out = []
                for p in range(n):
                    t = 0
                    while not near[t][p] & left:
                        t += 1
                    out.append(tree + t)
                return bytes(out)
        else:
            ends = [1 << u | 1 << v for u, v in c.edges]
            cost = _min_pairing(c.dist)

            def row_of(left: int) -> bytes:
                odd = 0
                todo = left
                while todo:
                    bit = todo & -todo
                    odd ^= ends[bit.bit_length() - 1]
                    todo ^= bit
                k = left.bit_count()
                return bytes(k + cost((odd ^ 1 << p) << 2 | 1) for p in range(n))

        rows = _bound_rows(c, target)
        full = (1 << _cover(c, target)[0]) - 1

        def rest(cov: int, p: int) -> int:
            try:
                return rows[cov][p]
            except KeyError:
                return rows.setdefault(cov, row_of(full ^ cov))[p]

        return rest

    return c._memoized(("bound", target), build)


def _best_first(
    starts: list[int],
    succ,
    n: int,
    width: int,
    lazy: bool,
    rest: Callable[[int, int], int],
    budget: int,
):
    """Best-first search for a shortest covering pair.

    Bucket f holds the states whose entries so far plus bound equal f,
    popped LIFO. f never falls along a path, as the bound drops by at most
    one per step, so the first full state popped ends a shortest pair, and a
    state popped again was reached by a longer prefix. ``succ(pos)`` lists
    the moves from a position, and ``rest(cov, p)`` bounds the steps left to
    one player at p with coverage word cov; the bound of a state is the
    larger of the two players' values, or their sum under the lazy rule.
    Returns that state and the parent map, which holds every stored state,
    or None and the parent map once more than ``budget`` states are stored.
    """
    cov_bits = 2 * width
    full_each = (1 << width) - 1
    full_cov = (full_each << width) | full_each

    def bound(cov: int, x: int, y: int) -> int:
        hf = rest(cov >> width, x)
        hg = rest(cov & full_each, y)
        return hf + hg if lazy else (hf if hf > hg else hg)

    depth = dict.fromkeys(starts, 1)
    parent: dict[int, Optional[int]] = dict.fromkeys(starts)
    buckets: list[list[int]] = []
    for s in reversed(starts):  # LIFO: the lowest start pops first
        f = 1 + bound(s & full_cov, *divmod(s >> cov_bits, n))
        while len(buckets) <= f:
            buckets.append([])
        buckets[f].append(s)

    f = 0
    while f < len(buckets):
        bucket = buckets[f]
        while bucket:
            if len(parent) > budget:
                return None, parent
            s = bucket.pop()
            d = depth[s]
            if not d:
                continue  # stale: s was expanded from a shorter prefix
            cov = s & full_cov
            if cov == full_cov:
                return s, parent
            depth[s] = 0  # expanded at its least depth, as the bound is consistent
            nd = d + 1
            unseen = nd + 1  # the depth a state not stored yet reads as
            for npb, add, x, y in succ(s >> cov_bits):
                ns = npb | cov | add
                if depth.get(ns, unseen) <= nd:
                    continue
                depth[ns] = nd
                parent[ns] = s
                nf = nd + bound(cov | add, x, y)
                try:
                    buckets[nf].append(ns)
                except IndexError:
                    buckets.extend([] for _ in range(nf + 1 - len(buckets)))
                    buckets[nf].append(ns)
        f += 1
    raise InternalError("best-first search ran out of states before covering")


def _canonical_copy(g: Graph) -> tuple[Graph, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The canonical relabeling c of g, the vertex of g behind each vertex
    of c, and generators of Aut(c); built once per graph and kept on it."""

    def compute():
        label, gens, _ = _canonical_answers(g)
        vertex = tuple(sorted(range(g.n), key=label.__getitem__))
        c = Graph(g.n, [(label[u], label[v]) for u, v in g.edges])
        c_gens = tuple(tuple(label[t[v]] for v in vertex) for t in gens)
        return c, vertex, c_gens

    return g._memoized("canonical copy", compute)


def _shortest_pair(g: Graph, rule: Rule, target: Target, sigma: int, budget: int):
    """The witness pair of one best-first search (None once it stores more
    than ``budget`` states) and the number of states it stored."""
    # search the canonical copy, so that the order of the search, and with it
    # the states stored and the witness, do not depend on the input's labels
    c, vertex, c_gens = _canonical_copy(g)
    width, bit = _cover(c, target)
    starts = [
        (u * g.n + v) << 2 * width | bit[u][u] << width | bit[v][v]
        for u, v in _start_pairs(c, sigma, c_gens)
    ]
    goal, parent = _best_first(
        starts,
        _transition_tables(c, rule, target, sigma),
        g.n,
        width,
        rule is Rule.LAZY,
        _remaining_bound(c, target),
        budget,
    )
    rows = _bound_rows(c, target)
    if len(rows) > KEPT_BOUND_ROWS:
        rows.clear()  # what a graph keeps after its searches stays bounded
    if goal is None:
        return None, len(parent)
    positions = []
    while goal is not None:
        positions.append(goal >> (2 * width))
        goal = parent[goal]
    positions.reverse()
    f = Walk(tuple(vertex[p // g.n] for p in positions))
    h = Walk(tuple(vertex[p % g.n] for p in positions))
    return (f, h), len(parent)


def min_length(
    g: Graph,
    rule: Rule,
    target: Target,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> MinLenReport:
    """Exact minimum number of entries of a covering pair at the span value.

    The search bounds the steps left by a consistent metric lower bound per
    player: the spanning tree weight of its uncovered vertices plus the
    distance to them, or its uncovered edges plus the cheapest pairing of
    the odd vertices the walk must still fix (see the module docstring). The
    budget counts stored states: once the search stores more than
    ``state_budget`` of them, the report carries ``capped=True`` and
    ``length`` is only the combinatorial lower bound, never an unproven
    exact claim. Graphs of order above ``SEARCH_ORDER_LIMIT`` are capped
    without a search.
    """
    sigma = span(g, rule, target).value
    witness, explored = None, 0
    if g.n <= SEARCH_ORDER_LIMIT:
        witness, explored = _shortest_pair(g, rule, target, sigma, state_budget)
    return MinLenReport(
        rule=rule,
        target=target,
        span_value=sigma,
        length=length_lower_bounds(g, rule, target) if witness is None else witness[0].l,
        witness=witness,
        explored_states=explored,
        capped=witness is None,
    )
