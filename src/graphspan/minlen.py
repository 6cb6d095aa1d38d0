"""Minimal walk lengths achieving the span value.

The minimum is found by one best-first (A*) search, ``_shortest_pair``, over
(ordered vertex pair, coverage bitset, coverage bitset) states. It lists
the moves of a position from ``spans._moves`` the first time it expands the
position, and states wait in a bucket queue keyed by the entries so far
plus an admissible bound on the steps still needed. Each player's part is
a metric lower bound on the steps a lone walker at p needs for its
uncovered targets U, read as ``rows[cov][p]`` from one table per graph and
target that builds a missing row on its first read (``_remaining_bound``).
For the vertex target it is W(p, U), the exact steps that visit U, while
at most four vertices are uncovered, from the subset recursion of Held and
Karp over the rows of the table itself, and otherwise MST(U) + d(p, U), the
spanning tree weight of U in the graph metric plus the distance to it. For
the edge target it is |U| plus the cheapest pairing of odd(U) ^ {p} that
leaves one vertex out, the route inspection relaxation of Edmonds and
Johnson, since the repeated crossings of a walk from p to its end e have
odd degree exactly at odd(U) ^ {p} ^ {e}.
The bound takes the larger of the two players' values, or their sum under
the lazy rule, where only one player moves per step.

Each part drops by at most one per step. A vertex step off U moves d(p, U)
by at most one; a step onto x in U comes from distance 1 and leaves at least
MST(U), as MST(U) <= MST(U - x) + d(x, U - x). W is exact, so W(p, U) <=
1 + W(x, U - x) for a step to x, and MST(U) + d(p, U) <= W(p, U) carries
this across the step from five uncovered vertices to four. An edge step
across an edge of U lowers |U| by one and leaves odd(U) ^ {p} unchanged; any
other step moves p by one edge, and that edge added to an optimal set of
repeats after the step gives one before it. So the bound is consistent: the
first fully covered state popped ends a shortest pair, and its parent chain
is the witness. Any pair whose distance never drops below the span value
attains it exactly (the span is the maximum), so the search filters on
distance >= span throughout.

The budget counts the states the search stores. It is checked once per pop,
and a search past it stops with a capped report, so a capped search holds
about ``state_budget`` states at most. Every state of f below the bucket it
stopped in was expanded without reaching a covered pair, so that f is a
proven lower bound, reported when it beats the combinatorial floor.

The search starts from one vertex pair per orbit of Aut(G) x player swap,
not from every pair at distance >= span. The rules, the distance filter and
the coverage goal are invariant under automorphisms and under swapping the
players, so the minimum from a pair equals the minimum from its orbit's
representative, and the lengths stay exact.

One canonical search gives generators of Aut(G) for the orbits and the
canonical relabeling of the graph, on which the search runs before mapping the
witness back: the order in which it takes ties, and with it the states it
stores, its time and its memory, are then the same for every labeling. The
relabeled copy, its orbit starts, its coverage tables (``spans._cover``, the
bits a start or a move adds) and its bound rows are built once per graph and
kept on it, so the six searches of one graph share them; a search that
leaves more than ``KEPT_BOUND_ROWS`` rows empties its table, so what a graph
keeps stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InternalError
from .families import SEARCH_ORDER_LIMIT, _canonical_answers, _lowest_of_orbits
from .graph import Graph, _check_int
from .spans import Rule, Target, _check_variant, _cover, _moves, span
from .walks import Walk

DEFAULT_STATE_BUDGET = 1 << 20  # stored states, about 125 bytes each
# Bound rows a graph keeps per target after a search, about 110 bytes each;
# a search that leaves more empties the table. The graphs of order <= 6 keep
# at most 1,794 (edges) and 58 (vertices, the sub-rows the exact rows read
# included); the K7 lazy/edges search builds 25,219.
KEPT_BOUND_ROWS = 1 << 12


@dataclass(frozen=True)
class MinLenReport:
    """Minimal length of the variant at its span value.

    ``explored_states`` counts the states stored by the one search, seeded
    with the orbit-representative start pairs only.
    ``capped`` marks a search that stored more than ``state_budget`` states
    before it ended: ``length`` is then only a proven lower bound, the larger
    of ``length_lower_bounds`` and the f of the bucket the search stopped in,
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
    _check_variant(rule, target, g)
    if target is Target.VERTICES:
        return 2 * g.n - 1 if rule is Rule.LAZY else g.n
    return 2 * g.m + 1 if rule is Rule.LAZY else g.m + 1


def _orbit_starts(g: Graph, gens) -> tuple[int, ...]:
    """The flat index u*n + v of the lowest ordered pair of each orbit of
    Aut(g) x player swap, in increasing order.

    ``gens`` generate Aut(g). Each generator and the swap become one list of
    the flat index of each pair's image, and ``_lowest_of_orbits`` closes
    the orbits over them. Swapping maps the state (u, v, F, G) to
    (v, u, G, F). Both keep distances, so the starts of a search at span
    value sigma are the pairs here at distance >= sigma, in this order.
    """
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(n)]
    images = [[v * n + u for u, v in pairs]]
    images += [[t[u] * n + t[v] for u, v in pairs] for t in gens]
    return _lowest_of_orbits(n * n, images)


class _Table(dict):
    """A table whose missing entry is computed on first read as
    ``entry_of(table, key)`` and stored with one ``setdefault``. An entry
    reads other entries only through the table it is given, so the table
    holds no reference back to itself."""

    __slots__ = ("entry_of",)

    def __init__(self, entry_of: Callable[[dict, int], object]):
        super().__init__()
        self.entry_of = entry_of

    def __missing__(self, key: int):
        return self.setdefault(key, self.entry_of(self, key))


def _min_pairing(dist) -> Callable[[int], int]:
    """cost(mask << 2 | spare): the minimum total distance of a pairing of
    the vertices whose bits are set in mask (bit v is vertex v) that leaves
    at most spare of them unpaired; the popcount of mask must have the
    parity of spare.

    Exact recursion over subsets, computed on demand: cost(key) takes the
    lowest member and, while spare allows, leaves it unpaired, or pairs it
    with each other member, plus the cost of the rest. Only the keys
    reachable from the queried ones are computed, each once, and kept in a
    ``_Table``; cost is its lookup. The cost of a pair is the shortest-path
    distance.

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

    def pairing(cost: dict, key: int) -> int:
        mask, spare = key >> 2, key & 3
        if not mask:
            return 0
        low = mask & -mask
        rest = mask ^ low
        row = dist[low.bit_length() - 1]
        best = cost[rest << 2 | spare - 1] if spare else -1
        sub = rest
        while sub:
            bit = sub & -sub
            cand = cost[(rest ^ bit) << 2 | spare] + row[bit.bit_length() - 1]
            if best < 0 or cand < best:
                best = cand
            sub ^= bit
        return best

    return _Table(pairing).__getitem__


# _PLUS[t], as a bytes.translate table, adds t to each byte below 256 - t.
# On a graph the search takes, a tail is at most three steps across it, so
# below 3 * SEARCH_ORDER_LIMIT, and a distance plus a tail stays below 256
_PLUS = [bytes(range(t, 256)) + bytes(t) for t in range(3 * SEARCH_ORDER_LIMIT)]


def _remaining_bound(c: Graph, target: Target) -> _Table:
    """The bound table of c for the target: byte p of ``rows[cov]`` is a
    lower bound on the steps a lone player at p still needs to cover the
    targets whose bits are clear in the coverage word cov. A missing row is
    built on its first read (``_Table``), and ``_shortest_pair`` reads
    ``rows[cov][p]`` inline.

    Vertex target, with U the uncovered vertices: for 1 <= |U| <= 4, W(p, U),
    the exact steps a lone walker at p needs to enter every vertex of U, by
    the subset recursion of Held and Karp: the least d(p, x) + W(x, U - x)
    over x in U, where W(x, U - x) is byte x of the row of cov | 1 << x,
    read through the table, and is added to the distance row of x with one
    ``bytes.translate``. Otherwise MST(U) + d(p, U), the minimum spanning
    tree weight of U in the graph metric plus the distance from p to U. By
    Kruskal over thresholds, MST(U) is the sum over t >= 0 of c_t(U) - 1,
    where c_t(U) counts the classes of U linked by distances up to t; each
    class is flood-filled over the masks near[t][v] of the vertices within
    distance t of v, and d(p, U) is the least t with near[t][p] meeting U.
    Over the vertex searches of the graphs of order <= 6 the exact rows
    store 38,126 states where the spanning tree alone stored 59,003, and
    6,060 rows are built, the sub-rows the recursion reads included. With
    its sub-rows stored, an exact row of order 6 takes about 0.5 (|U| = 1)
    to 3 us (|U| = 4) to build, and a spanning tree row about 2 us; Prim
    over the distance rows took 9 us a row (22 against 5 us at order 14),
    which is why the spanning tree rows flood-fill bitsets. The rows are
    read from the distances as bytes, not from the graph, so the table kept
    on the graph does not refer back to it.

    Edge target: |U| + min over v of PM(odd(U) ^ {p} - v), where odd(U)
    holds the vertices of odd degree in U and PM is the least total
    distance of a pairing: the extra crossings of a walk from p to its end
    e join the vertices of odd(U) ^ {p} ^ {e} in pairs. The minimum over v
    is ``_min_pairing`` asked with one spare end.

    Both bounds drop by at most one per step (the module docstring gives
    the argument), so the search stays exact. The rows depend on the graph
    and the target only, so the table is kept on the graph under
    ``("bound", target)`` and shared by every rule and span value, as are
    the distance masks and the pairing costs the rows are read from. Each
    row is computed once, on first read, and stored as n bytes (every value
    fits in a byte up to order 14) under the coverage word it was read at.
    A row depends on the graph and its word only, so two threads that build
    it at once produce the same bytes, and the table stores it with one
    ``dict.setdefault``: a reader sees either no row or the whole row.
    ``_shortest_pair`` empties a table that has grown past
    ``KEPT_BOUND_ROWS`` once its search ends.
    """

    def build() -> _Table:
        n = c.n
        full = (1 << _cover(c, target)[0]) - 1
        if target is Target.VERTICES:
            rows = [bytes(row) for row in c.dist]
            near = [
                [sum(1 << v for v in range(n) if row[v] <= t) for row in rows]
                for t in range(c.diameter + 1)
            ]

            def row_of(table: dict, cov: int) -> bytes:
                left = full ^ cov
                if not left:
                    return bytes(n)
                k = left.bit_count()
                if k <= 4:
                    tails = []
                    while left:
                        bit = left & -left
                        x = bit.bit_length() - 1
                        tails.append(rows[x].translate(_PLUS[table[cov | bit][x]]))
                        left ^= bit
                    return bytes(map(min, *tails)) if k > 1 else tails[0]
                tree = k - 1  # c_0(U) - 1: no two targets linked
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

            def row_of(table: dict, cov: int) -> bytes:
                odd = 0
                todo = left = full ^ cov
                while todo:
                    bit = todo & -todo
                    odd ^= ends[bit.bit_length() - 1]
                    todo ^= bit
                k = left.bit_count()
                return bytes(k + cost((odd ^ 1 << p) << 2 | 1) for p in range(n))

        return _Table(row_of)

    return c._memoized(("bound", target), build)


def _canonical_copy(g: Graph) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """The canonical relabeling c of g, the vertex of g behind each vertex
    of c, and the orbit starts of c (``_orbit_starts``); built once per
    graph and kept on it under ``"canonical copy"``, so the six searches of
    a graph scan the orbits once."""

    def compute():
        label, gens, _ = _canonical_answers(g)
        vertex = tuple(sorted(range(g.n), key=label.__getitem__))
        c = Graph(g.n, [(label[u], label[v]) for u, v in g.edges])
        c_gens = tuple(tuple(label[t[v]] for v in vertex) for t in gens)
        return c, vertex, _orbit_starts(c, c_gens)

    return g._memoized("canonical copy", compute)


def _shortest_pair(g: Graph, rule: Rule, target: Target, sigma: int, budget: int):
    """The witness pair of one best-first search (None once it stores more
    than ``budget`` states), the number of states it stored, and the length
    it proved: the witness's, or the f of the bucket it stopped in.

    The search runs on the canonical copy, so that the order in which it
    takes ties, and with it the states stored and the witness, does not
    depend on the input's labels. A state is
    (pos << 2*width) | (f_cov << width) | g_cov, with pos = u*n + v. The
    moves of a position are listed from ``_moves``, in its order and at
    distance >= sigma, the first time the search expands the position, as
    (next pos << 2*width, the coverage bits the move adds (``_cover``),
    next f vertex, next g vertex), and kept for later expansions; for the
    vertex target a stay adds the player's own vertex, already in its word.

    Bucket f holds the states whose entries so far plus bound equal f,
    popped LIFO. f never falls along a path, as the bound drops by at most
    one per step, so the first full state popped ends a shortest pair, and a
    state popped again was reached by a longer prefix. A player's bound is
    byte p of its coverage word's row, ``rows[cov][p]``
    (``_remaining_bound``); the bound of a state is the larger of the two
    players' values, or their sum under the lazy rule. The parent map holds
    every stored state, and the budget is checked once per pop.
    """
    c, vertex, orbit_starts = _canonical_copy(g)
    n, dist = c.n, c.dist
    width, bit = _cover(c, target)
    cov_bits = 2 * width
    full_each = (1 << width) - 1
    full_cov = full_each << width | full_each
    lazy = rule is Rule.LAZY
    rows = _remaining_bound(c, target)
    moves: list[Optional[list[tuple[int, int, int, int]]]] = [None] * (n * n)
    depth: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    buckets: list[list[int]] = []
    for pos in reversed(orbit_starts):  # LIFO: the lowest start pops first
        u, v = divmod(pos, n)
        if dist[u][v] >= sigma:
            s = pos << cov_bits | bit[u][u] << width | bit[v][v]
            depth[s], parent[s] = 1, None
            hf, hg = rows[bit[u][u]][u], rows[bit[v][v]][v]
            f = 1 + hf + hg if lazy else 1 + (hf if hf > hg else hg)
            while len(buckets) <= f:
                buckets.append([])
            buckets[f].append(s)

    # a local function, so the search returns from inside both loops; the
    # loop reads the tables above as closure cells, which timed no slower
    # than the locals of a separate function
    def search() -> tuple[Optional[int], int]:
        f = 0
        while f < len(buckets):
            bucket = buckets[f]
            while bucket:
                if len(parent) > budget:
                    return None, f
                s = bucket.pop()
                d = depth[s]
                if not d:
                    continue  # stale: s was expanded from a shorter prefix
                cov = s & full_cov
                if cov == full_cov:
                    return s, f
                depth[s] = 0  # expanded at its least depth, as the bound is consistent
                nd = d + 1
                unseen = nd + 1  # the depth a state not stored yet reads as
                pos = s >> cov_bits
                out = moves[pos]
                if out is None:
                    u, v = divmod(pos, n)
                    fu, gv = bit[u], bit[v]
                    out = moves[pos] = [
                        ((x * n + y) << cov_bits, fu[x] << width | gv[y], x, y)
                        for x, y in _moves(c, rule, u, v)
                        if dist[x][y] >= sigma
                    ]
                for npb, add, x, y in out:
                    ncov = cov | add
                    ns = npb | ncov
                    if depth.get(ns, unseen) <= nd:
                        continue
                    depth[ns] = nd
                    parent[ns] = s
                    hf = rows[ncov >> width][x]
                    hg = rows[ncov & full_each][y]
                    nf = nd + hf + hg if lazy else nd + (hf if hf > hg else hg)
                    try:
                        buckets[nf].append(ns)
                    except IndexError:
                        buckets.extend([] for _ in range(nf + 1 - len(buckets)))
                        buckets[nf].append(ns)
            f += 1
        raise InternalError("best-first search ran out of states before covering")

    goal, stop_f = search()
    if len(rows) > KEPT_BOUND_ROWS:
        rows.clear()  # what a graph keeps after its searches stays bounded
    if goal is None:
        return None, len(parent), stop_f
    positions = []
    while goal is not None:
        positions.append(goal >> cov_bits)
        goal = parent[goal]
    positions.reverse()
    f = Walk(tuple(vertex[p // n] for p in positions))
    h = Walk(tuple(vertex[p % n] for p in positions))
    return (f, h), len(parent), len(positions)


def min_length(
    g: Graph,
    rule: Rule,
    target: Target,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> MinLenReport:
    """Exact minimum number of entries of a covering pair at the span value.

    The search bounds the steps left by a consistent metric lower bound per
    player: the exact steps that visit its last four or fewer uncovered
    vertices, else their spanning tree weight plus the distance to them, or
    its uncovered edges plus the cheapest pairing of the odd vertices the
    walk must still fix (see the module docstring). The
    budget counts stored states: once the search stores more than
    ``state_budget`` of them, the report carries ``capped=True`` and
    ``length`` is only a proven lower bound (see ``MinLenReport``), never an
    unproven exact claim. Graphs of order above ``SEARCH_ORDER_LIMIT`` are capped
    without a search. A budget that is not a non-negative int raises
    InvalidParams, as the CLI's ``--budget`` does.
    """
    _check_int(state_budget, "budget must be a non-negative integer", 0)
    sigma = span(g, rule, target).value
    witness, explored, proven = None, 0, 0
    if g.n <= SEARCH_ORDER_LIMIT:
        witness, explored, proven = _shortest_pair(g, rule, target, sigma, state_budget)
    return MinLenReport(
        rule=rule,
        target=target,
        span_value=sigma,
        length=max(length_lower_bounds(g, rule, target), proven),
        witness=witness,
        explored_states=explored,
        capped=witness is None,
    )
