"""Span computation via distance-thresholded product graphs.

The maximal safety distance for a movement rule and coverage target equals
the largest threshold k at which some connected component of the product
graph on ordered vertex pairs at distance >= k projects onto the full target
set for both players. Within one component, a depth-first walk of a spanning
tree, with an out-and-back detour over each product edge whose base edges the
tree walk misses, has coordinate projections that are valid witness walks,
and conversely a valid walk pair never leaves its component, so the
component test is exact; an independent brute-force oracle over walk pairs
confirms this on all small graphs in the test suite.

The lazy and the active rule each run one union-find pass, adding states in
decreasing distance order, which decides every threshold for both targets
from one coverage word per component, the vertex bits of both players above
their edge bits. The strong product's edges are the Cartesian edges plus the
direct edges, so at every threshold each traditional component is the join
of lazy and active components, and its word the OR of theirs: the
traditional levels read no move, and are joined from the levels of the
other two, read in step (``_joined_levels``). One driver,
``_joined_pass``, records every rule's hits and stops each of the three
structures: it reads the join until the traditional targets are hit, then
each pass on alone while one of its own targets is unhit, so each reads
the levels from the radius down to its rule's lower span value. The three
rules' results are kept on the graph as one entry, so the first span query
of any rule answers every later one on the same graph. The passes take the
states from per-level lists of flat indices, built once per span pass and
shared by the two passes and the join, so each pair enters once; the graph
keeps none of the lists after the pass. At threshold k the active pass
reads a reduced move set, one that ends every level with the components
and coverage of the full move set (see ``_moves``): one half of a spanning
double star of each complete bipartite block of active moves, each star
edge read from one end only.
``_moves`` defines each rule's moves; the lazy and active passes copy its
reads inline from per-vertex step rows (``_steps``), built once per graph,
with no generator and no per-read index or table lookup, and
``tests/test_spans.py::TestReducedMoves::test_inline_reads_follow_moves``
pins the copy. The witness BFS reads the thresholded moves of its rule at
the span value, for the strong rule the lazy moves plus the diagonals whose
two lazy intermediates are both at distance < k: from any pair they reach
its whole component of the full move set and cover what it covers (see
``_moves``). Every rule's BFS reads them inline from the step rows too,
each read with its edge word, and
``TestWitnesses::test_witness_bfs_follows_the_thresholded_moves`` pins
them to ``_moves``. Only the minimal-length search,
``minlen._shortest_pair``, reads each rule's full move set. What a step
covers, a vertex or an edge, has one definition per graph and target,
``_cover``, which the span pass and the minimal-length search read, and the
witness BFS through the step rows alone. There is one witness BFS
(``_component_witness``): it credits each vertex of each player to the
first state that enters it and, for the edge target, each edge to the
first read that covers it. The witness pairs of a rule's two targets are
kept on the graph as one entry; when the targets share a span value and
witness root, only the edge target runs a BFS, as a walk pair that covers
every edge also enters every vertex, and both pairs are built from its
credits (``witness_sweeps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InternalError, InvalidParams, ThresholdOutOfRange
from .graph import Graph, _check_graph, _check_int
from .walks import Walk


# Rule value -> graph-product names; the first is the canonical one.
_PRODUCT_NAMES = {
    "traditional": ("strong",),
    "active": ("direct", "tensor"),
    "lazy": ("cartesian",),
}


class Rule(Enum):
    """Movement rule, named by the matching graph product."""

    TRADITIONAL = "traditional"  # strong product: each player moves or stays
    ACTIVE = "active"            # tensor product: both players move
    LAZY = "lazy"                # Cartesian product: exactly one player moves

    # members are singletons compared by identity, so the identity hash
    # agrees with equality; it spares every memo key holding a rule the
    # Python-level Enum.__hash__
    __hash__ = object.__hash__

    @property
    def product_name(self) -> str:
        return _PRODUCT_NAMES[self.value][0]

    @classmethod
    def from_name(cls, name: str) -> "Rule":
        """Rule by its own name or any of its product names, ignoring case;
        ValueError for any other name, or a name that is not a str."""
        key = name.lower() if isinstance(name, str) else None
        for rule in cls:
            if key == rule.value or key in _PRODUCT_NAMES[rule.value]:
                return rule
        raise ValueError(f"unknown rule {name!r}")


class Target(Enum):
    VERTICES = "vertices"
    EDGES = "edges"

    __hash__ = object.__hash__  # as for Rule


RULES = (Rule.TRADITIONAL, Rule.ACTIVE, Rule.LAZY)
TARGETS = (Target.VERTICES, Target.EDGES)


def _check_variant(rule: Rule, target: Target, *graph: Graph) -> None:
    """Raise InvalidParams for a rule or target that is not a member of its
    enum, then for a graph passed that is not a Graph, before any pass runs
    or any memo entry is stored under it. The closed forms, which take a
    family spec in place of a graph, pass none."""
    if not isinstance(rule, Rule):
        raise InvalidParams(f"rule must be a Rule, got {rule!r}")
    if not isinstance(target, Target):
        raise InvalidParams(f"target must be a Target, got {target!r}")
    for g in graph:
        _check_graph(g)


def _moves(g: Graph, rule: Rule, u: int, v: int, k: int | None = None):
    """Successor pairs of (u, v) under the rule, before threshold filtering.

    Without a threshold k, every move of the rule; only the minimal-length
    search reads it. With one, the moves read at threshold k: by the lazy
    and active span passes, which end every level with the components and
    coverage of the full move set, and by the witness BFS of every rule,
    which follows them from one pair with every pair at distance >= k
    present (the witness claim below). The span passes and the witness BFS
    read copies of these moves inline from the step rows (``_steps``); this
    generator is the definition they copy. ``test_inline_reads_follow_moves``
    checks that the passes union as a pass reading it does, and
    ``test_witness_bfs_follows_the_thresholded_moves`` that each BFS visits
    as a BFS reading it does. The traditional span pass reads no move; it joins
    the lazy and active levels (``_joined_levels``). The lazy move set does
    not depend on k.

    Lazy and strong rules: for each x in N(u), the strong diagonals (x, y),
    then (x, v); after them every (u, y). The minimal-length search breaks
    its ties in this order. At threshold k the strong rule keeps only the
    diagonals with d(x, v) < k and d(u, y) < k, which exist only when
    d(u, v) = k.

    Active rule: let first(a, b) be the lowest neighbour of b at distance
    >= k from a. Every active move (u', v)-(x, y) lies in the block A x B with
    A = {(u', v): u' in N(x)} and B = {(x, y): y in N(v)}, both cut to
    distance >= k, and each block is complete bipartite. From (u, v) the
    pass reads, for each x in N(u), every (x, y) with y in N(v) when
    first(v, x) = u, and otherwise (x, first(x, v)): half of the spanning
    double star a0 x B + A x b0, with a0 = (first(v, x), v) and
    b0 = (x, first(x, v)), each star edge read from its A end only. A move
    is applied when the end that reads it enters after the other one. That
    is enough, by this proof:

    Order (O): pairs enter level by level, and within a level in increasing
    u*n + v, which ``_levels`` keeps. So p enters before q whenever
    level(p) >= level(q) and p's f-vertex is lower.

    Claim: at the end of level k, the two ends of every active move between
    present pairs are in one component, whose word holds the move's f-edge
    and g-edge. Induct down the levels; moves with both ends above k hold
    from the level above. Within level k, take the moves p = (u, v) -
    q = (x, y) with u < x and one end at level k, ordered by x, then type 1
    before type 2, then type 2 by u.

    Type 1, level(q) = k <= level(p): by (O) p entered before q. Toward u,
    q reads its full row, which holds p, or (u, c) with c = first(u, y)
    <= v; by (O) (u, c) entered before q, so q-(u, c) is applied. If
    c != v, let s = (first(y, u), y), whose f-vertex is below x, as q did
    not read its full row. The moves s-(u, c) and s-p have both f-vertices
    below x, so they hold by induction. s-p carries the g-edge vy, and
    q-(u, c) the f-edge ux.

    Type 2, level(p) = k < level(q): q is present when p enters. Toward x,
    p reads its full row, which holds q, or t = (x, y') with
    y' = first(x, v) <= y. If y' != y, let s = (w, v) with
    w = first(v, x) < u, as p did not read its full row. Then p-t is
    applied (t is at a higher level) or is a type-1 move with the same x.
    The moves t-s and s-q have f-vertices x and w < u, so they hold by
    type 1, by the level above or by induction on u. s-q carries vy, and
    p-t carries ux.

    Every move read is a real move, so the components and words equal
    those of the full move set.

    Witness claim: fix k and let S be the pairs at distance >= k. From any
    pair of S, the moves read, cut to S, reach its whole component of the
    full move set and cover the same f-edges and g-edges. Lazy: the move set
    does not depend on k. Strong: the kept diagonals are symmetric, as
    d(x, v) < k and d(u, y) < k read the same from both ends, and a dropped
    diagonal (u, v)-(x, y) has an intermediate, (x, v) or (u, y), in S: a
    two-step lazy path covering the same f-edge ux and g-edge vy.

    Active: in the block of (x, v), the hub a0 = (first(v, x), v) reads all
    of B, and every other pair of A reads the base b0 = (x, first(x, v)).
    Lemma: in every block with A and B nonempty, b0 reaches a0 by reads.
    Let w = first(v, x) and z = first(x, v). Then b0 = (x, z) lies in A of
    the block of (w, z), and a0 = (w, v) in its B. If first(w, z) = v, b0
    reads a0 directly, or reads the full row, which holds a0. Otherwise
    first(w, z) < v, and b0 reads the full row or that block's base. By
    induction on v + first(x, v), which falls from the block of (x, v) to
    that of (w, z), that base reaches that block's hub, which reads all of
    its B, a0 included. So for every real move p = (u, v)-q = (x, y), p
    reads q or p -> b0 ~> a0 -> q, where p -> b0 carries the f-edge ux and
    a0 -> q the g-edge vy; q reaches p the same way in the block of (u, y).
    """
    adj = g.adj
    if rule is Rule.ACTIVE:
        xs, ys = adj[u], adj[v]
        if k is None:
            for x in xs:
                for y in ys:
                    yield x, y
            return
        dist = g.dist
        dv = dist[v]
        for x in xs:
            # first(v, x) exists and is at most u, which qualifies
            for w in adj[x]:
                if dv[w] >= k:
                    break
            if w == u:
                for y in ys:
                    yield x, y
            else:
                dx = dist[x]
                for y in ys:
                    if dx[y] >= k:
                        yield x, y
                        break
    else:
        # both-stay is omitted: it covers nothing and never affects
        # component structure
        dist = g.dist
        ys = adj[v] if rule is Rule.TRADITIONAL else ()
        if ys and k is not None:
            ys = [y for y in ys if dist[u][y] < k]
        for x in adj[u]:
            if ys and (k is None or dist[x][v] < k):
                for y in ys:
                    yield x, y
            yield x, v
        for y in adj[v]:
            yield u, y


def feasible(g: Graph, rule: Rule, target: Target, k: int) -> bool:
    """True iff a covering walk pair at distance >= k exists under the rule.

    A rule or target that is not an enum member, a g that is not a Graph,
    or a threshold that is not an int, raises InvalidParams, checked in
    that order before any work; a threshold outside 0..radius raises
    ThresholdOutOfRange."""
    _check_variant(rule, target, g)
    _check_int(k, "threshold must be an int")
    if not 0 <= k <= g.radius:
        raise ThresholdOutOfRange(f"threshold {k} outside 0..{g.radius}")
    return span(g, rule, target).value >= k


@dataclass(frozen=True)
class SpanReport:
    rule: Rule
    target: Target
    value: int
    witness_component: int


def _cover(g: Graph, target: Target) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(width, bit): the bits per player of the target, and bit[a][b], what a
    player covers when it steps from a to b, or stands at a when b == a.

    Vertex target: 1 << b. Edge target: 1 << (index of edge ab in g.edges),
    0 for a stay. Kept on the graph under ``("cover", target)``, and read by
    the span pass and the minimal-length search; the edge table also by
    ``_steps``, whose rows are all the witness BFS reads of it.
    """

    def compute():
        if target is Target.VERTICES:
            return g.n, (tuple(1 << b for b in range(g.n)),) * g.n
        bit = [[0] * g.n for _ in range(g.n)]
        for i, (a, b) in enumerate(g.edges):
            bit[a][b] = bit[b][a] = 1 << i
        return g.m, tuple(map(tuple, bit))

    return g._memoized(("cover", target), compute)


def _steps(g: Graph) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]:
    """(f_rows, g_rows): the step rows of each vertex u, one entry per
    neighbour x in increasing order, 2m entries per player.

    An f-row entry is (x, (x - u) * n, the f-step's edge word) and a g-row
    entry (x, x - u, the g-step's edge word): the offset a step of that
    player adds to a flat index u*n + v, and its edge bit (``_cover``) in
    the span pass's word, f bits above g bits. Kept on the graph under
    ``"steps"``, and read by the lazy and active span passes and by the
    witness BFS of every rule and target, whose edge credits are these
    words and whose vertex credits need none. The two directions of an
    edge share one f-step word.
    """

    def compute():
        n = g.n
        m, bit = _cover(g, Target.EDGES)
        f_rows: list[list] = [[] for _ in range(n)]
        g_rows: list[list] = [[] for _ in range(n)]
        # the edges are sorted, so each row fills in increasing neighbour
        # order; both directions of an edge share its one f-step word
        for a, b in g.edges:
            word = bit[a][b]
            f_word = word << m
            f_rows[a].append((b, (b - a) * n, f_word))
            f_rows[b].append((a, (a - b) * n, f_word))
            g_rows[a].append((b, b - a, word))
            g_rows[b].append((a, a - b, word))
        return tuple(map(tuple, f_rows)), tuple(map(tuple, g_rows))

    return g._memoized("steps", compute)


def _levels(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Flat indices u*n + v grouped by min(d(u, v), radius), each level in
    increasing order. ``_joined_pass`` builds them for its two passes and
    the join, and nothing keeps them after it."""
    radius = g.radius
    levels: list[list[int]] = [[] for _ in range(radius + 1)]
    # the flat index counted up and one comparison per pair: a min() call
    # and a product per pair took four times as long
    s = 0
    for row in g.dist:
        for d in row:
            levels[d if d < radius else radius].append(s)
            s += 1
    return tuple(map(tuple, levels))


def _union_levels(g: Graph, rule: Rule, levels: tuple[tuple[int, ...], ...]):
    """The union-find pass of the lazy or the active rule, one threshold
    level at a time.

    States enter in decreasing distance order, one level of ``levels``
    (``_levels``) at a time, so each pair enters exactly once, and are
    unioned with the successors already present: the moves ``_moves``
    yields at the level's threshold, which end every level with the
    components and coverage of the full move set. The pass reads them
    inline from the step rows (``_steps``), in the order ``_moves`` yields
    them: lazy, the f-row of u, then the g-row of v; active, for each x in
    the f-row of u, the whole g-row of v when first(v, x) = u, else the
    first y of it at distance >= k from x. A move's target index is the state's index plus the
    offsets of its steps, and its edge bits the OR of their words.
    ``tests/test_spans.py::TestReducedMoves`` checks every level against
    ``_moves`` and against an independent pass over the full move set.

    Each root is the lowest index of its component and carries one coverage
    word, the OR of what the component covers: both players' vertex bits
    above both players' edge bits, f bits above g bits within each. A state
    writes its two vertices into its word when it enters, so a state is
    present iff its word is nonzero, and a product edge adds its base edges
    when it is unioned. A root unioned below another hands its word over
    and keeps the word 1, since only root words and the nonzero test are
    read again; so the words hold one full word per component, not one per
    state. A state's parent entry is set to the state itself, an int of
    ``levels``, when it enters, so the parent list holds no ints of its own;
    the entry of a state not yet present is never read, as the presence test
    guards every read. After each level k it yields (k, the roots touched on
    the level, parent, cov, the roots unioned below another on the level);
    parent and cov are updated in place by the later levels.
    """
    if rule is Rule.TRADITIONAL:
        raise InternalError("the traditional levels are joined from the lazy and active passes")
    n = g.n
    adj = g.adj
    dist = g.dist
    lazy = rule is Rule.LAZY
    # an entering state (u, v) writes f_entry[u] | g_entry[v]: its two
    # vertex bits above both players' 2m edge bits, f's above g's
    shift = 2 * g.m
    g_entry = [row[u] << shift for u, row in enumerate(_cover(g, Target.VERTICES)[1])]
    f_entry = [word << n for word in g_entry]
    f_rows, g_rows = _steps(g)
    parent = [0] * (n * n)
    cov = [0] * (n * n)
    for k in range(g.radius, -1, -1):
        touched = []
        merged = []
        for s in levels[k]:
            u, v = divmod(s, n)
            parent[s] = s
            cov[s] = f_entry[u] | g_entry[v]
            root = s
            # the union body is written out in both branches: one loop over
            # (base, word, row) groups, shared by both rules, made the pass
            # 7-12 % slower on the family-queries graphs
            if lazy:
                for row in (f_rows[u], g_rows[v]):
                    for _, off, bits in row:
                        t = s + off
                        if not cov[t]:
                            continue
                        # the find written out as in _joined_levels, as most take no step
                        other = parent[t]
                        while parent[other] != other:
                            parent[other] = other = parent[parent[other]]
                        if other != root:
                            if other < root:
                                root, other = other, root
                            parent[other] = root
                            merged.append(other)
                            bits |= cov[other]
                            cov[other] = 1
                        cov[root] |= bits
            else:
                dv = dist[v]
                g_row = g_rows[v]
                for x, f_off, f_word in f_rows[u]:
                    # first(v, x) exists and is at most u, which qualifies
                    for w in adj[x]:
                        if dv[w] >= k:
                            break
                    if w == u:
                        reads = g_row
                    else:
                        dx = dist[x]
                        for read in g_row:
                            if dx[read[0]] >= k:
                                reads = (read,)
                                break
                        else:
                            continue
                    base = s + f_off
                    for _, off, bits in reads:
                        t = base + off
                        if not cov[t]:
                            continue
                        bits |= f_word
                        other = parent[t]
                        while parent[other] != other:
                            parent[other] = other = parent[parent[other]]
                        if other != root:
                            if other < root:
                                root, other = other, root
                            parent[other] = root
                            merged.append(other)
                            bits |= cov[other]
                            cov[other] = 1
                        cov[root] |= bits
            touched.append(root)
        roots = set()
        for r in touched:
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            roots.add(r)
        yield k, roots, parent, cov, merged


def _joined_levels(g: Graph, lazy, active, levels: tuple[tuple[int, ...], ...]):
    """The traditional levels, joined from the levels of the lazy and the
    active pass, read in step.

    The strong product's edges are the Cartesian edges plus the direct
    edges, so at every threshold each traditional component is a union of
    lazy components and of active components, the finest such, and its word
    is the OR of their words. After each level, this union-find enters the
    level's states of ``levels``, as the passes do, and applies the unions
    both passes made on it: each root unioned below another is joined to
    the state that pass's parent list names for it, with the lowest index
    as root and the word 1 left at a root unioned below another, as in
    ``_union_levels``; it writes none of the passes' lists. That state is
    an ancestor of the merged one in the pass's tree, as a find only skips
    ancestors, and the join entered it on this level or an earlier one, so
    following these links from any state of a pass component reaches its
    root: each pass component is joined whole, and nothing more. A
    component whose word changed on the level holds a root either pass
    touched on it, so ORing in the final words of those roots gives every
    root its component's word. It yields
    (k, the roots touched on the level, parent, cov, (the lazy level, the
    active level)).
    """
    n = g.n
    parent = [0] * (n * n)
    cov = [0] * (n * n)
    for level, rule_levels in zip(reversed(levels), zip(lazy, active)):
        for s in level:
            parent[s] = s
        # the finds are written out, path halving, as most take no step and
        # a call cost more than the find; the step is written
        # parent[x] = x = ..., as x = parent[x] = ... would point the
        # grandparent at itself, making it a root
        for _, _, rule_parent, _, merged in rule_levels:
            for s in merged:
                a = s
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                b = rule_parent[s]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    if b < a:
                        a, b = b, a
                    parent[b] = a
                    cov[a] |= cov[b]
                    cov[b] = 1
        touched = set()
        for _, roots, _, rule_cov, _ in rule_levels:
            for r in roots:
                root = r
                while parent[root] != root:
                    parent[root] = root = parent[parent[root]]
                cov[root] |= rule_cov[r]
                touched.add(root)
        yield rule_levels[0][0], touched, parent, cov, rule_levels


def _joined_pass(g: Graph) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """For each rule in ``RULES`` order, (span value, lowest flat index
    u*n + v of the witness component) of the vertex target, then of the
    edge target, from one lazy and one active pass and the traditional
    levels joined from them.

    The unions do not depend on the target, so one structure decides both,
    each from its bits of the coverage word: a rule's target is hit on the
    first level, scanning down, on which a root the level touched covers
    all of it, as only those roots can have become full on it, and the
    lowest such root is the witness root. This driver is the one place that
    records hits and stops a structure. A traditional component covers at
    least what its lazy and active parts cover, so the traditional targets
    are hit first, on a level the two passes also read: the join is read,
    and the hits of all three rules recorded, until the traditional targets
    are hit; the join stops there and its lists are freed. Each pass then
    reads on alone only while one of its own targets is unhit, so every
    structure reads the levels from the radius down to the lower of its
    rule's two span values. Levels that run out first breach an invariant
    and raise InternalError. ``tests/test_spans.py::TestJoinedPass`` checks
    both.
    """
    levels = _levels(g)
    lazy = _union_levels(g, Rule.LAZY, levels)
    active = _union_levels(g, Rule.ACTIVE, levels)
    # the words of a root that covers the vertex target, then the edge
    # target, for both players
    edge_bits = 2 * g.m
    fulls = (((1 << 2 * g.n) - 1) << edge_bits, (1 << edge_bits) - 1)
    hits = [[None, None] for _ in RULES]  # traditional, active, lazy

    def record(i, k, roots, cov):
        # hit each unhit target of RULES[i] that a root covers; True once
        # both are hit
        rule_hits = hits[i]
        for t, full in enumerate(fulls):
            if rule_hits[t] is None:
                full_roots = [r for r in roots if cov[r] & full == full]
                if full_roots:
                    rule_hits[t] = (k, min(full_roots))
        return None not in rule_hits

    for k, roots, parent, cov, pass_levels in _joined_levels(g, lazy, active, levels):
        for i, (_, pass_roots, _, pass_cov, _) in zip((2, 1), pass_levels):
            record(i, k, pass_roots, pass_cov)
        if record(0, k, roots, cov):
            break
    else:
        raise InternalError("threshold 0 must be feasible for a connected graph")
    del parent, cov  # the join's lists, which its closed generator no longer holds
    for i, pass_levels in (1, active), (2, lazy):
        # any() stops reading the pass on the level that hits its last target
        if None in hits[i] and not any(
                record(i, k, roots, cov) for k, roots, _, cov, _ in pass_levels):
            raise InternalError("threshold 0 must be feasible for a connected graph")
    return tuple(map(tuple, hits))


def _rule_spans(g: Graph, rule: Rule) -> tuple[tuple[int, int], tuple[int, int]]:
    """The rule's entry of ``_joined_pass``, which is kept on the graph
    under ``"spans"``, so the first query of any rule answers all three."""
    return g._memoized("spans", lambda: _joined_pass(g))[RULES.index(rule)]


def span(g: Graph, rule: Rule, target: Target) -> SpanReport:
    """Maximal safety distance for the rule/target.

    Feasibility is monotone decreasing in the threshold, and every span is
    bounded by the radius, so the first threshold, scanning down from the
    radius, at which some product component covers the target for both
    players is the exact value. The threshold-0 product is always feasible.
    """
    _check_variant(rule, target, g)
    value, root = _rule_spans(g, rule)[target is Target.EDGES]
    return SpanReport(rule=rule, target=target, value=value, witness_component=root)


def _component_witness(
    g: Graph, rule: Rule, k: int, root: int, edges: bool
) -> tuple[list[int], list[int], dict[int, list[int]], list[int], list[int]]:
    """One BFS of the witness component from root, over the states at
    distance >= k, successors in increasing flat index: (vertex credits,
    edge credits, detours, parent list, visit order), from which
    ``_tree_walk`` builds the pair of either target, ending at the last
    state in visit order that its credits keep.

    It credits each vertex of each player to the first state in BFS order
    that enters it, and, when edges is true, each edge of each player to
    the first read, a product edge s-t, that covers it: the credit is t
    when the read first visits t, a tree edge, and otherwise s, with t in
    ``detours[s]``. The BFS order does not depend on what it credits, and
    the BFS stops once no vertex and no edge it credits is left: with
    edges, once every edge is credited, as a pair that covers every edge
    has entered every vertex; without, once the last vertex is. It follows the moves ``_moves`` reads at threshold
    k, which reach the whole component and cover what its full move set
    covers (the witness claim there), copied inline from the step rows
    (``_steps``), each read kept when the distance rows put its target at
    distance >= k and carrying its edge word, the OR of its steps' words.
    The active reads come in increasing index, the others are sorted; the
    strong diagonals are read only when d(u, v) = k. The parent list holds
    -1 at every state not visited.
    """
    n = g.n
    adj = g.adj
    dist = g.dist
    lazy = rule is Rule.LAZY
    active = rule is Rule.ACTIVE
    f_rows, g_rows = _steps(g)
    # the edge bits not yet credited, f's above g's
    uncovered = (1 << 2 * g.m) - 1 if edges else 0
    # per player, the vertices no state has entered yet
    f_new = [True] * n
    g_new = [True] * n
    u, v = divmod(root, n)
    f_new[u] = g_new[v] = False
    left = 2 * n - 2
    parent = [-1] * (n * n)  # -1: not visited
    parent[root] = root
    vertices = [root]
    edge_credits: list[int] = []
    detours: dict[int, list[int]] = {}
    order = [root]
    head = 0
    while left or uncovered:
        if head == len(order):
            raise InternalError("witness component does not cover the target")
        s = order[head]
        head += 1
        u, v = divmod(s, n)
        du, dv = dist[u], dist[v]
        f_row, g_row = f_rows[u], g_rows[v]
        # each read is (target index, edge word), cut to distance >= k
        if active:
            # x ascending, then y ascending: already in index order
            reads = []
            for x, f_off, f_word in f_row:
                # first(v, x) exists and is at most u, which qualifies
                for w in adj[x]:
                    if dv[w] >= k:
                        break
                dx = dist[x]
                base = s + f_off
                if w == u:
                    reads += [(base + off, f_word | word) for y, off, word in g_row if dx[y] >= k]
                else:
                    for y, off, word in g_row:
                        if dx[y] >= k:
                            reads.append((base + off, f_word | word))
                            break
        else:
            reads = [(s + off, word) for y, off, word in g_row if du[y] >= k]
            if lazy or du[v] > k:
                # the strong diagonals kept at k exist only when d(u, v) = k
                reads += [(s + off, word) for x, off, word in f_row if dv[x] >= k]
            else:
                ys = [read for read in g_row if du[read[0]] < k]
                for x, f_off, f_word in f_row:
                    if dv[x] >= k:
                        reads.append((s + f_off, f_word))
                    elif ys:
                        dx = dist[x]
                        base = s + f_off
                        reads += [(base + off, f_word | word) for y, off, word in ys if dx[y] >= k]
            # no two reads share a target index, so no word is compared
            reads.sort()
        for t, bits in reads:
            if parent[t] < 0:
                parent[t] = s
                order.append(t)
                if left:
                    x, y = divmod(t, n)
                    if f_new[x] or g_new[y]:
                        left -= f_new[x] + g_new[y]
                        f_new[x] = g_new[y] = False
                        vertices.append(t)
                if bits & uncovered:
                    edge_credits.append(t)
                    uncovered &= ~bits
            elif bits & uncovered:
                edge_credits.append(s)
                detours.setdefault(s, []).append(t)
                uncovered &= ~bits
            else:
                continue
            if not (left or uncovered):
                break
    return vertices, edge_credits, detours, parent, order


def _tree_walk(
    n: int,
    parent: list[int],
    order: list[int],
    kept: list[int],
    detours: dict[int, list[int]],
) -> tuple[Walk, Walk]:
    """The projections of the depth-first walk of the BFS subtree that holds
    the kept states and their tree paths to the root, order[0], with the
    detours s, t, s of detours[s] at each state's first visit, ending at
    the final pair: the last kept state in BFS order, a leaf that no state
    of the tree is deeper than. Each state on the final pair's tree path
    visits the child on that path last, and every other child in BFS order,
    so the walk stops once the final pair and its detours are written
    instead of walking back to the root.

    With the credits of one target of ``_component_witness`` kept, it has
    at most 2(|C| - 1) + 4w + 1 - h entries for a component of |C| states,
    w targets per player and a final pair at depth h: every credit and
    detour happens at a first visit, and the entries not written only
    retrace tree edges, so its projections cover every target while the
    pair distance stays at the threshold."""
    root = order[0]
    marked = {root}
    for s in kept:
        while s not in marked:
            marked.add(s)
            s = parent[s]
    children: dict[int, list[int]] = {}
    final = root
    for s in order[1:]:
        if s in marked:
            children.setdefault(parent[s], []).append(s)
            final = s
    s = final
    while s != root:
        siblings = children[parent[s]]
        siblings.remove(s)
        siblings.append(s)
        s = parent[s]
    seq: list[int] = []
    pending = [root]  # ~s marks leaving s; root is never left
    while pending:
        s = pending.pop()
        if s < 0:
            seq.append(parent[~s])
            continue
        seq.append(s)
        for t in detours.get(s, ()):
            seq.extend((t, s))
        if s == final:
            break
        pending.append(~s)
        pending.extend(reversed(children.get(s, ())))
    # list comprehensions: faster than generators on these short walks
    return Walk(tuple([s // n for s in seq])), Walk(tuple([s % n for s in seq]))


def witness_sweeps(g: Graph, rule: Rule, target: Target) -> tuple[Walk, Walk]:
    """Walk pair achieving the span value: the depth-first walk of a pruned
    BFS tree of the witness component, coordinates projected, from the
    witness root to the tree's deepest pair (``_tree_walk``), with at most
    2(|C| - 1) + 4w + 1 - h entries for a component of |C| states, w targets
    per player and a final pair at depth h.

    The pairs of both targets are kept on the graph under
    ``("witness", rule)``, built on the first query of either. The edge
    target's BFS (``_component_witness``) also credits every vertex, so
    when the targets share a span value and witness root, the vertex pair
    is built from its vertex credits; otherwise a second BFS, which
    credits vertices only and stops at the last one, runs from the vertex
    target's root at its span value.
    """
    _check_variant(rule, target, g)

    def compute():
        vertex_hits, edge_hits = _rule_spans(g, rule)
        n = g.n
        vertices, edge_credits, detours, parent, order = _component_witness(g, rule, *edge_hits, True)
        edge_pair = _tree_walk(n, parent, order, edge_credits, detours)
        if vertex_hits != edge_hits:
            vertices, _, _, parent, order = _component_witness(g, rule, *vertex_hits, False)
        return _tree_walk(n, parent, order, vertices, {}), edge_pair

    return g._memoized(("witness", rule), compute)[target is Target.EDGES]


def all_spans(g: Graph) -> tuple[SpanReport, ...]:
    """The six span reports in fixed (rule, target) order."""
    return tuple(span(g, rule, target) for rule in RULES for target in TARGETS)
