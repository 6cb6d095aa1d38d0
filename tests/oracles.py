"""Independent brute-force oracles and helpers shared by the test modules.

Everything here deliberately avoids the engine's component/pruning machinery:
spans are re-derived by bounded walk-pair reachability, minimal lengths by a
naive level-by-level BFS over (positions, covered-bit masks) states, and
covering-walk lengths by search in (vertex, covered-edge-set) space.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from graphspan import Graph, NotEulerian, Walk, enumerate_connected
from graphspan.families import canonical_form
from graphspan.spans import Rule, Target
from graphspan.walks import classify, is_opposite_lazy, pair_distance

ALL_VARIANTS = [(rule, target) for rule in Rule for target in Target]


@lru_cache(maxsize=None)
def corpus(max_n: int, max_m: int | None = None) -> tuple[Graph, ...]:
    return tuple(enumerate_connected(max_n, max_m))


@st.composite
def connected_graphs(draw, max_n: int) -> Graph:
    """A random spanning tree plus random chords, relabelled at random."""
    n = draw(st.integers(1, max_n))
    label = draw(st.permutations(range(n)))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    chords = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph(n, [(label[u], label[v]) for u, v in (*tree, *chords)])


def count_engine_calls(monkeypatch) -> tuple[list, list, list]:
    """Record every span pass, every canonical search and every witness BFS,
    the uncached cores behind the per-graph memo: the rule of each
    union-find pass (the first span query of any rule runs one lazy and one
    active pass and joins them), the order of each search and the rule of
    each BFS (where a rule's targets share a span value and root, the edge
    target's BFS alone gives the witnesses of both), one list entry per
    call."""
    from graphspan import families, spans

    passes: list = []
    searches: list = []
    witness_runs: list = []
    union_levels = spans._union_levels
    refined_positions = families._refined_positions
    component_witness = spans._component_witness

    def counted_pass(*args):
        passes.append(args[1])
        return union_levels(*args)

    def counted_search(*args):
        searches.append(args[0])
        return refined_positions(*args)

    def counted_witness(*args):
        witness_runs.append(args[1])
        return component_witness(*args)

    monkeypatch.setattr(spans, "_union_levels", counted_pass)
    monkeypatch.setattr(families, "_refined_positions", counted_search)
    monkeypatch.setattr(spans, "_component_witness", counted_witness)
    return passes, searches, witness_runs


def edge_bits(g: Graph) -> dict[tuple[int, int], int]:
    """1 << i for edge i of g.edges, keyed by both orders of its ends."""
    bit = {}
    for i, (a, b) in enumerate(g.edges):
        bit[a, b] = bit[b, a] = 1 << i
    return bit


def rule_moves(g: Graph, rule: Rule, u: int, v: int):
    if rule is Rule.ACTIVE:
        return [(x, y) for x in g.adj[u] for y in g.adj[v]]
    if rule is Rule.LAZY:
        return [(x, v) for x in g.adj[u]] + [(u, y) for y in g.adj[v]]
    return [
        (x, y)
        for x in (*g.adj[u], u)
        for y in (*g.adj[v], v)
        if (x, y) != (u, v)
    ]


def oracle_levels(g: Graph, rule: Rule):
    """A plain union-find over the rule's full move set (``rule_moves``),
    adding the pairs at distance >= k for k from the radius down to 0.

    After each level it yields (k, {root: (states, word)}): every component
    of the present pairs, keyed by its lowest flat index u*n + v, with its
    states in increasing order and its coverage word in the span pass's
    layout: both players' vertex bits above both players' edge bits, f bits
    above g bits within each."""
    n, m = g.n, g.m
    edge_bit = edge_bits(g)
    parent: dict[int, int] = {}
    word: dict[int, int] = {}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for k in range(g.radius, -1, -1):
        for s in range(n * n):
            u, v = divmod(s, n)
            if s in parent or g.dist[u][v] < k:
                continue
            parent[s] = s
            word[s] = ((1 << (n + u)) | (1 << v)) << (2 * m)
            # every move set is symmetric, so each move between present
            # pairs is read from the pair that enters last
            for x, y in rule_moves(g, rule, u, v):
                t = x * n + y
                if t not in parent:
                    continue
                a, b = sorted((find(s), find(t)))
                if a != b:
                    parent[b] = a
                    word[a] |= word.pop(b)
                word[a] |= edge_bit.get((u, x), 0) << m | edge_bit.get((v, y), 0)
        components: dict[int, list[int]] = {}
        for s in sorted(parent):
            components.setdefault(find(s), []).append(s)
        yield k, {r: (states, word[r]) for r, states in components.items()}


def oracle_pass(g: Graph, rule: Rule):
    """((value, root) of the vertex target, then of the edge target): the
    first level of ``oracle_levels`` at which a component covers the target
    for both players, and the lowest root of such a component."""
    edge_bits = 2 * g.m
    fulls = (((1 << 2 * g.n) - 1) << edge_bits, (1 << edge_bits) - 1)
    hits = [None, None]
    for k, components in oracle_levels(g, rule):
        for i, full in enumerate(fulls):
            roots = [r for r, (_, word) in components.items() if word & full == full]
            if hits[i] is None and roots:
                hits[i] = (k, min(roots))
        if None not in hits:
            return tuple(hits)
    raise AssertionError("threshold 0 must be feasible for a connected graph")


def _fewest_covering_entries(g: Graph, rule: Rule, target: Target, k: int, max_entries: int):
    """Fewest entries of a walk pair that covers the target for both players
    while its simultaneous distance never drops below k, by naive
    level-by-level BFS over (u, v, f's covered bits, g's covered bits)
    states; None when no pair of at most max_entries entries does. Vertex v
    is bit 1 << v and the i-th edge of ``g.edges`` bit 1 << i; bit[a, b]
    holds what a step from a to b covers, absent when it covers nothing, and
    a start at a covers what staying at a does. Each pair's moves at
    distance >= k are listed once per call."""
    n, dist = g.n, g.dist
    if target is Target.VERTICES:
        full = (1 << n) - 1
        bit = {(a, b): 1 << b for a in range(n) for b in (a, *g.adj[a])}
    else:
        full = (1 << g.m) - 1
        bit = edge_bits(g)
    moves: dict[int, list[tuple[int, int, int, int]]] = {}
    seen = set()
    frontier = []
    for u in range(n):
        for v in range(n):
            if dist[u][v] < k:
                continue
            s = (u, v, bit.get((u, u), 0), bit.get((v, v), 0))
            if s[2] == full and s[3] == full:
                return 1
            seen.add(s)
            frontier.append(s)
    for entries in range(2, max_entries + 1):
        nxt = []
        for u, v, fc, gc in frontier:
            reads = moves.get(u * n + v)
            if reads is None:
                reads = moves[u * n + v] = [
                    (x, y, bit.get((u, x), 0), bit.get((v, y), 0))
                    for x, y in rule_moves(g, rule, u, v) if dist[x][y] >= k
                ]
            for x, y, f_bit, g_bit in reads:
                s = (x, y, fc | f_bit, gc | g_bit)
                if s in seen:
                    continue
                if s[2] == full and s[3] == full:
                    return entries
                seen.add(s)
                nxt.append(s)
        if not nxt:
            return None
        frontier = nxt
    return None


def oracle_span(g: Graph, rule: Rule, target: Target) -> int:
    """The highest k at which a covering pair of at most 2n(m + 1) entries
    keeps its simultaneous distance at k or more."""
    cap = 2 * g.n * (g.m + 1)
    for k in range(g.radius, -1, -1):
        if _fewest_covering_entries(g, rule, target, k, cap) is not None:
            return k
    raise AssertionError("a covering pair must exist at threshold 0")


def oracle_min_length(g: Graph, rule: Rule, target: Target, sigma: int, max_l: int = 64) -> int:
    """Naive breadth-first enumeration of walk pairs by increasing length,
    up to max_l entries."""
    entries = _fewest_covering_entries(g, rule, target, sigma, max_l)
    if entries is None:
        raise AssertionError(f"no covering pair within {max_l} entries")
    return entries


def edge_cover_steps(g: Graph, p: int, uncovered: frozenset) -> int:
    """Fewest steps a lone walker at p needs to traverse every edge in
    ``uncovered``, by breadth-first search over (vertex, edges left) states."""
    frontier = [(p, uncovered)]
    seen = set(frontier)
    for steps in range(2 * g.n * (g.m + 1)):
        nxt = []
        for v, left in frontier:
            if not left:
                return steps
            for w in g.adj[v]:
                s = (w, left - {(v, w) if v < w else (w, v)})
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    raise AssertionError("no covering walk found")


def vertex_cover_steps(g: Graph, p: int, uncovered: frozenset) -> int:
    """Fewest steps a lone walker at p needs to visit every vertex in
    ``uncovered`` (p itself counts as visited), by breadth-first search over
    (vertex, vertices left) states."""
    frontier = [(p, uncovered - {p})]
    seen = set(frontier)
    for steps in range(g.n * g.n + 1):
        nxt = []
        for v, left in frontier:
            if not left:
                return steps
            for w in g.adj[v]:
                s = (w, left - {w})
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    raise AssertionError("no visiting walk found")


def distance_preserving_permutations(g: Graph) -> list[tuple[int, ...]]:
    """Aut(g), as every one of the n! permutations that preserves all distances."""
    n, dist = g.n, g.dist
    return [
        p for p in permutations(range(n))
        if all(dist[p[u]][p[v]] == dist[u][v] for u in range(n) for v in range(n))
    ]


def brute_force_pair_orbits(g: Graph, sigma: int) -> list[frozenset[tuple[int, int]]]:
    """Orbits of the ordered pairs at distance >= sigma under Aut(g) x player
    swap."""
    n, dist = g.n, g.dist
    auts = distance_preserving_permutations(g)
    orbits: list[frozenset[tuple[int, int]]] = []
    for u in range(n):
        for v in range(n):
            if dist[u][v] >= sigma and not any((u, v) in o for o in orbits):
                orbits.append(frozenset(
                    q for p in auts for q in ((p[u], p[v]), (p[v], p[u]))
                ))
    return orbits


def brute_force_subset_orbits(g: Graph) -> list[int]:
    """The lowest member of each orbit of the nonempty vertex sets of g
    (bit v is vertex v) under Aut(g), in increasing order: each set's orbit
    is its image under every distance-preserving permutation."""
    auts = distance_preserving_permutations(g)
    return sorted({
        min(sum(1 << p[v] for v in range(g.n) if s >> v & 1) for p in auts)
        for s in range(1, 1 << g.n)
    })


def oracle_covering_free(g: Graph) -> int:
    """Minimal edge-length over all walks covering every edge, free endpoints,
    by BFS in (vertex, covered-edge-bitset) space."""
    full = (1 << g.m) - 1
    if g.m == 0:
        return 0
    edge_bit = edge_bits(g)
    seen = set()
    frontier = []
    for u in range(g.n):
        s = (u, 0)
        seen.add(s)
        frontier.append(s)
    steps = 0
    while True:
        steps += 1
        nxt = []
        for u, mask in frontier:
            for x in g.adj[u]:
                nmask = mask | edge_bit[u, x]
                if nmask == full:
                    return steps
                s = (x, nmask)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
        if not frontier:
            raise AssertionError("edge coverage unreachable")


def oracle_covering_closed(g: Graph, cap: int) -> int:
    """Minimal closed covering walk length by per-start BFS with a length cap."""
    full = (1 << g.m) - 1
    edge_bit = edge_bits(g)
    best = None
    for start in range(g.n):
        seen = {(start, 0)}
        frontier = [(start, 0)]
        for steps in range(1, cap + 1):
            nxt = []
            for u, mask in frontier:
                for x in g.adj[u]:
                    nmask = mask | edge_bit[u, x]
                    if nmask == full and x == start:
                        if best is None or steps < best:
                            best = steps
                    s = (x, nmask)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
            if not frontier:
                break
    if best is None:
        raise AssertionError(f"no closed covering walk within {cap} edges")
    return best


def reference_euler_walk(adj, counts, start: int) -> list[int]:
    """Hierholzer that rescans each adjacency list from its start on every
    step: O(steps x degree), but the plainest statement of the tie-break
    (always leave by the lowest neighbor with a traversal left)."""
    remaining = dict(counts)
    total = sum(remaining.values())
    stack = [start]
    out: list[int] = []
    while stack:
        v = stack[-1]
        nxt = -1
        for u in adj[v]:
            if remaining.get((min(u, v), max(u, v)), 0) > 0:
                nxt = u
                break
        if nxt < 0:
            out.append(stack.pop())
        else:
            remaining[(min(v, nxt), max(v, nxt))] -= 1
            stack.append(nxt)
    out.reverse()
    if len(out) != total + 1:
        raise NotEulerian("multigraph admits no Eulerian walk from this start")
    return out


def brute_force_pairing_cost(vertices: list[int], dist) -> int:
    """Minimum total distance over every perfect pairing of the vertices,
    enumerated one pairing at a time."""
    if not vertices:
        return 0
    first, rest = vertices[0], vertices[1:]
    return min(
        dist[first][partner] + brute_force_pairing_cost(rest[:i] + rest[i + 1:], dist)
        for i, partner in enumerate(rest)
    )


def pairings(vertices: list[int], spare: int):
    """Every pairing of the vertices that leaves at most spare of them
    unpaired, as (vertex, partner or None) for the lowest vertex still open,
    then the next. Listed with the lowest open vertex unpaired first, then
    paired with each other vertex in increasing order."""
    if not vertices:
        yield ()
        return
    first, rest = vertices[0], vertices[1:]
    if spare:
        for tail in pairings(rest, spare - 1):
            yield ((first, None), *tail)
    for i, partner in enumerate(rest):
        for tail in pairings(rest[:i] + rest[i + 1:], spare):
            yield ((first, partner), *tail)


# ---------------------------------------------------------------------------
# Walk-pair validation (the "re-validates through walk-model" checks)


def validate_pair(g: Graph, rule: Rule, target: Target, f: Walk, h: Walk, distance: int) -> list[str]:
    problems = []
    if f.l != h.l:
        return ["length mismatch"]
    if pair_distance(g, f, h) != distance:
        problems.append(f"pair distance {pair_distance(g, f, h)} != {distance}")
    cf, ch = classify(g, f), classify(g, h)
    if rule is Rule.ACTIVE:
        want = ("is_track", "is_sweep")[target is Target.EDGES]
        if not (getattr(cf, want) and getattr(ch, want)):
            problems.append(f"not both {want}")
    else:
        want = ("is_lazy_track", "is_lazy_sweep")[target is Target.EDGES]
        if not (getattr(cf, want) and getattr(ch, want)):
            problems.append(f"not both {want}")
        if rule is Rule.LAZY and f.l >= 2 and not is_opposite_lazy(g, f, h):
            problems.append("not opposite lazy")
    return problems


# ---------------------------------------------------------------------------
# Graph enumeration by labeled edge subsets


def reference_canon_bits(n: int, adj: list[set[int]]) -> int:
    """Minimized adjacency bits (bit p*n + q per edge between positions p < q)
    over every vertex ordering compatible with the (degree, sorted neighbour
    degrees) refinement, by trying each one."""
    deg = [len(a) for a in adj]
    keys = [(deg[u], tuple(sorted(deg[v] for v in adj[u]))) for u in range(n)]
    groups: dict[tuple, list[int]] = {}
    for u in sorted(range(n), key=lambda u: (keys[u], u)):
        groups.setdefault(keys[u], []).append(u)

    def code(parts: tuple[tuple[int, ...], ...]) -> int:
        position = {v: i for i, v in enumerate(v for part in parts for v in part)}
        return sum(1 << (position[u] * n + position[v])
                   for u in range(n) for v in adj[u] if position[u] < position[v])

    return min(code(parts) for parts in product(*(permutations(g) for g in groups.values())))


def _connected_mask(n: int, pair_list: list[tuple[int, int]], mask: int) -> bool:
    adj = [0] * n
    for i, (u, v) in enumerate(pair_list):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        nxt = 0
        for u in range(n):
            if frontier >> u & 1:
                nxt |= adj[u]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


@lru_cache(maxsize=None)
def _subset_class(n: int, mask: int) -> int | None:
    """reference_canon_bits of the labeled graph whose edges are the pairs of
    combinations(range(n), 2) selected by mask; None when it is disconnected."""
    pair_list = list(combinations(range(n), 2))
    if not _connected_mask(n, pair_list, mask):
        return None
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, (u, v) in enumerate(pair_list):
        if mask >> i & 1:
            adj[u].add(v)
            adj[v].add(u)
    return reference_canon_bits(n, adj)


def labeled_connected(max_n: int) -> list[Graph]:
    """Every connected labeled graph of order <= max_n, that is every
    distinct labeling of every class: 772 graphs for max_n = 5."""
    out = []
    for n in range(1, max_n + 1):
        pair_list = list(combinations(range(n), 2))
        for mask in range(1 << len(pair_list)):
            if _connected_mask(n, pair_list, mask):
                out.append(Graph(n, [e for i, e in enumerate(pair_list) if mask >> i & 1]))
    return out


def reference_enumerate_connected(max_n: int, max_m: int | None = None) -> list[Graph]:
    """The labeled subset scan: every edge subset of each order in increasing
    mask order, deduplicated by canonical form keeping the first (lowest)
    mask of each class, ordered by (order, size, canonical form)."""
    out = []
    for n in range(1, max_n + 1):
        pair_list = list(combinations(range(n), 2))
        by_size: dict[int, dict[int, int]] = {}
        for mask in range(1 << len(pair_list)):
            m = mask.bit_count()
            if (max_m is not None and m > max_m) or m < n - 1:
                continue
            canon = _subset_class(n, mask)
            if canon is not None:
                by_size.setdefault(m, {}).setdefault(canon, mask)
        for m in sorted(by_size):
            for canon in sorted(by_size[m]):
                mask = by_size[m][canon]
                out.append(Graph(n, [pair_list[i] for i in range(len(pair_list)) if mask >> i & 1]))
    return out


# ---------------------------------------------------------------------------
# Tree enumeration (AHU canonical strings, leaf-extension generation)


def _ahu_rooted(adj: list[list[int]], root: int, parent: int) -> str:
    subs = sorted(_ahu_rooted(adj, c, root) for c in adj[root] if c != parent)
    return "(" + "".join(subs) + ")"


def _tree_centers(n: int, adj: list[list[int]]) -> list[int]:
    if n == 1:
        return [0]
    deg = [len(a) for a in adj]
    leaves = [u for u in range(n) if deg[u] == 1]
    removed = len(leaves)
    while removed < n:
        nxt = []
        for u in leaves:
            for v in adj[u]:
                deg[v] -= 1
                if deg[v] == 1:
                    nxt.append(v)
        removed += len(nxt)
        leaves = nxt
    return leaves


def tree_key(edges: tuple[tuple[int, int], ...], n: int) -> str:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = _tree_centers(n, adj)
    return min(_ahu_rooted(adj, c, -1) for c in centers)


@lru_cache(maxsize=None)
def all_trees(max_n: int) -> tuple[Graph, ...]:
    """Every tree up to isomorphism with order <= max_n."""
    levels: list[list[tuple[tuple[int, int], ...]]] = [[()]]
    out = [Graph(1, [])]
    for n in range(2, max_n + 1):
        seen = {}
        for edges in levels[-1]:
            for attach in range(n - 1):
                new_edges = edges + ((attach, n - 1),)
                key = tree_key(new_edges, n)
                if key not in seen:
                    seen[key] = new_edges
        level = [seen[k] for k in sorted(seen)]
        levels.append(level)
        out.extend(Graph(n, e) for e in level)
    return tuple(out)


# ---------------------------------------------------------------------------
# Misc helpers


def random_track_pair(g: Graph, rng: random.Random, length: int) -> tuple[Walk, Walk]:
    """Two independent stay-free random walks of equal length."""

    def walk():
        u = rng.randrange(g.n)
        seq = [u]
        for _ in range(length - 1):
            u = rng.choice(g.adj[u])
            seq.append(u)
        return Walk(tuple(seq))

    return walk(), walk()


def same_graph_up_to_iso(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)
