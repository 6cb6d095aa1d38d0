"""Eulerian walks and shortest covering walks (route inspection).

A shortest covering walk is an Eulerian walk of the graph with one more
traversal of every edge on a shortest path between paired odd-degree
vertices. The pairs come from a minimum-weight perfect matching on the
distances between the k odd vertices, by Edmonds' blossom algorithm
(``_min_perfect_matching``). It takes O(k^2) per tree growth, with one
growth per augmentation plus one per inner blossom whose dual reaches 0:
such a growth ends, and the next expands that blossom and grows the trees
again. With free endpoints two dummy vertices, joined at cost 0 to every
odd vertex and to each other, pick the two odd vertices the walk ends at;
no least-cost matching joins the two dummies. The covering multigraph is
the graph's edge list with a crossing count per edge index, and one
Hierholzer walk (``_euler_walk``) over the rows of (neighbour, edge
index) that ``graph._incidence`` builds turns it into a plain vertex
sequence on the simple input graph;
``eulerian_walk`` is the same walk with no extra crossing. The matching
breaks ties in a fixed scan order, the walk starts at the lower of its two
ends, and the shortest paths and the Hierholzer walk leave by the lowest
neighbour available, so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import EmptyEdgeSet, InternalError, InvalidParams, NotEulerian
from .graph import Edge, Graph, _bfs_distances, _check_graph, _incidence
from .walks import Walk

EulerClass = Literal["circuit", "trail", "none"]
Mode = Literal["closed", "free_endpoints"]

@dataclass(frozen=True)
class CoveringWalkResult:
    """A walk covering every edge, its edge-length, and the extra traversals.

    ``duplicated`` holds one entry per traversal beyond an edge's first, so
    ``length_edges == size + len(duplicated)``.
    """

    walk: Walk
    length_edges: int
    duplicated: tuple[Edge, ...]


def euler_class(g: Graph) -> EulerClass:
    """'circuit' with no odd-degree vertices, 'trail' with exactly two."""
    _check_graph(g)
    odd = sum(1 for nbrs in g.adj if len(nbrs) % 2)
    if odd == 0:
        return "circuit"
    if odd == 2:
        return "trail"
    return "none"


def eulerian_walk(g: Graph) -> Walk:
    """Walk of length size+1 traversing every edge exactly once.

    For a circuit the first and last entries coincide and the start is vertex
    0; a trail starts at the lowest odd-degree vertex. It is the Hierholzer
    walk of ``shortest_covering_walk`` with no extra crossing, so it equals
    the shortest covering walk with free endpoints, which duplicates nothing
    here.
    """
    if euler_class(g) == "none":
        raise NotEulerian("graph has more than two odd-degree vertices")
    start = next((u for u, nbrs in enumerate(g.adj) if len(nbrs) % 2), 0)
    return Walk(tuple(_euler_walk(_incidence(g), [1] * g.m, start)))


def _euler_walk(rows, left: list[int], start: int) -> list[int]:
    """Hierholzer from start on the multigraph that crosses edge i left[i]
    times, with rows as ``graph._incidence`` builds them; left is counted
    down to 0.

    Each step leaves by the lowest neighbour with a crossing left; counts
    only fall, so a per-vertex cursor that never moves back finds it in
    O(steps + sum of degrees) overall. A covering multigraph always has a
    walk from start, so raises InternalError unless at most two vertices
    have an odd crossing count, start among them, and every crossing is
    reached from start.
    """
    odd = [v for v, row in enumerate(rows) if sum(left[i] for _, i in row) % 2]
    if len(odd) > 2 or (odd and start not in odd):
        raise InternalError(f"covering multigraph is not Eulerian: odd vertices {odd}, start {start}")
    total = sum(left)
    cursor = [0] * len(rows)
    stack = [start]
    out: list[int] = []
    while stack:
        v = stack[-1]
        row = rows[v]
        i = cursor[v]
        while i < len(row) and not left[row[i][1]]:
            i += 1
        cursor[v] = i
        if i == len(row):
            out.append(stack.pop())
        else:
            u, e = row[i]
            left[e] -= 1
            stack.append(u)
    out.reverse()
    if len(out) != total + 1:
        raise InternalError("covering multigraph is not Eulerian: crossings unreachable from the start")
    return out


def _min_perfect_matching(cost: list[list[int]]) -> list[int]:
    """mate[v] of a perfect matching of the vertices 0..n-1 of least total
    cost, where cost[u][v] = cost[v][u] >= 0 is the integer cost of joining u
    and v; every two vertices may be joined.

    Edmonds' primal-dual blossom algorithm ("Paths, trees, and flowers",
    1965; Edmonds and Johnson, "Matching, Euler tours and the Chinese
    postman", 1973). The dual holds y(v) per vertex and z(B) >= 0 per
    blossom B, an odd set shrunk to one vertex, and keeps the slack
    w(u, v) - y(u) - y(v) + (z of the blossoms holding both u and v) >= 0 on
    every edge. With w = 2 * cost every dual stays an integer: the exposed
    vertices share one dual value, so the slack between two outer blossoms
    is even and half of it is a whole step.

    A growth first expands every outermost blossom whose z is 0 (and its
    parts whose z is 0), then grows alternating trees of tight (zero slack)
    edges from every exposed vertex. Labels and tree edges live on
    outermost blossoms only: outer ones are the roots and the mates of
    inner ones. A tight edge from an outer vertex labels a free blossom
    inner and its mate outer, shrinks the odd cycle it closes in one tree
    into a blossom, or joins two trees into an augmenting path, which ends
    the growth. With no tight edge left, the dual moves by the largest step
    that keeps it feasible: +step on outer vertices and -step on inner ones
    (z moves by twice that on outer and inner blossoms, so their inside
    edges keep their slack). The step makes an edge to a free vertex tight,
    or an edge between two outer blossoms, or the z of an inner blossom
    zero, which also ends the growth: the labels are cleared and the next
    growth expands that blossom. Such a growth has made a step above 0 (z
    was above 0 when it began), and each such step raises the dual
    objective by step per tree, so the growths end. At the end every
    matched edge is tight and every blossom with z > 0 is full, so the
    matching is optimal.

    Each growth takes O(n^2): every vertex is scanned once as an outer
    vertex, and the least slack edge into each free vertex and out of each
    outer blossom is kept, so a step reads O(n) entries. There is one
    growth per augmentation, n/2 in all, plus one per inner blossom whose z
    reaches 0. Ties go however the scan order meets them, so the result
    depends only on cost. Raises InternalError when no perfect matching
    exists, as for odd n.
    """
    n = len(cost)
    w = [[2 * c for c in row] for row in cost]
    FREE, OUTER, INNER = 0, 1, 2
    slots = 2 * n  # vertices 0..n-1, blossoms n..2n-1
    mate = [-1] * n
    dual = [0] * slots
    top = list(range(n))  # the outermost blossom holding each vertex
    parent = [-1] * slots
    base = list(range(n)) + [-1] * n
    kids: list = [None] * slots  # the odd cycle, from the part holding the base
    links: list = [None] * slots  # links[b][i] joins kids[b][i] to kids[b][i + 1]
    unused = list(range(slots - 1, n - 1, -1))

    def leaves(b: int) -> list[int]:
        out, stack = [], [b]
        while stack:
            x = stack.pop()
            if x < n:
                out.append(x)
            else:
                stack.extend(kids[x])
        return out

    def slack(x: int, y: int) -> int:
        return w[x][y] - dual[x] - dual[y]

    def assign(v, x, lab):
        # label the outermost blossom of x, reached from the outer vertex v
        # (None at a root), and the mate of an inner blossom's base outer
        while True:
            b = top[x]
            label[b] = lab
            edge[b] = None if v is None else (v, x)
            if lab == OUTER:
                queue.extend(leaves(b))
                return
            v = base[b]
            x, lab = mate[v], OUTER

    def meet(v, x):
        # the outermost blossom where the tree paths of v and x meet, or -1
        # when they lie in two trees
        seen = set()
        a, b = top[v], top[x]
        while a >= 0 or b >= 0:
            if a >= 0:
                if a in seen:
                    return a
                seen.add(a)
                e = edge[a]
                a = -1 if e is None else top[edge[top[e[0]]][0]]
            a, b = b, a
        return -1

    def shrink(bb, v, x):
        # the cycle bb .. top[v] - top[x] .. bb becomes one outer blossom
        b = unused.pop()
        cycle, joins = [], []
        t = top[v]
        while t != bb:
            cycle.append(t)
            joins.append(edge[t])
            t = top[edge[t][0]]
        cycle.append(bb)
        cycle.reverse()
        joins.reverse()
        joins.append((v, x))
        t = top[x]
        while t != bb:
            cycle.append(t)
            joins.append(edge[t][::-1])
            t = top[edge[t][0]]
        for t in cycle:
            parent[t] = b
        parent[b], base[b], kids[b], links[b] = -1, base[bb], cycle, joins
        label[b], edge[b], dual[b] = OUTER, edge[bb], 0
        for y in leaves(b):
            if label[top[y]] == INNER:
                queue.append(y)  # inner vertices turn outer and are scanned
            top[y] = b
        # the least slack edge to each other outer blossom, from the parts'
        # lists, or from the rows of parts that have none
        best: dict[int, tuple[int, int, int]] = {}
        for t in cycle:
            edges = out_list[t]
            if edges is None:
                edges = [(y, z) for y in leaves(t) for z in range(n)]
            for y, z in edges:
                bz = top[z]
                if bz != b and label[bz] == OUTER:
                    s = slack(y, z)
                    if bz not in best or s < best[bz][0]:
                        best[bz] = (s, y, z)
            out_list[t] = best_out[t] = None
        out_list[b] = [(y, z) for _, y, z in best.values()]
        best_out[b] = min(best.values())[1:] if best else None

    def rebase(b, v):
        # make the vertex v the base of blossom b, swapping matched and
        # unmatched links along the even side of the cycle
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= n:
            rebase(t, v)
        cycle, joins = kids[b], links[b]
        size, i = len(cycle), cycle.index(t)
        for k in range(i - 2, -1, -2) if i % 2 == 0 else range(i + 1, size, 2):
            y, z = joins[k]
            if cycle[k] >= n:
                rebase(cycle[k], y)
            if cycle[(k + 1) % size] >= n:
                rebase(cycle[(k + 1) % size], z)
            mate[y], mate[z] = z, y
        kids[b], links[b] = cycle[i:] + cycle[:i], joins[i:] + joins[:i]
        base[b] = v

    def augment(v, x):
        for s, j in ((v, x), (x, v)):
            while True:
                bs = top[s]
                if bs >= n:
                    rebase(bs, s)
                mate[s] = j
                if edge[bs] is None:
                    break
                bt = top[edge[bs][0]]
                s, j = edge[bt]
                if bt >= n:
                    rebase(bt, j)
                mate[j] = s

    def expand(b):
        # the parts of b become outermost, except those whose z is 0,
        # which expand in turn
        for t in kids[b]:
            parent[t] = -1
            if t < n:
                top[t] = t
            elif dual[t] == 0:
                expand(t)
            else:
                for y in leaves(t):
                    top[y] = t
        base[b] = -1  # the slot is free; its dual is 0
        unused.append(b)

    def scan(v) -> bool:
        # every edge of the outer vertex v; True once the matching grew
        row = w[v]
        for x in range(n):
            bv, bx = top[v], top[x]
            if bv == bx:
                continue
            s = row[x] - dual[v] - dual[x]
            if s == 0:
                if label[bx] == FREE:
                    assign(v, x, INNER)
                elif label[bx] == OUTER:
                    bb = meet(v, x)
                    if bb < 0:
                        augment(v, x)
                        return True
                    shrink(bb, v, x)
            elif label[bx] == OUTER:
                if best_out[bv] is None or s < slack(*best_out[bv]):
                    best_out[bv] = (v, x)
            elif label[bx] == FREE and (best_in[x] < 0 or s < slack(best_in[x], x)):
                best_in[x] = v
        return False

    while -1 in mate:
        for b in range(n, slots):
            if parent[b] < 0 and base[b] >= 0 and dual[b] == 0:
                expand(b)
        label = [FREE] * slots
        edge: list = [None] * slots  # the edge (outer v, x in b) that labelled b
        best_in = [-1] * n  # the outer vertex of the least slack edge into x
        best_out: list = [None] * slots  # least slack edge from an outer blossom
        out_list: list = [None] * slots  # ... to each other outer blossom
        queue: list[int] = []  # outer vertices still to scan
        for v in range(n):
            if mate[v] < 0 and label[top[v]] == FREE:
                assign(None, v, OUTER)
        grown = False
        while not grown:
            if queue:
                grown = scan(queue.pop())
                continue
            step, event = None, None
            for x in range(n):
                if label[top[x]] == FREE and best_in[x] >= 0:
                    s = slack(best_in[x], x)
                    if step is None or s < step:
                        step, event = s, best_in[x]
            for b in range(slots):
                if parent[b] < 0 and (b < n or base[b] >= 0):
                    if label[b] == OUTER and best_out[b] is not None:
                        s = slack(*best_out[b]) // 2
                        if step is None or s < step:
                            step, event = s, best_out[b][0]
                    elif label[b] == INNER and b >= n and (step is None or dual[b] // 2 < step):
                        step, event = dual[b] // 2, -1
            if step is None:
                del rebase, expand
                raise InternalError("no perfect matching exists")
            for x in range(n):
                lab = label[top[x]]
                if lab == OUTER:
                    dual[x] += step
                elif lab == INNER:
                    dual[x] -= step
            for b in range(n, slots):
                if parent[b] < 0 and base[b] >= 0:
                    if label[b] == OUTER:
                        dual[b] += 2 * step
                    elif label[b] == INNER:
                        dual[b] -= 2 * step
            if event < 0:
                break  # an inner blossom's z is 0: the next growth expands it
            queue.append(event)  # its least slack edge is tight now
    # rebase and expand call themselves through their closure cells, a cycle
    # that would leave the matching state to the cyclic collector
    del rebase, expand
    return mate


def _pair_odd_vertices(dist, odd: list[int], free: bool) -> tuple[list[tuple[int, int]], list[int]]:
    """The pairs (a, b), a < b, of a least-distance pairing of the odd
    vertices (given in increasing order), and the two left unpaired in free
    mode, lower first. dist[a][b] is read for odd a and b only, so dist may
    map each odd vertex to its distance row.

    Free mode adds two vertices joined at cost 0 to every odd vertex and to
    each other. No least matching joins the two: it would pair the odd
    vertices at some cost PM, and for any pair (a, b) of it, joining a and b
    to the two instead costs PM - dist(a, b) < PM. So a perfect matching of
    least cost joins each to one end of the walk, and pairs the other odd
    vertices at least total distance.
    """
    k = len(odd)
    if not k:
        return [], []
    extra = 2 if free else 0
    cost = [[dist[a][b] for b in odd] + [0] * extra for a in odd]
    cost += [[0] * (k + extra) for _ in range(extra)]
    mate = _min_perfect_matching(cost)
    pairs = [(odd[i], odd[j]) for i, j in enumerate(mate[:k]) if i < j < k]
    return pairs, [odd[i] for i in range(k) if mate[i] >= k]


def _augmenting_paths(rows, dist, pairs: list[tuple[int, int]]) -> list[int]:
    """Edge indices along a deterministic shortest path for each matched pair
    (a, b), read from dist[a], the distances from a, and rows as
    ``graph._incidence`` builds them."""
    extra: list[int] = []
    for a, b in pairs:
        # walk from b back to a, always stepping to the lowest neighbour
        # that decreases the distance to a
        row = dist[a]
        cur = b
        while cur != a:
            cur, i = next((u, i) for u, i in rows[cur] if row[u] == row[cur] - 1)
            extra.append(i)
    return extra


def shortest_covering_walk(g: Graph, mode: Mode = "free_endpoints") -> CoveringWalkResult:
    """Provably minimal walk traversing every edge at least once.

    'closed' forces equal endpoints (classical route inspection); the default
    'free_endpoints' also minimizes over distinct start/end. Minimality comes
    from a minimum-cost perfect matching of the odd-degree vertices by
    shortest-path distance; in free_endpoints mode two dummy vertices leave
    two of them unpaired, and the walk runs from the lower of the two to the
    higher.

    Only the distances from the k odd vertices are read, one BFS from each,
    and never the graph's all-pairs table: the distances cost O(k(n + m))
    time and O(kn) memory, beside the matching and the Eulerian walk.
    A mode other than those two raises InvalidParams before the edge count
    is read, and a graph without edges raises EmptyEdgeSet. A covering
    multigraph with no Eulerian walk is a breached invariant and raises
    InternalError, never NotEulerian.
    """
    _check_graph(g)
    if mode not in ("closed", "free_endpoints"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if g.m == 0:
        raise EmptyEdgeSet("covering walk needs at least one edge")
    odd = [u for u, nbrs in enumerate(g.adj) if len(nbrs) % 2]
    dist = {a: _bfs_distances(g.adj, a, g.n) for a in odd}
    pairs, ends = _pair_odd_vertices(dist, odd, mode != "closed")
    rows = _incidence(g)
    extra = _augmenting_paths(rows, dist, pairs)
    # the added paths leave every vertex even but the walk's two ends
    left = [1] * g.m
    for i in extra:
        left[i] += 1
    seq = _euler_walk(rows, left, ends[0] if ends else 0)
    return CoveringWalkResult(
        walk=Walk(tuple(seq)),
        length_edges=len(seq) - 1,
        duplicated=tuple(sorted(g.edges[i] for i in extra)),
    )
