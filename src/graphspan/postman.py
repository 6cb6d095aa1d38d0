"""Eulerian walks and shortest covering walks (route inspection).

Duplicated edges live only in an internal multigraph; results are flattened
back to plain vertex sequences on the simple input graph. All tie-breaks take
the lowest available index, so outputs are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Literal

from .errors import EmptyEdgeSet, NotEulerian, TooLarge
from .graph import Edge, Graph, _norm
from .walks import Walk

EulerClass = Literal["circuit", "trail", "none"]
Mode = Literal["closed", "free_endpoints"]

# Most odd-degree vertices route inspection pairs. The pairing costs are
# computed only for the subsets the search reads: for k odd vertices,
# Fibonacci(k + 1) of them in closed mode and about 2.6 times that with free
# endpoints, 75,025 and 196,392 at this bound (complete(24): 0.5 s and 1.4 s).
PAIRING_LIMIT = 24


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
    odd = sum(1 for u in range(g.n) if g.degree(u) % 2)
    if odd == 0:
        return "circuit"
    if odd == 2:
        return "trail"
    return "none"


def eulerian_walk(g: Graph) -> Walk:
    """Walk of length size+1 traversing every edge exactly once.

    For a circuit the first and last entries coincide and the start is vertex
    0; a trail starts at the lowest odd-degree vertex.
    """
    kind = euler_class(g)
    if kind == "none":
        raise NotEulerian("graph has more than two odd-degree vertices")
    if kind == "trail":
        start = min(u for u in range(g.n) if g.degree(u) % 2)
    else:
        start = 0
    counts = Counter(g.edges)
    seq = euler_walk_multigraph(g.adj, counts, start)
    return Walk(tuple(seq))


def euler_walk_multigraph(adj, counts: Counter, start: int) -> list[int]:
    """Hierholzer on a multigraph given by remaining-traversal counts.

    ``adj`` lists each vertex's distinct neighbors in sorted order; ``counts``
    maps normalized edges to how many times they must be traversed. Raises
    NotEulerian unless an Eulerian circuit or trail from ``start`` exists:
    the start must be one of the two odd-degree vertices when there are two,
    and every edge must be reachable from it. Each step leaves by the lowest
    neighbor with a traversal left; remaining counts only fall, so a
    per-vertex cursor that never moves back finds it in O(steps + sum of
    degrees) overall.
    """
    remaining = dict(counts)
    total = sum(remaining.values())
    odd: set[int] = set()
    for edge, c in remaining.items():
        if c & 1:
            odd.symmetric_difference_update(edge)
    if len(odd) > 2 or (odd and start not in odd):
        raise NotEulerian(
            f"no Eulerian walk starts at vertex {start}: odd-degree vertices "
            f"{sorted(odd)}"
        )
    cursor = {}
    stack = [start]
    out: list[int] = []
    while stack:
        v = stack[-1]
        nbrs = adj[v]
        i = cursor.get(v, 0)
        while i < len(nbrs) and not remaining.get(_norm(v, nbrs[i]), 0):
            i += 1
        cursor[v] = i
        if i == len(nbrs):
            out.append(stack.pop())
        else:
            remaining[_norm(v, nbrs[i])] -= 1
            stack.append(nbrs[i])
    out.reverse()
    if len(out) != total + 1:
        raise NotEulerian("multigraph admits no Eulerian walk from this start")
    return out


def _min_pairing_costs(odd: list[int], dist) -> Callable[[int], int]:
    """cost(mask): the minimum-cost perfect pairing of the odd vertices whose
    bits are set in mask, which must have an even popcount.

    Exact recursion over subsets, computed on demand: cost(mask) pairs the
    lowest member with each other member in turn and adds the cost of the
    rest, so only the masks reachable from the queried ones by removing the
    lowest member and one other are ever computed, and each once. The cost of
    a pair is the shortest-path distance. Raises TooLarge beyond
    PAIRING_LIMIT odd vertices.
    """
    k = len(odd)
    if k > PAIRING_LIMIT:
        raise TooLarge(
            f"route inspection pairs at most {PAIRING_LIMIT} odd-degree vertices, "
            f"graph has {k}"
        )

    @cache
    def cost(mask: int) -> int:
        if not mask:
            return 0
        low = mask & -mask
        rest = mask ^ low
        row = dist[odd[low.bit_length() - 1]]
        best = -1
        sub = rest
        while sub:
            bit = sub & -sub
            cand = cost(rest ^ bit) + row[odd[bit.bit_length() - 1]]
            if best < 0 or cand < best:
                best = cand
            sub ^= bit
        return best

    return cost


def _augmenting_paths(g: Graph, pairs: list[tuple[int, int]]) -> list[Edge]:
    """Edges along a deterministic shortest path for each matched pair."""
    extra: list[Edge] = []
    for a, b in pairs:
        # walk from b back to a, always stepping to the lowest neighbor
        # that decreases the distance to a
        cur = b
        while cur != a:
            nxt = min(u for u in g.adj[cur] if g.dist[a][u] == g.dist[a][cur] - 1)
            extra.append(_norm(cur, nxt))
            cur = nxt
    return extra


def _pairs_from_mask(
    odd: list[int], mask: int, dist, cost: Callable[[int], int]
) -> list[tuple[int, int]]:
    """Recover one optimal pairing for the given subset mask."""
    pairs = []
    while mask:
        lo = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << lo)
        sub = rest
        chosen = None
        while sub:
            j = (sub & -sub).bit_length() - 1
            nmask = rest & ~(1 << j)
            if cost(mask) == cost(nmask) + dist[odd[lo]][odd[j]]:
                chosen = j
                break
            sub &= sub - 1
        pairs.append((odd[lo], odd[chosen]))
        mask = rest & ~(1 << chosen)
    return pairs


def shortest_covering_walk(g: Graph, mode: Mode = "free_endpoints") -> CoveringWalkResult:
    """Provably minimal walk traversing every edge at least once.

    'closed' forces equal endpoints (classical route inspection); the default
    'free_endpoints' also minimizes over distinct start/end. Minimality comes
    from an exact minimum-cost pairing of odd-degree vertices by shortest-path
    distance; in free_endpoints mode all choices of the two unpaired vertices
    are tried.
    """
    if g.m == 0:
        raise EmptyEdgeSet("covering walk needs at least one edge")
    if mode not in ("closed", "free_endpoints"):
        raise ValueError(f"unknown mode {mode!r}")
    odd = [u for u in range(g.n) if g.degree(u) % 2]
    k = len(odd)
    cost = _min_pairing_costs(odd, g.dist)
    full = (1 << k) - 1

    if mode == "closed" or k == 0:
        pairs = _pairs_from_mask(odd, full, g.dist, cost)
        endpoints = None
    else:
        best = None
        best_ij = (0, 1)
        for i in range(k):
            for j in range(i + 1, k):
                mask = full & ~(1 << i) & ~(1 << j)
                c = cost(mask)
                if best is None or c < best:
                    best = c
                    best_ij = (i, j)
        i, j = best_ij
        pairs = _pairs_from_mask(odd, full & ~(1 << i) & ~(1 << j), g.dist, cost)
        endpoints = (odd[i], odd[j])

    extra = _augmenting_paths(g, pairs)
    counts = Counter(g.edges)
    for e in extra:
        counts[e] += 1
    start = min(endpoints) if endpoints else 0
    seq = euler_walk_multigraph(g.adj, counts, start)

    traversed = Counter(_norm(a, b) for a, b in zip(seq, seq[1:]))
    duplicated = []
    for e in sorted(traversed):
        duplicated.extend([e] * (traversed[e] - 1))
    return CoveringWalkResult(
        walk=Walk(tuple(seq)),
        length_edges=len(seq) - 1,
        duplicated=tuple(duplicated),
    )
