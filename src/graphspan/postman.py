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

from .errors import EmptyEdgeSet, InvalidParams, NotEulerian, TooLarge
from .graph import Edge, Graph, _norm
from .walks import Walk

EulerClass = Literal["circuit", "trail", "none"]
Mode = Literal["closed", "free_endpoints"]

# Most odd-degree vertices route inspection pairs. The pairing recursion
# stores only the keys reachable from the one it is asked: for k odd vertices,
# Fibonacci(k + 1) of them in closed mode and twice that with free endpoints,
# 75,025 and 150,050 at this bound (complete(24): 0.2 s and 0.4 s).
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
    0; a trail starts at the lowest odd-degree vertex. This is the shortest
    covering walk with free endpoints, which duplicates nothing here.
    """
    if euler_class(g) == "none":
        raise NotEulerian("graph has more than two odd-degree vertices")
    if g.m == 0:
        return Walk((0,))
    return shortest_covering_walk(g).walk


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


def _min_pairing(dist) -> tuple[Callable[[int], int], dict[int, int]]:
    """cost(mask << 2 | spare): the minimum total distance of a pairing of
    the vertices whose bits are set in mask (bit v is vertex v) that leaves
    at most spare of them unpaired; the popcount of mask must have the
    parity of spare. choice[key] records the decision behind cost(key).

    Exact recursion over subsets, computed on demand: cost(key) takes the
    lowest member and, while spare allows, first leaves it unpaired (choice
    0), then pairs it with each other member in increasing order (choice:
    that member's bit), keeping the first cheapest choice, plus the cost of
    the rest. Only the keys reachable from the queried ones are computed,
    each once. The cost of a pair is the shortest-path distance.
    """
    choice: dict[int, int] = {}

    @cache
    def cost(key: int) -> int:
        mask, spare = key >> 2, key & 3
        if not mask:
            return 0
        low = mask & -mask
        rest = mask ^ low
        row = dist[low.bit_length() - 1]
        best = cost(rest << 2 | spare - 1) if spare else -1
        chosen = 0
        sub = rest
        while sub:
            bit = sub & -sub
            cand = cost((rest ^ bit) << 2 | spare) + row[bit.bit_length() - 1]
            if best < 0 or cand < best:
                best, chosen = cand, bit
            sub ^= bit
        choice[key] = chosen
        return best

    return cost, choice


def _recorded_pairing(choice: dict[int, int], key: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The pairs and the unpaired vertices that choice records from key on."""
    mask, spare = key >> 2, key & 3
    pairs, ends = [], []
    while mask:
        low = mask & -mask
        partner = choice[mask << 2 | spare]
        if partner:
            pairs.append((low.bit_length() - 1, partner.bit_length() - 1))
        else:
            ends.append(low.bit_length() - 1)
            spare -= 1
        mask ^= low | partner
    return pairs, ends


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


def shortest_covering_walk(g: Graph, mode: Mode = "free_endpoints") -> CoveringWalkResult:
    """Provably minimal walk traversing every edge at least once.

    'closed' forces equal endpoints (classical route inspection); the default
    'free_endpoints' also minimizes over distinct start/end. Minimality comes
    from an exact minimum-cost pairing of odd-degree vertices by shortest-path
    distance; in free_endpoints mode the pairing may leave two of them
    unpaired, and the walk runs from the lower of the two to the other.
    """
    if g.m == 0:
        raise EmptyEdgeSet("covering walk needs at least one edge")
    if mode not in ("closed", "free_endpoints"):
        raise InvalidParams(f"unknown mode {mode!r}")
    odd = sum(1 << u for u in range(g.n) if g.degree(u) % 2)
    if odd.bit_count() > PAIRING_LIMIT:
        raise TooLarge(
            f"route inspection pairs at most {PAIRING_LIMIT} odd-degree vertices, "
            f"graph has {odd.bit_count()}"
        )
    cost, choice = _min_pairing(g.dist)
    key = odd << 2 | (0 if mode == "closed" else 2)
    cost(key)
    pairs, ends = _recorded_pairing(choice, key)
    extra = _augmenting_paths(g, pairs)
    counts = Counter(g.edges)
    for e in extra:
        counts[e] += 1
    seq = euler_walk_multigraph(g.adj, counts, ends[0] if ends else 0)
    # the walk crosses each edge counts[e] times: once, plus its extra traversals
    return CoveringWalkResult(
        walk=Walk(tuple(seq)),
        length_edges=len(seq) - 1,
        duplicated=tuple(sorted(extra)),
    )
