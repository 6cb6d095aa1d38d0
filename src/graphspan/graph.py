"""Graph representation, parsing, family generators, and metric computations.

Vertices are 0-based integers internally; user-facing renderings use the
1-based names v1..vn.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import (
    DisconnectedInput,
    DuplicateEdge,
    EdgeNotPresent,
    EmptyEdgeSet,
    IndexOutOfRange,
    InvalidParams,
    MalformedInput,
    SelfLoop,
    TooLarge,
)

Edge = tuple[int, int]

# the largest family parameter or edge-list vertex count the parsers accept:
# `span --family path:1000` takes 15-20 s and 615 MB (2 cores, Python 3.11),
# and an unchecked count can ask for more memory than there is, or overflow
ORDER_LIMIT = 1000


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _add_edge(seen: set[Edge], n: int, u: int, v: int) -> None:
    """Add edge uv to seen, or raise IndexOutOfRange, SelfLoop or
    DuplicateEdge when it leaves 0..n-1, is a loop or is already in seen."""
    if not (0 <= u < n and 0 <= v < n):
        raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
    if u == v:
        raise SelfLoop(f"loop at vertex {u}")
    e = _norm(u, v)
    if e in seen:
        raise DuplicateEdge(f"edge {e} listed twice")
    seen.add(e)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of every line of text that is neither
    blank nor a '#' comment; LF and CRLF both end a line."""
    lines = ((lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), 1))
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def _digits(token: str) -> int:
    """Value of a token of ASCII decimal digits; ValueError for anything else,
    including the signs, underscores and non-ASCII digits that int() takes."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


class Graph:
    """Simple undirected finite connected graph.

    All-pairs distances (hop metric) and the radius are computed once at
    construction; instances are immutable afterwards and safe to share
    between threads.

    Answers derived from the graph alone (the span pass of each rule, the
    pairs grouped by span-pass level under ``"levels"``, the coverage table
    per target under ``("cover", target)`` that the span pass, the witness
    BFS and the minimal-length search read, the canonical search, the
    canonical copy the minimal-length search runs on, and that copy's bound
    table per target under ``("bound", target)``) are computed on first use
    and kept in ``_memo``, so every later query on the same instance reads
    them. Each stored value is computed from the graph only, and it is
    stored with one ``dict.setdefault``: two threads that compute it at once
    store one copy and both return it, so sharing a graph between threads
    stays safe. All of them are immutable tuples but the bound table, which
    grows by one row per coverage word a search meets. A row depends on the
    graph and its word only, so two threads that compute it at once produce
    the same bytes, and it is stored with one ``dict.setdefault``, so a
    reader sees either no row or the whole row.
    """

    __slots__ = ("n", "edges", "adj", "dist", "radius", "_memo")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 1:
            raise InvalidParams(f"vertex count must be positive, got {n}")
        seen: set[Edge] = set()
        for u, v in edges:
            _add_edge(seen, n, u, v)
        if len(seen) < n - 1:
            raise DisconnectedInput("graph is not connected")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))

        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in nbrs)

        # one BFS row decides connectivity before the n^2 table is built
        row0 = _bfs_distances(self.adj, 0, n)
        if -1 in row0:
            raise DisconnectedInput("graph is not connected")
        self.dist: tuple[tuple[int, ...], ...] = (tuple(row0),) + tuple(
            tuple(_bfs_distances(self.adj, s, n)) for s in range(1, n)
        )
        self.radius = min(max(row) for row in self.dist)
        self._memo: dict = {}

    def _memoized(self, key, compute):
        """The value stored under key, computed by compute() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, compute())

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.dist[u][v] == 1

    def edge_index(self, u: int, v: int) -> int:
        """Position of the edge in the sorted edge tuple (used as a bit
        index); KeyError if uv is not an edge."""
        e = _norm(u, v)
        i = bisect_left(self.edges, e)
        if i == len(self.edges) or self.edges[i] != e:
            raise KeyError(e)
        return i

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self.dist)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bfs_distances(adj, src: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# ---------------------------------------------------------------------------
# Parsing


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Grammar: the first non-comment line holds the vertex count n; every
    following non-comment line holds one edge "u v" with 0 <= u, v < n and
    u != v, its endpoints in either order ("1 0" is the edge "0 1").
    Lines starting with '#' and blank lines are ignored; LF and CRLF both
    accepted. A vertex count above ORDER_LIMIT raises TooLarge before any
    edge is read.
    """
    n: int | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, line in _content_lines(text):
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise MalformedInput(f"line {lineno}: expected vertex count, got {line!r}")
            try:
                n = _digits(parts[0])
            except ValueError:
                raise MalformedInput(
                    f"line {lineno}: vertex count must be a decimal integer, got {parts[0]!r}"
                ) from None
            if n < 1:
                raise MalformedInput(f"line {lineno}: vertex count must be positive")
            if n > ORDER_LIMIT:
                raise TooLarge(f"line {lineno}: vertex count {n} above the limit {ORDER_LIMIT}")
            continue
        if len(parts) != 2:
            raise MalformedInput(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = _digits(parts[0]), _digits(parts[1])
        except ValueError:
            raise MalformedInput(
                f"line {lineno}: endpoints must be decimal integers, got {line!r}"
            ) from None
        try:
            _add_edge(seen, n, u, v)
        except (IndexOutOfRange, SelfLoop, DuplicateEdge) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        edges.append((u, v))
    if n is None:
        raise MalformedInput("missing vertex count line")
    return Graph(n, edges)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (short form, at most 62 vertices)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    if not s:
        raise MalformedInput("graph6: empty string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise MalformedInput("graph6: characters must be in the range 63..126")
    if data[0] == 63:
        raise MalformedInput("graph6: long form (more than 62 vertices) not supported")
    n = data[0]
    if n < 1:
        raise MalformedInput("graph6: graph must have at least one vertex")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise MalformedInput(f"graph6: payload has {len(data) - 1} bytes, expected {need}")
    bits = []
    for b in data[1:]:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise MalformedInput("graph6: payload has nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Families

@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters, each at most
    ORDER_LIMIT."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in _GENERATORS:
            raise InvalidParams(f"unknown family {self.family!r}")
        arity = _GENERATORS[self.family].__code__.co_argcount
        if len(self.params) != arity:
            raise InvalidParams(
                f"{self.family} takes {arity} parameter(s), got {len(self.params)}"
            )
        for p in self.params:
            if p > ORDER_LIMIT:
                raise TooLarge(f"{self.family} parameter {p} above the limit {ORDER_LIMIT}")

    @classmethod
    def from_string(cls, text: str) -> "FamilySpec":
        """Parse 'name:params' as used by the CLI, e.g. 'kn_plus:5' or
        'complete_bipartite:2,3'."""
        name, sep, rest = text.partition(":")
        if not sep or not rest:
            raise InvalidParams(f"expected 'family:params', got {text!r}")
        params = []
        for token in rest.split(","):
            try:
                params.append(_digits(token.strip()))
            except ValueError:
                raise MalformedInput(f"non-integer parameter {token!r} in {text!r}") from None
        return cls(name.strip(), tuple(params))

    def __str__(self) -> str:
        return f"{self.family}({', '.join(map(str, self.params))})"


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidParams("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParams("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParams("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidParams("complete bipartite needs both part sizes >= 1")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(n: int) -> Graph:
    """Star of order n (center 0 with n-1 leaves)."""
    if n < 1:
        raise InvalidParams("star needs n >= 1")
    return Graph(n, [(0, i) for i in range(1, n)])


def kn_plus(n: int) -> Graph:
    """Complete graph of order n with the edge {0, n-1} subdivided.

    Vertices 0..n-1 are the original complete-graph vertices; vertex n is the
    subdivision vertex, adjacent exactly to 0 and n-1.
    """
    if n < 4:
        raise InvalidParams("kn_plus needs n >= 4")
    edges = [e for e in combinations(range(n), 2) if e != (0, n - 1)]
    edges += [(0, n), (n - 1, n)]
    return Graph(n + 1, edges)


_GENERATORS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "star": star,
    "kn_plus": kn_plus,
}


def generate(spec: FamilySpec) -> Graph:
    """Instantiate a family member with canonical labeling."""
    return _GENERATORS[spec.family](*spec.params)


# ---------------------------------------------------------------------------
# Local modifications


def subdivide_edge(g: Graph, e: Edge) -> Graph:
    """Replace edge uv with the two-edge path u-w-v through a new vertex w."""
    e = _norm(*e)
    if not g.has_edge(*e):
        raise EdgeNotPresent(f"edge {e} not in graph")
    w = g.n
    edges = [f for f in g.edges if f != e]
    edges += [(e[0], w), (e[1], w)]
    return Graph(g.n + 1, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge, adjacent when the edges share an endpoint."""
    if g.m == 0:
        raise EmptyEdgeSet("line graph needs at least one edge")
    edges = []
    for i, j in combinations(range(g.m), 2):
        a, b = g.edges[i], g.edges[j]
        if set(a) & set(b):
            edges.append((i, j))
    return Graph(g.m, edges)

