"""Graph representation, parsing, family generators, and metric computations.

Vertices are 0-based integers internally; user-facing renderings use the
1-based names v1..vn.
"""

from __future__ import annotations

from bisect import bisect_left
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
    InvalidVertex,
    MalformedInput,
    SelfLoop,
    TooLarge,
)

Edge = tuple[int, int]

# the largest family graph order or edge-list vertex count that FamilySpec,
# the generators and the parsers accept:
# `span --family path:1000` takes about 2.5 s and peaks at 142 MB RSS
# (2 cores, Python 3.11), and an unchecked count can ask for more memory
# than there is, or overflow
ORDER_LIMIT = 1000


def _is_int(value) -> bool:
    """True for an int that is not a bool: what every count, endpoint,
    family parameter, threshold and budget argument must be."""
    return isinstance(value, int) and not isinstance(value, bool)


# One check per argument kind, each called once where a public function
# takes the argument, before any work; InvalidParams names what was wrong.


def _check_int(value, requirement: str, least: int | None = None) -> None:
    """Raise InvalidParams, naming the requirement, unless value is an int
    (not a bool) and, when least is given, at least least."""
    if not (_is_int(value) and (least is None or value >= least)):
        raise InvalidParams(f"{requirement}, got {value!r}")


def _check_text(text) -> None:
    """Raise InvalidParams unless text is a str."""
    if not isinstance(text, str):
        raise InvalidParams(f"expected text (a str), got {text!r}")


def _check_graph(g) -> None:
    """Raise InvalidParams unless g is a Graph."""
    if not isinstance(g, Graph):
        raise InvalidParams(f"expected a Graph, got {g!r}")


def _check_spec(spec) -> None:
    """Raise InvalidParams unless spec is a FamilySpec."""
    if not isinstance(spec, FamilySpec):
        raise InvalidParams(f"expected a FamilySpec, got {spec!r}")


def _check_family(family, params) -> None:
    """Raise InvalidParams unless family names a family of ``_FAMILIES`` and
    params is a tuple of as many ints as it takes, each at least its least
    parameter, and TooLarge when a parameter or the order of the graph is
    above ORDER_LIMIT, before any edge is built."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InvalidParams(f"unknown family {family!r}")
    if not isinstance(params, tuple):
        raise InvalidParams(f"{family} parameters must be a tuple, got {params!r}")
    _, arity, least = _FAMILIES[family]
    if len(params) != arity:
        raise InvalidParams(f"{family} takes {arity} parameter(s), got {len(params)}")
    for p in params:
        _check_int(p, f"{family} parameters must be ints >= {least}", least)
        if p > ORDER_LIMIT:
            raise TooLarge(f"{family} parameter {p} above the limit {ORDER_LIMIT}")
    # each family's order is the sum of its parameters, plus the
    # subdivision vertex of kn_plus
    order = sum(params) + (family == "kn_plus")
    if order > ORDER_LIMIT:
        raise TooLarge(f"{family} order {order} above the limit {ORDER_LIMIT}")


def _edge_pair(edge) -> Edge:
    """The endpoints (u, v) of edge, after InvalidParams unless it is a
    pair of ints."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise InvalidParams(f"each edge must be a (u, v) pair, got {edge!r}") from None
    # the type tests spare plain ints the calls
    if not ((type(u) is int or _is_int(u)) and (type(v) is int or _is_int(v))):
        raise InvalidParams(f"edge endpoints must be ints, got ({u!r}, {v!r})")
    return u, v


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

    Construction runs one BFS, from vertex 0, which decides connectivity.
    Everything derived from the graph alone is computed on first use and
    kept in ``_memo``, which only ``_memoized`` reads, so every later query
    on the same instance reads it: the all-pairs distance table ``dist``
    (hop metric) and the ``radius``, which route inspection, ``classify``
    and ``is_opposite_lazy`` never read, and every engine table. Each key is a string, or a
    tuple whose first item is a string, and belongs to one module, which
    documents it where it stores it (``tests/test_source.py`` checks both).

    Instances are immutable otherwise, and safe to share between threads.
    Each stored value is computed from the graph only, and it is stored
    with one ``dict.setdefault``: two threads that compute it at once store
    one copy and both return it. A stored value that grows afterwards grows
    the same way, by entries computed from the graph only and stored with
    one ``dict.setdefault``, so a reader sees either no entry or the whole
    entry.
    """

    __slots__ = ("n", "edges", "adj", "_memo")

    def __init__(self, n: int, edges: Iterable[Edge]):
        _check_int(n, "vertex count must be a positive int", 1)
        seen: set[Edge] = set()
        try:
            edges = iter(edges)
        except TypeError:
            raise InvalidParams(f"edges must be an iterable of (u, v) pairs, got {edges!r}") from None
        for edge in edges:
            u, v = _edge_pair(edge)
            _add_edge(seen, n, u, v)
        if len(seen) < n - 1:
            raise DisconnectedInput("graph is not connected")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))

        # the sorted edge list gives v's edges (u, v), u < v, by u, before
        # its edges (v, w), by w, so each row comes out increasing
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbrs))

        if -1 in _bfs_distances(self.adj, 0, n):
            raise DisconnectedInput("graph is not connected")
        self._memo: dict = {}

    @property
    def dist(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs distances, one BFS per row, kept under ``"dist"``."""
        return self._memoized("dist", lambda: tuple(
            tuple(_bfs_distances(self.adj, s, self.n)) for s in range(self.n)))

    @property
    def radius(self) -> int:
        """The least eccentricity, kept under ``"radius"``."""
        return self._memoized("radius", lambda: min(map(max, self.dist)))

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
        """Number of neighbours of u; InvalidVertex unless u is an int
        (not a bool) in 0..n-1."""
        if not (_is_int(u) and 0 <= u < self.n):
            raise InvalidVertex(f"{u!r} is not a vertex of a graph of order {self.n}")
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff uv is an edge; False for ints outside 0..n-1, and
        InvalidVertex for an argument that is not an int, or is a bool."""
        # the type tests spare plain ints the calls
        if not ((type(u) is int or _is_int(u)) and (type(v) is int or _is_int(v))):
            raise InvalidVertex(f"edge ends must be int vertices, got ({u!r}, {v!r})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self.dist)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bfs_distances(adj, src: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[src] = 0
    order = [src]
    for u in order:  # grows while it is walked
        d = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = d
                order.append(v)
    return dist


def _incidence(g: Graph) -> list[list[tuple[int, int]]]:
    """rows[v] lists (neighbour, edge index) for each edge of v, in
    increasing neighbour order, as ``g.adj[v]`` does: both are filled from
    the sorted edge list."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        rows[u].append((v, i))
        rows[v].append((u, i))
    return rows


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
    _check_text(text)
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
    _check_text(text)
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
    """A named graph family plus its integer parameters, whose graph has
    order at most ORDER_LIMIT: ``_check_family`` rules on both at
    construction, as each generator does on its own parameters."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        _check_family(self.family, self.params)

    @classmethod
    def from_string(cls, text: str) -> "FamilySpec":
        """Parse 'name:params' as used by the CLI, e.g. 'kn_plus:5' or
        'complete_bipartite:2,3'."""
        _check_text(text)
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
    _check_family("path", (n,))
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _check_family("cycle", (n,))
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _check_family("complete", (n,))
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    _check_family("complete_bipartite", (a, b))
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(n: int) -> Graph:
    """Star of order n (center 0 with n-1 leaves)."""
    _check_family("star", (n,))
    return Graph(n, [(0, i) for i in range(1, n)])


def kn_plus(n: int) -> Graph:
    """Complete graph of order n with the edge {0, n-1} subdivided.

    Vertices 0..n-1 are the original complete-graph vertices; vertex n is the
    subdivision vertex, adjacent exactly to 0 and n-1.
    """
    _check_family("kn_plus", (n,))
    edges = [e for e in combinations(range(n), 2) if e != (0, n - 1)]
    edges += [(0, n), (n - 1, n)]
    return Graph(n + 1, edges)


# family -> (generator, parameter count, least parameter), read by
# _check_family
_FAMILIES = {
    "path": (path, 1, 1),
    "cycle": (cycle, 1, 3),
    "complete": (complete, 1, 1),
    "complete_bipartite": (complete_bipartite, 2, 1),
    "star": (star, 1, 1),
    "kn_plus": (kn_plus, 1, 4),
}


def generate(spec: FamilySpec) -> Graph:
    """Instantiate a family member with canonical labeling."""
    _check_spec(spec)
    return _FAMILIES[spec.family][0](*spec.params)


# ---------------------------------------------------------------------------
# Local modifications


def subdivide_edge(g: Graph, e: Edge) -> Graph:
    """Replace edge uv with the two-edge path u-w-v through a new vertex w."""
    _check_graph(g)
    e = _norm(*_edge_pair(e))
    if not g.has_edge(*e):
        raise EdgeNotPresent(f"edge {e} not in graph")
    w = g.n
    edges = [f for f in g.edges if f != e]
    edges += [(e[0], w), (e[1], w)]
    return Graph(g.n + 1, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge, adjacent when the edges share an endpoint."""
    _check_graph(g)
    if g.m == 0:
        raise EmptyEdgeSet("line graph needs at least one edge")
    # two edges of a simple graph share at most one end, so each pair of
    # edges at a vertex is listed once
    edges = [(i, j) for row in _incidence(g) for (_, i), (_, j) in combinations(row, 2)]
    return Graph(g.m, edges)

