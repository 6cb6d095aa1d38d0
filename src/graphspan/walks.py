"""Walks over a graph: tracks, sweeps, their lazy variants, and pair distance.

A walk is a finite sequence of vertices indexed 1..l. A track visits every
vertex and moves along an edge at every step; the lazy variant may also stay
put. A sweep is a track whose steps cover every edge; edge coverage is
undirected, so traversing an edge in either direction counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams, InvalidVertex, LengthMismatch, MalformedInput, NotATrack
from .graph import Graph, _check_graph, _check_int, _check_text, _content_lines, _digits, _is_int, _norm


@dataclass(frozen=True)
class Walk:
    """Vertex sequence of length l >= 1 (the number of entries), stored as
    a tuple; a seq that is not iterable raises InvalidParams. The entries
    are not checked here but by each function that reads them
    (``_check_vertices``)."""

    seq: tuple[int, ...]

    def __post_init__(self):
        try:
            seq = tuple(self.seq)
        except TypeError:
            raise InvalidParams(f"a walk needs an iterable of vertices, got {self.seq!r}") from None
        if not seq:
            raise MalformedInput("a walk needs at least one entry")
        object.__setattr__(self, "seq", seq)

    @property
    def l(self) -> int:
        return len(self.seq)

    def step_pairs(self):
        """Consecutive entry pairs, in walk order."""
        return zip(self.seq, self.seq[1:])

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class WalkClass:
    is_track: bool
    is_lazy_track: bool
    is_sweep: bool
    is_lazy_sweep: bool


def _check_vertices(w: Walk, n: float = math.inf) -> None:
    """Raise InvalidParams unless w is a Walk, then InvalidVertex for the
    first entry of w that is not an int in 0..n-1, where n is the order of
    the graph, or any non-negative int where no graph is passed; a bool is
    not taken for an int."""
    if not isinstance(w, Walk):
        raise InvalidParams(f"expected a Walk, got {w!r}")
    for x in w.seq:
        # the type test spares a plain int the call
        if not (type(x) is int or _is_int(x)) or not 0 <= x < n:
            of = f" of a graph of order {n}" if n < math.inf else ""
            raise InvalidVertex(f"walk entry {x!r} is not a vertex{of}")


def classify(g: Graph, w: Walk) -> WalkClass:
    """Compute all four walk-class flags for w relative to g."""
    _check_graph(g)
    _check_vertices(w, g.n)
    strict = True
    lazy = True
    covered = set()
    for a, b in w.step_pairs():
        if a == b:
            strict = False
        elif g.has_edge(a, b):
            covered.add(_norm(a, b))
        else:
            strict = False
            lazy = False
    surjective = len(set(w.seq)) == g.n
    covers_all = len(covered) == g.m
    is_track = strict and surjective
    is_lazy_track = lazy and surjective
    return WalkClass(
        is_track=is_track,
        is_lazy_track=is_lazy_track,
        is_sweep=is_track and covers_all,
        is_lazy_sweep=is_lazy_track and covers_all,
    )


def _check_pair(g: Graph, f: Walk, h: Walk) -> None:
    """Raise InvalidParams unless g is a Graph, then ``_check_vertices`` of
    f, then of h, then LengthMismatch unless they have equal lengths."""
    _check_graph(g)
    _check_vertices(f, g.n)
    _check_vertices(h, g.n)
    if f.l != h.l:
        raise LengthMismatch(f"walk lengths differ: {f.l} != {h.l}")


def pair_distance(g: Graph, f: Walk, h: Walk) -> int:
    """Minimum over positions of the graph distance between simultaneous entries."""
    _check_pair(g, f, h)
    dist = g.dist
    return min(dist[a][b] for a, b in zip(f.seq, h.seq))


def is_opposite_lazy(g: Graph, f: Walk, h: Walk) -> bool:
    """True iff at every step exactly one of the two walks moves along an edge.

    Walks whose steps are neither a stay nor an edge traversal are not valid
    lazy walks, so the pair is reported as not opposite.
    """
    _check_pair(g, f, h)
    for (a, b), (c, d) in zip(f.step_pairs(), h.step_pairs()):
        f_moves = a != b
        h_moves = c != d
        if f_moves and not g.has_edge(a, b):
            return False
        if h_moves and not g.has_edge(c, d):
            return False
        if f_moves == h_moves:
            return False
    return True


def induce_opposite(f: Walk, h: Walk) -> tuple[Walk, Walk]:
    """Interleave two equal-length stay-free walks into an opposite lazy pair.

    The outputs f', h' have length 2l-1 and satisfy
    f'(i) = f(ceil((i+1)/2)) and h'(i) = h(ceil(i/2)) with 1-based indices:
    f' moves at odd steps, h' at even steps, each replaying its input's steps
    in order (so sweeps induce lazy sweeps over the same edge sets).
    """
    _check_vertices(f)
    _check_vertices(h)
    if f.l != h.l:
        raise LengthMismatch(f"walk lengths differ: {f.l} != {h.l}")
    for w in (f, h):
        for a, b in w.step_pairs():
            if a == b:
                raise NotATrack("stay-step found; inputs must move at every step")
    l = f.l
    fseq = tuple(f.seq[(i + 2) // 2 - 1] for i in range(1, 2 * l))
    hseq = tuple(h.seq[(i + 1) // 2 - 1] for i in range(1, 2 * l))
    return Walk(fseq), Walk(hseq)


# ---------------------------------------------------------------------------
# Fixture serialization: comma-separated 1-based vertex names on one line.


def format_walk(w: Walk) -> str:
    _check_vertices(w)
    return ",".join(f"v{x + 1}" for x in w.seq)


def parse_walk(text: str, n: int) -> Walk:
    """Parse 'v1,v2,...' (1-based names) of the vertices of a graph of
    order n; '#' lines and blanks are skipped."""
    _check_text(text)
    _check_int(n, "order must be a positive int", 1)
    lines = _content_lines(text)
    if not lines:
        raise MalformedInput("no walk line found")
    if len(lines) > 1:
        raise MalformedInput("walk file holds more than one walk line")
    line = lines[0][1]
    seq = []
    for token in line.split(","):
        token = token.strip()
        if not token.startswith("v"):
            raise MalformedInput(f"bad vertex token {token!r}")
        try:
            idx = _digits(token[1:]) - 1
        except ValueError:
            raise MalformedInput(f"bad vertex token {token!r}") from None
        if not 0 <= idx < n:
            raise InvalidVertex(f"vertex {token} outside v1..v{n}")
        seq.append(idx)
    return Walk(tuple(seq))
