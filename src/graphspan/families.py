"""Closed-form span and minimal-length values for the classical families,
isomorphism-rejecting enumeration of small connected graphs, and the scan
locating the smallest graph whose direct vertex and edge spans differ.

Closed forms are tabulated reference data that the engines must reproduce;
they are not re-derivations.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import NoClosedForm, TooLarge, VerificationFailure
from .graph import FamilySpec, Graph, _check_graph, _check_int, _check_spec, kn_plus
from .spans import Rule, Target, _check_variant, span

ENUMERATION_LIMIT = 8
# the canonical search takes time exponential in the order on symmetric
# graphs (complete(14) 0.5 s, cycle(16) 6 s, cycle(18) 67 s)
SEARCH_ORDER_LIMIT = 14


def closed_span(spec: FamilySpec, rule: Rule, target: Target) -> int:
    """Tabulated reference span value for the family member."""
    _check_spec(spec)
    _check_variant(rule, target)
    fam, p = spec.family, spec.params
    if fam == "path":
        n = p[0]
        if n == 1:
            return 0
        if rule is Rule.LAZY:
            return 0
        return 1
    if fam == "cycle":
        n = p[0]
        if rule is Rule.LAZY:
            return (n - 1) // 2 if n % 2 else n // 2 - 1
        return n // 2
    if fam == "complete":
        n = p[0]
        if n == 1:
            return 0
        if n == 2:
            return 0 if rule is Rule.LAZY else 1
        return 1
    if fam == "kn_plus":
        if target is Target.VERTICES:
            return {Rule.TRADITIONAL: 2, Rule.ACTIVE: 2, Rule.LAZY: 1}[rule]
        return {Rule.TRADITIONAL: 2, Rule.ACTIVE: 1, Rule.LAZY: 1}[rule]
    raise NoClosedForm(f"no tabulated span for {spec}")


def closed_minlen(spec: FamilySpec, rule: Rule, target: Target) -> int:
    """Tabulated minimal walk length for the family member."""
    _check_spec(spec)
    _check_variant(rule, target)
    fam, p = spec.family, spec.params
    if fam == "path":
        n = p[0]
        if n < 2:
            raise NoClosedForm("path closed forms start at n = 2")
        if rule is Rule.LAZY:
            return 2 * n - 1
        return n if n % 2 == 0 else n + 1
    if fam == "cycle":
        n = p[0]
        if rule is Rule.LAZY:
            return 2 * n - 1 if target is Target.VERTICES else 2 * n + 1
        return n if target is Target.VERTICES else n + 1
    if fam == "complete":
        n = p[0]
        if n < 2:
            raise NoClosedForm("complete-graph closed forms start at n = 2")
        if target is Target.VERTICES:
            return 2 * n - 1 if rule is Rule.LAZY else n
        if rule is Rule.LAZY:
            return n * n - n + 1 if n % 2 else n * n - 1
        return (n * n - n + 2) // 2 if n % 2 else n * n // 2
    raise NoClosedForm(f"no tabulated minimal length for {spec}")


# ---------------------------------------------------------------------------
# Canonical forms and enumeration
#
# A graph is held as neighbour bitmasks: rows[u] has bit v set when uv is an
# edge. A labeling puts each vertex at a position 0..n-1, and its code has bit
# p*n + q set for each edge between positions p < q. Codes compare position by
# position from n-1 down, on the set of higher positions adjacent to each
# position, so the lowest code is found by filling positions from the top.


def _lowest_positions(n: int, rows: list[int], cells: list[int]) -> tuple[list[int], list, int]:
    """Position of each vertex in a labeling of lowest code that puts a vertex
    of the bitmask cells[p] at every position p, the merges of the search,
    and the number of such lowest labelings.

    Positions are filled from n-1 down; the vertex placed at p fixes the code
    bits of position p, which are its neighbours among the filled positions.
    Only the placements tying the lowest bits so far are kept, and two are
    merged when they leave the same vertices with the same neighbours among
    the filled positions, since every completion then gives both the same bits.

    A merge is the pair (merged placement, kept placement), top position
    first. The map sending the one onto the other and fixing the unplaced
    vertices is an automorphism, and these maps lead every lowest labeling
    onto the returned one, so with cells that every automorphism keeps they
    generate Aut and the lowest labelings number |Aut|. Cells that some
    automorphism does not keep, such as a top cell holding one vertex per
    orbit, still give a labeling of lowest code when they admit one, but
    then the merges and the count are not Aut: a caller passing such cells
    must read only the positions.
    """
    # (unplaced vertices, each vertex's neighbours among the filled positions)
    # -> [the vertices placed so far, top position first; placements it stands for]
    states = {((1 << n) - 1, (0,) * n): [(), 1]}
    merges: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for p in range(n - 1, -1, -1):
        best = -1
        ties: list[tuple[int, int, tuple[int, ...], list]] = []
        for (free, above), entry in states.items():
            cand = free & cells[p]
            while cand:
                low = cand & -cand
                cand ^= low
                x = low.bit_length() - 1
                if above[x] == best:
                    ties.append((x, free, above, entry))
                elif best < 0 or above[x] < best:
                    best = above[x]
                    ties = [(x, free, above, entry)]
        states = {}
        for x, free, above, (placed, count) in ties:
            free ^= 1 << x
            grown = list(above)
            grown[x] = 0
            nbrs = rows[x] & free
            while nbrs:
                y = nbrs & -nbrs
                nbrs ^= y
                grown[y.bit_length() - 1] |= 1 << p
            entry = states.setdefault((free, tuple(grown)), [placed + (x,), 0])
            if entry[1]:
                merges.append((placed + (x,), entry[0]))
            entry[1] += count
    ((_, (placed, count)),) = states.items()
    pos = [0] * n
    for i, x in enumerate(placed):
        pos[x] = n - 1 - i
    return pos, merges, count


def _sift(n: int, merges: list, count: int) -> list[list[int]]:
    """At most n(n-1)/2 generators of the group of ``count`` elements that
    the merge maps generate (Sims' filter). Row i keeps one map fixing 0..i-1
    per image of i; once the product of (1 + row size) reaches ``count``, each
    row with the identity is a full set of coset representatives, and the
    remaining merges add nothing.
    """
    table: list[dict[int, list[int]]] = [{} for _ in range(n)]  # image of i -> map
    size = 1
    for merged, kept in merges:
        if size == count:
            break
        image = dict(zip(merged, kept))
        perm = [image.get(v, v) for v in range(n)]
        for i, row in enumerate(table):
            if perm[i] in row:
                t = row[perm[i]]
                perm = [t.index(v) for v in perm]  # t^-1 after perm fixes 0..i
            elif perm[i] != i:
                size = size // (len(row) + 1) * (len(row) + 2)
                row[perm[i]] = perm
                break
    return [t for row in table for t in row.values()]


def _edges(n: int, rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]


def canonical_form(g: Graph) -> tuple[int, int]:
    """(order, minimized adjacency bit-string) identifying g up to isomorphism.

    The minimum is taken over all vertex orderings compatible with the
    degree/neighbor-degree refinement, which always includes the image of any
    isomorphism, so equal forms mean isomorphic graphs and conversely.
    """
    label = _canonical_answers(g)[0]
    return g.n, _code(g.n, _rows(g), label)


def _canonical_answers(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
    """New label of each vertex, the one canonical_form encodes, generators
    t (sending v to t[v]) of Aut(g) sifted from the same search, and
    |Aut(g)|, from one canonical search per graph, kept on the graph under
    ``"canonical search"``. Relabeling g by the labels gives one graph for
    all graphs isomorphic to g. Raises InvalidParams for a g that is not a
    Graph, and TooLarge above SEARCH_ORDER_LIMIT."""
    _check_graph(g)
    if g.n > SEARCH_ORDER_LIMIT:
        raise TooLarge(f"canonical search supported up to order {SEARCH_ORDER_LIMIT}")

    def compute():
        rows = _rows(g)
        pos, merges, count = _refined_positions(g.n, rows, _keys(rows))
        return tuple(pos), tuple(map(tuple, _sift(g.n, merges, count))), count

    return g._memoized("canonical search", compute)


def _rows(g: Graph) -> list[int]:
    return [sum(1 << v for v in a) for a in g.adj]


def _keys(rows: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Each vertex's (degree, sorted neighbour degrees) key, which every
    automorphism keeps."""
    deg = [r.bit_count() for r in rows]
    keys = []
    for r in rows:
        nbr_degs = []
        while r:
            low = r & -r
            r ^= low
            nbr_degs.append(deg[low.bit_length() - 1])
        nbr_degs.sort()
        keys.append((len(nbr_degs), tuple(nbr_degs)))
    return keys


def _refined_positions(n: int, rows: list[int], keys: list[tuple]) -> tuple[list[int], list, int]:
    """_lowest_positions over the labelings that order the vertices by their
    keys (``_keys(rows)``)."""
    members: dict[tuple, int] = {}
    for v, key in enumerate(keys):
        members[key] = members.get(key, 0) | 1 << v
    return _lowest_positions(n, rows, [members[key] for key in sorted(keys)])


def _code(n: int, rows: list[int], pos: Sequence[int]) -> int:
    code = 0
    for u, r in enumerate(rows):
        r &= -2 << u  # the neighbours above u
        while r:
            low = r & -r
            r ^= low
            a, b = pos[u], pos[low.bit_length() - 1]
            code |= 1 << (a * n + b if a < b else b * n + a)
    return code


def _non_cut(rows: list[int], u: int) -> bool:
    """Whether removing vertex u leaves the graph connected."""
    rest = ((1 << len(rows)) - 1) ^ 1 << u
    seen = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & rest & ~seen
        seen |= new
        frontier |= new
    return seen == rest


def _leading_keys(rows: list[int]) -> Optional[list[tuple[int, tuple[int, ...]]]]:
    """``_keys(rows)`` when no vertex whose removal leaves the graph
    connected has a larger key than the last vertex, else None. Degrees, the
    first part of each key, decide most candidates, so the keys are built
    only when no larger degree does."""
    deg = [r.bit_count() for r in rows]
    if any(d > deg[-1] and _non_cut(rows, u) for u, d in enumerate(deg)):
        return None
    keys = _keys(rows)
    top = keys[-1]
    if any(key[0] == top[0] and key > top and _non_cut(rows, u) for u, key in enumerate(keys)):
        return None
    return keys


def _subset_orbits(n: int, gens) -> tuple[int, ...]:
    """The lowest member of each orbit of the nonempty vertex sets of an
    order-n graph (bit v is vertex v) under the group that the maps t
    (sending v to t[v]) generate, in increasing order."""
    images = []
    for t in gens:
        image = [0]  # image[s] of every set s of the vertices below v
        for v in range(n):
            bit = 1 << t[v]
            image += [x | bit for x in image]
        images.append(image)
    return _lowest_of_orbits(1 << n, images)[1:]


def _lowest_of_orbits(size: int, images: list[list[int]]) -> tuple[int, ...]:
    """The lowest member of each orbit of range(size) under the group that
    the permutations image (sending i to image[i]) generate, in increasing
    order. Each member not yet reached starts an orbit, closed under every
    image."""
    seen = bytearray(size)
    reps = []
    for s in range(size):
        if seen[s]:
            continue
        reps.append(s)
        seen[s] = 1
        orbit = [s]
        for a in orbit:  # grows while it is walked
            for image in images:
                b = image[a]
                if not seen[b]:
                    seen[b] = 1
                    orbit.append(b)
    return tuple(reps)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    _check_graph(g)
    _check_graph(h)
    return g.n == h.n and g.m == h.m and canonical_form(g) == canonical_form(h)


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|: the number of lowest labelings the canonical search finds."""
    return _canonical_answers(g)[2]


def enumerate_connected(max_n: int, max_m: Optional[int] = None) -> Iterator[Graph]:
    """All connected simple graphs of order at most max_n (and size at most
    max_m) up to isomorphism, each exactly once, ordered by (order, size,
    canonical form).

    Order n is grown from the classes of order n-1: vertex n-1 is added with
    one nonempty neighbour set per orbit of the sets under Aut(parent), the
    lowest (``_subset_orbits``). A candidate is dropped before its canonical
    search when a vertex whose removal leaves it connected has a larger
    (degree, sorted neighbour degrees) key than the new vertex
    (``_leading_keys``); the others are deduplicated by canonical form.
    Every class G is still reached: for a non-cut vertex v* of largest key,
    G - v* is a class of order n-1, and the orbit of v*'s neighbours gives
    a candidate isomorphic to G whose new vertex is v*. Each class keeps
    its first candidate, with the generators ``_sift`` takes from the
    merges of its canonical search, which prune its own augmentations at
    the next order. Each class is yielded as its labeled copy with the
    lowest edge bitmask over the pairs (0, 1), (0, 2), ..., (n-2, n-1),
    with pair (n-2, n-1) most significant, found by a search whose top
    position takes the lowest vertex of each orbit of the kept generators;
    that copy and the (order, size, code) order are class invariants, so
    which candidate a class keeps changes no output. Bounded to order 8.
    A max_n or max_m that is not an int raises InvalidParams, and a max_n
    above the bound TooLarge, at the call rather than at the first next().
    """
    _check_int(max_n, "max_n and max_m must be ints")
    if max_m is not None:
        _check_int(max_m, "max_n and max_m must be ints")
    if max_n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration supported up to order {ENUMERATION_LIMIT}")
    return _enumerate(max_n, max_m)


def _enumerate(max_n: int, max_m: Optional[int]) -> Iterator[Graph]:
    # one labeled copy of each class of the previous order, with generators
    # of its automorphism group
    classes: list[tuple[list[int], list[list[int]]]] = []
    for n in range(1, max_n + 1):
        new = 1 << (n - 1)
        found: dict[tuple[int, int], tuple[list[int], list[list[int]]]] = {}
        if n == 1 and (max_m is None or max_m >= 0):
            found[0, 0] = [0], []
        for rows, gens in classes:
            m0 = sum(r.bit_count() for r in rows) // 2
            for nbrs in _subset_orbits(n - 1, gens):
                m = m0 + nbrs.bit_count()
                if max_m is not None and m > max_m:
                    continue
                grown = [r | new if nbrs >> u & 1 else r for u, r in enumerate(rows)]
                grown.append(nbrs)
                keys = _leading_keys(grown)
                if keys is None:
                    continue
                pos, merges, count = _refined_positions(n, grown, keys)
                key = m, _code(n, grown, pos)
                if key not in found:
                    found[key] = grown, _sift(n, merges, count)
        classes = [found[key] for key in sorted(found)]
        cells = [(1 << n) - 1] * n
        for rows, gens in classes:
            cells[-1] = sum(1 << v for v in _lowest_of_orbits(n, gens))
            pos = _lowest_positions(n, rows, cells)[0]
            yield Graph(n, [(pos[u], pos[v]) for u, v in _edges(n, rows)])


# ---------------------------------------------------------------------------
# The minimality scan

# The six connected graphs of order 5, size 5 or 6, maximum degree 3, listed
# with their direct (active-rule) span values; both the vertex and the edge
# variant take the stated value on each of them.
ORDER5_SMALL_GRAPHS: tuple[tuple[tuple[tuple[int, int], ...], int], ...] = (
    (((0, 3), (1, 2), (2, 3), (2, 4), (3, 4)), 1),
    (((0, 1), (0, 3), (2, 3), (2, 4), (3, 4)), 1),
    (((0, 1), (0, 3), (1, 2), (2, 3), (3, 4)), 2),
    (((0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4)), 2),
    (((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)), 1),
    (((0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)), 2),
)


def find_minimal_direct_gap() -> Graph:
    """First graph, scanning by (order, size) up to order 5, whose direct
    vertex span and direct edge span differ.

    Cross-checks that the result is the once-subdivided K4 (order 5, size 7)
    and that the six order-5 graphs of size 5 or 6 with maximum degree 3 all
    report their tabulated direct span values.
    """
    for hit in enumerate_connected(5):
        if span(hit, Rule.ACTIVE, Target.VERTICES).value != span(hit, Rule.ACTIVE, Target.EDGES).value:
            break
    else:
        raise VerificationFailure("no direct-span gap found up to order 5")
    if not (hit.n == 5 and hit.m == 7 and is_isomorphic(hit, kn_plus(4))):
        raise VerificationFailure(
            f"first gap graph has order {hit.n}, size {hit.m}; expected the"
            " once-subdivided K4 (order 5, size 7)"
        )
    for edges, expected in ORDER5_SMALL_GRAPHS:
        g = Graph(5, edges)
        sv = span(g, Rule.ACTIVE, Target.VERTICES).value
        se = span(g, Rule.ACTIVE, Target.EDGES).value
        if sv != expected or se != expected:
            raise VerificationFailure(
                f"order-5 reference graph {edges} reports ({sv}, {se}),"
                f" expected ({expected}, {expected})"
            )
    return hit

