"""Closed-form span and minimal-length values for the classical families,
isomorphism-rejecting enumeration of small connected graphs, and the scan
locating the smallest graph whose direct vertex and edge spans differ.

Closed forms are tabulated reference data that the engines must reproduce;
they are not re-derivations.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterator, Optional

from .errors import NoClosedForm, TooLarge, VerificationFailure
from .graph import FamilySpec, Graph, generate, kn_plus
from .spans import Rule, Target, span

ENUMERATION_LIMIT = 7


def closed_span(spec: FamilySpec, rule: Rule, target: Target) -> int:
    """Tabulated reference span value for the family member."""
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


def _vertex_keys(n: int, adj: list[set[int]]) -> list[tuple]:
    deg = [len(a) for a in adj]
    return [(deg[u], tuple(sorted(deg[v] for v in adj[u]))) for u in range(n)]


def canonical_form(g: Graph) -> tuple[int, int]:
    """(order, minimized adjacency bit-string) identifying g up to isomorphism.

    The minimum is taken over all vertex orderings compatible with the
    degree/neighbor-degree refinement, which always includes the image of any
    isomorphism, so equal forms mean isomorphic graphs and conversely.
    """
    return g.n, _canon_bits(g.n, [set(a) for a in g.adj])


def _canon_bits(n: int, adj: list[set[int]]) -> int:
    keys = _vertex_keys(n, adj)
    order = sorted(range(n), key=lambda u: (keys[u], u))
    groups: list[list[int]] = []
    for u in order:
        if groups and keys[groups[-1][0]] == keys[u]:
            groups[-1].append(u)
        else:
            groups.append([u])

    best: Optional[int] = None
    for perm_parts in _group_orderings(groups):
        # position[v] = new index of old vertex v
        position = {}
        idx = 0
        for part in perm_parts:
            for v in part:
                position[v] = idx
                idx += 1
        bits = 0
        for u in range(n):
            pu = position[u]
            for v in adj[u]:
                pv = position[v]
                if pu < pv:
                    bits |= 1 << (pu * n + pv)
        if best is None or bits < best:
            best = bits
    return 0 if best is None else best


def _group_orderings(groups: list[list[int]]) -> Iterator[list[tuple[int, ...]]]:
    if not groups:
        yield []
        return
    head, *tail = groups
    for perm in permutations(head):
        for rest in _group_orderings(tail):
            yield [perm, *rest]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and g.m == h.m and canonical_form(g) == canonical_form(h)


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by direct permutation check (small graphs only)."""
    edge_set = set(g.edges)
    count = 0
    for perm in permutations(range(g.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in edge_set
            for u, v in g.edges
        ):
            count += 1
    return count


def _connected_mask(n: int, pair_list: list[tuple[int, int]], mask: int) -> bool:
    if n == 1:
        return True
    adj = [0] * n
    for i, (u, v) in enumerate(pair_list):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        b = frontier
        while b:
            u = (b & -b).bit_length() - 1
            nxt |= adj[u]
            b &= b - 1
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def enumerate_connected(max_n: int, max_m: Optional[int] = None) -> Iterator[Graph]:
    """All connected simple graphs up to isomorphism, each exactly once,
    ordered by (order, size, canonical form).

    Labeled edge subsets are enumerated per order and deduplicated by
    canonical form; bounded to order 7 where the permutation minimization is
    still exhaustive at desk scale.
    """
    if max_n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration supported up to order {ENUMERATION_LIMIT}")
    for n in range(1, max_n + 1):
        pair_list = list(combinations(range(n), 2))
        by_size: dict[int, dict] = {}
        for mask in range(1 << len(pair_list)):
            m = mask.bit_count()
            if max_m is not None and m > max_m:
                continue
            if m < n - 1:  # connected graphs need at least n-1 edges
                continue
            if not _connected_mask(n, pair_list, mask):
                continue
            edges = [pair_list[i] for i in range(len(pair_list)) if mask >> i & 1]
            adj: list[set[int]] = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            canon = _canon_bits(n, adj)
            bucket = by_size.setdefault(m, {})
            if canon not in bucket:
                bucket[canon] = tuple(edges)
        for m in sorted(by_size):
            for canon in sorted(by_size[m]):
                yield Graph(n, by_size[m][canon])


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


def find_minimal_direct_gap(max_n: int = 5) -> Graph:
    """First graph, scanning by (order, size), whose direct vertex span and
    direct edge span differ.

    Cross-checks that the result is the once-subdivided K4 (order 5, size 7)
    and that the six order-5 graphs of size 5 or 6 with maximum degree 3 all
    report their tabulated direct span values.
    """
    hit: Optional[Graph] = None
    for g in enumerate_connected(max_n):
        sv = span(g, Rule.ACTIVE, Target.VERTICES).value
        se = span(g, Rule.ACTIVE, Target.EDGES).value
        if sv != se:
            hit = g
            break
    if hit is None:
        raise VerificationFailure(f"no direct-span gap found up to order {max_n}")
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


def family_closed_span_checks() -> list[tuple[str, str, str, int, int]]:
    """Engine-vs-table comparison rows: (family, rule, target, table, engine)."""
    rows = []
    cases: list[FamilySpec] = []
    cases += [FamilySpec("path", (n,)) for n in range(2, 9)]
    cases += [FamilySpec("cycle", (n,)) for n in range(3, 9)]
    cases += [FamilySpec("complete", (n,)) for n in range(1, 7)]
    cases += [FamilySpec("kn_plus", (n,)) for n in range(4, 8)]
    for spec in cases:
        g = generate(spec)
        for rule in Rule:
            for target in Target:
                want = closed_span(spec, rule, target)
                got = span(g, rule, target).value
                rows.append((str(spec), rule.value, target.value, want, got))
    return rows


def family_closed_minlen_checks(state_budget: Optional[int] = None) -> list[tuple[str, str, str, int, object]]:
    """Engine-vs-table rows for minimal lengths; capped searches report 'capped'."""
    from .minlen import DEFAULT_STATE_BUDGET, min_length

    budget = DEFAULT_STATE_BUDGET if state_budget is None else state_budget
    rows = []
    cases: list[FamilySpec] = []
    cases += [FamilySpec("path", (n,)) for n in range(2, 9)]
    cases += [FamilySpec("cycle", (n,)) for n in range(3, 9)]
    cases += [FamilySpec("complete", (n,)) for n in range(2, 6)]
    for spec in cases:
        g = generate(spec)
        for rule in Rule:
            for target in Target:
                want = closed_minlen(spec, rule, target)
                rep = min_length(g, rule, target, state_budget=budget)
                got: object = "capped" if rep.capped else rep.length
                rows.append((str(spec), rule.value, target.value, want, got))
    return rows
