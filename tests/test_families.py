"""family-oracle: closed forms, enumeration, and the minimality scan."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations, takewhile
from math import factorial

import pytest
from hypothesis import given, settings

from graphspan import (
    FamilySpec,
    Graph,
    InvalidParams,
    NoClosedForm,
    Rule,
    Target,
    TooLarge,
    VerificationFailure,
    closed_minlen,
    closed_span,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    find_minimal_direct_gap,
    kn_plus,
    path,
    span,
    star,
)
from graphspan import families
from graphspan.minlen import DEFAULT_STATE_BUDGET
from graphspan.families import (
    ORDER5_SMALL_GRAPHS,
    SEARCH_ORDER_LIMIT,
    _canonical_answers,
    _code,
    _keys,
    _leading_keys,
    _lowest_of_orbits,
    _lowest_positions,
    _rows,
    _subset_orbits,
    automorphism_count,
    canonical_form,
    is_isomorphic,
)
from graphspan.cli import family_closed_checks, main

from oracles import (
    brute_force_subset_orbits,
    connected_graphs,
    count_engine_calls,
    corpus,
    distance_preserving_permutations,
    reference_canon_bits,
    reference_enumerate_connected,
)


class TestClosedForms:
    def test_span_examples(self):
        assert closed_span(FamilySpec("path", (7,)), Rule.TRADITIONAL, Target.EDGES) == 1
        assert closed_span(FamilySpec("kn_plus", (6,)), Rule.ACTIVE, Target.EDGES) == 1
        assert closed_span(FamilySpec("cycle", (7,)), Rule.LAZY, Target.VERTICES) == 3

    def test_minlen_examples(self):
        assert closed_minlen(FamilySpec("path", (6,)), Rule.LAZY, Target.EDGES) == 11
        assert closed_minlen(FamilySpec("cycle", (4,)), Rule.ACTIVE, Target.VERTICES) == 4
        assert closed_minlen(FamilySpec("complete", (5,)), Rule.LAZY, Target.EDGES) == 21

    def test_single_vertex_graphs(self):
        # K1 has span 0 under every rule, and no minimal-length closed form
        for rule in Rule:
            for target in Target:
                assert closed_span(FamilySpec("path", (1,)), rule, target) == 0
                with pytest.raises(NoClosedForm, match="start at n = 2"):
                    closed_minlen(FamilySpec("complete", (1,)), rule, target)

    def test_no_closed_form(self):
        with pytest.raises(NoClosedForm):
            closed_span(FamilySpec("complete_bipartite", (2, 3)), Rule.ACTIVE, Target.EDGES)
        with pytest.raises(NoClosedForm):
            closed_span(FamilySpec("star", (5,)), Rule.ACTIVE, Target.VERTICES)
        with pytest.raises(NoClosedForm):
            closed_minlen(FamilySpec("path", (1,)), Rule.ACTIVE, Target.VERTICES)
        with pytest.raises(NoClosedForm):
            closed_minlen(FamilySpec("kn_plus", (5,)), Rule.ACTIVE, Target.VERTICES)

    @pytest.mark.parametrize("closed", [closed_span, closed_minlen])
    def test_rule_and_target_must_be_members(self, closed):
        # the string "lazy" failed every `is Rule.LAZY` test, so
        # closed_span answered 3, the non-lazy value, for a lazy span of 2
        spec = FamilySpec("cycle", (6,))
        with pytest.raises(InvalidParams, match="rule must be a Rule, got 'lazy'"):
            closed(spec, "lazy", Target.EDGES)
        with pytest.raises(InvalidParams, match="target must be a Target, got 'edges'"):
            closed(spec, Rule.LAZY, "edges")
        assert closed_span(spec, Rule.LAZY, Target.EDGES) == 2

    def test_span_table_cross_validation(self):
        # the span rows come first; stop before the minimal-length searches run
        rows = list(takewhile(lambda row: row[0] == "span", family_closed_checks(0)))
        assert len(rows) == 23 * 6
        for _, family, rule, target, want, got in rows:
            assert want == got, (family, rule, target)

    def test_minlen_table_cross_validation(self):
        rows = [row for row in family_closed_checks(DEFAULT_STATE_BUDGET) if row[0] == "minlen"]
        assert len(rows) == 19 * 6
        for _, family, rule, target, want, got in rows:
            assert got != "capped", (family, rule, target)
            assert want == got, (family, rule, target)

    def test_checks_list_span_rows_first(self):
        kinds = [row[0] for row in family_closed_checks(0)]
        assert kinds == ["span"] * (23 * 6) + ["minlen"] * (19 * 6)


class TestEnumeration:
    @pytest.mark.parametrize("args", [(2.5,), ("3",), (True,), (3, 2.0), (3, False), (3, "2")])
    def test_non_int_bounds_rejected(self, args):
        # 2.5 and "3" failed with a bare TypeError, and True enumerated
        # order 1
        with pytest.raises(InvalidParams, match="max_n and max_m must be ints"):
            list(enumerate_connected(*args))

    def test_small_counts(self):
        assert len(list(enumerate_connected(3, 3))) == 4
        assert len(list(enumerate_connected(4))) == 10
        assert len(list(enumerate_connected(5))) == 31

    def test_counts_per_order(self):
        # OEIS A001349: connected graphs on n unlabeled nodes
        by_order = {}
        for g in enumerate_connected(7):
            by_order[g.n] = by_order.get(g.n, 0) + 1
        assert by_order == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

    def test_matches_reference_subset_scan(self):
        # same classes, order and representative labelings as scanning every
        # labeled edge subset and keeping the lowest mask of each class
        for max_n in range(1, 7):
            for max_m in (None, *range(16)):
                got = [(g.n, g.edges) for g in enumerate_connected(max_n, max_m)]
                want = [(g.n, g.edges) for g in reference_enumerate_connected(max_n, max_m)]
                assert got == want, (max_n, max_m)

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(7))
    def test_canonical_form_matches_reference(self, g):
        assert canonical_form(g) == (g.n, reference_canon_bits(g.n, [set(a) for a in g.adj]))

    def test_one_neighbour_set_per_orbit(self):
        # a parent is grown by the lowest neighbour set of each orbit of
        # Aut(parent), with the generators of its own canonical search
        for g in corpus(5):
            gens = _canonical_answers(g)[1]
            assert list(_subset_orbits(g.n, gens)) == brute_force_subset_orbits(g), g.edges

    def test_one_canonical_search_per_orbit_of_neighbour_sets(self, monkeypatch):
        # 144 candidates up to order 6 lead by key and are searched, against
        # 388 orbits of neighbour sets and 759 neighbour sets of the parents;
        # the final lowest labeling of each class is not counted
        _, searches, _ = count_engine_calls(monkeypatch)
        list(enumerate_connected(6))
        assert len(searches) == 144
        assert [searches.count(n) for n in range(1, 7)] == [0, 1, 2, 6, 21, 114]

    def test_candidates_whose_new_vertex_does_not_lead_are_rejected(self):
        # vertex 4 is the new one, as in every candidate
        def rows(edges):
            return _rows(Graph(5, edges))

        # C4 plus a pendant 4 at 0: vertices 1, 2 and 3 have a larger degree
        # and leave the graph connected without them
        assert _leading_keys(rows([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])) is None
        # a spider with legs 1, 2 and 3-4: leaf 1 has the degree of leaf 4
        # but a neighbour of degree 3 against 2
        assert _leading_keys(rows([(0, 1), (0, 2), (0, 3), (3, 4)])) is None
        # a star grown by leaf 4, and the path 0-1-2-3 grown at its end:
        # every vertex of larger key is a cut vertex, and the other leaves
        # tie with 4
        for edges in ([(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 1), (1, 2), (2, 3), (3, 4)]):
            assert _leading_keys(rows(edges)) == _keys(rows(edges)), edges

    def test_lowest_search_from_orbit_representatives(self):
        # a top cell holding the lowest vertex of each orbit still admits a
        # labeling of lowest code, so the code equals the full-cell search's
        for g in enumerate_connected(7):
            rows, full = _rows(g), [(1 << g.n) - 1] * g.n
            gens = _canonical_answers(g)[1]
            cells = full[:-1] + [sum(1 << v for v in _lowest_of_orbits(g.n, gens))]
            want = _code(g.n, rows, _lowest_positions(g.n, rows, full)[0])
            assert _code(g.n, rows, _lowest_positions(g.n, rows, cells)[0]) == want, g.edges

    @pytest.mark.parametrize("max_n,digest", [
        (7, "dff2752592a923134d2b42135bfb9a97318daebc76c2e909e3a6b744c861cae5"),
        (8, "ec15c64fa4a78ae5833fb4eb4e6fe4d80b0b91dd70b33e9085fe38463e61e3df"),
    ], ids=["order7", "order8"])
    def test_sequence_digest(self, max_n, digest):
        # sha256 of repr([(n, edges), ...]), taken when every orbit of
        # neighbour sets was searched and each lowest-bitmask search started
        # from every vertex; order 8 takes about 3 s
        seq = [(g.n, g.edges) for g in enumerate_connected(max_n)]
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest

    def test_no_isomorphic_duplicates(self):
        forms = [canonical_form(g) for g in enumerate_connected(5)]
        assert len(forms) == len(set(forms))

    def test_ordering(self):
        keys = [(g.n, g.m) for g in enumerate_connected(5)]
        assert keys == sorted(keys)

    def test_max_m_filter(self):
        assert all(g.m <= 4 for g in enumerate_connected(5, 4))
        # order-5 graphs with at most 4 edges are exactly the 3 trees
        assert sum(1 for g in enumerate_connected(5, 4) if g.n == 5) == 3

    def test_too_large(self):
        with pytest.raises(TooLarge):
            list(enumerate_connected(9))

    @pytest.mark.parametrize("args,error", [(("a",), InvalidParams), ((9,), TooLarge)])
    def test_bad_arguments_raise_at_the_call(self, args, error):
        # a generator function would raise only at the first next()
        with pytest.raises(error):
            enumerate_connected(*args)

    def test_labeled_count_cross_check(self):
        # sum of n!/|Aut| over classes = number of connected labeled graphs
        # (OEIS A001187)
        labeled_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
        totals = {n: 0 for n in labeled_counts}
        for g in enumerate_connected(7):
            aut = automorphism_count(g)
            assert factorial(g.n) % aut == 0
            totals[g.n] += factorial(g.n) // aut
        assert totals == labeled_counts


class TestAutomorphisms:
    def test_count_matches_brute_force(self):
        for g in corpus(6):
            assert automorphism_count(g) == len(distance_preserving_permutations(g))

    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(10), factorial(10)),
            (Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                   + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                   + [(i, 5 + i) for i in range(5)]), 120),
            (complete_bipartite(4, 5), 2880),
            (star(9), factorial(8)),
        ],
        ids=["K10", "Petersen", "K4,5", "star9"],
    )
    def test_counts_beyond_permutation_scans(self, g, expected):
        assert automorphism_count(g) == expected

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(7))
    def test_generators_close_to_the_group(self, g):
        _, gens, _ = _canonical_answers(g)
        edges = set(g.edges)
        for t in gens:
            assert {(min(t[u], t[v]), max(t[u], t[v])) for u, v in g.edges} == edges
        group = {tuple(range(g.n))}
        frontier = list(group)
        for p in frontier:  # grows while it is walked
            for t in gens:
                q = tuple(t[x] for x in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert len(group) == automorphism_count(g) == len(distance_preserving_permutations(g))


    def test_returned_search_cannot_be_altered(self):
        g = cycle(6)
        label, gens, _ = _canonical_answers(g)
        with pytest.raises(TypeError):
            label[0] = label[1]
        with pytest.raises(TypeError):
            gens[0][0] = gens[0][1]
        assert _canonical_answers(g) == _canonical_answers(Graph(g.n, g.edges))
        assert automorphism_count(g) == 12


class TestIsomorphism:
    def test_random_relabelings(self):
        rng = random.Random(5)
        for g in [complete(5), kn_plus(4), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert is_isomorphic(g, h)

    def test_distinguishes(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_isomorphic(a, b)
        assert not is_isomorphic(complete(4), kn_plus(4))

    def test_search_refuses_large_orders_at_once(self, monkeypatch):
        # above the order limit these searches run for minutes or more
        passes, searches, witness_runs = count_engine_calls(monkeypatch)
        with pytest.raises(TooLarge):
            canonical_form(path(40))
        with pytest.raises(TooLarge):
            automorphism_count(cycle(18))
        with pytest.raises(TooLarge):
            is_isomorphic(star(40), star(40))
        assert passes == searches == witness_runs == []
        assert automorphism_count(cycle(SEARCH_ORDER_LIMIT)) == 2 * SEARCH_ORDER_LIMIT


class TestMinimalityScan:
    def test_first_gap_is_subdivided_k4(self):
        hit = find_minimal_direct_gap()
        assert hit.n == 5 and hit.m == 7
        assert is_isomorphic(hit, kn_plus(4))

    def test_scan_runs_one_lazy_and_one_active_pass_per_graph(self, monkeypatch):
        # the scan asks only direct spans, but a graph's first span query
        # keeps all three rules' answers, joined from both passes
        passes, _, _ = count_engine_calls(monkeypatch)
        hit = find_minimal_direct_gap()
        scanned = [(g.n, g.edges) for g in enumerate_connected(5)].index((hit.n, hit.edges)) + 1
        assert passes == [Rule.LAZY, Rule.ACTIVE] * (scanned + len(ORDER5_SMALL_GRAPHS))

    def test_no_gap_up_to_order_four(self):
        for g in corpus(4):
            assert (
                span(g, Rule.ACTIVE, Target.VERTICES).value
                == span(g, Rule.ACTIVE, Target.EDGES).value
            )

    def test_reference_graphs_are_the_delta3_family(self):
        # the frozen six are exactly the connected order-5 graphs of size 5
        # or 6 with maximum degree 3, one per isomorphism class
        frozen = [Graph(5, edges) for edges, _ in ORDER5_SMALL_GRAPHS]
        enumerated = [
            g
            for g in corpus(5)
            if g.n == 5 and g.m in (5, 6) and max(g.degree(u) for u in range(5)) == 3
        ]
        assert len(frozen) == len(enumerated) == 6
        frozen_forms = sorted(canonical_form(g) for g in frozen)
        enum_forms = sorted(canonical_form(g) for g in enumerated)
        assert frozen_forms == enum_forms

    @pytest.mark.parametrize("name,breach,message", [
        ("enumerate_connected", lambda max_n: enumerate_connected(4), "no direct-span gap found"),
        ("is_isomorphic", lambda a, b: False, "first gap graph has order 5, size 7"),
        ("ORDER5_SMALL_GRAPHS", ((ORDER5_SMALL_GRAPHS[0][0], 2),), "order-5 reference graph"),
    ])
    def test_failed_cross_check_is_verification_failure(self, monkeypatch, capsys, name, breach, message):
        # a scan with no gap up to order 4, a first gap that is not the
        # subdivided K4, and a reference graph with a wrong tabulated value
        # each fail the scan: exit 1 from the CLI, as a mismatch
        monkeypatch.setattr(families, name, breach)
        with pytest.raises(VerificationFailure, match=message):
            find_minimal_direct_gap()
        assert main(["search-gap"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"verification failed (search-gap): {message}")

    def test_reference_graph_values(self):
        values = []
        for edges, expected in ORDER5_SMALL_GRAPHS:
            g = Graph(5, edges)
            sv = span(g, Rule.ACTIVE, Target.VERTICES).value
            se = span(g, Rule.ACTIVE, Target.EDGES).value
            assert sv == se == expected
            values.append(sv)
        assert values == [1, 1, 2, 2, 1, 2]


def test_enumerated_graphs_match_naive_subset_enumeration():
    # independent oracle: dedup every connected labeled graph on exactly 4
    # vertices by exhaustive-permutation canonical keys
    from graphspan import DisconnectedInput

    pairs = list(combinations(range(4), 2))
    keys = set()
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        try:
            g = Graph(4, edges)
        except DisconnectedInput:
            continue
        keys.add(min(_perm_key(g, perm) for perm in _all_perms(4)))
    assert len(keys) == sum(1 for g in enumerate_connected(4) if g.n == 4)


def _all_perms(n):
    return list(permutations(range(n)))


def _perm_key(g, perm):
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
