"""minlen-engine: exact minimal walk lengths and their witnesses."""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspan import (
    Graph,
    InternalError,
    InvalidParams,
    Rule,
    Target,
    complete,
    complete_bipartite,
    cycle,
    format_walk,
    generate,
    kn_plus,
    length_lower_bounds,
    min_length,
    path,
    span,
    star,
)
from graphspan import minlen
from graphspan.cli import main
from graphspan.families import _canonical_answers, closed_minlen
from graphspan.graph import FamilySpec
from graphspan.minlen import (
    DEFAULT_STATE_BUDGET,
    KEPT_BOUND_ROWS,
    SEARCH_ORDER_LIMIT,
    _canonical_copy,
    _remaining_bound,
    _orbit_starts,
)

from oracles import (
    ALL_VARIANTS,
    brute_force_pair_orbits,
    brute_force_pairing_cost,
    connected_graphs,
    corpus,
    edge_bits,
    edge_cover_steps,
    oracle_min_length,
    rule_moves,
    validate_pair,
    vertex_cover_steps,
)


class TestLowerBounds:
    def test_path_traditional_vertices(self):
        assert length_lower_bounds(path(6), Rule.TRADITIONAL, Target.VERTICES) == 6

    def test_cycle_lazy_edges(self):
        assert length_lower_bounds(cycle(4), Rule.LAZY, Target.EDGES) == 9

    def test_k1(self):
        for rule in Rule:
            assert length_lower_bounds(path(1), rule, Target.VERTICES) == 1

    def test_lazy_doubles(self):
        g = kn_plus(4)
        assert length_lower_bounds(g, Rule.LAZY, Target.VERTICES) == 2 * g.n - 1
        assert length_lower_bounds(g, Rule.LAZY, Target.EDGES) == 2 * g.m + 1
        assert length_lower_bounds(g, Rule.ACTIVE, Target.EDGES) == g.m + 1


class TestExamples:
    @pytest.mark.parametrize(
        "g,rule,target,expected",
        [
            (path(4), Rule.ACTIVE, Target.VERTICES, 4),
            (path(5), Rule.ACTIVE, Target.VERTICES, 6),
            (cycle(5), Rule.ACTIVE, Target.EDGES, 6),
            (cycle(5), Rule.LAZY, Target.EDGES, 11),
            (complete(5), Rule.ACTIVE, Target.EDGES, 11),
            (complete(4), Rule.LAZY, Target.EDGES, 15),
            (complete(5), Rule.LAZY, Target.VERTICES, 9),
        ],
        ids=["P4:xV", "P5:xV", "C5:xE", "C5:cE", "K5:xE", "K4:cE", "K5:cV"],
    )
    def test_tabulated_values(self, g, rule, target, expected):
        rep = min_length(g, rule, target)
        assert not rep.capped
        assert rep.length == expected

    def test_k1_degenerate(self):
        for target in Target:
            for rule in Rule:
                rep = min_length(path(1), rule, target)
                assert rep.length == 1 and not rep.capped
                assert rep.witness[0].seq == (0,) and rep.witness[1].seq == (0,)


class TestReports:
    def test_witnesses_revalidate(self):
        for g in [path(5), cycle(6), complete(4), kn_plus(4)]:
            for rule, target in ALL_VARIANTS:
                rep = min_length(g, rule, target)
                assert rep.span_value == span(g, rule, target).value
                f, h = rep.witness
                assert f.l == h.l == rep.length
                assert validate_pair(g, rule, target, f, h, rep.span_value) == []

    def test_length_at_least_lower_bound(self):
        for g in corpus(4):
            for rule, target in ALL_VARIANTS:
                rep = min_length(g, rule, target)
                assert rep.length >= length_lower_bounds(g, rule, target)
                assert rep.explored_states > 0

    def test_naive_bfs_oracle_equivalence(self):
        order_six = tuple(g for g in corpus(6, 8) if g.n == 6)
        for target, graphs in (
            (Target.VERTICES, corpus(5) + order_six),
            (Target.EDGES, corpus(5, 6)),
        ):
            for g in graphs:
                for rule in Rule:
                    rep = min_length(g, rule, target)
                    sigma = span(g, rule, target).value
                    assert rep.length == oracle_min_length(g, rule, target, sigma)
                    f, h = rep.witness
                    assert validate_pair(g, rule, target, f, h, sigma) == []

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(6))
    def test_random_vertex_targets_match_oracle(self, g):
        for rule in Rule:
            rep = min_length(g, rule, Target.VERTICES)
            sigma = span(g, rule, Target.VERTICES).value
            assert rep.span_value == sigma
            assert rep.length == oracle_min_length(g, rule, Target.VERTICES, sigma)
            f, h = rep.witness
            assert validate_pair(g, rule, Target.VERTICES, f, h, sigma) == []

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(5), st.data())
    def test_relabeling_leaves_the_search_unchanged(self, g, data):
        # the search runs on a canonical copy, so neither the length nor the
        # states it stores depend on the labels of the input
        label = data.draw(st.permutations(range(g.n)))
        h = Graph(g.n, [(label[u], label[v]) for u, v in g.edges])
        for rule, target in ALL_VARIANTS:
            a, b = min_length(g, rule, target), min_length(h, rule, target)
            assert (a.length, a.explored_states) == (b.length, b.explored_states)
            f, w = b.witness
            assert validate_pair(h, rule, target, f, w, b.span_value) == []

    def test_k5_edges_store_few_states(self):
        # the best-first order stores 191 + 131 + 471 states here
        stored = [min_length(complete(5), rule, Target.EDGES).explored_states for rule in Rule]
        assert sum(stored) < 1000

    def test_k6_k7_edges_store_few_states(self):
        # the pairing term of the bound: 482 + 354 + 8,368 stored states on
        # K6 and 862 + 652 + 280,573 on K7; without it K6 passes 4 million
        for n, ceiling in ((6, 10_000), (7, 300_000)):
            reps = [min_length(complete(n), rule, Target.EDGES) for rule in Rule]
            assert not any(rep.capped for rep in reps)
            spec = FamilySpec("complete", (n,))
            assert [rep.length for rep in reps] == [
                closed_minlen(spec, rule, Target.EDGES) for rule in Rule
            ]
            assert sum(rep.explored_states for rep in reps) < ceiling

    def test_empty_queue_is_internal_error(self, monkeypatch, capsys):
        # no position has a move, so the queue empties with targets left
        # uncovered: the library raises, and the CLI exits 3, not 2 as an
        # input error would
        monkeypatch.setattr(minlen, "_moves", lambda *args: iter(()))
        with pytest.raises(InternalError):
            min_length(path(3), Rule.TRADITIONAL, Target.VERTICES)
        assert main(["minlen", "--family", "path:3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error (minlen)")

    def test_deterministic(self):
        a = min_length(cycle(6), Rule.LAZY, Target.EDGES)
        b = min_length(cycle(6), Rule.LAZY, Target.EDGES)
        assert a == b


def _reference_rest(g, target, p, left) -> int:
    """The per-player bound from its definition: the exact steps a lone
    walker at p needs for at most four uncovered vertices, else Prim's tree
    over them plus the distance to them; or the uncovered edges plus the
    cheapest pairing of odd(U) ^ {p} that leaves one vertex out."""
    dist = g.dist
    if target is Target.VERTICES:
        if len(left) <= 4:
            return vertex_cover_steps(g, p, left)
        todo = sorted(left)
        tree, done = 0, {todo.pop()}
        while todo:
            w, v = min((min(dist[u][v] for u in done), v) for v in todo)
            tree += w
            done.add(v)
            todo.remove(v)
        return tree + min(dist[p][v] for v in left)
    odd = {p}
    for e in left:
        odd ^= set(e)
    return len(left) + min(brute_force_pairing_cost(sorted(odd - {v}), dist) for v in odd)


ORDER_SIX_ROWS = Path(__file__).with_name("minlen_order6.txt")
SMALL_FAMILY_REPORTS = Path(__file__).with_name("minlen_small_reports.txt")
# sha256 of the lines "explored_states f-walk g-walk" of the 858 rows of
# ORDER_SIX_ROWS, in file order
ORDER_SIX_REPORTS_DIGEST = "f4511e847e0282fb54e414e3a2c19f7ebd98f3e9bf390ed9fb06b1497592d652"


class TestExactness:
    def test_order_six_rows_unchanged(self):
        # (length, capped, span) of all 858 (graph, rule, target) rows of
        # order <= 6, as computed under one step per target plus the parity
        # count; and a digest of every report's stored-state count and
        # witness walks, which moves with the search's tie order
        graphs: dict[str, Graph] = {}
        rows = mismatches = 0
        digest = hashlib.sha256()
        for line in ORDER_SIX_ROWS.read_text().splitlines():
            if line.startswith("#"):
                continue
            head, edges = line.split(":")
            n, rule, target, *expected = head.split()
            g = graphs.setdefault(edges, Graph(int(n), [(int(e[0]), int(e[1])) for e in edges.split()]))
            rep = min_length(g, Rule(rule), Target(target))
            rows += 1
            mismatches += [rep.length, rep.capped, rep.span_value] != [int(x) for x in expected]
            walks = [format_walk(w) for w in rep.witness] if rep.witness else ["-", "-"]
            digest.update(f"{rep.explored_states} {' '.join(walks)}\n".encode())
        assert (rows, len(graphs), mismatches) == (858, 143, 0)
        assert digest.hexdigest() == ORDER_SIX_REPORTS_DIGEST

    def test_small_family_reports_unchanged(self):
        # the whole report, stored-state count and witnesses included: the
        # order of the full move set decides which of the tied walks is found
        expected = [line.split() for line in SMALL_FAMILY_REPORTS.read_text().splitlines()
                    if not line.startswith("#")]
        got = []
        for spec, rule, target, *_ in expected:
            rep = min_length(generate(FamilySpec.from_string(spec)), Rule(rule), Target(target))
            walks = [format_walk(w) for w in rep.witness] if rep.witness else ["-", "-"]
            got.append([spec, rule, target, str(rep.length), str(rep.explored_states),
                        str(int(rep.capped)), *walks])
        assert len(expected) == 54
        assert got == expected

    @pytest.mark.parametrize(
        "g,lengths,ceiling",
        [
            # 6,452 stored states in all
            (star(10), [18, 18, 18, 18, 33, 33], 10_000),
            # 57,110 stored states in all
            (star(13), [24, 24, 24, 24, 45, 45], 80_000),
        ],
        ids=["star10", "star13"],
    )
    def test_stars_exact(self, g, lengths, ceiling):
        reps = [min_length(g, rule, target) for rule, target in ALL_VARIANTS]
        assert [rep.length for rep in reps] == lengths
        assert not any(rep.capped for rep in reps)
        assert sum(rep.explored_states for rep in reps) < ceiling
        for (rule, target), rep in zip(ALL_VARIANTS, reps):
            f, h = rep.witness
            assert validate_pair(g, rule, target, f, h, rep.span_value) == []

    def test_k34_lazy_edges_exact(self):
        # 947 stored states
        g = complete_bipartite(3, 4)
        rep = min_length(g, Rule.LAZY, Target.EDGES)
        assert (rep.length, rep.capped) == (29, False)
        assert rep.explored_states < 2_000
        f, h = rep.witness
        assert validate_pair(g, Rule.LAZY, Target.EDGES, f, h, rep.span_value) == []


class TestRemainingBound:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(6), st.sampled_from(list(Target)), st.data())
    def test_admissible_and_consistent(self, g, target, data):
        rows = _remaining_bound(g, target)
        if target is Target.VERTICES:
            items, bit, steps = list(range(g.n)), (lambda t: 1 << t), vertex_cover_steps
            full = (1 << g.n) - 1

            def visited(left, a, b):
                return left if a == b else left - {b}
        else:
            items, bit, steps = list(g.edges), edge_bits(g).__getitem__, edge_cover_steps
            full = (1 << g.m) - 1

            def visited(left, a, b):
                return left - {(min(a, b), max(a, b))}

        def bound(p, left):
            # the engine's per-player bound, read at the coverage word of
            # left as the search reads it
            return rows[full ^ sum(map(bit, left))][p]

        subsets = st.lists(st.sampled_from(items), max_size=8, unique=True) if items else st.just([])
        uf, ug = frozenset(data.draw(subsets)), frozenset(data.draw(subsets))
        for p in range(g.n):
            assert bound(p, uf) == _reference_rest(g, target, p, uf)
            # never above the exact steps a lone walker at p needs, and equal
            # to them while at most four vertices are uncovered
            exact = steps(g, p, uf)
            assert bound(p, uf) <= exact
            if target is Target.VERTICES and len(uf) <= 4:
                assert bound(p, uf) == exact
        for rule in Rule:
            combine = (lambda a, b: a + b) if rule is Rule.LAZY else max
            for p in range(g.n):
                for q in range(g.n):
                    before = combine(bound(p, uf), bound(q, ug))
                    for x, y in rule_moves(g, rule, p, q):
                        after = combine(bound(x, visited(uf, p, x)), bound(y, visited(ug, q, y)))
                        assert after >= before - 1, (rule, p, q, x, y)

    @pytest.mark.parametrize("seed", [None, 14], ids=["path", "seeded"])
    def test_vertex_rows_at_order_14(self, seed):
        # path(14) has the largest diameter a search meets, 13, and with it
        # the longest tails the exact rows add; the other graph is a seeded
        # spanning tree plus chords. Rows of at most four uncovered vertices
        # are exact, and the others never exceed the exact steps
        g = path(14)
        if seed is not None:
            rng = random.Random(seed)
            edges = {(rng.randrange(v), v) for v in range(1, 14)}
            edges |= {tuple(sorted(rng.sample(range(14), 2))) for _ in range(6)}
            g = Graph(14, sorted(edges))
        rows = _remaining_bound(g, Target.VERTICES)
        full = (1 << g.n) - 1
        rng = random.Random(1)
        for k in range(1, 9):
            for _ in range(4):
                left = frozenset(rng.sample(range(g.n), k))
                row = rows[full ^ sum(1 << v for v in left)]
                for p in range(g.n):
                    # the reference is vertex_cover_steps itself for k <= 4
                    assert row[p] == _reference_rest(g, Target.VERTICES, p, left), (k, p)
                    assert row[p] <= vertex_cover_steps(g, p, left), (k, p)

    def test_a_large_table_is_not_kept(self):
        # the K7 lazy/edges search builds 25,219 rows, about 3 MB with the
        # pairing costs behind them; capped at 100,000 stored states, to keep
        # the traced run short, it builds 9,430 rows and 0.98 MB. Once the
        # search ends the graph keeps none of them
        g = complete(7)
        tracemalloc.start()
        try:
            min_length(g, Rule.LAZY, Target.EDGES, state_budget=100_000)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 100_000
        assert len(_remaining_bound(_canonical_copy(g)[0], Target.EDGES)) <= KEPT_BOUND_ROWS


def _assert_one_start_per_orbit(g):
    # the lowest pair of each orbit of Aut(G) x player swap, no other
    gens = _canonical_answers(g)[1]
    starts = [divmod(s, g.n) for s in _orbit_starts(g, gens)]
    for sigma in range(g.radius + 1):
        orbits = brute_force_pair_orbits(g, sigma)
        kept = [(u, v) for u, v in starts if g.dist[u][v] >= sigma]
        assert kept == sorted(min(o) for o in orbits)


def _scanned_starts(g, sigma, gens):
    """The starts of one scan per threshold: pairs at distance >= sigma in
    u*n + v order, each one not yet reached starting an orbit."""
    reps = []
    seen = set()
    for u in range(g.n):
        for v in range(g.n):
            if g.dist[u][v] < sigma or (u, v) in seen:
                continue
            reps.append((u, v))
            seen.add((u, v))
            orbit = [(u, v)]
            for a, b in orbit:
                for pair in [(b, a)] + [(t[a], t[b]) for t in gens]:
                    if pair not in seen:
                        seen.add(pair)
                        orbit.append(pair)
    return reps


class TestStarts:
    def test_one_start_per_symmetry_orbit(self):
        for g in corpus(6):
            _assert_one_start_per_orbit(g)

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(7))
    def test_one_start_per_symmetry_orbit_random(self, g):
        _assert_one_start_per_orbit(g)

    def test_starts_match_the_per_threshold_scan(self):
        # the canonical copy keeps one scan of every orbit, and a search at
        # span value sigma keeps its pairs at distance >= sigma; orbits keep
        # distance, so the starts and their order are those of a scan per
        # threshold
        for g in corpus(6):
            c, _, orbit_starts = _canonical_copy(g)
            starts = [divmod(s, c.n) for s in orbit_starts]
            gens = _canonical_answers(c)[1]
            for sigma in range(c.radius + 1):
                kept = [(u, v) for u, v in starts if c.dist[u][v] >= sigma]
                assert kept == _scanned_starts(c, sigma, gens), (g.edges, sigma)


class TestBudget:
    def test_k6_edges_exact_under_default_budget(self):
        g = complete(6)
        rep = min_length(g, Rule.ACTIVE, Target.EDGES)
        assert not rep.capped
        assert rep.length == closed_minlen(FamilySpec("complete", (6,)), Rule.ACTIVE, Target.EDGES)
        f, h = rep.witness
        assert validate_pair(g, Rule.ACTIVE, Target.EDGES, f, h, rep.span_value) == []

    def test_budget_counts_stored_states(self):
        # a budget of exactly the stored count suffices, one fewer caps
        for g in corpus(5):
            for rule, target in ALL_VARIANTS:
                rep = min_length(g, rule, target)
                exact = min_length(g, rule, target, state_budget=rep.explored_states)
                assert exact == rep
                capped = min_length(g, rule, target, state_budget=rep.explored_states - 1)
                assert capped.capped and capped.witness is None
                # the bound the search proved before it stopped
                assert length_lower_bounds(g, rule, target) <= capped.length <= rep.length

    def test_tiny_budget_caps_small_search(self):
        # ten stored states already prove the exact length, 8, against the
        # floor of 7
        rep = min_length(complete(4), Rule.ACTIVE, Target.EDGES, state_budget=10)
        assert rep.capped
        assert length_lower_bounds(complete(4), Rule.ACTIVE, Target.EDGES) == 7
        assert rep.length == closed_minlen(FamilySpec("complete", (4,)), Rule.ACTIVE, Target.EDGES) == 8

    def test_capped_is_a_lower_bound(self):
        capped = min_length(complete(4), Rule.LAZY, Target.EDGES, state_budget=10)
        exact = min_length(complete(4), Rule.LAZY, Target.EDGES)
        assert capped.capped and not exact.capped
        assert capped.length <= exact.length

    def test_order_above_limit_caps_without_search(self):
        rep = min_length(cycle(SEARCH_ORDER_LIMIT + 1), Rule.ACTIVE, Target.VERTICES)
        assert rep.capped and rep.explored_states == 0

    @pytest.mark.parametrize("budget", [-1, -DEFAULT_STATE_BUDGET, 10.0, "10", None, True])
    def test_budget_must_be_a_non_negative_int(self, budget):
        # the forms the CLI's --budget refuses, and the values it cannot pass
        with pytest.raises(InvalidParams, match="budget must be a non-negative integer"):
            min_length(cycle(4), Rule.ACTIVE, Target.VERTICES, state_budget=budget)

    def test_zero_budget_caps_at_once(self):
        rep = min_length(cycle(4), Rule.ACTIVE, Target.VERTICES, state_budget=0)
        assert rep.capped and rep.witness is None and rep.explored_states == 1
