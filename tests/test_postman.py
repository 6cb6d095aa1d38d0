"""euler-postman: Eulerian walks and exact route inspection."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspan import (
    EmptyEdgeSet,
    InvalidParams,
    NotEulerian,
    complete,
    complete_bipartite,
    cycle,
    euler_class,
    eulerian_walk,
    kn_plus,
    path,
    shortest_covering_walk,
    star,
)
from graphspan import postman
from graphspan.postman import _min_pairing, _recorded_pairing, euler_walk_multigraph

from oracles import (
    brute_force_pairing_cost,
    connected_graphs,
    corpus,
    oracle_covering_closed,
    oracle_covering_free,
    pairings,
    reference_euler_walk,
)


class TestEulerClass:
    def test_odd_complete_circuit(self):
        assert euler_class(complete(5)) == "circuit"

    def test_k23_trail(self):
        assert euler_class(complete_bipartite(2, 3)) == "trail"

    def test_even_complete_none(self):
        assert euler_class(complete(4)) == "none"

    def test_k1_circuit(self):
        assert euler_class(path(1)) == "circuit"


def _walk_traversal_counts(g, walk):
    for a, b in walk.step_pairs():
        assert g.has_edge(a, b)
    return Counter(tuple(sorted(p)) for p in walk.step_pairs())


class TestEulerianWalk:
    def test_cycle(self):
        walk = eulerian_walk(cycle(4))
        assert walk.l == 5
        assert walk.seq[0] == walk.seq[-1]
        assert _walk_traversal_counts(cycle(4), walk) == Counter({e: 1 for e in cycle(4).edges})

    def test_k5(self):
        g = complete(5)
        walk = eulerian_walk(g)
        assert walk.l == 11
        assert walk.seq[0] == walk.seq[-1]
        assert _walk_traversal_counts(g, walk) == Counter({e: 1 for e in g.edges})

    def test_k23_trail_length(self):
        g = complete_bipartite(2, 3)
        walk = eulerian_walk(g)
        assert walk.l == 7  # 2n-3 with n = 5
        assert _walk_traversal_counts(g, walk) == Counter({e: 1 for e in g.edges})

    def test_not_eulerian(self):
        with pytest.raises(NotEulerian):
            eulerian_walk(complete(4))

    def test_k1(self):
        assert eulerian_walk(path(1)).seq == (0,)

    def test_is_the_free_covering_walk_from_the_stated_start(self):
        eulerian = [g for g in corpus(7) if g.m and euler_class(g) != "none"]
        assert len(eulerian) == 384
        for g in eulerian:
            odd = [u for u in range(g.n) if g.degree(u) % 2]
            seq = euler_walk_multigraph(g.adj, Counter(g.edges), odd[0] if odd else 0)
            walk = eulerian_walk(g)
            assert walk.seq == tuple(seq) and walk.l == g.m + 1, g.edges
            assert walk == shortest_covering_walk(g).walk, g.edges

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cursor_matches_rescanning_reference(self, data):
        g = data.draw(connected_graphs(9))
        counts = Counter({e: data.draw(st.sampled_from((2, 4))) for e in g.edges})
        start = data.draw(st.integers(0, g.n - 1))
        circuit = euler_walk_multigraph(g.adj, counts, start)
        assert circuit == reference_euler_walk(g.adj, counts, start)
        # one more traversal along a shortest a-b path leaves a and b the
        # only odd vertices, so a trail runs from a
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != a)) if g.n > 1 else a
        cur = b
        while cur != a:
            nxt = min(u for u in g.adj[cur] if g.dist[a][u] == g.dist[a][cur] - 1)
            counts[min(cur, nxt), max(cur, nxt)] += 1
            cur = nxt
        trail = euler_walk_multigraph(g.adj, counts, a)
        assert trail == reference_euler_walk(g.adj, counts, a)
        assert len(trail) == sum(counts.values()) + 1

    def test_unreachable_edges_are_not_eulerian(self):
        adj = ((1,), (0,), (3,), (2,))
        with pytest.raises(NotEulerian):
            euler_walk_multigraph(adj, Counter({(0, 1): 2, (2, 3): 2}), 0)

    def test_start_off_the_odd_pair_is_not_eulerian(self):
        g = path(3)
        with pytest.raises(NotEulerian):
            euler_walk_multigraph(g.adj, Counter(g.edges), 1)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_start_matches_reference_or_raises(self, data):
        # the rescanning reference has no parity check: from a start that
        # begins no Eulerian walk its output is not one, and then the engine
        # must raise instead
        g = data.draw(connected_graphs(8))
        counts = Counter({e: data.draw(st.integers(0, 3)) for e in g.edges})
        start = data.draw(st.integers(0, g.n - 1))
        try:
            ref = reference_euler_walk(g.adj, counts, start)
            traversed = Counter((min(a, b), max(a, b)) for a, b in zip(ref, ref[1:]))
            valid = traversed == +counts
        except NotEulerian:
            valid = False
        if valid:
            assert euler_walk_multigraph(g.adj, counts, start) == ref
        else:
            with pytest.raises(NotEulerian):
                euler_walk_multigraph(g.adj, counts, start)


class TestPairing:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(12))
    def test_matches_brute_force_pairings(self, g):
        # every mask whose popcount has the parity of spare, the only ones
        # the recursion reads, against the best pairing over the members it
        # may leave out
        odd = [u for u in range(g.n) if g.degree(u) % 2][:10]
        cost, choice = _min_pairing(g.dist)
        for r in range(len(odd) + 1):
            for members in combinations(odd, r):
                for spare in range(r % 2, 3, 2):
                    want = min(
                        brute_force_pairing_cost([v for v in members if v not in dropped], g.dist)
                        for d in range(spare % 2, spare + 1, 2)
                        for dropped in combinations(members, d)
                    )
                    key = sum(1 << v for v in members) << 2 | spare
                    assert cost(key) == want
                    pairs, ends = _recorded_pairing(choice, key)
                    assert sorted([*ends, *(x for p in pairs for x in p)]) == list(members)
                    assert len(ends) <= spare
                    assert sum(g.dist[a][b] for a, b in pairs) == want

    def test_free_walk_runs_between_the_first_optimal_ends(self):
        # of the optimal pairings, the one taken decides for the lowest
        # vertex still open first: it stays unpaired if that is optimal, else
        # it takes its lowest optimal partner; the walk runs from the first
        # vertex left unpaired to the second
        for g in corpus(6):
            if g.m == 0:
                continue
            odd = [u for u in range(g.n) if g.degree(u) % 2]
            seq = shortest_covering_walk(g).walk.seq
            first = min(
                pairings(odd, 2),
                key=lambda p: sum(g.dist[u][v] for u, v in p if v is not None),
            )
            ends = [u for u, v in first if v is None] or [0, 0]
            assert [seq[0], seq[-1]] == ends

    def test_stores_only_the_masks_it_reads(self, monkeypatch):
        # closed mode reads the masks reachable from the full mask by removing
        # its lowest member and one other: Fibonacci(k + 1) of them for k odd
        # vertices, against the 2^k entries of a table over every subset;
        # free mode reads twice that, 8,362 for k = 18
        costs = []

        def recorded(dist):
            pairing = _min_pairing(dist)
            costs.append(pairing[0])
            return pairing

        monkeypatch.setattr(postman, "_min_pairing", recorded)
        shortest_covering_walk(complete(16), "closed")
        shortest_covering_walk(complete(18))
        closed, free = (cost.cache_info().currsize for cost in costs)
        assert closed <= 1597
        assert free <= 10926


class TestShortestCoveringWalk:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 1), (3, 3), (4, 7), (5, 10), (6, 17), (7, 21), (8, 31)],
    )
    def test_complete_free_lengths(self, n, expected):
        # (n^2 - n)/2 for odd n, (n^2 - 2)/2 for even n
        formula = (n * n - n) // 2 if n % 2 else (n * n - 2) // 2
        assert expected == formula
        assert shortest_covering_walk(complete(n)).length_edges == expected

    def test_p4_closed(self):
        want = oracle_covering_closed(path(4), cap=8)
        res = shortest_covering_walk(path(4), "closed")
        assert res.length_edges == want == 6

    def test_closed_walks_are_closed(self):
        for g in [path(4), complete(4), kn_plus(4), star(5)]:
            res = shortest_covering_walk(g, "closed")
            assert res.walk.seq[0] == res.walk.seq[-1]

    def test_result_invariants(self):
        for g in [path(5), cycle(6), complete(5), complete(6), kn_plus(5), star(6)]:
            for mode in ("closed", "free_endpoints"):
                res = shortest_covering_walk(g, mode)
                counts = _walk_traversal_counts(g, res.walk)
                assert set(counts) == set(g.edges)
                assert res.length_edges == res.walk.l - 1
                assert res.length_edges == g.m + len(res.duplicated)
                assert sorted(res.duplicated) == list(res.duplicated)

    def test_eulerian_graphs_need_no_duplicates(self):
        for g in [cycle(5), cycle(8), complete(5), complete(7), complete_bipartite(2, 4)]:
            for mode in ("closed", "free_endpoints"):
                assert shortest_covering_walk(g, mode).length_edges == g.m

    def test_free_matches_state_space_oracle(self):
        for g in corpus(6):
            if g.m == 0:
                continue
            assert shortest_covering_walk(g).length_edges == oracle_covering_free(g)

    def test_envelope(self):
        graphs = [g for g in corpus(6) if g.m] + [path(7), cycle(7), complete(7), kn_plus(6)]
        for g in graphs:
            free = shortest_covering_walk(g).length_edges
            closed = shortest_covering_walk(g, "closed").length_edges
            assert free <= closed <= free + g.diameter

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSet):
            shortest_covering_walk(path(1))

    def test_unknown_mode_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="unknown mode 'free'"):
            shortest_covering_walk(cycle(4), "free")

    def test_deterministic(self):
        a = shortest_covering_walk(complete(6))
        b = shortest_covering_walk(complete(6))
        assert a.walk == b.walk and a.duplicated == b.duplicated
