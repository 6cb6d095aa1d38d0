"""euler-postman: Eulerian walks and exact route inspection."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspan import (
    EmptyEdgeSet,
    Graph,
    InternalError,
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
from graphspan.minlen import _min_pairing
from graphspan.postman import _min_perfect_matching, _pair_odd_vertices, euler_walk_multigraph

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


def _seeded_graphs(count: int, seed: int):
    """Random connected graphs of order 6-30 with at most 20 odd vertices:
    a random spanning tree plus random chords."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 30)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = Graph(n, sorted(edges))
        if sum(g.degree(u) % 2 for u in range(n)) <= 20:
            out.append(g)
    return out


def _random_costs(rng: random.Random, n: int) -> list[list[int]]:
    top = rng.choice((1, 3, 20))
    cost = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            cost[i][j] = cost[j][i] = rng.randint(0, top)
    return cost


def _weighted_distances(rng: random.Random, n: int) -> list[list[int]]:
    """Shortest-path distances of a random connected graph with edge weights
    1-5: a random spanning tree plus random chords."""
    d = [[0 if i == j else float("inf") for j in range(n)] for i in range(n)]
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, n))]
    for u, v in edges:
        d[u][v] = d[v][u] = min(d[u][v], rng.randint(1, 5))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


class TestPairing:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(12))
    def test_matches_brute_force_pairings(self, g):
        # the recursion, at every mask whose popcount has the parity of
        # spare, against the best pairing over the members it may leave out;
        # the matching at every even mask, with no spare end or two
        odd = [u for u in range(g.n) if g.degree(u) % 2][:10]
        cost = _min_pairing(g.dist)
        for r in range(len(odd) + 1):
            for members in combinations(odd, r):
                for spare in range(r % 2, 3, 2):
                    want = min(
                        brute_force_pairing_cost([v for v in members if v not in dropped], g.dist)
                        for d in range(spare % 2, spare + 1, 2)
                        for dropped in combinations(members, d)
                    )
                    assert cost(sum(1 << v for v in members) << 2 | spare) == want
                    if r % 2:
                        continue
                    pairs, ends = _pair_odd_vertices(g.dist, list(members), spare == 2)
                    assert sorted([*ends, *(x for p in pairs for x in p)]) == list(members)
                    assert len(ends) == (min(r, 2) if spare else 0)
                    assert sum(g.dist[a][b] for a, b in pairs) == want

    @pytest.mark.parametrize("mode", ["closed", "free_endpoints"])
    def test_matching_equals_recursion(self, mode):
        # on corpus(6) and graphs with up to 20 odd vertices the matching
        # costs what the recursion does (no spare end closed, two free), and
        # for up to 10 what the enumeration of every pairing does; its pairs
        # and ends partition the odd vertices, with exactly two ends in free
        # mode
        free = mode == "free_endpoints"
        for g in [*(g for g in corpus(6) if g.m), *_seeded_graphs(120, 21)]:
            odd = [u for u in range(g.n) if g.degree(u) % 2]
            pairs, ends = _pair_odd_vertices(g.dist, odd, free)
            assert sorted([*ends, *(x for p in pairs for x in p)]) == odd
            assert all(a < b for a, b in pairs) and ends == sorted(ends)
            assert len(ends) == (2 if free and odd else 0)
            paired = sum(g.dist[a][b] for a, b in pairs)
            assert paired == _min_pairing(g.dist)(sum(1 << u for u in odd) << 2 | 2 * free)
            if len(odd) <= 10:
                assert paired == min(
                    brute_force_pairing_cost([u for u in odd if u not in left], g.dist)
                    for left in combinations(odd, 2 if free and odd else 0)
                )
            assert shortest_covering_walk(g, mode).length_edges == g.m + paired

    def test_random_cost_matrices(self):
        # arbitrary symmetric costs with many ties, and the distances of
        # graphs with edge weights 1-5; 23 of these 600 end a growth when an
        # inner blossom's z reaches 0
        rng = random.Random(2)
        for trial in range(600):
            n = 2 * rng.randint(1, 8)
            cost = _weighted_distances(rng, n) if trial % 2 else _random_costs(rng, n)
            mate = _min_perfect_matching(cost)
            assert all(mate[v] != v and mate[mate[v]] == v for v in range(n))
            total = sum(cost[v][mate[v]] for v in range(n)) // 2
            assert total == _min_pairing(cost)((1 << n) - 1 << 2), cost

    def test_growth_restarts_after_an_inner_blossom_expands(self):
        # the z of an inner blossom reaches 0 in the third of four growths
        # (6 vertices) and in the fourth of five (8 vertices); each such
        # growth ends, and the next starts by expanding that blossom.
        # Expanding it in place and growing on, without labelling its parts,
        # crashes on the first and returns cost 13 on the second
        six = [
            [0, 3, 1, 3, 2, 3],
            [3, 0, 4, 6, 5, 6],
            [1, 4, 0, 4, 1, 3],
            [3, 6, 4, 0, 5, 6],
            [2, 5, 1, 5, 0, 4],
            [3, 6, 3, 6, 4, 0],
        ]
        eight = [
            [0, 4, 2, 5, 4, 2, 8, 7],
            [4, 0, 3, 6, 8, 4, 12, 11],
            [2, 3, 0, 3, 6, 1, 10, 9],
            [5, 6, 3, 0, 8, 3, 12, 11],
            [4, 8, 6, 8, 0, 5, 4, 3],
            [2, 4, 1, 3, 5, 0, 9, 8],
            [8, 12, 10, 12, 4, 9, 0, 2],
            [7, 11, 9, 11, 3, 8, 2, 0],
        ]
        for cost, want in ((six, 10), (eight, 12)):
            n = len(cost)
            mate = _min_perfect_matching(cost)
            assert all(mate[v] != v and mate[mate[v]] == v for v in range(n))
            total = sum(cost[v][mate[v]] for v in range(n)) // 2
            assert total == _min_pairing(cost)((1 << n) - 1 << 2) == want

    def test_free_walk_runs_between_the_matched_ends(self):
        # the walk runs from the lower to the higher of the two odd vertices
        # the matching leaves to the dummy vertices, and is optimal: its
        # extra length is the cheapest pairing that leaves two unpaired
        for g in corpus(6):
            if g.m == 0:
                continue
            odd = [u for u in range(g.n) if g.degree(u) % 2]
            res = shortest_covering_walk(g)
            ends = _pair_odd_vertices(g.dist, odd, True)[1] or [0, 0]
            assert [res.walk.seq[0], res.walk.seq[-1]] == ends
            best = min(
                sum(g.dist[u][v] for u, v in p if v is not None) for p in pairings(odd, 2)
            )
            assert res.length_edges == g.m + best

    def test_no_perfect_matching_is_internal_error(self):
        # route inspection always has one; an odd number of vertices, which
        # has none, is a bug
        for n in (1, 3, 5):
            with pytest.raises(InternalError):
                _min_perfect_matching([[0] * n for _ in range(n)])

    def test_covering_multigraph_not_eulerian_is_internal_error(self, monkeypatch):
        # with no paths added, complete(4) keeps four odd vertices: an
        # engine breach, not a graph without an Eulerian walk
        monkeypatch.setattr(postman, "_augmenting_paths", lambda g, dist, pairs: [])
        with pytest.raises(InternalError, match="covering multigraph is not Eulerian"):
            shortest_covering_walk(complete(4))
        g = complete(4)
        with pytest.raises(NotEulerian):
            euler_walk_multigraph(g.adj, Counter(g.edges), 1)

    def test_hundred_odd_vertices_in_well_under_a_second(self):
        # star(100) has k = 100 odd vertices; the matching takes O(k^2) per
        # tree growth, one growth per augmentation plus one per inner
        # blossom that expands
        start = time.perf_counter()
        res = shortest_covering_walk(star(100))
        assert res.length_edges == 196
        assert time.perf_counter() - start < 1.0


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

    @pytest.mark.parametrize("make,mode,seq,duplicated", [
        (path, "free_endpoints", tuple(range(1000)), ()),
        (path, "closed", (*range(1000), *range(998, -1, -1)),
         tuple((i, i + 1) for i in range(999))),
        (cycle, "free_endpoints", (*range(1000), 0), ()),
        (cycle, "closed", (*range(1000), 0), ()),
    ])
    def test_large_sparse_graphs_read_only_odd_vertex_distances(self, make, mode, seq, duplicated):
        # the n x n distance table of order 1000 takes about 24 MB; the walk
        # needs one BFS row per odd vertex, and these graphs have 2 or none
        tracemalloc.start()
        try:
            res = shortest_covering_walk(make(1000), mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert (res.walk.seq, res.duplicated) == (seq, duplicated)
        assert res.length_edges == len(seq) - 1

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSet):
            shortest_covering_walk(path(1))

    def test_unknown_mode_is_invalid_params(self):
        with pytest.raises(InvalidParams, match="unknown mode 'free'"):
            shortest_covering_walk(cycle(4), "free")
        # the mode is checked before the edge count, which raised
        # EmptyEdgeSet first
        with pytest.raises(InvalidParams, match="unknown mode 'bogus'"):
            shortest_covering_walk(path(1), "bogus")

    def test_deterministic(self):
        a = shortest_covering_walk(complete(6))
        b = shortest_covering_walk(complete(6))
        assert a.walk == b.walk and a.duplicated == b.duplicated
