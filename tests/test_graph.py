"""graph-core: parsing, families, local modifications, metrics."""

from __future__ import annotations

import gc
import re
import sys
import threading
import tracemalloc
from collections import deque

import pytest

from graphspan import (
    DisconnectedInput,
    DuplicateEdge,
    EdgeNotPresent,
    EmptyEdgeSet,
    FamilySpec,
    Graph,
    IndexOutOfRange,
    InvalidParams,
    InvalidVertex,
    MalformedInput,
    Rule,
    SelfLoop,
    Target,
    TooLarge,
    Walk,
    all_spans,
    canonical_form,
    classify,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    euler_class,
    eulerian_walk,
    generate,
    is_opposite_lazy,
    kn_plus,
    line_graph,
    min_length,
    parse_edge_list,
    parse_graph6,
    path,
    shortest_covering_walk,
    star,
    subdivide_edge,
    witness_sweeps,
)
import graphspan.graph as graph_module
from graphspan.families import is_isomorphic
from graphspan.graph import ORDER_LIMIT

from oracles import ALL_VARIANTS, corpus, reference_line_graph
from test_spans import _seeded_graphs


class TestParseEdgeList:
    def test_p3(self):
        g = parse_edge_list("3\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2
        assert g.dist[0][2] == 2
        assert list(g.vertices) == [0, 1, 2]

    def test_k1(self):
        g = parse_edge_list("1\n")
        assert g.n == 1 and g.m == 0 and g.radius == 0

    def test_disconnected(self):
        with pytest.raises(DisconnectedInput):
            parse_edge_list("4\n0 1\n2 3\n")

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            parse_edge_list("2\n1 1\n")
        with pytest.raises(SelfLoop, match="line 4"):
            parse_edge_list("3\n0 1\n# comment\n2 2\n")

    def test_endpoints_in_either_order(self):
        g = parse_edge_list("3\n1 0\n2 1\n")
        assert g.edges == parse_edge_list("3\n0 1\n1 2\n").edges == ((0, 1), (1, 2))
        assert g.has_edge(0, 1) and g.dist[0][2] == 2

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_edge_list("2\n0 1\n1 0\n")
        with pytest.raises(DuplicateEdge, match="line 5"):
            parse_edge_list("3\n0 1\n1 2\n0 2\n0 1\n")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_edge_list("2\n0 2\n")
        with pytest.raises(IndexOutOfRange, match="line 3"):
            parse_edge_list("3\n0 1\n1 3\n")

    def test_comments_and_crlf(self):
        g = parse_edge_list("# a triangle\r\n3\r\n0 1\r\n# middle comment\r\n1 2\r\n0 2\r\n")
        assert g.m == 3 and g.radius == 1

    @pytest.mark.parametrize("text", ["", "x\n", "2\n0\n", "2\n0 1 2\n", "0\n", "3 4\n"])
    def test_malformed(self, text):
        with pytest.raises(MalformedInput):
            parse_edge_list(text)

    @pytest.mark.parametrize("token", ["1_0", "+9", "\u0663", "-1", "\uff13"])
    def test_only_ascii_decimal_integers(self, token):
        # int() reads all of these: '1_0' as 10, '\u0663' (Arabic-Indic three) as 3
        with pytest.raises(MalformedInput, match="line 2"):
            parse_edge_list(f"# count\n{token}\n0 1\n")
        with pytest.raises(MalformedInput, match="line 3"):
            parse_edge_list(f"4\n0 1\n1 {token}\n")


class TestParseGraph6:
    # vectors frozen from the reference graph6 encoder
    @pytest.mark.parametrize(
        "text,n,edges",
        [
            ("A_", 2, ((0, 1),)),
            ("Bg", 3, ((0, 1), (1, 2))),
            ("C~", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
            ("Dhc", 5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))),
            ("D]o", 5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
        ],
    )
    def test_known_strings(self, text, n, edges):
        g = parse_graph6(text)
        assert g.n == n and g.edges == edges

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<Bg").edges == ((0, 1), (1, 2))

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_bad_chars(self):
        with pytest.raises(MalformedInput):
            parse_graph6("B\x07")

    def test_truncated(self):
        with pytest.raises(MalformedInput):
            parse_graph6("D")

    @pytest.mark.parametrize("text,message", [
        ("", "empty string"),
        ("?", "at least one vertex"),
        ("~??", "long form"),
    ])
    def test_empty_and_unsupported_orders(self, text, message):
        with pytest.raises(MalformedInput, match=message):
            parse_graph6(text)

    @pytest.mark.parametrize("text", ["Bx", "A`", "Dhd"])
    def test_nonzero_padding_rejected(self, text):
        # each string is a valid encoding (A_, Bw, Dhc) with one padding bit set
        with pytest.raises(MalformedInput, match="nonzero padding bits"):
            parse_graph6(text)

    def test_disconnected_rejected(self):
        # two isolated vertices
        with pytest.raises(DisconnectedInput):
            parse_graph6("A?")


def _count_bfs_rows(monkeypatch) -> list[int]:
    calls = []
    bfs = graph_module._bfs_distances

    def counting(adj, src, n):
        calls.append(src)
        return bfs(adj, src, n)

    monkeypatch.setattr(graph_module, "_bfs_distances", counting)
    return calls


def test_disconnected_rejected_after_one_bfs_row(monkeypatch):
    # enough edges to pass the edge count, yet vertex 1999 is isolated; the
    # n^2 distance table must not be built first
    calls = _count_bfs_rows(monkeypatch)
    with pytest.raises(DisconnectedInput):
        Graph(2000, [(v, (v + 1) % 1999) for v in range(1999)])
    assert calls == [0]


def test_too_few_edges_rejected_before_any_bfs_row(monkeypatch):
    # fewer than n - 1 edges cannot connect n vertices: a bare vertex count
    # must fail before the adjacency lists or a BFS row are built
    calls = _count_bfs_rows(monkeypatch)
    with pytest.raises(DisconnectedInput):
        Graph(10**7, [])
    assert calls == []


class TestGraphArguments:
    @pytest.mark.parametrize("n", [True, False, "2", 2.5, 2.0, None])
    def test_non_int_vertex_count_rejected(self, n):
        # True was accepted as order 1, "2" failed with a bare TypeError,
        # and 2.5 was reported as disconnected
        with pytest.raises(InvalidParams, match="vertex count must be a positive int"):
            Graph(n, [(0, 1)] if n else [])

    @pytest.mark.parametrize("edge", [(0, True), (False, 1), (0, 1.0), ("0", 1), (0, None)])
    def test_non_int_endpoint_rejected(self, edge):
        # (0, True) stored a bool endpoint, and (0, 1.0) failed with a bare
        # TypeError
        with pytest.raises(InvalidParams, match="edge endpoints must be ints"):
            Graph(2, [edge])

    @pytest.mark.parametrize("build,named", [
        (lambda: Graph(2, [(0,)]), "each edge must be a (u, v) pair, got (0,)"),
        (lambda: Graph(3, [(0, 1, 2)]), "each edge must be a (u, v) pair, got (0, 1, 2)"),
        (lambda: Graph(2, [0]), "each edge must be a (u, v) pair, got 0"),
        (lambda: Graph(2, None), "edges must be an iterable of (u, v) pairs, got None"),
        (lambda: FamilySpec("path", 3), "path parameters must be a tuple, got 3"),
    ], ids=["short-edge", "long-edge", "int-edge", "no-edges", "int-params"])
    def test_wrong_shape_arguments_rejected(self, build, named):
        # each raised a bare ValueError (unpacking) or TypeError (iterating
        # or taking the len of a non-sequence)
        with pytest.raises(InvalidParams, match=re.escape(named)):
            build()


class TestFamilies:
    def test_kn_plus_order_and_size(self):
        g = kn_plus(5)
        # subdivision removes one of the 10 complete-graph edges and adds two
        assert g.n == 6
        assert g.m == 5 * 4 // 2 - 1 + 2 == 11

    def test_kn_plus_radius(self):
        assert kn_plus(6).radius == 2

    def test_kn_plus_labeling(self):
        g = kn_plus(5)
        assert not g.has_edge(0, 4)
        assert g.adj[5] == (0, 4)

    def test_cycle3_is_triangle(self):
        g = cycle(3)
        assert g.radius == 1 and g.m == 3

    def test_star_and_bipartite(self):
        assert star(4).edges == ((0, 1), (0, 2), (0, 3))
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)

    @pytest.mark.parametrize(
        "family,params",
        [("path", (0,)), ("cycle", (2,)), ("complete", (0,)),
         ("complete_bipartite", (0, 3)), ("kn_plus", (3,)), ("star", (0,))],
    )
    def test_invalid_params(self, family, params):
        with pytest.raises(InvalidParams):
            generate(FamilySpec(family, params))

    @pytest.mark.parametrize("family,params", [
        ("path", (True,)), ("path", (2.5,)), ("path", ("3",)),
        ("complete_bipartite", (2, False)), ("kn_plus", (None,)),
    ])
    def test_non_int_params_rejected(self, family, params):
        # True built Graph(n=True), and 2.5 failed with a bare TypeError
        with pytest.raises(InvalidParams, match="parameters must be ints"):
            FamilySpec(family, params)

    def test_spec_parsing(self):
        spec = FamilySpec.from_string("complete_bipartite:2,3")
        assert generate(spec).m == 6
        with pytest.raises(InvalidParams):
            FamilySpec.from_string("kn_plus")
        with pytest.raises(InvalidParams):
            FamilySpec.from_string("nosuch:3")
        with pytest.raises(InvalidParams):
            FamilySpec.from_string("path:1,2")
        assert FamilySpec.from_string("complete_bipartite:2, 3").params == (2, 3)

    def test_specs_of_order_at_the_limit_are_accepted(self):
        # complete_bipartite and kn_plus have orders a + b and n + 1
        assert FamilySpec.from_string("complete_bipartite:500,500").params == (500, 500)
        assert FamilySpec.from_string("kn_plus:999").params == (999,)
        with pytest.raises(TooLarge, match="order 1001"):
            FamilySpec.from_string("complete_bipartite:500,501")

    @pytest.mark.parametrize("build", [
        lambda: complete(ORDER_LIMIT + 1),
        lambda: kn_plus(ORDER_LIMIT),
        lambda: complete_bipartite(500, 501),
    ], ids=["complete", "kn_plus", "complete_bipartite"])
    def test_generators_refuse_orders_above_the_limit_before_building(self, monkeypatch, build):
        # nothing refused complete(1500), which built and returned its
        # 1,124,250 edges; each generator builds its edge list from range calls
        calls = []

        def recorder(name, real):
            def record(*args):
                calls.append(name)
                return real(*args)
            return record

        for name, real in [("range", range), ("combinations", graph_module.combinations),
                           ("Graph", graph_module.Graph)]:
            monkeypatch.setattr(graph_module, name, recorder(name, real), raising=False)
        complete(3)
        assert {"range", "combinations", "Graph"} <= set(calls)
        calls.clear()
        with pytest.raises(TooLarge, match=f"above the limit {ORDER_LIMIT}"):
            build()
        assert calls == []

    @pytest.mark.parametrize("token", ["1_0", "+9", "\u0663", "-1", "x"])
    def test_spec_only_ascii_decimal_parameters(self, token):
        with pytest.raises(MalformedInput, match=re.escape(repr(token))):
            FamilySpec.from_string(f"complete_bipartite:2,{token}")


class TestVertexArguments:
    @pytest.mark.parametrize("g,u", [(path(4), -1), (star(5), -5), (path(4), 4), (path(4), True),
                                     (path(4), "a"), (path(4), 1.0), (path(4), None)])
    def test_degree_of_a_non_vertex_is_invalid_vertex(self, g, u):
        # a negative index would read another vertex's row
        with pytest.raises(InvalidVertex):
            g.degree(u)

    @pytest.mark.parametrize("u,v", [("a", 0), (0, "a"), (True, 0), (0, False), (None, 1), (1.0, 0)])
    def test_has_edge_of_a_non_int_is_invalid_vertex(self, u, v):
        with pytest.raises(InvalidVertex):
            path(4).has_edge(u, v)


class TestDistancesOnDemand:
    def test_classify_builds_no_distance_table(self):
        # has_edge reads the sorted adjacency row; the n x n table of order
        # 1000 takes about 24 MB
        tracemalloc.start()
        try:
            g = path(1000)
            flags = classify(g, Walk(tuple(range(1000))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert flags.is_sweep

    def test_route_inspection_and_walk_checks_keep_no_distances(self):
        # route inspection reads one BFS row per odd vertex and the walk
        # checks read the adjacency rows, so none of them fills the memo
        # entries of the all-pairs table or the radius
        for g in (path(7), cycle(8), star(6), kn_plus(5), complete_bipartite(2, 4), complete(6)):
            walk = shortest_covering_walk(g).walk
            shortest_covering_walk(g, "closed")
            if euler_class(g) != "none":
                eulerian_walk(g)
            classify(g, walk)
            is_opposite_lazy(g, walk, walk)
            subdivide_edge(g, g.edges[0])
            line_graph(g)
            assert "dist" not in g._memo and "radius" not in g._memo, g

    def test_has_edge_matches_edge_set(self):
        for g in corpus(5):
            edges = set(g.edges)
            for u in range(-1, g.n + 1):
                for v in range(-1, g.n + 1):
                    assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)

    @staticmethod
    def _read(g, barrier, seen):
        barrier.wait(timeout=10)
        seen.append((g.dist, g.radius))

    def test_threads_reading_a_fresh_graph_agree(self):
        # the graph is documented as safe to share: two threads that build
        # dist and radius at once read equal values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for g in (kn_plus(30), cycle(61)):
                barrier = threading.Barrier(2)
                seen = []
                threads = [
                    threading.Thread(target=self._read, args=(g, barrier, seen)) for _ in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                want = tuple(tuple(_bfs_row(g, s)) for s in range(g.n))
                assert seen == [(want, min(map(max, want)))] * 2
        finally:
            sys.setswitchinterval(interval)


class TestMemoHygiene:
    def test_what_a_graph_keeps_holds_no_reference_cycle(self):
        # every table the engines keep on a graph, or build for one call, is
        # freed by reference counting once the graph goes: none of them
        # refers back to itself, so none waits for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            for g in (cycle(5), kn_plus(4), complete_bipartite(2, 3), star(5)):
                g = Graph(g.n, g.edges)
                all_spans(g)
                for rule, target in ALL_VARIANTS:
                    witness_sweeps(g, rule, target)
                    min_length(g, rule, target)
                shortest_covering_walk(g)
                shortest_covering_walk(g, "closed")
                canonical_form(g)
                del g
            for g in enumerate_connected(5):
                pass
            del g
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRadii:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_path_radius(self, n):
        assert path(n).radius == n // 2

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_radius(self, n):
        assert cycle(n).radius == n // 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_radius(self, n):
        assert complete(n).radius == 1


def _bfs_row(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.mark.parametrize(
    "g",
    [path(7), cycle(8), complete(6), complete_bipartite(2, 4), star(6), kn_plus(5)],
    ids=repr,
)
def test_distance_matrix_matches_fresh_bfs(g):
    for src in range(g.n):
        assert list(g.dist[src]) == _bfs_row(g, src)
    assert g.radius == min(max(row) for row in g.dist)


class TestSubdivide:
    def test_k4_becomes_kn_plus(self):
        assert is_isomorphic(subdivide_edge(complete(4), (0, 3)), kn_plus(4))

    def test_p2_becomes_p3(self):
        assert is_isomorphic(subdivide_edge(path(2), (0, 1)), path(3))

    def test_c3_becomes_c4(self):
        assert is_isomorphic(subdivide_edge(cycle(3), (1, 2)), cycle(4))

    def test_edge_not_present(self):
        # has_edge answers False for ints outside 0..n-1
        for e in [(0, 2), (0, 3), (-1, 0)]:
            with pytest.raises(EdgeNotPresent):
                subdivide_edge(path(3), e)

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 2), ("a", "b"), (0, 1.0), (True, 1), None, 0])
    def test_wrong_shape_edge_rejected(self, edge):
        with pytest.raises(InvalidParams):
            subdivide_edge(path(3), edge)

    def test_counts(self):
        g = kn_plus(6)
        h = subdivide_edge(g, g.edges[0])
        assert h.n == g.n + 1 and h.m == g.m + 1

    def test_contract_recovers_original(self):
        # undoing the subdivision (drop w, restore uv) gives the original
        for g in corpus(6):
            for e in g.edges:
                h = subdivide_edge(g, e)
                w = h.n - 1
                back = Graph(g.n, [f for f in h.edges if w not in f] + [e])
                assert is_isomorphic(back, g)


class TestLineGraph:
    def test_cycle_selfdual(self):
        assert is_isomorphic(line_graph(cycle(5)), cycle(5))

    def test_path(self):
        assert is_isomorphic(line_graph(path(4)), path(3))

    def test_claw(self):
        assert is_isomorphic(line_graph(star(4)), complete(3))

    def test_empty(self):
        with pytest.raises(EmptyEdgeSet):
            line_graph(path(1))

    def test_matches_pairwise_definition(self):
        graphs = (*(g for g in corpus(6) if g.m), *_seeded_graphs(40, 43), star(40), complete(12),
                  complete_bipartite(6, 9), path(300))
        for g in graphs:
            lg, want = line_graph(g), reference_line_graph(g)
            assert (lg.n, lg.edges) == (want.n, want.edges), g
