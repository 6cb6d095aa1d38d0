"""graph-core: parsing, families, local modifications, metrics."""

from __future__ import annotations

import re
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
    MalformedInput,
    SelfLoop,
    complete,
    complete_bipartite,
    cycle,
    generate,
    kn_plus,
    line_graph,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    subdivide_edge,
)
import graphspan.graph as graph_module
from graphspan.families import is_isomorphic

from oracles import corpus


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

    @pytest.mark.parametrize("text", ["", "x\n", "2\n0\n", "2\n0 1 2\n", "0\n"])
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

    @pytest.mark.parametrize("token", ["1_0", "+9", "\u0663", "-1", "x"])
    def test_spec_only_ascii_decimal_parameters(self, token):
        with pytest.raises(MalformedInput, match=re.escape(repr(token))):
            FamilySpec.from_string(f"complete_bipartite:2,{token}")


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
        with pytest.raises(EdgeNotPresent):
            subdivide_edge(path(3), (0, 2))

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
