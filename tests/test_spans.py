"""span-engine: rule names, feasibility, span values, witnesses."""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from graphspan import (
    FamilySpec,
    Graph,
    InternalError,
    InvalidParams,
    Rule,
    TARGETS,
    complete_bipartite,
    Target,
    ThresholdOutOfRange,
    all_spans,
    complete,
    cycle,
    feasible,
    generate,
    kn_plus,
    length_lower_bounds,
    line_graph,
    min_length,
    path,
    span,
    star,
    witness_sweeps,
)
from graphspan import spans
from graphspan.cli import main

from oracles import (
    ALL_VARIANTS,
    all_trees,
    connected_graphs,
    corpus,
    count_engine_calls,
    labeled_connected,
    oracle_levels,
    oracle_pass,
    oracle_span,
    rule_moves,
    validate_pair,
)
from test_cli import WITNESS_DIGEST_SPECS


class TestRuleNames:
    def test_aliases(self):
        assert Rule.from_name("strong") is Rule.TRADITIONAL
        assert Rule.from_name("direct") is Rule.ACTIVE
        assert Rule.from_name("Cartesian") is Rule.LAZY
        assert Rule.from_name("lazy") is Rule.LAZY
        with pytest.raises(ValueError):
            Rule.from_name("sideways")
        # a name that is not a str raised a bare AttributeError
        with pytest.raises(ValueError, match="unknown rule 5"):
            Rule.from_name(5)

    def test_product_names(self):
        assert [r.product_name for r in Rule] == ["strong", "direct", "cartesian"]


class TestVariantArguments:
    """A rule or target that is not a member of its enum, such as its name
    as a string, is rejected before any pass runs or any memo entry is
    stored under it."""

    @pytest.mark.parametrize("call", [
        lambda g: span(g, "direct", Target.EDGES),
        lambda g: span(g, Rule.ACTIVE, "edges"),
        lambda g: witness_sweeps(g, "lazy", Target.VERTICES),
        lambda g: witness_sweeps(g, Rule.ACTIVE, "edges"),
        lambda g: feasible(g, Rule.TRADITIONAL, "vertices", 1),
        lambda g: min_length(g, "active", Target.VERTICES),
        lambda g: length_lower_bounds(g, Rule.LAZY, "edges"),
    ])
    def test_non_enum_rejected(self, call):
        g = kn_plus(5)
        with pytest.raises(InvalidParams):
            call(g)
        assert g._memo == {}

    def test_string_rule_is_not_read_as_another_rule(self):
        # read as the lazy rule's vertex target, this call answered 0 on K2,
        # whose active edge span is 1
        g = path(2)
        with pytest.raises(InvalidParams, match="rule must be a Rule, got 'direct'"):
            span(g, "direct", "edges")
        assert span(g, Rule.ACTIVE, Target.EDGES).value == 1


class TestFeasible:
    def test_knplus_traditional_edges_at_two(self):
        assert feasible(kn_plus(5), Rule.TRADITIONAL, Target.EDGES, 2)

    def test_knplus_active_edges_not_at_two(self):
        assert not feasible(kn_plus(5), Rule.ACTIVE, Target.EDGES, 2)

    def test_threshold_zero_always_feasible(self):
        for g in corpus(4):
            for rule, target in ALL_VARIANTS:
                assert feasible(g, rule, target, 0)

    def test_threshold_out_of_range(self):
        with pytest.raises(ThresholdOutOfRange):
            feasible(path(3), Rule.LAZY, Target.VERTICES, 2)
        with pytest.raises(ThresholdOutOfRange):
            feasible(path(3), Rule.LAZY, Target.VERTICES, -1)

    @pytest.mark.parametrize("k", [0.5, True, "1", None])
    def test_non_int_threshold_rejected(self, k):
        # 0.5 read as a threshold answered False, True was taken as 1 and
        # "1" failed with a bare TypeError
        g = kn_plus(5)
        with pytest.raises(InvalidParams, match="threshold must be an int"):
            feasible(g, Rule.ACTIVE, Target.VERTICES, k)
        assert g._memo == {}

    def test_variant_checked_before_threshold(self):
        # a string rule is an InvalidParams even with a threshold above the
        # radius, which alone raises ThresholdOutOfRange
        with pytest.raises(InvalidParams, match="rule must be a Rule"):
            feasible(kn_plus(5), "lazy", Target.VERTICES, 9)

    def test_monotone_in_threshold(self):
        for g in corpus(4):
            for rule, target in ALL_VARIANTS:
                flags = [feasible(g, rule, target, k) for k in range(g.radius + 1)]
                assert flags == sorted(flags, reverse=True)


class TestSpanValues:
    def test_c6_traditional_vertices(self):
        assert span(cycle(6), Rule.TRADITIONAL, Target.VERTICES).value == 3

    def test_c6_lazy_edges(self):
        assert span(cycle(6), Rule.LAZY, Target.EDGES).value == 2

    def test_p4_lazy_edges(self):
        assert span(path(4), Rule.LAZY, Target.EDGES).value == 0

    def test_k5_plus_all_six(self):
        values = [rep.value for rep in all_spans(kn_plus(5))]
        # (rule, target) order: traditional V/E, active V/E, lazy V/E
        assert values == [2, 2, 2, 1, 1, 1]

    @pytest.mark.parametrize("n", range(4, 8))
    def test_kn_plus_family(self, n):
        g = kn_plus(n)
        assert span(g, Rule.TRADITIONAL, Target.VERTICES).value == 2
        assert span(g, Rule.TRADITIONAL, Target.EDGES).value == 2
        assert span(g, Rule.ACTIVE, Target.VERTICES).value == 2
        assert span(g, Rule.ACTIVE, Target.EDGES).value == 1
        assert span(g, Rule.LAZY, Target.VERTICES).value == 1
        assert span(g, Rule.LAZY, Target.EDGES).value == 1

    @pytest.mark.parametrize("n", range(4, 8))
    def test_kn_plus_strict_strong_gap(self, n):
        g = kn_plus(n)
        strong = span(g, Rule.TRADITIONAL, Target.EDGES).value
        direct = span(g, Rule.ACTIVE, Target.EDGES).value
        cartesian = span(g, Rule.LAZY, Target.EDGES).value
        assert strong > max(direct, cartesian)

    def test_k1_all_zero(self):
        assert [rep.value for rep in all_spans(path(1))] == [0] * 6


class TestSpanInvariants:
    def test_chain_vs_radius_small_corpus(self):
        for g in corpus(5):
            for rule in Rule:
                e = span(g, rule, Target.EDGES).value
                v = span(g, rule, Target.VERTICES).value
                assert e <= v <= g.radius

    def test_traditional_dominates(self):
        for g in corpus(5):
            for target in Target:
                t = span(g, Rule.TRADITIONAL, target).value
                a = span(g, Rule.ACTIVE, target).value
                l = span(g, Rule.LAZY, target).value
                assert t >= max(a, l)

    def test_tree_enumerator_counts(self):
        # guards the oracle: numbers of trees per order
        by_order = {}
        for t in all_trees(9):
            by_order[t.n] = by_order.get(t.n, 0) + 1
        assert by_order == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}

    def test_trees_vertex_equals_edge(self):
        for tree in all_trees(9):
            for rule in Rule:
                assert (
                    span(tree, rule, Target.VERTICES).value
                    == span(tree, rule, Target.EDGES).value
                )

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycle_edge_span_via_line_graph(self, n):
        g = cycle(n)
        lg = line_graph(g)
        for rule in Rule:
            e = span(g, rule, Target.EDGES).value
            assert e == span(lg, rule, Target.VERTICES).value
            assert e == span(g, rule, Target.VERTICES).value

    def test_oracle_equivalence_order_four(self):
        # independent bounded walk-pair search, no component shortcut; the
        # edge target stops at 6 edges because the oracle's cost grows
        # steeply with the edge count (order 5 with 7 edges takes ~40 s)
        for target, graphs in ((Target.VERTICES, corpus(5)), (Target.EDGES, corpus(5, 6))):
            for g in graphs:
                for rule in Rule:
                    assert span(g, rule, target).value == oracle_span(g, rule, target)

    def test_deterministic_reports(self):
        g = kn_plus(5)
        assert all_spans(g) == all_spans(g)
        assert witness_sweeps(g, Rule.ACTIVE, Target.EDGES) == witness_sweeps(
            g, Rule.ACTIVE, Target.EDGES
        )


def _component(g, rule, k, root):
    """States reachable from root over pairs at distance >= k, stepping by the
    rule's definition (strong: not both stay, direct: both move, Cartesian:
    exactly one moves) rather than by the engine's successor lists."""
    n = g.n
    seen = {root}
    stack = [divmod(root, n)]
    while stack:
        u, v = stack.pop()
        for x in (u, *g.adj[u]):
            for y in (v, *g.adj[v]):
                moved = (x != u, y != v)
                allowed = {
                    Rule.TRADITIONAL: any(moved),
                    Rule.ACTIVE: all(moved),
                    Rule.LAZY: moved[0] != moved[1],
                }[rule]
                if allowed and g.dist[x][y] >= k and x * n + y not in seen:
                    seen.add(x * n + y)
                    stack.append((x, y))
    return seen


def assert_short_tree_walk(g, rule, target, rep, f, h):
    """The witness starts at the component's lowest state, stays in the
    component, and has at most 2(|C| - 1) + 4w + 1 entries."""
    states = [u * g.n + v for u, v in zip(f.seq, h.seq)]
    component = _component(g, rule, rep.value, rep.witness_component)
    assert states[0] == min(component) == rep.witness_component
    assert set(states) <= component
    w = g.n if target is Target.VERTICES else g.m
    assert len(states) <= 2 * (len(component) - 1) + 4 * w + 1


def _lowest_covering_state(g, rule, target, k):
    """Lowest u*n + v whose component at threshold k covers the target for
    both players, its states and product edges taken from the rule's
    definition; None when no component covers it."""
    n = g.n
    for root in range(n * n):
        if g.dist[root // n][root % n] < k:
            continue
        component = _component(g, rule, k, root)
        if target is Target.VERTICES:
            f = {s // n for s in component}
            h = {s % n for s in component}
            full = set(range(n))
        else:
            f, h = set(), set()
            for s in component:
                u, v = divmod(s, n)
                for x, y in rule_moves(g, rule, u, v):
                    if x * n + y not in component:
                        continue
                    if x != u:
                        f.add((min(u, x), max(u, x)))
                    if y != v:
                        h.add((min(v, y), max(v, y)))
            full = set(g.edges)
        if f == full and h == full:
            return root
    return None


class TestMemo:
    def test_one_lazy_and_one_active_pass_and_one_canonical_search(self, monkeypatch):
        # the traditional answers are joined from the lazy and active passes
        passes, searches, _ = count_engine_calls(monkeypatch)
        g = kn_plus(4)
        all_spans(g)
        for rule, target in ALL_VARIANTS:
            witness_sweeps(g, rule, target)
        for rule in Rule:
            min_length(g, rule, Target.VERTICES)
        assert sorted(rule.value for rule in passes) == ["active", "lazy"]
        assert len(searches) == 1

    def test_any_first_span_query_runs_one_lazy_and_one_active_pass(self, monkeypatch):
        # the first span or witness query of any rule and target keeps the
        # answers of all three rules, joined from one lazy and one active
        # pass; later queries of every rule read them, and each rule runs
        # one or two witness BFS
        passes, _, witness_runs = count_engine_calls(monkeypatch)
        for query in (span, witness_sweeps):
            for first in ALL_VARIANTS:
                g = kn_plus(5)
                query(g, *first)
                assert passes == [Rule.LAZY, Rule.ACTIVE], (query, first)
                all_spans(g)
                for rule, target in ALL_VARIANTS:
                    witness_sweeps(g, rule, target)
                assert passes == [Rule.LAZY, Rule.ACTIVE], (query, first)
                assert {witness_runs.count(rule) for rule in Rule} <= {1, 2}, (query, first)
                passes.clear()
                witness_runs.clear()

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(6))
    def test_memoized_pass_matches_oracles(self, g):
        first = all_spans(g)
        fresh = Graph(g.n, g.edges)
        for rule in Rule:
            assert g._memo["spans"][spans.RULES.index(rule)] == tuple(
                (r.value, r.witness_component) for r in first if r.rule is rule)
            for target in TARGETS:
                rep = span(g, rule, target)  # read from the memo
                assert rep in first
                assert rep == span(fresh, rule, target)
                # the walk-pair oracle takes up to 2 s per order-6 graph on the
                # vertex target and grows steeply with the size on the edge
                # target; the component check below covers every graph
                if (g.n <= 4) if target is Target.VERTICES else (g.m <= 5):
                    assert rep.value == oracle_span(g, rule, target)
                assert rep.witness_component == _lowest_covering_state(g, rule, target, rep.value)
                if rep.value < g.radius:
                    assert _lowest_covering_state(g, rule, target, rep.value + 1) is None


def _seeded_graphs(count: int, seed: int, orders=(8, 22), densities=(0.1, 0.2, 0.4, 0.7)):
    """Connected graphs with orders drawn from the closed range: a random
    spanning tree plus each other pair with one of the densities, labels
    shuffled."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(*orders)
        label = list(range(n))
        rng.shuffle(label)
        edges = {(label[rng.randrange(v)], label[v]) for v in range(1, n)}
        density = rng.choice(densities)
        edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < density}
        graphs.append(Graph(n, {(min(e), max(e)) for e in edges}))
    return graphs


def _dense_graphs():
    """Graphs on which most pairs take the reduced active move set."""
    return _seeded_graphs(40, 15, orders=(10, 18), densities=(0.5, 0.7, 0.9))


def _pass_levels(g, rule, levels):
    """The levels the span pass of rule reads, entering the states of
    levels: its own union-find pass for the lazy and active rules, the join
    of those two for the traditional rule."""
    if rule is Rule.TRADITIONAL:
        return spans._joined_levels(
            g, spans._union_levels(g, Rule.LAZY, levels),
            spans._union_levels(g, Rule.ACTIVE, levels), levels)
    return spans._union_levels(g, rule, levels)


def _root(parent, s):
    """The root of s in a union-find parent list; it writes nothing, so it
    can read the list of a suspended pass without changing it."""
    while parent[s] != s:
        s = parent[s]
    return s


def _level_ends(levels, g):
    """After every level of the pass, down to threshold 0: each component
    of the present states, keyed by its root, with its states and the
    root's coverage word, as ``oracle_levels`` yields them."""
    n = g.n
    ends = []
    for k, _, parent, cov, _ in levels:
        components = {}
        for s in range(n * n):
            if g.dist[s // n][s % n] >= k:
                components.setdefault(_root(parent, s), []).append(s)
        ends.append((k, {r: (states, cov[r]) for r, states in components.items()}))
    return ends


def _moves_unions(g, rule):
    """After every level, the roots a union-find pass that reads its moves
    from ``spans._moves`` unions below another, in order: the pass the span
    pass's inline reads copy, with the same entry order and the lowest index
    as root."""
    n = g.n
    parent = list(range(n * n))
    present = [False] * (n * n)
    ends = []
    for k, level in reversed(list(enumerate(spans._levels(g)))):
        merged = []
        for s in level:
            present[s] = True
            for x, y in spans._moves(g, rule, *divmod(s, n), k):
                t = x * n + y
                if present[t]:
                    a, b = sorted((_root(parent, s), _root(parent, t)))
                    if a != b:
                        parent[b] = a
                        merged.append(b)
        ends.append((k, merged))
    return ends


def _reach(moves, start):
    """States reachable from start along the successor lists of moves."""
    seen = {start}
    stack = [start]
    while stack:
        for t in moves[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _covered(moves, component, width, bit):
    """OR of what the moves out of the component's states cover, in the
    witness BFS's layout: f bits above g bits."""
    word = 0
    for u, v in component:
        for x, y in moves[u, v]:
            word |= bit[u][x] << width | bit[v][y]
    return word


class TestReducedMoves:
    """At each level's threshold the active span pass reads half of a
    spanning double star per block of active moves, each star edge read from
    its A end, and the traditional span pass reads no move: it joins the
    lazy and active levels. The passes read their moves inline from the step
    rows, copying ``_moves``. Every level must end as with the full set,
    which an independent union-find over the full move set
    (``oracle_levels``) gives. The witness BFS reads the strong rule's lazy
    moves plus the diagonals whose lazy intermediates are both closer than
    the threshold; at a fixed threshold, with every pair at or above it
    present, the moves read from any pair must reach and cover its whole
    full-set component."""

    def test_pass_matches_full_move_set(self):
        graphs = [
            *corpus(7),  # all 996 connected graphs of order <= 7, K1 and K2 included
            *_seeded_graphs(60, 12),
            complete(20),
            star(40),
            path(50),
            kn_plus(12),
            complete_bipartite(20, 30),
        ]
        for g in graphs:
            joined = spans._joined_pass(g)
            for rule, hits in zip(spans.RULES, joined):
                assert hits == oracle_pass(g, rule), (g.n, g.edges, rule)

    def test_every_level_ends_as_with_full_move_set(self):
        # the final (value, root) can hide a level whose partition or
        # coverage differs; compare every level's components and the
        # coverage bits of their roots; the library stars (centre 0) and the
        # trees fail a double star cut down to its star moves at some level,
        # while the final values stay equal; the active set's soundness
        # rests on the labels, through first() and the u*n + v entry order,
        # so every labeling of every graph of order <= 5 runs too
        graphs = [*corpus(6), *_dense_graphs(), complete(12), kn_plus(8),
                  star(6), star(9), *all_trees(8), *labeled_connected(5),
                  complete_bipartite(20, 30)]
        for g in graphs:
            levels = spans._levels(g)
            for rule in Rule:
                assert _level_ends(_pass_levels(g, rule, levels), g) == list(
                    oracle_levels(g, rule)), (g.n, g.edges, rule)

    def test_inline_reads_follow_moves(self):
        # the passes copy _moves inline; reading the same moves in the same
        # order, they union the same roots at every level, which a read the
        # copy adds, drops or reorders changes
        graphs = [*corpus(6), *_dense_graphs(), complete(12), kn_plus(8), path(20),
                  complete_bipartite(6, 9), *labeled_connected(5)]
        for g in graphs:
            levels = spans._levels(g)
            for rule in (Rule.LAZY, Rule.ACTIVE):
                unions = [(k, merged) for k, _, _, _, merged in spans._union_levels(g, rule, levels)]
                assert unions == _moves_unions(g, rule), (g.n, g.edges, rule)

    def test_thresholded_moves_are_real_moves(self):
        # a reduction that invents a move can keep the final values when
        # the bad union lands in a component that is already full
        for g in (*corpus(5), *_dense_graphs(), complete(12), kn_plus(8)):
            for rule in Rule:
                for u in g.vertices:
                    for v in g.vertices:
                        full = set(rule_moves(g, rule, u, v))
                        for k in range(min(g.dist[u][v], g.radius) + 1):
                            assert set(spans._moves(g, rule, u, v, k)) <= full, (
                                g.n, g.edges, rule, u, v, k)

    def test_reads_reach_the_full_component_at_every_threshold(self):
        # the witness BFS follows only the moves a state reads at the fixed
        # threshold k, with every pair at distance >= k present; from every
        # such pair the reads must reach its whole component of the full move
        # set, and the moves read there must cover what the full set covers;
        # the labels matter for the active set, so every labeling runs
        for g in labeled_connected(5):
            covers = [spans._cover(g, target) for target in TARGETS]
            for rule in (Rule.TRADITIONAL, Rule.ACTIVE):
                for k in range(g.radius + 1):
                    states = [(u, v) for u in g.vertices for v in g.vertices
                              if g.dist[u][v] >= k]
                    full = {s: [t for t in rule_moves(g, rule, *s) if g.dist[t[0]][t[1]] >= k]
                            for s in states}
                    reads = {s: [t for t in spans._moves(g, rule, *s, k)
                                 if g.dist[t[0]][t[1]] >= k]
                             for s in states}
                    left = set(states)
                    while left:
                        component = _reach(full, min(left))
                        left -= component
                        for s in component:
                            assert _reach(reads, s) == component, (g.n, g.edges, rule, k, s)
                        for width, bit in covers:
                            assert _covered(reads, component, width, bit) == _covered(
                                full, component, width, bit), (g.n, g.edges, rule, k)

    def test_complete_20_move_counts(self):
        # 380 pairs at distance 1 enter, and every pass stops there: the lazy
        # rule reads its 38 moves per pair; the active rule reads each
        # block's double star from its A ends only, instead of its
        # 19 * 19 - 19 moves; the traditional levels are joined from those
        # two passes and read no move; the passes read these moves inline
        # (test_inline_reads_follow_moves)
        g = complete(20)
        pairs = spans._levels(g)[1]
        assert len(pairs) == 380
        assert {k for hits in spans._joined_pass(g) for k, _ in hits} == {1}
        counts = {rule: sum(len(list(spans._moves(g, rule, *divmod(s, g.n), 1))) for s in pairs)
                  for rule in (Rule.ACTIVE, Rule.LAZY)}
        assert counts == {Rule.ACTIVE: 14_420, Rule.LAZY: 14_440}

    def test_span_pass_reads_no_strong_move(self, monkeypatch):
        # only the lazy and active rules run a pass, and the passes read
        # their moves from the step rows, not from _moves; fresh copies, as
        # the shared corpus graphs keep their answers
        passes, _, _ = count_engine_calls(monkeypatch)
        calls = []
        monkeypatch.setattr(spans, "_moves", lambda *args: calls.append(args))
        for g in (*corpus(5), complete(12), kn_plus(8), complete_bipartite(4, 6)):
            all_spans(Graph(g.n, g.edges))
        assert set(passes) == {Rule.LAZY, Rule.ACTIVE} and calls == []

    def test_unthresholded_moves_are_the_full_set(self):
        # the minimal-length search reads this move set
        for g in (kn_plus(5), complete_bipartite(2, 3)):
            for rule in Rule:
                for u in g.vertices:
                    for v in g.vertices:
                        got = list(spans._moves(g, rule, u, v))
                        assert len(got) == len(set(got))
                        assert set(got) == set(rule_moves(g, rule, u, v))

    def test_merged_states_keep_a_marker_word(self):
        # only root words and the nonzero presence test are read, so a state
        # unioned below another root keeps the word 1, not its 2n + 2m bits;
        # the traditional join keeps its words the same way
        for g in (path(30), complete(8)):
            levels = spans._levels(g)
            for rule in Rule:
                *_, (k, _, parent, cov, _) = _pass_levels(g, rule, levels)
                assert k == 0
                merged = [s for s in range(g.n * g.n) if parent[s] != s]
                assert merged and all(cov[s] == 1 for s in merged), (g.n, rule)

    def test_parent_lists_hold_the_level_ints(self):
        # indices above 256 are separate int objects in CPython, so parent
        # lists of new ints would add 28 bytes per pair to each pass; each
        # state's entry is set as it enters, so after threshold 0 every
        # entry holds an int of the levels
        g = path(30)
        levels = spans._levels(g)
        level_ints = {id(s) for level in levels for s in level}
        for rule in Rule:
            *_, (_, _, parent, _, _) = _pass_levels(g, rule, levels)
            assert all(id(s) in level_ints for s in parent), rule

    def test_levels_hold_each_pair_once(self):
        for g in (path(1), cycle(7), kn_plus(6), star(9)):
            levels = spans._levels(g)
            assert len(levels) == g.radius + 1
            assert sorted(s for level in levels for s in level) == list(range(g.n * g.n))
            for k, level in enumerate(levels):
                assert list(level) == sorted(level)
                assert all(min(g.dist[s // g.n][s % g.n], g.radius) == k for s in level)

    def test_graph_keeps_only_the_answers(self):
        # the level lists and the parent lists of the passes live only as
        # long as the pass, and the witness BFS of each target reads its
        # own coverage table, so no sequence of queries leaves the level
        # lists or a table of both targets on the graph
        for g in (path(1), cycle(7), kn_plus(6), star(9), complete_bipartite(3, 4)):
            for first in (span, witness_sweeps):
                fresh = Graph(g.n, g.edges)
                first(fresh, Rule.LAZY, Target.EDGES)
                for rule, target in ALL_VARIANTS:
                    witness_sweeps(fresh, rule, target)
                    span(fresh, rule, target)
                assert "levels" not in fresh._memo and ("cover", None) not in fresh._memo
                assert set(fresh._memo) == {
                    "spans", "steps", *(("cover", target) for target in TARGETS),
                    *(("witness", rule) for rule in Rule)}

    def test_span_pass_leaves_little_on_the_graph(self):
        # what a graph keeps after all_spans is its memo: the answers, the
        # distance table, the coverage tables and the step rows, about
        # 0.76 MB on path(200); keeping the level lists, n * n ints, took
        # it to 2.30 MB
        g = path(200)
        tracemalloc.start()
        try:
            all_spans(g)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1_500_000

    def test_step_rows_built_once_per_graph(self, monkeypatch):
        # one table per graph, shared by the lazy and active passes and
        # every rule's witness BFS, with 2m entries per player; the two
        # directions of an edge share one f-step word
        built = []
        memoized = Graph._memoized

        def recorded(g, key, compute):
            return memoized(g, key, lambda: built.append(key) or compute())

        monkeypatch.setattr(Graph, "_memoized", recorded)
        for g in (path(1), cycle(7), kn_plus(6), star(9), complete_bipartite(3, 4)):
            g = Graph(g.n, g.edges)
            all_spans(g)
            for rule, target in ALL_VARIANTS:
                witness_sweeps(g, rule, target)
            f_rows, g_rows = g._memo["steps"]
            assert built.count("steps") == 1
            built.clear()
            n, m = g.n, g.m
            for rows, offset, shift in ((f_rows, n, m), (g_rows, 1, 0)):
                assert sum(map(len, rows)) == 2 * m
                assert rows == tuple(
                    tuple((x, (x - u) * offset, 1 << g.edges.index((min(u, x), max(u, x))) << shift)
                          for x in g.adj[u])
                    for u in g.vertices)
            f_words = {(u, x): word for u, row in enumerate(f_rows) for x, _, word in row}
            assert all(word is f_words[x, u] for (u, x), word in f_words.items())


def _record_levels(monkeypatch) -> dict:
    """Wrap the lazy and active passes and the join so that each records,
    under its rule, the threshold of every level it yields, as it yields
    it."""
    read: dict = {}
    union_levels = spans._union_levels
    joined_levels = spans._joined_levels

    def recorded(rule, levels):
        for level in levels:
            read.setdefault(rule, []).append(level[0])
            yield level

    monkeypatch.setattr(spans, "_union_levels",
                        lambda g, rule, *args: recorded(rule, union_levels(g, rule, *args)))
    monkeypatch.setattr(spans, "_joined_levels",
                        lambda *args: recorded(Rule.TRADITIONAL, joined_levels(*args)))
    return read


class TestJoinedPass:
    """``_joined_pass`` reads the join until the traditional targets are
    hit, then each pass on alone while one of its own targets is unhit."""

    def test_each_structure_reads_down_to_its_own_span(self, monkeypatch):
        # every structure yields the levels from the radius down to the
        # lower of its rule's two span values, each once; a driver that
        # reads all three in step until every target is hit gives the same
        # answers, but drags the passes through levels they never need
        read = _record_levels(monkeypatch)
        families = [generate(FamilySpec.from_string(spec)) for spec in WITNESS_DIGEST_SPECS]
        for g in (*families, *corpus(6), *_dense_graphs()):
            read.clear()
            for rule, hits in zip(spans.RULES, spans._joined_pass(g)):
                lowest = min(k for k, _ in hits)
                assert read[rule] == list(range(g.radius, lowest - 1, -1)), (g.n, g.edges, rule)

    def test_levels_running_out_is_internal_error(self, monkeypatch, capsys):
        # a join that yields no level, or passes that stop after their first
        # level, leave targets unhit: the library raises InternalError, and
        # the CLI exits 3, not with a bare traceback
        union_levels = spans._union_levels
        breaches = [
            ("_joined_levels", lambda *args: iter(())),
            ("_union_levels", lambda *args: itertools.islice(union_levels(*args), 1)),
        ]
        for name, breach in breaches:
            with monkeypatch.context() as patched:
                patched.setattr(spans, name, breach)
                with pytest.raises(InternalError):
                    span(path(5), Rule.LAZY, Target.EDGES)
                assert main(["span", "--family", "path:6"]) == 3, name
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("internal error (span)"), name


def _reference_bfs(g, rule, k, root):
    """The visit order and parents of a BFS from root over the reads of
    ``spans._moves`` at threshold k, cut to distance >= k, each state's
    reads in increasing flat index: the whole component, unlike the
    witness BFS, which stops once its target is covered."""
    n = g.n
    parent = {root: root}
    order = [root]
    for s in order:  # grows while it is read
        u, v = divmod(s, n)
        for t in sorted(x * n + y for x, y in spans._moves(g, rule, u, v, k) if g.dist[x][y] >= k):
            if t not in parent:
                parent[t] = s
                order.append(t)
    return order, parent


def _reference_credits(g, rule, k, order):
    """The credits of a BFS over the whole component, replaying the reads
    of ``spans._moves`` at threshold k, cut to distance >= k, over the
    visit order of ``_reference_bfs``: (vertex credits, the states that
    first enter a vertex of either player; edge credits, for each read s-t
    that first covers an edge of either player, t if the read first
    visits t, else s; detours, the t of each such s)."""
    n = g.n
    root = order[0]
    seen = {root}
    entered = ({root // n}, {root % n})
    covered = set()
    vertices, edges, detours = [root], [], {}
    for s in order:
        u, v = divmod(s, n)
        for t in sorted(x * n + y for x, y in spans._moves(g, rule, u, v, k) if g.dist[x][y] >= k):
            x, y = divmod(t, n)
            new = {(player, a, b) for player, a, b in ((0, *sorted((u, x))), (1, *sorted((v, y))))
                   if a != b} - covered
            if t not in seen:
                seen.add(t)
                if x not in entered[0] or y not in entered[1]:
                    entered[0].add(x)
                    entered[1].add(y)
                    vertices.append(t)
                if new:
                    edges.append(t)
            elif new:
                edges.append(s)
                detours.setdefault(s, []).append(t)
            covered |= new
    return vertices, edges, detours


def _witness_order_graphs() -> list[Graph]:
    specs = ("complete:10", "complete:11", "path:30", "kn_plus:9", "cycle:40",
             "complete_bipartite:5,6")
    return [
        *corpus(6),
        *(generate(FamilySpec.from_string(spec)) for spec in specs),
        *_seeded_graphs(100, 24, orders=(1, 20)),
    ]


class TestWitnesses:
    def test_knplus_traditional_edges(self):
        g = kn_plus(5)
        f, h = witness_sweeps(g, Rule.TRADITIONAL, Target.EDGES)
        assert validate_pair(g, Rule.TRADITIONAL, Target.EDGES, f, h, 2) == []

    def test_c5_active_vertices(self):
        g = cycle(5)
        f, h = witness_sweeps(g, Rule.ACTIVE, Target.VERTICES)
        assert validate_pair(g, Rule.ACTIVE, Target.VERTICES, f, h, 2) == []

    def test_k1_constant_pair(self):
        f, h = witness_sweeps(path(1), Rule.TRADITIONAL, Target.VERTICES)
        assert f.seq == (0,) and h.seq == (0,)

    def test_k5_traditional_edges_witness_length(self):
        f, h = witness_sweeps(complete(5), Rule.TRADITIONAL, Target.EDGES)
        assert len(f) == len(h) == 37

    def test_edge_first_and_vertex_first_give_the_same_walks(self, monkeypatch):
        # either order runs one BFS for a rule whose targets share a span
        # value and root, and one per target otherwise
        _, _, witness_runs = count_engine_calls(monkeypatch)
        graphs = _witness_order_graphs()
        runs = {TARGETS: 0, TARGETS[::-1]: 0}
        for g in graphs:
            walks = []
            for targets in runs:
                fresh = Graph(g.n, g.edges)
                before = len(witness_runs)
                walks.append({(rule, target): witness_sweeps(fresh, rule, target)
                              for rule in Rule for target in targets})
                runs[targets] += len(witness_runs) - before
            assert walks[0] == walks[1]
        assert runs[TARGETS] == runs[TARGETS[::-1]] < 6 * len(graphs)

    def test_pairs_are_tree_walks_over_the_reference_credits(self):
        # both targets' pairs are the tree walks over the credits of a BFS
        # of the whole component over the reads of _moves: each vertex of
        # each player credited to the first state that enters it, each edge
        # to the first read that covers it
        shared = 0
        for g in _witness_order_graphs():
            for rule in Rule:
                hits = spans._rule_spans(g, rule)
                shared += hits[0] == hits[1]
                for target, (k, root) in zip(TARGETS, hits):
                    order, parent = _reference_bfs(g, rule, k, root)
                    vertices, edges, detours = _reference_credits(g, rule, k, order)
                    if target is Target.VERTICES:
                        edges, detours = vertices, {}
                    expected = spans._tree_walk(g.n, parent, order, edges, detours)
                    assert witness_sweeps(g, rule, target) == expected, (g.n, g.edges, rule, target)
        assert shared

    def test_walks_end_at_the_deepest_kept_pair(self):
        # over the reference BFS and credits: the kept tree T holds the
        # credited states and their tree paths to root, the final pair is
        # its last state in BFS order, and the walk writes every tree edge
        # twice and each detour s, t, s as two more entries, except that it
        # ends at the final pair instead of walking back to root
        corpus_f_entries = 0
        small = corpus(6)
        families = [generate(FamilySpec.from_string(spec)) for spec in WITNESS_DIGEST_SPECS]
        for i, g in enumerate((*small, *families)):
            for rule in Rule:
                for target, (k, root) in zip(TARGETS, spans._rule_spans(g, rule)):
                    order, parent = _reference_bfs(g, rule, k, root)
                    vertices, kept, detours = _reference_credits(g, rule, k, order)
                    if target is Target.VERTICES:
                        kept, detours = vertices, {}
                    tree = {root}
                    for s in kept:
                        while s not in tree:
                            tree.add(s)
                            s = parent[s]
                    final = next(s for s in reversed(order) if s in tree)
                    depth, s = 0, final
                    while s != root:
                        depth, s = depth + 1, parent[s]
                    d = sum(map(len, detours.values()))
                    f, h = witness_sweeps(g, rule, target)
                    key = g.n, g.edges, rule, target
                    assert f.seq[0] * g.n + h.seq[0] == root, key
                    assert f.seq[-1] * g.n + h.seq[-1] == final, key
                    assert len(f) == 2 * (len(tree) - 1) + 2 * d + 1 - depth, key
                    if i < len(small):
                        corpus_f_entries += len(f)
        assert corpus_f_entries == 18_764

    def test_vertex_bfs_stops_at_the_last_vertex_credit(self):
        # without edges the BFS credits no edge, and its visit order ends
        # with the state that enters the last vertex, where the reference
        # BFS credits it
        for g in _witness_order_graphs():
            for rule in Rule:
                for k, root in spans._rule_spans(g, rule):
                    vertices, edges, detours, _, order = spans._component_witness(
                        g, rule, k, root, False)
                    assert edges == [] and detours == {}
                    ref_order, _ = _reference_bfs(g, rule, k, root)
                    ref_vertices = _reference_credits(g, rule, k, ref_order)[0]
                    assert vertices == ref_vertices
                    assert order == ref_order[:ref_order.index(vertices[-1]) + 1], (
                        g.n, g.edges, rule, k)

    def test_all_witnesses_revalidate_small_corpus(self):
        for g in corpus(6):
            for rule, target in ALL_VARIANTS:
                rep = span(g, rule, target)
                f, h = witness_sweeps(g, rule, target)
                assert validate_pair(g, rule, target, f, h, rep.value) == []
                assert_short_tree_walk(g, rule, target, rep, f, h)

    def test_family_witnesses_revalidate(self):
        for g in [path(6), cycle(7), complete(5), kn_plus(6), line_graph(complete(4))]:
            for rule, target in ALL_VARIANTS:
                value = span(g, rule, target).value
                f, h = witness_sweeps(g, rule, target)
                assert validate_pair(g, rule, target, f, h, value) == []

    def test_large_witness_revalidates(self):
        # each witness component of K30 at distance 1 has 870 states, and
        # the strong one 378,015 product edges, of which its states read
        # 49,590 at threshold 1; the BFS follows the reads and stops once
        # all 435 edges are credited for both players
        g = complete(30)
        for rule, target in ALL_VARIANTS:
            f, h = witness_sweeps(g, rule, target)
            assert validate_pair(g, rule, target, f, h, span(g, rule, target).value) == []

    def test_witness_bfs_follows_the_thresholded_moves(self):
        # every rule's witness BFS reads its moves inline from the step
        # rows; a BFS over the sorted reads of _moves at the same threshold,
        # cut to distance >= k, must visit the same states in the same
        # order with the same parents, up to where the witness BFS stops,
        # at the span value and every threshold below it, from the witness
        # root of either target
        checked = 0
        for g in (*labeled_connected(5), *_dense_graphs()):
            references = {}
            for rule in Rule:
                for target, (value, root) in zip(TARGETS, spans._rule_spans(g, rule)):
                    for k in range(value + 1):
                        _, _, _, parent, order = spans._component_witness(
                            g, rule, k, root, target is Target.EDGES)
                        key = rule, k, root
                        if key not in references:
                            references[key] = _reference_bfs(g, rule, k, root)
                        ref_order, ref_parent = references[key]
                        assert order == ref_order[:len(order)], (g.n, g.edges, rule, target, k)
                        assert [parent[t] for t in order] == [ref_parent[t] for t in order]
                        assert parent.count(-1) == g.n * g.n - len(order)
                        checked += 1
        assert checked > 6 * 772

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(8))
    def test_random_graph_witnesses_revalidate(self, g):
        for rule in Rule:
            values = {}
            for target in Target:
                rep = span(g, rule, target)
                values[target] = rep.value
                f, h = witness_sweeps(g, rule, target)
                assert validate_pair(g, rule, target, f, h, values[target]) == []
                assert_short_tree_walk(g, rule, target, rep, f, h)
            assert values[Target.EDGES] <= values[Target.VERTICES] <= g.radius
