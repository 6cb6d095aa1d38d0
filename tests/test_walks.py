"""walk-model: classification, pair distance, opposite-lazy machinery."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspan import (
    InvalidParams,
    InvalidVertex,
    LengthMismatch,
    MalformedInput,
    NotATrack,
    Walk,
    classify,
    complete,
    cycle,
    format_walk,
    induce_opposite,
    is_opposite_lazy,
    kn_plus,
    pair_distance,
    parse_walk,
    path,
)
from graphspan.cli import load_fixture_walks

from oracles import all_trees, random_track_pair


def w(*seq):
    return Walk(tuple(seq))


class TestWalkArguments:
    def test_any_iterable_becomes_a_tuple(self):
        assert Walk(iter([0, 1])).seq == (0, 1)
        assert Walk([2, 0]) == w(2, 0)

    @pytest.mark.parametrize("seq", [None, 5])
    def test_non_iterable_rejected(self, seq):
        with pytest.raises(InvalidParams):
            Walk(seq)

    def test_empty_rejected(self):
        with pytest.raises(MalformedInput):
            Walk(iter(()))


class TestClassify:
    def test_cycle_circuit_is_sweep(self):
        c = classify(cycle(4), w(0, 1, 2, 3, 0))
        assert c.is_sweep and c.is_track and c.is_lazy_sweep and c.is_lazy_track

    def test_k5_fixture_row_is_sweep(self):
        f, g = load_fixture_walks(("k5_sweeps_f.walk", "k5_sweeps_g.walk"), 5)
        assert classify(complete(5), f).is_sweep
        assert classify(complete(5), g).is_sweep

    def test_stay_step_downgrades_to_lazy(self):
        c = classify(path(3), w(0, 0, 1, 2))
        assert c.is_lazy_track and not c.is_track
        assert not c.is_sweep and c.is_lazy_sweep  # both edges still covered

    def test_non_surjective(self):
        c = classify(path(3), w(0, 1, 0))
        assert not c.is_lazy_track and not c.is_track

    def test_non_adjacent_step(self):
        c = classify(path(3), w(0, 2, 1, 0, 1, 2))
        assert not c.is_lazy_track

    def test_single_entry_on_k1(self):
        c = classify(path(1), w(0))
        assert c.is_track and c.is_sweep  # no edges to cover

    def test_single_entry_on_k2(self):
        c = classify(path(2), w(0))
        assert not c.is_track and not c.is_lazy_track

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertex):
            classify(path(2), w(0, 2))

    @pytest.mark.parametrize("entry", ["a", 0.5, True, None])
    def test_non_int_entry_rejected(self, entry):
        with pytest.raises(InvalidVertex, match=re.escape(repr(entry))):
            classify(path(3), w(0, entry))
        with pytest.raises(InvalidVertex):
            pair_distance(path(3), w(0, 1), w(1, entry))
        with pytest.raises(InvalidVertex):
            pair_distance(path(3), w(entry, 1), w(1, 0))

    def test_subclass_implications_random(self):
        rng = random.Random(7)
        graphs = [path(4), cycle(5), complete(4), kn_plus(4)]
        for _ in range(300):
            g = rng.choice(graphs)
            length = rng.randrange(1, 12)
            seq = [rng.randrange(g.n)]
            for _ in range(length - 1):
                seq.append(rng.choice((*g.adj[seq[-1]], seq[-1])))
            c = classify(g, w(*seq))
            assert not c.is_track or c.is_lazy_track
            assert not c.is_sweep or c.is_lazy_sweep
            assert not c.is_sweep or c.is_track
            assert not c.is_lazy_sweep or c.is_lazy_track


class TestPairDistance:
    def test_identical_walks(self):
        walk = w(0, 1, 2)
        assert pair_distance(path(3), walk, walk) == 0

    def test_k5_table_pair(self):
        f, g = load_fixture_walks(("k5_sweeps_f.walk", "k5_sweeps_g.walk"), 5)
        assert pair_distance(complete(5), f, g) == 1

    def test_knplus_table_pair(self):
        f, g = load_fixture_walks(
            ("knplus5_lazy_sweeps_f.walk", "knplus5_lazy_sweeps_g.walk"), 6
        )
        assert pair_distance(kn_plus(5), f, g) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pair_distance(path(3), w(0, 1), w(0, 1, 2))


class TestOppositeLazy:
    def test_k5_opposite_table(self):
        f, g = load_fixture_walks(("k5_opposite_lazy_f.walk", "k5_opposite_lazy_g.walk"), 5)
        assert is_opposite_lazy(complete(5), f, g)
        assert pair_distance(complete(5), f, g) == 1

    def test_equal_moving_walks_are_not_opposite(self):
        walk = w(0, 1, 2)
        assert not is_opposite_lazy(path(3), walk, walk)

    def test_both_constant(self):
        assert not is_opposite_lazy(path(2), w(0, 0), w(1, 1))

    def test_invalid_step_is_not_opposite(self):
        assert not is_opposite_lazy(path(3), w(0, 2), w(1, 1))
        assert not is_opposite_lazy(path(3), w(1, 1), w(0, 2))
        assert is_opposite_lazy(path(3), w(1, 1), w(0, 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_opposite_lazy(path(2), w(0,), w(0, 1))


class TestInduceOpposite:
    def test_length_one(self):
        f, g = induce_opposite(w(0), w(1))
        assert f.seq == (0,) and g.seq == (1,)

    def test_k2_example(self):
        f, g = induce_opposite(w(0, 1), w(1, 0))
        assert f.seq == (0, 1, 1)
        assert g.seq == (1, 1, 0)

    def test_rejects_stay_steps(self):
        with pytest.raises(NotATrack):
            induce_opposite(w(0, 0), w(1, 0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            induce_opposite(w(0, 1), w(0, 1, 0))

    def test_antipodal_cycle_tracks(self):
        g = cycle(6)
        f = w(0, 1, 2, 3, 4, 5, 0)
        h = w(3, 4, 5, 0, 1, 2, 3)
        assert pair_distance(g, f, h) == 3
        fi, hi = induce_opposite(f, h)
        assert pair_distance(g, fi, hi) >= 2

    def test_randomized_distance_drop_at_most_one(self):
        # acceptance property: m(f', g') >= m(f, g) - 1 on >= 1000 pairs
        rng = random.Random(20240817)
        graphs = [path(5), cycle(6), cycle(7), complete(5), kn_plus(4), kn_plus(5)]
        checked = 0
        for _ in range(1100):
            g = rng.choice(graphs)
            f, h = random_track_pair(g, rng, rng.randrange(2, 10))
            fi, hi = induce_opposite(f, h)
            assert fi.l == hi.l == 2 * f.l - 1
            assert pair_distance(g, fi, hi) >= pair_distance(g, f, h) - 1
            if f.l >= 2:
                assert is_opposite_lazy(g, fi, hi)
            checked += 1
        assert checked >= 1000

    def test_sweeps_induce_lazy_sweeps_with_same_edges(self):
        g = complete(5)
        f, h = load_fixture_walks(("k5_sweeps_f.walk", "k5_sweeps_g.walk"), 5)
        fi, hi = induce_opposite(f, h)
        assert classify(g, fi).is_lazy_sweep
        assert classify(g, hi).is_lazy_sweep
        for orig, ind in ((f, fi), (h, hi)):
            orig_edges = {tuple(sorted(p)) for p in orig.step_pairs() if p[0] != p[1]}
            ind_edges = {tuple(sorted(p)) for p in ind.step_pairs() if p[0] != p[1]}
            assert orig_edges == ind_edges


def test_tracks_on_trees_are_sweeps():
    rng = random.Random(99)
    for tree in all_trees(8):
        if tree.n == 1:
            continue
        for _ in range(20):
            length = rng.randrange(2, 4 * tree.n)
            seq = [rng.randrange(tree.n)]
            for _ in range(length - 1):
                seq.append(rng.choice(tree.adj[seq[-1]]))
            c = classify(tree, Walk(tuple(seq)))
            # on a tree every vertex-covering stay-free walk crosses every edge
            if c.is_track:
                assert c.is_sweep
            if not c.is_sweep:
                covered = {tuple(sorted(p)) for p in zip(seq, seq[1:])}
                assert not c.is_track or covered != set(tree.edges)


class TestSerialization:
    def test_format(self):
        assert format_walk(w(0, 1, 2, 3, 1)) == "v1,v2,v3,v4,v2"

    def test_round_trip(self):
        walk = w(0, 5, 2, 2, 4)
        assert parse_walk(format_walk(walk), 6) == walk

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_round_trip(self, data):
        n = data.draw(st.integers(1, 120))
        walk = Walk(tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))))
        text = format_walk(walk)
        assert parse_walk(f"# walk\n{text}\n", n) == walk
        with pytest.raises(MalformedInput):
            parse_walk(f"{text}\n{text}\n", n)
        for bad in ("v0", f"v{n + 1}"):
            with pytest.raises(InvalidVertex):
                parse_walk(f"{text},{bad}", n)

    def test_comments_skipped(self):
        assert parse_walk("# header\n\nv1,v2\n", 2) == w(0, 1)

    def test_comments_only_rejected(self):
        with pytest.raises(MalformedInput, match="no walk line found"):
            parse_walk("# header\n\n# v1,v2\n", 2)

    def test_bad_token(self):
        with pytest.raises(MalformedInput):
            parse_walk("v1,x2", 3)

    @pytest.mark.parametrize("token", ["v1_0", "v+2", "v\u0663", "v-1", "v"])
    def test_only_ascii_decimal_indices(self, token):
        with pytest.raises(MalformedInput, match=re.escape(repr(token))):
            parse_walk(f"v1,{token},v2", 12)

    def test_out_of_range(self):
        with pytest.raises(InvalidVertex):
            parse_walk("v1,v4", 3)

    def test_two_lines_rejected(self):
        with pytest.raises(MalformedInput):
            parse_walk("v1,v2\nv2,v1", 3)
