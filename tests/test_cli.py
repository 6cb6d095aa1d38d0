"""cli: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from graphspan import (
    TARGETS,
    FamilySpec,
    Graph,
    InternalError,
    Rule,
    Target,
    VerificationFailure,
    classify,
    complete,
    generate,
    kn_plus,
    pair_distance,
    witness_sweeps,
)
from graphspan import cli, postman
from graphspan.cli import main
from graphspan.graph import ORDER_LIMIT
from graphspan.walks import parse_walk

from oracles import connected_graphs, corpus, count_engine_calls


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpanCommand:
    def test_family_table(self, capsys):
        code, out, _ = run(capsys, "span", "--family", "kn_plus:5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("graph: kn_plus(5)")
        table = {l.split()[0]: l.split()[1:] for l in lines[2:]}
        assert table["strong"] == ["2", "2"]
        assert table["direct"] == ["2", "1"]
        assert table["cartesian"] == ["1", "1"]

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "span", "--family", "cycle:6", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "graphspan/v1"
        assert doc["graph"] == {"source": "cycle(6)", "order": 6, "size": 6}
        got = {(r["rule"], r["target"]): r["value"] for r in doc["reports"]}
        assert got[("strong", "vertices")] == 3
        assert got[("cartesian", "edges")] == 2

    def test_rule_and_target_filters(self, capsys):
        code, out, _ = run(
            capsys, "span", "--family", "path:4", "--rule", "cartesian",
            "--target", "edges", "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert [(r["rule"], r["target"], r["value"]) for r in doc["reports"]] == [
            ("cartesian", "edges", 0)
        ]

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "span", "--file", "does_not_exist")
        assert code == 2
        assert "input error" in err

    def test_edge_list_file(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("# triangle\n3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "span", "--file", str(p), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["order"] == 3 and doc["graph"]["size"] == 3

    def test_graph6_file(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text("Dhc\n")  # the 5-cycle
        code, out, _ = run(capsys, "span", "--file", str(p), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        got = {(r["rule"], r["target"]): r["value"] for r in doc["reports"]}
        assert got[("direct", "vertices")] == 2

    def test_graph6_second_graph_line_rejected(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text("Dhc\n# comment\nBw\n")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and "line 3" in err

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_bytes(b"\xff\xfe3\n0 1\n1 2\n")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2
        assert f"{p}: not UTF-8 text (byte 0)" in err

    def test_graph6_padding_bits_rejected(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text("Bx\n")  # K3 is "Bw"; "Bx" sets a padding bit
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and "nonzero padding bits" in err

    def test_graph6_error_names_its_line_and_format(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text("# c\nB\n")
        code, out, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and out == ""
        assert "line 2: graph6: payload has 0 bytes, expected 1" in err

    @pytest.mark.parametrize("body", ["3\n0 1\n1 2\n", "Bg\n"], ids=["edge-list", "graph6"])
    def test_leading_byte_order_mark_ignored(self, tmp_path, capsys, body):
        p = tmp_path / "g.txt"
        p.write_text("\ufeff" + body, encoding="utf-8")
        code, out, _ = run(capsys, "span", "--file", str(p), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["order"] == 3 and doc["graph"]["size"] == 2

    def test_decode_error_offset_counts_the_byte_order_mark(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_bytes(b"\xef\xbb\xbf3\n\xff\n")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2
        assert f"{p}: not UTF-8 text (byte 5)" in err

    def test_edge_list_error_names_its_line(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("3\n0 1\n1 x\n")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and "line 3" in err

    @pytest.mark.parametrize("count", ["1_0", "+9", "\u0663"])
    def test_lenient_integers_are_input_errors(self, tmp_path, capsys, count):
        p = tmp_path / "g.txt"
        p.write_text(f"{count}\n0 1\n1 2\n", encoding="utf-8")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and "line 1" in err
        code, _, err = run(capsys, "span", "--family", f"path:{count}")
        assert code == 2 and repr(count) in err

    @pytest.mark.parametrize("spec, param", [
        ("path:1001", "path parameter 1001"),
        ("complete:99999999999999999999", "complete parameter 99999999999999999999"),
        ("complete_bipartite:2,1001", "complete_bipartite parameter 1001"),
        ("complete_bipartite:1000,1000", "complete_bipartite order 2000"),
        ("kn_plus:1000", "kn_plus order 1001"),
    ])
    def test_oversized_family_is_too_large(self, capsys, spec, param):
        # checked as the spec is parsed, so nothing large is allocated; the
        # second spec used to end in an OverflowError traceback with exit 1,
        # and the last two, each parameter within the limit, used to build
        # graphs of order 2,000 and 1,001
        code, out, err = run(capsys, "span", "--family", spec)
        assert code == 2 and out == ""
        assert f"{param} above the limit {ORDER_LIMIT}" in err

    def test_oversized_vertex_count_is_too_large(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(f"# path\n{ORDER_LIMIT + 1}\n0 1\n")
        code, out, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and out == ""
        assert f"line 2: vertex count {ORDER_LIMIT + 1} above the limit {ORDER_LIMIT}" in err

    def test_vertex_count_at_the_limit_is_read(self, tmp_path, capsys):
        # the bound rejects only counts above it: this file fails on its
        # connectivity, after the count was accepted
        p = tmp_path / "g.txt"
        p.write_text(f"{ORDER_LIMIT}\n0 1\n")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and "not connected" in err

    def test_disconnected_file(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("4\n0 1\n2 3\n")
        code, _, err = run(capsys, "span", "--file", str(p))
        assert code == 2 and "input error" in err

    def test_family_xor_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["span", "--family", "path:3", "--file", "x"])
        capsys.readouterr()

    def test_internal_error_exit_status(self, monkeypatch, capsys):
        def breach(*args, **kwargs):
            raise InternalError("invariant breached")

        monkeypatch.setattr(cli, "span", breach)
        code, _, err = run(capsys, "span", "--family", "path:3")
        assert code == 3
        assert "internal error (span): invariant breached" in err

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "span", "--family", "kn_plus:6", "--format", "structured")
        _, second, _ = run(capsys, "span", "--family", "kn_plus:6", "--format", "structured")
        assert first == second


class TestWitnessCommand:
    def test_walks_validate(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--family", "kn_plus:5", "--rule", "strong",
            "--target", "edges",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        g = kn_plus(5)
        f = parse_walk(lines[0], g.n)
        h = parse_walk(lines[1], g.n)
        assert classify(g, f).is_lazy_sweep and classify(g, h).is_lazy_sweep
        assert pair_distance(g, f, h) == 2

    @pytest.mark.parametrize("spec,runs", [("path:30", 3), ("kn_plus:9", 4)])
    def test_one_bfs_per_rule_when_the_targets_share_a_root(self, capsys, monkeypatch, spec, runs):
        # kn_plus(9) has direct spans 2 (vertices) and 1 (edges), so its
        # active targets need a BFS each; every other rule shares one
        _, _, witness_runs = count_engine_calls(monkeypatch)
        code, _, _ = run(capsys, "witness", "--family", spec)
        assert code == 0
        assert len(witness_runs) == runs
        code, _, _ = run(capsys, "span", "--family", spec)
        assert code == 0
        assert len(witness_runs) == runs


class TestMinlenCommand:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "minlen", "--family", "cycle:5", "--rule", "direct",
            "--target", "edges",
        )
        assert code == 0
        assert "L=6" in out

    def test_budget_flag_caps(self, capsys):
        code, out, _ = run(
            capsys, "minlen", "--family", "complete:4", "--rule", "direct",
            "--target", "edges", "--budget", "10", "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        (rep,) = doc["reports"]
        assert rep["capped"] is True and "witness" not in rep

    @pytest.mark.parametrize("command", [["minlen", "--family", "path:3"], ["verify-family"]])
    def test_negative_budget_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--budget", "-5"])
        assert exc.value.code == 2
        assert "budget must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["1_000", "+5", "\u0663"])
    @pytest.mark.parametrize("command", [["minlen", "--family", "path:3"], ["verify-family"]])
    def test_lenient_budget_rejected(self, capsys, command, budget):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--budget", budget])
        assert exc.value.code == 2
        assert "budget must be a non-negative integer" in capsys.readouterr().err

    def test_zero_budget_caps(self, capsys):
        code, out, _ = run(
            capsys, "minlen", "--family", "path:3", "--rule", "direct",
            "--target", "vertices", "--budget", "0",
        )
        assert code == 0 and "capped" in out


class TestPostmanCommand:
    def test_free(self, capsys):
        code, out, _ = run(capsys, "postman", "--family", "complete:6")
        assert code == 0
        assert "length_edges: 17" in out

    def test_closed(self, capsys):
        code, out, _ = run(
            capsys, "postman", "--family", "path:4", "--mode", "closed",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["length_edges"] == 6
        walk = parse_walk(doc["walk"], 4)
        assert walk.seq[0] == walk.seq[-1]

    def test_k1_is_input_error(self, capsys):
        code, _, err = run(capsys, "postman", "--family", "path:1")
        assert code == 2 and "input error" in err

    def test_covering_multigraph_not_eulerian_is_internal_error(self, monkeypatch, capsys):
        # an engine breach exits 3, not 2 as an input error would
        monkeypatch.setattr(postman, "_augmenting_paths", lambda g, dist, pairs: [])
        code, out, err = run(capsys, "postman", "--family", "complete:4")
        assert (code, out) == (3, "")
        assert err.startswith("internal error (postman): covering multigraph is not Eulerian")

    @pytest.mark.parametrize("spec,free,closed", [("complete:30", 449, 450), ("star:40", 76, 78)])
    def test_thirty_odd_vertices_and_more(self, capsys, spec, free, closed):
        # 30 and 40 odd vertices, above the 24 the pairing recursion allowed
        for mode, length in (("free", free), ("closed", closed)):
            code, out, _ = run(capsys, "postman", "--family", spec, "--mode", mode)
            assert code == 0 and f"length_edges: {length}" in out


class TestVerifyCommands:
    def test_verify_fixtures(self, capsys):
        code, out, _ = run(capsys, "verify-fixtures")
        assert code == 0
        assert out.strip().endswith("result: PASS")

    def test_verify_fixtures_structured(self, capsys):
        code, out, _ = run(capsys, "verify-fixtures", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and len(doc["checks"]) == 3

    def test_fixture_problems_fail_the_run(self, monkeypatch, capsys):
        lazy, k5, opposite = cli._FIXTURES
        wrong = {**lazy, "kind": "sweep", "length": 20, "distance": 3}
        assert cli.verify_fixture_pair(wrong) == [
            "lengths 21/21, expected 20", "walks are not sweeps", "pair distance 2, expected 3",
        ]
        # K5's walks miss vertex 5 of K6; the sweep pair on K5 is not opposite
        wider = {**opposite, "graph": lambda: complete(6)}
        assert cli.verify_fixture_pair(wider) == ["walks are not lazy sweeps"]
        assert cli.verify_fixture_pair({**k5, "kind": "opposite_lazy_sweep"}) == [
            "pair is not opposite lazy",
        ]
        monkeypatch.setattr(cli, "_FIXTURES", (lazy, wrong))
        code, out, _ = run(capsys, "verify-fixtures")
        assert code == 1
        assert out.splitlines()[-3:] == ["  walks are not sweeps", "  pair distance 2, expected 3",
                                         "result: FAIL"]

    def test_verification_failure_exit_status(self, monkeypatch, capsys):
        def no_gap():
            raise VerificationFailure("no direct-span gap found up to order 5")

        monkeypatch.setattr(cli, "find_minimal_direct_gap", no_gap)
        code, out, err = run(capsys, "search-gap")
        assert (code, out) == (1, "")
        assert "verification failed (search-gap): no direct-span gap found" in err

    def test_verify_family_small_budget(self, capsys):
        # heavy minlen rows cap under a small budget and must not fail the run
        code, out, _ = run(capsys, "verify-family", "--budget", "100000")
        assert code == 0
        assert "FAIL" not in out
        assert "CAPPED" in out

    def test_search_gap(self, capsys):
        code, out, _ = run(capsys, "search-gap", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["order"] == 5 and doc["graph"]["size"] == 7
        assert doc["direct_vertex_span"] == 2 and doc["direct_edge_span"] == 1


def outcome(capsys, argv):
    """(exit status, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# each command after the first follows one that sets some option differently
REUSE_SEQUENCE = (
    ("span", "--family", "cycle:6", "--rule", "strong"),
    ("span", "--family", "cycle:6"),
    ("minlen", "--family", "path:4", "--budget", "0"),
    ("minlen", "--family", "path:4"),
    ("span",),
    ("span", "--family", "path:5", "--format", "structured"),
    ("span", "--family", "path:5", "--format", "text"),
    ("minlen", "--family", "path:4", "--rule", "direct", "--format", "structured"),
    ("minlen", "--family", "path:4", "--rule", "direct"),
)


class TestRepeatedMain:
    def test_each_command_prints_what_it_prints_alone(self, capsys):
        alone = []
        for argv in REUSE_SEQUENCE:
            cli._parser.cache_clear()
            alone.append(outcome(capsys, argv))
        cli._parser.cache_clear()
        in_sequence = [outcome(capsys, argv) for argv in REUSE_SEQUENCE]
        assert cli._parser.cache_info().misses == 1
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [0, 0, 0, 0, 2, 0, 0, 0, 0]
        assert "one of the arguments --family --file is required" in alone[4][2]
        assert "capped" in alone[2][1] and "capped" not in alone[3][1]

    def test_main_reuses_one_parser(self, monkeypatch, capsys):
        used = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            used.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for _ in range(2):
            assert run(capsys, "span", "--family", "path:3")[0] == 0
        assert len(used) == 2 and used[0] is used[1]
        fresh = cli.build_parser()
        assert fresh is not cli.build_parser() and fresh is not used[0]


# sha256 prefixes of the output at the last commit of the per-threshold
# product engine; the one-pass engine must reproduce them byte for byte. The
# minlen prefix was retaken when the search began starting from one pair per
# symmetry orbit: its explored counts and vertex-target witnesses changed,
# its lengths and spans did not (test_minlen_golden_lengths). The search-gap
# prefixes, taken at the last commit of the labeled subset scan, pin the
# representative labeling that enumerate_connected yields. The two witness
# prefixes were retaken when the witnesses became depth-first walks of a
# pruned BFS tree instead of Euler circuits of the doubled component: only
# their walk lines changed, not their distance headers. The four postman
# prefixes were retaken when the odd vertices began to be paired by a
# minimum-weight perfect matching instead of the subset recursion: on a
# complete graph every pairing ties, the matching takes another one, and so
# the walk and duplicated lines changed; length_edges did not. Every
# witness prefix was retaken when the walks began to end at their deepest
# kept pair instead of walking back to the start: shorter walks with the
# same start and coverage. The capped minlen prefix was retaken when a
# capped search began to report the bound it had proven instead of the
# combinatorial floor: its three edge rows went from L=7, 7 and 13 to 8, 8
# and 15, the exact lengths; its vertex rows did not change.
GOLDEN = [
    (("witness", "--family", "kn_plus:5"), "7fc6b9a040592d3b"),
    (("witness", "--family", "complete_bipartite:2,3", "--format", "structured"),
     "56c93066a79e9867"),
    (("span", "--family", "path:12"), "1f9d2dd4a88e1f6c"),
    (("minlen", "--family", "cycle:6"), "d5aac20f392bf324"),
    (("search-gap",), "280d4359cbebdbf3"),
    (("search-gap", "--format", "structured"), "d5d48203b199ed4b"),
    (("postman", "--family", "complete:16", "--mode", "closed"), "4f89a7de9f7cb95a"),
    (("postman", "--family", "complete:12"), "590cf16606d96beb"),
    (("postman", "--family", "complete:16", "--mode", "closed", "--format", "structured"),
     "3c92eccfd83d8678"),
    # taken before the handlers stopped emitting their own output, so that
    # every subcommand and format is pinned through the single emit point
    (("span", "--family", "kn_plus:5", "--format", "structured"), "f57b839b98048480"),
    (("span", "--family", "kn_plus:5", "--rule", "direct", "--target", "edges"),
     "d60d79c462e81d95"),
    (("minlen", "--family", "cycle:6", "--format", "structured"), "ab7bb4695e77bf94"),
    (("minlen", "--family", "complete:4", "--budget", "0"), "c7cd99f3ae82e6b5"),
    (("witness", "--family", "kn_plus:5", "--rule", "cartesian", "--target", "vertices"),
     "bb0c84c1e3624cc9"),
    (("postman", "--family", "complete:12", "--format", "structured"), "9cb79319c2d4ace2"),
    (("verify-fixtures",), "12f79d565929d6e9"),
    (("verify-fixtures", "--format", "structured"), "6df8ac2cb9a691bf"),
    (("verify-family", "--budget", "100000"), "7c77ea9b269402ed"),
    (("verify-family", "--budget", "100000", "--format", "structured"), "53356f14e9ec0b11"),
    # taken before every rule's witness BFS read its moves from the step
    # rows, so that each rule and both targets are pinned through it;
    # kn_plus:9 runs a BFS of its own for the active vertex target
    (("witness", "--family", "path:30"), "0ada32120d141626"),
    (("witness", "--family", "complete_bipartite:5,6"), "f93779c5db2b3706"),
    (("witness", "--family", "kn_plus:9"), "79450d80157f2ff1"),
    (("witness", "--family", "cycle:40", "--format", "structured"), "1bd4122621511efd"),
]


@pytest.mark.parametrize("argv,prefix", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output(capsys, argv, prefix):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


# sha256 prefixes of the --help text of the top level and of each
# subcommand, as Python 3.11's argparse prints it at 80 columns, taken while
# the parser was still built one subcommand block at a time
HELP = [
    ((), "6b72912187783c96"),
    (("span",), "cd7147cc23ea0a55"),
    (("minlen",), "e33032f55eb53c06"),
    (("witness",), "46445b433528187f"),
    (("postman",), "86f26971ad46cf0c"),
    (("verify-family",), "206b0883305722ee"),
    (("verify-fixtures",), "12b7b805c41d9b29"),
    (("search-gap",), "a63a7bbbfb7e1837"),
]


@pytest.mark.parametrize("argv,prefix", HELP, ids=[" ".join(a) or "graphspan" for a, _ in HELP])
def test_help_output(monkeypatch, capsys, argv, prefix):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == prefix


# the family graphs of the benchmark's span and witness queries
WITNESS_DIGEST_SPECS = (
    "path:40", "path:50", "cycle:80", "complete:20", "kn_plus:12", "star:40",
    "complete:10", "complete:11", "path:30", "kn_plus:9", "cycle:40", "complete_bipartite:5,6",
)
# retaken when every witness walk began to end at its deepest kept pair
# instead of walking back to its start: same start and coverage
WITNESS_DIGEST = "ebb88f18ef45eee1200db95070c7dcd7a66cbc821261f0210b92c5696188b53e"


def test_witness_pairs_digest():
    # every rule's pairs of both targets, each target order on a fresh graph
    digest = hashlib.sha256()
    for g in (*corpus(6), *(generate(FamilySpec.from_string(s)) for s in WITNESS_DIGEST_SPECS)):
        for targets in (TARGETS, TARGETS[::-1]):
            fresh = Graph(g.n, g.edges)
            for rule in Rule:
                for target in targets:
                    f, h = witness_sweeps(fresh, rule, target)
                    digest.update(repr((rule.value, target.value, f.seq, h.seq)).encode())
    assert digest.hexdigest() == WITNESS_DIGEST


ENVELOPE_COMMANDS = [
    ("span", "--family", "path:3"),
    ("minlen", "--family", "path:3"),
    ("witness", "--family", "path:3"),
    ("postman", "--family", "path:3"),
    ("verify-family", "--budget", "1000"),
    ("verify-fixtures",),
    ("search-gap",),
]


def test_envelope_commands_cover_every_subcommand():
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(argv[0] for argv in ENVELOPE_COMMANDS) == sorted(subparsers.choices)


@pytest.mark.parametrize("argv", ENVELOPE_COMMANDS, ids=[a[0] for a in ENVELOPE_COMMANDS])
def test_structured_envelope(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "graphspan/v1"
    assert doc["command"] == argv[0]


def test_minlen_golden_lengths(capsys):
    code, out, _ = run(capsys, "minlen", "--family", "cycle:6")
    assert code == 0
    assert re.findall(r"L=(\d+)  span=(\d+)", out) == [
        ("6", "3"), ("7", "3"), ("6", "3"), ("7", "3"), ("11", "2"), ("13", "2"),
    ]


def test_minlen_runs_one_lazy_and_one_active_pass_and_one_canonical_search(capsys, monkeypatch):
    passes, searches, witness_runs = count_engine_calls(monkeypatch)
    built = []
    memoized = Graph._memoized

    def counted(self, key, compute):
        def record():
            built.append(key)
            return compute()

        return memoized(self, key, record)

    monkeypatch.setattr(Graph, "_memoized", counted)
    code, _, _ = run(capsys, "minlen", "--family", "cycle:6")
    assert code == 0
    assert (sorted(rule.value for rule in passes), len(searches)) == (["active", "lazy"], 1)
    assert witness_runs == []
    # one canonical copy and one bound table per target, shared by the rules
    keys = ("canonical copy", ("bound", Target.VERTICES), ("bound", Target.EDGES))
    assert [built.count(key) for key in keys] == [1, 1, 1]


def _graph6(g: Graph) -> str:
    bits = "".join(str(int(g.has_edge(i, j))) for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return chr(63 + g.n) + "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(8))
def test_file_formats_round_trip(g):
    edge_list = f"# edge list\n{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("g.txt", edge_list), ("g.g6", f"# graph6\n{_graph6(g)}\n")):
            p = Path(tmp) / name
            p.write_text(text)
            loaded, _ = cli._load_graph(cli.build_parser().parse_args(["span", "--file", str(p)]))
            assert (loaded.n, loaded.edges) == (g.n, g.edges)
