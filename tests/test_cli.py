import argparse
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superport import (
    Report,
    c2l,
    canonical_network,
    dumps_circuit,
    dumps_network,
    electrical_response,
    enumerate_spanning_forests,
    is_relatively_valid,
    is_valid,
    kirchhoff_matrix,
    load_network,
    loads_network,
    make_circuit,
    random_network,
    rat,
    rat_str,
)
from superport.cli import _emit_reports, main

from conftest import FIXTURE_NAMES, fixture_path, w_network


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_without_digit_limit(capsys, *argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)


def write_network(tmp_path, net, name="net.json"):
    path = tmp_path / name
    path.write_text(dumps_network(net))
    return str(path)


class TestValidate:
    def test_text_summary(self, capsys):
        code, out, err = run_cli(capsys, "validate", str(fixture_path("w-network.json")))
        assert code == 0
        assert out == "valid: 5 vertices, 4 edges, 5 boundary in 2 superports\n"

    def test_json_round_trip(self, capsys):
        for name in FIXTURE_NAMES:
            code, out, _ = run_cli(
                capsys, "validate", str(fixture_path(name)), "--format", "json"
            )
            assert code == 0
            assert loads_network(out) == load_network(fixture_path(name))

    def test_relabeling_reported(self, capsys, tmp_path):
        raw = tmp_path / "messy.json"
        raw.write_text(json.dumps({
            "vertices": 2,
            "edges": [{"u": 7, "v": 9, "c": "1"}],
            "superports": [[9], [7]],
        }))
        code, out, _ = run_cli(capsys, "validate", str(raw))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "valid: 2 vertices, 1 edges, 2 boundary in 2 superports"
        assert lines[1] == "relabeled: 7->2, 9->1"

    def test_merge_parallel_flag(self, capsys, tmp_path):
        raw = tmp_path / "doubled.json"
        raw.write_text(json.dumps({
            "vertices": 2,
            "edges": [{"u": 1, "v": 2, "c": "1"}, {"u": 1, "v": 2, "c": "2"}],
            "superports": [[1, 2]],
        }))
        code, _, err = run_cli(capsys, "validate", str(raw))
        assert code == 2
        assert "MultiEdge" in err
        code, out, _ = run_cli(capsys, "validate", str(raw), "--merge-parallel",
                               "--format", "json")
        assert code == 0
        assert loads_network(out).conductance(1, 2) == 3

    def test_unknown_field_rejected_like_response(self, capsys, tmp_path):
        raw = json.loads(fixture_path("w-network.json").read_text())
        raw["bogus"] = 1
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(raw))
        for command in ("validate", "response"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert err == "SchemaError: $: unknown fields ['bogus']\n"


class TestSolve:
    def test_text_output(self, capsys, tmp_path):
        net = canonical_network([(1, 3, 2), (2, 3, 3)], [[1, 2]])
        path = tmp_path / "circuit.json"
        path.write_text(dumps_circuit(make_circuit(net, {1: 1})))
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out.splitlines() == [
            "U[1] = 1",
            "U[2] = 0",
            "U[3] = 2/5",
            "I[1,3] = 6/5",
            "I[2,3] = -6/5",
            "in[1] = 6/5",
            "in[2] = -6/5",
        ]

    def test_json_output(self, capsys, tmp_path):
        net = w_network(2, 3, 5, 7)
        path = tmp_path / "circuit.json"
        path.write_text(dumps_circuit(make_circuit(net, {1: 1, 2: 0, 4: 2})))
        code, out, _ = run_cli(capsys, "solve", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"voltages", "currents", "incoming"}
        assert len(data["voltages"]) == net.n
        # conservation at every interior vertex is visible in the edge list
        incoming = [rat(x) for x in data["incoming"]]
        assert sum(incoming[:3]) == 0 and sum(incoming[3:]) == 0


class TestResponse:
    def test_default_is_superport_response(self, capsys):
        code, out, _ = run_cli(
            capsys, "response", str(fixture_path("w-network.json")), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        net = load_network(fixture_path("w-network.json"))
        expected = c2l(electrical_response(net), net.superports)
        assert data["row_labels"] == list(expected.row_labels)
        assert data["col_labels"] == list(expected.col_labels)
        got = [[rat(x) for x in row] for row in data["entries"]]
        assert got == [list(row) for row in expected.entries]

    @pytest.mark.parametrize("show,size", [("K", 6), ("C", 4), ("Lext", 4)])
    def test_other_matrices(self, capsys, show, size):
        code, out, _ = run_cli(
            capsys, "response", str(fixture_path("fig1-twoport.json")),
            "--show", show, "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["entries"]) == size
        assert data["row_labels"] == list(range(1, size + 1))

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "response", str(fixture_path("k4.json")), "--show", "C"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "C rows [1, 2, 3, 4] cols [1, 2, 3, 4]"
        assert lines[1] == "  1: 3 -1 -1 -1"

    def test_all_roots_has_no_L(self, capsys, tmp_path):
        net = canonical_network([(1, 2, 1)], [[1], [2]])
        path = write_network(tmp_path, net)
        code, _, err = run_cli(capsys, "response", str(path))
        assert code == 2
        assert "no non-root vertices" in err


class TestForests:
    def triangle(self, tmp_path):
        net = canonical_network([(1, 2, 1), (1, 3, 1), (2, 3, 1)], [[1, 2, 3]])
        return write_network(tmp_path, net)

    def test_all_in_order(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "forests", self.triangle(tmp_path))
        assert code == 0
        assert out.splitlines() == ["", "0", "0 1", "0 2", "1", "1 2", "2"]

    def test_trees_and_valid(self, capsys, tmp_path):
        path = self.triangle(tmp_path)
        code, trees, _ = run_cli(capsys, "forests", path, "--kind", "trees")
        assert code == 0
        assert trees.splitlines() == ["0 1", "0 2", "1 2"]
        # every edge joins vertices of the one superport, so the only
        # forest whose contraction stays a tree is the empty one
        code, valid, _ = run_cli(capsys, "forests", path, "--kind", "valid")
        assert code == 0
        assert valid == "\n"

    def test_weights_column(self, capsys, tmp_path):
        net = canonical_network([(1, 2, "1/2"), (1, 3, 3), (2, 3, 1)], [[1, 2, 3]])
        path = write_network(tmp_path, net)
        code, out, _ = run_cli(capsys, "forests", path, "--kind", "trees", "--weights")
        assert code == 0
        assert out.splitlines() == ["0 1\t3/2", "0 2\t1/2", "1 2\t3"]

    def test_relative_kind(self, capsys):
        path = str(fixture_path("fig7-square.json"))
        code, out, _ = run_cli(capsys, "forests", path, "--kind", "relative:1")
        assert code == 0
        # each line is one forest with exactly two edges
        assert out and all(len(line.split()) == 2 for line in out.splitlines())

    def test_relative_requires_boundary(self, capsys, tmp_path):
        net = canonical_network([(1, 2, 1), (2, 3, 1)], [[1, 2]])
        path = write_network(tmp_path, net)
        code, _, err = run_cli(capsys, "forests", path, "--kind", "relative:3")
        assert code == 2
        assert "not a boundary vertex" in err

    @pytest.mark.parametrize("kind", ["relative:", "relative:x", "relative:1.5"])
    def test_relative_needs_an_integer(self, capsys, tmp_path, kind):
        code, out, err = run_cli(capsys, "forests", self.triangle(tmp_path), "--kind", kind)
        assert (code, out) == (2, "")
        assert err == f"kind {kind!r} needs an integer boundary vertex, as in relative:1\n"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from([1, 10]))
    @example(seed=0, value_max=1)  # unit conductances: every weight is 1
    def test_lines_match_the_forests(self, seed, value_max):
        """Every kind, with and without weights, prints one line per forest
        in enumeration order, as formatted from the Forest itself; the tree
        weights sum to det of the reduced Kirchhoff matrix."""
        net = random_network(random.Random(seed), max_n=6, max_edges=10, value_max=value_max)
        keeps = {
            "all": None,
            "trees": lambda f: f.component_count == 1,
            "valid": lambda f: is_valid(f, net),
            **{
                f"relative:{i}": lambda f, i=i: is_relatively_valid(f, net, i)
                for i in net.boundary
            },
        }
        K = kirchhoff_matrix(net)
        tree_sum = K.submatrix(range(net.n - 1), range(net.n - 1)).det()
        with tempfile.TemporaryDirectory() as tmp:
            path = write_network(Path(tmp), net)
            for kind, keep in keeps.items():
                forests = list(enumerate_spanning_forests(net, keep))
                edges = [" ".join(map(str, f.edges)) for f in forests]
                for weights in ([], ["--weights"]):
                    out = StringIO()
                    with redirect_stdout(out):
                        code = main(["forests", path, "--kind", kind, *weights])
                    assert code == 0
                    expected = (
                        [e + "\t" + rat_str(f.weight) for e, f in zip(edges, forests)]
                        if weights
                        else edges
                    )
                    printed = out.getvalue()
                    assert printed == "".join(line + "\n" for line in expected)
                    if not weights:
                        continue
                    columns = [line.split("\t") for line in printed.splitlines()]
                    if kind in ("all", "trees"):
                        trees = [w for e, w in columns if len(e.split()) == net.n - 1]
                        assert sum(map(Fraction, trees)) == tree_sum
                    if value_max == 1:
                        assert all(w == "1" for _, w in columns)

    def test_unknown_kind(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "forests", self.triangle(tmp_path), "--kind", "bogus"
        )
        assert code == 2
        assert "unknown kind" in err

    def test_cap_enforced(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "forests", self.triangle(tmp_path), "--cap", "2"
        )
        assert code == 2
        assert "CapExceeded" in err

    def test_closed_pipe_is_not_a_failure(self, tmp_path):
        # K7 less one edge: 20 edges and far more output than a pipe
        # buffers, so the writer is still printing when the reader leaves
        edges = [(u, v, 1) for u in range(1, 8) for v in range(u + 1, 8)][:-1]
        path = write_network(tmp_path, canonical_network(edges, [[1]]))
        err = tmp_path / "stderr.txt"
        with open(err, "w") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "superport", "forests", path],
                stdout=subprocess.PIPE, stderr=err_file, text=True,
            )
        try:
            assert proc.stdout.readline() == "\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
        assert err.read_text() == ""


class TestVerify:
    def test_detl_on_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", str(fixture_path("w-network.json")), "--theorem", "detl"
        )
        assert code == 0
        assert out.startswith("det-response: pass")

    def test_all_on_fixture_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", str(fixture_path("fig7-square.json")),
            "--seed", "3", "--format", "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["status"] == "pass" for r in reports)
        names = {r["theorem"] for r in reports}
        assert {"kirchhoff", "kenyon-wilson", "det-response", "signed-sum"} <= names

    def test_campaign_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--campaign", "2", "--seed", "11", "--theorem", "detl"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("det-response: pass") for line in lines)

    def test_campaign_is_reproducible(self, capsys):
        argv = ["verify", "--campaign", "3", "--seed", "5"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_file_and_campaign_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", str(fixture_path("k4.json")), "--campaign", "2"
        )
        assert code == 2
        assert "not both" in err
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_campaign_count_must_be_positive(self, capsys, count):
        code, out, err = run_cli(capsys, "verify", "--campaign", count)
        assert code == 2
        assert out == ""
        assert "positive" in err

    def test_inapplicable_theorem(self, capsys, tmp_path):
        net = canonical_network([(1, 2, 1)], [[1], [2]])
        path = write_network(tmp_path, net)
        code, _, err = run_cli(capsys, "verify", path, "--theorem", "detl")
        assert code == 2
        assert "does not apply" in err

    def test_unknown_theorem_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--campaign", "1", "--theorem", "nope"])
        assert exc.value.code == 2


class TestCount:
    def test_cayley_text(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--cayley", "4")
        assert code == 0
        assert out == "16\n"

    def test_cayley_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--cayley", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "m": 5, "count": 125, "closed_form": 125, "status": "pass",
        }

    def test_gencayley(self, capsys, tmp_path):
        sizes_file = tmp_path / "sizes.json"
        sizes_file.write_text(json.dumps({"sizes": [2, 2]}))
        code, out, _ = run_cli(capsys, "count", "--gencayley", str(sizes_file))
        assert code == 0
        assert out.startswith("grouped-tree-count: pass")

    def test_gencayley_bad_file(self, capsys, tmp_path):
        sizes_file = tmp_path / "bad.json"
        sizes_file.write_text(json.dumps({"groups": [2, 2]}))
        code, _, err = run_cli(capsys, "count", "--gencayley", str(sizes_file))
        assert code == 2
        assert "sizes" in err

    @pytest.mark.parametrize(
        "argv, sizes",
        [(["--cayley", "800"], None), (["--cayley", "7"], None),
         (["--gencayley"], [400, 400]), (["--gencayley"], [3, 4])],
    )
    def test_cap_refused_before_the_graph_is_built(
        self, capsys, tmp_path, monkeypatch, argv, sizes
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("graph built before the cap was checked")

        monkeypatch.setattr("superport.verify.complete_network", refuse)
        monkeypatch.setattr("superport.verify.canonical_network", refuse)
        if sizes is not None:
            sizes_file = tmp_path / "sizes.json"
            sizes_file.write_text(json.dumps({"sizes": sizes}))
            argv = argv + [str(sizes_file)]
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("CapExceeded:")

    @pytest.mark.parametrize(
        "sizes", [["a"], [1.5, 2], [True, 2], [2, False], [0, 2], [], 5, "22", None]
    )
    def test_gencayley_sizes_must_be_positive_integers(self, capsys, tmp_path, sizes):
        sizes_file = tmp_path / "sizes.json"
        sizes_file.write_text(json.dumps({"sizes": sizes}))
        code, out, err = run_cli(capsys, "count", "--gencayley", str(sizes_file))
        assert code == 2
        assert out == ""
        assert "sizes" in err

    def test_flags_are_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--cayley", "3", "--gencayley", "x.json"])
        assert exc.value.code == 2


class TestBoxH:
    def test_unit_values(self, capsys):
        code, out, _ = run_cli(capsys, "boxh", "1", "1", "1", "1")
        assert code == 0
        assert out.splitlines() == [
            "A = 1/4", "B = 1/4", "C = 1/4", "D = 1/4", "E = 1/4",
            "responses equal",
        ]

    def test_rational_arguments(self, capsys):
        code, out, _ = run_cli(
            capsys, "boxh", "2", "1", "1", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "A": "1/3", "B": "1/6", "C": "2/3", "D": "1/3", "E": "1/3",
            "status": "pass",
        }

    def test_bad_argument(self, capsys):
        code, _, err = run_cli(capsys, "boxh", "0", "1", "1", "1")
        assert code == 2


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/nonexistent/net.json")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "JSON" in err or "SchemaError" in err

    def test_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"edges": [], "superports": [[1]]}))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2

    def test_failing_report_exits_one(self, capsys):
        # the plumbing for a failed check: witness printed, exit code 1;
        # exercised directly because the identities themselves never fail
        bad = Report(theorem="demo", status="fail", lhs="1", rhs="2",
                     checks=1, witness={"edge": 0})
        code = _emit_reports([bad], argparse.Namespace(format="text"))
        out = capsys.readouterr().out
        assert code == 1
        assert "demo: fail (1 checks, 1 vs 2)" in out
        assert '"edge": 0' in out

    def test_failing_report_json(self, capsys):
        bad = Report(theorem="demo", status="fail", lhs="1", rhs="2",
                     checks=1, witness={"k": "v"})
        code = _emit_reports([bad], argparse.Namespace(format="json"))
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)[0]["witness"] == {"k": "v"}


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superport", "count", "--cayley", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3\n"

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("validate", "solve", "response", "forests", "verify",
                     "count", "boxh"):
            assert name in out


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestLongExactValues:
    """Exact values outgrow Python's int-to-str digit limit (4300 digits by
    default) on networks the loader accepts: every command prints them in
    full, and the loader still refuses a literal over the limit."""

    @pytest.fixture
    def circuit_file(self, tmp_path):
        rng = random.Random(5)

        def big():
            return str(rng.randrange(10**1999, 10**2000))

        data = {
            "vertices": 4,
            "edges": [
                {"u": 1, "v": 2, "c": big() + "/" + big()},
                {"u": 1, "v": 3, "c": big()},
                {"u": 2, "v": 4, "c": "1/" + big()},
                {"u": 3, "v": 4, "c": big() + "/7"},
                {"u": 1, "v": 4, "c": big()},
            ],
            "superports": [[1, 2], [3, 4]],
            "deltas": [{"vertex": 1, "du": "5"}, {"vertex": 3, "du": big()}],
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(data))
        network = {k: v for k, v in data.items() if k != "deltas"}
        (tmp_path / "net.json").write_text(json.dumps(network))
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["verify", "net.json", "--theorem", "all", "--seed", "1"],
        ["solve", "circuit.json"],
        ["forests", "net.json", "--weights"],
        ["response", "net.json", "--show", "Lext", "--format", "json"],
    ])
    def test_printed_in_full(self, capsys, circuit_file, argv):
        argv = [str(circuit_file / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert max(len(token) for token in out.split()) > 4300
        assert run_cli_without_digit_limit(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("theorem", ["gluing", "all"])
    def test_glued_conductance_over_the_limit(self, capsys, tmp_path, theorem):
        # gluing at any non-root merges the edges from the other three
        # boundary vertices to 5 into one, whose summed conductance has more
        # than 4300 digits
        rng = random.Random(3)

        def big():
            return str(rng.randrange(10**1499, 10**1500))

        data = {
            "vertices": 5,
            "edges": [{"u": 1, "v": 5, "c": "1"}]
            + [{"u": u, "v": 5, "c": big() + "/" + big()} for u in (2, 3, 4)],
            "superports": [[1, 2, 3, 4]],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        argv = ["verify", str(path), "--theorem", theorem]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.count("gluing: pass") == 3
        assert run_cli_without_digit_limit(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("command", ["validate", "verify"])
    @pytest.mark.parametrize("literal", ['"' + "7" * 4301 + '"', "7" * 4301])
    def test_literal_over_the_limit_rejected(self, capsys, tmp_path, command, literal):
        path = tmp_path / "net.json"
        path.write_text(
            '{"vertices": 2, "edges": [{"u": 1, "v": 2, "c": %s}], '
            '"superports": [[1, 2]]}' % literal
        )
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert "4300 digits" in err


class TestGoldenOutput:
    """Reference text output of two commands; it must not change by a byte,
    since output for a fixed seed is part of the interface."""

    @pytest.mark.parametrize("golden, argv", [
        ("verify_campaign20_seed0_all.txt",
         ["verify", "--campaign", "20", "--seed", "0", "--theorem", "all"]),
        ("forests_w_network_weights.txt",
         ["forests", str(fixture_path("w-network.json")), "--weights"]),
    ])
    def test_byte_identical(self, capsys, golden, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")
