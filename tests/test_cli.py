import argparse
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
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
    validate_and_canonicalize,
)
from superport.cli import _emit_reports, main

from conftest import FIXTURE_NAMES, fixture_path, w_network


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_captured(*argv):
    """run_cli without capsys, which a Hypothesis test cannot take."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
                forests = list(filter(keep, enumerate_spanning_forests(net)))
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

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_kind_prints_the_forests_of_the_fixture(self, capsys, name):
        """The lines of every kind, with and without weights, are those
        formatted from the Forests that `enumerate_spanning_forests` keeps."""
        path = str(fixture_path(name))
        net = load_network(path)
        keeps = {
            "all": None,
            "trees": lambda f: f.component_count == 1,
            "valid": lambda f: is_valid(f, net),
            **{
                f"relative:{i}": lambda f, i=i: is_relatively_valid(f, net, i)
                for i in net.boundary
            },
        }
        for kind, keep in keeps.items():
            forests = list(filter(keep, enumerate_spanning_forests(net)))
            edges = [" ".join(map(str, f.edges)) for f in forests]
            weighed = [e + "\t" + rat_str(f.weight) for e, f in zip(edges, forests)]
            for weights, expected in (([], edges), (["--weights"], weighed)):
                code, out, err = run_cli(capsys, "forests", path, "--kind", kind, *weights)
                assert (code, err) == (0, "")
                assert out == "".join(line + "\n" for line in expected)

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

    def test_an_internal_error_is_a_failed_report(self, capsys, monkeypatch):
        def broken(*args):
            raise KeyError(3)

        monkeypatch.setattr("superport.verify.quotient_path", broken)
        path = str(fixture_path("w-network.json"))
        code, out, err = run_cli(capsys, "verify", path, "--seed", "0")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert "forest-solution: fail (0 checks, KeyError: 3 vs no error)" in lines
        assert sum(line.endswith(")") and ": pass (" in line for line in lines) >= 8
        witness = json.loads(out[out.index("{"):])["witness"]
        assert list(witness) == ["network", "forest", "error"]
        assert witness["error"] == "KeyError: 3"

    def test_an_error_deciding_a_keys_facts_is_a_failed_report(self, capsys, monkeypatch):
        def broken(*args):
            raise IndexError("tuple index out of range")

        monkeypatch.setattr("superport.forests.pattern_partitions", broken)
        path = str(fixture_path("w-network.json"))
        code, out, err = run_cli(capsys, "verify", path, "--seed", "0", "--format", "json")
        assert (code, err) == (1, "")
        failed = [r for r in json.loads(out) if r["status"] != "pass"]
        assert failed
        for r in failed:
            assert list(r["witness"]) == ["network", "error"]
            assert r["witness"]["error"] == "IndexError: tuple index out of range"

    @pytest.mark.parametrize("theorem", ["gluing", "minorsum"])
    def test_a_theorem_that_walks_no_forest_is_not_capped(
        self, capsys, tmp_path, monkeypatch, theorem
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("forests walked for a theorem that reads none")

        net = canonical_network([(v, v + 1, 1) for v in range(1, 30)], [[1, 2], [3, 4]])
        path = write_network(tmp_path, net)
        code, _, err = run_cli(capsys, "verify", path, "--theorem", "all")
        assert (code, err) == (2, "CapExceeded: 29 edges exceed the enumeration cap 20\n")
        monkeypatch.setattr("superport.forests.walk_forests", refuse)
        code, out, err = run_cli(capsys, "verify", path, "--theorem", theorem)
        assert (code, err) == (0, "")
        assert out and all(": pass (" in line for line in out.splitlines())

    def test_too_many_minors_refused_before_any_forest(self, capsys, tmp_path, monkeypatch):
        # six 3-vertex superports before the last: 3**6 squared = 531,441 minors
        def refuse(*args, **kwargs):
            raise AssertionError("forests walked before the minor count was checked")

        monkeypatch.setattr("superport.forests.walk_forests", refuse)
        net = canonical_network(
            [(v, v + 1, 1) for v in range(1, 19)],
            [list(range(v, v + 3)) for v in range(1, 19, 3)] + [[19]],
        )
        path = write_network(tmp_path, net)
        code, out, err = run_cli(capsys, "verify", path)
        assert (code, out) == (2, "")
        assert err == (
            "CapExceeded: the valid-minor sum needs 531441 minors, above the bound 10000\n"
        )

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

    @pytest.mark.parametrize("document, message", [
        ([2, 2], "SchemaError: $: gencayley description must be an object"),
        ("sizes", "SchemaError: $: gencayley description must be an object"),
        ({"groups": [2, 2]}, "SchemaError: sizes: missing required field"),
        # a missing "sizes" is named before any unknown field
        ({"groups": [2, 2], "comment": "x"}, "SchemaError: sizes: missing required field"),
        ({"sizes": [2, 1], "comment": "x"}, "SchemaError: $: unknown fields ['comment']"),
        ({"sizes": {"a": 2}}, "SchemaError: sizes: must be a list"),
        ({"sizes": "21"}, "SchemaError: sizes: must be a list"),
        ({"sizes": [2, 0]}, "group sizes must be positive integers"),
    ])
    def test_gencayley_messages(self, capsys, tmp_path, document, message):
        sizes_file = tmp_path / "sizes.json"
        sizes_file.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "count", "--gencayley", str(sizes_file))
        assert (code, out, err) == (2, "", message + "\n")


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

    @pytest.mark.parametrize("value", ["٣", "３", "1/٢", "٣/2"])
    def test_only_ascii_digits_are_digits(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["boxh", value, "1", "1", "1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"invalid rat value: '{value}'" in captured.err


# the shared options each subcommand's handler reads; any other is refused
READS = {
    "validate": {"--merge-parallel", "--format"},
    "solve": {"--merge-parallel", "--format"},
    "response": {"--merge-parallel", "--format"},
    "forests": {"--cap", "--merge-parallel"},
    "verify": {"--cap", "--merge-parallel", "--format"},
    "count": {"--cap", "--format"},
    "boxh": {"--format"},
}


def shared_option_argv(tmp_path, command, split=False):
    """A command line that `command` accepts.  Its file holds the W network,
    and a circuit on it for `solve`; with `split`, edge 1-5 is given as two
    parallel halves."""
    first = [[1, 5, "1"], [5, 1, "1"]] if split else [[1, 5, "2"]]
    doc = {
        "vertices": 5,
        "edges": first + [[2, 5, "3"], [2, 4, "5"], [3, 4, "7"]],
        "superports": [[1, 2, 3], [4, 5]],
    }
    if command == "solve":
        doc["deltas"] = [{"vertex": 1, "du": "1"}, {"vertex": 2, "du": "0"},
                         {"vertex": 4, "du": "2"}]
    path = tmp_path / ("split.json" if split else "net.json")
    path.write_text(json.dumps(doc))
    return {
        "forests": ["forests", str(path), "--weights"],
        "verify": ["verify", str(path), "--theorem", "detl"],
        "count": ["count", "--cayley", "3"],
        "boxh": ["boxh", "1", "2", "3", "4"],
    }.get(command, [command, str(path)])


@pytest.mark.parametrize("option", ["--cap", "--merge-parallel", "--format"])
@pytest.mark.parametrize("command", READS)
def test_each_subcommand_takes_only_the_options_it_reads(capsys, tmp_path, command, option):
    argv = shared_option_argv(tmp_path, command)
    if option not in READS[command]:
        value = {"--cap": ["20"], "--merge-parallel": [], "--format": ["text"]}[option]
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, *value])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"unrecognized arguments: {option}" in captured.err
        return
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    if option == "--cap":
        code, out, err = run_cli(capsys, *argv, "--cap", "0")
        assert (code, out) == (2, "") and err.startswith("CapExceeded: ")
    elif option == "--merge-parallel":
        split = shared_option_argv(tmp_path, command, split=True)
        assert run_cli(capsys, *split)[0] == 2
        assert run_cli(capsys, *split, "--merge-parallel") == (0, plain, "")
    else:
        assert run_cli(capsys, *argv, "--format", "text") == (0, plain, "")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["count", "--cayley", "4", "--seed", "3"], "--seed"),
        (["verify", "--campaign", "2", "--seed", "0", "--merge-parallel"], "--merge-parallel"),
    ],
)
def test_an_option_that_one_form_does_not_read_is_refused(capsys, argv, option):
    # the other form of the subcommand reads the option, so argparse takes it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and option in err


def test_count_gencayley_still_takes_a_seed(capsys, tmp_path):
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({"sizes": [2, 3]}))
    plain = run_cli(capsys, "count", "--gencayley", str(path))
    seeded = run_cli(capsys, "count", "--gencayley", str(path), "--seed", "3")
    assert plain[0] == seeded[0] == 0 and seeded[1]


# every subcommand that reads a file, with the options before its path
FILE_COMMANDS = [
    ["validate"], ["solve"], ["response"], ["forests"], ["verify"], ["count", "--gencayley"],
]


# documents in the loaders' own vocabulary reach past the first checks
FIELDS = ["vertices", "edges", "superports", "deltas", "sizes", "u", "v", "c", "vertex", "du"]
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.sampled_from(["1", "1/2", "-1", "0", "x", "1/0"])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
)
ANY_JSON = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=25,
)
LABEL = st.integers(1, 5)
NETWORK_FIELDS = {
    "vertices": st.integers(1, 5),
    "edges": st.lists(
        st.tuples(LABEL, LABEL, st.sampled_from(["1", "2", "1/2"])).map(list), max_size=7
    ),
    "superports": st.lists(st.lists(LABEL, max_size=3), min_size=1, max_size=3),
}
OTHER_FIELDS = {
    "deltas": st.lists(
        st.fixed_dictionaries({"vertex": LABEL, "du": st.sampled_from(["0", "1", "-1/2"])}),
        max_size=4,
    ),
    "sizes": st.lists(st.integers(1, 2), max_size=3),
}
NEAR_VALID = st.fixed_dictionaries(NETWORK_FIELDS, optional=OTHER_FIELDS) | st.fixed_dictionaries(
    {}, optional={**NETWORK_FIELDS, **OTHER_FIELDS}
)


class TestErrorPaths:
    @settings(max_examples=150, deadline=None)
    @given(ANY_JSON | NEAR_VALID)
    def test_any_json_exits_zero_or_two(self, document):
        # every file-reading subcommand either succeeds or refuses the file
        # with a message, and prints no partial output when it refuses
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(document))
            for argv in FILE_COMMANDS:
                code, out, err = run_cli_captured(*argv, str(path))
                assert code in (0, 2), (argv, err)
                assert "Traceback" not in err
                if code == 2:
                    assert out == "" and err.endswith("\n"), argv

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/nonexistent/net.json")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
    def test_directory_is_refused(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot read {tmp_path}: ")
        assert "Traceback" not in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "JSON" in err or "SchemaError" in err

    @pytest.mark.parametrize("argv, text", [
        pytest.param(argv, text, id=argv[0] + suffix)
        for suffix, text in [
            ("", "{not json"),
            ("-nested-too-deep", "[" * 200_000),
            ("-integer-over-digit-limit", '{"vertices": %s}' % ("7" * 4301)),
        ]
        for argv in FILE_COMMANDS
    ])
    def test_invalid_json_has_one_message(self, capsys, tmp_path, argv, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises((RecursionError, ValueError)) as exc:
            json.loads(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"SchemaError: $: invalid JSON: {exc.value}\n"

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


class TestParallelReduction:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_split_edge_merges_back(self, seed):
        # an edge of conductance c split into two parallel edges of a and
        # c - a: merged on load it is the same network, so it has the same L
        # and every report; without --merge-parallel it is refused
        rng = random.Random(seed)
        net = random_network(rng, max_n=7, max_edges=11, require_nonroots=True)
        k = rng.randrange(len(net.edges))
        u, v, c = net.edges[k]
        a = c * Fraction(rng.randint(1, 9), 10)
        edges = [*net.edges[:k], (u, v, a), (v, u, c - a), *net.edges[k + 1 :]]
        rng.shuffle(edges)
        raw = {
            "vertices": net.n,
            "edges": [[x, y, rat_str(w)] for x, y, w in edges],
            "superports": [list(sp) for sp in net.superports],
        }
        merged, _ = validate_and_canonicalize(raw, merge_parallel=True)
        assert merged == net
        with tempfile.TemporaryDirectory() as tmp:
            split_path, net_path = Path(tmp) / "split.json", Path(tmp) / "net.json"
            split_path.write_text(json.dumps(raw))
            net_path.write_text(dumps_network(net))
            seed = str(rng.randrange(2**32))
            for argv in (["validate", "--format", "json"], ["verify", "--seed", seed]):
                merged_run = run_cli_captured(*argv, str(split_path), "--merge-parallel")
                assert merged_run == run_cli_captured(*argv, str(net_path))
                assert merged_run[0] == 0
            code, out, err = run_cli_captured("verify", str(split_path))
            assert (code, out) == (2, "")
            assert err.startswith("MultiEdge: repeated edge between ")


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
