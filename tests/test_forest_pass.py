"""The single forest pass behind run_verifications.

The shared pass must report exactly what the standalone verifiers report,
each on a pass of its own, and it must enumerate the forests once and build
the response matrices at most once, and only when a requested theorem reads
them."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superport import (
    THEOREMS,
    CapExceeded,
    ForestEnsemble,
    Report,
    combinatorial_solution,
    complete_network,
    electrical_response,
    h_network,
    random_circuit,
    random_network,
    random_xyzw,
    response_matrices,
    run_verifications,
    solve,
    unit_circuit,
    verify_cancellation,
    verify_det_L,
    verify_gluing,
    verify_kirchhoff,
    verify_kw_minor,
    verify_L_entries,
    verify_signed_sum,
    verify_valid_minor_sum,
)
from superport.forests import enumerate_spanning_forests
from superport.solver import c2l, kirchhoff_matrix

from conftest import w_network


def standalone_reports(net, rng):
    """Every report of run_verifications(net, ["all"], rng=rng), made one by
    one by the public verifiers."""
    m, nr = net.m, net.non_roots
    by_theorem = {
        "kirchhoff": lambda: [verify_kirchhoff(net)] if m >= 2 else [],
        "kw": lambda: [
            verify_kw_minor(net, X, Y, Z)
            for X, Y, Z in [((1,), (2,), ())] * (m >= 2)
            + [((), (), tuple(range(1, m))), random_xyzw(rng, m)]
        ],
        "entries": lambda: [verify_L_entries(net)] if nr else [],
        "detl": lambda: [verify_det_L(net)] if nr else [],
        "minorsum": lambda: [verify_valid_minor_sum(net)] if nr else [],
        "signedsum": lambda: [verify_signed_sum(net), verify_cancellation(net)],
        "gluing": lambda: [verify_gluing(unit_circuit(net, i), i) for i in nr],
        "solution": lambda: [solution_report(random_circuit(rng, net))],
    }
    assert list(by_theorem) == list(THEOREMS)
    return [r for theorem in THEOREMS for r in by_theorem[theorem]()]


def solution_report(circuit):
    ok = combinatorial_solution(circuit) == solve(circuit)
    return Report(
        theorem="forest-solution",
        status="pass" if ok else "fail",
        lhs="solver",
        rhs="forest formulas",
        checks=1,
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_streamed_reports_equal_standalone_reports(seed):
    net = random_network(random.Random(seed), max_n=6, max_edges=10, p_max=3)
    streamed = [r.to_data() for r in run_verifications(net, ["all"], rng=random.Random(seed))]
    alone = [r.to_data() for r in standalone_reports(net, random.Random(seed))]
    assert streamed == alone
    assert all(r["status"] == "pass" for r in streamed)


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a function in every package module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "superport" or name.startswith("superport."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, original):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, original, counting)
    return calls


def count_enumerations(monkeypatch):
    """Count calls of enumerate_spanning_forests, and the forests they yield,
    through every package module that binds the function; and count the
    ensembles built."""
    calls, produced, built = [], [], []
    original = enumerate_spanning_forests

    def counting(*args, **kwargs):
        forests = original(*args, **kwargs)
        calls.append(args)
        return (produced.append(f) or f for f in forests)

    patch_everywhere(monkeypatch, original, counting)
    init = ForestEnsemble.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ForestEnsemble, "__init__", counting_init)
    return calls, produced, built


def test_run_verifications_enumerates_once(monkeypatch):
    calls, produced, built = count_enumerations(monkeypatch)
    net = w_network(2, 3, 5, 7)
    reports = run_verifications(net, ["all"], rng=random.Random(0))
    assert reports and all(r.ok for r in reports)
    assert len(calls) == 1
    assert len(produced) == sum(1 for _ in enumerate_spanning_forests(net))
    assert built == []


def test_over_cap_network_is_refused_before_any_forest(monkeypatch):
    calls, produced, built = count_enumerations(monkeypatch)
    net = complete_network(7)  # 21 edges
    with pytest.raises(CapExceeded):
        run_verifications(net, ["all"], rng=random.Random(0))
    assert produced == [] and built == []


def test_run_verifications_builds_the_response_once(monkeypatch):
    kirchhoff_calls = count_calls(monkeypatch, kirchhoff_matrix)
    c2l_calls = count_calls(monkeypatch, c2l)
    reports = run_verifications(w_network(2, 3, 5, 7), ["all"], rng=random.Random(0))
    assert reports and all(r.ok for r in reports)
    assert (len(kirchhoff_calls), len(c2l_calls)) == (1, 1)


@pytest.mark.parametrize("theorems, builds", [
    ("signedsum", 0),
    ("solution", 0),
    ("signedsum gluing solution", 0),
    ("signedsum detl", 1),
    ("all", 1),
])
def test_response_is_built_only_when_read(monkeypatch, theorems, builds):
    c2l_calls = count_calls(monkeypatch, c2l)
    net = w_network(2, 3, 5, 7)
    reports = run_verifications(net, theorems.split(), rng=random.Random(0))
    assert reports and all(r.ok for r in reports)
    assert len(c2l_calls) == builds


def test_response_matrices_builds_K_once(monkeypatch):
    net = h_network(1, 2, 3, 4, 5)  # vertices 5 and 6 are interior
    kirchhoff_calls = count_calls(monkeypatch, kirchhoff_matrix)
    matrices = response_matrices(net)
    assert len(kirchhoff_calls) == 1
    assert matrices.response == electrical_response(net)
