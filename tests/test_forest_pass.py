"""The single forest pass behind run_verifications.

The shared pass must report exactly what the standalone verifiers report,
each on a pass of its own, and it must enumerate the forests once and build
the response matrices at most once, and only when a requested theorem reads
them."""

import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superport import (
    THEOREMS,
    CapExceeded,
    ForestEnsemble,
    Report,
    canonical_network,
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
from superport.forests import (
    ForestPass,
    enumerate_spanning_forests,
    forest_sign,
    is_relatively_valid,
    is_valid,
    main_cycle,
    partition_sign,
    partitions_for_forest,
    pattern_is_tree,
    pattern_partition_sign,
    pattern_partitions,
    pattern_separates,
    pattern_sign,
    quotient_is_tree,
    separates,
)
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


def test_a_pass_is_freed_without_the_collector(monkeypatch):
    # the table lives as long as its pass; a reference cycle through the
    # pass would keep every table until the next full collection
    passes = []
    init = ForestPass.__init__

    def remember(self, net):
        passes.append(weakref.ref(self))
        init(self, net)

    monkeypatch.setattr(ForestPass, "__init__", remember)
    gc.disable()
    try:
        reports = run_verifications(w_network(2, 3, 5, 7), ["all"], rng=random.Random(0))
        combinatorial_solution(unit_circuit(h_network(1, 2, 3, 4, 5), 1))
        assert reports and len(passes) == 2
        assert [ref() for ref in passes] == [None, None]
    finally:
        gc.enable()


def test_response_matrices_builds_K_once(monkeypatch):
    net = h_network(1, 2, 3, 4, 5)  # vertices 5 and 6 are interior
    kirchhoff_calls = count_calls(monkeypatch, kirchhoff_matrix)
    matrices = response_matrices(net)
    assert len(kirchhoff_calls) == 1
    assert matrices.response == electrical_response(net)


# -- the grove table: pattern predicates against the per-forest route ----------


def redrawn_boundary(net, rng, interior):
    """The same graph with a new boundary: every vertex when not `interior`,
    else a proper subset, split into up to three superports."""
    m = rng.randint(1, net.n - 1) if interior else net.n
    boundary = rng.sample(range(1, net.n + 1), m)
    p = rng.randint(1, min(3, m))
    cuts = [0, *sorted(rng.sample(range(1, m), p - 1)), m]
    superports = [boundary[a:b] for a, b in zip(cuts, cuts[1:])]
    return canonical_network(net.edges, superports)


def key_of(net, f):
    return len(f.edges), f.components[1 : net.m + 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_pattern_predicates_match_the_forest_route(seed, interior):
    rng = random.Random(seed)
    net = redrawn_boundary(random_network(rng, max_n=6, max_edges=9), rng, interior)
    m, nr = net.m, net.non_roots
    quotients = [net.quotient(), *(net.quotient((i,)) for i in range(1, m + 1))]
    pairings = [
        [(i, j), *((v,) for v in range(1, m + 1) if v not in (i, j))]
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    ]
    groupings = []
    for _ in range(4):
        X, Y, Z = random_xyzw(rng, m)
        Y = rng.sample(Y, len(Y))
        W = [v for v in range(1, m + 1) if v not in (*X, *Y, *Z)]
        groupings.append([*zip(X, Y), *((w,) for w in W)])
    p = ForestPass(net)
    for f in enumerate_spanning_forests(net):
        edges, pattern = key = key_of(net, f)
        for qg in quotients:
            assert pattern_is_tree(qg, edges, pattern) == quotient_is_tree(qg, f)
        for i in nr:
            for j in nr:
                assert pattern_sign(net, pattern, i, j) == forest_sign(f, net, i, j)
        signed = [(part, partition_sign(net, f, part)) for part in partitions_for_forest(net, f)]
        assert [
            (part, pattern_partition_sign(net, pattern, part))
            for part in pattern_partitions(net, edges, pattern)
        ] == signed
        for groups in pairings + groupings:
            assert pattern_separates(pattern, groups) == separates(f, groups)
        facts = p.facts(key)
        assert facts.valid == is_valid(f, net)
        assert facts.relative == tuple(i for i in nr if is_relatively_valid(f, net, i))
        assert facts.partitions == tuple(signed)


def test_pattern_facts_are_decided_once_per_key(monkeypatch):
    # two interior vertices give many forests per (edge count, pattern) key
    net = canonical_network(
        [(1, 2, 2), (1, 5, 3), (2, 6, 5), (3, 5, 7), (4, 6, 2), (5, 6, 3), (3, 4, 5), (2, 5, 7)],
        [[1, 2], [3, 4]],
    )
    every = list(enumerate_spanning_forests(net))
    keys = {key_of(net, f) for f in every}
    assert len(every) > 2 * len(keys)
    shared = [count_calls(monkeypatch, fn) for fn in (pattern_is_tree, pattern_partitions)]
    signs = count_calls(monkeypatch, pattern_sign)
    groupings = count_calls(monkeypatch, pattern_separates)
    cycles = count_calls(monkeypatch, main_cycle)
    grouped = []
    for theorems in (["all"], ["kirchhoff"], ["kw"]):
        del groupings[:]
        reports = run_verifications(net, theorems, rng=random.Random(0))
        assert reports and all(r.ok for r in reports)
        grouped.append([(pattern, tuple(map(tuple, groups))) for pattern, groups in groupings])
    # validity, relative validity and the signed partitions are shared by
    # every theorem; a sign is asked once per key and pair, a grouping once
    # per key by each theorem that names it
    tree_calls, partition_calls = shared
    decided = [
        [(id(qg), edges, pattern) for qg, edges, pattern in tree_calls],
        [(edges, pattern) for _, edges, pattern in partition_calls],
        [args[1:] for args in signs],
        *grouped[1:],
    ]
    for made in decided:
        assert made and len(made) == len(set(made))
    assert len(partition_calls) == len(keys)
    assert len(grouped[0]) < len(every)
    # the involution is a statement about one forest: once per non-valid
    # forest with partitions, each forest once
    cycled = [f for f in every if not is_valid(f, net) and any(partitions_for_forest(net, f))]
    assert cycled
    assert [args[1] for args in cycles] == cycled
