"""The single forest pass behind run_verifications.

The shared pass must report exactly what the standalone verifiers report,
each on a pass of its own, and it must enumerate the forests once and build
the response matrices at most once, and only when a requested theorem reads
them."""

import gc
import itertools
import random
import sys
import weakref
from fractions import Fraction

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
    verify,
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
    CycleEnds,
    Forest,
    ForestPass,
    GroveNode,
    enumerate_spanning_forests,
    forest_sign,
    is_relatively_valid,
    is_valid,
    main_cycle,
    partition_sign,
    partitions_for_forest,
    pattern_cycle_rank,
    pattern_is_tree,
    pattern_partition_sign,
    pattern_partitions,
    pattern_separates,
    pattern_sign,
    permutation_parity,
    quotient_is_tree,
    quotient_path,
    separates,
    walk_forests,
)
from superport.linalg import rat_str
from superport.network import network_to_data
from superport.solver import c2l, kirchhoff_matrix

from conftest import multi_cycle_network, w_network


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


def count_walks(monkeypatch):
    """Count calls of walk_forests, the one enumeration, and the forests they
    yield, through every package module that binds the function; and count
    the ensembles built."""
    calls, produced, built = [], [], []
    original = walk_forests

    def counting(*args, **kwargs):
        walk = original(*args, **kwargs)
        calls.append(args)
        return (produced.append(tuple(item[0])) or item for item in walk)

    patch_everywhere(monkeypatch, original, counting)
    init = ForestEnsemble.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ForestEnsemble, "__init__", counting_init)
    return calls, produced, built


def table_of(net, forests):
    """The grove table summed forest by forest, keys in first-seen order."""
    table = {}
    for f in forests:
        key = key_of(net, f)
        table[key] = table.get(key, 0) + f.units
    return table


def test_run_verifications_enumerates_once(monkeypatch):
    net = w_network(2, 3, 5, 7)
    every = list(enumerate_spanning_forests(net))
    passes = []
    run = ForestPass.run

    def recording_run(self, *args, **kwargs):
        passes.append(self)
        run(self, *args, **kwargs)

    monkeypatch.setattr(ForestPass, "run", recording_run)
    calls, produced, built = count_walks(monkeypatch)
    reports = run_verifications(net, ["all"], rng=random.Random(0))
    assert reports and all(r.ok for r in reports)
    assert len(calls) == 1
    assert built == []
    # the walk yields, in order, exactly the forests whose key admits some
    # taker; it adds every forest's units into the table, yielded or not
    (p,) = passes
    taken = [
        f.edges for f in every
        if any(keep(p.facts(key_of(net, f))) for keep, _ in p.takers)
    ]
    assert 0 < len(taken) < len(every)
    assert produced == taken
    assert list(p.units.items()) == list(table_of(net, every).items())


def test_over_cap_network_is_refused_before_any_forest(monkeypatch):
    calls, produced, built = count_walks(monkeypatch)
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


@pytest.mark.parametrize("verifier, builds", [
    (verify_signed_sum, 0),
    (verify_cancellation, 0),
    (verify_det_L, 1),
    (verify_valid_minor_sum, 1),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_a_standalone_verifier_builds_the_response_only_if_it_reads_it(
    monkeypatch, verifier, builds
):
    c2l_calls = count_calls(monkeypatch, c2l)
    assert verifier(w_network(2, 3, 5, 7)).ok
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


def test_the_valid_weight_is_summed_once_per_pass(monkeypatch):
    # four reports divide by the valid weight: the entries, det L, the
    # signed sum and the forest solution; one scan of the table serves them
    signs = []
    weight = ForestPass.weight

    def counting(self, count, *sign):
        signs.extend(s.__qualname__ for s in sign)
        return weight(self, count, *sign)

    monkeypatch.setattr(ForestPass, "weight", counting)
    reports = run_verifications(w_network(2, 3, 5, 7), ["all"], rng=random.Random(0))
    theorems = {r.theorem for r in reports}
    assert all(r.ok for r in reports)
    assert {"response-entries", "det-response", "signed-sum", "forest-solution"} <= theorems
    assert signs.count("ForestPass.valid_weight.<locals>.<lambda>") == 1


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_the_one_sum_matches_the_forest_route(seed, interior):
    # every family the verifiers sum, through ForestPass.weight, against the
    # same family weighed forest by forest
    rng = random.Random(seed)
    net = redrawn_boundary(random_network(rng, max_n=6, max_edges=9), rng, interior)
    m, nr = net.m, net.non_roots
    p = ForestPass(net)
    p.want()
    p.run()
    ensemble = ForestEnsemble(net)
    valid = m - net.p + 1
    assert p.weight(1) == ensemble.tree_weight()
    assert p.weight(valid, lambda key: p.facts(key).valid) == ensemble.valid_weight()
    for i in nr:
        relative = p.weight(valid - 1, lambda key: i in p.facts(key).relative)
        assert relative == ensemble.quotient_tree_weight(net.quotient((i,)))
    groupings = [[(v,) for v in range(1, m + 1)]]
    for _ in range(3):
        X, Y, Z = random_xyzw(rng, m)
        W = [v for v in range(1, m + 1) if v not in (*X, *Y, *Z)]
        groupings.append([*zip(X, Y), *((w,) for w in W)])
    for groups in groupings:
        grouped = p.weight(len(groups), lambda key: pattern_separates(key[1], groups))
        assert grouped == ensemble.grouped_weight(groups)
    # a sign of -1 or 0 counts: the forest signs and the signed partitions
    for i in nr:
        for j in nr:
            both = [
                f for f in ensemble.with_components(valid - 1)
                if is_relatively_valid(f, net, i) and is_relatively_valid(f, net, j)
            ]
            signed = p.weight(valid - 1, lambda key: (
                pattern_sign(net, key[1], i, j) if {i, j} <= {*p.facts(key).relative} else 0
            ))
            assert signed == sum((forest_sign(f, net, i, j) * f.weight for f in both), Fraction(0))
    partitions = p.weight(valid, lambda key: sum(sign for _, sign in p.facts(key).partitions))
    assert partitions == sum(
        (
            partition_sign(net, f, part) * f.weight
            for f in ensemble.with_components(valid)
            for part in partitions_for_forest(net, f)
        ),
        Fraction(0),
    )


def two_boundary_vertices(net, rng):
    """The same graph with two boundary vertices, in one superport or two."""
    boundary = rng.sample(range(1, net.n + 1), 2)
    superports = [boundary] if rng.random() < 0.5 else [[v] for v in boundary]
    return canonical_network(net.edges, superports)


def all_roots(net, rng):
    """The same graph with a boundary of roots only: one superport each."""
    boundary = rng.sample(range(1, net.n + 1), rng.randint(1, net.n))
    return canonical_network(net.edges, [[v] for v in boundary])


# how the one-scan sums draw a boundary for a random graph
BOUNDARIES = {
    "m=2": two_boundary_vertices,
    "all-root": all_roots,
    "interior": lambda net, rng: redrawn_boundary(net, rng, True),
    "no-interior": lambda net, rng: redrawn_boundary(net, rng, False),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(sorted(BOUNDARIES)))
def test_the_one_scan_sums_equal_the_general_sums(seed, boundary):
    # Kirchhoff's trees and pairs, each one key of the table, against the
    # all-minors formula, and the entries of L, summed in one scan, against
    # the signed sum, pair by pair
    rng = random.Random(seed)
    net = BOUNDARIES[boundary](random_network(rng, max_n=6, max_edges=9), rng)
    m, nr = net.m, net.non_roots
    p = ForestPass(net)
    p.want()
    p.run()
    H = verify._electrical(p)
    trees = verify._grove(p, (1,) * m)
    assert trees > 0
    assert trees / H == verify._all_minors(p, (), (), tuple(range(1, m)), H)
    pairs = {}
    for i, j in itertools.combinations(range(1, m + 1), 2):
        pairs[i, j] = verify._grove(p, tuple(i if v == j else v for v in range(1, m + 1)))
        assert -pairs[i, j] / H == verify._all_minors(p, (i,), (j,), (), H)
    assert m < 2 or any(pairs.values())
    sums = verify._entry_sums(p)
    assert set(sums) == set(itertools.product(nr, repeat=2))
    assert all(sums[i, i] > 0 for i in nr)
    for i in nr:
        for j in nr:

            def sign(key, i=i, j=j):
                relative = p.facts(key).relative
                return pattern_sign(net, key[1], i, j) if i in relative and j in relative else 0

            assert sums[i, j] == p.weight(m - net.p, sign)


def shared_key_network():
    """Two interior vertices give many forests per (edge count, pattern) key."""
    return canonical_network(
        [(1, 2, 2), (1, 5, 3), (2, 6, 5), (3, 5, 7), (4, 6, 2), (5, 6, 3), (3, 4, 5), (2, 5, 7)],
        [[1, 2], [3, 4]],
    )


def test_pattern_facts_are_decided_once_per_key(monkeypatch):
    net = shared_key_network()
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
    # per key by each theorem that names it; kirchhoff reads single keys and
    # names no grouping
    tree_calls, partition_calls = shared
    assert grouped[1] == []
    decided = [
        [(id(qg), edges, pattern) for qg, edges, pattern in tree_calls],
        [(edges, pattern) for _, edges, pattern in partition_calls],
        [args[1:] for args in signs],
        grouped[2],
    ]
    for made in decided:
        assert made and len(made) == len(set(made))
    assert len(partition_calls) == len(keys)
    assert len(grouped[0]) < len(every)
    # the involution is a statement about one forest, but the forests of a
    # key whose quotients have one cycle share its main-cycle ends: the main
    # cycle is searched for on the first non-valid forest with partitions of
    # each such key, and on every one of the other keys.  With partitions,
    # the component-superport graph has m + 1 nodes and m edges, so two
    # cycles need m >= 5: this network (m = 4) has no other key, and
    # multi_cycle_network (m = 5) has 4 forests on two-cycle keys
    for net in (net, multi_cycle_network()):
        del cycles[:]
        reports = run_verifications(net, ["all"], rng=random.Random(0))
        assert reports and all(r.ok for r in reports)
        cycled = [
            f for f in enumerate_spanning_forests(net)
            if not is_valid(f, net) and any(partitions_for_forest(net, f))
        ]
        first = {}
        for f in cycled:
            first.setdefault(key_of(net, f), f)
        many = [f for f in cycled if pattern_cycle_rank(net, key_of(net, f)[1]) != 1]
        assert len(many) == (0 if net.m == 4 else 4)
        searched = [f for f in cycled if f in many or first[key_of(net, f)] is f]
        assert searched and len(searched) < len(cycled)
        assert [args[1] for args in cycles] == searched


# -- the walk tracks the key: against the table built from Forests -------------


def shuffled_network(seed, p_max):
    """A random network whose edges come in another order, so the walk
    reaches the keys, and follows their links, in another order."""
    rng = random.Random(seed)
    net = random_network(rng, max_n=7, max_edges=12, p_max=p_max)
    edges = list(net.edges)
    rng.shuffle(edges)
    return canonical_network(edges, net.superports)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_tracked_key_equals_the_table_of_forests(seed, p_max):
    net = shuffled_network(seed, p_max)
    forests = list(enumerate_spanning_forests(net))
    table = table_of(net, forests)
    p = ForestPass(net)
    every, valid = [], []
    p.want(lambda facts: True, lambda f, facts: every.append(f))
    p.want(lambda facts: facts.valid, lambda f, facts: valid.append((f, facts)))
    p.run()
    assert list(p.units.items()) == list(table.items())
    assert every == forests
    assert all(type(f) is Forest for f in every)
    assert valid == [(f, p.facts(key_of(net, f))) for f in forests if is_valid(f, net)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_a_tracked_walk_folds_the_forests_no_taker_reads(seed, p_max):
    # a forest whose next join is the last edge folds its child into a known
    # node that no taker reads, without yielding it; the table must not see
    # the difference
    net = shuffled_network(seed, p_max)
    forests = list(enumerate_spanning_forests(net))
    table = list(table_of(net, forests).items())
    alone = ForestPass(net)
    alone.want()
    alone.run()
    assert list(alone.units.items()) == table
    p = ForestPass(net)
    valid = []
    p.want(lambda facts: facts.valid, lambda f, facts: valid.append(f))
    p.run()
    assert list(p.units.items()) == table
    assert valid == [f for f in forests if is_valid(f, net)]
    # with no taker on any node, a tracked walk yields nothing
    grove = {}
    assert list(walk_forests(net, lambda key: grove.setdefault(key, GroveNode()))) == []
    assert [(key, node.units) for key, node in grove.items()] == table


# -- the cancellation: one involution check per key, or per (key, ends) -------


def cycled_forests(net):
    """The non-valid forests with partitions, in enumeration order, each with
    its key and the cycle ends the cancellation reads: those of the key's
    first forest when its quotients have one cycle, else its main cycle's."""
    cycled, first_ends = [], {}
    for f in enumerate_spanning_forests(net):
        if is_valid(f, net) or not any(partitions_for_forest(net, f)):
            continue
        key = key_of(net, f)
        ends = first_ends.get(key) or main_cycle(net, f).ends
        if pattern_cycle_rank(net, key[1]) == 1:
            first_ends.setdefault(key, ends)
        cycled.append((f, key, ends))
    return cycled


def test_cancellation_checks_the_involution_once_per_key_and_ends(monkeypatch):
    net = shared_key_network()
    cycled = cycled_forests(net)
    shared = {(key, ends) for _, key, ends in cycled}
    assert len(shared) < len(cycled)
    calls = []
    original = CycleEnds.involution

    def counting(self, part):
        calls.append(part)
        return original(self, part)

    monkeypatch.setattr(CycleEnds, "involution", counting)
    assert verify_cancellation(net).ok
    size = {key: sum(1 for _ in pattern_partitions(net, *key)) for _, key, _ in cycled}
    # two calls per partition at most: its image, and the image of that
    assert len(calls) <= sum(2 * size[key] for key, _ in shared)
    assert len(calls) < sum(2 * size[key] for _, key, _ in cycled)


def test_a_failing_involution_names_the_first_forest(monkeypatch):
    net = shared_key_network()
    taken = [
        f for f in enumerate_spanning_forests(net)
        if is_valid(f, net) or any(partitions_for_forest(net, f))
    ]
    first = cycled_forests(net)[0][0]
    monkeypatch.setattr(CycleEnds, "involution", lambda self, part: part)
    report = verify_cancellation(net)
    assert report.status == "fail"
    assert report.witness["note"] == "involution fixed point"
    assert report.witness["forest"] == list(first.edges)
    assert report.checks == len(taken)


def test_an_involution_failing_on_one_key_and_ends_names_its_first_forest(monkeypatch):
    # the involution fails on one key's partitions under one cycle's ends;
    # the key's quotients have two cycles and its first forest has other
    # ends, so a check shared by key alone would pass the key
    net = multi_cycle_network()
    cycled = cycled_forests(net)
    first_ends = {}
    for _, key, ends in cycled:
        first_ends.setdefault(key, ends)
    bad_key, bad_ends = next(
        (key, ends) for _, key, ends in cycled if set(ends) != set(first_ends[key])
    )
    assert bad_key == (3, (1, 1, 3, 3, 5)) and pattern_cycle_rank(net, bad_key[1]) == 2
    bad_parts = set(pattern_partitions(net, *bad_key))
    witness = next(
        f for f, key, ends in cycled
        if set(ends) == set(bad_ends) and bad_parts.intersection(pattern_partitions(net, *key))
    )
    assert set(first_ends[key_of(net, witness)]) != set(bad_ends)
    original = CycleEnds.involution

    def failing(self, part):
        return part if set(self) == set(bad_ends) and part in bad_parts else original(self, part)

    monkeypatch.setattr(CycleEnds, "involution", failing)
    report = verify_cancellation(net)
    assert report.witness["note"] == "involution fixed point"
    assert report.witness["forest"] == list(witness.edges)


# -- Kenyon-Wilson minors: one permutation per key -----------------------------


def test_kw_sum_is_the_explicit_permutation_sum():
    net = canonical_network(
        [(1, 7, 2), (2, 7, 3), (3, 7, 5), (4, 7, 7), (5, 7, 2), (6, 7, 3),
         (1, 5, 5), (2, 6, 7), (3, 4, 2), (1, 6, 3), (2, 4, 5), (3, 5, 7)],
        [[1, 2, 3], [4, 5, 6]],
    )
    X, Y = (1, 2, 3), (5, 4, 6)
    ensemble = ForestEnsemble(net)
    terms = [
        permutation_parity(dict(enumerate(pi)))
        * ensemble.grouped_weight([(x, Y[s]) for x, s in zip(X, pi)])
        for pi in itertools.permutations(range(3))
    ]
    assert sum(1 for t in terms if t) >= 2
    electrical = ensemble.grouped_weight([(v,) for v in range(1, 7)])
    report = verify_kw_minor(net, X, Y, ())
    assert report.ok
    assert report.rhs == rat_str(-sum(terms) / electrical)


def test_kw_with_five_pairs_reads_one_permutation_per_key(monkeypatch):
    edges = [
        *((i, i + 5, 1 + i % 3) for i in range(1, 6)),
        *((i, i + 6, 2) for i in range(1, 5)),
        *((i, i + 1, 3) for i in range(1, 5)),
    ]
    net = canonical_network(edges, [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
    keys = {key_of(net, f) for f in enumerate_spanning_forests(net) if f.component_count == 5}
    calls = count_calls(monkeypatch, pattern_separates)
    report = verify_kw_minor(net, (1, 2, 3, 4, 5), (7, 6, 8, 10, 9), ())
    assert report.ok and report.rhs != "0"
    # one grouping per key, not one for each of the 5! = 120 permutations
    assert 0 < len(calls) <= len(keys)


# -- the program's own faults land in the report --------------------------------


def raising(monkeypatch, original, exc):
    """Make `original` raise `exc` everywhere; returns the calls it got."""
    calls = []

    def broken(*args):
        calls.append(args)
        raise exc

    patch_everywhere(monkeypatch, original, broken)
    return calls


def test_a_raising_taker_fails_its_report_and_the_others_still_run(monkeypatch):
    net = w_network(2, 3, 5, 7)
    expected = [r.to_data() for r in run_verifications(net, ["all"], rng=random.Random(0))]
    calls = raising(monkeypatch, quotient_path, KeyError(3))
    reports = [r.to_data() for r in run_verifications(net, ["all"], rng=random.Random(0))]
    # the currents taker raised on its first forest and took no more
    assert len(calls) == 1
    forest = calls[0][1]
    failed = [r for r in reports if r["status"] != "pass"]
    assert failed == [{
        "theorem": "forest-solution",
        "status": "fail",
        "lhs": "KeyError: 3",
        "rhs": "no error",
        "checks": 0,
        "witness": {
            "network": network_to_data(net),
            "forest": list(forest.edges),
            "error": "KeyError: 3",
        },
    }]
    assert [r for r in reports if r["status"] == "pass"] == [
        r for r in expected if r["theorem"] != "forest-solution"
    ]


def test_a_raising_finish_step_fails_its_report(monkeypatch):
    net = w_network(2, 3, 5, 7)
    raising(monkeypatch, pattern_sign, ZeroDivisionError("division by zero"))
    report = verify_L_entries(net)
    assert (report.theorem, report.status) == ("response-entries", "fail")
    assert report.witness == {
        "network": network_to_data(net),
        "error": "ZeroDivisionError: division by zero",
    }
    others = run_verifications(net, ["detl", "signedsum"], rng=random.Random(0))
    assert others and all(r.ok for r in others)


def test_an_error_deciding_a_keys_facts_fails_the_reports_that_read_them(monkeypatch):
    net = w_network(2, 3, 5, 7)
    expected = [r.to_data() for r in run_verifications(net, ["all"], rng=random.Random(0))]
    raising(monkeypatch, pattern_partitions, IndexError("tuple index out of range"))
    reports = [r.to_data() for r in run_verifications(net, ["all"], rng=random.Random(0))]
    failed = [r for r in reports if r["status"] != "pass"]
    # the takers lose their forests, and the finish steps that read facts fail
    assert [r["theorem"] for r in failed] == [
        "response-entries", "det-response", "signed-sum", "partition-cancellation",
        "forest-solution",
    ]
    for r in failed:
        assert r["witness"] == {
            "network": network_to_data(net),
            "error": "IndexError: tuple index out of range",
        }
    failing = {r["theorem"] for r in failed}
    assert [r for r in reports if r["status"] == "pass"] == [
        r for r in expected if r["theorem"] not in failing
    ]


def test_the_combinatorial_solution_raises_what_its_taker_raised(monkeypatch):
    raising(monkeypatch, quotient_path, KeyError(3))
    with pytest.raises(KeyError):
        combinatorial_solution(unit_circuit(h_network(1, 2, 3, 4, 5), 1))


def test_input_errors_while_planning_still_raise():
    with pytest.raises(ValueError, match="disjoint"):
        verify_kw_minor(w_network(2, 3, 5, 7), (1,), (1,), ())
