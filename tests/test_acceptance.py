"""Acceptance gate: eleven exact checks over the whole library.

Every comparison is exact rational equality, tolerance zero.  Each criterion
prints a single PASS/FAIL line (visible under ``pytest -s``) and then asserts,
so a red run still reports the status of the criterion that broke.
"""

import random
from fractions import Fraction

import pytest

from superport import (
    ForestEnsemble,
    Matrix,
    c2l,
    cayley_count,
    combinatorial_solution,
    electrical_response,
    energy_identity,
    forest_sign,
    is_relatively_valid,
    kirchhoff_matrix,
    load_network,
    network_to_data,
    random_circuit,
    random_network,
    random_xyzw,
    response_from_K,
    solve,
    unify_superports,
    validate_and_canonicalize,
    verify_box_h,
    verify_cancellation,
    verify_cayley,
    verify_det_L,
    verify_generalized_cayley,
    verify_kirchhoff,
    verify_kw_minor,
)

from conftest import (
    FIXTURE_NAMES,
    diagonal_square,
    fixture_path,
    rational_tuple,
    side_square,
    w_network,
)

TUPLE_COUNT = 30


def announce(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, failures[:3]


@pytest.fixture(scope="module")
def campaign():
    # shared by criteria 6, 7 and 10: 200 random superport networks with
    # n <= 8, p <= 3, at most 14 edges
    rng = random.Random(2024)
    return [
        random_network(rng, max_n=8, max_edges=14, p_max=3, require_nonroots=True)
        for _ in range(200)
    ]


def test_criterion_1_w_network_closed_form():
    failures = []
    rng = random.Random(101)
    for _ in range(TUPLE_COUNT):
        a, b, c, d = rational_tuple(rng)
        printed_C = Matrix(
            [
                [a, 0, 0, 0, -a],
                [0, b + c, 0, -c, -b],
                [0, 0, d, -d, 0],
                [0, -c, -d, c + d, 0],
                [-a, -b, 0, 0, a + b],
            ],
            labels=(1, 2, 3, 4, 5),
        )
        if printed_C != electrical_response(w_network(a, b, c, d)):
            failures.append(("response mismatch", (a, b, c, d)))
            continue
        s = a + b + c + d
        closed_form = Matrix(
            [
                [a * b + a * c + a * d, -a * b - a * c, a * c + a * d],
                [-a * b - a * c, a * b + a * c + b * d + c * d, -a * c + b * d],
                [a * c + a * d, -a * c + b * d, a * c + b * c + a * d + b * d],
            ],
            labels=(1, 2, 4),
        ) * (1 / s)
        if c2l(printed_C, [[1, 2, 3], [4, 5]]) != closed_form:
            failures.append(("reduction mismatch", (a, b, c, d)))
    announce(1, "w-network closed form", failures)


def test_criterion_2_square_entry_formula():
    failures = []
    rng = random.Random(202)
    for _ in range(TUPLE_COUNT):
        a, b, c, d = rational_tuple(rng)
        net = diagonal_square(a, b, c, d)
        L = c2l(electrical_response(net), net.superports)
        if L.entry(1, 3) != (c * d - a * b) / (a + b + c + d):
            failures.append(("entry mismatch", (a, b, c, d)))
            continue
        ensemble = ForestEnsemble(net)
        numerator = sum(
            forest_sign(f, net, 1, 3) * f.weight
            for f in ensemble.forests
            if is_relatively_valid(f, net, 1) and is_relatively_valid(f, net, 3)
        )
        if numerator != c * d - a * b:
            failures.append(("signed numerator mismatch", (a, b, c, d)))
        if ensemble.valid_weight() != a + b + c + d:
            failures.append(("denominator mismatch", (a, b, c, d)))
    announce(2, "square entry formula", failures)


def test_criterion_3_square_determinant():
    failures = []
    rng = random.Random(303)
    for _ in range(TUPLE_COUNT):
        a, b, c, d = rational_tuple(rng)
        net = side_square(a, b, c, d)
        expected = (a * b * c + a * b * d + a * c * d + b * c * d) / (a + c)
        det_route = c2l(electrical_response(net), net.superports).det()
        ensemble = ForestEnsemble(net)
        forest_route = ensemble.tree_weight() / ensemble.valid_weight()
        if det_route != expected:
            failures.append(("determinant route", (a, b, c, d)))
        if forest_route != expected:
            failures.append(("forest route", (a, b, c, d)))
    announce(3, "square determinant", failures)


def test_criterion_4_kirchhoff():
    failures = []
    rng = random.Random(404)
    for _ in range(5):
        a, b, c, d = rational_tuple(rng)
        net = unify_superports(side_square(a, b, c, d))
        printed_C = Matrix(
            [
                [a + b, -b, -a, 0],
                [-b, b + c, 0, -c],
                [-a, 0, a + d, -d],
                [0, -c, -d, c + d],
            ],
            labels=(1, 2, 3, 4),
        )
        if printed_C != electrical_response(net):
            failures.append(("square response mismatch", (a, b, c, d)))
            continue
        reduced_det = printed_C.submatrix(range(3), range(3)).det()
        if reduced_det != a * b * c + a * b * d + a * c * d + b * c * d:
            failures.append(("square determinant mismatch", (a, b, c, d)))
        report = verify_kirchhoff(net)
        if not report.ok:
            failures.append(("square", report.witness))
    for k in range(100):
        net = random_network(rng, electrical=True, max_n=8)
        report = verify_kirchhoff(net)
        if not report.ok:
            failures.append((k, report.witness))
    announce(4, "kirchhoff", failures)


def test_criterion_5_all_minors_sign():
    failures = []
    unsigned_failures = 0
    rng = random.Random(505)
    for k in range(100):
        net = random_network(rng, electrical=True, max_n=8)
        X, Y, Z = random_xyzw(rng, net.m)
        report = verify_kw_minor(net, X, Y, Z)
        if not report.ok:
            failures.append((k, X, Y, Z, report.witness))
        if not verify_kw_minor(net, (1,), (2,), (), signed=False).ok:
            unsigned_failures += 1
    if unsigned_failures == 0:
        failures.append(("dropping the sign factor never failed",))
    announce(5, "all-minors sign", failures)


def test_criterion_6_determinant_identity_at_scale(campaign):
    failures = []
    for k, net in enumerate(campaign):
        report = verify_det_L(net)
        if not report.ok:
            failures.append((k, report.witness))
    announce(6, "determinant identity at scale", failures)


def test_criterion_7_cancellation_machinery(campaign):
    failures = []
    for k, net in enumerate(campaign):
        report = verify_cancellation(net)
        if not report.ok:
            failures.append((k, report.witness))
    announce(7, "cancellation machinery", failures)


def partitions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n - 1, 0, -1):
        for rest in partitions(n - first, parts - 1):
            if rest[0] <= first:
                yield (first, *rest)


def test_criterion_8_tree_counting():
    failures = []
    counts = [cayley_count(m)[0] for m in range(1, 7)]
    if counts != [1, 1, 3, 16, 125, 1296]:
        failures.append(("complete graph counts", counts))
    for m in range(1, 7):
        report = verify_cayley(m)
        if not report.ok:
            failures.append((m, report.witness))
    rng = random.Random(808)
    for n in range(1, 8):
        for r in range(1, min(3, n) + 1):
            for sizes in partitions(n, r):
                report = verify_generalized_cayley(
                    list(sizes), rng=rng, cap=None
                )
                if not report.ok:
                    failures.append((sizes, report.witness))
    announce(8, "tree counting", failures)


def test_criterion_9_solver_consistency():
    failures = []
    rng = random.Random(909)
    for k in range(100):
        net = random_network(rng, require_nonroots=True)
        circuit = random_circuit(rng, net)
        sol = solve(circuit)
        for u, v, c in net.edges:
            if sol.currents[u - 1][v - 1] != c * (
                sol.voltages[u - 1] - sol.voltages[v - 1]
            ):
                failures.append((k, "ohm", (u, v)))
        for v in range(net.m + 1, net.n + 1):
            if sum(sol.currents[v - 1]) != 0:
                failures.append((k, "interior conservation", v))
        for sp in net.superports:
            if sum(sol.incoming[i - 1] for i in sp) != 0:
                failures.append((k, "superport current sum", sp))
        for i, d in circuit.deltas:
            if sol.voltages[i - 1] - sol.voltages[net.root_of[i] - 1] != d:
                failures.append((k, "prescribed difference", i))
        lhs, rhs = energy_identity(net, sol)
        if lhs != rhs:
            failures.append((k, "energy", str(lhs), str(rhs)))
        L = c2l(electrical_response(net), net.superports)
        for i in net.non_roots:
            expected = sum(
                L.entry(i, j) * circuit.delta_map[j] for j in net.non_roots
            )
            if sol.incoming[i - 1] != expected:
                failures.append((k, "response times differences", i))
        if combinatorial_solution(circuit) != sol:
            failures.append((k, "forest solution"))
    announce(9, "solver consistency", failures)


def test_criterion_10_route_equivalence(campaign):
    failures = []
    fixture_nets = [load_network(fixture_path(name)) for name in FIXTURE_NAMES]
    for net in fixture_nets + campaign:
        direct = response_from_K(kirchhoff_matrix(net), net.superports)
        composed = c2l(electrical_response(net), net.superports)
        if direct != composed:
            failures.append(("route mismatch", network_to_data(net)))
        if not composed.is_symmetric():
            failures.append(("asymmetric", network_to_data(net)))
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        net = random_network(rng, require_nonroots=True)
        if net.n == net.m:
            continue
        raw = network_to_data(net)
        raw["superports"] = raw["superports"] + [[net.m + 1]]
        widened, mapping = validate_and_canonicalize(raw)
        L = c2l(electrical_response(net), net.superports)
        L_widened = c2l(electrical_response(widened), widened.superports)
        if set(L_widened.row_labels) != {mapping[i] for i in L.row_labels}:
            failures.append(("non-root set changed", network_to_data(net)))
            checked += 1
            continue
        for i in L.row_labels:
            for j in L.col_labels:
                if L.entry(i, j) != L_widened.entry(mapping[i], mapping[j]):
                    failures.append(("singleton drop changed L", i, j))
        checked += 1
    announce(10, "route equivalence", failures)


def test_criterion_11_box_h_replacement():
    failures = []
    rng = random.Random(1111)
    for _ in range(TUPLE_COUNT):
        quad = rational_tuple(rng)
        report = verify_box_h(*quad)
        if not report.ok:
            failures.append((quad, report.witness))
    announce(11, "box-h replacement", failures)
