import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superport.solver
from superport import (
    Matrix,
    NoNonRootVertices,
    SingularIntermediate,
    c2l,
    canonical_network,
    electrical_response,
    energy_identity,
    extended_response,
    kirchhoff_matrix,
    make_circuit,
    random_circuit,
    random_network,
    response_from_K,
    response_matrices,
    solve,
    solve_linear_system,
    unify_superports,
)

from conftest import (
    defining_solve,
    diagonal_square,
    five_step_c2l,
    rational_tuple,
    side_square,
    w_network,
)


class TestKirchhoffMatrix:
    def test_series_pair(self):
        net = canonical_network([(1, 3, 2), (2, 3, 3)], [[1, 2]])
        K = kirchhoff_matrix(net)
        assert K == Matrix(
            [[2, 0, -2], [0, 3, -3], [-2, -3, 5]], labels=(1, 2, 3)
        )

    def test_zero_row_sums_and_symmetry(self):
        net = w_network(*rational_tuple(random.Random(1)))
        K = kirchhoff_matrix(net)
        assert K.is_symmetric()
        assert all(s == 0 for s in K.row_sums())


class TestElectricalResponse:
    def test_no_interior_is_identity_operation(self):
        net = w_network(1, 2, 3, 4)
        assert electrical_response(net) == kirchhoff_matrix(net)

    def test_series_elimination(self):
        # two unit resistors in series make conductance 1/2 between terminals
        net = canonical_network([(1, 3, 1), (2, 3, 1)], [[1, 2]])
        C = electrical_response(net)
        assert C == Matrix(
            [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 2)]],
            labels=(1, 2),
        )

    def test_zero_row_sums_preserved(self):
        rng = random.Random(7)
        for _ in range(10):
            net = random_network(rng)
            C = electrical_response(net)
            assert C.is_symmetric()
            assert all(s == 0 for s in C.row_sums())


class TestC2L:
    def test_worked_example_steps(self):
        a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        net = w_network(a, b, c, d)
        C = electrical_response(net)
        # step 1: drop the last row and column, then invert
        inv = C.submatrix(range(4), range(4)).invert()
        assert inv == Matrix(
            [
                [1 / a, 0, 0, 0],
                [0, 1 / b, 1 / b, 1 / b],
                [0, 1 / b, (b * c + b * d + c * d) / (b * c * d), (b + c) / (b * c)],
                [0, 1 / b, (b + c) / (b * c), (b + c) / (b * c)],
            ],
            labels=(1, 2, 3, 4),
        )
        s = a + b + c + d
        expected = Matrix(
            [
                [a * b + a * c + a * d, -a * b - a * c, a * c + a * d],
                [-a * b - a * c, a * b + a * c + b * d + c * d, -a * c + b * d],
                [a * c + a * d, -a * c + b * d, a * c + b * c + a * d + b * d],
            ],
            labels=(1, 2, 4),
        ) * (1 / s)
        assert c2l(C, net.superports) == expected

    def test_single_superport_reduces_to_trimmed_response(self):
        net = unify_superports(w_network(1, 2, 3, 4))
        C = electrical_response(net)
        L = c2l(C, net.superports)
        assert L == C.submatrix(range(4), range(4))

    def test_all_roots_rejected(self):
        with pytest.raises(NoNonRootVertices):
            c2l(Matrix([[1, -1], [-1, 1]], labels=(1, 2)), [[1], [2]])

    def test_non_canonical_superports_rejected(self):
        C = Matrix.identity(3, labels=(1, 2, 3))
        with pytest.raises(ValueError):
            c2l(C, [[2, 1], [3]])
        with pytest.raises(ValueError):
            c2l(C, [[1, 2]])

    def test_singular_step_detected(self):
        # an all-zero matrix fails at the first inversion
        C = Matrix([[0, 0], [0, 0]], labels=(1, 2))
        with pytest.raises(SingularIntermediate):
            c2l(C, [[1, 2]])

    def test_wrong_labels_rejected(self):
        C = Matrix([[1, 0], [0, 1]], labels=(2, 3))
        with pytest.raises(ValueError):
            c2l(C, [[1, 2]])


class TestResponseFromK:
    def test_matches_c2l_route_on_random_networks(self):
        rng = random.Random(3)
        for _ in range(20):
            net = random_network(rng, require_nonroots=True)
            direct = response_from_K(kirchhoff_matrix(net), net.superports)
            composed = c2l(electrical_response(net), net.superports)
            assert direct == composed

    def test_response_matrices_bundle(self):
        net = w_network(2, 3, 5, 7)
        bundle = response_matrices(net)
        assert bundle.kirchhoff == kirchhoff_matrix(net)
        assert bundle.response == electrical_response(net)
        assert bundle.superport_response == c2l(bundle.response, net.superports)

    def test_bundle_without_non_roots(self):
        net = canonical_network([(1, 2, 1)], [[1], [2]])
        bundle = response_matrices(net)
        assert bundle.superport_response is None


class TestSolve:
    def test_two_terminal_series(self):
        # unit voltage across two unit conductances in series: current 1/2
        net = canonical_network([(1, 3, 1), (2, 3, 1)], [[1, 2]])
        sol = solve(make_circuit(net, {1: 1}))
        assert sol.voltages == (Fraction(1), Fraction(0), Fraction(1, 2))
        assert sol.incoming == (Fraction(1, 2), Fraction(-1, 2))
        lhs, rhs = energy_identity(net, sol)
        assert lhs == rhs == Fraction(1, 2)

    def test_axioms_on_random_circuits(self):
        rng = random.Random(11)
        for _ in range(30):
            net = random_network(rng)
            circ = random_circuit(rng, net)
            sol = solve(circ)
            n, m = net.n, net.m
            # normalization
            assert sol.voltages[m - 1] == 0
            # (C) on the current table
            for u, v, c in net.edges:
                assert sol.currents[u - 1][v - 1] == c * (
                    sol.voltages[u - 1] - sol.voltages[v - 1]
                )
            # (I) interior conservation
            for v in range(m + 1, n + 1):
                assert sum(sol.currents[v - 1]) == 0
            # (P) for every superport (the last follows from the others)
            for sp in net.superports:
                assert sum(sol.incoming[k - 1] for k in sp) == 0
            # (B) prescribed differences
            for k, d in circ.deltas:
                assert sol.voltages[k - 1] - sol.voltages[net.root_of[k] - 1] == d
            # energy balance
            lhs, rhs = energy_identity(net, sol)
            assert lhs == rhs

    def test_incoming_currents_match_response(self):
        rng = random.Random(13)
        for _ in range(20):
            net = random_network(rng, require_nonroots=True)
            circ = random_circuit(rng, net)
            sol = solve(circ)
            L = c2l(electrical_response(net), net.superports)
            for i in net.non_roots:
                expect = sum(
                    L.entry(i, j) * circ.delta_map[j] for j in net.non_roots
                )
                assert sol.incoming[i - 1] == expect

    def test_networks_where_the_fill_order_changes_the_pivots(self):
        # at 30 vertices and 60 edges the solve eliminates interior vertices
        # out of label order (8 to 15 interior vertices in all four draws),
        # and the Schur complement too
        rng = random.Random(0)
        for _ in range(4):
            net = random_network(rng, max_n=30, max_edges=60, require_nonroots=True)
            circ = random_circuit(rng, net)
            sol = solve(circ)
            n, m = net.n, net.m
            assert sol.voltages[m - 1] == 0
            for v in range(m + 1, n + 1):
                assert sum(sol.currents[v - 1]) == 0
            for sp in net.superports:
                assert sum(sol.incoming[k - 1] for k in sp) == 0
            for k, d in circ.deltas:
                assert sol.voltages[k - 1] - sol.voltages[net.root_of[k] - 1] == d
            for k in range(1, m + 1):
                assert sol.incoming[k - 1] == sum(sol.currents[k - 1])
            L = response_matrices(net).superport_response
            for i in net.non_roots:
                expect = sum(L.entry(i, j) * circ.delta_map[j] for j in net.non_roots)
                assert sol.incoming[i - 1] == expect

    def test_linearity(self):
        net = w_network(1, 2, 3, 4)
        a = solve(make_circuit(net, {1: 1, 2: 0, 4: 0}))
        b = solve(make_circuit(net, {1: 0, 2: 1, 4: 0}))
        combined = solve(make_circuit(net, {1: 2, 2: 3, 4: 0}))
        for v in range(net.n):
            assert combined.voltages[v] == 2 * a.voltages[v] + 3 * b.voltages[v]


class TestExtendedResponse:
    def test_restriction_row_sums_symmetry(self):
        rng = random.Random(17)
        for _ in range(15):
            net = random_network(rng, require_nonroots=True)
            Lext = extended_response(net)
            assert Lext.is_symmetric()
            L = c2l(electrical_response(net), net.superports)
            for i in net.non_roots:
                for j in net.non_roots:
                    assert Lext.entry(i, j) == L.entry(i, j)
            for sp in net.superports:
                for i in range(1, net.m + 1):
                    assert sum(Lext.entry(i, j) for j in sp) == 0

    def test_singleton_root_column_is_zero(self):
        net = canonical_network([(1, 2, 1), (2, 3, 1)], [[1, 2], [3]])
        Lext = extended_response(net)
        assert all(Lext.entry(i, 3) == 0 for i in (1, 2, 3))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_solution_scales_with_conductance(seed):
    # multiplying every conductance by t multiplies currents by t and
    # leaves voltages unchanged
    rng = random.Random(seed)
    net = random_network(rng)
    circ = random_circuit(rng, net)
    t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    scaled_net = canonical_network(
        [(u, v, c * t) for u, v, c in net.edges],
        [list(sp) for sp in net.superports],
    )
    scaled = solve(make_circuit(scaled_net, dict(circ.deltas)))
    base = solve(circ)
    assert scaled.voltages == base.voltages
    for u, v, _ in net.edges:
        assert scaled.currents[u - 1][v - 1] == t * base.currents[u - 1][v - 1]


def draw_network(rng: random.Random, interior: bool):
    """The first `random_network(require_nonroots=True)` draw of the stream
    that has interior vertices, or that has none."""
    while True:
        net = random_network(rng, require_nonroots=True)
        if (net.n > net.m) == interior:
            return net


class TestSolveAgainstDefiningSystem:
    """`solve` substitutes the prescribed differences and solves the grounded
    Kirchhoff matrix of the superport-contracted network; the defining
    system keeps the differences as equations.  Both give one solution."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.booleans())
    def test_on_random_networks(self, seed, interior):
        rng = random.Random(seed)
        circuit = random_circuit(rng, draw_network(rng, interior))
        assert solve(circuit) == defining_solve(circuit)

    @pytest.mark.parametrize(
        "edges, superports",
        [
            # the root 2 has no edge leaving its superport, so the defining
            # system's row for that superport has a zero diagonal
            ([(1, 2, 1), (1, 3, 2), (3, 4, 3)], [[1, 2], [4]]),
            # one superport and no interior vertex: nothing is left to solve for
            ([(1, 2, 1), (2, 3, 2), (1, 3, 3)], [[1, 2, 3]]),
        ],
    )
    def test_zero_diagonal_root_row_and_empty_system(self, edges, superports):
        net = canonical_network(edges, superports)
        circuit = make_circuit(net, {k: Fraction(k, 2) for k in net.non_roots})
        assert solve(circuit) == defining_solve(circuit)

    def test_one_unknown_per_interior_vertex_and_root_but_m(self, monkeypatch):
        sizes = []

        def recording(rows, rhs):
            sizes.append(len(rows))
            return solve_linear_system(rows, rhs)

        monkeypatch.setattr(superport.solver, "solve_linear_system", recording)
        rng = random.Random(2)
        for _ in range(20):
            net = random_network(rng, max_n=12, max_edges=24)
            solve(random_circuit(rng, net))
            assert sizes[-1] == (net.n - net.m) + (net.p - 1)


def reduce_or_singular(reduce, C, superports):
    try:
        return reduce(C, superports)
    except SingularIntermediate:
        return "singular"


class TestC2LAgainstFiveSteps:
    """`c2l` eliminates the roots from the root-summed response; the paper
    reduces C to L in five steps with two inversions.  Both give one matrix,
    and fail on the same inputs."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.booleans())
    def test_on_random_networks_and_through_K(self, seed, interior):
        net = draw_network(random.Random(seed), interior)
        C = electrical_response(net)
        assert c2l(C, net.superports) == five_step_c2l(C, net.superports)
        K = kirchhoff_matrix(net)
        extended = [*net.superports, *([v] for v in range(net.m + 1, net.n + 1))]
        assert response_from_K(K, net.superports) == five_step_c2l(K, extended)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_on_rational_matrices_singular_or_not(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        if all(size == 1 for size in sizes):
            sizes[0] = 2
        m = sum(sizes)
        superports = [list(range(end - size + 1, end + 1))
                      for size, end in zip(sizes, accumulate(sizes))]
        # small entries, zero half the time, make singular blocks common
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
        C = Matrix(data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                      min_size=m, max_size=m)), labels=range(1, m + 1))
        assert reduce_or_singular(c2l, C, superports) == reduce_or_singular(
            five_step_c2l, C, superports
        )


def test_response_matrices_inverts_nothing(monkeypatch):
    calls = []
    invert = Matrix.invert

    def counting(self):
        calls.append(self)
        return invert(self)

    monkeypatch.setattr(Matrix, "invert", counting)
    for seed in range(5):
        response_matrices(random_network(random.Random(seed), require_nonroots=True))
    assert calls == []
