import random
from fractions import Fraction

import pytest

from superport import (
    ForestEnsemble,
    NoNonRootVertices,
    Report,
    box_h,
    box_network,
    c2l,
    canonical_network,
    cayley_count,
    combinatorial_solution,
    complete_network,
    electrical_response,
    h_network,
    load_network,
    make_circuit,
    partition_sign,
    partitions_for_forest,
    random_circuit,
    random_network,
    response_matrices,
    run_verifications,
    solve,
    unify_superports,
    unit_circuit,
    verify_box_h,
    verify_cancellation,
    verify_cayley,
    verify_det_L,
    verify_generalized_cayley,
    verify_gluing,
    verify_kirchhoff,
    verify_kw_minor,
    verify_L_entries,
    verify_signed_sum,
    verify_valid_minor_sum,
)

from conftest import (
    FIXTURE_NAMES,
    diagonal_square,
    fixture_path,
    rational_tuple,
    side_square,
    w_network,
)


def fixture_networks():
    return [load_network(fixture_path(name)) for name in FIXTURE_NAMES]


class TestKirchhoff:
    def test_four_cycle_reduced_determinant(self):
        # det of the trimmed response is the tree polynomial over the
        # forest polynomial; with no interior vertices the denominator is 1
        a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        net = unify_superports(side_square(a, b, c, d))
        C = electrical_response(net)
        det = C.submatrix(range(3), range(3)).det()
        assert det == a * b * c + a * b * d + a * c * d + b * c * d
        assert verify_kirchhoff(net).ok

    def test_pair_entry_against_grouped_weight(self):
        # the single-pass tally inside verify_kirchhoff must agree with the
        # declared grouped-weight oracle
        rng = random.Random(2)
        for _ in range(10):
            net = random_network(rng, electrical=True, max_n=6)
            C = electrical_response(net)
            ens = ForestEnsemble(net)
            unified_qg = unify_superports(net).quotient()
            H = ens.quotient_tree_weight(unified_qg)
            m = net.m
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    groups = [(i, j)] + [(v,) for v in range(1, m + 1) if v not in (i, j)]
                    assert C.entry(i, j) == -ens.grouped_weight(groups) / H
            assert verify_kirchhoff(net).ok

    def test_requires_two_boundary_vertices(self):
        net = canonical_network([(1, 2, 1)], [[1]])
        with pytest.raises(ValueError):
            verify_kirchhoff(net)


class TestKenyonWilson:
    def test_reduced_determinant_special_case(self):
        # X = Y = empty, Z = all but the last vertex restates the
        # determinant identity
        net = random_network(random.Random(4), electrical=True)
        r = verify_kw_minor(net, (), (), tuple(range(1, net.m)))
        assert r.ok

    def test_entry_special_case_contradicts_unsigned(self):
        net = random_network(random.Random(6), electrical=True)
        assert verify_kw_minor(net, (1,), (2,), ()).ok
        assert not verify_kw_minor(net, (1,), (2,), (), signed=False).ok

    def test_order_of_z_is_irrelevant(self):
        net = random_network(random.Random(8), electrical=True, max_n=6)
        m = net.m
        if m >= 4:
            z1, z2 = (3, 4) if m >= 4 else ((), ())
            a = verify_kw_minor(net, (1,), (2,), (3, 4))
            b = verify_kw_minor(net, (1,), (2,), (4, 3))
            assert a.ok and b.ok

    def test_two_pair_minor(self):
        net = random_network(random.Random(10), electrical=True, max_n=7)
        if net.m >= 4:
            assert verify_kw_minor(net, (1, 3), (2, 4), ()).ok

    def test_input_validation(self):
        net = random_network(random.Random(1), electrical=True)
        with pytest.raises(ValueError):
            verify_kw_minor(net, (1,), (), ())
        with pytest.raises(ValueError):
            verify_kw_minor(net, (1,), (1,), ())


class TestResponseTheorems:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_pass_everything(self, name):
        net = load_network(fixture_path(name))
        reports = run_verifications(net, ["all"], rng=random.Random(0))
        assert reports
        assert all(r.ok for r in reports), [r.theorem for r in reports if not r.ok]

    def test_det_L_known_value(self):
        a, b, c, d = rational_tuple(random.Random(15))
        net = side_square(a, b, c, d)
        r = verify_det_L(net)
        assert r.ok
        L = c2l(electrical_response(net), net.superports)
        assert L.det() == (a * b * c + a * b * d + a * c * d + b * c * d) / (a + c)

    def test_entry_known_value(self):
        a, b, c, d = rational_tuple(random.Random(16))
        net = diagonal_square(a, b, c, d)
        assert verify_L_entries(net).ok
        L = c2l(electrical_response(net), net.superports)
        assert L.entry(1, 3) == (c * d - a * b) / (a + b + c + d)

    def test_all_roots_refused(self):
        net = canonical_network([(1, 2, 1)], [[1], [2]])
        with pytest.raises(NoNonRootVertices):
            verify_det_L(net)
        with pytest.raises(NoNonRootVertices):
            verify_L_entries(net)
        with pytest.raises(NoNonRootVertices):
            verify_valid_minor_sum(net)

    def test_minor_sum_single_superport(self):
        # with one superport the sum degenerates to the empty minor, 1
        net = unify_superports(w_network(1, 2, 3, 4))
        assert verify_valid_minor_sum(net).ok

    def test_signed_sum_and_cancellation(self):
        rng = random.Random(19)
        for _ in range(10):
            net = random_network(rng, require_nonroots=True)
            assert verify_signed_sum(net).ok
            assert verify_cancellation(net).ok

    def test_cancellation_signs_each_partition_once(self, monkeypatch):
        # the side square's forest {b} carries four partitions that cancel
        net = side_square(2, 3, 5, 7)
        ens = ForestEnsemble(net)
        partitions = sum(len(list(partitions_for_forest(net, f))) for f in ens.forests)
        signed = []

        def counting_sign(net, forest, part):
            signed.append(part)
            return partition_sign(net, forest, part)

        monkeypatch.setattr("superport.forests.partition_sign", counting_sign)
        assert verify_cancellation(net).ok
        assert len(signed) == partitions


class TestCombinatorialSolution:
    def test_matches_solver(self):
        rng = random.Random(21)
        for _ in range(20):
            net = random_network(rng, require_nonroots=True, max_n=6)
            circ = random_circuit(rng, net)
            assert combinatorial_solution(circ) == solve(circ)

    def test_two_terminal_series_formula(self):
        # hand value: unit source over conductances 2 and 3 in series
        net = canonical_network([(1, 3, 2), (2, 3, 3)], [[1, 2]])
        sol = combinatorial_solution(make_circuit(net, {1: 1}))
        assert sol.voltages == (Fraction(1), Fraction(0), Fraction(2, 5))
        assert sol.incoming == (Fraction(6, 5), Fraction(-6, 5))

    def test_zero_deltas(self):
        net = w_network(1, 2, 3, 4)
        sol = combinatorial_solution(make_circuit(net, {1: 0, 2: 0, 4: 0}))
        assert all(v == 0 for v in sol.voltages)
        assert all(i == 0 for i in sol.incoming)


class TestGluing:
    def test_unit_circuit_required(self):
        net = w_network(1, 2, 3, 4)
        with pytest.raises(ValueError):
            verify_gluing(make_circuit(net, {1: 1, 2: 1, 4: 0}), 1)
        with pytest.raises(ValueError):
            verify_gluing(unit_circuit(net, 1), 3)  # 3 is a root

    def test_passes_on_random_networks(self):
        rng = random.Random(29)
        for _ in range(15):
            net = random_network(rng, require_nonroots=True)
            for i in net.non_roots:
                assert verify_gluing(unit_circuit(net, i), i).ok


class TestCounting:
    def test_cayley_sequence(self):
        assert [cayley_count(m)[0] for m in range(1, 7)] == [1, 1, 3, 16, 125, 1296]
        assert all(verify_cayley(m).ok for m in range(1, 7))

    def test_generalized_matches_plain(self):
        # a single group of size m degenerates to one fixed tree
        assert verify_generalized_cayley([4]).ok

    def test_generalized_shapes(self):
        for sizes in ([1, 1], [2, 1], [2, 2], [3, 2], [2, 2, 2], [3, 2, 1]):
            r = verify_generalized_cayley(sizes, rng=random.Random(sum(sizes)))
            assert r.ok, sizes

    def test_two_pairs_value(self):
        # the grouped count for two pairs on four vertices is 4
        r = verify_generalized_cayley([2, 2])
        assert r.rhs == "4"

    def test_size_validation(self):
        with pytest.raises(ValueError):
            verify_generalized_cayley([])
        with pytest.raises(ValueError):
            verify_generalized_cayley([0, 2])


class TestBoxH:
    def test_formula_values(self):
        out = box_h(2, 1, 1, 2)
        assert out == {
            "A": Fraction(1, 3),
            "B": Fraction(1, 6),
            "C": Fraction(2, 3),
            "D": Fraction(1, 3),
            "E": Fraction(1, 3),
        }
        assert box_h(1, 1, 1, 1) == {k: Fraction(1, 4) for k in "ABCDE"}

    def test_responses_equal(self):
        rng = random.Random(31)
        for _ in range(10):
            assert verify_box_h(*rational_tuple(rng)).ok

    def test_positive_required(self):
        with pytest.raises(ValueError):
            box_h(0, 1, 1, 1)

    def test_network_shapes(self):
        box = box_network(1, 2, 3, 4)
        assert (box.n, box.m, box.p) == (4, 4, 2)
        h = h_network(1, 2, 3, 4, 5)
        assert (h.n, h.m, h.p) == (6, 4, 2)
        # resistances appear inverted as conductances
        assert box.conductance(1, 3) == 1
        assert h.conductance(5, 6) == Fraction(1, 5)


class TestRunner:
    def test_report_serialization(self):
        r = Report(theorem="t", status="pass", lhs="1", rhs="1", checks=3)
        assert r.to_data() == {
            "theorem": "t", "status": "pass", "lhs": "1", "rhs": "1", "checks": 3,
        }
        r = Report(theorem="t", status="fail", lhs="1", rhs="2", checks=1,
                   witness={"k": 1})
        assert r.to_data()["witness"] == {"k": 1}
        assert not r.ok

    def test_unknown_theorem(self):
        net = w_network(1, 1, 1, 1)
        with pytest.raises(ValueError):
            run_verifications(net, ["nope"])

    def test_all_skips_inapplicable(self):
        # all-roots network: the response theorems are skipped, the forest
        # identities still run
        net = canonical_network([(1, 2, 1)], [[1], [2]])
        reports = run_verifications(net, ["all"], rng=random.Random(0))
        names = {r.theorem for r in reports}
        assert "signed-sum" in names
        assert "det-response" not in names
        assert all(r.ok for r in reports)

    def test_deterministic_given_seed(self):
        net = w_network(2, 3, 5, 7)
        a = [r.to_data() for r in run_verifications(net, ["kw"], rng=random.Random(5))]
        b = [r.to_data() for r in run_verifications(net, ["kw"], rng=random.Random(5))]
        assert a == b

    def test_scaling_every_conductance(self):
        # multiplying every conductance by t multiplies C and L by t and
        # det L by t^(m-p), and every identity still holds with the same
        # checks
        t = Fraction(7, 11)
        rng = random.Random(41)
        for _ in range(10):
            net = random_network(rng, require_nonroots=True)
            scaled = canonical_network(
                [(u, v, c * t) for u, v, c in net.edges],
                [list(sp) for sp in net.superports],
            )
            base, times_t = response_matrices(net), response_matrices(scaled)
            assert times_t.response == t * base.response
            L, L_t = base.superport_response, times_t.superport_response
            assert L_t == t * L
            assert L_t.det() == t ** (net.m - net.p) * L.det()
            seed = rng.randrange(2**32)
            reports = [
                [(r.theorem, r.status, r.checks) for r in run_verifications(
                    candidate, ["all"], rng=random.Random(seed)
                )]
                for candidate in (net, scaled)
            ]
            assert reports[0] == reports[1]
            assert all(status == "pass" for _, status, _ in reports[0])


class TestRandomNetwork:
    def test_respects_bounds(self):
        rng = random.Random(37)
        for _ in range(50):
            net = random_network(rng, max_n=6, max_edges=9, p_max=2)
            assert 2 <= net.n <= 6
            assert len(net.edges) <= 9
            assert net.p <= 2

    def test_electrical_mode(self):
        rng = random.Random(38)
        for _ in range(20):
            net = random_network(rng, electrical=True)
            assert net.p == 1
            assert net.m >= 2

    def test_require_nonroots(self):
        rng = random.Random(39)
        for _ in range(20):
            net = random_network(rng, require_nonroots=True)
            assert net.non_roots

    def test_reproducible(self):
        a = random_network(random.Random(40))
        b = random_network(random.Random(40))
        assert a == b
