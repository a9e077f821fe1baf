import dataclasses
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superport import (
    CapExceeded,
    ForestEnsemble,
    Matrix,
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
    partitions_for_forest,
    random_circuit,
    random_network,
    response_matrices,
    run_verifications,
    solve,
    unify_superports,
    unit_circuit,
    validate_and_canonicalize,
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
from superport import forests, verify
from superport.forests import ForestPass, pattern_partition_sign

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

    def test_part_2_compares_both_orientations(self, monkeypatch):
        # C is symmetric, so only a C whose C_m^1 alone is off shows that
        # each pair's forest sum is compared with C_j^i as well as C_i^j;
        # row m is not in part 1's minor
        real = verify.response_matrices
        net = w_network(2, 3, 5, 7)
        m = net.m

        def skewed(net):
            R = real(net)
            C = R.response
            entries = [list(row) for row in C.entries]
            entries[C.row_pos(m)][C.col_pos(1)] += 1
            return dataclasses.replace(
                R, response=Matrix(entries, C.row_labels, C.col_labels)
            )

        monkeypatch.setattr(verify, "response_matrices", skewed)
        report = verify_kirchhoff(net)
        C = real(net).response
        assert report.status == "fail"
        assert report.witness["part"] == 2 and report.witness["entry"] == [1, m]
        assert (report.lhs, report.rhs) == (str(C.entry(m, 1) + 1), str(C.entry(1, m)))


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

    @pytest.mark.parametrize("groups, refused", [(4, False), (5, True)])
    def test_minor_sum_bound(self, groups, refused):
        # 3-vertex superports before the last: 6,561 minors are summed,
        # 59,049 refused before the first determinant
        n = 3 * groups + 1
        net = canonical_network(
            [(v, v + 1, 1) for v in range(1, n)],
            [list(range(v, v + 3)) for v in range(1, n, 3)] + [[n]],
        )
        if refused:
            with pytest.raises(CapExceeded, match="needs 59049 minors"):
                verify_valid_minor_sum(net)
        else:
            assert verify_valid_minor_sum(net).ok

    def test_signed_sum_and_cancellation(self):
        rng = random.Random(19)
        for _ in range(10):
            net = random_network(rng, require_nonroots=True)
            assert verify_signed_sum(net).ok
            assert verify_cancellation(net).ok

    def test_cancellation_signs_each_pattern_partition_once(self, monkeypatch):
        # the side square's forest {b} carries four partitions that cancel;
        # signs are decided once per (edge count, boundary pattern) key
        net = side_square(2, 3, 5, 7)
        firsts = {
            (len(f.edges), f.components[1 : net.m + 1]): f
            for f in reversed(ForestEnsemble(net).forests)
        }
        partitions = sum(len(list(partitions_for_forest(net, f))) for f in firsts.values())
        signed = []

        def counting_sign(net, pattern, part):
            signed.append(part)
            return pattern_partition_sign(net, pattern, part)

        monkeypatch.setattr("superport.forests.pattern_partition_sign", counting_sign)
        assert verify_cancellation(net).ok
        assert len(signed) == partitions == 6


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

    def test_the_cap_is_on_by_default(self, monkeypatch):
        # K_7 has 21 edges, one over DEFAULT_CAP: refused before any walk
        def walk(*args, **kwargs):
            raise AssertionError("walked past the cap")

        monkeypatch.setattr(verify, "walk_forests", walk)
        for count in (
            lambda: cayley_count(7),
            lambda: verify_cayley(7),
            lambda: verify_generalized_cayley([4, 3]),
        ):
            with pytest.raises(CapExceeded):
                count()


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


    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_subdividing_an_edge(self, seed):
        # an edge of conductance c becomes a new interior vertex joined by two
        # edges of 2c: in series they conduct c, so C and L stay; every key's
        # forest set changes, and every identity still holds
        rng = random.Random(seed)
        net = random_network(rng, max_n=7, max_edges=11, require_nonroots=True)
        k = rng.randrange(len(net.edges))
        u, v, c = net.edges[k]
        w = net.n + 1
        split = canonical_network(
            [*net.edges[:k], (u, w, 2 * c), (w, v, 2 * c), *net.edges[k + 1 :]],
            [list(sp) for sp in net.superports],
        )
        assert split.n == net.n + 1 and split.superports == net.superports
        base, after = response_matrices(net), response_matrices(split)
        assert after.response == base.response
        assert after.superport_response == base.superport_response
        verify_seed = rng.randrange(2**32)
        for candidate in (net, split):
            reports = run_verifications(candidate, ["all"], rng=random.Random(verify_seed))
            assert reports and all(r.ok for r in reports)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_relabeling_and_shuffling_the_input(self, seed):
        # new labels for every vertex, kept in order inside each superport so
        # the canonical boundary and roots stay, and a shuffled edge list: the
        # interior is numbered anew, so the edges and the forests come in
        # another order, but L and every report stay
        rng = random.Random(seed)
        net = random_network(rng, max_n=7, max_edges=11, require_nonroots=True)
        labels = rng.sample(range(1, 10 * net.n), net.n)
        new = dict(zip(range(1, net.n + 1), labels))
        for sp in net.superports:
            for v, label in zip(sp, sorted(new[v] for v in sp)):
                new[v] = label
        edges = [{"u": new[v], "v": new[u], "c": c} for u, v, c in net.edges]
        rng.shuffle(edges)
        raw = {
            "vertices": net.n,
            "edges": edges,
            "superports": [[new[v] for v in sp] for sp in net.superports],
        }
        moved, _ = validate_and_canonicalize(raw)
        assert moved.superports == net.superports
        L = response_matrices(net).superport_response
        assert response_matrices(moved).superport_response == L
        verify_seed = rng.randrange(2**32)
        before, after = (
            [r.to_data() for r in run_verifications(
                candidate, ["all"], rng=random.Random(verify_seed)
            )]
            for candidate in (net, moved)
        )
        assert before == after
        assert all(r["status"] == "pass" for r in before)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_permuting_the_non_roots_of_a_superport(self, seed):
        # new labels for the non-roots of one superport, its root kept: the
        # canonical labels sort each superport, so vertex v becomes sigma(v),
        # and L comes out permuted by sigma
        rng = random.Random(seed)
        base = random_network(rng, max_n=7, max_edges=11)
        while base.n < 3:
            base = random_network(rng, max_n=7, max_edges=11)
        size = rng.randint(3, base.n)
        boundary = rng.sample(range(1, base.n + 1), rng.randint(size, base.n))
        superports = [boundary[:size], boundary[size:]] if len(boundary) > size else [boundary]
        net = canonical_network(base.edges, superports)
        moving = list(net.superports[0][:-1])
        image = rng.sample(moving, len(moving))
        if image == moving:
            image = moving[1:] + moving[:1]
        sigma = {v: v for v in range(1, net.n + 1)}
        sigma.update(zip(moving, image))
        moved = canonical_network(
            [(sigma[u], sigma[v], c) for u, v, c in net.edges],
            [[sigma[v] for v in sp] for sp in net.superports],
        )
        assert moved.superports == net.superports
        L = response_matrices(net).superport_response
        L_moved = response_matrices(moved).superport_response
        for i in net.non_roots:
            for j in net.non_roots:
                assert L_moved.entry(sigma[i], sigma[j]) == L.entry(i, j)
        verify_seed = rng.randrange(2**32)
        for candidate in (net, moved):
            reports = run_verifications(candidate, ["all"], rng=random.Random(verify_seed))
            assert reports and all(r.ok for r in reports)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_star_mesh_elimination_of_an_interior_vertex(self, seed):
        # interior vertex v goes, and each pair u, w of its neighbours gains
        # c_uv c_vw / (sum of v's conductances), added to any edge u, w there
        # is: the Schur complement of K onto the other vertices, so C and L
        # stay.  The forests, the scale and the grove table all change, so
        # the ratios that the forest side makes of the two tables must agree
        rng = random.Random(seed)
        net = random_network(rng, max_n=7, max_edges=11, require_nonroots=True)
        while net.n == net.m:
            net = random_network(rng, max_n=7, max_edges=11, require_nonroots=True)
        v = rng.randint(net.m + 1, net.n)
        star = dict(net.adjacency[v])
        total = sum(star.values())
        merged = {(a, b): c for a, b, c in net.edges if v not in (a, b)}
        for a, b in itertools.combinations(sorted(star), 2):
            merged[a, b] = merged.get((a, b), 0) + star[a] * star[b] / total
        mesh = canonical_network(
            [(a, b, c) for (a, b), c in merged.items()], [list(sp) for sp in net.superports]
        )
        assert mesh.n == net.n - 1 and mesh.superports == net.superports
        base, after = response_matrices(net), response_matrices(mesh)
        assert after.response == base.response
        assert after.superport_response == base.superport_response
        verify_seed = rng.randrange(2**32)
        on_net, on_mesh = (
            [r.to_data() for r in run_verifications(
                candidate, ["all"], rng=random.Random(verify_seed)
            )]
            for candidate in (net, mesh)
        )
        assert all(r["status"] == "pass" for r in on_net + on_mesh)
        # these reports print only the matrix side and the forest side's ratios
        ratios = {"kirchhoff", "kenyon-wilson", "response-entries", "det-response"}
        assert [r for r in on_net if r["theorem"] in ratios] == [
            r for r in on_mesh if r["theorem"] in ratios
        ]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_series_reduction_of_an_interior_vertex(self, seed):
        # an interior vertex v with two edges a and b goes, and its neighbours
        # gain one edge ab / (a + b), added to any edge between them: C and L
        # stay.  On the forest side every tree and every valid forest reaches
        # v, through a, b or both, so both weight sums shrink by exactly a + b
        rng = random.Random(seed)
        series = []
        while not series:
            net = random_network(rng, max_n=7, max_edges=11, require_nonroots=True)
            series = [v for v in range(net.m + 1, net.n + 1) if len(net.adjacency[v]) == 2]
        v = rng.choice(series)
        (u, a), (w, b) = net.adjacency[v]
        merged = {(s, t): c for s, t, c in net.edges if v not in (s, t)}
        merged[u, w] = merged.get((u, w), 0) + a * b / (a + b)
        reduced = canonical_network(
            [(s, t, c) for (s, t), c in merged.items()], [list(sp) for sp in net.superports]
        )
        assert reduced.n == net.n - 1 and reduced.superports == net.superports
        base, after = response_matrices(net), response_matrices(reduced)
        assert after.response == base.response
        assert after.superport_response == base.superport_response
        sums = []
        for candidate in (net, reduced):
            p = ForestPass(candidate)
            p.want()
            p.run()
            valid = candidate.m - candidate.p + 1
            sums.append((p.weight(1), p.weight(valid, lambda key: p.facts(key).valid)))
        assert sums[0] == tuple((a + b) * s for s in sums[1])
        for candidate in (net, reduced):
            reports = run_verifications(candidate, ["all"], rng=random.Random(seed))
            assert reports and all(r.ok for r in reports)


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


GOLDEN_FAILURES = Path(__file__).resolve().parent / "golden" / "failing_reports.json"


def broken_reports(monkeypatch) -> list[dict]:
    """Every theorem's report with the program broken under it, from the
    outside: C doubled and L tripled, every partition sign -1, the solver's
    currents doubled, the brute tree count one too many, no forest valid in
    the grouped count, and the H's leg A doubled."""
    real_matrices = verify.response_matrices

    def scaled(net):
        R = real_matrices(net)
        L = R.superport_response
        return dataclasses.replace(
            R, response=R.response * 2, superport_response=None if L is None else L * 3
        )

    real_solve = verify.solve

    def doubled(circuit):
        sol = real_solve(circuit)
        return dataclasses.replace(
            sol, currents=tuple(tuple(2 * x for x in row) for row in sol.currents)
        )

    real_count = verify.cayley_count

    def overcounted(m, **kw):
        brute, closed = real_count(m, **kw)
        return brute + 1, closed

    real_box_h = verify.box_h

    def longer_leg(*sides):
        out = real_box_h(*sides)
        return {**out, "A": 2 * out["A"]}

    monkeypatch.setattr(verify, "response_matrices", scaled)
    monkeypatch.setattr(forests, "pattern_partition_sign", lambda *args: -1)
    monkeypatch.setattr(verify, "solve", doubled)
    monkeypatch.setattr(verify, "cayley_count", overcounted)
    monkeypatch.setattr(verify, "pattern_is_tree", lambda qg, edges, pattern: False)
    monkeypatch.setattr(verify, "box_h", longer_leg)
    rng = random.Random(0)
    reports = [
        r
        for _ in range(3)
        for r in run_verifications(random_network(rng, require_nonroots=True), ["all"])
    ]
    reports += [verify_cayley(4), verify_generalized_cayley([2, 2]), verify_box_h(1, 2, 3, 4)]
    return [r.to_data() for r in reports]


def test_failing_reports_match_golden(monkeypatch):
    # the witness of every theorem's first failure, pinned byte for byte
    reports = broken_reports(monkeypatch)
    text = json.dumps(reports, indent=1) + "\n"
    assert text == GOLDEN_FAILURES.read_text(encoding="utf-8")
    failed = {r["theorem"] for r in reports if r["status"] == "fail"}
    assert len(failed) == 12


def test_a_failing_box_h_report_takes_string_sides(monkeypatch):
    # the witness prints each side as a rational, whatever form it came in
    real_box_h = verify.box_h
    monkeypatch.setattr(verify, "box_h", lambda *s: {**real_box_h(*s), "A": Fraction(7)})
    report = verify_box_h("1", "2/4", Fraction(3), 4)
    assert report.status == "fail"
    assert report.witness == {"a": "1", "b": "1/2", "c": "3", "d": "4"}
