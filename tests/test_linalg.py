import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superport import (
    Matrix,
    NonSquareMatrix,
    SingularBlock,
    SingularMatrix,
    rat,
    rat_str,
    solve_linear_system,
)

from conftest import rationals


def square(entries):
    return Matrix(entries)


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def permutation_expansion(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        else:
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            total += -term if inversions % 2 else term
    return total


class TestRat:
    def test_integers_and_fractions(self):
        assert rat(3) == Fraction(3)
        assert rat(Fraction(2, 7)) == Fraction(2, 7)

    def test_strings(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-5") == Fraction(-5)
        assert rat("+2/9") == Fraction(2, 9)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "1/-2", "", "2/"])
    def test_bad_strings(self, bad):
        with pytest.raises(ValueError):
            rat(bad)

    @pytest.mark.parametrize("bad", [1.5, None, True, [1]])
    def test_bad_types(self, bad):
        with pytest.raises(TypeError):
            rat(bad)

    def test_round_trip(self):
        for value in (Fraction(3, 4), Fraction(-2), Fraction(0)):
            assert rat(rat_str(value)) == value


class TestMatrixBasics:
    def test_default_unlabeled(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m.row_labels is None
        assert m.entry(1, 2) == 2  # positional fallback

    def test_labels(self):
        m = Matrix([[1, 2], [3, 4]], labels=(2, 5))
        assert m.entry(5, 2) == 3
        assert m.row_pos(5) == 1

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]], row_labels=(1,), col_labels=(1, 2, 3))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_take_orders_labels(self):
        m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], labels=(1, 2, 3))
        t = m.take((3, 1), (2,))
        assert t.entries == ((Fraction(8),), (Fraction(2),))
        assert t.row_labels == (3, 1)

    def test_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert (a + b).entries == ((Fraction(1), Fraction(3)), (Fraction(4), Fraction(4)))
        assert (a - a).entries == ((Fraction(0),) * 2,) * 2
        assert (a * b).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
        assert (a * Fraction(1, 2)).entries[0][0] == Fraction(1, 2)

    def test_transpose_swaps_labels(self):
        m = Matrix([[1, 2]], row_labels=(7,), col_labels=(1, 2))
        t = m.transpose()
        assert t.shape == (2, 1)
        assert t.row_labels == (1, 2)
        assert t.col_labels == (7,)

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_floats_and_bools_rejected(self, bad):
        # Fraction(0.1) would store 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            Matrix([[bad]])
        with pytest.raises(TypeError):
            Matrix([[1]]) * bad

    def test_symmetry_and_row_sums(self):
        m = Matrix([[2, -1], [-1, 2]])
        assert m.is_symmetric()
        assert m.row_sums() == (Fraction(1), Fraction(1))


class TestDeterminant:
    def test_empty_matrix_det_is_one(self):
        assert Matrix(()).det() == 1

    def test_known_values(self):
        assert Matrix([[Fraction(1, 2)]]).det() == Fraction(1, 2)
        assert Matrix([[1, 2], [3, 4]]).det() == -2
        assert Matrix([[0, 1], [1, 0]]).det() == -1

    def test_singular(self):
        assert Matrix([[1, 2], [2, 4]]).det() == 0

    def test_non_square(self):
        with pytest.raises(NonSquareMatrix):
            Matrix([[1, 2]]).det()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    def test_det_by_permutation_expansion(self, rows):
        assert Matrix(rows).det() == permutation_expansion(rows)


class TestInverse:
    def test_identity_round_trip(self):
        m = Matrix([[2, 1], [1, 1]])
        assert m * m.invert() == Matrix.identity(2)

    def test_label_swap(self):
        m = Matrix([[2]], row_labels=(4,), col_labels=(9,))
        inv = m.invert()
        assert inv.row_labels == (9,)
        assert inv.col_labels == (4,)

    def test_empty(self):
        assert Matrix(()).invert().shape == (0, 0)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            Matrix([[1, 1], [1, 1]]).invert()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    def test_inverse_property(self, rows):
        m = Matrix(rows, labels=(1, 2, 3))
        if m.det() == 0:
            with pytest.raises(SingularMatrix):
                m.invert()
            return
        assert m * m.invert() == Matrix.identity(3, labels=(1, 2, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    def test_jacobi_minor_identity(self, rows):
        # det of a k-minor of the inverse against the complementary minor
        m = Matrix(rows, labels=(1, 2, 3, 4))
        d = m.det()
        if d == 0:
            return
        inv = m.invert()
        for I, J in (((1, 2), (1, 3)), ((2, 4), (1, 2)), ((1,), (4,))):
            comp_i = tuple(v for v in (1, 2, 3, 4) if v not in I)
            comp_j = tuple(v for v in (1, 2, 3, 4) if v not in J)
            sign = (-1) ** (sum(I) + sum(J))
            assert inv.take(I, J).det() == sign * m.take(comp_j, comp_i).det() / d


class TestSchur:
    def test_2x2_block(self):
        m = Matrix([[4, 1], [1, 2]])
        s = m.schur_complement([0])
        assert s.entries == ((Fraction(4) - Fraction(1, 2),),)

    def test_keep_all(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.schur_complement([0, 1]) is m

    def test_singular_block(self):
        m = Matrix([[1, 1], [1, 0]])
        with pytest.raises(SingularBlock):
            m.schur_complement([0])

    def test_sequential_elimination_agrees(self):
        m = Matrix(
            [[5, 1, 2], [1, 6, 1], [2, 1, 7]],
            labels=(1, 2, 3),
        )
        once = m.schur_complement([0])
        steps = m.schur_complement([0, 1]).schur_complement([0])
        assert once == steps

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_formula_on_any_keep_set(self, data):
        n = data.draw(st.sampled_from([4, 5]))
        labels = data.draw(
            st.lists(st.integers(1, 50), min_size=n, max_size=n, unique=True)
        )
        rows = data.draw(
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        keep = list(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        dropped = [i for i in range(n) if i not in keep]
        if data.draw(st.booleans()):
            # make the eliminated block singular: one of its rows becomes the
            # sum of the others (zero when it is alone)
            first, rest = dropped[0], dropped[1:]
            for j in dropped:
                rows[first][j] = sum((rows[r][j] for r in rest), Fraction(0))
        m = Matrix(rows, labels=labels)
        K = [labels[i] for i in sorted(keep)]
        D = [labels[i] for i in dropped]
        a, b, c, d = m.take(K, K), m.take(K, D), m.take(D, K), m.take(D, D)
        if d.det() == 0:
            with pytest.raises(SingularBlock):
                m.schur_complement(keep)
            return
        s = m.schur_complement(keep)
        assert s == a - b * d.invert() * c
        assert s.row_labels == s.col_labels == tuple(K)
        assert m.det() == d.det() * s.det()


class TestSolve:
    def test_simple(self):
        rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]]
        assert solve_linear_system(rows, [Fraction(2), Fraction(2)]) == [
            Fraction(1),
            Fraction(1, 2),
        ]

    def test_zero_leading_pivot_needs_row_swap(self):
        rows = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
        assert solve_linear_system(rows, [Fraction(4), Fraction(5)]) == [
            Fraction(1),
            Fraction(2),
        ]

    def test_empty(self):
        assert solve_linear_system([], []) == []

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            solve_linear_system([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                                [Fraction(1), Fraction(2)])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(rationals, min_size=3, max_size=3),
    )
    def test_residual_vanishes(self, rows, rhs):
        if Matrix(rows).det() == 0:
            return
        x = solve_linear_system(rows, rhs)
        for i in range(3):
            assert sum(rows[i][j] * x[j] for j in range(3)) == rhs[i]


@st.composite
def sparse_prime_matrices(draw, zero_pivot):
    """Square matrices of size 3-6, mostly zeros, whose entries have large
    numerators over distinct primes, optionally with a zero leading pivot:
    the hazards of fraction-free elimination (row scales that differ, rows
    with a zero factor, row swaps) in small cases."""
    n = draw(st.integers(3, 6))
    primes = draw(st.permutations(PRIMES))
    transversal = draw(st.permutations(range(n)))
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in {*enumerate(transversal), *extra}:
        numerator = draw(st.integers(-10**6, 10**6).filter(bool))
        rows[i][j] = Fraction(numerator, primes[(i * n + j) % len(primes)])
    if zero_pivot:
        rows[0][0] = Fraction(0)
    return rows


class TestBareissHazards:
    @pytest.mark.parametrize("zero_pivot", [False, True])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_det_inverse_schur_and_solve(self, zero_pivot, data):
        rows = data.draw(sparse_prime_matrices(zero_pivot))
        n = len(rows)
        m = Matrix(rows)
        det = m.det()
        assert det == permutation_expansion(rows)
        if det:
            assert m * m.invert() == Matrix.identity(n)
            rhs = [
                Fraction(data.draw(st.integers(-10**6, 10**6)), p)
                for p in data.draw(st.permutations(PRIMES))[:n]
            ]
            x = solve_linear_system(rows, rhs)
            assert [sum(r * v for r, v in zip(row, x)) for row in rows] == rhs
        else:
            with pytest.raises(SingularMatrix):
                m.invert()
            with pytest.raises(SingularMatrix):
                solve_linear_system(rows, [Fraction(1)] * n)

        keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
        dropped = [i for i in range(n) if i not in keep]
        if zero_pivot:
            # the eliminated block's own leading pivot is zero as well
            rows[dropped[0]][dropped[0]] = Fraction(0)
            m = Matrix(rows)
        a, b = m.submatrix(keep, keep), m.submatrix(keep, dropped)
        c, d = m.submatrix(dropped, keep), m.submatrix(dropped, dropped)
        if not d.det():
            with pytest.raises(SingularBlock):
                m.schur_complement(keep)
            return
        assert m.schur_complement(keep) == a - b * d.invert() * c
