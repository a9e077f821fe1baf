"""Exact dense linear algebra over rational scalars.

All scalars are `fractions.Fraction`: stored reduced, positive denominator,
exact arithmetic throughout; floats and bools are rejected.  Matrices are
immutable, dense, and small (n <= ~30), and one kernel, `_eliminate`, does
the elimination: Bareiss's fraction-free forward elimination on the rows
scaled to integers (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  Its integer
entries are bordered minors, so no gcd is paid until the end, when each
output entry becomes a Fraction once.  `det` reads the last pivot,
`schur_complement` moves the dropped positions first and reads the trailing
block, and `invert` and `solve_linear_system` eliminate [A | B] and back
substitute on integers, since det(A) A^-1 B is an integer matrix once
[A | B] has integer rows.

Rows and columns may carry integer labels (vertex numbers), which lets
callers drive row/column operations by vertex identity instead of position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Optional, Sequence

__all__ = [
    "Fraction",
    "LinAlgError",
    "Matrix",
    "NonSquareMatrix",
    "SingularBlock",
    "SingularMatrix",
    "rat",
    "rat_str",
    "ratio_str",
    "solve_linear_system",
]


class LinAlgError(Exception):
    """Base class for exact linear-algebra failures."""


class NonSquareMatrix(LinAlgError):
    """The operation requires a square matrix."""


class SingularMatrix(LinAlgError):
    """The matrix (or linear system) is singular."""


class SingularBlock(LinAlgError):
    """The eliminated block of a Schur complement is singular."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def rat(value: object) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" / "p" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational literal: {value!r}")
        return Fraction(text)
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as "p/q", or as "p" when the denominator is 1,
    in full (see `ratio_str`)."""
    return ratio_str(value.numerator, value.denominator)


def ratio_str(numerator: int, denominator: int) -> str:
    """Serialize the coprime pair numerator/denominator, denominator > 0, as
    "p/q", or as "p" when the denominator is 1: what str() gives the Fraction
    they stand for, without building it.

    Always in full: str() refuses an int of more digits than
    sys.get_int_max_str_digits(), and exact results grow past that (4300 by
    default) on inputs the loader accepts.
    """
    try:
        if denominator == 1:
            return str(numerator)
        return f"{numerator}/{denominator}"
    except ValueError:
        text = _decimal(abs(numerator))
        if denominator != 1:
            text += "/" + _decimal(denominator)
        return "-" + text if numerator < 0 else text


_PIECE = 10 ** 600  # fewer digits than the lowest limit Python allows, 640


def _decimal(n: int) -> str:
    """Decimal digits of an int n >= 0 of any length, converted in pieces."""
    if n < _PIECE:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _check_labels(labels: Optional[Iterable[int]], count: int, axis: str):
    if labels is None:
        return None
    tup = tuple(labels)
    if len(tup) != count:
        raise ValueError(f"{axis} labels do not match the {axis} count")
    if len(set(tup)) != len(tup):
        raise ValueError(f"{axis} labels must be distinct")
    return tup


def _eliminate(
    a: Sequence[Sequence[Fraction]], k: int
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination of the first k columns of `a`.

    `a` is a list of at least k rows of equal length, of Fractions or ints,
    and is not modified.  Each row is scaled to integers by the lcm of its
    denominators, and Bareiss's elimination runs on those: step t turns
    every row below t into (pivot * row - factor * pivot_row) / previous
    pivot, a division that is exact, so after step t each entry is a
    bordered (t+1)-minor of the scaled matrix.  Pivots are sought among the
    first k rows only, so the trailing rows keep their places; a swap
    negates the row it moves down, so it keeps the determinant's sign.

    Returns (rows, scales, pivot): the eliminated integer rows (entries
    left of a row's diagonal are stale), each row's scale, and the last
    pivot, which is the determinant of the scaled leading k x k block.  So
    that block's determinant is pivot / prod(scales[:k]), and its Schur
    complement has entry rows[i][j] / (pivot * scales[i]) for i, j >= k.
    Raises SingularMatrix when the block is singular.
    """
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    rows = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(a, scales)]
    prev = 1
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], [-x for x in rows[col]]
            scales[col], scales[pivot_row] = scales[pivot_row], scales[col]
        prow = rows[col]
        pivot = prow[col]
        tail = prow[col + 1:]
        for row in rows[col + 1:]:
            factor = row[col]
            if factor:
                row[col + 1:] = [
                    (pivot * x - factor * y) // prev for x, y in zip(row[col + 1:], tail)
                ]
            elif pivot != prev:
                # a zero factor still raises the row's minors by one order
                row[col + 1:] = [pivot * x // prev for x in row[col + 1:]]
        prev = pivot
    return rows, scales, prev


def _solve(a: Sequence[Sequence[Fraction]], n: int) -> list[list[Fraction]]:
    """A^-1 B for the n rows a = [A | B]; raises SingularMatrix.

    After elimination the left block is upper triangular and its last
    pivot d is the determinant of the scaled A; d * A^-1 B is the adjugate
    of the scaled A times the scaled B, an integer matrix, so back
    substitution on d * B divides exactly, row by row from the bottom.
    """
    rows, _, det = _eliminate(a, n)
    scaled: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = [det * b for b in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [s - row[j] * t for s, t in zip(acc, scaled[j])]
        scaled[i] = [s // row[i] for s in acc]
    return [[Fraction(x, det) for x in xs] for xs in scaled]


class Matrix:
    """Immutable rational matrix with optional integer row/column labels."""

    __slots__ = ("entries", "rows", "cols", "row_labels", "col_labels")

    def __init__(self, entries, row_labels=None, col_labels=None, labels=None):
        grid = tuple(tuple(rat(x) for x in row) for row in entries)
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(row) != cols for row in grid):
            raise ValueError("rows have unequal lengths")
        if labels is not None:
            if row_labels is not None or col_labels is not None:
                raise ValueError("pass either labels or row/col labels, not both")
            row_labels = col_labels = tuple(labels)
        self.entries = grid
        self.rows = rows
        self.cols = cols
        self.row_labels = _check_labels(row_labels, rows, "row")
        self.col_labels = _check_labels(col_labels, cols, "column")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n: int, labels: Optional[Sequence[int]] = None) -> "Matrix":
        return cls(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)],
            labels=labels,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    # -- basic protocol -------------------------------------------------------

    def __getitem__(self, i: int):
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.entries == other.entries
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.row_labels, self.col_labels))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row_pos(self, label: int) -> int:
        if self.row_labels is None:
            raise ValueError("matrix has no row labels")
        return self.row_labels.index(label)

    def col_pos(self, label: int) -> int:
        if self.col_labels is None:
            raise ValueError("matrix has no column labels")
        return self.col_labels.index(label)

    def entry(self, row_label: int, col_label: int) -> Fraction:
        """Entry addressed by labels (falls back to 1-based positions)."""
        if self.row_labels is not None:
            i = self.row_pos(row_label)
        else:
            i = row_label - 1
        if self.col_labels is not None:
            j = self.col_pos(col_label)
        else:
            j = col_label - 1
        return self.entries[i][j]

    # -- arithmetic -----------------------------------------------------------

    def _merge_labels(self, other: "Matrix"):
        rlab = self.row_labels if self.row_labels == other.row_labels else None
        clab = self.col_labels if self.col_labels == other.col_labels else None
        return rlab, clab

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        rlab, clab = self._merge_labels(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            row_labels=rlab,
            col_labels=clab,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        rlab, clab = self._merge_labels(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            row_labels=rlab,
            col_labels=clab,
        )

    def __neg__(self) -> "Matrix":
        return Matrix(
            [[-a for a in row] for row in self.entries],
            row_labels=self.row_labels,
            col_labels=self.col_labels,
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            cols = other.cols
            out = []
            for i in range(self.rows):
                srow = self.entries[i]
                orow = [Fraction(0)] * cols
                for k in range(self.cols):
                    a = srow[k]
                    if a:
                        brow = other.entries[k]
                        for j in range(cols):
                            orow[j] += a * brow[j]
                out.append(orow)
            return Matrix(out, row_labels=self.row_labels, col_labels=other.col_labels)
        scalar = rat(other)
        return Matrix(
            [[scalar * a for a in row] for row in self.entries],
            row_labels=self.row_labels,
            col_labels=self.col_labels,
        )

    __rmul__ = __mul__

    def transpose(self) -> "Matrix":
        return Matrix(
            list(zip(*self.entries)) if self.rows else [],
            row_labels=self.col_labels,
            col_labels=self.row_labels,
        )

    # -- structure ------------------------------------------------------------

    def submatrix(self, row_positions: Iterable[int], col_positions: Iterable[int]) -> "Matrix":
        rp = list(row_positions)
        cp = list(col_positions)
        rlab = tuple(self.row_labels[i] for i in rp) if self.row_labels else None
        clab = tuple(self.col_labels[j] for j in cp) if self.col_labels else None
        return Matrix(
            [[self.entries[i][j] for j in cp] for i in rp],
            row_labels=rlab,
            col_labels=clab,
        )

    def take(self, row_labels: Iterable[int], col_labels: Iterable[int]) -> "Matrix":
        """Submatrix addressed by labels, in the order given."""
        return self.submatrix(
            (self.row_pos(r) for r in row_labels),
            (self.col_pos(c) for c in col_labels),
        )

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    # -- elimination ----------------------------------------------------------

    def det(self) -> Fraction:
        """Determinant by fraction-free integer (Bareiss) elimination; det
        of the empty (0 x 0) matrix is 1."""
        if self.rows != self.cols:
            raise NonSquareMatrix(f"determinant of a {self.rows}x{self.cols} matrix")
        try:
            _, scales, pivot = _eliminate(self.entries, self.rows)
        except SingularMatrix:
            return Fraction(0)
        return Fraction(pivot, prod(scales))

    def invert(self) -> "Matrix":
        """Inverse as A^-1 I by elimination and back substitution; raises
        SingularMatrix.

        Labels travel with the inverse map: the result's rows carry the
        original column labels and vice versa.
        """
        if self.rows != self.cols:
            raise NonSquareMatrix(f"inverse of a {self.rows}x{self.cols} matrix")
        n = self.rows
        a = [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(self.entries)]
        return Matrix(_solve(a, n), row_labels=self.col_labels, col_labels=self.row_labels)

    def schur_complement(self, keep: Iterable[int]) -> "Matrix":
        """Schur complement onto the kept positions.

        `keep` lists 0-based row/column positions (the matrix must be
        square); the complementary block is eliminated and must be
        invertible, otherwise SingularBlock is raised.  The result carries
        the kept labels.
        """
        if self.rows != self.cols:
            raise NonSquareMatrix("Schur complement of a non-square matrix")
        kept = sorted(set(keep))
        if any(i < 0 or i >= self.rows for i in kept):
            raise ValueError("keep positions out of range")
        dropped = [i for i in range(self.rows) if i not in kept]
        if not dropped:
            return self
        d = len(dropped)
        order = dropped + kept
        try:
            rows, scales, pivot = _eliminate(
                [[self.entries[i][j] for j in order] for i in order], d
            )
        except SingularMatrix as exc:
            raise SingularBlock("eliminated block is singular") from exc
        return Matrix(
            [
                [Fraction(x, pivot * s) for x in row[d:]]
                for row, s in zip(rows[d:], scales[d:])
            ],
            row_labels=[self.row_labels[i] for i in kept] if self.row_labels else None,
            col_labels=[self.col_labels[i] for i in kept] if self.col_labels else None,
        )


def solve_linear_system(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a square exact linear system A x = b by elimination and back
    substitution; raises SingularMatrix if A is singular."""
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("right-hand side does not match the system")
    if any(len(row) != n for row in rows):
        raise ValueError("system matrix must be square")
    a = [[rat(x) for x in row] + [rat(b)] for row, b in zip(rows, rhs)]
    return [x[0] for x in _solve(a, n)]
