"""Exact circuit solving and response matrices.

Three matrices describe a superport network with n vertices, m boundary
vertices and p superports:

* K, the n-by-n Kirchhoff matrix (weighted Laplacian);
* C, the m-by-m response of the underlying electrical network, obtained by
  eliminating the interior vertices from K (Schur complement);
* L, the (m-p)-by-(m-p) superport response, indexed by the non-root boundary
  vertices: it maps prescribed within-superport voltage differences to
  incoming boundary currents.

`c2l` performs the reduction from C to L by a five-step sequence of matrix
operations; `response_from_K` runs the same reduction directly on K by
treating interior vertices as singleton superports, which must give the same
matrix.  `solve` computes the voltages and currents of a circuit from the
defining linear system, independently of any of those reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .linalg import Matrix, SingularMatrix, solve_linear_system
from .network import Circuit, Solution, SuperportNetwork, make_circuit

__all__ = [
    "NoNonRootVertices",
    "ResponseMatrices",
    "SingularIntermediate",
    "SolverError",
    "c2l",
    "electrical_response",
    "energy_identity",
    "extended_response",
    "kirchhoff_matrix",
    "response_from_K",
    "response_matrices",
    "solve",
]


class SolverError(Exception):
    pass


class SingularIntermediate(SolverError):
    """An inversion step of the response reduction hit a singular matrix."""


class NoNonRootVertices(SolverError):
    """Every boundary vertex is a root, so the superport response is empty."""


def kirchhoff_matrix(net: SuperportNetwork) -> Matrix:
    """Weighted Laplacian, labeled by the vertices 1..n."""
    n = net.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for u, v, c in net.edges:
        rows[u - 1][v - 1] -= c
        rows[v - 1][u - 1] -= c
        rows[u - 1][u - 1] += c
        rows[v - 1][v - 1] += c
    return Matrix(rows, labels=range(1, n + 1))


def electrical_response(net: SuperportNetwork) -> Matrix:
    """Response of the underlying electrical network: K with the interior
    vertices eliminated.  Labeled by the boundary vertices 1..m."""
    return _eliminate_interior(kirchhoff_matrix(net), net.m)


def _eliminate_interior(K: Matrix, m: int) -> Matrix:
    return K if K.rows == m else K.schur_complement(range(m))


def _check_canonical_superports(
    superports: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    sps = tuple(tuple(sp) for sp in superports)
    flat = [v for sp in sps for v in sp]
    if flat != list(range(1, len(flat) + 1)):
        raise ValueError(
            "superports must partition 1..m in canonical order, got "
            f"{[list(sp) for sp in sps]}"
        )
    if any(not sp for sp in sps):
        raise ValueError("empty superport")
    return sps


def c2l(C: Matrix, superports: Sequence[Sequence[int]]) -> Matrix:
    """Reduce an electrical response matrix to the superport response.

    C must be m-by-m, labeled 1..m, with the superports partitioning 1..m in
    canonical order (each block ascending, so the root of a block is its last
    entry and the root of the final block is m).  Steps:

      1. drop row and column m, invert;
      2. for every non-root k whose root is not m, subtract column root(k)
         from column k;
      3. the same for rows, applied to the result of step 2;
      4. drop the rows and columns of the remaining roots;
      5. invert.

    The result is labeled by the non-root vertices.  With a single superport
    steps 2 through 4 do nothing and the result is C with row and column m
    removed.  Raises NoNonRootVertices when every vertex is a root and
    SingularIntermediate when an inversion fails.
    """
    sps = _check_canonical_superports(superports)
    m = sum(len(sp) for sp in sps)
    if C.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} matrix, got {C.shape[0]}x{C.shape[1]}")
    if C.row_labels != tuple(range(1, m + 1)) or C.col_labels != tuple(range(1, m + 1)):
        raise ValueError("matrix must be labeled 1..m on both axes")
    roots = {sp[-1] for sp in sps}
    root_of = {v: sp[-1] for sp in sps for v in sp}
    non_roots = [v for v in range(1, m + 1) if v not in roots]
    if not non_roots:
        raise NoNonRootVertices(f"all {m} boundary vertices are roots")

    try:
        inv = C.submatrix(range(m - 1), range(m - 1)).invert()
    except SingularMatrix:
        raise SingularIntermediate("response with last row and column dropped is singular")

    labels = list(range(1, m))
    pos = {v: i for i, v in enumerate(labels)}
    a = [list(row) for row in inv.entries]
    for k in non_roots:
        r = root_of[k]
        if r == m:
            continue
        for i in range(m - 1):
            a[i][pos[k]] -= a[i][pos[r]]
    for k in non_roots:
        r = root_of[k]
        if r == m:
            continue
        rk, rr = pos[k], pos[r]
        a[rk] = [a[rk][j] - a[rr][j] for j in range(m - 1)]

    keep = [pos[v] for v in non_roots]
    core = [[a[i][j] for j in keep] for i in keep]
    try:
        return Matrix(core, labels=non_roots).invert()
    except SingularMatrix:
        raise SingularIntermediate("reduced matrix is singular")


def response_from_K(K: Matrix, superports: Sequence[Sequence[int]]) -> Matrix:
    """Run the response reduction directly on the Kirchhoff matrix.

    Interior vertices are appended as singleton superports, making the whole
    vertex set the boundary; the reduction then eliminates them along with
    the roots.  Must agree with c2l applied to the electrical response.
    """
    sps = _check_canonical_superports(superports)
    m = sum(len(sp) for sp in sps)
    n = K.rows
    if n < m:
        raise ValueError(f"matrix has {n} rows but superports name {m} vertices")
    extended = sps + tuple((v,) for v in range(m + 1, n + 1))
    return c2l(K, extended)


@dataclass(frozen=True)
class ResponseMatrices:
    """The matrices attached to one network.

    `superport_response` is None exactly when every boundary vertex is a
    root (m = p); `extended` is filled only on request.
    """

    kirchhoff: Matrix
    response: Matrix
    superport_response: Optional[Matrix]
    extended: Optional[Matrix] = None


def response_matrices(net: SuperportNetwork, *, extended: bool = False) -> ResponseMatrices:
    """K, C and L of one network, K built once and C derived from it."""
    K = kirchhoff_matrix(net)
    C = _eliminate_interior(K, net.m)
    L = c2l(C, net.superports) if net.non_roots else None
    ext = extended_response(net) if extended else None
    return ResponseMatrices(kirchhoff=K, response=C, superport_response=L, extended=ext)


def solve(circuit: Circuit) -> Solution:
    """Solve a circuit exactly.

    The unknowns are the voltages at every vertex except m, where U_m = 0.
    The equations are current conservation at interior vertices, zero total
    incoming current over each superport but the last, and the prescribed
    differences U_k - U_root(k) at non-root boundary vertices; that is
    (n - m) + (p - 1) + (m - p) = n - 1 equations.
    """
    net = circuit.network
    n, m, p = net.n, net.m, net.p
    unknowns = [v for v in range(1, n + 1) if v != m]
    col = {v: i for i, v in enumerate(unknowns)}
    size = n - 1
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def conservation_row(vertices: Iterable[int]) -> list[Fraction]:
        row = [Fraction(0)] * size
        for k in vertices:
            for w, c in net.adjacency[k]:
                if k != m:
                    row[col[k]] += c
                if w != m:
                    row[col[w]] -= c
        return row

    for v in range(m + 1, n + 1):
        rows.append(conservation_row((v,)))
        rhs.append(Fraction(0))
    for sp in net.superports[:-1]:
        rows.append(conservation_row(sp))
        rhs.append(Fraction(0))
    for k, d in circuit.deltas:
        row = [Fraction(0)] * size
        row[col[k]] += 1
        r = net.root_of[k]
        if r != m:
            row[col[r]] -= 1
        rows.append(row)
        rhs.append(d)

    values = solve_linear_system(rows, rhs)
    voltages = tuple(
        Fraction(0) if v == m else values[col[v]] for v in range(1, n + 1)
    )
    table = [[Fraction(0)] * n for _ in range(n)]
    for u, v, c in net.edges:
        i = c * (voltages[u - 1] - voltages[v - 1])
        table[u - 1][v - 1] = i
        table[v - 1][u - 1] = -i
    incoming = tuple(sum(table[k - 1], Fraction(0)) for k in range(1, m + 1))
    return Solution(
        voltages=voltages,
        currents=tuple(tuple(r) for r in table),
        incoming=incoming,
    )


def extended_response(net: SuperportNetwork) -> Matrix:
    """The m-by-m matrix whose column j holds the incoming boundary currents
    of the circuit singled out by vertex j.

    For a non-root j the prescribed differences are 1 at j and 0 at the other
    non-roots.  For the root j of a superport they are -1 at every non-root
    of that superport and 0 elsewhere, so the column of a singleton-superport
    root is zero.  Restricting to non-root rows and columns recovers the
    superport response.
    """
    m = net.m
    columns: list[tuple[Fraction, ...]] = []
    for j in range(1, m + 1):
        t = net.superport_index[j]
        block = net.superports[t]
        if j == net.root_of[j]:
            deltas = {
                k: Fraction(-1) if k in block else Fraction(0) for k in net.non_roots
            }
        else:
            deltas = {k: Fraction(1) if k == j else Fraction(0) for k in net.non_roots}
        columns.append(solve(make_circuit(net, deltas)).incoming)
    entries = [[columns[j][i] for j in range(m)] for i in range(m)]
    return Matrix(entries, labels=range(1, m + 1))


def energy_identity(net: SuperportNetwork, solution: Solution) -> tuple[Fraction, Fraction]:
    """Both sides of the energy identity: the dissipated power summed over
    edges and the boundary power sum.  Equal for every solved circuit."""
    lhs = Fraction(0)
    for u, v, _ in net.edges:
        lhs += (solution.voltages[u - 1] - solution.voltages[v - 1]) * solution.currents[
            u - 1
        ][v - 1]
    rhs = Fraction(0)
    for k in range(1, net.m + 1):
        rhs += solution.voltages[k - 1] * solution.incoming[k - 1]
    return lhs, rhs
