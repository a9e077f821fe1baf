"""Exact circuit solving and response matrices.

Three matrices describe a superport network with n vertices, m boundary
vertices and p superports:

* K, the n-by-n Kirchhoff matrix (weighted Laplacian);
* C, the m-by-m response of the underlying electrical network, obtained by
  eliminating the interior vertices from K (Schur complement);
* L, the (m-p)-by-(m-p) superport response, indexed by the non-root boundary
  vertices: it maps prescribed within-superport voltage differences to
  incoming boundary currents.

`c2l` reduces C to L with no inversion.  It takes the voltages in the
coordinates δ_k = U_k - U_root(k) at the non-roots, the root voltages, and
U_m = 0; in them the response's root rows are the superports' total
incoming currents, which must be zero, and L is its Schur complement onto
the non-roots: one elimination of the other p - 1 roots.  It raises
SingularIntermediate when C without row and column m, or its roots' block,
is singular.  `response_from_K` runs the same reduction directly on K by
treating interior vertices as singleton superports, so they go in the same
single elimination, which must give the same matrix.  `solve` computes the
voltages and currents of a circuit in the same coordinates: with the
prescribed differences substituted, its unknowns are the interior voltages
and the roots' voltages but U_m, and its matrix is the Kirchhoff matrix of
the network with each superport contracted to its root, grounded at m,
eliminated in one minimum-degree order.  It builds that matrix from the
edges, independently of K, C and those reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .linalg import Matrix, SingularBlock, min_degree_order, solve_linear_system
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


def _edge_units(net: SuperportNetwork) -> tuple[int, list[int]]:
    """The least common denominator D of the conductances, and each edge's
    conductance as a whole number of units 1/D."""
    scale = lcm(*(c.denominator for _, _, c in net.edges))
    return scale, [c.numerator * (scale // c.denominator) for _, _, c in net.edges]


def kirchhoff_matrix(net: SuperportNetwork) -> Matrix:
    """Weighted Laplacian, labeled by the vertices 1..n.  Each entry is
    summed in integer units of 1/D, D the least common denominator of the
    conductances, and becomes a Fraction once."""
    n = net.n
    scale, edge_units = _edge_units(net)
    grid = [[0] * n for _ in range(n)]
    for (u, v, _), units in zip(net.edges, edge_units):
        grid[u - 1][v - 1] -= units
        grid[v - 1][u - 1] -= units
        grid[u - 1][u - 1] += units
        grid[v - 1][v - 1] += units
    zero = Fraction(0)
    rows = [[Fraction(x, scale) if x else zero for x in row] for row in grid]
    return Matrix(rows, labels=range(1, n + 1))


def electrical_response(net: SuperportNetwork) -> Matrix:
    """Response of the underlying electrical network: K with the interior
    vertices eliminated.  Labeled by the boundary vertices 1..m."""
    return kirchhoff_matrix(net).schur_complement(range(net.m))


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
    entry and the root of the final block is m).  Take the voltages in the
    coordinates δ_k = U_k - U_root(k) at the non-roots k, U_r at the roots r
    other than m, and U_m = 0.  In them the response is C without row and
    column m, each non-root's column then row added into its root's: the
    root rows become the superports' total incoming currents.  L is the
    Schur complement of that matrix onto the non-roots, which eliminates the
    other p - 1 roots in one elimination, so the total currents are zero.

    The result is labeled by the non-root vertices.  With a single superport
    nothing is added or eliminated and the result is C with row and column m
    removed.  Raises NoNonRootVertices when every vertex is a root, and
    SingularIntermediate when the roots' block of that matrix is singular,
    which the elimination finds, or C without row and column m is: its
    determinant is the roots' block's times det L.
    """
    sps = _check_canonical_superports(superports)
    m = sum(len(sp) for sp in sps)
    if C.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} matrix, got {C.shape[0]}x{C.shape[1]}")
    if C.row_labels != tuple(range(1, m + 1)) or C.col_labels != tuple(range(1, m + 1)):
        raise ValueError("matrix must be labeled 1..m on both axes")
    non_roots = [v for sp in sps for v in sp[:-1]]
    if not non_roots:
        raise NoNonRootVertices(f"all {m} boundary vertices are roots")

    # C without row and column m, each non-root's column and then its row
    # added into its root's (by position); the last superport's root is m
    a = [list(row[: m - 1]) for row in C.entries[: m - 1]]
    summed = [(sp[-1] - 1, [k - 1 for k in sp[:-1]]) for sp in sps[:-1]]
    for row in a:
        for r, ks in summed:
            for k in ks:
                if row[k]:
                    row[r] += row[k]
    for r, ks in summed:
        for k in ks:
            a[r] = [x + y if y else x for x, y in zip(a[r], a[k])]
    try:
        L = Matrix(a, labels=range(1, m)).schur_complement(k - 1 for k in non_roots)
    except SingularBlock:
        raise SingularIntermediate("the roots' block of the response is singular")
    if L.det() == 0:
        raise SingularIntermediate("response with last row and column dropped is singular")
    return L


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
    root (m = p).
    """

    kirchhoff: Matrix
    response: Matrix
    superport_response: Optional[Matrix]

    @cached_property
    def reduced_det(self) -> Fraction:
        """det of the response without its last row and column, the reduced
        response: eliminated on the first read, which Kirchhoff's identity
        and the valid-minor sum share."""
        m = self.response.rows
        return self.response.submatrix(range(m - 1), range(m - 1)).det()


def response_matrices(net: SuperportNetwork) -> ResponseMatrices:
    """K, C and L of one network, all three built on the call, K once and C
    derived from it.  A caller that may not read them defers the call."""
    K = kirchhoff_matrix(net)
    C = K.schur_complement(range(net.m))
    L = c2l(C, net.superports) if net.non_roots else None
    return ResponseMatrices(kirchhoff=K, response=C, superport_response=L)


def solve(circuit: Circuit) -> Solution:
    """Solve a circuit exactly.

    Each non-root k stands for U_root(k) + δ_k and U_m = 0, so the unknowns
    are the voltages at the interior vertices and at the roots but m, an
    interior vertex being its own root: (n - m) + (p - 1) of them.  Their
    equations are current conservation at each interior vertex and zero
    total incoming current over each superport but the last.  An edge
    (u, v, c) with a = root(u) and b = root(v) adds c (U_a - U_b + δ_u - δ_v)
    to a's row and its negative to b's, the known c (δ_u - δ_v) moving to
    the right-hand side; an edge with a = b cancels in its superport's row.
    So the matrix is the Kirchhoff matrix of the network with each superport
    contracted to its root, grounded at m: symmetric with a positive
    diagonal on a connected network, and eliminated in one
    `min_degree_order` over all the unknowns.  The rows are in integer units
    of 1/D, D the least common denominator of the conductances.  Each
    voltage is read back as U_v = U_root(v) + δ_v.
    """
    net = circuit.network
    n, m = net.n, net.m
    _, edge_units = _edge_units(net)
    root_of = net.root_of
    delta = {k: d for k, d in circuit.deltas if d}
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    rhs = [0] * (n + 1)
    for (u, v, _), units in zip(net.edges, edge_units):
        a, b = root_of.get(u, u), root_of.get(v, v)
        if a == b:
            continue
        grid[a][a] += units
        grid[b][b] += units
        grid[a][b] -= units
        grid[b][a] -= units
        if u in delta or v in delta:
            known = units * (delta.get(u, 0) - delta.get(v, 0))
            rhs[a] -= known
            rhs[b] += known

    # row and column m are never read: that grounds m
    unknowns = [*net.roots[:-1], *range(m + 1, n + 1)]
    neighbours = {v: {w for w in unknowns if grid[v][w]} - {v} for v in unknowns}
    order = min_degree_order(neighbours, unknowns)
    rows = [[grid[v][w] for w in order] for v in order]
    level = dict(zip(order, solve_linear_system(rows, [rhs[v] for v in order])))
    level[m] = Fraction(0)
    voltages = tuple(level[root_of.get(v, v)] + delta.get(v, 0) for v in range(1, n + 1))
    currents = [c * (voltages[u - 1] - voltages[v - 1]) for u, v, c in net.edges]
    return Solution.from_edge_currents(net, voltages, currents)


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
