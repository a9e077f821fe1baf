import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from superport import (
    Matrix,
    SingularIntermediate,
    SingularMatrix,
    Solution,
    canonical_network,
    solve_linear_system,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = [
    "w-network.json",
    "fig6-square.json",
    "fig7-square.json",
    "fig1-twoport.json",
    "k4.json",
]


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


# small positive rationals keep determinants and inverses readable
positive_rationals = st.fractions(
    min_value=Fraction(1, 9), max_value=Fraction(9), max_denominator=9
)

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)


def rational_tuple(rng: random.Random, count: int = 4) -> list[Fraction]:
    return [
        Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(count)
    ]


def w_network(a, b, c, d):
    """Star-with-a-tail network of the worked response-reduction example:
    boundary {1,2,3} and {4,5}, edges 15:a, 25:b, 24:c, 34:d."""
    return canonical_network(
        [(1, 5, a), (2, 5, b), (2, 4, c), (3, 4, d)], [[1, 2, 3], [4, 5]]
    )


def diagonal_square(a, b, c, d):
    """Two-port square whose ports sit on diagonals: ports {1,2}, {3,4},
    edges 13:a, 24:b, 14:c, 23:d."""
    return canonical_network(
        [(1, 3, a), (2, 4, b), (1, 4, c), (2, 3, d)], [[1, 2], [3, 4]]
    )


def side_square(a, b, c, d):
    """Two-port square whose ports are the sides: ports {1,2}, {3,4},
    edges 13:a, 12:b, 24:c, 34:d."""
    return canonical_network(
        [(1, 3, a), (1, 2, b), (2, 4, c), (3, 4, d)], [[1, 2], [3, 4]]
    )


def multi_cycle_network():
    """Draw 1567 of random_network(Random(3), max_n=8, max_edges=12): the
    forests of key (3, (1, 1, 3, 3, 5)) carry partitions and have quotients
    with two cycles, and their main cycles have two different pairs of
    ends."""
    return canonical_network(
        [(1, 2, 4), (1, 4, Fraction(10, 9)), (1, 5, Fraction(3, 2)), (2, 3, Fraction(7, 10)),
         (2, 5, Fraction(2, 5)), (3, 4, Fraction(4, 7)), (3, 6, Fraction(1, 4)),
         (4, 5, Fraction(5, 7)), (4, 6, Fraction(7, 3)), (5, 6, Fraction(9, 7))],
        [[1, 2], [3, 4], [5]],
    )


def five_step_c2l(C, superports):
    """The paper's five-step reduction of C to L, the reference that
    `superport.c2l` is held to: 1. drop row and column m, invert; 2. for
    every non-root k whose root is not m, subtract column root(k) from
    column k; 3. the same for rows; 4. drop the remaining roots; 5. invert.
    Raises SingularIntermediate when an inversion fails."""
    m = C.rows
    root_of = {v: sp[-1] for sp in superports for v in sp}
    non_roots = [v for sp in superports for v in sp[:-1]]
    try:
        inv = C.submatrix(range(m - 1), range(m - 1)).invert()
    except SingularMatrix:
        raise SingularIntermediate("response with last row and column dropped is singular")
    a = [list(row) for row in inv.entries]
    for k in non_roots:
        r = root_of[k]
        if r != m:
            for row in a:
                row[k - 1] -= row[r - 1]
    for k in non_roots:
        r = root_of[k]
        if r != m:
            a[k - 1] = [x - y for x, y in zip(a[k - 1], a[r - 1])]
    core = [[a[i - 1][j - 1] for j in non_roots] for i in non_roots]
    try:
        return Matrix(core, labels=non_roots).invert()
    except SingularMatrix:
        raise SingularIntermediate("reduced matrix is singular")


def defining_solve(circuit):
    """The circuit's defining linear system, the reference that
    `superport.solve` is held to: the unknowns are U_v at every vertex but
    m, where U_m = 0, in label order, and the n - 1 equations, in natural
    order, are the prescribed differences U_k - U_root(k) = δ_k, current
    conservation at each interior vertex, and zero total incoming current
    over each superport but the last."""
    net = circuit.network
    n, m = net.n, net.m
    unknowns = [v for v in range(1, n + 1) if v != m]
    col = {v: i for i, v in enumerate(unknowns)}

    def row(coefficients):
        out = [Fraction(0)] * (n - 1)
        for v, x in coefficients:
            if v != m:
                out[col[v]] += x
        return out

    def outflow(vertices):
        terms = []
        for u, v, c in net.edges:
            for a, b in ((u, v), (v, u)):
                if a in vertices:
                    terms += [(a, c), (b, -c)]
        return row(terms)

    rows = [row(((k, 1), (net.root_of[k], -1))) for k, _ in circuit.deltas]
    rhs = [d for _, d in circuit.deltas]
    for group in [*([v] for v in range(m + 1, n + 1)), *net.superports[:-1]]:
        rows.append(outflow(set(group)))
        rhs.append(Fraction(0))
    values = dict(zip(unknowns, solve_linear_system(rows, rhs)))
    voltages = [values.get(v, Fraction(0)) for v in range(1, n + 1)]
    currents = [c * (voltages[u - 1] - voltages[v - 1]) for u, v, c in net.edges]
    return Solution.from_edge_currents(net, voltages, currents)
