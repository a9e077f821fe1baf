"""The two routes stay independent: the forest side of an identity never
reaches the linear algebra it is compared with.

Only the theorems that hold a matrix route against a forest route belong
here: kirchhoff, kw, entries, detl and the signed sum.  gluing and box-h
compare two linear-algebra computations by design, and the valid-minor sum
reads matrices on both sides.  The forest solution holds `solve` against
the forest formulas, so its two routes are checked too.

A profile hook records every function of the package that each route
reaches, by module and top-level name (a nested function or comprehension
counts as the function that holds it).  The matrix route is
`response_matrices` with the determinants the identities read; the forest
route is the plans, the pass, and the forest-side sums.  Each route runs on
a fresh copy of the network: the network's accessors are cached on first
read, so on one shared object the route that ran second would never call
them, and sharing would go unseen.  The loader built the network before
either copy was made, so it is shared by construction and is not recorded.
"""

import random
import sys
from pathlib import Path

import pytest

from superport import (
    SuperportNetwork,
    combinatorial_solution,
    make_circuit,
    random_circuit,
    random_network,
    response_matrices,
    solve,
    verify,
)
from superport.forests import ForestPass, pattern_cycle_rank

# the hook names functions by `co_qualname`, which code objects carry from 3.11
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

PACKAGE = str(Path(verify.__file__).resolve().parent)

# what both routes may reach: the network's read-only accessors
SHARED = {
    "network.SuperportNetwork.m",
    "network.SuperportNetwork.p",
    "network.SuperportNetwork.boundary",
    "network.SuperportNetwork.roots",
    "network.SuperportNetwork.root_of",
    "network.SuperportNetwork.non_roots",
    "network.SuperportNetwork.superport_index",
    "network.SuperportNetwork.adjacency",
    "network.SuperportNetwork.is_boundary",
}

# what both sides of the forest solution may also reach: the circuit's
# construction, and the Solution built from the edge currents
CIRCUIT = {
    "network.make_circuit",
    "network._require_cover",
    "linalg.rat",
    "network.Solution.from_edge_currents",
}

THEOREMS = ("kirchhoff", "kw", "entries", "detl", "signedsum")


def reached(route, net: SuperportNetwork) -> set[str]:
    """The package's functions that `route(copy)` calls, on a fresh copy."""
    copy = SuperportNetwork(n=net.n, edges=net.edges, superports=net.superports)
    names = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE):
            module = Path(code.co_filename).stem
            names.add(module + "." + code.co_qualname.split(".<locals>")[0])

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        route(copy)
    finally:
        sys.setprofile(outer)
    return names


def matrix_route(net: SuperportNetwork) -> None:
    R = response_matrices(net)
    R.reduced_det
    R.superport_response.det()


def forest_route(net: SuperportNetwork) -> None:
    p = ForestPass(net)
    rng = random.Random(0)
    for name in THEOREMS:
        verify._PLANS[name](p, rng)
    p.run()
    m = net.m
    H = verify._electrical(p)
    # kirchhoff's trees and pairs are single keys, kw's minors take the
    # general formula, and the entries one scan
    verify._grove(p, (1,) * m)
    if m >= 2:
        verify._all_minors(p, (1,), (2,), (), H)
        verify._grove(p, (1, 1, *range(3, m + 1)))
    p.valid_weight
    verify._entry_sums(p)
    p.weight(m - net.p + 1, lambda key: sum(sign for _, sign in p.facts(key).partitions))
    # the cancellation reads each key's cycle rank from its pattern
    for _, pattern in p.units:
        pattern_cycle_rank(net, pattern)


def test_the_routes_share_only_network_accessors():
    rng = random.Random(3)
    for _ in range(30):
        net = random_network(rng, require_nonroots=True)
        matrix, forest = reached(matrix_route, net), reached(forest_route, net)
        assert "solver.response_matrices" in matrix and "forests._walk" in forest
        assert "forests.pattern_cycle_rank" in forest
        assert matrix & forest <= SHARED, sorted(matrix & forest - SHARED)


def test_solve_and_the_forest_formulas_share_only_the_circuit():
    rng = random.Random(3)
    for _ in range(30):
        net = random_network(rng, require_nonroots=True)
        deltas = dict(random_circuit(rng, net).deltas)
        solver = reached(lambda copy: solve(make_circuit(copy, deltas)), net)
        forest = reached(lambda copy: combinatorial_solution(make_circuit(copy, deltas)), net)
        assert "solver.solve" in solver and "forests._walk" in forest
        assert solver & forest <= SHARED | CIRCUIT, sorted(solver & forest - SHARED - CIRCUIT)
