"""Executable statements of the matrix-tree identities.

Each verifier computes both sides of one identity by genuinely independent
routes: the matrix side by exact linear algebra on the response matrices,
the combinatorial side by explicit enumeration of spanning forests.  All
comparisons are exact rational equality; a failed comparison produces a
report carrying the witness (network, indices, both values).

Identities covered:

* Kirchhoff: det of the reduced electrical response as a tree/forest weight
  ratio, and every off-diagonal response entry as a grouped forest sum;
* the all-minors formula for the electrical response (with the corrected
  leading sign, which `signed=False` deliberately drops to expose);
* the entries and the determinant of the superport response as signed valid
  forest sums;
* the valid-minor sum identity tying det L to det of the reduced response;
* the signed partition sum over XYZW colorings, with the per-forest
  cancellation driven by the main-cycle involution;
* the combinatorial voltage/current formulas against the direct solver;
* gluing: the quotient by a vertex's equivalence preserves the solution;
* the tree-counting corollaries (classical and grouped) and the Box-H
  conductance transformation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .forests import (
    DEFAULT_CAP,
    Forest,
    ForestEnsemble,
    check_cap,
    forest_sign,
    involution_f,
    is_valid,
    partition_sign,
    partitions_for_forest,
    permutation_parity,
    quotient_components,
    quotient_is_tree,
)
from .linalg import Matrix, rat, rat_str
from .network import (
    Circuit,
    Solution,
    SuperportNetwork,
    canonical_network,
    make_circuit,
    network_to_data,
    unify_superports,
    validate_and_canonicalize,
)
from .solver import (
    NoNonRootVertices,
    c2l,
    electrical_response,
    solve,
)

__all__ = [
    "Report",
    "THEOREMS",
    "box_h",
    "box_network",
    "cayley_count",
    "combinatorial_solution",
    "complete_network",
    "h_network",
    "random_circuit",
    "random_network",
    "random_xyzw",
    "run_verifications",
    "unit_circuit",
    "verify_box_h",
    "verify_cancellation",
    "verify_cayley",
    "verify_det_L",
    "verify_generalized_cayley",
    "verify_gluing",
    "verify_kirchhoff",
    "verify_kw_minor",
    "verify_L_entries",
    "verify_signed_sum",
    "verify_valid_minor_sum",
]


@dataclass(frozen=True)
class Report:
    """Outcome of one verifier: both compared values and, on failure, a
    witness dict with enough context to reproduce the counterexample."""

    theorem: str
    status: str  # "pass" or "fail"
    lhs: str
    rhs: str
    checks: int
    witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_data(self) -> dict:
        data = {
            "theorem": self.theorem,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "checks": self.checks,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return data


def _report(theorem: str, failures: list, checks: int, lhs, rhs) -> Report:
    if failures:
        flhs, frhs, witness = failures[0]
        return Report(
            theorem=theorem,
            status="fail",
            lhs=str(flhs),
            rhs=str(frhs),
            checks=checks,
            witness=witness,
        )
    return Report(theorem=theorem, status="pass", lhs=str(lhs), rhs=str(rhs), checks=checks)


def _electrical_valid_weight(ensemble: ForestEnsemble) -> Fraction:
    """Weight sum of the valid forests of the underlying electrical network
    (every component holds exactly one boundary vertex)."""
    unified = unify_superports(ensemble.net)
    return ensemble.quotient_tree_weight(unified.quotient())


# -- Kirchhoff and Kenyon-Wilson (electrical identities) ---------------------------


def verify_kirchhoff(
    net: SuperportNetwork, *, ensemble: Optional[ForestEnsemble] = None
) -> Report:
    """Both parts of the electrical matrix-tree identity.

    (1) det of the response with the last row and column dropped equals the
    tree-weight sum over the valid-forest-weight sum; (2) for i < j the
    response entry C_i^j is minus the weight sum of (m-1)-component forests
    pairing i with j and isolating every other boundary vertex, over the
    same denominator.  Part 2 is evaluated in one pass over the forests with
    m - 1 components.
    """
    m = net.m
    if m < 2:
        raise ValueError("the identity needs at least two boundary vertices")
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    C = electrical_response(net)
    H = _electrical_valid_weight(ensemble)
    T = ensemble.tree_weight()
    failures: list = []
    checks = 0

    det_reduced = C.submatrix(range(m - 1), range(m - 1)).det()
    ratio = T / H
    checks += 1
    if det_reduced != ratio:
        failures.append(
            (
                det_reduced,
                ratio,
                {"network": network_to_data(net), "part": 1},
            )
        )

    pair_sums: dict[tuple[int, int], Fraction] = {}
    for f in ensemble.with_components(m - 1):
        by_rep: dict[int, list[int]] = {}
        for v in range(1, m + 1):
            by_rep.setdefault(f.components[v], []).append(v)
        if len(by_rep) != m - 1:
            continue  # some component carries no boundary vertex
        pair: Optional[tuple[int, int]] = None
        ok = True
        for members in by_rep.values():
            if len(members) == 2:
                pair = (members[0], members[1])
            elif len(members) != 1:
                ok = False
                break
        if ok and pair is not None:
            pair_sums[pair] = pair_sums.get(pair, Fraction(0)) + f.weight

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            rhs = -pair_sums.get((i, j), Fraction(0)) / H
            for lhs in (C.entry(i, j), C.entry(j, i)):
                checks += 1
                if lhs != rhs:
                    failures.append(
                        (
                            lhs,
                            rhs,
                            {"network": network_to_data(net), "part": 2, "entry": [i, j]},
                        )
                    )
    return _report("kirchhoff", failures, checks, rat_str(det_reduced), rat_str(ratio))


def verify_kw_minor(
    net: SuperportNetwork,
    X: Sequence[int],
    Y: Sequence[int],
    Z: Sequence[int],
    *,
    signed: bool = True,
    ensemble: Optional[ForestEnsemble] = None,
) -> Report:
    """The all-minors identity for the electrical response.

    The minor takes rows x_1..x_k then Z and columns y_1..y_k then Z, in the
    orders given (X and Y orders matter, the shared Z order cancels).  The
    right side sums sgn(pi) times the weight of forests pairing each x_t
    with y_pi(t) and isolating the leftover boundary vertices, carries the
    leading factor (-1)^|X|, and divides by the electrical valid-forest sum.
    With signed=False the leading factor is dropped; the identity is then
    expected to break for odd |X|.
    """
    m = net.m
    xs, ys, zs = tuple(X), tuple(Y), tuple(Z)
    if len(xs) != len(ys):
        raise ValueError("|X| and |Y| must agree")
    pooled = (*xs, *ys, *zs)
    if len(set(pooled)) != len(pooled):
        raise ValueError("X, Y, Z must be disjoint")
    for v in pooled:
        if not net.is_boundary(v):
            raise ValueError(f"vertex {v} is not a boundary vertex")
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    C = electrical_response(net)
    W = tuple(v for v in range(1, m + 1) if v not in set(pooled))

    lhs = C.take(xs + zs, ys + zs).det()
    k = len(xs)
    total = Fraction(0)
    for pi in itertools.permutations(range(k)):
        sgn = permutation_parity({t: pi[t] for t in range(k)})
        groups = [(xs[t], ys[pi[t]]) for t in range(k)] + [(w,) for w in W]
        total += sgn * ensemble.grouped_weight(groups)
    factor = -1 if (signed and k % 2 == 1) else 1
    rhs = factor * total / _electrical_valid_weight(ensemble)

    failures: list = []
    if lhs != rhs:
        failures.append(
            (
                lhs,
                rhs,
                {
                    "network": network_to_data(net),
                    "X": list(xs),
                    "Y": list(ys),
                    "Z": list(zs),
                    "signed": signed,
                },
            )
        )
    return _report("kenyon-wilson", failures, 1, rat_str(lhs), rat_str(rhs))


# -- superport response identities ---------------------------------------------


def verify_L_entries(
    net: SuperportNetwork, *, ensemble: Optional[ForestEnsemble] = None
) -> Report:
    """Every entry of the superport response as a signed forest sum: L_i^j
    sums forest_sign(G, i, j) * w(G) over forests valid relative to both i
    and j, over the valid-forest weight sum."""
    if not net.non_roots:
        raise NoNonRootVertices("every boundary vertex is a root")
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    L = c2l(electrical_response(net), net.superports)
    D = ensemble.valid_weight()
    nr = net.non_roots
    # splitting a non-root off its superport adds one quotient class, so the
    # forests valid relative to any non-root all have m - p components
    num = {(i, j): Fraction(0) for i in nr for j in nr}
    for f in ensemble.with_components(net.m - net.p):
        rel = [i for i in nr if quotient_is_tree(net.quotient((i,)), f)]
        for i in rel:
            for j in rel:
                num[i, j] += forest_sign(f, net, i, j) * f.weight
    failures: list = []
    for (i, j), total in num.items():
        rhs = total / D
        lhs = L.entry(i, j)
        if lhs != rhs:
            failures.append(
                (lhs, rhs, {"network": network_to_data(net), "entry": [i, j]})
            )
    checks = len(num)
    return _report(
        "response-entries", failures, checks, f"{checks} entries", f"{checks} sums"
    )


def verify_det_L(
    net: SuperportNetwork, *, ensemble: Optional[ForestEnsemble] = None
) -> Report:
    """det L as the ratio of the spanning-tree weight sum to the valid
    forest weight sum."""
    if not net.non_roots:
        raise NoNonRootVertices("every boundary vertex is a root")
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    lhs = c2l(electrical_response(net), net.superports).det()
    rhs = ensemble.tree_weight() / ensemble.valid_weight()
    failures: list = []
    if lhs != rhs:
        failures.append((lhs, rhs, {"network": network_to_data(net)}))
    return _report("det-response", failures, 1, rat_str(lhs), rat_str(rhs))


def verify_valid_minor_sum(
    net: SuperportNetwork, *, ensemble: Optional[ForestEnsemble] = None
) -> Report:
    """The valid-minor sum identity, in cross-multiplied form:

        (sum over valid I, J of det C_I^J) * det L = det of reduced C,

    where I and J pick one vertex from each superport but the last.  With a
    single superport the sum is the empty 0x0 minor, i.e. 1.
    """
    if not net.non_roots:
        raise NoNonRootVertices("every boundary vertex is a root")
    C = electrical_response(net)
    L = c2l(C, net.superports)
    m = net.m
    det_reduced = C.submatrix(range(m - 1), range(m - 1)).det()
    choices = [list(sp) for sp in net.superports[:-1]]
    total = Fraction(0)
    count = 0
    for I in itertools.product(*choices):
        for J in itertools.product(*choices):
            total += C.take(I, J).det()
            count += 1
    lhs = total * L.det()
    failures: list = []
    if lhs != det_reduced:
        failures.append(
            (lhs, det_reduced, {"network": network_to_data(net), "pairs": count})
        )
    return _report(
        "valid-minor-sum", failures, 1, rat_str(lhs), rat_str(det_reduced)
    )


def verify_signed_sum(
    net: SuperportNetwork, *, ensemble: Optional[ForestEnsemble] = None
) -> Report:
    """The signed partition sum over all forests and XYZW colorings equals
    the plain valid-forest weight sum."""
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    lhs = Fraction(0)
    for f in ensemble.with_components(net.m - net.p + 1):
        for part in partitions_for_forest(net, f):
            lhs += partition_sign(net, f, part) * f.weight
    rhs = ensemble.valid_weight()
    failures: list = []
    if lhs != rhs:
        failures.append((lhs, rhs, {"network": network_to_data(net)}))
    return _report("signed-sum", failures, 1, rat_str(lhs), rat_str(rhs))


def verify_cancellation(
    net: SuperportNetwork, *, ensemble: Optional[ForestEnsemble] = None
) -> Report:
    """Per-forest structure behind the signed sum.

    A valid forest must carry exactly one partition, with empty X and Y and
    sign +1.  A non-valid forest's partitions must cancel pairwise under the
    involution: f maps each partition to a different partition of the same
    forest with the opposite sign, f o f is the identity, and the signed sum
    over the forest's partitions is zero.
    """
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    failures: list = []
    checks = 0

    def fail(lhs, rhs, forest: Forest, note: str) -> None:
        failures.append(
            (
                lhs,
                rhs,
                {
                    "network": network_to_data(net),
                    "forest": list(forest.edges),
                    "note": note,
                },
            )
        )

    for f in ensemble.with_components(net.m - net.p + 1):
        parts = list(partitions_for_forest(net, f))
        if is_valid(f, net):
            checks += 1
            if len(parts) != 1:
                fail(len(parts), 1, f, "valid forest partition count")
                continue
            part = parts[0]
            if part.X or part.Y or partition_sign(net, f, part) != 1:
                fail(str(part), "X=Y=empty, sign +1", f, "valid forest partition")
            continue
        if not parts:
            continue
        checks += 1
        signs = [partition_sign(net, f, p) for p in parts]
        if sum(signs) != 0:
            fail(sum(signs), 0, f, "non-valid forest signed count")
            continue
        index = dict(zip(parts, signs))
        for part in parts:
            image = involution_f(net, f, part)
            if image not in index:
                fail(str(image), "a partition of the forest", f, "involution image")
                break
            if image == part:
                fail(str(image), "a different partition", f, "involution fixed point")
                break
            if index[image] != -index[part]:
                fail(index[image], -index[part], f, "involution sign")
                break
            if involution_f(net, f, image) != part:
                fail("f(f(part))", "part", f, "involution squared")
                break
    return _report(
        "partition-cancellation", failures, checks, f"{checks} forests", "structure holds"
    )


# -- combinatorial solution and gluing ----------------------------------------------


def combinatorial_solution(
    circuit: Circuit, *, ensemble: Optional[ForestEnsemble] = None
) -> Solution:
    """Voltages and currents from the forest formulas, bypassing the linear
    solver entirely.

    The voltage at k sums, over the prescribed differences, the weights of
    valid forests joining [k] to [i] in the quotient by the {i}-equivalence;
    the current along an oriented edge sums weights of forests valid
    relative to i whose quotient path from [i] to [root(i)] traverses that
    edge, minus the reverse traversals.  Voltages are normalized to vanish
    at the last boundary vertex, like the solver's.
    """
    net = circuit.network
    if ensemble is None:
        ensemble = ForestEnsemble(net)
    D = ensemble.valid_weight()
    n, m = net.n, net.m
    volt_raw = [Fraction(0)] * (n + 1)
    edge_num: dict[tuple[int, int], Fraction] = {}

    for i, du in circuit.deltas:
        if du == 0:
            continue
        qg = net.quotient((i,))
        k_classes = len(qg.classes)
        ci = qg.class_of[i]
        cr = qg.class_of[net.root_of[i]]

        for f in ensemble.valid_forests():
            root = quotient_components(qg, f)[0]
            contribution = du * f.weight
            for v in range(1, n + 1):
                if root[qg.class_of[v]] == root[ci]:
                    volt_raw[v] += contribution

        for f in ensemble.quotient_trees(qg):
            adj: list[list[tuple[int, int]]] = [[] for _ in range(k_classes)]
            for e in f.edges:
                a, b = qg.edge_classes[e]
                adj[a].append((b, e))
                adj[b].append((a, e))
            prev: dict[int, tuple[int, int]] = {ci: (-1, -1)}
            queue = [ci]
            while queue:
                cur = queue.pop()
                if cur == cr:
                    break
                for b, e in adj[cur]:
                    if b not in prev:
                        prev[b] = (cur, e)
                        queue.append(b)
            steps = []
            cur = cr
            while cur != ci:
                a, e = prev[cur]
                steps.append((a, cur, e))
                cur = a
            for a, b, e in steps:
                u, v, _ = net.edges[e]
                if qg.class_of[u] == a:
                    key = (u, v)
                else:
                    key = (v, u)
                edge_num[key] = edge_num.get(key, Fraction(0)) + du * f.weight

    voltages = tuple(
        (volt_raw[v] - volt_raw[m]) / D for v in range(1, n + 1)
    )
    table = [[Fraction(0)] * n for _ in range(n)]
    for u, v, _ in net.edges:
        cur = (
            edge_num.get((u, v), Fraction(0)) - edge_num.get((v, u), Fraction(0))
        ) / D
        table[u - 1][v - 1] = cur
        table[v - 1][u - 1] = -cur
    incoming = tuple(sum(table[k - 1], Fraction(0)) for k in range(1, m + 1))
    return Solution(
        voltages=voltages,
        currents=tuple(tuple(r) for r in table),
        incoming=incoming,
    )


def unit_circuit(net: SuperportNetwork, i: int) -> Circuit:
    """Difference 1 at the non-root vertex i, 0 at every other non-root."""
    if i not in net.non_roots:
        raise ValueError(f"vertex {i} is not a non-root boundary vertex")
    return make_circuit(
        net, {k: Fraction(1) if k == i else Fraction(0) for k in net.non_roots}
    )


def _glued_circuit(circuit: Circuit, i: int):
    """The quotient electrical circuit of the gluing statement.

    Returns (quotient circuit, vertex map).  Classes of the {i}-equivalence
    become vertices; parallel edges merge by conductance sum; loops vanish.
    The boundary is the pair [i], [root(i)] with voltages 1 and 0, encoded
    as the difference at the pair's non-root after canonical relabeling.
    """
    net = circuit.network
    qg = net.quotient((i,))
    labels = qg.labels
    acc: dict[tuple[int, int], Fraction] = {}
    for u, v, c in net.edges:
        a = labels[qg.class_of[u]]
        b = labels[qg.class_of[v]]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        acc[key] = acc.get(key, Fraction(0)) + c
    bi = labels[qg.class_of[i]]
    br = labels[qg.class_of[net.root_of[i]]]
    raw = {
        "vertices": len(qg.classes),
        "edges": [{"u": a, "v": b, "c": rat_str(c)} for (a, b), c in sorted(acc.items())],
        "superports": [[bi, br]],
    }
    quot_net, mapping = validate_and_canonicalize(raw)
    # voltage 1 at [i], 0 at [root(i)]: the lone delta is U_1 - U_2
    delta = Fraction(1) if mapping[bi] == 1 else Fraction(-1)
    quot_circuit = make_circuit(quot_net, {1: delta})
    vertex_map = {
        v: mapping[labels[qg.class_of[v]]] for v in range(1, net.n + 1)
    }
    return quot_circuit, vertex_map


def verify_gluing(circuit: Circuit, i: int) -> Report:
    """Solving the circuit and solving its {i}-quotient must give the same
    per-edge currents and voltages differing by one constant.

    Requires the circuit to prescribe difference 1 at i and 0 elsewhere.
    """
    net = circuit.network
    if i not in net.non_roots:
        raise ValueError(f"vertex {i} is not a non-root boundary vertex")
    expected = {
        k: (Fraction(1) if k == i else Fraction(0)) for k in net.non_roots
    }
    if circuit.delta_map != expected:
        raise ValueError("gluing requires difference 1 at i and 0 elsewhere")

    sol = solve(circuit)
    quot_circuit, vmap = _glued_circuit(circuit, i)
    qsol = solve(quot_circuit)

    failures: list = []
    checks = 0
    for u, v, c in net.edges:
        quot_current = c * (
            qsol.voltages[vmap[u] - 1] - qsol.voltages[vmap[v] - 1]
        )
        checks += 1
        if quot_current != sol.currents[u - 1][v - 1]:
            failures.append(
                (
                    sol.currents[u - 1][v - 1],
                    quot_current,
                    {"network": network_to_data(net), "i": i, "edge": [u, v]},
                )
            )
    const = qsol.voltages[vmap[1] - 1] - sol.voltages[0]
    for v in range(1, net.n + 1):
        checks += 1
        diff = qsol.voltages[vmap[v] - 1] - sol.voltages[v - 1]
        if diff != const:
            failures.append(
                (
                    diff,
                    const,
                    {"network": network_to_data(net), "i": i, "vertex": v},
                )
            )
    return _report("gluing", failures, checks, f"{checks} comparisons", "quotient agrees")


# -- counting corollaries and Box-H ----------------------------------------------


def complete_network(m: int) -> SuperportNetwork:
    """Complete graph on 1..m, unit conductances, all vertices boundary."""
    if m < 1:
        raise ValueError("need at least one vertex")
    edges = [(u, v, Fraction(1)) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    return canonical_network(edges, [list(range(1, m + 1))])


def cayley_count(m: int, *, cap: Optional[int] = None) -> tuple[int, int]:
    """(enumerated spanning trees of the unit complete graph, m ** (m-2))."""
    check_cap(math.comb(max(m, 0), 2), cap)
    brute = len(ForestEnsemble(complete_network(m), cap=cap).with_components(1))
    closed = int(Fraction(m) ** (m - 2))
    return brute, closed


def verify_cayley(m: int, *, cap: Optional[int] = None) -> Report:
    brute, closed = cayley_count(m, cap=cap)
    failures: list = []
    if brute != closed:
        failures.append((brute, closed, {"m": m}))
    return _report("tree-count", failures, 1, str(brute), str(closed))


def _random_tree_edges(vertices: Sequence[int], rng: random.Random) -> list[tuple[int, int]]:
    verts = list(vertices)
    edges = []
    for idx in range(1, len(verts)):
        other = verts[rng.randrange(idx)]
        edges.append((min(verts[idx], other), max(verts[idx], other)))
    return edges


def verify_generalized_cayley(
    sizes: Sequence[int],
    *,
    rng: Optional[random.Random] = None,
    cap: Optional[int] = None,
) -> Report:
    """The grouped tree count three ways.

    For disjoint vertex groups A_1..A_r with given spanning trees T_i, the
    number of spanning trees of the unit complete graph containing every T_i
    equals the number of valid forests of the same graph with the A_i as
    superports, equals (sum |A_i|) ** (r-2) * prod |A_i|.  The containment
    count uses concrete trees (random when an rng is given, paths
    otherwise); the statement is independent of that choice.
    """
    if not sizes or any(type(s) is not int or s < 1 for s in sizes):
        raise ValueError("group sizes must be positive integers")
    n = sum(sizes)
    check_cap(math.comb(n, 2), cap)
    r = len(sizes)
    groups: list[list[int]] = []
    nxt = 1
    for s in sizes:
        groups.append(list(range(nxt, nxt + s)))
        nxt += s
    net = canonical_network(
        [
            (u, v, Fraction(1))
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
        ],
        groups,
    )
    ensemble = ForestEnsemble(net, cap=cap)
    valid_count = len(ensemble.valid_forests())

    required: set[int] = set()
    pair_index = {(u, v): idx for idx, (u, v, _) in enumerate(net.edges)}
    for g in groups:
        tree = (
            _random_tree_edges(g, rng)
            if rng is not None
            else [(g[t], g[t + 1]) for t in range(len(g) - 1)]
        )
        required.update(pair_index[e] for e in tree)
    containing = sum(1 for f in ensemble.with_components(1) if required.issubset(f.edges))
    closed = int(Fraction(n) ** (r - 2) * math.prod(sizes))

    failures: list = []
    if not (valid_count == containing == closed):
        failures.append(
            (
                f"valid={valid_count}, containing={containing}",
                closed,
                {"sizes": list(sizes)},
            )
        )
    return _report(
        "grouped-tree-count", failures, 1, f"{valid_count}/{containing}", str(closed)
    )


def box_network(a, b, c, d) -> SuperportNetwork:
    """Square with ports {1, 2} and {3, 4}; the arguments are the side
    RESISTANCES (a on 13, b on 12, c on 24, d on 34), so the edges carry
    their reciprocals as conductances."""
    return canonical_network(
        [
            (1, 3, 1 / rat(a)),
            (1, 2, 1 / rat(b)),
            (2, 4, 1 / rat(c)),
            (3, 4, 1 / rat(d)),
        ],
        [[1, 2], [3, 4]],
    )


def h_network(A, B, C, D, E) -> SuperportNetwork:
    """Two-port H with ports {1, 2} and {3, 4} hanging off the internal edge
    56; the arguments are the leg and bridge RESISTANCES."""
    return canonical_network(
        [
            (1, 5, 1 / rat(A)),
            (2, 6, 1 / rat(B)),
            (3, 5, 1 / rat(C)),
            (4, 6, 1 / rat(D)),
            (5, 6, 1 / rat(E)),
        ],
        [[1, 2], [3, 4]],
    )


def box_h(a, b, c, d) -> dict[str, Fraction]:
    """The five H resistances equivalent to a box with side resistances
    a, b, c, d: each leg is the product of the two box sides meeting at its
    port vertex over the total, the bridge pairs the two within-port sides.
    """
    a, b, c, d = rat(a), rat(b), rat(c), rat(d)
    if min(a, b, c, d) <= 0:
        raise ValueError("resistances must be positive")
    s = a + b + c + d
    return {
        "A": a * b / s,
        "B": b * c / s,
        "C": a * d / s,
        "D": c * d / s,
        "E": b * d / s,
    }


def verify_box_h(a, b, c, d) -> Report:
    """The box and its H replacement have identical two-port responses."""
    out = box_h(a, b, c, d)
    box = box_network(a, b, c, d)
    h = h_network(out["A"], out["B"], out["C"], out["D"], out["E"])
    L_box = c2l(electrical_response(box), box.superports)
    L_h = c2l(electrical_response(h), h.superports)
    failures: list = []
    if L_box != L_h:
        failures.append(
            (
                [[rat_str(x) for x in row] for row in L_box.entries],
                [[rat_str(x) for x in row] for row in L_h.entries],
                {"a": rat_str(a), "b": rat_str(b), "c": rat_str(c), "d": rat_str(d)},
            )
        )
    return _report(
        "box-h", failures, 1, "box response", "h response"
    )


# -- random instances ---------------------------------------------------------------


def random_network(
    rng: random.Random,
    *,
    electrical: bool = False,
    max_n: int = 8,
    max_edges: int = 14,
    p_max: int = 3,
    require_nonroots: bool = False,
    value_max: int = 10,
) -> SuperportNetwork:
    """Random connected network: a random recursive tree plus extra edges,
    rational conductances with numerator and denominator up to value_max,
    and a random boundary partition.  Deterministic for a given rng state."""
    n = rng.randint(2, max_n)
    edges: list[tuple[int, int, Fraction]] = []
    present: set[tuple[int, int]] = set()

    def cond() -> Fraction:
        return Fraction(rng.randint(1, value_max), rng.randint(1, value_max))

    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        edges.append((u, v, cond()))
        present.add((u, v))
    pool = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in present
    ]
    rng.shuffle(pool)
    budget = max(0, max_edges - len(edges))
    for u, v in pool[: rng.randint(0, min(budget, len(pool)))]:
        edges.append((u, v, cond()))

    if electrical:
        p = 1
        m = rng.randint(2, n)
    else:
        p = rng.randint(1, min(p_max, n - 1 if require_nonroots else n))
        m = rng.randint(p + 1 if require_nonroots else p, n)
    boundary = rng.sample(range(1, n + 1), m)
    rng.shuffle(boundary)
    cuts = sorted(rng.sample(range(1, m), p - 1)) if p > 1 else []
    superports = []
    prev = 0
    for cut in cuts + [m]:
        superports.append(boundary[prev:cut])
        prev = cut
    return canonical_network(edges, superports)


def random_circuit(
    rng: random.Random, net: SuperportNetwork, *, value_max: int = 10
) -> Circuit:
    deltas = {
        k: Fraction(rng.randint(-value_max, value_max), rng.randint(1, value_max))
        for k in net.non_roots
    }
    return make_circuit(net, deltas)


def random_xyzw(
    rng: random.Random, m: int, *, max_pairs: int = 2
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Random ordered X, Y and unordered Z over the boundary 1..m; the rest
    is the implied W."""
    k = rng.randint(0, min(max_pairs, m // 2))
    chosen = rng.sample(range(1, m + 1), 2 * k)
    X, Y = tuple(chosen[:k]), tuple(chosen[k:])
    rest = [v for v in range(1, m + 1) if v not in chosen]
    Z = tuple(v for v in rest if rng.random() < 0.5)
    return X, Y, Z


# -- registry -----------------------------------------------------------------------


def _reports_kirchhoff(net, ensemble, rng) -> list[Report]:
    if net.m < 2:
        return []
    return [verify_kirchhoff(net, ensemble=ensemble)]


def _reports_kw(net, ensemble, rng) -> list[Report]:
    reports = []
    m = net.m
    if m >= 2:
        reports.append(
            verify_kw_minor(net, (1,), (2,), (), ensemble=ensemble)
        )
    reports.append(
        verify_kw_minor(
            net, (), (), tuple(range(1, m)), ensemble=ensemble
        )
    )
    if rng is not None:
        X, Y, Z = random_xyzw(rng, m)
        reports.append(verify_kw_minor(net, X, Y, Z, ensemble=ensemble))
    return reports


def _reports_entries(net, ensemble, rng) -> list[Report]:
    if not net.non_roots:
        return []
    return [verify_L_entries(net, ensemble=ensemble)]


def _reports_detl(net, ensemble, rng) -> list[Report]:
    if not net.non_roots:
        return []
    return [verify_det_L(net, ensemble=ensemble)]


def _reports_minorsum(net, ensemble, rng) -> list[Report]:
    if not net.non_roots:
        return []
    return [verify_valid_minor_sum(net, ensemble=ensemble)]


def _reports_signedsum(net, ensemble, rng) -> list[Report]:
    return [
        verify_signed_sum(net, ensemble=ensemble),
        verify_cancellation(net, ensemble=ensemble),
    ]


def _reports_gluing(net, ensemble, rng) -> list[Report]:
    return [verify_gluing(unit_circuit(net, i), i) for i in net.non_roots]


def _reports_solution(net, ensemble, rng) -> list[Report]:
    if rng is None:
        rng = random.Random(0)
    circuit = random_circuit(rng, net)
    direct = solve(circuit)
    combinatorial = combinatorial_solution(circuit, ensemble=ensemble)
    failures: list = []
    if direct != combinatorial:
        failures.append(
            (
                "solver solution",
                "forest-formula solution",
                {"network": network_to_data(net), "deltas": [
                    [k, rat_str(d)] for k, d in circuit.deltas
                ]},
            )
        )
    return [
        _report("forest-solution", failures, 1, "solver", "forest formulas")
    ]


THEOREMS = {
    "kirchhoff": _reports_kirchhoff,
    "kw": _reports_kw,
    "entries": _reports_entries,
    "detl": _reports_detl,
    "minorsum": _reports_minorsum,
    "signedsum": _reports_signedsum,
    "gluing": _reports_gluing,
    "solution": _reports_solution,
}


def run_verifications(
    net: SuperportNetwork,
    theorems: Iterable[str],
    *,
    rng: Optional[random.Random] = None,
    cap: Optional[int] = DEFAULT_CAP,
) -> list[Report]:
    """Run the named identity checks on one network, sharing a single forest
    enumeration.  Checks whose preconditions the network does not meet are
    skipped (a network with all-root boundary has no response to verify)."""
    names = list(theorems)
    if "all" in names:
        names = list(THEOREMS)
    for name in names:
        if name not in THEOREMS:
            raise ValueError(f"unknown theorem {name!r}")
    ensemble = ForestEnsemble(net, cap=cap)
    reports: list[Report] = []
    for name in names:
        reports.extend(THEOREMS[name](net, ensemble, rng))
    return reports
