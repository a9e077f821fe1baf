"""Executable statements of the matrix-tree identities.

Each verifier computes both sides of one identity by genuinely independent
routes: the matrix side by exact linear algebra on the response matrices,
the combinatorial side by explicit enumeration of spanning forests.  All
comparisons are exact rational equality; a failed comparison produces a
report carrying the witness (network, indices, both values).

The forest side of every identity is a set of sums registered on a
`ForestPass`, each for the component counts it reads, in integer units:
trees (1 component) for Kirchhoff and det L; valid forests (m - p + 1) for
the entries, det L, the signed sum, the cancellation and the voltages;
forests valid relative to a non-root (m - p) for the entries and the
currents; electrically valid forests (m) for Kirchhoff and every
Kenyon-Wilson minor; pairing forests (m - 1) for Kirchhoff's entries; and
each minor's groupings (one component per group).  `run_verifications`
registers the sums of every requested theorem, enumerates once, builds K,
C and L once if any of them reads those, and then hands the matrices to
each theorem to compare.  A standalone verifier runs the same sums on a pass
of its own and builds the matrices of its network the same way.

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

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .forests import (
    DEFAULT_CAP,
    Forest,
    ForestIsValid,
    ForestPass,
    check_cap,
    enumerate_spanning_forests,
    forest_sign,
    main_cycle,
    permutation_parity,
    quotient_components,
    quotient_is_tree,
    quotient_path,
    separates,
)
from .linalg import rat, rat_str
from .network import (
    Circuit,
    Solution,
    SuperportNetwork,
    canonical_network,
    make_circuit,
    network_to_data,
    validate_and_canonicalize,
)
from .solver import (
    NoNonRootVertices,
    ResponseMatrices,
    response_matrices,
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


# -- the forest side: one pass, sums by component count --------------------------


# A report is built in two steps: `build(p, ...)` registers its forest sums
# on the pass p and returns `finish`, which takes the network's
# ResponseMatrices once the pass has run and makes the report.  Outside
# `_READS_MATRICES` a finish step reads no matrix and is handed None.
Finish = Callable[[Optional[ResponseMatrices]], Report]


def _alone(net: SuperportNetwork, build, *args) -> Report:
    """Register one report's sums on a pass of their own, run it, and finish
    the report."""
    p = ForestPass(net)
    finish = build(p, *args)
    p.run()
    return finish(response_matrices(net))


# -- Kirchhoff and Kenyon-Wilson (electrical identities) ---------------------------


def _kirchhoff(p: ForestPass) -> Finish:
    net, m = p.net, p.net.m
    if m < 2:
        raise ValueError("the identity needs at least two boundary vertices")
    p.share("trees", "electrical")
    pairs: dict[tuple[int, int], int] = {}

    def add_pair(f: Forest) -> None:
        # m boundary vertices fall into m - 1 components, so some component
        # holds two; the forest counts when no other component is shared
        first: dict[int, int] = {}
        pair = None
        for v in range(1, m + 1):
            u = first.setdefault(f.components[v], v)
            if u != v:
                if pair is not None:
                    return
                pair = (u, v)
        pairs[pair] = pairs.get(pair, 0) + f.units

    p.want(m - 1, add_pair)

    def report(R: ResponseMatrices) -> Report:
        C = R.response
        H = p.total("electrical")
        failures: list = []
        checks = 0

        det_reduced = C.submatrix(range(m - 1), range(m - 1)).det()
        ratio = p.total("trees") / H
        checks += 1
        if det_reduced != ratio:
            failures.append(
                (
                    det_reduced,
                    ratio,
                    {"network": network_to_data(net), "part": 1},
                )
            )

        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                rhs = -p.weight(pairs.get((i, j), 0), m - 1) / H
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

    return report


def verify_kirchhoff(net: SuperportNetwork) -> Report:
    """Both parts of the electrical matrix-tree identity.

    (1) det of the response with the last row and column dropped equals the
    tree-weight sum over the valid-forest-weight sum; (2) for i < j the
    response entry C_i^j is minus the weight sum of (m-1)-component forests
    pairing i with j and isolating every other boundary vertex, over the
    same denominator.  Part 2 is evaluated in one pass over the forests with
    m - 1 components.
    """
    return _alone(net, _kirchhoff)


def _kw_minor(
    p: ForestPass, X: Sequence[int], Y: Sequence[int], Z: Sequence[int], signed: bool = True
) -> Finish:
    net, m = p.net, p.net.m
    xs, ys, zs = tuple(X), tuple(Y), tuple(Z)
    if len(xs) != len(ys):
        raise ValueError("|X| and |Y| must agree")
    pooled = (*xs, *ys, *zs)
    if len(set(pooled)) != len(pooled):
        raise ValueError("X, Y, Z must be disjoint")
    for v in pooled:
        if not net.is_boundary(v):
            raise ValueError(f"vertex {v} is not a boundary vertex")
    p.share("electrical")
    W = tuple(v for v in range(1, m + 1) if v not in set(pooled))
    k = len(xs)
    terms = []
    for pi in itertools.permutations(range(k)):
        sgn = permutation_parity({t: pi[t] for t in range(k)})
        terms.append((sgn, [(xs[t], ys[pi[t]]) for t in range(k)] + [(w,) for w in W]))
    count = k + len(W)  # one component per group
    total = 0

    def add(f: Forest) -> None:
        nonlocal total
        for sgn, groups in terms:
            if separates(f, groups):
                total += sgn * f.units

    p.want(count, add)

    def report(R: ResponseMatrices) -> Report:
        lhs = R.response.take(xs + zs, ys + zs).det()
        factor = -1 if (signed and k % 2 == 1) else 1
        rhs = factor * p.weight(total, count) / p.total("electrical")
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

    return report


def verify_kw_minor(
    net: SuperportNetwork,
    X: Sequence[int],
    Y: Sequence[int],
    Z: Sequence[int],
    *,
    signed: bool = True,
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
    return _alone(net, _kw_minor, X, Y, Z, signed)


# -- superport response identities ---------------------------------------------


def _need_non_roots(net: SuperportNetwork) -> None:
    if not net.non_roots:
        raise NoNonRootVertices("every boundary vertex is a root")


def _entries(p: ForestPass) -> Finish:
    net = p.net
    _need_non_roots(net)
    p.share("valid")
    nr = net.non_roots
    num = {(i, j): 0 for i in nr for j in nr}
    # splitting a non-root off its superport adds one quotient class, so the
    # forests valid relative to any non-root all have m - p components
    count = net.m - net.p

    def add(f: Forest) -> None:
        rel = p.relative(f)
        for i in rel:
            for j in rel:
                num[i, j] += forest_sign(f, net, i, j) * f.units

    p.want(count, add)

    def report(R: ResponseMatrices) -> Report:
        L = R.superport_response
        D = p.total("valid")
        failures: list = []
        for (i, j), total in num.items():
            rhs = p.weight(total, count) / D
            lhs = L.entry(i, j)
            if lhs != rhs:
                failures.append(
                    (lhs, rhs, {"network": network_to_data(net), "entry": [i, j]})
                )
        checks = len(num)
        return _report(
            "response-entries", failures, checks, f"{checks} entries", f"{checks} sums"
        )

    return report


def verify_L_entries(net: SuperportNetwork) -> Report:
    """Every entry of the superport response as a signed forest sum: L_i^j
    sums forest_sign(G, i, j) * w(G) over forests valid relative to both i
    and j, over the valid-forest weight sum."""
    return _alone(net, _entries)


def _det_L(p: ForestPass) -> Finish:
    net = p.net
    _need_non_roots(net)
    p.share("trees", "valid")

    def report(R: ResponseMatrices) -> Report:
        lhs = R.superport_response.det()
        rhs = p.total("trees") / p.total("valid")
        failures: list = []
        if lhs != rhs:
            failures.append((lhs, rhs, {"network": network_to_data(net)}))
        return _report("det-response", failures, 1, rat_str(lhs), rat_str(rhs))

    return report


def verify_det_L(net: SuperportNetwork) -> Report:
    """det L as the ratio of the spanning-tree weight sum to the valid
    forest weight sum."""
    return _alone(net, _det_L)


def verify_valid_minor_sum(net: SuperportNetwork) -> Report:
    """The valid-minor sum identity, in cross-multiplied form:

        (sum over valid I, J of det C_I^J) * det L = det of reduced C,

    where I and J pick one vertex from each superport but the last.  With a
    single superport the sum is the empty 0x0 minor, i.e. 1.
    """
    _need_non_roots(net)
    return _valid_minor_sum(net, response_matrices(net))


def _valid_minor_sum(net: SuperportNetwork, R: ResponseMatrices) -> Report:
    C, L = R.response, R.superport_response
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


def _signed_sum(p: ForestPass) -> Finish:
    net = p.net
    p.share("valid")
    total = 0

    def add(f: Forest) -> None:
        nonlocal total
        for _, sign in p.signed_partitions(f):
            total += sign * f.units

    p.want(net.m - net.p + 1, add)

    def report(R: ResponseMatrices) -> Report:
        lhs = p.weight(total, net.m - net.p + 1)
        rhs = p.total("valid")
        failures: list = []
        if lhs != rhs:
            failures.append((lhs, rhs, {"network": network_to_data(net)}))
        return _report("signed-sum", failures, 1, rat_str(lhs), rat_str(rhs))

    return report


def verify_signed_sum(net: SuperportNetwork) -> Report:
    """The signed partition sum over all forests and XYZW colorings equals
    the plain valid-forest weight sum."""
    return _alone(net, _signed_sum)


def _cancellation(p: ForestPass) -> Finish:
    net = p.net
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

    def add(f: Forest) -> None:
        nonlocal checks
        parts = p.signed_partitions(f)
        if p.valid(f):
            checks += 1
            if len(parts) != 1:
                fail(len(parts), 1, f, "valid forest partition count")
                return
            part, sign = parts[0]
            if part.X or part.Y or sign != 1:
                fail(str(part), "X=Y=empty, sign +1", f, "valid forest partition")
            return
        if not parts:
            return
        checks += 1
        total = sum(sign for _, sign in parts)
        if total != 0:
            fail(total, 0, f, "non-valid forest signed count")
            return
        index = dict(parts)
        mc = main_cycle(net, f)
        if mc is None:
            raise ForestIsValid("the forest's quotient has no cycle")
        for part, sign in parts:
            image = mc.involution(part)
            if image not in index:
                fail(str(image), "a partition of the forest", f, "involution image")
                return
            if image == part:
                fail(str(image), "a different partition", f, "involution fixed point")
                return
            if index[image] != -sign:
                fail(index[image], -sign, f, "involution sign")
                return
            if mc.involution(image) != part:
                fail("f(f(part))", "part", f, "involution squared")
                return

    p.want(net.m - net.p + 1, add)
    return lambda R: _report(
        "partition-cancellation", failures, checks, f"{checks} forests", "structure holds"
    )


def verify_cancellation(net: SuperportNetwork) -> Report:
    """Per-forest structure behind the signed sum.

    A valid forest must carry exactly one partition, with empty X and Y and
    sign +1.  A non-valid forest's partitions must cancel pairwise under the
    involution: f maps each partition to a different partition of the same
    forest with the opposite sign, f o f is the identity, and the signed sum
    over the forest's partitions is zero.  The main cycle that drives f is
    found once per forest.
    """
    return _alone(net, _cancellation)


# -- combinatorial solution and gluing ----------------------------------------------


def _solution(p: ForestPass, circuit: Circuit) -> Callable[[], Solution]:
    """For each nonzero difference at i: the valid forests joining each vertex
    to [i] in the {i}-quotient, and the forests valid relative to i by the
    edges that their path from [i] to [root(i)] crosses."""
    net = p.net
    n, m = net.n, net.m
    p.share("valid")
    terms = [(i, du, net.quotient((i,))) for i, du in circuit.deltas if du != 0]
    volt = {i: [0] * (n + 1) for i, _, _ in terms}
    flow: dict[int, dict[tuple[int, int], int]] = {i: {} for i, _, _ in terms}

    def add_voltages(f: Forest) -> None:
        if not p.valid(f):
            return
        for i, _, qg in terms:
            root = quotient_components(qg, f)[0]
            ci = root[qg.class_of[i]]
            units = volt[i]
            for v in range(1, n + 1):
                if root[qg.class_of[v]] == ci:
                    units[v] += f.units

    def add_currents(f: Forest) -> None:
        rel = p.relative(f)
        for i, _, qg in terms:
            if i not in rel:
                continue
            units = flow[i]
            for key in quotient_path(net, qg, f, i, net.root_of[i]):
                units[key] = units.get(key, 0) + f.units

    p.want(net.m - net.p + 1, add_voltages)
    p.want(net.m - net.p, add_currents)

    def solution() -> Solution:
        # voltage sums run over valid forests and current sums over forests
        # with one edge more, so against the valid total only one factor of
        # the scale is left, on the currents
        valid = p.units["valid"]
        voltages = tuple(
            sum((du * (volt[i][v] - volt[i][m]) for i, du, _ in terms), Fraction(0)) / valid
            for v in range(1, n + 1)
        )
        table = [[Fraction(0)] * n for _ in range(n)]
        for u, v, _ in net.edges:
            through = sum(
                (du * (flow[i].get((u, v), 0) - flow[i].get((v, u), 0)) for i, du, _ in terms),
                Fraction(0),
            )
            cur = through / (valid * p.scale)
            table[u - 1][v - 1] = cur
            table[v - 1][u - 1] = -cur
        incoming = tuple(sum(table[k - 1], Fraction(0)) for k in range(1, m + 1))
        return Solution(
            voltages=voltages,
            currents=tuple(tuple(r) for r in table),
            incoming=incoming,
        )

    return solution


def combinatorial_solution(circuit: Circuit) -> Solution:
    """Voltages and currents from the forest formulas, bypassing the linear
    solver entirely.

    The voltage at k sums, over the prescribed differences, the weights of
    valid forests joining [k] to [i] in the quotient by the {i}-equivalence;
    the current along an oriented edge sums weights of forests valid
    relative to i whose quotient path from [i] to [root(i)] traverses that
    edge, minus the reverse traversals.  Voltages are normalized to vanish
    at the last boundary vertex, like the solver's.
    """
    p = ForestPass(circuit.network)
    solution = _solution(p, circuit)
    p.run()
    return solution()


def _forest_solution(p: ForestPass, circuit: Circuit) -> Finish:
    solution = _solution(p, circuit)

    def report(R: ResponseMatrices) -> Report:
        failures: list = []
        if solve(circuit) != solution():
            failures.append(
                (
                    "solver solution",
                    "forest-formula solution",
                    {"network": network_to_data(p.net), "deltas": [
                        [k, rat_str(d)] for k, d in circuit.deltas
                    ]},
                )
            )
        return _report("forest-solution", failures, 1, "solver", "forest formulas")

    return report


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
        "edges": [{"u": a, "v": b, "c": c} for (a, b), c in sorted(acc.items())],
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
    trees = enumerate_spanning_forests(
        complete_network(m), lambda f: f.component_count == 1, cap=cap
    )
    brute = sum(1 for _ in trees)
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
    required: set[int] = set()
    pair_index = {(u, v): idx for idx, (u, v, _) in enumerate(net.edges)}
    for g in groups:
        tree = (
            _random_tree_edges(g, rng)
            if rng is not None
            else [(g[t], g[t + 1]) for t in range(len(g) - 1)]
        )
        required.update(pair_index[e] for e in tree)
    quotient = net.quotient()
    valid_count = containing = 0
    for f in enumerate_spanning_forests(net, cap=cap):
        if quotient_is_tree(quotient, f):
            valid_count += 1
        if f.component_count == 1 and required.issubset(f.edges):
            containing += 1
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
    L_box = response_matrices(box).superport_response
    L_h = response_matrices(h).superport_response
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


def _plan_kw(p: ForestPass, rng: Optional[random.Random]) -> list[Finish]:
    m = p.net.m
    minors = [((1,), (2,), ())] if m >= 2 else []
    minors.append(((), (), tuple(range(1, m))))
    if rng is not None:
        minors.append(random_xyzw(rng, m))
    return [_kw_minor(p, X, Y, Z) for X, Y, Z in minors]


def _plan_solution(p: ForestPass, rng: Optional[random.Random]) -> list[Finish]:
    circuit = random_circuit(rng if rng is not None else random.Random(0), p.net)
    return [_forest_solution(p, circuit)]


def _plan_gluing(p: ForestPass) -> list[Finish]:
    return [
        lambda R, circuit=unit_circuit(p.net, i), i=i: verify_gluing(circuit, i)
        for i in p.net.non_roots
    ]


# theorem -> registers the forest sums of its reports on the pass and returns
# the step that finishes each report; random choices are drawn here, before
# the pass, in the order the theorems are named.  A theorem whose
# preconditions the network does not meet has no reports.
_PLANS = {
    "kirchhoff": lambda p, rng: [_kirchhoff(p)] if p.net.m >= 2 else [],
    "kw": _plan_kw,
    "entries": lambda p, rng: [_entries(p)] if p.net.non_roots else [],
    "detl": lambda p, rng: [_det_L(p)] if p.net.non_roots else [],
    "minorsum": lambda p, rng: (
        [functools.partial(_valid_minor_sum, p.net)] if p.net.non_roots else []
    ),
    "signedsum": lambda p, rng: [_signed_sum(p), _cancellation(p)],
    "gluing": lambda p, rng: _plan_gluing(p),
    "solution": _plan_solution,
}


# the theorems whose finish steps read K, C or L; the others (signed sum and
# cancellation, gluing, forest solution) are finished without them
_READS_MATRICES = frozenset({"kirchhoff", "kw", "entries", "detl", "minorsum"})


def _finish(steps: list[Finish], R: Optional[ResponseMatrices]) -> list[Report]:
    return [step(R) for step in steps]


# theorem -> makes its reports once the pass has run, from the network's K, C
# and L: the matrix side and the comparisons.  Every entry is the same
# function; one entry per theorem lets a caller wrap, and so time, each
# theorem on its own.
THEOREMS = dict.fromkeys(_PLANS, _finish)


def run_verifications(
    net: SuperportNetwork,
    theorems: Iterable[str],
    *,
    rng: Optional[random.Random] = None,
    cap: Optional[int] = DEFAULT_CAP,
) -> list[Report]:
    """Run the named identity checks on one network in a single forest pass.

    Each theorem first registers the sums its reports need; one enumeration
    then hands every forest to the sums that want its component count; K, C
    and L are built once, if a theorem with reports reads them; last, each
    theorem's THEOREMS entry makes its reports.  Checks whose preconditions
    the network does not meet are skipped (a network with all-root boundary
    has no response to verify).
    """
    names = list(theorems)
    if "all" in names:
        names = list(THEOREMS)
    for name in names:
        if name not in THEOREMS:
            raise ValueError(f"unknown theorem {name!r}")
    p = ForestPass(net)
    plans = [(name, _PLANS[name](p, rng)) for name in names]
    p.run(cap=cap)
    reads = any(steps for name, steps in plans if name in _READS_MATRICES)
    matrices = response_matrices(net) if reads else None
    reports: list[Report] = []
    for name, steps in plans:
        reports.extend(THEOREMS[name](steps, matrices))
    return reports
