"""Executable statements of the matrix-tree identities.

Each verifier computes both sides of one identity by genuinely independent
routes: the matrix side by exact linear algebra on the response matrices,
the combinatorial side by explicit enumeration of spanning forests.  All
comparisons are exact rational equality.  A report counts its comparisons
and names the first that failed: its two sides, and a witness that holds
the network and where the comparison was made, such as an entry or a forest.

The forest side of every identity is read from the grove table of one
`ForestPass`, which adds the forests' integer units by (edge count,
boundary pattern).  The forests of one pattern with one component per class
make a grove partition function, one key of the table, which `_grove` looks
up.  Kirchhoff's two parts read only such keys: they are the Kenyon-Wilson
all-minors formula with |X| = 0 (Z = 1..m-1, whose one group is {m}: the
trees, pattern 1, ..., 1) and |X| = 1 (C_i^j, whose groups pair i with j
and isolate the rest), each over the electrical weight H (one boundary
vertex per component, pattern 1, 2, ..., m).  A family that spans many
patterns is a signed sum, `weight(count, sign)`, which adds the units of
the keys with `count` components, each times `sign(key)`, and divides by
the scale once: the valid forests (m - p + 1) signed by their validity, the
signed sum by each key's signed partitions, and `_all_minors`, a
Kenyon-Wilson minor's forest side, by the permutation each key's pattern
pairs.  Only the entries of L, the forest sign on forests valid relative to
both non-roots (m - p), need a sum per pair: `_entry_sums` makes them in
one scan of the table, adding each key to every pair of non-roots it is
valid relative to.  The tests hold the lookups to `_all_minors` and the
scan to `weight`, the general form, pair by pair.  Validity, signs,
groupings and signed partitions are decided once per key.  The statements
about single forests, the cancellation involution and the combinatorial
voltages and currents, register takers on the pass instead, which receive
each forest whose key admits it; the cancellation searches for the main
cycle on one forest of each key whose quotients have one cycle, and checks
its involution once per key and main-cycle ends.  `run_verifications`
registers what every requested theorem needs, enumerates once if any of
them reads forests, and then lets each theorem sum and compare; K, C and L
are built once, by the first report that reads them, and the valid weight
once per pass (`ForestPass.valid_weight`).  A standalone verifier runs the
same sums on a pass of its own, through the same steps.  An exception
raised inside a taker, while the pass decides a key's facts, or in a
finish step is the program's fault, not the identity's, but it still makes
a failed report, whose witness names the error, and the other reports run
on.

Identities covered:

* the all-minors formula for the electrical response (with the corrected
  leading sign, which `signed=False` deliberately drops to expose), and
  Kirchhoff's identities as its minors with |X| = 0 and 1: det of the
  reduced response as a tree/forest weight ratio, and every off-diagonal
  response entry as a grouped forest sum;
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
    CapExceeded,
    CycleEnds,
    Forest,
    ForestIsValid,
    ForestPass,
    Key,
    PatternFacts,
    check_cap,
    main_cycle,
    pattern_cycle_rank,
    pattern_is_tree,
    pattern_separates,
    pattern_sign,
    permutation_parity,
    quotient_components,
    quotient_path,
    walk_forests,
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


class _Checks:
    """The comparisons of one report: it counts them and keeps the first that
    failed, whose witness holds the network, if the report has one, and
    where the comparison was made."""

    def __init__(self, theorem: str, net: Optional[SuperportNetwork] = None):
        self.theorem = theorem
        self.net = net
        self.count = 0
        self.failure: Optional[tuple] = None

    def compare(self, lhs, rhs, **where) -> None:
        """Count one check, and fail it if the two sides differ."""
        self.count += 1
        if lhs != rhs:
            self.fail(lhs, rhs, **where)

    def fail(self, lhs, rhs, **where) -> None:
        """Record a failure, unless an earlier one is kept already."""
        if self.failure is None:
            if self.net is not None:
                where = {"network": network_to_data(self.net), **where}
            self.failure = (lhs, rhs, where)

    def report(self, lhs, rhs) -> Report:
        """The report: the first failure's sides and witness, or else the
        sides given here."""
        if self.failure is None:
            return Report(self.theorem, "pass", str(lhs), str(rhs), self.count)
        flhs, frhs, witness = self.failure
        return Report(self.theorem, "fail", str(flhs), str(frhs), self.count, witness)


# -- the forest side: one pass, sums by component count --------------------------


# A report is built in two steps: `build(p, ...)` asks the pass p for its
# table, and registers takers for statements about single forests, and
# returns `finish`, which sums the table once the pass has run and makes the
# report.  `finish` is handed `matrices`, which returns the network's
# ResponseMatrices and builds them on its first call, so K, C and L are
# built only if a finish step reads them.
Matrices = Callable[[], ResponseMatrices]
Finish = Callable[[Matrices], Report]


def _guarded(theorem: str):
    """Decorate a report's build so that the program's own faults land in
    the report: an exception that a taker it registers raises on a forest,
    that the pass raises while deciding which forests its takers get, or
    that its finish step raises, makes a failed report of `theorem` whose
    witness holds the network, the forest if there is one, and the error,
    and the other reports still run.  An exception raised while building,
    such as an input error, propagates."""

    def decorate(build):
        @functools.wraps(build)
        def guarded(p: ForestPass, *args) -> Finish:
            first = len(p.takers)
            finish = build(p, *args)
            takers = [take for _, take in p.takers[first:]]

            def report(matrices: Matrices) -> Report:
                raised = [p.errors[take] for take in takers if take in p.errors]
                if not raised:
                    try:
                        return finish(matrices)
                    except Exception as exc:
                        raised = [(None, exc)]
                forest, exc = raised[0]
                error = f"{type(exc).__name__}: {exc}"
                where = {} if forest is None else {"forest": list(forest.edges)}
                checks = _Checks(theorem, p.net)
                checks.fail(error, "no error", **where, error=error)
                return checks.report(None, None)

            return report

        return guarded

    return decorate


def _alone(net: SuperportNetwork, build, *args) -> Report:
    """Register one report's sums on a pass of their own, run it, and finish
    the report, building K, C and L only if it reads them."""
    p = ForestPass(net)
    finish = build(p, *args)
    p.run()
    return finish(functools.cache(lambda: response_matrices(net)))


# -- Kirchhoff and Kenyon-Wilson (electrical identities) ---------------------------


def _grove(p: ForestPass, pattern: tuple) -> Fraction:
    """The grove partition function of one boundary pattern: the weight of
    the forests with that pattern whose every component holds a boundary
    vertex, so with one component per class: one key of the table."""
    edges = p.net.n - len(set(pattern))
    return Fraction(p.units.get((edges, pattern), 0), p.scale ** edges)


def _electrical(p: ForestPass) -> Fraction:
    """The weight of the forests with one boundary vertex in each of m components."""
    return _grove(p, tuple(range(1, p.net.m + 1)))


def _all_minors(
    p: ForestPass, X: tuple, Y: tuple, Z: tuple, electrical: Fraction, signed=True
) -> Fraction:
    """The forest side of the all-minors formula for det C.take(X + Z, Y + Z):
    (-1)^|X| (dropped when not `signed`) times the weight of the forests
    whose groups pair each x_t with y_pi(t) and isolate the rest of the
    boundary, each signed by sgn(pi), over the electrical weight."""
    W = tuple(v for v in range(1, p.net.m + 1) if v not in {*X, *Y, *Z})
    k = len(X)

    def sign(key: Key) -> int:
        """sgn(pi) for the permutation pi whose groups the key's pattern
        separates, 0 if there is none.  There is at most one: each x_t must
        share its component with exactly one y, and that y is y_pi(t)."""
        pattern = key[1]
        y_in = {pattern[y - 1]: s for s, y in enumerate(Y)}
        pi = [y_in.get(pattern[x - 1]) for x in X]
        if None in pi:
            return 0
        groups = [*zip(X, (Y[s] for s in pi)), *((w,) for w in W)]
        if not pattern_separates(pattern, groups):
            return 0
        return permutation_parity(dict(enumerate(pi)))

    factor = -1 if (signed and k % 2 == 1) else 1
    return factor * p.weight(k + len(W), sign) / electrical


@_guarded("kirchhoff")
def _kirchhoff(p: ForestPass) -> Finish:
    net, m = p.net, p.net.m
    if m < 2:
        raise ValueError("the identity needs at least two boundary vertices")
    p.want()

    def report(matrices: Matrices) -> Report:
        R = matrices()
        C = R.response
        H = _electrical(p)
        checks = _Checks("kirchhoff", net)
        # part 1 is the minor with Z = 1..m-1: one group, {m}, so the trees
        det_reduced = R.reduced_det
        ratio = _grove(p, (1,) * m) / H
        checks.compare(det_reduced, ratio, part=1)
        # part 2 is the 1x1 minors C_i^j, -1 times the forests pairing i
        # with j and isolating the rest over H; C_j^i has the same forest side
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                paired = tuple(i if v == j else v for v in range(1, m + 1))
                entry, rhs = C.entry(i, j), -_grove(p, paired) / H
                for lhs in (entry, C.entry(j, i)):
                    checks.compare(lhs, rhs, part=2, entry=[i, j])
        return checks.report(rat_str(det_reduced), rat_str(ratio))

    return report


def verify_kirchhoff(net: SuperportNetwork) -> Report:
    """Both parts of the electrical matrix-tree identity, as the all-minors
    formula with |X| = 0 and |X| = 1.

    (1) det of the response with the last row and column dropped equals the
    tree-weight sum over the valid-forest-weight sum; (2) for i < j the
    response entries C_i^j and C_j^i are minus the weight sum of
    (m-1)-component forests pairing i with j and isolating every other
    boundary vertex, over the same denominator.
    """
    return _alone(net, _kirchhoff)


@_guarded("kenyon-wilson")
def _kw_minor(
    p: ForestPass, X: Sequence[int], Y: Sequence[int], Z: Sequence[int], signed: bool = True
) -> Finish:
    net = p.net
    xs, ys, zs = tuple(X), tuple(Y), tuple(Z)
    if len(xs) != len(ys):
        raise ValueError("|X| and |Y| must agree")
    pooled = (*xs, *ys, *zs)
    if len(set(pooled)) != len(pooled):
        raise ValueError("X, Y, Z must be disjoint")
    for v in pooled:
        if not net.is_boundary(v):
            raise ValueError(f"vertex {v} is not a boundary vertex")
    p.want()

    def report(matrices: Matrices) -> Report:
        lhs = matrices().response.take(xs + zs, ys + zs).det()
        rhs = _all_minors(p, xs, ys, zs, _electrical(p), signed)
        checks = _Checks("kenyon-wilson", net)
        checks.compare(lhs, rhs, X=list(xs), Y=list(ys), Z=list(zs), signed=signed)
        return checks.report(rat_str(lhs), rat_str(rhs))

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


def _entry_sums(p: ForestPass) -> dict[tuple[int, int], Fraction]:
    """By each pair of non-roots (i, j), in one scan of the table: the
    weight of the forests valid relative to both, each signed by
    forest_sign(i, j), which is L_i^j times the valid weight.  Splitting a
    non-root off its superport adds one quotient class, so those forests
    all have m - p components.  `p.weight(m - p, sign)`, signed by
    forest_sign(i, j) on the keys valid relative to i and j and 0 on the
    rest, makes the same weight pair by pair."""
    net = p.net
    edges = net.n - (net.m - net.p)
    units = dict.fromkeys(itertools.product(net.non_roots, repeat=2), 0)
    for key, u in p.units.items():
        if key[0] == edges:
            relative = p.facts(key).relative
            for i in relative:
                for j in relative:
                    units[i, j] += pattern_sign(net, key[1], i, j) * u
    scale = p.scale ** edges
    return {pair: Fraction(u, scale) for pair, u in units.items()}


@_guarded("response-entries")
def _entries(p: ForestPass) -> Finish:
    net = p.net
    _need_non_roots(net)
    p.want()
    nr = net.non_roots

    def report(matrices: Matrices) -> Report:
        L = matrices().superport_response
        D = p.valid_weight
        sums = _entry_sums(p)
        checks = _Checks("response-entries", net)
        for i in nr:
            for j in nr:
                checks.compare(L.entry(i, j), sums[i, j] / D, entry=[i, j])
        return checks.report(f"{checks.count} entries", f"{checks.count} sums")

    return report


def verify_L_entries(net: SuperportNetwork) -> Report:
    """Every entry of the superport response as a signed forest sum: L_i^j
    sums forest_sign(G, i, j) * w(G) over forests valid relative to both i
    and j, over the valid-forest weight sum."""
    return _alone(net, _entries)


@_guarded("det-response")
def _det_L(p: ForestPass) -> Finish:
    net = p.net
    _need_non_roots(net)
    p.want()

    def report(matrices: Matrices) -> Report:
        lhs = matrices().superport_response.det()
        rhs = _grove(p, (1,) * net.m) / p.valid_weight
        checks = _Checks("det-response", net)
        checks.compare(lhs, rhs)
        return checks.report(rat_str(lhs), rat_str(rhs))

    return report


def verify_det_L(net: SuperportNetwork) -> Report:
    """det L as the ratio of the spanning-tree weight sum to the valid
    forest weight sum."""
    return _alone(net, _det_L)


# the most minors the valid-minor sum takes: each is a determinant, so
# 59,049 of them take over a second and 531,441 about fifteen
MINOR_SUM_BOUND = 10_000


@_guarded("valid-minor-sum")
def _minor_sum(p: ForestPass) -> Finish:
    net = p.net
    _need_non_roots(net)
    choices = [list(sp) for sp in net.superports[:-1]]
    minors = math.prod(map(len, choices)) ** 2
    if minors > MINOR_SUM_BOUND:
        raise CapExceeded(
            f"the valid-minor sum needs {minors} minors, above the bound {MINOR_SUM_BOUND}"
        )

    def report(matrices: Matrices) -> Report:
        R = matrices()
        C, L = R.response, R.superport_response
        det_reduced = R.reduced_det
        total = Fraction(0)
        count = 0
        for I in itertools.product(*choices):
            for J in itertools.product(*choices):
                total += C.take(I, J).det()
                count += 1
        lhs = total * L.det()
        checks = _Checks("valid-minor-sum", net)
        checks.compare(lhs, det_reduced, pairs=count)
        return checks.report(rat_str(lhs), rat_str(det_reduced))

    return report


def verify_valid_minor_sum(net: SuperportNetwork) -> Report:
    """The valid-minor sum identity, in cross-multiplied form:

        (sum over valid I, J of det C_I^J) * det L = det of reduced C,

    where I and J pick one vertex from each superport but the last.  With a
    single superport the sum is the empty 0x0 minor, i.e. 1.  More than
    `MINOR_SUM_BOUND` minors are refused with `CapExceeded`.
    """
    return _alone(net, _minor_sum)


@_guarded("signed-sum")
def _signed_sum(p: ForestPass) -> Finish:
    net = p.net
    count = net.m - net.p + 1
    p.want()

    def report(matrices: Matrices) -> Report:
        lhs = p.weight(count, lambda key: sum(sign for _, sign in p.facts(key).partitions))
        rhs = p.valid_weight
        checks = _Checks("signed-sum", net)
        checks.compare(lhs, rhs)
        return checks.report(rat_str(lhs), rat_str(rhs))

    return report


def verify_signed_sum(net: SuperportNetwork) -> Report:
    """The signed partition sum over all forests and XYZW colorings equals
    the plain valid-forest weight sum."""
    return _alone(net, _signed_sum)


@_guarded("partition-cancellation")
def _cancellation(p: ForestPass) -> Finish:
    net = p.net
    checks = _Checks("partition-cancellation", net)

    def fail(lhs, rhs, forest: Forest, note: str) -> None:
        checks.fail(lhs, rhs, forest=list(forest.edges), note=note)

    m1 = net.m + 1
    # key -> the signed count of its partitions, and whether its quotients have one cycle
    decided: dict = {}
    key_ends: dict = {}  # one-cycle key -> the main-cycle ends of its first forest
    faults: dict = {}  # (key, main-cycle ends) -> how the involution fails, or None

    def add(f: Forest, facts: PatternFacts) -> None:
        valid, _, parts = facts
        checks.count += 1
        if valid:
            if len(parts) != 1:
                fail(len(parts), 1, f, "valid forest partition count")
                return
            part, sign = parts[0]
            if part.X or part.Y or sign != 1:
                fail(str(part), "X=Y=empty, sign +1", f, "valid forest partition")
            return
        key = (len(f.edges), f.components[1:m1])
        if key not in decided:
            decided[key] = sum(sign for _, sign in parts), pattern_cycle_rank(net, key[1]) == 1
        signed, one_cycle = decided[key]
        if signed != 0:
            fail(signed, 0, f, "non-valid forest signed count")
            return
        # the key fixes the signed partitions and the involution reads only
        # the cycle's ends, in either order, so every forest sharing both
        # fares alike; the forests of a one-cycle key share their ends up to
        # orientation, so the key's first forest gives them
        ends = key_ends.get(key)
        if ends is None:
            mc = main_cycle(net, f)
            if mc is None:
                raise ForestIsValid("the forest's quotient has no cycle")
            ends = mc.ends
            if one_cycle:
                key_ends[key] = ends
        shared = (key, ends)
        if shared not in faults:
            faults[shared] = _involution_fault(ends, parts)
        if faults[shared] is not None:
            lhs, rhs, note = faults[shared]
            fail(lhs, rhs, f, note)

    # valid forests and non-valid forests with partitions
    p.want(lambda facts: facts.valid or bool(facts.partitions), add)
    return lambda matrices: checks.report(f"{checks.count} forests", "structure holds")


def _involution_fault(ends: CycleEnds, parts) -> Optional[tuple]:
    """The first way the involution these cycle ends drive fails on a
    forest's signed partitions, as (lhs, rhs, note), or None if it pairs
    them off."""
    index = dict(parts)
    for part, sign in parts:
        image = ends.involution(part)
        if image not in index:
            return str(image), "a partition of the forest", "involution image"
        if image == part:
            return str(image), "a different partition", "involution fixed point"
        if index[image] != -sign:
            return index[image], -sign, "involution sign"
        if ends.involution(image) != part:
            return "f(f(part))", "part", "involution squared"
    return None


def verify_cancellation(net: SuperportNetwork) -> Report:
    """Per-forest structure behind the signed sum.

    A valid forest must carry exactly one partition, with empty X and Y and
    sign +1.  A non-valid forest's partitions must cancel pairwise under the
    involution: f maps each partition to a different partition of the same
    forest with the opposite sign, f o f is the identity, and the signed sum
    over the forest's partitions is zero.  The key fixes the signed
    partitions, and f reads only the ends of the forest's main cycle, in
    either order.  So the signed count is decided once per key.  When the
    key's quotients have one cycle (`forests.pattern_cycle_rank`), its
    forests share those ends up to orientation: the main cycle is searched
    for on the key's first forest only, and the involution checked once for
    the key.  On the other keys the main cycle is searched for on each
    forest, and the involution checked once per key and ends.
    """
    return _alone(net, _cancellation)


# -- combinatorial solution and gluing ----------------------------------------------


def _solution(p: ForestPass, circuit: Circuit) -> Callable[[], Solution]:
    """For each nonzero difference at i: the valid forests joining each vertex
    to [i] in the {i}-quotient, and the forests valid relative to i by the
    edges that their path from [i] to [root(i)] crosses."""
    net = p.net
    n, m = net.n, net.m
    terms = [(i, du, net.quotient((i,))) for i, du in circuit.deltas if du != 0]
    volt = {i: [0] * (n + 1) for i, _, _ in terms}
    flow = {i: [0] * len(net.edges) for i, _, _ in terms}

    def add_voltages(f: Forest, _: PatternFacts) -> None:
        for i, _, qg in terms:
            root = quotient_components(qg, f)[0]
            ci = root[qg.class_of[i]]
            units = volt[i]
            for v in range(1, n + 1):
                if root[qg.class_of[v]] == ci:
                    units[v] += f.units

    def add_currents(f: Forest, facts: PatternFacts) -> None:
        for i, _, qg in terms:
            if i not in facts.relative:
                continue
            units = flow[i]
            for e, direction in quotient_path(qg, f, i, net.root_of[i]):
                units[e] += direction * f.units

    p.want(lambda facts: facts.valid, add_voltages)
    p.want(lambda facts: any(i in facts.relative for i, _, _ in terms), add_currents)

    def solution() -> Solution:
        # voltage sums add the units of valid forests and current sums those
        # of forests with one edge more, so against the valid forests' units
        # only one factor of the scale is left, on the currents
        valid = p.valid_weight * p.scale ** (n - (m - net.p + 1))
        voltages = tuple(
            sum((du * (volt[i][v] - volt[i][m]) for i, du, _ in terms), Fraction(0)) / valid
            for v in range(1, n + 1)
        )
        currents = [
            sum((du * flow[i][e] for i, du, _ in terms), Fraction(0)) / (valid * p.scale)
            for e in range(len(net.edges))
        ]
        return Solution.from_edge_currents(net, voltages, currents)

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
    for _, exc in p.errors.values():
        raise exc
    return solution()


@_guarded("forest-solution")
def _forest_solution(p: ForestPass, circuit: Circuit) -> Finish:
    solution = _solution(p, circuit)

    def report(matrices: Matrices) -> Report:
        checks = _Checks("forest-solution", p.net)
        checks.count = 1
        if solve(circuit) != solution():
            deltas = [[k, rat_str(d)] for k, d in circuit.deltas]
            checks.fail("solver solution", "forest-formula solution", deltas=deltas)
        return checks.report("solver", "forest formulas")

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
    become vertices; loops vanish, and the loader sums parallel edges.
    The boundary is the pair [i], [root(i)] with voltages 1 and 0, encoded
    as the difference at the pair's non-root after canonical relabeling.
    """
    net = circuit.network
    qg = net.quotient((i,))
    labels = qg.labels
    moved = ((labels[qg.class_of[u]], labels[qg.class_of[v]], c) for u, v, c in net.edges)
    bi = labels[qg.class_of[i]]
    br = labels[qg.class_of[net.root_of[i]]]
    raw = {
        "vertices": len(qg.classes),
        "edges": [(a, b, c) for a, b, c in moved if a != b],
        "superports": [[bi, br]],
    }
    quot_net, mapping = validate_and_canonicalize(raw, merge_parallel=True)
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
    if circuit.delta_map != unit_circuit(net, i).delta_map:
        raise ValueError("gluing requires difference 1 at i and 0 elsewhere")

    sol = solve(circuit)
    quot_circuit, vmap = _glued_circuit(circuit, i)
    qsol = solve(quot_circuit)

    checks = _Checks("gluing", net)
    for u, v, c in net.edges:
        quot_current = c * (qsol.voltages[vmap[u] - 1] - qsol.voltages[vmap[v] - 1])
        checks.compare(sol.currents[u - 1][v - 1], quot_current, i=i, edge=[u, v])
    const = qsol.voltages[vmap[1] - 1] - sol.voltages[0]
    for v in range(1, net.n + 1):
        diff = qsol.voltages[vmap[v] - 1] - sol.voltages[v - 1]
        checks.compare(diff, const, i=i, vertex=v)
    return checks.report(f"{checks.count} comparisons", "quotient agrees")


# -- counting corollaries and Box-H ----------------------------------------------


def complete_network(m: int) -> SuperportNetwork:
    """Complete graph on 1..m, unit conductances, all vertices boundary."""
    if m < 1:
        raise ValueError("need at least one vertex")
    edges = [(u, v, Fraction(1)) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    return canonical_network(edges, [list(range(1, m + 1))])


def cayley_count(m: int, *, cap: Optional[int] = DEFAULT_CAP) -> tuple[int, int]:
    """(enumerated spanning trees of the unit complete graph, m ** (m-2))."""
    check_cap(math.comb(max(m, 0), 2), cap)
    brute = sum(len(edges) == m - 1 for edges, *_ in walk_forests(complete_network(m), cap=cap))
    closed = int(Fraction(m) ** (m - 2))
    return brute, closed


def verify_cayley(m: int, *, cap: Optional[int] = DEFAULT_CAP) -> Report:
    brute, closed = cayley_count(m, cap=cap)
    checks = _Checks("tree-count")
    checks.compare(brute, closed, m=m)
    return checks.report(brute, closed)


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
    cap: Optional[int] = DEFAULT_CAP,
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
    firsts = itertools.accumulate(sizes, initial=1)
    groups = [list(range(first, first + s)) for first, s in zip(firsts, sizes)]
    net = canonical_network(complete_network(n).edges, groups)
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
    for edges, labels, _, _ in walk_forests(net, cap=cap):
        if pattern_is_tree(quotient, len(edges), labels[1 : net.m + 1]):
            valid_count += 1
        if len(edges) == n - 1 and required.issubset(edges):
            containing += 1
    closed = int(Fraction(n) ** (r - 2) * math.prod(sizes))

    checks = _Checks("grouped-tree-count")
    checks.count = 1
    if not (valid_count == containing == closed):
        counted = f"valid={valid_count}, containing={containing}"
        checks.fail(counted, closed, sizes=list(sizes))
    return checks.report(f"{valid_count}/{containing}", closed)


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
    L_box, L_h = (
        [[rat_str(x) for x in row] for row in response_matrices(n).superport_response.entries]
        for n in (box, h)
    )
    checks = _Checks("box-h")
    sides = dict(zip("abcd", (rat_str(rat(x)) for x in (a, b, c, d))))
    checks.compare(L_box, L_h, **sides)
    return checks.report("box response", "h response")


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


def random_circuit(rng: random.Random, net: SuperportNetwork) -> Circuit:
    """Random differences at the non-roots, numerators -10..10 over 1..10."""
    deltas = {
        k: Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for k in net.non_roots
    }
    return make_circuit(net, deltas)


def random_xyzw(
    rng: random.Random, m: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Random ordered X, Y of at most two vertices each and unordered Z over
    the boundary 1..m; the rest is the implied W."""
    k = rng.randint(0, min(2, m // 2))
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


@_guarded("gluing")
def _gluing(p: ForestPass, i: int) -> Finish:
    circuit = unit_circuit(p.net, i)
    return lambda matrices: verify_gluing(circuit, i)


# theorem -> asks the pass for what its reports read and returns the step
# that finishes each report; random choices are drawn here, before
# the pass, in the order the theorems are named.  A theorem whose
# preconditions the network does not meet has no reports.
_PLANS = {
    "kirchhoff": lambda p, rng: [_kirchhoff(p)] if p.net.m >= 2 else [],
    "kw": _plan_kw,
    "entries": lambda p, rng: [_entries(p)] if p.net.non_roots else [],
    "detl": lambda p, rng: [_det_L(p)] if p.net.non_roots else [],
    "minorsum": lambda p, rng: [_minor_sum(p)] if p.net.non_roots else [],
    "signedsum": lambda p, rng: [_signed_sum(p), _cancellation(p)],
    "gluing": lambda p, rng: [_gluing(p, i) for i in p.net.non_roots],
    "solution": _plan_solution,
}


def _finish(steps: list[Finish], matrices: Matrices) -> list[Report]:
    return [step(matrices) for step in steps]


# theorem -> makes its reports once the pass has run, from the grove table
# and, if they read them, the network's K, C and L: the sums, the matrix
# side and the comparisons.  Every entry is the same function; one entry
# per theorem lets a caller wrap, and so time, each theorem on its own.
THEOREMS = dict.fromkeys(_PLANS, _finish)


def run_verifications(
    net: SuperportNetwork,
    theorems: Iterable[str],
    *,
    rng: Optional[random.Random] = None,
    cap: Optional[int] = DEFAULT_CAP,
) -> list[Report]:
    """Run the named identity checks on one network in a single forest pass.

    Each theorem first asks for what its reports need; one enumeration then
    fills the grove table and hands each forest to the takers its key
    admits, unless no theorem asked for the table; last, each theorem's
    THEOREMS entry sums the table and makes its reports.  K, C and L are
    built once, when the first report reads them.  Checks whose
    preconditions the network does not meet are skipped (a network with
    all-root boundary has no response to verify).
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
    matrices = functools.cache(lambda: response_matrices(net))
    reports: list[Report] = []
    for name, steps in plans:
        reports.extend(THEOREMS[name](steps, matrices))
    return reports
