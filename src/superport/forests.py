"""Spanning-forest enumeration and the combinatorial side of the theory.

Everything here is brute force on purpose: forests are enumerated one by one
and weighed exactly, so the sums produced are independent oracles for the
matrix identities, not re-derivations of them.

Conventions.  A spanning forest is any acyclic edge subset together with all
n vertices (isolated vertices allowed); its weight is the product of its edge
conductances, the empty product being 1.  Validity of a forest means its
image in the quotient by the superport equivalence is a spanning tree; the
same notion relative to a vertex set X uses the X-equivalence, which splits
the members of X off their superports.

Each identity sums over one family of forests, and every forest of a family
has the same number of components, so `ForestEnsemble` indexes its forests by
component count once (`with_components`).  With m boundary vertices in p
superports: trees have 1 component; valid forests and the forests carrying
XYZW partitions have m - p + 1; forests valid relative to a non-root have
m - p; forests whose quotient with k classes is a tree have n - k + 1; a
Kirchhoff or Kenyon-Wilson grouping has one component per group.  One
union-find over quotient classes, `quotient_components`, serves validity,
forest signs and the combinatorial voltages; enumeration keeps its own
because it must undo each join.

The sign structures (forest signs, XYZW partitions, the main cycle, and the
sign-reversing involution on partitions) follow the definitions used by the
superport matrix-tree identities; see the verify module for the statements
they feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .network import QuotientGraph, SuperportNetwork

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "Forest",
    "ForestEnsemble",
    "ForestIsValid",
    "MainCycle",
    "XYZWPartition",
    "enumerate_spanning_forests",
    "forest_sign",
    "involution_f",
    "is_relatively_valid",
    "is_valid",
    "main_cycle",
    "partition_sign",
    "partitions_for_forest",
    "permutation_parity",
    "quotient_components",
    "quotient_is_tree",
    "simple_quotient_cycles",
]

DEFAULT_CAP = 20


class CapExceeded(Exception):
    """The network has more edges than the enumeration cap allows."""


def check_cap(edge_count: int, cap: Optional[int]) -> None:
    if cap is not None and edge_count > cap:
        raise CapExceeded(f"{edge_count} edges exceed the enumeration cap {cap}")


class ForestIsValid(Exception):
    """The involution is undefined: the forest has no quotient cycle."""


class Forest(NamedTuple):
    """One spanning forest.

    `edges` holds edge indices into the network's edge tuple, ascending.
    `components[v]` is the smallest vertex in v's component (entry 0 is
    padding), so two vertices are connected iff their entries agree.
    """

    edges: tuple[int, ...]
    components: tuple[int, ...]
    weight: Fraction

    @property
    def component_count(self) -> int:
        return (len(self.components) - 1) - len(self.edges)


def enumerate_spanning_forests(
    net: SuperportNetwork,
    predicate: Optional[Callable[[Forest], bool]] = None,
    *,
    cap: Optional[int] = DEFAULT_CAP,
) -> Iterator[Forest]:
    """Yield every spanning forest exactly once.

    The order is lexicographic in the edge-index tuples: (), (0,), (0, 1),
    (0, 1, 2), (0, 2), (1,), ...  A predicate filters the output without
    affecting the traversal.  Acyclicity is maintained incrementally by a
    union-find with rollback, so cyclic subsets are never entered.
    """
    E = len(net.edges)
    check_cap(E, cap)
    n = net.n
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    low = list(range(n + 1))  # least vertex per root, for component labels

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    chosen: list[int] = []
    weight = [Fraction(1)]

    def snapshot() -> Forest:
        comps = [0] * (n + 1)
        for v in range(1, n + 1):
            comps[v] = low[find(v)]
        return Forest(tuple(chosen), tuple(comps), weight[0])

    def rec(start: int) -> Iterator[Forest]:
        f = snapshot()
        if predicate is None or predicate(f):
            yield f
        for i in range(start, E):
            u, v, c = net.edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            old_low = low[ru]
            if low[rv] < old_low:
                low[ru] = low[rv]
            chosen.append(i)
            weight[0] *= c
            yield from rec(i + 1)
            weight[0] /= c
            chosen.pop()
            low[ru] = old_low
            size[ru] -= size[rv]
            parent[rv] = rv

    return rec(0)


def quotient_components(qg: QuotientGraph, forest: Forest) -> tuple[list[int], bool]:
    """Join the quotient classes at the two ends of every forest edge.

    Returns the least class of each class's component, and whether the image
    is acyclic, i.e. no edge fell inside one component already.  Links
    always point from a larger class to a smaller one, so one ascending pass
    resolves every label.
    """
    least = list(range(len(qg.classes)))
    acyclic = True
    for e in forest.edges:
        a, b = qg.edge_classes[e]
        while least[a] != a:
            a = least[a]
        while least[b] != b:
            b = least[b]
        if a == b:
            acyclic = False
        elif a < b:
            least[b] = a
        else:
            least[a] = b
    for c in range(len(least)):
        least[c] = least[least[c]]
    return least, acyclic


def quotient_is_tree(qg: QuotientGraph, forest: Forest) -> bool:
    if len(forest.edges) != len(qg.classes) - 1:
        return False
    return quotient_components(qg, forest)[1]


def is_valid(forest: Forest, net: SuperportNetwork) -> bool:
    """A forest is valid iff contracting each superport turns it into a
    spanning tree."""
    return quotient_is_tree(net.quotient(), forest)


def is_relatively_valid(forest: Forest, net: SuperportNetwork, i: int) -> bool:
    """Validity after splitting vertex i off its superport."""
    if not net.is_boundary(i):
        raise ValueError(f"vertex {i} is not a boundary vertex")
    return quotient_is_tree(net.quotient((i,)), forest)


def forest_sign(forest: Forest, net: SuperportNetwork, i: int, j: int) -> int:
    """+1 if i = j or the classes of i and j fall in different components of
    the forest's quotient by the {i, j}-equivalence; -1 otherwise."""
    if not (net.is_boundary(i) and net.is_boundary(j)):
        raise ValueError("sign is defined for boundary vertices only")
    if i == j:
        return 1
    qg = net.quotient((i, j))
    root = quotient_components(qg, forest)[0]
    return 1 if root[qg.class_of[i]] != root[qg.class_of[j]] else -1


class ForestEnsemble:
    """All spanning forests of one network, enumerated once and reused:
    `forests` in enumeration order, and the same forests by component count.

    Weight sums that several identities share (trees, valid forests,
    quotient-tree weights) are memoized here so that independent checks on
    the same network agree by construction on the shared denominators.
    """

    def __init__(self, net: SuperportNetwork, *, cap: Optional[int] = DEFAULT_CAP):
        self.net = net
        self.forests: list[Forest] = list(enumerate_spanning_forests(net, cap=cap))
        self._by_count: dict[int, list[Forest]] = {}
        for f in self.forests:
            self._by_count.setdefault(f.component_count, []).append(f)
        self._quotient_weights: dict[tuple, Fraction] = {}
        self._valid: Optional[list[Forest]] = None

    def with_components(self, count: int) -> list[Forest]:
        """The forests with exactly `count` components, in enumeration order."""
        return self._by_count.get(count, [])

    def quotient_trees(self, qg: QuotientGraph) -> list[Forest]:
        """The forests whose image in the quotient is a spanning tree."""
        bucket = self.with_components(self.net.n - len(qg.classes) + 1)
        return [f for f in bucket if quotient_is_tree(qg, f)]

    def tree_weight(self) -> Fraction:
        return sum((f.weight for f in self.with_components(1)), Fraction(0))

    def quotient_tree_weight(self, qg: QuotientGraph) -> Fraction:
        key = qg.classes
        if key not in self._quotient_weights:
            self._quotient_weights[key] = sum(
                (f.weight for f in self.quotient_trees(qg)), Fraction(0)
            )
        return self._quotient_weights[key]

    def valid_forests(self) -> list[Forest]:
        if self._valid is None:
            self._valid = self.quotient_trees(self.net.quotient())
        return self._valid

    def valid_weight(self) -> Fraction:
        return self.quotient_tree_weight(self.net.quotient())

    def grouped_weight(self, groups: Sequence[Sequence[int]]) -> Fraction:
        """Sum of weights of forests with exactly len(groups) components in
        which the groups lie in pairwise distinct components (group t inside
        a single component).  Zero groups give 0 by convention."""
        total = Fraction(0)
        for f in self.with_components(len(groups)):
            comps = [{f.components[v] for v in g} for g in groups]
            # one component per group and no component shared: disjoint singletons
            if sum(map(len, comps)) == len(set().union(*comps)) == len(groups):
                total += f.weight
        return total


# -- XYZW partitions ------------------------------------------------------------


@dataclass(frozen=True)
class XYZWPartition:
    """Partition of the boundary into four sets attached to a forest.

    The defining conditions, relative to a forest G with components G_1..G_c:
    (1) the last superport lies in W; (2) every other superport contains
    either exactly one Z vertex or exactly one X and one Y vertex, the rest
    going to W; (3) every component contains either exactly one W vertex or
    exactly one X and one Y vertex, never both kinds.
    """

    X: frozenset[int]
    Y: frozenset[int]
    Z: frozenset[int]
    W: frozenset[int]


def partitions_for_forest(
    net: SuperportNetwork, forest: Forest
) -> Iterator[XYZWPartition]:
    """All XYZW partitions satisfying conditions (1)-(3) for this forest.

    Conditions (1)-(2) fix the choices per superport; condition (3) is then
    filtered per forest component.  The conditions force the component count
    m - p + 1, so other forests yield nothing.
    """
    m, p = net.m, net.p
    if forest.component_count != m - p + 1:
        return
    reps = set(forest.components[1:])
    boundary_reps = {forest.components[v] for v in range(1, m + 1)}
    if reps != boundary_reps:
        # a component without boundary vertices can never satisfy (3)
        return

    per_superport: list[list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]] = []
    for sp in net.superports[:-1]:
        options = []
        for z in sp:
            options.append(((), (), (z,)))
        for x in sp:
            for y in sp:
                if x != y:
                    options.append(((x,), (y,), ()))
        per_superport.append(options)

    def emit(k: int, X: list[int], Y: list[int], Z: list[int]) -> Iterator[XYZWPartition]:
        if k == len(per_superport):
            xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
            ws = frozenset(range(1, m + 1)) - xs - ys - zs
            counts: dict[int, list[int]] = {r: [0, 0, 0] for r in boundary_reps}
            for v in xs:
                counts[forest.components[v]][0] += 1
            for v in ys:
                counts[forest.components[v]][1] += 1
            for v in ws:
                counts[forest.components[v]][2] += 1
            for cx, cy, cw in counts.values():
                if cx != cy or cx > 1 or cw != 1 - cx:
                    return
            yield XYZWPartition(X=xs, Y=ys, Z=zs, W=ws)
            return
        for ox, oy, oz in per_superport[k]:
            yield from emit(k + 1, X + list(ox), Y + list(oy), Z + list(oz))

    yield from emit(0, [], [], [])


def permutation_parity(mapping: dict[int, int]) -> int:
    """Sign of a permutation given as a dict; the empty permutation is +1."""
    seen: set[int] = set()
    sign = 1
    for start in mapping:
        if start in seen:
            continue
        length = 0
        v = start
        while v not in seen:
            seen.add(v)
            v = mapping[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def partition_sign(net: SuperportNetwork, forest: Forest, part: XYZWPartition) -> int:
    """Sign of the forest in the minor the partition encodes.

    sigma pairs each X vertex with the Y vertex in its forest component, tau
    pairs each Y vertex with the X vertex in its superport; the sign is
    (-1)^|X| times the sign of sigma o tau as a permutation of Y.
    """
    sigma: dict[int, int] = {}
    for x in part.X:
        for y in part.Y:
            if forest.components[y] == forest.components[x]:
                sigma[x] = y
                break
        else:
            raise ValueError("no Y vertex shares a component with an X vertex")
    tau: dict[int, int] = {}
    for y in part.Y:
        for x in part.X:
            if net.superport_index[x] == net.superport_index[y]:
                tau[y] = x
                break
        else:
            raise ValueError("no X vertex shares a superport with a Y vertex")
    pi = {y: sigma[tau[y]] for y in part.Y}
    sign = permutation_parity(pi)
    if len(part.X) % 2 == 1:
        sign = -sign
    return sign


# -- the main cycle and the involution --------------------------------------------


class MainCycle(NamedTuple):
    """Canonical simple cycle of a forest's superport quotient.

    `classes` is the vertex string (class labels, starting at the smallest),
    `edges` the network edge indices in traversal order, and `paths` the
    split of those edges into maximal paths of the forest, each as
    (tail, head, edge run) in cycle order.
    """

    classes: tuple[int, ...]
    edges: tuple[int, ...]
    paths: tuple[tuple[int, int, tuple[int, ...]], ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def simple_quotient_cycles(
    net: SuperportNetwork, forest: Forest
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every simple oriented cycle of the forest's quotient, as a (vertex
    string, edge indices) pair, sorted with proper cycles before loops and
    lexicographically within each kind.

    Strings start at the cycle's smallest class label; both orientations of
    a proper cycle appear.  A loop (one edge inside a single class) is a
    length-1 cycle; loops sort after all proper cycles, so they are chosen
    as the main cycle only when no proper cycle exists.
    """
    qg = net.quotient()
    k = len(qg.classes)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    loops: list[tuple[int, int]] = []
    for e in forest.edges:
        a, b = qg.edge_classes[e]
        if a == b:
            loops.append((a, e))
        else:
            adj[a].append((b, e))
            adj[b].append((a, e))

    found: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for a, e in loops:
        found.append((1, (qg.labels[a],), (e,)))

    path_classes: list[int] = []
    path_edges: list[int] = []

    def dfs(s: int, current: int) -> None:
        for b, e in adj[current]:
            if b == s and path_edges:
                if len(path_edges) == 1 and path_edges[0] == e:
                    continue  # the same edge traversed back is not a cycle
                string = tuple(qg.labels[c] for c in path_classes)
                found.append((0, string, tuple(path_edges) + (e,)))
            elif b > s and b not in path_classes:
                path_classes.append(b)
                path_edges.append(e)
                dfs(s, b)
                path_classes.pop()
                path_edges.pop()

    for s in range(k):
        path_classes.append(s)
        dfs(s, s)
        path_classes.pop()

    found.sort()
    return [(string, edges) for _, string, edges in found]


def _oriented_edges(
    net: SuperportNetwork, string: tuple[int, ...], edges: tuple[int, ...]
) -> list[tuple[int, int, int]]:
    """Resolve the traversal into (tail, head, edge index) triples over
    original vertices.  A loop is oriented from its smaller endpoint."""
    qg = net.quotient()
    out = []
    for t, e in enumerate(edges):
        u, v, _ = net.edges[e]
        if len(string) == 1:
            tail, head = min(u, v), max(u, v)
        else:
            tail_label = string[t]
            head_label = string[(t + 1) % len(string)]
            if qg.labels[qg.class_of[u]] == tail_label and qg.labels[qg.class_of[v]] == head_label:
                tail, head = u, v
            else:
                tail, head = v, u
        out.append((tail, head, e))
    return out


def main_cycle(net: SuperportNetwork, forest: Forest) -> Optional[MainCycle]:
    """The canonical cycle of the forest's quotient, split into forest paths.

    None when the quotient is acyclic (in particular for valid forests).
    Among all simple oriented cycles the lexicographically smallest vertex
    string wins, ties broken by the edge-index tuple; loops are considered
    only when no proper cycle exists.  The edge run is then cut into paths
    at every point where consecutive edges do not share an actual vertex of
    the forest (they share only a class).
    """
    cycles = simple_quotient_cycles(net, forest)
    if not cycles:
        return None
    string, edges = cycles[0]
    oriented = _oriented_edges(net, string, edges)

    L = len(oriented)
    breaks = [
        t for t in range(L) if oriented[t][1] != oriented[(t + 1) % L][0]
    ]
    # a breakless traversal would be a cycle inside the forest itself
    assert breaks, "quotient cycle closed up inside the forest"
    first = (breaks[0] + 1) % L
    rotated = oriented[first:] + oriented[:first]

    paths: list[tuple[int, int, tuple[int, ...]]] = []
    run: list[tuple[int, int, int]] = []
    for tail, head, e in rotated:
        if run and run[-1][1] != tail:
            paths.append((run[0][0], run[-1][1], tuple(r[2] for r in run)))
            run = []
        run.append((tail, head, e))
    paths.append((run[0][0], run[-1][1], tuple(r[2] for r in run)))
    return MainCycle(classes=string, edges=edges, paths=tuple(paths))


def involution_f(
    net: SuperportNetwork, forest: Forest, part: XYZWPartition
) -> XYZWPartition:
    """The sign-reversing involution on a non-valid forest's partitions.

    With U the path tails and V the path heads of the main cycle (up to
    reversing the cycle), either U lies in X and V in Y, and they move to Z
    and W, or U lies in Z and V in W, and they move back.  Applying it twice
    returns the original partition; the partition sign flips each time.
    """
    mc = main_cycle(net, forest)
    if mc is None:
        raise ForestIsValid("the forest's quotient has no cycle")
    U = frozenset(u for u, _, _ in mc.paths)
    V = frozenset(v for _, v, _ in mc.paths)
    for a, b in ((U, V), (V, U)):
        if a <= part.X and b <= part.Y:
            return XYZWPartition(
                X=part.X - a, Y=part.Y - b, Z=part.Z | a, W=part.W | b
            )
        if a <= part.Z and b <= part.W:
            return XYZWPartition(
                X=part.X | a, Y=part.Y | b, Z=part.Z - a, W=part.W - b
            )
    raise ValueError("partition does not satisfy the cycle condition")
