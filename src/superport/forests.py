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

Weights are exact integers while forests are enumerated: with D the least
common denominator of the conductances, every conductance is a whole number
of units 1/D, a forest carries the product of its edges' units, and its
weight is that product over D to the number of edges.  Sums add the
integers and divide once, at the end.

Each identity sums over one family of forests, and every forest of a family
has the same number of components.  With m boundary vertices in p
superports: trees have 1 component; valid forests and the forests carrying
XYZW partitions have m - p + 1; forests valid relative to a non-root have
m - p; electrically valid forests, one boundary vertex per component, have
m; forests whose quotient with k classes is a tree have n - k + 1; a
Kirchhoff or Kenyon-Wilson grouping has one component per group.  So one
enumeration serves every identity: `ForestPass` hands each forest to the
sums registered for its component count, and decides what several sums ask
of a forest (validity, relative validity, signed partitions) once per
forest.  `ForestEnsemble` holds all the forests by component count, with
plain weight sums, for callers that read them more than once.  One
union-find over quotient classes, `quotient_components`, serves validity,
forest signs and the combinatorial voltages; enumeration keeps component
labels of its own, because it must undo each join.

The sign structures (forest signs, XYZW partitions, the main cycle, and the
sign-reversing involution on partitions) follow the definitions used by the
superport matrix-tree identities; see the verify module for the statements
they feed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .network import QuotientGraph, SuperportNetwork

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "Forest",
    "ForestEnsemble",
    "ForestIsValid",
    "ForestPass",
    "MainCycle",
    "XYZWPartition",
    "conductance_scale",
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
    "quotient_path",
    "separates",
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


def conductance_scale(net: SuperportNetwork) -> int:
    """The least common denominator D of the conductances: every conductance
    is an integer number of units 1/D."""
    return math.lcm(*(c.denominator for _, _, c in net.edges))


class Forest(NamedTuple):
    """One spanning forest.

    `edges` holds edge indices into the network's edge tuple, ascending.
    `components[v]` is the smallest vertex in v's component (entry 0 is
    padding), so two vertices are connected iff their entries agree.
    `units` is the product over the edges of conductance times `scale`, the
    network's `conductance_scale`, so it is an integer and the weight is
    units / scale ** len(edges).
    """

    edges: tuple[int, ...]
    components: tuple[int, ...]
    units: int
    scale: int

    @property
    def component_count(self) -> int:
        return (len(self.components) - 1) - len(self.edges)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.units, self.scale ** len(self.edges))


def enumerate_spanning_forests(
    net: SuperportNetwork,
    predicate: Optional[Callable[[Forest], bool]] = None,
    *,
    cap: Optional[int] = DEFAULT_CAP,
) -> Iterator[Forest]:
    """Yield every spanning forest exactly once.

    The order is lexicographic in the edge-index tuples: (), (0,), (0, 1),
    (0, 1, 2), (0, 2), (1,), ...  A predicate filters the output without
    affecting the traversal.  The cap is checked before the first forest.
    """
    check_cap(len(net.edges), cap)
    return _walk_forests(net, predicate)


def _walk_forests(
    net: SuperportNetwork, predicate: Optional[Callable[[Forest], bool]]
) -> Iterator[Forest]:
    """Depth-first walk over acyclic edge subsets.

    Component labels are kept current as edges are added: joining two
    components relabels the members of the one with the larger label, and
    dropping the edge again restores them, so an edge closes a cycle iff its
    ends carry one label, and a forest's labels are read off as they stand.
    The weight is carried as an integer unit count, multiplied on the way
    down and restored from the stack on the way back.
    """
    n, E = net.n, len(net.edges)
    scale = conductance_scale(net)
    tails = [u for u, _, _ in net.edges]
    heads = [v for _, v, _ in net.edges]
    unit = [(c * scale).numerator for _, _, c in net.edges]
    label = list(range(n + 1))
    members = [[v] for v in range(n + 1)]  # members[a]: the component labelled a
    chosen: list[int] = []
    undo: list[tuple[int, int, int]] = []  # (kept label, merged label, units before)
    units = 1
    make = tuple.__new__  # builds a Forest without the keyword handling of Forest(...)
    i = 0
    while True:
        forest = make(Forest, (tuple(chosen), tuple(label), units, scale))
        if predicate is None or predicate(forest):
            yield forest
        # the next subset in lexicographic order: add the first edge from i
        # on that joins two components, or drop the last edge and go on after it
        while True:
            if i < E:
                a, b = label[tails[i]], label[heads[i]]
                if a != b:
                    break
                i += 1
            elif chosen:
                i = chosen.pop()
                a, b, units = undo.pop()
                moved = members[b]
                del members[a][-len(moved):]
                for v in moved:
                    label[v] = b
                i += 1
            else:
                return
        if b < a:
            a, b = b, a
        moved = members[b]
        for v in moved:
            label[v] = a
        members[a].extend(moved)
        chosen.append(i)
        undo.append((a, b, units))
        units *= unit[i]
        i += 1


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


def quotient_path(
    net: SuperportNetwork, qg: QuotientGraph, forest: Forest, start: int, end: int
) -> list[tuple[int, int]]:
    """The forest edges on the path from the class of vertex `start` to the
    class of vertex `end` in the forest's quotient, which must join them;
    each as its (tail, head) vertex pair, oriented along the path."""
    first, last = qg.class_of[start], qg.class_of[end]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(len(qg.classes))]
    for e in forest.edges:
        a, b = qg.edge_classes[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    prev: dict[int, tuple[int, int]] = {first: (-1, -1)}
    queue = [first]
    while queue:
        cur = queue.pop()
        if cur == last:
            break
        for b, e in adj[cur]:
            if b not in prev:
                prev[b] = (cur, e)
                queue.append(b)
    path = []
    cur = last
    while cur != first:
        a, e = prev[cur]
        u, v, _ = net.edges[e]
        path.append((u, v) if qg.class_of[u] == a else (v, u))
        cur = a
    return path


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


def separates(forest: Forest, groups: Sequence[Sequence[int]]) -> bool:
    """Whether each group lies inside one component of the forest and no two
    groups share a component."""
    comps = [{forest.components[v] for v in g} for g in groups]
    # one component per group and no component shared: disjoint singletons
    return sum(map(len, comps)) == len(set().union(*comps)) == len(groups)


class ForestEnsemble:
    """All spanning forests of one network, enumerated once and held:
    `forests` in enumeration order, and the same forests by component count.

    A materialized view for callers that read the forests more than once,
    with plain weight sums to compare a pass's sums against; the verifiers
    stream their forests through a `ForestPass` instead.  Weight sums add
    the forests' integer units and divide by the scale once.
    """

    def __init__(self, net: SuperportNetwork, *, cap: Optional[int] = DEFAULT_CAP):
        self.net = net
        self.forests: list[Forest] = list(enumerate_spanning_forests(net, cap=cap))
        self._by_count: dict[int, list[Forest]] = {}
        for f in self.forests:
            self._by_count.setdefault(f.component_count, []).append(f)

    def with_components(self, count: int) -> list[Forest]:
        """The forests with exactly `count` components, in enumeration order."""
        return self._by_count.get(count, [])

    def _weight(self, forests: list[Forest], count: int) -> Fraction:
        """Weight sum of forests that all have `count` components."""
        scale = conductance_scale(self.net)
        return Fraction(sum(f.units for f in forests), scale ** (self.net.n - count))

    def quotient_trees(self, qg: QuotientGraph) -> list[Forest]:
        """The forests whose image in the quotient is a spanning tree."""
        bucket = self.with_components(self.net.n - len(qg.classes) + 1)
        return [f for f in bucket if quotient_is_tree(qg, f)]

    def tree_weight(self) -> Fraction:
        return self._weight(self.with_components(1), 1)

    def quotient_tree_weight(self, qg: QuotientGraph) -> Fraction:
        count = self.net.n - len(qg.classes) + 1
        return self._weight(self.quotient_trees(qg), count)

    def valid_forests(self) -> list[Forest]:
        return self.quotient_trees(self.net.quotient())

    def valid_weight(self) -> Fraction:
        return self.quotient_tree_weight(self.net.quotient())

    def grouped_weight(self, groups: Sequence[Sequence[int]]) -> Fraction:
        """Sum of weights of forests with exactly len(groups) components in
        which the groups lie in pairwise distinct components (group t inside
        a single component).  Zero groups give 0 by convention."""
        bucket = self.with_components(len(groups))
        return self._weight([f for f in bucket if separates(f, groups)], len(groups))


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

    Conditions (1)-(2) fix the choices per superport, taken one superport at
    a time; a choice is dropped as soon as it puts a second W, X or Y vertex
    into some forest component, or W next to X or Y.  A complete choice that
    got through satisfies (3): it places W vertices and X vertices, m - p + 1
    in all, so with at most one of them per component and as many Y as X
    vertices, each of the m - p + 1 components receives one W vertex or one
    X-Y pair.  The conditions force that component count, so other forests
    yield nothing.
    """
    m, p = net.m, net.p
    if forest.component_count != m - p + 1:
        return
    comp = forest.components
    if len(set(comp[1 : m + 1])) != m - p + 1:
        # a component without boundary vertices can never satisfy (3)
        return
    # what each component holds, as bits W = 1, X = 2, Y = 4
    held = [0] * (net.n + 1)
    for v in net.superports[-1]:
        if held[comp[v]]:
            return
        held[comp[v]] = 1
    options = [_choices(sp) for sp in net.superports[:-1]]
    found: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = []

    def choose(k: int, X: tuple[int, ...], Y: tuple[int, ...], Z: tuple[int, ...]) -> None:
        if k == len(options):
            found.append((X, Y, Z))
            return
        for ox, oy, oz, moves in options[k]:
            placed = 0
            for v, bit, blocked in moves:
                c = comp[v]
                if held[c] & blocked:
                    break
                held[c] |= bit
                placed += 1
            else:
                choose(k + 1, X + ox, Y + oy, Z + oz)
            for v, bit, _ in moves[:placed]:
                held[comp[v]] ^= bit

    choose(0, (), (), ())
    boundary = frozenset(range(1, m + 1))
    for X, Y, Z in found:
        xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
        yield XYZWPartition(X=xs, Y=ys, Z=zs, W=boundary - xs - ys - zs)


@functools.lru_cache(maxsize=256)
def _choices(sp: tuple[int, ...]):
    """The choices condition (2) allows in one superport: one Z vertex, or an
    ordered X-Y pair, the rest going to W.  Each is (X, Y, Z, moves), where
    a move (v, bit, blocked) places v of kind bit (W = 1, X = 2, Y = 4) in
    its component, which must hold none of the kinds in blocked: a W vertex
    needs a component of its own, an X or Y vertex one without W or its
    own kind."""
    w_moves = lambda *taken: tuple((w, 1, 7) for w in sp if w not in taken)
    z_choices = [((), (), (z,), w_moves(z)) for z in sp]
    xy_choices = [
        ((x,), (y,), (), ((x, 2, 3), (y, 4, 5), *w_moves(x, y)))
        for x in sp for y in sp if x != y
    ]
    return tuple(z_choices + xy_choices)


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

    def involution(self, part: XYZWPartition) -> XYZWPartition:
        """The image of a partition of this cycle's forest under the
        sign-reversing involution (see involution_f)."""
        U = frozenset(u for u, _, _ in self.paths)
        V = frozenset(v for _, v, _ in self.paths)
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
    return mc.involution(part)


# -- the forest pass ---------------------------------------------------------------


class ForestPass:
    """One pass over a network's spanning forests, shared by every sum that
    reads them.

    Sums register with `want` a taker for each component count they read;
    `run` enumerates the forests once and hands each to the takers of its
    count.  Sums add integer units (see `Forest`) and `weight` divides by
    the scale once.  The totals several identities share are kept once, on
    request (`share`).  What several takers ask of one forest is decided
    once per forest: each fact keeps the last forest asked about, and a
    forest reaches all its takers before the next one comes.
    """

    def __init__(self, net: SuperportNetwork):
        self.net = net
        self.scale = conductance_scale(net)
        self.takers: dict[int, list[Callable[[Forest], None]]] = {}
        self.units: dict[str, int] = {}
        m = net.m
        # shared total -> (component count, which forests of that count it sums)
        self._shared: dict[str, tuple[int, Callable[[Forest], bool]]] = {
            "trees": (1, lambda f: True),
            "valid": (m - net.p + 1, self.valid),
            "electrical": (m, lambda f: len(set(f.components[1 : m + 1])) == m),
        }
        self._quotient = net.quotient()
        self._relative_quotients = [(i, net.quotient((i,))) for i in net.non_roots]
        self._valid: tuple = (None, False)
        self._relative: tuple = (None, ())
        self._partitions: tuple = (None, [])

    def want(self, count: int, take: Callable[[Forest], None]) -> None:
        self.takers.setdefault(count, []).append(take)

    def share(self, *names: str) -> None:
        """Keep the named shared totals: "trees" (1 component), "valid"
        (m - p + 1) and "electrical", the forests with one boundary vertex
        in each of their m components."""
        for name in names:
            if name not in self.units:
                self.units[name] = 0
                count, keep = self._shared[name]
                self.want(count, functools.partial(self._add, name, keep))

    def _add(self, name: str, keep: Callable[[Forest], bool], f: Forest) -> None:
        if keep(f):
            self.units[name] += f.units

    def weight(self, units: int, count: int) -> Fraction:
        """The weight that `units` stands for in forests with `count` components."""
        return Fraction(units, self.scale ** (self.net.n - count))

    def total(self, name: str) -> Fraction:
        return self.weight(self.units[name], self._shared[name][0])

    def _touches_boundary(self, f: Forest) -> bool:
        """Every component holds a boundary vertex.  Validity, relative or
        not, needs it: a component without one stays apart in the quotient."""
        return len(set(f.components[1 : self.net.m + 1])) == f.component_count

    def valid(self, f: Forest) -> bool:
        if self._valid[0] is not f:
            valid = self._touches_boundary(f) and quotient_is_tree(self._quotient, f)
            self._valid = (f, valid)
        return self._valid[1]

    def relative(self, f: Forest) -> tuple[int, ...]:
        """The non-roots i such that f is valid relative to i."""
        if self._relative[0] is not f:
            rel = ()
            if self._touches_boundary(f):
                rel = tuple(i for i, qg in self._relative_quotients if quotient_is_tree(qg, f))
            self._relative = (f, rel)
        return self._relative[1]

    def signed_partitions(self, f: Forest) -> list[tuple[XYZWPartition, int]]:
        """The forest's XYZW partitions, each with its sign."""
        if self._partitions[0] is not f:
            net = self.net
            parts = partitions_for_forest(net, f)
            self._partitions = (f, [(part, partition_sign(net, f, part)) for part in parts])
        return self._partitions[1]

    def run(self, cap: Optional[int] = DEFAULT_CAP) -> None:
        """Hand every forest to the takers of its component count.  An
        over-cap network is refused before the first forest."""
        takers = self.takers
        forests = enumerate_spanning_forests(self.net, cap=cap)
        if takers:
            n = self.net.n
            for f in forests:
                for take in takers.get(n - len(f.edges), ()):
                    take(f)
