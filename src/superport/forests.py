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
Kenyon-Wilson grouping, Kirchhoff's being those with |X| = 0 and 1, has one
component per group.  Which forests of a family count, and with which
sign, depends only on the edge count, which fixes the component count, and
on the boundary pattern, which boundary vertices share a component; the
weight sums by pattern are the grove partition functions of Kenyon and
Wilson ("Boundary partitions in trees and dimers", Trans. AMS 2011).  So
one enumeration serves every identity: `ForestPass` sums the forests'
units into a grove table keyed by (edge count, pattern).  The general sum
over it is `ForestPass.weight`: the units of the keys with a given
component count, each times a sign that the `pattern_*` predicates decide
once per key, not once per forest, from validity, relative validity,
forest signs, groupings or the signed partitions.  A family of one
pattern with one component per class (the trees, the electrically valid
forests, a pair of Kirchhoff's part 2) is a single key, which `verify`
looks up; the entries of L, needed for every pair of non-roots, are one
scan of the table, tested against this general form.  The one
enumeration loop, `walk_forests`, tracks the key as it joins components
and fills the table itself, so a forest costs neither a key tuple nor a
hash; it yields, and a `Forest` is built for, only the forests some taker
reads, and it folds a forest that ends in the last edge into its known
key without a step of its own.  Only statements about single forests (the
cancellation involution, the combinatorial voltages and currents) still
take forests one by one, those whose key admits them.  The involution
reads only the ends of a forest's main cycle, and when the quotients of a
key's forests have one cycle (`pattern_cycle_rank`), all its forests
share those ends up to orientation: the cancellation searches for the
main cycle of the key's first forest only, and of every forest of the
other keys, sharing their checks per (key, ends).  `forests --kind` and
the counting corollaries read patterns too, from the untracked walk: a
kind's forests and the valid forests by `pattern_is_tree` on the edge count
and labels, the trees by edge count alone.  The per-forest predicates
(`quotient_is_tree`, `forest_sign`, `separates`, ...) stay as the reference
the pattern route is tested against.  `ForestEnsemble` holds all the
forests by component count, with plain weight sums, for callers that read
them more than once.  The package's one union-find, `network._join`,
which also checks the loader's connectivity, joins quotient classes for
validity, forest signs and the combinatorial voltages, from forest edges
(`quotient_components`) or from a pattern (`pattern_components`), and
components with superports for a pattern's cycle rank; enumeration keeps
component labels of its own, because it must undo each join.

The sign structures (forest signs, XYZW partitions, the main cycle, and the
sign-reversing involution on partitions) follow the definitions used by the
superport matrix-tree identities; see the verify module for the statements
they feed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .network import QuotientGraph, SuperportNetwork, _join

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "CycleEnds",
    "Forest",
    "ForestEnsemble",
    "ForestIsValid",
    "ForestPass",
    "GroveNode",
    "MainCycle",
    "PatternFacts",
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
    "pattern_components",
    "pattern_cycle_rank",
    "pattern_is_tree",
    "pattern_partition_sign",
    "pattern_partitions",
    "pattern_separates",
    "pattern_sign",
    "permutation_parity",
    "quotient_components",
    "quotient_is_tree",
    "quotient_path",
    "separates",
    "simple_quotient_cycles",
    "walk_forests",
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
    net: SuperportNetwork, *, cap: Optional[int] = DEFAULT_CAP
) -> Iterator[Forest]:
    """Yield every spanning forest exactly once, as a `Forest`.

    The order is lexicographic in the edge-index tuples: (), (0,), (0, 1),
    (0, 1, 2), (0, 2), (1,), ...  The cap is checked before the first forest.
    """
    walk = walk_forests(net, cap=cap)
    scale = conductance_scale(net)
    make = tuple.__new__  # builds a Forest without the keyword handling of Forest(...)
    return (
        make(Forest, (tuple(chosen), tuple(label), units, scale))
        for chosen, label, units, _ in walk
    )


class GroveNode:
    """One grove-table key, (edge count, boundary pattern), as a walk meets
    it: the units of its forests so far, the takers its facts admit, those
    facts, and its links to the keys one edge deeper (see `walk_forests`)."""

    __slots__ = ("units", "takers", "facts", "links")

    def __init__(self, takers: tuple = (), facts: Optional[PatternFacts] = None):
        self.units = 0
        self.takers = takers
        self.facts = facts
        self.links: dict[int, GroveNode] = {}


# the node of a walk that tracks no key: every join links back to it
_UNTRACKED = GroveNode()
_UNTRACKED.links[0] = _UNTRACKED


def walk_forests(
    net: SuperportNetwork,
    node_for: Optional[Callable[[Key], GroveNode]] = None,
    *,
    cap: Optional[int] = DEFAULT_CAP,
) -> Iterator[tuple[list[int], list[int], int, GroveNode]]:
    """The one enumeration: yield (edges, labels, units, node) for spanning
    forests, in `enumerate_spanning_forests` order.

    `edges` and `labels` are the walk's own lists, valid until the next
    item: the chosen edge indices, ascending, and `labels[v]`, the least
    vertex of v's component (entry 0 is padding), which are the `edges` and
    `components` of the `Forest`.  `units` is its units.  Without
    `node_for` the walk yields every forest, and `node` is one shared node,
    not to be written, that stands for every key.  With `node_for`, which
    returns the one node of a grove key, the walk is tracked: it adds each
    forest's units into the node of its key, and yields only the forests
    whose node has takers when they are reached, with that node.  The cap
    is checked before the first forest.
    """
    check_cap(len(net.edges), cap)
    return _walk(net, node_for)


def _walk(
    net: SuperportNetwork, node_for: Optional[Callable[[Key], GroveNode]]
) -> Iterator[tuple[list[int], list[int], int, GroveNode]]:
    """Depth-first walk over acyclic edge subsets.

    Component labels are kept current as edges are added: joining two
    components relabels the members of the one with the larger label, and
    dropping the edge again restores them, so an edge closes a cycle iff its
    ends carry one label, and a forest's labels are read off as they stand.
    The weight is carried as an integer unit count, multiplied on the way
    down and restored from the stack on the way back.

    The grove key is tracked the same way.  Boundary vertices are 1..m and
    a component's label is its least vertex, so joining labels a < b
    changes the boundary pattern only if b <= m, by merging b's boundary
    vertices into a's.  Each node links to the nodes one edge deeper: link
    0 for a join with b > m, which keeps the pattern, and link a * (m + 1)
    + b for each merge; a link's key is built, and its node asked for, only
    the first time the link is followed.

    A join by the last edge makes a forest with no child.  When its link is
    already known and its node has no takers, a tracked walk folds it: it
    adds units times the last edge's units into that node, with no relabel,
    push, yield or pop.  A link seen for the first time is always followed,
    so `node_for` sees the merged labels and is asked for the keys in the
    order of their first forests.
    """
    n, E = net.n, len(net.edges)
    scale = conductance_scale(net)
    tails = [u for u, _, _ in net.edges]
    heads = [v for _, v, _ in net.edges]
    unit = [(c * scale).numerator for _, _, c in net.edges]
    label = list(range(n + 1))
    members = [[v] for v in range(n + 1)]  # members[a]: the component labelled a
    chosen: list[int] = []
    # (kept label, merged label, units before, node before)
    undo: list[tuple[int, int, int, GroveNode]] = []
    units = 1
    tracked = node_for is not None
    # with no key to track, m = 0 sends every join along link 0 of one node
    m = net.m if tracked else 0
    m1 = m + 1
    node = node_for((0, tuple(range(1, m1)))) if tracked else _UNTRACKED
    # a tracked walk folds joins by the last edge, an untracked one none
    last = E - 1 if tracked else -1
    i = 0
    while True:
        if tracked:
            node.units += units
            if node.takers:
                yield chosen, label, units, node
        else:
            yield chosen, label, units, node
        # the next subset in lexicographic order: add the first edge from i
        # on that joins two components, or drop the last chosen edge and go on after it
        while True:
            if i < E:
                a, b = label[tails[i]], label[heads[i]]
                if a != b:
                    if b < a:
                        a, b = b, a
                    link = a * m1 + b if b <= m else 0
                    if i != last:
                        break
                    child = node.links.get(link)
                    if child is None or child.takers:
                        break
                    child.units += units * unit[i]
                i += 1
            elif chosen:
                i = chosen.pop()
                a, b, units, node = undo.pop()
                moved = members[b]
                del members[a][-len(moved):]
                for v in moved:
                    label[v] = b
                i += 1
            else:
                return
        moved = members[b]
        for v in moved:
            label[v] = a
        members[a].extend(moved)
        chosen.append(i)
        undo.append((a, b, units, node))
        units *= unit[i]
        i += 1
        links = node.links
        try:
            node = links[link]
        except KeyError:
            node = links[link] = node_for((len(chosen), tuple(label[1:m1])))


def quotient_components(qg: QuotientGraph, forest: Forest) -> tuple[list[int], bool]:
    """Join the quotient classes at the two ends of every forest edge.

    Returns the least class of each class's component, and whether the image
    is acyclic, i.e. no edge fell inside one component already.
    """
    return _join(len(qg.classes), map(qg.edge_classes.__getitem__, forest.edges))


def pattern_components(qg: QuotientGraph, pattern: Sequence[int]) -> tuple[list[int], bool]:
    """`quotient_components` of every forest with this boundary pattern, read
    from the pattern alone.

    `pattern[v - 1]` is the least boundary vertex in the component of
    boundary vertex v.  Joining the class of each boundary vertex with the
    class of its component's least boundary vertex contracts each component
    onto one of its boundary classes; contraction keeps both which boundary
    classes are connected and whether a cycle exists.  A component without
    boundary vertices joins nothing either way.
    """
    cls = qg.class_of
    joins = ((cls[v], cls[least]) for v, least in enumerate(pattern, 1) if least != v)
    return _join(len(qg.classes), joins)


def quotient_path(
    qg: QuotientGraph, forest: Forest, start: int, end: int
) -> list[tuple[int, int]]:
    """The forest edges on the path from the class of vertex `start` to the
    class of vertex `end` in the forest's quotient, which must join them;
    each as (edge index, direction), the direction +1 when the path runs
    from the edge's tail to its head and -1 when it runs back."""
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
        path.append((e, 1 if qg.edge_classes[e][0] == a else -1))
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


# -- the same facts from a boundary pattern ---------------------------------------
#
# A forest's boundary pattern is `components[1 : m + 1]`: entry v - 1 is the
# least boundary vertex in boundary vertex v's component (boundary vertices
# are 1..m, so a component holding one is labelled by a boundary vertex).
# With the edge count, which fixes the component count, it decides every
# fact below for all forests that share it.


def pattern_is_tree(qg: QuotientGraph, edges: int, pattern: Sequence[int]) -> bool:
    """`quotient_is_tree` for the forests with this many edges and this
    pattern: an acyclic image with one edge fewer than classes."""
    return edges == len(qg.classes) - 1 and pattern_components(qg, pattern)[1]


def pattern_sign(net: SuperportNetwork, pattern: Sequence[int], i: int, j: int) -> int:
    """`forest_sign` for the forests with this pattern."""
    if i == j:
        return 1
    qg = net.quotient((i, j))
    root = pattern_components(qg, pattern)[0]
    return 1 if root[qg.class_of[i]] != root[qg.class_of[j]] else -1


def pattern_separates(pattern: Sequence[int], groups: Sequence[Sequence[int]]) -> bool:
    """`separates` for the forests with this pattern; the groups hold
    boundary vertices."""
    comps = [{pattern[v - 1] for v in g} for g in groups]
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
    """All XYZW partitions satisfying conditions (1)-(3) for this forest:
    `pattern_partitions` of its edge count and boundary pattern."""
    return pattern_partitions(net, len(forest.edges), forest.components[1 : net.m + 1])


def pattern_partitions(
    net: SuperportNetwork, edges: int, pattern: Sequence[int]
) -> Iterator[XYZWPartition]:
    """The XYZW partitions of every forest with this many edges and this
    boundary pattern.

    Conditions (1)-(3) read a forest only through which boundary vertices
    share a component, and its component count.  Conditions (1)-(2) fix
    the choices per superport, taken one superport at a time; a choice is
    dropped as soon as it puts a second W, X or Y vertex into some forest
    component, or W next to X or Y.  A complete choice that got through
    satisfies (3): it places W vertices and X vertices, m - p + 1 in all, so
    with at most one of them per component and as many Y as X vertices, each
    of the m - p + 1 components receives one W vertex or one X-Y pair.  The
    conditions force that component count, so other forests yield nothing.
    """
    m, p = net.m, net.p
    if net.n - edges != m - p + 1:
        return
    if len(set(pattern)) != m - p + 1:
        # a component without boundary vertices can never satisfy (3)
        return
    comp = (0, *pattern)  # comp[v]: the component of boundary vertex v
    # what each component holds, as bits W = 1, X = 2, Y = 4
    held = [0] * (m + 1)
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
    """Sign of the forest in the minor the partition encodes:
    `pattern_partition_sign` of its boundary pattern."""
    return pattern_partition_sign(net, forest.components[1 : net.m + 1], part)


def pattern_partition_sign(
    net: SuperportNetwork, pattern: Sequence[int], part: XYZWPartition
) -> int:
    """Sign of the forests with this boundary pattern in the minor the
    partition encodes.

    sigma pairs each X vertex with the Y vertex in its forest component, tau
    pairs each Y vertex with the X vertex in its superport; the sign is
    (-1)^|X| times the sign of sigma o tau as a permutation of Y.
    """
    sigma: dict[int, int] = {}
    for x in part.X:
        for y in part.Y:
            if pattern[y - 1] == pattern[x - 1]:
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


class CycleEnds(NamedTuple):
    """The ends of a quotient cycle's forest paths: U the path tails, V the
    path heads.  They are all the involution reads of a cycle."""

    U: frozenset[int]
    V: frozenset[int]

    def involution(self, part: XYZWPartition) -> XYZWPartition:
        """The image of a partition under the sign-reversing involution that
        these ends drive (see involution_f).  Both orders of the ends are
        tried, so reversing the cycle gives the same image: X, Y, Z and W
        are disjoint and U and V are not empty, so at most one order
        matches."""
        U, V = self
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


class MainCycle(NamedTuple):
    """Canonical simple cycle of a forest's superport quotient.

    `classes` is the vertex string (class labels, starting at the smallest),
    `edges` the network edge indices in traversal order, and `paths` the
    split of those edges into maximal paths of the forest, each as
    (tail, head, edge run) in cycle order.  `ends` holds the sets of path
    tails and of path heads, which drive the involution.
    """

    classes: tuple[int, ...]
    edges: tuple[int, ...]
    paths: tuple[tuple[int, int, tuple[int, ...]], ...]
    ends: CycleEnds

    @property
    def length(self) -> int:
        return len(self.edges)


def _quotient_adjacency(net: SuperportNetwork, forest: Forest) -> tuple[list, list]:
    """The forest's quotient: each class's neighbours as (class, edge) pairs
    in ascending order, and its loops as (class, edge) pairs."""
    qg = net.quotient()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(len(qg.classes))]
    loops: list[tuple[int, int]] = []
    for e in forest.edges:
        a, b = qg.edge_classes[e]
        if a == b:
            loops.append((a, e))
        else:
            adj[a].append((b, e))
            adj[b].append((a, e))
    return [sorted(neighbours) for neighbours in adj], loops


def simple_quotient_cycles(
    net: SuperportNetwork, forest: Forest
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every simple oriented cycle of the forest's quotient, as a (vertex
    string, edge indices) pair, sorted with proper cycles before loops and
    lexicographically within each kind.

    Strings start at the cycle's smallest class label; both orientations of
    a proper cycle appear.  A loop (one edge inside a single class) is a
    length-1 cycle; loops sort after all proper cycles, so they are chosen
    as the main cycle only when no proper cycle exists.  This lists and
    sorts them all: the reference `main_cycle` is tested against.
    """
    labels = net.quotient().labels
    adj, loops = _quotient_adjacency(net, forest)
    found = [(1, (labels[a],), (e,)) for a, e in loops]
    # paths from each start class s through classes above s, grown from a stack
    paths: list[tuple[list[int], list[int]]] = [([s], []) for s in range(len(adj))]
    while paths:
        path_classes, path_edges = paths.pop()
        s = path_classes[0]
        for b, e in adj[path_classes[-1]]:
            if b == s and path_edges:
                if len(path_edges) == 1 and path_edges[0] == e:
                    continue  # the same edge traversed back is not a cycle
                string = tuple(labels[c] for c in path_classes)
                found.append((0, string, (*path_edges, e)))
            elif b > s and b not in path_classes:
                paths.append(([*path_classes, b], [*path_edges, e]))
    found.sort()
    return [(string, edges) for _, string, edges in found]


def _least_cycle(adj: list, loops: list) -> Optional[tuple[list[int], list[int]]]:
    """The classes and edges of the least simple cycle, a loop only if there
    is no proper cycle, or None.

    A depth-first search from each start class s in turn, over classes above
    s, with the neighbours in (class, edge) order: its first closure back to
    s is the least cycle through s, because a closure is tried before the
    longer strings it is a prefix of.
    """
    for s in range(len(adj)):
        classes, edges, stack = [s], [], [iter(adj[s])]
        while stack:
            for b, e in stack[-1]:
                if b == s:
                    if edges != [e]:  # the same edge traversed back is not a cycle
                        return classes, [*edges, e]
                elif b > s and b not in classes:
                    classes.append(b)
                    edges.append(e)
                    stack.append(iter(adj[b]))
                    break
            else:
                stack.pop()
                classes.pop()
                del edges[-1:]
    if not loops:
        return None
    a, e = min(loops)
    return [a], [e]


def main_cycle(net: SuperportNetwork, forest: Forest) -> Optional[MainCycle]:
    """The canonical cycle of the forest's quotient, split into forest paths.

    None when the quotient is acyclic (in particular for valid forests).
    Among all simple oriented cycles the lexicographically smallest vertex
    string wins, ties broken by the edge-index tuple; loops are considered
    only when no proper cycle exists.  It is searched for directly (see
    `_least_cycle`), not picked from `simple_quotient_cycles`.  The edge run
    is then cut into paths at every point where consecutive edges do not
    share an actual vertex of the forest (they share only a class).
    """
    found = _least_cycle(*_quotient_adjacency(net, forest))
    if found is None:
        return None
    classes, edges = found
    qg = net.quotient()
    # each edge from its class on the cycle to the next; a loop from its smaller end
    oriented = []
    for t, e in enumerate(edges):
        u, v, _ = net.edges[e]
        if (u > v if len(edges) == 1 else qg.class_of[u] != classes[t]):
            u, v = v, u
        oriented.append((u, v, e))

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
    ends = CycleEnds(frozenset(u for u, _, _ in paths), frozenset(v for _, v, _ in paths))
    string = tuple(qg.labels[c] for c in classes)
    return MainCycle(classes=string, edges=tuple(edges), paths=tuple(paths), ends=ends)


def pattern_cycle_rank(net: SuperportNetwork, pattern: Sequence[int]) -> int:
    """The number of independent cycles in the superport quotient of every
    forest with this boundary pattern whose components all hold a boundary
    vertex, as every forest with partitions does.

    The component-superport graph of a pattern has a node for each forest
    component label and one for each superport, and an edge for each
    boundary vertex v, joining v's component to v's superport.  A forest
    with c components, all holding boundary vertices, has n - c edges on
    n - m + p classes, and its image has one component for each component
    of the graph, so both cycle ranks are edges - nodes + components of the
    graph, m - c - p plus its component count.
    """
    m, p = net.m, net.p
    index = net.superport_index
    # component nodes are the labels 1..m, superport k is node m + 1 + k
    joins = ((pattern[v - 1], m + 1 + index[v]) for v in range(1, m + 1))
    least, _ = _join(m + 1 + p, joins)
    nodes = {*pattern, *range(m + 1, m + 1 + p)}
    return m - len(nodes) + len({least[node] for node in nodes})


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
    return mc.ends.involution(part)


# -- the forest pass ---------------------------------------------------------------


# a grove table key: (edge count, boundary pattern)
Key = tuple[int, tuple[int, ...]]


class PatternFacts(NamedTuple):
    """What one table key decides for every forest that has it: validity,
    the non-roots it is valid relative to, and its XYZW partitions, each
    with its sign."""

    valid: bool
    relative: tuple[int, ...]
    partitions: tuple[tuple[XYZWPartition, int], ...]


# a statement about single forests: takes each forest whose key's facts it
# admits, with those facts
Taker = Callable[[Forest, PatternFacts], None]


class ForestPass:
    """One pass over a network's spanning forests, shared by every sum that
    reads them.

    `run` enumerates the forests once and fills the grove table: `units[key]`
    adds the integer units (see `Forest`) of the forests with key (edge
    count, boundary pattern).  Validity, relative validity, forest signs,
    the signed partitions and every Kenyon-Wilson grouping depend on the
    key alone, so `facts` decides each fact once per key, not once per
    forest, and `weight` is the general sum over the table, each key signed
    by its facts.  A statement about single forests registers a taker with
    `want`, with a test of facts that is decided on each key's first
    forest; the forests whose key passes reach the taker with the key's
    facts.  The walk tracks each forest's key and fills the table itself
    (see `walk_forests`); it yields only the forests that some taker
    receives, and `run` builds a `Forest` for each of those and hands it
    on.  A taker that raises takes no more forests: `errors` keeps the
    forest, if there is one, and the exception, and the pass skips that
    taker from then on.  The pass holds no reference to itself, nor do the
    verifiers' takers, so it is freed, table and all, when its last reader
    lets go, without waiting for the garbage collector.
    """

    def __init__(self, net: SuperportNetwork):
        self.net = net
        self.scale = conductance_scale(net)
        self.units: dict[Key, int] = {}
        self.wanted = False
        self.takers: list[tuple[Callable[[PatternFacts], bool], Taker]] = []
        self.errors: dict[Taker, tuple[Optional[Forest], Exception]] = {}
        self._quotient = net.quotient()
        self._relative_quotients = [(i, net.quotient((i,))) for i in net.non_roots]
        self._facts: dict[Key, PatternFacts] = {}

    def want(
        self,
        keep: Optional[Callable[[PatternFacts], bool]] = None,
        take: Optional[Taker] = None,
    ) -> None:
        """Ask for the table; with `take`, also hand it each forest whose
        key's facts `keep` admits, with those facts."""
        self.wanted = True
        if take is not None:
            self.takers.append((keep, take))

    def run(self, cap: Optional[int] = DEFAULT_CAP) -> None:
        """Fill the table and hand each forest to the takers its key admits.
        A pass that nothing wants enumerates nothing, whatever the network's
        size; a wanted pass refuses an over-cap network before the first
        forest.  An exception raised while deciding a new key's facts, or
        which takers they admit, is no one taker's: every taker keeps it,
        with no forest, and takes no more forests, and the walk goes on."""
        if not self.wanted:
            return
        grove: dict[Key, GroveNode] = {}
        errors = self.errors

        def node_for(key: Key) -> GroveNode:
            node = grove.get(key)
            if node is None:
                try:
                    facts = self.facts(key) if self.takers else None
                    admitted = tuple(
                        take for keep, take in self.takers if take not in errors and keep(facts)
                    )
                except Exception as exc:
                    for _, take in self.takers:
                        errors.setdefault(take, (None, exc))
                    facts, admitted = None, ()
                node = grove[key] = GroveNode(admitted, facts)
            return node

        walk = walk_forests(self.net, node_for, cap=cap)
        scale = self.scale
        make = tuple.__new__  # builds a Forest without the keyword handling of Forest(...)
        for chosen, label, units, node in walk:
            forest = make(Forest, (tuple(chosen), tuple(label), units, scale))
            for take in node.takers:
                if take in errors:
                    continue
                try:
                    take(forest, node.facts)
                except Exception as exc:
                    errors[take] = (forest, exc)
        self.units = {key: node.units for key, node in grove.items()}

    def weight(self, count: int, sign: Callable[[Key], int] = lambda key: 1) -> Fraction:
        """The general sum over the grove table: the weight of the forests
        with `count` components, each key's units times `sign(key)`, divided
        by the scale once.  A family of one pattern is a single key instead
        (`verify._grove`), and the entries of L, a sum needed for every pair
        of non-roots, scan the table once for all pairs
        (`verify._entry_sums`); both are tested against this one."""
        edges = self.net.n - count
        units = sum(sign(key) * units for key, units in self.units.items() if key[0] == edges)
        return Fraction(units, self.scale ** edges)

    @cached_property
    def valid_weight(self) -> Fraction:
        """The weight of the valid forests, which have m - p + 1 components:
        one scan of the table, made on the first read after `run`."""
        net = self.net
        return self.weight(net.m - net.p + 1, lambda key: self.facts(key).valid)

    def facts(self, key: Key) -> PatternFacts:
        """Validity, relative validity and the signed partitions of the
        forests with this key, decided on its first request."""
        facts = self._facts.get(key)
        if facts is None:
            net, (edges, pattern) = self.net, key
            relative = self._relative_quotients
            facts = self._facts[key] = PatternFacts(
                valid=pattern_is_tree(self._quotient, edges, pattern),
                relative=tuple(i for i, qg in relative if pattern_is_tree(qg, edges, pattern)),
                partitions=tuple(
                    (part, pattern_partition_sign(net, pattern, part))
                    for part in pattern_partitions(net, edges, pattern)
                ),
            )
        return facts
