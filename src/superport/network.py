"""Superport-network data model.

A superport network is a finite connected graph with positive rational
conductances and an ordered list of disjoint nonempty superports (groups of
boundary vertices).  All computations assume the canonical labeling produced
by `validate_and_canonicalize`:

* the vertices are 1..n;
* the boundary vertices are 1..m, listed superport by superport with each
  superport ascending, so the root (largest member) of the k-th superport is
  r_k = |A_1| + ... + |A_k|;
* the interior vertices are m+1..n, ascending in the original labels.

Input files may use arbitrary positive integer vertex labels; the validator
returns the old-to-new label mapping alongside the canonical network.

One loader path: `load_json` reads every file, and `validate_and_canonicalize`
(also named `network_from_data`) is the one check of a network description,
a circuit's included; a circuit's delta errors name the file's labels.

An electrical network is the special case of a single superport: current is
prescribed to balance over the whole boundary and voltages are prescribed
against the last boundary vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from collections.abc import Iterable, Mapping, Sequence

from .linalg import rat, rat_str

__all__ = [
    "Circuit",
    "Disconnected",
    "EmptySuperport",
    "LoopEdge",
    "MultiEdge",
    "NetworkError",
    "NonPositiveConductance",
    "OverlappingSuperports",
    "QuotientGraph",
    "SchemaError",
    "Solution",
    "SuperportNetwork",
    "canonical_network",
    "circuit_from_data",
    "circuit_to_data",
    "dumps_circuit",
    "dumps_network",
    "load_circuit",
    "load_json",
    "load_network",
    "loads_circuit",
    "loads_json",
    "loads_network",
    "make_circuit",
    "network_from_data",
    "network_to_data",
    "solution_to_data",
    "unify_superports",
    "validate_and_canonicalize",
    "x_equivalence_quotient",
]


class NetworkError(Exception):
    """Base class for malformed network descriptions."""


class SchemaError(NetworkError):
    """Structurally malformed input; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class Disconnected(NetworkError):
    pass


class LoopEdge(NetworkError):
    pass


class MultiEdge(NetworkError):
    pass


class NonPositiveConductance(NetworkError):
    pass


class OverlappingSuperports(NetworkError):
    pass


class EmptySuperport(NetworkError):
    pass


@dataclass(frozen=True)
class SuperportNetwork:
    """Canonically labeled superport network.

    `edges` holds (u, v, conductance) with u < v, sorted; the position of an
    edge in this tuple is its edge index everywhere in this package.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    superports: tuple[tuple[int, ...], ...]

    # -- derived structure ----------------------------------------------------

    @cached_property
    def m(self) -> int:
        """Number of boundary vertices."""
        return sum(len(sp) for sp in self.superports)

    @cached_property
    def p(self) -> int:
        """Number of superports."""
        return len(self.superports)

    @cached_property
    def boundary(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    @cached_property
    def roots(self) -> tuple[int, ...]:
        return tuple(sp[-1] for sp in self.superports)

    @cached_property
    def root_of(self) -> dict[int, int]:
        """Root of each boundary vertex's superport."""
        out: dict[int, int] = {}
        for sp in self.superports:
            r = sp[-1]
            for v in sp:
                out[v] = r
        return out

    @cached_property
    def non_roots(self) -> tuple[int, ...]:
        """Non-root boundary vertices, ascending; these label the response."""
        roots = set(self.roots)
        return tuple(v for v in range(1, self.m + 1) if v not in roots)

    @cached_property
    def superport_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, sp in enumerate(self.superports):
            for v in sp:
                out[v] = k
        return out

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """adjacency[v] lists (neighbor, conductance); index 0 is unused."""
        adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.n + 1)]
        for u, v, c in self.edges:
            adj[u].append((v, c))
            adj[v].append((u, c))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _conductance_map(self) -> dict[tuple[int, int], Fraction]:
        return {(u, v): c for u, v, c in self.edges}

    @cached_property
    def _quotient_cache(self) -> dict[frozenset, "QuotientGraph"]:
        return {}

    def conductance(self, u: int, v: int) -> Fraction:
        key = (u, v) if u < v else (v, u)
        return self._conductance_map.get(key, Fraction(0))

    def is_boundary(self, v: int) -> bool:
        return 1 <= v <= self.m

    def quotient(self, X: Iterable[int] = ()) -> "QuotientGraph":
        """Memoized X-equivalence quotient (see x_equivalence_quotient)."""
        key = frozenset(X)
        cache = self._quotient_cache
        if key not in cache:
            cache[key] = x_equivalence_quotient(self, key)
        return cache[key]


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient multigraph of a network under an X-equivalence.

    `classes` are the equivalence classes as sorted vertex tuples, ordered by
    least member; `class_of[v]` gives the class position of vertex v (entry 0
    is padding); `edge_classes[e]` gives the class pair of the network edge
    with index e, so every network edge maps to exactly one quotient edge
    (parallel edges and loops are preserved).
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    edge_classes: tuple[tuple[int, int], ...]

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """Each class is numbered by its least vertex."""
        return tuple(cls[0] for cls in self.classes)


@dataclass(frozen=True)
class Circuit:
    """A network plus prescribed voltage differences.

    `deltas` holds (vertex, difference) for every non-root boundary vertex k,
    prescribing U_k - U_root(k); exactly m - p entries, sorted by vertex.
    """

    network: SuperportNetwork
    deltas: tuple[tuple[int, Fraction], ...]

    @cached_property
    def delta_map(self) -> dict[int, Fraction]:
        return dict(self.deltas)


@dataclass(frozen=True)
class Solution:
    """Voltages and currents of a solved circuit.

    `voltages[v-1]` is U_v with the normalization U_m = 0.  `currents` is the
    dense antisymmetric table I[k-1][l-1] = c_kl (U_k - U_l) (zero for
    non-edges).  `incoming[k-1]` is the incoming current at boundary vertex
    k, i.e. the row sum of the current table.
    """

    voltages: tuple[Fraction, ...]
    currents: tuple[tuple[Fraction, ...], ...]
    incoming: tuple[Fraction, ...]

    @classmethod
    def from_edge_currents(cls, net: SuperportNetwork, voltages, currents) -> "Solution":
        """Edge e = (u, v, c) of `net.edges` carries currents[e] from u to v."""
        n, m = net.n, net.m
        table = [[Fraction(0)] * n for _ in range(n)]
        incoming = [Fraction(0)] * m
        for (u, v, _), i in zip(net.edges, currents):
            table[u - 1][v - 1] = i
            table[v - 1][u - 1] = -i
            if u <= m:
                incoming[u - 1] += i
            if v <= m:
                incoming[v - 1] -= i
        return cls(tuple(voltages), tuple(tuple(r) for r in table), tuple(incoming))


# -- validation and canonical labeling ----------------------------------------


def _coerce_edge(item: object, idx: int) -> tuple[int, int, Fraction]:
    """The (u, v, conductance) of edge number idx, unchecked beyond its types."""
    if isinstance(item, Mapping):
        for key in ("u", "v", "c"):
            if key not in item:
                raise SchemaError(f"edges[{idx}]", f"missing edge field {key!r}")
        extra = set(item) - {"u", "v", "c"}
        if extra:
            raise SchemaError(f"edges[{idx}]", f"unknown edge fields {sorted(extra)}")
        u, v, c = item["u"], item["v"], item["c"]
    else:
        try:
            u, v, c = item  # type: ignore[misc]
        except (TypeError, ValueError):
            raise SchemaError(f"edges[{idx}]", "edge must be a (u, v, c) triple or object")
    if not isinstance(u, int) or isinstance(u, bool):
        raise SchemaError(f"edges[{idx}].u", "vertex label must be an integer")
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"edges[{idx}].v", "vertex label must be an integer")
    try:
        cond = rat(c)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"edges[{idx}].c", str(exc))
    return u, v, cond


def validate_and_canonicalize(
    raw: object, *, merge_parallel: bool = False
) -> tuple[SuperportNetwork, dict[int, int]]:
    """Validate a raw description and relabel it into canonical form.

    This is the only check of a network description.  Anything but an
    object, or an object with a field other than "vertices", "edges" and
    "superports", is a SchemaError at "$"; every other fault is a
    SchemaError naming its field, or a NetworkError subclass.

    Returns (network, mapping) where mapping sends original labels to
    canonical ones.  Boundary vertices are numbered first, superport by
    superport in the order given, ascending within each superport (so each
    superport's largest original label becomes its root); interior vertices
    follow in ascending original order.

    With merge_parallel=True, repeated edges are first combined by summing
    their conductances; otherwise they raise MultiEdge.
    """
    if not isinstance(raw, Mapping):
        raise SchemaError("$", "network description must be an object")
    extra = set(raw) - {"vertices", "edges", "superports"}
    if extra:
        raise SchemaError("$", f"unknown fields {sorted(extra)}")
    for key in ("vertices", "edges", "superports"):
        if key not in raw:
            raise SchemaError(key, "missing required field")
    n = raw["vertices"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("vertices", "must be a positive integer")
    edges_raw = raw["edges"]
    superports_raw = raw["superports"]
    if not isinstance(edges_raw, Sequence) or isinstance(edges_raw, (str, bytes)):
        raise SchemaError("edges", "must be a list")
    if not isinstance(superports_raw, Sequence) or isinstance(superports_raw, (str, bytes)):
        raise SchemaError("superports", "must be a list of lists")
    if len(superports_raw) == 0:
        raise SchemaError("superports", "at least one superport is required")

    merged: dict[tuple[int, int], Fraction] = {}
    for idx, item in enumerate(edges_raw):
        u, v, c = _coerce_edge(item, idx)
        if u < 1 or v < 1:
            raise SchemaError(f"edges[{idx}]", "vertex labels must be positive")
        if c <= 0:
            raise NonPositiveConductance(
                f"edges[{idx}]: conductance {rat_str(c)} is not positive"
            )
        if u == v:
            raise LoopEdge(f"edges[{idx}]: loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in merged:
            if not merge_parallel:
                raise MultiEdge(f"repeated edge between {u} and {v}")
            merged[(u, v)] += c
        else:
            merged[(u, v)] = c

    superports: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for k, sp in enumerate(superports_raw):
        if not isinstance(sp, Sequence) or isinstance(sp, (str, bytes)):
            raise SchemaError(f"superports[{k}]", "must be a list of vertex labels")
        members = list(sp)
        for j, v in enumerate(members):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise SchemaError(
                    f"superports[{k}][{j}]", "vertex label must be a positive integer"
                )
        if not members:
            raise EmptySuperport(f"superports[{k}] is empty")
        if len(set(members)) != len(members):
            raise OverlappingSuperports(f"superports[{k}] repeats a vertex")
        overlap = seen.intersection(members)
        if overlap:
            raise OverlappingSuperports(
                f"vertex {min(overlap)} appears in more than one superport"
            )
        seen.update(members)
        superports.append(tuple(sorted(members)))

    labels = set(seen)
    for u, v in merged:
        labels.add(u)
        labels.add(v)
    if len(labels) != n:
        raise SchemaError(
            "vertices",
            f"declared {n} vertices but {len(labels)} distinct labels appear",
        )

    mapping: dict[int, int] = {}
    nxt = 1
    for sp in superports:
        for v in sp:  # ascending; largest original label becomes the root
            mapping[v] = nxt
            nxt += 1
    for v in sorted(labels - seen):
        mapping[v] = nxt
        nxt += 1

    least, _ = _join(n + 1, ((mapping[u], mapping[v]) for u, v in merged))
    start = next(iter(labels))
    component = least[mapping[start]]
    missing = sorted(v for v, w in mapping.items() if least[w] != component)
    if missing:
        raise Disconnected(f"vertices {missing} are not connected to vertex {start}")

    new_edges = sorted(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), c)
        for (u, v), c in merged.items()
    )
    new_superports = tuple(tuple(mapping[v] for v in sp) for sp in superports)
    net = SuperportNetwork(n=n, edges=tuple(new_edges), superports=new_superports)
    return net, mapping


def _join(size: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], bool]:
    """The package's one union-find: join each pair of classes 0..size-1.

    Links always point from a larger class to a smaller one, so one
    ascending pass resolves every label to the least class of its
    component.  Also returns whether no pair fell inside one component.
    """
    least = list(range(size))
    acyclic = True
    for a, b in pairs:
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
    for c in range(size):
        least[c] = least[least[c]]
    return least, acyclic


# the network loader is the validator itself
network_from_data = validate_and_canonicalize


def canonical_network(edges: Iterable, superports: Iterable[Iterable[int]]) -> SuperportNetwork:
    """Canonical network from programmatic edge/superport lists; the vertex
    count is inferred from the labels that appear."""
    edge_list = [_coerce_edge(item, idx) for idx, item in enumerate(edges)]
    sp_list = [list(sp) for sp in superports]
    labels: set[int] = set()
    for u, v, _ in edge_list:
        labels.add(u)
        labels.add(v)
    for sp in sp_list:
        labels.update(sp)
    raw = {"vertices": len(labels), "edges": edge_list, "superports": sp_list}
    net, _ = validate_and_canonicalize(raw)
    return net


def unify_superports(net: SuperportNetwork) -> SuperportNetwork:
    """Forget the superport structure: same graph, one superport holding the
    whole boundary (the electrical network underlying `net`)."""
    return SuperportNetwork(
        n=net.n,
        edges=net.edges,
        superports=(tuple(range(1, net.m + 1)),),
    )


def x_equivalence_quotient(net: SuperportNetwork, X: Iterable[int] = ()) -> QuotientGraph:
    """Quotient of the network under the X-equivalence.

    Two boundary vertices outside X are equivalent iff they share a
    superport; members of X and interior vertices are singletons.  The empty
    X gives the plain superport contraction.
    """
    xset = frozenset(X)
    for v in xset:
        if not 1 <= v <= net.n:
            raise ValueError(f"vertex {v} is not in the network")
    groups: list[tuple[int, ...]] = []
    for sp in net.superports:
        rest = tuple(v for v in sp if v not in xset)
        if rest:
            groups.append(rest)
    for v in range(1, net.n + 1):
        if v > net.m or v in xset:
            groups.append((v,))
    groups.sort(key=lambda cls: cls[0])
    class_of = [0] * (net.n + 1)
    for idx, cls in enumerate(groups):
        for v in cls:
            class_of[v] = idx
    edge_classes = tuple((class_of[u], class_of[v]) for u, v, _ in net.edges)
    return QuotientGraph(
        classes=tuple(groups),
        class_of=tuple(class_of),
        edge_classes=edge_classes,
    )


# -- circuits ------------------------------------------------------------------


def make_circuit(net: SuperportNetwork, deltas: Mapping[int, object]) -> Circuit:
    """Attach prescribed voltage differences to a network.

    `deltas` must cover exactly the non-root boundary vertices.
    """
    coerced = {k: rat(value) for k, value in deltas.items()}
    _require_cover(set(net.non_roots), coerced)
    return Circuit(network=net, deltas=tuple(sorted(coerced.items())))


def _require_cover(expected: set[int], given: Iterable[int]) -> None:
    """A SchemaError at "deltas" unless the labels given are the expected."""
    got = set(given)
    faults = {"missing non-root vertices": expected - got, "unexpected vertices": got - expected}
    parts = [f"{what} {sorted(labels)}" for what, labels in faults.items() if labels]
    if parts:
        raise SchemaError("deltas", "; ".join(parts))


# -- serialization ---------------------------------------------------------------


def network_to_data(net: SuperportNetwork) -> dict:
    return {
        "vertices": net.n,
        "edges": [
            {"u": u, "v": v, "c": rat_str(c)} for u, v, c in net.edges
        ],
        "superports": [list(sp) for sp in net.superports],
    }


def circuit_to_data(circuit: Circuit) -> dict:
    data = network_to_data(circuit.network)
    data["deltas"] = [
        {"vertex": k, "du": rat_str(d)} for k, d in circuit.deltas
    ]
    return data


def solution_to_data(solution: Solution, net: SuperportNetwork) -> dict:
    return {
        "voltages": [rat_str(u) for u in solution.voltages],
        "currents": [
            {"u": u, "v": v, "i": rat_str(solution.currents[u - 1][v - 1])}
            for u, v, _ in net.edges
        ],
        "incoming": [rat_str(i) for i in solution.incoming],
    }


def circuit_from_data(
    data: object, *, merge_parallel: bool = False
) -> tuple[Circuit, dict[int, int]]:
    """A circuit and its old-to-new label mapping.  Every field but "deltas"
    goes to `validate_and_canonicalize`; the deltas are checked here, and
    their errors name the file's labels."""
    if not isinstance(data, Mapping):
        raise SchemaError("$", "circuit description must be an object")
    if "deltas" not in data:
        raise SchemaError("deltas", "missing required field")
    deltas_raw = data["deltas"]
    if not isinstance(deltas_raw, Sequence) or isinstance(deltas_raw, (str, bytes)):
        raise SchemaError("deltas", "must be a list")
    net, mapping = validate_and_canonicalize(
        {k: v for k, v in data.items() if k != "deltas"}, merge_parallel=merge_parallel
    )
    deltas: dict[int, Fraction] = {}  # by the file's labels
    for idx, item in enumerate(deltas_raw):
        if not isinstance(item, Mapping):
            raise SchemaError(f"deltas[{idx}]", "must be an object")
        if set(item) != {"vertex", "du"}:
            raise SchemaError(f"deltas[{idx}]", 'must have fields "vertex" and "du"')
        v = item["vertex"]
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(f"deltas[{idx}].vertex", "must be an integer")
        if v not in mapping:
            raise SchemaError(f"deltas[{idx}].vertex", f"unknown vertex label {v}")
        try:
            du = rat(item["du"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"deltas[{idx}].du", str(exc))
        if v in deltas:
            raise SchemaError(f"deltas[{idx}].vertex", f"vertex {v} appears twice")
        deltas[v] = du
    non_roots = set(net.non_roots)
    _require_cover({old for old, new in mapping.items() if new in non_roots}, deltas)
    canonical = sorted((mapping[v], du) for v, du in deltas.items())
    return Circuit(network=net, deltas=tuple(canonical)), mapping


def dumps_network(net: SuperportNetwork) -> str:
    return json.dumps(network_to_data(net), indent=2) + "\n"


def dumps_circuit(circuit: Circuit) -> str:
    return json.dumps(circuit_to_data(circuit), indent=2) + "\n"


def loads_json(text: str):
    """The value of a JSON text; malformed text, nesting too deep for the
    parser or an integer literal over the digit limit, is a SchemaError at
    "$"."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError("$", f"invalid JSON: {exc}")


def load_json(path: str):
    """The value of the JSON file at `path`, decoded by `loads_json`; the one
    place a file is read."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_json(fh.read())


def loads_network(text: str, *, merge_parallel: bool = False) -> SuperportNetwork:
    net, _ = network_from_data(loads_json(text), merge_parallel=merge_parallel)
    return net


def loads_circuit(text: str, *, merge_parallel: bool = False) -> Circuit:
    circuit, _ = circuit_from_data(loads_json(text), merge_parallel=merge_parallel)
    return circuit


def load_network(path: str, *, merge_parallel: bool = False) -> SuperportNetwork:
    net, _ = network_from_data(load_json(path), merge_parallel=merge_parallel)
    return net


def load_circuit(path: str, *, merge_parallel: bool = False) -> Circuit:
    circuit, _ = circuit_from_data(load_json(path), merge_parallel=merge_parallel)
    return circuit
