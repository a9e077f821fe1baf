"""The four benchmark workloads: seeded inputs, one operation, exact gates.

Every input is generated here from the run's seed; the program only sees
the generated networks and circuits.  A workload is a fixed batch of
``batch`` distinct operations, built during set-up and driven by ``run.py``:

* ``op(i)`` performs operation i through the program's public functions
  and returns what the gate needs (the caller times it);
* ``check(i, result)`` is the per-operation correctness gate, run outside
  the timed region;
* ``finish()`` runs the gates that cover the whole phase and returns a list
  of failure messages;
* ``restart()`` clears the gates' state before a batch is replayed.

All comparisons are exact (``Fraction`` or integer equality).

Every workload keeps its graph shapes fixed and lets the seed draw the
conductances (and the prescribed differences of the circuits, the vertex
labels at the edge cap, the verifiers' random choices in the campaign).
Forest, valid-forest and partition counts and matrix sizes are therefore
the same for every seed, so run-to-run spread comes from the arithmetic and
the machine, not from a different amount of work.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import superport as sp
from superport import cli

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
RECORD = json.loads((HERE / "workloads.json").read_text())

CAP_SHAPE_SEED = 1
CAMPAIGN_SHAPE_SEED = 0
CIRCUIT_SHAPE_SEED = 2

SIZES = {
    "full": {
        "campaign_batch": 100,
        "campaign_parity": 50,
        "cap": (12, 20, (3, 2, 1)),
        "circuits": 20,
        "circuit": (30, 60, (3, 3, 2)),
    },
    "tiny": {
        "campaign_batch": 4,
        "campaign_parity": 4,
        "cap": (6, 8, (2, 2, 1)),
        "circuits": 3,
        "circuit": (8, 12, (2, 2, 1)),
    },
}


def _conductance(rng: random.Random) -> Fraction:
    # the same value range as superport.random_network
    return Fraction(rng.randint(1, 10), rng.randint(1, 10))


def random_shape(rng: random.Random, n: int, edges: int, sizes) -> tuple[list, list]:
    """A connected graph on 1..n with exactly `edges` edges (a random
    recursive tree plus random extra edges) and disjoint superports of the
    given sizes, each sorted so that its largest label becomes the root."""
    chosen = set()
    for v in range(2, n + 1):
        chosen.add((rng.randint(1, v - 1), v))
    pool = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in chosen
    ]
    rng.shuffle(pool)
    chosen.update(pool[: edges - len(chosen)])
    boundary = rng.sample(range(1, n + 1), sum(sizes))
    superports, start = [], 0
    for size in sizes:
        superports.append(sorted(boundary[start : start + size]))
        start += size
    return sorted(chosen), superports


def cap_network(seed: int, size: str) -> sp.SuperportNetwork:
    """The fixed cap shape with seed-drawn vertex labels and conductances."""
    n, edges, sizes = SIZES[size]["cap"]
    shape_edges, shape_superports = random_shape(
        random.Random(CAP_SHAPE_SEED), n, edges, sizes
    )
    rng = random.Random(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    relabel = dict(zip(range(1, n + 1), labels))
    return sp.canonical_network(
        [(relabel[u], relabel[v], _conductance(rng)) for u, v in shape_edges],
        [[relabel[v] for v in superport] for superport in shape_superports],
    )


def campaign_shapes(count: int) -> list[tuple[list, list]]:
    """(edges, superports) of the first `count` networks that
    ``superport verify --campaign N --seed 0`` draws.  The CLI shares one rng
    between ``random_network`` and the verifiers, so the verifiers' draws
    (``random_xyzw`` for kw, then ``random_circuit`` for solution) are
    replayed in between."""
    rng = random.Random(CAMPAIGN_SHAPE_SEED)
    shapes = []
    for _ in range(count):
        net = sp.random_network(rng, require_nonroots=True)
        sp.random_xyzw(rng, net.m)
        sp.random_circuit(rng, net)
        shapes.append(([(u, v) for u, v, _ in net.edges], net.superports))
    return shapes


def circuit_texts(seed: int, size: str) -> list[str]:
    """Circuits in the JSON file format: fixed shapes, conductances and
    prescribed differences drawn from the seed."""
    shapes = random.Random(CIRCUIT_SHAPE_SEED)
    rng = random.Random(seed)
    n, edges, sizes = SIZES[size]["circuit"]
    texts = []
    for _ in range(SIZES[size]["circuits"]):
        shape_edges, superports = random_shape(shapes, n, edges, sizes)
        data = {
            "vertices": n,
            "edges": [
                {"u": u, "v": v, "c": sp.rat_str(_conductance(rng))} for u, v in shape_edges
            ],
            "superports": superports,
            "deltas": [
                {"vertex": v, "du": sp.rat_str(Fraction(rng.randint(-10, 10), rng.randint(1, 10)))}
                for superport in superports
                for v in superport[:-1]
            ],
        }
        texts.append(json.dumps(data))
    return texts


# -- gates ----------------------------------------------------------------------

_REPORT_LINE = re.compile(r"^([\w-]+): (pass|fail) \((\d+) checks, ", re.MULTILINE)


def report_tally(reports) -> Counter:
    return Counter((r.theorem, r.status, r.checks) for r in reports)


def cli_tally(text: str) -> Counter:
    """Tally of the report lines that ``superport verify`` prints as text."""
    return Counter(
        (theorem, status, int(checks)) for theorem, status, checks in _REPORT_LINE.findall(text)
    )


def incoming_matches(circuit: sp.Circuit, L: sp.Matrix, solution: sp.Solution) -> bool:
    """The solver's incoming currents at the non-roots equal L times the
    prescribed differences."""
    deltas = circuit.delta_map
    nr = circuit.network.non_roots
    return all(
        sum((L.entry(k, j) * deltas[j] for j in nr), Fraction(0)) == solution.incoming[k - 1]
        for k in nr
    )


def tree_weight_sum(lines: list[str]) -> Fraction:
    """Sum of the weight column of `forests --weights` output lines."""
    return sum((Fraction(line.split("\t")[1]) for line in lines), Fraction(0))


def reduced_kirchhoff_det(net: sp.SuperportNetwork) -> Fraction:
    """Weighted spanning-tree sum by the matrix-tree theorem."""
    K = sp.kirchhoff_matrix(net)
    return K.submatrix(range(net.n - 1), range(net.n - 1)).det()


# -- workloads ------------------------------------------------------------------


class Campaign:
    """The networks of ``superport verify --campaign N --seed 0 --theorem all``
    with conductances and the verifiers' random choices drawn from the run's
    seed, one network per operation.

    The shapes (vertex count, edges, superports) come from the CLI's own
    stream for seed 0, so every seed verifies the same mix of network sizes;
    only the arithmetic changes with the seed.  Each operation builds its
    network afresh, as ``random_network`` does, so repeated batches share no
    cached quotients.
    """

    def __init__(self, seed: int, size: str):
        self.batch = SIZES[size]["campaign_batch"]
        self.parity = min(SIZES[size]["campaign_parity"], self.batch)
        rng = random.Random(seed)
        self.inputs = [
            (
                [(u, v, _conductance(rng)) for u, v in edges],
                superports,
                rng.randrange(2**32),
            )
            for edges, superports in campaign_shapes(self.batch)
        ]
        self.restart()

    def restart(self) -> None:
        self.tallies: dict[int, Counter] = {}

    def op(self, i: int):
        edges, superports, verify_seed = self.inputs[i]
        net = sp.canonical_network(edges, superports)
        return sp.run_verifications(
            net, ["all"], rng=random.Random(verify_seed), cap=sp.DEFAULT_CAP
        )

    def check(self, i: int, reports) -> bool:
        if i < self.parity:
            self.tallies[i] = report_tally(reports)
        return bool(reports) and all(r.ok for r in reports)

    def finish(self) -> list[str]:
        args = ["verify", "--campaign", str(self.parity), "--seed", str(CAMPAIGN_SHAPE_SEED)]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([*args, "--theorem", "all"])
        if code != 0:
            return [f"superport {' '.join(args)} exited {code}"]
        if cli_tally(out.getvalue()) != sum(self.tallies.values(), Counter()):
            return [f"report tally differs from superport {' '.join(args)}"]
        return []


class CapVerify:
    """``run_verifications(net, ["all"])`` on the network at the edge cap."""

    batch = 1

    def __init__(self, seed: int, size: str):
        self.net = cap_network(seed, size)
        self.restart()

    def restart(self) -> None:
        self.first = None

    def op(self, i: int):
        # a fresh network object, so no quotient is cached from an earlier op
        net = sp.canonical_network(self.net.edges, self.net.superports)
        return sp.run_verifications(net, ["all"])

    def check(self, i: int, reports) -> bool:
        summary = [r.to_data() for r in reports]
        if self.first is None:
            self.first = summary
        return bool(reports) and all(r.ok for r in reports) and summary == self.first

    def finish(self) -> list[str]:
        return []


class MatrixSolve:
    """Parse a circuit, build K, C and L, and solve it: the linear-algebra
    side alone, on circuits far above the enumeration cap."""

    def __init__(self, seed: int, size: str):
        self.texts = circuit_texts(seed, size)
        self.batch = len(self.texts)

    def restart(self) -> None:
        pass

    def op(self, i: int):
        circuit = sp.loads_circuit(self.texts[i])
        matrices = sp.response_matrices(circuit.network)
        return circuit, matrices, sp.solve(circuit)

    def check(self, i: int, result) -> bool:
        circuit, matrices, solution = result
        return incoming_matches(circuit, matrices.superport_response, solution)

    def finish(self) -> list[str]:
        return []


class LineSink:
    """Stand-in for stdout: timestamps the first write, counts lines and
    bytes, and keeps only the spanning-tree lines (n - 1 edges)."""

    def __init__(self, tree_edges: int):
        self.tree_spaces = tree_edges - 1
        self.first = None
        self.lines = 0
        self.bytes = 0
        self.trees: list[str] = []

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        self.bytes += len(text)  # the output is ASCII
        self.lines += text.count("\n")
        if text != "\n" and text.count(" ") == self.tree_spaces:
            self.trees.append(text)
        return len(text)


class CapForests:
    """``superport forests <cap network> --kind all --weights``, written to an
    in-memory sink: the forest layer streaming its output instead of
    aggregating it."""

    batch = 1

    def __init__(self, seed: int, size: str):
        self.net = cap_network(seed, size)
        self.expected_lines = RECORD["cap-forests"]["forests_per_op"][size]
        WORK_DIR.mkdir(exist_ok=True)
        self.path = WORK_DIR / f"cap-{size}-{seed}.json"
        self.path.write_text(sp.dumps_network(self.net))
        self.restart()

    def restart(self) -> None:
        self.trees = None
        self.first_size = None
        self.output_lines = 0
        self.output_bytes = 0

    def op(self, i: int):
        sink = LineSink(self.net.n - 1)
        with redirect_stdout(sink):
            code = cli.main(["forests", str(self.path), "--kind", "all", "--weights"])
        return code, sink

    def first_output(self, result):
        return result[1].first

    def check(self, i: int, result) -> bool:
        code, sink = result
        self.output_lines += sink.lines
        self.output_bytes += sink.bytes
        if self.trees is None:
            self.trees = sink.trees
            self.first_size = (sink.lines, sink.bytes)
        return (
            code == 0
            and sink.lines == self.expected_lines
            and (sink.lines, sink.bytes) == self.first_size
            and sink.trees == self.trees
        )

    def finish(self) -> list[str]:
        if self.trees is None:
            return []
        if tree_weight_sum(self.trees) != reduced_kirchhoff_det(self.net):
            return ["tree weights do not sum to det of the reduced Kirchhoff matrix"]
        return []


WORKLOADS = {
    "campaign": Campaign,
    "cap-verify": CapVerify,
    "matrix-solve": MatrixSolve,
    "cap-forests": CapForests,
}
