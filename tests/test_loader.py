"""The loader's messages, pinned.

One single-fault document per error that `loads_network` and `loads_circuit`
raise, each with the message it gives: through the library, and through the
`validate` and `solve` subcommands, which print it and exit 2.  Each
document but the two that are not JSON is one of three small valid ones
(`net`, `circ` and `relabeled`) changed in one place."""

import json

import pytest

from superport import (
    SchemaError,
    canonical_network,
    loads_circuit,
    loads_network,
    network_from_data,
    validate_and_canonicalize,
)
from superport.cli import main


def net(**fields):
    """The network 1 - 3 - 2 with superport [1, 2], fields replaced."""
    doc = {"vertices": 3, "edges": [[1, 3, "1"], [2, 3, "2"]], "superports": [[1, 2]]}
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


def circ(**fields):
    """That network with the difference 1 at vertex 1, fields replaced."""
    return net(**{"deltas": [{"vertex": 1, "du": "1"}], **fields})


def delta(vertex, du="1"):
    return {"vertex": vertex, "du": du}


def relabeled(*vertices):
    """A path 10 - 20 - 30 - 40, superports [10, 20] and [30, 40] (canonical
    1..4), with a difference at each of the given vertices."""
    return {
        "vertices": 4,
        "edges": [[10, 20, "1"], [20, 30, "1"], [30, 40, "1"]],
        "superports": [[10, 20], [30, 40]],
        "deltas": [delta(v) for v in vertices],
    }


class Raw(str):
    """A document given as its text, not as a value to encode."""


NOT_JSON = "SchemaError: $: invalid JSON: "
TWO_EDGES = [[1, 3, "1"], [2, 3, "2"]]

NETWORK_MESSAGES = [
    (Raw("{not json"),
     NOT_JSON + "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ([1, 2], "SchemaError: $: network description must be an object"),
    ("vertices edges superports", "SchemaError: $: network description must be an object"),
    (["vertices", "edges", "superports"], "SchemaError: $: network description must be an object"),
    (net(comment="x"), "SchemaError: $: unknown fields ['comment']"),
    (net(vertices=None), "SchemaError: vertices: missing required field"),
    (net(edges=None), "SchemaError: edges: missing required field"),
    (net(superports=None), "SchemaError: superports: missing required field"),
    (net(vertices="3"), "SchemaError: vertices: must be a positive integer"),
    (net(vertices=True), "SchemaError: vertices: must be a positive integer"),
    (net(vertices=0), "SchemaError: vertices: must be a positive integer"),
    (net(edges={}), "SchemaError: edges: must be a list"),
    (net(superports="12"), "SchemaError: superports: must be a list of lists"),
    (net(superports=[]), "SchemaError: superports: at least one superport is required"),
    (net(edges=[{"u": 1, "v": 3}, [2, 3, "2"]]),
     "SchemaError: edges[0]: missing edge field 'c'"),
    (net(edges=[[1, 3, "1"], {"u": 2, "v": 3, "c": "2", "w": 0}]),
     "SchemaError: edges[1]: unknown edge fields ['w']"),
    (net(edges=[[1, 3], [2, 3, "2"]]),
     "SchemaError: edges[0]: edge must be a (u, v, c) triple or object"),
    (net(edges=[[1, 3, "1"], 7]),
     "SchemaError: edges[1]: edge must be a (u, v, c) triple or object"),
    (net(edges=[["1", 3, "1"], [2, 3, "2"]]),
     "SchemaError: edges[0].u: vertex label must be an integer"),
    (net(edges=[[1, 3.0, "1"], [2, 3, "2"]]),
     "SchemaError: edges[0].v: vertex label must be an integer"),
    (net(edges=[[1, 3, "x"], [2, 3, "2"]]), "SchemaError: edges[0].c: not a rational literal: 'x'"),
    (net(edges=[[1, 3, 1.5], [2, 3, "2"]]),
     "SchemaError: edges[0].c: cannot coerce float to a rational"),
    (net(edges=[[1, 3, True], [2, 3, "2"]]),
     "SchemaError: edges[0].c: bool is not a rational value"),
    (net(edges=[[1, 3, "1/0"], [2, 3, "2"]]),
     "SchemaError: edges[0].c: not a rational literal: '1/0'"),
    (net(edges=[[0, 3, "1"], [2, 3, "2"]]),
     "SchemaError: edges[0]: vertex labels must be positive"),
    (net(edges=[[1, 3, "0"], [2, 3, "2"]]),
     "NonPositiveConductance: edges[0]: conductance 0 is not positive"),
    (net(edges=[[1, 3, "-1/2"], [2, 3, "2"]]),
     "NonPositiveConductance: edges[0]: conductance -1/2 is not positive"),
    (net(edges=[*TWO_EDGES, [3, 3, "1"]]), "LoopEdge: edges[2]: loop at vertex 3"),
    (net(edges=[*TWO_EDGES, [3, 1, "1"]]), "MultiEdge: repeated edge between 1 and 3"),
    (net(superports=[7]), "SchemaError: superports[0]: must be a list of vertex labels"),
    (net(superports=[[1, "2"]]),
     "SchemaError: superports[0][1]: vertex label must be a positive integer"),
    (net(superports=[[1, 0]]),
     "SchemaError: superports[0][1]: vertex label must be a positive integer"),
    (net(superports=[[1, 2], []]), "EmptySuperport: superports[1] is empty"),
    (net(superports=[[1, 2, 1]]), "OverlappingSuperports: superports[0] repeats a vertex"),
    (net(superports=[[1, 2], [2]]),
     "OverlappingSuperports: vertex 2 appears in more than one superport"),
    (net(vertices=4), "SchemaError: vertices: declared 4 vertices but 3 distinct labels appear"),
    (net(vertices=4, edges=[[1, 3, "1"], [2, 4, "2"]]),
     "Disconnected: vertices [2, 4] are not connected to vertex 1"),
    # a digit is 0-9: Arabic-Indic and fullwidth digits are not literals
    (net(edges=[[1, 3, "٣"], [2, 3, "2"]]), "SchemaError: edges[0].c: not a rational literal: '٣'"),
    (net(edges=[[1, 3, "３"], [2, 3, "2"]]), "SchemaError: edges[0].c: not a rational literal: '３'"),
    (net(edges=[[1, 3, "1/٢"], [2, 3, "2"]]),
     "SchemaError: edges[0].c: not a rational literal: '1/٢'"),
    (net(edges=[[1, 3, "٣/2"], [2, 3, "2"]]),
     "SchemaError: edges[0].c: not a rational literal: '٣/2'"),
]

CIRCUIT_MESSAGES = [
    (Raw("[1, 2"), NOT_JSON + "Expecting ',' delimiter: line 1 column 6 (char 5)"),
    (3, "SchemaError: $: circuit description must be an object"),
    ([circ()], "SchemaError: $: circuit description must be an object"),
    (circ(comment="x"), "SchemaError: $: unknown fields ['comment']"),
    (circ(deltas=None), "SchemaError: deltas: missing required field"),
    (circ(deltas={"1": "1"}), "SchemaError: deltas: must be a list"),
    (circ(deltas=[[1, "1"]]), "SchemaError: deltas[0]: must be an object"),
    (circ(deltas=[{"vertex": 1}]), 'SchemaError: deltas[0]: must have fields "vertex" and "du"'),
    (circ(deltas=[{"vertex": 1, "du": "1", "x": 0}]),
     'SchemaError: deltas[0]: must have fields "vertex" and "du"'),
    (circ(deltas=[delta("1")]), "SchemaError: deltas[0].vertex: must be an integer"),
    (circ(deltas=[delta(9)]), "SchemaError: deltas[0].vertex: unknown vertex label 9"),
    (circ(deltas=[delta(1, "one")]), "SchemaError: deltas[0].du: not a rational literal: 'one'"),
    (circ(deltas=[delta(1, None)]),
     "SchemaError: deltas[0].du: cannot coerce NoneType to a rational"),
    (circ(deltas=[delta(1), delta(1, "2")]),
     "SchemaError: deltas[1].vertex: vertex 1 appears twice"),
    (circ(edges=[*TWO_EDGES, [3, 3, "1"]]), "LoopEdge: edges[2]: loop at vertex 3"),
    # the deltas must cover the non-roots exactly; named by the file's labels
    (circ(deltas=[]), "SchemaError: deltas: missing non-root vertices [1]"),
    (circ(deltas=[delta(1), delta(2, "0")]), "SchemaError: deltas: unexpected vertices [2]"),
    (circ(deltas=[delta(1), delta(3, "0")]), "SchemaError: deltas: unexpected vertices [3]"),
    (relabeled(10), "SchemaError: deltas: missing non-root vertices [30]"),
    (relabeled(10, 30, 40), "SchemaError: deltas: unexpected vertices [40]"),
    (relabeled(20), "SchemaError: deltas: missing non-root vertices [10, 30]; "
                    "unexpected vertices [20]"),
    # a circuit's network fields are checked as a network's are
    (circ(edges=None), "SchemaError: edges: missing required field"),
    (circ(vertices=None), "SchemaError: vertices: missing required field"),
]


def text_of(document) -> str:
    return document if isinstance(document, Raw) else json.dumps(document)


def message_of(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


CASES = [
    pytest.param(kind, document, message, id=f"{kind}-{idx}")
    for kind, table in (("network", NETWORK_MESSAGES), ("circuit", CIRCUIT_MESSAGES))
    for idx, (document, message) in enumerate(table)
]


@pytest.mark.parametrize("kind, document, message", CASES)
def test_library_message(kind, document, message):
    loads = loads_network if kind == "network" else loads_circuit
    with pytest.raises(Exception) as exc:
        loads(text_of(document))
    assert message_of(exc.value) == message


@pytest.mark.parametrize("kind, document, message", CASES)
def test_cli_message(capsys, tmp_path, kind, document, message):
    path = tmp_path / "input.json"
    path.write_text(text_of(document))
    code = main(["validate" if kind == "network" else "solve", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message + "\n")


def test_the_documents_the_faults_are_made_in_are_valid():
    loads_network(json.dumps(net()))
    circuit = loads_circuit(json.dumps(circ()))
    assert circuit.deltas == ((1, 1),)
    circuit = loads_circuit(json.dumps(relabeled(10, 30)))
    assert [k for k, _ in circuit.deltas] == [1, 3]


@pytest.mark.parametrize("raw", [
    ["vertices", "edges", "superports"],
    "vertices edges superports",
    None,
    net(comment="x"),
], ids=["list", "string", "null", "unknown-field"])
def test_the_validator_refuses_at_the_top(raw):
    with pytest.raises(SchemaError) as exc:
        validate_and_canonicalize(raw)
    assert exc.value.path == "$"


def test_the_network_loader_is_the_validator():
    assert network_from_data is validate_and_canonicalize


@pytest.mark.parametrize("edges, message", [
    ([(1, 2, "x")], "edges[0].c: not a rational literal: 'x'"),
    ([(1, 2, 1), (2, 3)], "edges[1]: edge must be a (u, v, c) triple or object"),
    ([(1, 2, 1), (2, "3", 1)], "edges[1].v: vertex label must be an integer"),
    ([(1, 2, 1), {"u": 2, "v": 3}], "edges[1]: missing edge field 'c'"),
])
def test_canonical_network_names_the_edge_index(edges, message):
    with pytest.raises(SchemaError) as exc:
        canonical_network(edges, [[1, 2]])
    assert str(exc.value) == message
