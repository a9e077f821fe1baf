"""Command-line front end.

Subcommands: validate, solve, response, forests, verify, count, boxh.
Output is machine-readable JSON (--format json, the default for structured
results is text) and every command exits 0 on success, 1 on a failed
verification (after printing the witness), 2 on a usage or input error.

`forests` streams one line per forest, one write each, in enumeration
order: the edge indices and, with --weights, the weight, reduced on
integers from the forest's units over a power of the conductance scale
and printed as `rat_str` would print it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from math import gcd
from typing import Optional, Sequence

from .forests import (
    DEFAULT_CAP,
    CapExceeded,
    conductance_scale,
    enumerate_spanning_forests,
    is_relatively_valid,
    is_valid,
)
from .linalg import LinAlgError, Matrix, rat, rat_str, ratio_str
from .network import (
    NetworkError,
    SchemaError,
    load_circuit,
    load_network,
    network_from_data,
    network_to_data,
    solution_to_data,
)
from .solver import SolverError, response_matrices, solve
from .verify import (
    THEOREMS,
    box_h,
    random_network,
    run_verifications,
    verify_box_h,
    verify_cayley,
    verify_generalized_cayley,
)

THEOREM_CHOICES = (*THEOREMS, "all")


def _matrix_data(matrix: Matrix) -> dict:
    return {
        "row_labels": list(matrix.row_labels),
        "col_labels": list(matrix.col_labels),
        "entries": [[rat_str(x) for x in row] for row in matrix.entries],
    }


def _print_matrix(matrix: Matrix, name: str) -> None:
    print(f"{name} rows {list(matrix.row_labels)} cols {list(matrix.col_labels)}")
    for label, row in zip(matrix.row_labels, matrix.entries):
        print(f"  {label}: " + " ".join(rat_str(x) for x in row))


def _load_raw(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def cmd_validate(args: argparse.Namespace) -> int:
    raw = _load_raw(args.network)
    net, mapping = network_from_data(raw, merge_parallel=args.merge_parallel)
    if args.format == "json":
        print(json.dumps(network_to_data(net), indent=2))
    else:
        print(
            f"valid: {net.n} vertices, {len(net.edges)} edges, "
            f"{net.m} boundary in {net.p} superports"
        )
        relabeled = {old: new for old, new in sorted(mapping.items()) if old != new}
        if relabeled:
            print(
                "relabeled: "
                + ", ".join(f"{old}->{new}" for old, new in relabeled.items())
            )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit, merge_parallel=args.merge_parallel)
    solution = solve(circuit)
    net = circuit.network
    if args.format == "json":
        print(json.dumps(solution_to_data(solution, net), indent=2))
        return 0
    for v in range(1, net.n + 1):
        print(f"U[{v}] = {rat_str(solution.voltages[v - 1])}")
    for u, v, _ in net.edges:
        print(f"I[{u},{v}] = {rat_str(solution.currents[u - 1][v - 1])}")
    for k in range(1, net.m + 1):
        print(f"in[{k}] = {rat_str(solution.incoming[k - 1])}")
    return 0


def cmd_response(args: argparse.Namespace) -> int:
    net = load_network(args.network, merge_parallel=args.merge_parallel)
    want = args.show
    matrices = response_matrices(net, extended=want == "Lext")
    if want == "K":
        matrix = matrices.kirchhoff
    elif want == "C":
        matrix = matrices.response
    elif want == "Lext":
        matrix = matrices.extended
    else:
        matrix = matrices.superport_response
        if matrix is None:
            print("no non-root vertices: the superport response is empty", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(_matrix_data(matrix), indent=2))
    else:
        _print_matrix(matrix, want)
    return 0


def cmd_forests(args: argparse.Namespace) -> int:
    net = load_network(args.network, merge_parallel=args.merge_parallel)
    kind = args.kind
    if kind.startswith("relative:"):
        try:
            i = int(kind.split(":", 1)[1])
        except ValueError:
            print(
                f"kind {kind!r} needs an integer boundary vertex, as in relative:1",
                file=sys.stderr,
            )
            return 2
        if not net.is_boundary(i):
            print(f"vertex {i} is not a boundary vertex", file=sys.stderr)
            return 2
        keep = lambda f: is_relatively_valid(f, net, i)
    elif kind == "trees":
        keep = lambda f: f.component_count == 1
    elif kind == "valid":
        keep = lambda f: is_valid(f, net)
    elif kind == "all":
        keep = None
    else:
        print(f"unknown kind {kind!r}", file=sys.stderr)
        return 2
    forests = enumerate_spanning_forests(net, keep, cap=args.cap)
    # a forest with k edges weighs units / D**k, reduced here on integers
    names = [str(e) for e in range(len(net.edges))]
    powers = [conductance_scale(net) ** k for k in range(net.n)]  # at most n - 1 edges
    write = sys.stdout.write
    for f in forests:
        line = " ".join([names[e] for e in f.edges])
        if args.weights:
            power = powers[len(f.edges)]
            g = gcd(f.units, power)
            line += "\t" + ratio_str(f.units // g, power // g)
        write(line + "\n")
    return 0


def _emit_reports(reports, args: argparse.Namespace) -> int:
    failed = [r for r in reports if not r.ok]
    if args.format == "json":
        print(json.dumps([r.to_data() for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.theorem}: {r.status} ({r.checks} checks, {r.lhs} vs {r.rhs})")
        for r in failed:
            if r.witness is not None:
                print(json.dumps({"theorem": r.theorem, "witness": r.witness}, indent=2))
    return 1 if failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.campaign is not None and args.campaign < 1:
        print("--campaign needs a positive network count", file=sys.stderr)
        return 2
    if bool(args.network) == bool(args.campaign):
        print("verify needs a network file or --campaign N, not both", file=sys.stderr)
        return 2
    names = [args.theorem]
    reports = []
    if args.campaign:
        rng = random.Random(args.seed if args.seed is not None else 0)
        for _ in range(args.campaign):
            net = random_network(rng, require_nonroots=True)
            reports.extend(run_verifications(net, names, rng=rng, cap=args.cap))
    else:
        net = load_network(args.network, merge_parallel=args.merge_parallel)
        rng = random.Random(args.seed) if args.seed is not None else None
        reports = run_verifications(net, names, rng=rng, cap=args.cap)
        if not reports:
            print(f"theorem {args.theorem!r} does not apply to this network", file=sys.stderr)
            return 2
    return _emit_reports(reports, args)


def cmd_count(args: argparse.Namespace) -> int:
    if args.cayley is not None:
        report = verify_cayley(args.cayley, cap=args.cap)
        if args.format == "json":
            print(
                json.dumps(
                    {"m": args.cayley, "count": int(report.lhs),
                     "closed_form": int(report.rhs), "status": report.status},
                    indent=2,
                )
            )
        else:
            print(report.lhs)
        return 0 if report.ok else 1
    data = _load_raw(args.gencayley)
    if not isinstance(data, dict) or not isinstance(data.get("sizes"), list):
        print('gencayley file must be {"sizes": [..]}', file=sys.stderr)
        return 2
    sizes = data["sizes"]
    rng = random.Random(args.seed) if args.seed is not None else None
    report = verify_generalized_cayley(sizes, rng=rng, cap=args.cap)
    return _emit_reports([report], args)


def cmd_boxh(args: argparse.Namespace) -> int:
    values = box_h(args.a, args.b, args.c, args.d)
    report = verify_box_h(args.a, args.b, args.c, args.d)
    if args.format == "json":
        data = {name: rat_str(v) for name, v in values.items()}
        data["status"] = report.status
        print(json.dumps(data, indent=2))
    else:
        for name, v in values.items():
            print(f"{name} = {rat_str(v)}")
        print("responses equal" if report.ok else "responses differ")
    if not report.ok and report.witness is not None:
        print(json.dumps(report.witness, indent=2))
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help="refuse to enumerate networks with more edges than this",
    )
    common.add_argument(
        "--merge-parallel",
        action="store_true",
        help="merge parallel edges by summing conductances instead of rejecting",
    )
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="output format",
    )

    parser = argparse.ArgumentParser(
        prog="superport",
        description="exact solver and identity verifier for superport networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="canonicalize a network file")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", parents=[common], help="solve a circuit file")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("response", parents=[common], help="print a response matrix")
    p.add_argument("network")
    p.add_argument("--show", choices=("K", "C", "L", "Lext"), default="L")
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("forests", parents=[common], help="stream spanning forests")
    p.add_argument("network")
    p.add_argument("--kind", default="all", help="trees, valid, relative:<i>, or all")
    p.add_argument("--weights", action="store_true", help="append a weight column")
    p.set_defaults(func=cmd_forests)

    p = sub.add_parser("verify", parents=[common], help="check identities")
    p.add_argument("network", nargs="?")
    p.add_argument("--theorem", choices=THEOREM_CHOICES, default="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--campaign", type=int, default=None, metavar="N",
                   help="verify N random networks instead of a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", parents=[common], help="tree-counting corollaries")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cayley", type=int, metavar="M")
    group.add_argument("--gencayley", metavar="FILE")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("boxh", parents=[common], help="box to H transformation")
    for name in "abcd":
        p.add_argument(name, type=rat)
    p.set_defaults(func=cmd_boxh)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped early, as `superport forests F | head` does: not
        # a failure; stdout goes to devnull so the exit-time flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, NetworkError, LinAlgError, SolverError, CapExceeded) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
