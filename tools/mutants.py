"""Mutation runner: does the oracle notice a broken program?

Each mutant is a named textual edit of one file under ``src/superport``.  For
each, the script copies ``src/`` (with ``tests/`` and what the tests read:
``fixtures/``, ``perfbench/`` and ``tools/``) to a temporary directory,
applies the edit there, and runs

    python3 -m superport verify --campaign 20 --seed 0 --theorem all --format json

on the copy.  A mutant is killed when the campaign exits 1, an identity
having failed; one whose campaign crashes is reported apart, as an error,
since exit 1 is meant for failed identities.  The script prints a kill
matrix, one row per mutant and one column per theorem, holding the number of
failed reports.  The unmutated copy runs first and must pass, or the
matrix would mean nothing.  With ``--tier1`` it also runs the tier-1 tests on every
mutant the campaign did not kill (``--tier1 all``: on every mutant), all but
the check that each mutant's text occurs in the unmutated source, and names
the tests that fail: their number and the first few ids.

The script stops with an error, before running anything, when a mutant's
text is not found exactly once in its file.  The working tree is never
modified, and a run stopped by SIGTERM removes its temporary copy.

Usage:
    python3 tools/mutants.py [--only NAME ...] [--tier1 {survivors,all}] [--list]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "perfbench", "tools")
CAMPAIGN = ["verify", "--campaign", "20", "--seed", "0", "--theorem", "all", "--format", "json"]
THEOREMS = (
    "kirchhoff",
    "kenyon-wilson",
    "response-entries",
    "det-response",
    "valid-minor-sum",
    "signed-sum",
    "partition-cancellation",
    "gluing",
    "forest-solution",
)

# name -> (file under src/superport, text, replacement)
MUTANTS = {
    # the probe of the first mutation experiment
    "partition-sign-drops-parity": (
        "forests.py",
        "    if len(part.X) % 2 == 1:\n        sign = -sign\n",
        "",
    ),
    "forest-sign-inverted": (
        "forests.py",
        "    root = quotient_components(qg, forest)[0]\n"
        "    return 1 if root[qg.class_of[i]] != root[qg.class_of[j]] else -1",
        "    root = quotient_components(qg, forest)[0]\n"
        "    return -1 if root[qg.class_of[i]] != root[qg.class_of[j]] else 1",
    ),
    "involution-swaps-z-and-w": (
        "forests.py",
        "X=part.X - a, Y=part.Y - b, Z=part.Z | a, W=part.W | b",
        "X=part.X - a, Y=part.Y - b, Z=part.Z | b, W=part.W | a",
    ),
    "kw-drops-sign-factor": (
        "verify.py",
        "factor = -1 if (signed and k % 2 == 1) else 1",
        "factor = 1",
    ),
    "kw-drops-permutation-sign": (
        "verify.py",
        "        return permutation_parity(dict(enumerate(pi)))\n",
        "        return 1\n",
    ),
    "main-cycle-last-not-least": (
        "forests.py",
        "return [sorted(neighbours) for neighbours in adj], loops",
        "return [sorted(neighbours, reverse=True) for neighbours in adj], loops",
    ),
    # the direct search for the main cycle
    "main-cycle-same-edge-back": (
        "forests.py",
        "if edges != [e]:  # the same edge traversed back is not a cycle",
        "if edges:",
    ),
    "main-cycle-last-start-class": (
        "forests.py",
        "    for s in range(len(adj)):\n",
        "    for s in reversed(range(len(adj))):\n",
    ),
    "main-cycle-last-loop": (
        "forests.py",
        "    a, e = min(loops)\n",
        "    a, e = max(loops)\n",
    ),
    # the recorder every report makes its comparisons through
    "checks-never-fail": (
        "verify.py",
        "        self.count += 1\n        if lhs != rhs:\n",
        "        self.count += 1\n        if False:\n",
    ),
    "checks-keeps-last-failure": (
        "verify.py",
        "        if self.failure is None:\n            if self.net is not None:\n",
        "        if True:\n            if self.net is not None:\n",
    ),
    # the cancellation's involution check, shared per (key, main-cycle ends);
    # the ends differ between forests of a key only when its quotients have
    # more than one cycle
    "cancellation-shares-by-key-alone": (
        "verify.py",
        "shared = (key, ends)",
        "shared = key",
    ),
    # a key's cycle rank, and the main-cycle ends a one-cycle key keeps from
    # its first forest.  Neither can change a report: the rank only chooses
    # which forests are searched, and the partitions and so the involution
    # check depend on the key alone, so a key that keeps its first forest's
    # ends repeats that forest's check.  The tier-1 tests that count the
    # searches and hold the rank to the quotient see them
    "cycle-rank-counts-nodes": (
        "forests.py",
        "return m - len(nodes) + len({least[node] for node in nodes})",
        "return m - len(nodes) + len(nodes)",
    ),
    "cancellation-keeps-ends-on-every-key": (
        "verify.py",
        "            if one_cycle:\n                key_ends[key] = ends\n",
        "            key_ends[key] = ends\n",
    ),
    # the grove table key, tracked by the walk
    "key-drops-edge-count": (
        "forests.py",
        "node_for((len(chosen), tuple(label[1:m1])))",
        "node_for((0, tuple(label[1:m1])))",
    ),
    "key-slices-to-m": (
        "forests.py",
        "node_for((len(chosen), tuple(label[1:m1])))",
        "node_for((len(chosen), tuple(label[1 : m1 - 1])))",
    ),
    "key-successor-keeps-edge-count": (
        "forests.py",
        "node_for((len(chosen), tuple(label[1:m1])))",
        "node_for((len(chosen) - 1, tuple(label[1:m1])))",
    ),
    "key-boundary-test-off-by-one": (
        "forests.py",
        "link = a * m1 + b if b <= m else 0",
        "link = a * m1 + b if b < m else 0",
    ),
    "key-links-by-merged-label-alone": (
        "forests.py",
        "link = a * m1 + b if b <= m else 0",
        "link = b if b <= m else 0",
    ),
    "key-kept-on-backtrack": (
        "forests.py",
        "a, b, units, node = undo.pop()",
        "a, b, units, _ = undo.pop()",
    ),
    # the tracked walk folds a last-edge child into its known node
    "walk-fold-ignores-takers": (
        "forests.py",
        "if child is None or child.takers:",
        "if child is None:",
    ),
    "walk-fold-drops-last-unit": (
        "forests.py",
        "child.units += units * unit[i]",
        "child.units += units",
    ),
    # the pattern predicates
    "validity-without-edge-count": (
        "forests.py",
        "    return edges == len(qg.classes) - 1 and pattern_components(qg, pattern)[1]",
        "    return pattern_components(qg, pattern)[1]",
    ),
    "pattern-sign-inverted": (
        "forests.py",
        "    root = pattern_components(qg, pattern)[0]\n"
        "    return 1 if root[qg.class_of[i]] != root[qg.class_of[j]] else -1",
        "    root = pattern_components(qg, pattern)[0]\n"
        "    return -1 if root[qg.class_of[i]] != root[qg.class_of[j]] else 1",
    ),
    "pattern-joins-least-to-itself": (
        "forests.py",
        "for v, least in enumerate(pattern, 1) if least != v)",
        "for v, least in enumerate(pattern, 1))",
    ),
    "pattern-separates-allows-shared-component": (
        "forests.py",
        "    comps = [{pattern[v - 1] for v in g} for g in groups]\n"
        "    return sum(map(len, comps)) == len(set().union(*comps)) == len(groups)",
        "    comps = [{pattern[v - 1] for v in g} for g in groups]\n"
        "    return sum(map(len, comps)) == len(groups)",
    ),
    # the one signed sum over the grove table, and both orientations of C_i^j
    "weight-drops-sign": (
        "forests.py",
        "sum(sign(key) * units for key, units in self.units.items()",
        "sum(units for key, units in self.units.items()",
    ),
    "kirchhoff-one-orientation": (
        "verify.py",
        "for lhs in (entry, C.entry(j, i)):",
        "for lhs in (entry, C.entry(i, j)):",
    ),
    # the grove table read by key: H, the trees and Kirchhoff's pairs
    "grove-electrical-reads-trees": (
        "verify.py",
        "return _grove(p, tuple(range(1, p.net.m + 1)))",
        "return _grove(p, (1,) * p.net.m)",
    ),
    "grove-edges-count-pattern-length": (
        "verify.py",
        "edges = p.net.n - len(set(pattern))",
        "edges = p.net.n - len(pattern)",
    ),
    "grove-pair-reversed": (
        "verify.py",
        "tuple(i if v == j else v for v in range(1, m + 1))",
        "tuple(j if v == i else v for v in range(1, m + 1))",
    ),
    # the entries of L, summed in one scan
    "entries-sum-ignores-relative": (
        "verify.py",
        "                for j in relative:\n",
        "                for j in net.non_roots:\n",
    ),
    # the matrix side
    "eliminate-swap-keeps-sign": (
        "linalg.py",
        "rows[col], rows[pivot_row] = rows[pivot_row], [-x for x in rows[col]]",
        "rows[col], rows[pivot_row] = rows[pivot_row], rows[col]",
    ),
    "eliminate-stale-row-divides-by-last-pivot": (
        "linalg.py",
        "                d = divs[r]\n",
        "                d = prev\n",
    ),
    # K in integer units, and c2l's root sums and one elimination
    "kirchhoff-drops-second-diagonal": (
        "solver.py",
        "        grid[v - 1][v - 1] += units\n",
        "",
    ),
    "kirchhoff-units-not-scaled": (
        "solver.py",
        "Fraction(x, scale) if x else zero",
        "Fraction(x) if x else zero",
    ),
    "c2l-root-column-not-summed": (
        "solver.py",
        "                    row[r] += row[k]\n",
        "                    pass\n",
    ),
    "c2l-root-row-not-summed": (
        "solver.py",
        "a[r] = [x + y if y else x for x, y in zip(a[r], a[k])]",
        "a[r] = list(a[r])",
    ),
    "c2l-subtracts-into-root": (
        "solver.py",
        "                    row[r] += row[k]\n",
        "                    row[r] -= row[k]\n",
    ),
    "c2l-eliminates-non-roots": (
        "solver.py",
        ".schur_complement(k - 1 for k in non_roots)",
        ".schur_complement(r for r, _ in summed)",
    ),
    "c2l-drops-singular-check": (
        "solver.py",
        "    if L.det() == 0:\n",
        "    if False:\n",
    ),
    # solve in superport coordinates.  Dropping the skip of an edge inside one
    # superport is an equivalent mutant: its four matrix terms and its two
    # right-hand-side terms cancel in that superport's row, so it is left out
    "solve-rhs-sign-flipped": (
        "solver.py",
        "known = units * (delta.get(u, 0) - delta.get(v, 0))",
        "known = units * (delta.get(v, 0) - delta.get(u, 0))",
    ),
    "solve-rhs-one-sided": (
        "solver.py",
        "            rhs[b] += known\n",
        "",
    ),
    "solve-reads-back-roots-only": (
        "solver.py",
        "level[root_of.get(v, v)] + delta.get(v, 0) for v",
        "level[root_of.get(v, v)] for v",
    ),
    # a forest-side sum read from the matrix route: its values are right, so
    # the campaign passes, and tests/test_routes.py sees the routes cross
    "valid-weight-from-det-l": (
        "forests.py",
        "        return self.weight(net.m - net.p + 1, lambda key: self.facts(key).valid)\n",
        "        from .solver import response_matrices\n\n"
        "        return self.weight(1) / response_matrices(net).superport_response.det()\n",
    ),
    # the combinatorial currents: each path edge counted along its direction
    "forest-current-direction-flipped": (
        "forests.py",
        "path.append((e, 1 if qg.edge_classes[e][0] == a else -1))",
        "path.append((e, -1 if qg.edge_classes[e][0] == a else 1))",
    ),
    # the gluing statement's quotient circuit, merged by the loader
    "gluing-keeps-last-conductance": (
        "network.py",
        "            merged[(u, v)] += c\n",
        "            merged[(u, v)] = c\n",
    ),
}


def check_texts(names: list[str]) -> None:
    """Every mutant's text must occur exactly once in its file."""
    bad = []
    for name in names:
        path, text, _ = MUTANTS[name]
        found = (ROOT / "src" / "superport" / path).read_text().count(text)
        if found != 1:
            bad.append(f"{name}: text found {found} times in {path}")
    if bad:
        sys.exit("mutant texts must occur exactly once:\n  " + "\n  ".join(bad))


def mutated_copy(name: Optional[str], into: Path) -> Path:
    """A copy of the program under `into`, with the named mutant applied
    (None: unmutated)."""
    for part in COPIED:
        shutil.copytree(
            ROOT / part, into / part,
            ignore=shutil.ignore_patterns("__pycache__", ".work", ".hypothesis"),
        )
    if name is not None:
        path, text, replacement = MUTANTS[name]
        target = into / "src" / "superport" / path
        target.write_text(target.read_text().replace(text, replacement))
    return into


def run_campaign(copy: Path) -> tuple[str, Counter]:
    """("killed", "survived" or "error", failed reports by theorem)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "superport", *CAMPAIGN],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if done.returncode not in (0, 1) or "Traceback" in done.stderr:
        return "error", Counter()
    failed = Counter(r["theorem"] for r in json.loads(done.stdout) if r["status"] != "pass")
    if done.returncode == 1 and failed:
        return "killed", failed
    return "survived", failed


# fails in every mutated copy, its mutant's text being gone, so it would
# count every mutant as killed
TEXT_CHECK = "tests/test_mutants.py::test_every_mutant_text_occurs_once"


KILLERS_SHOWN = 3


def run_tier1(copy: Path) -> str:
    """"pass", or "fail" with the number of failing tests and the first few
    ids, read from pytest's summary lines."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--deselect", TEXT_CHECK, "tests"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if done.returncode == 0:
        return "pass"
    killers = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    shown = ", ".join(killers[:KILLERS_SHOWN])
    more = len(killers) - KILLERS_SHOWN
    return f"fail {len(killers)}: {shown}" + (f" (+{more} more)" if more > 0 else "")


def stop(signum, frame) -> None:
    """Turn SIGTERM into SystemExit, so that the temporary copy in use is
    cleaned up; `subprocess.run` kills its child on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(MUTANTS), metavar="NAME")
    parser.add_argument("--tier1", choices=("survivors", "all"))
    parser.add_argument("--list", action="store_true", help="print the mutant names")
    args = parser.parse_args(argv)
    names = args.only or list(MUTANTS)
    if args.list:
        print("\n".join(names))
        return 0
    check_texts(names)
    signal.signal(signal.SIGTERM, stop)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = mutated_copy(None, Path(tmp))
        outcome, failed = run_campaign(copy)
        if outcome != "survived" or failed:
            sys.exit(f"the unmutated campaign must pass, but it gave {outcome}")
        if args.tier1 and run_tier1(copy) != "pass":
            sys.exit("the unmutated tier-1 tests must pass")
    width = max(map(len, names))
    short = [t.split("-")[0][:9] for t in THEOREMS]
    head = f"{'mutant':{width}}  {'campaign':8}  " + " ".join(f"{s:>9}" for s in short)
    if args.tier1:
        head += "  tier-1"
    print(head)
    survivors = 0
    for name in names:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            copy = mutated_copy(name, Path(tmp))
            outcome, failed = run_campaign(copy)
            row = f"{name:{width}}  {outcome:8}  " + " ".join(
                f"{failed[t] or '.':>9}" for t in THEOREMS
            )
            if args.tier1 == "all" or (args.tier1 and outcome != "killed"):
                row += f"  {run_tier1(copy)}"
        survivors += outcome == "survived"
        print(row, flush=True)
    print(f"{len(names) - survivors} of {len(names)} mutants killed the campaign or crashed it")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
