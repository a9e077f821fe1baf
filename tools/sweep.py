"""Exhaustive sweep of every superport network on up to five vertices.

The tier-1 sweep, ``tests/test_sweep.py``, stops at four vertices (157
networks).  This script runs the same generator at five vertices (1,991
networks) and checks, on each network,

* every theorem, through ``run_verifications(net, ["all"])``, with one
  ``random.Random(0)`` drawn from across the networks, as in the tier-1
  sweep;
* every Kenyon-Wilson minor (X and Y ordered and disjoint, Z any set of the
  rest), through ``verify_kw_minor``;
* the cycle rank that the cancellation reads from a key's pattern,
  ``forests.pattern_cycle_rank``, against the quotient of every non-valid
  forest with partitions, and the main-cycle ends of every forest of a
  one-cycle key against those of the key's first forest
  (``check_cycle_ends`` of ``tests/test_forests.py``).

It prints one line per failure, with the network, and a summary line, and
exits 1 if anything failed.  The cycle-end check asserts, so the script
refuses to run under ``python -O``.  At n <= 5 it takes about two minutes
on a 2-core machine, 3 s of it generating the shapes.

Usage:
    python3 tools/sweep.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from superport import run_verifications, verify_kw_minor  # noqa: E402
from superport.network import network_to_data  # noqa: E402
from test_forests import check_cycle_ends  # noqa: E402
from test_sweep import kw_minors, small_networks  # noqa: E402


MAX_N = 5


def main() -> int:
    if sys.flags.optimize:
        sys.exit("run without -O: the cycle-end check asserts")
    start = time.perf_counter()
    nets = small_networks(MAX_N)
    generated = time.perf_counter() - start
    rng = random.Random(0)
    reports = minors = one = more = failures = 0

    def failed(net, what) -> None:
        nonlocal failures
        failures += 1
        print(f"FAIL {json.dumps(network_to_data(net))}: {what}", flush=True)

    for net in nets:
        for report in run_verifications(net, ["all"], rng=rng):
            reports += 1
            if not report.ok:
                failed(net, json.dumps(report.to_data()))
        for X, Y, Z in kw_minors(net.m):
            report = verify_kw_minor(net, X, Y, Z)
            minors += 1
            if not report.ok:
                failed(net, json.dumps(report.to_data()))
        try:
            counts = check_cycle_ends(net)
        except AssertionError as exc:
            failed(net, f"the cycle rank or a key's cycle ends disagree: {exc!r}")
        else:
            one, more = one + counts[0], more + counts[1]
    print(
        f"n <= {MAX_N}: {len(nets)} networks (generated in {generated:.1f} s), "
        f"{reports} reports, {minors} Kenyon-Wilson minors, cycle ends on {one} forests "
        f"with one quotient cycle and {more} with more, {failures} failures, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
