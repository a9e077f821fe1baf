"""superport benchmark: one workload per run, closed loop, exact gates.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

One caller performs one operation at a time in this single-threaded
interpreter; the next operation starts when the previous one has returned
and passed its gate.  Each workload is a fixed batch of operations (see
workloads.py).

With ``--trace 0`` the run repeats the batch on the same inputs for about
``--seconds`` seconds and prints the end-to-end metrics:

* ``setup_s``: importing the program and generating the inputs, the median
  over this interpreter and ten fresh ones;
* ``wall_s``: wall time of the batch with each operation at its best
  repetition, and ``ops_per_s`` the batch size divided by it;
* ``op_p50_ms`` and ``first_output_s``: medians over the batch's operations
  of each operation's best repetition, for its latency and for the time to
  its first output (the first forest line in cap-forests, the whole result
  elsewhere);
* ``peak_rss_mb``: the process's ``ru_maxrss``.

Best repetitions, because the speed of a shared machine drifts: on a
2-core virtual machine with Python 3.11 the median latency of the same
circuits moved by 25 % (interquartile range) between 25 s windows, their
minimum by 6 %.  The fastest repetition of identical work is the steadiest
estimate of the program's own cost.

With ``--trace 1`` it runs one batch untraced and the same batch again with
every layer's public functions wrapped (see tracing.py), and prints the
per-layer metrics.  A traced batch is fixed work, so its counts repeat
exactly for a given seed.

The program is imported from ``src/`` of the checkout the script sits in.
Every metric is printed by name with its unit, a summary goes to stdout
before the result, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# workloads.py imports the program, which set-up must time, so the names
# are listed here instead of being read from workloads.WORKLOADS
WORKLOAD_NAMES = ("campaign", "cap-verify", "matrix-solve", "cap-forests")
SETUP_SAMPLES = 11


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the benchmark's own smoke test",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="print the set-up time of this fresh interpreter and exit",
    )
    return parser.parse_args(argv)


def set_up(args):
    """Import the program and generate the inputs; returns (seconds, workload)."""
    t0 = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    return perf_counter() - t0, workload


def setup_seconds(args, first: float) -> float:
    """Median set-up time over this process and fresh interpreters."""
    samples = [first]
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--size", args.size, "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


class Phase:
    """Latencies and gate outcomes of repeated batches, one list per batch."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latency: list[list[float]] = []
        self.first_output: list[list[float]] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return sum(len(batch) for batch in self.latency)

    def step(self, i: int) -> None:
        workload = self.workload
        t0 = perf_counter()
        try:
            if self.tracer is None:
                result = workload.op(i)
            else:
                with self.tracer.span():
                    result = workload.op(i)
        except Exception:
            traceback.print_exc()
            result = None
        t1 = perf_counter()
        self.latency[-1].append(t1 - t0)
        first = getattr(workload, "first_output", None)
        stamp = first(result) if first is not None and result is not None else None
        self.first_output[-1].append((stamp if stamp is not None else t1) - t0)
        if result is None or not workload.check(i, result):
            self.failed += 1

    def run_batch(self) -> "Phase":
        self.latency.append([])
        self.first_output.append([])
        for i in range(self.workload.batch):
            self.step(i)
        return self

    def run_for(self, seconds: float) -> "Phase":
        """One batch, then more while the next is expected to end in time."""
        start = perf_counter()
        while True:
            self.run_batch()
            if perf_counter() - start + sum(self.latency[-1]) > seconds:
                return self


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, setup_first: float) -> tuple[Phase, dict]:
    """Every batch repeats the same operations on the same inputs, so each
    operation's best repetition is its cost with the least interference from
    the rest of the machine; the medians are taken over operations."""
    phase = Phase(workload).run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = [min(times) for times in zip(*phase.latency)]
    wall = sum(best)
    first = [min(times) for times in zip(*phase.first_output)]
    if len(best) >= 100:
        p90 = statistics.quantiles(best, n=10)[-1]
        print(f"op_p90_ms {p90 * 1e3!r} ms over {len(best)} ops")
    print(f"{len(phase.latency)} batches of {workload.batch} ops")
    metrics = {
        "setup_s": metric(setup_seconds(args, setup_first), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(workload.batch / wall, "1/s"),
        "op_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "first_output_s": metric(statistics.median(first), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return phase, metrics


def per_layer(workload) -> tuple[list[Phase], dict]:
    import tracing

    plain = Phase(workload).run_batch()
    workload.restart()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Phase(workload, tracer).run_batch()
    finally:
        tracer.restore()
    plain_wall, traced_wall = sum(plain.latency[0]), sum(traced.latency[0])

    layers = tracer.by_name()
    counts = tracer.counts
    metrics: dict = {"bench.ops": metric(workload.batch, "count")}
    for name in tracing.layer_names():
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[name + ".calls"] = metric(calls, "count")
        metrics[name + ".self_s"] = metric(self_s, "s")
    for key in sorted(tracing.COUNTS):
        metrics[key] = metric(counts[key], "count")
    cycle_forests = counts["forests.main_cycle.forests"]
    cycle_calls = layers.get("forests.main_cycle", (0, 0.0))[0]
    metrics["forests.main_cycle.calls_per_nonvalid_forest"] = metric(
        cycle_calls / cycle_forests if cycle_forests else 0.0, "calls/forest"
    )
    metrics["cli.output_lines"] = metric(getattr(workload, "output_lines", 0), "count")
    metrics["cli.output_bytes"] = metric(getattr(workload, "output_bytes", 0), "count")
    self_total = sum(self_s for _, self_s in layers.values())
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.unattributed_s"] = metric(layers.get(tracing.ROOT, (0, 0.0))[1], "s")
    metrics["trace.accounted_ratio"] = metric(self_total / traced_wall, "ratio")
    metrics["trace.overhead_ratio"] = metric(traced_wall / plain_wall, "ratio")
    return [plain, traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "superport" / "__init__.py").is_file():
        print(f"perfbench: no superport package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_first, workload = set_up(args)
    if args.setup_only:
        print(repr(setup_first))
        return 0

    if args.trace:
        phases, metrics = per_layer(workload)
    else:
        phase, metrics = end_to_end(args, workload, setup_first)
        phases = [phase]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = workload.finish()
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    if problems:
        failed = attempted

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"fail_rate {failed / attempted!r}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
