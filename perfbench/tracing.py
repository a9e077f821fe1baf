"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each superport layer
with timing wrappers in every module namespace that binds them (``verify``
imports ``main_cycle`` from ``forests``, so patching ``forests`` alone would
miss those calls), and `Tracer.restore()` puts the originals back.

Nothing is stored per call.  Every call adds to an aggregate keyed by
(name, parent name): the call count and the self time, which is the call's
duration minus the time its traced children took.  That keeps
the cost flat for the 10^5-10^6 hot calls of ``quotient_is_tree``,
``main_cycle`` and ``partitions_for_forest`` on a network at the edge cap.
Generator functions are timed per resumption, so the time a consumer spends
between two items is charged to the consumer, not to the generator.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import superport
from superport import cli, forests, linalg, network, solver, verify

MODULES = (superport, linalg, network, solver, forests, verify, cli)

# (layer name, owner, attribute); an owner is a module or a class whose
# attribute is replaced, and module-level functions are replaced wherever
# any module in MODULES binds them.
TARGETS = (
    ("network.canonicalize", network, "validate_and_canonicalize"),
    ("linalg.invert", linalg.Matrix, "invert"),
    ("linalg.schur_complement", linalg.Matrix, "schur_complement"),
    ("linalg.matmul", linalg.Matrix, "__mul__"),
    ("linalg.matmul", linalg.Matrix, "__rmul__"),
    ("linalg.det", linalg.Matrix, "det"),
    ("linalg.solve_linear_system", linalg, "solve_linear_system"),
    ("solver.kirchhoff_matrix", solver, "kirchhoff_matrix"),
    ("solver.electrical_response", solver, "electrical_response"),
    ("solver.c2l", solver, "c2l"),
    ("solver.solve", solver, "solve"),
    ("solver.extended_response", solver, "extended_response"),
    ("forests.enumerate", forests, "enumerate_spanning_forests"),
    ("forests.quotient_is_tree", forests, "quotient_is_tree"),
    ("forests.partitions_for_forest", forests, "partitions_for_forest"),
    ("forests.main_cycle", forests, "main_cycle"),
    ("forests.simple_quotient_cycles", forests, "simple_quotient_cycles"),
    ("forests.involution_f", forests, "involution_f"),
    ("forests.partition_sign", forests, "partition_sign"),
    ("verify.cancellation", verify, "verify_cancellation"),
    ("verify.random_network", verify, "random_network"),
    ("cli.main", cli, "main"),
)

# elimination routines whose n**3 operation count is recorded
CUBIC = {
    "linalg.invert": lambda args: args[0].rows,
    "linalg.det": lambda args: args[0].rows,
    "linalg.solve_linear_system": lambda args: len(args[0]),
}

# generator functions, with the counter that counts the items they yield
GENERATORS = {
    "forests.enumerate": "forests.enumerate.forests",
    "forests.partitions_for_forest": "forests.partitions.yielded",
}

ROOT = "bench.op"

# counters other than calls and self time, one metric each
COUNTS = (
    *(name + ".dim3_sum" for name in CUBIC),
    *("verify." + theorem + ".checks" for theorem in verify.THEOREMS),
    *GENERATORS.values(),
    "forests.ensemble.forests_held",
    "forests.ensemble.valid_forests",
    "forests.main_cycle.forests",
)


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    """Aggregated call tree of one traced phase."""

    def __init__(self) -> None:
        # (name, parent) -> [calls, self seconds]
        self.calls: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack = [_Frame("")]
        self._undo: list[tuple[object, str, object]] = []
        self._last_cycle_forest = None

    # -- bookkeeping -----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: _Frame, elapsed: float, new_call: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        parent.child += elapsed
        key = (frame.name, parent.name)
        rec = self.calls.get(key)
        if rec is None:
            rec = self.calls[key] = [0, 0.0]
        if new_call:
            rec[0] += 1
        rec[1] += elapsed - frame.child

    @contextmanager
    def span(self, name: str = ROOT):
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._leave(frame, perf_counter() - t0, True)

    def _wrap_function(self, name: str, fn):
        enter, leave, counts = self._enter, self._leave, self.counts
        cubic = CUBIC.get(name)
        per_forest = name == "forests.main_cycle"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cubic is not None:
                counts[name + ".dim3_sum"] += cubic(args) ** 3
            if per_forest:
                # consecutive calls on one forest object count it once
                if args[1] is not self._last_cycle_forest:
                    self._last_cycle_forest = args[1]
                    counts["forests.main_cycle.forests"] += 1
            frame = enter(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, perf_counter() - t0, True)

        return traced

    def _wrap_generator(self, name: str, fn, item_key: str):
        enter, leave, counts = self._enter, self._leave, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                frame = enter(name)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    leave(frame, perf_counter() - t0, first)
                    return
                except BaseException:
                    leave(frame, perf_counter() - t0, first)
                    raise
                leave(frame, perf_counter() - t0, first)
                first = False
                counts[item_key] += 1
                yield item

        return traced

    def _wrap_theorem(self, name: str, fn):
        plain = self._wrap_function(name, fn)
        counts = self.counts

        def traced(*args, **kwargs):
            reports = plain(*args, **kwargs)
            counts[name + ".checks"] += sum(r.checks for r in reports)
            return reports

        return traced

    def _wrap_ensemble_init(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(ensemble, *args, **kwargs):
            fn(ensemble, *args, **kwargs)
            key = "forests.ensemble.forests_held"
            counts[key] = max(counts[key], len(ensemble.forests))

        return traced

    def _wrap_valid_forests(self, fn):
        counts = self.counts
        seen: weakref.WeakSet = weakref.WeakSet()

        @functools.wraps(fn)
        def traced(ensemble):
            valid = fn(ensemble)
            if ensemble not in seen:
                seen.add(ensemble)
                counts["forests.ensemble.valid_forests"] += len(valid)
            return valid

        return traced

    # -- patching --------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name, owner, attr in TARGETS:
            original = vars(owner)[attr]
            if id(original) not in wrapped:
                if name in GENERATORS:
                    new = self._wrap_generator(name, original, GENERATORS[name])
                else:
                    new = self._wrap_function(name, original)
                wrapped[id(original)] = new
            new = wrapped[id(original)]
            if inspect.isclass(owner):
                self._replace(owner, attr, new)
            else:
                self._replace_everywhere(original, new)
        ensemble = forests.ForestEnsemble
        self._replace(ensemble, "__init__", self._wrap_ensemble_init(ensemble.__init__))
        self._replace(
            ensemble, "valid_forests", self._wrap_valid_forests(ensemble.valid_forests)
        )
        for theorem, fn in list(verify.THEOREMS.items()):
            self._undo.append((verify.THEOREMS, theorem, fn))
            verify.THEOREMS[theorem] = self._wrap_theorem("verify." + theorem, fn)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """name -> [calls, self seconds], summed over parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, self_s) in self.calls.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out


def layer_names() -> list[str]:
    """Every traced layer name, the theorem wrappers included."""
    names = {name for name, _, _ in TARGETS}
    names.update("verify." + t for t in verify.THEOREMS)
    return sorted(names)

