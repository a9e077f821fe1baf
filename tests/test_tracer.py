"""The benchmark's per-layer tracer patches functions by name; installing and
restoring it here makes a renamed or removed traced function fail the suite,
not only traced benchmark runs."""

import importlib.util
import random
from pathlib import Path

from superport import forests, verify
from superport.verify import run_verifications

from conftest import w_network

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_and_restore_puts_originals_back():
    tracing = load_tracing()
    owners = [*tracing.MODULES, forests.ForestEnsemble, *(o for _, o, _ in tracing.TARGETS)]
    before = [dict(vars(owner)) for owner in owners]
    theorems = dict(verify.THEOREMS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        net = w_network(1, 2, 3, 4)
        reports = run_verifications(net, ["all"], rng=random.Random(0))
        # run_verifications streams its forests; the ensemble's wrappers are
        # reached through a caller that materializes them
        forests.ForestEnsemble(net).valid_forests()
    finally:
        tracer.restore()
    assert reports and all(r.ok for r in reports)
    calls = tracer.by_name()
    for name in ("forests.enumerate", "forests.quotient_is_tree", "verify.signedsum"):
        assert calls[name][0] > 0, name
    assert tracer.counts["forests.ensemble.forests_held"] > 0
    assert tracer.counts["forests.ensemble.valid_forests"] > 0
    assert [dict(vars(owner)) for owner in owners] == before
    assert verify.THEOREMS == theorems
