"""The mutation runner's mutants name their target text; a change to the
program that moves that text must update the mutant, or the runner stops
before it runs anything."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once():
    mutants = load_mutants()
    assert len(mutants.MUTANTS) >= 12
    mutants.check_texts(list(mutants.MUTANTS))


def test_a_missing_text_stops_the_runner(monkeypatch):
    mutants = load_mutants()
    monkeypatch.setitem(mutants.MUTANTS, "absent", ("forests.py", "no such text", ""))
    with pytest.raises(SystemExit, match="absent: text found 0 times"):
        mutants.check_texts(["absent"])


def test_a_stopped_run_leaves_no_copy(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    run = subprocess.Popen(
        [sys.executable, str(MUTANTS), "--only", "weight-drops-sign"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        # the copy has begun once its src/ exists
        while not any(tmp_path.glob("mutant-*/src")):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        run.send_signal(signal.SIGTERM)
        run.wait(timeout=60)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    assert run.returncode != 0
    assert list(tmp_path.glob("mutant-*")) == []
