"""The mutation runner's mutants name their target text; a change to the
program that moves that text must update the mutant, or the runner stops
before it runs anything."""

import importlib.util
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
