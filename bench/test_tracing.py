"""The tracer wraps the names callers look up, counts exactly, and leaves
the program as it found it.

Run from the root of the repository:  python3 -m pytest bench -q
"""
from __future__ import annotations

import sys
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracing import Tracer  # noqa: E402
from wfano import classifier, core, enumerator  # noqa: E402


def test_wraps_every_binding_and_restores_it():
    originals = (core.is_representable, enumerator.is_representable, classifier.basket)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (core.is_representable, enumerator.is_representable, classifier.basket)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert (core.is_representable, enumerator.is_representable, classifier.basket) == originals


def test_counts_of_a_small_enumeration():
    tracer = Tracer()
    tracer.install()
    try:
        found = enumerator.enumerate_families(5)
    finally:
        tracer.uninstall()
    stats = tracer.snapshot()
    # every 1 <= a1 <= a2 <= a3 <= a4 <= 5 is a candidate
    assert stats["enumerator.candidates"]["count"] == comb(5 + 3, 4)
    assert stats["enumerator.is_quasismooth_general"]["calls"] == comb(5 + 3, 4)
    assert stats["enumerator.enumerate_families"]["accepted"] == len(found)
    assert stats["enumerator.has_only_terminal_isolated_sings"]["passed"] == len(found)
    qs = stats["enumerator.is_quasismooth_general"]
    assert 0 <= qs["self_s"] <= qs["total_s"]
