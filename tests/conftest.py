"""Shared test helpers, including the game's closed form as an independent
reference: the library samples from the support law but does not evaluate
amplitudes, so the tests state the law themselves."""

import cmath
import math
from pathlib import Path

import pytest


def in_support(n, phase, outcome) -> bool:
    """The support law: an assignment is reachable iff (phase + sum) % n == 0."""
    return (phase + sum(outcome)) % n == 0


def closed_form_amplitude(n, phase, outcome) -> float:
    """Final amplitude of an assignment: n^((1-n)/2) on the support, else 0."""
    return n ** ((1 - n) / 2) if in_support(n, phase, outcome) else 0.0


def brute_amplitude(n, p, t):
    """Oracle: the interference sum evaluated term by term, no reductions."""
    total = sum(cmath.exp(2j * math.pi * k * (p + sum(t)) / n) for k in range(n))
    return total * n ** (-(n + 1) / 2)


def _read_histogram(path) -> dict[tuple[int, ...], int]:
    """Re-read a histogram CSV written by `qmg simulate`."""
    counts: dict[tuple[int, ...], int] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        outcome, count, _ = line.split(",")
        counts[tuple(int(tok) for tok in outcome.split("-"))] = int(count)
    return counts


@pytest.fixture
def read_histogram():
    return _read_histogram
