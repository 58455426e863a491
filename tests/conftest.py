"""Shared test helpers."""

from pathlib import Path

import pytest


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
