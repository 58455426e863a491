"""Dense state-vector simulator over n qudits of dimension n each.

The joint state is a length n**n complex vector indexed by assignment
tuples in big-endian user order: (c_0, ..., c_{n-1}) sits at flat index
sum(c_j * n**(n-1-j)), user 0 most significant; measurement histograms are
keyed by that flat index.  All operations return new states and mutate no input.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from .game import DimensionError, GameConfig, entangled_branches

#: n**n amplitudes at complex128; 8**8 is ~1.7e7 values (~270 MB), the ceiling.
SITE_CAP = 8

#: amplitudes whose probability falls below this are left out of state dumps
PROB_FLOOR = 1e-15

#: measurement refuses states whose norm drifted further than this
NORM_TOL = 1e-6

#: bytes of physical memory, the ceiling for a run's planned footprint
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class ResourceLimitError(RuntimeError):
    """A run would exceed a memory ceiling: the dense-state cap or, by its
    planned footprint, physical memory."""


def check_footprint(planned_bytes: int, what: str) -> None:
    """Refuse, before allocating, a run planned to need more than physical memory."""
    if planned_bytes > PHYSICAL_MEMORY:
        raise ResourceLimitError(f"{what} need at least {planned_bytes} bytes, more than "
                                 f"the {PHYSICAL_MEMORY} bytes of physical memory")


class StateIntegrityError(RuntimeError):
    """Measurement requested on a state that is not normalized."""


@dataclass
class QuditState:
    """Dense amplitudes for n users over n channels (length n**n)."""

    n: int
    amplitudes: np.ndarray


def prepare_entangled(config: GameConfig) -> QuditState:
    """Entangled start state: one amplitude per constant tuple (k, ..., k)."""
    n = config.n
    if n > SITE_CAP:
        raise ResourceLimitError(f"dense simulation capped at n <= {SITE_CAP}, got n={n}")
    indices, coefficients = entangled_branches(config)
    amplitudes = np.zeros(n**n, dtype=np.complex128)
    amplitudes[indices] = coefficients
    return QuditState(n, amplitudes)


def apply_local_strategy(state: QuditState, matrix: np.ndarray) -> QuditState:
    """Apply the same single-qudit operator to every site, one site at a time.

    Each step contracts the leading site and rotates it to the back; n
    rotations restore the site order.  The sweep holds at most two
    state-sized arrays of its own and never builds the n**n x n**n operator.
    """
    n = state.n
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n, n):
        raise DimensionError(f"operator shape {matrix.shape} does not match qudit dimension {n}")
    psi = state.amplitudes
    for _ in range(n):
        psi = matrix @ psi.reshape(n, -1)
        psi = psi.T.copy()
    return QuditState(n, psi.reshape(-1))


def sample_counts(state: QuditState, rng: np.random.Generator, shots: int) -> dict[int, int]:
    """Histogram of ``shots`` independent measurements of the same state, keyed
    by flat index in increasing order (the assignment tuples' lexicographic order).

    Refuses a state whose norm is off 1 by more than ``NORM_TOL``.
    """
    # per amplitude, the probabilities and their cumulative sums (16); per
    # shot, the larger of the uniforms with their draw indices (16) and the
    # draws with np.unique's sorted copy and two masks (18); per call, 4 KiB
    # of array headers and scalars
    check_footprint(4096 + 16 * state.amplitudes.size + 18 * shots, f"{shots} shots")
    probs = np.abs(state.amplitudes) ** 2
    norm = math.sqrt(probs.sum())
    if abs(norm - 1.0) > NORM_TOL:
        raise StateIntegrityError(f"state norm = {norm!r}, expected 1 within {NORM_TOL}")
    cumulative = np.cumsum(probs)
    uniforms = rng.random(shots) * cumulative[-1]
    uniforms.sort()  # same draws, far faster searchsorted; the counts ignore order
    draws = np.searchsorted(cumulative, uniforms, side="right")
    del probs, cumulative, uniforms  # free the n**n arrays before counting
    np.minimum(draws, state.amplitudes.size - 1, out=draws)  # in place: one copy fewer
    values, counts = np.unique(draws, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def dump_nonzero(state: QuditState, stream: IO[str]) -> int:
    """Write ``index re im`` lines for every amplitude above the floor.

    Returns the number of lines written.  This is the CLI's --dump-state
    format; reprs round-trip exactly through float().
    """
    amplitudes = state.amplitudes
    keep = np.nonzero(np.abs(amplitudes) ** 2 > PROB_FLOOR)[0]
    for i in keep:
        stream.write(f"{int(i)} {float(amplitudes[i].real)!r} {float(amplitudes[i].imag)!r}\n")
    return int(keep.size)
