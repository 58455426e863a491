"""Dense state-vector simulator over n qudits of dimension n each.

The joint state is a length n**n complex vector indexed by assignment
tuples in big-endian user order: (c_0, ..., c_{n-1}) sits at flat index
sum(c_j * n**(n-1-j)), user 0 most significant; measurement histograms are
keyed by that flat index.  All operations return new states and mutate no input.
The start state's n branches |k...k> and one local operator U per user make
the final state a sum of n product states, amplitude(c) = sum_k a_k prod_j U[c_j, k].
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

#: state-dump lines formatted and written at a time
DUMP_BLOCK_LINES = 4096

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
    """Apply the same single-qudit operator U to every site.

    The result sums one product state per support state s of the input,
    amplitude(c) = sum_s a_s prod_j U[c_j, s_j]: the leading n//2 sites' factors
    times the trailing sites', one matrix product over the S support states (n
    for the start state).  A broad support costs n**n * S and is planned first.
    """
    n = state.n
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n, n):
        raise DimensionError(f"operator shape {matrix.shape} does not match qudit dimension {n}")
    support = np.flatnonzero(state.amplitudes)
    lead = n // 2
    check_footprint(16 * ((n**lead + n**(n - lead)) * support.size + n**n), f"{support.size} branches")
    # rows: the leading (left) or trailing (right) sites' digits, first site most
    # significant; columns: the support states, whose amplitudes ride on the left
    sides = [state.amplitudes[support][None, :], np.ones((1, support.size))]
    for j, digits in enumerate(np.unravel_index(support, (n,) * n)):
        side = sides[j >= lead]
        sides[j >= lead] = (side[:, None, :] * matrix[:, digits]).reshape(-1, support.size)
    left, right = sides
    return QuditState(n, (left @ right.T).reshape(-1))


def sample_counts(state: QuditState, rng: np.random.Generator, shots: int) -> dict[int, int]:
    """Histogram of ``shots`` independent measurements of the same state, keyed
    by flat index in increasing order (the assignment tuples' lexicographic order).

    Refuses a state whose norm is off 1 by more than ``NORM_TOL``.
    """
    # per amplitude, the probabilities, summed in place (8); per shot, the larger of the
    # uniforms with their draw indices (16) and the draws with np.unique's sorted copy
    # and two masks (18); per call, 4 KiB of array headers and scalars
    check_footprint(4096 + 8 * state.amplitudes.size + 18 * shots, f"{shots} shots")
    probs = np.abs(state.amplitudes)
    np.square(probs, out=probs)
    norm = math.sqrt(probs.sum())
    if abs(norm - 1.0) > NORM_TOL:
        raise StateIntegrityError(f"state norm = {norm!r}, expected 1 within {NORM_TOL}")
    cumulative = np.cumsum(probs, out=probs)  # the same array, now summed
    uniforms = rng.random(shots) * cumulative[-1]
    uniforms.sort()  # same draws, far faster searchsorted; the counts ignore order
    draws = np.searchsorted(cumulative, uniforms, side="right")
    del probs, cumulative, uniforms  # free the n**n array before counting
    np.minimum(draws, state.amplitudes.size - 1, out=draws)  # in place: one copy fewer
    values, counts = np.unique(draws, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def dump_nonzero(state: QuditState, stream: IO[str]) -> int:
    """Write ``index re im`` lines for every amplitude above the floor.

    Returns the number of lines written.  This is the CLI's --dump-state
    format; reprs round-trip exactly through float().
    """
    keep = np.flatnonzero(np.abs(state.amplitudes) ** 2 > PROB_FLOOR)
    for start in range(0, keep.size, DUMP_BLOCK_LINES):  # each block formatted from Python floats
        index = keep[start:start + DUMP_BLOCK_LINES]
        values = state.amplitudes[index]
        stream.write("".join(f"{i} {re!r} {im!r}\n" for i, re, im
                             in zip(index.tolist(), values.real.tolist(), values.imag.tolist())))
    return int(keep.size)
