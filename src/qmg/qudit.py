"""Dense state-vector simulator over n qudits of dimension n each.

The joint state is a length n**n complex vector indexed by assignment
tuples in big-endian user order: (c_0, ..., c_{n-1}) sits at flat index
sum(c_j * n**(n-1-j)), user 0 most significant; measurement histograms list
outcomes by that flat index.  All operations return new states and mutate no input.
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

#: amplitudes scanned, and at most as many state-dump lines written, at a time
DUMP_BLOCK_LINES = 4096

#: amplitudes whose probabilities the sampler sums at a time
SAMPLE_BLOCK = 2**16

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


def _cumulative(amplitudes: np.ndarray, start: int, carry: float) -> np.ndarray:
    """Running probability sums over the block of ``SAMPLE_BLOCK`` amplitudes at
    ``start``, continued from ``carry``, the sum before it.  numpy sums in
    sequence, so each value is bit-equal to the whole vector's cumsum."""
    block = np.abs(amplitudes[start:start + SAMPLE_BLOCK])
    np.square(block, out=block)
    block[0] += carry
    return np.cumsum(block, out=block)


def sample_counts(state: QuditState, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Histogram of ``shots`` independent measurements of the same state: an int64
    array of ``(flat index, count)`` rows, one per outcome drawn, in increasing
    index order (the assignment tuples' lexicographic order).

    The cumulative probabilities are summed block by block: a first pass keeps
    each block's starting carry, and a second sums each block again and looks
    up the sorted uniforms that fall below its last sum.  Refuses a state whose
    norm is off 1 by more than ``NORM_TOL``.
    """
    amplitudes = state.amplitudes
    starts = range(0, amplitudes.size, SAMPLE_BLOCK)
    # per block, its sums (8 per amplitude, one block at a time) and 256 B for its carry,
    # bound and row arrays' headers; per shot, the uniforms (8) and, over one block's shots,
    # the draws with np.unique's sorted copy and mask (17); per outcome drawn, at most shots
    # or amplitudes, np.unique's outputs and the kept rows and their concatenation (32);
    # per call, 8 KiB of array headers and scalars
    check_footprint(8192 + 8 * SAMPLE_BLOCK + 256 * len(starts) + 25 * shots
                    + 32 * min(shots, amplitudes.size), f"{shots} shots")
    carries = [0.0]
    for start in starts:
        carries.append(_cumulative(amplitudes, start, carries[-1])[-1])
    total = carries.pop()
    norm = math.sqrt(total)
    if abs(norm - 1.0) > NORM_TOL:
        raise StateIntegrityError(f"state norm = {norm!r}, expected 1 within {NORM_TOL}")
    uniforms = rng.random(shots)
    uniforms *= total
    uniforms.sort()  # same draws, far faster searchsorted; the counts ignore order
    # each block's shots: the uniforms from its carry up to, not at, the next block's
    bounds = [0, *np.searchsorted(uniforms, carries[1:]).tolist(), shots]
    rows = [np.empty((0, 2), dtype=np.int64)]
    for start, carry, low, high in zip(starts, carries, bounds, bounds[1:]):
        if low < high:
            rows.append(_block_rows(amplitudes, start, carry, uniforms[low:high]))
    return np.concatenate(rows)


def _block_rows(amplitudes: np.ndarray, start: int, carry: float, uniforms: np.ndarray) -> np.ndarray:
    """(flat index, count) rows of the sorted ``uniforms`` that fall in the block at ``start``."""
    cumulative = _cumulative(amplitudes, start, carry)
    draws = np.searchsorted(cumulative, uniforms, side="right")
    np.minimum(draws, cumulative.size - 1, out=draws)  # a uniform rounded up to the total
    values, counts = np.unique(draws, return_counts=True)
    return np.column_stack((values + start, counts))


def dump_nonzero(state: QuditState, stream: IO[str]) -> int:
    """Write ``index re im`` lines for every amplitude above the floor.

    Returns the number of lines written.  This is the CLI's --dump-state
    format; reprs round-trip exactly through float().
    """
    written = 0
    for start in range(0, state.amplitudes.size, DUMP_BLOCK_LINES):  # formatted from Python floats
        values = state.amplitudes[start:start + DUMP_BLOCK_LINES]
        keep = np.flatnonzero(np.abs(values) ** 2 > PROB_FLOOR)
        values = values[keep]
        stream.write("".join(f"{i} {re!r} {im!r}\n" for i, re, im
                             in zip((keep + start).tolist(), values.real.tolist(), values.imag.tolist())))
        written += keep.size
    return written
