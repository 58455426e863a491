"""Simulator over n qudits of dimension n each that never holds all n**n amplitudes.

Assignment tuples index the amplitudes in big-endian user order: (c_0, ..., c_{n-1})
sits at flat index sum(c_j * n**(n-1-j)), user 0 most significant; measurement
histograms list outcomes by that flat index.  A start state is its support, and
its branches s with one local operator U per user make the final state a sum of
product states, amplitude(c) = sum_s a_s prod_j U[c_j, s_j], kept as two factors
and multiplied out one block at a time.  All operations mutate no input.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from .game import DimensionError, GameConfig, entangled_branches

#: one pass of the sampler over 8**8 ~ 1.7e7 outcomes is the ceiling
SITE_CAP = 8

#: amplitudes whose probability falls below this are left out of state dumps
PROB_FLOOR = 1e-15

#: amplitudes the sampler and the state dump compute at a time, in whole factor rows
SAMPLE_BLOCK = 2**16

#: measurement refuses states whose norm drifted further than this
NORM_TOL = 1e-6

#: bytes of physical memory, the ceiling for a run's planned footprint
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class ResourceLimitError(RuntimeError):
    """A run would exceed a memory ceiling: the simulation's size cap or, by its
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
    """A state of n users over n channels by its support: the sorted flat
    ``indices`` and the ``amplitudes`` there.  Every other amplitude is zero."""

    n: int
    indices: np.ndarray
    amplitudes: np.ndarray


@dataclass
class FactoredState:
    """A state of n users as two factors: amplitude(row * len(right) + col) is
    (left @ right.T)[row, col].  The rows of ``left`` run over the leading n//2
    users' digits and those of ``right`` over the trailing users', first user
    most significant; the columns run over the start state's support."""

    n: int
    left: np.ndarray
    right: np.ndarray

    @property
    def amplitudes(self) -> np.ndarray:
        """All n**n amplitudes as one vector, built on demand.  Only tests and
        the benchmark tracer's counting pass read it; qmg reads ``block``."""
        return (self.left @ self.right.T).reshape(-1)

    def blocks(self) -> range:
        """First left row of each block: SAMPLE_BLOCK amplitudes' worth of whole
        rows, as BLAS need not sum a split row in the whole product's order."""
        return range(0, len(self.left), max(1, SAMPLE_BLOCK // len(self.right)))

    def block(self, row: int) -> np.ndarray:
        """The block from left row ``row``: the amplitudes from flat index row * len(right)."""
        return (self.left[row:row + self.blocks().step] @ self.right.T).reshape(-1)


def prepare_entangled(config: GameConfig) -> QuditState:
    """Entangled start state: one amplitude per constant tuple (k, ..., k)."""
    if config.n > SITE_CAP:
        raise ResourceLimitError(f"simulation capped at n <= {SITE_CAP}, got n={config.n}")
    return QuditState(config.n, *entangled_branches(config))


def apply_local_strategy(state: QuditState, matrix: np.ndarray) -> FactoredState:
    """Apply the same single-qudit operator U to every site.

    The result sums one product state per support state s of the input,
    amplitude(c) = sum_s a_s prod_j U[c_j, s_j]: the leading n//2 sites'
    factors times the trailing sites', over the S support states (n for the
    start state).  A broad support costs (n**(n//2) + n**(n - n//2)) * S
    factor entries and is planned first.
    """
    n, size = state.n, state.indices.size
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n, n):
        raise DimensionError(f"operator shape {matrix.shape} does not match qudit dimension {n}")
    lead = n // 2
    check_footprint(16 * (n**lead + n**(n - lead)) * size, f"{size} branches")
    # rows: the leading (left) or trailing (right) sites' digits, first site most
    # significant; columns: the support states, whose amplitudes ride on the left
    sides = [state.amplitudes[None, :], np.ones((1, size))]
    for j, digits in enumerate(np.unravel_index(state.indices, (n,) * n)):
        side = sides[j >= lead]
        sides[j >= lead] = (side[:, None, :] * matrix[:, digits]).reshape(-1, size)
    return FactoredState(n, *sides)


def _cumulative(state: FactoredState, row: int, carry: float) -> np.ndarray:
    """Running probability sums over the block from left row ``row``, continued
    from ``carry``, the sum before it.  numpy sums in sequence, so given the
    same carry each value is bit-equal to the whole vector's cumsum."""
    block = np.abs(state.block(row))
    np.square(block, out=block)
    block[0] += carry
    return np.cumsum(block, out=block)


def _block_ends(state: FactoredState) -> np.ndarray:
    """Probability sums up to each block's end, from the factors alone: left row
    r's mass is Re(L_r G L_r^H) over the S x S Gram matrix G = right.T @ conj(right)
    of the S support columns.  A row of zero mass can come out a few ulps below 0,
    so the masses are clipped at 0 and the sums never decrease."""
    gram = state.right.T @ state.right.conj()
    masses = np.einsum("rs,rs->r", state.left @ gram, state.left.conj()).real
    return np.cumsum(np.add.reduceat(np.maximum(masses, 0.0), state.blocks()))


def sample_counts(state: FactoredState, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Histogram of ``shots`` independent measurements of the same state: an int64
    array of ``(flat index, count)`` rows, one per outcome drawn, in increasing
    index order (the assignment tuples' lexicographic order).

    The cumulative probabilities are summed in one pass, block by block: each
    block continues from its carry, a sum of the factors' Gram matrix
    (``_block_ends``), and looks up the sorted uniforms that fall below the
    next block's carry.  Refuses a state whose norm is off 1 by more than ``NORM_TOL``.
    """
    blocks, width = state.blocks(), len(state.right)
    # the factors (16 per entry); while the carries are summed, the Gram matrix (16 per
    # entry of its S x S), up to two temporaries per factor entry (32) and each left row's
    # complex and clipped mass (24); per block, its amplitudes and then their sums (24 per
    # amplitude, one block at a time) and 256 B for its carry, bound and row arrays' headers;
    # per shot, the uniforms (8) and, over one block's shots, the draws and the mask of
    # their changes (9), which also cover the histogram writer's count table (at most shots
    # + 1 entries of 8); per outcome drawn, at most shots or amplitudes, the run ends, values,
    # counts and rows of one block (40), which also covers the kept rows and their
    # concatenation (32); per call, 8 KiB of array headers and scalars
    check_footprint(8192 + 48 * (state.left.size + state.right.size) + 16 * state.left.shape[1]**2
                    + 24 * len(state.left) + 24 * blocks.step * width + 256 * len(blocks)
                    + 17 * shots + 40 * min(shots, len(state.left) * width), f"{shots} shots")
    ends = _block_ends(state)
    total = ends[-1]
    norm = math.sqrt(total)
    if abs(norm - 1.0) > NORM_TOL:
        raise StateIntegrityError(f"state norm = {norm!r}, expected 1 within {NORM_TOL}")
    uniforms = rng.random(shots)
    uniforms *= total
    uniforms.sort()  # same draws, far faster searchsorted; the counts ignore order
    # each block's shots: the uniforms from its carry up to, not at, the next block's
    bounds = [0, *np.searchsorted(uniforms, ends[:-1]).tolist(), shots]
    rows = [np.empty((0, 2), dtype=np.int64)]
    for row, carry, low, high in zip(blocks, [0.0, *ends[:-1].tolist()], bounds, bounds[1:]):
        if low < high:
            rows.append(_block_counts(state, row, carry, uniforms[low:high]))
    return np.concatenate(rows)


def _block_counts(state: FactoredState, row: int, carry: float, uniforms: np.ndarray) -> np.ndarray:
    """(flat index, count) rows of the sorted ``uniforms`` that fall in the block
    from left row ``row``."""
    cumulative = _cumulative(state, row, carry)
    draws = np.searchsorted(cumulative, uniforms, side="right")
    np.minimum(draws, cumulative.size - 1, out=draws)  # a uniform rounded up to the total
    # the draws are sorted, so each outcome is one run of them, ending at a change
    ends = np.append(np.flatnonzero(draws[1:] != draws[:-1]), draws.size - 1)
    return np.column_stack((draws[ends] + row * len(state.right), np.diff(ends, prepend=-1)))


def dump_nonzero(state: FactoredState, stream: IO[str]) -> int:
    """Write ``index re im`` lines for every amplitude above the floor, a block at a time.

    Returns the number of lines written.  This is the CLI's --dump-state
    format; reprs round-trip exactly through float().
    """
    written = 0
    for row in state.blocks():  # formatted from Python floats
        values = state.block(row)
        keep = np.flatnonzero(np.abs(values) ** 2 > PROB_FLOOR)
        values = values[keep]
        stream.write("".join(f"{i} {re!r} {im!r}\n" for i, re, im in zip(
            (keep + row * len(state.right)).tolist(), values.real.tolist(), values.imag.tolist())))
        written += keep.size
    return written
