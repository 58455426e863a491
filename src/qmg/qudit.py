"""Dense state-vector simulator over n qudits of dimension n each.

The joint state is a length n**n complex vector indexed by assignment
tuples in big-endian user order: (c_0, ..., c_{n-1}) sits at flat index
sum(c_j * n**(n-1-j)), user 0 most significant.  All operations return new
states; nothing here mutates its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .game import AssignmentTuple, DimensionError, GameConfig, entangled_coefficient

#: n**n amplitudes at complex128; 8**8 is ~1.7e7 values (~270 MB), the ceiling.
SITE_CAP = 8

#: amplitudes whose probability falls below this are left out of state dumps
PROB_FLOOR = 1e-15

#: measurement refuses states whose norm drifted further than this
NORM_TOL = 1e-6


class ResourceLimitError(RuntimeError):
    """The dense representation would exceed the memory ceiling."""


class StateIntegrityError(RuntimeError):
    """Measurement requested on a state that is not normalized."""


@dataclass
class QuditState:
    """Dense amplitudes for n users over n channels (length n**n)."""

    n: int
    amplitudes: np.ndarray


def indices_to_tuples(n: int, indices: np.ndarray) -> np.ndarray:
    """One row of base-n digits per flat index (user 0 most significant)."""
    out = np.empty((len(indices), n), dtype=np.int64)
    rest = np.asarray(indices, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, n)
    return out


def prepare_entangled(config: GameConfig) -> QuditState:
    """Entangled start state: one amplitude per constant tuple (k, ..., k)."""
    n = config.n
    if n > SITE_CAP:
        raise ResourceLimitError(f"dense simulation capped at n <= {SITE_CAP}, got n={n}")
    amplitudes = np.zeros(n**n, dtype=np.complex128)
    stride = (n**n - 1) // (n - 1)  # flat index of (1, 1, ..., 1)
    for k in range(n):
        amplitudes[k * stride] = entangled_coefficient(config, k)
    return QuditState(n, amplitudes)


def apply_local_strategy(state: QuditState, matrix: np.ndarray) -> QuditState:
    """Apply the same single-qudit operator to every site, one site at a time.

    The sweep contracts one axis of the (n, ..., n)-shaped view per site
    and never materializes the full n**n x n**n operator.
    """
    n = state.n
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n, n):
        raise DimensionError(f"operator shape {matrix.shape} does not match qudit dimension {n}")
    psi = state.amplitudes.reshape((n,) * n)
    for site in range(n):
        psi = np.moveaxis(np.tensordot(matrix, psi, axes=(1, site)), 0, site)
    return QuditState(n, np.ascontiguousarray(psi).reshape(-1))


def sample_counts(state: QuditState, rng: np.random.Generator,
                  shots: int) -> dict[AssignmentTuple, int]:
    """Histogram of ``shots`` independent measurements of the same state.

    Outcomes come in lexicographic order of their assignment tuples (the
    order of their big-endian flat indices).  Refuses a state whose norm
    is off 1 by more than ``NORM_TOL``.
    """
    probs = np.abs(state.amplitudes) ** 2
    norm = math.sqrt(probs.sum())
    if abs(norm - 1.0) > NORM_TOL:
        raise StateIntegrityError(f"state norm = {norm!r}, expected 1 within {NORM_TOL}")
    cumulative = np.cumsum(probs)
    draws = np.searchsorted(cumulative, rng.random(shots) * cumulative[-1], side="right")
    draws = np.minimum(draws, probs.size - 1)
    del probs, cumulative  # free both n**n arrays before decoding
    values, counts = np.unique(draws, return_counts=True)
    outcomes = zip(*indices_to_tuples(state.n, values).T.tolist())
    return dict(zip(outcomes, counts.tolist()))


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
