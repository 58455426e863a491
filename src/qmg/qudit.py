"""Dense state-vector simulator over n qudits of dimension n each.

The joint state is a length n**n complex vector indexed by assignment
tuples in big-endian user order: (c_0, ..., c_{n-1}) sits at flat index
sum(c_j * n**(n-1-j)), user 0 most significant.  All operations return new
states; nothing here mutates its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .game import AssignmentTuple, DimensionError, GameConfig, entangled_coefficient

#: n**n amplitudes at complex128; 8**8 is ~1.7e7 values (~270 MB), the ceiling.
SITE_CAP = 8

#: probabilities below this are dropped from reported distributions / dumps
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def tuple_to_index(n: int, outcome: Iterable[int]) -> int:
    """Flat index of an assignment tuple (user 0 most significant digit)."""
    index = 0
    for c in outcome:
        index = index * n + int(c)
    return index


def indices_to_tuples(n: int, indices: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tuple_to_index`, vectorized: one row of base-n
    digits per index."""
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


def apply_local_strategy(state: QuditState, matrix: np.ndarray,
                         site_order: Iterable[int] | None = None) -> QuditState:
    """Apply the same single-qudit operator to every site, one site at a time.

    Local operators on distinct sites commute, so ``site_order`` (any
    permutation of range(n)) must not change the result; the parameter
    exists so tests can prove that.  The sweep contracts one axis of the
    (n, ..., n)-shaped view per site and never materializes the full
    n**n x n**n operator.
    """
    n = state.n
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n, n):
        raise DimensionError(f"operator shape {matrix.shape} does not match qudit dimension {n}")
    order = list(range(n)) if site_order is None else [int(s) for s in site_order]
    if sorted(order) != list(range(n)):
        raise DimensionError(f"site_order must be a permutation of range({n}), got {order}")
    psi = state.amplitudes.reshape((n,) * n)
    for site in order:
        psi = np.moveaxis(np.tensordot(matrix, psi, axes=(1, site)), 0, site)
    return QuditState(n, np.ascontiguousarray(psi).reshape(-1))


def _tuples(n: int, indices: np.ndarray) -> Iterator[AssignmentTuple]:
    """Assignment tuples of Python ints, one per flat index."""
    return zip(*indices_to_tuples(n, indices).T.tolist())


def distribution(state: QuditState) -> dict[AssignmentTuple, float]:
    """Measurement probabilities |amplitude|^2; entries below 1e-15 omitted."""
    probs = np.abs(state.amplitudes) ** 2
    keep = np.nonzero(probs > PROB_FLOOR)[0]
    return dict(zip(_tuples(state.n, keep), probs[keep].tolist()))


def _checked_probs(state: QuditState) -> np.ndarray:
    probs = np.abs(state.amplitudes) ** 2
    norm = math.sqrt(probs.sum())
    if abs(norm - 1.0) > NORM_TOL:
        raise StateIntegrityError(f"state norm = {norm!r}, expected 1 within {NORM_TOL}")
    return probs


def _draw(state: QuditState, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Flat indices of ``shots`` independent measurements of the state."""
    probs = _checked_probs(state)
    cumulative = np.cumsum(probs)
    draws = np.searchsorted(cumulative, rng.random(shots) * cumulative[-1], side="right")
    return np.minimum(draws, probs.size - 1)


def measure(state: QuditState, rng: np.random.Generator) -> AssignmentTuple:
    """Sample one assignment from the state; deterministic given the seed."""
    (outcome,) = _tuples(state.n, _draw(state, rng, 1))
    return outcome


def sample_counts(state: QuditState, rng: np.random.Generator,
                  shots: int) -> dict[AssignmentTuple, int]:
    """Histogram of ``shots`` independent measurements of the same state."""
    values, counts = np.unique(_draw(state, rng, shots), return_counts=True)
    return dict(zip(_tuples(state.n, values), counts.tolist()))


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
