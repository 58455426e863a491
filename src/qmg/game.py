"""Closed-form mathematics of the entangled channel-assignment game.

n users must each pick one of n channels.  The arbiter prepares the
entangled state

    (1/sqrt(n)) * sum_k  w^(k*phase) |k k ... k>,     w = exp(2*pi*i/n),

every user applies the same local n x n unitary with entries
w^(r*c)/sqrt(n), and the joint outcome (c_0, ..., c_{n-1}) is measured.
The final amplitude of an outcome depends only on m = phase + sum(c_j):

    amplitude = n^((1-n)/2)   if m == 0 (mod n),
              = 0             otherwise,

so the reachable outcomes (the "support") form one residue class of size
n^(n-1), uniformly weighted.  Two phase regimes matter in practice:
phase = n*(n-1)//2 puts every all-distinct assignment on the support
("enhance-optimum"), while phase = 1 removes every all-same assignment
("avoid-worst").

Everything here is exact and independent of the dense simulators: the
analytic probabilities and the support sampler follow from this law
directly, and the tests hold the simulators against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Closed-form operations count support states exactly; 16 keeps n**n well
#: inside float range and every consumer (simulators, MAC, CLI) below it.
MAX_N = 16

REGIME_ENHANCE_OPTIMUM = "enhance-optimum"
REGIME_AVOID_WORST = "avoid-worst"
REGIMES = (REGIME_ENHANCE_OPTIMUM, REGIME_AVOID_WORST)


class InvalidConfigError(ValueError):
    """Game size or phase parameter outside the supported domain."""


class DimensionError(ValueError):
    """An operator does not fit the game dimensions."""


@dataclass(frozen=True)
class GameConfig:
    """Game size ``n`` (users == channels) and integer phase parameter.

    The phase is stored as given (e.g. ``n*(n-1)//2``) but only its value
    mod ``n`` ever enters the amplitudes.
    """

    n: int
    phase: int

    def __post_init__(self):
        # normalize to Python ints: numpy ints would overflow n**n downstream
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "phase", int(self.phase))
        if self.n < 2:
            raise InvalidConfigError(f"need at least 2 users/channels, got n={self.n}")
        if self.n > MAX_N:
            raise InvalidConfigError(f"n={self.n} exceeds the closed-form cap {MAX_N}")
        if self.phase < 0:
            raise InvalidConfigError(f"phase must be non-negative, got {self.phase}")

    @property
    def effective_phase(self) -> int:
        return self.phase % self.n


def phase_for_regime(regime: str, n: int) -> int:
    """Phase parameter realizing a named interference regime."""
    if regime == REGIME_ENHANCE_OPTIMUM:
        return n * (n - 1) // 2
    if regime == REGIME_AVOID_WORST:
        return 1
    raise InvalidConfigError(f"unknown regime {regime!r}; expected one of {REGIMES}")


def entangled_branches(config: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """The n branches |k k ... k> of the prepared entangled state: their flat
    indices k*(n**n - 1)/(n - 1) (base n, user 0 most significant), in
    uint64 since at n = 16 they pass the int64 range, and their amplitudes
    w^(k*phase)/sqrt(n), the exponent reduced mod n before floating point."""
    n, p = config.n, config.effective_phase
    indices = np.arange(n, dtype=np.uint64) * np.uint64((n**n - 1) // (n - 1))
    amplitudes = np.array([cmath.exp(2j * math.pi * ((k * p) % n) / n) / math.sqrt(n)
                           for k in range(n)], dtype=np.complex128)
    return indices, amplitudes


def strategy_matrix(n: int) -> np.ndarray:
    """The n x n unitary every player applies: entry (r, c) = w^(r*c)/sqrt(n).

    For n == 2 this is the Hadamard gate.
    """
    if n < 2:
        raise InvalidConfigError(f"need n >= 2, got {n}")
    exponents = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(2j * np.pi * exponents / n) / np.sqrt(n)


@dataclass(frozen=True)
class SupportProbabilities:
    """Exact outcome statistics of the entangled allocation game."""

    p_all_distinct: float
    p_all_same: float
    support_size: int
    per_outcome_prob: float


@dataclass(frozen=True)
class ClassicalProbabilities:
    """Reference statistics for independent uniform channel choices."""

    p_all_distinct: float
    p_all_same: float


def analytic_probabilities(config: GameConfig) -> SupportProbabilities:
    """Closed-form support statistics.

    Every permutation shares the digit sum n*(n-1)/2, so either all n! of
    the all-distinct assignments interfere constructively or none does;
    the n constant assignments likewise stand or fall together (their sums
    are multiples of n, so they survive exactly when phase == 0 mod n).
    """
    n = config.n
    pe = config.effective_phase
    support_size = n ** (n - 1)
    per_outcome = Fraction(1, support_size)
    n_permutations = math.factorial(n) if (pe + n * (n - 1) // 2) % n == 0 else 0
    n_constants = n if pe == 0 else 0
    return SupportProbabilities(
        p_all_distinct=float(n_permutations * per_outcome),
        p_all_same=float(n_constants * per_outcome),
        support_size=support_size,
        per_outcome_prob=float(per_outcome),
    )


def classical_probabilities(n: int) -> ClassicalProbabilities:
    """n users picking uniformly at random: P(all distinct) = n!/n^n,
    P(all same) = n^(1-n)."""
    if n < 2 or n > MAX_N:
        raise InvalidConfigError(f"need 2 <= n <= {MAX_N}, got {n}")
    return ClassicalProbabilities(
        p_all_distinct=float(Fraction(math.factorial(n), n**n)),
        p_all_same=float(Fraction(n, n**n)),
    )


def sample_outcomes(config: GameConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` assignments from the uniform support distribution,
    as a (size, n) integer array.

    The first n-1 digits are free and uniform, the last is forced by the
    support condition (phase + sum) % n == 0.  Each support tuple has
    exactly one preimage, so the construction is exactly uniform over the
    n^(n-1) support tuples -- no rejection step.
    """
    return complete_outcomes(config, rng.integers(0, config.n, size=(size, config.n - 1)))


def complete_outcomes(config: GameConfig, head: np.ndarray) -> np.ndarray:
    """The support tuples that begin with the rows of ``head``, a (rows, n-1)
    integer array: each row ends in the digit that puts (phase + sum) % n at 0."""
    last = (-(config.effective_phase + np.einsum("ij->i", head))) % config.n
    return np.concatenate([head, last[:, None]], axis=1)

