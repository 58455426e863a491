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

Everything here is exact and independent of the dense simulators: a
game's outcome law, the probabilities read from it and the support sampler
follow from this law directly, and the tests hold the simulators against it.
"""

from __future__ import annotations

import cmath
import functools
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


@functools.cache
def _counts_by_residue(n: int) -> np.ndarray:
    """(n, n + 1) counts of the n**n size-n tuples by (digit sum mod n, players alone on
    their channel), by a DP over the channels: placing k of the n - j players not yet
    placed on channel c has math.comb(n - j, k) ways, adds c*k to the digit sum and, at
    k == 1, one player alone.  uint64 arithmetic is exact mod 2**64 and every count lies
    below 2**64, so products and sums that wrap on the way change no count."""
    placed = np.zeros((n + 1, n, n + 1), dtype=np.uint64)  # players placed, digit sum mod n, alone
    placed[0, 0, 0] = 1
    ways = np.array([[math.comb(n - j, k) for k in range(n + 1)] for j in range(n + 1)], dtype=np.uint64)
    for c in range(n):
        step = np.zeros_like(placed)
        for k in range(n + 1):
            alone = int(k == 1)
            moved = np.roll(placed[:n + 1 - k] * ways[:n + 1 - k, k, None, None], c * k % n, axis=1)
            step[k:, :, alone:] += moved[:, :, :n + 1 - alone]
        placed = step
    return placed[n]


def outcome_law(n: int, phase: int | None = None) -> np.ndarray:
    """The exact law of a size-n game (n >= 1): an (n + 1, 2) uint64 array whose entry
    [s, a] counts the equally likely tuples with s players alone and, at a == 1, all on one
    channel; flat index s << 1 | a.  ``phase`` None is the classical rule, all n**n tuples;
    else the support, the n**(n-1) with (phase + sum) % n == 0.  All-same needs no DP
    dimension: it is the n constant tuples (n >= 2), sums n*c = 0 mod n, nobody alone."""
    by_residue = _counts_by_residue(n)
    law = np.zeros((n + 1, 2), dtype=np.uint64)
    law[:, 0] = by_residue.sum(axis=0) if phase is None else by_residue[-phase % n]
    if n > 1 and (phase is None or phase % n == 0):
        law[0] = law[0, 0] - np.uint64(n), n  # in uint64 under numpy 1's promotion too
    return law


@dataclass(frozen=True)
class OutcomeStatistics:
    """Exact statistics of one game's outcome law, each a correctly rounded ratio of
    its counts: all distinct, all same, nobody alone (no delivery), the players alone,
    the share of the n transmissions that collide, and the equally likely outcomes."""

    p_all_distinct: float
    p_all_same: float
    p_zero_delivery: float
    expected_successes: float
    collision_rate: float
    support_size: int
    per_outcome_prob: float


def outcome_statistics(n: int, phase: int | None = None) -> OutcomeStatistics:
    """Exact statistics of a size-n game's outcome law; ``phase`` None is the classical
    rule, n users picking uniformly at random: P(all distinct) = n!/n^n, P(all same) = n^(1-n).

    Every permutation shares the digit sum n*(n-1)/2, so either all n! of
    the all-distinct assignments interfere constructively or none does;
    the n constant assignments likewise stand or fall together (their sums
    are multiples of n, so they survive exactly when phase == 0 mod n).
    """
    if n < 2 or n > MAX_N:  # past MAX_N the uint64 counts of outcome_law would wrap
        raise InvalidConfigError(f"need 2 <= n <= {MAX_N}, got {n}")
    counts = outcome_law(n, phase).tolist()  # Python ints, [successes][all-same]
    total = sum(map(sum, counts))
    successes = sum(s * sum(row) for s, row in enumerate(counts))
    return OutcomeStatistics(
        p_all_distinct=float(Fraction(counts[n][0], total)),
        p_all_same=float(Fraction(counts[0][1], total)),
        p_zero_delivery=float(Fraction(sum(counts[0]), total)),
        expected_successes=float(Fraction(successes, total)),
        collision_rate=float(Fraction(n * total - successes, n * total)),
        support_size=total,
        per_outcome_prob=float(Fraction(1, total)),
    )


def sample_outcomes(config: GameConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` assignments from the uniform support distribution,
    as a (size, n) integer array.

    The first n-1 digits are free and uniform, the last is forced by the
    support condition (phase + sum) % n == 0.  Each support tuple has
    exactly one preimage, so the construction is exactly uniform over the
    n^(n-1) support tuples -- no rejection step.
    """
    head = rng.integers(0, config.n, size=(size, config.n - 1))
    last = (-(config.effective_phase + np.einsum("ij->i", head))) % config.n
    return np.concatenate([head, last[:, None]], axis=1)
