"""Tests for the exact game mathematics.

The independent oracle used throughout is a literal evaluation of the
interference sum with un-reduced floating-point exponents, held against the
closed form and support law stated in conftest.py.
"""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_amplitude, closed_form_amplitude, in_support, python_int_law, support_tallies
from qmg.game import (
    GameConfig,
    InvalidConfigError,
    analytic_probabilities,
    classical_probabilities,
    entangled_branches,
    outcome_law,
    phase_for_regime,
    sample_outcomes,
    strategy_matrix,
)


def all_tuples(n):
    return np.array(list(itertools.product(range(n), repeat=n)), dtype=np.int64)


def brute_amplitudes(n, p, tuples):
    """Vectorized oracle over an array of assignment rows."""
    sums = tuples.sum(axis=1) + p
    k = np.arange(n)[:, None]
    return np.exp(2j * np.pi * k * sums[None, :] / n).sum(axis=0) * n ** (-(n + 1) / 2)


# --- config ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidConfigError):
        GameConfig(1, 0)
    with pytest.raises(InvalidConfigError):
        GameConfig(17, 0)
    with pytest.raises(InvalidConfigError):
        GameConfig(4, -1)


def test_config_effective_phase():
    assert GameConfig(4, 6).effective_phase == 2
    assert GameConfig(4, 6).phase == 6  # stored as given


def test_phase_for_regime():
    assert phase_for_regime("enhance-optimum", 4) == 6
    assert phase_for_regime("enhance-optimum", 8) == 28
    assert phase_for_regime("avoid-worst", 5) == 1
    with pytest.raises(InvalidConfigError):
        phase_for_regime("optimal", 4)


# --- entangled coefficients -----------------------------------------------

def coefficients(n, p):
    return entangled_branches(GameConfig(n, p))[1]


def test_root_of_unity_examples():
    """Branch 1 carries w^p / sqrt(n), so sqrt(n) times it is the root w^p."""
    assert coefficients(4, 1)[1] * 2 == pytest.approx(1j)
    assert coefficients(4, 6)[1] * 2 == pytest.approx(-1)  # w^6 = w^2 = -1
    assert coefficients(2, 1)[1] * math.sqrt(2) == pytest.approx(-1)


def test_entangled_coefficient_examples():
    assert coefficients(2, 1)[1] == pytest.approx(-1 / math.sqrt(2))
    assert coefficients(4, 0)[3] == pytest.approx(0.5)
    assert coefficients(4, 1)[2] == pytest.approx(-0.5)
    assert coefficients(2, 1).dtype == np.complex128


def test_entangled_coefficients_normalized():
    for n in range(2, 9):
        for p in (0, 1, n * (n - 1) // 2):
            norm = np.sum(np.abs(coefficients(n, p)) ** 2)
            assert norm == pytest.approx(1.0, abs=1e-12)


@given(n=st.integers(2, 16), p=st.integers(0, 100), laps=st.integers(1, 3))
def test_entangled_coefficients_exactly_periodic(n, p, laps):
    """Only the phase mod n enters: a whole number of laps changes no bit."""
    z = coefficients(n, p)
    assert np.array_equal(z.view(np.uint64), coefficients(n, p + laps * n).view(np.uint64))
    assert np.all(np.abs(np.abs(z) - 1 / math.sqrt(n)) < 1e-12)


# --- strategy matrix ------------------------------------------------------

def test_strategy_matrix_is_hadamard_at_n2():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(strategy_matrix(2), h, atol=1e-15)


def test_strategy_matrix_entries():
    assert strategy_matrix(4)[1, 1] == pytest.approx(1j / 2)
    assert np.allclose(strategy_matrix(3)[0], np.full(3, 1 / math.sqrt(3)))


def test_strategy_matrix_unitary_up_to_cap():
    for n in range(2, 17):
        m = strategy_matrix(n)
        deviation = np.abs(m @ m.conj().T - np.eye(n)).max()
        assert deviation < 1e-10


def test_strategy_matrix_rejects_small_n():
    with pytest.raises(InvalidConfigError):
        strategy_matrix(1)


# --- outcome amplitudes ---------------------------------------------------

def test_outcome_amplitude_examples():
    assert abs(brute_amplitude(4, 1, (2, 2, 2, 2))) < 1e-12
    assert brute_amplitude(2, 1, (0, 1)) == pytest.approx(1 / math.sqrt(2))
    amp = brute_amplitude(4, 6, (0, 1, 2, 3))
    assert amp == pytest.approx(0.125, abs=1e-12)
    assert closed_form_amplitude(4, 6, (0, 1, 2, 3)) == 0.125
    assert closed_form_amplitude(4, 1, (2, 2, 2, 2)) == 0.0


@given(n=st.integers(2, 6), p=st.integers(0, 40), data=st.data())
@settings(max_examples=200)
def test_closed_form_matches_interference_sum(n, p, data):
    t = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    direct = brute_amplitude(n, p, t)
    closed = closed_form_amplitude(n, p, t)
    assert direct == pytest.approx(closed, abs=1e-12)
    assert in_support(n, p, t) == (abs(closed) > 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_support_characterization_exhaustive(n):
    """All n**n tuples, all phases: amplitude is 0 or n^((1-n)/2), exactly on
    the support predicate, summing to probability one."""
    tuples = all_tuples(n)
    for p in range(n):
        amps = brute_amplitudes(n, p, tuples)
        magnitudes = np.abs(amps)
        on = magnitudes > 1e-12
        assert np.all((magnitudes[on] - n ** ((1 - n) / 2)) < 1e-12)
        assert np.all(magnitudes[~on] < 1e-12)
        predicate = np.array([in_support(n, p, t) for t in tuples])
        assert np.array_equal(predicate, on)
        assert on.sum() == n ** (n - 1)
        assert np.sum(magnitudes**2) == pytest.approx(1.0, abs=1e-10)


def test_support_examples():
    for n, p, t, reachable in ((2, 1, (1, 0), True), (4, 1, (0, 0, 0, 0), False),
                               (3, 3, (0, 1, 2), True)):
        assert in_support(n, p, t) is reachable
        assert (abs(brute_amplitude(n, p, t)) > 1e-12) is reachable


@pytest.mark.parametrize("n", range(2, 7))
def test_marginals_uniform(n):
    """Fairness: each user lands on each channel with probability 1/n."""
    tuples = all_tuples(n)
    for p in range(n):
        probs = np.abs(brute_amplitudes(n, p, tuples)) ** 2
        for user in range(n):
            for channel in range(n):
                marginal = probs[tuples[:, user] == channel].sum()
                assert marginal == pytest.approx(1 / n, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 6))
def test_phase_shift_covariance(n):
    """Bumping the phase by one maps the support by decrementing any one
    coordinate mod n; support size never changes."""
    tuples = [tuple(t) for t in all_tuples(n)]
    supports = {p: {t for t in tuples if in_support(n, p, t)} for p in range(n + 1)}
    for p in range(n):
        assert len(supports[p]) == n ** (n - 1)
        shifted = {((t[0] - 1) % n,) + t[1:] for t in supports[p]}
        assert shifted == supports[p + 1]


# --- analytic probabilities -----------------------------------------------

def test_analytic_probabilities_enhance_regime():
    got = analytic_probabilities(GameConfig(4, 6))
    assert got.p_all_distinct == 0.375
    assert got.p_all_same == 0.0
    assert got.support_size == 64
    assert got.per_outcome_prob == 0.015625
    # oracle: sum |amplitude|^2 over the 24 permutations
    perm_mass = sum(abs(brute_amplitude(4, 6, t)) ** 2 for t in itertools.permutations(range(4)))
    assert perm_mass == pytest.approx(0.375, abs=1e-12)


def test_analytic_probabilities_avoid_regime():
    got = analytic_probabilities(GameConfig(4, 1))
    assert got.p_all_same == 0.0
    assert got.p_all_distinct == 0.0  # (1 + 6) % 4 != 0: permutations cancel too


def test_analytic_probabilities_odd_n_keeps_constants():
    # for odd n the enhance phase is 0 mod n, so constant tuples survive
    got = analytic_probabilities(GameConfig(3, 3))
    assert got.p_all_distinct == pytest.approx(2 / 3)
    assert got.p_all_same == pytest.approx(1 / 3)
    assert got.support_size == 9


@given(n=st.integers(2, 8), p=st.integers(0, 40))
def test_analytic_probabilities_consistent(n, p):
    got = analytic_probabilities(GameConfig(n, p))
    assert got.support_size * got.per_outcome_prob == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= got.p_all_distinct <= 1.0
    assert 0.0 <= got.p_all_same <= 1.0


def test_classical_probabilities_values():
    got = classical_probabilities(8)
    assert got.p_all_distinct == pytest.approx(2.4e-3, abs=5e-5)
    assert Fraction(got.p_all_distinct) == Fraction(40320, 16777216)
    assert classical_probabilities(2).p_all_distinct == 0.5
    assert classical_probabilities(4).p_all_same == 4.0**-3


def test_classical_probabilities_range():
    with pytest.raises(InvalidConfigError):
        classical_probabilities(1)
    with pytest.raises(InvalidConfigError):
        classical_probabilities(17)


# --- the outcome law --------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_outcome_law_matches_brute_force(n):
    """The classical law and the law of every residue class, entry [s, a]
    against the enumerated tuples with s players alone and all-same a."""
    for phase in (None, *range(n)):
        law = {(s, bool(a)): count for s, row in enumerate(outcome_law(n, phase).tolist())
               for a, count in enumerate(row) if count}
        assert law == collections.Counter(support_tallies(n, phase)), phase


@pytest.mark.parametrize("n", range(1, 17))
def test_outcome_law_counts_every_tuple(n):
    """The classical law counts all n**n tuples and each residue class
    n**(n-1); all-same is the n constant tuples (from n = 2), all in residue 0,
    and all-distinct the n! permutations, all in the class of n(n-1)/2."""
    assert sum(outcome_law(n).ravel().tolist()) == n**n
    for phase in range(n):
        law = outcome_law(n, phase).tolist()
        assert sum(map(sum, law)) == n ** (n - 1)
        assert law[0][1] == (n if n > 1 and phase == 0 else 0)
        assert law[n][0] == (math.factorial(n) if (phase + n * (n - 1) // 2) % n == 0 else 0)


@pytest.mark.parametrize("n", (7, 8, 16))
def test_outcome_law_uint64_matches_python_ints(n):
    """The uint64 DP, whose products and sums wrap mod 2**64 on the way,
    against a DP in Python ints: the counts by players alone agree in every
    residue class and under the classical rule."""
    reference = python_int_law(n)
    for phase in (None, *range(n)):
        residues = range(n) if phase is None else [-phase % n]
        expected = [sum(reference.get((r, s), 0) for r in residues) for s in range(n + 1)]
        assert outcome_law(n, phase).sum(axis=1).tolist() == expected, phase


@pytest.mark.parametrize("n", range(2, 7))
def test_statistics_read_the_enumerated_law(n):
    """Every statistic `qmg probs` reports is the correctly rounded ratio of
    enumerated counts, under the classical rule and at every phase."""
    for phase in (None, *range(n)):
        got = classical_probabilities(n) if phase is None else analytic_probabilities(GameConfig(n, phase))
        tallies = support_tallies(n, phase)
        total, successes = len(tallies), sum(s for s, _ in tallies)
        assert got.p_all_distinct == float(Fraction(sum(s == n for s, _ in tallies), total))
        assert got.p_all_same == float(Fraction(sum(a for _, a in tallies), total))
        assert got.p_zero_delivery == float(Fraction(sum(s == 0 for s, _ in tallies), total))
        assert got.expected_successes == float(Fraction(successes, total))
        assert got.collision_rate == float(Fraction(n * total - successes, n * total))
        assert got.support_size == total and got.per_outcome_prob == 1 / total


# --- sampling -------------------------------------------------------------

def test_sample_outcome_two_user_support():
    cfg = GameConfig(2, 1)
    rng = np.random.default_rng(0)
    seen = {tuple(row) for row in sample_outcomes(cfg, rng, 200).tolist()}
    assert seen == {(0, 1), (1, 0)}


def test_sample_outcome_never_constant_in_avoid_regime():
    cfg = GameConfig(4, 1)
    draws = sample_outcomes(cfg, np.random.default_rng(1), 20000)
    assert not np.any(np.all(draws == draws[:, :1], axis=1))


def test_sample_outcome_deterministic():
    cfg = GameConfig(5, 3)
    a = sample_outcomes(cfg, np.random.default_rng(42), 50)
    b = sample_outcomes(cfg, np.random.default_rng(42), 50)
    assert np.array_equal(a, b)


@given(n=st.integers(2, 8), p=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_sample_outcome_always_on_support(n, p, seed):
    cfg = GameConfig(n, p)
    for t in sample_outcomes(cfg, np.random.default_rng(seed), 5):
        assert in_support(n, p, t)


@pytest.mark.parametrize("n", (3, 5, 7))
@pytest.mark.parametrize("p", (2**63 - 1, 2**63, 10**20))
def test_sample_outcome_on_support_for_any_phase(n, p):
    """Phases past the int64 range still land every draw on the support."""
    draws = sample_outcomes(GameConfig(n, p), np.random.default_rng(n), 1000)
    assert all(in_support(n, p, row) for row in draws.tolist())  # Python ints: no wrap


@pytest.mark.parametrize("n", (2, 3, 4))
def test_sampler_uniformity_chi_square(n):
    """Goodness of fit against the uniform support distribution, alpha=0.001."""
    cfg = GameConfig(n, 1)
    draws = sample_outcomes(cfg, np.random.default_rng(2024), 100_000)
    weights = n ** np.arange(n - 1, -1, -1)
    encoded = draws @ weights
    support = np.sort(np.array(
        [i for i, t in enumerate(all_tuples(n)) if in_support(n, 1, t)]))
    counts = np.zeros(len(support), dtype=np.int64)
    positions = np.searchsorted(support, encoded)
    assert np.array_equal(support[positions], encoded)  # membership, vectorized
    np.add.at(counts, positions, 1)
    result = scipy.stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_sampler_all_distinct_fraction():
    cfg = GameConfig(4, 6)
    draws = sample_outcomes(cfg, np.random.default_rng(7), 1_000_000)
    ordered = np.sort(draws, axis=1)
    distinct = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
    sigma = math.sqrt(0.375 * 0.625 / 1_000_000)
    assert abs(distinct.mean() - 0.375) < 3 * sigma
