"""Dense qudit simulator vs the closed-form oracle."""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmg.game import (
    DimensionError,
    GameConfig,
    outcome_amplitude_closed_form,
    phase_for_regime,
    strategy_matrix,
)
from qmg.qudit import (
    QuditState,
    ResourceLimitError,
    StateIntegrityError,
    PROB_FLOOR,
    apply_local_strategy,
    dump_nonzero,
    indices_to_tuples,
    prepare_entangled,
    sample_counts,
)

SQRT1_2 = 1 / math.sqrt(2)


def final_state(n, p):
    return apply_local_strategy(prepare_entangled(GameConfig(n, p)), strategy_matrix(n))


def flat_index(n, outcome):
    """Big-endian flat index of an assignment tuple (user 0 most significant)."""
    return int(np.ravel_multi_index(outcome, (n,) * n))


def test_index_round_trip():
    assert flat_index(4, (1, 1, 1, 1)) == 85
    assert flat_index(3, (2, 0, 1)) == 19
    for n in (2, 3, 4):
        rows = indices_to_tuples(n, np.arange(n**n))
        assert np.array_equal(np.ravel_multi_index(rows.T, (n,) * n), np.arange(n**n))


def test_indices_to_tuples_vectorized():
    idx = np.arange(3**3)
    rows = indices_to_tuples(3, idx)
    assert rows.shape == (27, 3)
    assert tuple(rows[19]) == (2, 0, 1)


def test_prepare_two_user():
    state = prepare_entangled(GameConfig(2, 1))
    assert np.allclose(state.amplitudes, [SQRT1_2, 0, 0, -SQRT1_2], atol=1e-12)


def test_prepare_four_user_no_phase():
    state = prepare_entangled(GameConfig(4, 0))
    nonzero = np.nonzero(state.amplitudes)[0]
    assert list(nonzero) == [flat_index(4, (k,) * 4) for k in range(4)]
    assert np.allclose(state.amplitudes[nonzero], 0.5, atol=1e-12)


def test_prepare_three_user_full_lap_phase():
    # phase 3 on 3 branches: every phase factor is a full turn
    state = prepare_entangled(GameConfig(3, 3))
    nonzero = np.nonzero(state.amplitudes)[0]
    assert np.allclose(state.amplitudes[nonzero], 1 / math.sqrt(3), atol=1e-12)


def test_prepare_beyond_cap():
    with pytest.raises(ResourceLimitError):
        prepare_entangled(GameConfig(9, 1))


def test_hadamard_pair_converts_bell_phase():
    state = final_state(2, 1)
    expected = np.array([0, SQRT1_2, SQRT1_2, 0])
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_identity_strategy_is_bitwise_noop():
    state = prepare_entangled(GameConfig(3, 1))
    same = apply_local_strategy(state, np.eye(3))
    assert np.all(np.abs(same.amplitudes - state.amplitudes) < 1e-15)


def test_strategy_shape_mismatch():
    state = prepare_entangled(GameConfig(3, 1))
    with pytest.raises(DimensionError):
        apply_local_strategy(state, strategy_matrix(4))


def test_amplitude_matches_oracle_pointwise():
    state = final_state(4, 6)
    idx = flat_index(4, (0, 1, 2, 3))
    assert abs(state.amplitudes[idx]) ** 2 == pytest.approx(1 / 64, abs=1e-12)


def test_site_order_independence():
    """Local operators on distinct sites commute: contracting the sites in
    any order gives the sweep's result."""
    state = prepare_entangled(GameConfig(4, 1))
    m = strategy_matrix(4)
    reference = apply_local_strategy(state, m).amplitudes
    for order in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
        psi = state.amplitudes.reshape((4,) * 4)
        for site in order:
            psi = np.moveaxis(np.tensordot(m, psi, axes=(1, site)), 0, site)
        assert np.max(np.abs(psi.reshape(-1) - reference)) < 1e-12


@given(n=st.integers(2, 5), p=st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_norm_preserved_through_pipeline(n, p):
    state = prepare_entangled(GameConfig(n, p))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)
    after = apply_local_strategy(state, strategy_matrix(n))
    assert np.linalg.norm(after.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_distribution_two_user():
    probs = np.abs(final_state(2, 1).amplitudes) ** 2
    assert np.allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_distribution_of_fresh_state():
    probs = np.abs(prepare_entangled(GameConfig(4, 1)).amplitudes) ** 2
    constants = [flat_index(4, (k,) * 4) for k in range(4)]
    assert list(np.nonzero(probs > PROB_FLOOR)[0]) == constants
    assert np.allclose(probs[constants], 0.25, atol=1e-12)


def test_distribution_drops_floor_entries():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    amps[3] = 1e-9  # probability 1e-18, below the floor
    stream = io.StringIO()
    assert dump_nonzero(QuditState(2, amps), stream) == 1
    assert stream.getvalue().split()[0] == "0"


def test_distribution_sums_to_one():
    for n, p in ((3, 3), (4, 6), (5, 1)):
        probs = np.abs(final_state(n, p).amplitudes) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_measure_two_user_outcomes_only():
    counts = sample_counts(final_state(2, 1), np.random.default_rng(5), 100)
    assert set(counts) == {(0, 1), (1, 0)}


def test_measure_point_mass():
    amps = np.zeros(27, dtype=np.complex128)
    amps[flat_index(3, (2, 1, 0))] = 1.0
    state = QuditState(3, amps)
    assert sample_counts(state, np.random.default_rng(0), 20) == {(2, 1, 0): 20}


def test_measure_rejects_unnormalized():
    state = QuditState(2, np.full(4, 0.4, dtype=np.complex128))
    with pytest.raises(StateIntegrityError):
        sample_counts(state, np.random.default_rng(0), 10)


def test_measure_deterministic_given_seed():
    state = final_state(3, 3)
    a = sample_counts(state, np.random.default_rng(9), 30)
    b = sample_counts(state, np.random.default_rng(9), 30)
    assert list(a.items()) == list(b.items())


def test_sample_counts_lexicographic_order():
    counts = sample_counts(final_state(4, 6), np.random.default_rng(4), 5_000)
    assert len(counts) > 1
    assert list(counts) == sorted(counts)


def test_measured_all_distinct_fraction():
    # enhance regime at n=3: expect 3*3!/27 = 2/3 all-distinct outcomes
    counts = sample_counts(final_state(3, 3), np.random.default_rng(123), 100_000)
    assert sum(counts.values()) == 100_000
    distinct = sum(c for t, c in counts.items() if len(set(t)) == 3)
    sigma = math.sqrt((2 / 3) * (1 / 3) / 100_000)
    assert abs(distinct / 100_000 - 2 / 3) < 3 * sigma


def test_sample_counts_zero_shots():
    assert sample_counts(final_state(2, 1), np.random.default_rng(0), 0) == {}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
def test_oracle_equivalence(n, regime):
    """End-to-end simulator vs closed form, every tuple, both regimes."""
    cfg = GameConfig(n, phase_for_regime(regime, n))
    state = apply_local_strategy(prepare_entangled(cfg), strategy_matrix(n))
    probs = np.abs(state.amplitudes) ** 2
    for i, t in enumerate(itertools.product(range(n), repeat=n)):
        expected = abs(outcome_amplitude_closed_form(cfg, t)) ** 2
        assert abs(probs[i] - expected) < 1e-10


def test_dump_nonzero_lines(tmp_path):
    state = prepare_entangled(GameConfig(3, 1))
    path = tmp_path / "state.txt"
    with open(path, "w") as fh:
        written = dump_nonzero(state, fh)
    lines = path.read_text().splitlines()
    assert written == len(lines) == 3
    index, re, im = lines[0].split()
    assert int(index) == 0
    assert complex(float(re), float(im)) == pytest.approx(state.amplitudes[0])
