"""Slotted-MAC simulation: baselines, support guarantees, determinism, mesh."""

import dataclasses
import io
import math

import numpy as np
import pytest

from qmg.game import GameConfig, in_support
from qmg.mac import (
    CLASSICAL_UNIFORM,
    QUANTUM_AVOID_WORST,
    QUANTUM_ENHANCE_OPTIMUM,
    AllocatorPolicy,
    CellConfig,
    ConfigFormatError,
    EmptyRunError,
    InvalidTopologyError,
    MacMetrics,
    SLOT_CSV_HEADER,
    compare_policies,
    load_run_spec,
    run_cell,
    run_mesh_rounds,
)

CLASSICAL = AllocatorPolicy(CLASSICAL_UNIFORM)
ENHANCE = AllocatorPolicy(QUANTUM_ENHANCE_OPTIMUM)
AVOID = AllocatorPolicy(QUANTUM_AVOID_WORST)


def cell(n=4, activity=0.0, slots=10_000, seed=17, **kw):
    return CellConfig(n_users=n, n_channels=n, primary_activity=activity,
                      slots=slots, seed=seed, **kw)


# --- configuration ----------------------------------------------------------

def test_config_must_be_square():
    with pytest.raises(ConfigFormatError):
        CellConfig(n_users=4, n_channels=3, primary_activity=0.0, slots=1, seed=0)


def test_config_bounds():
    with pytest.raises(ConfigFormatError):
        cell(n=1)
    with pytest.raises(ConfigFormatError):
        cell(activity=1.5)
    with pytest.raises(ConfigFormatError):
        cell(topology="bus")
    with pytest.raises(ConfigFormatError):
        cell(seed=-1)
    with pytest.raises(InvalidTopologyError):
        cell(topology="mesh-rounds", mesh_rounds=0)
    with pytest.raises(ConfigFormatError):
        cell(activity=True)
    with pytest.raises(ConfigFormatError):
        cell(tx_cost="1.0")
    assert cell(activity=1, tx_cost=2).tx_cost == 2  # ints are numbers too


def test_policy_kind_checked():
    with pytest.raises(ValueError):
        AllocatorPolicy("quantum-perfect")


def test_policy_phases():
    assert ENHANCE.game_phase(4) == 6
    assert AVOID.game_phase(4) == 1
    assert CLASSICAL.game_phase(4) is None


# --- star cell ---------------------------------------------------------------

def test_zero_slots_rejected():
    with pytest.raises(EmptyRunError):
        run_cell(cell(slots=0), CLASSICAL)


def test_two_user_quantum_always_distinct():
    metrics, log = run_cell(cell(n=2, slots=2_000), AVOID)
    assert metrics.all_distinct_rate == 1.0
    assert metrics.collision_rate == 0.0
    assert metrics.throughput == 2.0
    assert np.all(log.successes == 2)


def test_avoid_worst_never_all_same():
    metrics, _ = run_cell(cell(slots=100_000), AVOID)
    assert metrics.all_same_rate == 0.0


@pytest.mark.parametrize("n", (2, 3, 4))
def test_classical_baseline_moments(n):
    """Empirical all-distinct / all-same rates against n!/n^n and n^(1-n)."""
    slots = 1_000_000
    metrics, _ = run_cell(cell(n=n, slots=slots, seed=99), CLASSICAL)
    p_distinct = math.factorial(n) / n**n
    p_same = n ** (1 - n)
    for got, expected in ((metrics.all_distinct_rate, p_distinct),
                          (metrics.all_same_rate, p_same)):
        sigma = math.sqrt(expected * (1 - expected) / slots)
        assert abs(got - expected) < 3 * sigma


def test_enhancement_ratio_near_n():
    config = cell(slots=300_000)
    comparison = compare_policies(config, [CLASSICAL, ENHANCE, AVOID])
    ratio = comparison.all_distinct_ratios()[QUANTUM_ENHANCE_OPTIMUM]
    assert ratio == pytest.approx(4.0, abs=0.25)
    assert comparison.all_distinct_ratios()[QUANTUM_AVOID_WORST] == 0.0


def test_metrics_deterministic():
    config = cell(activity=0.3, slots=20_000)
    first, log_a = run_cell(config, ENHANCE)
    second, log_b = run_cell(config, ENHANCE)
    assert first == second
    assert np.array_equal(log_a.assignment, log_b.assignment)
    assert np.array_equal(log_a.free_mask, log_b.free_mask)


def test_same_policy_twice_identical():
    comparison = compare_policies(cell(activity=0.2, slots=5_000), [AVOID, AVOID])
    assert comparison.runs[0].metrics == comparison.runs[1].metrics


def test_compare_needs_two_policies():
    with pytest.raises(ValueError):
        compare_policies(cell(), [CLASSICAL])


@pytest.mark.parametrize("policy", (ENHANCE, AVOID))
def test_quantum_assignments_on_support_at_activity_zero(policy):
    config = cell(slots=3_000, seed=12)
    metrics, log = run_cell(config, policy)
    game = GameConfig(config.n_users, policy.game_phase(config.n_users))
    for assignment in log.assignment.tolist():
        assert in_support(game, assignment)
    assert metrics.energy_proxy >= 1.0


def test_quantum_assignments_stay_on_support_with_holes():
    """Even in sub-block games the realized digits satisfy the support law."""
    config = cell(activity=0.5, slots=4_000, seed=3)
    _, log = run_cell(config, AVOID)
    free_counts = log.free_mask.sum(axis=1)
    transmitting = log.assignment >= 0
    assert np.array_equal(transmitting.sum(axis=1), free_counts)
    assert np.array_equal(log.successes + log.colliders, free_counts)
    # a game digit is the channel's rank among the slot's free channels
    rank = np.cumsum(log.free_mask, axis=1) - 1
    digits = np.take_along_axis(rank, np.maximum(log.assignment, 0).astype(np.intp), axis=1)
    for f, row, sent in zip(free_counts.tolist(), digits, transmitting):
        if f >= 2:
            assert in_support(GameConfig(f, AVOID.game_phase(f)), row[sent])


def test_slot_records_consistent():
    config = cell(activity=0.4, slots=500, seed=8)
    _, log = run_cell(config, CLASSICAL)
    assert log.assignment.min() >= -1  # deferring users hold -1
    transmitting = (log.assignment >= 0).sum(axis=1)
    assert np.array_equal(log.successes + log.colliders, transmitting)
    assert np.all(transmitting <= config.n_users)
    slots, users = np.nonzero(log.assignment >= 0)
    assert log.free_mask[slots, log.assignment[slots, users]].all()


def test_throughput_monotone_in_activity():
    """Common random numbers: more primary occupancy never helps throughput."""
    previous = math.inf
    for activity in (0.0, 0.25, 0.5, 0.75, 1.0):
        metrics, _ = run_cell(cell(activity=activity, slots=200_000, seed=21), CLASSICAL)
        assert metrics.throughput <= previous + 0.01
        previous = metrics.throughput


def test_fully_occupied_spectrum():
    metrics, log = run_cell(cell(activity=1.0, slots=100), CLASSICAL)
    assert metrics.throughput == 0.0
    assert metrics.collision_rate == 0.0
    assert math.isinf(metrics.energy_proxy)
    assert metrics.to_dict()["energy_proxy"] is None
    assert np.all(log.assignment == -1)


def test_slot_csv_shape():
    _, log = run_cell(cell(slots=3), AVOID)
    buffer = io.StringIO()
    log.write_csv(buffer, QUANTUM_AVOID_WORST)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == SLOT_CSV_HEADER
    slot, free, policy, succ, coll, same = lines[1].split(",")
    assert (slot, free, policy, same) == ("0", "4", QUANTUM_AVOID_WORST, "0")
    assert int(succ) + int(coll) == 4


# --- mesh rounds --------------------------------------------------------------

def test_mesh_requires_mesh_topology():
    with pytest.raises(InvalidTopologyError):
        run_mesh_rounds(cell(), AVOID)


def test_mesh_degree_bounds():
    with pytest.raises(InvalidTopologyError):
        run_mesh_rounds(cell(topology="mesh-rounds", mesh_degree=4), AVOID)
    with pytest.raises(InvalidTopologyError):
        run_mesh_rounds(cell(topology="mesh-rounds", mesh_degree=0), AVOID)


def test_full_mesh_avoids_downtime():
    config = cell(activity=0.3, slots=30_000, topology="mesh-rounds")
    metrics = run_mesh_rounds(config, AVOID)
    assert metrics.all_same_rate == 0.0
    assert run_mesh_rounds(config, CLASSICAL).all_same_rate > 0.0


def test_single_round_full_mesh_reduces_to_star():
    """One round with a full neighborhood is the star cell; with the
    arbitration surcharge zeroed the metrics coincide exactly at activity 0."""
    star = cell(slots=50_000, arbitration_cost=0.0, seed=17)
    mesh = dataclasses.replace(star, topology="mesh-rounds", mesh_rounds=1)
    star_metrics, _ = run_cell(star, ENHANCE)
    mesh_metrics = run_mesh_rounds(mesh, ENHANCE)
    assert mesh_metrics == star_metrics


def test_single_round_full_mesh_near_star_with_holes():
    """With primary occupancy the single full round still coincides
    exactly with the star cell."""
    star = cell(activity=0.4, slots=50_000, arbitration_cost=0.0, seed=5)
    mesh = dataclasses.replace(star, topology="mesh-rounds", mesh_rounds=1)
    star_metrics, _ = run_cell(star, CLASSICAL)
    mesh_metrics = run_mesh_rounds(mesh, CLASSICAL)
    assert mesh_metrics == star_metrics


def test_mesh_quantum_energy_beats_classical():
    config = cell(slots=100_000, topology="mesh-rounds")
    quantum = run_mesh_rounds(config, AVOID)
    classical = run_mesh_rounds(config, CLASSICAL)
    assert quantum.energy_proxy < classical.energy_proxy


def test_mesh_deterministic():
    config = cell(activity=0.2, slots=5_000, topology="mesh-rounds", mesh_degree=2)
    assert run_mesh_rounds(config, AVOID) == run_mesh_rounds(config, AVOID)


# --- run-spec loading ----------------------------------------------------------

def good_spec():
    return {
        "n_users": 4,
        "n_channels": 4,
        "primary_activity": 0.1,
        "slots": 100,
        "seed": 7,
        "policies": [CLASSICAL_UNIFORM, QUANTUM_AVOID_WORST],
    }


def test_load_run_spec_round_trip():
    config, policies = load_run_spec(good_spec())
    assert config.n_users == 4 and config.seed == 7
    assert [p.kind for p in policies] == [CLASSICAL_UNIFORM, QUANTUM_AVOID_WORST]


def test_load_run_spec_unknown_field():
    spec = good_spec() | {"speed": 3}
    with pytest.raises(ConfigFormatError, match="speed"):
        load_run_spec(spec)


def test_load_run_spec_missing_field():
    spec = good_spec()
    del spec["slots"]
    with pytest.raises(ConfigFormatError, match="slots"):
        load_run_spec(spec)


def test_load_run_spec_bad_policies():
    with pytest.raises(ConfigFormatError):
        load_run_spec(good_spec() | {"policies": []})
    with pytest.raises(ConfigFormatError):
        load_run_spec(good_spec() | {"policies": [QUANTUM_AVOID_WORST]})
    with pytest.raises(ConfigFormatError):
        load_run_spec(good_spec() | {"policies": ["quantum-telepathy"]})
    with pytest.raises(ConfigFormatError):
        load_run_spec([1, 2])


def test_metrics_dict_round_trip():
    metrics = MacMetrics(1.5, 0.2, 0.3, 0.0, 2.5)
    assert metrics.to_dict() == {
        "throughput": 1.5,
        "collision_rate": 0.2,
        "all_distinct_rate": 0.3,
        "all_same_rate": 0.0,
        "energy_proxy": 2.5,
    }
