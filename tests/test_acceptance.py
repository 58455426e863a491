"""Acceptance suite: the eight exit criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Tolerances and runtime budgets are pinned here, not
configurable.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from qmg import cli
from qmg.circuit import (
    VARIANT_CORRECTED,
    VARIANT_FIGURE,
    audit_preparation_circuit,
    build_preparation_circuit,
    qubits_per_user,
    register_to_qudit,
    run_circuit,
    tuple_to_bits,
)
from qmg.game import (
    GameConfig,
    analytic_probabilities,
    classical_probabilities,
    outcome_amplitude,
    outcome_amplitude_closed_form,
    phase_for_regime,
    sample_outcomes,
    strategy_matrix,
)
from qmg.mac import (
    CLASSICAL_UNIFORM,
    QUANTUM_AVOID_WORST,
    QUANTUM_ENHANCE_OPTIMUM,
    AllocatorPolicy,
    CellConfig,
    compare_policies,
    run_cell,
)
from qmg.qudit import apply_local_strategy, prepare_entangled


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"[criterion {number}] {name}: FAIL (runtime {elapsed:.1f}s over {budget_seconds}s budget)")
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s runtime budget")
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def end_to_end(n, phase):
    cfg = GameConfig(n, phase)
    return apply_local_strategy(prepare_entangled(cfg), strategy_matrix(n))


def test_criterion_1_two_user_certainty(tmp_path, read_histogram):
    with criterion(1, "two-user certainty", budget_seconds=1.0):
        probs = (np.abs(end_to_end(2, 1).amplitudes) ** 2).reshape(2, 2)
        assert abs(probs[0, 1] - 0.5) < 1e-10
        assert abs(probs[1, 0] - 0.5) < 1e-10
        assert probs[0, 0] < 1e-10
        assert probs[1, 1] < 1e-10

        out = tmp_path / "two_user.csv"
        assert cli.main(["simulate", "--n", "2", "--p", "1", "--shots", "10000",
                         "--seed", "1", "--out", str(out)]) == 0
        counts = read_histogram(out)
        assert set(counts) == {(0, 1), (1, 0)}
        assert sum(counts.values()) == 10000


def test_criterion_2_classical_reference():
    with criterion(2, "classical reference at n=8"):
        got = classical_probabilities(8).p_all_distinct
        assert Fraction(got) == Fraction(40320, 16777216)
        assert got == pytest.approx(2.403e-3, abs=1e-6)


def test_criterion_3_n_fold_enhancement():
    with criterion(3, "n-fold enhancement of the all-distinct probability", budget_seconds=30.0):
        for n in (2, 3, 4, 5):
            phase = phase_for_regime("enhance-optimum", n)
            analytic = analytic_probabilities(GameConfig(n, phase))
            assert analytic.p_all_distinct == n * math.factorial(n) / n**n
            assert analytic.p_all_distinct == pytest.approx(
                n * classical_probabilities(n).p_all_distinct, rel=1e-15)

            probs = (np.abs(end_to_end(n, phase).amplitudes) ** 2).reshape((n,) * n)
            permutation_mass = sum(probs[t]
                                   for t in itertools.permutations(range(n)))
            assert abs(permutation_mass - analytic.p_all_distinct) < 1e-10

        draws = sample_outcomes(GameConfig(4, 6), np.random.default_rng(2718), 1_000_000)
        ordered = np.sort(draws, axis=1)
        distinct_rate = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1).mean()
        sigma = math.sqrt(0.375 * 0.625 / 1_000_000)
        assert abs(distinct_rate - 0.375) < 3 * sigma


def test_criterion_4_worst_case_annihilation():
    with criterion(4, "worst-case annihilation under phase 1", budget_seconds=60.0):
        for n in range(2, 7):
            cfg = GameConfig(n, 1)
            probs = (np.abs(end_to_end(n, 1).amplitudes) ** 2).reshape((n,) * n)
            for c in range(n):
                constant = (c,) * n
                assert abs(outcome_amplitude(cfg, constant)) ** 2 < 1e-24
                assert abs(outcome_amplitude_closed_form(cfg, constant)) ** 2 < 1e-24
                assert probs[constant] < 1e-24

        config = CellConfig(n_users=4, n_channels=4, primary_activity=0.0,
                            slots=1_000_000, seed=31)
        metrics, log = run_cell(config, AllocatorPolicy(QUANTUM_AVOID_WORST))
        assert metrics.all_same_rate == 0.0
        assert not log.all_same.any()


def test_criterion_5_support_law():
    with criterion(5, "support law: size, uniformity, normalization, fairness"):
        for n in range(2, 6):
            for phase in range(n):
                cfg = GameConfig(n, phase)
                tuples = list(itertools.product(range(n), repeat=n))
                probs = np.array([abs(outcome_amplitude(cfg, t)) ** 2 for t in tuples])
                on_support = probs > 1e-13
                assert on_support.sum() == n ** (n - 1)
                assert np.all(np.abs(probs[on_support] - n ** (1 - n)) < 1e-12)
                assert abs(probs.sum() - 1.0) < 1e-10
                rows = np.array(tuples)
                for user in range(n):
                    for channel in range(n):
                        marginal = probs[rows[:, user] == channel].sum()
                        assert abs(marginal - 1 / n) < 1e-10


def test_criterion_6_circuit_reproduction_and_audit():
    with criterion(6, "circuit reproduction and preparation audit", budget_seconds=10.0):
        # with phase = 0 mod 4 every branch phase is unity and the drawn
        # circuit's R signs give the four-ket pattern (+,-,-,+)
        reg = run_circuit(build_preparation_circuit(GameConfig(4, 0), VARIANT_FIGURE), 8)
        expected = {"00000000": 0.5, "01010101": -0.5, "10101010": -0.5, "11111111": 0.5}
        nonzero = {i for i in np.nonzero(np.abs(reg.amplitudes) > 1e-12)[0]}
        assert nonzero == {int(bits, 2) for bits in expected}
        for bits, amplitude in expected.items():
            assert abs(reg.amplitudes[int(bits, 2)] - amplitude) < 1e-10

        for n in (2, 4, 8):
            for phase in (1, n * (n - 1) // 2):
                cfg = GameConfig(n, phase)
                width = n * qubits_per_user(n)
                state = register_to_qudit(
                    run_circuit(build_preparation_circuit(cfg, VARIANT_CORRECTED), width))
                target = prepare_entangled(cfg)
                assert np.max(np.abs(state.amplitudes - target.amplitudes)) < 1e-10

        assert audit_preparation_circuit(GameConfig(2, 1), VARIANT_FIGURE).matches
        assert not audit_preparation_circuit(GameConfig(4, 1), VARIANT_FIGURE).matches


def test_criterion_7_oracle_equivalence():
    with criterion(7, "closed form equals dense simulation on every outcome"):
        for n in (2, 3, 4, 5):
            for regime in ("enhance-optimum", "avoid-worst"):
                cfg = GameConfig(n, phase_for_regime(regime, n))
                probs = np.abs(end_to_end(cfg.n, cfg.phase).amplitudes) ** 2
                for i, t in enumerate(itertools.product(range(n), repeat=n)):
                    expected = abs(outcome_amplitude_closed_form(cfg, t)) ** 2
                    assert abs(probs[i] - expected) < 1e-10


def test_criterion_8_mac_comparison(tmp_path):
    with criterion(8, "MAC policy comparison at n=4", budget_seconds=120.0):
        config = CellConfig(n_users=4, n_channels=4, primary_activity=0.0,
                            slots=1_000_000, seed=404)
        policies = [AllocatorPolicy(CLASSICAL_UNIFORM),
                    AllocatorPolicy(QUANTUM_ENHANCE_OPTIMUM),
                    AllocatorPolicy(QUANTUM_AVOID_WORST)]
        comparison = compare_policies(config, policies)
        by_kind = {run.policy.kind: run.metrics for run in comparison.runs}

        ratio = comparison.all_distinct_ratios()[QUANTUM_ENHANCE_OPTIMUM]
        assert abs(ratio - 4.0) < 0.1
        assert by_kind[QUANTUM_AVOID_WORST].all_same_rate == 0.0
        expected_same = 4 ** (1 - 4)
        sigma = math.sqrt(expected_same * (1 - expected_same) / config.slots)
        assert abs(by_kind[CLASSICAL_UNIFORM].all_same_rate - expected_same) < 3 * sigma

        spec = {
            "n_users": 4, "n_channels": 4, "primary_activity": 0.0,
            "slots": 1_000_000, "seed": 404,
            "policies": [CLASSICAL_UNIFORM, QUANTUM_ENHANCE_OPTIMUM, QUANTUM_AVOID_WORST],
        }
        spec_path = tmp_path / "cell.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["mac", str(spec_path), "--out", str(tmp_path / "first")]) == 0
        assert cli.main(["mac", str(spec_path), "--out", str(tmp_path / "second")]) == 0
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
