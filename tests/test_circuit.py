"""Qubit circuit construction, execution, audit, and export."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode_counts, dense, dense_run_circuit
from qmg import circuit, qudit
from qmg.game import GameConfig, InvalidConfigError, entangled_branches
from qmg.circuit import (
    Gate,
    CircuitValidationError,
    VARIANT_CORRECTED,
    VARIANT_FIGURE,
    VARIANTS,
    audit_preparation_circuit,
    branch_controls,
    build_preparation_circuit,
    export_circuit,
    parse_circuit,
    qubits_per_user,
    register_to_qudit,
    run_circuit,
)
from qmg.qudit import ResourceLimitError, apply_local_strategy, prepare_entangled, sample_counts

SQRT1_2 = 1 / math.sqrt(2)


def flat_index(t):
    """Base-n flat index of an assignment, user 0 most significant."""
    n = len(t)
    return int(np.ravel_multi_index(t, (n,) * n))


def bits(t):
    """Circuit bit string of an assignment: its flat index in n*log2(n) bits."""
    n = len(t)
    return format(flat_index(t), f"0{n * qubits_per_user(n)}b")


def amplitudes_by_bits(register):
    return {format(i, f"0{register.width}b"): a
            for i, a in enumerate(dense(register)) if abs(a) > 1e-12}


# --- elementary execution ---------------------------------------------------

def test_single_hadamard():
    reg = run_circuit([Gate("h", targets=(0,))], 1)
    assert np.allclose(dense(reg), [SQRT1_2, SQRT1_2])


def test_single_r_rotation():
    # column 0 of R is (1, -1)/sqrt(2)
    reg = run_circuit([Gate("r", targets=(0,))], 1)
    assert np.allclose(dense(reg), [SQRT1_2, -SQRT1_2])


def test_x_and_phase():
    reg = run_circuit([Gate("x", targets=(0,)), Gate("phase", controls=((0, 1),), angle=math.pi / 2)], 1)
    assert np.allclose(dense(reg), [0, 1j])


def test_controlled_x_polarities():
    # open control on qubit 0: fires only when qubit 0 is |0>
    reg = run_circuit([Gate("x", targets=(1,), controls=((0, 0),))], 2)
    assert amplitudes_by_bits(reg) == {"01": pytest.approx(1)}
    # filled control on |00> input: no effect
    reg = run_circuit([Gate("x", targets=(1,), controls=((0, 1),))], 2)
    assert amplitudes_by_bits(reg) == {"00": pytest.approx(1)}


def test_gate_validation():
    with pytest.raises(CircuitValidationError):
        run_circuit([Gate("x", targets=(3,))], 2)
    with pytest.raises(CircuitValidationError):
        run_circuit([Gate("x", targets=(0,), controls=((0, 1),))], 2)
    with pytest.raises(CircuitValidationError):
        run_circuit([Gate("x", targets=(0,), controls=((1, 2),))], 2)
    with pytest.raises(CircuitValidationError):
        run_circuit([Gate("cnot", targets=(0,))], 2)
    with pytest.raises(CircuitValidationError):
        run_circuit([Gate("phase", targets=(0,), angle=1.0)], 2)


def test_width_above_64_is_a_resource_limit():
    """Basis indices are uint64: 64 qubits fit, 65 do not."""
    reg = run_circuit([Gate("x", targets=(0,)), Gate("h", targets=(63,))], 64)
    assert reg.indices.tolist() == [2**63, 2**63 + 1]
    with pytest.raises(ResourceLimitError):
        run_circuit([], 65)


def test_footprint_guard_counts_rotations(monkeypatch):
    """The planned support is 24 B per entry and 2**(h/r gates) entries, at
    most 2**width: three rotations plan 192 B, x gates add nothing, and six
    rotations on three qubits still plan 192 B."""
    gates = [Gate(kind, targets=(q,)) for kind, q in (("h", 0), ("r", 1), ("h", 2), ("x", 0))]
    monkeypatch.setattr(qudit, "PHYSICAL_MEMORY", 191)
    with pytest.raises(ResourceLimitError, match="192 bytes"):
        run_circuit(gates, 3)
    monkeypatch.setattr(qudit, "PHYSICAL_MEMORY", 192)
    assert run_circuit(gates, 3).indices.size == 8
    assert run_circuit(gates + gates, 3).indices.size == 8


@st.composite
def random_gate_lists(draw, width=4, max_gates=12):
    """Gates of every kind with controls on any qubits; a phase gate may
    control every qubit, and an X gate often reuses the previous gate's
    controls so that runs of X gates share one control pattern."""
    gates = []
    for _ in range(draw(st.integers(1, max_gates))):
        kind = draw(st.sampled_from(("h", "r", "x", "phase")))
        qubits = draw(st.permutations(range(width)))
        if kind == "phase":
            n_controls = draw(st.integers(0, width))
            controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[:n_controls])
            gates.append(Gate(kind, controls=controls, angle=draw(st.floats(-10, 10))))
            continue
        n_controls = draw(st.integers(0, width - 1))
        controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[:n_controls])
        target = qubits[-1]
        if kind == "x" and gates and draw(st.booleans()):
            controls = gates[-1].controls
            free = [q for q in range(width) if q not in {c for c, _ in controls}]
            if not free:
                continue
            target = draw(st.sampled_from(free))
        gates.append(Gate(kind, targets=(target,), controls=controls))
    return gates


@given(gates=random_gate_lists())
@settings(max_examples=60, deadline=None)
def test_random_circuits_preserve_norm(gates):
    reg = run_circuit(gates, 4)
    assert abs(np.linalg.norm(reg.amplitudes) - 1.0) < 1e-12


R_MATRIX = np.array([[SQRT1_2, SQRT1_2], [-SQRT1_2, SQRT1_2]], dtype=np.complex128)
H_MATRIX = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=np.complex128)
X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
MATRICES = {"r": R_MATRIX, "h": H_MATRIX, "x": X_MATRIX}


def dense_operator(gate, width):
    """The gate as an explicit 2**width x 2**width matrix (qubit 0 is the
    most significant bit of the basis index)."""
    dim = 2**width
    op = np.eye(dim, dtype=np.complex128)
    for col in range(dim):
        bits = [(col >> (width - 1 - q)) & 1 for q in range(width)]
        if any(bits[q] != bit for q, bit in gate.controls):
            continue
        if gate.kind == "phase":
            op[col, col] = np.exp(1j * gate.angle)
            continue
        (target,) = gate.targets
        shift = width - 1 - target
        op[col, col] = 0.0
        for out_bit in (0, 1):
            row = (col & ~(1 << shift)) | (out_bit << shift)
            op[row, col] = MATRICES[gate.kind][out_bit, bits[target]]
    return op


@given(data=st.data(), width=st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_random_circuits_match_dense_operators(data, width):
    gates = data.draw(random_gate_lists(width=width))
    expected = np.zeros(2**width, dtype=np.complex128)
    expected[0] = 1.0
    for gate in gates:
        expected = dense_operator(gate, width) @ expected
    reg = run_circuit(gates, width)
    assert np.all(reg.indices[1:] > reg.indices[:-1])
    assert np.max(np.abs(dense(reg) - expected)) < 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n, phase", [(n, p) for n in (2, 4) for p in range(2 * n)] + [(8, 1)])
def test_sparse_engine_matches_dense_oracle(n, phase, variant):
    """On the preparation circuits the sparse engine is the dense one bit for
    bit: every support amplitude, signed zeros included, and only zeros off
    the support, where the oracle's phase gates leave some as -0."""
    width = n * qubits_per_user(n)
    gates = build_preparation_circuit(GameConfig(n, phase), variant)
    reg = run_circuit(gates, width)
    assert reg.indices.dtype == np.uint64 and np.all(reg.indices[1:] > reg.indices[:-1])
    reference = dense_run_circuit(gates, width)
    off = np.ones(reference.size, dtype=bool)
    off[reg.indices.astype(np.intp)] = False
    assert np.count_nonzero(reference) == np.count_nonzero(reference[~off])
    reference[off] = 0
    assert np.array_equal(dense(reg).view(np.uint64), reference.view(np.uint64))


# --- bit packing ------------------------------------------------------------

def test_tuple_to_bits_examples():
    assert bits((1, 1, 1, 1)) == "01010101"
    assert bits((2, 2, 2, 2)) == "10101010"
    assert bits((1, 0)) == "10"
    # the constant branches the audit reads are these bit patterns
    expected = ["00000000", "01010101", "10101010", "11111111"]
    assert entangled_branches(GameConfig(4, 0))[0].tolist() == [int(b, 2) for b in expected]


@given(n=st.sampled_from((2, 4)), data=st.data())
def test_bit_packing_round_trip(n, data):
    """Writing each user's channel into its own qubit group, most significant
    bit first, lands on the assignment's flat base-n index, which measuring
    register_to_qudit's state decodes back to the assignment (n = 8 would run
    a 24-qubit register per example)."""
    t = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    log = qubits_per_user(n)
    gates = [Gate("x", targets=(user * log + j,))
             for user, c in enumerate(t) for j in range(log) if (c >> (log - 1 - j)) & 1]
    state = register_to_qudit(run_circuit(gates, n * log), n)
    assert state.indices.tolist() == [flat_index(t)]
    measured = sample_counts(apply_local_strategy(state, np.eye(n)), np.random.default_rng(0), 3)
    assert decode_counts(n, measured) == {t: 3}


def test_bit_packing_rejects_bad_sizes():
    with pytest.raises(InvalidConfigError):
        qubits_per_user(3)
    assert qubits_per_user(8) == 3


# --- preparation circuits ----------------------------------------------------

def test_figure_circuit_reproduces_four_ket_state():
    # with phase = 0 mod 4 the branch phases are trivial and the R signs
    # (+,-,-,+) are exactly what the four-ket target displays
    for phase in (0, 4):
        reg = run_circuit(build_preparation_circuit(GameConfig(4, phase), VARIANT_FIGURE), 8)
        expected = {"00000000": 0.5, "01010101": -0.5, "10101010": -0.5, "11111111": 0.5}
        got = amplitudes_by_bits(reg)
        assert set(got) == set(expected)
        for bits, amp in expected.items():
            assert got[bits] == pytest.approx(amp, abs=1e-12)


def test_figure_circuit_branch_amplitudes_general_phase():
    # branch k carries (-1)**popcount(k) * w^(k*phase) / 2
    reg = run_circuit(build_preparation_circuit(GameConfig(4, 1), VARIANT_FIGURE), 8)
    got = amplitudes_by_bits(reg)
    for k in range(4):
        sign = (-1) ** bin(k).count("1")
        expected = sign * np.exp(2j * np.pi * k / 4) / 2
        assert got[bits((k,) * 4)] == pytest.approx(expected, abs=1e-12)


def test_two_user_preparations():
    # corrected at phase 1 gives (|00> - |11>)/sqrt(2); the figure circuit
    # realizes the same state at phase 0, its R signs supplying the phase
    corrected = run_circuit(build_preparation_circuit(GameConfig(2, 1), VARIANT_CORRECTED), 2)
    figure = run_circuit(build_preparation_circuit(GameConfig(2, 0), VARIANT_FIGURE), 2)
    expected = np.array([SQRT1_2, 0, 0, -SQRT1_2])
    assert np.allclose(dense(corrected), expected, atol=1e-12)
    assert np.allclose(dense(figure), expected, atol=1e-12)


@pytest.mark.parametrize("n", (2, 4))
@pytest.mark.parametrize("regime_phase", ("one", "half-turns"))
def test_corrected_circuit_equals_qudit_preparation(n, regime_phase):
    phase = 1 if regime_phase == "one" else n * (n - 1) // 2
    cfg = GameConfig(n, phase)
    reg = run_circuit(build_preparation_circuit(cfg, VARIANT_CORRECTED), n * qubits_per_user(n))
    state = register_to_qudit(reg, n)
    target = prepare_entangled(cfg)
    assert state.n == n
    assert np.array_equal(state.indices, target.indices)
    assert np.max(np.abs(state.amplitudes - target.amplitudes)) < 1e-10


def test_controlled_block_ignores_other_branches():
    """A branch-k block must leave every basis state with control bits != k alone."""
    n, width = 4, 8
    block = [g for g in build_preparation_circuit(GameConfig(n, 1), VARIANT_CORRECTED)
             if g.controls == branch_controls(n, 2)]
    assert len(block) == 4  # phase + one X per non-control group
    for start_k in (0, 1, 3):
        # reach the basis state |start_k 0 0 0> with X gates, then run the block
        setup = [Gate("x", targets=(j,)) for j, bit in branch_controls(n, start_k) if bit]
        start = flat_index((start_k,) + (0,) * (n - 1))
        amplitudes = dense(run_circuit(setup + block, width))
        assert amplitudes[start] == pytest.approx(1.0)
        assert np.sum(np.abs(amplitudes) > 1e-12) == 1


def test_build_rejects_non_power_of_two():
    with pytest.raises(InvalidConfigError):
        build_preparation_circuit(GameConfig(3, 1))
    with pytest.raises(ValueError):
        build_preparation_circuit(GameConfig(4, 1), "fancy")


# --- audit -------------------------------------------------------------------

def test_audit_two_user_matches_for_any_phase():
    for phase in (0, 1, 5):
        audit = audit_preparation_circuit(GameConfig(2, phase), VARIANT_FIGURE)
        assert audit.matches
        assert audit.max_amplitude_deviation < 1e-10
        assert audit.phase_shift == 1  # the stray R sign is w_2^k


def test_audit_four_user_figure_fails():
    audit = audit_preparation_circuit(GameConfig(4, 1), VARIANT_FIGURE)
    assert not audit.matches
    assert audit.max_amplitude_deviation > 0.1
    ratios = np.array(audit.per_branch_phase_ratio)
    assert np.allclose(ratios, [1, -1, -1, 1], atol=1e-10)


def test_audit_corrected_matches_by_construction():
    for n in (2, 4):
        for phase in (1, n * (n - 1) // 2):
            audit = audit_preparation_circuit(GameConfig(n, phase), VARIANT_CORRECTED)
            assert audit.matches
            assert audit.phase_shift == 0


@pytest.mark.parametrize("n", (2, 4))
def test_audit_counts_leakage_off_the_branches(monkeypatch, n):
    """A Hadamard on the last qubit after the corrected circuit moves
    amplitude off the constant tuples.  The leaked amplitude exceeds the
    branches' own mismatch, so only the leakage term can account for the
    reported deviation."""
    build = circuit.build_preparation_circuit
    width = n * qubits_per_user(n)
    extra = Gate("h", targets=(width - 1,))
    cfg = GameConfig(n, 1)
    amplitudes = dense(run_circuit(build(cfg, VARIANT_CORRECTED) + [extra], width))
    branches = [flat_index((k,) * n) for k in range(n)]
    leaked = np.abs(np.delete(amplitudes, branches)).max()
    assert leaked > 0.3
    monkeypatch.setattr(circuit, "build_preparation_circuit",
                        lambda config, variant: build(config, variant) + [extra])
    audit = audit_preparation_circuit(cfg, VARIANT_CORRECTED)
    assert not audit.matches
    assert audit.max_amplitude_deviation >= leaked - 1e-12


def test_audit_report_dict_is_json_ready():
    import json
    report = audit_preparation_circuit(GameConfig(4, 1)).to_dict()
    text = json.dumps(report)
    assert "matches" in text


# --- export ------------------------------------------------------------------

def test_export_parse_round_trip():
    gates = build_preparation_circuit(GameConfig(4, 1), VARIANT_CORRECTED)
    text = export_circuit(gates)
    assert parse_circuit(text) == gates
    assert parse_circuit("# comment\n\n" + text) == gates


def test_export_line_shape():
    text = export_circuit(build_preparation_circuit(GameConfig(2, 1), VARIANT_CORRECTED))
    lines = text.splitlines()
    assert lines[0] == "h - 0 0.0"
    assert lines[1].startswith("phase 0b -")
    assert lines[2] == "x 0b 1 0.0"


def test_parse_rejects_garbage():
    """Any malformed line raises CircuitValidationError naming that line."""
    for line in (
        "h - 0",  # three fields
        "x 0q 1 0.0",  # a control bit other than b or w
        "h 1b,,2b 0 0.0",  # an empty control token
        "h xb 0 0.0",  # a control qubit that is not an integer
        "h - a 0.0",  # a target that is not an integer
        "h - 0 zz",  # an angle that is not a number
    ):
        with pytest.raises(CircuitValidationError, match=f"^bad gate line {re.escape(repr(line))}$"):
            parse_circuit(f"h - 0 0.0\n{line}\n")
