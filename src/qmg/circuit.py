"""Qubit-level construction and simulation of the preparation circuits.

For n a power of two each user's channel index packs into log2(n) qubits,
so the full register is n*log2(n) qubits wide.  Qubit 0 is the most
significant bit of the flat state index, each user owns one consecutive
log2(n)-bit group (most significant bit first), and user 0's group doubles
as the branch-control lines.  With that layout the packed bitstring of an
assignment tuple *is* its base-n flat index, so a register converts to a
:class:`~qmg.qudit.QuditState` without reshuffling.

Two preparation variants are built:

* ``figure``    -- the as-drawn construction: R rotations on the control
                   group, then one controlled block per branch k > 0 (branch
                   phase + X writes).  R contributes an extra
                   (-1)**popcount(k) sign to branch k.
* ``corrected`` -- identical blocks, but Hadamards instead of R, so branch
                   amplitudes come out exactly w^(k*phase)/sqrt(n).

The audit quantifies how far the ``figure`` variant is from the target
entangled-state family; at n=2 the stray sign is itself a legal branch
phase (a shift of the phase parameter), from n=4 on it is not.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .game import AssignmentTuple, DimensionError, GameConfig, entangled_coefficient
from .qudit import QuditState, ResourceLimitError

VARIANT_FIGURE = "figure"
VARIANT_CORRECTED = "corrected"
VARIANTS = (VARIANT_FIGURE, VARIANT_CORRECTED)

#: 2**24 amplitudes (n=8 at 24 qubits, ~270 MB) is the dense ceiling
WIDTH_CAP = 24

AUDIT_TOL = 1e-10

_SQRT1_2 = 1.0 / math.sqrt(2.0)
GATE_KINDS = ("r", "h", "x", "phase")


class UnsupportedSizeError(ValueError):
    """Requested game size has no power-of-two qubit encoding."""


class CircuitValidationError(ValueError):
    """Gate list is malformed for the given register width."""


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    ``controls`` holds (qubit, required bit) pairs: bit 1 is a filled
    control dot, bit 0 an open one.  ``phase`` gates have no target; they
    multiply every basis state matching the controls by exp(i*angle).
    """

    kind: str
    targets: tuple[int, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()
    angle: float = 0.0


@dataclass
class QubitRegister:
    """Dense amplitudes over ``width`` qubits (length 2**width)."""

    width: int
    amplitudes: np.ndarray


def qubits_per_user(n: int) -> int:
    """log2(n), rejecting sizes without an exact qubit encoding."""
    if n >= 2:
        log = n.bit_length() - 1
        if (1 << log) == n:
            return log
    raise UnsupportedSizeError(f"game size must be a power of two >= 2, got {n}")


def game_size_for_width(width: int) -> int:
    """Invert width = n*log2(n) (n = 2, 4, 8, ... give widths 2, 8, 24, ...)."""
    for log in range(1, 8):
        if (1 << log) * log == width:
            return 1 << log
    raise UnsupportedSizeError(f"register width {width} is not n*log2(n) for any n")


def tuple_to_bits(outcome: AssignmentTuple) -> str:
    """Pack an assignment into circuit bit order: one log2(n)-bit group per user."""
    n = len(outcome)
    log = qubits_per_user(n)
    if any(c < 0 or c >= n for c in outcome):
        raise DimensionError(f"channel indices must lie in [0, {n}), got {outcome}")
    return "".join(format(int(c), f"0{log}b") for c in outcome)


def branch_controls(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Control pattern selecting branch k: the control group reads k in binary."""
    log = qubits_per_user(n)
    return tuple((j, (k >> (log - 1 - j)) & 1) for j in range(log))


def build_preparation_circuit(config: GameConfig, variant: str = VARIANT_CORRECTED) -> list[Gate]:
    """Gate list preparing the entangled state on n*log2(n) qubits.

    Both variants share the controlled blocks: for each branch k > 0 a
    conditioned global phase w^(k*phase) (a relative phase on that branch)
    followed by X gates copying k's bits into every other user group.
    They differ only in the control-group rotation, R (``figure``) versus
    Hadamard (``corrected``).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = config.n
    log = qubits_per_user(n)
    rotation = "r" if variant == VARIANT_FIGURE else "h"
    gates = [Gate(rotation, targets=(q,)) for q in range(log)]
    pe = config.effective_phase
    for k in range(1, n):
        controls = branch_controls(n, k)
        angle = 2.0 * math.pi * ((k * pe) % n) / n
        gates.append(Gate("phase", controls=controls, angle=angle))
        for user in range(1, n):
            for j in range(log):
                if (k >> (log - 1 - j)) & 1:
                    gates.append(Gate("x", targets=(user * log + j,), controls=controls))
    return gates


def _validate_gate(gate: Gate, width: int) -> None:
    if gate.kind not in GATE_KINDS:
        raise CircuitValidationError(f"unknown gate kind {gate.kind!r}")
    expected_targets = 0 if gate.kind == "phase" else 1
    if len(gate.targets) != expected_targets:
        raise CircuitValidationError(f"{gate.kind} gate takes {expected_targets} target(s), got {gate.targets}")
    for q in gate.targets:
        if not 0 <= q < width:
            raise CircuitValidationError(f"target qubit {q} outside register of width {width}")
    seen = set(gate.targets)
    for q, bit in gate.controls:
        if not 0 <= q < width:
            raise CircuitValidationError(f"control qubit {q} outside register of width {width}")
        if bit not in (0, 1):
            raise CircuitValidationError(f"control polarity must be 0 or 1, got {bit}")
        if q in seen:
            raise CircuitValidationError(f"qubit {q} used twice in one gate")
        seen.add(q)
    if not math.isfinite(gate.angle):
        raise CircuitValidationError(f"non-finite phase angle {gate.angle}")


def run_circuit(gates: list[Gate], width: int) -> QubitRegister:
    """Apply the gates left to right to |0...0> and return the register.

    Each gate acts on the view of the (2,)*width amplitude tensor that its
    controls select.  The trailing ``...`` in every index keeps that view
    writable even when the controls fix every axis it indexes.
    """
    if width < 1:
        raise CircuitValidationError(f"register width must be positive, got {width}")
    if width > WIDTH_CAP:
        raise ResourceLimitError(f"dense qubit simulation capped at {WIDTH_CAP} qubits, got {width}")
    for gate in gates:
        _validate_gate(gate, width)
    amplitudes = np.zeros(2**width, dtype=np.complex128)
    amplitudes[0] = 1.0
    psi = amplitudes.reshape((2,) * width)
    i = 0
    while i < len(gates):
        gate = gates[i]
        i += 1
        index: list = [slice(None)] * width
        for q, bit in gate.controls:
            index[q] = bit
        if gate.kind == "x":
            # fuse a run of X gates sharing one control pattern into a single
            # exact relocation: flipping a qubit reverses its axis
            flips = {gate.targets[0]}
            while i < len(gates) and gates[i].kind == "x" and gates[i].controls == gate.controls:
                flips ^= set(gates[i].targets)
                i += 1
            flipped = [slice(None, None, -1) if q in flips else index[q] for q in range(width)]
            psi[(*index, ...)] = psi[(*flipped, ...)].copy()
        elif gate.kind == "phase":
            if gate.angle != 0.0:
                psi[(*index, ...)] *= cmath.exp(1j * gate.angle)
        else:
            (target,) = gate.targets
            index[target] = 0
            v0 = psi[(*index, ...)]
            index[target] = 1
            v1 = psi[(*index, ...)]
            # h rows are (1,1)s and (1,-1)s; r rows are (1,1)s and (-1,1)s
            diff = (v0 - v1) if gate.kind == "h" else (v1 - v0)
            np.add(v0, v1, out=v0)
            v0 *= _SQRT1_2
            diff *= _SQRT1_2
            v1[...] = diff
            del diff  # free the half-register temporary before the next gate
    return QubitRegister(width, amplitudes)


def register_to_qudit(register: QubitRegister) -> QuditState:
    """Reinterpret a register as a qudit state (the flat indices coincide)."""
    n = game_size_for_width(register.width)
    return QuditState(n, register.amplitudes.copy())


@dataclass(frozen=True)
class PreparationAudit:
    """Comparison of a preparation circuit against the target state family.

    ``per_branch_phase_ratio[k]`` is (circuit amplitude)/(target amplitude)
    on branch k.  A ratio pattern w^(k*q) for a single integer q is only a
    relabelling of the phase parameter (phase -> phase + q), so ``matches``
    holds when the circuit output equals the target after the best such
    shift; ``max_amplitude_deviation`` is the residual after that shift
    (including any leakage outside the constant-tuple branches) and
    ``phase_shift`` is the shift itself.
    """

    matches: bool
    max_amplitude_deviation: float
    per_branch_phase_ratio: tuple[complex, ...]
    phase_shift: int

    def to_dict(self) -> dict:
        return {
            "matches": self.matches,
            "max_amplitude_deviation": self.max_amplitude_deviation,
            "per_branch_phase_ratio": [[z.real, z.imag] for z in self.per_branch_phase_ratio],
            "phase_shift": self.phase_shift,
        }


def audit_preparation_circuit(config: GameConfig, variant: str = VARIANT_FIGURE) -> PreparationAudit:
    """Run a preparation variant and audit it against the entangled target."""
    n = config.n
    log = qubits_per_user(n)
    width = n * log
    register = run_circuit(build_preparation_circuit(config, variant), width)
    branch_index = np.array([int(tuple_to_bits((k,) * n), 2) for k in range(n)])
    actual = register.amplitudes[branch_index]
    target = np.array([entangled_coefficient(config, k) for k in range(n)])
    off_branch = np.delete(register.amplitudes, branch_index)
    leakage = float(np.max(np.abs(off_branch))) if off_branch.size else 0.0
    best_shift, best_deviation = 0, math.inf
    for q in range(n):
        shifted = target * np.exp(2j * np.pi * q * np.arange(n) / n)
        deviation = float(np.max(np.abs(actual - shifted)))
        if deviation < best_deviation:
            best_shift, best_deviation = q, deviation
    best_deviation = max(best_deviation, leakage)
    return PreparationAudit(
        matches=best_deviation < AUDIT_TOL,
        max_amplitude_deviation=best_deviation,
        per_branch_phase_ratio=tuple(complex(z) for z in actual / target),
        phase_shift=best_shift,
    )


def export_circuit(gates: list[Gate]) -> str:
    """Plain-text gate list, one gate per line.

    Fields: kind, controls (``<qubit>b`` filled / ``<qubit>w`` open, comma
    separated, ``-`` if none), targets (comma separated, ``-`` if none),
    phase angle in radians.  Lines starting with ``#`` are comments.
    """
    lines = []
    for g in gates:
        controls = ",".join(f"{q}{'b' if bit else 'w'}" for q, bit in g.controls) or "-"
        targets = ",".join(str(t) for t in g.targets) or "-"
        lines.append(f"{g.kind} {controls} {targets} {g.angle!r}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> list[Gate]:
    """Inverse of :func:`export_circuit` (comments and blank lines skipped)."""
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, controls_field, targets_field, angle_field = line.split()
        except ValueError as exc:
            raise CircuitValidationError(f"bad gate line {line!r}") from exc
        controls = []
        if controls_field != "-":
            for token in controls_field.split(","):
                if token[-1] not in "bw":
                    raise CircuitValidationError(f"bad control token {token!r}")
                controls.append((int(token[:-1]), 1 if token[-1] == "b" else 0))
        targets = tuple(int(t) for t in targets_field.split(",")) if targets_field != "-" else ()
        gates.append(Gate(kind, targets, tuple(controls), float(angle_field)))
    return gates
