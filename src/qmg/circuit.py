"""Qubit-level construction and simulation of the preparation circuits.

For n a power of two each user's channel index packs into log2(n) qubits,
so the full register is n*log2(n) qubits wide.  Qubit 0 is the most
significant bit of the flat state index, each user owns one consecutive
log2(n)-bit group (most significant bit first), and user 0's group doubles
as the branch-control lines.  With that layout the packed bitstring of an
assignment tuple *is* its base-n flat index, so a register's support is a
:class:`~qmg.qudit.QuditState`'s without reshuffling.

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

from .game import GameConfig, InvalidConfigError, entangled_branches
from .qudit import QuditState, ResourceLimitError, check_footprint

VARIANT_FIGURE = "figure"
VARIANT_CORRECTED = "corrected"
VARIANTS = (VARIANT_FIGURE, VARIANT_CORRECTED)

AUDIT_TOL = 1e-10

_SQRT1_2 = 1.0 / math.sqrt(2.0)
GATE_KINDS = ("r", "h", "x", "phase")


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
    """A state over ``width`` qubits by its support: the sorted basis
    ``indices`` (qubit 0 the most significant bit) and the ``amplitudes``
    there.  Every other amplitude is zero."""

    width: int
    indices: np.ndarray
    amplitudes: np.ndarray


def qubits_per_user(n: int) -> int:
    """log2(n), rejecting sizes without an exact qubit encoding."""
    if n >= 2:
        log = n.bit_length() - 1
        if (1 << log) == n:
            return log
    raise InvalidConfigError(f"game size must be a power of two >= 2, got {n}")


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
        gates += [Gate("x", targets=(user * log + j,), controls=controls)
                  for user in range(1, n) for j, bit in controls if bit]
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

    Only the support is kept.  ``x`` gates relabel it and ``phase`` gates
    scale it; ``h``/``r`` gates first add each missing partner as an
    explicit zero, then mix the pairs with the dense engine's arithmetic.
    """
    if width < 1:
        raise CircuitValidationError(f"register width must be positive, got {width}")
    if width > 64:
        raise ResourceLimitError(f"basis indices are 64-bit: at most 64 qubits, got {width}")
    for gate in gates:
        _validate_gate(gate, width)
    rotations = sum(gate.kind in ("h", "r") for gate in gates)
    check_footprint(24 * 2 ** min(rotations, width), f"{rotations} rotations")  # index + amplitude
    indices = np.zeros(1, dtype=np.uint64)
    amplitudes = np.ones(1, dtype=np.complex128)
    for gate in gates:
        mask = np.uint64(sum(1 << (width - 1 - q) for q, _ in gate.controls))
        value = np.uint64(sum(bit << (width - 1 - q) for q, bit in gate.controls))
        selected = (indices & mask) == value
        if gate.kind == "phase":
            if gate.angle != 0.0:
                amplitudes[selected] *= cmath.exp(1j * gate.angle)
            continue
        flip = np.uint64(1 << (width - 1 - gate.targets[0]))
        if gate.kind == "x":
            indices[selected] ^= flip  # the order is restored once, at the end
            continue
        support = np.union1d(indices, indices[selected] ^ flip)
        padded = np.zeros(support.size, dtype=np.complex128)
        padded[np.searchsorted(support, indices)] = amplitudes
        indices, amplitudes = support, padded
        low = np.nonzero((indices & (mask | flip)) == value)[0]  # target bit 0
        high = np.searchsorted(indices, indices[low] | flip)
        v0, v1 = amplitudes[low], amplitudes[high]
        # h rows are (1,1)s and (1,-1)s; r rows are (1,1)s and (-1,1)s
        diff = (v0 - v1) if gate.kind == "h" else (v1 - v0)
        np.add(v0, v1, out=v0)
        v0 *= _SQRT1_2
        diff *= _SQRT1_2
        amplitudes[low], amplitudes[high] = v0, diff
    order = np.argsort(indices)
    return QubitRegister(width, indices[order], amplitudes[order])


def register_to_qudit(register: QubitRegister, n: int) -> QuditState:
    """The n-user game's state on the register's support (the flat indices
    coincide), without the exact zeros that rotations leave there."""
    keep = np.flatnonzero(register.amplitudes)
    return QuditState(n, register.indices[keep], register.amplitudes[keep])


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
    branches, target = entangled_branches(config)
    on_branch = np.isin(register.indices, branches)
    actual = np.zeros(n, dtype=np.complex128)
    actual[np.searchsorted(branches, register.indices[on_branch])] = register.amplitudes[on_branch]
    leakage = float(np.max(np.abs(register.amplitudes[~on_branch]), initial=0.0))
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
            # a control token is a qubit and its required bit: b for 1, w for 0
            controls = () if controls_field == "-" else tuple(
                (int(token[:-1]), "wb".index(token[-1])) for token in controls_field.split(","))
            targets = () if targets_field == "-" else tuple(int(t) for t in targets_field.split(","))
            gates.append(Gate(kind, targets, controls, float(angle_field)))
        except (ValueError, IndexError) as exc:
            raise CircuitValidationError(f"bad gate line {line!r}") from exc
    return gates
