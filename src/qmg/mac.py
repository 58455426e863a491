"""Slotted-MAC Monte Carlo: cognitive users against stochastic primary occupancy.

One cell, n users, n channels.  Each slot the primary users occupy channels
independently with probability ``primary_activity``; the remaining free
channels are contested by the cognitive users under a pluggable allocation
policy.  The allocation game is always square: when f < n channels are
free, f randomly chosen users contend for them and the rest defer for the
slot.  Star topology runs one allocation per slot (the base station is the
arbiter); mesh-rounds runs one allocation round per arbiter node per slot,
each arbiter serving its ring neighborhood.

Randomness is split into independent streams derived from the config seed:
an environment stream (occupancy and who defers, shared by every policy so
comparisons use common random numbers) and one allocator stream per policy
kind.  Identical configs therefore give bit-identical metrics, and a policy
listed twice in a comparison reproduces itself exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .game import (
    MAX_N,
    REGIME_AVOID_WORST,
    REGIME_ENHANCE_OPTIMUM,
    GameConfig,
    phase_for_regime,
    sample_outcomes,
)

CLASSICAL_UNIFORM = "classical-uniform"
QUANTUM_ENHANCE_OPTIMUM = "quantum-enhance-optimum"
QUANTUM_AVOID_WORST = "quantum-avoid-worst"
POLICY_KINDS = (CLASSICAL_UNIFORM, QUANTUM_ENHANCE_OPTIMUM, QUANTUM_AVOID_WORST)

TOPOLOGY_STAR = "star"
TOPOLOGY_MESH = "mesh-rounds"

_ENV_STREAM = 0
_ALLOC_STREAM = 1

SLOT_CSV_HEADER = "slot,free_channels,policy,successes,colliders,all_same"


class ConfigFormatError(ValueError):
    """A run-spec document does not describe a valid cell configuration."""


class EmptyRunError(ConfigFormatError):
    """A simulation over zero slots was requested."""


class InvalidTopologyError(ConfigFormatError):
    """Topology parameters are inconsistent with the cell size."""


@dataclass(frozen=True)
class AllocatorPolicy:
    """Channel-allocation rule: classical uniform or one of the two
    entangled-game regimes (enhance-optimum tunes the phase to n*(n-1)/2,
    avoid-worst to 1)."""

    kind: str

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")

    def game_phase(self, n: int) -> int | None:
        """Phase parameter for a game of size n; None for the classical rule."""
        if self.kind == QUANTUM_ENHANCE_OPTIMUM:
            return phase_for_regime(REGIME_ENHANCE_OPTIMUM, n)
        if self.kind == QUANTUM_AVOID_WORST:
            return phase_for_regime(REGIME_AVOID_WORST, n)
        return None


@dataclass(frozen=True)
class CellConfig:
    """One cell: n_users == n_channels, per-channel primary occupancy
    probability, slot count, seed, and topology parameters.

    ``mesh_degree`` is the number of ring neighbors each arbiter serves
    (default: full mesh, n_users - 1); ``mesh_rounds`` the arbitration
    rounds per slot (default: one per node).  Energy accounting charges
    ``tx_cost`` per transmission attempt and, in mesh mode, an additional
    ``arbitration_cost`` per round.
    """

    n_users: int
    n_channels: int
    primary_activity: float
    slots: int
    seed: int
    topology: str = TOPOLOGY_STAR
    mesh_degree: int | None = None
    mesh_rounds: int | None = None
    tx_cost: float = 1.0
    arbitration_cost: float = 0.1

    def __post_init__(self):
        for name in _INTEGER_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("mesh_degree", "mesh_rounds"):
                continue
            kind, noun = ((numbers.Integral, "an integer") if name in _INTEGER_FIELDS
                          else (numbers.Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigFormatError(f"{name} must be {noun}, got {value!r}")
        if self.n_users != self.n_channels:
            raise ConfigFormatError(
                f"the game is square: n_users ({self.n_users}) must equal n_channels ({self.n_channels})")
        if not 2 <= self.n_users <= MAX_N:
            raise ConfigFormatError(f"need 2 <= n_users <= {MAX_N}, got {self.n_users}")
        if not 0.0 <= self.primary_activity <= 1.0:
            raise ConfigFormatError(f"primary_activity must lie in [0, 1], got {self.primary_activity}")
        if self.slots < 1:
            raise EmptyRunError(f"slots must be positive, got {self.slots}")
        if not 0 <= self.seed < 2**64:
            raise ConfigFormatError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.topology not in (TOPOLOGY_STAR, TOPOLOGY_MESH):
            raise ConfigFormatError(f"unknown topology {self.topology!r}")
        if self.tx_cost < 0 or self.arbitration_cost < 0:
            raise ConfigFormatError("costs must be non-negative")
        if self.mesh_degree is not None and not 1 <= self.mesh_degree <= self.n_users - 1:
            raise InvalidTopologyError(
                f"ring degree must lie in [1, {self.n_users - 1}], got {self.mesh_degree}")
        if self.mesh_rounds is not None and self.mesh_rounds < 1:
            raise InvalidTopologyError(f"need at least one arbitration round, got {self.mesh_rounds}")


@dataclass(frozen=True)
class MacMetrics:
    """Aggregate network statistics for one policy run."""

    throughput: float
    collision_rate: float
    all_distinct_rate: float
    all_same_rate: float
    energy_proxy: float

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            out[key] = value if math.isfinite(value) else None
        return out


class SlotLog:
    """Columnar per-slot results (``assignment`` holds -1 for users that
    deferred); writes the per-slot CSV."""

    def __init__(self, free_mask: np.ndarray, assignment: np.ndarray,
                 successes: np.ndarray, colliders: np.ndarray, all_same: np.ndarray):
        self.free_mask = free_mask
        self.assignment = assignment
        self.successes = successes
        self.colliders = colliders
        self.all_same = all_same

    def __len__(self) -> int:
        return len(self.successes)

    def write_csv(self, stream: IO[str], policy_kind: str, header: bool = True) -> None:
        if header:
            stream.write(SLOT_CSV_HEADER + "\n")
        free_counts = self.free_mask.sum(axis=1)
        for i in range(len(self)):
            stream.write(f"{i},{int(free_counts[i])},{policy_kind},"
                         f"{int(self.successes[i])},{int(self.colliders[i])},"
                         f"{int(self.all_same[i])}\n")


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *key)))


def _game_digits(policy: AllocatorPolicy, size: int, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(count, size) channel digits in [0, size) for `count` games of `size` players."""
    if size == 1:
        return np.zeros((count, 1), dtype=np.int64)
    if policy.kind == CLASSICAL_UNIFORM:
        return rng.integers(0, size, size=(count, size))
    return sample_outcomes(GameConfig(size, policy.game_phase(size)), rng, count)


def _score_rows(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-player 'alone on its channel' flags plus per-row success/all-same tallies."""
    rows, size = channels.shape
    order = np.argsort(channels, axis=1, kind="stable")
    in_order = np.take_along_axis(channels, order, axis=1)
    first = np.ones((rows, size), dtype=bool)
    first[:, 1:] = in_order[:, 1:] != in_order[:, :-1]
    last = np.ones((rows, size), dtype=bool)
    last[:, :-1] = first[:, 1:]
    alone_sorted = first & last
    alone = np.empty_like(alone_sorted)
    np.put_along_axis(alone, order, alone_sorted, axis=1)
    successes = alone.sum(axis=1)
    if size >= 2:
        all_same = (channels == channels[:, :1]).all(axis=1)
    else:
        all_same = np.zeros(rows, dtype=bool)
    return alone, successes, all_same


def _run_slots(config: CellConfig, policy: AllocatorPolicy, group: int, rounds: int,
               arbitrations: int) -> tuple[MacMetrics, SlotLog | None]:
    """The slot engine behind both topologies.

    Per slot, primary occupancy, then ``rounds`` arbitration rounds.  The
    arbiter of round r is node r mod n and serves itself plus the next
    group - 1 ring nodes; each round plays a square game of size
    min(group, free): surplus participants defer and surplus free channels
    go unused that round, both chosen at random from the environment
    stream.  Energy charges ``tx_cost`` per attempt plus ``arbitrations``
    times ``arbitration_cost``.  The per-slot log is kept for single-round
    runs only, where each user transmits at most once per slot.
    """
    n = config.n_users
    env = _stream(config.seed, _ENV_STREAM)
    alloc = _stream(config.seed, _ALLOC_STREAM, POLICY_KINDS.index(policy.kind))
    slots = config.slots

    occupied = env.random((slots, n)) < config.primary_activity
    free_mask = ~occupied
    free_counts = free_mask.sum(axis=1)

    assignment = np.full((slots, n), -1, dtype=np.int8) if rounds == 1 else None
    successes = np.zeros(slots, dtype=np.int32)
    colliders = np.zeros(slots, dtype=np.int32)
    all_same = np.zeros(slots, dtype=bool)
    # bit u set once user u was alone on its channel in some round of the slot
    delivered = np.zeros(slots, dtype=np.int32)

    for r in range(rounds):
        members = (r % n + np.arange(group, dtype=np.int32)) % n
        member_priority = env.random((slots, group))
        # read only when a round has fewer players than free channels
        channel_priority = env.random((slots, n)) if group < n else None
        for f in range(1, n + 1):
            rows = np.nonzero(free_counts == f)[0]
            if rows.size == 0:
                continue
            count = rows.size
            size = min(group, f)
            pool = np.nonzero(free_mask[rows])[1].reshape(count, f)
            if size < f:
                priority = np.take_along_axis(channel_priority[rows], pool, axis=1)
                picks = np.argsort(priority, axis=1, kind="stable")[:, :size]
                pool = np.take_along_axis(pool, picks, axis=1)
            if size < group:
                picks = np.argsort(member_priority[rows], axis=1, kind="stable")[:, :size]
                players = members[picks]
            else:
                players = np.broadcast_to(members, (count, size))
            channels = np.take_along_axis(pool, _game_digits(policy, size, count, alloc), axis=1)
            if assignment is not None:
                assignment[rows[:, None], players] = channels
            alone, round_succ, round_same = _score_rows(channels)
            successes[rows] += round_succ
            colliders[rows] += size - round_succ
            all_same[rows] |= round_same
            delivered[rows] |= (alone.astype(np.int32) << players).sum(axis=1, dtype=np.int32)

    total_successes = int(successes.sum())
    total_colliders = int(colliders.sum())
    total_attempts = total_successes + total_colliders
    energy_spent = total_attempts * config.tx_cost + arbitrations * config.arbitration_cost
    metrics = MacMetrics(
        throughput=total_successes / slots,
        collision_rate=(total_colliders / total_attempts) if total_attempts else 0.0,
        all_distinct_rate=float(np.mean(delivered == (1 << n) - 1)),
        all_same_rate=float(np.mean(all_same)),
        energy_proxy=(energy_spent / total_successes) if total_successes else math.inf,
    )
    log = None if assignment is None else SlotLog(free_mask, assignment, successes, colliders, all_same)
    return metrics, log


def run_cell(config: CellConfig, policy: AllocatorPolicy) -> tuple[MacMetrics, SlotLog]:
    """Simulate one star cell: per slot, primary occupancy, then one square
    allocation game over the free channels.

    When f < n channels are free, the arbiter picks f users at random
    (environment stream, so every policy sees the same player subsets) to
    play the f-channel game; the rest defer.  This is the one-round mesh
    whose arbiter serves all n users and charges no arbitration.  Fully
    deterministic given the config.
    """
    return _run_slots(config, policy, group=config.n_users, rounds=1, arbitrations=0)


def run_mesh_rounds(config: CellConfig, policy: AllocatorPolicy) -> MacMetrics:
    """Mesh variant: per slot, one arbitration round per arbiter node.

    Arbiter of round r is node r mod n; it serves itself plus its next
    ``mesh_degree`` ring neighbors (default: all other nodes) for
    ``mesh_rounds`` rounds (default: n).  Energy additionally charges one
    arbitration per round.
    """
    if config.topology != TOPOLOGY_MESH:
        raise InvalidTopologyError(f"run_mesh_rounds needs topology={TOPOLOGY_MESH!r}, got {config.topology!r}")
    n = config.n_users
    degree = config.mesh_degree if config.mesh_degree is not None else n - 1
    rounds = config.mesh_rounds if config.mesh_rounds is not None else n
    metrics, _ = _run_slots(config, policy, group=degree + 1, rounds=rounds,
                            arbitrations=rounds * config.slots)
    return metrics


@dataclass(frozen=True)
class PolicyRun:
    policy: AllocatorPolicy
    metrics: MacMetrics
    log: SlotLog | None


@dataclass(frozen=True)
class PolicyComparison:
    """Per-policy metrics over a shared primary-occupancy sequence."""

    config: CellConfig
    runs: tuple[PolicyRun, ...]

    def all_distinct_ratios(self) -> dict[str, float | None]:
        """Each non-classical policy's all-distinct rate over the classical
        baseline's (None without a baseline or with a zero baseline)."""
        baseline = next((r.metrics.all_distinct_rate for r in self.runs
                         if r.policy.kind == CLASSICAL_UNIFORM), None)
        ratios: dict[str, float | None] = {}
        for run in self.runs:
            if run.policy.kind == CLASSICAL_UNIFORM:
                continue
            if baseline:
                ratios[run.policy.kind] = run.metrics.all_distinct_rate / baseline
            else:
                ratios[run.policy.kind] = None
        return ratios

    def to_dict(self) -> dict:
        """The summary document: config, per-policy metrics and ratios."""
        return {
            "config": asdict(self.config),
            "policies": [{"policy": run.policy.kind, "metrics": run.metrics.to_dict()}
                         for run in self.runs],
            "all_distinct_ratios": self.all_distinct_ratios(),
        }

    def write(self, prefix: str | Path) -> Path:
        """Write the summary to ``<prefix>.json`` and, for star runs, the
        per-slot rows of every policy to ``<prefix>.csv``; returns the
        summary path."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        summary_path = Path(f"{prefix}.json")
        summary_path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                                encoding="utf-8", newline="\n")
        if self.config.topology != TOPOLOGY_MESH:
            with open(f"{prefix}.csv", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(SLOT_CSV_HEADER + "\n")
                for run in self.runs:
                    run.log.write_csv(fh, run.policy.kind, header=False)
        return summary_path


def compare_policies(config: CellConfig, policies: Sequence[AllocatorPolicy]) -> PolicyComparison:
    """Run every policy against the same primary-user occupancy sequence.

    The environment stream depends only on the seed, so occupancy (and the
    defer choices) are common random numbers; allocator sampling stays on
    independent per-policy streams.
    """
    if len(policies) < 2:
        raise ValueError("need at least two policies to compare")
    runs = []
    for policy in policies:
        if config.topology == TOPOLOGY_MESH:
            runs.append(PolicyRun(policy, run_mesh_rounds(config, policy), None))
        else:
            metrics, log = run_cell(config, policy)
            runs.append(PolicyRun(policy, metrics, log))
    return PolicyComparison(config, tuple(runs))


_REQUIRED_FIELDS = ("n_users", "n_channels", "primary_activity", "slots", "seed")
_OPTIONAL_FIELDS = ("topology", "mesh_degree", "mesh_rounds", "tx_cost", "arbitration_cost")
_INTEGER_FIELDS = ("n_users", "n_channels", "slots", "seed", "mesh_degree", "mesh_rounds")
_REAL_FIELDS = ("primary_activity", "tx_cost", "arbitration_cost")


def load_run_spec(document: dict) -> tuple[CellConfig, list[AllocatorPolicy]]:
    """Build (CellConfig, policies) from a plain JSON-style dict.

    Field names mirror :class:`CellConfig` exactly, plus a ``policies``
    list of at least two policy kind names.  Unknown or missing fields
    raise :class:`ConfigFormatError` naming the offender.
    """
    if not isinstance(document, dict):
        raise ConfigFormatError(f"run spec must be a JSON object, got {type(document).__name__}")
    unknown = set(document) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS) - {"policies"}
    if unknown:
        raise ConfigFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = [f for f in _REQUIRED_FIELDS if f not in document]
    if missing:
        raise ConfigFormatError(f"missing field(s): {', '.join(missing)}")
    if "policies" not in document:
        raise ConfigFormatError("missing field(s): policies")
    kinds = document["policies"]
    if not isinstance(kinds, list) or len(kinds) < 2:
        raise ConfigFormatError("policies must be a list of at least two policy kind names")
    try:
        policies = [AllocatorPolicy(kind) for kind in kinds]
    except ValueError as exc:
        raise ConfigFormatError(str(exc)) from exc
    fields = {k: document[k] for k in _REQUIRED_FIELDS + _OPTIONAL_FIELDS if k in document}
    try:
        config = CellConfig(**fields)
    except TypeError as exc:
        raise ConfigFormatError(str(exc)) from exc
    return config, policies
