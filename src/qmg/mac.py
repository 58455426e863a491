"""Slotted-MAC Monte Carlo: cognitive users against stochastic primary occupancy.

One cell, n users, n channels.  Each slot the primary users occupy channels
independently with probability ``primary_activity``; the remaining free
channels are contested by the cognitive users under an allocation policy,
one of ``POLICY_KINDS``.  The allocation game is always square: when f < n
channels are free, f users contend for them and the rest defer for the
slot.  Star topology runs one allocation per slot (the base station is the
arbiter); mesh-rounds runs one allocation round per arbiter node per slot,
each arbiter serving its ring neighborhood.

Only how many players share a channel decides a collision, so the engine
never draws channels: each game is one draw of its outcome (players alone,
all on one channel) from the exact law of its size, ``game.outcome_law``.
When one round serves all n users (every star slot), no metric depends on
who defers either, so that choice is not drawn.

Randomness is split into independent streams derived from the config seed:
an environment stream (occupancy and who defers; a single-round run draws
occupancy only) and one allocator stream per policy kind.  A comparison
advances all its policies in lockstep through one environment pass, so they
share its draws as common random numbers, while each policy draws from its
own allocator stream exactly what a run of it alone would draw.  Identical
configs therefore give bit-identical metrics, and a policy listed twice in
a comparison reproduces itself exactly.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import IO, Callable, Sequence, get_args, get_type_hints

import numpy as np

from .game import (
    MAX_N,
    REGIME_AVOID_WORST,
    REGIME_ENHANCE_OPTIMUM,
    outcome_law,
    phase_for_regime,
)
from .qudit import check_footprint

CLASSICAL_UNIFORM = "classical-uniform"
QUANTUM_ENHANCE_OPTIMUM = "quantum-enhance-optimum"
QUANTUM_AVOID_WORST = "quantum-avoid-worst"
# the game regime each policy kind plays; None is the classical uniform rule
_REGIMES = {CLASSICAL_UNIFORM: None, QUANTUM_ENHANCE_OPTIMUM: REGIME_ENHANCE_OPTIMUM,
            QUANTUM_AVOID_WORST: REGIME_AVOID_WORST}
POLICY_KINDS = tuple(_REGIMES)

TOPOLOGY_STAR = "star"
TOPOLOGY_MESH = "mesh-rounds"
#: arbitration rounds per slot: each is a pass over every slot, so a count is bounded
MAX_MESH_ROUNDS = 1024

_ENV_STREAM = 0
_ALLOC_STREAM = 1

SLOT_CSV_HEADER = "slot,free_channels,policy,successes,colliders,all_same"
# text rows per write: one block's byte matrix and its text stay under 1 MB,
# so the writer's peak fits in the slot engine's per-call plan
TEXT_BLOCK_ROWS = 4096
# cells per slot-engine block: a block of rows w cells wide (occupancy or priority draws) has
# ENGINE_CELLS // (the power of two >= w) rows, 1024 at widths 9 to 16 and 4096 at 3 or 4, and a
# block of games, whose row temporaries are one-dimensional and under 20 B, 16,384 rows; so no
# block temporary grows with the slot count and an int64 one holds at most 128 KiB, glibc's
# default mmap threshold.  At the 16-user mesh (100k slots, two policies, fresh processes), 2**13
# cells took 15% more time in per-block overhead; 2**15 cells ran mac-mesh 6% faster (0.687 ->
# 0.643 s, lower in 9 of 10 alternating pairs) but raised its peak RSS by 0.7 MB (42.57 -> 43.27).
# Draws in blocks equal one-shot draws: random() takes one 64-bit word per double, and PCG64
# keeps the spare 32-bit half of an integers() draw between calls.
ENGINE_CELLS = 2**14


class ConfigFormatError(ValueError):
    """A run-spec document does not describe a valid cell configuration."""


# a field's annotation -> the values it accepts and their name in error messages
_SCALARS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


@dataclass(frozen=True)
class CellConfig:
    """One cell: n_users == n_channels, per-channel primary occupancy
    probability, slot count, seed, and topology parameters.

    ``mesh_degree`` is the number of ring neighbors each arbiter serves
    (default: full mesh, n_users - 1); ``mesh_rounds`` the arbitration
    rounds per slot (default: one per node); a star cell sets neither.
    A run's energy is :meth:`energy` of its transmission attempts.  ``int``
    and ``float`` fields are type-checked.
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
        for name, hint in get_type_hints(CellConfig).items():
            value = getattr(self, name)
            scalar, *nullable = get_args(hint) or (hint,)  # `int | None` gives (int, None)
            if scalar not in _SCALARS or (value is None and nullable):
                continue
            kind, noun = _SCALARS[scalar]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigFormatError(f"{name} must be {noun}, got {value!r}")
            if scalar is float and not math.isfinite(value):
                raise ConfigFormatError(f"{name} must be finite, got {value!r}")
        if self.n_users != self.n_channels:
            raise ConfigFormatError(
                f"the game is square: n_users ({self.n_users}) must equal n_channels ({self.n_channels})")
        if not 2 <= self.n_users <= MAX_N:
            raise ConfigFormatError(f"need 2 <= n_users <= {MAX_N}, got {self.n_users}")
        if not 0.0 <= self.primary_activity <= 1.0:
            raise ConfigFormatError(f"primary_activity must lie in [0, 1], got {self.primary_activity}")
        if self.slots < 1:
            raise ConfigFormatError(f"slots must be positive, got {self.slots}")
        if not 0 <= self.seed < 2**64:
            raise ConfigFormatError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.topology not in (TOPOLOGY_STAR, TOPOLOGY_MESH):
            raise ConfigFormatError(f"unknown topology {self.topology!r}")
        for name in ("mesh_degree", "mesh_rounds"):
            if getattr(self, name) is not None and self.topology != TOPOLOGY_MESH:
                raise ConfigFormatError(f"{name} applies only to topology {TOPOLOGY_MESH!r}, "
                                        f"not {self.topology!r}")
        if self.tx_cost < 0 or self.arbitration_cost < 0:
            raise ConfigFormatError("costs must be non-negative")
        if self.mesh_degree is not None and not 1 <= self.mesh_degree <= self.n_users - 1:
            raise ConfigFormatError(
                f"ring degree must lie in [1, {self.n_users - 1}], got {self.mesh_degree}")
        if self.mesh_rounds is not None and not 1 <= self.mesh_rounds <= MAX_MESH_ROUNDS:
            raise ConfigFormatError(
                f"need 1 to {MAX_MESH_ROUNDS} arbitration rounds per slot, got {self.mesh_rounds}")
        # the energy spent when every player of every round transmits: finite, so that an
        # infinite energy_proxy only ever means that nothing succeeded
        try:
            worst = self.energy(self.slots * self.rounds * self.group)
        except OverflowError:  # more attempts than a float holds
            worst = math.inf
        if not math.isfinite(worst):
            raise ConfigFormatError(f"tx_cost and arbitration_cost must keep the worst-case energy "
                                    f"of {self.slots} slots finite")

    @property
    def rounds(self) -> int:
        """Arbitration rounds per slot: one in a star, ``mesh_rounds`` (default n) in a mesh."""
        if self.topology != TOPOLOGY_MESH:
            return 1
        return self.mesh_rounds if self.mesh_rounds is not None else self.n_users

    @property
    def group(self) -> int:
        """Users per round: all n in a star; in a mesh, the arbiter and ``mesh_degree``
        ring neighbors (default all others)."""
        if self.topology != TOPOLOGY_MESH:
            return self.n_users
        return (self.mesh_degree if self.mesh_degree is not None else self.n_users - 1) + 1

    def energy(self, attempts: int) -> float:
        """The energy of a run with ``attempts`` transmission attempts: ``tx_cost`` each,
        plus ``arbitration_cost`` per arbitration, every round of every slot in a mesh and
        none in a star, whose base station arbitrates."""
        arbitrations = self.rounds * self.slots if self.topology == TOPOLOGY_MESH else 0
        return attempts * self.tx_cost + arbitrations * self.arbitration_cost


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


def digit_text(text: np.ndarray, values: np.ndarray | int, base: int, sep: int | None = None) -> np.ndarray:
    """Fill each row of the uint8 matrix ``text`` with its value's lowest base-``base``
    digits as ASCII, most significant first, one per column or, given the byte ``sep``,
    one per other column with ``sep`` between them; one byte per digit, so base <= 10.
    Each digit costs a floor division, far faster than divmod.  Returns ``text``."""
    step = 1 if sep is None else 2
    if sep is not None:
        text[:, 1::2] = sep
    for column in range(text.shape[1] - 1, -1, -step):
        quotient = values // base
        text[:, column] = values - quotient * base + ord("0")
        values = quotient
    return text


def write_rows(stream: IO[str], head: Callable[[np.ndarray, int], object], width: int,
               tails: Sequence[str], inverse: np.ndarray) -> None:
    """Write ``len(inverse)`` text rows, TEXT_BLOCK_ROWS at a time: row i is ``width``
    head bytes, then ``tails[inverse[i]]``.  ``head(text, start)`` fills the uint8 matrix
    ``text`` with the heads of rows start, start + 1, ...  The tails are encoded once and
    NUL-padded; each block fills one byte matrix, and its text is the matrix with every
    NUL dropped, so a head may blank bytes with NUL."""
    tails = np.array([tail.encode() for tail in tails], dtype=bytes)
    block = np.empty((min(TEXT_BLOCK_ROWS, len(inverse)), width + tails.itemsize), dtype=np.uint8)
    for start in range(0, len(inverse), TEXT_BLOCK_ROWS):
        text = block[:min(TEXT_BLOCK_ROWS, len(inverse) - start)]
        head(text[:, :width], start)
        text[:, width:].view(tails.dtype)[:, 0] = tails[inverse[start:start + len(text)]]
        stream.write(text.tobytes().replace(b"\0", b"").decode())


def key_numbers(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative ``keys``, ascending, and each key's number among them."""
    table = np.bincount(keys)  # over 0 to the largest key: its count, then its number
    present = np.flatnonzero(table)
    table[present] = np.arange(len(present))
    return present, table[keys]


# the four decimal digits of 0 to 9999, one row each: the last four digits of a slot number
_QUADS = digit_text(np.empty((10**4, 4), dtype=np.uint8), np.arange(10**4), 10)
_QUADS.flags.writeable = False


def _slot_numbers(text: np.ndarray, start: int) -> None:
    """Fill the rows of the uint8 matrix ``text`` with the slot numbers start, start + 1,
    ..., right-aligned, leading zeros blanked with NUL.  Between two multiples of 10**4
    their last four digits are consecutive rows of _QUADS and the digits above are one
    number, so each such run costs two slice copies, not a division per digit."""
    rows, width = text.shape
    low = min(width, 4)
    edges = [start, *range(start // 10**4 * 10**4 + 10**4, start + rows, 10**4), start + rows]
    for first, stop in zip(edges, edges[1:]):
        run = text[first - start:stop - start]
        run[:, width - low:] = _QUADS[first % 10**4:(stop - 1) % 10**4 + 1, 4 - low:]
        digit_text(run[:, :width - low], first // 10**4, 10)
    for place in range(1, width):  # slots below 10**place have a leading zero here
        text[:max(10**place - start, 0), width - 1 - place] = 0


class SlotLog:
    """Per-slot aggregates: free channels, successful transmissions, and
    whether some round put every player on one channel; with ``attempts``,
    the transmission attempts per free count, of which every one that did
    not succeed collided.  No column records which physical channel a user
    took: the engine never draws it, and no metric depends on it."""

    def __init__(self, free_counts: np.ndarray, successes: np.ndarray,
                 attempts: np.ndarray, all_same: np.ndarray):
        self.free_counts = free_counts
        self.successes = successes
        self.attempts = attempts
        self.all_same = all_same

    def __len__(self) -> int:
        return len(self.successes)

    def write_csv(self, stream: IO[str], policy_kind: str) -> None:
        """Write one CSV row per slot, without the header: its slot number with
        leading zeros blanked, then the rest, formatted once per distinct row.  A row's
        key (free count, successes, all-same) fixes its colliders; a table over every key
        numbers the keys present, and each slot's tail is its key's number."""
        radix = int(self.attempts.max()) + 1  # successes never exceed the attempts
        key = (self.free_counts.astype(np.int32) * radix + self.successes) * 2 + self.all_same
        present, key = key_numbers(key)  # each slot's tail
        free, successes = np.divmod(present >> 1, radix)
        columns = (free, successes, self.attempts[free] - successes, present & 1)
        tails = [f",{f},{policy_kind},{s},{c},{a}\n" for f, s, c, a
                 in zip(*(column.tolist() for column in columns))]
        write_rows(stream, _slot_numbers, len(str(max(len(self) - 1, 0))), tails, key)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *key)))


@functools.cache
def _game_law(policy: str, size: int) -> tuple[int, np.ndarray, np.ndarray]:
    """A size-``size`` game under ``policy`` as one exact draw: the count of its equally likely
    outcomes (2**64 at 16 classical players, which numpy takes as a uint64 bound), its law's
    cumulative counts by key but the last (the count itself, which wraps to 0 at 16**16), and
    each key's code.  A draw below the count falls in key i when i boundaries are at most it."""
    regime = _REGIMES[policy]
    law = outcome_law(size, None if regime is None else phase_for_regime(regime, size)).ravel()
    codes = np.flatnonzero(law)
    return sum(law.tolist()), np.cumsum(law[codes])[:-1], codes.astype(np.uint8)


def _play(policy: str, size: int, rows: int, alloc: np.random.Generator) -> np.ndarray:
    """Codes successes << 1 | all-same of ``rows`` size-``size`` games, one uint64 draw
    each; a size-1 game has one outcome, and numpy takes no bits for a bound of 1."""
    total, bounds, codes = _game_law(policy, size)
    return codes.take(bounds.searchsorted(alloc.integers(0, total, rows, dtype=np.uint64), side="right"))


def _priority_order(draws: np.ndarray) -> np.ndarray:
    """Sort (rows, group <= 16) ``random()`` draws in place into each row's member
    offsets by ascending draw, ties to the lower offset, as a stable argsort; return
    the buffer viewed as uint64.  A draw is k * 2**-53, ordered like its bits as uint64,
    which begin 0b001111 (exponent 970 to 1022) unless it is 0.0, all zeros: shifted
    left by four, each key keeps its order and leaves the low four for the offset."""
    keys = draws.view(np.uint64)
    keys <<= 4
    keys |= np.arange(draws.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    keys &= 15
    return keys


def _block_rows(width: int) -> int:
    """Rows per slot-engine block of rows ``width`` cells wide (see ENGINE_CELLS)."""
    return ENGINE_CELLS // (1 << (width - 1).bit_length())


def _run_slots(config: CellConfig, policies: Sequence[str]) -> list[tuple[MacMetrics, SlotLog]]:
    """The slot engine behind both topologies, one (metrics, slot log) per
    listed policy, all advanced in lockstep over one environment pass.

    Per slot, primary occupancy, then ``config.rounds`` arbitration rounds.
    The arbiter of round r is node r mod n and serves itself plus the next
    ``config.group`` - 1 ring nodes; each round plays a square game of size
    min(group, free) among the ``size`` members with the lowest priority
    draws from the environment stream, ties to the lower ring offset (a
    single round over all n users draws none: a slot is then all-distinct
    exactly when all n succeed).  Each policy draws each game's outcome from
    its own allocator stream, one uint64 per game (see _play).  A round
    first plays its games by free count; then a mesh draws its priorities in
    slot order and ORs the user bits of each slot's players alone into the
    delivery masks, sorting none in a slot already delivered to all n users.
    The energy is ``config.energy`` of the attempts.
    """
    n, group, rounds, slots = config.n_users, config.group, config.rounds, config.slots
    env = _stream(config.seed, _ENV_STREAM)
    allocs = [_stream(config.seed, _ALLOC_STREAM, POLICY_KINDS.index(policy)) for policy in policies]
    # one round over all n users: all-distinct is successes == n, see above
    single = rounds == 1 and group == n
    # tallies reach rounds * group <= 16 * MAX_MESH_ROUNDS; signed, for numpy's same-kind cast
    tally = np.int8 if rounds * group < 128 else np.int16
    # Planned bytes.  Per slot, the slot logs: the free counts and, per policy, successes (the
    # tally width each) and all-same (1).  While the engine runs, also the slots' free-count order
    # (8), 3 of temporaries at the end and, unless single, per policy a 4-byte delivery mask and
    # the round's players alone (1).  While the CSV writer indexes the distinct rows, instead 12:
    # each row's int32 key and its tail index (intp).  Per call, 1 MiB of array headers, scalars,
    # outcome laws and one text block; the writer's key table, 8 bytes for each of (n + 1) *
    # (rounds * group + 1) * 2 keys; and one engine block of cells: 8 bytes a cell of the reused
    # priority buffer and at most 40 of an occupancy draw, a block of game draws (under 20 a row,
    # one cell wide) or the sort and prefix of kept rows.
    tally_bytes = np.dtype(tally).itemsize
    logs = tally_bytes + len(policies) * (tally_bytes + 1)
    engine = logs + 8 + 3 + (0 if single else len(policies) * (4 + 1))
    check_footprint(2**20 + 48 * ENGINE_CELLS + 16 * (n + 1) * (rounds * group + 1)
                    + max(engine, logs + 12) * slots, f"{slots} slots of {n} users")

    # free counts in the tally dtype, so that rounds * min(free, group) never wraps
    free_counts = np.empty(slots, dtype=tally)
    for start in range(0, slots, _block_rows(n)):
        free = env.random((min(_block_rows(n), slots - start), n)) >= config.primary_activity
        np.einsum("ij->i", free.view(np.int8), dtype=tally, out=free_counts[start:start + len(free)])
    # the slots in order of free count, ties in slot order: the slots of each free count play one
    # game size and are one run of this order, in which the engine keeps the tallies
    by_free = free_counts.argsort(kind="stable")
    per_free = np.bincount(free_counts, minlength=n + 1)  # slots with each free count
    ends = np.cumsum(per_free)
    games = [(ends[f - 1], ends[f], min(group, f)) for f in range(1, n + 1) if per_free[f]]

    successes = [np.zeros(slots, dtype=tally) for _ in policies]
    all_same = [np.zeros(slots, dtype=bool) for _ in policies]
    # bit u set once user u was alone on its channel in some round of the slot
    delivered = [np.zeros(slots, dtype=np.int32) for _ in policies if not single]
    alone = [np.zeros(slots, dtype=np.uint8) for _ in delivered]  # a round's players alone, by slot
    draws = np.empty((min(_block_rows(group), slots), group))  # one block of priority draws
    for r in range(rounds):
        for first, end, size in games:
            for start in range(first, end, _block_rows(1)):
                span = slice(start, min(start + _block_rows(1), end))
                for i, (policy, alloc) in enumerate(zip(policies, allocs)):
                    scored = _play(policy, size, span.stop - start, alloc)
                    successes[i][span] += scored >> 1
                    all_same[i][span] |= (scored & 1).view(bool)
                    if not single:
                        alone[i][by_free[span]] = scored >> 1
        # in a mesh, a game's law is symmetric in its players, whose priority order is uniform and
        # apart from the game, so its k alone may be its first k: as k <= size, the group's k lowest draws
        bits = 1 << (r % n + np.arange(group, dtype=np.int32)) % n  # each member's user bit
        for start in range(0, 0 if single else slots, len(draws)):
            block = env.random(out=draws[:min(len(draws), slots - start)])
            # a slot every policy has delivered to all n users stays so
            common = functools.reduce(np.bitwise_and, (mask[start:start + len(block)] for mask in delivered))
            kept = np.flatnonzero(common != (1 << n) - 1)
            prefix = np.zeros((len(kept), group + 1), dtype=np.int32)
            np.bitwise_or.accumulate(bits.take(_priority_order(block[kept])), axis=1, out=prefix[:, 1:])
            kept += start
            for mask, k in zip(delivered, alone):
                mask[kept] |= prefix.take(np.arange(0, prefix.size, group + 1) + k.take(kept))
    for columns in (successes, all_same):  # the slot logs' columns, back in slot order
        for i, column in enumerate(columns):
            columns[i] = np.empty_like(column)
            columns[i][by_free] = column
    # attempts per free count: each player succeeded or collided
    attempts = (rounds * np.minimum(np.arange(n + 1), group)).astype(tally)
    total_attempts = int(per_free @ attempts)
    energy_spent = config.energy(total_attempts)
    results = []
    for i, succ in enumerate(successes):
        total_successes = int(succ.sum())
        metrics = MacMetrics(
            throughput=total_successes / slots,
            collision_rate=((total_attempts - total_successes) / total_attempts) if total_attempts else 0.0,
            all_distinct_rate=float(np.mean(succ == n if single else delivered[i] == (1 << n) - 1)),
            all_same_rate=float(np.mean(all_same[i])),
            energy_proxy=(energy_spent / total_successes) if total_successes else math.inf,
        )
        results.append((metrics, SlotLog(free_counts, succ, attempts, all_same[i])))
    return results


def run_cell(config: CellConfig, policies: Sequence[str]) -> list[tuple[MacMetrics, SlotLog]]:
    """Simulate one star cell under each listed policy: per slot, primary
    occupancy, then one square allocation game over the free channels.

    When f < n channels are free, f users play the f-channel game and the
    rest defer.  Which f play changes no star metric, so that choice is
    never drawn and the environment stream ends at occupancy.  This is the
    one-round mesh whose arbiter serves all n users and charges no
    arbitration.  Fully deterministic given the config.
    """
    if config.topology != TOPOLOGY_STAR:
        raise ConfigFormatError(f"run_cell needs topology={TOPOLOGY_STAR!r}, got {config.topology!r}")
    return _run_slots(config, policies)


def run_mesh_rounds(config: CellConfig, policies: Sequence[str]) -> list[tuple[MacMetrics, SlotLog]]:
    """Mesh variant per listed policy: one arbitration round per arbiter node per slot.

    Arbiter of round r is node r mod n; it serves itself plus its next
    ``mesh_degree`` ring neighbors (default: all other nodes) for
    ``mesh_rounds`` rounds (default: n).  Energy additionally charges one
    arbitration per round.  The slot log aggregates each slot over its
    rounds.
    """
    if config.topology != TOPOLOGY_MESH:
        raise ConfigFormatError(f"run_mesh_rounds needs topology={TOPOLOGY_MESH!r}, got {config.topology!r}")
    return _run_slots(config, policies)


@dataclass(frozen=True)
class PolicyComparison:
    """Per-policy metrics over a shared primary-occupancy sequence, as
    (policy kind, metrics) pairs in the order the policies were listed."""

    config: CellConfig
    runs: tuple[tuple[str, MacMetrics], ...]

    def all_distinct_ratios(self) -> dict[str, float | None]:
        """Each non-classical policy's all-distinct rate over the classical
        baseline's (None without a baseline or with a zero baseline)."""
        baseline = next((metrics.all_distinct_rate for policy, metrics in self.runs
                         if policy == CLASSICAL_UNIFORM), None)
        return {policy: metrics.all_distinct_rate / baseline if baseline else None
                for policy, metrics in self.runs if policy != CLASSICAL_UNIFORM}

    def to_dict(self) -> dict:
        """The summary document: config, per-policy metrics and ratios."""
        return {
            "config": asdict(self.config),
            "policies": [{"policy": policy, "metrics": metrics.to_dict()}
                         for policy, metrics in self.runs],
            "all_distinct_ratios": self.all_distinct_ratios(),
        }


def compare_policies(config: CellConfig, policies: Sequence[str],
                     csv: IO[str] | None = None) -> PolicyComparison:
    """Run every policy against the same primary-user occupancy sequence.

    One slot-engine call advances all policies in lockstep: occupancy and
    the defer choices are drawn once from the environment stream and
    shared, as common random numbers, while allocator sampling stays on
    independent per-policy streams.  Given a ``csv`` stream, writes the
    slot CSV there: the header, then each policy's rows in listed order.
    The slot engine's memory plan counts every policy's tallies, so it
    bounds the whole comparison.
    """
    if len(policies) < 2:
        raise ValueError("need at least two policies to compare")
    run = run_mesh_rounds if config.topology == TOPOLOGY_MESH else run_cell
    results = run(config, policies)
    if csv is not None:
        csv.write(SLOT_CSV_HEADER + "\n")
        for policy, (_, log) in zip(policies, results):
            log.write_csv(csv, policy)
    return PolicyComparison(config, tuple((policy, metrics) for policy, (metrics, _)
                                          in zip(policies, results)))


def load_run_spec(document: dict) -> tuple[CellConfig, list[str]]:
    """Build (CellConfig, policy kinds) from a plain JSON-style dict.

    The fields of :class:`CellConfig` are the schema, those without a
    default required, plus a ``policies`` list of at least two kind names.
    Unknown or missing fields raise :class:`ConfigFormatError` naming them.
    """
    if not isinstance(document, dict):
        raise ConfigFormatError(f"run spec must be a JSON object, got {type(document).__name__}")
    schema = fields(CellConfig)
    unknown = set(document) - {f.name for f in schema} - {"policies"}
    if unknown:
        raise ConfigFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = [f.name for f in schema if f.default is MISSING and f.name not in document]
    if missing:
        raise ConfigFormatError(f"missing field(s): {', '.join(missing)}")
    if "policies" not in document:
        raise ConfigFormatError("missing field(s): policies")
    kinds = document["policies"]
    if not isinstance(kinds, list) or len(kinds) < 2:
        raise ConfigFormatError("policies must be a list of at least two policy kind names")
    for kind in kinds:
        if kind not in POLICY_KINDS:
            raise ConfigFormatError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
    return CellConfig(**{f.name: document[f.name] for f in schema if f.name in document}), kinds
