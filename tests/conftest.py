"""Shared test helpers, including the game's closed form as an independent
reference: the library samples from the support law but does not evaluate
amplitudes, so the tests state the law themselves."""

import cmath
import collections
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qmg import mac
from qmg.circuit import QubitRegister
from qmg.qudit import FactoredState, QuditState, _cumulative


def in_support(n, phase, outcome) -> bool:
    """The support law: an assignment is reachable iff (phase + sum) % n == 0."""
    return (phase + sum(outcome)) % n == 0


def closed_form_amplitude(n, phase, outcome) -> float:
    """Final amplitude of an assignment: n^((1-n)/2) on the support, else 0."""
    return n ** ((1 - n) / 2) if in_support(n, phase, outcome) else 0.0


def brute_amplitude(n, p, t):
    """Oracle: the interference sum evaluated term by term, no reductions."""
    total = sum(cmath.exp(2j * math.pi * k * (p + sum(t)) / n) for k in range(n))
    return total * n ** (-(n + 1) / 2)


#: the phase of the size-f game under each MAC policy; None is the classical rule
PHASES = {
    "classical-uniform": lambda f: None,
    "quantum-enhance-optimum": lambda f: f * (f - 1) // 2,
    "quantum-avoid-worst": lambda f: 1,
}


def support_tallies(f, phase):
    """Oracle: (successes, all-same) of every equally likely outcome of the
    size-f game, by enumeration: every digit tuple with (phase + sum) % f == 0,
    or all f^f tuples when phase is None."""
    tallies = []
    for digits in itertools.product(range(f), repeat=f):
        if phase is not None and (phase + sum(digits)) % f:
            continue
        load = collections.Counter(digits)
        tallies.append((sum(load[d] == 1 for d in digits), f >= 2 and len(load) == 1))
    return tallies


def star_moments(n, activity, phase):
    """Oracle: exact (mean, variance) per slot of a star policy's successes,
    all-distinct and all-same indicators, keyed by their metric names: the
    free count is Binom(n, 1 - activity), and the size-f game is uniform over
    support_tallies(f, phase(f))."""
    a = Fraction(str(activity))
    sums = {"throughput": [0, 0], "all_distinct_rate": [0, 0], "all_same_rate": [0, 0]}
    for f in range(n + 1):
        tallies = support_tallies(f, phase(f)) if f else [(0, False)]
        weight = math.comb(n, f) * (1 - a) ** f * a ** (n - f) / len(tallies)
        for successes, same in tallies:
            for key, x in (("throughput", successes), ("all_distinct_rate", successes == n),
                           ("all_same_rate", same)):
                sums[key][0] += weight * x
                sums[key][1] += weight * x * x
    return {key: (m1, m2 - m1 * m1) for key, (m1, m2) in sums.items()}


def python_int_law(n):
    """Oracle: counts of the n**n size-n tuples by (digit sum mod n, players
    alone on their channel), a channel-by-channel DP over dicts of Python ints,
    so no count can wrap."""
    states = {(0, 0, 0): 1}  # (players placed, digit sum mod n, players alone) -> tuples
    for c in range(n):
        placed = collections.Counter()
        for (j, r, s), count in states.items():
            for k in range(n - j + 1):
                placed[j + k, (r + c * k) % n, s + (k == 1)] += count * math.comb(n - j, k)
        states = placed
    return {(r, s): count for (j, r, s), count in states.items() if j == n}


def decode_counts(n, rows) -> dict[tuple[int, ...], int]:
    """Key a sampler's (flat index, count) rows by assignment tuple, in the same
    order.  The digits come from repeated divmod by n; user 0 is most significant."""
    decoded = {}
    for index, count in rows.tolist():
        digits = []
        for _ in range(n):
            index, digit = divmod(index, n)
            digits.append(digit)
        decoded[tuple(reversed(digits))] = count
    return decoded


def histogram_text(fmt, n, rows, *, phase, engine, seed, shots) -> str:
    """Oracle: the text `qmg simulate` writes for a sampler's rows, one row at a
    time, each outcome spelled by joining its decoded digits with '-'."""
    labelled = {"-".join(map(str, outcome)): count for outcome, count in decode_counts(n, rows).items()}
    if fmt == "json":
        record = {"n": n, "phase": phase, "engine": engine, "seed": seed, "shots": shots,
                  "counts": labelled}
        return json.dumps(record, indent=2, sort_keys=True) + "\n"
    return "outcome,count,frequency\n" + "".join(
        f"{label},{count},{count / shots!r}\n" for label, count in labelled.items())


def colliders(log) -> np.ndarray:
    """A slot log's colliding transmissions per slot: each attempt succeeded or collided."""
    return log.attempts[log.free_counts] - log.successes


def slot_columns(log) -> tuple[np.ndarray, ...]:
    """A slot log's per-slot columns in slot-CSV order: free channels,
    successes, colliders and the all-same flag."""
    return log.free_counts, log.successes, colliders(log), log.all_same


def mesh_delivery_masks(config, policies) -> list[list[np.ndarray]]:
    """Reference: after each round of a mesh run, each policy's per-slot delivery masks,
    bit u set once user u was alone in some round of the slot, replayed with no slot
    skipped.  The environment stream gives occupancy, then per round every slot's
    priority draws, each row put in member order by a stable argsort; each policy's
    allocator stream gives the round's games through ``mac._play``, free counts
    ascending, slots of one count in slot order.  A game of k successes delivers its
    slot's first k members."""
    n, group = config.n_users, config.group
    env = mac._stream(config.seed, mac._ENV_STREAM)
    allocs = [mac._stream(config.seed, mac._ALLOC_STREAM, mac.POLICY_KINDS.index(p)) for p in policies]
    free = (env.random((config.slots, n)) >= config.primary_activity).sum(axis=1)
    masks, after = [np.zeros(config.slots, dtype=np.int64) for _ in policies], []
    for r in range(config.rounds):
        members = (r + np.argsort(env.random((config.slots, group)), axis=1, kind="stable")) % n
        for policy, alloc, mask in zip(policies, allocs, masks):
            alone = np.zeros(config.slots, dtype=np.int64)
            for f in range(1, n + 1):
                at = np.flatnonzero(free == f)
                alone[at] = mac._play(policy, min(group, f), len(at), alloc) >> 1
            first = np.arange(group) < alone[:, None]  # each slot's first k members
            mask |= np.bitwise_or.reduce(np.where(first, 1 << members, 0), axis=1)
        after.append([mask.copy() for mask in masks])
    return after


def rotation_sweep(amplitudes, matrix) -> np.ndarray:
    """Oracle: the same operator on every site of all n**n amplitudes, one
    site at a time.  Each step contracts the leading site and rotates it to
    the back; n rotations restore the site order."""
    n = matrix.shape[0]
    psi = amplitudes
    for _ in range(n):
        psi = (matrix @ psi.reshape(n, -1)).T.copy()
    return psi.reshape(-1)


def dense(state) -> np.ndarray:
    """Every amplitude of a state held by its support, a circuit register's
    2**width or a start state's n**n, with zeros off the support."""
    size = 2**state.width if isinstance(state, QubitRegister) else state.n**state.n
    amplitudes = np.zeros(size, dtype=np.complex128)
    amplitudes[state.indices] = state.amplitudes
    return amplitudes


def support_state(n, amplitudes) -> QuditState:
    """The start state with the given n**n amplitudes: their nonzero entries."""
    indices = np.flatnonzero(amplitudes)
    return QuditState(n, indices, amplitudes[indices])


def factored_state(n, amplitudes) -> FactoredState:
    """A final state whose product is the given n**n amplitudes: the leading
    factor holds them row by row and the trailing one is the identity, so every
    block keeps each value exactly, except that a zero comes out as +0."""
    right = np.eye(n ** (n - n // 2), dtype=np.complex128)
    return FactoredState(n, np.asarray(amplitudes, dtype=np.complex128).reshape(-1, len(right)), right)


def blocks(state) -> np.ndarray:
    """The amplitudes the sampler and the state dump compute, the state's
    blocks of whole left rows at the current block size, concatenated."""
    return np.concatenate([state.block(row) for row in state.blocks()])


def chain_block_ends(state) -> np.ndarray:
    """Oracle: the probability sums up to each block's end, as one cumulative
    sum chained through the blocks amplitude by amplitude, each block continued
    from the end of the one before."""
    ends = [0.0]
    for row in state.blocks():
        ends.append(_cumulative(state, row, ends[-1])[-1])
    return np.array(ends[1:])


def dense_run_circuit(gates, width) -> np.ndarray:
    """Oracle: the dense circuit engine, all 2**width amplitudes of the
    (2,)*width tensor, each gate acting on the view its controls select.
    Its phase gates also scale the zeros off the support, which can leave
    them as -0."""
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
            # a run of X gates sharing one control pattern is one relocation:
            # flipping a qubit reverses its axis
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
            diff = (v0 - v1) if gate.kind == "h" else (v1 - v0)
            np.add(v0, v1, out=v0)
            v0 *= 1.0 / math.sqrt(2.0)
            diff *= 1.0 / math.sqrt(2.0)
            v1[...] = diff
    return amplitudes


def _read_histogram(path) -> dict[tuple[int, ...], int]:
    """Re-read a histogram CSV written by `qmg simulate`."""
    counts: dict[tuple[int, ...], int] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        outcome, count, _ = line.split(",")
        counts[tuple(int(tok) for tok in outcome.split("-"))] = int(count)
    return counts


@pytest.fixture
def read_histogram():
    return _read_histogram
