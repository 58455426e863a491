"""Qudit simulator vs the closed-form oracle."""

import collections
import functools
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blocks,
    chain_block_ends,
    closed_form_amplitude,
    decode_counts,
    dense,
    factored_state,
    rotation_sweep,
    support_state,
)
from qmg import qudit
from qmg.game import (
    DimensionError,
    GameConfig,
    entangled_branches,
    phase_for_regime,
    strategy_matrix,
)
from qmg.circuit import build_preparation_circuit, qubits_per_user, register_to_qudit, run_circuit
from qmg.qudit import (
    ResourceLimitError,
    StateIntegrityError,
    PROB_FLOOR,
    apply_local_strategy,
    dump_nonzero,
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


@pytest.mark.parametrize("n", range(2, 17))
def test_constant_indices_exact(n):
    """(k, ..., k) sits at k * (n**n - 1) / (n - 1); at n = 16 the top
    indices exceed the int64 range, so the array is uint64."""
    indices = entangled_branches(GameConfig(n, 1))[0]
    assert indices.dtype == np.uint64
    assert indices.tolist() == [k * (n**n - 1) // (n - 1) for k in range(n)]


def test_prepare_two_user():
    state = prepare_entangled(GameConfig(2, 1))
    assert np.allclose(dense(state), [SQRT1_2, 0, 0, -SQRT1_2], atol=1e-12)


def test_prepare_four_user_no_phase():
    state = prepare_entangled(GameConfig(4, 0))
    assert state.indices.tolist() == [flat_index(4, (k,) * 4) for k in range(4)]
    assert np.allclose(state.amplitudes, 0.5, atol=1e-12)


def test_prepare_three_user_full_lap_phase():
    # phase 3 on 3 branches: every phase factor is a full turn
    state = prepare_entangled(GameConfig(3, 3))
    assert state.indices.size == 3
    assert np.allclose(state.amplitudes, 1 / math.sqrt(3), atol=1e-12)


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
    assert np.all(np.abs(same.amplitudes - dense(state)) < 1e-15)


def test_strategy_shape_mismatch():
    state = prepare_entangled(GameConfig(3, 1))
    with pytest.raises(DimensionError):
        apply_local_strategy(state, strategy_matrix(4))


def test_amplitude_matches_oracle_pointwise():
    state = final_state(4, 6)
    idx = flat_index(4, (0, 1, 2, 3))
    assert abs(state.amplitudes[idx]) ** 2 == pytest.approx(1 / 64, abs=1e-12)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_sweep_matches_kron_operator(n):
    """A random non-symmetric operator on every site equals the explicit
    Kronecker product with user 0 as the leftmost factor."""
    rng = np.random.default_rng(n)
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    amps = rng.normal(size=n**n) + 1j * rng.normal(size=n**n)
    amps /= np.linalg.norm(amps)
    operator = functools.reduce(np.kron, [matrix] * n)
    swept = apply_local_strategy(support_state(n, amps), matrix).amplitudes
    assert np.max(np.abs(swept - operator @ amps)) < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_strategy_matches_rotation_sweep(n):
    """Random operators on random sparse supports, and on the full support
    where it is small, against the rotation sweep over every amplitude; the
    input is left as it was."""
    rng = np.random.default_rng(100 + n)
    for size in [1, n, min(3 * n, n**n)] + [n**n] * (n <= 4):
        matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        amps = np.zeros(n**n, dtype=np.complex128)
        support = rng.choice(n**n, size=size, replace=False)
        amps[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = support_state(n, amps)
        before = state.indices.copy(), state.amplitudes.copy()
        result = apply_local_strategy(state, matrix).amplitudes
        expected = rotation_sweep(amps, matrix)
        assert np.max(np.abs(result - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(state.indices, before[0]) and np.array_equal(state.amplitudes, before[1])


@pytest.mark.parametrize("n", range(2, 9))
def test_final_amplitudes_match_closed_form(n):
    """Every final amplitude against the paper's closed form: n^((1-n)/2)
    where (p + sum c) = 0 mod n, and nothing elsewhere.  Each row of the
    (n**(n-1), n) view fixes all users but the last, whose digit alone puts
    the row's one support amplitude in its column."""
    lead_sums = sum(np.ix_(*[np.arange(n)] * (n - 1))).reshape(-1)
    rows = np.arange(n ** (n - 1))
    for p in {0, 1, n - 1, n * (n - 1) // 2, 2 * n + 3}:
        amps = final_state(n, p).amplitudes.reshape(-1, n)
        column = (-p - lead_sums) % n
        assert np.max(np.abs(amps[rows, column] - n ** ((1 - n) / 2))) < 1e-15
        amps[rows, column] = 0
        assert np.max(np.abs(amps)) ** 2 < 1e-30


def test_strategy_plans_its_factors(monkeypatch):
    """A broad support is planned before the factors are built: at n = 4 the
    full support needs 32 factor entries per support state, and no n**n
    state is built."""
    full = support_state(4, np.full(256, 1 / 16, dtype=np.complex128))
    monkeypatch.setattr(qudit, "PHYSICAL_MEMORY", 16 * 32 * 256 - 1)
    with pytest.raises(ResourceLimitError):
        apply_local_strategy(full, strategy_matrix(4))
    apply_local_strategy(prepare_entangled(GameConfig(4, 1)), strategy_matrix(4))


def test_site_order_independence():
    """Local operators on distinct sites commute: contracting the sites in
    any order gives apply_local_strategy's result."""
    state = prepare_entangled(GameConfig(4, 1))
    m = strategy_matrix(4)
    reference = apply_local_strategy(state, m).amplitudes
    for order in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
        psi = dense(state).reshape((4,) * 4)
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
    probs = np.abs(dense(prepare_entangled(GameConfig(4, 1)))) ** 2
    constants = [flat_index(4, (k,) * 4) for k in range(4)]
    assert list(np.nonzero(probs > PROB_FLOOR)[0]) == constants
    assert np.allclose(probs[constants], 0.25, atol=1e-12)


def test_distribution_drops_floor_entries():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    amps[3] = 1e-9  # probability 1e-18, below the floor
    stream = io.StringIO()
    assert dump_nonzero(factored_state(2, amps), stream) == 1
    assert stream.getvalue().split()[0] == "0"


def test_distribution_sums_to_one():
    for n, p in ((3, 3), (4, 6), (5, 1)):
        probs = np.abs(final_state(n, p).amplitudes) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_measure_two_user_outcomes_only():
    counts = sample_counts(final_state(2, 1), np.random.default_rng(5), 100)
    assert set(decode_counts(2, counts)) == {(0, 1), (1, 0)}


@given(n=st.integers(2, 7), data=st.data())
@settings(max_examples=30, deadline=None)
def test_measure_point_mass(n, data):
    """Every draw of a point mass decodes back to its assignment."""
    t = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    amps = np.zeros(n**n, dtype=np.complex128)
    amps[flat_index(n, t)] = 1.0
    assert decode_counts(n, sample_counts(factored_state(n, amps), np.random.default_rng(0), 20)) == {t: 20}


def test_measure_rejects_unnormalized():
    state = factored_state(2, np.full(4, 0.4))
    with pytest.raises(StateIntegrityError):
        sample_counts(state, np.random.default_rng(0), 10)


def test_measure_deterministic_given_seed():
    state = final_state(3, 3)
    a = sample_counts(state, np.random.default_rng(9), 30)
    b = sample_counts(state, np.random.default_rng(9), 30)
    assert a.tolist() == b.tolist()


def test_sample_counts_lexicographic_order():
    rows = sample_counts(final_state(4, 6), np.random.default_rng(4), 5_000)
    assert len(rows) > 1
    assert rows[:, 0].tolist() == sorted(rows[:, 0].tolist())


def test_measured_all_distinct_fraction():
    # enhance regime at n=3: expect 3*3!/27 = 2/3 all-distinct outcomes
    counts = decode_counts(3, sample_counts(final_state(3, 3), np.random.default_rng(123), 100_000))
    assert sum(counts.values()) == 100_000
    distinct = sum(c for t, c in counts.items() if len(set(t)) == 3)
    sigma = math.sqrt((2 / 3) * (1 / 3) / 100_000)
    assert abs(distinct / 100_000 - 2 / 3) < 3 * sigma


def test_sample_counts_zero_shots():
    rows = sample_counts(final_state(2, 1), np.random.default_rng(0), 0)
    assert rows.shape == (0, 2) and rows.dtype == np.int64


def unsorted_sample_counts(state, rng, shots):
    """Reference sampler: one inverse-CDF lookup per draw, in draw order, over
    the cumulative sums of the state's blocks, concatenated."""
    probs = np.abs(blocks(state)) ** 2
    cumulative = np.cumsum(probs)
    draws = np.searchsorted(cumulative, rng.random(shots) * cumulative[-1], side="right")
    counts = collections.Counter(np.minimum(draws, probs.size - 1).tolist())
    return np.array(sorted(counts.items()), dtype=np.int64).reshape(-1, 2)


def assert_same_rows(rows, expected):
    assert rows.dtype == np.int64 and rows.shape == expected.shape
    assert rows.tolist() == expected.tolist()


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
@pytest.mark.parametrize("shots", (0, 1, 100_000))
def test_sample_counts_matches_unsorted_reference(n, regime, shots):
    """Same counts, same order and the same random numbers used as the
    draw-order reference at the same seed."""
    state = final_state(n, phase_for_regime(regime, n))
    rng, reference_rng = np.random.default_rng(shots + n), np.random.default_rng(shots + n)
    assert_same_rows(sample_counts(state, rng, shots), unsorted_sample_counts(state, reference_rng, shots))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def block_sizes(state):
    """SAMPLE_BLOCK values that make blocks of 1, 2, all but one, all, and more
    than all left rows."""
    rows = len(state.left)
    return sorted({r * len(state.right) for r in (1, 2, rows - 1, rows, rows + 1)})


@pytest.mark.parametrize("engine, n", [("qudit", n) for n in range(2, 9)]
                         + [("circuit", n) for n in (2, 4, 8)])
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
def test_production_blocks_are_the_whole_product(regime, engine, n):
    """The blocks the sampler and the state dump compute, whole left rows at
    SAMPLE_BLOCK, are bit for bit the whole product left @ right.T, so no
    histogram or dump byte depends on the blocking.  Blocks that split a row,
    or hold fewer rows, can differ in the last bit."""
    config = GameConfig(n, phase_for_regime(regime, n))
    if engine == "qudit":
        start = prepare_entangled(config)
    else:
        register = run_circuit(build_preparation_circuit(config), n * qubits_per_user(n))
        start = register_to_qudit(register, n)
    state = apply_local_strategy(start, strategy_matrix(n))
    whole = (state.left @ state.right.T).reshape(-1).view(np.uint64)
    width = len(state.right)
    for row in state.blocks():
        block = state.block(row).view(np.uint64)
        assert np.array_equal(block, whole[row * width * 2:row * width * 2 + block.size])
    assert row * width + block.size // 2 == n**n


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
def test_blocked_sampler_matches_whole_vector_reference(monkeypatch, n, regime):
    """Summed block by block, the sampler keeps the rows, their order and the
    random-number use of a whole-vector reference over the same amplitudes, for
    every block size: the support's zero-probability runs cross block edges,
    and blocks hold one left row, two, all but one, all, or more than all."""
    state = final_state(n, phase_for_regime(regime, n))
    for block in block_sizes(state):
        monkeypatch.setattr(qudit, "SAMPLE_BLOCK", block)
        for shots in (0, 1, 2_000):
            rng, reference_rng = np.random.default_rng(block + shots), np.random.default_rng(block + shots)
            assert_same_rows(sample_counts(state, rng, shots),
                             unsorted_sample_counts(state, reference_rng, shots))
            assert rng.bit_generator.state == reference_rng.bit_generator.state


class FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        return np.array(self.values[:size], dtype=np.float64)


def test_blocked_sampler_uniform_on_a_block_end(monkeypatch):
    """Dyadic probabilities put the cumulative sums exactly on block ends, and
    the uniforms land on them: a uniform equal to a block's last sum belongs to
    the first later amplitude with more probability, past any zeros (here a
    whole row of them), and one equal to the total is clamped to the last
    amplitude, as in the reference."""
    amplitudes = np.zeros(27, dtype=np.complex128)
    amplitudes[[0, 8, 20, 23]] = 0.5  # left rows of 9; the first two rows end at 1/2, the last at 1
    state = factored_state(3, amplitudes)
    uniforms = [0.0, 0.25, 0.5, 0.75, 0.999, 1.0, 0.5 - 2**-53, 0.125]
    for block in block_sizes(state):
        monkeypatch.setattr(qudit, "SAMPLE_BLOCK", block)
        for shots in (0, 1, len(uniforms)):
            assert_same_rows(sample_counts(state, FixedUniforms(uniforms), shots),
                             unsorted_sample_counts(state, FixedUniforms(uniforms), shots))
    assert unsorted_sample_counts(state, FixedUniforms(uniforms), len(uniforms)).tolist() == [
        [0, 2], [8, 2], [20, 1], [23, 2], [26, 1]]


GAME_STATES = [(engine, n, regime) for engine, ns in (("qudit", range(2, 9)), ("circuit", (2, 4, 8)))
               for n in ns for regime in ("enhance-optimum", "avoid-worst")]


def game_state(engine, n, regime):
    """The game's final state from the qudit or the circuit engine's start state."""
    config = GameConfig(n, phase_for_regime(regime, n))
    if engine == "qudit":
        start = prepare_entangled(config)
    else:
        start = register_to_qudit(run_circuit(build_preparation_circuit(config), n * qubits_per_user(n)), n)
    return apply_local_strategy(start, strategy_matrix(n))


def cancelling_state():
    """A 3-user state whose middle left row has no mass: the right factor's
    second column is its first times z and that row is (z, -1), so its
    amplitudes cancel, while the Gram product rounds its mass to a few ulps
    either side of 0 (below it on the default kernel)."""
    rng = np.random.default_rng(2)
    first = rng.normal(size=9) + 1j * rng.normal(size=9)
    z = rng.normal() + 1j * rng.normal()
    a = 1 / (np.linalg.norm(first) * math.sqrt(2))
    return qudit.FactoredState(3, np.array([[a, 0], [z, -1], [a, 0]]), np.column_stack((first, first * z)))


def dyadic_state():
    """test_blocked_sampler_uniform_on_a_block_end's state, whose middle row of 9 is all zeros."""
    amplitudes = np.zeros(27, dtype=np.complex128)
    amplitudes[[0, 8, 20, 23]] = 0.5
    return factored_state(3, amplitudes)


def random_state():
    """A 5-user state from random complex factors over 3 columns, scaled to norm 1:
    unlike the game's, its Gram matrix is not real."""
    rng = np.random.default_rng(5)
    left, right = (rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3)) for rows in (25, 125))
    return qudit.FactoredState(5, left / np.linalg.norm(left @ right.T), right)


STATES = [*GAME_STATES, "dyadic", "cancelling", "random"]


def state_case(case):
    """The state a STATES entry names."""
    named = {"dyadic": dyadic_state, "cancelling": cancelling_state, "random": random_state}
    return named[case]() if case in named else game_state(*case)


def case_id(case):
    return "-".join(map(str, case)) if isinstance(case, tuple) else case


@pytest.mark.parametrize("case", STATES, ids=case_id)
def test_sampler_gram_carries_match_the_summed_chain(monkeypatch, case):
    """Each block's end as the sampler takes it from the factors' Gram matrix,
    at the production block size and at one left row per block, agrees with
    the chain of cumulative sums through every amplitude within that chain's
    own rounding bound, (k + 64) * 2**-53 of the total after k amplitudes, and
    with the blocks' pairwise sums, accumulated, within 64 ulps of the total.
    At n = 7 the chain ends about 2.4e4 ulps from the other two, which agree
    within 11 ulps."""
    state = state_case(case)
    for block in (qudit.SAMPLE_BLOCK, 1):
        monkeypatch.setattr(qudit, "SAMPLE_BLOCK", block)
        ends, chain = qudit._block_ends(state), chain_block_ends(state)
        rows = np.minimum(np.arange(1, ends.size + 1) * state.blocks().step, len(state.left))
        assert np.all(np.abs(ends - chain) <= (rows * len(state.right) + 64) * 2**-53 * chain[-1])
        pairwise = np.cumsum([np.sum(np.abs(state.block(row)) ** 2) for row in state.blocks()])
        assert np.all(np.abs(ends - pairwise) <= 64 * np.spacing(pairwise[-1]))


@pytest.mark.parametrize("case", STATES, ids=case_id)
def test_sampler_one_row_blocks_count_every_shot_once(monkeypatch, case):
    """With one left row per block, the block ends never decrease, even past a
    row of zero mass that the Gram product rounds below 0, so every uniform
    falls in exactly one block: the counts sum to the shots and the flat
    indices strictly increase, with uniforms drawn at random and placed on and
    a few ulps either side of every block end."""
    state = state_case(case)
    monkeypatch.setattr(qudit, "SAMPLE_BLOCK", 1)
    ends = qudit._block_ends(state)
    assert np.all(np.diff(ends) >= 0)
    edges = (ends[:, None] / ends[-1]) * (1 + np.arange(-4, 5) * 2.0**-52)
    uniforms = np.concatenate((np.random.default_rng(len(ends)).random(20_000), edges[edges <= 1.0]))
    rows = sample_counts(state, FixedUniforms(uniforms), uniforms.size)
    assert rows[:, 1].sum() == uniforms.size
    assert np.all(np.diff(rows[:, 0]) > 0)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
def test_sampler_memory_plan_covers_the_peak(monkeypatch, regime, n):
    """The bytes the sampler plans before it draws bound the tracemalloc
    peak of the call: the factors, one block's amplitudes and cumulative sums
    and per block a header allowance, per shot the uniforms and one block's
    draws with the mask of their changes, per outcome drawn one block's run
    lengths and the rows kept and concatenated, and a fixed allowance per call.
    At n = 7 and 8 the state spans several blocks."""
    state = final_state(n, phase_for_regime(regime, n))
    sample_counts(state, np.random.default_rng(0), 10)  # one-time allocations stay out of the peak
    planned = []
    monkeypatch.setattr(qudit, "check_footprint", lambda planned_bytes, what: planned.append(planned_bytes))
    tracemalloc.start()
    try:
        sample_counts(state, np.random.default_rng(1), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= planned[0]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
def test_oracle_equivalence(n, regime):
    """End-to-end simulator vs closed form, every tuple, both regimes."""
    cfg = GameConfig(n, phase_for_regime(regime, n))
    state = apply_local_strategy(prepare_entangled(cfg), strategy_matrix(n))
    probs = np.abs(state.amplitudes) ** 2
    for i, t in enumerate(itertools.product(range(n), repeat=n)):
        expected = closed_form_amplitude(n, cfg.phase, t) ** 2
        assert abs(probs[i] - expected) < 1e-10


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("source", ("final-state", "random"))
def test_dump_matches_per_line_reference(monkeypatch, n, source):
    """The block writer emits exactly the lines of a one-line-per-amplitude
    loop over float.__repr__ of the same blocks, across block boundaries: the
    game's final states, and random amplitudes with zeros (signed in the input,
    +0 out of the factors' product) and entries just above and just below the
    probability floor."""
    values = None
    if source == "final-state":
        state = final_state(n, 1)
    else:
        rng = np.random.default_rng(n)
        amplitudes = rng.normal(size=n**n) + 1j * rng.normal(size=n**n)
        amplitudes[::5] = 0
        just_above, just_below = np.sqrt(PROB_FLOOR) * (1 + 1e-9), np.sqrt(PROB_FLOOR) * (1 - 1e-9)
        amplitudes[1::5] = rng.choice([-0.0, 0.0], size=len(amplitudes[1::5])) + 1j * just_above
        amplitudes[2::5] = just_below
        state, values = factored_state(n, amplitudes), amplitudes
    monkeypatch.setattr(qudit, "SAMPLE_BLOCK", 1)  # one left row per block
    amplitudes = blocks(state)
    assert values is None or np.array_equal(amplitudes, values)
    stream = io.StringIO()
    written = dump_nonzero(state, stream)
    expected = [f"{i} {float.__repr__(float(a.real))} {float.__repr__(float(a.imag))}\n"
                for i, a in enumerate(amplitudes.tolist()) if abs(a) ** 2 > PROB_FLOOR]
    assert stream.getvalue() == "".join(expected)
    assert written == len(expected) >= 2


def test_dump_nonzero_lines(tmp_path):
    state = factored_state(3, dense(prepare_entangled(GameConfig(3, 1))))
    path = tmp_path / "state.txt"
    with open(path, "w") as fh:
        written = dump_nonzero(state, fh)
    lines = path.read_text().splitlines()
    assert written == len(lines) == 3
    index, re, im = lines[0].split()
    assert int(index) == 0
    assert complex(float(re), float(im)) == pytest.approx(state.amplitudes[0])
