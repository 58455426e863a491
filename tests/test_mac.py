"""Slotted-MAC simulation: baselines, support guarantees, determinism, mesh."""

import dataclasses
import io
import json
import math
import tracemalloc
import typing
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from conftest import PHASES, colliders, mesh_delivery_masks, slot_columns, support_tallies
from qmg import cli, mac
from qmg.game import outcome_law
from qmg.mac import (
    CLASSICAL_UNIFORM,
    MAX_MESH_ROUNDS,
    QUANTUM_AVOID_WORST,
    QUANTUM_ENHANCE_OPTIMUM,
    SLOT_CSV_HEADER,
    TEXT_BLOCK_ROWS,
    CellConfig,
    ConfigFormatError,
    MacMetrics,
    SlotLog,
    compare_policies,
    load_run_spec,
    run_cell,
    run_mesh_rounds,
)

CLASSICAL, ENHANCE, AVOID = CLASSICAL_UNIFORM, QUANTUM_ENHANCE_OPTIMUM, QUANTUM_AVOID_WORST


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
    with pytest.raises(ConfigFormatError, match="arbitration round"):
        cell(topology="mesh-rounds", mesh_rounds=0)
    assert cell(topology="mesh-rounds", mesh_rounds=MAX_MESH_ROUNDS).mesh_rounds == MAX_MESH_ROUNDS
    with pytest.raises(ConfigFormatError, match=f"1 to {MAX_MESH_ROUNDS} arbitration rounds"):
        cell(topology="mesh-rounds", mesh_rounds=MAX_MESH_ROUNDS + 1)
    with pytest.raises(ConfigFormatError):
        cell(activity=True)
    with pytest.raises(ConfigFormatError):
        cell(tx_cost="1.0")
    assert cell(activity=1, tx_cost=2).tx_cost == 2  # ints are numbers too


@pytest.mark.parametrize("costs, finite", (
    ({"tx_cost": 1e308}, False),
    ({"tx_cost": 1e303}, True),  # 10_000 slots of 4 attempts
    ({"arbitration_cost": 1e308}, True),  # a star charges no arbitration
    ({"topology": "mesh-rounds", "arbitration_cost": 1e305}, False),
    ({"topology": "mesh-rounds", "mesh_rounds": 2, "mesh_degree": 1, "tx_cost": 2e303}, True),
    ({"topology": "mesh-rounds", "tx_cost": 2e303}, False),  # 4 rounds of 4 players, not 2 of 2
), ids=("star-tx", "star-tx-finite", "star-arbitration", "mesh-arbitration", "mesh-tx-finite", "mesh-tx"))
def test_config_bounds_the_worst_case_energy(costs, finite):
    """A config whose energy would overflow if every player of every round
    transmitted is refused, so that an infinite energy_proxy means only that
    nothing succeeded."""
    if finite:
        cell(**costs)
    else:
        with pytest.raises(ConfigFormatError, match="worst-case energy of 10000 slots finite"):
            cell(**costs)


def test_policy_kind_checked(tmp_path, capsys):
    """A policy is its kind name: an unknown name is a config error, in the
    loader and at the command line."""
    spec = good_spec() | {"policies": [CLASSICAL_UNIFORM, "quantum-perfect"]}
    with pytest.raises(ConfigFormatError, match="unknown policy kind 'quantum-perfect'"):
        load_run_spec(spec)
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["mac", str(path), "--out", str(tmp_path / "run")]) == 3
    assert "config error: unknown policy kind 'quantum-perfect'" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


# --- star cell ---------------------------------------------------------------

def test_zero_slots_rejected():
    with pytest.raises(ConfigFormatError, match="slots must be positive"):
        run_cell(cell(slots=0), [CLASSICAL])


def test_two_user_quantum_always_distinct():
    metrics, log = run_cell(cell(n=2, slots=2_000), [AVOID])[0]
    assert metrics.all_distinct_rate == 1.0
    assert metrics.collision_rate == 0.0
    assert metrics.throughput == 2.0
    assert np.all(log.successes == 2)


def test_avoid_worst_never_all_same():
    metrics, _ = run_cell(cell(slots=100_000), [AVOID])[0]
    assert metrics.all_same_rate == 0.0


@pytest.mark.parametrize("n", (2, 3, 4))
def test_classical_baseline_moments(n):
    """Empirical all-distinct / all-same rates against n!/n^n and n^(1-n)."""
    slots = 1_000_000
    metrics, _ = run_cell(cell(n=n, slots=slots, seed=99), [CLASSICAL])[0]
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
    first, log_a = run_cell(config, [ENHANCE])[0]
    second, log_b = run_cell(config, [ENHANCE])[0]
    assert first == second
    for ours, theirs in zip(slot_columns(log_a), slot_columns(log_b)):
        assert np.array_equal(ours, theirs)


def test_same_policy_twice_identical():
    (_, first), (_, second) = compare_policies(cell(activity=0.2, slots=5_000), [AVOID, AVOID]).runs
    assert first == second


def test_compare_policies_streams_the_slot_csv():
    """The slot CSV is the header, then each listed policy's rows in order,
    a repeated policy included; the metrics are those of a run without one."""
    config, policies = cell(activity=0.2, slots=2_000), [AVOID, CLASSICAL, AVOID]
    stream = io.StringIO()
    comparison = compare_policies(config, policies, stream)
    expected = io.StringIO()
    expected.write(SLOT_CSV_HEADER + "\n")
    for policy in policies:
        run_cell(config, [policy])[0][1].write_csv(expected, policy)
    assert stream.getvalue() == expected.getvalue()
    assert comparison == compare_policies(config, policies)


def test_compare_policies_csv_matches_per_row_oracle(monkeypatch):
    """With 7-row text blocks, a three-policy comparison writes the header,
    then for each listed policy one f-string row per slot, across slot-number
    digit widths and the last four digits' wrap at 10**4."""
    monkeypatch.setattr(mac, "TEXT_BLOCK_ROWS", 7)
    config, policies = cell(activity=0.3, slots=10_003, seed=23), [ENHANCE, CLASSICAL, AVOID]
    stream = io.StringIO()
    compare_policies(config, policies, stream)
    expected = [SLOT_CSV_HEADER + "\n"]
    for policy, (_, log) in zip(policies, run_cell(config, policies)):
        columns = slot_columns(log)
        expected += [f"{slot},{f},{policy},{s},{c},{int(a)}\n"
                     for slot, (f, s, c, a) in enumerate(zip(*(column.tolist() for column in columns)))]
    assert stream.getvalue() == "".join(expected)


@pytest.mark.parametrize("block", (1, 7, 4096))
@pytest.mark.parametrize("n, slots, activity, mesh", (
    (5, 600, 0.3, None), (5, 600, 0.3, {}), (5, 600, 0.3, {"mesh_degree": 2}),
    (16, 2_500, 0.3, {"mesh_rounds": 3}),  # three default priority blocks of 1024 rows
    (4, 600, 0.0, {"mesh_rounds": 16}),  # most slots delivered to all four users in a few rounds
), ids=("star", "full-mesh", "mesh-degree-2", "full-mesh-16", "full-mesh-closing"))
def test_engine_block_changes_nothing(monkeypatch, n, slots, activity, mesh, block):
    """The slot engine draws occupancy and priorities and scores each game in
    blocks of rows sized from ENGINE_CELLS; the metrics and slot logs of any
    block size are those of the default blocks, also when a block of priority
    draws mixes slots already delivered to every user with open ones."""
    config = cell(n=n, activity=activity, slots=slots, seed=13,
                  **({"topology": "star"} if mesh is None else {"topology": "mesh-rounds", **mesh}))
    run = run_cell if mesh is None else run_mesh_rounds
    policies = [CLASSICAL, ENHANCE, AVOID]
    whole = run(config, policies)
    monkeypatch.setattr(mac, "_block_rows", lambda width: block)
    for (metrics, log), (whole_metrics, whole_log) in zip(run(config, policies), whole):
        assert metrics == whole_metrics
        for ours, theirs in zip(slot_columns(log), slot_columns(whole_log)):
            assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("size", range(2, 17))
def test_integer_draws_in_chunks_equal_one_draw(size):
    """The engine's blocks rest on this numpy property: integers drawn with
    ``integers()`` in odd-sized chunks are those of one whole draw, whether or
    not the bound is a power of two: channel digits below the game size, and
    the engine's uint64 draws below the size-``size`` game's outcome counts
    size**size (2**64 at 16) and size**(size - 1).  PCG64 keeps the spare
    32-bit half of a 64-bit word between calls, so a chunk boundary skips no
    bits, and a draw above 2**32 takes whole words."""
    edges = [0, 1, 4, 11, 100, 357, 1_000]
    for high, dtype, shape in ((size, np.int64, (size,)), (size**size, np.uint64, ()),
                               (size ** (size - 1), np.uint64, ())):
        whole = np.random.default_rng(size).integers(0, high, size=(1_000, *shape), dtype=dtype)
        rng = np.random.default_rng(size)
        chunks = [rng.integers(0, high, size=(stop - start, *shape), dtype=dtype)
                  for start, stop in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(chunks), whole)


@pytest.mark.parametrize("n", (2, 4, 16))
@pytest.mark.parametrize("topology, degree", (("star", None), ("mesh-rounds", None), ("mesh-rounds", 2)),
                         ids=("star", "full-mesh", "mesh-degree-2"))
def test_lockstep_policies_match_their_own_runs(topology, degree, n):
    """One engine pass over three policies gives each the metrics and slot
    log of its own one-policy run, whatever order they are listed in."""
    mesh = {"mesh_degree": min(degree, n - 1)} if degree else {}  # degree 2 is the full mesh at n = 2
    config = cell(n=n, activity=0.3, slots=3_000, seed=41, topology=topology, **mesh)
    run = run_mesh_rounds if topology == "mesh-rounds" else run_cell
    policies = [CLASSICAL, ENHANCE, AVOID]
    alone = {policy: run(config, [policy])[0] for policy in policies}
    for listed in (policies, policies[::-1]):
        assert compare_policies(config, listed).runs == tuple((p, alone[p][0]) for p in listed)
        for policy, (metrics, log) in zip(listed, run(config, listed)):
            assert metrics == alone[policy][0]
            for ours, theirs in zip(slot_columns(log), slot_columns(alone[policy][1])):
                assert np.array_equal(ours, theirs)


def test_slot_tallies_hold_the_largest_count():
    """At MAX_MESH_ROUNDS rounds of a full 16-user mesh with every channel
    free, each slot tallies 16 * MAX_MESH_ROUNDS attempts without wrapping."""
    config = cell(n=16, slots=300, topology="mesh-rounds", mesh_rounds=MAX_MESH_ROUNDS)
    for _, log in run_mesh_rounds(config, [CLASSICAL, AVOID]):
        assert log.successes.min() >= 0 and colliders(log).min() >= 0
        total = log.successes.astype(np.int64) + colliders(log)
        assert np.array_equal(total, MAX_MESH_ROUNDS * np.minimum(log.free_counts, 16))
        assert np.all(total == 16 * MAX_MESH_ROUNDS)


def test_compare_needs_two_policies():
    with pytest.raises(ValueError):
        compare_policies(cell(), [CLASSICAL])


@pytest.mark.parametrize("policy", (ENHANCE, AVOID))
def test_quantum_assignments_on_support_at_activity_zero(policy):
    """Every slot's tallies are those of some outcome on the game's support."""
    config = cell(slots=3_000, seed=12)
    metrics, log = run_cell(config, [policy])[0]
    n = config.n_users
    allowed = set(support_tallies(n, PHASES[policy](n)))
    assert np.all(log.free_counts == n)
    assert np.array_equal(log.successes + colliders(log), log.free_counts)
    assert set(zip(log.successes.tolist(), log.all_same.tolist())) <= allowed
    assert metrics.energy_proxy >= 1.0


def test_quantum_assignments_stay_on_support_with_holes():
    """In sub-block games of every size f the tallies stay on the size-f
    support, and avoid-worst never puts every transmitter on one channel."""
    config = cell(activity=0.5, slots=4_000, seed=3)
    _, log = run_cell(config, [AVOID])[0]
    assert np.array_equal(log.successes + colliders(log), log.free_counts)
    assert not log.all_same.any()
    for f in range(1, config.n_users + 1):
        sel = log.free_counts == f
        allowed = set(support_tallies(f, PHASES[QUANTUM_AVOID_WORST](f)))
        assert set(zip(log.successes[sel].tolist(), log.all_same[sel].tolist())) <= allowed


def test_slot_records_consistent():
    config = cell(activity=0.4, slots=500, seed=8)
    _, log = run_cell(config, [CLASSICAL])[0]
    assert len(log) == config.slots
    assert np.all((0 <= log.free_counts) & (log.free_counts <= config.n_users))
    assert np.array_equal(log.successes + colliders(log), log.free_counts)
    assert not np.any(colliders(log) == 1)  # a collision takes two
    same = log.all_same
    assert np.all(log.successes[same] == 0)
    assert np.all(colliders(log)[same] >= 2)


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("policy", (CLASSICAL, ENHANCE, AVOID))
def test_star_per_free_count_law(n, policy):
    """Slots with f free channels play the size-f game: per free count, the
    mean successes and the all-same frequency lie within 5 sigma of an exact
    enumeration of that game's outcomes (uniform over the support, or over
    all f^f tuples for the classical rule)."""
    _, log = run_cell(cell(n=n, activity=0.5, slots=100_000, seed=31), [policy])[0]
    assert np.array_equal(log.successes + colliders(log), log.free_counts)
    for f in range(1, n + 1):
        sel = log.free_counts == f
        count = int(sel.sum())
        assert count > 1_000
        tallies = np.array(support_tallies(f, PHASES[policy](f)), dtype=float)
        for got, column in ((log.successes[sel].mean(), tallies[:, 0]),
                            (log.all_same[sel].mean(), tallies[:, 1])):
            sigma = math.sqrt(column.var() / count)
            assert abs(got - column.mean()) <= 5 * sigma + 1e-12, (f, got, column.mean())


@pytest.mark.parametrize("n", (4, 6))
@pytest.mark.parametrize("policy", (CLASSICAL, ENHANCE, AVOID))
def test_star_keys_follow_the_outcome_law(n, policy):
    """Per free count f, the slots' (successes, all-same) keys sample the size-f
    game's exact law: no slot takes a key of count 0, and a chi-square test of
    the key frequencies, pooled over f, with the keys expected fewer than 5
    times lumped into one cell per f, gives p above 1e-4."""
    _, log = run_cell(cell(n=n, activity=0.4, slots=60_000, seed=29), [policy])[0]
    codes = log.successes.astype(np.int64) << 1 | log.all_same
    statistic, dof = 0.0, 0
    for f in range(1, n + 1):
        law = outcome_law(f, PHASES[policy](f)).ravel().astype(float)
        observed = np.bincount(codes[log.free_counts == f], minlength=len(law))
        assert len(observed) == len(law) and not observed[law == 0].any()
        expected = law / law.sum() * observed.sum()
        small = expected < 5
        cells = [(observed[~small], expected[~small]), (observed[small].sum(), expected[small].sum())]
        observed, expected = (np.append(*pair) for pair in zip(*cells))
        kept = expected > 0
        statistic += float(((observed[kept] - expected[kept]) ** 2 / expected[kept]).sum())
        dof += int(kept.sum()) - 1
    assert scipy.stats.chi2.sf(statistic, dof) > 1e-4, (statistic, dof)


class RecordingNumpy:
    """numpy for the slot engine, except that ``zeros`` also keeps each (slots,)
    int32 array it makes: the engine's per-policy delivery masks, whose bit u is
    set once user u was alone on its channel in some round of the slot."""

    def __init__(self, slots):
        self.slots, self.masks = slots, []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        out = np.zeros(shape, dtype)
        if shape == self.slots and dtype is np.int32:
            self.masks.append(out)
        return out


@pytest.mark.parametrize("n, degree, rounds", ((8, 3, 1), (6, 2, 6)), ids=("one-ring-round", "ring"))
def test_mesh_members_share_one_delivery_frequency(monkeypatch, n, degree, rounds):
    """A round's alone set is the first k of its players in priority order, k
    drawn from the game's law.  That law is symmetric in the players, so every
    ring offset of the arbiter's group is delivered equally often: a user in c
    of the slot's rounds is delivered with probability sum over f of P(f) *
    (1 - (1 - E[K]/group)^c), E[K] of the min(group, f)-player game by
    enumeration.  Each user's frequency lies within 5 sigma of it; with one
    round, the users are the offsets."""
    config = cell(n=n, activity=0.3, slots=30_000, seed=37, topology="mesh-rounds",
                  mesh_degree=degree, mesh_rounds=rounds)
    group = degree + 1
    covered = [sum(u in {(r + o) % n for o in range(group)} for r in range(rounds)) for u in range(n)]
    recording = RecordingNumpy(config.slots)
    monkeypatch.setattr(mac, "np", recording)
    policies = [CLASSICAL, ENHANCE, AVOID]
    run_mesh_rounds(config, policies)
    assert len(recording.masks) == len(policies)
    a = Fraction(str(config.primary_activity))
    for policy, mask in zip(policies, recording.masks):
        for u, rounds_in in enumerate(covered):
            exact = Fraction(0)
            for f in range(1, n + 1):
                tallies = support_tallies(min(group, f), PHASES[policy](min(group, f)))
                delivered = Fraction(sum(s for s, _ in tallies), len(tallies) * group)
                exact += math.comb(n, f) * (1 - a) ** f * a ** (n - f) * (1 - (1 - delivered) ** rounds_in)
            got = float(np.mean(mask >> u & 1))
            sigma = math.sqrt(exact * (1 - exact) / config.slots)
            assert abs(got - exact) <= 5 * sigma, (policy, u, got, float(exact))


@pytest.mark.parametrize("n, degree, rounds, activity, slots", (
    (4, 3, 32, 0.0, 2_000),  # most slots delivered to all four users in a few rounds
    (6, 1, 6, 0.3, 2_000),  # few slots ever delivered to all six
    (16, 15, 3, 0.2, 2_500),  # three priority blocks of 1024 rows
), ids=("full-mesh-4", "ring-6", "full-mesh-16"))
def test_mesh_delivery_masks_equal_the_unskipped_reference(monkeypatch, n, degree, rounds, activity, slots):
    """The engine sorts no priorities in a slot that every policy has already
    delivered to all n users; its delivery masks still equal, bit for bit, those
    of a replay that sorts every slot in every round (conftest.mesh_delivery_masks).
    A run of fewer rounds draws the first rounds of a longer one, so a shorter
    run checks the masks before every slot is delivered to all."""
    config = cell(n=n, activity=activity, slots=slots, seed=29, topology="mesh-rounds",
                  mesh_degree=degree, mesh_rounds=rounds)
    policies = [CLASSICAL, ENHANCE, AVOID]
    expected = mesh_delivery_masks(config, policies)
    for upto in sorted({max(2, rounds // 8), rounds}):  # a one-round full mesh keeps no masks
        recording = RecordingNumpy(config.slots)
        monkeypatch.setattr(mac, "np", recording)
        run_mesh_rounds(dataclasses.replace(config, mesh_rounds=upto), policies)
        assert len(recording.masks) == len(policies)
        for mask, reference in zip(recording.masks, expected[upto - 1]):
            assert mask.dtype == np.int32 and np.array_equal(mask, reference), (upto, mask, reference)


def test_mesh_shape_all_distinct_near_exact():
    """At the benchmark's mesh shape (16 users, activity 0.2, one full round
    per node, two policies) over 20,000 slots, each all-distinct rate lies
    within 5 sigma of its exact value by inclusion-exclusion over the users
    left undelivered: 0.9386158 classical, 0.9386141 avoid-worst."""
    config = cell(n=16, activity=0.2, slots=20_000, seed=43, topology="mesh-rounds")
    for (metrics, _), exact in zip(run_mesh_rounds(config, [CLASSICAL, AVOID]), (0.9386158, 0.9386141)):
        sigma = math.sqrt(exact * (1 - exact) / config.slots)
        assert abs(metrics.all_distinct_rate - exact) <= 5 * sigma, (metrics.all_distinct_rate, exact)


@pytest.mark.parametrize("size", range(1, 17))
@pytest.mark.parametrize("policy", mac.POLICY_KINDS)
def test_score_table_scores_every_row_the_policy_draws(policy, size):
    """A policy's size-``size`` game is a uniform uint64 draw below its count of
    equally likely outcomes, size**size or size**(size - 1), and its score table
    is the law's cumulative counts with each key's code, successes << 1 |
    all-same: the boundaries split that range into one interval per key of the
    law, as long as the key's count.  Up to 5 players, every draw in the range
    is looked up."""
    total, bounds, codes = mac._game_law(policy, size)
    law = outcome_law(size, PHASES[policy](size)).ravel().tolist()
    assert total == size ** (size if PHASES[policy](size) is None else size - 1) == sum(law)
    assert codes.dtype == np.uint8 and codes.tolist() == [code for code, count in enumerate(law) if count]
    edges = [0, *bounds.tolist(), total]
    assert [stop - start for start, stop in zip(edges, edges[1:])] == [law[code] for code in codes.tolist()]
    if size <= 5:
        drawn = codes[bounds.searchsorted(np.arange(total, dtype=np.uint64), side="right")]
        assert np.bincount(drawn, minlength=len(law)).tolist() == law


@pytest.mark.parametrize("n", (2, 3, 4, 5, 16))
def test_each_game_is_one_draw_from_its_law(monkeypatch, n):
    """Each policy's allocator stream draws one uint64 per game, below the
    game's outcome count (size**size, or size**(size - 1) on a quantum
    support; 2**64 at 16 classical players), game sizes in increasing order;
    a size-1 game, whose count is 1, draws nothing."""
    policies, streams, stream = [CLASSICAL, ENHANCE, AVOID], [], mac._stream
    monkeypatch.setattr(mac, "_stream", lambda seed, *key: streams.append(stream(seed, *key)) or streams[-1])
    config = cell(n=n, activity=0.05 if n == 16 else 0.5, slots=1_000, seed=3)
    log = run_cell(config, policies)[0][1]
    games = np.bincount(log.free_counts, minlength=n + 1)
    assert games[n] and (games[1] or n == 16)  # at n = 16, 2**64 outcomes; too few holes for size 1
    for policy, alloc in zip(policies, streams[1:]):
        reference = stream(config.seed, mac._ALLOC_STREAM, mac.POLICY_KINDS.index(policy))
        for size in range(1, n + 1):
            outcomes = size ** (size if PHASES[policy](size) is None else size - 1)
            reference.integers(0, outcomes, games[size], dtype=np.uint64)
        assert alloc.bit_generator.state == reference.bit_generator.state


def test_throughput_monotone_in_activity():
    """Common random numbers: more primary occupancy never helps throughput."""
    previous = math.inf
    for activity in (0.0, 0.25, 0.5, 0.75, 1.0):
        metrics, _ = run_cell(cell(activity=activity, slots=200_000, seed=21), [CLASSICAL])[0]
        assert metrics.throughput <= previous + 0.01
        previous = metrics.throughput


def test_fully_occupied_spectrum():
    metrics, log = run_cell(cell(activity=1.0, slots=100), [CLASSICAL])[0]
    assert metrics.throughput == 0.0
    assert metrics.collision_rate == 0.0
    assert math.isinf(metrics.energy_proxy)
    assert metrics.to_dict()["energy_proxy"] is None
    assert np.all(log.free_counts == 0)
    for column in slot_columns(log)[1:]:
        assert not column.any()


def test_slot_csv_shape():
    _, log = run_cell(cell(slots=3), [AVOID])[0]
    buffer = io.StringIO()
    log.write_csv(buffer, QUANTUM_AVOID_WORST)
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 3
    slot, free, policy, succ, coll, same = lines[0].split(",")
    assert (slot, free, policy, same) == ("0", "4", QUANTUM_AVOID_WORST, "0")
    assert int(succ) + int(coll) == 4


@pytest.mark.parametrize("slots", (
    0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001,  # slot numbers that change digit width
    TEXT_BLOCK_ROWS, TEXT_BLOCK_ROWS + 1, 2 * TEXT_BLOCK_ROWS + 3, 65_536, 65_537, 131_075))
def test_slot_csv_matches_per_row_reference(slots):
    """The block writer emits exactly the rows of a one-f-string-per-slot
    writer, across digit widths and block boundaries, with the counts of a
    16-user mesh at MAX_MESH_ROUNDS; an empty log writes nothing."""
    rng = np.random.default_rng(slots)
    most = 16 * MAX_MESH_ROUNDS
    attempts = rng.integers(0, most + 1, 17).astype(np.int32)  # per free count
    attempts[16] = most
    free_counts = rng.integers(0, 17, slots)
    log = SlotLog(free_counts=free_counts,
                  successes=(rng.random(slots) * (attempts[free_counts] + 1)).astype(np.int32),
                  attempts=attempts, all_same=rng.random(slots) < 0.5)
    if slots > 1:
        log.all_same[:2] = (False, True)
        log.free_counts[[0, -1]] = 16
        log.successes[[0, -1]] = (0, most)  # colliders most, then 0
    buffer = io.StringIO()
    log.write_csv(buffer, QUANTUM_ENHANCE_OPTIMUM)
    collided = colliders(log)
    expected = "".join(
        f"{i},{int(log.free_counts[i])},{QUANTUM_ENHANCE_OPTIMUM},{int(log.successes[i])},"
        f"{int(collided[i])},{int(log.all_same[i])}\n" for i in range(slots))
    assert buffer.getvalue() == expected


# --- mesh rounds --------------------------------------------------------------

@pytest.mark.parametrize("n, activity, slots, seed, group, rounds", (
    (6, 0.3, 2000, 5, 3, 4),  # the pinned ring mesh
    (16, 0.2, 2000, 5, 16, 16),  # the pinned full mesh
    (16, 0.2, 20_000, 7, 16, 16),
), ids=("mesh", "full-mesh", "full-mesh-20k"))
def test_default_sort_picks_equal_stable_picks(n, activity, slots, seed, group, rounds):
    """The mesh defer pick once sorted member priorities with numpy's
    default sort, which picks the same players as a stable sort unless two
    priorities in a row tie.  Replaying the environment stream of these
    fixed-seed configs shows equal picks in every round, so the stable
    order the engine now takes (``_priority_order``) reproduces the pinned
    digests.  The pinned star draws no priorities, so it has no picks to
    compare."""
    env = mac._stream(seed, mac._ENV_STREAM)
    free_counts = (env.random((slots, n)) >= activity).sum(axis=1)
    for _ in range(rounds):
        priority = env.random((slots, group))
        for f in range(1, group):
            rows = priority[free_counts == f]
            assert np.array_equal(np.argsort(rows, axis=1)[:, :f],
                                  np.argsort(rows, axis=1, kind="stable")[:, :f])


@pytest.mark.parametrize("group", range(2, 17))
def test_priority_order_is_the_stable_argsort(group):
    """The integer-key sort behind the defer pick orders each row of draws
    as a stable argsort: random rows, rows with exact ties, and the extreme
    draws 0.0, 2**-53 and 1 - 2**-53 beside 2**-52 and 0.5 (each random()
    value is k * 2**-53)."""
    rng = np.random.default_rng(group)
    special = np.array([0.0, 2.0**-53, 2.0**-52, 0.5, 1 - 2.0**-53])
    draws = rng.random((500, group))
    draws[100:200] = rng.choice(special, size=(100, group))
    draws[200:300] = draws[200:300, rng.integers(0, group, size=group)]  # repeated columns tie
    draws[300:400] = rng.integers(0, 3, size=(100, group)) * 2.0**-53  # ties among the smallest draws
    draws[400:400 + len(special)] = special[:, None]  # whole rows of one value
    assert np.array_equal(mac._priority_order(draws.copy()), np.argsort(draws, axis=1, kind="stable"))


def test_mesh_requires_mesh_topology():
    with pytest.raises(ConfigFormatError, match="needs topology"):
        run_mesh_rounds(cell(), [AVOID])


def test_star_requires_star_topology():
    """A star run of a mesh config would drop its rounds and arbitrations."""
    with pytest.raises(ConfigFormatError, match="run_cell needs topology='star'"):
        run_cell(cell(n=6, topology="mesh-rounds", mesh_degree=2, mesh_rounds=3), [AVOID])


@pytest.mark.parametrize("mesh, arbitrations", (
    (None, 0),  # the base station arbitrates for free
    ({"mesh_degree": 2, "mesh_rounds": 3}, 3 * 3_000),  # rounds times slots
    ({}, 6 * 3_000),  # one round per node by default
), ids=("star", "mesh", "full-mesh"))
def test_energy_proxy_is_the_energy_of_the_logged_attempts(mesh, arbitrations):
    """energy_proxy * successes is tx_cost per attempt the slot log counts, plus
    arbitration_cost per arbitration: none in a star, every round of every slot in a mesh."""
    config = cell(n=6, activity=0.3, slots=3_000, seed=9, tx_cost=1.5, arbitration_cost=5.0,
                  **({"topology": "star"} if mesh is None else {"topology": "mesh-rounds", **mesh}))
    run = run_cell if mesh is None else run_mesh_rounds
    for metrics, log in run(config, [CLASSICAL, ENHANCE, AVOID]):
        attempts = int(log.attempts[log.free_counts].sum())
        energy = 1.5 * attempts + 5.0 * arbitrations
        assert metrics.energy_proxy == energy / int(log.successes.sum())


def test_mesh_degree_bounds():
    with pytest.raises(ConfigFormatError, match="ring degree"):
        run_mesh_rounds(cell(topology="mesh-rounds", mesh_degree=4), [AVOID])
    with pytest.raises(ConfigFormatError, match="ring degree"):
        run_mesh_rounds(cell(topology="mesh-rounds", mesh_degree=0), [AVOID])


def test_full_mesh_avoid_worst_never_all_same():
    config = cell(activity=0.3, slots=30_000, topology="mesh-rounds")
    metrics, log = run_mesh_rounds(config, [AVOID])[0]
    assert metrics.all_same_rate == 0.0
    assert not log.all_same.any()
    assert run_mesh_rounds(config, [CLASSICAL])[0][0].all_same_rate > 0.0


def test_single_round_full_mesh_reduces_to_star():
    """One round with a full neighborhood is the star cell; with the
    arbitration surcharge zeroed the metrics coincide exactly at activity 0."""
    star = cell(slots=50_000, arbitration_cost=0.0, seed=17)
    mesh = dataclasses.replace(star, topology="mesh-rounds", mesh_rounds=1)
    star_metrics, _ = run_cell(star, [ENHANCE])[0]
    mesh_metrics, _ = run_mesh_rounds(mesh, [ENHANCE])[0]
    assert mesh_metrics == star_metrics


def test_single_round_full_mesh_near_star_with_holes():
    """With primary occupancy the single full round still coincides
    exactly with the star cell."""
    star = cell(activity=0.4, slots=50_000, arbitration_cost=0.0, seed=5)
    mesh = dataclasses.replace(star, topology="mesh-rounds", mesh_rounds=1)
    star_metrics, _ = run_cell(star, [CLASSICAL])[0]
    mesh_metrics, _ = run_mesh_rounds(mesh, [CLASSICAL])[0]
    assert mesh_metrics == star_metrics


def test_mesh_quantum_energy_beats_classical():
    config = cell(slots=100_000, topology="mesh-rounds")
    quantum, _ = run_mesh_rounds(config, [AVOID])[0]
    classical, _ = run_mesh_rounds(config, [CLASSICAL])[0]
    assert quantum.energy_proxy < classical.energy_proxy


def test_mesh_deterministic():
    config = cell(activity=0.2, slots=5_000, topology="mesh-rounds", mesh_degree=2)
    (first, first_log), (second, second_log) = (run_mesh_rounds(config, [AVOID])[0] for _ in range(2))
    assert first == second
    for ours, theirs in zip(slot_columns(first_log), slot_columns(second_log)):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("n, degree, rounds", ((6, 2, 6), (6, 5, 6), (5, None, 3)))
def test_mesh_slot_log_counts_every_round(n, degree, rounds):
    """Each round plays a game of min(degree + 1, free) players, and every
    player either succeeds or collides, so per slot successes + colliders
    is rounds times that game size; the log's totals give the metrics."""
    config = cell(n=n, activity=0.3, slots=20_000, topology="mesh-rounds",
                  mesh_degree=degree, mesh_rounds=rounds)
    group = (degree if degree is not None else n - 1) + 1
    for policy in (CLASSICAL, ENHANCE, AVOID):
        metrics, log = run_mesh_rounds(config, [policy])[0]
        assert len(log) == config.slots
        assert np.array_equal(log.successes + colliders(log),
                              rounds * np.minimum(group, log.free_counts))
        assert metrics.throughput == log.successes.sum() / config.slots
        assert metrics.all_same_rate == log.all_same.mean()


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
    assert policies == [CLASSICAL_UNIFORM, QUANTUM_AVOID_WORST]


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


#: a valid value for every CellConfig field, none of them its default
FULL_SPEC = {"n_users": 4, "n_channels": 4, "primary_activity": 0.25, "slots": 10, "seed": 3,
             "topology": "mesh-rounds", "mesh_degree": 2, "mesh_rounds": 3, "tx_cost": 1.5,
             "arbitration_cost": 0.25}


@pytest.mark.parametrize("field", dataclasses.fields(CellConfig), ids=lambda f: f.name)
def test_run_spec_schema_is_cell_config(field):
    """Every CellConfig field is a run-spec field: it loads as given; its
    annotation type-checks it (a bool or a string is no number, 2.5 is no
    integer, a float must be finite); and it is required unless it has a
    default."""
    name = field.name
    document = FULL_SPEC | {"policies": [CLASSICAL_UNIFORM, QUANTUM_AVOID_WORST]}
    assert getattr(load_run_spec(document)[0], name) == FULL_SPEC[name]
    hint = typing.get_type_hints(CellConfig)[name]
    scalar = (typing.get_args(hint) or (hint,))[0]  # `int | None` gives int
    bad = {int: [2.5], float: [math.nan, math.inf, -math.inf], str: []}[scalar]
    for value in [True, "x"] + bad:
        with pytest.raises(ConfigFormatError, match=rf"^({name} must be|unknown {name}) "):
            load_run_spec(document | {name: value})
    del document[name]
    if field.default is dataclasses.MISSING:
        with pytest.raises(ConfigFormatError, match=rf"^missing field\(s\): {name}$"):
            load_run_spec(document)
    elif name == "topology":  # the default star takes no mesh field
        with pytest.raises(ConfigFormatError, match="^mesh_degree applies only to topology"):
            load_run_spec(document)
        star = {key: value for key, value in document.items() if not key.startswith("mesh_")}
        assert load_run_spec(star)[0].topology == field.default
    else:
        assert getattr(load_run_spec(document)[0], name) == field.default


def test_metrics_dict_round_trip():
    metrics = MacMetrics(1.5, 0.2, 0.3, 0.0, 2.5)
    assert metrics.to_dict() == {
        "throughput": 1.5,
        "collision_rate": 0.2,
        "all_distinct_rate": 0.3,
        "all_same_rate": 0.0,
        "energy_proxy": 2.5,
    }


def compare_eight_policies(config, policies):
    return compare_policies(config, policies * 8)


class DiscardingSink(io.TextIOBase):
    def write(self, text):
        return len(text)


def compare_writing_csv(config, policies):
    return compare_policies(config, [CLASSICAL, ENHANCE, *policies], DiscardingSink())


def assert_peak_within_plan(monkeypatch, run, config):
    if run is run_mesh_rounds:
        config = dataclasses.replace(config, topology="mesh-rounds")
    run(dataclasses.replace(config, slots=10), [AVOID])  # one-time allocations stay out of the peak
    planned = []
    monkeypatch.setattr(mac, "check_footprint", lambda planned_bytes, what: planned.append(planned_bytes))
    tracemalloc.start()
    try:
        run(config, [AVOID])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= planned[0]


@pytest.mark.parametrize("n", (2, 4, 16))
@pytest.mark.parametrize("activity", (0.0, 0.3))
@pytest.mark.parametrize("run", (run_cell, run_mesh_rounds, compare_eight_policies, compare_writing_csv))
def test_memory_guard_plans_the_peak(monkeypatch, run, activity, n):
    """The bytes the slot engine plans before it draws bound the tracemalloc
    peak of the run, and of a comparison of any number of policies, whose
    tallies the plan counts per policy, also while it writes the slot CSV.  Activity 0 puts every slot in the full-size game; 0.3 also
    plays smaller games and, in the mesh, runs the defer picks."""
    assert_peak_within_plan(monkeypatch, run, cell(n=n, activity=activity, slots=20_000))


@pytest.mark.parametrize("n", (2, 4, 16))
@pytest.mark.parametrize("slots", (1, 100, 4096))
@pytest.mark.parametrize("run", (run_cell, run_mesh_rounds, compare_eight_policies, compare_writing_csv))
def test_memory_guard_plans_the_peak_of_short_runs(monkeypatch, run, slots, n):
    """The plan's fixed allowance covers what a run holds whatever its
    length: array headers and scalars at 1 slot, and at n = 2 the slot-CSV
    writer's first block, whose rows cost more than the per-slot bytes."""
    assert_peak_within_plan(monkeypatch, run, cell(n=n, activity=0.3, slots=slots))


def test_mesh_memory_grows_by_the_planned_bytes_per_slot(monkeypatch):
    """At the 16-user full mesh, 20,000 more slots raise the engine's
    tracemalloc peak by no more than the plan's per-slot bytes for them:
    the priority draws and the game blocks do not grow with the slots."""
    config = cell(n=16, activity=0.2, slots=10, topology="mesh-rounds")
    run_mesh_rounds(config, [CLASSICAL, AVOID])  # one-time allocations stay out of the peak
    planned, peaks = [], []
    monkeypatch.setattr(mac, "check_footprint", lambda planned_bytes, what: planned.append(planned_bytes))
    for slots in (20_000, 40_000):
        tracemalloc.start()
        try:
            run_mesh_rounds(dataclasses.replace(config, slots=slots), [CLASSICAL, AVOID])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= planned[1] - planned[0]
