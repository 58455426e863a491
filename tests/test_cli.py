"""CLI behavior: outputs, determinism, exit codes."""

import hashlib
import json
import math
import os
import stat
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import PHASES, histogram_text, star_moments
from qmg import cli, mac, qudit
from qmg.circuit import build_preparation_circuit, parse_circuit
from qmg.game import GameConfig, phase_for_regime, strategy_matrix
from qmg.qudit import ResourceLimitError, apply_local_strategy, prepare_entangled, sample_counts


def run_spec_file(tmp_path, **overrides):
    spec = {
        "n_users": 4,
        "n_channels": 4,
        "primary_activity": 0.0,
        "slots": 5_000,
        "seed": 42,
        "policies": ["classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"],
    }
    spec.update(overrides)
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(spec))
    return path


def tree(root):
    """Every path under root: file bytes, None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


# --- probs -------------------------------------------------------------------

def test_probs_json_stdout(capsys):
    assert cli.main(["probs", "--n", "8", "--regime", "enhance-optimum"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["phase"] == 28
    assert record["classical"]["p_all_distinct"] == pytest.approx(2.4e-3, abs=5e-5)
    assert record["quantum"]["p_all_distinct"] == pytest.approx(8 * 2.403e-3, rel=1e-3)
    assert record["enhancement_ratio"] == pytest.approx(8.0)


def test_probs_two_user_certainty(capsys):
    cli.main(["probs", "--n", "2", "--regime", "enhance-optimum"])
    record = json.loads(capsys.readouterr().out)
    assert record["quantum"]["p_all_distinct"] == 1.0


def test_probs_avoid_worst_kills_all_same(capsys):
    cli.main(["probs", "--n", "4", "--regime", "avoid-worst"])
    record = json.loads(capsys.readouterr().out)
    assert record["quantum"]["p_all_same"] == 0.0


def test_probs_csv_format(tmp_path):
    out = tmp_path / "table.csv"
    cli.main(["probs", "--n", "4", "--p", "6", "--format", "csv", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,value"
    table = dict(line.split(",") for line in lines[1:])
    assert table["quantum_all_distinct"] == "0.375"
    assert table["regime"] == "custom"


def test_probs_csv_lists_the_json_record(tmp_path, capsys):
    """The CSV has one row per value of the JSON record, a law's statistics
    named <law>_<statistic> without the p_ prefix, floats by repr.  Both laws
    carry the exact per-game zero-delivery probability, expected successes and
    collision rate (at n = 5, avoid-worst: 0.08, 2.04 and 0.592)."""
    cli.main(["probs", "--n", "5", "--regime", "avoid-worst"])
    record = json.loads(capsys.readouterr().out)
    quantum = record["quantum"]
    assert (quantum["p_zero_delivery"], quantum["expected_successes"], quantum["collision_rate"]) == \
        (0.08, 2.04, 0.592)
    out = tmp_path / "table.csv"
    cli.main(["probs", "--n", "5", "--regime", "avoid-worst", "--format", "csv", "--out", str(out)])
    lines = out.read_text().splitlines()[1:]
    flat = {key: value for key, value in record.items() if not isinstance(value, dict)}
    for law in ("classical", "quantum"):
        flat.update({f"{law}_{name.removeprefix('p_')}": value for name, value in record[law].items()})
    assert len(lines) == len(flat)
    assert dict(line.split(",") for line in lines) == {
        name: repr(value) if isinstance(value, float) else str(value) for name, value in flat.items()}


def test_probs_out_of_range_n():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["probs", "--n", "17", "--regime", "avoid-worst"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("argv", (
    ["probs", "--n", "4"],
    ["simulate", "--n", "4", "--shots", "1"],
    ["audit-circuit", "--n", "4"],
    ["export-circuit", "--n", "4"],
))
def test_negative_phase_is_usage_error(argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--p", "-1"])
    assert exit_info.value.code == 2


def test_phase_or_regime_required():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["probs", "--n", "4"])
    assert exit_info.value.code == 2


# --- simulate ------------------------------------------------------------------

def test_simulate_two_user_histogram(tmp_path, read_histogram):
    out = tmp_path / "hist.csv"
    assert cli.main(["simulate", "--n", "2", "--p", "1", "--shots", "10000",
                     "--seed", "5", "--out", str(out)]) == 0
    counts = read_histogram(out)
    assert set(counts) == {(0, 1), (1, 0)}
    assert sum(counts.values()) == 10000


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--n", "4", "--regime", "enhance-optimum",
            "--shots", "2000", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(args + ["--out", str(a)])
    cli.main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


SIMULATE_DIGESTS = {  # (n, regime, engine, format): sha256 of the histogram
    (3, "enhance-optimum", "qudit", "csv"):
        "229939068e2ded1ef43bf53844b2d060018e6a8cfc52bb7605a0b1b688618f01",
    (3, "enhance-optimum", "qudit", "json"):
        "7f27dc297caf76c9b3825b637c0d662c369caf8298a46cb2aeb2ec445b51eafa",
    (3, "avoid-worst", "qudit", "csv"):
        "797e086708f6e4d07a48d51f57954b05aa0cc846f19a4e1ef7c27e64cb67e421",
    (3, "avoid-worst", "qudit", "json"):
        "86a5361547cefbe265c746905880e5c3e73a9597039680d6c83989886920fbd1",
    (5, "enhance-optimum", "qudit", "csv"):
        "c090ed7f348a42596ba7f1e12287e04075d492517be40117964dbd4e5115b9df",
    (5, "enhance-optimum", "qudit", "json"):
        "9a970dacdc2a3b2712fb3753d8950f0e0ee912a5decfc79594464b2e0b4e84b0",
    (5, "avoid-worst", "qudit", "csv"):
        "95b05029a13d5c3599877ee1e58f33021bc0071c0ade0ae36045e226ed2a9237",
    (5, "avoid-worst", "qudit", "json"):
        "099a5527fe9343de713b873e6d65a53a6bc9a3faab669d82dab6cca76a315ec1",
    (7, "enhance-optimum", "qudit", "csv"):
        "668ca967e6c5930831c66e4287b02a0490321f4f99dd38a23bb7853fbce0fdcd",
    (7, "enhance-optimum", "qudit", "json"):
        "61bff0ce146c980dd92c16216e0d71a107ac0c4ee6b777a64098527069850944",
    (7, "avoid-worst", "qudit", "csv"):
        "91bafc6723eeccac4408c12d7373688f8063177f8eed3ee257a749bc7267216c",
    (7, "avoid-worst", "qudit", "json"):
        "6f4c22926f1f2f890cbc0f8888dd07dc4cbb0f442f3c6a505f75e6bd2f8fdfa4",
    (8, "enhance-optimum", "qudit", "csv"):
        "8bdfed916ad54d003b23fbb8f26a9ebdbf741a1505e9e2ae1c2ff7702d480c32",
    (8, "enhance-optimum", "qudit", "json"):
        "f116d23b81af157b904fb3fc74bf8f60d7605766f30f57d560f491f7e601b051",
    (8, "avoid-worst", "qudit", "csv"):
        "d716548a298590569db692248f2d7dca0412eeea39d5de569c2718d6eead94b3",
    (8, "avoid-worst", "qudit", "json"):
        "f0903e23eead5dc676be74863b7ed62edeaaab492270ddd33b1dfd4acd39b47a",
    (4, "enhance-optimum", "circuit", "csv"):
        "322216df25b24f854d534dc54341feac4d4f83dc66fa1821d3fa0c6c06a573f2",
    (4, "avoid-worst", "circuit", "json"):
        "2be467c4135fa1e5136b1cb4809147b6e364fbe311af35704f37b717239c52c0",
}


@pytest.mark.parametrize("case", SIMULATE_DIGESTS, ids=lambda case: "-".join(map(str, case)))
def test_simulate_fixed_seed_bytes(tmp_path, case):
    """Fixed-seed histograms keep their bytes across refactors of the
    simulator: 20k shots at seed 11, both regimes and formats, odd and even n
    up to the dense cap, and the circuit engine.  The counts follow from the
    amplitudes' cumulative sums, so a change that moves an amplitude by a few
    ulps keeps them unless a draw lands on a bin edge; a change in
    random-number use must update these digests."""
    n, regime, engine, fmt = case
    out = tmp_path / f"hist.{fmt}"
    assert cli.main(["simulate", "--n", str(n), "--regime", regime, "--engine", engine,
                     "--shots", "20000", "--seed", "11", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_DIGESTS[case]


def test_simulate_zero_shots(tmp_path):
    out = tmp_path / "empty.csv"
    assert cli.main(["simulate", "--n", "3", "--p", "1", "--shots", "0",
                     "--out", str(out)]) == 0
    assert out.read_text() == "outcome,count,frequency\n"


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("n", (2, 3, 4, 7, 8))
@pytest.mark.parametrize("regime", ("enhance-optimum", "avoid-worst"))
def test_simulate_histogram_matches_label_oracle(tmp_path, regime, n, fmt):
    """The histogram is byte for byte the per-row writer's text over the
    sampler's counts, each outcome spelled from its own divmod digits."""
    out = tmp_path / f"hist.{fmt}"
    assert cli.main(["simulate", "--n", str(n), "--regime", regime, "--shots", "100000",
                     "--seed", "21", "--format", fmt, "--out", str(out)]) == 0
    phase = phase_for_regime(regime, n)
    state = apply_local_strategy(prepare_entangled(GameConfig(n, phase)), strategy_matrix(n))
    rows = sample_counts(state, np.random.default_rng(21), 100_000)
    expected = histogram_text(fmt, n, rows, phase=phase, engine="qudit", seed=21, shots=100_000)
    assert out.read_bytes() == expected.encode()


def histogram_rows(n, size, rng):
    """``size`` (flat index, count) rows over distinct increasing indices: counts
    of one to seven digits, so the writer's tails differ in width, and repeats."""
    indices = np.sort(rng.choice(n**n, size=size, replace=False))
    counts = rng.choice([1, 2, 7, 10, 333, 4096, 65_537, 1_000_000], size=size)
    return np.column_stack((indices, counts)).astype(np.int64)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("n", range(2, 9))
def test_histogram_writer_matches_per_row_oracle(tmp_path, monkeypatch, n, fmt):
    """The block writer's text is the per-row oracle's over the sampler's rows:
    no shots (the CSV header alone), one shot, and row counts at and either side
    of the writer's block size, shrunk below n**n for small n."""
    block = min(mac.TEXT_BLOCK_ROWS, n**n - 1)
    monkeypatch.setattr(mac, "TEXT_BLOCK_ROWS", block)
    monkeypatch.setattr(cli, "_final_state", lambda n, phase, engine: None)
    rng = np.random.default_rng(n)
    cases = [np.empty((0, 2), dtype=np.int64), np.array([[n**n - 1, 1]], dtype=np.int64)]
    cases += [histogram_rows(n, size, rng) for size in (block - 1, block, block + 1)]
    for rows in cases:
        shots = int(rows[:, 1].sum())
        monkeypatch.setattr(cli, "sample_counts", lambda state, rng, shots, rows=rows: rows)
        out = tmp_path / f"hist.{fmt}"
        assert cli.main(["simulate", "--n", str(n), "--p", "1", "--shots", str(shots),
                         "--seed", "5", "--format", fmt, "--out", str(out)]) == 0
        expected = histogram_text(fmt, n, rows, phase=1, engine="qudit", seed=5, shots=shots)
        assert out.read_bytes() == expected.encode()
        if shots == 0 and fmt == "csv":
            assert expected == "outcome,count,frequency\n"


def test_simulate_circuit_engine_agrees_with_qudit(tmp_path, read_histogram):
    qudit_out = tmp_path / "qudit.csv"
    circuit_out = tmp_path / "circuit.csv"
    common = ["simulate", "--n", "4", "--p", "6", "--shots", "20000", "--seed", "3"]
    cli.main(common + ["--engine", "qudit", "--out", str(qudit_out)])
    cli.main(common + ["--engine", "circuit", "--out", str(circuit_out)])
    a = read_histogram(qudit_out)
    b = read_histogram(circuit_out)
    assert set(a) == set(b)
    assert all(abs(a[t] - b[t]) <= 4 * (a[t] ** 0.5 + 1) for t in a)


def test_simulate_json_format(tmp_path):
    out = tmp_path / "hist.json"
    cli.main(["simulate", "--n", "2", "--p", "1", "--shots", "50", "--format", "json",
              "--out", str(out)])
    record = json.loads(out.read_text())
    assert sum(record["counts"].values()) == 50
    assert set(record["counts"]) <= {"0-1", "1-0"}


def test_simulate_dump_state(tmp_path):
    out = tmp_path / "hist.csv"
    cli.main(["simulate", "--n", "2", "--p", "1", "--shots", "10",
              "--out", str(out), "--dump-state"])
    dump = tmp_path / "hist.csv.state.txt"
    assert len(dump.read_text().splitlines()) == 2  # two support amplitudes


def test_simulate_dump_state_needs_out():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--n", "2", "--p", "1", "--shots", "1", "--dump-state"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("command, seed", (("simulate", "-1"), ("mac", "-1"), ("mac", str(2**64))),
                         ids=("simulate", "mac", "mac-2**64"))
def test_simulate_negative_seed(tmp_path, command, seed):
    """A seed flag out of range is a usage error; a MAC seed must fit 64 bits."""
    argv = (["simulate", "--n", "2", "--p", "1", "--shots", "1"] if command == "simulate"
            else ["mac", str(run_spec_file(tmp_path))])
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--seed", seed])
    assert exit_info.value.code == 2


def test_simulate_engine_size_mismatch():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--n", "3", "--p", "1", "--shots", "1", "--engine", "circuit"])
    assert exit_info.value.code == 2
    for engine in ("qudit", "circuit"):  # both measure a dense state, capped at n = 8
        for n in ("9", "16"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["simulate", "--n", n, "--p", "1", "--shots", "1", "--engine", engine])
            assert exit_info.value.code == 2


# --- circuit subcommands ---------------------------------------------------------

def test_audit_circuit_reports(tmp_path, capsys):
    assert cli.main(["audit-circuit", "--n", "2", "--p", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["matches"] is True

    assert cli.main(["audit-circuit", "--n", "4", "--p", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches"] is False
    assert len(report["per_branch_phase_ratio"]) == 4

    out = tmp_path / "audit.json"
    cli.main(["audit-circuit", "--n", "4", "--p", "1", "--variant", "corrected",
              "--out", str(out)])
    assert json.loads(out.read_text())["matches"] is True

    # n = 16 is 64 qubits: the corrected preparation matches at p = 1 and
    # p = 16*15/2, and the figure's R rotations spoil every phase
    def audit(p, variant):
        assert cli.main(["audit-circuit", "--n", "16", "--p", str(p), "--variant", variant]) == 0
        return json.loads(capsys.readouterr().out)["matches"]

    assert audit(1, "corrected") is True and audit(120, "corrected") is True
    assert not any(audit(p, "figure") for p in range(16))


def test_audit_circuit_size_check():
    """n = 3 and 5 have no qubit encoding; n = 32 is past the game's cap."""
    for command in ("audit-circuit", "export-circuit"):
        for n in ("3", "5", "32"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([command, "--n", n, "--p", "1"])
            assert exit_info.value.code == 2


def test_export_circuit_round_trip(tmp_path, capsys):
    cli.main(["export-circuit", "--n", "4", "--regime", "avoid-worst"])
    text = capsys.readouterr().out
    assert text.startswith("# preparation circuit: n=4 phase=1 variant=corrected width=8")
    gates = parse_circuit(text)
    assert gates[0].kind == "h"
    out = tmp_path / "gates.txt"
    cli.main(["export-circuit", "--n", "2", "--p", "1", "--variant", "figure", "--out", str(out)])
    assert parse_circuit(out.read_text())[0].kind == "r"
    assert cli.main(["export-circuit", "--n", "16", "--p", "1"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# preparation circuit: n=16 phase=1 variant=corrected width=64\n")
    assert parse_circuit(text) == build_preparation_circuit(GameConfig(16, 1))


# --- mac -------------------------------------------------------------------------

def test_mac_end_to_end(tmp_path, capsys):
    spec = run_spec_file(tmp_path)
    prefix = tmp_path / "out" / "run"
    assert cli.main(["mac", str(spec), "--out", str(prefix)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["policy", "throughput", "collisions", "all-distinct",
                                  "all-same", "energy"]
    assert [line.split()[0] for line in printed[1:4]] == [
        "classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"]
    assert printed[4].startswith("all-distinct ratio quantum-enhance-optimum/classical-uniform:")

    summary = json.loads((tmp_path / "out" / "run.json").read_text())
    assert [entry["policy"] for entry in summary["policies"]] == [
        "classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"]
    avoid = summary["policies"][2]["metrics"]
    assert avoid["all_same_rate"] == 0.0
    ratio = summary["all_distinct_ratios"]["quantum-enhance-optimum"]
    assert ratio == pytest.approx(4.0, abs=0.6)

    csv_lines = (tmp_path / "out" / "run.csv").read_text().splitlines()
    assert csv_lines[0] == "slot,free_channels,policy,successes,colliders,all_same"
    assert len(csv_lines) == 1 + 3 * 5_000


def test_mac_zero_baseline(tmp_path, capsys):
    """At full primary occupancy nothing is delivered: the classical
    all-distinct baseline is 0, so the ratios are undefined, and the energy
    per delivery is infinite."""
    spec = run_spec_file(tmp_path, primary_activity=1.0, slots=3000, seed=9)
    assert cli.main(["mac", str(spec), "--out", str(tmp_path / "run")]) == 0
    printed = capsys.readouterr().out
    assert "quantum-enhance-optimum/classical-uniform: n/a" in printed
    rows = [line.split() for line in printed.splitlines()[1:4]]
    assert [row[0] for row in rows] == [
        "classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"]
    assert all(row[-1] == "inf" for row in rows)


def test_mac_byte_identical_reruns(tmp_path):
    spec = run_spec_file(tmp_path)
    cli.main(["mac", str(spec), "--out", str(tmp_path / "first")])
    cli.main(["mac", str(spec), "--out", str(tmp_path / "second")])
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


# (run-spec overrides, sha256 of each output file) of the pinned `qmg mac` runs
MAC_DIGESTS = (
    ({"primary_activity": 0.3, "slots": 2000, "seed": 5}, {
        "run.json": "a7857defab38b69b32a6ace9c1770078fd1f4ef1ea0f002854421e827deba50f",
        "run.csv": "7a9e2524dab3af5849feb37d0d6ffb361516e91e844ee93a0d7e795563da4292"}),
    ({"n_users": 6, "n_channels": 6, "primary_activity": 0.3, "slots": 2000, "seed": 5,
      "topology": "mesh-rounds", "mesh_degree": 2, "mesh_rounds": 4}, {
        "run.json": "4049dc8bc42687443d18cc1aa4df05790a45ecd22f2a4b98eff3b72f6a6b1feb"}),
    # the benchmark's mesh shape: 16 rounds, and defer picks in almost every slot
    ({"n_users": 16, "n_channels": 16, "primary_activity": 0.2, "slots": 2000, "seed": 5,
      "topology": "mesh-rounds", "policies": ["classical-uniform", "quantum-avoid-worst"]}, {
        "run.json": "ed42eb4a0f55ccac463571368dd14c79cb05406557a710cf4e29c6d7589c6292"}),
    # the same mesh over several of the engine's 1024-row priority blocks
    ({"n_users": 16, "n_channels": 16, "primary_activity": 0.2, "slots": 5_000, "seed": 5,
      "topology": "mesh-rounds", "policies": ["classical-uniform", "quantum-avoid-worst"]}, {
        "run.json": "8ae7f8bf39a3231396f5ba4848e941b386c4ae8c6c3c4bed87d5442ec6b7be27"}),
    # three policies' rows: several text blocks, slot numbers of one to five digits
    ({"primary_activity": 0.3, "slots": 20_001, "seed": 5}, {
        "run.json": "ef4392f08ece1ce45f840b1457f54ee8fd327d1fbcf1a3f13fd35de50c2c876f",
        "run.csv": "b57f2e2aa7395924c54e36cbfef757d90bcbe87dd3052427220f8104ee314aa4"}),
    # stars of 2, 3, 5 and 6 users: every game size's law, from one outcome (a size-1
    # game, which draws nothing, and two quantum players) to 6**6 equally likely tuples
    ({"n_users": 2, "n_channels": 2, "primary_activity": 0.3, "slots": 20_000, "seed": 5}, {
        "run.json": "acf964f223e6514716f917ad2f416430348c89bdc719170ab98d839f40ccd9f8",
        "run.csv": "44910c5a752b8cedc142e2f1c6b4294ae04d7f83933e2b51fcd5f632524409df"}),
    ({"n_users": 3, "n_channels": 3, "primary_activity": 0.3, "slots": 20_000, "seed": 5}, {
        "run.json": "c230cec8140ad3d58ae4dc61cd5abb164168d853406a6fcaa990c8824c50a284",
        "run.csv": "d386ec53642331965209a8a9ec90ec84245743a7710c4b1791882347e46d2e7e"}),
    ({"n_users": 5, "n_channels": 5, "primary_activity": 0.3, "slots": 20_000, "seed": 5}, {
        "run.json": "bd7edf48cd182f0b65dcc5cbcd955af1d4cb2293e51b529130891c3cd391f427",
        "run.csv": "6028c4ad7b67752457e82cb53ae4a9643ed3585197b92285e0992a75e0e1e74f"}),
    ({"n_users": 6, "n_channels": 6, "primary_activity": 0.3, "slots": 20_000, "seed": 5}, {
        "run.json": "0d30559b50bee8140f31a2d6a88b8509d0a4708945d678188e9bc4fb9b6b1a40",
        "run.csv": "bf3904a713edcd359f791e0e547526bd9dd9f7c5b07c3e8fdd71a5355a5994b2"}),
)
MAC_DIGEST_IDS = ("star", "mesh", "full-mesh", "full-mesh-5000", "star-20001",
                  "star-n2", "star-n3", "star-n5", "star-n6")


@pytest.mark.parametrize("overrides, digests", MAC_DIGESTS, ids=MAC_DIGEST_IDS)
def test_mac_fixed_seed_bytes(tmp_path, overrides, digests):
    """Fixed-seed output files keep their bytes across refactors.  They hold
    only integers and ratios of exact integer sums, so the platform cannot
    move them; a change in random-number use must update these digests."""
    spec = run_spec_file(tmp_path, **overrides)
    assert cli.main(["mac", str(spec), "--out", str(tmp_path / "out" / "run")]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out").iterdir()} == digests


@pytest.mark.parametrize("overrides", [overrides for overrides, _ in MAC_DIGESTS if "topology" not in overrides],
                         ids=[case for case in MAC_DIGEST_IDS if case.startswith("star")])
def test_mac_fixed_seed_star_metrics_near_exact(tmp_path, overrides):
    """Each pinned star run's throughput, all-distinct and all-same rates lie
    within 5 sigma of their exact expectations from enumerating every game,
    so the digests pin a sample of the right law."""
    spec = run_spec_file(tmp_path, **overrides)
    assert cli.main(["mac", str(spec), "--out", str(tmp_path / "run")]) == 0
    document = json.loads((tmp_path / "run.json").read_text())
    config = document["config"]
    for entry in document["policies"]:
        moments = star_moments(config["n_users"], config["primary_activity"], PHASES[entry["policy"]])
        for key, (mean, variance) in moments.items():
            sigma = math.sqrt(variance / config["slots"])
            assert abs(entry["metrics"][key] - mean) <= 5 * sigma, (entry["policy"], key, float(mean))


def test_mac_seed_override_changes_slots(tmp_path):
    spec = run_spec_file(tmp_path)
    cli.main(["mac", str(spec), "--out", str(tmp_path / "base")])
    cli.main(["mac", str(spec), "--out", str(tmp_path / "reseeded"), "--seed", "43"])
    assert (tmp_path / "base.csv").read_bytes() != (tmp_path / "reseeded.csv").read_bytes()


def test_mac_mesh_topology_summary_only(tmp_path):
    spec = run_spec_file(tmp_path, topology="mesh-rounds", slots=500)
    prefix = tmp_path / "mesh"
    assert cli.main(["mac", str(spec), "--out", str(prefix)]) == 0
    assert (tmp_path / "mesh.json").exists()
    assert not (tmp_path / "mesh.csv").exists()


def test_mac_malformed_json(tmp_path, capsys):
    """A spec that cannot be decoded is a config error: exit 3, no traceback,
    no output.  Only a syntax error has a line and column to report."""
    for text, located in (
        ('{"n_users": 4,,}', True),
        ("[" * 100_000, False),  # too deep for the decoder
        # too long for int() where Python limits its digits, an invalid seed elsewhere
        ('{"n_users": 4, "n_channels": 4, "primary_activity": 0.0, "slots": 10, "seed": '
         + "9" * 5000 + ', "policies": ["classical-uniform", "quantum-avoid-worst"]}', False),
    ):
        path = tmp_path / "broken.json"
        path.write_text(text)
        before = tree(tmp_path)
        assert cli.main(["mac", str(path), "--out", str(tmp_path / "out" / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}") and "Traceback" not in err
        assert err.startswith(f"config error: {path}:1:") == located
        assert tree(tmp_path) == before


@pytest.mark.parametrize("overrides, message", (
    ({"policies": ["quantum-avoid-worst"]}, "at least two"),
    ({"topology": "mesh-rounds", "mesh_degree": 7}, "ring degree"),
    ({"topology": "mesh-rounds", "mesh_rounds": 0}, "arbitration round"),
    ({"slots": 0}, "slots must be positive"),
    ({"slots": 10.5}, "slots must be an integer"),
    ({"n_users": 4.0, "n_channels": 4.0}, "n_users must be an integer"),
    ({"topology": "mesh-rounds", "mesh_degree": 2.5}, "mesh_degree must be an integer"),
    ({"slots": True}, "slots must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"tx_cost": float("nan")}, "tx_cost must be finite"),
    ({"topology": "mesh-rounds", "arbitration_cost": float("inf")},
     "arbitration_cost must be finite"),
    ({"topology": "star", "mesh_degree": 2, "mesh_rounds": 7}, "mesh_degree applies only"),
    ({"mesh_rounds": 2}, "mesh_rounds applies only"),
    ({"tx_cost": 1e308}, "worst-case energy of 5000 slots finite"),
    ({"topology": "mesh-rounds", "arbitration_cost": 1e305}, "worst-case energy"),
))
def test_mac_invalid_spec_exit_code(tmp_path, capsys, overrides, message):
    spec = run_spec_file(tmp_path, **overrides)
    assert cli.main(["mac", str(spec), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "run.json").exists()


def test_mac_unknown_field(tmp_path, capsys):
    spec = run_spec_file(tmp_path)
    document = json.loads(spec.read_text())
    document["bandwidth"] = 3
    spec.write_text(json.dumps(document))
    assert cli.main(["mac", str(spec)]) == 3
    assert "bandwidth" in capsys.readouterr().err


def test_mac_non_utf8_spec(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert cli.main(["mac", str(path), "--out", str(tmp_path / "run")]) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("suffix", (".json", ".csv"))
def test_mac_out_must_not_overwrite_spec(tmp_path, suffix):
    """A star run writes <out>.json and <out>.csv; neither may be the spec."""
    spec = run_spec_file(tmp_path).rename(tmp_path / f"cell{suffix}")
    before = spec.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["mac", str(spec), "--out", str(tmp_path / "cell")])
    assert exit_info.value.code == 2
    assert spec.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [spec]


@pytest.mark.parametrize("argv, earlier, blocked", (
    (["mac", "{spec}", "--out", "{tmp}/run"], "run.json", "run.csv"),
    (["simulate", "--n", "2", "--p", "1", "--shots", "3", "--out", "{tmp}/h.csv", "--dump-state"],
     "h.csv", "h.csv.state.txt"),
), ids=("mac", "simulate-dump-state"))
def test_mac_unwritable_csv_keeps_earlier_summary(tmp_path, capsys, argv, earlier, blocked):
    """When only the second output (the slot CSV, the state dump) cannot be
    written, the earlier first output keeps its bytes and no file is added."""
    spec = run_spec_file(tmp_path)
    (tmp_path / earlier).write_text("earlier output\n")
    (tmp_path / blocked).mkdir()
    before = sorted(tmp_path.iterdir())
    assert cli.main([arg.format(spec=spec, tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("output error:")
    assert (tmp_path / earlier).read_text() == "earlier output\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, outputs, last_call", (
    (["mac", "{spec}", "--out", "{tmp}/run"], ("run.json", "run.csv"), (cli, "compare_policies", 0)),
    (["simulate", "--n", "3", "--p", "1", "--shots", "50", "--out", "{tmp}/h.csv", "--dump-state"],
     ("h.csv", "h.csv.state.txt"), (cli, "dump_nonzero", 0)),
    (["probs", "--n", "4", "--p", "1", "--out", "{tmp}/p.json"], ("p.json",),
     (cli, "analytic_probabilities", 0)),
    (["audit-circuit", "--n", "2", "--p", "1", "--out", "{tmp}/a.json"], ("a.json",),
     (cli, "audit_preparation_circuit", 0)),
    (["export-circuit", "--n", "2", "--p", "1", "--out", "{tmp}/c.txt"], ("c.txt",),
     (cli, "export_circuit", 0)),
    (["mac", "{spec}", "--out", "{tmp}/new/run"], ("run.json", "run.csv"), (mac.SlotLog, "write_csv", 1)),
), ids=("mac", "simulate", "probs", "audit-circuit", "export-circuit", "mac-second-policy"))
def test_mac_interrupted_run_keeps_earlier_outputs(tmp_path, monkeypatch, capsys,
                                                   argv, outputs, last_call):
    """A run stopped at its last call before the write (for simulate, the
    state dump, after the histogram; for mac-second-policy, the second
    policy's slot-CSV write, after the first policy's rows went to the
    temporary CSV in a directory the run made) leaves earlier files as they were and no
    temporary or new directory behind."""
    spec = run_spec_file(tmp_path, slots=200)
    for name in outputs:
        (tmp_path / name).write_text(f"earlier {name}\n")
    before = tree(tmp_path)
    module, name, calls_through = last_call
    real, calls, temporaries = getattr(module, name), [], []

    def interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) <= calls_through:
            return real(*args, **kwargs)
        temporaries.extend(p.relative_to(tmp_path).parent for p in tmp_path.rglob("*.tmp"))
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main([arg.format(spec=spec, tmp=tmp_path) for arg in argv])
    assert capsys.readouterr().out == ""
    assert len(calls) == calls_through + 1
    if calls_through:
        assert temporaries == [Path("new"), Path("new")]
    assert tree(tmp_path) == before


def test_symlinked_out_is_written_through(tmp_path):
    """A symlinked --out receives the bytes through the link and stays a link."""
    argv = ["simulate", "--n", "3", "--p", "1", "--shots", "40", "--dump-state", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.csv")]) == 0
    (tmp_path / "real.csv").write_text("earlier output\n")
    link = tmp_path / "link.csv"
    link.symlink_to("real.csv")
    assert cli.main(argv + [str(link)]) == 0
    assert link.is_symlink() and link.readlink() == Path("real.csv")
    assert (tmp_path / "real.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert ((tmp_path / "link.csv.state.txt").read_bytes()
            == (tmp_path / "plain.csv.state.txt").read_bytes())
    assert not list(tmp_path.glob("*.tmp"))


def test_output_named_twice_is_usage_error(tmp_path, capsys):
    """A state dump that is a symlink to the histogram names one file twice:
    exit 2 before any work, and the earlier histogram keeps its bytes."""
    (tmp_path / "h.csv").write_text("earlier output\n")
    (tmp_path / "h.csv.state.txt").symlink_to("h.csv")
    before = sorted(tmp_path.iterdir())
    assert cli.main(["simulate", "--n", "3", "--p", "1", "--shots", "50",
                     "--out", str(tmp_path / "h.csv"), "--dump-state"]) == 2
    assert capsys.readouterr().err.startswith("output error:")
    assert (tmp_path / "h.csv").read_text() == "earlier output\n"
    assert sorted(tmp_path.iterdir()) == before


def test_fifo_out_is_usage_error(tmp_path, capsys):
    """An --out that exists but is not a regular file exits 2 before any work
    and is neither opened nor replaced."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert cli.main(["probs", "--n", "4", "--p", "1", "--out", str(fifo)]) == 2
    assert capsys.readouterr().err.startswith(f"output error: {fifo} is not a regular file")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize("argv", (
    ["mac", "{spec}", "--out", "{afile}/run"],
    ["mac", "{spec}", "--out", "{taken}"],
    ["probs", "--n", "4", "--p", "1", "--out", "{nodir}/x.json"],
    ["simulate", "--n", "2", "--p", "1", "--shots", "3", "--out", "{nodir}/h.csv"],
    ["simulate", "--n", "2", "--p", "1", "--shots", "3", "--out", "{afile}/h.csv", "--dump-state"],
    ["export-circuit", "--n", "4", "--p", "1", "--out", "{nodir}/c.txt"],
), ids=("mac", "mac-summary-is-dir", "probs", "simulate", "simulate-dump-state", "export-circuit"))
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    """An --out that cannot be written exits 2 with one diagnostic line; mac
    finds out before it simulates or prints anything."""
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "taken.json").mkdir()  # `--out taken` cannot write its summary
    paths = {"spec": run_spec_file(tmp_path), "afile": afile, "nodir": tmp_path / "nodir",
             "taken": tmp_path / "taken"}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:") and "Traceback" not in captured.err
    if argv[0] == "mac":
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cell.json", "taken.json"]


@pytest.mark.parametrize("failure", ("resource-limit", "interrupt"))
def test_mac_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch, capsys, failure):
    """mac makes a missing --out directory, parents included, before it
    simulates; a run that then fails removes what it made, deepest first,
    and keeps directories that were there before."""
    spec = run_spec_file(tmp_path, slots=10**30 if failure == "resource-limit" else 200)
    (tmp_path / "kept").mkdir()
    argv = ["mac", str(spec), "--out", str(tmp_path / "kept" / "newdir" / "sub" / "run")]
    if failure == "resource-limit":
        assert cli.main(argv) == 4
        assert capsys.readouterr().err.startswith("resource limit:")
    else:
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "compare_policies", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "cell.json", "kept"]


def test_mac_missing_file(tmp_path, capsys):
    assert cli.main(["mac", str(tmp_path / "nope.json")]) == 3
    assert "config error" in capsys.readouterr().err


def test_resource_limit_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ResourceLimitError("synthetic")
    monkeypatch.setattr(cli, "_final_state", explode)
    assert cli.main(["simulate", "--n", "4", "--p", "1", "--shots", "1"]) == 4
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("command, size, memory", (
    ("mac", 10**30, None),
    ("simulate", 10**30, None),
    ("mac", 100_000, 2**20),
    ("simulate", 100_000, 2**20),
    ("audit-circuit", 8, 100),
), ids=("mac-10**30-slots", "simulate-10**30-shots", "mac-1MiB", "simulate-1MiB",
        "audit-circuit-100B"))
def test_planned_footprint_over_memory_exits_4(tmp_path, monkeypatch, capsys,
                                                command, size, memory):
    """A run whose planned footprint exceeds physical memory stops before it
    allocates: exit 4, nothing printed, no output file.  The guard is tested
    by planning; with ``memory`` set it sees that much physical memory."""
    if memory is not None:
        monkeypatch.setattr(qudit, "PHYSICAL_MEMORY", memory)
    if command == "mac":
        argv = ["mac", str(run_spec_file(tmp_path, slots=size)), "--out", str(tmp_path / "run")]
    elif command == "audit-circuit":
        argv = ["audit-circuit", "--n", str(size), "--p", "1", "--out", str(tmp_path / "a.json")]
    else:
        argv = ["simulate", "--n", "4", "--p", "1", "--shots", str(size),
                "--out", str(tmp_path / "h.csv")]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource limit:") and "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.json"] * (command == "mac")


def test_huge_mesh_rounds_exits_3_at_once(tmp_path, capsys):
    """Rounds cost time, not memory, so their count is bounded in the spec:
    a 1-slot mesh with 10**15 rounds, which would run for ages, is refused
    before any work."""
    spec = run_spec_file(tmp_path, slots=1, topology="mesh-rounds", mesh_rounds=10**15)
    start = time.monotonic()
    assert cli.main(["mac", str(spec), "--out", str(tmp_path / "run")]) == 3
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err.startswith("config error: need 1 to 1024 arbitration rounds")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.json"]
