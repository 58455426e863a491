"""CLI behavior: outputs, determinism, exit codes."""

import json

import pytest

from qmg import cli
from qmg.circuit import parse_circuit
from qmg.qudit import ResourceLimitError


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


def test_probs_out_of_range_n():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["probs", "--n", "17", "--regime", "avoid-worst"])
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


def test_simulate_zero_shots(tmp_path):
    out = tmp_path / "empty.csv"
    assert cli.main(["simulate", "--n", "3", "--p", "1", "--shots", "0",
                     "--out", str(out)]) == 0
    assert out.read_text() == "outcome,count,frequency\n"


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


def test_simulate_negative_seed():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--n", "2", "--p", "1", "--shots", "1", "--seed", "-1"])
    assert exit_info.value.code == 2


def test_simulate_engine_size_mismatch():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--n", "3", "--p", "1", "--shots", "1", "--engine", "circuit"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--n", "9", "--p", "1", "--shots", "1"])
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


def test_audit_circuit_size_check():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["audit-circuit", "--n", "5", "--p", "1"])
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


# --- mac -------------------------------------------------------------------------

def test_mac_end_to_end(tmp_path, capsys):
    spec = run_spec_file(tmp_path)
    prefix = tmp_path / "out" / "run"
    assert cli.main(["mac", str(spec), "--out", str(prefix)]) == 0
    printed = capsys.readouterr().out
    assert "all-distinct ratio quantum-enhance-optimum/classical-uniform:" in printed

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


def test_mac_byte_identical_reruns(tmp_path):
    spec = run_spec_file(tmp_path)
    cli.main(["mac", str(spec), "--out", str(tmp_path / "first")])
    cli.main(["mac", str(spec), "--out", str(tmp_path / "second")])
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


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
    path = tmp_path / "broken.json"
    path.write_text('{"n_users": 4,,}')
    assert cli.main(["mac", str(path)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and ":2:" not in err  # line 1 diagnostic
    assert ":1:" in err


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


def test_mac_missing_file(tmp_path, capsys):
    assert cli.main(["mac", str(tmp_path / "nope.json")]) == 3
    assert "config error" in capsys.readouterr().err


def test_resource_limit_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ResourceLimitError("synthetic")
    monkeypatch.setattr(cli, "_final_state", explode)
    assert cli.main(["simulate", "--n", "4", "--p", "1", "--shots", "1"]) == 4
    assert "resource limit" in capsys.readouterr().err
