"""The console recipes end to end: each test runs ``python -m qmg.cli`` in a
fresh process inside ``tmp_path`` and checks exit codes, output shapes and
the agreement of output formats, as a user of the ``qmg`` script sees them."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmg

# the child imports this same qmg, whether it is installed or on PYTHONPATH
SRC = str(Path(qmg.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}

STAR_SPEC = ('{"n_users": 4, "n_channels": 4, "primary_activity": 0.2, "slots": 1000, "seed": 404,\n'
             '"policies": ["classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"]}\n')


def run_qmg(cwd, *args, status=0):
    done = subprocess.run([sys.executable, "-m", "qmg.cli", *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == status, done.stderr
    return done


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def assert_json_dumps_text(path):
    """The file is byte for byte the text json.dumps gives its document with
    qmg's formatting: two-space indent, sorted keys, one final newline."""
    text = Path(path).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", text[-300:]


def test_probs_csv(tmp_path):
    run_qmg(tmp_path, "probs", "--n", "4", "--regime", "enhance-optimum", "--format", "csv")


def test_star_comparison_writes_summary_and_slot_csv(tmp_path):
    (tmp_path / "star.json").write_text(STAR_SPEC)
    run_qmg(tmp_path, "mac", "star.json", "--out", "results/run")
    assert (tmp_path / "results/run.json").is_file()
    header, *rows = read_lines(tmp_path / "results/run.csv")
    assert header == "slot,free_channels,policy,successes,colliders,all_same", header
    assert len(rows) == 3 * 1000, len(rows)
    blocks = [(policy, len(list(group))) for policy, group
              in itertools.groupby(row.split(",")[2] for row in rows)]
    assert blocks == [("classical-uniform", 1000), ("quantum-enhance-optimum", 1000),
                      ("quantum-avoid-worst", 1000)], blocks
    fields = [row.split(",") for row in rows]
    assert all(len(row) == 6 for row in fields), "every row has six fields"
    assert [row[0] for row in fields] == [str(slot) for slot in range(1000)] * 3
    assert all(count.isdigit() for row in fields for count in (row[1], row[3], row[4]))
    assert {row[5] for row in fields} <= {"0", "1"}


def test_policy_listed_twice_reproduces_its_rows(tmp_path):
    (tmp_path / "twice.json").write_text(STAR_SPEC.replace(
        '"classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"',
        '"quantum-avoid-worst", "classical-uniform", "quantum-avoid-worst"'))
    run_qmg(tmp_path, "mac", "twice.json", "--out", "twice/run")
    policies = json.loads((tmp_path / "twice/run.json").read_text(encoding="utf-8"))["policies"]
    assert [entry["policy"] for entry in policies] == [
        "quantum-avoid-worst", "classical-uniform", "quantum-avoid-worst"], policies
    assert policies[0] == policies[2], policies
    rows = [row.split(",") for row in read_lines(tmp_path / "twice/run.csv")[1:]]
    assert len(rows) == 3 * 1000, len(rows)
    first, last = rows[:1000], rows[2000:]
    assert {row[2] for row in first + last} == {"quantum-avoid-worst"}
    strip = lambda block: [row[:2] + row[3:] for row in block]
    assert strip(first) == strip(last), "the repeated policy reproduces its slot rows"


@pytest.mark.parametrize("name, spec", (
    ("deep", "[" * 100000 + "\n"),
    ("mixed", '{"n_users": 4, "n_channels": 4, "primary_activity": 0.2, "slots": 10, "seed": 1,\n'
              '"topology": "star", "mesh_rounds": 2, "policies": ["classical-uniform", "quantum-avoid-worst"]}\n'),
), ids=("deeply-nested", "star-with-mesh-rounds"))
def test_bad_spec_is_a_config_error(tmp_path, name, spec):
    (tmp_path / f"{name}.json").write_text(spec)
    err = run_qmg(tmp_path, "mac", f"{name}.json", "--out", name, status=3).stderr
    assert any(line.startswith("config error:") for line in err.splitlines()), err
    assert "Traceback" not in err, err


def test_mesh_writes_summary_only(tmp_path):
    (tmp_path / "mesh.json").write_text(
        '{"n_users": 16, "n_channels": 16, "primary_activity": 0.2, "slots": 500, "seed": 7,\n'
        '"topology": "mesh-rounds", "policies": ["classical-uniform", "quantum-avoid-worst"]}\n')
    run_qmg(tmp_path, "mac", "mesh.json", "--out", "mesh/run")
    out = tmp_path / "mesh"
    assert sorted(path.name for path in out.iterdir()) == ["run.json"], list(out.iterdir())
    policies = json.loads((out / "run.json").read_text(encoding="utf-8"))["policies"]
    assert [entry["policy"] for entry in policies] == ["classical-uniform", "quantum-avoid-worst"]
    metrics = {"throughput", "collision_rate", "all_distinct_rate", "all_same_rate", "energy_proxy"}
    assert all(set(entry["metrics"]) == metrics and None not in entry["metrics"].values()
               for entry in policies), policies


@pytest.mark.parametrize("n", (8, 16))
def test_corrected_circuit_audit_matches(tmp_path, n):
    audit = run_qmg(tmp_path, "audit-circuit", "--n", str(n), "--p", "1", "--variant", "corrected").stdout
    assert json.loads(audit)["matches"] is True


def test_simulate_histogram_csv_and_json_agree(tmp_path):
    simulate = ("simulate", "--n", "3", "--regime", "avoid-worst", "--shots", "1000", "--seed", "7")
    run_qmg(tmp_path, *simulate, "--out", "hist.csv")
    header, *rows = read_lines(tmp_path / "hist.csv")
    rows = [row.split(",") for row in rows]
    assert header == "outcome,count,frequency", header
    assert sum(int(count) for _, count, _ in rows) == 1000
    assert all((1 + sum(map(int, label.split("-")))) % 3 == 0 for label, _, _ in rows)
    run_qmg(tmp_path, *simulate, "--format", "json", "--out", "hist.json")
    rows = [line.split(",")[:2] for line in read_lines(tmp_path / "hist.csv")[1:]]
    counts = json.loads((tmp_path / "hist.json").read_text(encoding="utf-8"))["counts"]
    assert [(label, int(count)) for label, count in rows] == list(counts.items()), (rows, counts)
    assert_json_dumps_text(tmp_path / "hist.json")


def test_simulate_zero_shots_writes_the_header_only(tmp_path):
    run_qmg(tmp_path, "simulate", "--n", "3", "--regime", "avoid-worst", "--shots", "0", "--out", "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == b"outcome,count,frequency\n"
    run_qmg(tmp_path, "simulate", "--n", "3", "--regime", "avoid-worst", "--shots", "0",
            "--format", "json", "--out", "empty.json")
    assert json.loads((tmp_path / "empty.json").read_text(encoding="utf-8"))["counts"] == {}
    assert_json_dumps_text(tmp_path / "empty.json")


def test_circuit_dump_state(tmp_path):
    run_qmg(tmp_path, "simulate", "--n", "4", "--p", "6", "--shots", "1000", "--seed", "7",
            "--engine", "circuit", "--out", "circuit.csv", "--dump-state")
    digit_sum = lambda index: sum((index // 4**j) % 4 for j in range(4))
    dump = [line.split() for line in read_lines(tmp_path / "circuit.csv.state.txt")]
    assert len(dump) == 64, len(dump)
    assert all(abs(abs(complex(float(re), float(im))) - 0.125) < 1e-12 for _, re, im in dump)
    assert all((6 + digit_sum(int(index))) % 4 == 0 for index, _, _ in dump)
    labels = [row.split(",")[0] for row in read_lines(tmp_path / "circuit.csv")[1:]]
    assert labels and all((6 + sum(map(int, label.split("-")))) % 4 == 0 for label in labels)


def test_qudit_dump_state_across_row_blocks(tmp_path):
    run_qmg(tmp_path, "simulate", "--n", "7", "--regime", "avoid-worst", "--shots", "1000", "--seed", "7",
            "--out", "qudit7.csv", "--dump-state")
    digit_sum = lambda index: sum((index // 7**j) % 7 for j in range(7))
    dump = [line.split() for line in read_lines(tmp_path / "qudit7.csv.state.txt")]
    assert len(dump) == 7**6, len(dump)
    assert all(abs(abs(complex(float(re), float(im))) - 7**-3) < 1e-12 for _, re, im in dump)
    assert all((1 + digit_sum(int(index))) % 7 == 0 for index, _, _ in dump)
