"""The benchmark's output checks accept correct outputs and reject corrupted
ones, and the traced worker changes no output byte.  Runs the workloads'
real commands at reduced sizes:

    python3 -m pytest perfbench/test_workloads.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from qmg import cli  # noqa: E402

SMALL = {
    "mac-star": {**workloads.PARAMS["mac-star"], "slots": 20_000},
    "mac-mesh": {**workloads.PARAMS["mac-mesh"], "slots": 2_000},
    "simulate-n8": {"n": 4, "shots": 20_000},
    "circuit-n8": {"n": 4},
}
SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small pass of every workload at SEED, written once per module."""
    made = {}
    for workload in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        (base / "in").mkdir()
        (base / "out").mkdir()
        for argv in workloads.prepare(workload, SEED, base / "in", base / "out", SMALL[workload]):
            assert cli.main(argv) == 0
        made[workload] = base / "out"
    return made


def problems_after(workload, outputs, tmp_path, corrupt):
    out = tmp_path / "out"
    shutil.copytree(outputs[workload], out)
    corrupt(out)
    return workloads.check(workload, SEED, out, SMALL[workload])


def edit_json(path: Path, edit) -> None:
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


def edit_lines(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def policy(document: dict, kind: str) -> dict:
    return next(e["metrics"] for e in document["policies"] if e["policy"] == kind)


def off_support(lines):
    outcome, rest = lines[1].split(",", 1)
    digits = outcome.split("-")
    digits[-1] = str((int(digits[-1]) + 1) % 4)
    return [lines[0], "-".join(digits) + "," + rest] + lines[2:]


def bump_count(lines):
    outcome, count, frequency = lines[1].rstrip("\n").split(",")
    return [lines[0], f"{outcome},{int(count) + 1},{frequency}\n"] + lines[2:]


CORRUPTIONS = {
    "mac-star": {
        "truncated slot csv": lambda out: edit_lines(out / "mac-star.csv", lambda ls: ls[:-1]),
        "slot csv header": lambda out: edit_lines(out / "mac-star.csv", lambda ls: ["slot\n"] + ls[1:]),
        "throughput off by 0.1": lambda out: edit_json(
            out / "mac-star.json",
            lambda d: policy(d, workloads.CLASSICAL).update(throughput=policy(d, workloads.CLASSICAL)["throughput"] + 0.1)),
        "avoid-worst all-distinct": lambda out: edit_json(
            out / "mac-star.json", lambda d: policy(d, workloads.AVOID).update(all_distinct_rate=5e-5)),
        "avoid-worst all-same": lambda out: edit_json(
            out / "mac-star.json", lambda d: policy(d, workloads.AVOID).update(all_same_rate=5e-5)),
        "wrong seed": lambda out: edit_json(out / "mac-star.json", lambda d: d["config"].update(seed=SEED + 1)),
        "missing csv": lambda out: (out / "mac-star.csv").unlink(),
    },
    "mac-mesh": {
        "throughput above 16 x 16": lambda out: edit_json(
            out / "mac-mesh.json", lambda d: policy(d, workloads.CLASSICAL).update(throughput=257.0)),
        "avoid-worst all-same": lambda out: edit_json(
            out / "mac-mesh.json", lambda d: policy(d, workloads.AVOID).update(all_same_rate=0.5)),
        "collision rate above 1": lambda out: edit_json(
            out / "mac-mesh.json", lambda d: policy(d, workloads.CLASSICAL).update(collision_rate=1.5)),
        "policy dropped": lambda out: edit_json(out / "mac-mesh.json", lambda d: d["policies"].pop()),
    },
    "simulate-n8": {
        "off-support line": lambda out: edit_lines(out / "histogram.csv", off_support),
        "count changed": lambda out: edit_lines(out / "histogram.csv", bump_count),
        "truncated histogram": lambda out: edit_lines(out / "histogram.csv", lambda ls: ls[:-1]),
        "all-distinct outcomes removed": lambda out: edit_lines(
            out / "histogram.csv",
            lambda ls: [ls[0]] + [line for line in ls[1:] if len(set(line.split(",")[0].split("-"))) < 4]),
        "duplicated line": lambda out: edit_lines(out / "histogram.csv", lambda ls: ls[:2] + ls[1:]),
    },
    "circuit-n8": {
        "figure audit matches": lambda out: edit_json(out / "audit-figure-p2.json", lambda d: d.update(matches=True)),
        "corrected audit deviates": lambda out: edit_json(
            out / "audit-corrected-p6.json", lambda d: d.update(max_amplitude_deviation=1e-6)),
        "gate list reformatted": lambda out: edit_lines(
            out / "export-avoid-worst.txt", lambda ls: ls[:1] + [ls[1].replace(" ", "  ")] + ls[2:]),
        "gate list emptied": lambda out: edit_lines(out / "export-enhance-optimum.txt", lambda ls: ls[:1]),
        "audit missing": lambda out: (out / "audit-figure-p0.json").unlink(),
    },
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_correct_outputs_pass(workload, outputs):
    assert workloads.check(workload, SEED, outputs[workload], SMALL[workload]) == []


@pytest.mark.parametrize("workload,name", [(w, name) for w, table in CORRUPTIONS.items() for name in table])
def test_corrupted_outputs_fail(workload, name, outputs, tmp_path):
    assert problems_after(workload, outputs, tmp_path, CORRUPTIONS[workload][name])


def test_star_expectations_match_closed_forms():
    free_all = Fraction(4, 5) ** 4
    expect = workloads.star_expectations(4, 0.2, workloads.ENHANCE)
    assert expect["all_distinct_rate"][0] == free_all * 4 * 24 / 4**4
    classical = workloads.star_expectations(4, 0.2, workloads.CLASSICAL)
    assert classical["all_distinct_rate"][0] == free_all * Fraction(24, 4**4)
    avoid = workloads.star_expectations(4, 0.2, workloads.AVOID)
    assert avoid["all_distinct_rate"] == (0, 0) and avoid["all_same_rate"] == (0, 0)


def run_worker(tmp_path: Path, mode: str, argvs) -> dict:
    result = tmp_path / f"{mode}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(result), "0", mode, json.dumps(argvs)],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(result.read_text())


def test_traced_worker_keeps_outputs_and_records_spans(tmp_path):
    outputs = {}
    results = {}
    for mode in ("plain", "time", "count"):
        out = tmp_path / mode
        out.mkdir()
        argvs = workloads.prepare("simulate-n8", SEED, tmp_path, out, SMALL["simulate-n8"])
        results[mode] = run_worker(tmp_path, mode, argvs)
        outputs[mode] = (out / "histogram.csv").read_bytes()
    assert outputs["plain"] == outputs["time"] == outputs["count"]
    spans = {span["name"]: span for span in results["time"]["spans"]}
    assert spans["qudit.sample_counts"]["parent"] == spans["cli"]["id"]
    assert spans["game.strategy_matrix"]["parent"] == spans["cli"]["id"]
    counters = results["count"]["counters"]
    assert counters["qudit.support_nonzero"] * 4 == counters["qudit.support_scanned"] == 4**4
    assert counters["qudit.apply_local_strategy.bytes_computed"] == 4 * 2 * 4**4 * 16
    assert counters["qudit.distinct_outcomes"] == len(outputs["plain"].splitlines()) - 1
