"""qmg benchmark: times the user-facing CLI workloads end to end and, in a
separate traced run, each module beneath them.

    python3 perfbench/run.py --workload mac-star --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it uses the ``src/`` tree next to this directory and
writes only under ``perfbench/.work/``.  ``--workload all`` runs the four
workloads in turn, each for ``--seconds``.  Every pass runs in a fresh
interpreter (perfbench/worker.py) that imports ``qmg.cli`` and calls
``qmg.cli.main`` for each of the workload's commands (see workloads.py).
Passes repeat until ``--seconds`` have elapsed; each pass's outputs are
hashed and checked.

``--trace 0`` reports the end-to-end metrics, as medians over the run:

* ``run_s``       -- seconds for one pass, from entering the CLI entry point
                     until the output files are written;
* ``setup_s``     -- seconds from starting a fresh interpreter until
                     ``import qmg.cli`` completes (median of many starts);
* ``peak_rss_mb`` -- peak resident memory of the fresh process of one pass.

The failure rate (passes that exit nonzero or fail an output check, over
passes attempted) is printed and carried by ``attempted`` and ``failed``.

``--trace 1`` cycles through an untraced pass, a timing pass and a
counting pass (tracer.py) at the same seed, requires all their output
files to be byte-identical, and reports the per-module metrics of
tracer.py plus the tracing overhead (timing-pass minus untraced ``run_s``)
and coverage (summed self time over timing-pass ``run_s``).

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A record of the run -- versions, BLAS, nproc, git commit, seed, sha256 of
every output file, every sample and, when traced, every span -- is
written to ``perfbench/.work/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: interpreter starts timed before each untraced pass; setup_s is their
#: median.  Spreading them through the run, rather than timing them all at
#: once, averages over the host's slow and fast phases as the passes do.
SETUP_STARTS_PER_PASS = 4

#: a pass taking longer than this is killed and counted as failed
PASS_TIMEOUT_S = 120

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    from tracer import COUNTS, PEAK_SPANS, TIMED_SPANS

    units = {}
    for name in TIMED_SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["cli.output_bytes"] = "B"
    for name in PEAK_SPANS:
        units[f"{name}.peak_alloc_mb"] = "MB"
    for name in COUNTS:
        units[name] = "B" if name.endswith("bytes_computed") else "count"
    units.update({"qudit.support_fraction": "fraction", "circuit.nonzero_fraction": "fraction",
                  "trace.overhead_s": "s", "trace.coverage": "fraction"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # an installed package imports from cached bytecode; so does every timed
    # interpreter here, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def time_setup(env: dict[str, str]) -> list[float]:
    """Seconds from spawning an interpreter until ``import qmg.cli`` returns,
    read on the system-wide monotonic clock both processes share."""
    probe = "import time, qmg.cli; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_STARTS_PER_PASS):
        began = time.monotonic()
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(done.stdout) - began)
    return samples


def run_pass(pass_id: int, mode: str, argvs: list[list[str]], out_dir: Path, run_dir: Path,
             env: dict[str, str]) -> dict:
    """One pass in a fresh worker process; returns its result record."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = run_dir / f"pass-{pass_id}.json"
    command = [sys.executable, str(HERE / "worker.py"), str(result_path), str(pass_id), mode,
               json.dumps(argvs)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
        returncode, stderr = done.returncode, done.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = None, f"killed after {PASS_TIMEOUT_S} s"
    record = {"pass": pass_id, "mode": mode, "returncode": returncode}
    if result_path.is_file():
        record.update(json.loads(result_path.read_text(encoding="utf-8")))
        result_path.unlink()
    record["problems"] = [] if returncode == 0 else [f"worker exit {returncode}: {stderr[-2000:]}"]
    record["sha256"] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in sorted(out_dir.iterdir())}
    record["output_bytes"] = sum(path.stat().st_size for path in out_dir.iterdir())
    return record


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(seed: int) -> dict:
    import numpy
    import qmg

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "qmg": qmg.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns its metrics and every pass."""
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    out_dir = run_dir / "out"
    env = child_env()
    argvs = workloads.prepare(workload, seed, run_dir / "in", out_dir)
    cycle = ("plain", "time", "count") if trace else ("plain",)
    passes: list[dict] = []
    checked: dict[tuple, list[str]] = {}
    try:
        # compile and cache bytecode before anything is timed
        subprocess.run([sys.executable, "-c", "import qmg.cli"], env=env, check=True, timeout=60)
        began = time.monotonic()
        setup: list[float] = []
        while not passes or time.monotonic() - began < seconds:
            if not trace:
                setup += time_setup(env)
            for mode in cycle:
                record = run_pass(len(passes), mode, argvs, out_dir, run_dir, env)
                # identical bytes pass or fail identically: check each distinct output set once
                key = tuple(sorted(record["sha256"].items()))
                if key not in checked:
                    checked[key] = workloads.check(workload, seed, out_dir)
                record["problems"] += checked[key]
                passes.append(record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # one seed, one set of output bytes: traced or not, every pass must match the first
    for record in passes[1:]:
        if record["sha256"] != passes[0]["sha256"]:
            record["problems"].append(f"{record['mode']} pass outputs differ from pass 0's")
    good = [p for p in passes if not p["problems"]]
    metrics = traced_metrics(good) if trace else end_to_end_metrics(good, setup)
    WORK.mkdir(exist_ok=True)
    (WORK / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": workload, "metadata": metadata(seed), "metrics": metrics,
         "setup_s": setup, "passes": passes}, indent=1), encoding="utf-8")
    return {"workload": workload, "metrics": metrics, "passes": passes, "setup": setup}


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _labelled(values: dict[str, float | None], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()
            if values.get(name) is not None}


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict[str, dict]:
    return _labelled({"run_s": _median([p["run_s"] for p in passes]),
                      "setup_s": _median(setup),
                      "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes])},
                     END_TO_END_UNITS)


def traced_metrics(passes: list[dict]) -> dict[str, dict]:
    """Medians over the run of each per-pass per-layer metric."""
    from tracer import counting_metrics, timing_metrics

    per_pass = []
    for p in passes:
        if p["mode"] == "time":
            per_pass.append({**timing_metrics(p["spans"], p["run_s"]),
                             "cli.output_bytes": p["output_bytes"]})
        elif p["mode"] == "count":
            per_pass.append(counting_metrics(p["spans"], p["counters"]))
    values = {}
    for name in per_layer_units():
        values[name] = _median([v[name] for v in per_pass if name in v])
    plain = _median([p["run_s"] for p in passes if p["mode"] == "plain"])
    timed = _median([p["run_s"] for p in passes if p["mode"] == "time"])
    if plain is not None and timed is not None:
        values["trace.overhead_s"] = timed - plain
    return _labelled(values, per_layer_units())


def report(result: dict) -> None:
    """Human-readable lines for one workload (everything but the last line)."""
    passes = result["passes"]
    failed = sum(1 for p in passes if p["problems"])
    good = {mode: sum(1 for p in passes if p["mode"] == mode and not p["problems"])
            for mode in ("plain", "time", "count")}
    print(f"== {result['workload']}: medians over "
          + ", ".join(f"{count} {mode}" for mode, count in good.items() if count)
          + " passes" + (f" and {len(result['setup'])} interpreter starts (setup_s)"
                         if result["setup"] else "")
          + "; too few samples for a tail percentile")
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_rate':45s} {failed / len(passes):>16.6g} ({failed}/{len(passes)} passes)")
    for record in passes:
        for problem in record["problems"]:
            print(f"  pass {record['pass']} ({record['mode']}): {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "qmg" / "cli.py").is_file():
        print(f"no qmg sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    passes = [p for r in results for p in r["passes"]]
    failed = sum(1 for p in passes if p["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
