"""The benchmark's four workloads: the qmg commands of one pass, and the
checks that every output of a pass is correct.

Each workload stresses a different layer of qmg:

* ``mac-star``    -- the MAC engine plus per-slot CSV serialization.
* ``mac-mesh``    -- the same engine at n=16 with many small game samples
                     and no CSV, so a serialization change must not move it.
* ``simulate-n8`` -- the dense qudit simulator and the histogram writer.
* ``circuit-n8``  -- the qubit circuit simulator, idle everywhere else.

Sizes are fixed in ``PARAMS``; tests pass smaller ``params`` to exercise the
same commands and checks quickly.  Checks compare against exact values the
benchmark derives itself (not through qmg), except the gate-list round trip,
which by definition goes through ``qmg.circuit.parse_circuit``.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("mac-star", "mac-mesh", "simulate-n8", "circuit-n8")

CLASSICAL = "classical-uniform"
ENHANCE = "quantum-enhance-optimum"
AVOID = "quantum-avoid-worst"

PARAMS = {
    "mac-star": {"n_users": 4, "n_channels": 4, "primary_activity": 0.2, "slots": 1_000_000,
                 "topology": "star", "policies": [CLASSICAL, ENHANCE, AVOID]},
    "mac-mesh": {"n_users": 16, "n_channels": 16, "primary_activity": 0.2, "slots": 100_000,
                 "topology": "mesh-rounds", "policies": [CLASSICAL, AVOID]},
    "simulate-n8": {"n": 8, "shots": 1_000_000},
    "circuit-n8": {"n": 8},
}

#: a rate may sit this many standard errors from its exact expectation
SIGMAS = 5.0

#: the audit tolerance the corrected preparation circuit must meet
AUDIT_TOL = 1e-10

SLOT_CSV_HEADER = "slot,free_channels,policy,successes,colliders,all_same"
HISTOGRAM_HEADER = "outcome,count,frequency"


def prepare(workload: str, seed: int, in_dir: Path, out_dir: Path,
            params: dict | None = None) -> list[list[str]]:
    """Write the workload's input files under ``in_dir`` and return the argv
    of each ``qmg`` command in one pass, writing under ``out_dir``."""
    p = PARAMS[workload] if params is None else params
    if workload in ("mac-star", "mac-mesh"):
        spec_path = in_dir / f"{workload}.json"
        spec_path.write_text(json.dumps({**p, "seed": seed}), encoding="utf-8")
        return [["mac", str(spec_path), "--out", str(out_dir / workload), "--seed", str(seed)]]
    n = p["n"]
    if workload == "simulate-n8":
        return [["simulate", "--n", str(n), "--regime", "enhance-optimum",
                 "--shots", str(p["shots"]), "--seed", str(seed),
                 "--out", str(out_dir / "histogram.csv")]]
    argvs = [["audit-circuit", "--n", str(n), "--p", str(phase), "--variant", "figure",
              "--out", str(out_dir / f"audit-figure-p{phase}.json")] for phase in range(n)]
    argvs += [["audit-circuit", "--n", str(n), "--p", str(phase), "--variant", "corrected",
               "--out", str(out_dir / f"audit-corrected-p{phase}.json")]
              for phase in _corrected_phases(n)]
    argvs += [["export-circuit", "--n", str(n), "--regime", regime,
               "--out", str(out_dir / f"export-{regime}.txt")]
              for regime in ("enhance-optimum", "avoid-worst")]
    return argvs


def check(workload: str, seed: int, out_dir: Path, params: dict | None = None) -> list[str]:
    """Problems found in one pass's outputs; empty when every check holds."""
    p = PARAMS[workload] if params is None else params
    try:
        if workload == "mac-star":
            return _check_mac_star(p, seed, out_dir)
        if workload == "mac-mesh":
            return _check_mac_mesh(p, seed, out_dir)
        if workload == "simulate-n8":
            return _check_histogram(p, out_dir / "histogram.csv")
        return _check_circuit(p, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{workload}: unreadable output: {exc!r}"]


def _corrected_phases(n: int) -> tuple[int, int]:
    return 1, n * (n - 1) // 2


# --- mac ---------------------------------------------------------------------

def _game_support(kind: str, size: int) -> list[tuple[int, ...]]:
    """Every equally likely channel tuple of one size-``size`` game."""
    if size <= 1:
        return [(0,) * size]
    tuples = list(itertools.product(range(size), repeat=size))
    if kind == CLASSICAL:
        return tuples
    phase = size * (size - 1) // 2 if kind == ENHANCE else 1
    return [t for t in tuples if (phase + sum(t)) % size == 0]


def star_expectations(n: int, activity: float, kind: str) -> dict[str, tuple[Fraction, Fraction]]:
    """Exact (mean, variance) per slot of throughput, all_distinct_rate and
    all_same_rate for one star policy: the free-channel count is
    Binom(n, 1 - activity) and a size-f game is uniform over its support."""
    a = Fraction(str(activity))
    moments = {"throughput": [Fraction(0), Fraction(0)],
               "all_distinct_rate": [Fraction(0), Fraction(0)],
               "all_same_rate": [Fraction(0), Fraction(0)]}
    for f in range(n + 1):
        weight = math.comb(n, f) * (1 - a) ** f * a ** (n - f)
        support = _game_support(kind, f)
        for t in support:
            successes = sum(1 for c in t if t.count(c) == 1)
            values = {"throughput": successes,
                      "all_distinct_rate": int(successes == n),
                      "all_same_rate": int(f >= 2 and len(set(t)) == 1)}
            for key, x in values.items():
                moments[key][0] += weight * x / len(support)
                moments[key][1] += weight * x * x / len(support)
    return {key: (m1, m2 - m1 * m1) for key, (m1, m2) in moments.items()}


def _load_summary(p: dict, seed: int, path: Path) -> tuple[dict, list[str]]:
    summary = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    config = summary["config"]
    for key in ("n_users", "primary_activity", "slots", "topology"):
        if config[key] != p[key]:
            problems.append(f"{path.name}: config {key} = {config[key]!r}, expected {p[key]!r}")
    if config["seed"] != seed:
        problems.append(f"{path.name}: config seed = {config['seed']}, expected {seed}")
    kinds = [entry["policy"] for entry in summary["policies"]]
    if kinds != p["policies"]:
        problems.append(f"{path.name}: policies {kinds}, expected {p['policies']}")
    return {e["policy"]: e["metrics"] for e in summary["policies"]}, problems


def _check_mac_star(p: dict, seed: int, out_dir: Path) -> list[str]:
    metrics, problems = _load_summary(p, seed, out_dir / "mac-star.json")
    slots = p["slots"]
    for kind, observed in metrics.items():
        for key, (mean, var) in star_expectations(p["n_users"], p["primary_activity"], kind).items():
            value = observed[key]
            sigma = math.sqrt(var / slots)
            if var == 0 and value != mean:
                problems.append(f"{kind} {key} = {value!r}, exactly {float(mean)!r} expected")
            elif var and abs(value - mean) > SIGMAS * sigma:
                problems.append(f"{kind} {key} = {value!r} is {abs(value - mean) / sigma:.1f} sigma "
                                f"from the exact {float(mean)!r}")
    csv_path = out_dir / "mac-star.csv"
    expected_lines = 1 + slots * len(p["policies"])
    with open(csv_path, "rb") as fh:
        header = fh.readline()
        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b""))
    if header != (SLOT_CSV_HEADER + "\n").encode():
        problems.append(f"{csv_path.name}: header {header!r}")
    if lines != expected_lines:
        problems.append(f"{csv_path.name}: {lines} lines, expected {expected_lines}")
    return problems


def _check_mac_mesh(p: dict, seed: int, out_dir: Path) -> list[str]:
    metrics, problems = _load_summary(p, seed, out_dir / "mac-mesh.json")
    n = p["n_users"]
    for kind, observed in metrics.items():
        for key in ("collision_rate", "all_distinct_rate", "all_same_rate"):
            if not 0.0 <= observed[key] <= 1.0:
                problems.append(f"{kind} {key} = {observed[key]!r} outside [0, 1]")
        # one arbitration round per node, each delivering to at most n users
        if not 0.0 <= observed["throughput"] <= n * n:
            problems.append(f"{kind} throughput = {observed['throughput']!r} outside [0, {n * n}]")
    if AVOID in metrics and metrics[AVOID]["all_same_rate"] != 0:
        problems.append(f"{AVOID} all_same_rate = {metrics[AVOID]['all_same_rate']!r}, expected 0")
    return problems


# --- simulate ----------------------------------------------------------------

def _check_histogram(p: dict, path: Path) -> list[str]:
    n, shots = p["n"], p["shots"]
    phase = n * (n - 1) // 2
    lines = path.read_text(encoding="utf-8").split("\n")
    problems = []
    if lines[0] != HISTOGRAM_HEADER or lines[-1] != "":
        problems.append(f"{path.name}: bad header or missing final newline")
    total = distinct = 0
    previous = None
    for number, line in enumerate(lines[1:-1], start=2):
        outcome_field, count_field, frequency_field = line.split(",")
        outcome = tuple(int(c) for c in outcome_field.split("-"))
        count = int(count_field)
        if len(outcome) != n or not all(0 <= c < n for c in outcome):
            problems.append(f"line {number}: {outcome_field} is not an assignment of {n} users")
        elif (phase + sum(outcome)) % n:
            problems.append(f"line {number}: {outcome_field} lies off the support")
        if previous is not None and outcome <= previous:
            problems.append(f"line {number}: {outcome_field} out of order or repeated")
        if count <= 0 or frequency_field != repr(count / shots):
            problems.append(f"line {number}: count {count_field} with frequency {frequency_field}")
        if len(problems) >= 10:
            return problems
        previous = outcome
        total += count
        if len(set(outcome)) == n:
            distinct += count
    if total != shots:
        problems.append(f"{path.name}: counts sum to {total}, expected {shots}")
    expected = n * math.factorial(n) / n**n
    sigma = math.sqrt(expected * (1 - expected) / shots)
    if abs(distinct / shots - expected) > SIGMAS * sigma:
        problems.append(f"all-distinct frequency {distinct / shots!r} is more than "
                        f"{SIGMAS} sigma from {expected!r}")
    return problems


# --- circuit -----------------------------------------------------------------

def _check_circuit(p: dict, out_dir: Path) -> list[str]:
    from qmg.circuit import export_circuit, parse_circuit

    n = p["n"]
    problems = []
    for phase in range(n):
        audit = json.loads((out_dir / f"audit-figure-p{phase}.json").read_text(encoding="utf-8"))
        if audit["matches"] is not False:
            problems.append(f"figure audit at p={phase}: matches = {audit['matches']!r}, expected false")
    for phase in _corrected_phases(n):
        audit = json.loads((out_dir / f"audit-corrected-p{phase}.json").read_text(encoding="utf-8"))
        if audit["matches"] is not True or not audit["max_amplitude_deviation"] < AUDIT_TOL:
            problems.append(f"corrected audit at p={phase}: matches = {audit['matches']!r}, "
                            f"deviation {audit['max_amplitude_deviation']!r}")
    for regime in ("enhance-optimum", "avoid-worst"):
        text = (out_dir / f"export-{regime}.txt").read_text(encoding="utf-8")
        body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
        gates = parse_circuit(text)
        if not gates or export_circuit(gates) != body:
            problems.append(f"export-{regime}.txt: gate list does not survive a parse round trip")
    return problems
