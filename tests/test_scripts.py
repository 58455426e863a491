"""Scripts under scripts/: run end to end as a user would."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qmg import cli

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_mac_benchmark_matches_cli_with_zero_baseline(tmp_path):
    """At full primary occupancy the classical all-distinct baseline is 0,
    so the ratios are undefined; the script still writes the same files as
    `qmg mac` on the same cell."""
    done = run_script("mac_benchmark.py", "--n", "4", "--slots", "3000", "--activity", "1.0",
                      "--seed", "9", "--out-prefix", str(tmp_path / "script" / "run"))
    assert done.returncode == 0, done.stderr
    assert "classical-uniform: n/a" in done.stdout

    spec = tmp_path / "cell.json"
    spec.write_text(json.dumps({
        "n_users": 4, "n_channels": 4, "primary_activity": 1.0, "slots": 3000, "seed": 9,
        "policies": ["classical-uniform", "quantum-enhance-optimum", "quantum-avoid-worst"],
    }))
    assert cli.main(["mac", str(spec), "--out", str(tmp_path / "cli" / "run")]) == 0
    for suffix in (".json", ".csv"):
        script_out = (tmp_path / "script" / f"run{suffix}").read_bytes()
        assert script_out == (tmp_path / "cli" / f"run{suffix}").read_bytes()
