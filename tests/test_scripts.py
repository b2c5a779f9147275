"""Smoke runs of the example scripts with tiny arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expect", [
    ("condition_examples.py", ["--horizon", "4096"],
     "verdicts are finite-horizon diagnostics, not convergence proofs"),
    ("regime_experiment.py", ["--replicas", "2", "--horizon", "64"],
     "labels are finite-size diagnostics, not proofs"),
    ("dry_mass_profile.py", ["--sites", "5", "10", "--fields", "50",
                             "--reach-replicas", "200"],
     "dry_freq"),
])
def test_script_runs(script, args, expect):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
