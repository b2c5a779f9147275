"""Smoke runs of the example scripts with tiny arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# lines a script prints besides its last one; the paper proves explosion for
# log-Pareto(a) counts with every a in (0, 1)
ALSO_EXPECT = {"condition_examples.py": [
    *(f"log-Pareto({a}) counts, quadratic speed: explosion-consistent"
      for a in (0.5, 0.7, 0.9)),
    "exp(Y ln Y) counts, log-increment speed: nonexplosion-consistent",
    "point-mass counts, quadratic speed: explosion-inconsistent"]}


@pytest.mark.parametrize("script,args,expect", [
    ("condition_examples.py", [],
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
    for line in [expect, *ALSO_EXPECT.get(script, [])]:
        assert line in proc.stdout
