"""Regenerate reference.json: seed-commit statistics the output checks use.

Run from the repository root on the commit whose outputs are the
reference (``python3 perfbench/make_reference.py``).  It runs the
frog-light sweep and the tadibp-fields grain fields on seeds that the
benchmark never uses and records, per quantity, the mean and the
standard deviation the checks compare against.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from frogmodel import cli  # noqa: E402

import workloads  # noqa: E402

REFERENCE_SEED = 1_000_000_007
SWEEPS = 40
TADIBP_RUNS = 4


def _run(inv, tmp: Path) -> Path:
    inv.prepare(tmp, tmp)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(inv.argv)
    if code != inv.expected_exit:
        raise SystemExit(f"{inv.name}: exit {code}, expected {inv.expected_exit}")
    return tmp / inv.name


def theta_slopes(tmp: Path) -> dict:
    samples: dict = {}
    for k in range(SWEEPS):
        inv, = workloads.frog_light(REFERENCE_SEED + k)
        out = _run(inv, tmp / f"light{k}")
        for cell, (dist_json, r_hor) in enumerate(workloads.sweep_cells(inv.config)):
            rows = workloads.read_rows(out / f"theta_cell{cell}.csv")
            key = workloads.reference_key(dist_json, r_hor)
            samples.setdefault(key, []).append(workloads.top_half_slope(rows, r_hor))
    return {key: {"mean": float(np.mean(v)), "sd": float(np.std(v, ddof=1)),
                  "n": len(v), "min": float(np.min(v)), "max": float(np.max(v))}
            for key, v in samples.items()}


def psi_moments(tmp: Path) -> dict:
    psi = []
    for k in range(TADIBP_RUNS):
        inv, = workloads.tadibp_fields(REFERENCE_SEED + k)
        out = _run(inv, tmp / f"tadibp{k}")
        rows = np.loadtxt(out / "sim-tadibp.csv", delimiter=",", skiprows=1,
                          dtype=np.int64, ndmin=2)
        psi.append(rows[:, 2])
    psi = np.concatenate(psi)
    sd = float(psi.std(ddof=1))
    return {"mean": float(psi.mean()), "sd": sd,
            "mean_se": sd / math.sqrt(psi.size), "n": int(psi.size)}


def main() -> None:
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        ref = {"frog-light": {"theta_slope": theta_slopes(tmp)},
               "tadibp-fields": {"psi": psi_moments(tmp)}}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
