"""Each output check accepts a real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

Every workload's first iteration runs once for real (module fixtures);
each test corrupts a copy of those outputs and expects the check to fail.
"""
from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from frogmodel import cli  # noqa: E402

import workloads  # noqa: E402
from worker import Runner  # noqa: E402

SEED = 12345


def _run_workload(name: str, tmp: Path) -> dict:
    invs = workloads.WORKLOADS[name](workloads.iteration_seed(SEED, 0))
    outputs = {}
    for inv in invs:
        inv.prepare(tmp / "configs", tmp / "out")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(inv.argv) == inv.expected_exit, inv.name
        outputs[inv.name] = (inv, tmp / "out" / inv.name)
    return outputs


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    cache = {}

    def get(workload: str) -> dict:
        if workload not in cache:
            cache[workload] = _run_workload(workload, tmp_path_factory.mktemp(workload))
        return cache[workload]
    return get


def _copy(real, tmp_path, workload: str, name: str):
    inv, out = real(workload)[name]
    dst = tmp_path / name
    shutil.copytree(out, dst)
    return inv, dst


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows) or rows
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _failed(inv, out) -> int:
    failed, msgs = inv.check(inv, out)
    assert (failed > 0) == bool(msgs)
    return failed


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_real_outputs_pass(real, workload):
    for inv, out in real(workload).values():
        assert inv.check(inv, out) == (0, [])


# -- frog workloads ------------------------------------------------------------

def test_sweep_rejects_wrong_label(real, tmp_path):
    inv, out = _copy(real, tmp_path, "frog-light", "sweep-light")
    _edit_csv(out / "sweep.csv", lambda rows: rows[1].update(label="explosive-like"))
    assert _failed(inv, out) == 1


def test_sweep_rejects_error_and_capped_cell(real, tmp_path):
    inv, out = _copy(real, tmp_path, "frog-heavy", "sweep-heavy")
    _edit_csv(out / "sweep.csv", lambda rows: rows[0].update(error="ValueError: x"))
    assert _failed(inv, out) == 1
    inv, out = _copy(real, tmp_path / "b", "frog-light", "sweep-light")
    _edit_csv(out / "sweep.csv", lambda rows: rows[2].update(capped="1"))
    assert _failed(inv, out) == 1


def test_sweep_rejects_missing_cell(real, tmp_path):
    inv, out = _copy(real, tmp_path, "frog-light", "sweep-light")
    _edit_csv(out / "sweep.csv", lambda rows: rows[:-1])
    assert _failed(inv, out) == inv.units


def test_sweep_rejects_slow_front(real, tmp_path):
    inv, out = _copy(real, tmp_path, "frog-light", "sweep-light")

    def stretch(rows):
        for r in rows:
            r["theta"] = repr(float(r["theta"]) * 10.0)
    _edit_csv(out / "theta_cell3.csv", stretch)
    assert _failed(inv, out) == 1


# -- tadibp-fields -------------------------------------------------------------

def _edit_tadibp(real, tmp_path, edit) -> int:
    inv, out = _copy(real, tmp_path, "tadibp-fields", "sim-tadibp")
    _edit_csv(out / "sim-tadibp.csv", edit)
    return _failed(inv, out)


def test_tadibp_rejects_psi_above_cap(real, tmp_path):
    assert _edit_tadibp(real, tmp_path, lambda rows: rows[5].update(psi="1001")) >= 1


def test_tadibp_rejects_wrong_overshoot(real, tmp_path):
    def bump(rows):
        rows[207]["overshoot"] = str(int(rows[207]["overshoot"]) + 1)
    assert _edit_tadibp(real, tmp_path, bump) == 1


def test_tadibp_rejects_wet_flip(real, tmp_path):
    def flip(rows):
        rows[410]["wet"] = str(1 - int(rows[410]["wet"]))
    assert _edit_tadibp(real, tmp_path, flip) == 1


def test_tadibp_rejects_missing_rows(real, tmp_path):
    inv, _ = real("tadibp-fields")["sim-tadibp"]
    assert _edit_tadibp(real, tmp_path, lambda rows: rows[:-1]) == inv.units


def test_tadibp_rejects_shifted_law(real, tmp_path):
    """Consistent rows (overshoot and wet recomputed) with psi one larger:
    only the distributional check can see it, and it fails every field."""
    inv, _ = real("tadibp-fields")["sim-tadibp"]
    h = inv.config["horizon"]

    def shift(rows):
        for f in range(inv.config["fields"]):
            block = rows[f * (h + 1):(f + 1) * (h + 1)]
            over = 0
            for m, r in enumerate(block):
                psi = int(r["psi"]) + 1
                r["wet"] = "1" if m == 0 or over >= 1 else "0"
                over = max(psi, over - 1)
                r.update(psi=str(psi), overshoot=str(over))
    assert _edit_tadibp(real, tmp_path, shift) == inv.units


# -- tail-series ---------------------------------------------------------------

def test_dry_rejects_formula_far_from_frequency(real, tmp_path):
    inv, out = _copy(real, tmp_path, "tail-series", "dry-prob")

    def move(rows):
        r = rows[1]
        r["formula_p"] = repr(float(r["no_overshoot_freq"]) + 0.2)
    _edit_csv(out / "dry-prob.csv", move)
    assert _failed(inv, out) == 1


def test_ell_rejects_increase_in_j_and_out_of_range(real, tmp_path):
    inv, out = _copy(real, tmp_path, "tail-series", "ell-tail")
    _edit_csv(out / "ell-tail.csv", lambda rows: rows[3].update(p="0.999"))
    assert _failed(inv, out) == 1
    _edit_csv(out / "ell-tail.csv", lambda rows: rows[4].update(p="1.5"))
    assert _failed(inv, out) == 2


def test_verdicts_reject_changed_verdict(real, tmp_path):
    inv, out = _copy(real, tmp_path, "tail-series", "cond-explosion")
    _edit_csv(out / "check-conditions.csv",
              lambda rows: rows[-1].update(verdict="inconclusive"))
    assert _failed(inv, out) == 1


def test_bounds_reject_unsatisfied_row(real, tmp_path):
    inv, out = _copy(real, tmp_path, "tail-series", "bounds")
    _edit_csv(out / "bounds.csv", lambda rows: rows[0].update(satisfied="0"))
    assert _failed(inv, out) == 1


def test_unexpected_exit_code_fails_all_units(real, tmp_path):
    inv, out = _copy(real, tmp_path, "tail-series", "ell-tail")
    runner = Runner("tail-series", SEED, tmp_path)
    runner.check([inv], [0], out.parent)
    assert (runner.attempted, runner.failed) == (inv.units, inv.units)
    runner.check([inv], [None], out.parent)
    assert runner.failed == 2 * inv.units
