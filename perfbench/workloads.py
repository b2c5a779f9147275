"""Workload definitions: generated configs, work units and output checks.

A workload iteration is a list of CLI invocations.  Every setting reaches
the program through a generated JSON config (never through the
``--horizon`` / ``--replicas`` flags), and every invocation runs with
``--workers 1``.  Iteration ``i`` of a run with seed ``s`` uses the config
seed ``iteration_seed(s, i)``, so the same ``--seed`` always gives the same
inputs.

The checks read only the CSV outputs.  They hold for any RNG stream: they
test invariants, deterministic verdicts, and statistics against the
seed-commit references in ``reference.json`` at ``SIGMAS`` standard errors.
A check returns the number of failed operations of its invocation and a
list of messages.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SIGMAS = 5.0
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

DIRAC1 = {"family": "dirac", "k": 1}
POISSON1 = {"family": "poisson", "lam": 1.0}
LOGPARETO = {"family": "logpareto", "a": 0.5}
YLOGY = {"family": "ylogy", "rate": 1.0}
POWER2 = {"family": "power", "alpha": 2.0}
LOG_INCREMENT = {"family": "log_increment"}

# Sizes: one iteration takes two to four seconds on a 2-CPU Xeon box, so a
# run takes the median over about ten.  Relative to the sizes the workloads
# were designed at, replica and field counts are scaled down and
# tadibp-fields uses horizon 100 instead of 200 (its time is set by the
# per-site batches, not by the field count).
FROG_LIGHT = {"dists": [DIRAC1, POISSON1], "right_horizons": [256, 512],
              "replicas": 2, "levels": 5, "emit_gnuplot": True}
FROG_HEAVY = {"dists": [LOGPARETO], "right_horizons": [512, 1024], "replicas": 6,
              "levels": 5, "frog": {"cohort_cap": 256}}
TADIBP = {"dist": DIRAC1, "speed": {"family": "constant", "value": 1.0},
          "horizon": 100, "fields": 100, "reach_cap": 1000}
DRY = {"dist": YLOGY, "speed": LOG_INCREMENT, "sites": [10, 20, 40],
       "reach_replicas": 1250, "fields": 500, "traj_cap": 5000}
ELL = {"dist": LOGPARETO, "speed": POWER2, "x": [1, 4, 16], "j": [1, 2, 4, 8],
       "replicas": 500, "traj_cap": 5000}
COND_EXPLOSION = {"dist": LOGPARETO, "speed": POWER2, "rho": 2.0}
COND_NONEXPLOSION = {"dist": YLOGY, "speed": LOG_INCREMENT,
                     "checks": ["speed-series", "nonexplosion"]}
BOUNDS = {"speed": {"family": "constant", "value": 2.0},
          "walks_per_cell": 10000,
          "tail_lower": {"dist": POISSON1, "replicas": 5000}}

# Deterministic verdicts of check-conditions (no randomness is involved).
EXPECTED_VERDICTS = {
    "cond-explosion": {"speed-series": "converging-diagnostic",
                       "nonexplosion": "nonexplosion-inconsistent",
                       "explosion": "explosion-consistent"},
    "cond-nonexplosion": {"speed-series": "diverging-diagnostic",
                          "nonexplosion": "nonexplosion-consistent"},
}


def iteration_seed(seed: int, iteration: int) -> int:
    return (seed << 16) + iteration


@dataclass
class Invocation:
    """One CLI call: ``frogmodel <subcommand> --config <name>.json``."""

    name: str
    subcommand: str
    config: dict
    expected_exit: int
    units: int                        # checked operations in its output
    work: float                       # input-defined work units
    check: Callable[["Invocation", Path], tuple[int, list]]
    argv: list = field(default_factory=list)

    def prepare(self, config_dir: Path, out_dir: Path) -> None:
        """Write the config file and fill in the argv it runs with."""
        config_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = config_dir / f"{self.name}.json"
        cfg_path.write_text(json.dumps(self.config, indent=1, sort_keys=True))
        self.argv = [self.subcommand, "--config", str(cfg_path),
                     "--output", str(out_dir / self.name), "--workers", "1"]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _fail_all(inv: Invocation, msg: str) -> tuple[int, list]:
    return inv.units, [f"{inv.name}: {msg}"]


# -- frog workloads ------------------------------------------------------------

def sweep_cells(cfg: dict) -> list[tuple[str, int]]:
    return [(json.dumps(d, sort_keys=True), int(r))
            for d in cfg["dists"] for r in cfg["right_horizons"]]


def reference_key(dist_json: str, right_horizon: int) -> str:
    return f"{dist_json}@{right_horizon}"


def check_sweep(inv: Invocation, out: Path, labels: set,
                theta_reference: dict | None = None) -> tuple[int, list]:
    """Each cell carries one of the expected regime labels and no error.
    With a reference, each cell is also uncapped, excludes no replica, and
    the top-half slope of its median first-visit curve lies within SIGMAS
    reference sd of the seed-commit mean."""
    cfg = inv.config
    cells = sweep_cells(cfg)
    try:
        rows = read_rows(out / "sweep.csv")
    except OSError as exc:
        return _fail_all(inv, f"sweep.csv unreadable: {exc}")
    if len(rows) != len(cells):
        return _fail_all(inv, f"{len(rows)} cells, expected {len(cells)}")
    failed, msgs = 0, []
    for k, (row, (dist_json, r_hor)) in enumerate(zip(rows, cells)):
        bad = []
        if row["dist"] != dist_json or int(row["right_horizon"]) != r_hor:
            bad.append("cell order differs from the config")
        if row["label"] not in labels:
            bad.append(f"label {row['label']!r}")
        if row["error"]:
            bad.append(f"error {row['error']!r}")
        if theta_reference is not None:
            if row["capped"] != "0" or row["excluded"] != "0":
                bad.append(f"capped={row['capped']} excluded={row['excluded']}")
            bad += _check_theta_slope(out / f"theta_cell{k}.csv", r_hor,
                                      theta_reference[reference_key(dist_json, r_hor)])
        if bad:
            failed += 1
            msgs.append(f"{inv.name} cell {k}: " + "; ".join(bad))
    return failed, msgs


# With two replicas per cell the dyadic-slope heuristic labels a linear
# cell "indeterminate" about once in a few hundred cells (a finite-size diagnostic,
# not an error); the front-speed check below is what pins linear growth.
LINEAR_LABELS = {"linear-like", "indeterminate"}


def top_half_slope(rows: list, r_hor: int) -> float:
    """(theta(R) - theta(R/2)) / (R/2) of a median first-visit curve."""
    theta = {int(r["site"]): float(r["theta"]) for r in rows}
    return (theta[r_hor] - theta[r_hor // 2]) / (r_hor // 2)


def _check_theta_slope(path: Path, r_hor: int, ref: dict) -> list:
    try:
        rows = read_rows(path)
        slope = top_half_slope(rows, r_hor)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{path.name}: no first-visit times at sites {r_hor // 2} "
                f"and {r_hor} ({exc!r})"]
    if not abs(slope - ref["mean"]) <= SIGMAS * ref["sd"]:
        return [f"top-half slope of median theta = {slope:.4g}, reference "
                f"{ref['mean']:.4g} +- {SIGMAS:g} x {ref['sd']:.3g}"]
    return []


def frog_light(seed: int) -> list[Invocation]:
    cfg = {**FROG_LIGHT, "seed": seed}
    cells = sweep_cells(cfg)
    return [Invocation(
        "sweep-light", "sweep", cfg, 0, len(cells),
        float(cfg["replicas"] * sum(r for _, r in cells)),
        lambda inv, out: check_sweep(inv, out, LINEAR_LABELS,
                                     REFERENCE["frog-light"]["theta_slope"]))]


def frog_heavy(seed: int) -> list[Invocation]:
    cfg = {**FROG_HEAVY, "seed": seed}
    cells = sweep_cells(cfg)
    return [Invocation(
        "sweep-heavy", "sweep", cfg, 0, len(cells),
        float(cfg["replicas"] * sum(r for _, r in cells)),
        lambda inv, out: check_sweep(inv, out, {"explosive-like"}))]


# -- tadibp-fields -------------------------------------------------------------

def check_tadibp(inv: Invocation, out: Path) -> tuple[int, list]:
    """Per field: H+1 rows, psi in [0, cap], overshoot recomputed from psi,
    wet consistent with overshoot, saturation flag consistent with psi.
    Over all fields: mean psi within SIGMAS standard errors of the
    seed-commit reference (a failure there fails every field)."""
    cfg = inv.config
    n_fields, h, cap = cfg["fields"], cfg["horizon"], cfg["reach_cap"]
    try:
        data = np.loadtxt(out / "sim-tadibp.csv", delimiter=",", skiprows=1,
                          dtype=np.int64, ndmin=2)
    except (OSError, ValueError) as exc:
        return _fail_all(inv, f"sim-tadibp.csv unreadable: {exc}")
    if data.shape != (n_fields * (h + 1), 7):
        return _fail_all(inv, f"table shape {data.shape}, expected "
                              f"({n_fields * (h + 1)}, 7)")
    field_ids, site, psi, over, wet, sat = (data[:, c] for c in range(6))
    failed, msgs = 0, []
    arange = np.arange(h + 1)
    for f in range(n_fields):
        rows = slice(f * (h + 1), (f + 1) * (h + 1))
        p, y, w = psi[rows], over[rows], wet[rows]
        expect_y = np.maximum.accumulate(arange + p) - arange
        expect_w = np.concatenate(([1], (expect_y[:-1] >= 1).astype(np.int64)))
        bad = []
        if np.any(field_ids[rows] != f) or np.any(site[rows] != arange):
            bad.append("field/site index columns out of order")
        if np.any((p < 0) | (p > cap)):
            bad.append("psi outside [0, cap]")
        if np.any(y != expect_y):
            bad.append("overshoot differs from max.accumulate(arange + psi) - arange")
        if np.any(w != expect_w):
            bad.append("wet disagrees with overshoot")
        if np.any(sat[rows] != (p >= cap)):
            bad.append("value_saturated disagrees with psi")
        if bad:
            failed += 1
            msgs.append(f"{inv.name} field {f}: " + "; ".join(bad))
    ref = REFERENCE["tadibp-fields"]["psi"]
    mean = float(psi.mean())
    se = math.sqrt(ref["sd"] ** 2 / psi.size + ref["mean_se"] ** 2)
    if not abs(mean - ref["mean"]) <= SIGMAS * se:
        return _fail_all(inv, f"mean psi {mean:.4f}, reference "
                              f"{ref['mean']:.4f} +- {SIGMAS:g} x {se:.3g}")
    return failed, msgs


def tadibp_fields(seed: int) -> list[Invocation]:
    cfg = {**TADIBP, "seed": seed}
    return [Invocation("sim-tadibp", "sim-tadibp", cfg, 0, cfg["fields"],
                       float(cfg["fields"] * (cfg["horizon"] + 1)), check_tadibp)]


# -- tail-series ---------------------------------------------------------------

def check_dry(inv: Invocation, out: Path) -> tuple[int, list]:
    """Product formula and the frequency of its own event agree per m."""
    try:
        rows = read_rows(out / "dry-prob.csv")
    except OSError as exc:
        return _fail_all(inv, f"dry-prob.csv unreadable: {exc}")
    sites = inv.config["sites"]
    if [int(r["m"]) for r in rows] != sites:
        return _fail_all(inv, f"rows for m = {[r['m'] for r in rows]}, expected {sites}")
    failed, msgs = 0, []
    for r in rows:
        fp, fse = float(r["formula_p"]), float(r["formula_se"])
        ev, evse = float(r["no_overshoot_freq"]), float(r["no_overshoot_se"])
        if not (0.0 <= fp <= 1.0 and abs(fp - ev) <= SIGMAS * math.hypot(fse, evse)):
            failed += 1
            msgs.append(f"{inv.name} m={r['m']}: formula {fp:.4g} (se {fse:.2g}) "
                        f"vs no-overshoot {ev:.4g} (se {evse:.2g})")
    return failed, msgs


def check_ell(inv: Invocation, out: Path) -> tuple[int, list]:
    """p in [0, 1] and, per x, no increase in j beyond SIGMAS joint stderrs
    (each (x, j) cell draws its own replicas)."""
    try:
        rows = read_rows(out / "ell-tail.csv")
    except OSError as exc:
        return _fail_all(inv, f"ell-tail.csv unreadable: {exc}")
    cfg = inv.config
    grid = [(x, j) for x in cfg["x"] for j in cfg["j"]]
    if [(int(r["x"]), int(r["j"])) for r in rows] != grid:
        return _fail_all(inv, "rows do not follow the (x, j) grid of the config")
    failed, msgs = 0, []
    prev = None
    for r in rows:
        p, se = float(r["p"]), float(r["stderr"])
        bad = not 0.0 <= p <= 1.0
        if prev is not None and prev[0] == r["x"]:
            bad = bad or p > prev[1] + SIGMAS * math.hypot(se, prev[2])
        if bad:
            failed += 1
            msgs.append(f"{inv.name} x={r['x']} j={r['j']}: p = {p:.4g} "
                        f"(previous j: {prev[1] if prev else None})")
        prev = (r["x"], p, se)
    return failed, msgs


def check_verdicts(inv: Invocation, out: Path) -> tuple[int, list]:
    expected = EXPECTED_VERDICTS[inv.name]
    try:
        rows = read_rows(out / "check-conditions.csv")
    except OSError as exc:
        return _fail_all(inv, f"check-conditions.csv unreadable: {exc}")
    got = {r["check"]: r["verdict"] for r in rows}
    if set(got) != set(expected):
        return _fail_all(inv, f"checks {sorted(got)}, expected {sorted(expected)}")
    wrong = [f"{inv.name} {c}: {got[c]!r}, expected {v!r}"
             for c, v in expected.items() if got[c] != v]
    return len(wrong), wrong


def check_bounds(inv: Invocation, out: Path) -> tuple[int, list]:
    try:
        rows = read_rows(out / "bounds.csv")
    except OSError as exc:
        return _fail_all(inv, f"bounds.csv unreadable: {exc}")
    if len(rows) != inv.units:
        return _fail_all(inv, f"{len(rows)} rows, expected {inv.units}")
    bad = [f"{inv.name} {r['bound_id']} i={r['i']} j={r['j']} m={r['m']}: "
           f"bound {r['bound_value']} vs {r['comparison_value']}"
           for r in rows if r["satisfied"] != "1"]
    return len(bad), bad


def tail_series(seed: int) -> list[Invocation]:
    dry = {**DRY, "seed": seed}
    ell = {**ELL, "seed": seed}
    bounds = {**BOUNDS, "seed": seed}
    # bounds defaults: i_values [0, 1, 2], j_values [1, 2, 3]; tail_lower
    # m_values [5, 10] with i_values inherited (every i <= m)
    sandwich_cells, tail_cells = 9, 6
    dry_cells = sum(dry["sites"])
    ell_cells = len(ell["x"]) * len(ell["j"])
    return [
        Invocation("dry-prob", "dry-prob", dry, 0, len(dry["sites"]),
                   float(dry["reach_replicas"] * dry_cells
                         + dry["fields"] * max(dry["sites"])), check_dry),
        Invocation("ell-tail", "ell-tail", ell, 3, ell_cells,
                   float(ell["replicas"] * ell_cells), check_ell),
        Invocation("cond-explosion", "check-conditions", COND_EXPLOSION, 0, 3,
                   0.0, check_verdicts),
        Invocation("cond-nonexplosion", "check-conditions", COND_NONEXPLOSION, 0,
                   2, 0.0, check_verdicts),
        Invocation("bounds", "bounds", bounds, 0, 2 * sandwich_cells + tail_cells,
                   float(bounds["walks_per_cell"] * sandwich_cells
                         + bounds["tail_lower"]["replicas"] * tail_cells),
                   check_bounds),
    ]


# The yardstick kernels (worker.KERNELS) each workload's time is divided
# by: the frog sweeps are interpreter-bound event loops; tadibp-fields and
# tail-series spend their time in array code as well.
YARDSTICKS = {
    "frog-light": ("events",),
    "frog-heavy": ("events",),
    "tadibp-fields": ("events", "arrays"),
    "tail-series": ("events", "arrays"),
}

WORKLOADS = {
    "frog-light": frog_light,
    "frog-heavy": frog_heavy,
    "tadibp-fields": tadibp_fields,
    "tail-series": tail_series,
}
