"""Command-line entry point: config handling, orchestration, CSV/JSON output.

Every subcommand reads a JSON config (plus a few flag overrides), writes a
CSV of results and a JSON metadata sidecar (config echo, seeds, build id,
wall clock), and exits 0 on success, 2 on validation errors, 3 when any
result was capped or censored.  Reruns with the same config and seed are
byte-identical except for wall-clock fields, which live only in the
sidecar.  Each subcommand is one `Command` in `COMMANDS`;
`run` parses every config against its key table before any work starts.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .bounds import CAP_MARGIN, verify_reach_tail_lower, verify_sandwich
from .conditions import (check_explosion, check_nonexplosion, check_speed_series,
                         shift_speed)
from .distributions import EXACT_COUNT_LIMIT, dist_from_config
from .frogsim import FrogConfig, regime_diagnostic, simulate
from .rng import parallel_map, substream
from .speed import SpeedFunction
from .tadibp import (dry_frequency, dry_probability, no_overshoot_frequency,
                     overshoot_sequence, sample_grain_fields, wet_mask)
from .walks import binomial_stderr, estimate_reach_tail

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

OUTPUT_ENV = "FROGMODEL_OUT"


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=5)
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, fieldnames: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in fieldnames])


# -- config parsing ------------------------------------------------------------

REQUIRED = object()  # spec default of a key every config must give


def _coerce(key: str, coerce: Callable, value):
    """coerce(value), with any failure reported as a config error on key."""
    try:
        return coerce(value)
    except (ConfigError, TypeError, ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _parse(cfg, spec: dict) -> dict:
    """Check a config object against {key: (coercer, default)}; return every
    key coerced, defaults filled in (null counts as absent if the default is)."""
    unknown = set(cfg) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {k for k, (_, default) in spec.items() if default is REQUIRED} - set(cfg)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    out = {}
    for key, (coerce, default) in spec.items():
        value = cfg.get(key, default)
        out[key] = None if value is None and default is None else \
            _coerce(key, coerce, value)
    return out


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {json.dumps(value)}")
    return value


def _at_least(lo: int, at_most: float = math.inf) -> Callable:
    def coerce(value) -> int:
        if int(value) < lo:
            raise ValueError(f"must be >= {lo}, got {value!r}")
        if int(value) > at_most:
            raise ValueError(f"must be <= {at_most}, got {value!r}")
        return int(value)
    return coerce


def _list_of(coerce: Callable, nonempty: bool = True) -> Callable:
    """Coercer of a list item by item; a bare item stands for a list of one."""
    def coerce_all(value) -> list:
        items = [coerce(v) for v in (value if isinstance(value, list) else [value])]
        if nonempty and not items:
            raise ValueError("must not be empty")
        return items
    return coerce_all


def _speed(p: dict, horizon: int) -> SpeedFunction:
    return _coerce("speed", lambda spec: SpeedFunction.from_config(spec, horizon=horizon),
                   p["speed"])


def _frog_config(**kwargs) -> FrogConfig:
    config = FrogConfig(**kwargs)
    _coerce("frog config", FrogConfig.validate, config)
    return config


@dataclass(frozen=True)
class Command:
    keys: dict        # config key -> (coercer, default or REQUIRED)
    columns: list     # CSV columns
    build: Callable   # parsed keys -> {name: object built from several keys}
    runner: Callable  # (parsed, config, outdir, workers) -> (rows iterable, extras, flagged)
    flags: dict = field(default_factory=dict)  # --horizon/--replicas -> config key


# -- subcommands ---------------------------------------------------------------

_FROG_TYPES = {"dist": dist_from_config, "right_horizon": int, "left_mode": str,
               "left_horizon": int, "particle_cap": int, "time_cap": float,
               "event_cap": int, "cohort_cap": int, "seed": int,
               "origin_boost": bool}
# every FrogConfig field, with FrogConfig's defaults, plus the replica count
_SIM_FROG_KEYS = {f.name: (_FROG_TYPES[f.name], REQUIRED if f.default is MISSING else f.default)
                  for f in fields(FrogConfig)} | {"replicas": (_at_least(1), 1)}


def _run_one_frog(args):
    config, replica = args
    rep_seed = int(substream(config.seed, "replica", replica).integers(1 << 62))
    return simulate(replace(config, seed=rep_seed))


def _run_sim_frog(p, cfg, out, workers):
    records = parallel_map(_run_one_frog,
                           [(p["frog"], r) for r in range(p["replicas"])], workers)
    rows = [{"replica": r, "site": site, "theta": rec.theta[site],
             "reached": int(not math.isnan(rec.theta[site]))}
            for r, rec in enumerate(records) for site in range(1, rec.right_horizon + 1)]
    extras = {"stop_reasons": [rec.stop_reason for rec in records],
              "flags": [rec.flags for rec in records],
              "n_events": [rec.n_events for rec in records]}
    return rows, extras, any(rec.censored for rec in records)


def _run_sim_tadibp(p, cfg, out, workers):
    horizon = p["horizon"]
    fields_ = sample_grain_fields(p["speed"], p["dist"], horizon,
                                  substream(p["seed"], "tadibp"), n_fields=p["fields"],
                                  cap=p["reach_cap"], traj_cap=p["traj_cap"])

    def rows():  # streamed to the CSV: fields x sites rows never sit in memory at once
        for f, psi in enumerate(fields_):
            y, wet = overshoot_sequence(psi), wet_mask(psi)
            for site in range(horizon + 1):
                yield {"field": f, "site": site, "psi": int(psi.lengths[site]),
                       "overshoot": int(y[site]), "wet": int(wet[site]),
                       "value_saturated": int(psi.value_saturated[site]),
                       "count_truncated": int(psi.count_truncated[site])}
    extras = {"reach_cap": p["reach_cap"], "traj_cap": p["traj_cap"],
              "censoring_note": f"connectivity statements are horizon-censored at {horizon}"}
    return rows(), extras, any(psi.value_saturated.any() or psi.count_truncated.any()
                               for psi in fields_)


def _reach_speed(p: dict, largest_j: int, largest_x: int) -> dict:
    """Reach cap (default largest_j + 16, must exceed every j) and its speed table."""
    cap = largest_j + 16 if p["reach_cap"] is None else p["reach_cap"]
    if cap <= largest_j:
        raise ConfigError(f"reach_cap: must exceed {largest_j}, got {cap}")
    return {"reach_cap": cap, "speed": _speed(p, largest_x + cap + 1)}


def _reach_tail(args):
    """MC reach tails of one site at all its thresholds, on the site's own
    substream; picklable for parallel_map."""
    p, x, j, replicas, key = args
    return estimate_reach_tail(p["speed"], x, j, p["dist"], replicas,
                               substream(p["seed"], *key),
                               cap=p["reach_cap"], traj_cap=p["traj_cap"])


def _run_dry_prob(p, cfg, out, workers):
    """Product formula with MC tail inputs vs empirical event frequencies.

    Emits both the frequency of the product's own event (no germ left of m
    overgrows past m) and the classical dry event frequency (thresholds
    tighter by one); the two differ and the columns say which is which.
    """
    cap, n_fields, reach_reps = p["reach_cap"], p["fields"], p["reach_replicas"]
    fields_ = sample_grain_fields(p["speed"], p["dist"], max(p["sites"]) - 1,
                                  substream(p["seed"], "fields"), n_fields=n_fields,
                                  cap=cap, traj_cap=p["traj_cap"])
    lengths = np.stack([f.lengths for f in fields_])
    # site i serves every m > i, at threshold m - i, from one sample of replicas
    served = [[m for m in p["sites"] if m > i] for i in range(max(p["sites"]))]
    cells = [(p, i, [m - i for m in ms], reach_reps, ("tail", i))
             for i, ms in enumerate(served)]
    tails = [dict(zip(ms, zip(est.p.tolist(), est.stderr.tolist())))
             for ms, est in zip(served, parallel_map(_reach_tail, cells, workers))]
    rows = []
    for m in p["sites"]:
        r_vals, r_ses = np.array([tails[i][m] for i in range(m)]).T
        formula = dry_probability(m, r_vals)
        with np.errstate(divide="ignore"):
            se_formula = formula * math.sqrt(float(
                np.sum(r_ses ** 2 / np.maximum((1.0 - r_vals) ** 2, 1e-30))))
        ev_freq = no_overshoot_frequency(lengths, m)
        dry_freq = dry_frequency(lengths, m)
        rows.append({"m": m, "formula_p": formula, "formula_se": se_formula,
                     "no_overshoot_freq": ev_freq,
                     "no_overshoot_se": binomial_stderr(ev_freq, n_fields),
                     "dry_freq": dry_freq,
                     "dry_se": binomial_stderr(dry_freq, n_fields),
                     "fields": n_fields, "reach_replicas": reach_reps})
    extras = {"reach_cap": cap,
              "note": ("formula_p multiplies complements of P{reach from i past m}; "
                       "its event is no_overshoot (thresholds m-i), the classical "
                       "dry event tightens thresholds by one")}
    return rows, extras, False


def _run_ell_tail(p, cfg, out, workers):
    cells = [(p, x, p["j"], p["replicas"], ("ell", x)) for x in p["x"]]
    rows = [{"x": est.x, "j": j, "p": p_j, "stderr": se_j,
             "replicas": est.replicas, "cap": est.cap,
             "truncated_draws": est.truncated_draws}
            for est in parallel_map(_reach_tail, cells, workers)
            for j, p_j, se_j in zip(p["j"], est.p.tolist(), est.stderr.tolist())]
    return rows, {}, any(row["truncated_draws"] > 0 for row in rows)


# run in this order, whatever the config's order; horizon caps the largest m a
# check sums (0: none, so K_MAX dyadic blocks or the end of a speed table)
_CONDITION_CHECKS = {
    "speed-series": lambda p: check_speed_series(p["speed"], p["horizon"]),
    "nonexplosion": lambda p: check_nonexplosion(p["dist"], p["speed"], p["horizon"]),
    "explosion": lambda p: check_explosion(p["dist"], p["speed"], p["rho"], p["horizon"]),
}


def _build_check_conditions(p: dict) -> dict:
    unknown = set(p["checks"]) - set(_CONDITION_CHECKS)
    if unknown:
        raise ConfigError(f"checks: unknown {sorted(unknown)}, known {list(_CONDITION_CHECKS)}")
    speed = _speed(p, 1 << 17)  # the named families read on past it in closed form
    if "explosion" in p["checks"]:  # it needs rho > 1 and a speed it can shift above 1
        if p["rho"] is None or p["rho"] <= 1.0:
            raise ConfigError("rho: the explosion check needs rho > 1")
        _coerce("speed", lambda s: shift_speed(p["dist"], s), speed)
    return {"speed": speed}


def _run_check_conditions(p, cfg, out, workers):
    reports = {name: check(p).to_dict() for name, check in _CONDITION_CHECKS.items()
               if name in p["checks"]}
    with open(out / "check-conditions.json", "w") as fh:
        json.dump({"config": cfg, "reports": reports}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [{"check": name, "verdict": rep.get("verdict", "?")}
            for name, rep in reports.items()]
    print(f"{'check':<16} verdict")
    for row in rows:
        print(f"{row['check']:<16} {row['verdict']}")
    return rows, {}, False


def _build_bounds(p: dict) -> dict:
    tl = p["tail_lower"]
    if tl:  # its i_values default to the top-level ones
        tl = {**tl, "i_values": p["i_values"] if tl["i_values"] is None else tl["i_values"]}
        if not any(i <= m for i in tl["i_values"] for m in tl["m_values"]):
            raise ConfigError(f"tail_lower: no (i, m) pair with i <= m in i_values "
                              f"{tl['i_values']} and m_values {tl['m_values']}")
    # a tail_lower cell at m reaches up to site m + CAP_MARGIN
    m_top = max(tl["m_values"], default=0) if tl else 0
    speed = _speed(p, max(max(p["i_values"]) + max(p["j_values"]) + 256,
                          m_top + CAP_MARGIN))
    if speed.value(1) <= 1.0:
        raise ConfigError("speed: the bounds need A > 1 everywhere")
    return {"speed": speed, "tail_lower": tl}


def _run_bounds(p, cfg, out, workers):
    checks = verify_sandwich(p["speed"], p["i_values"], p["j_values"],
                             p["walks_per_cell"], substream(p["seed"], "sandwich"))
    tl = p["tail_lower"]
    if tl:
        checks += verify_reach_tail_lower(tl["dist"], p["speed"], tl["i_values"],
                                          tl["m_values"], tl["replicas"],
                                          substream(p["seed"], "tail-lower"))
    rows = [{**chk.row(), "satisfied": int(chk.satisfied)} for chk in checks]
    return rows, {"unsatisfied": sum(not c.satisfied for c in checks)}, False


def _build_sweep(p: dict) -> dict:
    """One validated FrogConfig per (dist, right horizon) cell, in cell order."""
    dyadic = 1 << p["levels"]
    for r_hor in p["right_horizons"]:
        if r_hor < dyadic or r_hor % dyadic:
            raise ConfigError(f"right_horizons: {r_hor} is not base * 2^levels "
                              f"(levels = {p['levels']}, base >= 1)")
    cells = []
    for spec in p["dists"]:
        dist = _coerce("dists", dist_from_config, spec)
        for r_hor in p["right_horizons"]:
            seed = int(substream(p["seed"], "cell", len(cells)).integers(1 << 62))
            config = _frog_config(**p["frog"], dist=dist, right_horizon=r_hor, seed=seed)
            cells.append((json.dumps(spec, sort_keys=True), config))
    return {"cells": cells}


def _run_sweep_cell(args):
    """One cell's CSV fields and median first-visit curve (None on failure)."""
    config, replicas, levels = args
    try:
        records = [_run_one_frog((config, r)) for r in range(replicas)]
        report = regime_diagnostic(records, levels=levels)
    except Exception as exc:  # cell failures recorded, sweep continues
        return {"label": "error", "slope": float("nan"), "agreement": 0.0,
                "replicas_used": 0, "excluded": replicas, "capped": 1,
                "error": f"{type(exc).__name__}: {exc}"}, None
    stacked = np.stack([rec.theta for rec in records])
    med = np.full(stacked.shape[1], np.nan)
    some = ~np.all(np.isnan(stacked), axis=0)
    med[some] = np.nanmedian(stacked[:, some], axis=0)
    return {"label": report.label, "slope": report.slope, "agreement": report.agreement,
            "replicas_used": len(report.labels), "excluded": report.excluded,
            "capped": int(any(rec.censored for rec in records)), "error": ""}, med


def _run_sweep(p, cfg, out, workers):
    results = parallel_map(_run_sweep_cell, [(config, p["replicas"], p["levels"])
                                             for _, config in p["cells"]], workers)
    rows = [{"cell_id": cid, "dist": dist_json, "right_horizon": config.right_horizon, **row}
            for cid, ((dist_json, config), (row, _)) in enumerate(zip(p["cells"], results))]
    if p["emit_gnuplot"]:
        _emit_gnuplot(out, {cid: med for cid, (_, med) in enumerate(results)
                            if med is not None})
    return rows, {}, any(row["capped"] or row["error"] for row in rows)


def _emit_gnuplot(outdir: Path, curves: dict) -> None:
    """Median first-visit curves per cell plus a ready-to-run plot script."""
    for cid, theta in curves.items():
        rows = [{"site": s, "theta": theta[s]} for s in range(theta.size)
                if not math.isnan(theta[s])]
        _write_csv(outdir / f"theta_cell{cid}.csv", ["site", "theta"], rows)
    lines = ["set datafile separator ','", "set key left top",
             "set xlabel 'site'", "set ylabel 'median first-visit time'",
             "set logscale y"]
    plots = [f"'theta_cell{cid}.csv' using 1:2 skip 1 with lines title 'cell {cid}'"
             for cid in sorted(curves)]
    if plots:
        lines.append("plot " + ", \\\n     ".join(plots))
    (outdir / "theta_curves.gp").write_text("\n".join(lines) + "\n")


_LAW_KEYS = {"dist": (dist_from_config, REQUIRED), "speed": (_object, REQUIRED)}
# traj_cap clamps vector count draws, which stay exact only up to 2^53
_REACH_KEYS = {**_LAW_KEYS, "traj_cap": (_at_least(1, EXACT_COUNT_LIMIT), 100_000),
               "seed": (int, 0)}
_TAIL_LOWER_KEYS = {"dist": (dist_from_config, REQUIRED),
                    "i_values": (_list_of(_at_least(0), nonempty=False), None),
                    "m_values": (_list_of(_at_least(0), nonempty=False), [5, 10]),
                    "replicas": (_at_least(1), 10_000)}
_SWEEP_FROG_KEYS = {k: v for k, v in _SIM_FROG_KEYS.items()
                    if k not in ("dist", "right_horizon", "seed", "replicas")}

COMMANDS = {
    "sim-frog": Command(
        _SIM_FROG_KEYS, ["replica", "site", "theta", "reached"],
        lambda p: {"frog": _frog_config(**{k: p[k] for k in _FROG_TYPES})}, _run_sim_frog,
        {"--horizon": "right_horizon", "--replicas": "replicas"}),
    "sim-tadibp": Command(
        {**_REACH_KEYS, "horizon": (_at_least(0), REQUIRED), "fields": (_at_least(1), 1),
         "reach_cap": (_at_least(1), 64)},
        ["field", "site", "psi", "overshoot", "wet", "value_saturated",
         "count_truncated"],
        lambda p: {"speed": _speed(p, p["horizon"] + p["reach_cap"])}, _run_sim_tadibp,
        {"--horizon": "horizon", "--replicas": "fields"}),
    "dry-prob": Command(
        {**_REACH_KEYS, "sites": (_list_of(_at_least(1)), REQUIRED), "reach_cap": (int, None),
         "reach_replicas": (_at_least(1), 100_000), "fields": (_at_least(1), 10_000)},
        ["m", "formula_p", "formula_se", "no_overshoot_freq", "no_overshoot_se",
         "dry_freq", "dry_se", "fields", "reach_replicas"],
        lambda p: _reach_speed(p, max(p["sites"]), max(p["sites"])), _run_dry_prob),
    "ell-tail": Command(
        {**_REACH_KEYS, "x": (_list_of(_at_least(0)), REQUIRED),
         "j": (_list_of(_at_least(0)), REQUIRED),
         "replicas": (_at_least(1), 100_000), "reach_cap": (int, None)},
        ["x", "j", "p", "stderr", "replicas", "cap", "truncated_draws"],
        lambda p: _reach_speed(p, max(p["j"]), max(p["x"])), _run_ell_tail,
        {"--replicas": "replicas"}),
    "check-conditions": Command(
        {**_LAW_KEYS, "rho": (float, None), "horizon": (_at_least(0), 0),
         "checks": (_list_of(str, nonempty=False), list(_CONDITION_CHECKS))},
        ["check", "verdict"], _build_check_conditions, _run_check_conditions,
        {"--horizon": "horizon"}),
    "bounds": Command(
        {"speed": (_object, REQUIRED),
         "i_values": (_list_of(_at_least(0)), [0, 1, 2]),
         "j_values": (_list_of(_at_least(1)), [1, 2, 3]),
         "walks_per_cell": (_at_least(1), 100_000),
         "tail_lower": (lambda v: _parse(_object(v), _TAIL_LOWER_KEYS) if v else None, None),
         "seed": (int, 0)},
        ["bound_id", "i", "j", "m", "dist", "bound_value", "comparison_value",
         "comparison_stderr", "direction", "satisfied", "note"], _build_bounds, _run_bounds),
    "sweep": Command(
        {"dists": (_list_of(_object, nonempty=False), REQUIRED),
         "right_horizons": (_list_of(int, nonempty=False), REQUIRED),
         "replicas": (_at_least(1), 10), "levels": (_at_least(1), 5),
         "frog": (lambda v: _parse(_object(v), _SWEEP_FROG_KEYS), {}), "seed": (int, 0),
         "emit_gnuplot": (bool, False)},
        ["cell_id", "dist", "right_horizon", "label", "slope", "agreement",
         "replicas_used", "excluded", "capped", "error"], _build_sweep, _run_sweep,
        {"--replicas": "replicas"}),
}


# -- entry point ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frogmodel",
        description="Frog-model simulation, TADIBP percolation, and "
                    "explosion-regime diagnostics")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        flags = {**({"--seed": "seed"} if "seed" in command.keys else {}), **command.flags}
        for flag, key in flags.items():
            p.add_argument(flag, type=int, dest=key, help=f"override the config key {key!r}")
        p.set_defaults(overrides=list(flags.values()))
        p.add_argument("--output", help=f"output directory (default ${OUTPUT_ENV} or ./out)")
        p.add_argument("--workers", type=int, default=max(1, min(os.cpu_count() or 1, 8)))
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    name = args.subcommand
    command = COMMANDS[name]
    try:
        cfg = _load_config(args.config)
        cfg.update({key: getattr(args, key) for key in args.overrides
                    if getattr(args, key) is not None})
        p = _parse(cfg, command.keys)
        p.update(command.build(p))
    except ConfigError as exc:
        print(f"config error: {name}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.output or os.environ.get(OUTPUT_ENV, "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    rows, extras, flagged = command.runner(p, cfg, outdir, args.workers)
    _write_csv(outdir / f"{name}.csv", command.columns, rows)
    wall = time.perf_counter() - t0
    code = EXIT_PARTIAL if flagged else EXIT_OK
    sidecar = {"subcommand": name, "version": __version__, "build": _git_describe(),
               "config": cfg, **extras, "exit_code": code, "wall_clock_s": wall}
    with open(outdir / f"{name}_meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
