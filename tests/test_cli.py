import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frogmodel.cli import run


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    return Path(path).read_bytes()


def meta_without_wallclock(path):
    meta = json.loads(Path(path).read_text())
    meta.pop("wall_clock_s", None)
    return meta


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run(["sim-frog", "--config", "x.json", "--bogus"]) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    code = run(["sim-frog", "--config", str(tmp_path / "none.json")])
    assert code == 2
    assert "no such config" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dist": \n  nope}')
    assert run(["sim-frog", "--config", str(bad)]) == 2
    assert "bad.json:2" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "frog.json",
                    {"dist": {"family": "dirac", "k": 1}, "right_horizon": 4,
                     "frobnicate": True})
    assert run(["sim-frog", "--config", cfg,
                "--output", str(tmp_path / "out")]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_sim_frog_reproducible_bytes(tmp_path):
    cfg = write_cfg(tmp_path, "frog.json",
                    {"dist": {"family": "poisson", "lam": 1.0},
                     "right_horizon": 16, "replicas": 2, "seed": 7})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["sim-frog", "--config", cfg, "--output", str(out1)]) == 0
    assert run(["sim-frog", "--config", cfg, "--output", str(out2)]) == 0
    assert read_csv(out1 / "sim-frog.csv") == read_csv(out2 / "sim-frog.csv")
    assert meta_without_wallclock(out1 / "sim-frog_meta.json") == \
        meta_without_wallclock(out2 / "sim-frog_meta.json")


def test_sim_frog_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "frog.json",
                    {"dist": {"family": "poisson", "lam": 1.0},
                     "right_horizon": 16, "replicas": 1, "seed": 7})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["sim-frog", "--config", cfg, "--output", str(out1)])
    run(["sim-frog", "--config", cfg, "--seed", "8", "--output", str(out2)])
    assert read_csv(out1 / "sim-frog.csv") != read_csv(out2 / "sim-frog.csv")


def test_sim_frog_cap_trip_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, "frog.json",
                    {"dist": {"family": "logpareto", "a": 0.5},
                     "right_horizon": 64, "replicas": 1, "seed": 3,
                     "particle_cap": 2000})
    assert run(["sim-frog", "--config", cfg,
                "--output", str(tmp_path / "out")]) == 3


def test_sim_tadibp_emits_fields(tmp_path):
    cfg = write_cfg(tmp_path, "t.json",
                    {"dist": {"family": "poisson", "lam": 1.0},
                     "speed": {"family": "power", "alpha": 1.0},
                     "horizon": 10, "fields": 3, "seed": 1})
    out = tmp_path / "out"
    assert run(["sim-tadibp", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "sim-tadibp.csv").read_text().splitlines()
    assert lines[0] == "field,site,psi,overshoot,wet,value_saturated,count_truncated"
    assert len(lines) == 1 + 3 * 11


def test_ell_tail_grid(tmp_path):
    cfg = write_cfg(tmp_path, "e.json",
                    {"dist": {"family": "dirac", "k": 1},
                     "speed": {"family": "constant", "value": 2.0},
                     "x": [0, 1], "j": [1, 2], "replicas": 2000, "seed": 2})
    out = tmp_path / "out"
    assert run(["ell-tail", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "ell-tail.csv").read_text().splitlines()
    assert len(lines) == 5


def test_ell_tail_monotone_in_j_per_x(tmp_path):
    # adjacent tails differ by about one stderr, so independent draws per
    # (x, j) would rise somewhere; one sample per x cannot
    cfg = write_cfg(tmp_path, "e.json",
                    {"dist": {"family": "poisson", "lam": 2.0},
                     "speed": {"family": "constant", "value": 0.5},
                     "x": list(range(8)), "j": [5, 6, 7], "replicas": 300, "seed": 3})
    out = tmp_path / "out"
    assert run(["ell-tail", "--config", cfg, "--output", str(out)]) == 0
    with open(out / "ell-tail.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["x"]), int(r["j"])) for r in rows] == [
        (x, j) for x in range(8) for j in [5, 6, 7]]
    for x in range(8):
        p = [float(r["p"]) for r in rows if int(r["x"]) == x]
        assert p[0] >= p[1] >= p[2], (x, p)


def test_check_conditions_verdicts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dist": {"family": "logpareto", "a": 0.5},
                     "speed": {"family": "power", "alpha": 2.0}, "rho": 2.0})
    out = tmp_path / "out"
    assert run(["check-conditions", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "check-conditions.json").read_text())
    assert report["reports"]["explosion"]["verdict"] == "explosion-consistent"
    assert "explosion-consistent" in capsys.readouterr().out


def test_check_conditions_huge_horizon_only_caps_the_blocks(tmp_path, capsys):
    # the speed table stays at 2^17 sites; horizon caps the largest m summed
    cfg = write_cfg(tmp_path, "c.json",
                    {"dist": {"family": "logpareto", "a": 0.5},
                     "speed": {"family": "power", "alpha": 2.0}, "rho": 2.0,
                     "horizon": 10 ** 15})
    out = tmp_path / "out"
    assert run(["check-conditions", "--config", cfg, "--output", str(out)]) == 0
    reports = json.loads((out / "check-conditions.json").read_text())["reports"]
    parts = [part for rep in reports.values() for part in rep.get("parts", {}).values()]
    parts.append(reports["speed-series"])
    assert len(parts) == 6
    for part in parts:
        assert part["horizon"] == 2 ** (part["k_last"] + 1) - 1 <= 10 ** 15


def test_check_conditions_requires_rho(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dist": {"family": "dirac", "k": 1},
                     "speed": {"family": "power", "alpha": 2.0},
                     "checks": ["explosion"]})
    assert run(["check-conditions", "--config", cfg,
                "--output", str(tmp_path / "out")]) == 2


def test_bounds_csv(tmp_path):
    cfg = write_cfg(tmp_path, "b.json",
                    {"speed": {"family": "constant", "value": 2.0},
                     "i_values": [0], "j_values": [1], "walks_per_cell": 5000,
                     "seed": 4})
    out = tmp_path / "out"
    assert run(["bounds", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert len(lines) == 3  # header + lower + upper per cell
    assert all(line.endswith((",1,", ",1", ",0")) or "satisfied" in line
               for line in lines)


def test_bounds_tail_lower_past_sandwich_horizon(tmp_path):
    # m + the reach-cap margin lies past the table the sandwich cells need
    cfg = write_cfg(tmp_path, "b.json",
                    {"speed": {"family": "constant", "value": 2.0},
                     "walks_per_cell": 100,
                     "tail_lower": {"dist": {"family": "poisson", "lam": 1.0},
                                    "m_values": [1000], "replicas": 10}})
    out = tmp_path / "out"
    assert run(["bounds", "--config", cfg, "--output", str(out)]) == 0
    with open(out / "bounds.csv") as fh:
        rows = [row for row in csv.DictReader(fh) if row["bound_id"] == "reach_tail_lower"]
    assert [(row["i"], row["m"]) for row in rows] == [("0", "1000"), ("1", "1000"),
                                                       ("2", "1000")]


def test_bounds_tail_lower_with_subnormal_floor(tmp_path):
    # i = 800 puts the single-walk floor near 6e-311, below the normal floats
    cfg = write_cfg(tmp_path, "b.json",
                    {"speed": {"family": "constant", "value": 2.0},
                     "i_values": [0], "j_values": [1], "walks_per_cell": 100,
                     "tail_lower": {"dist": {"family": "logpareto", "a": 0.5},
                                    "i_values": [800], "m_values": [1000],
                                    "replicas": 10}})
    out = tmp_path / "out"
    assert run(["bounds", "--config", cfg, "--output", str(out)]) == 0
    with open(out / "bounds.csv") as fh:
        rows = [row for row in csv.DictReader(fh) if row["bound_id"] == "reach_tail_lower"]
    assert len(rows) == 1 and 0.0 < float(rows[0]["bound_value"]) < 1e-9


def test_bounds_run_does_not_import_scipy_stats(tmp_path):
    # the Poisson tail_lower bound is a closed form: neither the
    # scipy.stats distributions nor mpmath get imported
    cfg = write_cfg(tmp_path, "b.json",
                    {"speed": {"family": "constant", "value": 2.0},
                     "i_values": [0], "j_values": [1], "walks_per_cell": 100,
                     "tail_lower": {"dist": {"family": "poisson", "lam": 1.0},
                                    "m_values": [2], "replicas": 10}})
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from frogmodel.cli import run; "
            f"assert run(['bounds', '--config', {cfg!r}, '--output', "
            f"{str(tmp_path / 'out')!r}]) == 0; "
            "print('scipy.stats' in sys.modules, 'mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "False"]
    assert (tmp_path / "out" / "bounds.csv").exists()


def test_frog_runs_do_not_import_scipy_special(tmp_path):
    # scipy.special is loaded by the functions that call it; a Dirac or
    # Poisson sweep and a sim-frog run without cohort_cap call none of them
    sweep = write_cfg(tmp_path, "s.json",
                      {"dists": [{"family": "dirac", "k": 1},
                                 {"family": "poisson", "lam": 1.0}],
                       "right_horizons": [16], "replicas": 2, "levels": 2,
                       "emit_gnuplot": True, "seed": 1})
    frog = write_cfg(tmp_path, "f.json", {"dist": {"family": "poisson", "lam": 1.0},
                                          "right_horizon": 16, "replicas": 2, "seed": 1})
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from frogmodel.cli import run; "
            f"assert run(['sweep', '--config', {sweep!r}, '--output', "
            f"{str(tmp_path / 'o1')!r}, '--workers', '1']) == 0; "
            f"assert run(['sim-frog', '--config', {frog!r}, '--output', "
            f"{str(tmp_path / 'o2')!r}, '--workers', '1']) == 0; "
            "print('scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
    assert (tmp_path / "o1" / "theta_cell0.csv").exists()


def test_sweep_grid_and_degenerate_cell(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"dists": [{"family": "dirac", "k": 1},
                               {"family": "poisson", "lam": 1.0}],
                     "right_horizons": [32, 64],
                     "replicas": 3, "levels": 3, "seed": 5})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--output", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 cells
    assert lines[1].startswith("0,")
    assert lines[4].startswith("3,")


def test_sweep_flags_capped_cell(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"dists": [{"family": "logpareto", "a": 0.5}],
                     "right_horizons": [64],
                     "replicas": 2, "levels": 3, "seed": 6,
                     "frog": {"particle_cap": 1000}})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--output", str(out)]) == 3
    import csv as _csv
    with open(out / "sweep.csv") as fh:
        rows = list(_csv.DictReader(fh))
    assert rows[0]["capped"] == "1"


def test_sweep_gnuplot_emission(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"dists": [{"family": "dirac", "k": 1}],
                     "right_horizons": [16], "replicas": 2, "levels": 2,
                     "seed": 7, "emit_gnuplot": True})
    out = tmp_path / "out"
    run(["sweep", "--config", cfg, "--output", str(out)])
    script = (out / "theta_curves.gp").read_text()
    assert "plot" in script and "theta_cell0.csv" in script
    assert (out / "theta_cell0.csv").exists()


def test_output_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FROGMODEL_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "frog.json",
                    {"dist": {"family": "dirac", "k": 1},
                     "right_horizon": 4, "seed": 1})
    assert run(["sim-frog", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "sim-frog.csv").exists()


DIRAC1 = {"family": "dirac", "k": 1}
CONST2 = {"family": "constant", "value": 2.0}

# one small working config per subcommand
SMALL = {
    "sim-frog": {"dist": DIRAC1, "right_horizon": 4, "seed": 1},
    "sim-tadibp": {"dist": DIRAC1, "speed": CONST2, "horizon": 4, "seed": 1},
    "dry-prob": {"dist": DIRAC1, "speed": CONST2, "sites": [2], "fields": 20,
                 "reach_replicas": 50, "seed": 1},
    "ell-tail": {"dist": DIRAC1, "speed": CONST2, "x": [0], "j": [1],
                 "replicas": 100, "seed": 1},
    "check-conditions": {"dist": DIRAC1, "speed": {"family": "power", "alpha": 2.0},
                         "checks": ["speed-series"]},
    "bounds": {"speed": CONST2, "i_values": [0], "j_values": [1],
               "walks_per_cell": 100, "seed": 1},
    "sweep": {"dists": [DIRAC1], "right_horizons": [8], "replicas": 1,
              "levels": 2, "seed": 1},
}

# (subcommand, flag) -> the config key the flag overrides; all others are refused
OVERRIDES = {
    ("sim-frog", "--horizon"): "right_horizon", ("sim-frog", "--replicas"): "replicas",
    ("sim-tadibp", "--horizon"): "horizon", ("sim-tadibp", "--replicas"): "fields",
    ("ell-tail", "--replicas"): "replicas", ("check-conditions", "--horizon"): "horizon",
    ("sweep", "--replicas"): "replicas",
    **{(sub, "--seed"): "seed" for sub in SMALL if sub != "check-conditions"},
}


@pytest.mark.parametrize("flag", ["--horizon", "--replicas", "--seed"])
@pytest.mark.parametrize("sub", sorted(SMALL))
def test_override_flags(tmp_path, capsys, sub, flag):
    cfg = write_cfg(tmp_path, "c.json", SMALL[sub])
    out = tmp_path / "out"
    code = run([sub, "--config", cfg, flag, "3", "--output", str(out)])
    key = OVERRIDES.get((sub, flag))
    if key is None:
        assert code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        assert json.loads((out / f"{sub}_meta.json").read_text())["config"][key] == 3


@pytest.mark.parametrize("sub,changes,key", [
    ("sim-frog", {"right_horizon": "abc"}, "right_horizon"),
    ("sim-frog", {"replicas": "x"}, "replicas"),
    ("sim-tadibp", {"fields": [1]}, "fields"),
    ("ell-tail", {"j": [4], "reach_cap": 4}, "reach_cap"),
    ("bounds", {"walks_per_cell": 0}, "walks_per_cell"),
    ("sweep", {"frog": {"replicaz": 3}}, "frog: unknown config keys: ['replicaz']"),
    ("bounds", {"tail_lower": {"dist": DIRAC1, "replicaz": 5}},
     "tail_lower: unknown config keys: ['replicaz']"),
    ("sim-frog", {"replicas": 0}, "replicas"),
    ("sim-frog", {"replicas": -2}, "replicas"),
    ("ell-tail", {"j": [1, -1]}, "j"),
    ("sweep", {"replicas": 0}, "replicas"),
    ("sweep", {"levels": 0}, "levels"),
    ("sweep", {"right_horizons": [12], "levels": 3}, "right_horizons"),
    ("sweep", {"right_horizons": [8, 4], "levels": 3}, "right_horizons"),
    ("sim-tadibp", {"fields": 0}, "fields"),
    ("sim-tadibp", {"reach_cap": -1}, "reach_cap"),
    ("ell-tail", {"traj_cap": -3}, "traj_cap"),
    ("ell-tail", {"traj_cap": 10 ** 19}, "traj_cap"),
    ("dry-prob", {"traj_cap": 2 ** 53 + 1}, "traj_cap"),
    ("sim-tadibp", {"traj_cap": 10 ** 19}, "traj_cap"),
    ("sim-frog", {"prune_window": 64}, "unknown config keys: ['prune_window']"),
    ("sweep", {"frog": {"prune_window": 64}}, "frog: unknown config keys: ['prune_window']"),
    ("bounds", {"tail_lower": {"dist": DIRAC1, "m_values": [5, -1]}},
     "tail_lower: m_values: must be >= 0"),
    ("ell-tail", {"dist": {"family": "poisson", "lam": 1.0, "k": 7}},
     "dist: unknown poisson keys: ['k']"),
    ("ell-tail", {"speed": {**CONST2, "valeu": 3}},
     "speed: unknown constant speed keys: ['valeu']"),
    ("ell-tail", {"speed": {**CONST2, "horizon": 5}},
     "speed: unknown constant speed keys: ['horizon']"),
    ("bounds", {"tail_lower": {"dist": DIRAC1, "i_values": [20], "m_values": [5]}},
     "tail_lower: no (i, m) pair with i <= m"),
])
def test_bad_config_value_exits_2_naming_key(tmp_path, capsys, sub, changes, key):
    cfg = write_cfg(tmp_path, "c.json", {**SMALL[sub], **changes})
    out = tmp_path / "out"
    assert run([sub, "--config", cfg, "--output", str(out)]) == 2
    assert f"config error: {sub}: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub,payload", [
    ("sim-frog", {"dist": {"family": "poisson", "lam": 1.0}, "right_horizon": 32,
                  "replicas": 3, "seed": 9}),
    ("sweep", {"dists": [DIRAC1, {"family": "poisson", "lam": 1.0}],
               "right_horizons": [16, 32], "replicas": 2, "levels": 3, "seed": 9}),
    ("ell-tail", {"dist": {"family": "poisson", "lam": 2.0}, "speed": CONST2,
                  "x": [0, 3], "j": [0, 2], "replicas": 500, "seed": 9}),
    ("dry-prob", {"dist": {"family": "poisson", "lam": 1.0}, "speed": CONST2,
                  "sites": [2, 4], "fields": 50, "reach_replicas": 200, "seed": 9}),
])
def test_csv_does_not_depend_on_worker_count(tmp_path, sub, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    csvs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert run([sub, "--config", cfg, "--output", str(out),
                    "--workers", workers]) == 0
        csvs.append(read_csv(out / f"{sub}.csv"))
    assert csvs[0] == csvs[1]


def test_sim_frog_event_counts_by_kind_do_not_depend_on_worker_count(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"dist": {"family": "poisson", "lam": 1.0},
                                         "right_horizon": 64, "replicas": 3, "seed": 9})
    counts = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert run(["sim-frog", "--config", cfg, "--output", str(out),
                    "--workers", workers]) == 0
        meta = json.loads((out / "sim-frog_meta.json").read_text())
        kinds = [flags["events"] for flags in meta["flags"]]
        assert [sum(k.values()) for k in kinds] == meta["n_events"]
        counts.append(kinds)
    assert counts[0] == counts[1]
    assert all(k["exit"] > 0 for k in counts[0])


# almost always zero particles; without the origin boost the run has no walker
MOSTLY_EMPTY = {"family": "table", "pmf": [0.999, 0.001]}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_starved_sim_frog_is_censored(tmp_path, seed):
    cfg = write_cfg(tmp_path, "c.json", {"dist": MOSTLY_EMPTY, "right_horizon": 512,
                                         "origin_boost": False, "replicas": 4,
                                         "seed": seed})
    out = tmp_path / "out"
    assert run(["sim-frog", "--config", cfg, "--output", str(out)]) == 3
    meta = json.loads((out / "sim-frog_meta.json").read_text())
    assert meta["stop_reasons"] == ["starved"] * 4 and meta["exit_code"] == 3
    assert ",0\n" in (out / "sim-frog.csv").read_text()


def test_starved_sweep_cell_is_capped(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dists": [MOSTLY_EMPTY], "right_horizons": [512], "replicas": 2,
                     "levels": 5, "seed": 1, "frog": {"origin_boost": False}})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--output", str(out)]) == 3
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["capped"] == "1" and rows[0]["error"] == ""
