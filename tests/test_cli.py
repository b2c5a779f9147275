import csv
import json
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


def test_check_conditions_verdicts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dist": {"family": "logpareto", "a": 0.5},
                     "speed": {"family": "power", "alpha": 2.0}, "rho": 2.0})
    out = tmp_path / "out"
    assert run(["check-conditions", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "check-conditions.json").read_text())
    assert report["reports"]["explosion"]["verdict"] == "explosion-consistent"
    assert "explosion-consistent" in capsys.readouterr().out


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


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_starved_sim_frog_is_censored(tmp_path, seed):
    cfg = write_cfg(tmp_path, "c.json", {"dist": DIRAC1, "right_horizon": 512,
                                         "prune_window": 1, "replicas": 4, "seed": seed})
    out = tmp_path / "out"
    assert run(["sim-frog", "--config", cfg, "--output", str(out)]) == 3
    meta = json.loads((out / "sim-frog_meta.json").read_text())
    assert meta["stop_reasons"] == ["starved"] * 4 and meta["exit_code"] == 3
    assert ",0\n" in (out / "sim-frog.csv").read_text()


def test_starved_sweep_cell_is_capped(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"dists": [DIRAC1], "right_horizons": [512], "replicas": 2,
                     "levels": 5, "seed": 1, "frog": {"prune_window": 1}})
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--output", str(out)]) == 3
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["capped"] == "1" and rows[0]["error"] == ""
