"""The column-block CSV writer makes the bytes of the per-row dict writer.

Each case runs one subcommand through `cli.run`, records what its runner
computed (the fields, the frog records, the checks or the row dicts), and
writes the rows the per-row writer was given from it through
`oracles.write_rows_csv`.  The two CSVs must be equal byte for byte.
"""
import contextlib
import io
import json
import math

import numpy as np
import pytest

from frogmodel import cli
from frogmodel.tadibp import overshoot_sequence, wet_mask
from oracles import write_rows_csv

DIRAC1 = {"family": "dirac", "k": 1}
CONST2 = {"family": "constant", "value": 2.0}


def recorder(monkeypatch, name, store):
    """Replace cli.<name> by a wrapper that appends (args, result) to store."""
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        store.append((args, list(result) if isinstance(result, list) else result))
        return result
    monkeypatch.setattr(cli, name, wrapper)


def run_cli(tmp_path, sub, config, expected_exit=0):
    path = tmp_path / f"{sub}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run([sub, "--config", str(path), "--output", str(out),
                        "--workers", "1"])
    assert code == expected_exit
    return out


def assert_same_bytes(tmp_path, out, name, rows, columns=None):
    expect = tmp_path / f"expect_{name}"
    write_rows_csv(expect, columns or cli.COMMANDS[name].columns, rows)
    written = (out / f"{name}.csv").read_bytes()
    assert written == expect.read_bytes()
    return written


def tadibp_rows(fields_):
    return [{"field": f, "site": site, "psi": int(psi.lengths[site]),
             "overshoot": int(y[site]), "wet": int(wet[site]),
             "value_saturated": int(psi.value_saturated[site]),
             "count_truncated": int(psi.count_truncated[site])}
            for f, psi in enumerate(fields_)
            for y, wet in [(overshoot_sequence(psi), wet_mask(psi))]
            for site in range(psi.lengths.size)]


@pytest.mark.parametrize("horizon, n_fields", [(99, 50), (4500, 2), (0, 5000)])
def test_sim_tadibp_blocks(tmp_path, monkeypatch, horizon, n_fields):
    # blocks of 40 whole fields of 100 sites (100 does not divide 4096), of
    # one field of 4501 sites that the writer cuts, and of 4096 one-site fields
    assert n_fields * (horizon + 1) > cli.CSV_BLOCK
    fields_ = []
    recorder(monkeypatch, "sample_grain_fields", fields_)
    out = run_cli(tmp_path, "sim-tadibp", {"dist": {"family": "poisson", "lam": 2.0},
                                           "speed": CONST2, "horizon": horizon,
                                           "fields": n_fields, "seed": 4})
    assert_same_bytes(tmp_path, out, "sim-tadibp", tadibp_rows(fields_[0][1]))


def test_sim_tadibp_flags(tmp_path, monkeypatch):
    # on a slow speed grains reach the cap; heavy counts hit the draw clamp
    fields_ = []
    recorder(monkeypatch, "sample_grain_fields", fields_)
    out = run_cli(tmp_path, "sim-tadibp",
                  {"dist": {"family": "logpareto", "a": 0.5},
                   "speed": {"family": "constant", "value": 0.25}, "horizon": 300,
                   "fields": 3, "reach_cap": 20, "traj_cap": 50, "seed": 3},
                  expected_exit=3)
    rows = tadibp_rows(fields_[0][1])
    assert any(r["value_saturated"] for r in rows)
    assert any(r["count_truncated"] for r in rows)
    assert_same_bytes(tmp_path, out, "sim-tadibp", rows)


def test_sim_frog_unreached_sites(tmp_path, monkeypatch):
    records = []
    recorder(monkeypatch, "simulate", records)
    out = run_cli(tmp_path, "sim-frog", {"dist": DIRAC1, "right_horizon": 40,
                                         "replicas": 3, "time_cap": 30.0, "seed": 9},
                  expected_exit=3)
    rows = [{"replica": r, "site": site, "theta": rec.theta[site],
             "reached": int(not math.isnan(rec.theta[site]))}
            for r, (_, rec) in enumerate(records)
            for site in range(1, rec.right_horizon + 1)]
    assert not all(row["reached"] for row in rows)
    assert b",nan," in assert_same_bytes(tmp_path, out, "sim-frog", rows)


def test_sweep_quotes_dist_json(tmp_path, monkeypatch):
    blocks, plots = [], []
    recorder(monkeypatch, "_block", blocks)
    recorder(monkeypatch, "_emit_gnuplot", plots)
    out = run_cli(tmp_path, "sweep",
                  {"dists": [DIRAC1, {"family": "poisson", "lam": 1.0}],
                   "right_horizons": [32], "replicas": 3, "levels": 2,
                   "emit_gnuplot": True, "seed": 2})
    written = assert_same_bytes(tmp_path, out, "sweep", blocks[0][0][0])
    assert b'"{""family"": ""dirac"", ""k"": 1}"' in written
    (_, curves), _ = plots[0]
    assert curves
    for cid, theta in curves.items():
        rows = [{"site": s, "theta": theta[s]} for s in range(theta.size)
                if not math.isnan(theta[s])]
        assert_same_bytes(tmp_path, out, f"theta_cell{cid}", rows, ["site", "theta"])


def test_bounds_cells_without_a_parameter(tmp_path, monkeypatch):
    checks = []
    for name in ("verify_sandwich", "verify_reach_tail_lower"):
        recorder(monkeypatch, name, checks)
    out = run_cli(tmp_path, "bounds",
                  {"speed": CONST2, "i_values": [0, 1], "j_values": [1, 2],
                   "walks_per_cell": 200, "seed": 1,
                   "tail_lower": {"dist": {"family": "poisson", "lam": 1.0},
                                  "m_values": [3], "replicas": 50}})
    rows = [{**chk.row(), "satisfied": int(chk.satisfied)}
            for _, part in checks for chk in part]
    assert_same_bytes(tmp_path, out, "bounds", rows)


@pytest.mark.parametrize("sub, config, expected_exit", [
    ("dry-prob", {"dist": {"family": "poisson", "lam": 2.0}, "speed": CONST2,
                  "sites": [2, 3], "fields": 20, "reach_replicas": 100, "seed": 1}, 0),
    ("ell-tail", {"dist": {"family": "logpareto", "a": 0.5}, "speed": CONST2,
                  "x": [0, 2], "j": [1, 3], "replicas": 100, "traj_cap": 5, "seed": 1}, 3),
    ("check-conditions", {"dist": DIRAC1, "speed": {"family": "power", "alpha": 2.0},
                          "checks": ["speed-series", "explosion"], "rho": 2.0}, 0),
])
def test_row_commands(tmp_path, monkeypatch, sub, config, expected_exit):
    blocks = []
    recorder(monkeypatch, "_block", blocks)
    out = run_cli(tmp_path, sub, config, expected_exit)
    assert_same_bytes(tmp_path, out, sub, blocks[0][0][0])


def test_writer_columns(tmp_path):
    """Strings that need quoting, python and numpy values, nan and inf."""
    columns = ["a", "b", "c", "d"]
    rows = [{"a": 'say "hi", twice', "b": 0.1, "c": 3, "d": True},
            {"a": "", "b": math.nan, "c": -7, "d": False},
            {"a": "line\nbreak", "b": math.inf, "c": 2 ** 62, "d": True}]
    cli._write_csv(tmp_path / "blocks.csv", columns, cli._block(rows) + [
        {"a": ["x,y"] * 3, "b": np.array([0.1, np.nan, -np.inf]),
         "c": np.array([3, -7, 2 ** 62]), "d": np.array([1, 0, 1], dtype=np.int8)}])
    write_rows_csv(tmp_path / "rows.csv", columns, rows + [
        {"a": "x,y", "b": 0.1, "c": 3, "d": 1}, {"a": "x,y", "b": math.nan, "c": -7, "d": 0},
        {"a": "x,y", "b": -math.inf, "c": 2 ** 62, "d": 1}])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
