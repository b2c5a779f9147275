"""The perfbench trace shims still find every name they patch.

`perfbench/shims.py` looks each patched function up by name in its owner's
namespace, so deleting or moving one breaks `perfbench/run.py --trace 1`.
This runs one tiny config of each traced subcommand under a Tracer.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

from frogmodel import cli, walks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import shims  # noqa: E402

DIRAC1 = {"family": "dirac", "k": 1}
CONST2 = {"family": "constant", "value": 2.0}

CONFIGS = {
    "sim-frog": {"dist": DIRAC1, "right_horizon": 8, "seed": 1},
    "sim-tadibp": {"dist": DIRAC1, "speed": CONST2, "horizon": 4, "seed": 1},
    "dry-prob": {"dist": {"family": "poisson", "lam": 2.0}, "speed": CONST2,
                 "sites": [2], "fields": 10, "reach_replicas": 100, "traj_cap": 2,
                 "seed": 1},
    "ell-tail": {"dist": DIRAC1, "speed": CONST2, "x": [0], "j": [1, 2],
                 "replicas": 100, "seed": 1},
    "check-conditions": {"dist": DIRAC1, "speed": {"family": "power", "alpha": 2.0},
                         "checks": ["speed-series", "explosion"], "rho": 2.0},
    "bounds": {"speed": CONST2, "i_values": [0], "j_values": [1],
               "walks_per_cell": 100, "seed": 1},
}


def test_shims_install_count_and_uninstall(tmp_path):
    originals = (cli.simulate, walks.reach_batch)
    tracer = shims.Tracer()
    try:
        tracer.install()
        for sub, config in CONFIGS.items():
            path = tmp_path / f"{sub}.json"
            path.write_text(json.dumps(config))
            tails = tracer.calls()["walks.estimate_reach_tail"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run([sub, "--config", str(path), "--output",
                                str(tmp_path / sub), "--workers", "1"])
            assert code == 0, sub
            if sub in ("dry-prob", "ell-tail"):
                assert tracer.calls()["walks.estimate_reach_tail"] > tails, sub
    finally:
        tracer.uninstall()
    for name in ("frogsim.events", "walks.walkers", "distributions.draws",
                 "walks.truncated_draws", "bounds.checks", "conditions.terms"):
        assert tracer.counters[name] > 0, name
    assert cli.simulate is originals[0] and walks.reach_batch is originals[1]
