"""frogmodel benchmark: one workload (or all) through the public CLI.

    python3 perfbench/run.py --workload frog-light --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

It reads ``src/`` next to this directory and writes only under
``.perfbench_out/`` there (a run record per run; temporary configs and
outputs are removed).  ``BENCHMARK.json`` lists the gated workloads;
frog-heavy runs only on request (see ``predictions.json`` for why, and for
which metric each layer should move on which workload).  Each workload run:

1. starts one fresh workload process (``worker.py``) that repeats the
   workload's CLI invocations, with ``--workers 1``, for ``--seconds``;
   every iteration uses inputs generated from ``--seed`` and every output
   is checked;
2. times set-up ``SETUP_PROBES`` times, half before and half after the
   workload process, so the probes see the machine at two moments: a fresh
   interpreter until ``frogmodel.cli`` is imported and the workload configs
   are written (``setup_s`` is the median; untraced runs only);
3. prints one line per metric, a run record, and as its last line a JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
iterations); with ``--trace 1`` they are the per-layer ones from spans and
counters recorded by ``shims.py`` around the program's public functions.
The gated times are ratios to the yardstick run next to each iteration
(``*_ref``, see ``worker.py``); the same figures in seconds, and the
yardstick's own time, are printed and recorded beside them, not gated.
Failed operations are reported as ``attempted``/``failed`` (their ratio is
printed as ``error_rate``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frog-light", "frog-heavy", "tadibp-fields", "tail-series")
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0
# Reported with the end-to-end metrics but not gated: they drift with the
# machine's speed.
INFO_UNITS = {"wall_s": "s", "cpu_s": "s", "work_per_s": "1/s", "ref_s": "s"}


class BenchError(Exception):
    pass


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {**INFO_UNITS, **{m["name"]: m["unit"]
                             for m in spec["end_to_end"] + spec["per_layer"]}}


def _child(cmd: list, timeout: float, **kw):
    """Run a child to completion within timeout; its captured stdout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} exceeded {timeout:.0f} s")
    except BaseException:  # interrupted or terminated: take the child along
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}")
    return out


def _setup_times(workload: str, seed: int, tmp: Path, deadline: float,
                 probes: range) -> list:
    times = []
    for k in probes:
        t0 = time.monotonic()
        out = _child([sys.executable, str(HERE / "worker.py"), "--probe",
                      "--workload", workload, "--seed", str(seed),
                      "--tmp", str(tmp / f"probe{k}")],
                     deadline - time.monotonic(), stdout=subprocess.PIPE,
                     text=True)
        times.append(float(out.split()[-1]) - t0)
    return times


def _end_to_end(res: dict, setup: list) -> tuple[dict, dict]:
    """The gated metrics and the informational ones."""
    med = {k: statistics.median(v) for k, v in res["untraced"].items()}
    gated = {k: v for k, v in med.items() if k not in INFO_UNITS}
    info = {k: v for k, v in med.items() if k in INFO_UNITS}
    return ({"setup_s": statistics.median(setup), **gated,
             "peak_rss_mb": res["peak_rss_mb"]}, info)


def _per_layer(res: dict) -> dict:
    """Counts from the first traced iteration (inputs fixed by the seed);
    times and rates as medians over traced iterations."""
    layers = res["layers"]
    out = {}
    for name, first in layers[0].items():
        timed = name.endswith("_s") or name == "trace.coverage"
        out[name] = statistics.median(l[name] for l in layers) if timed else first
    out["cli.rows_written"] = float(res["rows_written"])
    out["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                               - statistics.median(res["untraced"]["wall_s"]))
    return out


def _machine_record(seed: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        described = subprocess.run(["git", "describe", "--always", "--dirty"],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        described = "unknown"
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions,
            "git_describe": described, "seed": seed, "src_lines": src_lines}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 outdir: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=outdir))
    try:
        half = 0 if trace else SETUP_PROBES // 2
        setup = _setup_times(workload, seed, tmp, deadline, range(half))
        result_file = tmp / "result.json"
        _child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--tmp", str(tmp),
                "--result", str(result_file)],
               deadline - time.monotonic(), stdout=subprocess.DEVNULL)
        res = json.loads(result_file.read_text())
        setup += _setup_times(workload, seed, tmp, deadline, range(half, 2 * half))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, info = (_per_layer(res), {}) if trace else _end_to_end(res, setup)
    record = {"workload": workload, "trace": int(trace),
              "iterations": res["iterations"], "walls": res["untraced"]["wall_s"],
              **_machine_record(seed, res["versions"]),
              "error_rate": res["failed"] / res["attempted"],
              "failures": res["messages"], "metrics": metrics, "info": info}
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (outdir / name).write_text(json.dumps({**record, "spans": res["spans"]}) + "\n")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "record": record}


def _print_run(workload: str, run: dict, units: dict) -> None:
    for name, value in run["metrics"].items():
        print(f"{workload:<14} {name:<36} {value:>14.6g} {units[name]}")
    for name, value in run["record"]["info"].items():
        print(f"{workload:<14} {name:<36} {value:>14.6g} {units[name]} (not gated)")
    print(f"{workload:<14} {'error_rate':<36} "
          f"{run['failed'] / run['attempted']:>14.6g} ratio "
          f"({run['failed']}/{run['attempted']} operations failed)")
    for msg in run["record"]["failures"]:
        print(f"{workload:<14} FAILED {msg}")
    record = {k: v for k, v in run["record"].items()
              if k not in ("metrics", "info", "failures")}
    print("record " + json.dumps(record, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "frogmodel" / "cli.py").is_file():
        print(f"benchmark: no frogmodel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = _units()
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), outdir)
            _print_run(name, runs[name], units)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if len(runs) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in runs.items()
                   for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
