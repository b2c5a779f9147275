"""The workload process: runs one workload's iterations in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  With ``--probe`` it
only imports ``frogmodel.cli``, writes the first iteration's configs and
prints ``time.monotonic()``, so the parent can time set-up.  Otherwise it
runs iterations of the workload through ``frogmodel.cli.run`` in process
until ``--seconds`` have passed (at least ``MIN_ITERATIONS``), checks every
output, and writes its figures as JSON to ``--result``.  The first
iteration warms up (imports, caches, allocator) and its timings are left
out.  With ``--trace 1`` each iteration runs twice on the same inputs,
untraced and then traced.

Every untraced iteration sits between two runs of ``yardstick()``: fixed
kernels that are part of the benchmark, not of the program.  The machine's
speed drifts by tens of percent within minutes (a few cores of a shared
host), and the program's time follows the yardstick's, so the gated times
are ratios to it; the seconds are reported beside them, not gated.  Each
workload names the kernels that track it best (``workloads.YARDSTICKS``):
on a 2-CPU Xeon VM, over 30-second windows of a five-minute trace, the
spread of the median iteration time was 0.21-0.23 of the median in seconds
and 0.04-0.07 as a ratio (frog-light to the event loop alone, tadibp-fields
and tail-series to the event loop plus the array kernel).  The process
keeps to one CPU so that both sides of the ratio run on the same core.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ITERATIONS = 4
MAX_MESSAGES = 20


def _import_cli():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from frogmodel import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"frogmodel imported from {cli.__file__}, not from {SRC}")
    return cli


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _event_loop() -> None:
    """Heap, dict and float steps, like an event-driven simulation."""
    draw = random.Random(1).random
    heap = [(draw(), i) for i in range(64)]
    heapq.heapify(heap)
    visits: dict = {}
    for _ in range(300_000):
        u = draw()
        t, i = heapq.heappop(heap)
        visits[i] = visits.get(i, 0) + 1
        heapq.heappush(heap, (t + u, i + 1 if u < 0.5 else i - 1))


def _arrays() -> None:
    """Whole-array integer draws, running maxima, sorts and sums."""
    gen = np.random.default_rng(2)
    for _ in range(30):
        a = gen.integers(0, 1000, 200_000)
        sites = np.arange(a.size)
        np.cumsum(np.maximum.accumulate(sites + a) - sites)
        np.sort(a)


KERNELS = {"events": _event_loop, "arrays": _arrays}


def yardstick(kernels: tuple) -> tuple[float, float]:
    """Wall and CPU seconds of fixed kernels, the same work in every run
    and on every commit.  The collector is off while they run (they make
    no cycles), so their time does not depend on the program's heap."""
    gc.disable()
    try:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for name in kernels:
            KERNELS[name]()
        return time.perf_counter() - t0, _cpu_s() - cpu0
    finally:
        gc.enable()


def _pin_to_one_cpu() -> None:
    """Run on one CPU, so the yardstick and the program it is compared
    with see the same core (and the same neighbour on a shared host)."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _csv_rows(out: Path) -> int:
    rows = 0
    for path in out.rglob("*.csv"):
        with open(path, "rb") as fh:
            rows += max(sum(1 for _ in fh) - 1, 0)
    return rows


def _invoke(run, inv) -> int | None:
    """Exit code of one CLI call; None when it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return run(inv.argv)
    except Exception:  # an invocation that raises fails all of its units
        traceback.print_exc()
        return None


class Runner:
    """Prepares, times and checks the iterations of one workload."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        import workloads
        self.build = workloads.WORKLOADS[workload]
        self.yardstick = workloads.YARDSTICKS[workload]
        self.iteration_seed = workloads.iteration_seed
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def prepare(self, i: int) -> tuple[list, Path]:
        invs = self.build(self.iteration_seed(self.seed, i))
        out = self.tmp / f"it{i}" / "out"
        for inv in invs:
            inv.prepare(self.tmp / f"it{i}" / "configs", out)
        return invs, out

    def timed(self, invs: list, run) -> tuple[list, float, float]:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        codes = [_invoke(run, inv) for inv in invs]
        wall = time.perf_counter() - t0
        return codes, wall, _cpu_s() - cpu0

    def check(self, invs: list, codes: list, out: Path) -> None:
        for inv, code in zip(invs, codes):
            self.attempted += inv.units
            if code != inv.expected_exit:
                failed, msgs = inv.units, [f"{inv.name}: exit code {code}, "
                                           f"expected {inv.expected_exit}"]
            else:
                failed, msgs = inv.check(inv, out / inv.name)
            self.failed += failed
            self.messages += msgs[:MAX_MESSAGES - len(self.messages)]


def probe(workload: str, seed: int, tmp: Path) -> None:
    _import_cli()
    import workloads
    for inv in workloads.WORKLOADS[workload](workloads.iteration_seed(seed, 0)):
        inv.prepare(tmp, tmp)
    print(repr(time.monotonic()))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp: Path) -> dict:
    _pin_to_one_cpu()
    cli = _import_cli()
    import scipy
    from shims import Tracer, iteration_layers

    runner = Runner(workload, seed, tmp)
    tracer = Tracer()
    untraced = {k: [] for k in ("wall_ref", "cpu_ref", "work_per_ref",
                                "wall_s", "cpu_s", "work_per_s", "ref_s")}
    traced_walls, layers, spans, rows_written = [], [], [], None
    start = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        invs, out = runner.prepare(i)
        before = yardstick(runner.yardstick)
        codes, wall, cpu = runner.timed(invs, cli.run)
        after = yardstick(runner.yardstick)
        if i > 0:
            ref_wall = (before[0] + after[0]) / 2
            ref_cpu = (before[1] + after[1]) / 2
            work = sum(inv.work for inv in invs)
            for key, value in (("wall_ref", wall / ref_wall),
                               ("cpu_ref", cpu / ref_cpu),
                               ("work_per_ref", work * ref_wall / wall),
                               ("wall_s", wall), ("cpu_s", cpu),
                               ("work_per_s", work / wall), ("ref_s", ref_wall)):
                untraced[key].append(value)
        runner.check(invs, codes, out)
        shutil.rmtree(out, ignore_errors=True)
        if trace:
            tracer.install()
            try:
                codes, wall, _ = runner.timed(invs, tracer.wrap("cli.run", cli.run))
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layers.append(iteration_layers(tracer, wall))
            spans.append(tracer.spans)
            tracer.reset()
            if rows_written is None:
                rows_written = _csv_rows(out)
            runner.check(invs, codes, out)
            shutil.rmtree(out, ignore_errors=True)
        i += 1

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"untraced": untraced, "traced_walls": traced_walls,
            "layers": layers, "spans": spans, "rows_written": rows_written,
            "peak_rss_mb": (self_rss + child_rss) / 1024.0,
            "attempted": runner.attempted, "failed": runner.failed,
            "messages": runner.messages, "iterations": i,
            "versions": {"python": sys.version.split()[0],
                         "numpy": np.__version__, "scipy": scipy.__version__}}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.probe:
        probe(args.workload, args.seed, args.tmp)
        return
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.tmp)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
