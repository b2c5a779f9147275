"""Spans and work counters recorded from outside the program.

``Tracer.install`` replaces public functions and the cross-module
references the code actually calls with wrappers that record a span
(name, start, end, parent id) and, where the call's arguments or result
define work, a counter.  ``Tracer.uninstall`` restores the originals.
Nothing in ``src/`` is edited.

All counters are computed from arguments, input sizes and returned
records, so they repeat exactly for a given code and input.
``walks.walker_budget`` in particular is the sum over walkers of the
crossing budget segment(x, cap): the number of jumps the stepping reach
kernel is expected to take, computed, not measured.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

from frogmodel import bounds, cli, conditions, distributions, frogsim, tadibp, walks
from frogmodel.speed import SpeedFunction


class Tracer:
    def __init__(self):
        self.spans: list = []           # [name, start, end, parent id]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """fn with a span; count(tracer, bound_arguments, result) adds work."""
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[sid][2] = time.perf_counter()
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result
        return wrapper

    def self_times(self) -> dict:
        """Per span name: summed duration minus the time of direct children."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def reset(self) -> None:
        self.spans, self.counters = [], Counter()

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count))

    def install(self) -> None:
        p = self._patch
        p(cli, "simulate", "frogsim.simulate", _count_simulate)
        p(cli, "regime_diagnostic", "frogsim.regime_diagnostic")
        for owner in (tadibp, walks):
            p(owner, "reach_batch", "walks.reach_batch", _count_reach)
        for owner in (cli, bounds):
            p(owner, "estimate_reach_tail", "walks.estimate_reach_tail",
              _count_tail)
        p(cli, "sample_grain_fields", "tadibp.sample_grain_fields", _count_fields)
        for owner in (cli, tadibp):
            p(owner, "overshoot_sequence", "tadibp.overshoot_sequence",
              _count_overshoot)
        p(cli, "dry_probability", "tadibp.dry_probability")
        for cls in _distribution_classes():
            for attr in ("sample", "sample_counts_log"):
                if attr in cls.__dict__:
                    p(cls, attr, f"distributions.{attr}", _count_draws)
        p(SpeedFunction, "from_config", "speed.from_config", _count_speed)
        for attr in ("check_speed_series", "check_nonexplosion", "check_explosion"):
            p(cli, attr, "conditions.check")
        self._saved.append((conditions, "diagnose_series",
                            conditions.__dict__["diagnose_series"]))
        conditions.diagnose_series = self._counting_series(conditions.diagnose_series)
        for attr in ("verify_sandwich", "verify_reach_tail_lower"):
            p(cli, attr, "bounds.verify", _count_checks)
        for owner in (cli, frogsim):
            p(owner, "substream", "rng.substream")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _counting_series(self, diagnose_series):
        """Count series terms evaluated; no span (the check span covers it)."""
        @functools.wraps(diagnose_series)
        def wrapper(term_fn, *args, **kwargs):
            def counted(idx):
                self.counters["conditions.terms"] += len(idx)
                return term_fn(idx)
            return diagnose_series(counted, *args, **kwargs)
        return wrapper


def _distribution_classes() -> list:
    return [obj for obj in vars(distributions).values()
            if isinstance(obj, type)
            and issubclass(obj, distributions.InitialDistribution)]


# -- counters ----------------------------------------------------------------------

def _count_simulate(tr: Tracer, a: dict, rec) -> None:
    c = tr.counters
    c["frogsim.events"] += rec.n_events
    c["frogsim.walkers"] += rec.n_materialized
    c["frogsim.racers"] += rec.flags.get("racers", 0)
    c["frogsim.capped_cohorts"] += rec.flags.get("capped_cohorts", 0)
    c["frogsim.sites_reached"] += int(np.count_nonzero(~np.isnan(rec.theta[1:])))


def _count_reach(tr: Tracer, a: dict, result) -> None:
    total = int(np.asarray(a["counts"]).sum())
    speed, x, cap = a["speed"], int(a["x"]), int(a["cap"])
    c = tr.counters
    c["walks.walkers"] += total
    c["walks.walker_budget"] += total * float(speed.prefix_arr[x + cap]
                                              - speed.prefix_arr[x])
    c["walks.peak_walkers"] = max(c["walks.peak_walkers"], total)


def _count_tail(tr: Tracer, a: dict, est) -> None:
    tr.counters["walks.truncated_draws"] += est.truncated_draws


def _count_fields(tr: Tracer, a: dict, fields) -> None:
    tr.counters["tadibp.site_fields"] += int(a["n_fields"]) * (int(a["horizon"]) + 1)


def _count_overshoot(tr: Tracer, a: dict, y) -> None:
    tr.counters["tadibp.overshoot_sites"] += len(y)


def _count_draws(tr: Tracer, a: dict, result) -> None:
    # sample_counts_log of the base class draws through sample: count once
    if not tr.parent_name().startswith("distributions."):
        size = a.get("size")
        tr.counters["distributions.draws"] += 1 if size is None else int(size)


def _count_speed(tr: Tracer, a: dict, speed) -> None:
    tr.counters["speed.sites_built"] += speed.horizon


def _count_checks(tr: Tracer, a: dict, checks) -> None:
    tr.counters["bounds.checks"] += len(checks)
    tr.counters["bounds.unsatisfied"] += sum(1 for c in checks if not c.satisfied)


# Spans whose call counts are reported (the others report self time only).
COUNTED_CALLS = ("frogsim.simulate", "walks.reach_batch",
                 "walks.estimate_reach_tail", "tadibp.overshoot_sequence",
                 "distributions.sample", "speed.from_config", "conditions.check",
                 "rng.substream", "cli.run")
SELF_TIMES = ("frogsim.simulate", "frogsim.regime_diagnostic",
              "walks.reach_batch", "walks.estimate_reach_tail",
              "tadibp.sample_grain_fields", "tadibp.overshoot_sequence",
              "tadibp.dry_probability", "distributions.sample",
              "distributions.sample_counts_log", "speed.from_config",
              "conditions.check", "bounds.verify", "rng.substream", "cli.run")
COUNTERS = ("frogsim.events", "frogsim.walkers", "frogsim.racers",
            "frogsim.capped_cohorts", "walks.walkers", "walks.walker_budget",
            "walks.peak_walkers", "walks.truncated_draws", "tadibp.site_fields",
            "tadibp.overshoot_sites", "distributions.draws", "speed.sites_built",
            "conditions.terms", "bounds.checks", "bounds.unsatisfied")


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def iteration_layers(tr: Tracer, wall: float) -> dict:
    """Per-layer figures of one traced iteration (before tracer.reset())."""
    selfs = tr.self_times()
    calls = tr.calls()
    c = tr.counters
    out = {f"{n}.calls": float(calls.get(n, 0)) for n in COUNTED_CALLS}
    out.update({f"{n}.self_s": selfs.get(n, 0.0) for n in SELF_TIMES})
    out["cli.self_s"] = out.pop("cli.run.self_s")
    out.update({n: float(c.get(n, 0)) for n in COUNTERS})
    out["frogsim.events_per_s"] = ratio(c["frogsim.events"],
                                        selfs.get("frogsim.simulate", 0.0))
    out["frogsim.events_per_site"] = ratio(c["frogsim.events"],
                                           c["frogsim.sites_reached"])
    out["walks.budget_per_s"] = ratio(c["walks.walker_budget"],
                                      selfs.get("walks.reach_batch", 0.0))
    out["trace.coverage"] = ratio(sum(selfs.values()), wall)
    return out
