"""Event-driven simulation of the continuous-time frog model on the line.

Dormant particles wait at their sites; the particles at the origin start
active, walk with unit-rate exponential jump clocks and fair +-1 steps, and
the first arrival at a never-visited site wakes everything there at that
instant.  The simulation is lazily exact: one pending move per walking
particle (memorylessness makes on-demand scheduling exact), and an
activated crowd of n particles is "peeled" in increasing order of first
jump via the spacing representation of exponential order statistics
(the k-th gap is Exp(1)/(n - k)), so only particles that actually jump
before the run ends are ever materialized.  Counts too large for floats
enter through their logarithm and peel at (sub-)ulp spacings.

A move skips every jump that cannot wake anything (first-passage kinetic
Monte Carlo; Opplestrup et al., PRL 97, 230602, 2006).  The visited set
only grows, so a walker at distance d >= 2 from the nearest unvisited site
that holds frogs or records a first-visit time changes nothing until it
leaves (pos - r, pos + r), r the largest power of two <= d, capped at
`EXIT_RADIUS_CAP`.  Its move is that exit: it lands at pos +- r with
probability 1/2 each, at time Gamma(N, 1) after the move starts, with N
the exit's jump count (`walks._exit_jumps`).  A walker next to an
unvisited site makes one jump: Exp(1) and a +-1 coin.

Heavy-tailed counts make fully exact runs refuse honestly: a site holding
e^50 particles materializes more walkers than any budget before the front
moves.  The opt-in `cohort_cap` keeps such runs feasible by simulating,
per oversized cohort, only (a) the first cohort_cap particles to jump and
(b) one exactly-sampled "racer": the fastest particle whose opening steps
are all rightward (binomial thinning of the crowd, minimum of that many
Erlang times, bridge-distributed intermediate arrivals).  Every simulated
particle follows the exact walk law; the only approximation is deleting
the remaining crowd, which can only delay activations.  It is biased in the
conservative direction for explosive behaviour and is flagged in the record.

Stops (right horizon reached, particle cap, time cap, event cap, no
walker left to move) are recorded, never silent.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaincinv, gammaln

from .distributions import InitialDistribution
from .rng import substream
from .walks import _exit_jumps

_PEEL, _JUMP, _EXIT, _RACE = 0, 1, 2, 3
_EVENT_KINDS = ("peel", "jump", "exit", "race")
EXIT_RADIUS_CAP = 32  # largest exit radius; 1 steps every jump
_LN2 = math.log(2.0)


class _EventSource:
    """Block-buffered draws from one substream, consumed in event order."""

    def __init__(self, gen, block: int = 8192):
        self._gen = gen
        self._block = block
        self._exp = gen.standard_exponential(block)
        self._uni = gen.random(block)
        self._ei = 0
        self._ui = 0

    def exponential(self) -> float:
        if self._ei == self._block:
            self._exp = self._gen.standard_exponential(self._block)
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return float(v)

    def uniform(self) -> float:
        if self._ui == self._block:
            self._uni = self._gen.random(self._block)
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return float(v)

    def sign(self) -> int:
        return 1 if self.uniform() < 0.5 else -1

    def uniforms(self, k: int) -> np.ndarray:
        return self._gen.random(k)

    def gamma(self, shape: int) -> float:
        return float(self._gen.standard_gamma(shape))

    def poisson(self, lam: float) -> int:
        return int(self._gen.poisson(lam))

    def binomial(self, n: int, p: float) -> int:
        return int(self._gen.binomial(n, p))


def _min_erlang_quantile(depth: int, ln_q: float) -> float:
    """t with P{Erlang(depth) <= t} = e^{ln_q}, robust to astronomically
    small quantile levels (log-space Newton on the leading expansion)."""
    q = math.exp(ln_q) if ln_q > -600 else 0.0
    if q > 1e-280:
        return float(gammaincinv(depth, q))
    # P(depth, t) ~ t^depth e^{-t} / Gamma(depth+1) / (1 - t/(depth+1)), t << depth
    ln_t = (ln_q + gammaln(depth + 1)) / depth
    for _ in range(4):
        t = math.exp(ln_t)
        ratio = t / (depth + 1.0)
        f = depth * ln_t - t - gammaln(depth + 1) - math.log1p(-ratio) - ln_q
        df = depth - t + ratio / (1.0 - ratio)
        ln_t -= f / df
    return math.exp(ln_t)


@dataclass
class FrogConfig:
    """One simulation setup; (config, seed) fully determines the record."""

    dist: InitialDistribution
    right_horizon: int
    left_mode: str = "removed"        # "removed": no sleepers left of 0; "window"
    left_horizon: int = 0             # window [-L, R] in window mode
    particle_cap: int = 2_000_000     # materialized walkers, hard stop + flag
    time_cap: Optional[float] = None
    event_cap: int = 20_000_000       # peels, moves and racer arrivals
    cohort_cap: Optional[int] = None    # biased speedup for huge counts, see module doc
    seed: int = 0
    origin_boost: bool = True         # one active particle when the origin draws 0

    def validate(self) -> None:
        if self.right_horizon < 1:
            raise ValueError("right horizon must be >= 1")
        if self.particle_cap < 1:
            raise ValueError("particle cap must be >= 1")
        if self.left_mode not in ("removed", "window"):
            raise ValueError("left_mode must be 'removed' or 'window'")
        if self.left_horizon < 0:
            raise ValueError("left horizon must be >= 0")
        if self.cohort_cap is not None and self.cohort_cap < 1:
            raise ValueError("cohort cap must be >= 1 when set")
        if not self.origin_boost and float(self.dist.pmf(0)) >= 1.0:
            raise ValueError("all-zero count law with origin boost disabled "
                             "never produces an active particle")


@dataclass
class ActivationRecord:
    """First-visit times of sites 1..R plus run bookkeeping."""

    theta: np.ndarray                 # theta[n], n = 0..R; NaN where unreached
    counts: np.ndarray                # window counts, +inf when beyond float range
    count_logs: np.ndarray
    window_lo: int                    # leftmost window site (0 or -L)
    stop_reason: str = ""
    n_events: int = 0
    n_materialized: int = 0
    flags: dict = field(default_factory=dict)
    seed: int = 0
    trace: Optional[list] = None      # executed moves per walker (small runs only)

    @property
    def reached(self) -> np.ndarray:
        return ~np.isnan(self.theta)

    @property
    def right_horizon(self) -> int:
        return self.theta.size - 1

    @property
    def censored(self) -> bool:
        """Any stop but reaching the horizon (caps, starvation) leaves sites unreached."""
        return self.stop_reason != "reached-horizon"


def simulate(config: FrogConfig, record_trace: bool = False) -> ActivationRecord:
    """Run one realization; see the module docstring for exactness semantics."""
    config.validate()
    lo = -config.left_horizon if config.left_mode == "window" else 0
    r_max = config.right_horizon
    cohort_cap = config.cohort_cap
    exit_cap = EXIT_RADIUS_CAP

    batch = config.dist.sample_counts_log(substream(config.seed, "counts"),
                                          r_max - lo + 1)
    counts = batch.counts.copy()
    logs = batch.logs.copy()
    boosted = False
    if counts[-lo] < 1 and config.origin_boost:
        counts[-lo] = 1.0
        logs[-lo] = 0.0
        boosted = True

    ev = _EventSource(substream(config.seed, "events"))
    heap: list = []
    seq = 0

    theta = np.full(r_max + 1, np.nan)
    theta[0] = 0.0
    left_vis = right_vis = 0
    last_right_t = 0.0

    walker_pos: list[int] = []
    walker_radius: list[int] = []     # radius of each walker's pending move
    cohorts: dict[int, list] = {}     # site -> [remaining, peeled]
    racers: dict[int, list] = {}      # racer id -> [arrivals list, pointer]
    trace: Optional[list] = [] if record_trace else None

    n_events = 0
    by_kind = [0] * len(_EVENT_KINDS)
    n_racers = 0
    n_capped_cohorts = 0
    stop_reason = ""
    flags = {"particle_cap_hit": False, "time_cap_hit": False,
             "event_cap_hit": False, "cohort_capped": False,
             "origin_boosted": boosted,
             "counts_beyond_float": bool(np.any(np.isinf(counts)))}

    def push(t: float, kind: int, idx: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, idx))
        seq += 1

    def materialize(site: int, t: float, first_step: Optional[int]) -> bool:
        """Add one walker at `site`; executes its first jump when given a step.
        Returns False when the particle budget refuses."""
        nonlocal stop_reason
        if len(walker_pos) >= config.particle_cap:
            flags["particle_cap_hit"] = True
            stop_reason = "particle-cap"
            return False
        wid = len(walker_pos)
        pos = site if first_step is None else site + first_step
        walker_pos.append(pos)
        walker_radius.append(0)
        if trace is not None:
            moves = [] if first_step is None else [(t, first_step)]
            trace.append({"site": site, "born": t, "moves": moves})
        if first_step is not None:
            visit(pos, t)
        schedule_move(wid, t)
        return True

    def schedule_move(wid: int, t: float) -> None:
        """One jump next to an unvisited site, else one exit of (pos - r, pos + r)."""
        pos = walker_pos[wid]
        d = right_vis + 1 - pos
        if left_vis > lo:
            d = min(d, pos - left_vis + 1)
        r = min(1 << (d.bit_length() - 1), exit_cap)
        walker_radius[wid] = r
        if r == 1:
            push(t + ev.exponential(), _JUMP, wid)
        else:
            push(t + ev.gamma(_exit_jumps(r, ev.uniform())), _EXIT, wid)

    def schedule_peel(site: int, t: float, remaining: float) -> None:
        dt = ev.exponential() / remaining if math.isfinite(remaining) else 0.0
        t_next = t + dt
        if t_next <= t:  # sub-ulp spacing: time must still advance strictly
            t_next = math.nextafter(t, math.inf)
        push(t_next, _PEEL, site)

    def launch_racer(site: int, t: float, count: float, log_count: float) -> None:
        """Dispatch the fastest all-right runner of an oversized cohort.

        Depth D is halved from the remaining horizon until the thinned
        runner count is positive; the winner's total time is the exact
        minimum of that many Erlang(D) variables and its intermediate
        arrivals are bridge order statistics.
        """
        nonlocal n_racers
        depth = r_max - site
        if depth < 1:
            return
        ln_n = log_count if math.isinf(count) else math.log(count)
        runners = 0
        ln_runners = None
        while depth >= 1:
            ln_mean = ln_n - depth * _LN2
            if ln_mean > 40.0:
                ln_runners = ln_mean  # Poisson fluctuations invisible at this scale
                break
            if math.isfinite(count) and count <= 2 ** 62:
                runners = ev.binomial(int(count), 2.0 ** (-depth))
            else:
                runners = ev.poisson(math.exp(ln_mean))
            if runners >= 1:
                ln_runners = math.log(runners)
                break
            depth //= 2
        if ln_runners is None:
            return
        u = ev.uniform()
        ln_w = math.log(-math.log1p(-u)) - ln_runners
        if ln_w > -30:
            w = math.exp(ln_w)
            q = -math.expm1(-w)
            ln_q = math.log(q)
        else:
            ln_q = ln_w
        total = _min_erlang_quantile(depth, ln_q)
        inner = np.sort(ev.uniforms(depth - 1)) * total if depth > 1 else np.empty(0)
        times = t + np.concatenate((inner, [total]))
        arrivals = [(site + i + 1, float(times[i])) for i in range(depth)]
        rid = n_racers
        n_racers += 1
        racers[rid] = [arrivals, 0]
        push(arrivals[0][1], _RACE, rid)

    def activate(site: int, t: float) -> None:
        if 0 <= site <= r_max:
            theta[site] = t
        n = counts[site - lo] if lo <= site <= r_max else 0.0
        if n >= 1.0:
            cohorts[site] = [n, 0]
            schedule_peel(site, t, n)
            if cohort_cap is not None and n > cohort_cap:
                launch_racer(site, t, n, logs[site - lo])

    def visit(site: int, t: float) -> None:
        nonlocal left_vis, right_vis, last_right_t
        if site < lo or left_vis <= site <= right_vis:
            return  # left of lo: no frogs, no first-visit time
        # no move passes an unvisited site, so the visited set stays an interval
        assert site == right_vis + 1 or site == left_vis - 1, \
            "visited set stopped being an interval"
        if site > right_vis:
            right_vis = site
            # keep first-visit times strictly ordered even when physical
            # increments underflow double resolution
            if t <= last_right_t:
                t = math.nextafter(last_right_t, math.inf)
            last_right_t = t
        else:
            left_vis = site
        activate(site, t)

    activate(0, 0.0)

    while heap:
        if n_events >= config.event_cap:
            stop_reason = "event-cap"
            flags["event_cap_hit"] = True
            break
        t, _, kind, idx = heapq.heappop(heap)
        if config.time_cap is not None and t > config.time_cap:
            stop_reason = "time-cap"
            flags["time_cap_hit"] = True
            break
        n_events += 1
        by_kind[kind] += 1

        if kind == _PEEL:
            site = idx
            remaining, peeled = cohorts.pop(site)
            if cohort_cap is not None and peeled >= cohort_cap:
                n_capped_cohorts += 1
                flags["cohort_capped"] = True
                continue
            if not materialize(site, t, ev.sign()):
                break
            remaining -= 1.0
            if remaining >= 1.0:
                cohorts[site] = [remaining, peeled + 1]
                schedule_peel(site, t, remaining)
        elif kind != _RACE:  # a jump or an exit
            wid = idx
            step = walker_radius[wid] * ev.sign()
            pos = walker_pos[wid] + step
            walker_pos[wid] = pos
            if trace is not None:
                trace[wid]["moves"].append((t, step))
            visit(pos, t)
            schedule_move(wid, t)
        else:  # racer arrival
            arrivals, ptr = racers[idx]
            site, t_arr = arrivals[ptr]
            visit(site, t_arr)
            ptr += 1
            if ptr < len(arrivals) and math.isnan(theta[r_max]):
                racers[idx] = [arrivals, ptr]
                push(arrivals[ptr][1], _RACE, idx)
            else:
                del racers[idx]
                # the runner walks on normally from where its sprint ended
                if not materialize(site, t_arr, None):
                    break

        if not math.isnan(theta[r_max]):
            stop_reason = "reached-horizon"
            break

    if not stop_reason:
        stop_reason = "starved"

    reached = theta[~np.isnan(theta)]
    assert np.all(np.diff(reached) > 0), "first-visit times not strictly increasing"

    return ActivationRecord(theta=theta, counts=counts, count_logs=logs,
                            window_lo=lo, stop_reason=stop_reason,
                            n_events=n_events, n_materialized=len(walker_pos),
                            flags={**flags, "racers": n_racers,
                                   "capped_cohorts": n_capped_cohorts,
                                   "events": dict(zip(_EVENT_KINDS, by_kind))},
                            seed=config.seed, trace=trace)


# -- dyadic regime diagnostic --------------------------------------------------

LABEL_EXPLOSIVE = "explosive-like"
LABEL_LINEAR = "linear-like"
LABEL_OPEN = "indeterminate"

_SLOPE_EXPLOSIVE = -0.5
_SLOPE_LINEAR = -0.1
_STABLE_LOG_TOL = math.log(1.5)
_LOG_FLOOR = math.log(5e-324)  # stand-in for increments that underflow to zero


@dataclass(frozen=True)
class RegimeReport:
    """Heuristic finite-size classification; a diagnostic, never a theorem."""

    label: str                    # label from the median increments
    slope: float                  # least-squares slope of log median increments
    labels: list                  # per-record labels
    agreement: float              # fraction of labels matching the majority
    excluded: int                 # records missing a needed first-visit time


def _fit_slope(log_deltas: np.ndarray) -> float:
    k = np.arange(log_deltas.size, dtype=float)
    return float(np.polyfit(k, log_deltas, 1)[0])


def _label_from(deltas: np.ndarray, theta_top: float) -> tuple[float, str]:
    # Collapse floor, two forms.  Absolute: jump clocks run at rate one, so
    # crossing a whole dyadic block in under ~1e-12 time units needs
    # effective particle numbers beyond 1e12 (also covers increments below
    # float resolution of the clock).  Relative: the top range-doubling
    # taking under 1e-6 of the whole elapsed time cannot happen for any
    # non-collapsing growth (a linear record spends half its time there, a
    # logarithmic one an eighth).
    resolution = max(1e-12, 16.0 * np.finfo(float).eps * max(theta_top, 0.0))
    collapse = max(resolution, 1e-6 * max(theta_top, 0.0))
    logd = np.where(deltas > resolution, np.log(np.maximum(deltas, 5e-324)),
                    _LOG_FLOOR)
    slope = _fit_slope(logd)
    if slope <= _SLOPE_EXPLOSIVE or deltas[-1] <= collapse:
        return slope, LABEL_EXPLOSIVE
    # stable per-site time: the top block ratios look like constant-speed
    # doublings (geometric mean of the last two, robust to a slow start)
    ratios = np.exp(np.diff(logd))
    top_ratio = float(np.exp(np.mean(np.log(ratios[-2:])))) if ratios.size else 2.0
    stable = abs(math.log(top_ratio) - _LN2) <= _STABLE_LOG_TOL
    if slope >= _SLOPE_LINEAR and stable:
        return slope, LABEL_LINEAR
    return slope, LABEL_OPEN


def regime_diagnostic(records: list, levels: int = 5,
                      base: Optional[int] = None) -> RegimeReport:
    """Classify runs by the slope of log dyadic increments of first-visit times.

    The shared right horizon R must factor as base * 2^levels; level k
    spans sites base*2^k to base*2^(k+1).  Records missing a needed time
    (capped or starved runs) are excluded and counted.
    """
    if not records:
        raise ValueError("no records")
    r = records[0].theta.size - 1
    for rec in records:
        if rec.theta.size - 1 != r:
            raise ValueError("records disagree on the right horizon")
    if base is None:
        if r % (1 << levels):
            raise ValueError(f"horizon {r} is not a power-of-two multiple of a base")
        base = r >> levels
    if base < 1 or base * (1 << levels) != r:
        raise ValueError(f"horizon {r} != base {base} * 2^{levels}")
    sites = base * (2 ** np.arange(levels + 1))

    theta0, per_deltas, labels = [], [], []
    excluded = 0
    for rec in records:
        vals = rec.theta[sites]
        if np.any(np.isnan(vals)):
            excluded += 1
            continue
        deltas = np.diff(vals)
        theta0.append(vals[0])
        per_deltas.append(deltas)
        labels.append(_label_from(deltas, float(vals[-1]))[1])

    if not per_deltas:
        return RegimeReport(LABEL_OPEN, float("nan"), [], 0.0, excluded)

    med = np.median(np.stack(per_deltas), axis=0)
    med_theta_top = float(np.median(theta0)) + float(np.sum(med))
    slope, label = _label_from(med, med_theta_top)

    agreement = max(labels.count(lab) for lab in set(labels)) / len(labels)
    return RegimeReport(label, slope, labels, agreement, excluded)
