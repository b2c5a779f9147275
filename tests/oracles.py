"""Brute-force oracles for the production kernels, used only by the tests.

`sample_trajectory` and `fast_reach` step every jump of every walk and scan
the jump epochs against the crossing budgets: the per-jump definition of
the fast-reach statistic that `walks.reach_batch` computes from ladder
epochs.  `chain_connected` searches covering chains of grains verbatim,
the definition that `tadibp.connected_to_horizon` reads off the overshoot
sequence.  `explosion_product_terms` multiplies out every factor of the
explosion product series, the terms that `conditions.check_explosion`
brackets block by block.  `write_rows_csv` writes a CSV one row dict at a
time: the bytes that `cli._write_csv` makes from column blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import csv
import math

import numpy as np

from frogmodel.speed import SpeedFunction
from frogmodel.tadibp import GrainField
from frogmodel.walks import DEFAULT_REACH_CAP, _check_sites

_ORACLE_MAX_H = 64


@dataclass(frozen=True)
class Trajectory:
    """Jump times, steps, and running positions of one walk started at 0."""

    times: np.ndarray      # strictly increasing jump epochs
    steps: np.ndarray      # +-1 per jump
    positions: np.ndarray  # positions immediately after each jump
    truncated_by: Optional[str] = None   # "max_jumps" | "max_time" | None

    def __post_init__(self):
        if self.times.size != self.steps.size:
            raise ValueError("times and steps must align")


def sample_trajectory(rng, max_jumps: Optional[int] = None,
                      max_time: Optional[float] = None) -> Trajectory:
    """Walk with unit-rate exponential interarrivals and fair +-1 steps.

    Generation stops at whichever horizon hits first; the cause is
    recorded so downstream code never mistakes truncation for death.
    """
    if max_jumps is None and max_time is None:
        raise ValueError("need max_jumps >= 1 or max_time > 0")
    if max_jumps is not None and max_jumps < 1:
        raise ValueError("max_jumps must be >= 1")
    if max_time is not None and max_time <= 0:
        raise ValueError("max_time must be positive")

    times = []
    steps = []
    t = 0.0
    truncated = None
    while True:
        if max_jumps is not None and len(times) >= max_jumps:
            truncated = "max_jumps"
            break
        t += rng.exponential()
        if max_time is not None and t > max_time:
            truncated = "max_time"
            break
        times.append(t)
        steps.append(1 if rng.integers(0, 2) else -1)
    times = np.asarray(times, dtype=float)
    steps = np.asarray(steps, dtype=np.int64)
    return Trajectory(times, steps, np.cumsum(steps), truncated)


@dataclass(frozen=True)
class ReachResult:
    value: int
    saturated: bool      # value == cap: true reach is "at least cap"
    cap: int


def _segment_table(speed: SpeedFunction, x: int, cap: int) -> np.ndarray:
    """Crossing budgets segment(x, s) for s = 0..cap."""
    _check_sites(speed, x, cap)
    return speed.prefix_arr[x:x + cap + 1] - speed.prefix_arr[x]


def fast_reach(speed: SpeedFunction, x: int, trajectories: Sequence[Trajectory],
               cap: int = DEFAULT_REACH_CAP) -> ReachResult:
    """Max qualifying rightward distance over the given particles, capped.

    An epoch with position s >= 1 qualifies when its time is within the
    budget segment(x, min(s, cap)); the empty particle list gives 0.
    """
    seg = _segment_table(speed, x, cap)
    best = 0
    for traj in trajectories:
        s_idx = np.clip(traj.positions, 0, cap)
        qual = (traj.positions >= 1) & (traj.times <= seg[s_idx])
        if np.any(qual):
            best = max(best, int(s_idx[qual].max()))
        if best >= cap:
            break
    return ReachResult(min(best, cap), best >= cap, cap)


def chain_connected(x: int, target: int, psi: GrainField | np.ndarray) -> bool:
    """Small-instance oracle: exhaustive search for a covering chain.

    Follows the chain definition verbatim (first germ at or left of x
    covering x, successive germs inside the previous grain, last grain
    covering the target).  Used in tests against the overshoot criterion;
    guarded to small horizons.
    """
    lengths = psi.lengths if isinstance(psi, GrainField) else np.asarray(psi, dtype=np.int64)
    h = lengths.size - 1
    if h > _ORACLE_MAX_H:
        raise ValueError(f"oracle is for horizons <= {_ORACLE_MAX_H}")
    x, target = int(x), int(target)
    if not (0 <= x <= target <= h):
        raise ValueError("need 0 <= x <= target <= horizon")
    if x == target:
        return True
    # direct connection: some z <= x with z + length_z >= target
    if np.any(np.arange(x + 1) + lengths[:x + 1] >= target):
        return True
    start = {z for z in range(x + 1) if z + lengths[z] >= x}
    frontier = list(start)
    seen = set(start)
    while frontier:
        z = frontier.pop()
        reach = z + lengths[z]
        if reach >= target:
            return True
        hi = min(reach, h)
        for nxt in range(z, hi + 1):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def explosion_product_terms(dist, speed: SpeedFunction, rho: float, z0: int,
                            m_max: int) -> np.ndarray:
    """prod_{i <= m} (1 - P{count >= A(m + z0 - 1)^(rho i)}) for m = 1..m_max,
    one factor at a time in log space."""
    out = np.empty(m_max)
    for m in range(1, m_max + 1):
        t = np.asarray(dist.tail_at_log(rho * np.arange(1.0, m + 1.0)
                                        * math.log(speed.value(m + z0 - 1))))
        out[m - 1] = 0.0 if np.any(t >= 1.0) else math.exp(np.log1p(-t).sum())
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows_csv(path, fieldnames: list, rows) -> None:
    """A CSV of one dict per row: floats as .17g, any other value by str, a
    key the row lacks as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in fieldnames])
