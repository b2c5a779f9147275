"""Log-space evaluation of the explosion / non-explosion series conditions.

Convergence of an infinite series cannot be decided numerically; every
verdict here is a finite-horizon diagnostic and says so.  Partial sums are
tracked at geometric checkpoints (horizon doubling per block) and labelled
by two complementary rules:

  * converging-diagnostic: the partial sums have stabilized to 1e-12
    relative over the last decade of horizon, or the block increments shrink
    geometrically (every ratio <= 0.97 over the last five blocks);
  * diverging-diagnostic: the last five block increments refuse to decay
    (every consecutive ratio >= 0.99 with positive mass);
  * anything else is inconclusive.

Families with known analytic behaviour also report the analytic verdict,
which fills in when numerics are inconclusive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import InitialDistribution
from .speed import SpeedFunction

VERDICT_CONV = "converging-diagnostic"
VERDICT_DIV = "diverging-diagnostic"
VERDICT_OPEN = "inconclusive"

_DIAGNOSTIC_NOTE = "finite-horizon numeric diagnostic, not a convergence proof"


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    verdict: str
    horizon: int
    checkpoints: list          # (index, partial sum)
    last_terms: list           # (index, term magnitude)
    block_ratios: list         # consecutive block-increment ratios
    stabilized: bool
    analytic_verdict: Optional[str] = None
    notes: tuple = (_DIAGNOSTIC_NOTE,)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict,
            "analytic_verdict": self.analytic_verdict,
            "horizon": self.horizon,
            "checkpoints": [[int(h), float(s)] for h, s in self.checkpoints],
            "last_terms": [[int(h), float(t)] for h, t in self.last_terms],
            "block_ratios": [float(r) for r in self.block_ratios],
            "stabilized": self.stabilized,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class CombinedReport:
    condition_id: str
    verdict: str
    parts: dict
    notes: tuple = (_DIAGNOSTIC_NOTE,)

    def to_dict(self) -> dict:
        return {"condition_id": self.condition_id, "verdict": self.verdict,
                "parts": {k: v.to_dict() for k, v in self.parts.items()},
                "notes": list(self.notes)}


def _classify(block_sums, block_ratios, total) -> tuple[str, bool]:
    """Apply the stabilization / geometric-decay / no-decay rules."""
    if total > 0 and len(block_sums) >= 4:
        # relative mass gathered over roughly the last decade (3.33 doublings)
        tail_mass = sum(block_sums[-3:])
        if tail_mass / total <= 1e-12:
            return VERDICT_CONV, True
    elif total == 0:
        return VERDICT_CONV, True
    if len(block_ratios) >= 5:
        last5 = block_ratios[-5:]
        if all(r <= 0.97 for r in last5):
            return VERDICT_CONV, True
        if all(r >= 0.99 for r in last5) and block_sums[-1] > 0:
            return VERDICT_DIV, True
    return VERDICT_OPEN, False


def diagnose_series(term_fn: Callable[[np.ndarray], np.ndarray],
                    horizon: int, condition_id: str,
                    start: int = 1, first_block: int = 16,
                    analytic: Optional[str] = None,
                    early_stop: bool = True) -> ConditionReport:
    """Run the block diagnostic on term_fn(indices) up to the horizon.

    term_fn must accept an int64 index array and return term magnitudes.
    With early_stop, evaluation ends once five consecutive blocks already
    pin the verdict; the report records the horizon actually used.
    """
    checkpoints = []
    last_terms = []
    block_sums = []
    block_ratios = []
    total = 0.0
    lo = start
    hi = max(start, first_block)
    verdict, stable = VERDICT_OPEN, False
    while lo <= horizon:
        hi = min(hi, horizon)
        idx = np.arange(lo, hi + 1, dtype=np.int64)
        terms = np.asarray(term_fn(idx), dtype=float)
        if not np.all(np.isfinite(terms)):
            raise FloatingPointError(f"{condition_id}: non-finite term in block "
                                     f"[{lo}, {hi}]")
        block = float(terms.sum())
        total += block
        if block_sums and block_sums[-1] > 0:
            block_ratios.append(block / block_sums[-1])
        block_sums.append(block)
        checkpoints.append((hi, total))
        last_terms.append((hi, float(terms[-1])))
        verdict, stable = _classify(block_sums, block_ratios, total)
        if early_stop and stable and len(block_sums) >= 5:
            break
        lo = hi + 1
        hi = 2 * hi
    final_verdict = verdict
    if final_verdict == VERDICT_OPEN and analytic is not None:
        final_verdict = analytic
    return ConditionReport(condition_id, final_verdict, checkpoints[-1][0],
                           checkpoints, last_terms, block_ratios, stable,
                           analytic_verdict=analytic)


# -- speed reciprocal series -------------------------------------------------

def _analytic_speed_verdict(speed: SpeedFunction) -> Optional[str]:
    if speed.family == "power":
        return VERDICT_CONV if speed.params["alpha"] > 1 else VERDICT_DIV
    if speed.family == "constant":
        return VERDICT_DIV
    if speed.family == "log_increment":
        return VERDICT_DIV  # partial sums are ln(horizon + 1)
    return None


def check_speed_series(speed: SpeedFunction, horizon: Optional[int] = None,
                       early_stop: bool = False) -> ConditionReport:
    """Diagnose sum of 1/A(z); the basic dichotomy every verdict pairs with."""
    horizon = min(horizon or speed.horizon, speed.horizon)

    def terms(idx):
        return 1.0 / speed.values_arr[idx - 1]

    return diagnose_series(terms, horizon, "speed-reciprocal-series",
                           analytic=_analytic_speed_verdict(speed),
                           early_stop=early_stop)


# -- non-explosion: count-tail series -----------------------------------------

def check_nonexplosion(dist: InitialDistribution, speed: SpeedFunction,
                       horizon: Optional[int] = None) -> CombinedReport:
    """Tail series of counts at the factorial thresholds, paired with
    divergence of the raw reciprocal-speed series.

    The thresholds are computed from the speed floored at the identity
    line (max(A(z), z)); raising A this way keeps the tail series verdict
    while the divergence check runs on the speed as given.
    """
    horizon = min(horizon or 65536, speed.horizon)
    floored = speed.with_linear_floor()

    def tail_terms(idx):
        return np.asarray(dist.tail_at_log(floored.log_tail_threshold(idx)),
                          dtype=float)

    tail_report = diagnose_series(tail_terms, horizon, "count-tail-series")
    speed_report = check_speed_series(speed, min(speed.horizon, 1 << 20))

    if tail_report.verdict == VERDICT_CONV and speed_report.verdict == VERDICT_DIV:
        verdict = "nonexplosion-consistent"
    elif tail_report.verdict == VERDICT_OPEN or speed_report.verdict == VERDICT_OPEN:
        verdict = "inconclusive"
    else:
        verdict = "nonexplosion-inconsistent"
    return CombinedReport("nonexplosion-check", verdict,
                          {"count_tail": tail_report, "speed_series": speed_report})


# -- explosion: product series -------------------------------------------------

def shift_speed(dist: InitialDistribution, speed: SpeedFunction) -> SpeedFunction:
    """Drop the initial stretch of sites so the remaining speed exceeds one
    and the count law puts mass below it.

    The shifted speed m -> A(m + z0 - 1) has the same product-series
    behaviour; refusal when no qualifying origin exists inside the horizon.
    """
    chunk = 4096
    for lo in range(0, speed.horizon, chunk):
        vals = speed.values_arr[lo:lo + chunk]
        ok = (vals > 1.0) & (np.asarray(dist.cdf_closed(vals)) > 0.0)
        hit = np.nonzero(ok)[0]
        if hit.size:
            return speed.shifted(lo + int(hit[0]) + 1)
    raise ValueError("no site with speed above 1 and positive count mass "
                     "below it inside the horizon; cannot shift")


def _power_tails(dist: InitialDistribution, shifted: SpeedFunction,
                 rho: float, idx: np.ndarray):
    """For each m in idx, the tails P{count >= A(m)^{rho i}}, i = 1..m."""
    for m in idx:
        log_a = math.log(shifted.value(int(m)))
        i = np.arange(1, int(m) + 1, dtype=float)
        yield np.asarray(dist.tail_at_log(rho * i * log_a), dtype=float)


def explosion_product_terms(dist: InitialDistribution, shifted: SpeedFunction,
                            rho: float, idx: np.ndarray) -> np.ndarray:
    """Product terms prod_{i=1..m} P{count <= A(m)^{rho i}} in log space."""
    return np.array([0.0 if np.any(t >= 1.0) else math.exp(np.log1p(-t).sum())
                     for t in _power_tails(dist, shifted, rho, idx)], dtype=float)


def corollary_surrogate_terms(dist: InitialDistribution, shifted: SpeedFunction,
                              rho: float, idx: np.ndarray) -> np.ndarray:
    """Surrogate terms exp{-sum_i P{count > A(m)^{rho i}}} (the 1-a <= e^-a
    relaxation of the product form)."""
    return np.array([math.exp(-t.sum()) for t in _power_tails(dist, shifted, rho, idx)],
                    dtype=float)


def check_explosion(dist: InitialDistribution, speed: SpeedFunction, rho: float,
                    horizon: Optional[int] = None) -> CombinedReport:
    """Product series of cumulative count CDFs at powers of the speed,
    paired with convergence of the reciprocal-speed series.

    rho must exceed one ("there exists rho > 1"); the speed shift is
    applied first so powers of the speed actually grow.
    """
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    horizon = min(horizon or 16384, speed.horizon)
    shifted = shift_speed(dist, speed)
    horizon = min(horizon, shifted.horizon - 1)

    product_report = diagnose_series(
        lambda idx: explosion_product_terms(dist, shifted, rho, idx),
        horizon, "explosion-product-series")
    surrogate_report = diagnose_series(
        lambda idx: corollary_surrogate_terms(dist, shifted, rho, idx),
        horizon, "explosion-corollary-surrogate")
    speed_report = check_speed_series(speed, min(speed.horizon, 1 << 20))

    if product_report.verdict == VERDICT_CONV and speed_report.verdict == VERDICT_CONV:
        verdict = "explosion-consistent"
    elif product_report.verdict == VERDICT_OPEN or speed_report.verdict == VERDICT_OPEN:
        verdict = "inconclusive"
    else:
        verdict = "explosion-inconsistent"
    return CombinedReport("explosion-check", verdict,
                          {"product_series": product_report,
                           "corollary_surrogate": surrogate_report,
                           "speed_series": speed_report})
