"""Condensed log-space diagnostics of the explosion / non-explosion series.

Convergence of an infinite series cannot be decided numerically; every
verdict here is a finite-horizon diagnostic and says so.  Each series is
condensed: for k = 0..K_MAX the dyadic block sum over 2^k <= m < 2^(k+1) is
bracketed in log space, lo_k <= ln(block_k) <= hi_k, from end values of
monotone terms.  Blocks that behave like k^s sum to a finite value exactly
when s < -1, so one rule reads the slopes s_hi, s_lo of hi_k, lo_k against
ln k over the last half of the evaluated k:

  * converging-diagnostic: s_hi < -1 - SLOPE_MARGIN; evaluation stops
    early once hi_k also lies e^-40 below the partial sum;
  * diverging-diagnostic: s_lo >= -1 at the last k, and s_hi >= 0 too where
    the horizon or the end of a speed table caps k short of K_MAX;
  * anything else is inconclusive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import InitialDistribution
from .speed import SpeedFunction

VERDICT_CONV = "converging-diagnostic"
VERDICT_DIV = "diverging-diagnostic"
VERDICT_OPEN = "inconclusive"

_DIAGNOSTIC_NOTE = "finite-horizon numeric diagnostic, not a convergence proof"

K_MAX = 1000            # 2^1001, lgamma and rho i ln A at that size stay floats
SLOPE_MARGIN = 0.1      # converging needs a block decay faster than k^-(1 + margin)
_NEGLIGIBLE = 40.0      # early stop: last upper block e^-40 below the partial sum
_CHUNK = 8              # blocks evaluated between verdict checks
_EXACT_K = 12           # count-tail blocks below 2^12 are summed term by term
_CELL_RATIO = 2.0 ** (1.0 / 16.0)  # explosion sub-blocks: geometric cells in y
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ConditionReport:
    """One condensed series: the block brackets for k = 0..k_last and the
    slopes its verdict read."""

    condition_id: str
    verdict: str
    log_lo: np.ndarray         # lo_k <= ln(block_k)
    log_hi: np.ndarray         # hi_k >= ln(block_k)
    slope_lo: float
    slope_hi: float
    sub_blocks: int
    notes: tuple = (_DIAGNOSTIC_NOTE,)

    @property
    def k_last(self) -> int:
        return len(self.log_hi) - 1

    @property
    def horizon(self) -> int:  # largest m summed: the end of the last block
        return 2 ** (self.k_last + 1) - 1

    def log_partial_sum(self) -> tuple:
        """Bracket of ln sum_{m <= horizon} a_m."""
        return (float(np.logaddexp.reduce(self.log_lo)),
                float(np.logaddexp.reduce(self.log_hi)))

    def to_dict(self) -> dict:
        return {"condition_id": self.condition_id, "verdict": self.verdict,
                "k_last": self.k_last, "horizon": self.horizon,
                "blocks": self.k_last + 1, "sub_blocks": self.sub_blocks,
                "slope_lo": self.slope_lo, "slope_hi": self.slope_hi,
                "log_partial_sum": list(self.log_partial_sum()),
                "notes": list(self.notes)}


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


def _slope(x: np.ndarray) -> float:
    """Slope of x_k against ln k between k = K // 2 and K = len(x) - 1; -inf
    once the last block is exactly zero, nan with fewer than three blocks."""
    k = len(x) - 1
    if k < 2:
        return math.nan
    if x[-1] == -math.inf:
        return -math.inf
    return float((x[-1] - x[k // 2]) / math.log(k / (k // 2)))


def diagnose_series(log_blocks: Callable, horizon: Optional[float],
                    condition_id: str) -> ConditionReport:
    """Condense one series and label it.

    log_blocks(ks) takes an int64 array of dyadic exponents k and returns
    arrays (lo, hi) with lo_k <= ln sum_{2^k <= m < 2^(k+1)} a_m <= hi_k,
    and optionally a third array of the sub-blocks each k evaluated.  Blocks
    run from k = 0 to K_MAX, or to the last whole block inside the horizon
    (None, 0 or inf: no cap).
    """
    k_stop = K_MAX
    if horizon and horizon != math.inf:  # last k with 2^(k+1) - 1 <= horizon
        k_stop = min(K_MAX, (int(horizon) + 1).bit_length() - 2)
    lo, hi, sub_blocks = [], [], 0
    for start in range(0, k_stop + 1, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, k_stop + 1), dtype=np.int64)
        block_lo, block_hi, *subs = log_blocks(ks)
        lo.extend(block_lo)
        hi.extend(block_hi)
        sub_blocks += int(np.sum(subs))
        slope_lo, slope_hi = _slope(lo), _slope(hi)
        if (slope_hi < -1.0 - SLOPE_MARGIN
                and hi[-1] <= np.logaddexp.reduce(hi) - _NEGLIGIBLE):
            break
    # the loop stops early only on convergence; capped short of K_MAX, sum m^-1.1
    # reads s_lo = -0.8 at k = 16, so there the upper blocks must not decay (1/m: 0)
    verdict = (VERDICT_CONV if slope_hi < -1.0 - SLOPE_MARGIN
               else VERDICT_DIV if slope_lo >= -1.0 and (slope_hi >= 0.0 or len(hi) > K_MAX)
               else VERDICT_OPEN)
    return ConditionReport(condition_id, verdict, np.array(lo), np.array(hi),
                           slope_lo, slope_hi, sub_blocks)


def _monotone(log_term: Callable) -> Callable:
    """Block brackets of non-increasing terms exp(log_term(m)): 2^k times
    the last and the first term.  The block ends are floats; 2^(k+1) - 1
    rounds up to 2^(k+1) past k = 52, which keeps both brackets safe."""
    def log_blocks(ks):
        return (ks * _LN2 + log_term(2.0 ** (ks + 1) - 1.0),
                ks * _LN2 + log_term(2.0 ** ks))
    return log_blocks


def _combined(check: str, parts: dict, wanted: dict) -> CombinedReport:
    """`check`-consistent when every part in `wanted` reads its wanted
    verdict, inconclusive when one of them is open, else inconsistent."""
    got = [parts[name].verdict for name in wanted]
    verdict = (f"{check}-consistent" if got == list(wanted.values())
               else VERDICT_OPEN if VERDICT_OPEN in got else f"{check}-inconsistent")
    return CombinedReport(f"{check}-check", verdict, parts)


def check_speed_series(speed: SpeedFunction,
                       horizon: Optional[int] = None) -> ConditionReport:
    """Diagnose sum of 1/A(m); the basic dichotomy every verdict pairs with."""
    return diagnose_series(_monotone(lambda m: -speed.log_value(m)),
                           min(horizon or math.inf, speed.last_site),
                           "speed-reciprocal-series")


def check_nonexplosion(dist: InitialDistribution, speed: SpeedFunction,
                       horizon: Optional[int] = None) -> CombinedReport:
    """Tail series of counts at the factorial thresholds (of the speed
    floored at the identity line, which keeps the verdict), paired with
    divergence of the raw reciprocal-speed series.  Blocks below 2^12 are
    summed term by term, which covers the thresholds' non-monotone start;
    past it the thresholds increase and the tails fall."""
    def log_tails(m):
        with np.errstate(divide="ignore"):
            return np.log(dist.tail_at_log(speed.log_tail_threshold(m)))

    n = int(min(2 ** _EXACT_K - 1, speed.last_site))
    tails = dist.tail_at_log(speed.log_tail_threshold(np.arange(1.0, n + 1.0)))
    with np.errstate(divide="ignore"):
        exact = np.log(np.add.reduceat(tails, 2 ** np.arange(n.bit_length()) - 1))

    def log_blocks(ks):
        lo, hi = _monotone(log_tails)(ks)
        small = ks < _EXACT_K
        lo[small] = hi[small] = exact[ks[small]]
        return lo, hi

    tail = diagnose_series(log_blocks, min(horizon or math.inf, speed.last_site),
                           "count-tail-series")
    return _combined("nonexplosion",
                     {"count_tail": tail, "speed_series": check_speed_series(speed, horizon)},
                     {"count_tail": VERDICT_CONV, "speed_series": VERDICT_DIV})


def shift_speed(dist: InitialDistribution, speed: SpeedFunction) -> int:
    """First site z0 whose speed exceeds one with count mass below it; the
    product series reads the shifted speed m -> A(m + z0 - 1), whose powers
    grow and which has the same product-series behaviour."""
    for lo in range(0, speed.horizon, 4096):
        vals = speed.values_arr[lo:lo + 4096]
        ok = (vals > 1.0) & (np.asarray(dist.cdf_closed(vals)) > 0.0)
        if ok.any():
            return lo + int(np.argmax(ok)) + 1
    raise ValueError("no site with speed above 1 and positive count mass "
                     "below it inside the horizon; cannot shift")


def _cell_sums(y: np.ndarray, values: np.ndarray, n: np.ndarray, step: np.ndarray) -> tuple:
    """Per row r: sum over cells j of #{i <= n_r : y_j <= i step_r < y_j+1}
    times values_j, and the number of cells that hold some i."""
    below = np.clip(np.ceil(y / step[:, None]) - 1.0, 0.0, n[:, None])
    counts = np.diff(below, axis=1)
    used = counts > 0
    with np.errstate(invalid="ignore"):
        return np.sum(counts * values, axis=1, where=used), used.sum(axis=1)


def check_explosion(dist: InitialDistribution, speed: SpeedFunction, rho: float,
                    horizon: Optional[int] = None) -> CombinedReport:
    """Product series of cumulative count CDFs at powers of the speed,
    paired with convergence of the reciprocal-speed series; rho must exceed
    one ("there exists rho > 1").

    A term is prod_{i <= m} (1 - t_i), t_i the count tail at
    A(m + z0 - 1)^(rho i).  Over block k a term is at most that of the 2^k
    first factors at A(2^(k+1) - 1), and at least that of 2^(k+1) - 1
    factors at A(2^k).  The log factor rises with y = rho i ln A, so one
    geometric grid of cells in y, with the tails evaluated once, brackets
    every inner sum by the values at the cell ends.  The corollary surrogate
    exp(-sum_i t_i) (1 - t <= e^-t) reads the same tails."""
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    z0 = shift_speed(dist, speed)
    limit = min(horizon or math.inf, speed.last_site - (z0 - 1))

    def log_power(m):
        return rho * speed.log_value(m + (z0 - 1.0))

    top = min(2.0 ** (K_MAX + 1) - 1.0, limit)  # the largest m any block reads
    y0 = log_power(1.0)
    cells = math.ceil(math.log(top * log_power(top) / y0) / math.log(_CELL_RATIO)) + 1
    y = y0 * _CELL_RATIO ** np.arange(cells + 1.0)
    tails = np.asarray(dist.tail_at_log(y), dtype=float)
    with np.errstate(divide="ignore"):
        log_keep = np.log1p(-tails)

    def product(log_factor):
        def log_blocks(ks):
            first, last = 2.0 ** ks, 2.0 ** (ks + 1) - 1.0
            upper, n_upper = _cell_sums(y, log_factor[1:], first, log_power(last))
            lower, n_lower = _cell_sums(y, log_factor[:-1], last, log_power(first))
            return ks * _LN2 + lower, ks * _LN2 + upper, n_upper + n_lower
        return log_blocks

    return _combined(
        "explosion",
        {"product_series": diagnose_series(product(log_keep), limit,
                                           "explosion-product-series"),
         "corollary_surrogate": diagnose_series(product(-tails), limit,
                                                "explosion-corollary-surrogate"),
         "speed_series": check_speed_series(speed, horizon)},
        {"product_series": VERDICT_CONV, "speed_series": VERDICT_CONV})
