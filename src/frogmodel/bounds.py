"""Closed-form probability bounds for fast traversal, with an MC harness.

Lower bounds come from forcing a straight run of right-jumps inside the
crossing budget (an Erlang tail estimate); upper bounds from dominating
the walk by its jump counter (a chain of Poisson tails).  Everything is
evaluated in log space first, so the values stay finite far past the range
where the raw factorials and powers overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaln

from .speed import SpeedFunction
from .walks import estimate_reach_tail

# the MC comparisons cap the reach at their threshold + CAP_MARGIN
CAP_MARGIN = 40


def poisson_tail(n: int, lam: float) -> float:
    """P{Poisson(lam) >= n} via the regularized lower incomplete gamma."""
    if n <= 0:
        return 1.0
    if lam <= 0:
        return 0.0
    return float(gammainc(n, lam))


def log_poisson_tail(n: int, lam: float) -> float:
    """ln P{Poisson(lam) >= n}, falling back to the leading-term expansion
    when the direct value underflows (arguments past ~700)."""
    p = poisson_tail(n, lam)
    if p > 1e-300:
        return math.log(p)
    if lam <= 0:
        return float("-inf")
    # tail ~ pmf(n) / (1 - lam/(n+1)) for n >> lam
    log_pmf = -lam + n * math.log(lam) - gammaln(n + 1)
    ratio = lam / (n + 1.0)
    return log_pmf - math.log1p(-ratio) if ratio < 1 else log_pmf


@dataclass(frozen=True)
class ErlangLower:
    bound: float     # e^{-b} b^n / n!
    exact: float     # P{sum of n unit exponentials <= b}


def erlang_lower(n: int, b: float) -> ErlangLower:
    """Lower-bound the chance that n unit-exponential waits fit inside b.

    The single-term bound e^{-b} b^n / n! never exceeds the exact Erlang
    CDF (the regularized incomplete gamma), which is returned alongside.
    """
    if n < 1:
        raise ValueError("need n >= 1 jumps")
    if b <= 0:
        raise ValueError("need a positive time budget")
    log_bound = -b + n * math.log(b) - gammaln(n + 1)
    return ErlangLower(math.exp(log_bound), float(gammainc(n, b)))


def reach_lower_bound(n: int, x: int, speed: SpeedFunction) -> float:
    """Lower bound on P{some moment t within budget has the walk past n}.

    Value: exp{(1 - 1/A(x+n+1)) (n+1)} / (A(x+n+1)^{n+1} e 2^{n+1} sqrt(n+1)),
    from forcing n+1 consecutive right-jumps inside the final per-site
    budget.  Requires speeds above 1 (shift the speed first otherwise).
    """
    if n < 0 or x < 0:
        raise ValueError("need n >= 0 and x >= 0")
    if x + n + 1 > speed.horizon:
        raise ValueError("x + n + 1 beyond speed horizon")
    if speed.value(1) <= 1.0:
        raise ValueError("bound needs A > 1 everywhere; apply the speed shift "
                         "(conditions.shift_speed) first")
    a = speed.value(x + n + 1)
    k = n + 1
    log_val = (1.0 - 1.0 / a) * k - k * math.log(a) - 1.0 - k * math.log(2.0) \
        - 0.5 * math.log(k)
    return math.exp(log_val)


def _reach_floor_log(i: int, m: int, speed: SpeedFunction) -> float:
    a = speed.value(m + 1)
    return -1.0 - 0.5 * math.log(i + 1.0) \
        + (i + 1.0) * (1.0 - 1.0 / a - math.log(2.0 * a))


def reach_floor(i: int, m: int, speed: SpeedFunction) -> float:
    """Single-walk reach floor: (1/(e sqrt(i+1))) (e^{1-1/A(m+1)} / (2A(m+1)))^{i+1}."""
    if not 0 <= i <= m:
        raise ValueError("need 0 <= i <= m")
    return math.exp(_reach_floor_log(i, m, speed))


def reach_floor_coarse(i: int, m: int, speed: SpeedFunction) -> float:
    """Coarser floor (1/(2A(m+1)))^{i+2}, valid once the gate below holds."""
    if not 0 <= i <= m:
        raise ValueError("need 0 <= i <= m")
    return math.exp(-(i + 2.0) * math.log(2.0 * speed.value(m + 1)))


def reach_floor_gate(m: int, speed: SpeedFunction) -> bool:
    """Gate for the coarse floor: 1/A(m+1) <= 2/(e sqrt(m+1)).

    Reported with every use; when the gate fails no ordering between the
    two floors is claimed.
    """
    return 1.0 / speed.value(m + 1) <= 2.0 / (math.e * math.sqrt(m + 1.0))


def reach_tail_lower(i: int, m: int, dist, speed: SpeedFunction) -> float:
    """Lower bound on P{reach from site m-i exceeds i}: 1 - E[(1 - q)^count]
    with q the single-walk floor, by the count law's `hit_probability`.

    Where that is not in closed form it is a lower bracket of the exact
    expectation (monotone tails over geometric blocks), so the returned
    value never overstates.
    """
    if speed.value(1) <= 1.0:
        raise ValueError("bound needs A > 1 everywhere; apply the speed shift first")
    return dist.hit_probability(reach_floor(i, m, speed))


@dataclass(frozen=True)
class ChainBound:
    """Truncated Poisson-tail chain dominating the single-walk reach."""

    value: float
    last_term: float
    inconclusive: bool             # term ratios stayed at or above one
    truncated: bool                # stopped by the term cap or the horizon


def reach_upper_chain(i: int, j: int, speed: SpeedFunction,
                      max_terms: int = 10_000,
                      term_floor: float = 1e-15) -> ChainBound:
    """Sum of P{Poisson(segment(i, i+n)) >= n} over n >= j.

    Upper-bounds P{some moment within budget has the walk j or more sites
    right of i}: the walk is dominated by its jump counter.  Terms are
    added until they drop below term_floor; persistently non-decreasing
    terms mark the result inconclusive (the speed grows too slowly for the
    chain to close).
    """
    if j < 1:
        raise ValueError("need j >= 1")
    total = 0.0
    prev = None
    ratios_bad = 0
    n = j
    terms = 0
    truncated = False
    while True:
        if i + n > speed.horizon:
            truncated = True
            break
        lam = speed.segment(i, n)
        term = poisson_tail(n, lam)
        total += term
        terms += 1
        if prev is not None and prev > 0:
            ratios_bad = ratios_bad + 1 if term >= prev else 0
        prev = term
        if term < term_floor:
            break
        if terms >= max_terms:
            truncated = True
            break
        n += 1
    return ChainBound(total, 0.0 if prev is None else prev, ratios_bad >= 20, truncated)


def geometric_tail_constant(alphas: Sequence[float], r: float, n: int) -> float:
    """Witnessed sup over m of (sum of alphas from m on) / alpha_m.

    Requires the ratio condition alpha_{i+1}/alpha_i <= r for all i >= n
    (1-based) on the provided range; the first offending index is named on
    refusal.  The witnessed sup is checked against the n * max-ratio +
    max-ratio/(1-r) cap implied by splitting the tail at n.
    """
    a = np.asarray(alphas, dtype=float)
    if a.size < 2:
        raise ValueError("need at least two terms")
    if np.any(a <= 0):
        raise ValueError("terms must be positive")
    if not 0 < r < 1:
        raise ValueError("ratio bound must lie in (0, 1)")
    if not 1 <= n <= a.size:
        raise ValueError("n must index into the sequence (1-based)")
    ratios = a[1:] / a[:-1]
    viol = np.nonzero(ratios[n - 1:] > r)[0]
    if viol.size:
        bad = n + int(viol[0])  # 1-based index i with alpha_{i+1}/alpha_i > r
        raise ValueError(f"ratio condition fails at index {bad}: "
                         f"alpha[{bad + 1}]/alpha[{bad}] = {ratios[bad - 1]:.6g} > {r}")
    tails = np.cumsum(a[::-1])[::-1]
    witnessed = float(np.max(tails / a))
    head = a[:n]
    ratio_max = max(1.0, float(np.max(head) / np.min(head)))
    cap = n * ratio_max + ratio_max / (1.0 - r)
    assert witnessed <= cap + 1e-9, "witnessed constant exceeds its structural cap"
    return witnessed


@dataclass(frozen=True)
class BoundCheck:
    """One bound-vs-comparison record for the verification harness."""

    bound_id: str
    params: dict
    bound_value: float
    comparison_value: float
    comparison_stderr: float
    direction: str            # "lower": bound <= comparison; "upper": comparison <= bound
    satisfied: bool
    note: str = ""

    def row(self) -> dict:
        return {"bound_id": self.bound_id, **self.params,
                "bound_value": self.bound_value,
                "comparison_value": self.comparison_value,
                "comparison_stderr": self.comparison_stderr,
                "direction": self.direction, "satisfied": self.satisfied,
                "note": self.note}


def verify_sandwich(speed: SpeedFunction, i_values, j_values, walks_per_cell: int,
                    rng, sigmas: float = 3.0, cap_margin: int = CAP_MARGIN) -> list[BoundCheck]:
    """Lower bound <= MC reach probability <= Poisson chain, per grid cell.

    The MC statistic is the single-walk reach tail P{reach >= j} estimated
    with a Dirac(1) count law; margins are `sigmas` binomial stderrs.
    """
    from .distributions import Dirac
    checks = []
    one = Dirac(1)
    for i in i_values:
        for j in j_values:
            est = estimate_reach_tail(speed, i, j - 1, one, walks_per_cell, rng,
                                      cap=j + cap_margin)
            margin = sigmas * est.stderr
            low = reach_lower_bound(j - 1, i, speed)
            chain = reach_upper_chain(i, j, speed)
            checks.append(BoundCheck(
                "reach_lower", {"i": i, "j": j}, low, est.p, est.stderr,
                "lower", low <= est.p + margin))
            checks.append(BoundCheck(
                "reach_upper_chain", {"i": i, "j": j}, chain.value, est.p,
                est.stderr, "upper", est.p <= chain.value + margin,
                note="inconclusive-chain" if chain.inconclusive else ""))
    return checks


def verify_reach_tail_lower(dist, speed: SpeedFunction, i_values, m_values,
                            replicas: int, rng, sigmas: float = 3.0,
                            cap_margin: int = CAP_MARGIN) -> list[BoundCheck]:
    """MC estimate of P{reach from m-i exceeds i} against its closed lower
    bound, for every pair with i <= m (the others have no site m - i)."""
    checks = []
    for m in m_values:
        for i in i_values:
            if i > m:
                continue
            bound = reach_tail_lower(i, m, dist, speed)
            est = estimate_reach_tail(speed, m - i, i, dist, replicas, rng,
                                      cap=i + cap_margin)
            checks.append(BoundCheck(
                "reach_tail_lower", {"i": i, "m": m, "dist": dist.name},
                bound, est.p, est.stderr, "lower",
                bound <= est.p + sigmas * est.stderr))
    return checks
