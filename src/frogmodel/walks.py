"""Continuous-time simple random walks and the fast-reach statistic.

The fast-reach value of a site x is the largest rightward distance k such
that some particle from x is, at some moment t, at least k sites to the
right while t is still within the crossing budget (the prefix-sum of
reciprocal speeds over the sites crossed).  The walk is right-continuous
and piecewise constant, and the budget constraint is loosest at the left
end of each constancy interval, so it is enough to test jump epochs.

Budgets beyond a configured cap are never consulted: a qualifying epoch
at or past the cap reports the cap with a saturation flag ("at least
cap").  The cap is part of the statistic and is reported with every result.

Being at level s at a time within segment(x, s) means having first hit s
no later, so with tau_s the first hitting time of level s the statistic is
reach = max{s <= cap : tau_s <= segment(x, s)}.  The kernel `reach_batch`
draws the ladder epochs tau_s directly instead of stepping every jump.
The gaps tau_{s+1} - tau_s are iid: a first passage to +1 of the discrete
walk takes N = 2K + 1 jumps with P(K >= k) = C(2k, k) / 4^k (reflection
principle; Feller, An Introduction to Probability Theory and Its
Applications, Vol. 1, Ch. III), and its duration is Gamma(N, 1), drawn as
the first jump Exp(1) plus Gamma(2K, 1).  A walker stops once
tau_s > segment(x, cap) or s = cap, so it costs about sqrt(budget) draws
instead of about budget jumps, and positions are never tracked.  Walkers
whose first jump misses the budget are thinned out binomially before any
is materialized; the rest run in blocks of at most `REACH_BLOCK` walkers,
which bounds memory for any particle count.  A per-jump stepping version
of the statistic is kept with the tests, as their oracle.

`estimate_reach_tail` estimates P{reach > j} over fresh particle
configurations.  The tail at every threshold is read off one sorted
sample of replicas, so a site asked for several j pays for one kernel
call, and its estimates are non-increasing in j.

The frog simulator draws its walkers' moves from the same kind of law:
`_exit_jumps` gives the number of jumps a walk needs to leave (-r, r),
by inverting a tabulated ruin-duration tail.
"""
from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betaln

from .speed import SpeedFunction

DEFAULT_REACH_CAP = 1000
DEFAULT_TRAJ_CAP = 100_000


def _check_sites(speed: SpeedFunction, x: int, cap: int, rows: int = 1) -> None:
    """Sites x..x + rows - 1 need their budgets up to the cap on the table."""
    if x < 0:
        raise ValueError("site must be non-negative")
    if x + rows - 1 + cap > speed.horizon:
        raise ValueError(f"x + cap = {x + rows - 1 + cap} exceeds speed horizon "
                         f"{speed.horizon}")


# C(2k, k) / 4^k = P(a first passage to +1 takes more than 2k jumps), k <= 4096
_K_TABLE_SIZE = 4096
_K_TAIL = np.cumprod(np.concatenate(([1.0], 1.0 - 0.5 / np.arange(1, _K_TABLE_SIZE + 1))))
REACH_BLOCK = 1 << 21  # walkers per kernel pass; bounds memory, set by the counts only


def _ladder_k(u: np.ndarray) -> np.ndarray:
    """K = max{k : C(2k, k) / 4^k >= u} for u in (0, 1], as float.

    This inverts P(K >= k) = C(2k, k) / 4^k exactly: P(K = k) = C_k / 2^(2k+1)
    with C_k the Catalan number, and u <= 1/2 selects K >= 1.  Kershaw's
    bounds 1/sqrt(pi (k + 0.366)) < C(2k, k) / 4^k < 1/sqrt(pi (k + 1/4))
    put K at floor(1/(pi u^2)) or one below; the table settles which, and
    past it betaln does (gammaln differences lose the last bits past
    k ~ 1e6).  K is never clipped.
    """
    k = np.floor(1.0 / (np.pi * u * u))
    tail = _K_TAIL[np.minimum(k, _K_TABLE_SIZE).astype(np.intp)]
    deep = np.flatnonzero(k > _K_TABLE_SIZE)
    if deep.size:
        tail[deep] = np.exp(betaln(k[deep] + 0.5, 0.5)) / np.pi
    return k - (tail < u)


_EXIT_TAIL_END = 2.0 ** -53  # exit tables run until their tail is at most this


@functools.cache
def _exit_tail(r: int) -> array:
    """-P(N > r + 2m) for m = 0, 1, ..., ending at the first entry whose
    tail is <= 2^-53; negated so the floats ascend for bisection.

    N is the number of jumps a fair +-1 walk started at 0 takes to leave
    (-r, r), r >= 2; it has the parity of r and is at least r.  The
    spectral form of the ruin duration (Feller, Vol. 1, XIV.5) is
    P(N > n) = sum over odd j < 2r of (1/r) sin(j pi/2) cot(j pi/4r)
    cos(j pi/2r)^n.  For n = r mod 2 the terms j and 2r - j combine (cot x
    - tan x = 2 cot 2x), leaving (2/r) sum over odd j < r of sin(j pi/2)
    cot(j pi/2r) cos(j pi/2r)^n: every cosine lies in (0, 1), and j = 1
    dominates the tail, so the table keeps its relative precision there.
    """
    # the terms alternate in sign and shrink with j, so the j = 1 term,
    # below (4/pi) cos(pi/2r)^n, bounds the sum and sizes the table
    n_end = math.log(_EXIT_TAIL_END * math.pi / 4) / math.log(math.cos(math.pi / (2 * r)))
    n = r + 2 * np.arange(math.ceil(n_end) // 2 + 1)
    tail = np.zeros(n.size)
    for j in range(1, r, 2):
        a = j * math.pi / (2 * r)
        coef = (2.0 / r) * math.sin(j * math.pi / 2) / math.tan(a)
        tail += coef * np.exp(n * math.log(math.cos(a)))
    end = int(np.argmax(tail <= _EXIT_TAIL_END))
    assert tail[end] <= _EXIT_TAIL_END, "exit table too short"
    return array("d", -tail[:end + 1])


def _exit_jumps(r: int, u: float) -> int:
    """N = min{n = r mod 2 : P(N > n) <= u} for u in [0, 1), by bisection.

    u below the table's last tail (probability at most 2^-53) lands one
    step past the table.
    """
    return r + 2 * bisect_left(_exit_tail(r), -u)


def reach_batch(speed: SpeedFunction, x: int, counts: np.ndarray, rng,
                cap: int = DEFAULT_REACH_CAP) -> np.ndarray:
    """Fast-reach values for many independent replicas, by ladder epochs.

    counts[r] particles are drawn for replica r at site x; a 2-d counts
    holds in row i the replicas of site x + i.  Returns reach values of
    the same shape (saturation is value == cap).

    A walker whose first jump comes after segment(site, cap) never
    qualifies, so each count is first thinned to the walkers that jump in
    time (binomially, exact) and only those are materialized.  They run in
    consecutive blocks of at most REACH_BLOCK cut from the cumulative
    thinned counts, so a replica may straddle two blocks.
    """
    counts = np.asarray(counts, dtype=np.int64)
    rows, width = counts.shape if counts.ndim == 2 else (1, counts.size)
    _check_sites(speed, x, cap, rows)
    prefix = speed.prefix_arr
    sites = x + np.arange(rows)
    jump_in_time = -np.expm1(prefix[sites] - prefix[sites + cap])
    flat = rng.binomial(counts.reshape(rows, width), jump_in_time[:, None]).ravel()
    ends = np.cumsum(flat)
    total = int(ends[-1]) if flat.size else 0
    out = np.zeros(flat.size, dtype=np.int64)
    for lo in range(0, total, REACH_BLOCK):
        hi = min(lo + REACH_BLOCK, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        span = slice(first, last + 1)
        owner = np.repeat(np.arange(first, last + 1),
                          np.minimum(ends[span], hi) - np.maximum(ends[span] - flat[span], lo))
        np.maximum(out[span], _ladder_block(prefix, x, width, owner, rng, cap),
                   out=out[span])
    return out.reshape(counts.shape)


def _ladder_block(prefix: np.ndarray, x: int, width: int, owner: np.ndarray,
                  rng, cap: int) -> np.ndarray:
    """Reach per replica owner[0]..owner[-1] of one block of walkers whose
    first jump is within budget; the walkers of replica r start at site
    x + r // width."""
    first, last = int(owner[0]), int(owner[-1])
    best = np.zeros(last - first + 1, dtype=np.int64)
    site = x + first // width if first // width == last // width else x + owner // width
    # the clock starts at prefix(site), so t <= end means time <= segment(site, cap);
    # the first jump is drawn given that it comes within that budget
    start, end = prefix[site], prefix[site + cap]
    t = start - np.log1p(rng.random(owner.size) * np.expm1(start - end))
    for s in range(1, cap + 1):
        if s > 1:
            t += rng.standard_exponential(t.size)
        live = t <= end
        u = rng.random(t.size)              # u < 1/2: first step down
        down = np.flatnonzero(live & (u < 0.5))
        t[down] += rng.standard_gamma(2.0 * _ladder_k(0.5 - u[down]))
        live &= t <= end
        owner, t = owner[live], t[live]
        if np.ndim(site):
            site, end = site[live], end[live]
        if not owner.size:
            break
        # every live walker has just hit level s, above all it hit before
        best[owner[t <= prefix[site + s]] - first] = s
    return best


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of P{reach > j} with its binomial stderr.

    p and stderr are floats for an int j and arrays shaped like j for a
    sequence of thresholds, all read off the same replicas.
    """

    p: float | np.ndarray
    stderr: float | np.ndarray
    replicas: int
    x: int
    j: int | np.ndarray
    cap: int
    truncated_draws: int    # replicas whose particle count hit the draw clamp


def binomial_stderr(p_hat, n: int):
    """Binomial stderr with a 1/n floor so 3-sigma margins stay meaningful
    at zero observed successes; elementwise, and a float for a scalar p_hat."""
    se = np.maximum(np.sqrt(p_hat * (1.0 - p_hat) / n), 1.0 / n)
    return float(se) if se.ndim == 0 else se


def estimate_reach_tail(speed: SpeedFunction, x: int, j: int | Sequence[int],
                        dist, replicas: int, rng,
                        cap: int = DEFAULT_REACH_CAP,
                        traj_cap: int = DEFAULT_TRAJ_CAP) -> TailEstimate:
    """Estimate P{fast reach at x exceeds j} over fresh particle configurations.

    Each replica draws its own particle count from the law and that many
    walks.  j may be one threshold or a 1-d sequence of them: one sample
    of replicas serves every threshold, so the estimates at the j's of a
    sequence are correlated and non-increasing in j, and each equals the
    estimate a call with that j alone draws from the same rng state.  A j
    at or past the cap is refused rather than silently reported as zero.
    Counts are clamped at traj_cap (extra walks beyond the clamp could
    only raise the reach); clamped replicas are counted in the result.
    """
    js = np.asarray(j, dtype=np.int64)
    if replicas < 1:
        raise ValueError("need at least one replica")
    if np.any(js >= cap):
        raise ValueError(f"j = {int(js.max())} is at or past the reach cap {cap}; "
                         "raise the cap instead of reading a saturated zero")
    counts = dist.sample(rng, size=replicas, clamp=traj_cap)
    truncated = int(np.count_nonzero(counts >= traj_cap))
    values = np.sort(reach_batch(speed, x, counts, rng, cap=cap))
    p_hat = (replicas - np.searchsorted(values, js, side="right")) / replicas
    if js.ndim == 0:
        p_hat, js = float(p_hat), int(js)
    return TailEstimate(p_hat, binomial_stderr(p_hat, replicas),
                        replicas, x, js, cap, truncated)
