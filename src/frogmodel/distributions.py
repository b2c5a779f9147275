"""Initial particle-count laws on the non-negative integers.

Six families: point mass, Poisson, geometric, a finite pmf table, and two
heavy-tailed laws realized by flooring a continuous latent variable (exp of
a Pareto, and exp(Y ln Y) for exponential Y).  Tail queries answer both at
plain thresholds and at thresholds given only by their natural log, because
the non-explosion checker compares counts against thresholds that overflow
any float.

Conventions, fixed here and relied on by the tests:
  * counts are floor(latent) for the heavy-tailed families, so the
    continuous tail P{latent >= x} is exactly the count tail at integer x;
    at non-integer x the tail reports the continuous law (documented
    flooring slop, never more than one integer wide);
  * y ln y is read as 0 on [0, 1] so the exp(Y ln Y) latent is defined for
    every Y >= 0 (its counts are therefore always >= 1).
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

# largest count with exact float resolution; counts beyond it are carried
# in log space by sample_counts_log
EXACT_COUNT_LIMIT = 1 << 53
_EXACT_FLOAT_LIMIT_LOG = 53 * math.log(2.0)

# hit_probability: terms summed one by one, growth of the geometric blocks
# past them, the cut where (1 - q)^(k-1) drops below e^-60, and the last k,
# which keeps the block edges finite floats when q is subnormal
_HIT_TERMS = 4096
_HIT_BLOCK_GROWTH = 1.0 + 2.0 ** -10
_HIT_LOG_CUT = 60.0
_HIT_K_MAX = 2.0 ** 1000


def _ylogy(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.where(y > 1.0, y * np.log(np.maximum(y, 1.0)), 0.0)


def _ylogy_inverse(ell) -> np.ndarray:
    """Solve y ln y = ell for y >= 1 by monotone bisection (80 halvings)."""
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    lo = np.ones_like(ell)
    hi = np.maximum(math.e, ell) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_small = _ylogy(mid) < ell
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CountBatch:
    """Vector of counts for the simulator: exact up to 2^53, log-space beyond.

    counts[i] is the exact count as a float when representable, +inf when the
    count exceeds 2^53; logs[i] is ln(count) (latent log for the huge ones).
    """

    counts: np.ndarray
    logs: np.ndarray


class InitialDistribution:
    """Common surface for all count laws; subclasses fill in the family.

    The lattice families (Dirac, Poisson, geometric, table) use the default
    `sample`, which clamps the family's `_draw`, and the default
    `tail_at_log`, which snaps e^ell to integers; `_FloorExp` overrides both.
    Dirac, Poisson and geometric override `hit_probability` by closed forms.
    """

    name = "?"

    # -- family hooks --------------------------------------------------------

    def tail(self, x):
        """P{count >= x} for real x >= 0 (vectorized)."""
        raise NotImplementedError

    def _draw(self, rng, size):
        """Unclamped counts as an int64 array."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def tail_at_log(self, ell):
        """P{count >= e^ell} without materializing e^ell; ell may be -inf.
        ell is clipped to [-700, 700]: e^ell stays a positive float below one
        (count >= 1), and every lattice tail is 0 above."""
        ell = np.asarray(ell, dtype=float)
        x = np.where(np.isneginf(ell), 0.0,
                     _snap_integer(np.exp(np.clip(ell, -700.0, 700.0))))
        return _scalarize(ell, self.tail(x))

    def sample(self, rng, size, clamp=None):
        """Draw int64 counts saturating at `clamp`, which keeps the exact
        clamped law min(count, clamp); the heavy-tailed families require a
        clamp, since their counts routinely exceed int64."""
        draw = np.asarray(self._draw(rng, size), dtype=np.int64)
        return draw if clamp is None else np.minimum(draw, clamp)

    def hit_probability(self, q: float) -> float:
        """1 - E[(1 - q)^count] for 0 <= q < 1: the chance that at least one
        of `count` independent trials of success chance q succeeds.

        Summation by parts gives q sum_{k >= 1} (1 - q)^(k-1) P{count >= k},
        whose terms are all positive, so the value keeps its relative
        precision at tiny q.  Terms k <= 4096 are summed one by one; past
        them the k run in geometric blocks [k_b, k_{b+1}) with edges
        ceil(4097 (1 + 2^-10)^b), each weighted by its exact geometric mass
        and by the tail at its last k.  The sum stops once
        (1 - q)^(k-1) < e^-60, or past k = 2^1000 (q below about 1e-299).
        Tails do not increase in k and every dropped term is positive, so the
        value is a lower bracket of the exact one and never overstates it.
        """
        if not 0.0 <= q < 1.0:
            raise ValueError(f"need 0 <= q < 1, got {q!r}")
        log_keep = math.log1p(-q)
        if log_keep == 0.0:
            return 0.0
        k_cut = 1.0 + min(_HIT_LOG_CUT / -log_keep, _HIT_K_MAX)
        ks = np.arange(1.0, min(_HIT_TERMS, math.floor(k_cut)) + 1.0)
        total = q * float(np.dot(np.exp((ks - 1.0) * log_keep), self.tail(ks)))
        if k_cut > _HIT_TERMS + 1:
            n_blocks = math.ceil(math.log(k_cut / (_HIT_TERMS + 1))
                                 / math.log(_HIT_BLOCK_GROWTH))
            edges = np.ceil((_HIT_TERMS + 1)
                            * _HIT_BLOCK_GROWTH ** np.arange(n_blocks + 1.0))
            start, stop = edges[:-1], edges[1:]
            # (1 - q)^(start-1) - (1 - q)^(stop-1): the block's geometric mass
            mass = -np.exp((start - 1.0) * log_keep) * np.expm1((stop - start) * log_keep)
            total += float(np.dot(mass, self.tail(stop - 1.0)))
        return total

    def pmf(self, k) -> np.ndarray:
        """P{count = k} at integer k, via the exact integer-threshold tails."""
        k = np.asarray(k, dtype=float)
        out = self.tail(k) - self.tail(k + 1.0)
        return np.maximum(out, 0.0)

    def cdf_closed(self, x) -> np.ndarray:
        """P{count <= x}; counts are integers so this is 1 - tail(floor(x)+1)."""
        x = np.asarray(x, dtype=float)
        return 1.0 - self.tail(np.floor(x) + 1.0)

    def sample_counts_log(self, rng, size: int) -> CountBatch:
        counts = np.asarray(self.sample(rng, size=size, clamp=EXACT_COUNT_LIMIT),
                            dtype=float)
        with np.errstate(divide="ignore"):
            logs = np.log(counts)
        return CountBatch(counts, logs)


def _scalarize(x, out):
    out = np.asarray(out)
    return float(out) if np.ndim(x) == 0 else out


def _snap_integer(x: np.ndarray) -> np.ndarray:
    """Round thresholds that are within a few ulps of an integer, so that
    exp(log(k)) round-trips do not shift an integer-valued count boundary.
    The tolerance is relative, so tiny positive thresholds stay above 0."""
    x = np.asarray(x, dtype=float)
    r = np.round(x)
    return np.where(np.abs(x - r) <= 32 * np.finfo(float).eps * np.abs(x), r, x)


class Dirac(InitialDistribution):
    name = "dirac"

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("point mass must sit on a non-negative count")
        self.k = int(k)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return _scalarize(x, np.where(x <= self.k, 1.0, 0.0))

    def tail_at_log(self, ell):
        # exact log-space comparison: snapping e^ell moves ulp-scale boundaries
        ell = np.asarray(ell, dtype=float)
        if self.k == 0:
            return _scalarize(ell, np.where(np.isneginf(ell), 1.0, 0.0))
        return _scalarize(ell, np.where(ell <= math.log(self.k), 1.0, 0.0))

    def _draw(self, rng, size):
        return np.full(size, self.k, dtype=np.int64)

    def hit_probability(self, q):
        return -math.expm1(self.k * math.log1p(-q))


class Poisson(InitialDistribution):
    name = "poisson"

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError("poisson rate must be positive")
        self.lam = float(lam)

    def tail(self, x):
        from scipy.special import gammainc  # lazy: simulation never needs it
        x = np.asarray(x, dtype=float)
        k = np.maximum(np.ceil(x), 0.0)
        # P{N >= k} is the regularized lower incomplete gamma P(k, lam)
        return _scalarize(x, np.where(k <= 0, 1.0, gammainc(np.maximum(k, 1.0), self.lam)))

    def _draw(self, rng, size):
        return rng.poisson(self.lam, size=size)

    def hit_probability(self, q):
        return -math.expm1(-self.lam * q)


class Geometric(InitialDistribution):
    """Failures before the first success: pmf p(1-p)^k on k = 0, 1, 2, ..."""

    name = "geometric"

    def __init__(self, p: float):
        if not 0 < p <= 1:
            raise ValueError("geometric parameter must be in (0, 1]")
        self.p = float(p)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        k = np.maximum(np.ceil(x), 0.0)
        with np.errstate(divide="ignore"):
            logq = math.log1p(-self.p) if self.p < 1 else -np.inf
        return _scalarize(x, np.where(k <= 0, 1.0, np.exp(k * logq)))

    def _draw(self, rng, size):
        return rng.geometric(self.p, size=size) - 1

    def hit_probability(self, q):
        miss = (1.0 - self.p) * q
        return miss / (self.p + miss)


class _FloorExp(InitialDistribution):
    """Counts floor(e^G) for a latent log G >= 0; a family supplies the draw
    of G and `tail_at_log` (the tail at x is the tail at ln x)."""

    def _latent_log(self, rng, size):
        raise NotImplementedError

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return _scalarize(x, self.tail_at_log(np.log(np.maximum(x, 0.0))))

    def sample(self, rng, size, clamp=None):
        if clamp is None:
            raise ValueError("draws from a heavy-tailed law need a clamp "
                             "(counts routinely exceed int64)")
        g = self._latent_log(rng, size)
        out = np.full(size, int(clamp), dtype=np.int64)
        small = g < math.log(clamp)
        out[small] = np.floor(np.exp(g[small])).astype(np.int64)
        np.minimum(out, int(clamp), out=out)
        return out

    def sample_counts_log(self, rng, size):
        g = self._latent_log(rng, size)
        counts = np.where(g <= _EXACT_FLOAT_LIMIT_LOG,
                          np.floor(np.exp(np.minimum(g, _EXACT_FLOAT_LIMIT_LOG))),
                          np.inf)
        logs = np.where(np.isfinite(counts), np.log(np.maximum(counts, 1.0)), g)
        return CountBatch(counts, logs)


class LogPareto(_FloorExp):
    """Counts floor(e^X) with P{X >= t} = t^(-a) for t >= 1 (so counts >= 2)."""

    name = "logpareto"

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError("tail exponent must be positive")
        self.a = float(a)

    def tail_at_log(self, ell):
        ell = np.asarray(ell, dtype=float)
        with np.errstate(invalid="ignore"):
            vals = np.where(ell <= 1.0, 1.0, np.maximum(ell, 1.0) ** (-self.a))
        return _scalarize(ell, vals)

    def _latent_log(self, rng, size):
        u = rng.random(size)
        return u ** (-1.0 / self.a)


class YLogY(_FloorExp):
    """Counts floor(e^{Y ln Y}) for exponential Y, with y ln y = 0 on [0, 1]."""

    name = "ylogy"

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError("exponential rate must be positive")
        self.rate = float(rate)

    def tail_at_log(self, ell):
        ell_arr = np.atleast_1d(np.asarray(ell, dtype=float))
        out = np.ones_like(ell_arr)
        pos = ell_arr > 0
        if np.any(pos):
            roots = _ylogy_inverse(ell_arr[pos])
            out[pos] = np.exp(-self.rate * roots)
        return _scalarize(ell, out if np.ndim(ell) else out[0])

    def _latent_log(self, rng, size):
        y = rng.exponential(scale=1.0 / self.rate, size=size)
        return _ylogy(y)


class TablePMF(InitialDistribution):
    """Finite-support law given by an explicit pmf on 0..len-1."""

    name = "table"

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0 or np.any(pmf < 0):
            raise ValueError("pmf must be a non-empty vector of non-negative masses")
        total = pmf.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"pmf sums to {total!r}, expected 1")
        self.pmf_arr = pmf / total
        # tail_arr[k] = P{count >= k}, k = 0..n
        self.tail_arr = np.concatenate((np.cumsum(self.pmf_arr[::-1])[::-1], [0.0]))

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.ceil(x), 0, self.pmf_arr.size).astype(np.int64)
        return _scalarize(x, self.tail_arr[k])

    def _draw(self, rng, size):
        return rng.choice(self.pmf_arr.size, size=size, p=self.pmf_arr)


_FAMILIES = {"dirac": Dirac, "poisson": Poisson, "geometric": Geometric,
             "logpareto": LogPareto, "ylogy": YLogY, "table": TablePMF}


def dist_from_config(spec: dict) -> InitialDistribution:
    """Build a count law from config like {"family": "logpareto", "a": 0.5};
    the other keys are the family's constructor arguments, and no others."""
    if not isinstance(spec, dict):
        raise TypeError(f"count law spec must be a mapping, got {spec!r}")
    params = dict(spec)
    family = params.pop("family", None)
    if family not in _FAMILIES:
        raise ValueError(f"unknown distribution family: {family!r}")
    unknown = set(params) - set(inspect.signature(_FAMILIES[family]).parameters)
    if unknown:
        raise ValueError(f"unknown {family} keys: {sorted(unknown)}")
    return _FAMILIES[family](**params)
