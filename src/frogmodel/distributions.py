"""Initial particle-count laws on the non-negative integers.

Five families: point mass, Poisson, geometric, and two heavy-tailed laws
realized by flooring a continuous latent variable (exp of a Pareto, and
exp(Y ln Y) for exponential Y).  Tail queries answer both at plain
thresholds and at thresholds given only by their natural log, because the
non-explosion checker compares counts against thresholds that overflow any
float.

Conventions, fixed here and relied on by the tests:
  * counts are floor(latent) for the heavy-tailed families, so the
    continuous tail P{latent >= x} is exactly the count tail at integer x;
    at non-integer x the tail reports the continuous law (documented
    flooring slop, never more than one integer wide);
  * y ln y is read as 0 on [0, 1] so the exp(Y ln Y) latent is defined for
    every Y >= 0 (its counts are therefore always >= 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np
from scipy.special import gammainc, gammaln

NEG_INF = float("-inf")

# largest float with exact integer resolution; counts beyond it are carried
# in log space by sample_counts_log
_EXACT_FLOAT_LIMIT_LOG = 53 * math.log(2.0)


def floor_exp_exact(x: float) -> int:
    """Exact floor(e^x) for a float x, however large, as a Python int."""
    if x < 0:
        return 0
    if x <= _EXACT_FLOAT_LIMIT_LOG:
        return int(math.floor(math.exp(x)))
    # need ~x/ln2 bits for the integer part; mpmath makes the floor exact
    with mpmath.workprec(int(x * 1.4427) + 64):
        return int(mpmath.floor(mpmath.exp(x)))


def _ylogy(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    out = np.where(y > 1.0, y * np.log(np.maximum(y, 1.0)), 0.0)
    return out


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
    """Common surface for all count laws; subclasses fill in the family."""

    name = "?"

    # -- family hooks --------------------------------------------------------

    def tail(self, x):
        """P{count >= x} for real x >= 0 (vectorized)."""
        raise NotImplementedError

    def tail_at_log(self, ell):
        """P{count >= e^ell} without materializing e^ell; ell may be -inf."""
        raise NotImplementedError

    def sample(self, rng, size: Optional[int] = None, clamp: Optional[int] = None):
        """Draw counts with this law.

        Scalar draws are exact (arbitrary-precision floors for the
        heavy-tailed families).  Vector draws return int64 and saturate at
        `clamp`, which the heavy-tailed families require since their counts
        routinely exceed int64; min(count, clamp) keeps the exact clamped
        law.
        """
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        """Smallest k with P{count <= k} >= q, as a float (may be inf)."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

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
        counts = np.asarray(self.sample(rng, size=size, clamp=(1 << 53)), dtype=float)
        with np.errstate(divide="ignore"):
            logs = np.log(counts)
        return CountBatch(counts, logs)


def _scalarize(x, out):
    out = np.asarray(out)
    return float(out) if np.ndim(x) == 0 else out


def _snap_integer(x: np.ndarray) -> np.ndarray:
    """Round thresholds that are within a few ulps of an integer, so that
    exp(log(k)) round-trips do not shift an integer-valued count boundary."""
    x = np.asarray(x, dtype=float)
    r = np.round(x)
    return np.where(np.abs(x - r) <= 32 * np.finfo(float).eps * np.maximum(np.abs(x), 1.0),
                    r, x)


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
        ell = np.asarray(ell, dtype=float)
        if self.k == 0:
            return _scalarize(ell, np.where(np.isneginf(ell), 1.0, 0.0))
        return _scalarize(ell, np.where(ell <= math.log(self.k), 1.0, 0.0))

    def sample(self, rng, size=None, clamp=None):
        val = self.k if clamp is None else min(self.k, int(clamp))
        if size is None:
            return val
        return np.full(size, val, dtype=np.int64)

    def mean(self):
        return float(self.k)

    def quantile(self, q):
        return float(self.k)

    def describe(self):
        return {"family": "dirac", "k": self.k}


class Poisson(InitialDistribution):
    name = "poisson"

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError("poisson rate must be positive")
        self.lam = float(lam)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        k = np.maximum(np.ceil(x), 0.0)
        # P{N >= k} is the regularized lower incomplete gamma P(k, lam)
        return _scalarize(x, np.where(k <= 0, 1.0, gammainc(np.maximum(k, 1.0), self.lam)))

    def tail_at_log(self, ell):
        ell = np.asarray(ell, dtype=float)
        small = ell <= 700.0
        thresh = _snap_integer(np.exp(np.minimum(ell, 700.0)))
        vals = np.where(small, self.tail(np.where(small, thresh, 0.0)), 0.0)
        return _scalarize(ell, vals)

    def sample(self, rng, size=None, clamp=None):
        draw = rng.poisson(self.lam, size=size)
        if clamp is not None:
            draw = np.minimum(draw, clamp) if size is not None else min(int(draw), int(clamp))
        return draw if size is not None else int(draw)

    def mean(self):
        return self.lam

    def quantile(self, q):
        from scipy.stats import poisson as _poisson
        return float(_poisson.ppf(q, self.lam))

    def describe(self):
        return {"family": "poisson", "lam": self.lam}


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

    def tail_at_log(self, ell):
        ell = np.asarray(ell, dtype=float)
        small = ell <= 700.0
        vals = np.where(small,
                        self.tail(_snap_integer(np.exp(np.minimum(ell, 700.0)))),
                        0.0)
        vals = np.where(np.isneginf(ell), 1.0, vals)
        return _scalarize(ell, vals)

    def sample(self, rng, size=None, clamp=None):
        draw = rng.geometric(self.p, size=size) - 1
        if clamp is not None:
            draw = np.minimum(draw, clamp) if size is not None else min(int(draw), int(clamp))
        return draw if size is not None else int(draw)

    def mean(self):
        return (1.0 - self.p) / self.p

    def quantile(self, q):
        if self.p == 1:
            return 0.0
        return float(max(0.0, math.ceil(math.log1p(-q) / math.log1p(-self.p)) - 1.0))

    def describe(self):
        return {"family": "geometric", "p": self.p}


class LogPareto(InitialDistribution):
    """Counts floor(e^X) with P{X >= t} = t^(-a) for t >= 1 (so counts >= 2)."""

    name = "logpareto"

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError("tail exponent must be positive")
        self.a = float(a)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.maximum(x, 1e-300))
            vals = np.where(lx <= 1.0, 1.0, lx ** (-self.a))
        return _scalarize(x, vals)

    def tail_at_log(self, ell):
        ell = np.asarray(ell, dtype=float)
        with np.errstate(invalid="ignore"):
            vals = np.where(ell <= 1.0, 1.0,
                            np.maximum(ell, 1.0) ** (-self.a))
        return _scalarize(ell, vals)

    def _latent(self, rng, size):
        u = rng.random(size)
        return u ** (-1.0 / self.a)

    def sample(self, rng, size=None, clamp=None):
        if size is None:
            x = float(self._latent(rng, None))
            if clamp is not None:
                return int(clamp) if x >= math.log(clamp) else min(floor_exp_exact(x), int(clamp))
            return floor_exp_exact(x)
        if clamp is None:
            raise ValueError("vector draws from a heavy-tailed law need a clamp "
                             "(counts routinely exceed int64)")
        x = self._latent(rng, size)
        log_clamp = math.log(clamp)
        out = np.full(size, int(clamp), dtype=np.int64)
        small = x < log_clamp
        out[small] = np.floor(np.exp(x[small])).astype(np.int64)
        np.minimum(out, int(clamp), out=out)
        return out

    def sample_counts_log(self, rng, size):
        x = self._latent(rng, size)
        counts = np.where(x <= _EXACT_FLOAT_LIMIT_LOG,
                          np.floor(np.exp(np.minimum(x, _EXACT_FLOAT_LIMIT_LOG))),
                          np.inf)
        logs = np.where(np.isfinite(counts), np.log(np.maximum(counts, 1.0)), x)
        return CountBatch(counts, logs)

    def mean(self):
        return math.inf

    def quantile(self, q):
        xq = (1.0 - q) ** (-1.0 / self.a)
        return math.inf if xq > _EXACT_FLOAT_LIMIT_LOG else float(floor_exp_exact(xq))

    def describe(self):
        return {"family": "logpareto", "a": self.a}


class YLogY(InitialDistribution):
    """Counts floor(e^{Y ln Y}) for exponential Y, with y ln y = 0 on [0, 1]."""

    name = "ylogy"

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError("exponential rate must be positive")
        self.rate = float(rate)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            lx = np.log(np.maximum(x, 1e-300))
        return _scalarize(x, self.tail_at_log(np.where(x <= 0, NEG_INF, lx)))

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

    def sample(self, rng, size=None, clamp=None):
        if size is None:
            g = float(self._latent_log(rng, None))
            if clamp is not None:
                return int(clamp) if g >= math.log(clamp) else min(floor_exp_exact(g), int(clamp))
            return floor_exp_exact(g)
        if clamp is None:
            raise ValueError("vector draws from a heavy-tailed law need a clamp "
                             "(counts routinely exceed int64)")
        g = self._latent_log(rng, size)
        log_clamp = math.log(clamp)
        out = np.full(size, int(clamp), dtype=np.int64)
        small = g < log_clamp
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

    def mean(self):
        return math.inf

    def quantile(self, q):
        yq = -math.log1p(-q) / self.rate
        g = yq * math.log(yq) if yq > 1 else 0.0
        return math.inf if g > _EXACT_FLOAT_LIMIT_LOG else float(floor_exp_exact(g))

    def describe(self):
        return {"family": "ylogy", "rate": self.rate}


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

    def tail_at_log(self, ell):
        ell = np.asarray(ell, dtype=float)
        small = ell <= 700.0
        vals = np.where(small,
                        self.tail(_snap_integer(np.exp(np.minimum(ell, 700.0)))),
                        0.0)
        vals = np.where(np.isneginf(ell), 1.0, vals)
        return _scalarize(ell, vals)

    def sample(self, rng, size=None, clamp=None):
        draw = rng.choice(self.pmf_arr.size, size=size, p=self.pmf_arr)
        if clamp is not None:
            draw = np.minimum(draw, clamp) if size is not None else min(int(draw), int(clamp))
        return draw.astype(np.int64) if size is not None else int(draw)

    def mean(self):
        return float(np.dot(self.pmf_arr, np.arange(self.pmf_arr.size)))

    def quantile(self, q):
        return float(np.searchsorted(np.cumsum(self.pmf_arr), q, side="left"))

    def describe(self):
        return {"family": "table", "pmf": self.pmf_arr.tolist()}


_FAMILIES = {
    "dirac": lambda s: Dirac(s["k"]),
    "poisson": lambda s: Poisson(s["lam"]),
    "geometric": lambda s: Geometric(s["p"]),
    "logpareto": lambda s: LogPareto(s["a"]),
    "ylogy": lambda s: YLogY(s.get("rate", 1.0)),
    "table": lambda s: TablePMF(s["pmf"]),
}


def dist_from_config(spec: dict) -> InitialDistribution:
    """Build a count law from config like {"family": "logpareto", "a": 0.5}."""
    if not isinstance(spec, dict):
        raise TypeError(f"count law spec must be a mapping, got {spec!r}")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown distribution family: {family!r}")
    return _FAMILIES[family](spec)
