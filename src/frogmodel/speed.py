"""Site-indexed speed functions and their reciprocal prefix sums.

A speed function assigns a positive, non-decreasing rate A(z) to each site
z = 1..H.  Everything downstream consumes the prefix sums of 1/A (a time
budget for crossing a stretch of sites) and the log of the factorial
threshold i! / P(i)^i, P the prefix of the speed floored at the identity
line, which grows far past float range and so only ever exists here in log
space.  The constant, power and log-increment families give ln A and the
thresholds in closed form past H too, up to z of about 2^1000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import digamma, gammaln, zeta

NEG_INF = float("-inf")  # extended-real sentinel: log of a zero threshold

DEFAULT_HORIZON = 1_000_000
# keys each family's config spec may carry besides "family"
_SPEC_KEYS = {"constant": {"value"}, "power": {"alpha"}, "log_increment": set(),
              "table": {"values", "path"}}


class HorizonError(IndexError):
    """Raised when a site index exceeds the cached horizon."""


def _compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """Running sums with Kahan-compensated carry between chunks.

    Within a chunk the plain float64 cumsum error is bounded by the chunk
    length; chunk totals are carried with exactly rounded math.fsum plus a
    Kahan correction, so the global error stays at ulp scale for horizons
    up to 1e6 and beyond.
    """
    out = np.empty(terms.size)
    total = 0.0
    comp = 0.0
    chunk = 1 << 12
    for start in range(0, terms.size, chunk):
        block = terms[start:start + chunk]
        np.cumsum(block, out=out[start:start + block.size])
        out[start:start + block.size] += total
        y = math.fsum(block) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return out


@dataclass(frozen=True)
class SpeedFunction:
    """A(1..H) with cached reciprocal prefix sums.

    Immutable after construction; arrays are marked read-only so instances
    can be shared freely across workers.
    """

    family: str
    horizon: int
    values_arr: np.ndarray            # A(1..H)
    prefix_arr: np.ndarray            # prefix(0..H), prefix(0) = 0
    params: dict = field(default_factory=dict)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _build(family: str, values: np.ndarray, params: dict,
               recip: np.ndarray | None = None) -> "SpeedFunction":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("speed table must be a non-empty 1-d array")
        if not np.all(values > 0):
            raise ValueError("speed values must be strictly positive")
        if np.any(np.diff(values) < 0):
            raise ValueError("speed values must be non-decreasing")
        if recip is None:
            recip = 1.0 / values
        prefix = np.concatenate(([0.0], _compensated_cumsum(recip)))
        values.flags.writeable = False
        prefix.flags.writeable = False
        return SpeedFunction(family, values.size, values, prefix, dict(params))

    @classmethod
    def constant(cls, value: float, horizon: int = DEFAULT_HORIZON) -> "SpeedFunction":
        return cls._build("constant", np.full(horizon, float(value)),
                          {"value": float(value)})

    @classmethod
    def power(cls, alpha: float, horizon: int = DEFAULT_HORIZON) -> "SpeedFunction":
        if alpha <= 0:
            raise ValueError("power exponent must be positive")
        z = np.arange(1, horizon + 1, dtype=float)
        return cls._build("power", z ** alpha, {"alpha": float(alpha)},
                          recip=z ** (-alpha))

    @classmethod
    def log_increment(cls, horizon: int = DEFAULT_HORIZON) -> "SpeedFunction":
        # A(z) = 1 / (ln(z+1) - ln z); the reciprocal log1p(1/z) telescopes
        # to ln(i+1), so compute it directly for accuracy.
        z = np.arange(1, horizon + 1, dtype=float)
        recip = np.log1p(1.0 / z)
        return cls._build("log_increment", 1.0 / recip, {}, recip=recip)

    @classmethod
    def from_values(cls, values, params: dict | None = None) -> "SpeedFunction":
        return cls._build("table", np.asarray(values, dtype=float), params or {})

    @classmethod
    def from_config(cls, spec: dict, horizon: int = DEFAULT_HORIZON) -> "SpeedFunction":
        """Build from a config mapping like {"family": "power", "alpha": 2.0}.

        The table family accepts either inline "values" or a "path" to a
        one-column text file of A(1..H); a key the family does not take is
        refused.
        """
        spec = dict(spec)
        family = spec.pop("family", None)
        if family not in _SPEC_KEYS:
            raise ValueError(f"unknown speed family: {family!r}")
        unknown = set(spec) - _SPEC_KEYS[family]
        if unknown:
            raise ValueError(f"unknown {family} speed keys: {sorted(unknown)}")
        if family == "constant":
            return cls.constant(spec["value"], horizon)
        if family == "power":
            return cls.power(spec["alpha"], horizon)
        if family == "log_increment":
            return cls.log_increment(horizon)
        if "path" in spec:
            return cls.from_values(np.loadtxt(spec["path"]))
        return cls.from_values(np.asarray(spec["values"], dtype=float))

    # -- queries -----------------------------------------------------------

    def _check_site(self, i: int) -> int:
        i = int(i)
        if i < 0 or i > self.horizon:
            raise HorizonError(f"site index {i} outside cached horizon {self.horizon}")
        return i

    def value(self, z: Union[int, np.ndarray]):
        """A(z) for 1 <= z <= H."""
        z = np.asarray(z)
        if np.any(z < 1) or np.any(z > self.horizon):
            raise HorizonError(f"site outside horizon {self.horizon}")
        out = self.values_arr[z - 1]
        return float(out) if out.ndim == 0 else out

    def prefix(self, i: int) -> float:
        """Sum of 1/A(z) over z = 1..i; zero for i = 0."""
        return float(self.prefix_arr[self._check_site(i)])

    def segment(self, i: int, j: int) -> float:
        """Sum of 1/A(z) over z = i+1..i+j (the crossing budget for j sites)."""
        i = int(i)
        j = int(j)
        if i < 0 or j < 0:
            raise ValueError("segment needs i >= 0 and j >= 0")
        if i + j > self.horizon:
            raise HorizonError(f"segment end {i + j} outside horizon {self.horizon}")
        return float(self.prefix_arr[i + j] - self.prefix_arr[i])

    @property
    def last_site(self) -> float:
        """Largest site with a known speed: the table's, or +inf for the
        named families, which read on in closed form."""
        return self.horizon if self.family == "table" else math.inf

    def log_value(self, z):
        """ln A(z) at real z >= 1 (up to about 2^1000 for the named families)."""
        z = np.asarray(z, dtype=float)
        if self.family == "constant":
            out = np.full(z.shape, math.log(self.params["value"]))
        elif self.family == "power":
            out = self.params["alpha"] * np.log(z)
        elif self.family == "log_increment":
            out = -np.log(np.log1p(1.0 / z))
        else:
            out = np.log(self.value(z.astype(np.int64)))
        return float(out) if np.ndim(out) == 0 else out

    def _floor_prefix(self, i: np.ndarray) -> np.ndarray:
        """Sum of 1/max(A(z), z) over z <= i, in closed form for real i >= 0."""
        if self.family == "table":
            floored = np.maximum(self.values_arr, np.arange(1.0, self.horizon + 1.0))
            return np.concatenate(([0.0], np.cumsum(1.0 / floored)))[i.astype(np.int64)]
        if self.family == "log_increment":  # 1/A(z) = ln(1 + 1/z) < 1/z telescopes
            return np.log1p(i)
        if self.family == "power" and self.params["alpha"] > 1:  # z^alpha >= z
            return zeta(self.params["alpha"], 1.0) - zeta(self.params["alpha"], i + 1.0)
        # 1/max(c, z): 1/c up to floor(c), then harmonic; c = 1 for alpha <= 1
        c = self.params.get("value", 1.0)
        top = math.floor(c)
        return (np.minimum(i, top) / c
                + digamma(np.maximum(i, top) + 1.0) - digamma(top + 1.0))

    def log_tail_threshold(self, i):
        """ln of the count threshold i! / P(i)^i at real i >= 0, with P(i) the
        sum of 1/max(A(z), z) over z <= i: the speed floored at the identity
        line.  -inf sentinel at i = 0.  The threshold overflows floats near
        i = 170 for typical speeds, so it is never materialized.
        """
        arr = np.asarray(i, dtype=float)
        if np.any(arr < 0) or np.any(arr > self.last_site):
            raise HorizonError(f"index outside horizon {self.horizon}")
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = gammaln(arr + 1.0) - arr * np.log(self._floor_prefix(arr))
        out = np.where(arr == 0, NEG_INF, logs)
        return float(out) if out.ndim == 0 else out
