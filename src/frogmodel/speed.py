"""Site-indexed speed functions and their reciprocal prefix sums.

A speed function assigns a positive, non-decreasing rate A(z) to each site
z = 1..H.  Everything downstream consumes the prefix sums of 1/A (a time
budget for crossing a stretch of sites) and the log of the factorial
threshold i! / prefix(i)^i, which grows far past float range and therefore
only ever exists here in log space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import gammaln

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

    def log_tail_threshold(self, i):
        """ln of the count threshold i! / prefix(i)^i; -inf sentinel at i = 0.

        The threshold itself overflows floats near i = 170 for typical
        speeds, so it is never materialized in linear space.
        """
        arr = np.asarray(i)
        if np.any(arr < 0) or np.any(arr > self.horizon):
            raise HorizonError(f"index outside horizon {self.horizon}")
        idx = arr.astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = gammaln(idx + 1.0) - idx * np.log(self.prefix_arr[idx])
        out = np.where(idx == 0, NEG_INF, logs)
        return float(out) if out.ndim == 0 else out

    # -- derived speeds ----------------------------------------------------

    def with_linear_floor(self) -> "SpeedFunction":
        """Pointwise max(A(z), z): the speed used by the non-explosion checker.

        Raising A below the identity line keeps the relevant series
        behaviour while making prefix sums comparable to harmonic numbers.
        """
        z = np.arange(1, self.horizon + 1, dtype=float)
        if np.all(self.values_arr >= z):
            return self
        return SpeedFunction._build(
            "table", np.maximum(self.values_arr, z),
            {"floor_of": self.family, **self.params})

    def shifted(self, z0: int) -> "SpeedFunction":
        """The speed m -> A(m + z0 - 1) on the remaining horizon."""
        z0 = int(z0)
        if z0 < 1 or z0 > self.horizon:
            raise HorizonError("shift origin outside horizon")
        if z0 == 1:
            return self
        return SpeedFunction._build(
            "table", self.values_arr[z0 - 1:],
            {"shift_of": self.family, "z0": z0, **self.params})
