"""Totally asymmetric discrete inhomogeneous Boolean percolation (TADIBP).

Germs sit at the sites 0..H of the non-negative integers; the germ at x
carries a grain covering [x, x + length_x].  Site 0 is wet by convention;
a later site is wet when some grain from strictly left of it reaches it.
Connectivity to the right is captured by the overshoot sequence Y: Y[m] is
how far past m the furthest grain from [0, m] reaches, and a site percolates
toward the horizon exactly when Y stays positive from it onward.

All "to infinity" statements here are horizon-censored: results hold up to
the cached horizon H and every report says so.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .speed import SpeedFunction
from .walks import DEFAULT_REACH_CAP, DEFAULT_TRAJ_CAP, reach_batch

_ORACLE_MAX_H = 64


@dataclass(frozen=True)
class GrainField:
    """One realization of grain lengths over sites 0..H."""

    lengths: np.ndarray                  # int64, lengths[x] >= 0
    provenance: str = "explicit"         # "explicit" | "sampled-from-reach"
    value_saturated: Optional[np.ndarray] = None  # lengths clipped at the reach cap
    count_truncated: Optional[np.ndarray] = None  # particle draws clipped at traj cap

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size < 1:
            raise ValueError("field must be a non-empty vector")
        if np.any(lengths < 0):
            raise ValueError("grain lengths must be non-negative")
        object.__setattr__(self, "lengths", lengths)

    @property
    def horizon(self) -> int:
        return self.lengths.size - 1


def overshoot_sequence(psi: GrainField | np.ndarray) -> np.ndarray:
    """Y[m] = max over z <= m of (z + length_z) - m, a running maximum; it
    satisfies the recursion Y[m] = length[m] max (Y[m-1] - 1)."""
    lengths = psi.lengths if isinstance(psi, GrainField) else np.asarray(psi, dtype=np.int64)
    sites = np.arange(lengths.size, dtype=np.int64)
    return np.maximum.accumulate(sites + lengths) - sites


def wet_mask(psi: GrainField | np.ndarray) -> np.ndarray:
    """Site 0 wet by convention; site m >= 1 wet iff some grain left of m
    reaches m, i.e. Y[m-1] >= 1."""
    y = overshoot_sequence(psi)
    out = np.empty(y.size, dtype=bool)
    out[0] = True
    out[1:] = y[:-1] >= 1
    return out


def connected_to_horizon(x: int, psi: GrainField | np.ndarray) -> bool:
    """Horizon proxy for x -> infinity: Y[m] > 0 for every m in [x, H-1]."""
    y = overshoot_sequence(psi)
    x = int(x)
    if x < 0 or x >= y.size:
        raise ValueError("site outside field")
    return bool(np.all(y[x:y.size - 1] > 0))


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


def percolation_sequence(psi: GrainField | np.ndarray, x: int) -> np.ndarray:
    """Greedy rightmost-argmax chain of germs whose grains cover from x to
    the horizon with multiplicity at most two.

    Construction: the first germ is the rightmost maximizer of z + length_z
    over [0, x]; each next germ is the rightmost maximizer over the interior
    of the previous grain.  Emission stops when the next search window would
    leave the horizon.  Refuses fields where x is not horizon-connected,
    naming the first failing overshoot.
    """
    lengths = psi.lengths if isinstance(psi, GrainField) else np.asarray(psi, dtype=np.int64)
    x = int(x)
    y = overshoot_sequence(lengths)
    h = lengths.size - 1
    bad = np.nonzero(y[x:h] == 0)[0]
    if bad.size:
        raise ValueError(f"site {x} is not connected up to the horizon: "
                         f"overshoot hits zero at m = {x + int(bad[0])}")

    def rightmost_argmax(lo: int, hi: int) -> int:
        window = np.arange(lo, hi + 1)
        reach = window + lengths[lo:hi + 1]
        return int(window[np.flatnonzero(reach == reach.max())[-1]])

    seq = [rightmost_argmax(0, x)]
    while True:
        cur = seq[-1]
        lo, hi = cur + 1, cur + int(lengths[cur])
        if lo > hi or hi > h:
            break
        seq.append(rightmost_argmax(lo, hi))
    out = np.asarray(seq, dtype=np.int64)

    # construction postconditions (cheap, always on)
    if out.size >= 2:
        assert out[0] <= x < out[1]
        reaches = out + lengths[out]
        assert np.all(out[1:] <= reaches[:-1]), "chain link broken"
        if out.size >= 3:
            assert np.all(reaches[:-2] < out[2:]), "triple overlap"
    return out


def dry_probability(m: int, reach_tails) -> float:
    """Product form for the no-overshoot probability at site m.

    reach_tails[i] = P{reach from site i exceeds m - i}, i = 0..m-1; the
    product of their complements is the probability that no germ at a site
    left of m grows strictly past m (log1p-summed for stability).

    Note the classical dry event of site m ("no grain from the left reaches
    m") tightens every threshold by one; both event frequencies are exposed
    by `no_overshoot_frequency` and `dry_frequency` so the match is tested
    against the event this product actually describes.
    """
    r = np.asarray(reach_tails, dtype=float)
    if r.size != m:
        raise ValueError(f"need exactly m = {m} tail values, got {r.size}")
    if np.any((r < 0) | (r > 1)):
        raise ValueError("tail probabilities must lie in [0, 1]")
    if np.any(r == 1.0):
        return 0.0
    return float(np.exp(np.log1p(-r).sum()))


def no_overshoot_frequency(lengths_matrix: np.ndarray, m: int) -> float:
    """Empirical frequency of {length_i <= m - i for every i < m}: the event
    whose probability dry_probability computes."""
    lengths_matrix = np.asarray(lengths_matrix)
    thresholds = m - np.arange(m)
    return float(np.mean(np.all(lengths_matrix[:, :m] <= thresholds, axis=1)))


def dry_frequency(lengths_matrix: np.ndarray, m: int) -> float:
    """Empirical frequency of the classical dry event at m: no grain from a
    site left of m reaches m."""
    lengths_matrix = np.asarray(lengths_matrix)
    thresholds = m - np.arange(m) - 1
    return float(np.mean(np.all(lengths_matrix[:, :m] <= thresholds, axis=1)))


def percolation_series(tail_fn: Callable[[int, int], float], m_max: int) -> np.ndarray:
    """Partial sums of the Borel-Cantelli series sum_m prod_{i=0..m} (1 - r),
    r = tail_fn(site = m - i, overshoot = i).

    Finite partial sums mean all-but-finitely-many overshoots stay positive
    (percolation); with zero grain lengths every term is one and the sums
    grow linearly.
    """
    sums = np.empty(m_max, dtype=float)
    acc = 0.0
    for m in range(1, m_max + 1):
        r = np.array([tail_fn(m - i, i) for i in range(m + 1)], dtype=float)
        if np.any(r >= 1.0):
            term = 0.0
        else:
            term = float(np.exp(np.log1p(-r).sum()))
        acc += term
        sums[m - 1] = acc
    return sums


def sample_grain_fields(speed: SpeedFunction, dist, horizon: int, rng,
                        n_fields: int = 1,
                        cap: int = DEFAULT_REACH_CAP,
                        traj_cap: int = DEFAULT_TRAJ_CAP) -> list[GrainField]:
    """Independent fields with lengths drawn as the fast-reach statistic.

    Vectorized across fields one site at a time: site x draws its particle
    counts for every field, then one batched reach evaluation.  Saturation
    of either the reach cap or the particle-draw clamp is flagged per site.
    """
    if horizon + cap > speed.horizon:
        raise ValueError("speed horizon too small: need horizon + cap sites")
    lengths = np.zeros((n_fields, horizon + 1), dtype=np.int64)
    truncated = np.zeros((n_fields, horizon + 1), dtype=bool)
    for x in range(horizon + 1):
        counts = dist.sample(rng, size=n_fields, clamp=traj_cap)
        truncated[:, x] = counts >= traj_cap
        lengths[:, x] = reach_batch(speed, x, counts, rng, cap=cap)
    return [GrainField(lengths[f], "sampled-from-reach",
                       value_saturated=(lengths[f] >= cap),
                       count_truncated=truncated[f])
            for f in range(n_fields)]


def save_field(path, psi: GrainField) -> None:
    """One grain length per line; a reproducible text fixture."""
    np.savetxt(path, psi.lengths, fmt="%d")


def load_field(path) -> GrainField:
    lengths = np.atleast_1d(np.loadtxt(path, dtype=np.int64))
    return GrainField(lengths, "explicit")
