import math

import numpy as np
import pytest

from frogmodel.bounds import (poisson_tail, reach_floor, reach_floor_coarse,
                              reach_floor_gate, reach_lower_bound,
                              reach_tail_lower, reach_upper_chain,
                              verify_reach_tail_lower, verify_sandwich)
from frogmodel.distributions import Dirac, Geometric, Poisson
from frogmodel.rng import substream
from frogmodel.speed import SpeedFunction

A2 = SpeedFunction.constant(2.0, horizon=3000)
Z1 = SpeedFunction.from_values(np.arange(1, 3001) + 1.0)  # A(z) = z + 1


def test_reach_lower_bound_plugin_values():
    assert reach_lower_bound(0, 0, A2) == pytest.approx(math.exp(-0.5) / 4,
                                                        rel=1e-12)
    assert reach_lower_bound(1, 0, A2) == pytest.approx(1 / (16 * math.sqrt(2)),
                                                        rel=1e-12)


def test_reach_lower_bound_refuses_slow_speed():
    slow = SpeedFunction.constant(0.5, horizon=100)
    with pytest.raises(ValueError, match="shift"):
        reach_lower_bound(0, 0, slow)


def test_reach_floor_plugin_values():
    assert reach_floor(0, 5, A2) == pytest.approx(math.exp(-0.5) / 4, rel=1e-12)
    assert reach_floor_coarse(0, 5, A2) == pytest.approx(0.0625, rel=1e-12)
    # slowly growing speed fails the gate at small m: no ordering claimed
    assert not reach_floor_gate(5, A2)
    assert reach_floor_gate(200, Z1)


def test_floor_ordering_wherever_gate_holds():
    grid = 0
    for m in range(1, 400):
        if not reach_floor_gate(m, Z1):
            continue
        for i in range(0, m + 1, max(1, m // 7)):
            assert reach_floor_coarse(i, m, Z1) <= reach_floor(i, m, Z1)
            grid += 1
    assert grid > 100


def test_reach_tail_lower_point_mass_reduces_to_floor():
    assert reach_tail_lower(2, 8, Dirac(1), A2) == pytest.approx(
        reach_floor(2, 8, A2), rel=1e-10)
    assert reach_tail_lower(2, 8, Dirac(0), A2) == 0.0


def test_reach_tail_lower_poisson_pgf_identity():
    lam = 1.3
    q = reach_floor(2, 8, A2)
    got = reach_tail_lower(2, 8, Poisson(lam), A2)
    assert got == pytest.approx(1 - math.exp(-lam * q), abs=1e-10)


def test_chain_first_term_and_truncation():
    res = reach_upper_chain(0, 1, A2)
    first = 1 - math.exp(-0.5)
    assert res.value >= first
    assert res.last_term < 1e-15
    assert not res.inconclusive and not res.truncated


def test_chain_zero_intensity():
    huge = SpeedFunction.from_values(np.full(50, 1e12))
    res = reach_upper_chain(0, 1, huge)
    assert res.value < 1e-9


def test_chain_flags_nondecreasing_terms():
    slow = SpeedFunction.from_values(np.full(3000, 0.05))
    res = reach_upper_chain(0, 1, slow, max_terms=300)
    assert res.inconclusive


def test_poisson_tail_log_fallback():
    assert poisson_tail(0, 3.0) == 1.0


def test_bound_evaluations_finite_on_large_grid():
    for i, j, m in [(10, 10, 30), (100, 50, 300), (1000, 500, 1000)]:
        assert np.isfinite(reach_floor(i, m, Z1))
        assert np.isfinite(reach_floor_coarse(i, m, Z1))
        assert np.isfinite(reach_lower_bound(j, 0, Z1))
        assert np.isfinite(reach_upper_chain(0, j, Z1).value)


def test_sandwich_smoke_small():
    checks = verify_sandwich(A2, [0, 1], [1, 2], 20_000, substream(0, "sand"))
    assert all(c.satisfied for c in checks)


def test_tail_lower_smoke_small():
    checks = verify_reach_tail_lower(Geometric(0.5), Z1, [0, 1, 2], [4, 8],
                                     5000, substream(1, "tl"))
    assert all(c.satisfied for c in checks)
