import math

import numpy as np
import pytest

from frogmodel.conditions import (VERDICT_CONV, VERDICT_DIV, VERDICT_OPEN,
                                  check_explosion, check_nonexplosion,
                                  check_speed_series, corollary_surrogate_terms,
                                  diagnose_series, explosion_product_terms,
                                  shift_speed)
from frogmodel.distributions import Dirac, LogPareto, Poisson, YLogY
from frogmodel.speed import SpeedFunction


def test_speed_series_square_converges():
    rep = check_speed_series(SpeedFunction.power(2.0, horizon=1_000_000))
    assert rep.verdict == VERDICT_CONV
    assert rep.checkpoints[-1][1] == pytest.approx(1.64493, abs=1e-4)
    assert rep.analytic_verdict == VERDICT_CONV


def test_speed_series_constant_diverges():
    rep = check_speed_series(SpeedFunction.constant(3.0, horizon=100_000))
    assert rep.verdict == VERDICT_DIV


def test_speed_series_log_increment_diverges_with_telescoped_sum():
    rep = check_speed_series(SpeedFunction.log_increment(horizon=100_000))
    assert rep.verdict == VERDICT_DIV
    assert rep.checkpoints[-1][1] == pytest.approx(math.log(100_001), rel=1e-9)


def test_speed_series_near_boundary_defers_to_analytic():
    rep = check_speed_series(SpeedFunction.power(1.05, horizon=200_000))
    # numerics cannot settle a 1.05 exponent; the family answer fills in
    assert rep.analytic_verdict == VERDICT_CONV
    assert rep.verdict == VERDICT_CONV


def test_verdicts_always_carry_horizon_and_disclaimer():
    rep = check_speed_series(SpeedFunction.power(2.0, horizon=4096))
    assert rep.horizon <= 4096
    assert any("not a convergence proof" in n for n in rep.notes)
    d = rep.to_dict()
    assert d["horizon"] == rep.horizon


# -- non-explosion checker -------------------------------------------------------

def test_nonexplosion_heavy_log_counts_with_log_increment_speed():
    rep = check_nonexplosion(YLogY(1.0), SpeedFunction.log_increment(horizon=65536))
    assert rep.parts["count_tail"].verdict == VERDICT_CONV
    assert rep.parts["speed_series"].verdict == VERDICT_DIV
    assert rep.verdict == "nonexplosion-consistent"


def test_nonexplosion_point_mass_tail_vanishes():
    rep = check_nonexplosion(Dirac(1), SpeedFunction.power(1.0, horizon=65536))
    assert rep.parts["count_tail"].verdict == VERDICT_CONV
    # thresholds pass 1 quickly, after which every term is exactly zero
    assert rep.parts["count_tail"].last_terms[-1][1] == 0.0


def test_nonexplosion_logpareto_tail_diverges():
    rep = check_nonexplosion(LogPareto(0.5),
                             SpeedFunction.log_increment(horizon=65536))
    assert rep.parts["count_tail"].verdict == VERDICT_DIV
    assert rep.verdict == "nonexplosion-inconsistent"


# -- explosion checker -----------------------------------------------------------

def test_explosion_heavy_counts_square_speed():
    rep = check_explosion(LogPareto(0.5), SpeedFunction.power(2.0, horizon=65536),
                          rho=2.0)
    assert rep.parts["product_series"].verdict == VERDICT_CONV
    assert rep.parts["corollary_surrogate"].verdict == VERDICT_CONV
    assert rep.parts["speed_series"].verdict == VERDICT_CONV
    assert rep.verdict == "explosion-consistent"


def test_explosion_point_mass_fails():
    rep = check_explosion(Dirac(1), SpeedFunction.power(2.0, horizon=65536),
                          rho=2.0)
    assert rep.parts["product_series"].verdict == VERDICT_DIV
    assert rep.verdict == "explosion-inconsistent"


def test_explosion_rejects_rho_at_one():
    with pytest.raises(ValueError):
        check_explosion(Dirac(1), SpeedFunction.power(2.0, horizon=1024), rho=1.0)


def test_product_terms_monotone_in_rho():
    # count CDF factors grow with rho, so partial sums order the same way
    speed = shift_speed(LogPareto(0.5), SpeedFunction.power(2.0, horizon=4096))
    idx = np.arange(1, 257)
    t1 = explosion_product_terms(LogPareto(0.5), speed, 1.5, idx)
    t2 = explosion_product_terms(LogPareto(0.5), speed, 2.5, idx)
    assert np.all(np.cumsum(t1) <= np.cumsum(t2) + 1e-15)


@pytest.mark.parametrize("dist", [LogPareto(0.5), YLogY(1.0)])
def test_surrogate_dominates_product_termwise(dist):
    # each factor obeys 1 - a <= e^-a, so the surrogate bounds every product term
    speed = shift_speed(dist, SpeedFunction.power(2.0, horizon=4096))
    idx = np.arange(1, 257)
    product = explosion_product_terms(dist, speed, 2.0, idx)
    surrogate = corollary_surrogate_terms(dist, speed, 2.0, idx)
    assert np.all(product > 0.0)
    assert np.all(surrogate >= product)
    assert np.any(surrogate > product)


def test_shift_speed_examples():
    shifted = shift_speed(Dirac(1), SpeedFunction.power(1.0, horizon=100))
    assert list(shifted.values_arr[:4]) == [2.0, 3.0, 4.0, 5.0]
    same = shift_speed(Dirac(1), SpeedFunction.constant(2.0, horizon=10))
    assert same.value(1) == 2.0 and same.horizon == 10
    with pytest.raises(ValueError):
        shift_speed(Dirac(1), SpeedFunction.constant(0.5, horizon=10))


def test_shift_leaves_verdict_alone():
    dist = LogPareto(0.5)
    raw = SpeedFunction.power(2.0, horizon=65536)
    rep_raw = check_explosion(dist, raw, 2.0)
    rep_shift = check_explosion(dist, shift_speed(dist, raw), 2.0)
    assert rep_raw.verdict == rep_shift.verdict == "explosion-consistent"


def test_min_with_harmonic_terms_preserves_divergence():
    # whenever the reciprocal-speed series diagnoses divergent, so does the
    # series of min(1/A(i), 1/i) terms
    for speed in [SpeedFunction.constant(2.0, horizon=200_000),
                  SpeedFunction.power(0.5, horizon=200_000),
                  SpeedFunction.log_increment(horizon=200_000)]:
        base = check_speed_series(speed)
        assert base.verdict == VERDICT_DIV

        def terms(idx, s=speed):
            return np.minimum(1.0 / s.values_arr[idx - 1], 1.0 / idx)

        rep = diagnose_series(terms, speed.horizon, "capped-terms")
        assert rep.verdict == VERDICT_DIV, speed.family


def test_series_arithmetic_stays_finite():
    # no overflow/underflow blowups anywhere in the reports
    reps = [
        check_speed_series(SpeedFunction.power(2.0, horizon=1_000_000)),
        check_nonexplosion(YLogY(1.0), SpeedFunction.log_increment(horizon=65536)),
        check_explosion(LogPareto(0.5), SpeedFunction.power(2.0, horizon=32768),
                        rho=2.0),
    ]
    for rep in reps:
        parts = rep.parts.values() if hasattr(rep, "parts") else [rep]
        for part in parts:
            for _, s in part.checkpoints:
                assert np.isfinite(s)
            for _, t in part.last_terms:
                assert np.isfinite(t)
