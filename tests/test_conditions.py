import math

import numpy as np
import pytest

from frogmodel import conditions
from frogmodel.conditions import (K_MAX, VERDICT_CONV, VERDICT_DIV, VERDICT_OPEN,
                                  check_explosion, check_nonexplosion,
                                  check_speed_series, diagnose_series, shift_speed)
from frogmodel.distributions import Dirac, LogPareto, YLogY
from frogmodel.speed import SpeedFunction

from oracles import explosion_product_terms

def in_partial_sum(rep, value):
    lo, hi = rep.log_partial_sum()
    return lo - 1e-12 <= math.log(value) <= hi + 1e-12


def test_speed_series_square_converges():
    rep = check_speed_series(SpeedFunction.power(2.0, horizon=1_000_000))
    assert rep.verdict == VERDICT_CONV
    assert in_partial_sum(rep, math.pi ** 2 / 6)


def test_speed_series_constant_diverges():
    rep = check_speed_series(SpeedFunction.constant(3.0, horizon=100_000))
    assert rep.verdict == VERDICT_DIV


def test_speed_series_log_increment_diverges_with_telescoped_sum():
    rep = check_speed_series(SpeedFunction.log_increment(horizon=100_000), 100_000)
    assert rep.verdict == VERDICT_DIV
    assert rep.horizon == 2 ** 16 - 1
    assert in_partial_sum(rep, math.log(rep.horizon + 1))


def test_speed_series_near_boundary_converges_by_condensation():
    # the closed form reads A far past the table, where a 1.05 exponent
    # shows its k^-(0.05 k) block decay
    rep = check_speed_series(SpeedFunction.power(1.05, horizon=200_000))
    assert rep.verdict == VERDICT_CONV
    assert rep.k_last == K_MAX


def test_verdicts_always_carry_horizon_and_disclaimer():
    rep = check_speed_series(SpeedFunction.power(2.0, horizon=4096), 4096)
    assert rep.horizon <= 4096
    assert any("not a convergence proof" in n for n in rep.notes)
    d = rep.to_dict()
    assert d["horizon"] == rep.horizon == 2 ** (d["k_last"] + 1) - 1
    assert d["blocks"] == d["k_last"] + 1 == 12
    assert d["sub_blocks"] == 0 and d["slope_hi"] < -1.1


# -- the engine on series of known fate ----------------------------------------

@pytest.mark.parametrize("name,log_term,verdict", [
    ("m^-2", lambda m: -2.0 * np.log(m), VERDICT_CONV),
    ("1/(m ln^2 m)", lambda m: -np.log(m + 1) - 2.0 * np.log(np.log(m + 1)), VERDICT_CONV),
    ("1/(m ln^1.2 m)", lambda m: -np.log(m + 1) - 1.2 * np.log(np.log(m + 1)),
     VERDICT_CONV),
    ("exp(-m^0.1)", lambda m: -m ** 0.1, VERDICT_CONV),
    ("m^-0.5", lambda m: -0.5 * np.log(m), VERDICT_DIV),
    ("m^-1", lambda m: -np.log(m), VERDICT_DIV),
    ("1/(m ln m)", lambda m: -np.log(m + 1) - np.log(np.log(m + 1)), VERDICT_DIV),
])
def test_oracle_series_verdicts(name, log_term, verdict):
    rep = diagnose_series(conditions._monotone(log_term), None, name)
    assert rep.verdict == verdict, (rep.slope_lo, rep.slope_hi)
    if verdict == VERDICT_DIV:
        assert rep.k_last == K_MAX


def test_short_horizon_is_inconclusive():
    rep = diagnose_series(conditions._monotone(lambda m: -2.0 * np.log(m)), 3, "m^-2")
    assert rep.k_last == 1 and rep.verdict == VERDICT_OPEN


@pytest.mark.parametrize("alpha", [1.05, 1.1])
def test_capped_convergent_speed_series_never_reads_diverging(alpha):
    # short of K_MAX the blocks of sum m^-alpha decay with a slope above -1
    table = SpeedFunction.from_values(np.arange(1.0, 2 ** 17 + 1) ** alpha)
    capped = SpeedFunction.power(alpha, horizon=1 << 17)
    for rep in (check_speed_series(table), check_speed_series(capped, 65535)):
        assert rep.k_last < K_MAX and rep.verdict != VERDICT_DIV, rep.slope_lo
    assert check_nonexplosion(YLogY(1.0), table).verdict != "nonexplosion-consistent"
    assert check_nonexplosion(YLogY(1.0), capped, 65536).verdict != "nonexplosion-consistent"


# -- non-explosion checker -------------------------------------------------------

def test_nonexplosion_heavy_log_counts_with_log_increment_speed():
    rep = check_nonexplosion(YLogY(1.0), SpeedFunction.log_increment(horizon=65536))
    assert rep.parts["count_tail"].verdict == VERDICT_CONV
    assert rep.parts["speed_series"].verdict == VERDICT_DIV
    assert rep.verdict == "nonexplosion-consistent"


def test_nonexplosion_point_mass_tail_vanishes():
    rep = check_nonexplosion(Dirac(1), SpeedFunction.power(1.0, horizon=65536))
    assert rep.parts["count_tail"].verdict == VERDICT_CONV
    # thresholds pass 1 quickly, after which every block is exactly zero
    assert rep.parts["count_tail"].log_hi[-1] == -math.inf


def test_nonexplosion_logpareto_tail_diverges():
    rep = check_nonexplosion(LogPareto(0.5),
                             SpeedFunction.log_increment(horizon=65536))
    assert rep.parts["count_tail"].verdict == VERDICT_DIV
    assert rep.verdict == "nonexplosion-inconsistent"


def test_nonexplosion_paper_cases():
    # log-Pareto(a) counts are e^{Y ln Y} with E Y < infinity exactly when a > 1
    log_inc = SpeedFunction.log_increment(horizon=1 << 17)
    assert check_nonexplosion(LogPareto(0.9), log_inc).verdict != "nonexplosion-consistent"
    assert check_nonexplosion(LogPareto(1.1), log_inc).verdict == "nonexplosion-consistent"


# -- explosion checker -----------------------------------------------------------

def test_explosion_heavy_counts_square_speed():
    rep = check_explosion(LogPareto(0.5), SpeedFunction.power(2.0, horizon=65536),
                          rho=2.0)
    assert rep.parts["product_series"].verdict == VERDICT_CONV
    assert rep.parts["corollary_surrogate"].verdict == VERDICT_CONV
    assert rep.parts["speed_series"].verdict == VERDICT_CONV
    assert rep.verdict == "explosion-consistent"


@pytest.mark.parametrize("a", [0.7, 0.9])
def test_explosion_paper_cases(a):
    # the paper proves explosion for log-Pareto(a) counts with every a in (0, 1)
    rep = check_explosion(LogPareto(a), SpeedFunction.power(2.0, horizon=1 << 17), 2.0)
    assert rep.verdict == "explosion-consistent"


def test_explosion_point_mass_fails():
    rep = check_explosion(Dirac(1), SpeedFunction.power(2.0, horizon=65536),
                          rho=2.0)
    assert rep.parts["product_series"].verdict == VERDICT_DIV
    assert rep.parts["product_series"].k_last == K_MAX
    assert rep.verdict == "explosion-inconsistent"


def test_explosion_rejects_rho_at_one():
    with pytest.raises(ValueError):
        check_explosion(Dirac(1), SpeedFunction.power(2.0, horizon=1024), rho=1.0)


@pytest.mark.parametrize("dist", [LogPareto(0.5), YLogY(1.0), Dirac(1)])
def test_product_brackets_contain_brute_force_blocks(dist):
    speed = SpeedFunction.power(2.0, horizon=4096)
    rep = check_explosion(dist, speed, 2.0, horizon=2 ** 11 - 1).parts["product_series"]
    assert rep.k_last == 10
    terms = explosion_product_terms(dist, speed, 2.0, shift_speed(dist, speed), 2047)
    with np.errstate(divide="ignore"):
        exact = np.log(np.add.reduceat(terms, 2 ** np.arange(11) - 1))
    assert np.all(rep.log_lo <= exact + 1e-9)
    assert np.all(exact <= rep.log_hi + 1e-9)


def test_product_terms_monotone_in_rho():
    # count CDF factors grow with rho, and the cells scale with rho, so both
    # brackets order the same way
    speed = SpeedFunction.power(2.0, horizon=4096)
    low, high = (check_explosion(LogPareto(0.5), speed, rho, horizon=4095)
                 .parts["product_series"] for rho in (1.5, 2.5))
    n = min(low.k_last, high.k_last) + 1
    assert np.all(low.log_lo[:n] <= high.log_lo[:n])
    assert np.all(low.log_hi[:n] <= high.log_hi[:n])


@pytest.mark.parametrize("dist", [LogPareto(0.5), YLogY(1.0)])
def test_surrogate_dominates_product_termwise(dist):
    # each factor obeys 1 - a <= e^-a, so the surrogate brackets lie above
    rep = check_explosion(dist, SpeedFunction.power(2.0, horizon=4096), 2.0, horizon=4095)
    product, surrogate = rep.parts["product_series"], rep.parts["corollary_surrogate"]
    assert np.all(np.isfinite(product.log_lo))
    assert product.k_last == surrogate.k_last
    assert np.all(surrogate.log_lo >= product.log_lo)
    assert np.all(surrogate.log_hi >= product.log_hi)
    assert np.any(surrogate.log_lo > product.log_lo)


def test_shift_speed_examples():
    assert shift_speed(Dirac(1), SpeedFunction.power(1.0, horizon=100)) == 2
    assert shift_speed(Dirac(1), SpeedFunction.constant(2.0, horizon=10)) == 1
    with pytest.raises(ValueError):
        shift_speed(Dirac(1), SpeedFunction.constant(0.5, horizon=10))


def test_shift_leaves_verdict_alone():
    dist = LogPareto(0.5)
    raw = SpeedFunction.power(2.0, horizon=65536)
    shifted = SpeedFunction.from_values(raw.values_arr[shift_speed(dist, raw) - 1:])
    rep_raw = check_explosion(dist, raw, 2.0)
    rep_shift = check_explosion(dist, shifted, 2.0)
    assert rep_raw.verdict == rep_shift.verdict == "explosion-consistent"


def test_verdicts_stable_when_k_max_halves(monkeypatch):
    def verdicts():
        return (check_explosion(LogPareto(0.7), SpeedFunction.power(2.0, horizon=4096),
                                2.0).verdict,
                check_nonexplosion(YLogY(1.0),
                                   SpeedFunction.log_increment(horizon=4096)).verdict)

    full = verdicts()
    monkeypatch.setattr(conditions, "K_MAX", 500)
    assert verdicts() == full == ("explosion-consistent", "nonexplosion-consistent")


def test_min_with_harmonic_terms_preserves_divergence():
    # whenever the reciprocal-speed series diagnoses divergent, so does the
    # series of min(1/A(i), 1/i) terms
    for speed in [SpeedFunction.constant(2.0, horizon=200_000),
                  SpeedFunction.power(0.5, horizon=200_000),
                  SpeedFunction.log_increment(horizon=200_000)]:
        base = check_speed_series(speed)
        assert base.verdict == VERDICT_DIV

        def log_term(m, s=speed):
            return -np.maximum(s.log_value(m), np.log(m))

        rep = diagnose_series(conditions._monotone(log_term), speed.horizon, "capped-terms")
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
            assert np.all(np.isfinite(part.log_partial_sum()))
            assert not np.any(np.isnan(part.log_lo)) and not np.any(np.isnan(part.log_hi))
            assert not math.isnan(part.slope_lo) and not math.isnan(part.slope_hi)
