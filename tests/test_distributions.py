import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogmodel.distributions import (Dirac, Geometric, LogPareto, Poisson,
                                     TablePMF, YLogY, dist_from_config,
                                     floor_exp_exact)
from frogmodel.rng import substream


def all_families():
    return [Dirac(1), Dirac(0), Poisson(1.0), Geometric(0.5),
            LogPareto(0.5), LogPareto(2.0), YLogY(1.0), YLogY(2.0),
            TablePMF([0.2, 0.5, 0.3])]


# -- tail values ---------------------------------------------------------------

def test_dirac_tail():
    d = Dirac(1)
    assert d.tail(1) == 1.0
    assert d.tail(1.5) == 0.0
    assert d.tail(0) == 1.0


def test_logpareto_tail_closed_form():
    lp = LogPareto(0.5)
    assert lp.tail(math.exp(4)) == pytest.approx(0.5, abs=1e-14)
    assert lp.tail(1.0) == 1.0


def test_poisson_tail_closed_form():
    po = Poisson(1.0)
    expect = 1.0 - math.exp(-1) * (1 + 1 + 0.5)
    assert po.tail(3) == pytest.approx(expect, abs=1e-12)


def test_tail_at_log_sentinel_and_examples():
    for d in all_families():
        assert d.tail_at_log(float("-inf")) == 1.0
    assert LogPareto(0.5).tail_at_log(4.0) == pytest.approx(0.5, abs=1e-12)
    # y ln y = e is solved by y = e, so the tail is the exponential tail there
    assert YLogY(1.0).tail_at_log(math.e) == pytest.approx(math.exp(-math.e),
                                                           abs=1e-10)


def test_tail_vs_tail_at_log_consistency():
    for d in all_families():
        for x in [1.0, 2.0, 5.0, 10.0]:
            assert abs(d.tail(x) - d.tail_at_log(math.log(x))) <= 1e-9, d.name
        # thresholds in (0, 1) still ask for count >= 1, however small
        for ell in [-40.0, -800.0]:
            assert d.tail_at_log(ell) == d.tail(1.0), (d.name, ell)
        assert d.tail(0.0) == 1.0


def test_tails_monotone_on_dense_grid():
    grid = np.concatenate((np.linspace(0, 20, 400), np.geomspace(20, 1e9, 100)))
    for d in all_families():
        t = np.asarray(d.tail(grid))
        assert np.all(np.diff(t) <= 1e-15), d.name


def test_huge_log_thresholds_hit_zero_for_light_families():
    for d in [Dirac(3), Poisson(2.0), Geometric(0.3), TablePMF([0.5, 0.5])]:
        assert d.tail_at_log(1e6) == 0.0


def test_pmf_sums_to_one_where_enumerable():
    for d in [Dirac(2), Poisson(1.0), Geometric(0.5), TablePMF([0.2, 0.5, 0.3])]:
        q = d.quantile(1 - 1e-12)
        ks = np.arange(0, int(q) + 1)
        assert d.pmf(ks).sum() >= 1 - 1e-9, d.name


def test_pmf_telescopes_to_tail_for_heavy_families():
    # partial pmf sums must telescope exactly to the integer-threshold tails
    for d in [LogPareto(0.5), YLogY(1.0)]:
        ks = np.arange(0, 50)
        partial = d.pmf(ks).sum()
        assert partial == pytest.approx(1.0 - d.tail(50), abs=1e-12)
        assert np.all(d.pmf(ks) >= 0)


# -- sampling ------------------------------------------------------------------

def test_dirac_sampler_constant():
    g = substream(0, "dirac")
    assert all(Dirac(1).sample(g) == 1 for _ in range(5))


def test_geometric_sampler_mean():
    g = substream(1, "geom")
    draws = Geometric(0.5).sample(g, size=1_000_000)
    assert draws.mean() == pytest.approx(1.0, abs=0.01)


def test_logpareto_sampler_tail_frequency():
    g = substream(2, "lp")
    draws = LogPareto(0.5).sample(g, size=1_000_000, clamp=10 ** 12)
    freq = np.mean(draws >= math.exp(4))
    assert freq == pytest.approx(0.5, abs=0.005)


def test_sampler_tail_agreement_three_sigma():
    n = 100_000
    for i, d in enumerate(all_families()):
        g = substream(3, "agree", i)
        draws = d.sample(g, size=n, clamp=10 ** 12)
        for x in [1, 2, 5, 10]:
            p = float(d.tail(x))
            se = max(math.sqrt(p * (1 - p) / n), 1.0 / n)
            assert abs(np.mean(draws >= x) - p) <= 3 * se, (d.name, x)


def test_heavy_vector_sampling_requires_clamp():
    g = substream(4, "clamp")
    with pytest.raises(ValueError):
        LogPareto(0.5).sample(g, size=10)
    with pytest.raises(ValueError):
        YLogY(1.0).sample(g, size=10)


def test_scalar_sample_exact_big_integer():
    # the exact floor path: e^100 has 44 digits; check against mpmath-free math
    n = floor_exp_exact(100.0)
    assert n.bit_length() == 145
    assert math.isclose(math.log(float(n)), 100.0, abs_tol=1e-12)
    assert floor_exp_exact(0.0) == 1
    assert floor_exp_exact(-1.0) == 0
    assert floor_exp_exact(1.0) == 2  # floor(e)


def test_scalar_heavy_samples_are_ints():
    g = substream(5, "scalar")
    lp = LogPareto(2.0)   # light enough that e^X stays in float range w.h.p.
    vals = [lp.sample(g) for _ in range(200)]
    assert all(isinstance(v, int) and v >= 2 for v in vals)
    yl = YLogY(1.0)
    vals = [yl.sample(g) for _ in range(200)]
    assert all(isinstance(v, int) and v >= 1 for v in vals)


def test_sample_counts_log_marks_huge_draws():
    g = substream(6, "logs")
    batch = LogPareto(0.5).sample_counts_log(g, 50_000)
    huge = np.isinf(batch.counts)
    assert np.any(huge)
    assert np.all(batch.logs[huge] > 36.0)
    finite = ~huge
    assert np.allclose(batch.logs[finite],
                       np.log(np.maximum(batch.counts[finite], 1.0)))


def test_means():
    assert Dirac(3).mean() == 3.0
    assert Poisson(2.5).mean() == 2.5
    assert Geometric(0.5).mean() == 1.0
    assert math.isinf(LogPareto(0.5).mean())
    assert math.isinf(YLogY(1.0).mean())
    assert TablePMF([0.5, 0.5]).mean() == 0.5


def test_quantiles():
    assert Geometric(0.5).quantile(0.74) == 1.0
    assert Dirac(7).quantile(0.999) == 7.0
    assert math.isinf(LogPareto(0.5).quantile(1 - 1e-12))


def test_poisson_quantile_matches_scipy_stats():
    from scipy.stats import poisson
    qs = np.concatenate(([1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.01, 0.99, 99),
                         [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]))
    for lam in np.geomspace(1e-3, 200, 40):
        po = Poisson(lam)
        for q in qs:
            assert po.quantile(q) == float(poisson.ppf(q, lam)), (lam, q)


@given(st.floats(0.1, 0.9))
@settings(max_examples=50, deadline=None)
def test_geometric_quantile_inverts_cdf(q):
    geo = Geometric(0.3)
    k = geo.quantile(q)
    assert float(geo.cdf_closed(k)) >= q
    if k >= 1:
        assert float(geo.cdf_closed(k - 1)) < q


def test_dist_from_config_round_trip():
    for d in all_families():
        d2 = dist_from_config(d.describe())
        assert d2.describe() == d.describe()
    with pytest.raises(ValueError):
        dist_from_config({"family": "zeta", "s": 2})


def test_ylogy_convention_counts_start_at_one():
    # y ln y reads as 0 on [0, 1], so the latent is always >= 1
    g = substream(7, "yl")
    draws = YLogY(1.0).sample(g, size=10_000, clamp=10 ** 9)
    assert draws.min() >= 1
    assert YLogY(1.0).tail(1.0) == 1.0
    assert YLogY(1.0).pmf(0) == 0.0
