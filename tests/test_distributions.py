import math
import tracemalloc

import numpy as np
import pytest

from frogmodel.bounds import reach_tail_lower
from frogmodel.distributions import (Dirac, Geometric, LogPareto, Poisson,
                                     TablePMF, YLogY, dist_from_config)
from frogmodel.rng import substream
from frogmodel.speed import SpeedFunction


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
    ks = np.arange(61)
    for d in [Dirac(2), Poisson(1.0), Geometric(0.5), TablePMF([0.2, 0.5, 0.3])]:
        pmf = d.pmf(ks)
        assert pmf.sum() >= 1 - 1e-9, d.name
        assert np.allclose(d.cdf_closed(ks), np.cumsum(pmf), rtol=0, atol=1e-12), d.name


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
    draws = Dirac(1).sample(g, size=5)
    assert draws.dtype == np.int64
    assert np.all(draws == 1)


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


def test_sample_counts_log_marks_huge_draws():
    g = substream(6, "logs")
    batch = LogPareto(0.5).sample_counts_log(g, 50_000)
    huge = np.isinf(batch.counts)
    assert np.any(huge)
    assert np.all(batch.logs[huge] > 36.0)
    finite = ~huge
    assert np.allclose(batch.logs[finite],
                       np.log(np.maximum(batch.counts[finite], 1.0)))


def test_dist_from_config_round_trip():
    specs = [({"family": "dirac", "k": 3}, Dirac, "k", 3),
             ({"family": "poisson", "lam": 2.5}, Poisson, "lam", 2.5),
             ({"family": "geometric", "p": 0.3}, Geometric, "p", 0.3),
             ({"family": "logpareto", "a": 0.5}, LogPareto, "a", 0.5),
             ({"family": "ylogy", "rate": 2.0}, YLogY, "rate", 2.0)]
    for spec, family, key, value in specs:
        d = dist_from_config(spec)
        assert type(d) is family and getattr(d, key) == value, spec
    table = dist_from_config({"family": "table", "pmf": [0.2, 0.5, 0.3]})
    assert type(table) is TablePMF and table.pmf_arr.tolist() == [0.2, 0.5, 0.3]
    with pytest.raises(ValueError):
        dist_from_config({"family": "zeta", "s": 2})


def test_ylogy_convention_counts_start_at_one():
    # y ln y reads as 0 on [0, 1], so the latent is always >= 1
    g = substream(7, "yl")
    draws = YLogY(1.0).sample(g, size=10_000, clamp=10 ** 9)
    assert draws.min() >= 1
    assert YLogY(1.0).tail(1.0) == 1.0
    assert YLogY(1.0).pmf(0) == 0.0


# -- hit probability -----------------------------------------------------------

def test_hit_probability_matches_pmf_sum_for_lattice_laws():
    ks = np.arange(200)
    for d in [Dirac(3), Poisson(2.5), Geometric(0.3), TablePMF([0.2, 0.5, 0.3])]:
        for q in [1e-14, 1e-6, 0.05, 0.5]:
            exact = -float(np.sum(d.pmf(ks) * np.expm1(ks * math.log1p(-q))))
            assert d.hit_probability(q) == pytest.approx(exact, rel=1e-12, abs=0), \
                (d.name, q)


def test_hit_probability_matches_sampling_for_floor_exp_laws():
    q, n = 1e-3, 1_000_000
    for i, d in enumerate([LogPareto(0.5), YLogY(1.0)]):
        counts = d.sample_counts_log(substream(8, "hit", i), n).counts
        # an infinite count (above 2^53) hits for sure: (1 - q)^inf = 0
        hits = -np.expm1(counts * math.log1p(-q))
        se = hits.std() / math.sqrt(n)
        assert abs(hits.mean() - d.hit_probability(q)) <= 5 * se, d.name


def test_hit_probability_log_pareto_bound_is_exact_and_small():
    # q = 6.6e-10 with an infinite quantile: a truncated pmf sum gave 2.4e-4
    # here after 50M-element arrays; the exact value is 0.2209027
    speed = SpeedFunction.constant(2.0, horizon=200)
    tracemalloc.start()
    try:
        value = reach_tail_lower(20, 40, LogPareto(0.5), speed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.22088 <= value <= 0.2209028
    assert peak < 64 * 2 ** 20


def test_hit_probability_edges():
    for d in [Dirac(2), Poisson(1.0), Geometric(0.5), LogPareto(0.5), YLogY(1.0),
              TablePMF([0.2, 0.5, 0.3])]:
        assert d.hit_probability(0.0) == 0.0, d.name
    for d in [LogPareto(0.5), YLogY(1.0), TablePMF([0.2, 0.5, 0.3])]:
        with pytest.raises(ValueError):
            d.hit_probability(1.0)
    assert Dirac(0).hit_probability(0.3) == 0.0
    # the blocks run out to k ~ 6e301 without overflow; 1 - (1 - q)^N lies
    # between (1 - 1/e) 1{N >= 1/q} and 1{N >= k} + qk for every k
    q, lp = 1e-300, LogPareto(0.5)
    value = lp.hit_probability(q)
    assert (1 - math.exp(-1)) * lp.tail(1 / q) <= value <= lp.tail(1e295) + 1e-5
    # a subnormal q (a reach floor past e^-708) keeps the blocks finite
    assert 0.0 < lp.hit_probability(1e-310) <= value
    table = TablePMF([0.2, 0.5, 0.3])
    assert table.hit_probability(1e-310) == pytest.approx(1.1e-310, rel=1e-9)
