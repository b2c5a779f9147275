import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincinv
from scipy.stats import ks_2samp

from frogmodel import frogsim
from frogmodel.distributions import Dirac, LogPareto, Poisson
from frogmodel.frogsim import (ActivationRecord, FrogConfig, _min_erlang_quantile,
                               regime_diagnostic, simulate)
from frogmodel.rng import substream


def replay_activation_times(trace, r_max):
    """Independent fixed-point oracle: a site's activation time is the
    minimum arrival time over walkers whose own birth is already explained."""
    theta = {0: 0.0}
    changed = True
    while changed:
        changed = False
        for w in trace:
            born_site, born = w["site"], w["born"]
            if theta.get(born_site, math.inf) > born:
                continue  # walker not yet explained by current activations
            pos = born_site
            for t, step in w["moves"]:
                pos += step
                if t < theta.get(pos, math.inf):
                    theta[pos] = t
                    changed = True
    return theta


def synth_record(theta):
    theta = np.asarray(theta, dtype=float)
    return ActivationRecord(theta=theta, counts=np.zeros(1),
                            count_logs=np.zeros(1), window_lo=0)


# -- basic structure -------------------------------------------------------------

def test_first_activation_positive_and_ordered():
    rec = simulate(FrogConfig(dist=Dirac(1), right_horizon=8, seed=3))
    assert rec.theta[0] == 0.0
    assert rec.theta[1] > 0
    reached = rec.theta[rec.reached]
    assert np.all(np.diff(reached) > 0)
    assert rec.stop_reason == "reached-horizon"


def test_single_walker_degenerate_case():
    # all-zero counts plus the origin boost: one particle ever
    rec = simulate(FrogConfig(dist=Dirac(0), right_horizon=12, seed=5))
    assert rec.flags["origin_boosted"]
    assert rec.n_materialized == 1
    assert rec.reached.all()


def test_boost_disabled_rejects_zero_law():
    cfg = FrogConfig(dist=Dirac(0), right_horizon=4, seed=0, origin_boost=False)
    with pytest.raises(ValueError):
        simulate(cfg)


def test_removed_equals_window_of_width_zero():
    a = simulate(FrogConfig(dist=Poisson(1.0), right_horizon=24, seed=9,
                            left_mode="removed"))
    b = simulate(FrogConfig(dist=Poisson(1.0), right_horizon=24, seed=9,
                            left_mode="window", left_horizon=0))
    assert np.array_equal(a.theta, b.theta, equal_nan=True)
    assert a.n_events == b.n_events


def test_determinism_bit_identical():
    cfg = FrogConfig(dist=Poisson(1.0), right_horizon=32, seed=17)
    a, b = simulate(cfg), simulate(cfg)
    assert np.array_equal(a.theta, b.theta, equal_nan=True)
    assert np.array_equal(a.counts, b.counts)
    assert a.n_events == b.n_events and a.n_materialized == b.n_materialized


def test_removed_mode_never_births_left_of_origin():
    rec = simulate(FrogConfig(dist=Poisson(2.0), right_horizon=16, seed=21),
                   record_trace=True)
    assert all(w["site"] >= 0 for w in rec.trace)


def test_window_mode_wakes_left_sleepers():
    seeds_with_left = 0
    for seed in range(6):
        rec = simulate(FrogConfig(dist=Dirac(1), right_horizon=16, seed=seed,
                                  left_mode="window", left_horizon=16),
                       record_trace=True)
        seeds_with_left += any(w["site"] < 0 for w in rec.trace)
    assert seeds_with_left > 0


def test_time_cap_stops_with_flag():
    rec = simulate(FrogConfig(dist=Dirac(1), right_horizon=4096, seed=1,
                              time_cap=3.0))
    assert rec.stop_reason == "time-cap"
    assert rec.flags["time_cap_hit"]
    assert not rec.reached.all()


def test_particle_cap_refuses_not_truncates():
    rec = simulate(FrogConfig(dist=LogPareto(0.5), right_horizon=64, seed=2,
                              particle_cap=5000))
    assert rec.stop_reason == "particle-cap"
    assert rec.flags["particle_cap_hit"]


def test_event_counts_by_kind_sum_to_n_events():
    for cfg in (FrogConfig(dist=Poisson(1.0), right_horizon=64, seed=3),
                FrogConfig(dist=LogPareto(0.5), right_horizon=64, seed=4, cohort_cap=8),
                FrogConfig(dist=Dirac(1), right_horizon=4096, seed=1, event_cap=500)):
        rec = simulate(cfg)
        kinds = rec.flags["events"]
        assert set(kinds) == {"peel", "jump", "exit", "race"}
        assert sum(kinds.values()) == rec.n_events
        # every walker is peeled from a cohort or ends a racer's sprint
        assert kinds["peel"] >= rec.n_materialized - rec.flags["racers"]
        assert kinds["exit"] > 0
    assert rec.stop_reason == "event-cap" and rec.n_events == 500


# -- activation correctness vs dense replay ---------------------------------------

def exit_moves(trace):
    return sum(abs(step) > 1 for w in trace for _, step in w["moves"])


def test_activation_times_match_trace_replay():
    exits = 0
    for seed in range(25):
        cfg = FrogConfig(dist=Poisson(1.0), right_horizon=5, seed=seed)
        rec = simulate(cfg, record_trace=True)
        exits += exit_moves(rec.trace)
        oracle = replay_activation_times(rec.trace, 5)
        for site in range(0, 6):
            if not math.isnan(rec.theta[site]):
                assert oracle.get(site) == rec.theta[site], (seed, site)
    assert exits > 0


def test_activation_replay_window_mode():
    exits = 0
    for seed in range(10):
        cfg = FrogConfig(dist=Dirac(1), right_horizon=4, seed=seed,
                         left_mode="window", left_horizon=4)
        rec = simulate(cfg, record_trace=True)
        exits += exit_moves(rec.trace)
        oracle = replay_activation_times(rec.trace, 4)
        for site in range(0, 5):
            if not math.isnan(rec.theta[site]):
                assert oracle.get(site) == rec.theta[site]
    assert exits > 0


def test_move_radii_are_powers_of_two_up_to_the_cap():
    for seed in range(10):
        rec = simulate(FrogConfig(dist=Poisson(1.0), right_horizon=64, seed=seed,
                                  left_mode="window", left_horizon=16),
                       record_trace=True)
        radii = {abs(step) for w in rec.trace for _, step in w["moves"]}
        assert radii <= {1, 2, 4, 8, 16, 32} and max(radii) > 1


# -- exits against per-jump stepping ------------------------------------------------

KS_LEVEL = 1e-3       # every per-site two-sample KS p-value stays above this
DYADIC_SITES = [4, 8, 16, 32]


def dyadic_thetas(dist, cohort_cap, left_mode, key):
    thetas = []
    for k in range(300):
        seed = int(substream(31, *key, k).integers(1 << 62))
        rec = simulate(FrogConfig(dist=dist, right_horizon=32, seed=seed,
                                  cohort_cap=cohort_cap, left_mode=left_mode,
                                  left_horizon=32 if left_mode == "window" else 0))
        assert rec.stop_reason == "reached-horizon"
        thetas.append(rec.theta[DYADIC_SITES])
    return np.array(thetas)


@pytest.mark.parametrize("left_mode", ["removed", "window"])
@pytest.mark.parametrize("dist,cohort_cap", [(Dirac(1), None), (Poisson(1.0), None),
                                             (LogPareto(0.5), 64)],
                         ids=["dirac1", "poisson1", "logpareto0.5"])
def test_exits_match_per_jump_stepping(monkeypatch, dist, cohort_cap, left_mode):
    key = (dist.name, left_mode)
    exits = dyadic_thetas(dist, cohort_cap, left_mode, key + ("exits",))
    monkeypatch.setattr(frogsim, "EXIT_RADIUS_CAP", 1)
    steps = dyadic_thetas(dist, cohort_cap, left_mode, key + ("steps",))
    for i, site in enumerate(DYADIC_SITES):
        p = ks_2samp(exits[:, i], steps[:, i]).pvalue
        assert p > KS_LEVEL, (site, p)


def test_cohort_first_jumps_are_exponential_order_statistics():
    # the k origin particles' first-jump times must average the partial
    # harmonic sums of 1/k (order statistics of k unit exponentials); the
    # run is stopped by an event budget long after all k have jumped, so
    # censoring is negligible
    k = 5
    delays = []
    for seed in range(300):
        cfg = FrogConfig(dist=Dirac(k), right_horizon=1200, seed=seed,
                         event_cap=2500)
        rec = simulate(cfg, record_trace=True)
        first = sorted(w["moves"][0][0] for w in rec.trace if w["site"] == 0)
        if len(first) == k:
            delays.append(first)
    delays = np.array(delays)
    assert len(delays) >= 295
    expect = np.cumsum([1.0 / (k - i) for i in range(k)])
    got = delays.mean(axis=0)
    se = delays.std(axis=0) / math.sqrt(len(delays))
    assert np.all(np.abs(got - expect) <= 4 * se + 0.02)


# -- giant-cohort machinery --------------------------------------------------------

def test_min_erlang_quantile_matches_scipy_in_range():
    for d in [1, 3, 20, 100]:
        for q in [1e-3, 1e-9, 1e-40, 1e-200]:
            got = _min_erlang_quantile(d, math.log(q))
            expect = float(gammaincinv(d, q))
            assert got == pytest.approx(expect, rel=1e-6), (d, q)


def test_min_erlang_quantile_far_tail_consistent():
    # below float quantile range: check by evaluating the CDF at the result
    d = 50
    ln_q = -800.0
    t = _min_erlang_quantile(d, ln_q)
    ln_cdf = d * math.log(t) - t - math.lgamma(d + 1) - math.log1p(-t / (d + 1))
    assert ln_cdf == pytest.approx(ln_q, abs=1e-6)


def test_heavy_tail_with_cohort_cap_reaches_horizon():
    rec = simulate(FrogConfig(dist=LogPareto(0.5), right_horizon=128, seed=4,
                              cohort_cap=64))
    assert rec.stop_reason == "reached-horizon"
    assert rec.flags["racers"] >= 1
    assert rec.reached.all()


# -- regime diagnostic ---------------------------------------------------------------

def test_synthetic_linear_sequence():
    rep = regime_diagnostic([synth_record(np.arange(257, dtype=float))])
    assert rep.label == "linear-like"
    assert rep.slope == pytest.approx(math.log(2), abs=1e-9)


def test_synthetic_cauchy_sequence():
    theta = 2.0 - 2.0 ** (-np.arange(257, dtype=float))
    theta[0] = 0.0
    rep = regime_diagnostic([synth_record(theta)])
    assert rep.label == "explosive-like"


def test_constant_increment_sequence_is_indeterminate():
    theta = np.log1p(np.arange(257, dtype=float)) * 50  # log growth
    rep = regime_diagnostic([synth_record(theta)])
    assert rep.label == "indeterminate"


def test_diagnostic_excludes_unreached_records():
    theta = np.arange(257, dtype=float)
    partial = theta.copy()
    partial[200:] = np.nan
    rep = regime_diagnostic([synth_record(theta), synth_record(partial)])
    assert rep.excluded == 1
    assert len(rep.labels) == 1


def test_excluded_records_do_not_set_the_collapse_floor():
    # the excluded record's huge first-visit time at the base site would
    # raise the relative collapse floor above every increment of the
    # included linear record and flip its label to explosive-like
    theta = np.arange(257, dtype=float)
    partial = theta.copy()
    partial[8] = 1e300
    partial[200:] = np.nan
    rep = regime_diagnostic([synth_record(theta), synth_record(partial)])
    assert rep.excluded == 1
    assert rep.label == "linear-like"


def test_diagnostic_validates_horizon_factorization():
    with pytest.raises(ValueError):
        regime_diagnostic([synth_record(np.arange(100, dtype=float))], levels=5)
    with pytest.raises(ValueError):
        regime_diagnostic([synth_record(np.arange(257, dtype=float)),
                           synth_record(np.arange(129, dtype=float))])


def test_config_validation():
    with pytest.raises(ValueError):
        FrogConfig(dist=Dirac(1), right_horizon=0).validate()
    with pytest.raises(ValueError):
        FrogConfig(dist=Dirac(1), right_horizon=4, left_mode="sideways").validate()
    with pytest.raises(ValueError):
        FrogConfig(dist=Dirac(1), right_horizon=4, particle_cap=0).validate()
