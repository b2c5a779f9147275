import math

import mpmath
import numpy as np
import pytest

from frogmodel import walks
from frogmodel.distributions import Dirac, Poisson
from frogmodel.rng import substream
from frogmodel.speed import SpeedFunction
from frogmodel.walks import estimate_reach_tail, reach_batch
from oracles import Trajectory, fast_reach, sample_trajectory

SIGMAS = 4.5  # two-sample tail comparisons: every |z| below this


def brute_force_reach(speed, x, trajectories, cap):
    """Independent oracle: scan every (k, epoch) pair against the defining
    constraint, with the same budget clamp at the cap."""
    best = 0
    for traj in trajectories:
        for t, pos in zip(traj.times, traj.positions):
            for k in range(1, cap + 1):
                s = min(int(pos), cap)
                if pos >= k and t <= speed.segment(x, s):
                    best = max(best, k)
    return min(best, cap)


def make_trajectory(times, steps):
    times = np.asarray(times, dtype=float)
    steps = np.asarray(steps, dtype=np.int64)
    return Trajectory(times, steps, np.cumsum(steps))


# -- trajectory generation -------------------------------------------------------

def test_first_interarrival_mean():
    g = substream(0, "tau")
    draws = np.array([sample_trajectory(g, max_jumps=1).times[0]
                      for _ in range(1_000_000)])
    assert draws.mean() == pytest.approx(1.0, abs=0.004)


def test_first_step_symmetry():
    g = substream(1, "step")
    ups = sum(sample_trajectory(g, max_jumps=1).steps[0] == 1
              for _ in range(1_000_000))
    assert ups / 1_000_000 == pytest.approx(0.5, abs=0.002)


def test_jump_count_is_poisson_rate():
    g = substream(2, "count")
    n = 200_000
    counts = np.array([sample_trajectory(g, max_time=2.0).times.size
                       for _ in range(n)])
    assert counts.mean() == pytest.approx(2.0, abs=3 * math.sqrt(2 / n) + 0.001)


def test_truncation_recorded():
    g = substream(3, "trunc")
    assert sample_trajectory(g, max_jumps=5).truncated_by == "max_jumps"
    assert sample_trajectory(g, max_time=0.5).truncated_by == "max_time"
    with pytest.raises(ValueError):
        sample_trajectory(g)


# -- fast reach -------------------------------------------------------------------

def test_reach_hand_example_unit_speed():
    s1 = SpeedFunction.constant(1.0, horizon=50)
    tr = make_trajectory([0.3, 0.8, 1.1], [1, 1, -1])
    res = fast_reach(s1, 0, [tr], cap=10)
    assert res.value == 2 and not res.saturated


def test_reach_hand_example_fast_speed():
    s10 = SpeedFunction.constant(10.0, horizon=50)
    tr = make_trajectory([0.3, 0.8, 1.1], [1, 1, -1])
    assert fast_reach(s10, 0, [tr], cap=10).value == 0


def test_reach_no_particles():
    s = SpeedFunction.constant(1.0, horizon=50)
    assert fast_reach(s, 0, [], cap=10).value == 0


def test_reach_saturation_flag():
    s = SpeedFunction.constant(1.0, horizon=50)
    tr = make_trajectory([0.1, 0.2, 0.3], [1, 1, 1])
    res = fast_reach(s, 0, [tr], cap=2)
    assert res.value == 2 and res.saturated


def test_reach_equals_bruteforce_on_random_trajectories():
    speeds = [SpeedFunction.constant(1.0, horizon=80),
              SpeedFunction.power(1.0, horizon=80),
              SpeedFunction.log_increment(horizon=80)]
    g = substream(4, "oracle")
    for rep in range(10_000):
        speed = speeds[rep % len(speeds)]
        x = rep % 5
        tr = sample_trajectory(g, max_jumps=1 + rep % 12)
        cap = 1 + rep % 8
        got = fast_reach(speed, x, [tr], cap=cap)
        expect = brute_force_reach(speed, x, [tr], cap)
        assert got.value == expect, (rep, speed.family)


def test_reach_monotone_in_speed():
    g = substream(5, "mono")
    slow = SpeedFunction.constant(1.0, horizon=60)
    fast = SpeedFunction.constant(3.0, horizon=60)
    for _ in range(500):
        trs = [sample_trajectory(g, max_jumps=10) for _ in range(2)]
        assert fast_reach(fast, 0, trs, cap=20).value \
            <= fast_reach(slow, 0, trs, cap=20).value


def test_reach_monotone_in_particles():
    g = substream(6, "mono2")
    s = SpeedFunction.constant(1.0, horizon=60)
    trs = [sample_trajectory(g, max_jumps=10) for _ in range(4)]
    vals = [fast_reach(s, 0, trs[:k], cap=20).value for k in range(5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_reach_batch_matches_object_path_in_distribution():
    # same statistic, two code paths: vectorized batch vs per-trajectory scan
    speed = SpeedFunction.power(1.0, horizon=200)
    cap = 6
    n = 60_000
    g = substream(7, "batch")
    batch_vals = reach_batch(speed, 1, np.ones(n, dtype=np.int64), g, cap=cap)
    g2 = substream(8, "obj")
    budget = speed.segment(1, cap)
    obj_vals = np.array([
        fast_reach(speed, 1, [sample_trajectory(g2, max_time=budget)], cap=cap).value
        for _ in range(n)])
    for k in range(cap + 1):
        p1 = np.mean(batch_vals >= k)
        p2 = np.mean(obj_vals >= k)
        se = math.sqrt(2 * max(p1 * (1 - p1), 1e-6) / n)
        assert abs(p1 - p2) <= 4 * se + 2e-3, k


def assert_same_tails(a, b, cap):
    """Pooled two-proportion z test of P{reach >= k}, k = 1..cap, at SIGMAS."""
    a, b = np.asarray(a).ravel(), np.asarray(b).ravel()
    for k in range(1, cap + 1):
        p1, p2 = np.mean(a >= k), np.mean(b >= k)
        pooled = (p1 * a.size + p2 * b.size) / (a.size + b.size)
        se = math.sqrt(pooled * (1 - pooled) * (1 / a.size + 1 / b.size))
        assert abs(p1 - p2) <= SIGMAS * se, (k, p1, p2)


# -- ladder-epoch kernel -----------------------------------------------------------

def central_tail(k: int):
    """C(2k, k) / 4^k = P{K >= k}, at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.gamma(k + mpmath.mpf(0.5)) / (mpmath.sqrt(mpmath.pi)
                                                    * mpmath.gamma(k + 1))


def test_ladder_k_pmf_is_catalan():
    n = 4_000_000
    k = walks._ladder_k(1.0 - substream(20, "k").random(n))
    for j in range(31):
        p = math.comb(2 * j, j) / (j + 1) / 2 ** (2 * j + 1)
        hits = np.count_nonzero(k == j)
        assert abs(hits - n * p) <= 5 * math.sqrt(n * p * (1 - p)), j


def test_ladder_k_deep_tail_inverts_exactly():
    edge = float(central_tail(walks._K_TABLE_SIZE))
    u = np.concatenate((edge * np.array([0.999, 0.9, 0.5, 0.1]),
                        np.geomspace(1e-3, 1e-7, 9), [3.3e-8]))
    for ui, k in zip(u, walks._ladder_k(u)):
        k = int(k)
        assert k >= walks._K_TABLE_SIZE
        assert central_tail(k) >= ui > central_tail(k + 1), (ui, k)


# -- exit law of (-r, r) -----------------------------------------------------------

def absorption_tail(r, size):
    """P(N > r + 2m), m < size, by stepping the walk's law on (-r, r)
    two jumps at a time (exact up to float rounding)."""
    p = np.zeros(2 * r + 1)
    p[r] = 1.0
    tail = np.empty(size)
    for m in range(size):
        for _ in range(r if m == 0 else 2):
            p[1:-1] = 0.5 * (p[:-2] + p[2:])
            p[0] = p[-1] = 0.0
        tail[m] = p.sum()
    return tail


@pytest.mark.parametrize("r", range(2, 33))
def test_exit_table_matches_absorption_dp(r):
    table = -np.asarray(walks._exit_tail(r))
    dp = absorption_tail(r, table.size)
    assert np.max(np.abs(table - dp)) <= 1e-12
    pmf = -np.diff(np.concatenate(([1.0], table)))
    dp_pmf = -np.diff(np.concatenate(([1.0], dp)))
    assert np.max(np.abs(pmf - dp_pmf)) <= 1e-12
    assert table[0] == pytest.approx(1.0 - 2.0 ** (1 - r), abs=1e-12)  # N = r: r equal steps
    assert np.all(np.diff(table) <= 0)
    assert table[-1] <= 2.0 ** -53 < table[-2]


def test_exit_jumps_inverts_the_table():
    r = 8
    table = -np.asarray(walks._exit_tail(r))
    for m in (0, 1, 17, table.size - 1):
        # P(N > r + 2m) = table[m]: u just below it asks for more jumps
        assert walks._exit_jumps(r, table[m]) == r + 2 * m
        assert walks._exit_jumps(r, np.nextafter(table[m], 0.0)) == r + 2 * (m + 1)
    assert walks._exit_jumps(r, 0.0) == r + 2 * table.size
    n = np.array([walks._exit_jumps(r, u) for u in substream(23, "exit").random(200_000)])
    assert np.all(n % 2 == 0) and n.min() >= r
    assert n.mean() == pytest.approx(r * r, abs=5 * n.std() / math.sqrt(n.size))


def oracle_reach(speed, x, counts, g, cap):
    budget = speed.segment(x, cap)
    return np.array([
        fast_reach(speed, x, [sample_trajectory(g, max_time=budget) for _ in range(c)],
                   cap=cap).value
        for c in counts])


@pytest.mark.parametrize("speed,x,cap,dist,n_oracle", [
    (SpeedFunction.constant(1.0, horizon=200), 0, 120, Dirac(1), 8_000),
    (SpeedFunction.power(1.0, horizon=100), 2, 12, Poisson(2.0), 40_000),
    (SpeedFunction.log_increment(horizon=100), 0, 30, Dirac(1), 40_000),
])
def test_ladder_kernel_matches_stepping_oracle(speed, x, cap, dist, n_oracle):
    g = substream(21, speed.family)
    kernel = reach_batch(speed, x, dist.sample(g, size=200_000), g, cap=cap)
    g2 = substream(22, speed.family)
    oracle = oracle_reach(speed, x, dist.sample(g2, size=n_oracle), g2, cap)
    assert_same_tails(kernel, oracle, cap)


def test_reach_batch_2d_counts_match_per_site_calls():
    speed = SpeedFunction.power(1.0, horizon=100)
    g = substream(23, "2d")
    counts = Poisson(1.5).sample(g, size=(5, 40_000))
    counts[3] = 0
    batched = reach_batch(speed, 2, counts, g, cap=12)
    assert batched.shape == counts.shape and not batched[3].any()
    for i in (0, 1, 2, 4):
        g2 = substream(24, "site", i)
        single = reach_batch(speed, 2 + i, Poisson(1.5).sample(g2, size=40_000), g2, cap=12)
        assert_same_tails(batched[i], single, 12)


def test_reach_batch_block_split_matches_unsplit(monkeypatch):
    # replicas of 250 walkers on average straddle blocks of 1000, and
    # some blocks straddle two sites
    speed = SpeedFunction.constant(1.0, horizon=100)
    counts = Poisson(250.0).sample(substream(25, "c"), size=(3, 2_000))
    whole = reach_batch(speed, 0, counts, substream(26, "whole"), cap=20)
    monkeypatch.setattr(walks, "REACH_BLOCK", 1000)
    split = reach_batch(speed, 0, counts, substream(27, "split"), cap=20)
    for i in range(3):
        assert_same_tails(whole[i], split[i], 20)


# -- tail estimation ---------------------------------------------------------------

def test_estimate_zero_for_no_particles():
    s = SpeedFunction.constant(1.0, horizon=60)
    est = estimate_reach_tail(s, 0, 1, Dirac(0), 2000, substream(9, "z"), cap=10)
    assert est.p == 0.0


def test_estimate_refuses_j_at_cap():
    s = SpeedFunction.constant(1.0, horizon=60)
    with pytest.raises(ValueError):
        estimate_reach_tail(s, 0, 10, Dirac(1), 100, substream(10, "cap"), cap=10)


def test_estimate_thresholds_share_one_sample():
    # each threshold reads exactly what a call with it alone draws
    s = SpeedFunction.power(1.0, horizon=100)
    js = [4, 0, 2, 2, 7]
    many = estimate_reach_tail(s, 3, js, Poisson(2.0), 3000, substream(14, "js"),
                               cap=8, traj_cap=3)
    assert many.truncated_draws > 0
    for k, j in enumerate(js):
        one = estimate_reach_tail(s, 3, j, Poisson(2.0), 3000, substream(14, "js"),
                                  cap=8, traj_cap=3)
        assert type(one.p) is float and type(one.stderr) is float and one.j == j
        assert many.p[k] == one.p and many.stderr[k] == one.stderr
        assert many.truncated_draws == one.truncated_draws
    assert np.all(np.diff(many.p[[1, 2, 0, 4]]) <= 0)


@pytest.mark.parametrize("js", [[], [3], [1, 2, 5]])
def test_estimate_shapes_follow_j(js):
    s = SpeedFunction.constant(1.0, horizon=60)
    est = estimate_reach_tail(s, 0, js, Dirac(1), 50, substream(15, "shape"), cap=10)
    assert est.p.shape == est.stderr.shape == np.shape(js)
    with pytest.raises(ValueError):
        estimate_reach_tail(s, 0, js + [10], Dirac(1), 50, substream(15, "cap"), cap=10)


def test_estimate_site_monotone_in_distribution():
    # larger sites face tighter budgets, so tails can only fall
    s = SpeedFunction.power(1.0, horizon=100)
    n = 40_000
    est1 = estimate_reach_tail(s, 1, 2, Poisson(1.0), n, substream(11, "s1"), cap=8)
    est2 = estimate_reach_tail(s, 4, 2, Poisson(1.0), n, substream(11, "s2"), cap=8)
    pooled = math.hypot(est1.stderr, est2.stderr)
    assert est2.p <= est1.p + 3 * pooled


def test_estimate_matches_bruteforce_binomial():
    s = SpeedFunction.constant(1.0, horizon=60)
    n = 50_000
    est = estimate_reach_tail(s, 0, 0, Dirac(1), n, substream(12, "bf"), cap=8)
    # oracle estimate from independently generated trajectories
    g = substream(13, "bf2")
    budget = s.segment(0, 8)
    hits = sum(
        brute_force_reach(s, 0, [sample_trajectory(g, max_time=budget)], 8) > 0
        for _ in range(20_000))
    p_oracle = hits / 20_000
    assert abs(est.p - p_oracle) <= 4 * math.hypot(est.stderr,
                                                   math.sqrt(p_oracle * (1 - p_oracle) / 20_000))
