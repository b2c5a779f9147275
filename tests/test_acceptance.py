"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact-oracle criteria are deterministic; statistical criteria use the
stated replica counts and 3-sigma margins.  Run with -s to see the lines.
"""
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from frogmodel.bounds import (reach_floor, reach_floor_coarse, reach_floor_gate,
                              reach_lower_bound, reach_tail_lower,
                              reach_upper_chain)
from frogmodel.cli import run
from frogmodel.conditions import (VERDICT_CONV, VERDICT_DIV, check_explosion,
                                  check_nonexplosion)
from frogmodel.distributions import Dirac, Geometric, LogPareto, Poisson, YLogY
from frogmodel.frogsim import (ActivationRecord, FrogConfig, regime_diagnostic,
                               simulate)
from frogmodel.rng import substream
from frogmodel.speed import SpeedFunction
from frogmodel.tadibp import (connected_to_horizon,
                              dry_frequency, dry_probability,
                              no_overshoot_frequency, overshoot_sequence,
                              percolation_sequence, sample_grain_fields)
from frogmodel.walks import estimate_reach_tail
from oracles import chain_connected, fast_reach, sample_trajectory

SEED = 20240817


def report(line):
    print(f"\nACCEPTANCE {line}")


# -- 1. exact-oracle suites ------------------------------------------------------

def test_criterion_1a_overshoot_recursion_exact():
    g = substream(SEED, "c1a")
    for _ in range(10_000):
        lengths = g.integers(0, 6, size=51)
        brute = np.array([max(lengths[z] - (m - z) for z in range(m + 1))
                          for m in range(51)])
        assert np.array_equal(overshoot_sequence(lengths), brute)
    report("1a overshoot recursion == brute-force definition "
           "(10^4 fields, H=50): PASS")


def test_criterion_1b_connectivity_oracle_exhaustive():
    h = 8
    for lengths in itertools.product(range(3), repeat=h + 1):
        lengths = np.asarray(lengths, dtype=np.int64)
        for x in range(h + 1):
            assert connected_to_horizon(x, lengths) == \
                chain_connected(x, h, lengths)
    report("1b horizon connectivity == chain oracle (exhaustive 3^9): PASS")


def test_criterion_1c_percolation_sequence_postconditions():
    g = substream(SEED, "c1c")
    done = 0
    while done < 1000:
        lengths = g.integers(0, 4, size=60)
        x = int(g.integers(0, 8))
        if not connected_to_horizon(x, lengths):
            continue
        seq = percolation_sequence(lengths, x)
        done += 1
        reaches = seq + lengths[seq]
        assert seq[0] <= x
        if seq.size >= 2:
            assert x < seq[1]
            assert np.all(seq[1:] <= reaches[:-1])
        if seq.size >= 3:
            assert np.all(reaches[:-2] < seq[2:])
        last = int(reaches.max())
        cover = np.zeros(last + 1, dtype=int)
        for s, r in zip(seq, reaches):
            cover[s:r + 1] += 1
        assert np.all(cover[x:] >= 1) and np.all(cover[x:] <= 2)
    report("1c percolation-sequence interleaving and <=2-cover "
           "(10^3 percolating fields): PASS")


def test_criterion_1d_reach_epoch_scan_exact():
    speeds = [SpeedFunction.constant(1.0, horizon=80),
              SpeedFunction.power(1.0, horizon=80)]
    g = substream(SEED, "c1d")
    for rep in range(10_000):
        speed = speeds[rep % 2]
        x = rep % 4
        cap = 1 + rep % 8
        traj = sample_trajectory(g, max_jumps=1 + rep % 12)
        got = fast_reach(speed, x, [traj], cap=cap).value
        brute = 0
        for t, pos in zip(traj.times, traj.positions):
            for k in range(1, cap + 1):
                if pos >= k and t <= speed.segment(x, min(int(pos), cap)):
                    brute = max(brute, k)
        assert got == min(brute, cap)
    report("1d fast reach == epoch-scan brute force (10^4 trajectories): PASS")


# -- 2. dry-probability product vs MC ---------------------------------------------

def test_criterion_2_dry_formula_vs_mc():
    speed = SpeedFunction.power(1.0, horizon=64)
    cap = 16
    n_fields = 10_000
    reach_reps = 100_000
    for dist_name, dist in [("dirac1", Dirac(1)), ("poisson1", Poisson(1.0))]:
        fields = sample_grain_fields(speed, dist, 14,
                                     substream(SEED, "c2f", dist_name),
                                     n_fields=n_fields, cap=cap)
        lengths = np.stack([f.lengths for f in fields])
        for m in [2, 5, 10, 15]:
            r = np.empty(m)
            var = np.empty(m)
            for i in range(m):
                est = estimate_reach_tail(speed, i, m - i, dist, reach_reps,
                                          substream(SEED, "c2r", dist_name, m, i),
                                          cap=cap)
                r[i], var[i] = est.p, est.stderr ** 2
            formula = dry_probability(m, r)
            se_f = formula * math.sqrt(float(np.sum(
                var / np.maximum((1 - r) ** 2, 1e-30))))
            freq = no_overshoot_frequency(lengths, m)
            se_e = math.sqrt(max(freq * (1 - freq), 1e-9) / n_fields)
            combined = math.hypot(se_f, se_e)
            assert abs(formula - freq) <= 3 * combined, (dist_name, m)
    report("2 dry product formula matches its field-event frequency within "
           "3 combined sigma (m in {2,5,10,15}; point-mass and Poisson): PASS")


# -- 3. bound sandwich --------------------------------------------------------------

def test_criterion_3_bound_sandwich():
    speeds = {"A=2": SpeedFunction.constant(2.0, horizon=512),
              "A=z+1": SpeedFunction.from_values(np.arange(1, 513) + 1.0)}
    walks = 100_000
    for name, speed in speeds.items():
        for i in range(0, 6):
            for j in range(1, 6):
                est = estimate_reach_tail(speed, i, j - 1, Dirac(1), walks,
                                          substream(SEED, "c3", name, i, j),
                                          cap=j + 40)
                margin = 3 * est.stderr
                low = reach_lower_bound(j - 1, i, speed)
                chain = reach_upper_chain(i, j, speed)
                assert low - margin <= est.p, (name, i, j)
                assert est.p <= chain.value + margin, (name, i, j)
    report("3 straight-run lower bound <= MC <= Poisson chain on the "
           "(i<=5, j<=5) grid for A=2 and A=z+1 at 10^5 walks: PASS")


# -- 4. deterministic floor ordering -------------------------------------------------

def test_criterion_4_floor_ordering_exact():
    speed = SpeedFunction.from_values(np.arange(1, 2002) + 1.0)
    checked = 0
    for m in range(1, 1500):
        if not reach_floor_gate(m, speed):
            continue
        for i in range(0, m + 1, max(1, (m + 1) // 4)):
            assert reach_floor_coarse(i, m, speed) <= reach_floor(i, m, speed)
            checked += 1
        if checked >= 1000:
            break
    assert checked >= 1000
    report("4 coarse reach floor <= fine reach floor wherever the gate holds "
           "(10^3-point grid, exact): PASS")


# -- 5. reach-tail lower bound validity ----------------------------------------------

def test_criterion_5_reach_tail_lower_vs_mc():
    speed = SpeedFunction.from_values(np.arange(1, 513) + 1.0)
    replicas = 20_000
    dists = [("dirac1", Dirac(1)), ("poisson1", Poisson(1.0)),
             ("geom05", Geometric(0.5))]
    for name, dist in dists:
        for m in range(1, 31):
            for i in range(0, min(m, 10) + 1):
                bound = reach_tail_lower(i, m, dist, speed)
                est = estimate_reach_tail(speed, m - i, i, dist, replicas,
                                          substream(SEED, "c5", name, m, i),
                                          cap=i + 40)
                assert est.p >= bound - 3 * est.stderr, (name, m, i)
    report("5 MC reach tails dominate the closed lower bound on the "
           "(i<=10, m<=30) grid for three count laws: PASS")


# -- 6. condition-checker calibration -------------------------------------------------

def test_criterion_6_condition_checker_calibration():
    explosion = check_explosion(LogPareto(0.5),
                                SpeedFunction.power(2.0, horizon=65536), rho=2.0)
    assert explosion.verdict == "explosion-consistent"
    nonexpl = check_nonexplosion(YLogY(1.0),
                                 SpeedFunction.log_increment(horizon=65536))
    assert nonexpl.verdict == "nonexplosion-consistent"
    dirac = check_explosion(Dirac(1), SpeedFunction.power(2.0, horizon=65536),
                            rho=2.0)
    assert dirac.verdict == "explosion-inconsistent"
    assert dirac.parts["product_series"].verdict == VERDICT_DIV
    report("6 checker labels: heavy log-Pareto counts explosion-consistent, "
           "exp(YlnY) counts nonexplosion-consistent, point mass fails: PASS")


# -- 7. regime separation ---------------------------------------------------------------

def test_criterion_7_regime_separation():
    n_reps = 50
    linear_recs = []
    for rep in range(n_reps):
        seed = int(substream(SEED, "c7lin", rep).integers(1 << 62))
        linear_recs.append(simulate(FrogConfig(dist=Dirac(1), right_horizon=256,
                                               seed=seed)))
    rep_lin = regime_diagnostic(linear_recs)
    agree_lin = np.mean([lab == "linear-like" for lab in rep_lin.labels])
    assert rep_lin.excluded == 0
    assert agree_lin >= 0.9, rep_lin.labels

    heavy_recs = []
    for rep in range(n_reps):
        seed = int(substream(SEED, "c7lp", rep).integers(1 << 62))
        heavy_recs.append(simulate(FrogConfig(dist=LogPareto(0.5),
                                              right_horizon=256, seed=seed,
                                              cohort_cap=64)))
    rep_lp = regime_diagnostic(heavy_recs)
    agree_lp = np.mean([lab == "explosive-like" for lab in rep_lp.labels])
    assert rep_lp.excluded == 0
    assert agree_lp >= 0.9, rep_lp.labels

    # synthetic oracles classified correctly with probability one
    lin = np.arange(257, dtype=float)
    cau = 2.0 - 2.0 ** (-np.arange(257, dtype=float))
    cau[0] = 0.0
    mk = lambda th: ActivationRecord(theta=th, counts=np.zeros(1),
                                     count_logs=np.zeros(1), window_lo=0)
    assert regime_diagnostic([mk(lin)]).label == "linear-like"
    assert regime_diagnostic([mk(cau)]).label == "explosive-like"
    report(f"7 dyadic-slope labels at R=256, 50 replicas: point mass "
           f"linear-like ({agree_lin:.0%}), heavy tail explosive-like "
           f"({agree_lp:.0%}), synthetic oracles exact: PASS")


# -- 8. non-vanishing dry mass ------------------------------------------------------------

def test_criterion_8_dry_mass_lower_bound():
    speed = SpeedFunction.log_increment(horizon=256)
    dist = YLogY(1.0)
    n_fields = 800
    cap = 96
    fields = sample_grain_fields(speed, dist, 79, substream(SEED, "c8"),
                                 n_fields=n_fields, cap=cap, traj_cap=5000)
    lengths = np.stack([f.lengths for f in fields])
    freqs = {}
    for m in [10, 20, 40, 80]:
        p = dry_frequency(lengths, m)
        lcb = p - 3 * math.sqrt(max(p * (1 - p), 1e-9) / n_fields)
        freqs[m] = (p, lcb)
        assert lcb > 0.01, (m, p)
    report("8 empirical dry mass at m in {10,20,40,80} stays above 0.01 "
           f"(freqs {sorted((m, round(p, 3)) for m, (p, _) in freqs.items())}): PASS")


# -- 9. reproducibility -------------------------------------------------------------------

def test_criterion_9_byte_reproducibility(tmp_path):
    cases = {
        "sim-frog": {"dist": {"family": "poisson", "lam": 1.0},
                     "right_horizon": 32, "replicas": 2, "seed": 12},
        "ell-tail": {"dist": {"family": "dirac", "k": 1},
                     "speed": {"family": "constant", "value": 2.0},
                     "x": [0, 1], "j": [1], "replicas": 3000, "seed": 12},
        "sweep": {"dists": [{"family": "dirac", "k": 1}],
                  "right_horizons": [32], "replicas": 2, "levels": 3,
                  "seed": 12},
    }
    for name, payload in cases.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            assert run([name, "--config", str(cfg), "--output", str(out)]) == 0
            outs.append(out)
        csv_a = (outs[0] / f"{name}.csv").read_bytes()
        csv_b = (outs[1] / f"{name}.csv").read_bytes()
        assert csv_a == csv_b, name
        meta = []
        for out in outs:
            m = json.loads((out / f"{name}_meta.json").read_text())
            m.pop("wall_clock_s")
            meta.append(m)
        assert meta[0] == meta[1], name
    report("9 identical config+seed reruns are byte-identical "
           "(CSV exact, sidecar equal minus wall clock): PASS")
