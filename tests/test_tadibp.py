import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogmodel.distributions import Dirac, Poisson
from frogmodel.rng import substream
from frogmodel.speed import SpeedFunction
from frogmodel.tadibp import (connected_to_horizon, dry_frequency, dry_probability,
                              no_overshoot_frequency, overshoot_sequence,
                              percolation_sequence, percolation_series,
                              sample_grain_fields, wet_mask)
from oracles import chain_connected


def brute_force_overshoot(lengths):
    """Definitional maximum: Y[m] = max over z <= m of length_z - (m - z)."""
    n = len(lengths)
    return np.array([max(lengths[z] - (m - z) for z in range(m + 1))
                     for m in range(n)])


# -- overshoot recursion ---------------------------------------------------------

def test_overshoot_hand_examples():
    assert list(overshoot_sequence(np.array([2, 0, 1, 0]))) == [2, 1, 1, 0]
    assert list(overshoot_sequence(np.zeros(5, dtype=int))) == [0] * 5
    assert list(overshoot_sequence(np.array([5, 0, 0, 0]))) == [5, 4, 3, 2]


def test_overshoot_matches_definition_on_random_fields():
    g = substream(0, "fields")
    for _ in range(10_000):
        lengths = g.integers(0, 6, size=51)
        got = overshoot_sequence(lengths)
        assert np.array_equal(got, brute_force_overshoot(lengths))


@given(st.lists(st.integers(0, 8), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_overshoot_recursion_inequality(lengths):
    y = overshoot_sequence(np.array(lengths, dtype=np.int64))
    assert np.all(y >= 0)
    assert np.all(y[1:] >= y[:-1] - 1)


# -- wet / dry -------------------------------------------------------------------

def test_wet_hand_examples():
    assert list(wet_mask(np.array([2, 0, 1, 0]))) == [True, True, True, True]
    assert list(wet_mask(np.array([2, 0, 1, 0, 0]))) == [True, True, True, True,
                                                         False]
    assert list(wet_mask(np.zeros(4, dtype=int))) == [True, False, False, False]
    full = np.zeros(6, dtype=int)
    full[0] = 5
    assert wet_mask(full).all()


def test_wet_equals_left_reach_exhaustively():
    g = substream(1, "wet")
    for _ in range(10_000):
        lengths = g.integers(0, 5, size=51)
        wet = wet_mask(lengths)
        for m in range(1, 51):
            reach = any(y + lengths[y] >= m for y in range(m))
            assert wet[m] == reach


# -- connectivity ----------------------------------------------------------------

def test_connected_hand_examples():
    assert connected_to_horizon(0, np.full(10, 2))
    field = np.zeros(10, dtype=int)
    field[:4] = [2, 0, 1, 0]
    for x in range(4):
        assert not connected_to_horizon(x, field)
    top = np.zeros(10, dtype=int)
    top[0] = 9
    assert connected_to_horizon(0, top)


def test_chain_hand_examples():
    assert chain_connected(2, 2, np.array([0, 0, 0]))
    assert chain_connected(0, 3, np.array([2, 0, 1, 0]))
    assert not chain_connected(0, 2, np.array([1, 0, 0]))


def test_chain_oracle_guard():
    with pytest.raises(ValueError):
        chain_connected(0, 70, np.zeros(80, dtype=int))


def test_connected_agrees_with_chain_exhaustively():
    # every field over {0,1,2}^9: horizon proxy vs verbatim chain search
    h = 8
    for lengths in itertools.product(range(3), repeat=h + 1):
        lengths = np.array(lengths, dtype=np.int64)
        for x in range(h + 1):
            got = connected_to_horizon(x, lengths)
            expect = chain_connected(x, h, lengths)
            assert got == expect, (lengths, x)


def test_connected_agrees_with_chain_random_h20():
    g = substream(2, "conn")
    for _ in range(2000):
        lengths = g.integers(0, 4, size=21)
        x = int(g.integers(0, 21))
        assert connected_to_horizon(x, lengths) == chain_connected(x, 20, lengths)


# -- percolation sequence ---------------------------------------------------------

def test_percolation_sequence_hand_examples():
    field = np.array([3, 1, 2, 0, 2, 1, 1, 1, 1])
    assert list(percolation_sequence(field, 0))[:3] == [0, 2, 4]
    ones = np.ones(8, dtype=int)
    assert list(percolation_sequence(ones, 0)) == list(range(8))
    twos = np.full(9, 2, dtype=int)
    assert list(percolation_sequence(twos, 0)) == [0, 2, 4, 6, 8]


def test_percolation_sequence_refusal_names_first_gap():
    field = np.array([2, 0, 1, 0, 1, 1])
    with pytest.raises(ValueError, match="m = 3"):
        percolation_sequence(field, 0)


def test_percolation_sequence_postconditions_on_random_fields():
    g = substream(3, "perc")
    done = 0
    while done < 1000:
        lengths = g.integers(0, 4, size=60)
        x = int(g.integers(0, 8))
        if not connected_to_horizon(x, lengths):
            continue
        seq = percolation_sequence(lengths, x)
        done += 1
        reaches = seq + lengths[seq]
        # interleaving: each germ lands inside the previous grain, and the
        # grain after next starts past it
        assert np.all(seq[1:] <= reaches[:-1])
        if seq.size >= 3:
            assert np.all(reaches[:-2] < seq[2:])
        # coverage of [x, last reach] with multiplicity at most 2
        last = int(reaches.max())
        cover = np.zeros(last + 1, dtype=int)
        for s, r in zip(seq, reaches):
            cover[s:r + 1] += 1
        assert np.all(cover[x:last + 1] >= 1)
        assert np.all(cover[x:last + 1] <= 2)


# -- dry probability --------------------------------------------------------------

def test_dry_probability_hand_values():
    assert dry_probability(1, [0.25]) == pytest.approx(0.75, abs=1e-15)
    assert dry_probability(3, [0.0, 0.0, 0.0]) == 1.0
    assert dry_probability(2, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)
    assert dry_probability(2, [1.0, 0.3]) == 0.0


def test_dry_probability_validates():
    with pytest.raises(ValueError):
        dry_probability(2, [0.5])
    with pytest.raises(ValueError):
        dry_probability(1, [1.5])


@given(st.lists(st.floats(0, 0.999), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_dry_probability_matches_direct_product(r):
    direct = float(np.prod([1 - v for v in r]))
    assert dry_probability(len(r), r) == pytest.approx(direct, rel=1e-12)


def test_percolation_series_with_zero_lengths_grows_linearly():
    sums = percolation_series(lambda site, overshoot: 0.0, 50)
    assert np.allclose(sums, np.arange(1, 51))


def test_percolation_series_definition_small():
    def tail(site, overshoot):
        return 0.5 if overshoot < 2 else 0.0

    sums = percolation_series(tail, 3)
    # term m: product over i=0..m of (1 - tail(m-i, i))
    t1 = 0.5 * 0.5
    t2 = 0.5 * 0.5 * 1.0
    t3 = 0.5 * 0.5 * 1.0 * 1.0
    assert sums == pytest.approx([t1, t1 + t2, t1 + t2 + t3], rel=1e-12)


# -- field sampling ----------------------------------------------------------------

def test_sampled_field_zero_counts_gives_zero_lengths():
    speed = SpeedFunction.power(1.0, horizon=100)
    psi = sample_grain_fields(speed, Dirac(0), 20, substream(4, "f0"), cap=16)[0]
    assert psi.lengths.sum() == 0
    assert psi.provenance == "sampled-from-reach"


def test_sampled_field_sites_independent():
    speed = SpeedFunction.power(1.0, horizon=100)
    fields = sample_grain_fields(speed, Poisson(1.0), 1, substream(5, "ind"),
                                 n_fields=10_000, cap=16)
    lengths = np.stack([f.lengths for f in fields]).astype(float)
    a, b = lengths[:, 0], lengths[:, 1]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(len(a))


def test_sampled_field_enormous_speed_kills_reach():
    speed = SpeedFunction.from_values(np.full(120, 1e9))
    fields = sample_grain_fields(speed, Dirac(1), 20, substream(6, "big"),
                                 n_fields=500, cap=16)
    lengths = np.stack([f.lengths for f in fields])
    assert lengths.mean() < 1e-3


def test_event_frequency_helpers():
    lengths = np.array([[2, 0, 1], [0, 0, 0], [3, 2, 0], [1, 1, 1]])
    # no-overshoot at m=2: lengths[0] <= 2 and lengths[1] <= 1
    expect_no = np.mean((lengths[:, 0] <= 2) & (lengths[:, 1] <= 1))
    assert no_overshoot_frequency(lengths, 2) == expect_no
    # classical dry at m=2: lengths[0] <= 1 and lengths[1] == 0
    expect_dry = np.mean((lengths[:, 0] <= 1) & (lengths[:, 1] == 0))
    assert dry_frequency(lengths, 2) == expect_dry
