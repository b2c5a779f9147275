import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogmodel.speed import NEG_INF, HorizonError, SpeedFunction


def speed_cases(horizon=200):
    return [
        SpeedFunction.constant(2.0, horizon),
        SpeedFunction.constant(0.5, horizon),
        SpeedFunction.power(1.0, horizon),
        SpeedFunction.power(2.0, horizon),
        SpeedFunction.power(0.5, horizon),
        SpeedFunction.log_increment(horizon),
        SpeedFunction.from_values(np.arange(1, horizon + 1) + 3.0),
    ]


def test_prefix_harmonic():
    s = SpeedFunction.power(1.0, horizon=10)
    assert s.prefix(3) == pytest.approx(11 / 6, abs=1e-14)


def test_prefix_zero_is_zero():
    for s in speed_cases(50):
        assert s.prefix(0) == 0.0


def test_prefix_constant_two():
    s = SpeedFunction.constant(2.0, horizon=10)
    assert s.prefix(4) == pytest.approx(2.0, abs=1e-15)


def test_segment_examples():
    s = SpeedFunction.power(1.0, horizon=10)
    assert s.segment(2, 2) == pytest.approx(7 / 12, abs=1e-14)
    assert s.segment(5, 0) == 0.0
    one = SpeedFunction.constant(1.0, horizon=10)
    assert one.segment(5, 3) == pytest.approx(3.0, abs=1e-15)


def test_log_threshold_small_cases():
    s = SpeedFunction.power(1.0, horizon=10)
    assert s.log_tail_threshold(0) == NEG_INF
    assert s.log_tail_threshold(1) == pytest.approx(0.0, abs=1e-12)
    assert s.log_tail_threshold(2) == pytest.approx(math.log(8 / 9), abs=1e-12)


def test_log_threshold_log_increment_closed_form():
    # prefix telescopes to ln(i+1), so the threshold is ln(i!) - i ln ln(i+1)
    s = SpeedFunction.log_increment(horizon=2000)
    for i in [1, 5, 50, 500, 2000]:
        expect = math.lgamma(i + 1) - i * math.log(math.log(i + 1))
        assert s.log_tail_threshold(i) == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_log_threshold_reads_the_speed_floored_at_identity():
    # 1/max(A(z), z): constant 2 contributes 1/2, 1/2, 1/3 over z = 1..3
    c = SpeedFunction.constant(2.0, horizon=5)
    assert c.log_tail_threshold(3) == pytest.approx(math.log(6) - 3 * math.log(4 / 3),
                                                    abs=1e-12)
    t = SpeedFunction.from_values([0.5, 5.0, 5.0])
    assert t.log_tail_threshold(1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda h: SpeedFunction.constant(2.0, h), lambda h: SpeedFunction.constant(300.0, h),
    lambda h: SpeedFunction.power(0.5, h), lambda h: SpeedFunction.power(1.0, h),
    lambda h: SpeedFunction.power(2.0, h), lambda h: SpeedFunction.log_increment(h)])
def test_closed_forms_past_the_table_match_a_longer_table(make):
    short, long = make(100), make(5000)
    i = np.array([1.0, 100.0, 101.0, 777.0, 5000.0])
    assert np.allclose(short.log_tail_threshold(i), long.log_tail_threshold(i),
                       rtol=1e-11, atol=1e-9)
    z = np.array([1.0, 99.0, 4321.0])
    assert np.allclose(short.log_value(z), np.log(long.value(z.astype(int))), rtol=1e-12)
    assert np.isfinite(short.log_tail_threshold(2.0 ** 1001))


def test_horizon_errors():
    s = SpeedFunction.constant(2.0, horizon=10)
    with pytest.raises(HorizonError):
        s.prefix(11)
    with pytest.raises(HorizonError):
        s.segment(5, 6)
    table = SpeedFunction.from_values(np.arange(1.0, 11.0))
    with pytest.raises(HorizonError):
        table.log_tail_threshold(11)
    with pytest.raises(HorizonError):
        table.log_value(11)


def test_construction_rejects_bad_tables():
    with pytest.raises(ValueError):
        SpeedFunction.from_values([1.0, 0.5])  # decreasing
    with pytest.raises(ValueError):
        SpeedFunction.from_values([0.0, 1.0])  # non-positive


def test_prefix_strictly_monotone():
    for s in speed_cases(2000):
        diffs = np.diff(s.prefix_arr)
        assert np.all(diffs > 0), s.family


@given(st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_telescoping_property(i, j):
    s = SpeedFunction.log_increment(horizon=400)
    if i + j > s.horizon:
        return
    lhs = s.segment(i, j)
    rhs = s.prefix(i + j) - s.prefix(i)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + s.prefix(i + j))


def test_log_increment_closed_form_prefix():
    s = SpeedFunction.log_increment(horizon=100_000)
    for i in [1, 10, 1000, 100_000]:
        assert abs(s.prefix(i) - math.log(i + 1)) <= 1e-9


def test_compensated_prefix_accuracy_at_large_horizon():
    s = SpeedFunction.constant(2.0, horizon=1_000_000)
    assert s.prefix(1_000_000) == pytest.approx(500_000.0, rel=1e-13)


def test_threshold_tail_sums_stay_bounded():
    # numeric version of the geometric-tail property of 1/threshold sums:
    # sup over j <= H/2 of (sum_{i>=j} 1/a_i) / (1/a_j) is small and stable
    s = SpeedFunction.log_increment(horizon=500)
    logs = np.array([s.log_tail_threshold(i) for i in range(1, 501)])
    inv = np.exp(-logs)
    tails = np.cumsum(inv[::-1])[::-1]
    sup = np.max(tails[:250] / inv[:250])
    assert sup < 10.0


def test_from_config_families(tmp_path):
    s = SpeedFunction.from_config({"family": "power", "alpha": 2.0}, horizon=10)
    assert s.value(3) == 9.0
    s = SpeedFunction.from_config({"family": "constant", "value": 4.0}, horizon=10)
    assert s.value(7) == 4.0
    path = tmp_path / "table.txt"
    np.savetxt(path, [1.0, 2.0, 7.0])
    s = SpeedFunction.from_config({"family": "table", "path": str(path)})
    assert s.horizon == 3 and s.value(3) == 7.0
    with pytest.raises(ValueError):
        SpeedFunction.from_config({"family": "nope"})


def test_values_are_read_only():
    s = SpeedFunction.power(1.0, horizon=10)
    with pytest.raises(ValueError):
        s.values_arr[0] = 5.0
