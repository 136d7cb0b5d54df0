"""Unit tests for the benchmark's tail-percentile rule.

Run with ``python -m pytest perfbench/test_tails.py -q``.
"""

from __future__ import annotations

import random

import pytest

from tails import MIN_BEYOND, fixed_tail, median, percentile, rung, samples_beyond, tail


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 99.0) == 5.0
    assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0


def test_too_few_samples_have_no_tail():
    assert tail([1.0] * (2 * MIN_BEYOND - 1)) is None
    assert tail([]) is None


def test_p99_needs_about_a_thousand_samples():
    assert samples_beyond(1000, 99.0) == MIN_BEYOND
    assert samples_beyond(900, 99.0) < MIN_BEYOND
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(900)))[0] == 95.0


def test_reported_rung_has_enough_samples_beyond():
    for count in (20, 21, 40, 199, 200, 1000, 5000, 10_000):
        pct, value = tail([float(i) for i in range(count)])
        assert samples_beyond(count, pct) >= MIN_BEYOND
        assert sum(1 for i in range(count) if i > value) >= MIN_BEYOND


@pytest.mark.parametrize("min_count", [20, 1000])
def test_a_longer_sample_keeps_the_guaranteed_rung(min_count):
    pct = rung(min_count)
    for count in (min_count, 2 * min_count, 10 * min_count, 50 * min_count):
        values = [float(i) for i in range(count)]
        assert fixed_tail(values, min_count) == (pct, percentile(values, pct))
    # The free rule would have climbed the ladder as the sample grew.
    assert tail([0.0] * (50 * min_count))[0] > pct


def test_fixed_tail_needs_the_guaranteed_samples():
    with pytest.raises(ValueError):
        fixed_tail([1.0] * 999, 1000)
    with pytest.raises(ValueError):
        fixed_tail([1.0] * 30, 5)


@pytest.mark.parametrize("seed", range(20))
def test_tail_is_never_below_the_median(seed):
    rng = random.Random(seed)
    count = rng.choice((20, 37, 150, 1000, 2500))
    shape = rng.choice(("uniform", "lognormal", "bimodal"))
    if shape == "uniform":
        values = [rng.random() for _ in range(count)]
    elif shape == "lognormal":
        values = [rng.lognormvariate(0.0, 1.5) for _ in range(count)]
    else:
        values = [rng.choice((1.0, 100.0)) + rng.random() for _ in range(count)]
    pct, value = tail(values)
    assert pct >= 50.0
    assert value >= median(values)
    assert fixed_tail(values, 20)[1] >= median(values)
