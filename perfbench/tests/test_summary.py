"""The percentile-with-sample-count rule and the spread statistic."""

import pytest

from perfbench.summary import percentile, quartile_spread, tail_percentile, timing_summary


@pytest.mark.parametrize(
    "samples, expected",
    [
        (1, None),
        (12, None),
        (99, None),  # p90 would leave only 9 samples beyond it
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([5.0], 50) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_timing_summary_states_the_sample_count():
    assert timing_summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    summary = timing_summary([float(v) for v in range(1, 101)])
    assert summary == {"n": 100, "p50": 50.5, "p90": 90.0}


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0] * 5) == 0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)
