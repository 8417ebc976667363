"""Self-time arithmetic and tail-percentile selection."""

import pytest

from stats import MIN_BEYOND, latency_summary, rank, self_times, tail_percentile, typical_latencies


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        ("op", 0, 100, -1, 0),        # children cover 10..40 and 50..90
        ("a", 10, 40, 0, 0),          # child covers 20..30
        ("b", 20, 30, 1, 0),
        ("a", 50, 90, 0, 0),          # children overlap: 55..70 and 60..80
        ("c", 55, 70, 3, 0),
        ("c", 60, 80, 3, 0),
        ("op", 200, 210, -1, 1),      # leaf root
    ]
    assert self_times(spans) == {"op": 100 - 30 - 40 + 10, "a": (30 - 10) + (40 - 25), "b": 10, "c": 35}


def test_self_time_clips_children_to_the_parent_interval():
    spans = [("p", 0, 10, -1, 0), ("k", 5, 15, 0, 0)]
    assert self_times(spans)["p"] == 5


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (10**6, 99.0)],
)
def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - rank(n, expected) >= MIN_BEYOND


def test_latency_summary_reports_the_tail_value_and_count():
    summary = latency_summary(list(range(1000, 0, -1)))
    assert summary == {"n": 1000, "p50": 500, "tail_p": 99.0, "tail": 990}
    assert latency_summary([5, 1, 3]) == {"n": 3, "p50": 3, "tail_p": None, "tail": 3}


def test_typical_latency_is_each_operations_median_over_passes():
    passes = [[1, 10, 5], [2, 20, 4], [300, 900, 6]]   # the third pass ran in a slow stretch
    assert typical_latencies(passes) == [2, 20, 5]
    assert latency_summary(typical_latencies(passes * 7))["n"] == 3
