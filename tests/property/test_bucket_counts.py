"""Property tests for the one fixed-bucket cell, ``BucketCounts``.

Histograms, time-series windows and the population engine's per-window
cells all aggregate through it, so it is checked here against a naive
reference: bucket ``i`` holds the values in ``(bounds[i-1], bounds[i]]``,
the sum is a left-to-right float fold, and merging the cells of any
split equals one pass over the concatenation (the sharded == serial
contract).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.telemetry.metrics import DEFAULT_BUCKETS, BucketCounts, Histogram
from repro.telemetry.timeseries import TimeSeries

#: Every bound exactly, its float neighbours, 0, and anything up to inf.
VALUES = st.one_of(
    st.sampled_from(DEFAULT_BUCKETS + (0.0,)),
    st.sampled_from(DEFAULT_BUCKETS[:-1]).flatmap(
        lambda bound: st.sampled_from((math.nextafter(bound, 0.0),
                                       math.nextafter(bound, math.inf)))),
    st.floats(min_value=0.0, allow_nan=False),
    st.floats(min_value=1e300, allow_nan=False))
#: Multiples of 1/64 below 2^20: every float sum of these is exact.
EXACT_VALUES = st.integers(0, 1 << 26).map(lambda n: n / 64.0)


def reference(values):
    counts = [0] * len(DEFAULT_BUCKETS)
    for value in values:
        for index, bound in enumerate(DEFAULT_BUCKETS):
            lower = DEFAULT_BUCKETS[index - 1] if index else -math.inf
            if lower < value <= bound:
                counts[index] += 1
    total = 0.0
    for value in values:
        total += value
    return counts, total, len(values)


def fields(cell):
    return cell.counts, cell.total, cell.count


def one_pass(values):
    cell = BucketCounts()
    for value in values:
        cell.add(value)
    return cell


def merged(parts):
    cell = BucketCounts()
    for part in parts:
        cell.merge(one_pass(part))
    return cell


def split(values, cuts):
    edges = sorted({cut % (len(values) + 1) for cut in cuts})
    return [values[lo:hi]
            for lo, hi in zip([0] + edges, edges + [len(values)])]


@given(st.lists(VALUES, max_size=60))
@settings(max_examples=300, deadline=None)
def test_cell_matches_reference(values):
    assert fields(one_pass(values)) == reference(values)


@given(st.lists(VALUES))
@settings(max_examples=200, deadline=None)
def test_add_returns_the_bucket_it_counted(values):
    cell = BucketCounts()
    for value in values:
        before = list(cell.counts)
        index = cell.add(value)
        before[index] += 1
        assert cell.counts == before
        assert value <= DEFAULT_BUCKETS[index]
        assert index == 0 or value > DEFAULT_BUCKETS[index - 1]


@given(st.lists(VALUES, max_size=60),
       st.lists(st.integers(0, 60), max_size=5))
@settings(max_examples=300, deadline=None)
def test_merge_of_any_split_counts_like_one_pass(values, cuts):
    parts = split(values, cuts)
    whole, pieces = one_pass(values), merged(parts)
    assert (pieces.counts, pieces.count) == (whole.counts, whole.count)
    # The merged sum folds the part sums left to right.
    total = 0.0
    for part in parts:
        total += one_pass(part).total
    assert pieces.total == total


@given(st.lists(EXACT_VALUES, max_size=60),
       st.lists(st.integers(0, 60), max_size=5))
@settings(max_examples=300, deadline=None)
def test_merge_of_any_split_equals_one_pass_when_sums_are_exact(values,
                                                                  cuts):
    assert fields(merged(split(values, cuts))) == fields(one_pass(values))


@given(st.lists(VALUES, max_size=40))
@settings(max_examples=200, deadline=None)
def test_histogram_and_timeseries_bucket_alike(values):
    histogram = Histogram("h", "help")
    series = TimeSeries()
    for value in values:
        histogram.observe(value)
        series.observe("lat", 0.0, value)
    counts, _, _ = reference(values)
    assert [sample.counts for _, sample in histogram.samples()] == (
        [counts] if values else [])
    windows = [window for entry in series.to_dict()["series"]
               for window in entry["windows"]]
    assert [window["buckets"] for window in windows] == (
        [[["+Inf" if bound == math.inf else bound, count]
          for bound, count in zip(DEFAULT_BUCKETS, counts) if count]]
        if values else [])
