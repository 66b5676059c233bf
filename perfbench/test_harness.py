"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench/test_harness.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import stats  # noqa: E402


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 99) == 99
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile(reversed(xs), 50) == 50


def test_op_percentile_sum_takes_each_operation_apart():
    rounds = [[1.0, 10.0], [2.0, 30.0], [3.0, 20.0]] + [[2.5, 25.0]] * 7
    # per operation: nearest-rank p90 of 10 samples is the 9th smallest
    assert stats.op_percentile_sum(rounds, 90) == pytest.approx(2.5 + 25.0)
    assert stats.op_percentile_sum(rounds[:3], 90) == pytest.approx(3.0 + 30.0)
    assert stats.op_percentile_sum([[4.0, 5.0]], 90) == pytest.approx(9.0)


def test_p99_needs_ten_samples_beyond():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.reportable(1000, 99)
    assert not stats.reportable(999, 99)
    assert stats.reportable(20, 50)
    assert not stats.reportable(19, 50)


def test_quartiles_and_spread_match_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 10.1]
    q1, med, q3 = stats.quartiles(vals)
    assert q1 < med < q3
    assert stats.spread(vals) == pytest.approx((q3 - q1) / med)
    assert stats.spread([5.0] * 10) == 0.0


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 2.0, 3.0, 1),
        ("b", 5.0, 6.5, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_merges_overlapping_children_and_clips():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 4.0, 6.0, 0),   # overlaps a: covered is [1, 6]
        ("c", 9.0, 12.0, 0),  # runs past its parent: clipped to [9, 10]
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tally_whole_rounds_keep_the_failed_share():
    tally = stats.Tally()
    for _ in range(3):
        tally.add_round(40, {"op7": "PoleError"})
    assert (tally.attempted, tally.failed) == (120, 3)
    assert tally.failed / tally.attempted == 1 / 40
    with pytest.raises(ValueError):
        tally.add_round(39, {"op7": "PoleError"})
    with pytest.raises(ValueError):
        tally.add_round(40, {"op8": "PoleError"})


def test_rotation_keeps_the_inputs():
    items = list(range(7))
    for seed in (0, 3, 7, 12345):
        rot = inputs.rotate(items, seed)
        assert sorted(rot) == items
        assert rot[0] == seed % 7


def test_lattice_is_deterministic_and_in_range():
    a = inputs.lattice(50, (-2.5, 0.0), (-40.0, 40.0))
    assert a == inputs.lattice(50, (-2.5, 0.0), (-40.0, 40.0))
    assert all(-2.5 <= z.real < 0.0 and -40.0 <= z.imag < 40.0 for z in a)


def test_prime_characters_are_characters():
    for p, label in (inputs.CHI5, inputs.CHI7, inputs.CHI229, inputs.CHIM23):
        exps, order = inputs.prime_character(p, label)
        for a in range(1, p):
            for b in range(1, p, 7):
                assert (exps[a] + exps[b]) % order == exps[a * b % p]
    assert inputs.prime_character(*inputs.CHI5)[1] == 2
    assert inputs.prime_character(*inputs.CHI7)[1] == 6
    assert inputs.odd_labels(23) == list(range(0, 21, 2))
