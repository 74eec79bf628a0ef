"""Tests of the pure summary in tools/bench_pairs.py (the gain rule)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [5.0, 5.2, 4.8, 5.1, 4.9, 5.3, 4.7, 5.0, 5.2, 4.8]


def test_clear_gain():
    change = [v - 1.3 for v in PARENT]
    s = summarize(PARENT, change, "lower")
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (10, 0, 0, 10)
    assert s["parent"]["median"] == 5.0
    assert s["change"]["median"] == pytest.approx(3.7)
    assert s["median_gap"] == pytest.approx(1.3)
    # inclusive quartiles of PARENT: 4.825 and 5.175
    assert s["parent_iqr"] == pytest.approx(0.35)
    assert s["relative_change"] == pytest.approx(-0.26)
    assert s["gain"]


def test_eight_wins_of_ten_is_no_gain():
    change = [v - 1.3 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]]
    s = summarize(PARENT, change, "lower")
    assert (s["wins"], s["losses"]) == (8, 2)
    assert not s["gain"]


def test_gap_within_parent_iqr_is_no_gain():
    change = [v - 0.2 for v in PARENT]
    s = summarize(PARENT, change, "lower")
    assert s["wins"] == 10
    assert s["median_gap"] < s["parent_iqr"]
    assert not s["gain"]


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] -= 1.0
    s = summarize(PARENT, change, "lower")
    assert (s["wins"], s["losses"], s["ties"]) == (1, 0, 9)


def test_higher_is_better_flips_the_sign():
    change = [v + 1.3 for v in PARENT]
    s = summarize(PARENT, change, "higher")
    assert s["wins"] == 10
    assert s["median_gap"] == pytest.approx(1.3)
    assert s["gain"]
    assert summarize(PARENT, change, "lower")["losses"] == 10


def test_single_pair_and_bad_input():
    s = summarize([2.0], [1.0], "lower")
    assert s["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert s["wins"] == 1
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "faster")
