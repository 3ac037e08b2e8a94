"""The paired-benchmark summary of tools/bench_pairs.py on synthetic runs:
seed lists, per-metric comparison, the claim rule and the regression
verdict."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
from bench_pairs import (  # noqa: E402
    claim_verdict, compare, regression_verdict, seed_list)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _shifted(values, by):
    return [v + by for v in values]


@pytest.mark.parametrize("text, seeds", [
    ("301-305", [301, 302, 303, 304, 305]), ("1,4,9", [1, 4, 9]),
    ("7", [7]), ("12-12", [12])])
def test_seed_list(text, seeds):
    assert seed_list(text) == seeds


class TestCompare:
    def test_wins_ties_and_quartiles(self):
        change = [0.9, 1.0, 1.1, 0.8]
        row = compare("lower", 0.2, [1.0, 1.0, 1.0, 1.0], change)
        assert (row["change_wins"], row["ties"], row["pairs"]) == (2, 1, 4)
        assert row["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
        assert row["change"]["median"] == pytest.approx(0.95)
        assert row["change"]["q1"] == pytest.approx(0.875)
        assert row["change"]["q3"] == pytest.approx(1.025)
        assert row["median_ratio_change_over_parent"] == pytest.approx(0.95)
        assert row["verdict"] == "ok"

    def test_higher_is_better_counts_rises_as_wins(self):
        row = compare("higher", 0.2, [1.0, 2.0, 3.0], [1.5, 1.0, 3.0])
        assert (row["change_wins"], row["ties"]) == (1, 1)


class TestClaimVerdict:
    def _claim(self, parent, change):
        return claim_verdict("w", "wall_s", compare("lower", 0.2, parent,
                                                    change))

    def test_met_on_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        change = _shifted(PARENT, -0.1)
        change[0] = 1.5  # one lost pair
        verdict = self._claim(PARENT, change)
        assert verdict["change_wins"] == 9 and verdict["met"]

    def test_not_met_on_eight_wins(self):
        change = _shifted(PARENT, -0.1)
        change[0] = change[1] = 1.5
        assert not self._claim(PARENT, change)["met"]

    def test_not_met_when_the_gap_is_inside_the_iqr(self):
        # every pair won, by less than the parent's own spread
        verdict = self._claim(PARENT, _shifted(PARENT, -0.01))
        assert verdict["change_wins"] == 10
        assert verdict["parent_iqr"] > 0.01 and not verdict["met"]


class TestRegressionVerdict:
    @pytest.mark.parametrize("by, verdict", [
        (0.25, "worse"), (0.15, "ok"), (-0.3, "ok")])
    def test_lower_is_better(self, by, verdict):
        assert regression_verdict("lower", 0.2, PARENT,
                                  _shifted(PARENT, by)) == verdict

    @pytest.mark.parametrize("by, verdict", [
        (-0.25, "worse"), (-0.15, "ok"), (0.3, "ok")])
    def test_higher_is_better(self, by, verdict):
        assert regression_verdict("higher", 0.2, PARENT,
                                  _shifted(PARENT, by)) == verdict

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 0.9]
        assert regression_verdict("lower", 0.2, parent,
                                  _shifted(parent, -0.05)) == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        parent = [0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 0.9]
        assert regression_verdict("lower", 0.2, parent,
                                  [0.5] * 10) == "ok"

    def test_worse_takes_precedence_over_a_wide_spread(self):
        parent = [0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 0.9]
        assert regression_verdict("lower", 0.2, parent,
                                  _shifted(parent, 0.5)) == "worse"
