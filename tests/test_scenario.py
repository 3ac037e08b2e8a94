"""Scenario loading, validation, and measurement-schedule derivation."""

import numpy as np
import pytest
import yaml

from hrcn.harness import scenario_fingerprint
from hrcn.scenario import (RadarKind, ScenarioError, build_schedule,
                           default_scenario_path, load_scenario)

from conftest import kind_indices, make_mini_scenario, radar_times


def _mutated_default(tmp_path, mutate):
    with open(default_scenario_path()) as fh:
        raw = yaml.safe_load(fh)
    mutate(raw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestLoadScenario:
    def test_default_counts(self, scenario):
        assert scenario.n_radars == 6
        assert len(kind_indices(scenario, RadarKind.MMR)) == 3
        assert len(kind_indices(scenario, RadarKind.PAR)) == 2
        assert len(kind_indices(scenario, RadarKind.MSR)) == 1
        assert scenario.comm.num_links == 3
        assert scenario.n_targets == 2

    def test_pure_python_parser_gives_the_same_scenario(self, scenario,
                                                        monkeypatch):
        # the libyaml parser, where PyYAML has it, and the fallback agree
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        slow = load_scenario(default_scenario_path())
        assert scenario_fingerprint(slow) == scenario_fingerprint(scenario)

    def test_zero_interval_length_rejected(self, tmp_path):
        def mutate(raw):
            raw["grid"]["interval_length"] = 0.0
        with pytest.raises(ScenarioError, match="interval_length"):
            load_scenario(_mutated_default(tmp_path, mutate))

    def test_missing_time_budget_rejected(self, tmp_path):
        def mutate(raw):
            for sec in raw["radars"]:
                if sec["kind"] == "par":
                    del sec["time_budget"]
                    break
        with pytest.raises(ScenarioError, match="time_budget"):
            load_scenario(_mutated_default(tmp_path, mutate))

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [unterminated")
        with pytest.raises(ScenarioError, match="parse error"):
            load_scenario(path)

    def test_ungrouped_radar_kinds_rejected(self, tmp_path):
        def mutate(raw):
            raw["radars"].reverse()
        with pytest.raises(ScenarioError, match="grouped"):
            load_scenario(_mutated_default(tmp_path, mutate))

    def test_negative_rcs_rejected(self, tmp_path):
        def mutate(raw):
            raw["targets"][0]["rcs"][0] = -1.0
        with pytest.raises(ScenarioError, match="rcs"):
            load_scenario(_mutated_default(tmp_path, mutate))

    @pytest.mark.parametrize("floor", [1.0, [1.0, 1.0], [[1.0, 1.0]] * 3],
                             ids=["scalar", "two-of-three-links",
                                  "three-by-two"])
    def test_floor_of_wrong_shape_rejected(self, tmp_path, floor):
        # the default has 3 links and 10 intervals: (3,) or (3, 10) only
        def mutate(raw):
            raw["comm"]["throughput_floor"] = floor
        with pytest.raises(ScenarioError, match="throughput_floor"):
            load_scenario(_mutated_default(tmp_path, mutate))


class TestBuildSchedule:
    def test_simple_progression(self):
        sc = make_mini_scenario(t0=6.0, initial_time=2.0, revisit=2.0)
        sch = build_schedule(sc)
        np.testing.assert_allclose(radar_times(sch, 0, 0, 0),
                                   [2.0, 4.0, 6.0])
        assert sch.counts[0, 0, 0] == 3

    def test_no_times_in_window(self):
        sc = make_mini_scenario(t0=6.0, initial_time=10.0)
        sch = build_schedule(sc)
        assert sch.counts[0, 0, 0] == 0
        assert len(radar_times(sch, 0, 0, 0)) == 0

    def test_offset_progression_long_window(self):
        sc = make_mini_scenario(t0=9.0, initial_time=2.3, revisit=3.0)
        sch = build_schedule(sc)
        np.testing.assert_allclose(radar_times(sch, 0, 0, 0),
                                   [2.3, 5.3, 8.3])
        assert sch.counts[0, 0, 0] == 3

    def test_boundary_point_belongs_to_closing_interval(self):
        # a measurement exactly on t_{k+1} counts toward interval k
        sc = make_mini_scenario(t0=2.0, num_intervals=3, initial_time=2.0,
                                revisit=2.0)
        sch = build_schedule(sc)
        np.testing.assert_allclose(radar_times(sch, 0, 0, 0), [2.0])
        np.testing.assert_allclose(radar_times(sch, 0, 0, 1), [4.0])
        np.testing.assert_allclose(radar_times(sch, 0, 0, 2), [6.0])

    def test_window_partition(self, scenario, schedule):
        # counts summed over intervals equal the progression points in the span
        grid = scenario.grid
        horizon = grid.start_time + grid.num_intervals * grid.interval_length
        for i, radar in enumerate(scenario.radars):
            for q in range(scenario.n_targets):
                t0 = radar.initial_time[q]
                rev = radar.revisit_interval[q]
                pts = t0 + rev * np.arange(int((horizon - t0) / rev) + 2)
                expected = np.sum((pts > grid.start_time) & (pts <= horizon))
                assert schedule.counts[i, q].sum() == expected

    def test_determinism(self, scenario):
        a = build_schedule(scenario)
        b = build_schedule(scenario)
        np.testing.assert_array_equal(a.counts, b.counts)
        for key in np.ndindex(a.counts.shape):
            np.testing.assert_array_equal(radar_times(a, *key),
                                          radar_times(b, *key))

    def test_scan_radar_revisit_shared_across_targets(self, scenario,
                                                      schedule):
        # scan radars (MMR/MSR) revisit every target at the same cadence;
        # only the per-target initial time may offset the grid
        for i in (kind_indices(scenario, RadarKind.MMR)
                  + kind_indices(scenario, RadarKind.MSR)):
            revisit = scenario.radars[i].revisit_interval[0]
            assert np.all(scenario.radars[i].revisit_interval == revisit)
            for k in range(scenario.grid.num_intervals):
                for q in range(scenario.n_targets):
                    t = radar_times(schedule, i, q, k)
                    if len(t) > 1:
                        np.testing.assert_allclose(np.diff(t), revisit,
                                                   rtol=0, atol=1e-12)

    def test_times_inside_half_open_window(self, scenario, schedule):
        for k in range(scenario.grid.num_intervals):
            lo, hi = scenario.grid.boundary(k)
            for i in range(scenario.n_radars):
                for q in range(scenario.n_targets):
                    t = radar_times(schedule, i, q, k)
                    assert np.all(t > lo) and np.all(t <= hi)
                    assert np.all(np.diff(t) > 0)
