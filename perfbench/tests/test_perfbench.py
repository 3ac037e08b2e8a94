"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import hrcn  # noqa: E402
from hrcn import cli, fusion, harness, tracker  # noqa: E402
from hrcn.allocator import assemble_constraints  # noqa: E402
from hrcn.scenario import (build_schedule, default_scenario_path,  # noqa: E402
                           load_scenario)

import scenarios  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracing import Span, Tracer, self_times, top_level_time, total_times  # noqa: E402


def _yaml_text(sc, tmp_path, name):
    path = tmp_path / name
    scenarios.to_yaml(sc, str(path))
    return path.read_text()


class TestGenerator:
    def test_same_seed_same_scenario(self, tmp_path):
        assert (_yaml_text(scenarios.large_net(7), tmp_path, "a.yaml")
                == _yaml_text(scenarios.large_net(7), tmp_path, "b.yaml"))

    def test_other_seed_other_scenario(self, tmp_path):
        assert (_yaml_text(scenarios.large_net(7), tmp_path, "a.yaml")
                != _yaml_text(scenarios.large_net(8), tmp_path, "b.yaml"))

    def test_yaml_round_trip_is_exact(self, tmp_path):
        sc = scenarios.large_net(3)
        path = tmp_path / "net.yaml"
        scenarios.to_yaml(sc, str(path))
        back = load_scenario(str(path))
        for a, b in zip(sc.radars, back.radars):
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.initial_time, b.initial_time)
        assert np.array_equal(sc.comm.radar_to_comm_gain,
                              back.comm.radar_to_comm_gain)
        assert np.array_equal(sc.targets[2].initial_state,
                              back.targets[2].initial_state)

    def test_size_matches_the_shape_described(self):
        sc = scenarios.large_net(0)
        size = scenarios.scenario_size(sc, build_schedule(sc))
        assert (size["mmr"], size["par"], size["msr"]) == (4, 3, 2)
        assert (size["Q"], size["J"]) == (3, 4)
        assert size["dim"] == 25
        assert size["mean_M_per_fix"] >= 40

    def test_floor_variants_are_seeded_and_feasible(self):
        sc = load_scenario(default_scenario_path())
        sch = build_schedule(sc)
        a = scenarios.floor_variants(sc, sch, 5, 4)
        b = scenarios.floor_variants(sc, sch, 5, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert a[0].mean() < a[-1].mean()
        top = scenarios.max_uniform_floor(sc, sch)
        for floor in a:
            assert np.all(floor < top)
            sc.comm.throughput_floor = floor
            for k in range(sc.grid.num_intervals):
                assemble_constraints(sc, sch, k)  # raises when infeasible


class TestPercentile:
    def test_p90_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(99)), 90) == (None, 9)
        assert tail_percentile(list(range(100)), 90) == (89, 10)

    def test_order_of_samples_is_irrelevant(self):
        samples = list(range(200))[::-1]
        assert tail_percentile(samples, 90) == (179, 20)

    def test_empty(self):
        assert tail_percentile([], 90) == (None, 0)


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [Span("a.top", 0.0, 10.0, -1),
                 Span("b.child", 1.0, 4.0, 0),
                 Span("c.leaf", 2.0, 3.0, 1),
                 Span("b.child", 5.0, 6.0, 0),
                 Span("a.top", 11.0, 12.0, -1)]
        assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
        assert top_level_time(spans) == 11.0
        assert sum(self_times(spans)) == top_level_time(spans)

    def test_recursive_calls_count_once_in_totals(self):
        spans = [Span("p.project", 0.0, 5.0, -1),
                 Span("p.project", 1.0, 3.0, 0),
                 Span("q.other", 3.5, 4.0, 0),
                 Span("p.project", 6.0, 7.0, -1)]
        totals = total_times(spans)
        assert totals["p.project"] == 6.0
        assert totals["q.other"] == 0.5


class TestTracer:
    BINDINGS = [(fusion, "ils_mle"), (tracker, "ils_mle"),
                (harness, "run_tracking"), (cli, "run_tracking"),
                (tracker, "run_tracking"), (hrcn, "load_scenario"),
                (cli, "load_scenario")]

    def targets(self):
        return {"fusion.ils_mle": (fusion, "ils_mle", None),
                "tracker.run_tracking": (tracker, "run_tracking", None),
                "scenario.load_scenario": (hrcn.scenario, "load_scenario", None)}

    def test_every_binding_is_wrapped_then_restored(self):
        before = [getattr(m, a) for m, a in self.BINDINGS]
        with Tracer(self.targets()):
            during = [getattr(m, a) for m, a in self.BINDINGS]
            assert all(d is not b for d, b in zip(during, before))
            assert fusion.ils_mle is tracker.ils_mle
        after = [getattr(m, a) for m, a in self.BINDINGS]
        assert all(x is y for x, y in zip(after, before))

    def test_restored_when_the_block_raises(self):
        before = [getattr(m, a) for m, a in self.BINDINGS]
        with pytest.raises(KeyError):
            with Tracer(self.targets()):
                raise KeyError("boom")
        assert all(getattr(m, a) is b for (m, a), b in zip(self.BINDINGS, before))

    def test_spans_nest_and_hooks_count(self):
        def count(tr, args, kwargs, result):
            tr.counts["schedules"] += 1

        targets = {"scenario.load_scenario": (hrcn.scenario, "load_scenario", None),
                   "scenario.build_schedule": (hrcn.scenario, "build_schedule", count)}
        with Tracer(targets) as tr:
            sc = cli.load_scenario(default_scenario_path())
            harness.build_schedule(sc)
        assert [s.name for s in tr.spans] == ["scenario.load_scenario",
                                              "scenario.build_schedule"]
        assert all(s.parent == -1 and s.end >= s.start for s in tr.spans)
        assert tr.counts["schedules"] == 1
        assert tr.reached["scenario.load_scenario"] == 1
