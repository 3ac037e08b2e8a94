"""Command-line interface: subcommands, exit codes, and output files."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import hrcn
from hrcn import allocator, cli, harness
from hrcn.allocator import AllocationLayout, info_scale
from hrcn.cli import main
from hrcn.scenario import build_schedule, default_scenario_path
from hrcn.tracker import run_tracking

from conftest import floors_the_even_comm_split_misses


def _infeasible_scenario(tmp_path):
    """Throughput floor far beyond what the base-station budget can reach."""
    with open(default_scenario_path()) as fh:
        raw = yaml.safe_load(fh)
    raw["comm"]["throughput_floor"] = [50.0, 50.0, 50.0]
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestSolve:
    def test_solve_prints_metric(self, capsys):
        assert main(["solve", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "g = " in out
        assert "Pc[link1]" in out

    def test_infeasible_exits_one(self, tmp_path, capsys):
        path = _infeasible_scenario(tmp_path)
        assert main(["solve", "--scenario", path]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 1, 5, 9])
    def test_solves_where_the_even_comm_split_misses_a_floor(
            self, scenario, schedule, tmp_path, capsys, k):
        with open(default_scenario_path()) as fh:
            raw = yaml.safe_load(fh)
        raw["comm"]["throughput_floor"] = [
            float(x) for x in floors_the_even_comm_split_misses(scenario,
                                                                schedule)]
        path = tmp_path / "split_missed.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["solve", "--scenario", str(path),
                     "--interval", str(k)]) == 0
        assert f"interval {k}: g = " in capsys.readouterr().out

    def test_missing_scenario_exits_one(self, capsys):
        assert main(["solve", "--scenario", "/nonexistent.yaml"]) == 1

    @pytest.mark.parametrize("k", [0, 5, 9])
    def test_builds_the_layout_once(self, k, capsys, monkeypatch):
        built, from_scenario = [], AllocationLayout.from_scenario

        def counted(scenario):
            built.append(scenario)
            return from_scenario(scenario)

        monkeypatch.setattr(AllocationLayout, "from_scenario", counted)
        assert main(["solve", "--interval", str(k)]) == 0
        assert f"interval {k}: g = " in capsys.readouterr().out
        assert len(built) == 1


class TestSolveUnreachableFloor:
    J = 3  # the interval whose floor is unreachable

    @pytest.fixture
    def path(self, scenario, tmp_path):
        """The default scenario with (J, K) floors, link 1's unreachable in
        interval J only."""
        with open(default_scenario_path()) as fh:
            raw = yaml.safe_load(fh)
        floors = np.repeat(scenario.comm.throughput_floor[:, None],
                           scenario.grid.num_intervals, axis=1)
        floors[1, self.J] = 50.0
        raw["comm"]["throughput_floor"] = floors.tolist()
        path = tmp_path / "unreachable_at_j.yaml"
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    @pytest.fixture
    def kernel_times(self, monkeypatch):
        """The fusion times of every kernel the planning chain computes."""
        seen, info_kernel_D = [], allocator.info_kernel_D

        def recorded(rows, start, t_fuse, prior_state):
            seen.extend(np.ravel(t_fuse).tolist())
            return info_kernel_D(rows, start, t_fuse, prior_state)

        monkeypatch.setattr(allocator, "info_kernel_D", recorded)
        return seen

    def test_exits_one_only_at_its_interval(self, scenario, path,
                                            kernel_times, capsys):
        grid = scenario.grid
        assert main(["solve", "--scenario", path,
                     "--interval", str(self.J - 1)]) == 0
        assert f"interval {self.J - 1}: g = " in capsys.readouterr().out
        assert max(kernel_times) == grid.boundary(self.J - 1)[1]
        kernel_times.clear()
        assert main(["solve", "--scenario", path,
                     "--interval", str(self.J)]) == 1
        assert capsys.readouterr().err == (
            "error: throughput floor of link 1 unreachable: fixed "
            "interference alone requires more than the base-station budget "
            "(row 'throughput[1]')\n")
        assert max(kernel_times) == grid.boundary(self.J)[1]


class TestUsage:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_policy_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--policy", "greedy"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["solve", "--seed", "1"],
                                      ["solve", "--out", "x"],
                                      ["sweep", "--values", "1", "--seed", "1"]])
    def test_options_a_command_does_not_read_exit_two(self, argv, capsys):
        # solve writes no file, and neither solve nor sweep draws a number
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def _fresh_modules(code: str, prefix: str) -> str:
        """The modules under prefix that a fresh interpreter holds after
        code, so no other test's imports are counted."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(hrcn.__file__))]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code += (f"; print(sorted(m for m in sys.modules "
                 f"if m.startswith({prefix!r})))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_import_loads_no_scipy_optimize(self):
        assert self._fresh_modules("import sys, hrcn.cli",
                                   "scipy.optimize") == "[]"

    def test_solve_loads_no_numpy_random(self):
        # solve draws no number, so numpy's random module stays unloaded
        code = ("import sys, hrcn.cli; "
                "assert hrcn.cli.main(['solve']) == 0")
        assert self._fresh_modules(code, "numpy.random") == "[]"

    def test_compare_loads_no_scipy(self, tmp_path):
        # scipy is not a dependency: a whole run, tracking included, works
        # on numpy alone
        code = ("import sys, hrcn.cli; rc = hrcn.cli.main(['compare', "
                f"'--trials', '1', '--out', {str(tmp_path)!r}]); "
                "assert rc == 0")
        assert self._fresh_modules(code, "scipy") == "[]"


class TestSimulate:
    def test_writes_track_history(self, scenario, schedule, tmp_path,
                                  capsys):
        out = str(tmp_path / "run")
        assert main(["simulate", "--policy", "uniform", "--seed", "1",
                     "--out", out]) == 0
        path = os.path.join(out, "track_history.csv")
        assert os.path.exists(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["trial", "target", "k"]
        assert len(rows) == 1 + 2 * 10  # Q=2 targets, K=10 intervals
        # every cell is a number, each state the run's own to the last bit
        layout = AllocationLayout.from_scenario(scenario)
        allocations, *_ = harness.plan_allocations(scenario, schedule,
                                                   "uniform", 1)
        run = run_tracking(scenario, schedule,
                           [[info_scale(layout, z) for z in allocations]],
                           [[1, 0]])
        for row in rows[1:]:
            trial, q, k, *cells = row
            values = [float(cell) for cell in cells]
            q, k = int(q), int(k)
            assert trial == "0"
            assert values[:4] == run.truth[0, q, k + 1].tolist()
            assert values[4:8] == run.means[0, 0, q, k].tolist()
            assert values[8] == float(np.trace(run.covs[0, 0, q, k]))

    def test_builds_the_layout_and_the_kernels_once(self, tmp_path,
                                                    monkeypatch):
        built, from_scenario = [], AllocationLayout.from_scenario
        kernels, compute_kernels = [], harness.compute_kernels

        def counted(scenario):
            built.append(scenario)
            return from_scenario(scenario)

        def counted_kernels(*args):
            kernels.append(args)
            return compute_kernels(*args)

        monkeypatch.setattr(AllocationLayout, "from_scenario", counted)
        monkeypatch.setattr(harness, "compute_kernels", counted_kernels)
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        assert len(built) == len(kernels) == 1


class TestCompare:
    def test_deterministic_result_files(self, tmp_path):
        args = ["compare", "--policies", "uniform", "random",
                "--trials", "2", "--seed", "7"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        for name in ("manifest.json", "results.csv"):
            with open(os.path.join(out_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, f"{name} differs between identical runs"

    def test_builds_the_schedule_once(self, tmp_path, monkeypatch):
        built = []

        def counted(scenario):
            built.append(scenario)
            return build_schedule(scenario)

        for module in (cli, harness):
            monkeypatch.setattr(module, "build_schedule", counted)
        assert main(["compare", "--policies", "uniform", "--trials", "1",
                     "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_prints_table(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["compare", "--policies", "uniform", "--trials", "1",
                     "--out", out]) == 0
        assert "avg RMSE" in capsys.readouterr().out


class TestSweep:
    # at --interval 3 each swept problem takes the base scenario's priors,
    # chained through uniform allocations, so only its A and b change
    @pytest.mark.parametrize("interval", ["0", "3"])
    def test_metric_nondecreasing_in_comm_budget(self, tmp_path, capsys,
                                                 interval):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--interval", interval, "--param", "comm-budget",
                     "--values", "20", "40", "80", "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "comm-budget,g_value"
        g_values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(g_values, g_values[1:]))

    @pytest.mark.parametrize("interval", ["0", "3"])
    def test_metric_nonincreasing_in_floor(self, tmp_path, capsys, interval):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--interval", interval, "--param", "floor",
                     "--values", "0.5", "2.0", "3.0", "--out", out]) == 0
        path = os.path.join(out, "sweep.csv")
        with open(path) as fh:
            rows = fh.read().strip().splitlines()[1:]
        g_values = [float(r.split(",")[1]) for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(g_values, g_values[1:]))

    def test_one_monotone_solve_per_value_at_scale(self, scenario, tmp_path,
                                                   capsys, monkeypatch):
        # every interval, with the floor and the comm budget each swept over
        # 9 values from 0.1 to 1.6 times the base: 180 problems, each solved
        # once, the first value of a sweep cold and each later one from the
        # plan of the value before
        solves, adam_solve = [], cli.adam_solve

        def counted(problem, z0=None):
            solves.append(z0 is None)
            return adam_solve(problem, z0)

        monkeypatch.setattr(cli, "adam_solve", counted)
        scales = np.linspace(0.1, 1.6, 9)
        for param, base, sign in (
                ("floor", scenario.comm.throughput_floor[0], -1.0),
                ("comm-budget", scenario.comm.power_budget, 1.0)):
            for k in range(scenario.grid.num_intervals):
                solves.clear()
                out = str(tmp_path / f"{param}-{k}")
                assert main(["sweep", "--interval", str(k), "--param", param,
                             "--values", *map(str, (base * scales).tolist()),
                             "--out", out]) == 0
                assert solves == [True] + [False] * (len(scales) - 1)
                with open(os.path.join(out, "sweep.csv")) as fh:
                    g = [float(r.split(",")[1])
                         for r in fh.read().strip().splitlines()[1:]]
                assert len(g) == len(scales)
                # g falls as the floor rises and rises with the budget
                for a, b in zip(g, g[1:]):
                    assert sign * (b - a) >= -1e-9 * abs(a), (param, k, g)

    @pytest.mark.parametrize("param,value,message", [
        ("floor", "-1", "throughput_floor must be >= 0"),
        ("floor", "nan", "throughput_floor must be >= 0"),
        ("comm-budget", "nan", "power_budget must be > 0"),
        ("floor", "inf", "throughput_floor must be finite"),
        ("comm-budget", "inf", "power_budget must be finite")])
    def test_invalid_swept_scenario_exits_one(self, param, value, message,
                                              tmp_path, capsys):
        # each swept scenario is validated like a loaded file, before any
        # value of the sweep is solved
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--param", param, "--values", "0.5", value,
                     "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: comm.{message}\n"
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_env_output_dir(self, tmp_path, monkeypatch):
        outdir = str(tmp_path / "envout")
        monkeypatch.setenv("HRCN_OUTPUT_DIR", outdir)
        assert main(["compare", "--policies", "uniform", "--trials", "1"]) == 0
        assert os.path.exists(os.path.join(outdir, "manifest.json"))
