"""Scenario loading, validation, and measurement-schedule derivation."""

import dataclasses
import os
import pathlib
import random
import re
import sys

import numpy as np
import pytest
import yaml

from hrcn.harness import scenario_fingerprint
from hrcn.scenario import (MeasurementRows, RadarKind, ScenarioError,
                           _load_yaml, build_schedule, default_scenario_path,
                           load_scenario)
from hrcn.sensing import const_kernel

from conftest import block, kind_indices, make_mini_scenario, radar_times

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import scenarios  # noqa: E402
import workloads  # noqa: E402

# One YAML feature per document: the loader must build each as yaml.load
# does, whether in its one pass over the events or by handing the document
# to yaml.load, which it does for the FALLS_BACK ones
YAML_FEATURES = {
    "alias": "a: &x {k: [1, 2]}\nb: *x\n",
    "recursive_anchor": "loop: &loop [1, *loop]\n",
    "merge_key": "base: &b {x: 1.5, y: 2}\nm:\n  <<: *b\n  y: 3\n",
    "explicit_float": "v: !!float 3\n",
    "timestamp": "d: 2001-12-14\n",
    "set_tag": "s: !!set {a, b}\n",
    "tilde_null": "n: ~\n",
    "yes_bool": "f: yes\n",
    "hex_int": "h: 0x1F\n",
    "underscore_float": "u: 1_000.5\n",
    "inf": "i: .inf\n",
}
YAML_FEATURES["all"] = "".join(YAML_FEATURES.values())
FALLS_BACK = {"alias", "recursive_anchor", "merge_key", "timestamp", "set_tag",
              "all"}

# Scalars of generated documents: core-schema look-alikes, plain, quoted and
# explicitly tagged.  "1e3" has no dot, so it resolves to a str
_PLAIN = ["0x1F", "0o17", "017", "1:30", "1_000", "-42", "+7", "0", "0b101",
          ".inf", "-.Inf", ".nan", ".NaN", "1.5e3", "1e3", "-2.25", "6.",
          "1_000.5", "190:20:30.15", "yes", "Off", "TRUE", "n", "~", "null",
          "abc", "x_y", "2.0.1"]
_QUOTED = ['"0x1F"', "'yes'", '"~"', "'1.5e3'", '".nan"', "''", '"017"',
           "'Off'", '"null"', '"1:30"']
_TAGGED = ["!!float 3", "!!str 12", "!!int '7'", "! 12", "!!bool 'yes'",
           "!!null ''", "!!str ~"]
_KEYS = ["a", "b", "0x1F", "7", "1.5", "-.inf", ".nan", "yes", "Off", "~",
         "null", "1e3", "'7'", '"yes"', "017"]


def _same(a, b, pairs=None) -> bool:
    """Equal values of identical types, floats by repr (so NaN matches NaN
    and -0.0 does not match 0.0), containers compared in order; a pair of
    containers already under comparison counts as equal, so recursive
    documents compare."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if not isinstance(a, (list, dict)):
        return a == b
    pairs = set() if pairs is None else pairs
    if (id(a), id(b)) in pairs:
        return True
    pairs.add((id(a), id(b)))
    if isinstance(a, dict):
        a, b = list(a.items()), list(b.items())
        return len(a) == len(b) and all(
            _same(ka, kb, pairs) and _same(va, vb, pairs)
            for (ka, va), (kb, vb) in zip(a, b))
    return len(a) == len(b) and all(_same(x, y, pairs) for x, y in zip(a, b))


def _random_node(rng, depth=0):
    """("scalar", text), ("seq", [nodes]) or ("map", [(key, node)]): a
    container at the top, at most three containers deep."""
    if depth == 3 or (depth and rng.random() < 0.45):
        pool = rng.choice([_PLAIN, _PLAIN, _QUOTED, _TAGGED])
        return "scalar", rng.choice(pool)
    items = [_random_node(rng, depth + 1) for _ in range(rng.randrange(5))]
    if rng.random() < 0.5:
        return "seq", items
    return "map", [(rng.choice(_KEYS), item) for item in items]


def _flow(node) -> str:
    kind, value = node
    if kind == "scalar":
        return value
    if kind == "seq":
        return "[" + ", ".join(_flow(item) for item in value) + "]"
    return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in value) + "}"


def _block(node, rng, indent) -> list:
    """Lines of node in block style at indent, each nested container in
    flow or block style at random; an empty one is always flow."""
    kind, value = node
    pad = " " * indent
    if kind == "scalar" or not value or rng.random() < 0.3:
        return [pad + _flow(node)]
    lines = []
    for item in value:
        head = pad + ("-" if kind == "seq" else f"{item[0]}:")
        child = item if kind == "seq" else item[1]
        if child[0] != "scalar" and child[1]:
            lines += [head] + _block(child, rng, indent + 2)
        elif child == ("scalar", "''") and rng.random() < 0.5:
            lines.append(head)  # an empty plain scalar: null
        else:
            lines.append(f"{head} {_flow(child)}")
    return lines


def _random_document(rng) -> str:
    """A document in the subset _load_yaml builds in one pass."""
    lines = _block(_random_node(rng), rng, 0)
    start = rng.choice(["", "---\n", "--- # start\n"])
    return start + "\n".join(lines) + rng.choice(["\n", "\n...\n", ""])


def _fallbacks(monkeypatch) -> list:
    """Record the arguments of every yaml.load call, the fallback of
    _load_yaml, from now on."""
    calls, load = [], yaml.load

    def record(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)
    monkeypatch.setattr(yaml, "load", record)
    return calls


def _scenario_text(source, tmp_path) -> str:
    """The packaged default, a block-style dump of large_net(0), or the v-th
    solve-sweep floor variant of the default at seed 0 ("floor_v<v>")."""
    if source == "default":
        return pathlib.Path(default_scenario_path()).read_text()
    path = tmp_path / f"{source}.yaml"
    if source == "large_net":
        scenarios.to_yaml(scenarios.large_net(0), str(path))
    else:
        base = load_scenario(default_scenario_path())
        floor = scenarios.floor_variants(
            base, build_schedule(base), 0,
            workloads.SolveSweepWorkload.n_variants)[
                int(source.removeprefix("floor_v"))]
        scenarios.to_yaml(dataclasses.replace(base, comm=dataclasses.replace(
            base.comm, throughput_floor=floor)), str(path))
    return path.read_text()


def _reference_schedule(scenario):
    """Reference layout, radar by radar: each radar's times cut per window
    by two searchsorted calls, concatenated interval by interval.  Returns
    (counts, rows) with rows[q][k] the (rows, radar offsets) of target q in
    interval k."""
    grid = scenario.grid
    n, q_n, k_n = scenario.n_radars, scenario.n_targets, grid.num_intervals
    lo, hi = np.array([grid.boundary(k) for k in range(k_n)]).T
    horizon = hi[-1]
    positions = np.array([r.position for r in scenario.radars], dtype=float)
    counts = np.zeros((n, q_n, k_n), dtype=int)
    rows = []
    for q, target in enumerate(scenario.targets):
        kernels = np.array([const_kernel(r, target.rcs[i])
                            for i, r in enumerate(scenario.radars)])
        pts, first, last = [], [], []
        for radar in scenario.radars:
            t0 = radar.initial_time[q]
            rev = radar.revisit_interval[q]
            n_pts = max(0, int(np.floor((horizon - t0) / rev)) + 1)
            p = t0 + rev * np.arange(n_pts)
            pts.append(p[p <= horizon])
            first.append(np.searchsorted(pts[-1], lo, side="right"))
            last.append(np.searchsorted(pts[-1], hi, side="right"))
        counts[:, q] = np.array(last) - np.array(first)
        rows_q = []
        for k in range(k_n):
            radar = np.repeat(np.arange(n), counts[:, q, k])
            rows_q.append((MeasurementRows(
                times=np.concatenate([p[a[k]:b[k]]
                                      for p, a, b in zip(pts, first, last)]),
                radar=radar, radar_xy=positions[radar], kernel=kernels[radar]),
                np.concatenate(([0], np.cumsum(counts[:, q, k])))))
        rows.append(rows_q)
    return counts, rows


def _random_network(rng):
    """Mini network with start_time != 0, N radars and Q targets.  Radar
    first times sit on fusion boundaries or anywhere in the horizon, the
    last radar starts past the horizon, and revisits run from a quarter of
    an interval to two and a half."""
    t0 = float(rng.choice([0.75, 2.0, 6.0]))
    k_n = int(rng.integers(1, 6))
    start = float(rng.choice([0.5, 1.5, 3.25]))
    horizon = start + k_n * t0
    base = make_mini_scenario(t0=t0, num_intervals=k_n, start_time=start)
    n, q_n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    radars = []
    for i in range(n):
        if i == n - 1:
            first = horizon + rng.uniform(0.1, 1.0, q_n) * t0
        else:
            first = np.where(rng.random(q_n) < 0.5,
                             start + rng.integers(0, k_n + 1, q_n) * t0,
                             rng.uniform(0.0, horizon, q_n))
        revisit = rng.choice([0.25, 0.5, 1.0, 1.5, 2.5], q_n) * t0
        radars.append(dataclasses.replace(
            base.radars[0], id=i + 1, position=rng.uniform(-5e3, 5e3, 2),
            initial_time=first, revisit_interval=revisit))
    targets = [dataclasses.replace(base.targets[0], id=q + 1,
                                   rcs=rng.uniform(0.5, 2.0, n))
               for q in range(q_n)]
    return dataclasses.replace(base, radars=radars, targets=targets)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _mutated_default(tmp_path, mutate):
    with open(default_scenario_path()) as fh:
        raw = yaml.safe_load(fh)
    mutate(raw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def _section(raw: dict, section: str) -> dict:
    """The first radar of a kind ("mmr", "par"), the first target
    ("targets") or a top-level section of a parsed scenario file."""
    if section in ("mmr", "par"):
        return next(r for r in raw["radars"] if r["kind"] == section)
    return raw["targets"][0] if section == "targets" else raw[section]


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

    def test_malformed_yaml_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [unterminated")
        head = (f"parse error in {path}: while parsing a flow sequence\n"
                f'  in "{path}", line 1, column 7\n')

        def message():
            with pytest.raises(ScenarioError) as info:
                load_scenario(path)
            return str(info.value)

        if hasattr(yaml, "CSafeLoader"):  # libyaml's parser
            assert message() == head + (
                "did not find expected ',' or ']'\n"
                f'  in "{path}", line 2, column 1')
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert message() == head + (
            "expected ',' or ']', but got '<stream end>'\n"
            f'  in "{path}", line 1, column 20')

    @pytest.mark.parametrize("source", ["default", "large_net"] + [
        f"floor_v{v}" for v in range(workloads.SolveSweepWorkload.n_variants)])
    def test_scenario_files_walked_as_yaml_load_builds_them(
            self, tmp_path, monkeypatch, source):
        # every file the benchmarked commands load is built in one pass
        text = _scenario_text(source, tmp_path)
        want = yaml.load(text, Loader=yaml.SafeLoader)
        calls = _fallbacks(monkeypatch)
        assert _same(_load_yaml(text), want)
        assert calls == []

    @pytest.mark.parametrize("feature", list(YAML_FEATURES))
    def test_yaml_features_built_as_yaml_load_builds_them(self, monkeypatch,
                                                          feature):
        text = YAML_FEATURES[feature]
        want = yaml.load(text, Loader=yaml.SafeLoader)
        calls = _fallbacks(monkeypatch)
        assert _same(_load_yaml(text), want)
        assert len(calls) == (feature in FALLS_BACK)

    @pytest.mark.parametrize("parser", ["libyaml", "python"])
    def test_generated_documents_built_as_yaml_load_builds_them(
            self, monkeypatch, parser):
        if parser == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        rng = random.Random(29)
        texts = [_random_document(rng) for _ in range(200)]
        wants = [yaml.load(text, Loader=yaml.SafeLoader) for text in texts]
        calls = _fallbacks(monkeypatch)
        for text, want in zip(texts, wants):
            assert _same(_load_yaml(text), want), text
        assert calls == []

    @pytest.mark.parametrize("parser", ["libyaml", "python"])
    @pytest.mark.parametrize("text, mark", [
        ("a: &x 1\nb: *y\n", "line 2, column 4"),
        ("a: 1\n? [1]\n: 2\n", "line 2, column 3"),
        ("a: !!int ''\nb: [x\n", "line 3, column 1"),
        ("a: 1\n---\nb: 2\n", "line 2, column 1")],
        ids=["undefined-alias", "list-key", "bad-int-then-parse-error",
             "second-document"])
    def test_fallback_errors_name_the_file(self, tmp_path, monkeypatch,
                                           parser, text, mark):
        # a document handed to yaml.load is read again from its start, so
        # its error is yaml.load's, marked with the file and position
        if parser == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "fallback.yaml"
        path.write_text(text)
        with open(path) as fh, pytest.raises(yaml.YAMLError) as ref:
            yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"parse error in {path}: {ref.value}"
        assert f'in "{path}", {mark}' in str(info.value)

    @pytest.mark.parametrize("text", [
        "a: {b: !foo 1}\nc: !bar 2\n", "a: {b: !!int abc}\nc: !foo 1\n",
        "c: !!int abc\n"],
        ids=["unknown-tags", "bad-int-then-tag", "bad-int"])
    def test_construction_error_is_yaml_loads(self, tmp_path, text):
        # yaml.load builds a mapping's scalars before its nested containers,
        # so of two bad lines it reports the later one
        path = tmp_path / "tags.yaml"
        path.write_text(text)
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        with (open(path) as fh,
              pytest.raises((yaml.YAMLError, ValueError)) as ref):
            yaml.load(fh, Loader=loader)
        want = ref.value
        if isinstance(want, yaml.YAMLError):
            want = ScenarioError(f"parse error in {path}: {want}")
        with pytest.raises(ValueError) as info:
            load_scenario(path)
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)

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

    @pytest.mark.parametrize("section,key,message", [
        ("comm", "power_budget", "comm.power_budget must be finite"),
        ("comm", "throughput_floor", "comm.throughput_floor must be finite"),
        ("mmr", "power_budget", "power_budget must be finite"),
        ("mmr", "fixed_dwell", "fixed_dwell must be finite"),
        ("par", "time_budget", "time_budget must be finite"),
        ("par", "fixed_power", "fixed_power must be finite"),
        ("grid", "interval_length", "grid.interval_length must be finite"),
        ("grid", "start_time", "grid.start_time must be finite"),
        ("mmr", "position", "position must be finite"),
        ("mmr", "bandwidth", "bandwidth must be finite"),
        ("mmr", "beamwidth", "beamwidth must be finite"),
        ("mmr", "noise_var", ": noise_var must be finite"),
        ("mmr", "range_const", "range_const must be finite"),
        ("mmr", "bearing_const", "bearing_const must be finite"),
        ("mmr", "initial_time", "initial_time must be finite"),
        ("par", "revisit_interval", "revisit_interval must be finite"),
        ("comm", "noise_var", "comm.noise_var must be finite"),
        ("targets", "rcs", "rcs must be finite"),
        ("targets", "process_noise_intensity",
         "process_noise_intensity must be finite")])
    def test_infinite_budget_rejected(self, tmp_path, section, key, message):
        # an infinite number in any field would reach the schedule, the
        # kernels or the solver as inf and NaN; the file is refused when it
        # is loaded.  A PAR's revisit intervals may differ across targets,
        # so its infinite one meets no other check first
        def mutate(raw):
            sec = _section(raw, section)
            if isinstance(sec[key], list):
                sec[key][1] = float("inf")
            else:
                sec[key] = float("inf")
        with pytest.raises(ScenarioError, match=message):
            load_scenario(_mutated_default(tmp_path, mutate))

    @pytest.mark.parametrize("section,key,value,message", [
        ("grid", "num_intervals", float("inf"),
         "grid.num_intervals must be an integer"),
        ("grid", "num_intervals", 2.5, "grid.num_intervals must be an integer"),
        ("comm", "num_links", float("nan"), "comm.num_links must be an integer"),
        ("comm", "num_links", "three", "comm.num_links must be an integer"),
        ("mmr", "id", float("inf"), "radars[0]: id must be an integer"),
        ("targets", "id", 1.5, "targets[0]: id must be an integer"),
        ("grid", "num_intervals", True,
         "grid.num_intervals must be an integer")])
    def test_non_integral_count_or_id_rejected(self, tmp_path, section, key,
                                               value, message):
        # a count or id is converted to an int, which would overflow on
        # inf, fail unnamed on nan, drop a fraction silently and read a
        # bool as 0 or 1
        def mutate(raw):
            _section(raw, section)[key] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(_mutated_default(tmp_path, mutate))

    @pytest.mark.parametrize("path, value, message", [
        (("targets",), None, "targets must be a list"),
        (("radars",), 5, "radars must be a list"),
        (("grid",), None, "grid must be a mapping"),
        (("comm",), None, "comm must be a mapping"),
        (("radars", 0), None, "radars[0] must be a mapping"),
        (("targets", 0), [1, 2], "targets[0] must be a mapping"),
        (("radars", 0, "bandwidth"), "wide",
         "radars[0]: bandwidth must be numeric, got 'wide'"),
        (("radars", 0, "position"), [0.0, "north"],
         "radars[0]: position must be numeric")],
        ids=["null-targets", "int-radars", "null-grid", "null-comm",
             "null-radar", "list-target", "str-bandwidth", "str-position"])
    def test_wrong_type_rejected_naming_it(self, tmp_path, path, value,
                                           message):
        # a section or a field of the wrong type is named, not left to
        # surface as the TypeError, AttributeError or bare ValueError of
        # the code that reads it
        def mutate(raw):
            for key in path[:-1]:
                raw = raw[key]
            raw[path[-1]] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(_mutated_default(tmp_path, mutate))

    @pytest.mark.parametrize("path, value, message", [
        (("radars", 0, "bandwidth"), True,
         "radars[0]: bandwidth must be numeric, got True"),
        (("radars", 0, "position"), [True, 0.0],
         "radars[0]: position must be numeric, got [True, 0.0]"),
        (("targets", 0, "process_noise_intensity"), False,
         "targets[0]: process_noise_intensity must be numeric, got False"),
        (("grid", "interval_length"), True,
         "grid: interval_length must be numeric, got True"),
        (("comm", "throughput_floor"), [2.0, False, 2.0],
         "comm: throughput_floor must be numeric, got [2.0, False, 2.0]")],
        ids=["bandwidth", "position", "intensity", "interval-length",
             "throughput-floor"])
    def test_bool_number_rejected_naming_it(self, tmp_path, path, value,
                                            message):
        # float() reads a bool as 0 or 1, so a bool in a number or an array
        # would load silently as a number
        def mutate(raw):
            for key in path[:-1]:
                raw = raw[key]
            raw[path[-1]] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(_mutated_default(tmp_path, mutate))

    def test_integral_float_count_accepted(self, tmp_path):
        def mutate(raw):
            raw["grid"]["num_intervals"] = 4.0
        sc = load_scenario(_mutated_default(tmp_path, mutate))
        assert sc.grid.num_intervals == 4
        assert type(sc.grid.num_intervals) is int

    @pytest.mark.parametrize("kind,key", [
        ("mmr", "fixed_dwell"), ("mmr", "power_budget"),
        ("par", "fixed_power"), ("par", "time_budget"),
        ("msr", "fixed_dwell"), ("msr", "fixed_power")])
    def test_missing_or_zero_resource_rejected(self, tmp_path, kind, key):
        # every kind's fixed resource and budget are required and positive
        def drop(raw):
            del next(r for r in raw["radars"] if r["kind"] == kind)[key]

        def zero(raw):
            next(r for r in raw["radars"] if r["kind"] == kind)[key] = 0.0
        with pytest.raises(ScenarioError,
                           match=f"missing required field '{key}'"):
            load_scenario(_mutated_default(tmp_path, drop))
        with pytest.raises(ScenarioError, match=f"{key} must be > 0"):
            load_scenario(_mutated_default(tmp_path, zero))

    @pytest.mark.parametrize("kind,keys", [
        ("mmr", ("fixed_power", "time_budget")),
        ("par", ("fixed_dwell", "power_budget")),
        ("msr", ("power_budget", "time_budget"))])
    def test_resource_of_another_kind_ignored(self, tmp_path, scenario,
                                              kind, keys):
        # a field that is no resource of the radar's kind is not read, so
        # even a value validation would refuse leaves the scenario as it is
        def mutate(raw):
            for sec in raw["radars"]:
                if sec["kind"] == kind:
                    sec.update(dict.fromkeys(keys, -1.0))
        loaded = load_scenario(_mutated_default(tmp_path, mutate))
        assert scenario_fingerprint(loaded) == scenario_fingerprint(scenario)
        for i in kind_indices(loaded, RadarKind(kind)):
            assert all(getattr(loaded.radars[i], key) is None for key in keys)

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

    def test_matches_per_radar_oracle_bitwise(self, scenario):
        rng = np.random.default_rng(1404)
        networks = [scenario] + [_random_network(rng) for _ in range(60)]
        on_boundary = 0
        for sc in networks:
            got, (counts, want) = build_schedule(sc), _reference_schedule(sc)
            _assert_bitwise(got.counts, counts)
            # the table's blocks, (interval, target) in turn, end to end
            assert got.bounds[0] == 0
            assert got.bounds[-1] == len(got.rows.times)
            _assert_bitwise(np.diff(got.bounds),
                            counts.sum(axis=0).T.ravel())
            for q in range(sc.n_targets):
                for k in range(sc.grid.num_intervals):
                    (rows, start), (want_rows, want_start) = (
                        block(got, q, k), want[q][k])
                    _assert_bitwise(start, want_start)
                    for name in ("times", "radar", "radar_xy", "kernel"):
                        _assert_bitwise(getattr(rows, name),
                                        getattr(want_rows, name))
                    t_close = sc.grid.boundary(k)[1]
                    on_boundary += int(np.sum(rows.times == t_close))
        # the draws do put measurements exactly on t_{k+1}
        assert on_boundary > 0

    def test_rounded_window_ends(self):
        # start 0.1 s, T0 0.7 s: t_k + T0 rounds above t_{k+1} = 0.1 +
        # (k + 1) T0 at k = 2 and below it at k = 3, so windows cut one by
        # one as (t_k, t_k + T0] would overlap there and leave a gap here;
        # the grid's windows share their edges instead
        def one_time(t, num_intervals=6):
            return make_mini_scenario(t0=0.7, num_intervals=num_intervals,
                                      start_time=0.1, initial_time=t,
                                      revisit=10.0)
        t = [0.1 + k * 0.7 for k in range(7)]
        assert t[2] + 0.7 > t[3] and t[3] + 0.7 < t[4]
        grid = one_time(0.0).grid
        for k in range(5):
            assert grid.boundary(k)[1] == grid.boundary(k + 1)[0] == t[k + 1]
        # each time is counted once: a shared edge in the window it closes,
        # also when it is the horizon of a 4-window grid, and the end of
        # the overlap in the window after it
        for num_intervals in (6, 4):
            for when, k in ((t[3], 2), (t[2] + 0.7, 3), (t[4], 3)):
                sc = one_time(when, num_intervals)
                got = build_schedule(sc)
                _assert_bitwise(got.counts, _reference_schedule(sc)[0])
                np.testing.assert_array_equal(
                    got.counts[0, 0], np.eye(num_intervals, dtype=int)[k])

    def test_times_inside_half_open_window(self, scenario, schedule):
        for k in range(scenario.grid.num_intervals):
            lo, hi = scenario.grid.boundary(k)
            for i in range(scenario.n_radars):
                for q in range(scenario.n_targets):
                    t = radar_times(schedule, i, q, k)
                    assert np.all(t > lo) and np.all(t <= hi)
                    assert np.all(np.diff(t) > 0)
