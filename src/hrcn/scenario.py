"""Static experiment description: radars, comm links, targets, fusion grid,
and the derived asynchronous measurement schedule.

Scenario files are YAML with four sections (``grid``, ``radars``, ``comm``,
``targets``); SI units throughout, complex gains as ``[re, im]`` pairs.  See
the schema documented in the README and the shipped ``data/default.yaml``.
"""

import math
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Optional

import numpy as np
import yaml
from yaml.constructor import SafeConstructor

from .sensing import const_kernel


class ScenarioError(ValueError):
    """Malformed or invariant-violating scenario description."""


class RadarKind(Enum):
    MMR = "mmr"  # co-located MIMO radar: power optimized, dwell fixed
    PAR = "par"  # phased array: dwell optimized, power fixed
    MSR = "msr"  # mechanical scanning: both fixed


# Each kind's fixed resource, then its budgeted one (an MSR fixes both); the
# key order is the order in which radars must be listed.
RESOURCE_FIELDS = {
    RadarKind.MMR: ("fixed_dwell", "power_budget"),
    RadarKind.PAR: ("fixed_power", "time_budget"),
    RadarKind.MSR: ("fixed_dwell", "fixed_power"),
}


@dataclass
class RadarNode:
    id: int
    kind: RadarKind
    position: np.ndarray          # (2,) meters
    bandwidth: float              # Hz
    beamwidth: float              # rad, 3 dB receive beamwidth
    noise_var: float              # W
    range_const: float            # dimensionless measurement-error constant
    bearing_const: float
    initial_time: np.ndarray      # (Q,) s, first illumination per target
    revisit_interval: np.ndarray  # (Q,) s
    fixed_dwell: Optional[float] = None   # s, MMR and MSR
    fixed_power: Optional[float] = None   # W, PAR and MSR
    power_budget: Optional[float] = None  # W, MMR only
    time_budget: Optional[float] = None   # s, PAR only


@dataclass
class CommSystem:
    num_links: int
    noise_var: float                 # W
    power_budget: float              # W, base-station total
    throughput_floor: np.ndarray     # (J,) or (J, K) nats
    radar_to_comm_gain: np.ndarray   # (J, N) complex
    comm_to_radar_gain: np.ndarray   # (N, J) complex

    @property
    def alpha_r_sq(self) -> np.ndarray:
        """|alpha^r|^2, interference gain radar -> downlink, (J, N)."""
        return np.abs(self.radar_to_comm_gain) ** 2

    @property
    def alpha_c_sq(self) -> np.ndarray:
        """|alpha^c|^2, interference gain downlink -> radar, (N, J)."""
        return np.abs(self.comm_to_radar_gain) ** 2

    def floors(self, ks) -> np.ndarray:
        """(len(ks), J) throughput floors of every link at the fusion
        intervals ks, from a (J,) floor for all of them or a (J, K) one."""
        floor = self.throughput_floor
        if floor.ndim == 1:
            return np.broadcast_to(floor, (len(ks), len(floor)))
        return floor.T[ks]

    def floor(self, j: int, k: int) -> float:
        """Throughput floor for link j at fusion interval k."""
        return float(self.floors([k])[0, j])


@dataclass
class TargetTruth:
    id: int
    initial_state: np.ndarray        # (4,) [x, vx, y, vy]
    process_noise_intensity: float   # m^2/s^3
    rcs: np.ndarray                  # (N,) m^2, per radar


@dataclass
class FusionGrid:
    interval_length: float   # T0, s
    num_intervals: int       # K
    start_time: float = 0.0  # t_1

    def boundary(self, k):
        """Half-open window (t_k, t_{k+1}] of fusion interval k (0-based), or
        edge arrays for an index array k: t_k = start_time + k *
        interval_length, so that consecutive windows share their edge."""
        return (self.start_time + k * self.interval_length,
                self.start_time + (k + 1) * self.interval_length)


@dataclass
class Scenario:
    radars: list[RadarNode]
    comm: CommSystem
    targets: list[TargetTruth]
    grid: FusionGrid

    @property
    def n_radars(self) -> int:
        return len(self.radars)

    @property
    def n_targets(self) -> int:
        return len(self.targets)


@dataclass
class MeasurementRows:
    """Scheduled measurements, one row each; indexing by a slice or an
    integer array of any shape indexes every column alike."""

    times: np.ndarray     # (M,)
    radar: np.ndarray     # (M,) int, radar index
    radar_xy: np.ndarray  # (M, 2)
    kernel: np.ndarray    # (M, 2) constant noise kernel of the radar on the target

    def __getitem__(self, index) -> "MeasurementRows":
        return MeasurementRows(self.times[index], self.radar[index],
                               self.radar_xy[index], self.kernel[index])


@dataclass
class MeasurementSchedule:
    """Per (radar, target, interval) measurement counts, and every scheduled
    measurement in one row table sorted by (interval, target, radar, time):
    the rows of target q in interval k, the stacking order of their
    likelihood, are block b = k * Q + q, rows[bounds[b]:bounds[b + 1]].
    The rows carry each radar's constant kernel, so a scenario whose radar
    constants or target RCS change needs a new schedule."""

    counts: np.ndarray  # (N, Q, K) int
    rows: MeasurementRows = field(repr=False)
    bounds: np.ndarray  # (K * Q + 1,) int, block offsets into rows


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _check(prefix: str, name: str, value, bound: Optional[str] = None) -> None:
    """Raise ScenarioError unless value, a number or an array, meets bound
    ("> 0" or ">= 0", if given) and is finite.  The bound is checked first,
    so NaN and a missing value fail it."""
    is_array = isinstance(value, np.ndarray)
    if bound is not None:
        ok = value is not None and (value > 0 if bound == "> 0"
                                    else value >= 0)
        if not (ok.all() if is_array else ok):
            raise ScenarioError(f"{prefix}{name} must be {bound}")
    if not (np.isfinite(value).all() if is_array else math.isfinite(value)):
        raise ScenarioError(f"{prefix}{name} must be finite")


def _integer(prefix: str, name: str, value) -> int:
    """value as an int; ScenarioError naming the field unless it is an
    integral number (non-finite numbers and bools are not)."""
    if type(value) is int:
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not number.is_integer():
        raise ScenarioError(f"{prefix}{name} must be an integer")
    return int(number)


def _get(section: dict, key: str, where: str):
    """section[key]; ScenarioError naming the field if it is missing, or
    naming where if section is no mapping."""
    try:
        return section[key]
    except KeyError:
        raise ScenarioError(
            f"{where}: missing required field '{key}'") from None
    except TypeError:
        raise ScenarioError(f"{where} must be a mapping") from None


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _holds_bool(value) -> bool:
    """Whether value is a bool or a list holding one at any depth, checked
    a nesting level at a time."""
    if value.__class__ is not list:
        return value.__class__ is bool
    while True:
        types = set(map(type, value))
        if bool in types or list not in types:
            return bool in types
        value = [x for v in value if v.__class__ is list for x in v]


def _numeric(convert, section: dict, key: str, where: str):
    """convert(_get(section, key, where)), convert being float or _floats;
    ScenarioError naming the field if its value is or holds a bool, which
    float would read as 0 or 1, or if convert refuses its value's type."""
    value = _get(section, key, where)
    try:
        if not _holds_bool(value):
            return convert(value)
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{where}: {key} must be numeric, got "
                        f"{reprlib.repr(value)}")


def _per_target(section: dict, key: str, n_targets: int,
                where: str) -> np.ndarray:
    arr = np.atleast_1d(_numeric(_floats, section, key, where))
    return np.full(n_targets, arr[0]) if arr.size == 1 else arr


def _complex_matrix(arr: np.ndarray, shape: tuple[int, int],
                    where: str) -> np.ndarray:
    _require(arr.shape == (*shape, 2),
             f"{where}: expected {shape[0]}x{shape[1]} [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_radar(section: dict, idx: int, n_targets: int) -> RadarNode:
    where = f"radars[{idx}]"
    kind_raw = str(_get(section, "kind", where)).lower()
    try:
        kind = RadarKind(kind_raw)
    except ValueError:
        raise ScenarioError(f"{where}: unknown radar kind '{kind_raw}'") from None
    return RadarNode(
        id=_integer(f"{where}: ", "id", section.get("id", idx + 1)),
        kind=kind,
        position=_numeric(_floats, section, "position", where),
        bandwidth=_numeric(float, section, "bandwidth", where),
        beamwidth=_numeric(float, section, "beamwidth", where),
        noise_var=_numeric(float, section, "noise_var", where),
        range_const=_numeric(float, section, "range_const", where),
        bearing_const=_numeric(float, section, "bearing_const", where),
        initial_time=_per_target(section, "initial_time", n_targets, where),
        revisit_interval=_per_target(section, "revisit_interval", n_targets,
                                     where),
        **{name: _numeric(float, section, name, where)
           for name in RESOURCE_FIELDS[kind]},
    )


def validate(scenario: Scenario) -> None:
    """Check every scenario invariant; raise ScenarioError naming the first
    violation."""
    grid = scenario.grid
    _check("grid.", "interval_length", grid.interval_length, "> 0")
    _require(grid.num_intervals >= 1, "grid.num_intervals must be >= 1")
    _check("grid.", "start_time", grid.start_time)

    q_n = scenario.n_targets
    _require(q_n >= 1, "at least one target required")
    _require(scenario.n_radars >= 1, "at least one radar required")

    kinds = [r.kind for r in scenario.radars]
    _require(kinds == sorted(kinds, key=list(RESOURCE_FIELDS).index),
             "radars must be listed grouped as MMR, then PAR, then MSR")

    for i, r in enumerate(scenario.radars):
        prefix = f"radars[{i}]: "
        _require(r.position.shape == (2,), f"{prefix}position must be (x, y)")
        _check(prefix, "position", r.position)
        for name in ("initial_time", "revisit_interval"):
            _require(np.shape(getattr(r, name)) == (q_n,),
                     f"{prefix}{name} must give one value per target")
        for name in ("bandwidth", "beamwidth", "noise_var", "range_const",
                     "bearing_const", "revisit_interval",
                     *RESOURCE_FIELDS[r.kind]):
            _check(prefix, name, getattr(r, name), "> 0")
        _check(prefix, "initial_time", r.initial_time, ">= 0")
        # a scanning radar (MMR, MSR) sweeps past every target once a scan
        _require(r.kind is RadarKind.PAR
                 or (r.revisit_interval == r.revisit_interval[0]).all(),
                 f"{prefix}{r.kind.value} revisit_interval must be "
                 "identical across targets")

    comm = scenario.comm
    n = scenario.n_radars
    _require(comm.num_links >= 1, "comm.num_links must be >= 1")
    _check("comm.", "noise_var", comm.noise_var, "> 0")
    _check("comm.", "power_budget", comm.power_budget, "> 0")
    floor_shapes = ((comm.num_links,), (comm.num_links, grid.num_intervals))
    _require(comm.throughput_floor.shape in floor_shapes,
             f"comm.throughput_floor must have shape {floor_shapes[0]} or "
             f"{floor_shapes[1]}, got {comm.throughput_floor.shape}")
    _check("comm.", "throughput_floor", comm.throughput_floor, ">= 0")
    _require(comm.radar_to_comm_gain.shape == (comm.num_links, n),
             "comm.radar_to_comm_gain must be J x N")
    _require(comm.comm_to_radar_gain.shape == (n, comm.num_links),
             "comm.comm_to_radar_gain must be N x J")
    _require(np.isfinite(comm.radar_to_comm_gain).all()
             and np.isfinite(comm.comm_to_radar_gain).all(),
             "comm gains must be finite")

    for t_idx, t in enumerate(scenario.targets):
        prefix = f"targets[{t_idx}]: "
        _require(t.initial_state.shape == (4,),
                 f"{prefix}initial_state must be [x, vx, y, vy]")
        _check(prefix, "initial_state", t.initial_state)
        _check(prefix, "process_noise_intensity", t.process_noise_intensity,
               ">= 0")
        _require(t.rcs.shape == (n,), f"{prefix}rcs must give one value per radar")
        _check(prefix, "rcs", t.rcs, "> 0")


_CORE_SCALARS = {f"tag:yaml.org,2002:{name}":
                 getattr(SafeConstructor, f"construct_yaml_{name}")
                 for name in ("str", "int", "float", "bool", "null")}


class _Fallback(Exception):
    """The document holds something outside what _build_document builds."""


def _scalar(loader, tag, value: str, plain: bool):
    """The object yaml.load builds from one scalar event: a tag of None or
    "!" resolved by the loader's resolve, as its composer does, then the
    tag's SafeConstructor method.  Raises _Fallback for a tag outside the
    five core scalar tags, and where the constructor fails on the value
    (ValueError; KeyError and IndexError, the LookupErrors of a bad bool and
    an empty int or float)."""
    if tag is None or tag == "!":
        tag = loader.resolve(yaml.ScalarNode, value, (plain, False))
    if tag not in _CORE_SCALARS:
        raise _Fallback
    try:
        return _CORE_SCALARS[tag](loader, yaml.ScalarNode(tag, value))
    except (ValueError, LookupError):
        raise _Fallback from None


def _build_document(loader):
    """yaml.load's object for the one document of loader's event stream,
    built in one pass: containers are lists on a stack (a mapping's as its
    keys and values in turn, made a dict at its end), and each distinct
    (tag, value, plain) scalar is built once by _scalar.

    Raises _Fallback, having read part of the stream, at an anchor or
    alias, a collection tag other than "!", a non-scalar mapping key, or a
    second document."""
    get_event = loader.get_event
    get_event()  # stream start
    if isinstance(get_event(), yaml.StreamEndEvent):
        return None
    built = {}
    top, in_map, stack = [], False, []
    while True:
        event = get_event()
        cls = event.__class__
        if cls is yaml.ScalarEvent:
            if event.anchor is not None:
                raise _Fallback
            key = (event.tag, event.value, event.implicit[0])
            if key not in built:
                built[key] = _scalar(loader, *key)
            top.append(built[key])
        elif cls is yaml.MappingStartEvent or cls is yaml.SequenceStartEvent:
            if (event.anchor is not None or event.tag not in (None, "!")
                    or (in_map and len(top) % 2 == 0)):
                raise _Fallback
            stack.append((top, in_map))
            top, in_map = [], cls is yaml.MappingStartEvent
        elif cls is yaml.MappingEndEvent or cls is yaml.SequenceEndEvent:
            value = top
            if in_map:
                pairs = iter(top)
                value = dict(zip(pairs, pairs))
            top, in_map = stack.pop()
            top.append(value)
        elif cls is yaml.DocumentEndEvent:
            break
        else:  # an alias
            raise _Fallback
    if not isinstance(get_event(), yaml.StreamEndEvent):
        raise _Fallback
    return top[0]


def _load_yaml(stream):
    """yaml.load's object for the one document in stream (a string or a
    seekable file), parsed by libyaml where PyYAML has it and by SafeLoader
    otherwise, with SafeLoader's resolver and scalar constructors either
    way, built by _build_document.

    A document outside that subset is built by yaml.load from the start of
    the stream again, which alone keeps yaml.load's object sharing, its
    merge-key handling and the order in which its errors surface; a file
    keeps its name in the error marks."""
    loader_cls = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    start = stream.tell() if hasattr(stream, "seek") else None
    loader = loader_cls(stream)
    try:
        return _build_document(loader)
    except _Fallback:
        pass
    finally:
        loader.dispose()
    if start is not None:
        stream.seek(start)
    return yaml.load(stream, Loader=loader_cls)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    try:
        with open(path) as fh:
            raw = _load_yaml(fh)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"parse error in {path}: top level must be a mapping")

    for section in ("grid", "radars", "comm", "targets"):
        if section not in raw:
            raise ScenarioError(f"missing section '{section}'")
    for section in ("radars", "targets"):
        _require(isinstance(raw[section], list), f"{section} must be a list")

    g = raw["grid"]
    grid = FusionGrid(
        interval_length=_numeric(float, g, "interval_length", "grid"),
        num_intervals=_integer("grid.", "num_intervals",
                               _get(g, "num_intervals", "grid")),
        start_time=(_numeric(float, g, "start_time", "grid")
                    if "start_time" in g else 0.0),
    )

    targets_raw = raw["targets"]
    q_n = len(targets_raw)
    radars = [_parse_radar(sec, i, q_n) for i, sec in enumerate(raw["radars"])]
    n = len(radars)
    # before comm, whose J x 0 gain matrices would fail first
    _require(n >= 1, "at least one radar required")

    c = raw["comm"]
    j_n = _integer("comm.", "num_links", _get(c, "num_links", "comm"))
    comm = CommSystem(
        num_links=j_n,
        noise_var=_numeric(float, c, "noise_var", "comm"),
        power_budget=_numeric(float, c, "power_budget", "comm"),
        throughput_floor=_numeric(_floats, c, "throughput_floor", "comm"),
        radar_to_comm_gain=_complex_matrix(
            _numeric(_floats, c, "radar_to_comm_gain", "comm"), (j_n, n),
            "comm.radar_to_comm_gain"),
        comm_to_radar_gain=_complex_matrix(
            _numeric(_floats, c, "comm_to_radar_gain", "comm"), (n, j_n),
            "comm.comm_to_radar_gain"),
    )

    targets = []
    for t_idx, sec in enumerate(targets_raw):
        where = f"targets[{t_idx}]"
        # the required fields first, so _get names a target that is no
        # mapping
        targets.append(TargetTruth(
            initial_state=_numeric(_floats, sec, "initial_state", where),
            process_noise_intensity=_numeric(
                float, sec, "process_noise_intensity", where),
            rcs=_numeric(_floats, sec, "rcs", where),
            id=_integer(f"{where}: ", "id", sec.get("id", t_idx + 1)),
        ))

    scenario = Scenario(radars=radars, comm=comm, targets=targets, grid=grid)
    validate(scenario)
    return scenario


def default_scenario_path() -> str:
    """Path of the packaged default scenario file."""
    return str(resources.files("hrcn").joinpath("data/default.yaml"))


def build_schedule(scenario: Scenario) -> MeasurementSchedule:
    """Derive the measurement times per (radar, target, interval) and lay
    them out as one row table, block by (interval, target) block.

    Times are the arithmetic progression initial_time + n * revisit_interval
    up to the horizon, each in the half-open window (t_k, t_{k+1}] that
    contains it; boundary points belong to the interval they close.  The
    times are laid out target by target and radar by radar, then sorted
    stably by (interval, target) block.
    """
    grid = scenario.grid
    n, q_n, k_n = scenario.n_radars, scenario.n_targets, grid.num_intervals
    lo, hi = grid.boundary(np.arange(k_n))
    horizon = hi[-1]
    positions = np.array([r.position for r in scenario.radars], dtype=float)
    kernels = np.array([[const_kernel(r, target.rcs[i])
                         for i, r in enumerate(scenario.radars)]
                        for target in scenario.targets])
    pts = []
    for q in range(q_n):
        for radar in scenario.radars:
            t0 = radar.initial_time[q]
            rev = radar.revisit_interval[q]
            n_pts = max(0, int(np.floor((horizon - t0) / rev)) + 1)
            p = t0 + rev * np.arange(n_pts)
            pts.append(p[p <= horizon])
    times = np.concatenate(pts)
    target, radar = np.divmod(np.repeat(np.arange(q_n * n),
                                        [len(p) for p in pts]), n)
    # the first window closing at or after each time, kept if it opened
    # before it
    k = np.minimum(np.searchsorted(hi, times), k_n - 1)
    keep = (lo[k] < times) & (times <= hi[k])
    block = k * q_n + target
    sel = np.flatnonzero(keep)[np.argsort(block[keep], kind="stable")]
    radar, target, k = radar[sel], target[sel], k[sel]
    counts = np.bincount((radar * q_n + target) * k_n + k,
                         minlength=n * q_n * k_n).reshape(n, q_n, k_n)
    return MeasurementSchedule(
        counts=counts,
        rows=MeasurementRows(times=times[sel], radar=radar,
                             radar_xy=positions[radar],
                             kernel=kernels[target, radar]),
        bounds=np.searchsorted(block[sel], np.arange(k_n * q_n + 1)))
