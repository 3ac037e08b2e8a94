"""Benchmark inputs built from the workload seed: the seeded ``large-net``
scenario, throughput-floor variants of a scenario, and a YAML writer so the
generated scenarios reach ``hrcn`` through its command line like any user's.

Only the public ``hrcn.scenario`` dataclasses and ``validate`` are used.
"""

import numpy as np
import yaml

from hrcn.scenario import (CommSystem, FusionGrid, RadarKind, RadarNode,
                           Scenario, TargetTruth, validate)

# Template of the large network: (kind, nominal site in m).  The seed jitters
# every site, gain, cross-section and start state around this template, so
# every draw has the same shape and size.
_SITES = (
    ("mmr", (0.0, 0.0)), ("mmr", (12000.0, 0.0)),
    ("mmr", (0.0, 12000.0)), ("mmr", (12000.0, 12000.0)),
    ("par", (6000.0, 0.0)), ("par", (0.0, 6000.0)), ("par", (12000.0, 6000.0)),
    ("msr", (6000.0, 12000.0)), ("msr", (6000.0, 6000.0)),
)
_TARGETS = (  # nominal [x, vx, y, vy]
    (2000.0, 110.0, 3000.0, 70.0),
    (10000.0, -100.0, 9000.0, -80.0),
    (3000.0, 90.0, 10000.0, -95.0),
)
LARGE_NET_LINKS = 4
LARGE_NET_INTERVALS = 6
_SITE_JITTER_M = 300.0
_REVISIT_S = {"mmr": 1.2, "par": 1.5, "msr": 1.2}


def large_net(seed: int) -> Scenario:
    """Seeded 9-radar / 3-target / 4-link scenario with fast revisit.

    The same seed always gives the same scenario.  An invalid draw raises
    ScenarioError; it is never redrawn.  Infeasible floors or unfusable
    geometry surface later as failed ``hrcn`` commands.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A46E]))
    q_n, j_n = len(_TARGETS), LARGE_NET_LINKS
    radars = []
    for idx, (kind, site) in enumerate(_SITES):
        rev = _REVISIT_S[kind]
        start = rng.uniform(0.2, rev)
        node = RadarNode(
            id=idx + 1, kind=RadarKind(kind),
            position=np.asarray(site) + rng.uniform(-_SITE_JITTER_M,
                                                    _SITE_JITTER_M, 2),
            bandwidth=1.0e6, beamwidth=0.05, noise_var=1.0,
            range_const=1.0e-10, bearing_const=1.6e-3,
            # MMR and MSR sweep all targets together; PAR revisits per target
            initial_time=(np.full(q_n, start) if kind != "par"
                          else rng.uniform(0.2, rev, q_n)),
            revisit_interval=np.full(q_n, rev))
        if kind == "mmr":
            node.fixed_dwell, node.power_budget = 0.02, 100.0
        elif kind == "par":
            node.fixed_power, node.time_budget = 50.0, 0.15
        else:
            node.fixed_power, node.fixed_dwell = 40.0, 0.015
        radars.append(node)
    n = len(radars)

    def gains(shape, lo, hi):
        mag = rng.uniform(lo, hi, shape)
        phase = rng.uniform(-np.pi, np.pi, shape)
        return mag * np.exp(1j * phase)

    comm = CommSystem(
        num_links=j_n, noise_var=0.1, power_budget=40.0,
        throughput_floor=np.full(j_n, 2.0),
        radar_to_comm_gain=gains((j_n, n), 0.01, 0.03),
        comm_to_radar_gain=gains((n, j_n), 0.08, 0.2))
    targets = [TargetTruth(
        id=q + 1,
        initial_state=np.asarray(st) + rng.uniform(-1, 1, 4) * [300, 10, 300, 10],
        process_noise_intensity=1.0,
        rcs=rng.uniform(0.8, 1.2, n)) for q, st in enumerate(_TARGETS)]
    scenario = Scenario(radars=radars, comm=comm, targets=targets,
                        grid=FusionGrid(interval_length=6.0,
                                        num_intervals=LARGE_NET_INTERVALS))
    validate(scenario)
    return scenario


def max_uniform_floor(scenario: Scenario, schedule) -> float:
    """Largest floor (nats) that every link can meet in every interval when
    all links share it, radar resources are zero and the base station splits
    its budget as needed: the LP bound of ``assemble_constraints``."""
    comm = scenario.comm
    t0 = scenario.grid.interval_length
    fixed = np.zeros((comm.num_links, scenario.grid.num_intervals))
    for i, node in enumerate(scenario.radars):
        if node.kind is RadarKind.MSR:
            energy = node.fixed_power * node.fixed_dwell
            m = schedule.counts[i].sum(axis=0)          # (K,)
            fixed += comm.alpha_r_sq[:, i, None] * m[None, :] * energy
    need = (fixed + comm.noise_var * t0).sum(axis=0)    # (K,)
    return float(np.log1p(t0 * comm.power_budget / need.max()))


def floor_variants(scenario: Scenario, schedule, seed: int,
                   n_variants: int) -> list[np.ndarray]:
    """Per-link floors from slack to tight-but-feasible.

    Variant v loads the links to the midpoint of the v-th of n equal strata
    of [0.05, 0.85] of the feasible maximum, and the seed spreads the load
    over the links, each within 1% of the most loaded.  Fixed loads keep the
    solver work of a sweep nearly the same for every seed (1004-1012 solver
    iterations over 8 variants for seeds 1, 2 and 5 of the default scenario).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1007]))
    top = np.expm1(max_uniform_floor(scenario, schedule))
    out = []
    for v in range(n_variants):
        load = 0.05 + 0.8 * (v + 0.5) / n_variants
        share = rng.uniform(0.99, 1.0, scenario.comm.num_links)
        out.append(np.log1p(load * top * share / share.max()))
    return out


def _pairs(z: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in z]


def to_yaml(scenario: Scenario, path: str) -> None:
    """Write a scenario in the schema ``hrcn.scenario.load_scenario`` reads.
    ``repr`` of each float keeps every digit, so the round trip is exact."""
    radars = []
    for r in scenario.radars:
        sec = {"id": r.id, "kind": r.kind.value,
               "position": [float(x) for x in r.position],
               "bandwidth": r.bandwidth, "beamwidth": r.beamwidth,
               "noise_var": r.noise_var, "range_const": r.range_const,
               "bearing_const": r.bearing_const,
               "initial_time": [float(x) for x in r.initial_time],
               "revisit_interval": [float(x) for x in r.revisit_interval]}
        for key in ("fixed_dwell", "fixed_power", "power_budget",
                    "time_budget"):
            if getattr(r, key) is not None:
                sec[key] = float(getattr(r, key))
        radars.append(sec)
    c = scenario.comm
    doc = {
        "grid": {"interval_length": scenario.grid.interval_length,
                 "num_intervals": scenario.grid.num_intervals,
                 "start_time": scenario.grid.start_time},
        "radars": radars,
        "comm": {"num_links": c.num_links, "noise_var": c.noise_var,
                 "power_budget": c.power_budget,
                 "throughput_floor": np.asarray(c.throughput_floor).tolist(),
                 "radar_to_comm_gain": _pairs(c.radar_to_comm_gain),
                 "comm_to_radar_gain": _pairs(c.comm_to_radar_gain)},
        "targets": [{"id": t.id,
                     "initial_state": [float(x) for x in t.initial_state],
                     "process_noise_intensity": t.process_noise_intensity,
                     "rcs": [float(x) for x in t.rcs]}
                    for t in scenario.targets],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def scenario_size(scenario: Scenario, schedule) -> dict:
    """Shape of a scenario as the layers see it."""
    kinds = [r.kind.value for r in scenario.radars]
    q_n, k_n = scenario.n_targets, scenario.grid.num_intervals
    total = int(schedule.counts.sum())
    mmr, par = kinds.count("mmr"), kinds.count("par")
    return {"mmr": mmr, "par": par, "msr": kinds.count("msr"),
            "Q": q_n, "J": scenario.comm.num_links, "K": k_n,
            "dim": (mmr + par) * q_n + scenario.comm.num_links,
            "measurements": total,
            "mean_M_per_fix": total / (q_n * k_n)}
