"""Claims that hold across seeds, not only at the seed the acceptance gate
runs: the optimized policy's average RMSE below uniform's at criterion 6's
size, and on seeded generated networks its metric g at least uniform's in
every interval and every policy's plan feasible by criterion 5."""

import os
import sys

import pytest

from hrcn.allocator import (AllocationLayout, assemble_constraints,
                            throughput_r)
from hrcn.harness import (compare_allocations, plan_allocations,
                          planning_horizon)
from hrcn.scenario import ScenarioError, build_schedule

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from scenarios import large_net  # noqa: E402

# the large_net draws of seeds 0-19 that raise ScenarioError: counted, not
# skipped around
INVALID_LARGE_NET_DRAWS = 0


def test_optimized_rmse_below_uniform_at_every_seed(scenario):
    # criterion 6's size: the default scenario, 100 common-random-number
    # trials per seed
    margins = {}
    for seed in range(10):
        result = compare_allocations(scenario, ["optimized", "uniform"],
                                     n_trials=100, seed=seed)
        margins[seed] = (result.policies["uniform"].avg_rmse
                         - result.policies["optimized"].avg_rmse)
    worst = min(margins, key=margins.get)
    assert margins[worst] > 0.0, (worst, margins[worst])


@pytest.fixture(scope="module")
def large_net_plans():
    """(draws that raise ScenarioError, {seed: (scenario, schedule, {policy:
    (allocations, g values)})}) of the large_net draws of seeds 0-19: each
    policy's plan and g of every interval on the priors its own plan chains,
    as compare_allocations reports them."""
    invalid, plans = 0, {}
    for seed in range(20):
        try:
            sc = large_net(seed)
        except ScenarioError:
            invalid += 1
            continue
        sch = build_schedule(sc)
        horizon = planning_horizon(sc, sch)
        plans[seed] = sc, sch, {
            policy: plan_allocations(sc, sch, policy, horizon=horizon)[:2]
            for policy in ("optimized", "uniform", "random")}
    return invalid, plans


def test_optimized_g_at_least_uniform_on_generated_nets(large_net_plans):
    invalid, plans = large_net_plans
    ratios = {}
    for seed, (_, _, by_policy) in plans.items():
        g_opt, g_uni = by_policy["optimized"][1], by_policy["uniform"][1]
        for k, (g, g_base) in enumerate(zip(g_opt, g_uni, strict=True)):
            ratios[seed, k] = g / g_base
    assert invalid == INVALID_LARGE_NET_DRAWS
    worst = min(ratios, key=ratios.get)
    assert ratios[worst] >= 1.0 - 1e-12, (worst, ratios[worst])


def test_every_plan_feasible_on_generated_nets(large_net_plans):
    # criterion 5's tolerances on every policy's plan of every interval:
    # A z <= b + 1e-9, z >= 0 and every throughput floor met within 1e-9
    invalid, plans = large_net_plans
    assert invalid == INVALID_LARGE_NET_DRAWS
    excess, floor_margin = {}, {}
    for seed, (sc, sch, by_policy) in plans.items():
        layout = AllocationLayout.from_scenario(sc)
        for policy, (allocs, _) in by_policy.items():
            for k, z in enumerate(allocs):
                A, b, _ = assemble_constraints(sc, sch, k)
                excess[seed, policy, k] = float((A @ z - b).max())
                assert z.min() >= 0, (seed, policy, k)
                floor_margin[seed, policy, k] = min(
                    throughput_r(j, z, sc, layout, sch.counts[:, :, k])
                    - sc.comm.floor(j, k) for j in range(sc.comm.num_links))
    assert len(excess) == 3 * sum(sc.grid.num_intervals
                                  for sc, _, _ in plans.values())
    worst = max(excess, key=excess.get)
    assert excess[worst] <= 1e-9, (worst, excess[worst])
    worst = min(floor_margin, key=floor_margin.get)
    assert floor_margin[worst] >= -1e-9, (worst, floor_margin[worst])
