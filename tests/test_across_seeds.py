"""Claims that hold across seeds, not only at the seed the acceptance gate
runs: the optimized policy's average RMSE below uniform's at criterion 6's
size, and its metric g at least uniform's in every interval of seeded
generated networks."""

import os
import sys

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


def test_optimized_g_at_least_uniform_on_generated_nets():
    # each policy's g of interval k on the priors its own plan chains, as
    # compare_allocations reports them
    invalid, ratios = 0, {}
    for seed in range(20):
        try:
            sc = large_net(seed)
        except ScenarioError:
            invalid += 1
            continue
        sch = build_schedule(sc)
        horizon = planning_horizon(sc, sch)
        g_opt, g_uni = (plan_allocations(sc, sch, policy,
                                         horizon=horizon)[1]
                        for policy in ("optimized", "uniform"))
        for k, (g, g_base) in enumerate(zip(g_opt, g_uni, strict=True)):
            ratios[seed, k] = g / g_base
    assert invalid == INVALID_LARGE_NET_DRAWS
    worst = min(ratios, key=ratios.get)
    assert ratios[worst] >= 1.0 - 1e-12, (worst, ratios[worst])
