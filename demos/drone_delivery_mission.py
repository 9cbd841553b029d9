"""One drone-delivery instance, planned blind and executed against hidden enemies.

The search tree is built on a simulator with the enemies stripped out, so
the planners only know the geometry.  Each planner then commits to its plan
set, and every plan is flown in the true world.  On this instance the
optimal route happens to cross an enemy cell: the single planner dies, and
only a plan set that spreads over the map gets a drone through -- the
situation diverse planning exists for.

Run:  python3 demos/drone_delivery_mission.py
"""

import sys

from planset import (
    ACTION_NAMES,
    BanditConfig,
    ExtractionConfig,
    PlanningSimulator,
    SearchConfig,
    ValueMode,
    execute_plan,
    extract_plans,
    generate_instance,
    render_map,
    run_random_baseline,
    run_search,
    shortest_unobstructed_path,
)
import numpy as np

SEED = 30  # 6x6 map at 25% enemy occupancy where route choice decides the mission

world = generate_instance(6, 6, risk=0.25, rng=SEED)
print("true world (S start, G goal, E hidden enemy):")
print(render_map(world))
print(f"shortest unobstructed path: {shortest_unobstructed_path(world)} steps")

# Plan on the enemy-free view of the same map.
sim = PlanningSimulator(world)
config = SearchConfig(
    iterations=6000,
    max_rollout_steps=24,
    value_mode=ValueMode.MAX,
    bandit=BanditConfig(exploration_c=0.1),
    seed=SEED,
)
tree = run_search(sim, config)
print(f"search tree: {len(tree.nodes)} nodes after {config.iterations} playouts\n")

planners = {
    "single": extract_plans(tree, ExtractionConfig(k=1)),
    "top-5": extract_plans(tree, ExtractionConfig(k=5)),
    "top-quality (q=0.8)": extract_plans(tree, ExtractionConfig(k=5, q=0.8)),
    "diverse (q=0.8, d=0.5)": extract_plans(tree, ExtractionConfig(k=5, q=0.8, d=0.5)),
    "random baseline": run_random_baseline(tree, 5, np.random.default_rng(SEED)),
}

delivered = {}
for name, plan_set in planners.items():
    outcomes = [execute_plan(world, plan.actions) for plan in plan_set]
    landed = [o for o in outcomes if o.reached_goal]
    delivered[name] = min((o.path_length for o in landed), default=None)
    verdict = f"DELIVERED in {delivered[name]} steps" if landed else "all drones lost"
    print(f"{name:24s} {len(plan_set.plans)} plan(s) -> {verdict}")
    for plan, outcome in zip(plan_set, outcomes):
        moves = "".join(ACTION_NAMES[a] for a in plan.actions)
        status = "goal" if outcome.reached_goal else ("shot down" if outcome.shot_down else "ran out of plan")
        print(f"    q={plan.relative_quality:.3f}  {moves:14s} {status} after {outcome.path_length} steps")
    print()

if delivered["single"] is not None or delivered["diverse (q=0.8, d=0.5)"] != 7:
    sys.exit(f"check failed: expected single to lose every drone and diverse to deliver in 7 steps, got {delivered}")
print("checked: single loses every drone, diverse (q=0.8, d=0.5) delivers in 7 steps")
