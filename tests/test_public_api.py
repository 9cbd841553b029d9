"""The package's public surface, pinned: a name added to or dropped from
``planset.__all__`` must show up as a change to this list."""

import planset

PUBLIC_NAMES = [
    "ACTION_NAMES",
    "BanditConfig",
    "DroneState",
    "EmptyTreeError",
    "ExecutionOutcome",
    "ExperimentConfig",
    "ExtractionConfig",
    "GridWorld",
    "Plan",
    "PlanSet",
    "PlannerKind",
    "PlannerSpec",
    "PlanningSimulator",
    "Policy",
    "ResultRecord",
    "SearchConfig",
    "SearchTree",
    "Simulator",
    "SimulatorError",
    "TreeTooLargeError",
    "ValueMode",
    "absolute_quality",
    "brute_force_enumerate",
    "desk_profile",
    "execute_plan",
    "extract_plans",
    "generate_instance",
    "materialize_plan",
    "min_pairwise_diversity",
    "paper_profile",
    "parse_map",
    "relative_plan_quality",
    "render_map",
    "rollout",
    "run_experiment",
    "run_random_baseline",
    "run_search",
    "shortest_unobstructed_path",
    "summarize",
    "two_proportion_z_test",
]


def test_all_is_pinned():
    assert sorted(planset.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from planset import *", namespace)  # AttributeError on a missing name
    assert set(PUBLIC_NAMES) <= set(namespace)
