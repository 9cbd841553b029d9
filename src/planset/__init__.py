"""Bounded plan-set generation from Monte Carlo search trees.

Build a tree over any black-box simulator with :func:`run_search`, then pull
out plans with :func:`extract_plans`: the single best plan (k=1), the top-k,
everything above a quality floor, or a maximally high-quality set whose
members stay pairwise diverse.  Extraction is a pure read of the finished
tree, so different bounds can be re-applied without searching again.
"""

from .extraction import (
    EmptyTreeError,
    ExtractionConfig,
    extract_plans,
)
from .gridworld import (
    ACTION_NAMES,
    DroneState,
    ExecutionOutcome,
    GridWorld,
    PlanningSimulator,
    execute_plan,
    generate_instance,
    parse_map,
    render_map,
    shortest_unobstructed_path,
)
from .mcts import (
    BanditConfig,
    SearchConfig,
    Simulator,
    SimulatorError,
    rollout,
    run_search,
)
from .metrics import (
    Plan,
    PlanSet,
    materialize_plan,
    min_pairwise_diversity,
)
from .experiment import (
    ExperimentConfig,
    PlannerKind,
    PlannerSpec,
    ResultRecord,
    desk_profile,
    paper_profile,
    run_experiment,
    run_random_baseline,
)
from .stats import summarize, two_proportion_z_test
from .tree import SearchTree, ValueMode

__version__ = "0.1.0"

__all__ = [
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
    "ResultRecord",
    "SearchConfig",
    "SearchTree",
    "Simulator",
    "SimulatorError",
    "ValueMode",
    "desk_profile",
    "execute_plan",
    "extract_plans",
    "generate_instance",
    "materialize_plan",
    "min_pairwise_diversity",
    "paper_profile",
    "parse_map",
    "render_map",
    "rollout",
    "run_experiment",
    "run_random_baseline",
    "run_search",
    "shortest_unobstructed_path",
    "summarize",
    "two_proportion_z_test",
]
