"""The package's public surface, pinned: a name added to or dropped from
``planset.__all__`` must show up as a change to this list.  The module
bindings the benchmark's tracer patches are pinned here too."""

import ast
import importlib
from pathlib import Path

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


def test_all_is_pinned():
    assert sorted(planset.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from planset import *", namespace)  # AttributeError on a missing name
    assert set(PUBLIC_NAMES) <= set(namespace)


# Names the benchmark's tracer (perfbench/tracer.py) replaces through
# ``owner.__dict__[attr]``.  One that is renamed, or only reachable through
# another module, makes ``perfbench/run.py --trace 1`` die with a KeyError.
TRACED_MODULE_NAMES = {
    "planset.extraction": ("extract_plans", "materialize_plan", "min_pairwise_diversity"),
    "planset.experiment": ("run_search", "extract_plans", "materialize_plan", "run_random_baseline", "execute_plan"),
    "planset.gridworld": ("execute_plan",),
    "planset.mcts": ("rollout",),
}
TRACED_METHODS = {
    "PlanningSimulator": ("step", "legal_actions", "default_action", "state_key", "initial_state"),
    "SearchTree": ("add_child", "backpropagate", "to_text", "from_text"),
}


def test_every_name_the_tracer_patches_is_bound_where_it_looks():
    for module_name, names in TRACED_MODULE_NAMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(module.__dict__.get(name)), f"{module_name}.{name}"
    owners = {"PlanningSimulator": planset.PlanningSimulator, "SearchTree": planset.SearchTree}
    for owner_name, names in TRACED_METHODS.items():
        for name in names:
            assert name in owners[owner_name].__dict__, f"{owner_name}.{name}"


def test_no_module_imports_another_modules_private_names():
    """A name one module needs from another is that module's public name,
    even when it stays out of ``__all__``."""
    found = []
    for path in sorted(Path(planset.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("planset")):
                found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_keeps_an_unused_import_or_private_name():
    """Dead code a deletion can leave behind: a name a module imports and
    never reads, or a module-level ``_private`` name it never references.
    ``__init__`` re-exports its imports through ``__all__``, and a string
    annotation is read as the expression it spells."""
    found = []
    for path in sorted(Path(planset.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        nodes = list(ast.walk(module))
        for node in nodes:
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                nodes += ast.walk(ast.parse(annotation.value, mode="eval"))
        read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set(getattr(importlib.import_module(f"planset.{path.stem}"), "__all__", ()))
        for node in module.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                found += [f"{path.name}: import {name}" for name in bound if name not in read | exported]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
            found += [f"{path.name}: {name}" for name in private if name not in read]
    assert found == []
