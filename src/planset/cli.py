"""Command-line front door: experiment sweeps, one-off planning, extraction.

Subcommands:
  experiment  run a risk sweep from a config file and/or flags, write CSV
  plan        search one world map and print the best plan
  extract     extract a bounded plan set from a serialized tree (CSV)

Config files and flags are cast through one key table, ``CONFIG_KEYS``.

Exit codes: 0 success, 1 configuration error, 2 runtime fault.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .extraction import ExtractionConfig, extract_plans
from .gridworld import ACTION_NAMES, DroneState, PlanningSimulator, parse_map, shortest_unobstructed_path
from .mcts import BanditConfig, SearchConfig, run_search
from .experiment import (
    PROFILES,
    ConfigError,
    ExperimentConfig,
    PlannerKind,
    PlannerSpec,
    run_experiment,
    spaced_risk_levels,
)
from .stats import render_summary, summarize
from .tree import SearchTree, ValueMode


# -- config files ----------------------------------------------------------
#
# Flat UTF-8 `key = value` lines with `#` comments, each key at most once.
# Every key can also be given as a CLI flag of the same name.


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line each key was set on
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def _planner_k(text: str) -> float:
    """An int when whole, else a float: ``inf``, or 2.5 for PlannerSpec to refuse."""
    value = float(text)
    return int(value) if value.is_integer() else value


def parse_planners(text: str) -> tuple[PlannerSpec, ...]:
    """Parse ``kind[:k[:q[:d]]]`` entries separated by commas or whitespace."""
    specs = []
    for token in text.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) > 4:
            raise ConfigError(f"too many ':' fields in {token!r} (expected kind[:k[:q[:d]]])")
        try:
            kind = PlannerKind(parts[0])
        except ValueError as exc:
            raise ConfigError(f"unknown planner kind {parts[0]!r}") from exc
        try:
            k = _planner_k(parts[1]) if len(parts) > 1 else (1 if kind is PlannerKind.SINGLE else 5)
            q = float(parts[2]) if len(parts) > 2 else 0.0
            d = float(parts[3]) if len(parts) > 3 else 0.0
        except ValueError as exc:
            raise ConfigError(f"bad planner bounds in {token!r}") from exc
        specs.append(PlannerSpec(kind, k=k, q=q, d=d))
    if not specs:
        raise ConfigError("no planners given")
    return tuple(specs)


def _risk_levels(text: str) -> tuple[float, ...]:
    """Explicit levels when any comma or point appears, else an even count."""
    if "," in text or "." in text:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    return spaced_risk_levels(int(text))


# Every setting: the config it overrides a field of (None for the profile,
# which picks the config the other keys override) and the cast from its
# string value.  The field is named like the key.
CONFIG_KEYS: dict[str, tuple[type | None, Callable[[str], object]]] = {
    "profile": (None, str),
    "risk_levels": (ExperimentConfig, _risk_levels),
    "replications_per_level": (ExperimentConfig, int),
    "width": (ExperimentConfig, int),
    "height": (ExperimentConfig, int),
    "iterations": (SearchConfig, int),
    "max_rollout_steps": (SearchConfig, int),
    "value_mode": (SearchConfig, ValueMode),
    "exploration_c": (BanditConfig, float),
    "master_seed": (ExperimentConfig, int),
    "detection_radius": (ExperimentConfig, int),
    "rollout_greedy_p": (ExperimentConfig, float),
    "workers": (ExperimentConfig, int),
    "planners": (ExperimentConfig, parse_planners),
    "output_path": (ExperimentConfig, lambda text: text or None),
}


def config_from_mapping(values: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string settings (file or flags)."""
    profile = values.get("profile", "desk")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r} (choose from {sorted(PROFILES)})")
    fields: dict[type, dict[str, object]] = {ExperimentConfig: {}, SearchConfig: {}, BanditConfig: {}}
    try:
        for key, text in values.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            target, cast = CONFIG_KEYS[key]
            if target is not None:
                fields[target][key] = cast(text)
        config = PROFILES[profile]()
        bandit = replace(config.search.bandit, **fields[BanditConfig])
        search = replace(config.search, bandit=bandit, **fields[SearchConfig])
        return replace(config, search=search, **fields[ExperimentConfig])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; config errors are 1
        raise ConfigError(message)


def _add_key_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One string flag per config key, named like it; ``--out`` also spells ``--output_path``."""
    for key in keys:
        parser.add_argument(f"--{key}", *(("--out",) if key == "output_path" else ()))


def _key_flags(args) -> dict[str, str]:
    """The config keys given as flags, each as its string."""
    return {key: text for key, text in vars(args).items() if key in CONFIG_KEYS and text is not None}


def _build_parser() -> _Parser:
    parser = _Parser(prog="planset", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run the risk-sweep experiment")
    exp.add_argument("--config", help="flat key = value config file")
    _add_key_flags(exp, CONFIG_KEYS)

    plan = sub.add_parser("plan", help="search a world map and print the best plan")
    plan.add_argument("--world", required=True, help="map file ('.', 'E', 'S', 'G' rows)")
    plan.add_argument("--seed", type=int, default=0)
    _add_key_flags(plan, ("iterations", "exploration_c", "value_mode"))

    ext = sub.add_parser("extract", help="extract a plan set from a serialized tree")
    ext.add_argument("--tree", required=True, help="serialized tree file")
    ext.add_argument("--k", type=float, default=float("inf"))
    ext.add_argument("--q", type=float, default=0.0)
    ext.add_argument("--d", type=float, default=0.0)
    return parser


def _load_tree(path: str) -> SearchTree:
    """The tree in ``path``, in the value mode its header names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read tree file {path}: {exc}") from exc
    return SearchTree.from_text(text)


def _plan_lines(plans) -> list[str]:
    lines = ["rank,quality,actions"]
    for rank, plan in enumerate(plans, start=1):
        actions = " ".join(str(a) for a in plan.actions)
        lines.append(f"{rank},{plan.relative_quality:.17g},{actions}")
    return lines


def _cmd_experiment(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    values.update(_key_flags(args))
    config = config_from_mapping(values)
    records = run_experiment(config)
    print(render_summary(summarize(records)))
    if config.output_path:
        print(f"records written to {config.output_path}")
    return 0


def _cmd_plan(args) -> int:
    search = config_from_mapping(_key_flags(args)).search
    try:
        config = replace(search, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        world = parse_map(Path(args.world).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read world file {args.world}: {exc}") from exc
    sim = PlanningSimulator(world)
    tree = run_search(sim, config)
    plan = extract_plans(tree, ExtractionConfig(k=1)).plans[0]
    moves = "".join(ACTION_NAMES[a] for a in plan.actions)
    print(f"plan: {moves}")
    print(f"steps: {len(plan.actions)} (unobstructed shortest: {shortest_unobstructed_path(world)})")
    print(f"relative quality: {plan.relative_quality:.6f}  absolute: {plan.absolute_quality:.6f}")
    if sim.state_key(DroneState(world.goal, 0, True)) not in plan.state_keys:
        print("goal: not reached; the plan stops where the search tree ends")
    return 0


def _cmd_extract(args) -> int:
    try:
        config = ExtractionConfig(k=args.k, q=args.q, d=args.d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tree = _load_tree(args.tree)
    result = extract_plans(tree, config)
    print("\n".join(_plan_lines(result.plans)))
    return 0


_COMMANDS = {
    "experiment": _cmd_experiment,
    "plan": _cmd_plan,
    "extract": _cmd_extract,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime fault
        print(f"fault: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
