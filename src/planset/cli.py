"""Command-line front door: experiment sweeps, one-off planning, extraction.

Subcommands:
  experiment  run a risk sweep from a config file and/or flags, write CSV
  plan        search one world map and print the best plan
  extract     extract a bounded plan set from a serialized tree (CSV)
  oracle      exhaustively enumerate a serialized tree's plans (CSV)

Exit codes: 0 success, 1 configuration error, 2 runtime fault.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .extraction import ExtractionConfig, brute_force_enumerate, extract_plans
from .gridworld import ACTION_NAMES, DroneState, PlanningSimulator, parse_map, shortest_unobstructed_path
from .mcts import run_search
from .experiment import (
    CONFIG_KEYS,
    ConfigError,
    config_from_mapping,
    desk_profile,
    parse_config_file,
    render_summary,
    run_experiment,
    summarize,
)
from .tree import SearchTree, ValueMode


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; config errors are 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="planset", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run the risk-sweep experiment")
    exp.add_argument("--config", help="flat key = value config file")
    exp.add_argument("--profile", choices=("desk", "paper"), help="base profile")
    exp.add_argument("--out", help="output CSV path (same as output_path)")
    for key in CONFIG_KEYS:
        if key != "profile":
            exp.add_argument(f"--{key}", dest=f"key_{key}")

    desk = desk_profile().search
    plan = sub.add_parser("plan", help="search a world map and print the best plan")
    plan.add_argument("--world", required=True, help="map file ('.', 'E', 'S', 'G' rows)")
    plan.add_argument("--iterations", type=int, default=desk.iterations)
    plan.add_argument("--seed", type=int, default=desk.seed)
    plan.add_argument("--exploration_c", type=float, default=desk.bandit.exploration_c)
    plan.add_argument("--value_mode", choices=("average", "max"), default=desk.value_mode.value)

    ext = sub.add_parser("extract", help="extract a plan set from a serialized tree")
    ext.add_argument("--tree", required=True, help="serialized tree file")
    ext.add_argument("--k", type=float, default=float("inf"))
    ext.add_argument("--q", type=float, default=0.0)
    ext.add_argument("--d", type=float, default=0.0)

    orc = sub.add_parser("oracle", help="exhaustively enumerate a serialized tree")
    orc.add_argument("--tree", required=True, help="serialized tree file")
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
    for rank, (plan, quality) in enumerate(plans, start=1):
        actions = " ".join(str(a) for a in plan.actions)
        lines.append(f"{rank},{quality:.17g},{actions}")
    return lines


def _cmd_experiment(args) -> int:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    if args.profile:
        values["profile"] = args.profile
    for key in CONFIG_KEYS:
        flag = getattr(args, f"key_{key}", None)
        if flag is not None:
            values[key] = flag
    if args.out:
        values["output_path"] = args.out
    config = config_from_mapping(values)
    records = run_experiment(config)
    print(render_summary(summarize(records)))
    if config.output_path:
        print(f"records written to {config.output_path}")
    return 0


def _cmd_plan(args) -> int:
    desk = desk_profile().search
    try:
        config = replace(
            desk,
            iterations=args.iterations,
            value_mode=ValueMode(args.value_mode),
            bandit=replace(desk.bandit, exploration_c=args.exploration_c),
            seed=args.seed,
        )
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
    print("\n".join(_plan_lines((p, p.relative_quality) for p in result.plans)))
    return 0


def _cmd_oracle(args) -> int:
    tree = _load_tree(args.tree)
    print("\n".join(_plan_lines(brute_force_enumerate(tree))))
    return 0


_COMMANDS = {
    "experiment": _cmd_experiment,
    "plan": _cmd_plan,
    "extract": _cmd_extract,
    "oracle": _cmd_oracle,
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
