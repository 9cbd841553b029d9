"""Risk-sweep experiment harness for the drone-delivery study.

For every (risk level, replication) pair the harness samples a hidden-enemy
world, builds one search tree on the enemy-free simulator, hands that same
tree to every configured planner (single, random-baseline, top-k,
top-quality, diverse), executes each extracted plan against the ground
truth, and records success, best executed path length, and timings.  Runs
are deterministic functions of the master seed; records stream to CSV in
instance order as they complete.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import numbers
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable

# Binding these loads numpy.random with planset, so fork-started pool workers inherit it.
from numpy.random import Generator, SeedSequence, default_rng

from .extraction import EmptyTreeError, ExtractionConfig, extract_plans
from .gridworld import PlanningSimulator, execute_plan, generate_instance, shortest_unobstructed_path
from .mcts import BanditConfig, SearchConfig, require_integers, require_real, run_search
from .metrics import PlanSet, materialize_plan
from .tree import SearchTree, ValueMode

_WORLD_TAG = 0
_SEARCH_TAG = 1
_BASELINE_TAG = 2

CSV_HEADER = "instance_id,risk,planner,success,plans_emitted,best_path_len,shortest_path,build_s,extract_s"


class ConfigError(ValueError):
    """Bad experiment configuration (file, flag, or field values)."""


class PlannerKind(Enum):
    SINGLE = "single"
    RANDOM = "random"
    TOP_K = "top_k"
    TOP_QUALITY = "top_quality"
    DIVERSE = "diverse"


@dataclass(frozen=True)
class PlannerSpec:
    """One planner configuration: which bounds apply and their values."""

    kind: PlannerKind
    k: float = 1
    q: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, PlannerKind):  # each kind rule below tests `is`
            raise ConfigError(f"invalid planner spec {self}: kind must be a PlannerKind, got {self.kind!r}")
        try:
            ExtractionConfig(k=self.k, q=self.q, d=self.d)  # the one validator of k, q and d
        except ValueError as exc:
            raise ConfigError(f"invalid planner spec {self}: {exc}") from exc
        bad = None
        if self.kind is PlannerKind.SINGLE and (self.k, self.q, self.d) != (1, 0.0, 0.0):
            bad = "single requires k=1, q=0, d=0"
        elif self.kind is PlannerKind.RANDOM and (self.q, self.d) != (0.0, 0.0):
            bad = "random requires q=0, d=0"
        elif self.kind is PlannerKind.TOP_K and (self.q, self.d) != (0.0, 0.0):
            bad = "top_k requires q=0, d=0"
        elif self.kind is PlannerKind.TOP_QUALITY and self.d != 0.0:
            bad = "top_quality requires d=0"
        elif self.kind is PlannerKind.DIVERSE and self.d == 0.0:
            bad = "diverse requires d>0"
        if bad:
            raise ConfigError(f"invalid planner spec {self}: {bad}")

    @property
    def label(self) -> str:
        """The exact ``kind:k:q:d`` spelling, which ``cli.parse_planners`` reads back to an equal spec."""
        k = "inf" if self.k == math.inf else int(self.k)
        return f"{self.kind.value}:{k}:{float(self.q)!r}:{float(self.d)!r}"


DEFAULT_PLANNERS = (
    PlannerSpec(PlannerKind.SINGLE),
    PlannerSpec(PlannerKind.RANDOM, k=5),
    PlannerSpec(PlannerKind.TOP_K, k=5),
    PlannerSpec(PlannerKind.TOP_QUALITY, k=5, q=0.8),
    PlannerSpec(PlannerKind.DIVERSE, k=5, q=0.8, d=0.5),
)


@dataclass(frozen=True)
class ExperimentConfig:
    risk_levels: tuple[float, ...]
    replications_per_level: int
    width: int
    height: int
    search: SearchConfig
    planners: tuple[PlannerSpec, ...] = DEFAULT_PLANNERS
    master_seed: int = 7
    output_path: str | None = None
    detection_radius: int = 0
    rollout_greedy_p: float = 1.0
    workers: int = 1

    def __post_init__(self):
        integers = ("replications_per_level", "width", "height", "workers", "detection_radius", "master_seed")
        if not isinstance(self.risk_levels, (tuple, list)):
            raise ConfigError(f"risk_levels must be a tuple of real numbers, got {self.risk_levels!r}")
        try:
            require_integers(self, *integers)
            for risk in self.risk_levels:
                require_real("risk level", risk)
            require_real("rollout_greedy_p", self.rollout_greedy_p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.risk_levels or self.replications_per_level < 1:
            raise ConfigError("need at least one risk level and one replication")
        if not isinstance(self.planners, (tuple, list)):
            raise ConfigError(f"planners must be a tuple of PlannerSpecs, got {self.planners!r}")
        for spec in self.planners:
            if not isinstance(spec, PlannerSpec):
                raise ConfigError(f"planner must be a PlannerSpec, got {spec!r}")
        if not isinstance(self.search, SearchConfig):
            raise ConfigError(f"search must be a SearchConfig, got {self.search!r}")
        if not self.planners:
            raise ConfigError("need at least one planner")
        twice = [spec for i, spec in enumerate(self.planners) if spec in self.planners[:i]]
        if twice:  # the two would pool their rows under one label
            raise ConfigError(f"planner {twice[0].label} given twice")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.width < 2 or self.height < 2:
            raise ConfigError(f"grid {self.width}x{self.height} cannot host start and goal")
        if not all(0.0 <= risk <= 1.0 for risk in self.risk_levels):
            raise ConfigError(f"risk levels must lie in [0, 1], got {self.risk_levels}")
        if not 0.0 <= self.rollout_greedy_p <= 1.0:
            raise ConfigError(f"rollout_greedy_p must lie in [0, 1], got {self.rollout_greedy_p}")
        if self.detection_radius < 0:
            raise ConfigError(f"detection_radius must be >= 0, got {self.detection_radius}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.search.seed != 0:  # each instance's search seed comes from master_seed
            raise ConfigError(f"search.seed must be 0 (set master_seed instead), got {self.search.seed}")

    @property
    def instances(self) -> int:
        return len(self.risk_levels) * self.replications_per_level


def spaced_risk_levels(count: int) -> tuple[float, ...]:
    """``count`` levels evenly spaced over (0, 0.9]."""
    if count < 1:
        raise ConfigError("risk level count must be >= 1")
    return tuple(round(0.9 * (i + 1) / count, 6) for i in range(count))


def _profile(levels: int, replications: int, iterations: int, overrides: dict) -> ExperimentConfig:
    """The 20x20 MAX-value study at one scale; ``overrides`` replace fields."""
    base = dict(
        risk_levels=spaced_risk_levels(levels),
        replications_per_level=replications,
        width=20,
        height=20,
        search=SearchConfig(
            iterations=iterations,
            max_rollout_steps=60,
            value_mode=ValueMode.MAX,
            bandit=BanditConfig(exploration_c=0.02),
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def desk_profile(**overrides) -> ExperimentConfig:
    """CI-friendly scale: 20 risk levels x 10 replications, 5,000 iterations."""
    return _profile(20, 10, 5000, overrides)


def paper_profile(**overrides) -> ExperimentConfig:
    """Full-scale settings: 100 risk levels x 20 replications, 20,000 iterations."""
    return _profile(100, 20, 20000, overrides)


PROFILES = {"desk": desk_profile, "paper": paper_profile}


@dataclass(frozen=True)
class ResultRecord:
    instance_id: int
    risk: float
    planner: str
    success: bool
    plans_emitted: int
    best_path_len: int | None
    shortest_path: int
    tree_build_seconds: float
    extraction_seconds: float

    def csv_row(self) -> str:
        best = "" if self.best_path_len is None else str(self.best_path_len)
        return (
            f"{self.instance_id},{self.risk:g},{self.planner},"
            f"{str(self.success).lower()},{self.plans_emitted},{best},"
            f"{self.shortest_path},{self.tree_build_seconds:.6f},{self.extraction_seconds:.6f}"
        )


def run_random_baseline(tree: SearchTree, k: float, rng: Generator) -> PlanSet:
    """k root-to-leaf paths drawn uniformly over the visited tree's leaves,
    without replacement while enough leaves exist (every leaf at k=inf)."""
    if not isinstance(k, numbers.Real) or (k != math.inf and not (k >= 0 and int(k) == k)):  # NaN fails k >= 0
        raise ValueError(f"k must be 0, a positive integer or inf, got {k!r}")
    if tree.node(tree.root).visits == 0:
        raise EmptyTreeError("root has never been visited")
    if k == 0:
        return PlanSet(plans=[])
    # Visited nodes without a visited child, in id order.
    parents = {rec.parent for rec in tree.nodes if rec.visits}
    leaves = [nid for nid, rec in enumerate(tree.nodes) if rec.visits and nid not in parents]
    picked = rng.choice(len(leaves), size=int(min(k, len(leaves))), replace=False)
    plans = [materialize_plan(tree, leaves[int(idx)]) for idx in picked]
    return PlanSet(plans=plans)


def _instance_records(
    config: ExperimentConfig, instance_id: int, clock: Callable[[], float]
) -> list[ResultRecord]:
    risk = config.risk_levels[instance_id // config.replications_per_level]
    world_rng = default_rng(SeedSequence(entropy=(config.master_seed, instance_id, _WORLD_TAG)))
    world = generate_instance(config.width, config.height, risk, world_rng, config.detection_radius)
    search_seed = int(SeedSequence(entropy=(config.master_seed, instance_id, _SEARCH_TAG)).generate_state(1)[0])
    sim = PlanningSimulator(world, rollout_greedy_p=config.rollout_greedy_p)
    start = clock()
    tree = run_search(sim, replace(config.search, seed=search_seed))
    build_s = clock() - start
    shortest = shortest_unobstructed_path(world)

    kinds = [planner.kind for planner in config.planners]  # a kind given once labels its rows by its name
    records = []
    for planner in config.planners:
        start = clock()
        if planner.kind is PlannerKind.RANDOM:
            baseline_rng = default_rng(SeedSequence(entropy=(config.master_seed, instance_id, _BASELINE_TAG)))
            plan_set = run_random_baseline(tree, planner.k, baseline_rng)
        else:
            plan_set = extract_plans(tree, ExtractionConfig(k=planner.k, q=planner.q, d=planner.d))
        extract_s = clock() - start
        best: int | None = None
        for plan in plan_set:
            outcome = execute_plan(world, plan.actions)
            if outcome.reached_goal and (best is None or outcome.path_length < best):
                best = outcome.path_length
        records.append(
            ResultRecord(
                instance_id=instance_id,
                risk=risk,
                planner=planner.kind.value if kinds.count(planner.kind) == 1 else planner.label,
                success=best is not None,
                plans_emitted=len(plan_set),
                best_path_len=best,
                shortest_path=shortest,
                tree_build_seconds=build_s,
                extraction_seconds=extract_s,
            )
        )
    return records


def run_experiment(
    config: ExperimentConfig, clock: Callable[[], float] | None = None
) -> list[ResultRecord]:
    """Run the sweep; returns all records and streams them to the output CSV.

    ``clock`` defaults to the monotonic ``time.perf_counter``; tests may
    inject a deterministic callable (single-worker runs only) to make the
    timing columns reproducible.

    With ``workers > 1`` the pool uses the platform's start method.  Under
    fork, workers start from a parent that already holds ``numpy.random``
    (importing this module loads it), so no worker imports anything before
    its first instance; each call still pays one fork per worker and a cold
    first instance in each.  Under spawn or forkserver each worker imports
    planset itself.  Every importer of planset pays for ``numpy.random``,
    one that never draws included: about 6 MB of resident memory and
    ~18 ms of start-up in a fresh process.
    """
    if clock is not None and config.workers > 1:
        raise ConfigError("a custom clock requires workers=1")
    sink = None
    if config.output_path:
        try:
            sink = open(config.output_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise OSError(f"cannot write output file {config.output_path}: {exc}") from exc
        sink.write(CSV_HEADER + "\n")
        sink.flush()

    records: list[ResultRecord] = []

    def consume(batches: Iterable[list[ResultRecord]]) -> None:
        for batch in batches:
            records.extend(batch)
            if sink:
                for record in batch:
                    sink.write(record.csv_row() + "\n")
                sink.flush()

    work = functools.partial(_instance_records, config, clock=clock or time.perf_counter)
    try:
        if config.workers == 1:
            consume(map(work, range(config.instances)))
        else:
            with multiprocessing.Pool(min(config.workers, config.instances)) as pool:
                consume(pool.imap(work, range(config.instances)))
    finally:
        if sink:
            sink.close()
    return records
