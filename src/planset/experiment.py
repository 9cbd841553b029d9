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

import csv
import math
import multiprocessing
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .extraction import ExtractionConfig, extract_plans
from .gridworld import PlanningSimulator, execute_plan, generate_instance, shortest_unobstructed_path
from .mcts import BanditConfig, Policy, SearchConfig, run_search
from .metrics import PlanSet, materialize_plan
from .tree import SearchTree, ValueMode

_WORLD_TAG = 0
_SEARCH_TAG = 1
_BASELINE_TAG = 2

_Z95 = 1.959963984540054

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
        try:
            self.extraction_config()  # the one validator of k, q and d
        except ValueError as exc:
            raise ConfigError(f"invalid planner spec {self}: {exc}") from exc
        bad = None
        if self.kind is PlannerKind.SINGLE and (self.k, self.q, self.d) != (1, 0.0, 0.0):
            bad = "single requires k=1, q=0, d=0"
        elif self.kind is PlannerKind.TOP_K and (self.q, self.d) != (0.0, 0.0):
            bad = "top_k requires q=0, d=0"
        elif self.kind is PlannerKind.TOP_QUALITY and self.d != 0.0:
            bad = "top_quality requires d=0"
        if bad:
            raise ConfigError(f"invalid planner spec {self}: {bad}")

    @property
    def label(self) -> str:
        return self.kind.value

    def extraction_config(self) -> ExtractionConfig:
        return ExtractionConfig(k=self.k, q=self.q, d=self.d)


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
        if not self.risk_levels or self.replications_per_level < 1:
            raise ConfigError("need at least one risk level and one replication")
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

    @property
    def instances(self) -> int:
        return len(self.risk_levels) * self.replications_per_level


def spaced_risk_levels(count: int, top: float = 0.9) -> tuple[float, ...]:
    """``count`` levels evenly spaced over (0, top]."""
    if count < 1:
        raise ConfigError("risk level count must be >= 1")
    return tuple(round(top * (i + 1) / count, 6) for i in range(count))


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


def run_random_baseline(tree: SearchTree, k: int, rng: np.random.Generator) -> PlanSet:
    """k root-to-leaf paths drawn uniformly over the visited tree's leaves,
    without replacement while enough leaves exist."""
    if tree.node(tree.root).visits == 0:
        raise ValueError("tree root has never been visited")
    if k <= 0:
        return PlanSet(plans=[], k=k)
    leaves = [nid for nid in tree.iter_visited() if not tree.visited_children(nid)]
    picked = rng.choice(len(leaves), size=min(k, len(leaves)), replace=False)
    plans = [materialize_plan(tree, tree.path_to(leaves[int(idx)])) for idx in picked]
    return PlanSet(plans=plans, k=k)


def _instance_records(
    config: ExperimentConfig, instance_id: int, clock: Callable[[], float]
) -> list[ResultRecord]:
    risk = config.risk_levels[instance_id // config.replications_per_level]
    world_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.master_seed, instance_id, _WORLD_TAG))
    )
    world = generate_instance(config.width, config.height, risk, world_rng, config.detection_radius)
    search_seed = int(
        np.random.SeedSequence(
            entropy=(config.master_seed, instance_id, _SEARCH_TAG)
        ).generate_state(1)[0]
    )
    sim = PlanningSimulator(world, rollout_greedy_p=config.rollout_greedy_p)
    start = clock()
    tree = run_search(sim, replace(config.search, seed=search_seed))
    build_s = clock() - start
    shortest = shortest_unobstructed_path(world)

    records = []
    for planner in config.planners:
        start = clock()
        if planner.kind is PlannerKind.RANDOM:
            baseline_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(config.master_seed, instance_id, _BASELINE_TAG))
            )
            plan_set = run_random_baseline(tree, planner.k, baseline_rng)
        else:
            plan_set = extract_plans(tree, planner.extraction_config())
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
                planner=planner.label,
                success=best is not None,
                plans_emitted=len(plan_set),
                best_path_len=best,
                shortest_path=shortest,
                tree_build_seconds=build_s,
                extraction_seconds=extract_s,
            )
        )
    return records


def _instance_records_default_clock(args: tuple[ExperimentConfig, int]) -> list[ResultRecord]:
    config, instance_id = args
    return _instance_records(config, instance_id, time.perf_counter)


def run_experiment(
    config: ExperimentConfig, clock: Callable[[], float] | None = None
) -> list[ResultRecord]:
    """Run the sweep; returns all records and streams them to the output CSV.

    ``clock`` defaults to the monotonic ``time.perf_counter``; tests may
    inject a deterministic callable (single-worker runs only) to make the
    timing columns reproducible.
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

    try:
        if config.workers == 1:
            tick = clock or time.perf_counter
            consume(_instance_records(config, i, tick) for i in range(config.instances))
        else:
            with multiprocessing.Pool(config.workers) as pool:
                consume(
                    pool.imap(
                        _instance_records_default_clock,
                        ((config, i) for i in range(config.instances)),
                    )
                )
    finally:
        if sink:
            sink.close()
    return records


def read_records(path: str | Path) -> list[ResultRecord]:
    records = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            records.append(
                ResultRecord(
                    instance_id=int(row["instance_id"]),
                    risk=float(row["risk"]),
                    planner=row["planner"],
                    success=row["success"] == "true",
                    plans_emitted=int(row["plans_emitted"]),
                    best_path_len=int(row["best_path_len"]) if row["best_path_len"] else None,
                    shortest_path=int(row["shortest_path"]),
                    tree_build_seconds=float(row["build_s"]),
                    extraction_seconds=float(row["extract_s"]),
                )
            )
    return records


# -- statistics ------------------------------------------------------------


def normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def two_proportion_z_test(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> tuple[float, float]:
    """One-sided pooled z-test of p_a > p_b; returns (z, p_value)."""
    if n_a < 1 or n_b < 1:
        raise ValueError("both groups need at least one observation")
    pooled = (successes_a + successes_b) / (n_a + n_b)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    if se == 0.0:
        return 0.0, 0.5
    z = (successes_a / n_a - successes_b / n_b) / se
    return z, normal_sf(z)


def proportion_ci(successes: int, n: int) -> tuple[float, float, float]:
    """(mean, lo, hi): normal-approximation 95% interval clamped to [0, 1]."""
    mean = successes / n
    half = _Z95 * math.sqrt(max(mean * (1.0 - mean), 0.0) / n)
    return mean, max(mean - half, 0.0), min(mean + half, 1.0)


def mean_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """(mean, lo, hi) with a 95% normal interval from the sample deviation."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, mean, mean
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _Z95 * math.sqrt(var / n)
    return mean, mean - half, mean + half


RISK_BANDS = (("low", 0.0, 0.3), ("medium_high", 0.3, 1.0 + 1e-9), ("all", 0.0, 1.0 + 1e-9))


def summarize(records: Sequence[ResultRecord]) -> list[dict]:
    """Per (planner, risk band): success rate with CI; per planner: mean
    path-cost ratio over successes and mean build/extract times with CIs.

    Groups with fewer than 2 records are dropped with a warning row.
    """
    planners = sorted({r.planner for r in records})
    rows: list[dict] = []
    for planner in planners:
        mine = [r for r in records if r.planner == planner]
        for band, lo, hi in RISK_BANDS:
            group = [r for r in mine if lo <= r.risk < hi]
            if len(group) < 2:
                if group:
                    rows.append({"planner": planner, "band": band, "warning": "excluded: fewer than 2 records"})
                continue
            wins = sum(r.success for r in group)
            mean, ci_lo, ci_hi = proportion_ci(wins, len(group))
            rows.append(
                {
                    "planner": planner,
                    "band": band,
                    "n": len(group),
                    "success_rate": mean,
                    "ci_lo": ci_lo,
                    "ci_hi": ci_hi,
                }
            )
        ratios = [
            r.best_path_len / r.shortest_path
            for r in mine
            if r.success and r.shortest_path > 0 and r.best_path_len is not None
        ]
        build_mean, build_lo, build_hi = mean_ci([r.tree_build_seconds for r in mine])
        ext_mean, ext_lo, ext_hi = mean_ci([r.extraction_seconds for r in mine])
        rows.append(
            {
                "planner": planner,
                "band": "timing",
                "n": len(mine),
                "path_cost_ratio": (sum(ratios) / len(ratios)) if ratios else None,
                "build_s": build_mean,
                "build_ci": (build_lo, build_hi),
                "extract_s": ext_mean,
                "extract_ci": (ext_lo, ext_hi),
            }
        )
    return rows


def render_summary(rows: Sequence[dict]) -> str:
    lines = [f"{'planner':<12} {'band':<12} {'n':>5}  metric"]
    for row in rows:
        if "warning" in row:
            lines.append(f"{row['planner']:<12} {row['band']:<12}        {row['warning']}")
        elif row["band"] == "timing":
            ratio = "n/a" if row["path_cost_ratio"] is None else f"{row['path_cost_ratio']:.3f}"
            lines.append(
                f"{row['planner']:<12} {row['band']:<12} {row['n']:>5}  "
                f"path-ratio {ratio}  build {row['build_s']:.3f}s  extract {row['extract_s'] * 1000:.2f}ms"
            )
        else:
            lines.append(
                f"{row['planner']:<12} {row['band']:<12} {row['n']:>5}  "
                f"success {row['success_rate']:.3f} [{row['ci_lo']:.3f}, {row['ci_hi']:.3f}]"
            )
    return "\n".join(lines)


# -- config files ----------------------------------------------------------
#
# Flat UTF-8 `key = value` lines with `#` comments.  Every key can also be
# given as a CLI flag of the same name.


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
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
        values[key] = value
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
    "policy": (BanditConfig, Policy),
    "exploration_c": (BanditConfig, float),
    "diversity_refresh_interval": (BanditConfig, int),
    "diversity_set_size": (BanditConfig, int),
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
