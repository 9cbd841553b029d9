"""The benchmark's workloads: desk sweeps and tree re-planning.

Every input is generated here from the run's seed; planset only ever sees an
``ExperimentConfig`` (the sweeps) or serialized tree text (``replan``).  All
calls go through module attributes, so the traced run's wrappers see them.

A run fixes its inputs (one sweep slice, or one pool of trees) and goes
over them again and again: a phase runs whole operations (one chunk of the
slice through ``run_experiment``, or one replan of a pool tree) until the
next one is predicted to end past its time budget; the first ``min_steps``
always run.  Every pass must give the same outputs as the first.

Timings are in reference seconds (``ref_s``).  A shared host's speed swings
by up to 2x every few seconds (other tenants on the same cores), in CPU time
as much as in wall time, so a reading of a fixed reference computation is
taken between every two operations, and each operation's times are scaled by
``REF_NOMINAL_S`` over the mean of the readings on either side of it: a
reference second is a second on a host where one reference call takes
``REF_NOMINAL_S``.  Operations last 0.2-2.5 s, short enough for the readings
to follow the host.  Single-process work is timed in CPU seconds of this
process (``time.process_time``), which time-slicing does not inflate: the
serial sweep hands that clock to ``run_experiment`` for its CSV timings, and
``replan`` reads it around each call.  The 2-worker sweep is timed on the
wall clock, since how well its pool overlaps work is what it measures.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter as perf

import numpy as np

import planset.experiment as p_experiment
import planset.extraction as p_extraction
import planset.gridworld as p_gridworld
import planset.tree as p_tree
from planset.extraction import ExtractionConfig
from planset.mcts import BanditConfig, Policy, SearchConfig, run_search
from planset.metrics import min_pairwise_diversity
from planset.tree import ValueMode

QUALITY_TOL = 1e-12
TIMING_COLUMNS = 2  # build_s and extract_s close every CSV row


@dataclass(frozen=True)
class Scale:
    """Input size.  ``desk`` is the benchmark; ``tiny`` is for the smoke test."""

    levels: int = 20  # desk risk levels, one replication each
    chunk: int = 4  # risk levels per run_experiment call
    width: int = 20
    iterations: int = 5000
    pool_rounds: int = 3  # replan set-up rounds, one tree of each pool kind per round
    sweep_setup_rounds: int = 5
    passes: int = 2  # fewest passes over the inputs in a run


SCALES = {
    "desk": Scale(),
    "tiny": Scale(levels=2, chunk=1, width=8, iterations=300, pool_rounds=2, sweep_setup_rounds=2),
}

SWEEPS = {  # workload -> (policy, workers)
    "sweep": (Policy.UCB1, 1),
    "sweep_par": (Policy.UCB1, 2),
}
# One replan set-up round searches these trees.  MAX/UCB1 trees have ~1.2-1.5k
# nodes, AVERAGE/UCB1 trees 5k; two AVERAGE trees per round keep the median
# replan inside one cluster of the two-humped per-tree cost.  MAX/diverse-UCB1
# trees are left out: how many of their plans pass q=0.8 varies 900-2,850
# with the seed, and top_quality:inf costs grow with its square, so they
# moved replans per second by a third between seeds.
POOL_KINDS = (
    (ValueMode.MAX, Policy.UCB1),
    (ValueMode.AVERAGE, Policy.UCB1),
    (ValueMode.AVERAGE, Policy.UCB1),
)
BOUND_GRID = (  # (label, bounds); None is the random baseline
    ("single", ExtractionConfig(k=1)),
    ("top_k:5", ExtractionConfig(k=5)),
    ("top_k:50", ExtractionConfig(k=50)),
    ("top_quality:5:0.8", ExtractionConfig(k=5, q=0.8)),
    ("top_quality:inf:0.8", ExtractionConfig(k=math.inf, q=0.8)),
    ("diverse:5:0.8:0.5", ExtractionConfig(k=5, q=0.8, d=0.5)),
    ("diverse:10:0.8:0.3", ExtractionConfig(k=10, q=0.8, d=0.3)),
    ("random:5", None),
)
RANDOM_K = 5


@dataclass
class Phase:
    """What one phase of a run measured and checked."""

    # Reference seconds, inside the timed calls only.
    timed_s: float = 0.0
    calls: list[tuple[int, float]] = field(default_factory=list)  # (instances, seconds) per call
    op_s: list[float] = field(default_factory=list)  # every instance, every pass
    instance_s: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    raw_s: float = 0.0  # timed_s as the clock read it
    extract_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    successes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    success_base: int = 0
    hashes: dict[str, str] = field(default_factory=dict)  # output hash per instance or pool tree

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def record_hash(self, key: str, digest: str) -> bool:
        """Keep the first hash seen for ``key``; False if it differs."""
        return self.hashes.setdefault(key, digest) == digest

    def record_time(self, key: str, seconds: float) -> None:
        self.op_s.append(seconds)
        self.instance_s[key].append(seconds)

    def record_call(self, instances: int, seconds: float) -> None:
        self.timed_s += seconds
        self.calls.append((instances, seconds))

    def typical_s(self) -> list[float]:
        """Each instance's median time over the passes."""
        return [statistics.median(times) for times in self.instance_s.values()]

    def instances_per_s(self, per_pass: int) -> float:
        """Instances per second over the whole passes only, so the mix of
        instances a last, partial pass happens to hold does not count."""
        whole = self.calls[:len(self.calls) // per_pass * per_pass] or self.calls
        return sum(n for n, _ in whole) / sum(seconds for _, seconds in whole)


# -- host speed ----------------------------------------------------------------

REF_NOMINAL_S = 0.010  # one reference call counts for this many reference seconds
REF_CALLS = 3  # a reading is the median of this many reference calls


def reference_call() -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    table: dict[int, int] = {}
    total = 0
    for i in range(50000):
        key = i % 977
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def reference_reading() -> float:
    """CPU seconds one reference call takes on this core right now."""
    times = []
    for _ in range(REF_CALLS):
        t0 = time.process_time()
        reference_call()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def _send_reading(conn) -> None:
    conn.send(reference_reading())
    conn.close()


def reference_s(width: int = 1) -> float:
    """Mean reference reading of ``width`` processes taking it at once, so a
    pool of ``width`` workers is read on every core it runs on."""
    if width == 1:
        return reference_reading()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    helpers = [ctx.Process(target=_send_reading, args=(send,)) for _ in range(width - 1)]
    try:
        for helper in helpers:
            helper.start()
        readings = [reference_reading()] + [receive.recv() for _ in helpers]
    finally:
        for helper in helpers:
            if helper.pid is not None:
                helper.join()
        receive.close()
        send.close()
    return statistics.fmean(readings)


class HostSpeed:
    """Times operations and turns their seconds into reference seconds.

    The reading taken after an operation is the reading before the next one,
    so each operation costs one reading.  ``width`` is how many cores the
    operations keep busy."""

    def __init__(self, width: int = 1) -> None:
        self.width = width
        self.last: float | None = None

    def timed(self, call, clock):
        """Run ``call()``; return its result, its seconds on ``clock`` and
        the factor from those seconds to reference seconds."""
        before = self.last if self.last is not None else reference_s(self.width)
        self.last = None  # a call that raises leaves no reading behind it
        t0 = clock()
        result = call()
        elapsed = clock() - t0
        self.last = reference_s(self.width)
        return result, elapsed, 2.0 * REF_NOMINAL_S / (before + self.last)


def run_for(budget: float, step, min_steps: int = 1) -> None:
    """Call ``step(index)`` at least ``min_steps`` times, then until the next
    call would overrun ``budget`` (wall-clock seconds)."""
    index = 0
    start = perf()
    while True:
        t0 = perf()
        step(index)
        last = perf() - t0
        index += 1
        if index >= min_steps and perf() - start + last > budget:
            return


# -- sweeps ------------------------------------------------------------------


def sweep_config(workload: str, seed: int, scale: Scale, csv_path: Path | None,
                 chunk: int) -> p_experiment.ExperimentConfig:
    """Chunk ``chunk`` of a seed's desk slice: ``scale.chunk`` consecutive
    risk levels, one instance each, under a master seed of its own.  The
    chunks together cover every level once."""
    policy, workers = SWEEPS[workload]
    desk = p_experiment.desk_profile()
    levels = p_experiment.spaced_risk_levels(scale.levels)
    return p_experiment.desk_profile(
        risk_levels=levels[chunk * scale.chunk:(chunk + 1) * scale.chunk],
        replications_per_level=1,
        width=scale.width,
        height=scale.width,
        master_seed=seed * 1000 + chunk,
        workers=workers,
        output_path=None if csv_path is None else str(csv_path),
        search=replace(desk.search, iterations=scale.iterations,
                       bandit=replace(desk.search.bandit, policy=policy)),
    )


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def read_sweep_csv(path: Path, config) -> tuple[list[str], list[float], list[float], dict[str, int], list[str]]:
    """Per-instance hashes with the timing columns removed, instance and
    extraction seconds, planner successes, and what is wrong with the file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != p_experiment.CSV_HEADER:
        problems.append("CSV header differs from the documented one")
    rows: dict[int, list[list[str]]] = defaultdict(list)
    for line in lines[1:]:
        cols = line.split(",")
        rows[int(cols[0])].append(cols)
    planners = len(config.planners)
    hashes, instance_s, extract_s, successes = [], [], [], defaultdict(int)
    for iid in range(config.instances):
        mine = rows.get(iid, [])
        if len(mine) != planners:
            problems.append(f"instance {iid} has {len(mine)} rows, expected {planners}")
            continue
        hashes.append(_digest(",".join(c[:-TIMING_COLUMNS]) for c in mine))
        instance_s.append(float(mine[0][-2]) + sum(float(c[-1]) for c in mine))
        extract_s.extend(float(c[-1]) for c in mine)
        for c in mine:
            successes[c[2]] += c[3] == "true"
    return hashes, instance_s, extract_s, successes, problems


def sweep_chunks(scale: Scale) -> int:
    return scale.levels // scale.chunk


def sweep_op(workload: str, seed: int, scale: Scale, csv_path: Path):
    """Call ``index`` runs chunk ``index % chunks`` of the seed's slice, so
    calls go over the slice in order, one pass after another; the first pass
    fixes the success rates."""
    configs = [sweep_config(workload, seed, scale, csv_path, chunk) for chunk in range(sweep_chunks(scale))]
    host = HostSpeed(width=configs[0].workers)

    def op(phase: Phase, index: int) -> None:
        pass_, chunk = divmod(index, len(configs))
        config = configs[chunk]
        n = config.instances
        phase.attempted += n
        # A custom clock is for workers=1 only; the pool's workers use perf_counter.
        clock = time.process_time if config.workers == 1 else perf
        try:
            _, elapsed, ref = host.timed(
                lambda: p_experiment.run_experiment(config, clock=clock if config.workers == 1 else None),
                clock)
        except Exception as exc:  # counted, and the run goes on
            phase.fail(n, f"pass {pass_}, chunk {chunk}: run_experiment raised {exc!r}")
            return
        phase.raw_s += elapsed
        phase.record_call(n, elapsed * ref)
        hashes, instance_s, extract_s, successes, problems = read_sweep_csv(csv_path, config)
        if problems:
            phase.fail(n, f"pass {pass_}, chunk {chunk}: {problems[0]}")
            return
        phase.extract_s += [seconds * ref for seconds in extract_s]
        changed = []
        for i, (digest, seconds) in enumerate(zip(hashes, instance_s)):
            key = f"{chunk}:{i}"
            phase.record_time(key, seconds * ref)
            if not phase.record_hash(key, digest):
                changed.append(key)
        if changed:
            phase.fail(len(changed), f"pass {pass_}: instances {changed[:5]} differ from the first pass")
        if pass_ == 0:
            for planner, count in successes.items():
                phase.successes[planner] += count
            phase.success_base += n

    return op


# -- replan --------------------------------------------------------------------


def pool_member(seed: int, round_: int, kind: int, scale: Scale):
    """World and search settings of one pool tree; a pure function of its seeds."""
    value_mode, policy = POOL_KINDS[kind]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, round_, kind)))
    risk = float(rng.choice(p_experiment.spaced_risk_levels(20)))
    world = p_gridworld.generate_instance(scale.width, scale.width, risk, rng)
    desk = p_experiment.desk_profile().search
    search = SearchConfig(
        iterations=scale.iterations,
        max_rollout_steps=desk.max_rollout_steps,
        value_mode=value_mode,
        bandit=BanditConfig(exploration_c=desk.bandit.exploration_c, policy=policy),
        seed=int(rng.integers(2**32)),
    )
    return world, search


def build_pool_round(seed: int, round_: int, scale: Scale) -> list[str]:
    """Search and serialize one round's pool trees."""
    texts = []
    for kind in range(len(POOL_KINDS)):
        world, search = pool_member(seed, round_, kind, scale)
        texts.append(run_search(p_gridworld.PlanningSimulator(world), search).to_text())
    return texts


def replan(text: str, rng: np.random.Generator):
    """The timed step: load a tree, then apply the whole bound grid to it."""
    tree = p_tree.SearchTree.from_text(text)
    sets = []
    for label, bounds in BOUND_GRID:
        t0 = time.process_time()
        if bounds is None:
            plans = p_experiment.run_random_baseline(tree, RANDOM_K, rng)
        else:
            plans = p_extraction.extract_plans(tree, bounds)
        sets.append((label, bounds, plans, time.process_time() - t0))
    return tree, sets


def check_replan(text: str, tree, sets, world) -> tuple[list[str], dict[str, bool]]:
    """Problems with one replan's outputs, and which planners reached the goal."""
    problems = []
    if tree.to_text() != text:
        problems.append("to_text(from_text(text)) differs from text")
    if tree.check_consistency():
        problems.append("loaded tree has statistics no backpropagation can produce")
    reached = {}
    for label, bounds, plan_set, _ in sets:
        k, q, d = (RANDOM_K, 0.0, 0.0) if bounds is None else (bounds.k, bounds.q, bounds.d)
        plans = plan_set.plans
        if not plans or len(plans) > k:
            problems.append(f"{label}: {len(plans)} plans for k={k}")
        if len({p.actions for p in plans}) != len(plans):
            problems.append(f"{label}: two plans share an action sequence")
        for i, plan in enumerate(plans):
            if plan.relative_quality < q - QUALITY_TOL:
                problems.append(f"{label}: plan {i} quality {plan.relative_quality} < {q}")
            # Diversity is one-way: each plan is diverse against the plans
            # accepted before it (the extractor's stated guarantee).
            if d > 0 and min_pairwise_diversity(plan, plans[:i]) < d:
                problems.append(f"{label}: plan {i} diversity below {d}")
        reached[label] = False
        for plan in plans:
            try:
                reached[label] |= p_gridworld.execute_plan(world, plan.actions).reached_goal
            except p_gridworld.InvalidPlanError as exc:
                problems.append(f"{label}: plan fails to execute: {exc}")
    return problems, reached


def check_top_k(text: str) -> list[str]:
    """top_k against the exhaustive oracle, up to exact-quality ties."""
    tree = p_tree.SearchTree.from_text(text)
    oracle = p_extraction.brute_force_enumerate(tree)
    problems = []
    for k in (5, 50):
        got = p_extraction.extract_plans(tree, ExtractionConfig(k=k)).plans
        want = oracle[:k]
        if len(got) != len(want):
            problems.append(f"top_k:{k}: {len(got)} plans, oracle has {len(want)}")
            continue
        ties = defaultdict(set)
        for plan, quality in oracle:
            ties[quality].add(plan.nodes)
        for plan, (_, quality) in zip(got, want):
            if abs(plan.relative_quality - quality) > QUALITY_TOL:
                problems.append(f"top_k:{k}: quality {plan.relative_quality} where oracle has {quality}")
            elif plan.nodes not in ties[plan.relative_quality]:
                problems.append(f"top_k:{k}: plan {plan.nodes} is not an oracle plan of its quality")
    return problems


def plan_digest(sets) -> str:
    return _digest(f"{label}:{[p.actions for p in plan_set.plans]}" for label, _, plan_set, _ in sets)


def replan_op(pool: list[tuple[str, object]], seed: int):
    """Call ``index`` re-plans pool tree ``index % len(pool)``, so calls go
    round the pool in order, one pass after another."""
    host = HostSpeed()

    def op(phase: Phase, index: int) -> None:
        pass_, slot = divmod(index, len(pool))
        text, world = pool[slot]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, slot)))
        phase.attempted += 1
        try:
            (tree, sets), elapsed, ref = host.timed(lambda: replan(text, rng), time.process_time)
        except Exception as exc:  # a tree that will not load or extract
            phase.fail(1, f"pass {pass_}, tree {slot}: {exc!r}")
            return
        phase.raw_s += elapsed
        phase.record_call(1, elapsed * ref)
        phase.record_time(str(slot), elapsed * ref)
        phase.extract_s += [dt * ref for *_, dt in sets]
        problems, reached = check_replan(text, tree, sets, world)
        if not phase.record_hash(str(slot), plan_digest(sets)):
            problems.append("plans differ from the previous pass")
        if problems:
            phase.fail(1, f"pass {pass_}, tree {slot}: {problems[0]}")
        if pass_ == 0:
            phase.success_base += 1
            phase.successes["single"] += reached["single"]
            phase.successes["diverse"] += reached["diverse:5:0.8:0.5"]

    return op
