"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight fixtures (the desk-profile experiment and its determinism
replays) run once per session; the whole module is a few minutes of wall
time.  Run with ``pytest tests/test_acceptance.py -s`` to watch the
per-criterion lines stream.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assert_matches_oracle,
    best_path,
    random_backprop_tree,
    random_root_path,
    tree_depth,
)
from planset.experiment import (
    PlannerKind,
    desk_profile,
    run_experiment,
    two_proportion_z_test,
)
from planset.extraction import ExtractionConfig, brute_force_enumerate, extract_plans
from planset.metrics import min_pairwise_diversity, relative_plan_quality

QUALITY_TOL = 1e-12
K_GRID = (1, 3, 10)
Q_GRID = (0.0, 0.5, 0.9)


def _criterion(number: int, name: str, body) -> None:
    # run with -s to watch these stream; -v shows the same verdict per test
    try:
        body()
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", flush=True)
        raise
    print(f"[criterion {number}] {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def tree_corpus():
    trees = []
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        # mix of shapes: skinny subcritical trees and bushy ones near the
        # leaf budget (max_actions=4 keeps branching supercritical)
        max_nodes, max_actions = ((60, 3), (300, 4), (1200, 4))[seed % 3]
        tree = random_backprop_tree(
            rng, max_nodes=max_nodes, max_actions=max_actions, extra_playouts=15
        )
        leaves = sum(1 for nid in tree.iter_visited() if not tree.visited_children(nid))
        assert leaves <= 1000
        trees.append(tree)
    return trees


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "desk.csv"
    config = desk_profile(output_path=str(out))
    records = run_experiment(config)
    return config, records, out


class CountingClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.000125
        return self.now


def test_criterion_1_oracle_equivalence(tree_corpus):
    def body():
        start = time.perf_counter()
        for tree in tree_corpus:
            oracle = brute_force_enumerate(tree)
            for q in Q_GRID:
                qualified = [(p, qual) for p, qual in oracle if qual >= q - QUALITY_TOL]
                for k in K_GRID:
                    got = extract_plans(tree, ExtractionConfig(k=k, q=q)).plans
                    assert_matches_oracle(got, qualified, k, tol=QUALITY_TOL)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget is 60s"

    _criterion(1, "oracle equivalence, 500 trees x (k, q) grid", body)


def test_criterion_2_prefix_monotonicity():
    def body():
        start = time.perf_counter()
        checked = 0
        seed = 0
        while checked < 10_000:
            rng = np.random.default_rng(20_000 + seed)
            seed += 1
            tree = random_backprop_tree(rng, max_nodes=80)
            for _ in range(25):
                path = random_root_path(rng, tree)
                cut = int(rng.integers(1, len(path) + 1))
                full = relative_plan_quality(tree, path)
                prefix = relative_plan_quality(tree, path[:cut])
                assert prefix >= full - QUALITY_TOL
                checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"prefix sweep took {elapsed:.1f}s, budget is 10s"

    _criterion(2, "prefix quality monotonicity, 10,000 triples", body)


def test_criterion_3_optimal_plan_identity(tree_corpus):
    def body():
        for tree in tree_corpus:
            top = extract_plans(tree, ExtractionConfig(k=1)).plans[0]
            assert abs(top.relative_quality - 1.0) <= QUALITY_TOL
            assert list(top.nodes) == best_path(tree)

    _criterion(3, "first plan has quality 1.0 and is best-child descent", body)


def test_criterion_4_pareto_front():
    def body():
        for seed in range(200):
            rng = np.random.default_rng(30_000 + seed)
            tree = random_backprop_tree(rng, max_nodes=40)
            ranked = brute_force_enumerate(tree)
            for d in (0.25, 0.5):
                chosen = extract_plans(tree, ExtractionConfig(k=4, d=d))
                inside = {p.nodes for p in chosen.plans}
                floor = chosen.min_quality()
                for plan, quality in ranked:
                    if plan.nodes in inside or not plan.state_keys:
                        continue
                    if min_pairwise_diversity(plan, chosen.plans) >= d:
                        assert quality <= floor + QUALITY_TOL, (
                            f"seed {seed}, d={d}: outside plan {plan.nodes} has quality "
                            f"{quality} > set minimum {floor}"
                        )

    _criterion(4, "diverse sets are Pareto-optimal on 200 trees", body)


def test_criterion_5_pop_count_bound(tree_corpus):
    def body():
        for tree in tree_corpus:
            depth = max(tree_depth(tree), 1)
            for k in K_GRID:
                for q in Q_GRID:
                    result = extract_plans(tree, ExtractionConfig(k=k, q=q))
                    assert result.pops <= k * depth + 1, (
                        f"{result.pops} pops > {k} * {depth} + 1"
                    )

    _criterion(5, "queue pops bounded by k * depth + 1 for d=0", body)


def test_criterion_6_experiment_ordering(desk_run):
    # Known-red at these constants: a 20x20 goal path crosses >= 18
    # enemy-eligible cells, so per-path survival at risk 0.315 is ~9e-4 and
    # even five fully disjoint optimal paths give the diverse planner an
    # expected 0.065 pooled successes over the 140 instances at risk >= 0.3,
    # while the z-test needs ~3 against zero.  No tuning changes the
    # arithmetic.  The assertions below still implement the stated check
    # exactly; the same ordering passes at a survivable geometry in
    # test_experiment.test_ordering_emerges_at_measurable_geometry.
    def body():
        config, records, _ = desk_run
        assert config.instances == 200
        assert config.search.iterations == 5000
        assert (config.width, config.height) == (20, 20)

        band = [r for r in records if r.risk >= 0.3]
        wins = {}
        totals = {}
        for kind in ("diverse", "single", "top_k", "random"):
            group = [r for r in band if r.planner == kind]
            wins[kind] = sum(r.success for r in group)
            totals[kind] = len(group)
        z, p_value = two_proportion_z_test(
            wins["diverse"], totals["diverse"], wins["single"], totals["single"]
        )
        mean = {kind: wins[kind] / totals[kind] for kind in wins}
        problems = []
        if not p_value < 0.05:
            problems.append(
                f"diverse > single not significant: z={z:.3f}, p={p_value:.3f}, "
                f"diverse {wins['diverse']}/{totals['diverse']}, "
                f"single {wins['single']}/{totals['single']}"
            )
        if not mean["diverse"] >= mean["top_k"]:
            problems.append(f"mean(diverse)={mean['diverse']:.4f} < mean(top_k)={mean['top_k']:.4f}")
        if not mean["random"] < mean["top_k"]:
            problems.append(
                f"random ({wins['random']}/{totals['random']}) not strictly below "
                f"top_k ({wins['top_k']}/{totals['top_k']})"
            )
        assert not problems, "; ".join(problems)

    _criterion(6, "desk-scale success ordering in the risk >= 0.3 band", body)


def test_criterion_7_path_cost(desk_run):
    def body():
        # clause 1: at risk zero the quality-ordered planners recover the
        # exact shortest path; the random baseline samples leaves uniformly
        # and carries no optimality guarantee, so it is out of scope here
        config, records, _ = desk_run
        quality_planners = tuple(
            p for p in config.planners if p.kind is not PlannerKind.RANDOM
        )
        risk0 = replace(
            config,
            risk_levels=(0.0,),
            replications_per_level=5,
            planners=quality_planners,
            output_path=None,
        )
        for record in run_experiment(risk0):
            assert record.success, f"{record.planner} failed on a risk-0 instance"
            assert record.best_path_len == record.shortest_path, (
                f"{record.planner}: best {record.best_path_len} != shortest {record.shortest_path}"
            )
        # clause 2: pooled path-cost ratio over all successful desk runs
        ratios = [
            r.best_path_len / r.shortest_path for r in records if r.success
        ]
        assert ratios, "desk run produced no successes to pool"
        mean_ratio = sum(ratios) / len(ratios)
        assert mean_ratio <= 1.25, f"mean path-cost ratio {mean_ratio:.4f} > 1.25"

    _criterion(7, "risk-0 exactness and pooled path-cost ratio", body)


def test_criterion_8_extraction_overhead(desk_run):
    def body():
        _, records, _ = desk_run
        mean_build = sum(r.tree_build_seconds for r in records) / len(records)
        mean_extract = sum(r.extraction_seconds for r in records) / len(records)
        share = mean_extract / mean_build
        assert share < 0.05, f"extraction is {share:.2%} of build time"

    _criterion(8, "extraction under 5% of tree-build time", body)


def test_criterion_9_deterministic_csv(tmp_path):
    # Wall-clock readings differ between runs, so the two timing columns can
    # never be byte-stable under the default clock; both runs inject the
    # same deterministic clock and every other byte comes from the seeded
    # pipeline.
    def body():
        paths = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            config = desk_profile(output_path=str(out))
            run_experiment(config, clock=CountingClock())
            paths.append(out)
        first, second = (p.read_bytes() for p in paths)
        assert first == second, "desk-profile CSVs differ between identically seeded runs"
        assert first.count(b"\n") == 1001  # header + 200 instances x 5 planners

    _criterion(9, "byte-identical desk CSVs for one master seed", body)
