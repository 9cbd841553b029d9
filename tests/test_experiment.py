import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import planset
from conftest import random_backprop_tree
from planset.experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    PlannerKind,
    PlannerSpec,
    config_from_mapping,
    desk_profile,
    mean_ci,
    paper_profile,
    parse_config_file,
    parse_planners,
    proportion_ci,
    read_records,
    run_experiment,
    run_random_baseline,
    spaced_risk_levels,
    summarize,
    two_proportion_z_test,
)
from planset.mcts import BanditConfig, SearchConfig
from planset.tree import SearchTree, ValueMode


class CountingClock:
    """Deterministic clock: each reading advances by a fixed step."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def micro_config(tmp_path=None, **overrides):
    base = dict(
        risk_levels=(0.1, 0.4),
        replications_per_level=2,
        width=8,
        height=8,
        search=SearchConfig(
            iterations=400,
            max_rollout_steps=32,
            value_mode=ValueMode.MAX,
            bandit=BanditConfig(exploration_c=0.02),
        ),
        master_seed=11,
        output_path=str(tmp_path / "out.csv") if tmp_path else None,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- random baseline -------------------------------------------------------


def test_random_baseline_exhausts_leaves():
    tree = SearchTree(b"s0", root_actions=[0])
    child = tree.add_child(tree.root, 0, b"s1", terminal=True)
    tree.backpropagate(child, 0.5)
    result = run_random_baseline(tree, 5, np.random.default_rng(0))
    assert len(result.plans) == 1
    assert result.plans[0].nodes == (0, child)


def test_random_baseline_k_zero():
    rng = np.random.default_rng(1)
    tree = random_backprop_tree(rng)
    assert run_random_baseline(tree, 0, rng).plans == []


def test_random_baseline_no_replacement():
    rng = np.random.default_rng(2)
    tree = random_backprop_tree(rng, max_nodes=30)
    result = run_random_baseline(tree, 1000, np.random.default_rng(3))
    leaves = {p.nodes[-1] for p in result.plans}
    assert len(leaves) == len(result.plans)


def test_random_baseline_uniform_first_choice():
    # 3-leaf tree; the first sampled leaf should be ~uniform over many seeds.
    tree = SearchTree(b"s0", root_actions=[0, 1, 2])
    kids = [tree.add_child(tree.root, a, b"s%d" % a, terminal=True) for a in range(3)]
    for kid in kids:
        tree.backpropagate(kid, 0.5)
    counts = {kid: 0 for kid in kids}
    for seed in range(3000):
        first = run_random_baseline(tree, 1, np.random.default_rng(seed)).plans[0]
        counts[first.nodes[-1]] += 1
    chi2 = sum((n - 1000.0) ** 2 / 1000.0 for n in counts.values())
    assert chi2 < 13.8155  # chi-square df=2 at alpha=0.001


# -- statistics ------------------------------------------------------------


def test_z_test_known_value():
    # 30/100 vs 10/100: pooled p=0.2, se=sqrt(0.2*0.8*0.02)=0.0565685,
    # z = 0.2/0.0565685 = 3.5355, one-sided p ~ 2.035e-4
    z, p = two_proportion_z_test(30, 100, 10, 100)
    assert z == pytest.approx(3.5355339, abs=1e-6)
    assert p == pytest.approx(2.0347e-4, rel=1e-3)


def test_z_test_degenerate_groups():
    z, p = two_proportion_z_test(0, 50, 0, 50)
    assert z == 0.0 and p == 0.5
    with pytest.raises(ValueError):
        two_proportion_z_test(1, 0, 0, 5)


def test_proportion_ci_boundaries():
    mean, lo, hi = proportion_ci(10, 10)
    assert mean == 1.0 and hi == 1.0 and lo == 1.0
    mean, lo, hi = proportion_ci(1, 2)
    assert mean == 0.5 and lo < 0.5 < hi


def test_mean_ci_contains_mean():
    mean, lo, hi = mean_ci([1.0, 2.0, 3.0, 4.0])
    assert lo < mean == 2.5 < hi
    assert mean_ci([5.0]) == (5.0, 5.0, 5.0)


# -- config plumbing -------------------------------------------------------


def test_spaced_risk_levels():
    levels = spaced_risk_levels(20)
    assert len(levels) == 20
    assert levels[0] == pytest.approx(0.045)
    assert levels[-1] == pytest.approx(0.9)
    assert all(0 < r <= 0.9 for r in levels)


def test_profiles_match_documented_scale():
    desk = desk_profile()
    assert desk.instances == 200
    assert desk.search.iterations == 5000
    assert (desk.width, desk.height) == (20, 20)
    paper = paper_profile()
    assert paper.instances == 2000
    assert paper.search.iterations == 20000


def test_planner_spec_invariants():
    with pytest.raises(ConfigError):
        PlannerSpec(PlannerKind.SINGLE, k=3)
    with pytest.raises(ConfigError):
        PlannerSpec(PlannerKind.TOP_K, k=5, q=0.5)
    with pytest.raises(ConfigError):
        PlannerSpec(PlannerKind.TOP_QUALITY, k=5, q=0.5, d=0.2)
    PlannerSpec(PlannerKind.DIVERSE, k=5, q=0.8, d=0.5)


def test_parse_planners():
    specs = parse_planners("single,random:5 top_k:3,top_quality:5:0.8,diverse:5:0.8:0.5")
    kinds = [s.kind for s in specs]
    assert kinds == [
        PlannerKind.SINGLE,
        PlannerKind.RANDOM,
        PlannerKind.TOP_K,
        PlannerKind.TOP_QUALITY,
        PlannerKind.DIVERSE,
    ]
    assert specs[2].k == 3
    assert specs[4].d == 0.5
    (pure,) = parse_planners("top_quality:inf:0.8")
    assert (pure.kind, pure.k, pure.q) == (PlannerKind.TOP_QUALITY, math.inf, 0.8)
    with pytest.raises(ConfigError):
        parse_planners("warp_drive:3")
    with pytest.raises(ConfigError):
        parse_planners("top_k:2.5")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(
        """
# comment line
profile = desk
risk_levels = 4            # a count, not a list
replications_per_level = 3
iterations = 250
exploration_c = 0.05
planners = single,top_k:2
master_seed = 99
""",
        encoding="utf-8",
    )
    values = parse_config_file(path)
    config = config_from_mapping(values)
    assert config.risk_levels == spaced_risk_levels(4)
    assert config.replications_per_level == 3
    assert config.search.iterations == 250
    assert config.search.bandit.exploration_c == 0.05
    assert [p.kind for p in config.planners] == [PlannerKind.SINGLE, PlannerKind.TOP_K]
    assert config.master_seed == 99


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("speed = 11\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_config_explicit_risk_list():
    config = config_from_mapping({"risk_levels": "0.1, 0.2, 0.35"})
    assert config.risk_levels == (0.1, 0.2, 0.35)


# -- the experiment loop ---------------------------------------------------


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exp")
    config = micro_config(tmp)
    records = run_experiment(config, clock=CountingClock())
    return config, records, tmp / "out.csv"


def test_micro_run_shape(micro_run):
    config, records, csv_path = micro_run
    assert len(records) == config.instances * len(config.planners)
    text = csv_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    assert text.endswith("\n")


def test_micro_run_round_trips_through_csv(micro_run):
    _, records, csv_path = micro_run
    loaded = read_records(csv_path)
    assert len(loaded) == len(records)
    for got, want in zip(loaded, records):
        assert (got.instance_id, got.risk, got.planner, got.success) == (
            want.instance_id,
            want.risk,
            want.planner,
            want.success,
        )
        assert (got.plans_emitted, got.best_path_len, got.shortest_path) == (
            want.plans_emitted,
            want.best_path_len,
            want.shortest_path,
        )
        # timing columns carry 6 decimal places by contract
        assert got.tree_build_seconds == pytest.approx(want.tree_build_seconds, abs=1e-6)
        assert got.extraction_seconds == pytest.approx(want.extraction_seconds, abs=1e-6)


def test_success_implies_sane_path(micro_run):
    _, records, _ = micro_run
    for record in records:
        if record.success:
            assert record.best_path_len is not None
            assert record.best_path_len >= record.shortest_path
        else:
            assert record.best_path_len is None


def test_single_planner_wins_at_zero_risk(tmp_path):
    config = micro_config(
        None,
        risk_levels=(0.0,),
        replications_per_level=3,
        planners=(PlannerSpec(PlannerKind.SINGLE),),
    )
    records = run_experiment(config)
    assert all(r.success for r in records)
    assert all(r.best_path_len == r.shortest_path for r in records)


def test_deterministic_with_injected_clock(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    records_a = run_experiment(micro_config(None, output_path=str(out_a)), clock=CountingClock())
    records_b = run_experiment(micro_config(None, output_path=str(out_b)), clock=CountingClock())
    assert records_a == records_b
    assert out_a.read_bytes() == out_b.read_bytes()


def test_worker_fanout_matches_serial(tmp_path):
    out_serial, out_fan = tmp_path / "serial.csv", tmp_path / "fan.csv"
    zero = lambda: 0.0
    run_experiment(micro_config(None, output_path=str(out_serial)), clock=zero)
    run_experiment(micro_config(None, output_path=str(out_fan), workers=2))
    # timings differ across processes; compare everything else
    strip = lambda text: [",".join(line.split(",")[:7]) for line in text.splitlines()]
    assert strip(out_serial.read_text()) == strip(out_fan.read_text())


SPAWN_SWEEP = textwrap.dedent(
    """
    import multiprocessing
    from dataclasses import replace

    from planset.experiment import ExperimentConfig, run_experiment
    from planset.mcts import BanditConfig, SearchConfig
    from planset.tree import ValueMode

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        config = ExperimentConfig(
            risk_levels=(0.1, 0.4),
            replications_per_level=2,
            width=6,
            height=6,
            search=SearchConfig(
                iterations=150,
                max_rollout_steps=24,
                value_mode=ValueMode.MAX,
                bandit=BanditConfig(exploration_c=0.02),
            ),
            master_seed=11,
        )
        untimed = lambda records: [
            replace(r, tree_build_seconds=0.0, extraction_seconds=0.0) for r in records
        ]
        serial = untimed(run_experiment(config))
        assert serial and untimed(run_experiment(replace(config, workers=2))) == serial
        print("same records")
    """
)


def test_worker_fanout_matches_serial_under_spawn():
    # The pool uses the platform's start method.  Under spawn, the default
    # off Linux, each worker re-imports planset and must give the same rows.
    src = str(Path(planset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_SWEEP], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "same records"


def test_custom_clock_requires_single_worker():
    with pytest.raises(ConfigError):
        run_experiment(micro_config(None, workers=2), clock=CountingClock())


def test_unwritable_output_fails_before_compute(tmp_path):
    config = micro_config(None, output_path=str(tmp_path / "missing_dir" / "out.csv"))
    with pytest.raises(OSError):
        run_experiment(config)


def test_summarize_micro(micro_run):
    _, records, _ = micro_run
    rows = summarize(records)
    planners = {row["planner"] for row in rows}
    assert planners == {p.label for p in micro_run[0].planners}
    all_band = [r for r in rows if r.get("band") == "all"]
    for row in all_band:
        assert 0.0 <= row["ci_lo"] <= row["success_rate"] <= row["ci_hi"] <= 1.0
    timing = [r for r in rows if r.get("band") == "timing"]
    assert timing and all("build_s" in r for r in timing)


def test_extraction_never_mutates_the_shared_tree():
    from planset.extraction import extract_plans
    from planset.gridworld import PlanningSimulator, generate_instance
    from planset.mcts import run_search

    world = generate_instance(8, 8, 0.2, rng=4)
    tree = run_search(
        PlanningSimulator(world),
        SearchConfig(iterations=500, max_rollout_steps=32, value_mode=ValueMode.MAX),
    )
    before = tree.to_text()
    for planner in desk_profile().planners:
        if planner.kind is PlannerKind.RANDOM:
            run_random_baseline(tree, planner.k, np.random.default_rng(0))
        else:
            extract_plans(tree, planner.extraction_config())
    assert tree.to_text() == before


def test_execute_plan_is_deterministic():
    from planset.gridworld import execute_plan, generate_instance

    world = generate_instance(10, 10, 0.3, rng=8)
    actions = [1, 1, 2, 1, 1, 0, 1, 1]
    assert execute_plan(world, actions) == execute_plan(world, actions)


def test_ordering_emerges_at_measurable_geometry():
    # On a 6x6 grid a goal path exposes only ~5 cells, so survival is
    # measurable at moderate risk and the planner ordering separates:
    # diverse > top_k >= single > random.  (At the 20x20 desk geometry the
    # pooled band above risk 0.3 has ~zero survival for every planner.)
    config = ExperimentConfig(
        risk_levels=(0.1, 0.2, 0.3, 0.4),
        replications_per_level=15,
        width=6,
        height=6,
        search=SearchConfig(
            iterations=6000,
            max_rollout_steps=24,
            value_mode=ValueMode.MAX,
            bandit=BanditConfig(exploration_c=0.1),
        ),
        master_seed=2024,
    )
    records = run_experiment(config)
    wins = {
        kind: sum(r.success for r in records if r.planner == kind)
        for kind in ("single", "random", "top_k", "top_quality", "diverse")
    }
    assert wins["diverse"] > wins["single"]
    assert wins["diverse"] >= wins["top_k"] >= wins["single"]
    assert wins["random"] < wins["top_k"]
    ratios = [r.best_path_len / r.shortest_path for r in records if r.success]
    assert sum(ratios) / len(ratios) <= 1.25


def test_summarize_small_groups_excluded():
    from planset.experiment import ResultRecord

    records = [
        ResultRecord(0, 0.1, "single", True, 1, 7, 7, 0.1, 0.001),
        ResultRecord(1, 0.1, "single", False, 1, None, 7, 0.1, 0.001),
    ]
    rows = summarize(records)
    low = [r for r in rows if r.get("band") == "low"]
    assert low[0]["success_rate"] == 0.5
    medium = [r for r in rows if r.get("band") == "medium_high"]
    assert medium == []  # no records at risk >= 0.3 at all
