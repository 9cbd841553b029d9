import csv
import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import planset
from conftest import visited_ids, random_backprop_tree, visited_children
from planset.cli import config_from_mapping, parse_config_file, parse_planners
from planset.experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    PlannerKind,
    PlannerSpec,
    ResultRecord,
    desk_profile,
    paper_profile,
    run_experiment,
    run_random_baseline,
    spaced_risk_levels,
)
from planset.mcts import BanditConfig, Policy, SearchConfig
from planset.stats import proportion_ci, render_summary, summarize, two_proportion_z_test
from planset.tree import SearchTree, ValueMode


def read_records(path):
    """Records back from a CSV that ``run_experiment`` wrote."""
    with open(path, encoding="utf-8", newline="") as handle:
        return [
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
            for row in csv.DictReader(handle)
        ]


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


def _untimed(records):
    return [replace(r, tree_build_seconds=0.0, extraction_seconds=0.0) for r in records]


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


@pytest.mark.parametrize("k", [2.5, -1, math.nan, -math.inf, "5"])
def test_random_baseline_refuses_a_k_that_is_not_a_count(k):
    # A draw count is a whole number: 2.5 must not quietly draw 2 plans, nor
    # -1 draw none, and a string escaped as a TypeError from a comparison.
    tree = random_backprop_tree(np.random.default_rng(1))
    with pytest.raises(ValueError, match=f"^k must be 0, a positive integer or inf, got {re.escape(repr(k))}$"):
        run_random_baseline(tree, k, np.random.default_rng(0))


def test_random_baseline_no_replacement():
    rng = np.random.default_rng(2)
    tree = random_backprop_tree(rng, max_nodes=30)
    result = run_random_baseline(tree, 1000, np.random.default_rng(3))
    leaves = {p.nodes[-1] for p in result.plans}
    assert len(leaves) == len(result.plans)


def test_random_baseline_accepts_a_whole_number_float_k():
    """``PlannerSpec`` accepts k=5.0, so the baseline draws as for k=5."""
    assert PlannerSpec(PlannerKind.RANDOM, k=5.0).k == 5
    tree = random_backprop_tree(np.random.default_rng(4), max_nodes=60)
    as_int = run_random_baseline(tree, 5, np.random.default_rng(8))
    as_float = run_random_baseline(tree, 5.0, np.random.default_rng(8))
    assert len(as_int) == 5
    assert [p.nodes for p in as_float] == [p.nodes for p in as_int]


def test_random_baseline_unbounded_k_returns_every_leaf():
    tree = random_backprop_tree(np.random.default_rng(5), max_nodes=60)
    leaves = {nid for nid in visited_ids(tree) if not visited_children(tree, nid)}
    result = run_random_baseline(tree, math.inf, np.random.default_rng(9))
    assert sorted(p.nodes[-1] for p in result) == sorted(leaves)


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


@pytest.mark.parametrize("counts", [(5, 3, 1, 3), (-1, 3, 0, 3), (1, 3, 4, 3), (1, 3, -2, 3)])
def test_z_test_refuses_a_success_count_outside_its_group(counts):
    # More successes than trials, or fewer than none, is no proportion.
    with pytest.raises(ValueError, match=r"^success counts .* must lie in \[0, n\]$"):
        two_proportion_z_test(*counts)


@pytest.mark.parametrize(
    "counts,name,value",
    [
        ((1.5, 3, 1, 3), "successes_a", "1.5"),
        ((True, 3, 1, 3.5), "n_b", "3.5"),
        ((1, 3.0, 1, 3), "n_a", "3.0"),
        ((1, 3, 0.5, 3), "successes_b", "0.5"),
    ],
)
def test_z_test_refuses_a_count_that_is_not_an_integer(counts, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        two_proportion_z_test(*counts)


def test_z_test_takes_bools_and_numpy_integers_as_counts():
    assert two_proportion_z_test(True, np.int64(3), np.int32(0), np.uint8(3)) == two_proportion_z_test(1, 3, 0, 3)


def test_proportion_ci_boundaries():
    # Wilson score interval: never zero-width, with exact 0 and 1 ends.
    mean, lo, hi = proportion_ci(10, 10)
    assert mean == 1.0 and hi == 1.0 and lo == pytest.approx(0.72247, abs=1e-5)
    mean, lo, hi = proportion_ci(0, 140)
    assert mean == 0.0 and lo == 0.0 and hi == pytest.approx(0.02671, abs=1e-5)
    mean, lo, hi = proportion_ci(1, 2)
    assert mean == 0.5 and lo < 0.5 < hi


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
    for kind, bounds, message in (
        (PlannerKind.SINGLE, dict(k=3), "single requires"),
        (PlannerKind.TOP_K, dict(k=5, q=0.5), "top_k requires"),
        (PlannerKind.TOP_QUALITY, dict(k=5, q=0.5, d=0.2), "top_quality requires"),
        # The random baseline reads k alone, and a diverse planner without d
        # would run as top-k or top-quality under the label "diverse".
        (PlannerKind.RANDOM, dict(k=5, q=0.5), "random requires"),
        (PlannerKind.RANDOM, dict(k=5, d=0.3), "random requires"),
        (PlannerKind.DIVERSE, dict(k=5), "diverse requires"),
        (PlannerKind.DIVERSE, dict(k=5, q=0.8), "diverse requires"),
        # A bound that is no number is a ConfigError too, not a TypeError.
        (PlannerKind.TOP_K, dict(k="5"), "k must be a positive integer or inf, got '5'"),
    ):
        with pytest.raises(ConfigError, match=message):
            PlannerSpec(kind, **bounds)
    PlannerSpec(PlannerKind.DIVERSE, k=5, q=0.8, d=0.5)


@pytest.mark.parametrize("kind", ["single", None, 1])
def test_planner_spec_refuses_a_kind_that_is_not_a_planner_kind(kind):
    # Every kind rule tests `is PlannerKind.X`, so a bare string would pass
    # them all and fail on `label` only once the sweep had started.
    with pytest.raises(ConfigError, match=f"kind must be a PlannerKind, got {kind!r}$"):
        PlannerSpec(kind, k=5, q=0.9, d=0.5)


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
    # A fifth field is refused, not dropped.
    for token in ("diverse:5:0.8:0.5:9", "top_k:5:0:0:junk"):
        with pytest.raises(ConfigError, match=token):
            parse_planners(token)


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


def test_config_file_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "twice.conf"
    path.write_text("iterations = 100\nwidth = 8\n# iterations = 300\niterations = 200\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"twice.conf:4: key 'iterations' already set on line 1$"):
        parse_config_file(path)


def test_config_explicit_risk_list():
    config = config_from_mapping({"risk_levels": "0.1, 0.2, 0.35"})
    assert config.risk_levels == (0.1, 0.2, 0.35)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"profile": "bogus"}, r"unknown profile 'bogus' \(choose from \['desk', 'paper'\]\)"),
        ({"speed": "11"}, "unknown key 'speed'"),
        ({"width": "abc"}, "bad config value: invalid literal for int"),
        ({"risk_levels": "0.1, x"}, "bad config value: could not convert string to float: 'x'"),
        ({"risk_levels": "0.1, nan"}, r"risk levels must lie in \[0, 1\], got \(0.1, nan\)"),
        ({"rollout_greedy_p": "x"}, "bad config value: could not convert string to float: 'x'"),
        ({"rollout_greedy_p": "nan"}, r"rollout_greedy_p must lie in \[0, 1\], got nan"),
    ],
    ids=["profile", "key", "cast", "risk token", "risk nan", "greedy_p token", "greedy_p nan"],
)
def test_config_from_mapping_refusals(values, message):
    with pytest.raises(ConfigError, match=message):
        config_from_mapping(values)


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


# sha256 prefixes of the micro sweep's CSV bytes under a counting clock, per
# (policy, value mode).  The two sweeps happen to write the same rows; a
# broken AVERAGE value read changes the second.
GOLDEN_CSVS = {
    (Policy.UCB1, ValueMode.MAX): "31923d4e473810cc",
    (Policy.UCB1, ValueMode.AVERAGE): "31923d4e473810cc",
}


@pytest.mark.parametrize("policy, mode", list(GOLDEN_CSVS), ids=lambda v: v.name)
def test_csv_bytes_match_the_pinned_hashes(tmp_path, policy, mode):
    search = micro_config().search
    bandit = replace(search.bandit, policy=policy)
    out = tmp_path / "out.csv"
    config = micro_config(None, search=replace(search, value_mode=mode, bandit=bandit), output_path=str(out))
    run_experiment(config, clock=CountingClock())
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == GOLDEN_CSVS[policy, mode]


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


def run_in_a_fresh_interpreter(script):
    """``script`` run by a new Python that imports this checkout's planset."""
    src = str(Path(planset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def test_worker_fanout_matches_serial_under_spawn():
    # The pool uses the platform's start method.  Under spawn, the default
    # off Linux, each worker re-imports planset and must give the same rows.
    done = run_in_a_fresh_interpreter(SPAWN_SWEEP)
    assert done.stdout.strip() == "same records"


FORK_WORKER_IMPORTS = textwrap.dedent(
    """
    import multiprocessing
    import sys

    from planset.experiment import ExperimentConfig, run_experiment
    from planset.mcts import BanditConfig, SearchConfig
    from planset.tree import ValueMode


    def modules_an_instance_imports(config):
        before = set(sys.modules)
        run_experiment(config)
        return sorted(set(sys.modules) - before)


    if __name__ == "__main__":
        config = ExperimentConfig(
            risk_levels=(0.1, 0.4),
            replications_per_level=1,
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
        with multiprocessing.get_context("fork").Pool(1) as pool:
            print(pool.apply(modules_an_instance_imports, (config,)))
    """
)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_a_forked_worker_imports_nothing_to_run_an_instance():
    # A fresh interpreter, since this one has long since loaded numpy.random:
    # importing planset loads it, so a fork-started pool worker inherits it.
    assert run_in_a_fresh_interpreter(FORK_WORKER_IMPORTS).stdout.strip() == "[]"


@pytest.mark.parametrize(
    "field, value",
    [
        ("replications_per_level", 1.5),
        ("width", 6.0),
        ("height", 6.0),
        ("workers", 1.0),
        ("detection_radius", 0.5),
        ("master_seed", 1.5),
    ],
)
def test_non_integer_fields_are_refused_before_any_output(tmp_path, field, value):
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        run_experiment(micro_config(None, output_path=str(out), **{field: value}))
    assert not out.exists()


NON_REAL_SETTINGS = {
    "risk level string": ({"risk_levels": (0.1, "x")}, "risk level must be a real number, got 'x'"),
    "risk level None": ({"risk_levels": (None,)}, "risk level must be a real number, got None"),
    "risk_levels a number": ({"risk_levels": 0.5}, "risk_levels must be a tuple of real numbers, got 0.5"),
    "risk_levels a string": ({"risk_levels": "0.5"}, "risk_levels must be a tuple of real numbers, got '0.5'"),
    "greedy_p string": ({"rollout_greedy_p": "x"}, "rollout_greedy_p must be a real number, got 'x'"),
    "greedy_p None": ({"rollout_greedy_p": None}, "rollout_greedy_p must be a real number, got None"),
    "planner a string": ({"planners": ("single",)}, "planner must be a PlannerSpec, got 'single'"),
    "planners None": ({"planners": None}, "planners must be a tuple of PlannerSpecs, got None"),
    "search None": ({"search": None}, "search must be a SearchConfig, got None"),
}


@pytest.mark.parametrize("case", list(NON_REAL_SETTINGS))
def test_non_real_risk_and_greedy_p_are_refused(case):
    """Each escaped as a bare ``TypeError`` from a comparison or a loop,
    or, for a planner or search of the wrong type, an ``AttributeError``."""
    overrides, message = NON_REAL_SETTINGS[case]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        desk_profile(**overrides)


def test_worker_pool_is_capped_at_the_instance_count(monkeypatch):
    """Three workers for two instances fork two, with the same records."""
    sizes = []
    real_pool = multiprocessing.Pool

    def pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    config = micro_config(risk_levels=(0.1,))
    fanned = run_experiment(replace(config, workers=3))
    assert sizes == [2]
    assert _untimed(fanned) == _untimed(run_experiment(config))


@pytest.mark.parametrize(
    "planners, message",
    [
        ((), "need at least one planner"),
        ((PlannerSpec(PlannerKind.TOP_K, k=5), PlannerSpec(PlannerKind.TOP_K, k=5.0)), "planner top_k:5:0.0:0.0 given twice"),
        (
            (PlannerSpec(PlannerKind.SINGLE), PlannerSpec(PlannerKind.DIVERSE, k=5, q=0.8, d=0.5),
             PlannerSpec(PlannerKind.DIVERSE, k=10, q=0.8, d=0.3),
             PlannerSpec(PlannerKind.DIVERSE, k=np.int64(5), q=np.float64(0.8), d=0.5)),
            "planner diverse:5:0.8:0.5 given twice",
        ),
    ],
    ids=["none", "top_k:5 twice", "diverse:5:0.8:0.5 twice"],
)
def test_planners_must_be_distinct_specs(planners, message):
    # Records and summaries are keyed by a spec's label, so the same spec
    # given twice would pool into one row.  Two planners of one kind with
    # other bounds are a bound study, and run.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        micro_config(planners=planners)


def test_repeated_kind_labels_round_trip_through_parse_planners():
    # A kind given once keeps its bare name, so the default planners' CSV
    # bytes do not move; a repeated kind's rows carry the exact spelling,
    # printed from int and float so that no numpy repr leaks into the CSV.
    specs = (
        PlannerSpec(PlannerKind.SINGLE),
        PlannerSpec(PlannerKind.TOP_QUALITY, k=math.inf, q=0.8),
        PlannerSpec(PlannerKind.TOP_QUALITY, k=np.int64(5), q=np.float64(0.8)),
        PlannerSpec(PlannerKind.TOP_QUALITY, k=5, q=0.80000001),
        PlannerSpec(PlannerKind.DIVERSE, k=np.float64(10.0), q=np.float32(0.8), d=np.float64(0.25)),
        PlannerSpec(PlannerKind.DIVERSE, k=10, q=0.8, d=0.5),
        PlannerSpec(PlannerKind.RANDOM, k=5),
    )
    config = micro_config(planners=specs, risk_levels=(0.1,), replications_per_level=1, width=4, height=4)
    labels = [record.planner for record in run_experiment(config)]
    assert labels == [
        "single",
        "top_quality:inf:0.8:0.0",
        "top_quality:5:0.8:0.0",
        "top_quality:5:0.80000001:0.0",
        "diverse:10:0.800000011920929:0.25",
        "diverse:10:0.8:0.5",
        "random",
    ]
    for spec, label in zip(specs, labels):
        if label != spec.kind.value:
            assert parse_planners(label) == (spec,), label
            assert label == spec.label


BOUND_STUDY = "top_k:1 top_k:5 diverse:5:0.8:0.25 diverse:5:0.8:0.5"


def test_a_bound_study_searches_each_instance_once(monkeypatch):
    # Bounds are applied again to a finished tree, so one sweep serves every
    # bound: one search per instance, and each bound's rows are the ones its
    # own one-planner sweep gives.
    searches = []
    real_search = planset.experiment.run_search

    def counting_search(sim, config):
        searches.append(config.seed)
        return real_search(sim, config)

    monkeypatch.setattr(planset.experiment, "run_search", counting_search)
    config = ExperimentConfig(
        risk_levels=(0.1, 0.3),
        replications_per_level=2,
        width=6,
        height=6,
        search=SearchConfig(
            iterations=600, max_rollout_steps=24, value_mode=ValueMode.MAX, bandit=BanditConfig(exploration_c=0.1)
        ),
        planners=parse_planners(BOUND_STUDY),
        master_seed=2024,
    )
    records = run_experiment(config)
    assert len(searches) == len(set(searches)) == config.instances
    assert [r.planner for r in records[: len(config.planners)]] == [
        "top_k:1:0.0:0.0", "top_k:5:0.0:0.0", "diverse:5:0.8:0.25", "diverse:5:0.8:0.5",
    ]
    rows = lambda recs: [(r.instance_id, r.success, r.plans_emitted, r.best_path_len) for r in recs]
    for spec in config.planners:
        alone = run_experiment(replace(config, planners=(spec,)))
        assert {r.planner for r in alone} == {spec.kind.value}
        assert rows(alone) == rows(r for r in records if r.planner == spec.label), spec.label
    assert len(searches) == config.instances * (1 + len(config.planners))
    assert _untimed(run_experiment(replace(config, workers=2))) == _untimed(records)


def test_search_seed_is_refused_since_master_seed_sets_it():
    # Each instance's search seed is derived from master_seed, so any other
    # search seed would be ignored without a word.
    search = replace(micro_config().search, seed=5)
    with pytest.raises(ConfigError, match=r"^search.seed must be 0 \(set master_seed instead\), got 5$"):
        micro_config(search=search)


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
    assert planners == {p.kind.value for p in micro_run[0].planners}
    all_band = [r for r in rows if r.get("band") == "all"]
    for row in all_band:
        assert 0.0 <= row["ci_lo"] <= row["success_rate"] <= row["ci_hi"] <= 1.0
    timing = [r for r in rows if r.get("band") == "timing"]
    assert timing and all("build_s" in r for r in timing)


def test_extraction_never_mutates_the_shared_tree():
    from planset.extraction import ExtractionConfig, extract_plans
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
            extract_plans(tree, ExtractionConfig(k=planner.k, q=planner.q, d=planner.d))
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
    records = [
        ResultRecord(0, 0.1, "single", True, 1, 7, 7, 0.1, 0.001),
        ResultRecord(1, 0.1, "single", False, 1, None, 7, 0.1, 0.001),
    ]
    rows = summarize(records)
    low = [r for r in rows if r.get("band") == "low"]
    assert low[0]["success_rate"] == 0.5
    medium = [r for r in rows if r.get("band") == "medium_high"]
    assert medium == []  # no records at risk >= 0.3 at all


def test_summary_columns_line_up_under_long_labels():
    # The planner column is as wide as the longest label, so a bound
    # study's spelled-out labels do not push their rows' columns right.
    records = [
        ResultRecord(i, risk, planner, i % 2 == 0, 1, 7 if i % 2 == 0 else None, 7, 0.1, 0.001)
        for i, (risk, planner) in enumerate(
            [(0.1, "top_k"), (0.1, "top_k"), (0.5, "top_k"), (0.1, "top_quality:inf:0.8:0.0"),
             (0.1, "top_quality:inf:0.8:0.0"), (0.5, "top_quality:inf:0.8:0.0"), (0.5, "top_quality:inf:0.8:0.0")]
        )
    ]
    lines = render_summary(summarize(records)).splitlines()
    assert any("excluded" in line for line in lines) and any("timing" in line for line in lines)
    assert {line.split()[0] for line in lines[1:]} == {"top_k", "top_quality:inf:0.8:0.0"}
    assert {re.match(r"\S+ +", line).end() for line in lines} == {len("top_quality:inf:0.8:0.0") + 1}
