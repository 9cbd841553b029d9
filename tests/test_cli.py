import numpy as np
import pytest

from conftest import random_backprop_tree
from planset.cli import main
from planset.extraction import ExtractionConfig, brute_force_enumerate, extract_plans
from planset.gridworld import generate_instance, render_map


@pytest.fixture()
def tree_file(tmp_path):
    rng = np.random.default_rng(31)
    tree = random_backprop_tree(rng, max_nodes=25)
    path = tmp_path / "tree.txt"
    path.write_text(tree.to_text(), encoding="utf-8")
    return tree, path


def test_oracle_matches_brute_force(tree_file, capsys):
    tree, path = tree_file
    assert main(["oracle", "--tree", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,quality,actions"
    expected = brute_force_enumerate(tree)
    assert len(out) == 1 + len(expected)
    for line, (plan, quality) in zip(out[1:], expected):
        rank, q_text, actions = line.split(",")
        assert float(q_text) == pytest.approx(quality, abs=1e-15)
        assert actions == " ".join(str(a) for a in plan.actions)


def test_extract_matches_library(tree_file, capsys):
    tree, path = tree_file
    assert main(["extract", "--tree", str(path), "--k", "3", "--q", "0.5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    expected = extract_plans(tree, ExtractionConfig(k=3, q=0.5)).plans
    assert len(out) == 1 + len(expected)
    for line, plan in zip(out[1:], expected):
        _, q_text, actions = line.split(",")
        assert float(q_text) == pytest.approx(plan.relative_quality, abs=1e-15)
        assert actions == " ".join(str(a) for a in plan.actions)


def test_plan_subcommand(tmp_path, capsys):
    world = generate_instance(8, 8, 0.0, rng=5)
    world_path = tmp_path / "map.txt"
    world_path.write_text(render_map(world), encoding="utf-8")
    code = main(["plan", "--world", str(world_path), "--iterations", "800", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "plan: " in out
    moves = out.splitlines()[0].split(": ")[1]
    assert set(moves) <= set("NESW")
    assert "steps: 7" in out  # exact shortest path on the empty 8x8 grid


def test_experiment_subcommand(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    out_csv = tmp_path / "records.csv"
    conf.write_text(
        "risk_levels = 0.1\n"
        "replications_per_level = 2\n"
        "width = 8\nheight = 8\n"
        "iterations = 300\n"
        "max_rollout_steps = 32\n"
        "planners = single,top_k:3\n",
        encoding="utf-8",
    )
    code = main(["experiment", "--config", str(conf), "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("instance_id,risk,planner")
    assert len(lines) == 1 + 2 * 2
    shown = capsys.readouterr().out
    assert "single" in shown and "top_k" in shown


def test_flag_overrides_config(tmp_path):
    conf = tmp_path / "exp.conf"
    out_csv = tmp_path / "records.csv"
    conf.write_text("risk_levels = 0.1\nreplications_per_level = 5\n", encoding="utf-8")
    code = main(
        [
            "experiment",
            "--config",
            str(conf),
            "--replications_per_level",
            "1",
            "--iterations",
            "200",
            "--width",
            "6",
            "--height",
            "6",
            "--planners",
            "single",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 2


def test_bad_usage_returns_one(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "nope.conf")]) == 1
    assert main(["extract", "--tree", str(tmp_path / "nope.txt")]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    # Bad values are refused before any search runs or the CSV is opened.
    out_csv = tmp_path / "never.csv"
    small = ["--replications_per_level", "1", "--iterations", "20", "--out", str(out_csv)]
    for flags in (
        ["--planners", "top_k:0"],
        ["--planners", "random:0"],
        ["--planners", "top_k:2.5"],
        ["--width", "1"],
        ["--risk_levels", "1.5"],
        ["--rollout_greedy_p", "1.5"],
        ["--detection_radius", "-1"],
    ):
        assert main(["experiment", *flags, *small]) == 1, flags
        assert capsys.readouterr().err.startswith("error:"), flags
        assert not out_csv.exists(), flags


def test_runtime_fault_returns_two(tmp_path, capsys):
    bad_tree = tmp_path / "mangled.txt"
    bad_tree.write_text("# planset-tree v1 mode=average\n0 -1 -1 not_a_number 0 0 -\n", encoding="utf-8")
    assert main(["oracle", "--tree", str(bad_tree)]) == 2
    capsys.readouterr()
