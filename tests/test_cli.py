import numpy as np
import pytest

from conftest import random_backprop_tree
from planset.cli import _build_parser, _key_flags, main
from planset.extraction import ExtractionConfig, brute_force_enumerate, extract_plans
from planset.gridworld import generate_instance, parse_map, render_map
from planset.tree import SearchTree


@pytest.fixture()
def tree_file(tmp_path):
    rng = np.random.default_rng(31)
    tree = random_backprop_tree(rng, max_nodes=25)
    path = tmp_path / "tree.txt"
    path.write_text(tree.to_text(), encoding="utf-8")
    return tree, path


def test_extract_without_bounds_prints_every_ranked_plan(tree_file, capsys):
    # The exhaustive walk's ranking: the same quality at each rank, and the
    # same action sequences within each quality tie.
    tree, path = tree_file
    assert main(["extract", "--tree", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,quality,actions"
    ranked = brute_force_enumerate(tree)
    assert len(out) == 1 + len(ranked)
    printed, expected = {}, {}
    for rank, (line, (plan, quality)) in enumerate(zip(out[1:], ranked), start=1):
        rank_text, q_text, actions = line.split(",")
        assert int(rank_text) == rank
        assert float(q_text) == pytest.approx(quality, abs=1e-15)
        printed.setdefault(quality, set()).add(actions)
        expected.setdefault(quality, set()).add(" ".join(str(a) for a in plan.actions))
    assert printed == expected


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
    # The exact shortest path on the empty 8x8 grid; a plan that arrives
    # prints these three lines and nothing about the goal.
    assert capsys.readouterr().out == (
        "plan: EEEEEEE\n"
        "steps: 7 (unobstructed shortest: 7)\n"
        "relative quality: 1.000000  absolute: 0.932065\n"
    )


def test_plan_says_when_it_stops_short_of_the_goal(tmp_path, capsys):
    world_path = tmp_path / "map.txt"
    world_path.write_text(render_map(generate_instance(10, 10, 0.2, rng=3)), encoding="utf-8")
    flags = ["--seed", "5", "--value_mode", "average", "--exploration_c", "0.7", "--iterations", "800"]
    assert main(["plan", "--world", str(world_path), *flags]) == 0
    assert capsys.readouterr().out == (
        "plan: EEEEE\n"
        "steps: 5 (unobstructed shortest: 9)\n"
        "relative quality: 1.000000  absolute: 0.867817\n"
        "goal: not reached; the plan stops where the search tree ends\n"
    )


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


# Editors on some platforms save UTF-8 with a leading byte-order mark; each
# of the CLI's three readers drops it, while the parsers behind them stay
# strict about the text they are given.
BOM = "\ufeff"


def test_config_file_may_open_with_a_byte_order_mark(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    out_csv = tmp_path / "records.csv"
    conf.write_text(
        BOM + "risk_levels = 0.1\nreplications_per_level = 1\nwidth = 4\nheight = 4\niterations = 20\n"
        "planners = top_k:1,top_k:3\n",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(conf), "--out", str(out_csv)]) == 0
    rows = out_csv.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["top_k:1:0.0:0.0", "top_k:3:0.0:0.0"]
    assert "top_k:3:0.0:0.0" in capsys.readouterr().out


def test_tree_file_may_open_with_a_byte_order_mark(tree_file, tmp_path, capsys):
    tree, path = tree_file
    assert main(["extract", "--tree", str(path), "--k", "3"]) == 0
    plain = capsys.readouterr().out
    marked = tmp_path / "marked.txt"
    marked.write_text(BOM + tree.to_text(), encoding="utf-8")
    assert main(["extract", "--tree", str(marked), "--k", "3"]) == 0
    assert capsys.readouterr().out == plain
    with pytest.raises(ValueError, match="^expected a '# planset-tree v1 mode=<mode>' header"):
        SearchTree.from_text(BOM + tree.to_text())


def test_map_file_may_open_with_a_byte_order_mark(tmp_path, capsys):
    world_text = render_map(generate_instance(6, 6, 0.0, rng=5))
    outputs = []
    for name, text in (("plain.txt", world_text), ("marked.txt", BOM + world_text)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["plan", "--world", str(tmp_path / name), "--iterations", "100"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("plan: ")
    with pytest.raises(ValueError, match="^map rows must be non-empty and equal length$"):
        parse_map(BOM + world_text)


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


def test_out_and_output_path_spell_one_flag(tmp_path):
    for spelling in ("--out", "--output_path"):
        args = _build_parser().parse_args(["experiment", spelling, "records.csv"])
        assert _key_flags(args) == {"output_path": "records.csv"}
    # Either spelling names one setting, so the last one given wins.
    args = _build_parser().parse_args(["experiment", "--output_path", "a.csv", "--out", "b.csv"])
    assert _key_flags(args) == {"output_path": "b.csv"}
    out_csv = tmp_path / "records.csv"
    tiny = ["--risk_levels", "0.1", "--replications_per_level", "1", "--iterations", "20", "--width", "4", "--height", "4"]
    assert main(["experiment", *tiny, "--planners", "single", "--output_path", str(out_csv)]) == 0
    assert len(out_csv.read_text(encoding="utf-8").splitlines()) == 2


def test_bad_usage_returns_one(tree_file, tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "nope.conf")]) == 1
    assert main(["extract", "--tree", str(tmp_path / "nope.txt")]) == 1
    assert main(["plan", "--world", str(tmp_path / "nope.txt")]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    # Bad values are refused before any search runs or the CSV is opened.
    out_csv = tmp_path / "never.csv"
    no_equals = tmp_path / "no_equals.conf"
    no_equals.write_text("width 6\n", encoding="utf-8")
    twice = tmp_path / "twice.conf"
    twice.write_text("iterations = 20\niterations = 30\n", encoding="utf-8")
    small = ["--replications_per_level", "1", "--iterations", "20", "--out", str(out_csv)]
    for flags in (
        ["--planners", "top_k:0"],
        ["--planners", "random:0"],
        ["--planners", "top_k:2.5"],
        ["--planners", "diverse:5:0.8:0.5:9"],
        ["--planners", "random:5:0.5"],
        ["--planners", "diverse:5:0.8"],
        ["--planners", "top_k:x"],
        ["--planners", ","],
        ["--planners", "top_k:5,top_k:5.0"],
        ["--profile", "bogus"],
        ["--config", str(no_equals)],
        ["--config", str(twice)],
        ["--risk_levels", "0"],
        ["--risk_levels", ","],
        ["--workers", "0"],
        ["--width", "1"],
        ["--risk_levels", "1.5"],
        ["--rollout_greedy_p", "1.5"],
        ["--detection_radius", "-1"],
        ["--master_seed", "-1"],
    ):
        assert main(["experiment", *flags, *small]) == 1, flags
        assert capsys.readouterr().err.startswith("error:"), flags
        assert not out_csv.exists(), flags
    # The keys of the deleted diverse-UCB1 search policy are unknown keys,
    # in a config file and as flags alike.
    for key, value in (("policy", "diverse_ucb1"), ("diversity_refresh_interval", "50"), ("diversity_set_size", "3")):
        old = tmp_path / f"{key}.conf"
        old.write_text(f"{key} = {value}\n", encoding="utf-8")
        for flags in (["--config", str(old)], [f"--{key}", value]):
            assert main(["experiment", *flags, *small]) == 1, flags
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err, flags
            assert not out_csv.exists(), flags
    # extract and plan check their bounds before reading any tree or map:
    # the mangled tree would be a runtime fault (exit 2) if it were loaded.
    _, tree_path = tree_file
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("# planset-tree v1 mode=average\n0 -1 -1 not_a_number 0 0 -\n", encoding="utf-8")
    world_file = tmp_path / "map.txt"
    world_file.write_text(render_map(generate_instance(8, 8, 0.0, rng=5)), encoding="utf-8")
    for argv in (
        ["extract", "--tree", str(mangled), "--k", "0"],
        ["extract", "--tree", str(tree_path), "--k", "2.5"],
        ["extract", "--tree", str(tree_path), "--k", "0"],
        ["extract", "--tree", str(tree_path), "--k", "nan"],
        ["extract", "--tree", str(tree_path), "--q", "1.5"],
        ["extract", "--tree", str(tree_path), "--q", "nan"],
        ["extract", "--tree", str(tree_path), "--d", "-1"],
        ["plan", "--world", str(world_file), "--iterations", "0"],
        ["plan", "--world", str(world_file), "--exploration_c", "-1"],
        ["plan", "--world", str(world_file), "--seed", "-1"],
        # Trees are read in the mode their header names.
        ["extract", "--tree", str(tree_path), "--mode", "max"],
        # The exhaustive walk is a test oracle, not a command.
        ["oracle", "--tree", str(tree_path)],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_runtime_fault_returns_two(tmp_path, capsys):
    # Tree text no search can write is a runtime fault.
    bad_tree = tmp_path / "mangled.txt"
    for rows in (
        ("0 -1 -1 not_a_number 0 0 -",),
        ("0 -1 -1 1 0.5 0 -", "1 0 0 1 0.5 1 61", "0 -1 -1 3 0.9 0 -"),  # a second root
        ("0 -1 -1 1 0.5 1 -", "1 0 0 1 0.5 0 61"),  # a child of a terminal node
        ("0 -1 -1 1 0.5 0 -", "1 0 0 1 0.5 7 61"),  # a terminal flag other than 0/1
        ("0 -1 x 1 0.5 0 -",),  # a root action other than -1
    ):
        bad_tree.write_text("# planset-tree v1 mode=average\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        assert main(["extract", "--tree", str(bad_tree)]) == 2, rows
        assert capsys.readouterr().err.startswith("fault:"), rows
    # Tree text must open with the exact header to_text writes.
    bad_tree.write_text("0 -1 -1 1 0.5 0 -\n", encoding="utf-8")
    assert main(["extract", "--tree", str(bad_tree)]) == 2
    assert capsys.readouterr().err.startswith("fault: expected a '# planset-tree v1")
    # So is a map that is not one start, one goal and known cells.
    bad_map = tmp_path / "map.txt"
    for text in ("S.\n..\n", "S.G\n..\n", "S?G\n...\n", "S.S.G\n.....\n", "S...G\n....G\n"):
        bad_map.write_text(text, encoding="utf-8")
        assert main(["plan", "--world", str(bad_map), "--iterations", "10"]) == 2, text
        assert capsys.readouterr().err.startswith("fault:"), text
