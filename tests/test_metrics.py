import numpy as np
import pytest

from conftest import random_backprop_tree, random_root_path
from planset.metrics import (
    DegeneratePlanError,
    InvalidPathError,
    Plan,
    PlanSet,
    absolute_quality,
    materialize_plan,
    min_pairwise_diversity,
    relative_plan_quality,
    state_set_distance,
)
from planset.tree import SearchTree, UndefinedValueError, ValueMode


def two_arm_tree(q_left=0.8, q_right=0.6, mode=ValueMode.AVERAGE):
    tree = SearchTree(b"s0", mode, root_actions=[0, 1])
    left = tree.add_child(tree.root, 0, b"L")
    right = tree.add_child(tree.root, 1, b"R")
    tree.backpropagate(left, q_left)
    tree.backpropagate(right, q_right)
    return tree, left, right


def make_plan(keys, quality=1.0):
    return Plan(
        nodes=(0,),
        actions=(),
        state_keys=frozenset(k.encode() for k in keys),
        relative_quality=quality,
        absolute_quality=quality,
    )


def test_best_path_has_quality_one():
    tree, left, _ = two_arm_tree()
    assert relative_plan_quality(tree, [tree.root, left]) == 1.0


def test_one_suboptimal_step():
    tree, _, right = two_arm_tree(0.8, 0.6)
    assert relative_plan_quality(tree, [tree.root, right]) == pytest.approx(0.75, abs=1e-12)


def test_two_suboptimal_steps_multiply():
    tree = SearchTree(b"s0", root_actions=[0, 1])
    good = tree.add_child(tree.root, 0, b"g")
    bad = tree.add_child(tree.root, 1, b"b", untried_actions=[0, 1])
    tree.backpropagate(good, 1.0)
    tree.backpropagate(bad, 0.0)
    good2 = tree.add_child(bad, 0, b"g2")
    bad2 = tree.add_child(bad, 1, b"b2")
    # Deposits through the grandchildren also feed the middle node's
    # average: (0.0 + 1.0 + 0.5) / 3 = 0.5, half of its best sibling.
    tree.backpropagate(good2, 1.0)
    tree.backpropagate(bad2, 0.5)
    assert tree.q_value(bad) == pytest.approx(0.5)
    assert relative_plan_quality(tree, [tree.root, bad, bad2]) == pytest.approx(0.25, abs=1e-12)


def test_single_node_path_is_empty_product():
    tree = SearchTree(b"s0")
    tree.backpropagate(tree.root, 0.4)
    assert relative_plan_quality(tree, [tree.root]) == 1.0


def test_non_path_rejected():
    tree, left, right = two_arm_tree()
    with pytest.raises(InvalidPathError):
        relative_plan_quality(tree, [tree.root, left, right])
    with pytest.raises(InvalidPathError):
        relative_plan_quality(tree, [left])


def test_zero_denominator_contributes_no_regret():
    tree = SearchTree(b"s0", root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"a")
    b = tree.add_child(tree.root, 1, b"b")
    tree.backpropagate(a, 0.0)
    tree.backpropagate(b, 0.0)
    assert relative_plan_quality(tree, [tree.root, a]) == 1.0
    assert relative_plan_quality(tree, [tree.root, b]) == 1.0


def test_path_through_unvisited_child():
    # An unvisited child has no value to set against a visited sibling's;
    # when every visited sibling is worth 0 there is no regret to measure.
    tree = SearchTree(b"s0", root_actions=[0, 1])
    visited = tree.add_child(tree.root, 0, b"v")
    unvisited = tree.add_child(tree.root, 1, b"u")
    tree.backpropagate(visited, 0.7)
    with pytest.raises(UndefinedValueError):
        relative_plan_quality(tree, [tree.root, unvisited])
    worthless = SearchTree(b"s0", root_actions=[0, 1])
    visited = worthless.add_child(worthless.root, 0, b"v")
    unvisited = worthless.add_child(worthless.root, 1, b"u")
    worthless.backpropagate(visited, 0.0)
    assert relative_plan_quality(worthless, [worthless.root, unvisited]) == 1.0


def test_zero_numerator_gives_zero_quality():
    tree, _, right = two_arm_tree(0.8, 0.0)
    assert relative_plan_quality(tree, [tree.root, right]) == 0.0


def test_max_mode_metric_uses_max_values():
    # Right subtree's deep value is higher than its frontier average; in max
    # mode the metric must see the max-backed values.
    tree = SearchTree(b"s0", ValueMode.MAX, root_actions=[0, 1])
    left = tree.add_child(tree.root, 0, b"L")
    right = tree.add_child(tree.root, 1, b"R", untried_actions=[0])
    tree.backpropagate(left, 0.5)
    tree.backpropagate(right, 0.1)
    deep = tree.add_child(right, 0, b"D")
    tree.backpropagate(deep, 0.9)
    # max-mode: Q(right) = 0.9, Q(left) = 0.5
    assert relative_plan_quality(tree, [tree.root, right]) == 1.0
    assert relative_plan_quality(tree, [tree.root, left]) == pytest.approx(0.5 / 0.9, abs=1e-12)


def test_absolute_quality_scales_by_root():
    tree = SearchTree(b"s0")
    for r in (0.7, 0.7):
        tree.backpropagate(tree.root, r)
    assert absolute_quality(tree, 1.0) == pytest.approx(0.7)
    assert absolute_quality(tree, 0.0) == 0.0
    tree2 = SearchTree(b"s0")
    for r in (0.8, 0.8):
        tree2.backpropagate(tree2.root, r)
    assert absolute_quality(tree2, 0.75) == pytest.approx(0.6)


def test_state_set_distance_examples():
    a = make_plan(["1", "2", "3", "4"])
    b = make_plan(["3", "4", "5"])
    assert state_set_distance(a, a) == 0.0
    assert state_set_distance(a, make_plan(["x", "y"])) == 1.0
    assert state_set_distance(a, b) == 0.5


def test_state_set_distance_is_asymmetric():
    a = make_plan(["1", "2", "3", "4"])
    b = make_plan(["3", "4", "5"])
    assert state_set_distance(a, b) == 0.5
    assert state_set_distance(b, a) == pytest.approx(1 / 3)


def test_state_set_distance_empty_plan():
    empty = Plan((0,), (), frozenset(), 1.0, 1.0)
    with pytest.raises(DegeneratePlanError):
        state_set_distance(empty, make_plan(["1"]))


def test_min_pairwise_diversity():
    plan = make_plan(["1", "2"])
    assert min_pairwise_diversity(plan, []) == 1.0
    assert min_pairwise_diversity(plan, [plan]) == 0.0
    near = make_plan(["1", "2", "3", "4", "5"])  # distance 0.3 target via construction
    far = make_plan(["x"])
    # plan vs near: |{}\|/2 -> craft explicit distances instead
    others = [make_plan(["1", "2", "9", "8", "7", "6", "5", "4", "3", "0"]), far]
    d_near = state_set_distance(plan, others[0])
    d_far = state_set_distance(plan, others[1])
    assert min_pairwise_diversity(plan, others) == min(d_near, d_far)
    assert min_pairwise_diversity(plan, PlanSet(plans=others)) == min(d_near, d_far)


def test_min_pairwise_diversity_with_self_in_set():
    rng = np.random.default_rng(3)
    tree = random_backprop_tree(rng)
    path = random_root_path(rng, tree)
    if len(path) == 1:
        path = [tree.root] + tree.visited_children(tree.root)[:1]
    plan = materialize_plan(tree, path)
    others = [plan, make_plan(["z"])]
    assert min_pairwise_diversity(plan, others) == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_prefix_monotonicity(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    for _ in range(20):
        path = random_root_path(rng, tree)
        cut = int(rng.integers(1, len(path) + 1))
        q_full = relative_plan_quality(tree, path)
        q_prefix = relative_plan_quality(tree, path[:cut])
        assert q_prefix >= q_full - 1e-12
        assert 0.0 <= q_full <= 1.0
        assert 0.0 <= q_prefix <= 1.0


@pytest.mark.parametrize("seed", range(15))
def test_best_child_extension_preserves_quality(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    for _ in range(10):
        path = random_root_path(rng, tree)
        if not tree.visited_children(path[-1]):
            continue
        extended = path + [tree.best_child(path[-1])]
        assert relative_plan_quality(tree, extended) == pytest.approx(
            relative_plan_quality(tree, path), abs=1e-12
        )


def test_materialize_plan_fields():
    tree, left, _ = two_arm_tree()
    plan = materialize_plan(tree, [tree.root, left])
    assert plan.nodes == (tree.root, left)
    assert plan.actions == (0,)
    assert plan.state_keys == frozenset({b"L"})  # root key excluded
    assert plan.relative_quality == 1.0
    assert plan.absolute_quality == pytest.approx(tree.q_value(tree.root))
    # cached quality matches recomputation
    assert plan.relative_quality == relative_plan_quality(tree, plan.nodes)
