import math

import numpy as np
import pytest

from conftest import (
    best_child,
    path_relative_quality,
    path_to,
    random_backprop_tree,
    random_root_path,
    stem_state_keys,
    visited_children,
    visited_ids,
)
from planset.extraction import ExtractionConfig, extract_plans
from planset.metrics import (
    DegeneratePlanError,
    Plan,
    PlanSet,
    materialize_plan,
    min_pairwise_diversity,
    stem_keys,
)
from planset.tree import InvalidNodeError, SearchTree, UndefinedValueError, ValueMode


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
    assert materialize_plan(tree, left).relative_quality == 1.0


def test_one_suboptimal_step():
    tree, _, right = two_arm_tree(0.8, 0.6)
    assert materialize_plan(tree, right).relative_quality == pytest.approx(0.75, abs=1e-12)


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
    assert tree.node(bad).value == pytest.approx(0.5)
    assert materialize_plan(tree, bad2).relative_quality == pytest.approx(0.25, abs=1e-12)


def test_single_node_path_is_empty_product():
    tree = SearchTree(b"s0")
    tree.backpropagate(tree.root, 0.4)
    assert materialize_plan(tree, tree.root).relative_quality == 1.0


@pytest.mark.parametrize("last", [-1, -3, 3, 99])
def test_ids_outside_the_tree_are_rejected(last):
    # A negative id must not index the arena from its end.
    tree, _, _ = two_arm_tree()
    with pytest.raises(InvalidNodeError, match=f"^node {last} not in tree of size 3$"):
        materialize_plan(tree, last)


def test_zero_denominator_contributes_no_regret():
    tree = SearchTree(b"s0", root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"a")
    b = tree.add_child(tree.root, 1, b"b")
    tree.backpropagate(a, 0.0)
    tree.backpropagate(b, 0.0)
    assert materialize_plan(tree, a).relative_quality == 1.0
    assert materialize_plan(tree, b).relative_quality == 1.0


def test_path_through_unvisited_child():
    # An unvisited child has no value to set against a visited sibling's;
    # when every visited sibling is worth 0 there is no regret to measure.
    tree = SearchTree(b"s0", root_actions=[0, 1])
    visited = tree.add_child(tree.root, 0, b"v")
    unvisited = tree.add_child(tree.root, 1, b"u")
    tree.backpropagate(visited, 0.7)
    with pytest.raises(UndefinedValueError):
        materialize_plan(tree, unvisited)
    worthless = SearchTree(b"s0", root_actions=[0, 1])
    visited = worthless.add_child(worthless.root, 0, b"v")
    unvisited = worthless.add_child(worthless.root, 1, b"u")
    worthless.backpropagate(visited, 0.0)
    assert materialize_plan(worthless, unvisited).relative_quality == 1.0


def test_zero_numerator_gives_zero_quality():
    tree, _, right = two_arm_tree(0.8, 0.0)
    assert materialize_plan(tree, right).relative_quality == 0.0


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
    assert materialize_plan(tree, right).relative_quality == 1.0
    assert materialize_plan(tree, left).relative_quality == pytest.approx(0.5 / 0.9, abs=1e-12)


def test_absolute_quality_scales_by_root():
    tree = SearchTree(b"s0")
    for r in (0.7, 0.7):
        tree.backpropagate(tree.root, r)
    assert materialize_plan(tree, tree.root).absolute_quality == pytest.approx(0.7)
    assert materialize_plan(tree, tree.root, -math.inf).absolute_quality == 0.0
    tree2 = SearchTree(b"s0")
    for r in (0.8, 0.8):
        tree2.backpropagate(tree2.root, r)
    assert materialize_plan(tree2, tree2.root, math.log(0.75)).absolute_quality == pytest.approx(0.6)


def test_state_set_distance_examples():
    a = make_plan(["1", "2", "3", "4"])
    b = make_plan(["3", "4", "5"])
    assert min_pairwise_diversity(a, [a]) == 0.0
    assert min_pairwise_diversity(a, [make_plan(["x", "y"])]) == 1.0
    assert min_pairwise_diversity(a, [b]) == 0.5


def test_state_set_distance_is_asymmetric():
    a = make_plan(["1", "2", "3", "4"])
    b = make_plan(["3", "4", "5"])
    assert min_pairwise_diversity(a, [b]) == 0.5
    assert min_pairwise_diversity(b, [a]) == pytest.approx(1 / 3)


def test_state_set_distance_empty_plan():
    empty = Plan((0,), (), frozenset(), 1.0, 1.0)
    with pytest.raises(DegeneratePlanError):
        min_pairwise_diversity(empty, [make_plan(["1"])])


def test_min_pairwise_diversity():
    plan = make_plan(["1", "2"])
    assert min_pairwise_diversity(plan, []) == 1.0
    assert min_pairwise_diversity(plan, [plan]) == 0.0
    near = make_plan(["1", "2", "3", "4", "5"])  # distance 0.3 target via construction
    far = make_plan(["x"])
    # plan vs near: |{}\|/2 -> craft explicit distances instead
    others = [make_plan(["1", "2", "9", "8", "7", "6", "5", "4", "3", "0"]), far]
    d_near = min_pairwise_diversity(plan, others[:1])
    d_far = min_pairwise_diversity(plan, others[1:])
    assert min_pairwise_diversity(plan, others) == min(d_near, d_far)
    assert min_pairwise_diversity(plan, PlanSet(plans=others)) == min(d_near, d_far)


def test_min_pairwise_diversity_with_self_in_set():
    rng = np.random.default_rng(3)
    tree = random_backprop_tree(rng)
    path = random_root_path(rng, tree)
    if len(path) == 1:
        path = [tree.root] + visited_children(tree, tree.root)[:1]
    plan = materialize_plan(tree, path[-1])
    others = [plan, make_plan(["z"])]
    assert min_pairwise_diversity(plan, others) == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_prefix_monotonicity(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    for _ in range(20):
        path = random_root_path(rng, tree)
        cut = int(rng.integers(1, len(path) + 1))
        q_full = materialize_plan(tree, path[-1]).relative_quality
        q_prefix = materialize_plan(tree, path[cut - 1]).relative_quality
        assert q_prefix >= q_full - 1e-12
        assert 0.0 <= q_full <= 1.0
        assert 0.0 <= q_prefix <= 1.0


@pytest.mark.parametrize("seed", range(15))
def test_best_child_extension_preserves_quality(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    for _ in range(10):
        path = random_root_path(rng, tree)
        if not visited_children(tree, path[-1]):
            continue
        assert materialize_plan(tree, best_child(tree, path[-1])).relative_quality == pytest.approx(
            materialize_plan(tree, path[-1]).relative_quality, abs=1e-12
        )


def test_materialize_plan_fields():
    tree, left, _ = two_arm_tree()
    plan = materialize_plan(tree, left)
    assert plan.nodes == (tree.root, left)
    assert plan.actions == (0,)
    assert plan.state_keys == frozenset({b"L"})  # root key excluded
    assert plan.relative_quality == 1.0
    assert plan.absolute_quality == pytest.approx(tree.node(tree.root).value)
    # the walk's quality matches the node-list oracle
    assert plan.relative_quality == path_relative_quality(tree, [tree.root, left])


@pytest.mark.parametrize("seed", range(30))
def test_materialize_plan_matches_the_parent_walk_oracle(seed):
    tree = random_backprop_tree(np.random.default_rng(seed))
    for last in visited_ids(tree):
        path = path_to(tree, last)
        relative = path_relative_quality(tree, path)
        expected = Plan(
            nodes=tuple(path),
            actions=tuple(tree.node(nid).action for nid in path[1:]),
            state_keys=frozenset(tree.node(nid).state_key for nid in path[1:]),
            relative_quality=relative,
            absolute_quality=relative * tree.node(tree.root).value,
        )
        assert materialize_plan(tree, last) == expected


@pytest.mark.parametrize("seed", range(10))
def test_stem_keys_are_the_state_keys_of_the_plan_ending_there(seed):
    tree = random_backprop_tree(np.random.default_rng(seed))
    for last in range(len(tree)):
        assert stem_keys(tree, last) == stem_state_keys(tree, last) == materialize_plan(tree, last).state_keys


@pytest.mark.parametrize("seed", range(30))
def test_the_walks_quality_matches_the_extraction_streams(seed):
    # The stream and the walk add the same step log-ratios root first, so
    # the two qualities agree to the bit.
    tree = random_backprop_tree(np.random.default_rng(seed))
    for plan in extract_plans(tree, ExtractionConfig()):
        assert materialize_plan(tree, plan.nodes[-1]).relative_quality == plan.relative_quality


@pytest.mark.parametrize("path", [[0, 1, -1], [0, 3], [0, 1, 99], [0, -2, 1], [0, 7, -2]])
def test_materialize_plan_rejects_ids_outside_the_tree(path):
    """Each id in ``path`` is tried as a plan's last node.  An id outside
    the tree is refused with the tree's own message (a negative id must not
    index the arena from its end), with or without a known quality; an id
    inside it builds the plan ending there, unless the root is unvisited."""
    tree, _, _ = two_arm_tree()
    unvisited = SearchTree(b"s0", root_actions=[0, 1])
    unvisited.add_child(unvisited.root, 0, b"L")
    unvisited.add_child(unvisited.root, 1, b"R")
    for last in path:
        for log_quality in (0.0, None):
            if 0 <= last < len(tree):
                assert materialize_plan(tree, last, log_quality).nodes[-1] == last
                with pytest.raises(UndefinedValueError, match="^node 0 has no visits$"):
                    materialize_plan(unvisited, last, log_quality)
                continue
            for host in (tree, unvisited):
                with pytest.raises(InvalidNodeError, match=f"^node {last} not in tree of size 3$"):
                    materialize_plan(host, last, log_quality)
