import math

import numpy as np
import pytest

from conftest import leaf_deposit_tree, random_backprop_tree
from planset.tree import (
    DuplicateEdgeError,
    InvalidNodeError,
    LeafError,
    SearchTree,
    UndefinedValueError,
    ValueMode,
)


def chain_tree(rewards_per_node):
    """Linear tree root->1->2->..., each node's playouts given as a list."""
    tree = SearchTree(b"s0", root_actions=[0])
    nid = tree.root
    for depth, rewards in enumerate(rewards_per_node[1:], start=1):
        nid = tree.add_child(nid, 0, f"s{depth}".encode(), untried_actions=[0])
        for r in rewards:
            tree.backpropagate(nid, r)
    for r in rewards_per_node[0]:
        tree.backpropagate(tree.root, r)
    return tree


def test_first_expansion():
    tree = SearchTree(b"root", root_actions=[0, 1])
    child = tree.add_child(tree.root, 0, b"s1", terminal=False)
    assert child == 1
    assert tree.node(tree.root).children == [1]
    assert tree.node(child).visits == 0
    assert tree.node(child).total_reward == 0.0
    assert tree.node(tree.root).untried_actions == [1]


def test_duplicate_edge_rejected():
    tree = SearchTree(b"root", root_actions=[0])
    tree.add_child(tree.root, 0, b"s1")
    with pytest.raises(DuplicateEdgeError):
        tree.add_child(tree.root, 0, b"s1-again")


def test_unknown_action_rejected():
    tree = SearchTree(b"root", root_actions=[0])
    with pytest.raises(ValueError):
        tree.add_child(tree.root, 7, b"s1")


def test_children_keep_insertion_order():
    def build(seed):
        rng = np.random.default_rng(seed)
        tree = SearchTree(b"root", root_actions=[0, 1, 2])
        order = list(rng.permutation(3))
        for a in order:
            tree.add_child(tree.root, int(a), b"s%d" % a)
            tree.backpropagate(len(tree.nodes) - 1, float(rng.random()))
        return tree

    a, b = build(42), build(42)
    assert a.to_text() == b.to_text()
    assert a.node(a.root).children == [1, 2, 3]


def test_path_to_runs_from_the_root():
    tree = SearchTree(b"s0", root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"a", untried_actions=[0])
    b = tree.add_child(tree.root, 1, b"b")
    aa = tree.add_child(a, 0, b"aa")
    assert tree.path_to(aa) == [tree.root, a, aa]
    assert tree.path_to(b) == [tree.root, b]
    assert tree.path_to(tree.root) == [tree.root]
    with pytest.raises(InvalidNodeError):
        tree.path_to(99)


def test_unknown_node_rejected():
    tree = SearchTree(b"root")
    with pytest.raises(InvalidNodeError):
        tree.node(5)
    with pytest.raises(InvalidNodeError):
        tree.backpropagate(5, 0.5)


def test_backpropagate_updates_whole_path():
    tree = chain_tree([[], [], []])  # root -> 1 -> 2, no playouts yet
    tree.backpropagate(2, 1.0)
    for nid in (0, 1, 2):
        assert tree.node(nid).visits == 1
        assert tree.node(nid).total_reward == 1.0


def test_two_playouts_average_to_half():
    tree = SearchTree(b"root", root_actions=[0])
    child = tree.add_child(tree.root, 0, b"s1")
    tree.backpropagate(child, 1.0)
    tree.backpropagate(child, 0.0)
    assert tree.q_value(child) == 0.5


def test_reward_range_enforced():
    tree = SearchTree(b"root")
    with pytest.raises(ValueError):
        tree.backpropagate(tree.root, 1.5)
    with pytest.raises(ValueError):
        tree.backpropagate(tree.root, -0.1)


def test_q_value_average():
    tree = SearchTree(b"root")
    for r in (1.0, 1.0, 1.0, 0.0):
        tree.backpropagate(tree.root, r)
    assert tree.q_value(tree.root) == 0.75


def test_q_value_max_mode_takes_best_child():
    tree = SearchTree(b"root", ValueMode.MAX, root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"a")
    b = tree.add_child(tree.root, 1, b"b")
    tree.backpropagate(a, 0.2)
    tree.backpropagate(b, 0.9)
    assert tree.q_value(tree.root) == 0.9
    assert tree.q_value(tree.root, ValueMode.AVERAGE) == pytest.approx(0.55)


def test_q_value_max_mode_falls_back_to_average_at_frontier():
    tree = SearchTree(b"root", ValueMode.MAX)
    tree.backpropagate(tree.root, 0.4)
    tree.backpropagate(tree.root, 0.8)
    assert tree.q_value(tree.root) == pytest.approx(0.6)


def test_q_value_requires_visits():
    tree = SearchTree(b"root", root_actions=[0])
    child = tree.add_child(tree.root, 0, b"s1")
    with pytest.raises(UndefinedValueError):
        tree.q_value(child)


def test_best_child_argmax_and_ties():
    tree = SearchTree(b"root", root_actions=[0, 1, 2])
    kids = [tree.add_child(tree.root, a, b"s%d" % a) for a in range(3)]
    for kid, q in zip(kids, (0.4, 0.9, 0.7)):
        tree.backpropagate(kid, q)
    assert tree.best_child(tree.root) == kids[1]

    tie = SearchTree(b"root", root_actions=[0, 1])
    t0 = tie.add_child(tie.root, 0, b"a")
    t1 = tie.add_child(tie.root, 1, b"b")
    tie.backpropagate(t0, 0.5)
    tie.backpropagate(t1, 0.5)
    assert tie.best_child(tie.root) == t0


def test_best_child_on_leaf():
    tree = SearchTree(b"root")
    tree.backpropagate(tree.root, 0.5)
    with pytest.raises(LeafError):
        tree.best_child(tree.root)


def test_consistency_clean_and_corrupted():
    rng = np.random.default_rng(7)
    tree = random_backprop_tree(rng)
    assert tree.check_consistency() == []

    victim = int(rng.integers(len(tree.nodes)))
    tree.node(victim).total_reward += 100.0
    assert victim in tree.check_consistency()


def test_consistency_single_node():
    tree = SearchTree(b"root")
    assert tree.check_consistency() == []
    tree.backpropagate(tree.root, 0.3)
    assert tree.check_consistency() == []


@pytest.mark.parametrize("seed", range(20))
def test_random_tree_invariants(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    assert tree.check_consistency() == []
    for nid in range(len(tree.nodes)):
        rec = tree.node(nid)
        child_visits = sum(tree.node(c).visits for c in rec.children)
        assert rec.visits >= child_visits
        if rec.visits:
            avg = tree.q_value(nid, ValueMode.AVERAGE)
            assert 0.0 <= avg <= 1.0


@pytest.mark.parametrize("seed", range(20))
def test_max_mode_dominates_average(seed):
    # Maximum >= weighted mean requires every internal node's mass to be
    # exactly its children's mass; playouts that end at an internal node add
    # self mass its children never see and break the comparison.
    rng = np.random.default_rng(seed)
    tree = leaf_deposit_tree(rng)
    assert tree.check_consistency() == []
    for nid in tree.iter_visited():
        if tree.visited_children(nid):
            avg = tree.q_value(nid, ValueMode.AVERAGE)
            assert tree.q_value(nid, ValueMode.MAX) >= avg - 1e-12


def test_serialization_round_trip():
    rng = np.random.default_rng(11)
    tree = random_backprop_tree(rng)
    text = tree.to_text()
    clone = SearchTree.from_text(text)
    assert clone.to_text() == text
    assert clone.value_mode == tree.value_mode
    for nid in tree.iter_visited():
        assert clone.q_value(nid) == tree.q_value(nid)
        assert clone.q_value(nid, ValueMode.MAX) == tree.q_value(nid, ValueMode.MAX)


def test_serialization_reward_precision():
    tree = SearchTree(b"root")
    tree.backpropagate(tree.root, 0.1)
    tree.backpropagate(tree.root, 0.2)
    clone = SearchTree.from_text(tree.to_text())
    assert clone.node(0).total_reward == tree.node(0).total_reward


def test_consistency_flags_nan_reward():
    tree = SearchTree(b"root")
    tree.backpropagate(tree.root, 0.3)
    tree.node(tree.root).total_reward = math.nan
    assert tree.check_consistency() == [tree.root]


def tree_text(*rows):
    return "# planset-tree v1 mode=average\n" + "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("parent", ["-3", "1", "7"])
def test_load_rejects_parent_not_listed_before(parent):
    with pytest.raises(ValueError, match="not listed before"):
        SearchTree.from_text(tree_text("0 -1 -1 1 0.5 0 -", f"1 {parent} 0 0 0 1 61"))


def test_load_rejects_repeated_action():
    # Statistics are consistent; only the two action-1 edges are wrong.
    text = tree_text("0 -1 -1 2 1 0 -", "1 0 1 1 0.5 1 61", "2 0 1 1 0.5 1 62")
    with pytest.raises(ValueError, match="action 1"):
        SearchTree.from_text(text)


@pytest.mark.parametrize("reward", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_reward(reward):
    with pytest.raises(ValueError, match="not finite"):
        SearchTree.from_text(tree_text(f"0 -1 -1 1 {reward} 0 -"))


@pytest.mark.parametrize(
    "rows",
    [
        ("0 -1 -1 5 9 0 -",),  # reward 9 over 5 visits
        ("0 -1 -1 1 0.5 0 -", "1 0 0 2 0.5 1 61"),  # child visited more than its parent
    ],
)
def test_load_rejects_inconsistent_statistics(rows):
    with pytest.raises(ValueError, match="statistics"):
        SearchTree.from_text(tree_text(*rows))


def assert_max_values_fresh(tree):
    """Every visited node's cached max value equals the one ``from_text``
    recomputes from scratch (``.17g`` round-trips doubles, so ``==``)."""
    fresh = SearchTree.from_text(tree.to_text())
    for nid in tree.iter_visited():
        assert tree.nodes[nid].max_value == fresh.nodes[nid].max_value, nid


@pytest.mark.parametrize("mode", list(ValueMode))
@pytest.mark.parametrize("seed", range(10))
def test_backpropagate_refresh_matches_a_full_recompute(monkeypatch, mode, seed):
    real = SearchTree.backpropagate
    calls = []

    def checked(self, leaf, reward):
        real(self, leaf, reward)
        calls.append(leaf)
        assert_max_values_fresh(self)

    monkeypatch.setattr(SearchTree, "backpropagate", checked)
    random_backprop_tree(np.random.default_rng(seed), value_mode=mode, extra_playouts=40)
    assert len(calls) > 40


def test_refresh_follows_one_ulp_moves_and_first_visits_at_zero():
    tree = SearchTree(b"s0", ValueMode.MAX, root_actions=[0, 1])
    mid = tree.add_child(tree.root, 0, b"mid", untried_actions=[0])
    leaf = tree.add_child(mid, 0, b"leaf", terminal=True)
    averages = set()
    for _ in range(6):
        # Identical rewards, yet the running average moves by an ulp.
        tree.backpropagate(leaf, 0.1)
        averages.add(tree.q_value(leaf))
        assert tree.q_value(tree.root) == tree.q_value(leaf)
        assert_max_values_fresh(tree)
    assert len(averages) > 1
    # A first visit at reward 0 leaves the new node's cached value at 0.0,
    # but makes it the only visited child of a parent valued at 0.5.
    other = tree.add_child(tree.root, 1, b"other", untried_actions=[0])
    tree.backpropagate(other, 0.5)
    below = tree.add_child(other, 0, b"below")
    tree.backpropagate(below, 0.0)
    assert tree.q_value(other) == 0.0
    assert_max_values_fresh(tree)
