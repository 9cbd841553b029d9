import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    LeafError,
    best_child,
    visited_ids,
    leaf_deposit_tree,
    path_to,
    random_backprop_tree,
    visited_children,
)
from planset.experiment import desk_profile
from planset.gridworld import PlanningSimulator, generate_instance
from planset.mcts import SearchConfig, run_search
from planset.tree import (
    DuplicateEdgeError,
    InvalidNodeError,
    SearchTree,
    ValueMode,
)


def mean_reward(tree, nid):
    rec = tree.node(nid)
    return rec.total_reward / rec.visits


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
    assert path_to(tree, aa) == [tree.root, a, aa]
    assert path_to(tree, b) == [tree.root, b]
    assert path_to(tree, tree.root) == [tree.root]
    with pytest.raises(InvalidNodeError):
        path_to(tree, 99)


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
    assert tree.node(child).value == 0.5


def test_reward_range_enforced():
    tree = SearchTree(b"root")
    with pytest.raises(ValueError):
        tree.backpropagate(tree.root, 1.5)
    with pytest.raises(ValueError):
        tree.backpropagate(tree.root, -0.1)


def test_value_average():
    tree = SearchTree(b"root")
    for r in (1.0, 1.0, 1.0, 0.0):
        tree.backpropagate(tree.root, r)
    assert tree.node(tree.root).value == 0.75


def test_value_max_mode_takes_best_child():
    tree = SearchTree(b"root", ValueMode.MAX, root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"a")
    b = tree.add_child(tree.root, 1, b"b")
    tree.backpropagate(a, 0.2)
    tree.backpropagate(b, 0.9)
    assert tree.node(tree.root).value == 0.9
    assert mean_reward(tree, tree.root) == pytest.approx(0.55)


def test_value_mode_is_fixed():
    tree = SearchTree(b"root", ValueMode.AVERAGE)
    with pytest.raises(AttributeError):
        tree.value_mode = ValueMode.MAX


def test_value_max_mode_falls_back_to_average_at_frontier():
    tree = SearchTree(b"root", ValueMode.MAX)
    tree.backpropagate(tree.root, 0.4)
    tree.backpropagate(tree.root, 0.8)
    assert tree.node(tree.root).value == pytest.approx(0.6)


def test_value_is_zero_until_the_first_visit():
    tree = SearchTree(b"root", root_actions=[0])
    child = tree.add_child(tree.root, 0, b"s1")
    assert (tree.node(child).visits, tree.node(child).value) == (0, 0.0)
    tree.backpropagate(child, 0.5)
    assert tree.node(child).value == 0.5


def test_best_child_argmax_and_ties():
    tree = SearchTree(b"root", root_actions=[0, 1, 2])
    kids = [tree.add_child(tree.root, a, b"s%d" % a) for a in range(3)]
    for kid, q in zip(kids, (0.4, 0.9, 0.7)):
        tree.backpropagate(kid, q)
    assert best_child(tree, tree.root) == kids[1]

    tie = SearchTree(b"root", root_actions=[0, 1])
    t0 = tie.add_child(tie.root, 0, b"a")
    t1 = tie.add_child(tie.root, 1, b"b")
    tie.backpropagate(t0, 0.5)
    tie.backpropagate(t1, 0.5)
    assert best_child(tie, tie.root) == t0


def test_best_child_on_leaf():
    tree = SearchTree(b"root")
    tree.backpropagate(tree.root, 0.5)
    with pytest.raises(LeafError):
        best_child(tree, tree.root)


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
            assert 0.0 <= mean_reward(tree, nid) <= 1.0


@pytest.mark.parametrize("seed", range(20))
def test_max_mode_dominates_average(seed):
    # Maximum >= weighted mean requires every internal node's mass to be
    # exactly its children's mass; playouts that end at an internal node add
    # self mass its children never see and break the comparison.
    rng = np.random.default_rng(seed)
    tree = leaf_deposit_tree(rng, value_mode=ValueMode.MAX)
    assert tree.check_consistency() == []
    for nid in visited_ids(tree):
        if visited_children(tree, nid):
            assert tree.node(nid).value >= mean_reward(tree, nid) - 1e-12


def test_serialization_round_trip():
    for mode in ValueMode:
        tree = random_backprop_tree(np.random.default_rng(11), value_mode=mode)
        text = tree.to_text()
        clone = SearchTree.from_text(text)
        assert clone.to_text() == text
        assert clone.value_mode is mode
        for nid in visited_ids(tree):
            assert clone.node(nid).value == tree.node(nid).value


def test_loaded_desk_tree_shares_equal_state_keys():
    """The loader keeps one bytes object per distinct state key, and the
    shared keys write back the same text."""
    sim = PlanningSimulator(generate_instance(20, 20, 0.2, rng=5))
    text = run_search(sim, replace(desk_profile().search, seed=5)).to_text()
    tree = SearchTree.from_text(text)
    assert tree.to_text() == text
    first: dict[bytes, bytes] = {}
    for rec in tree.nodes:
        assert first.setdefault(rec.state_key, rec.state_key) is rec.state_key
    assert len(first) < len(tree) // 4  # 5,001 nodes over at most 400 cells


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


def test_load_rejects_second_root():
    # A valid 2-node tree plus a second root line: no search writes two roots.
    text = tree_text("0 -1 -1 1 0.5 0 -", "1 0 0 1 0.5 1 61", "0 -1 -1 3 0.9 0 -")
    with pytest.raises(ValueError, match="second root"):
        SearchTree.from_text(text)


def test_load_rejects_child_of_terminal_node():
    text = tree_text("0 -1 -1 1 0.5 1 -", "1 0 0 1 0.5 0 61")
    with pytest.raises(ValueError, match="terminal"):
        SearchTree.from_text(text)


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


# Every other refusal, with its exact message (the unpacking, int, float and
# fromhex messages are the interpreter's).  Faults are checked line by line
# in file order and, within a line, in the order of the cases marked "first".
LOADER_REFUSALS = {
    "six fields": (tree_text("0 -1 -1 1 0.5 0"), "not enough values to unpack (expected 7, got 6)"),
    "eight fields": (tree_text("0 -1 -1 1 0.5 0 - 9"), "too many values to unpack (expected 7)"),
    "id gap": (tree_text("0 -1 -1 2 1 0 -", "2 0 0 1 0.5 1 61"), "non-contiguous node id 2"),
    "root id": (tree_text("1 -1 -1 1 0.5 0 -"), "non-contiguous node id 1"),
    "id not a number": (tree_text("x -1 -1 1 0.5 0 -"), "invalid literal for int() with base 10: 'x'"),
    "before root": (tree_text("1 0 0 1 0.5 1 61", "0 -1 -1 1 0.5 0 -"), "node listed before root"),
    "empty": ("", "empty tree text"),
    "header only": ("# planset-tree v1 mode=max\n\n", "empty tree text"),
    "bad hex key": (tree_text("0 -1 -1 1 0.5 0 zz"), "non-hexadecimal number found in fromhex() arg at position 0"),
    "odd hex key": (tree_text("0 -1 -1 1 0.5 0 616"), "non-hexadecimal number found in fromhex() arg at position 3"),
    "unknown mode": ("# planset-tree v1 mode=median\n0 -1 -1 1 0.5 0 -\n", "'median' is not a valid ValueMode"),
    "terminal not a number": (tree_text("0 -1 -1 1 0.5 t -"), "invalid literal for int() with base 10: 't'"),
    "action not a number": (tree_text("0 -1 -1 1 0.5 0 -", "1 0 a 1 0.5 1 61"), "invalid literal for int() with base 10: 'a'"),
    "visits not a number": (tree_text("0 -1 -1 v 0.5 0 -"), "invalid literal for int() with base 10: 'v'"),
    "reward not a number": (tree_text("0 -1 -1 1 r 0 -"), "could not convert string to float: 'r'"),
    "first: field count before key": (tree_text("0 -1 -1 1 0.5 zz"), "not enough values to unpack (expected 7, got 6)"),
    "first: key before terminal": (tree_text("0 -1 -1 1 0.5 t zz"), "non-hexadecimal number found in fromhex() arg at position 0"),
    "first: terminal before parent": (tree_text("0 -1 -1 1 0.5 0 -", "1 9 0 1 0.5 t 61"), "invalid literal for int() with base 10: 't'"),
    "first: parent before action": (tree_text("0 -1 -1 1 0.5 0 -", "1 9 a 1 0.5 1 61"), "node 1: parent 9 is not listed before it"),
    "first: action before id": (tree_text("0 -1 -1 1 0.5 0 -", "5 0 a 1 0.5 1 61"), "invalid literal for int() with base 10: 'a'"),
    "first: second root before id": (tree_text("0 -1 -1 1 0.5 0 -", "5 -1 -1 1 0.5 0 -"), "node 5: a second root"),
    "first: id before visits": (tree_text("0 -1 -1 1 0.5 0 -", "5 0 0 v 0.5 1 61"), "non-contiguous node id 5"),
    "first: visits before reward": (tree_text("0 -1 -1 v nan 0 -"), "invalid literal for int() with base 10: 'v'"),
    "first: earlier line first": (tree_text("0 -1 -1 1 nan 0 -", "1 0 0 1 0.5 1 zz"), "node 0: reward nan is not finite"),
    "first: lines before statistics": (tree_text("0 -1 -1 5 9 0 -", "1 0 0 1 0.5 1 zz"), "non-hexadecimal number found in fromhex() arg at position 0"),
    "terminal flag not 0 or 1": (tree_text("0 -1 -1 1 0.5 0 -", "1 0 0 1 0.5 7 61"), "node 1: terminal flag 7 is not 0 or 1"),
    "root action": (tree_text("0 -1 x 1 0.5 0 -"), "node 0: root action x is not -1"),
    "first: terminal flag before root action": (tree_text("0 -1 x 1 0.5 7 -"), "node 0: terminal flag 7 is not 0 or 1"),
    "first: second root before root action": (tree_text("0 -1 -1 1 0.5 0 -", "1 -1 0 1 0.5 0 -"), "node 1: a second root"),
    "no header": ("0 -1 -1 1 0.5 0 -\n", "expected a '# planset-tree v1 mode=<mode>' header, got '0 -1 -1 1 0.5 0 -'"),
    "header version": (
        "# planset-tree v9 mode=max\n0 -1 -1 1 0.5 0 -\n",
        "expected a '# planset-tree v1 mode=<mode>' header, got '# planset-tree v9 mode=max'",
    ),
    "comment for header": ("# hello\n0 -1 -1 1 0.5 0 -\n", "expected a '# planset-tree v1 mode=<mode>' header, got '# hello'"),
    "two modes": (
        "# planset-tree v1 mode=max mode=average\n0 -1 -1 1 0.5 0 -\n",
        "expected a '# planset-tree v1 mode=<mode>' header, got '# planset-tree v1 mode=max mode=average'",
    ),
    "second header": (
        tree_text("0 -1 -1 1 0.5 0 -") + "# planset-tree v1 mode=max\n",
        "a '#' line after the header: '# planset-tree v1 mode=max'",
    ),
}


@pytest.mark.parametrize("case", list(LOADER_REFUSALS))
def test_load_refusals_keep_their_messages(case):
    text, message = LOADER_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        SearchTree.from_text(text)
    assert str(info.value) == message


def assert_values_fresh(tree):
    """Every visited node's ``value`` equals the one ``from_text`` recomputes
    from scratch (``.17g`` round-trips doubles, so ``==``); in an AVERAGE
    tree that is its mean reward."""
    fresh = SearchTree.from_text(tree.to_text())
    for nid in visited_ids(tree):
        rec = tree.nodes[nid]
        assert rec.value == fresh.nodes[nid].value, nid
        if tree.value_mode is ValueMode.AVERAGE:
            assert rec.value == rec.total_reward / rec.visits, nid


def count_refreshes(monkeypatch) -> list:
    """Records every node ``_refresh_max_value`` is called on from now on."""
    real = SearchTree._refresh_max_value
    calls = []

    def counted(self, rec):
        calls.append(rec)
        return real(self, rec)

    monkeypatch.setattr(SearchTree, "_refresh_max_value", counted)
    return calls


@pytest.mark.parametrize("mode", list(ValueMode))
@pytest.mark.parametrize("seed", range(10))
def test_backpropagate_refresh_matches_a_full_recompute(monkeypatch, mode, seed):
    real = SearchTree.backpropagate
    calls = []
    refreshes = count_refreshes(monkeypatch)

    def checked(self, leaf, reward):
        real(self, leaf, reward)
        calls.append(leaf)
        assert_values_fresh(self)

    monkeypatch.setattr(SearchTree, "backpropagate", checked)
    random_backprop_tree(np.random.default_rng(seed), value_mode=mode, extra_playouts=40)
    assert len(calls) > 40
    # An AVERAGE node's value is its own mean: neither its backpropagate nor
    # its from_text runs the MAX refresh.
    assert bool(refreshes) == (mode is ValueMode.MAX)


@pytest.mark.parametrize("mode", list(ValueMode))
def test_only_max_trees_refresh_max_values(monkeypatch, mode):
    calls = count_refreshes(monkeypatch)
    sim = PlanningSimulator(generate_instance(6, 6, 0.2, rng=3))
    tree = run_search(sim, SearchConfig(iterations=200, max_rollout_steps=20, value_mode=mode, seed=1))
    searched = len(calls)
    SearchTree.from_text(tree.to_text())
    loaded = len(calls) - searched
    if mode is ValueMode.MAX:
        assert searched > 0 and loaded > 0
    else:
        assert (searched, loaded) == (0, 0)
        assert all(rec.value == (rec.total_reward / rec.visits if rec.visits else 0.0) for rec in tree.nodes)


def test_refresh_follows_one_ulp_moves_and_first_visits_at_zero():
    tree = SearchTree(b"s0", ValueMode.MAX, root_actions=[0, 1])
    mid = tree.add_child(tree.root, 0, b"mid", untried_actions=[0])
    leaf = tree.add_child(mid, 0, b"leaf", terminal=True)
    averages = set()
    for _ in range(6):
        # Identical rewards, yet the running average moves by an ulp.
        tree.backpropagate(leaf, 0.1)
        averages.add(tree.node(leaf).value)
        assert tree.node(tree.root).value == tree.node(leaf).value
        assert_values_fresh(tree)
    assert len(averages) > 1
    # A first visit at reward 0 leaves the new node's cached value at 0.0,
    # but makes it the only visited child of a parent valued at 0.5.
    other = tree.add_child(tree.root, 1, b"other", untried_actions=[0])
    tree.backpropagate(other, 0.5)
    below = tree.add_child(other, 0, b"below")
    tree.backpropagate(below, 0.0)
    assert tree.node(other).value == 0.0
    assert_values_fresh(tree)


def node_stats(tree):
    return [(rec.visits, rec.total_reward, rec.value) for rec in tree.nodes]


@pytest.mark.parametrize("mode", list(ValueMode))
@pytest.mark.parametrize("seed", range(10))
def test_repeated_playouts_in_one_batch_match_one_call_each(mode, seed):
    """The search's batch leaves every count, sum and value as that many
    ``backpropagate`` calls do, bit for bit, at leaves and inner nodes."""
    rng = np.random.default_rng(seed)
    batched, called = (random_backprop_tree(np.random.default_rng(seed), value_mode=mode) for _ in range(2))
    for _ in range(5):
        leaf = int(rng.integers(len(batched)))
        reward = float(rng.choice([0.0, 0.1, 1.0, rng.random()]))
        times = int(rng.integers(1, 40))
        batched._add_playouts(leaf, reward, times)
        for _ in range(times):
            called.backpropagate(leaf, reward)
        assert node_stats(batched) == node_stats(called)
    assert_values_fresh(batched)


@pytest.mark.parametrize(
    "leaf,reward,error",
    [(0, 1.5, ValueError), (0, math.nan, ValueError), (7, 0.5, InvalidNodeError)],
)
def test_repeated_playouts_are_checked_like_one(leaf, reward, error):
    tree = SearchTree(b"s0", root_actions=[0])
    with pytest.raises(error):
        tree._add_playouts(leaf, reward, 3)
    assert node_stats(tree) == [(0, 0.0, 0.0)]


@pytest.mark.parametrize("mode", list(ValueMode))
@pytest.mark.parametrize("reward", [0.0, 0.1, 0.55, 1.0])
def test_value_floors_bound_every_value_over_the_next_playouts(mode, reward):
    """Through a leaf whose every playout was ``reward``, each node above it
    stays at or above its floor for every playout up to the one asked for,
    within a running sum's rounding, and the floor is reached: the value
    itself in MAX trees, one end of the run in AVERAGE trees."""
    tree = SearchTree(b"r", value_mode=mode, root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"a", untried_actions=[0, 1])
    b = tree.add_child(tree.root, 1, b"b", terminal=True)
    leaf = tree.add_child(a, 0, b"l", terminal=True)
    other = tree.add_child(a, 1, b"o", terminal=True)
    for nid, r in [(b, 0.3), (other, 0.8), (leaf, reward), (other, 0.2), (leaf, reward)]:
        tree.backpropagate(nid, r)
    path = [leaf, a, tree.root]
    floors = {(nid, x): floor for x in range(30) for nid, floor in zip(path, tree._value_floors(path, reward, x))}
    seen = {nid: [tree.nodes[nid].value] for nid in path}
    for _ in range(29):
        tree.backpropagate(leaf, reward)
        for nid in path:
            seen[nid].append(tree.nodes[nid].value)
    for (nid, x), floor in floors.items():
        lowest = min(seen[nid][: x + 1])
        assert floor == pytest.approx(lowest, abs=1e-12)
