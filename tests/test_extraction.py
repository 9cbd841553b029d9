import math

import numpy as np
import pytest

from conftest import best_path, greedy_diverse_filter, random_backprop_tree, tree_depth
from planset.extraction import (
    EmptyTreeError,
    ExtractionConfig,
    TreeTooLargeError,
    brute_force_enumerate,
    diversity_excluding,
    extract_plans,
)
from planset.metrics import min_pairwise_diversity, relative_plan_quality
from planset.tree import SearchTree


def two_leaf_tree(q_a=0.9, q_b=0.6):
    tree = SearchTree(b"s0", root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"A", terminal=True)
    b = tree.add_child(tree.root, 1, b"B", terminal=True)
    tree.backpropagate(a, q_a)
    tree.backpropagate(b, q_b)
    return tree, a, b


def chain_fan_tree(branches, reward=0.5):
    """Root fanning into chains; every playout pays `reward`, so every plan
    ties at quality 1.0 exactly.  `branches` maps action -> list of keys."""
    max_len = 0
    tree = SearchTree(b"s0", root_actions=sorted(branches))
    for action, keys in sorted(branches.items()):
        parent = tree.root
        for i, key in enumerate(keys):
            last = i == len(keys) - 1
            parent = tree.add_child(
                parent,
                action if parent == tree.root else 0,
                key.encode(),
                terminal=last,
                untried_actions=() if last else [0],
            )
            tree.backpropagate(parent, reward)
            max_len = max(max_len, i + 1)
    return tree


def test_top_two_of_two_leaf_tree():
    tree, a, b = two_leaf_tree()
    result = extract_plans(tree, ExtractionConfig(k=2))
    assert [p.nodes for p in result.plans] == [(0, a), (0, b)]
    assert result.plans[0].relative_quality == pytest.approx(1.0, abs=1e-12)
    assert result.plans[1].relative_quality == pytest.approx(0.6 / 0.9, abs=1e-12)


def test_quality_bound_prunes():
    tree, a, _ = two_leaf_tree()
    result = extract_plans(tree, ExtractionConfig(k=2, q=0.8))
    assert [p.nodes for p in result.plans] == [(0, a)]


def test_diversity_bound_rejects_clones():
    # Two equal-quality plans over identical state sets: one survives d=0.5.
    tree = SearchTree(b"s0", root_actions=[0, 1])
    a = tree.add_child(tree.root, 0, b"same", terminal=True)
    b = tree.add_child(tree.root, 1, b"same", terminal=True)
    tree.backpropagate(a, 0.7)
    tree.backpropagate(b, 0.7)
    result = extract_plans(tree, ExtractionConfig(k=2, d=0.5))
    assert len(result.plans) == 1


def test_k1_is_best_child_descent():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        tree = random_backprop_tree(rng)
        plan = extract_plans(tree, ExtractionConfig(k=1)).plans[0]
        assert list(plan.nodes) == best_path(tree)
        assert plan.relative_quality == pytest.approx(1.0, abs=1e-12)


def test_unvisited_root_rejected():
    tree = SearchTree(b"s0", root_actions=[0])
    with pytest.raises(EmptyTreeError):
        extract_plans(tree, ExtractionConfig(k=1))
    with pytest.raises(EmptyTreeError):
        brute_force_enumerate(tree)


def test_unvisited_children_are_invisible():
    tree = SearchTree(b"s0", root_actions=[0, 1, 2])
    a = tree.add_child(tree.root, 0, b"A", terminal=True)
    b = tree.add_child(tree.root, 1, b"B", terminal=True)
    ghost = tree.add_child(tree.root, 2, b"C", terminal=True)
    tree.backpropagate(a, 0.9)
    tree.backpropagate(b, 0.6)
    plans = extract_plans(tree, ExtractionConfig(k=10)).plans
    assert all(ghost not in p.nodes for p in plans)
    assert len(plans) == 2


def test_brute_force_single_node():
    tree = SearchTree(b"s0")
    tree.backpropagate(tree.root, 0.5)
    ranked = brute_force_enumerate(tree)
    assert len(ranked) == 1
    plan, quality = ranked[0]
    assert plan.nodes == (0,)
    assert quality == 1.0


@pytest.mark.parametrize("seed", range(15))
def test_brute_force_counts_leaves_and_tops_at_one(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    ranked = brute_force_enumerate(tree)
    leaves = sum(1 for nid in tree.iter_visited() if not tree.visited_children(nid))
    assert len(ranked) == leaves
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)
    qualities = [q for _, q in ranked]
    assert qualities == sorted(qualities, reverse=True)
    # oracle scores agree with direct metric recomputation
    for plan, quality in ranked[:5]:
        assert quality == pytest.approx(relative_plan_quality(tree, plan.nodes), abs=1e-15)


def test_brute_force_guard():
    # 101 * 100 = 10,100 leaf paths, just over the guard
    tree = SearchTree(b"s0", root_actions=range(101))
    for a in range(101):
        mid = tree.add_child(tree.root, a, b"m%d" % a, untried_actions=range(100))
        for b in range(100):
            leaf = tree.add_child(mid, b, b"l%d-%d" % (a, b), terminal=True)
            tree.backpropagate(leaf, 0.5)
    with pytest.raises(TreeTooLargeError):
        brute_force_enumerate(tree)


def test_greedy_diverse_filter_trivials():
    rng = np.random.default_rng(0)
    tree = random_backprop_tree(rng, max_nodes=40)
    ranked = [plan for plan, _ in brute_force_enumerate(tree)]
    assert greedy_diverse_filter(ranked, 0.0, 3).plans == ranked[:3]
    clones = [ranked[0]] * 5
    assert len(greedy_diverse_filter(clones, 0.5, 5).plans) == 1
    everything = greedy_diverse_filter(ranked, 0.0, math.inf)
    assert everything.plans == ranked


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k,q", [(1, 0.0), (3, 0.0), (3, 0.5), (10, 0.9), (math.inf, 0.7)])
def test_matches_oracle_without_diversity(seed, k, q):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    got = extract_plans(tree, ExtractionConfig(k=k, q=q)).plans
    oracle = [
        (plan, quality)
        for plan, quality in brute_force_enumerate(tree)
        if quality >= q - 1e-12
    ][: None if k == math.inf else int(k)]
    assert len(got) == len(oracle)
    for mine, (ref, quality) in zip(got, oracle):
        assert mine.relative_quality == pytest.approx(quality, abs=1e-12)
    # same plans as sets within exact tie groups
    assert {p.nodes for p in got} == {ref.nodes for ref, _ in oracle} or _tie_equal(got, oracle)


def _tie_equal(got, oracle):
    by_quality = {}
    for p in got:
        by_quality.setdefault(round(p.relative_quality, 12), set()).add(p.nodes)
    ref_quality = {}
    for ref, quality in oracle:
        ref_quality.setdefault(round(quality, 12), set()).add(ref.nodes)
    if set(by_quality) != set(ref_quality):
        return False
    # the boundary tie group may pick different members; subset is enough
    return all(mine <= ref_quality[q] for q, mine in by_quality.items())


@pytest.mark.parametrize("seed", range(20))
def test_pop_order_monotone_and_bounded(seed):
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    for k in (1, 3, 10):
        pop_log = []
        result = extract_plans(tree, ExtractionConfig(k=k), pop_log=pop_log)
        assert result.pops == len(pop_log)
        assert all(a >= b - 1e-12 for a, b in zip(pop_log, pop_log[1:]))
        assert result.pops <= k * max(tree_depth(tree), 1) + 1


def test_exact_ties_pop_first_in_first_out():
    # Every plan ties at quality 1.0.  FIFO pops expand all of the root's
    # children before any grandchild, so the one-step branch (0, 3) is the
    # first complete plan; breaking ties by node id would finish (0, 1, 2)
    # first, in 4 pops.
    tree = chain_fan_tree({0: ["a", "b"], 1: ["c"], 2: ["d", "e", "f"]})
    result = extract_plans(tree, ExtractionConfig(k=2))
    assert [p.nodes for p in result.plans] == [(0, 3), (0, 1, 2)]
    assert result.pops == 5


def test_diverse_replacement_prefers_more_diverse_tie():
    # Three branches, all plans exactly quality 1.0: {a,b}, {a,c}, then
    # candidate {d,e} which is more diverse than the weakest incumbent.
    tree = chain_fan_tree({0: ["a", "b"], 1: ["a", "c"], 2: ["d", "e"]})
    result = extract_plans(tree, ExtractionConfig(k=2, d=0.4))
    key_sets = [p.state_keys for p in result.plans]
    assert key_sets == [frozenset({b"d", b"e"}), frozenset({b"a", b"c"})]


def test_diverse_replacement_rolls_back_when_set_breaks():
    # Branches: p1={x,f}, p2={a,f,g}, p3={m,n}; candidate {f,g,h,i,j,k}.
    # The candidate beats p1 on diversity, but swapping it in drops p2's
    # min distance to 1/3 < d, so the swap must be undone.
    tree = chain_fan_tree(
        {
            0: ["x", "f"],
            1: ["a", "f", "g"],
            2: ["m", "n"],
            3: ["f", "g", "h", "i", "j", "k"],
        }
    )
    result = extract_plans(tree, ExtractionConfig(k=3, d=0.5))
    key_sets = {p.state_keys for p in result.plans}
    assert key_sets == {
        frozenset({b"x", b"f"}),
        frozenset({b"a", b"f", b"g"}),
        frozenset({b"m", b"n"}),
    }
    # the set still satisfies its own diversity floor
    for i in range(len(result.plans)):
        assert diversity_excluding(result.plans, i) >= 0.5


def test_planset_invariants_hold_after_extraction():
    # The distance is one-way, so the extractor guarantees each acceptance
    # was diverse against the set at its own acceptance time; the reverse
    # direction (later plans lowering an incumbent's one-way distance) is
    # not checkable without symmetrizing the metric.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        tree = random_backprop_tree(rng)
        for d in (0.0, 0.25, 0.5):
            result = extract_plans(tree, ExtractionConfig(k=4, d=d))
            qualities = [p.relative_quality for p in result.plans]
            assert all(a >= b - 1e-12 for a, b in zip(qualities, qualities[1:]))
            if d > 0:
                for i, plan in enumerate(result.plans):
                    assert min_pairwise_diversity(plan, result.plans[:i]) >= d


def test_accepted_plans_end_at_leaves():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        tree = random_backprop_tree(rng)
        for plan in extract_plans(tree, ExtractionConfig(k=5, q=0.4)).plans:
            assert not tree.visited_children(plan.nodes[-1])


def test_topk_vs_topquality_reduction():
    # With enough qualifying plans the k-bounded and quality-bounded sets
    # agree on the first k; with too few they are both just "everything >= q".
    rng = np.random.default_rng(123)
    tree = random_backprop_tree(rng, max_nodes=50)
    q = 0.5
    top_quality = extract_plans(tree, ExtractionConfig(k=math.inf, q=q)).plans
    k = 3
    top_k = extract_plans(tree, ExtractionConfig(k=3, q=q)).plans
    if len(top_quality) >= k:
        assert [p.nodes for p in top_k] == [p.nodes for p in top_quality[:k]]
    else:
        assert [p.nodes for p in top_k] == [p.nodes for p in top_quality]
