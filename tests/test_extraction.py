import functools
import hashlib
import heapq
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    best_path,
    greedy_diverse_filter,
    visited_ids,
    random_backprop_tree,
    stem_state_keys,
    tree_depth,
    visited_children,
)
from planset import extraction
from planset.extraction import (
    QUALITY_TOL,
    EmptyTreeError,
    ExtractionConfig,
    brute_force_enumerate,
    extract_plans,
)
from planset.experiment import run_random_baseline
from planset.gridworld import PlanningSimulator, generate_instance
from planset.mcts import BanditConfig, SearchConfig, run_search
from planset.metrics import Plan, materialize_plan, min_pairwise_diversity
from planset.tree import SearchTree, ValueMode


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
    with pytest.raises(EmptyTreeError, match="root has never been visited"):
        run_random_baseline(tree, 5, np.random.default_rng(0))


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
    leaves = sum(1 for nid in visited_ids(tree) if not visited_children(tree, nid))
    assert len(ranked) == leaves
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)
    qualities = [q for _, q in ranked]
    assert qualities == sorted(qualities, reverse=True)
    # oracle scores agree with direct metric recomputation
    for plan, quality in ranked[:5]:
        assert quality == materialize_plan(tree, plan.nodes[-1]).relative_quality


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
def test_pop_order_monotone_and_bounded(monkeypatch, seed):
    pop_log = []

    def heappop(heap):
        entry = heapq.heappop(heap)
        pop_log.append(math.exp(-entry[0]))  # entries lead with -log quality
        return entry

    monkeypatch.setattr(extraction, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    rng = np.random.default_rng(seed)
    tree = random_backprop_tree(rng)
    for k in (1, 3, 10):
        pop_log.clear()
        result = extract_plans(tree, ExtractionConfig(k=k))
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
    # Three branches, all plans exactly quality 1.0: {a,b} joins at margin
    # 1.0 and {a,c} at 0.5; candidate {d,e}, at 1.0 from both, replaces the
    # smaller margin.  The top plan's margin is 1.0, so it is never swapped out.
    tree = chain_fan_tree({0: ["a", "b"], 1: ["a", "c"], 2: ["d", "e"]})
    result = extract_plans(tree, ExtractionConfig(k=2, d=0.4))
    key_sets = [p.state_keys for p in result.plans]
    assert key_sets == [frozenset({b"a", b"b"}), frozenset({b"d", b"e"})]


def test_diverse_swap_keeps_the_ordered_contract_without_a_check():
    # Plans leave the stream as eh, bch, aceh (margins 1, 2/3, 1/2), then
    # dfgh at 3/4 from all three replaces aceh.  bch is 1/3 from aceh, but
    # only one way and not before it, so no swap is undone for that pair.
    tree = chain_fan_tree({0: list("caeh"), 1: list("bch"), 2: list("eh"), 3: list("gfhd")})
    result = extract_plans(tree, ExtractionConfig(k=3, d=0.5))
    assert [p.state_keys for p in result.plans] == [
        frozenset({b"e", b"h"}),
        frozenset({b"b", b"c", b"h"}),
        frozenset({b"d", b"f", b"g", b"h"}),
    ]
    assert result.pops == 14
    for i, plan in enumerate(result.plans):
        assert min_pairwise_diversity(plan, result.plans[:i]) >= 0.5


def test_diverse_swap_appends_so_the_set_stays_in_stream_order():
    # ab, ac (margin 1/2), defg (margin 1), then defghijkl, 5/9 from defg,
    # replaces ac.  defg is 0 from the candidate and was never tested against
    # it, so the candidate goes last, not into ac's slot.
    tree = chain_fan_tree({0: list("ab"), 1: list("ac"), 2: list("defg"), 3: list("defghijkl")})
    result = extract_plans(tree, ExtractionConfig(k=3, d=0.5))
    assert ["".join(sorted(k.decode() for k in p.state_keys)) for p in result.plans] == ["ab", "defg", "defghijkl"]
    for i, plan in enumerate(result.plans):
        assert min_pairwise_diversity(plan, result.plans[:i]) >= 0.5


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
            assert not visited_children(tree, plan.nodes[-1])


def test_topk_vs_topquality_reduction():
    # Top-k and top-quality take prefixes of one best-first stream: under a
    # quality floor, every k gives the first k plans of the unbounded set,
    # and a larger k never spends fewer pops.
    q = 0.5
    for seed in range(123, 143):
        tree = random_backprop_tree(np.random.default_rng(seed), max_nodes=50)
        top_quality = extract_plans(tree, ExtractionConfig(k=math.inf, q=q))
        pops = []
        for k in range(1, len(top_quality) + 1):
            top_k = extract_plans(tree, ExtractionConfig(k=k, q=q))
            assert [p.nodes for p in top_k] == [p.nodes for p in top_quality.plans[:k]], (seed, k)
            pops.append(top_k.pops)
        assert pops == sorted(pops) and pops[-1] <= top_quality.pops, seed


def _has_exact_tie(ranked) -> bool:
    qualities = [quality for _, quality in ranked]
    return any(abs(a - b) <= 1e-12 for a, b in zip(qualities, qualities[1:]))


# Seeds whose oracle ranking has no exact-quality tie, so the diverse mode
# never reaches its tie-swap branch and must equal the greedy filter.
TIE_FREE_SEEDS = [
    seed for seed in range(40)
    if not _has_exact_tie(brute_force_enumerate(random_backprop_tree(np.random.default_rng(seed))))
]


def test_enough_tie_free_seeds():
    assert len(TIE_FREE_SEEDS) >= 20


@pytest.mark.parametrize("seed", TIE_FREE_SEEDS)
@pytest.mark.parametrize("k", [3, math.inf])
@pytest.mark.parametrize("d", [0.25, 0.5])
@pytest.mark.parametrize("q", [0.0, 0.5])
def test_diverse_matches_greedy_filter_without_ties(seed, k, d, q):
    tree = random_backprop_tree(np.random.default_rng(seed))
    got = extract_plans(tree, ExtractionConfig(k=k, q=q, d=d)).plans
    ranked = [plan for plan, quality in brute_force_enumerate(tree) if quality >= q - 1e-12]
    want = greedy_diverse_filter(ranked, d, k).plans
    assert [p.nodes for p in got] == [p.nodes for p in want]
    assert [p.relative_quality for p in got] == pytest.approx([p.relative_quality for p in want], abs=1e-12)


class _CallCounter:
    """Wraps a function and keeps each call's arguments, lists copied as
    they stood at the call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append(tuple(arg.copy() if isinstance(arg, list) else arg for arg in args))
        return self.fn(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Count extraction's calls to materialize_plan and min_pairwise_diversity."""
    counters = {}
    for name in ("materialize_plan", "min_pairwise_diversity"):
        counters[name] = _CallCounter(getattr(extraction, name))
        monkeypatch.setattr(extraction, name, counters[name])
    return counters


@pytest.fixture
def streamed(monkeypatch):
    """Record each (last node, log quality, pops) the best-first stream yields."""
    items = []
    best_first = extraction._best_first

    def recording_best_first(*args):
        for item in best_first(*args):
            items.append(item)
            yield item

    monkeypatch.setattr(extraction, "_best_first", recording_best_first)
    return items


WIDE_FAN = {action: [f"b{action}-{i}" for i in range(1 + action % 3)] for action in range(40)}


@pytest.mark.parametrize("k", [1, 5, math.inf])
@pytest.mark.parametrize("q", [0.0, 0.5])
def test_no_diversity_work_without_a_diversity_bound(counted, k, q):
    trees = [random_backprop_tree(np.random.default_rng(seed)) for seed in range(10)]
    trees.append(chain_fan_tree(WIDE_FAN))
    for tree in trees:
        counted["materialize_plan"].calls.clear()
        result = extract_plans(tree, ExtractionConfig(k=k, q=q))
        assert not counted["min_pairwise_diversity"].calls
        assert len(counted["materialize_plan"].calls) == len(result)


@pytest.mark.parametrize("seed", TIE_FREE_SEEDS[:10])
def test_diverse_mode_tests_each_candidate_once_and_builds_only_accepted_plans(counted, seed):
    tree = random_backprop_tree(np.random.default_rng(seed))
    leaves = sum(1 for nid in visited_ids(tree) if not visited_children(tree, nid))
    for d in (0.25, 0.5):
        counted["min_pairwise_diversity"].calls.clear()
        counted["materialize_plan"].calls.clear()
        result = extract_plans(tree, ExtractionConfig(k=3, d=d))
        tested = [frozenset(args[0]) for args in counted["min_pairwise_diversity"].calls]
        assert len(tested) == len(set(tested)) <= leaves
        assert len(counted["materialize_plan"].calls) == len(result)


@pytest.mark.parametrize(
    "value", [math.nan, "0.5", None, -1, 2.5], ids=["nan", "str", "none", "negative", "above-one"]
)
@pytest.mark.parametrize("field", ["k", "q", "d"])
def test_bad_bounds_are_rejected_with_their_own_message(field, value):
    """A NaN, a string or None is refused with the bound's own ValueError,
    not a TypeError from comparing it; so is a number out of the bound's
    range (2.5 is no whole k, and above 1 for q and d)."""
    message = {"k": "k must be a positive integer or inf", "q": "q must lie in", "d": "d must lie in"}[field]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}.*, got {re.escape(repr(value))}$"):
        ExtractionConfig(**{field: value})


# -- pinned extraction output -----------------------------------------------------
#
# SHA-256 (first 16 hex digits) of each plan set extracted from a searched
# desk-like tree: every plan's nodes, actions, sorted state keys and
# ``repr`` of both qualities, then the set's pop count.  One digest per bound
# of the re-planning grid below, the random baseline last (its generator
# seeded with the tree's seed).  Trees are ``run_search`` on
# ``generate_instance(12, 12, 0.2, seed)``, 1,500 iterations, rollouts of at
# most 60 steps, UCB1; keyed by (exploration_c, value mode, seed).  The same
# digests must come out of the tree as searched and out of its
# ``from_text(to_text())`` reload.

GOLDEN_BOUNDS = (
    ExtractionConfig(k=1),
    ExtractionConfig(k=5),
    ExtractionConfig(k=50),
    ExtractionConfig(k=5, q=0.8),
    ExtractionConfig(k=math.inf, q=0.8),
    ExtractionConfig(k=5, q=0.8, d=0.5),
    ExtractionConfig(k=10, q=0.8, d=0.3),
    None,  # random:5
)

GOLDEN_PLAN_SETS = {
    (0.7, ValueMode.AVERAGE, 0): ('3720594b163ae63b', 'daa526dc43d1a560', '6d38204dfb4853c4', 'daa526dc43d1a560', 'a325181a8de95529', '5b3f9ef796712ac7', '9dad1d7db76ab066', 'd3f3d421478f3e4a'),
    (0.7, ValueMode.AVERAGE, 1): ('b77a80516516ce08', 'daf1dfe89e14842d', 'cf8fb0dd955a1f0a', 'daf1dfe89e14842d', '7faf0472dd549a70', '4d8e30331c3929bf', '1fb6f8abfaa227e1', '7621518592ca2de8'),
    (0.7, ValueMode.AVERAGE, 2): ('848765f123e04ae7', 'b10f0c140151ce3d', '0950c5b05b458edd', 'b10f0c140151ce3d', '007ac96e0a1b9bea', '933c7d1bc0691658', '1b8dbbdde0cf37a0', '07f29f01c2858a2a'),
    (0.7, ValueMode.MAX, 0): ('4fe9826218788cee', '3374123e1bdfda1c', '7b4898b7b2e4101e', '3374123e1bdfda1c', '7daa793dd91c2cc9', '0fa6245e6d52e851', '61db5569bd8aa132', 'f1e246a631520d80'),
    (0.7, ValueMode.MAX, 1): ('91712854cab38c1d', 'ba2c53a5e32ab595', '532c47be50cdcf79', 'ba2c53a5e32ab595', '1b03c8119d9b0186', 'd57bb3ea3b84d4b1', '3185176631e89309', 'c6b18a08be7a5b3e'),
    (0.7, ValueMode.MAX, 2): ('057b4fbd27cf3f65', '16864ec632a54603', 'c294d1d271a872ea', '16864ec632a54603', '7f21dc55c1f080b7', 'f4759f8d353c5591', '377be8f37804e22d', '25f946e29cdbc56a'),
    (0.02, ValueMode.AVERAGE, 0): ('156021d471af6818', 'f331190a9d0683b2', '1eecd6129f076708', 'f331190a9d0683b2', '3016e2614fcf803a', 'a537ac1462d45197', '100566945b8cbf42', '9e6831a58fc4aa95'),
    (0.02, ValueMode.AVERAGE, 1): ('8af0b382526c5fdf', '37c2bde64262ff99', 'a22acef07b21c66b', '37c2bde64262ff99', '94ebd5d2a961a721', '8e5e17cf00e69950', 'd2ad56c6e838055d', '9b91477c9260c3f1'),
    (0.02, ValueMode.AVERAGE, 2): ('635c3f1fbd24abee', 'd3068394b0858f7e', 'fdd1776e4c0189a0', 'd3068394b0858f7e', '2b4f698c01d59d47', 'c07d47b71b1f0841', 'fd16fa956ae5b5e6', 'e339c0cd2fa6286e'),
    (0.02, ValueMode.MAX, 0): ('513fec54cc5d28e0', 'bf5924e16d4dabcf', '1e3c7e60c5fdcce1', 'bf5924e16d4dabcf', 'c0582d7355f97e91', 'e9ae476c54604a60', 'ef067c4b90ed148d', 'e83599ddd93e232c'),
    (0.02, ValueMode.MAX, 1): ('99ec54683f010964', 'aece976c6ad95ecd', 'e63d9b7cba7cac57', 'aece976c6ad95ecd', 'ba85ee5858e642ad', 'c41a481963d2ef93', '1b169439e963d358', 'b7991209361247a0'),
    (0.02, ValueMode.MAX, 2): ('f7594a203c58cf18', '71cf76c3bf8858c3', '4ff380524738151e', '71cf76c3bf8858c3', '2a386d4530b0cac3', 'ca40db2b08200da3', '6a973ac14e173485', 'b4ee1410c71553d7'),
}


def golden_plan_tree(c, mode, seed):
    sim = PlanningSimulator(generate_instance(12, 12, 0.2, seed))
    config = SearchConfig(
        iterations=1500, max_rollout_steps=60, value_mode=mode,
        bandit=BanditConfig(exploration_c=c), seed=seed,
    )
    return run_search(sim, config)


def plan_set_digests(tree, seed):
    digests = []
    for bounds in GOLDEN_BOUNDS:
        if bounds is None:
            plan_set = run_random_baseline(tree, 5, np.random.default_rng(seed))
        else:
            plan_set = extract_plans(tree, bounds)
        lines = [
            f"{p.nodes} {p.actions} {sorted(p.state_keys)} {p.relative_quality!r} {p.absolute_quality!r}"
            for p in plan_set
        ]
        lines.append(f"pops {plan_set.pops}")
        digests.append(hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])
    return tuple(digests)


@pytest.mark.parametrize("loaded", [False, True], ids=["searched", "loaded"])
@pytest.mark.parametrize("key", list(GOLDEN_PLAN_SETS), ids=lambda key: "-".join(map(str, key)))
def test_plan_sets_match_the_pinned_hashes(key, loaded):
    tree = golden_plan_tree(*key)
    if loaded:
        tree = SearchTree.from_text(tree.to_text())
    assert plan_set_digests(tree, key[2]) == GOLDEN_PLAN_SETS[key]


# The golden MAX trees hold many exact-quality ties (a MAX value is the
# best playout below a node, shared by every route to the same goal step),
# so their diverse bounds run the tie swap.
GOLDEN_MAX_KEYS = [key for key in GOLDEN_PLAN_SETS if key[1] is ValueMode.MAX]
TIE_HEAVY_BOUNDS = (
    ExtractionConfig(k=5, q=0.8, d=0.5),
    ExtractionConfig(k=10, q=0.8, d=0.3),
    ExtractionConfig(k=4, d=0.25),
    ExtractionConfig(k=4, d=0.5),
)


@functools.cache
def cached_golden_tree(key):
    return golden_plan_tree(*key)


@pytest.mark.parametrize("key", GOLDEN_MAX_KEYS, ids=lambda key: "-".join(map(str, key)))
def test_diverse_mode_tests_each_candidate_once_on_tie_heavy_trees(counted, streamed, key):
    # Each candidate the stream yields gets one test, with its bare key set
    # against the incumbents, except the one that ends a full set, which gets
    # none; a Plan is built exactly for the candidates that the next test's
    # incumbents (or the result) hold.
    tree = cached_golden_tree(key)
    for bounds in GOLDEN_BOUNDS[5:7]:
        streamed.clear()
        counted["min_pairwise_diversity"].calls.clear()
        counted["materialize_plan"].calls.clear()
        result = extract_plans(tree, bounds)
        tested = counted["min_pairwise_diversity"].calls
        read = [last for last, _, _ in streamed]
        assert not any(isinstance(args[0], Plan) for args in tested)
        assert len(read) - len(tested) in (0, 1)
        assert [args[0] for args in tested] == [stem_state_keys(tree, last) for last in read[: len(tested)]]
        incumbents = [{p.nodes[-1] for p in args[1]} for args in tested[1:]]
        incumbents.append({p.nodes[-1] for p in result})
        entered = [last for last, after in zip(read, incumbents) if last in after]
        assert [args[1] for args in counted["materialize_plan"].calls] == entered


@pytest.mark.parametrize("key", list(GOLDEN_PLAN_SETS), ids=lambda key: "-".join(map(str, key)))
def test_every_streamed_plan_has_the_quality_its_walk_gives(key):
    # One quality rule: the stream and materialize_plan's own walk add the
    # same step log-ratios root first, so they agree to the bit.
    tree = cached_golden_tree(key)
    for plan in extract_plans(tree, ExtractionConfig()):
        assert materialize_plan(tree, plan.nodes[-1]).relative_quality == plan.relative_quality


@pytest.mark.parametrize("key", list(GOLDEN_PLAN_SETS), ids=lambda key: "-".join(map(str, key)))
def test_a_full_diverse_set_tests_no_candidate_below_its_lowest_quality(counted, streamed, key):
    # Once k plans are held, only a quality tie can enter, and the stream
    # never rises again: the first candidate below the set's lowest quality
    # ends the extraction without a diversity test, diverse or not.
    tree = cached_golden_tree(key)
    for bounds in TIE_HEAVY_BOUNDS:
        streamed.clear()
        counted["min_pairwise_diversity"].calls.clear()
        result = extract_plans(tree, bounds)
        tested = counted["min_pairwise_diversity"].calls
        for (_, incumbents), (_, logq, _) in zip(tested, streamed):
            if len(incumbents) == bounds.k:
                assert math.exp(logq) >= incumbents[-1].relative_quality - QUALITY_TOL, bounds
        if len(streamed) > len(tested):
            assert math.exp(streamed[-1][1]) < result.plans[-1].relative_quality - QUALITY_TOL, bounds
            assert result.pops == streamed[-1][2], bounds


@pytest.mark.parametrize("bounds", TIE_HEAVY_BOUNDS, ids=lambda b: f"k{b.k}-q{b.q}-d{b.d}")
@pytest.mark.parametrize("key", GOLDEN_MAX_KEYS, ids=lambda key: "-".join(map(str, key)))
def test_diverse_sets_keep_the_ordered_contract_on_tie_heavy_trees(key, bounds):
    tree = cached_golden_tree(key)
    plans = extract_plans(tree, bounds).plans
    for i, plan in enumerate(plans):
        assert min_pairwise_diversity(plan, plans[:i]) >= bounds.d
    qualities = [p.relative_quality for p in plans]
    assert all(a >= b for a, b in zip(qualities, qualities[1:]))
    assert plans[0].nodes == extract_plans(tree, ExtractionConfig(k=1)).plans[0].nodes
    # Criterion 4's Pareto check: no plan outside the set that is at least d
    # from all of it beats the set's lowest quality.
    inside = {p.nodes for p in plans}
    for plan, quality in brute_force_enumerate(tree):
        if plan.nodes not in inside and min_pairwise_diversity(plan, plans) >= bounds.d:
            assert quality <= qualities[-1] + 1e-12
