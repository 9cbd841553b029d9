"""Shared builders for randomized tree tests, and the reference oracles
the library's optimized code is checked against."""

import math

import numpy as np

from planset.metrics import Plan, PlanSet, min_pairwise_diversity
from planset.tree import LeafError, SearchTree, ValueMode


def random_backprop_tree(
    rng: np.random.Generator,
    max_nodes: int = 60,
    max_actions: int = 3,
    extra_playouts: int = 10,
    value_mode: ValueMode | None = None,
) -> SearchTree:
    """Grow a tree through add_child/backpropagate only.

    Every node receives at least one playout (deposited at itself when
    created), so all nodes are visited and extraction sees the whole tree.
    Rewards are continuous uniforms, which keeps q-value ties measure-zero.
    """
    if value_mode is None:
        value_mode = ValueMode.MAX if rng.random() < 0.5 else ValueMode.AVERAGE
    n_actions = int(rng.integers(1, max_actions + 1))
    tree = SearchTree(b"s0", value_mode, root_actions=range(n_actions))
    tree.backpropagate(tree.root, float(rng.random()))
    target = int(rng.integers(1, max_nodes + 1))
    expandable = [tree.root]
    while len(tree.nodes) < target and expandable:
        idx = int(rng.integers(len(expandable)))
        parent = expandable[idx]
        rec = tree.node(parent)
        if not rec.untried_actions:
            expandable.pop(idx)
            continue
        action = rec.untried_actions[int(rng.integers(len(rec.untried_actions)))]
        terminal = rng.random() < 0.15
        child_actions = () if terminal else range(int(rng.integers(0, max_actions + 1)))
        child = tree.add_child(parent, action, f"s{len(tree.nodes)}".encode(), terminal, child_actions)
        tree.backpropagate(child, float(rng.random()))
        if not terminal:
            expandable.append(child)
    for _ in range(extra_playouts):
        tree.backpropagate(int(rng.integers(len(tree.nodes))), float(rng.random()))
    return tree


def leaf_deposit_tree(
    rng: np.random.Generator,
    max_nodes: int = 40,
    max_actions: int = 3,
    playouts: int = 60,
) -> SearchTree:
    """Grow the structure first, then deposit playouts only at leaves.

    Internal nodes carry no self-terminated mass, so their averages are
    exact visit-weighted child averages.
    """
    value_mode = ValueMode.MAX if rng.random() < 0.5 else ValueMode.AVERAGE
    n_actions = int(rng.integers(1, max_actions + 1))
    tree = SearchTree(b"s0", value_mode, root_actions=range(n_actions))
    target = int(rng.integers(1, max_nodes + 1))
    expandable = [tree.root]
    while len(tree.nodes) < target and expandable:
        idx = int(rng.integers(len(expandable)))
        parent = expandable[idx]
        rec = tree.node(parent)
        if not rec.untried_actions:
            expandable.pop(idx)
            continue
        action = rec.untried_actions[int(rng.integers(len(rec.untried_actions)))]
        child_actions = range(int(rng.integers(0, max_actions + 1)))
        child = tree.add_child(parent, action, f"s{len(tree.nodes)}".encode(), False, child_actions)
        expandable.append(child)
    leaves = [nid for nid in range(len(tree.nodes)) if not tree.node(nid).children]
    for leaf in leaves:  # every node must end up visited
        tree.backpropagate(leaf, float(rng.random()))
    for _ in range(playouts):
        tree.backpropagate(leaves[int(rng.integers(len(leaves)))], float(rng.random()))
    return tree


def random_root_path(rng: np.random.Generator, tree: SearchTree) -> list[int]:
    """A random root-to-somewhere path over visited children."""
    path = [tree.root]
    while True:
        kids = tree.visited_children(path[-1])
        if not kids or rng.random() < 0.2:
            return path
        path.append(kids[int(rng.integers(len(kids)))])


def tree_depth(tree: SearchTree) -> int:
    """Max root-to-leaf edge count over visited nodes."""
    depth = {tree.root: 0}
    best = 0
    for nid in tree.iter_visited():
        if nid == tree.root:
            continue
        parent = tree.node(nid).parent
        if parent in depth:
            depth[nid] = depth[parent] + 1
            best = max(best, depth[nid])
    return best


def assert_matches_oracle(extracted, oracle, k, tol=1e-12):
    """Extracted plans must equal the oracle prefix up to exact-quality ties.

    ``oracle`` is the already-q-filtered (plan, quality) list; ``extracted``
    a list of Plans.  Qualities must agree pairwise within ``tol`` and the
    plans must match as sets inside each exact-tie group (the cut-off group
    may legitimately contribute any subset of its members).
    """
    expected = oracle[: None if k == math.inf else int(k)]
    assert len(extracted) == len(expected), (
        f"got {len(extracted)} plans, oracle says {len(expected)}"
    )
    for mine, (_, quality) in zip(extracted, expected):
        assert abs(mine.relative_quality - quality) <= tol
    mine_groups: dict[float, set] = {}
    for plan in extracted:
        mine_groups.setdefault(plan.relative_quality, set()).add(plan.nodes)
    ref_groups: dict[float, set] = {}
    for plan, quality in expected:
        ref_groups.setdefault(quality, set()).add(plan.nodes)
    full_ref: dict[float, set] = {}
    for plan, quality in oracle:
        full_ref.setdefault(quality, set()).add(plan.nodes)
    assert {q: len(v) for q, v in mine_groups.items()} == {
        q: len(v) for q, v in ref_groups.items()
    }, "tie-group sizes differ from the oracle"
    for quality, mine in mine_groups.items():
        # any subset of an exact-tie group is legitimate at the k boundary;
        # combined with the size check this forces equality off the boundary
        assert mine <= full_ref[quality], "extracted a plan the oracle does not rank here"


def best_path(tree: SearchTree) -> list[int]:
    """Root-to-leaf node sequence following best_child at every step."""
    path = [tree.root]
    while True:
        try:
            path.append(tree.best_child(path[-1]))
        except LeafError:
            return path


def greedy_diverse_filter(plans: list[Plan], d: float, k: float) -> PlanSet:
    """Scan quality-sorted plans, keeping each one at distance >= d from the
    kept set, stopping at k.  Oracle for the diverse mode when ties are absent."""
    kept: list[Plan] = []
    for plan in plans:
        if len(kept) >= k:
            break
        if min_pairwise_diversity(plan, kept) >= d:
            kept.append(plan)
    return PlanSet(plans=kept, k=k, q=0.0, d=d)


# -- reference bandit scorer -------------------------------------------------
#
# Set-based, node-at-a-time restatement of the score that run_search's
# selection loop computes inline (with an incremental diversity bonus).


def ucb1_reference(tree: SearchTree, node_id: int, exploration_c: float) -> float:
    """Value estimate plus exploration bonus shrinking with visits.

    Unvisited nodes score +inf so they are tried before any visited sibling.
    """
    rec = tree.node(node_id)
    if rec.parent is None:
        raise ValueError("root has no parent visit count")
    if rec.visits == 0:
        return math.inf
    n_parent = tree.node(rec.parent).visits
    return tree.q_value(node_id) + exploration_c * math.sqrt(
        2.0 * math.log(n_parent) / rec.visits
    )


def stem_state_keys(tree: SearchTree, node_id: int) -> frozenset[bytes]:
    """State keys along the root-to-node stem, root excluded."""
    keys = []
    rec = tree.node(node_id)
    while rec.parent is not None:
        keys.append(rec.state_key)
        rec = tree.node(rec.parent)
    return frozenset(keys)


def diversity_bonus_reference(keys: frozenset[bytes], reference: list[Plan]) -> float:
    """Min fraction of ``keys`` that a reference plan never visits; 1.0
    against an empty reference set or an empty stem."""
    if not reference or not keys:
        return 1.0
    return min(len(keys - plan.state_keys) / len(keys) for plan in reference)


def diverse_ucb1_reference(
    tree: SearchTree, node_id: int, exploration_c: float, reference: list[Plan]
) -> float:
    """UCB1 plus the stem's diversity bonus against a reference plan set."""
    bonus = diversity_bonus_reference(stem_state_keys(tree, node_id), reference)
    return ucb1_reference(tree, node_id, exploration_c) + bonus
