"""Shared builders for randomized tree tests, and the reference oracles
the library's optimized code is checked against."""

import math
from collections import deque

import numpy as np

from planset.gridworld import MOVES, GridWorld
from planset.mcts import rollout
from planset.metrics import Plan, PlanSet, child_log_ratios, min_pairwise_diversity
from planset.tree import SearchTree, UndefinedValueError, ValueMode


def visited_children(tree: SearchTree, node_id: int) -> list[int]:
    """Ids of the visited children of ``node_id``, in child order."""
    return [cid for cid in tree.node(node_id).children if tree.nodes[cid].visits]


def visited_ids(tree: SearchTree) -> list[int]:
    """Ids of visited nodes, in id order."""
    return [nid for nid, rec in enumerate(tree.nodes) if rec.visits]


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
    value_mode: ValueMode | None = None,
) -> SearchTree:
    """Grow the structure first, then deposit playouts only at leaves.

    Internal nodes carry no self-terminated mass, so their averages are
    exact visit-weighted child averages.
    """
    if value_mode is None:
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


def path_to(tree: SearchTree, node_id: int) -> list[int]:
    """Node ids from the root down to ``node_id``, by a parent walk through
    ``SearchTree.node``: the oracle for ``materialize_plan``'s own walk."""
    path = [node_id]
    parent = tree.node(node_id).parent
    while parent is not None:
        path.append(parent)
        parent = tree.node(parent).parent
    path.reverse()
    return path


class InvalidPathError(ValueError):
    """Node sequence is not a root-anchored parent/child path."""


def path_relative_quality(tree: SearchTree, nodes: list[int]) -> float:
    """Relative quality of a root-anchored node list, its step log-ratios
    added root first: the oracle for the quality ``materialize_plan`` sums in
    its own walk, from the path's last node."""
    if not nodes or nodes[0] != tree.root:
        raise InvalidPathError("path must start at the tree root")
    total = 0.0
    for parent_id, child_id in zip(nodes, nodes[1:]):
        if tree.node(child_id).parent != parent_id:
            raise InvalidPathError(f"{child_id} is not a child of {parent_id}")
        ratios = child_log_ratios(tree, parent_id)
        # An unvisited child has no value, so its step is ratio 1 only when
        # every visited sibling is worthless; otherwise this raises.
        if not tree.node(child_id).visits and any(tree.node(cid).value > 0.0 for cid in ratios):
            raise UndefinedValueError(f"node {child_id} has no visits")
        total += ratios.get(child_id, 0.0)
    return math.exp(total)


def random_root_path(rng: np.random.Generator, tree: SearchTree) -> list[int]:
    """A random root-to-somewhere path over visited children."""
    path = [tree.root]
    while True:
        kids = visited_children(tree, path[-1])
        if not kids or rng.random() < 0.2:
            return path
        path.append(kids[int(rng.integers(len(kids)))])


def tree_depth(tree: SearchTree) -> int:
    """Max root-to-leaf edge count over visited nodes."""
    depth = {tree.root: 0}
    best = 0
    for nid in visited_ids(tree):
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


class LeafError(ValueError):
    """Child-dependent operation applied to a node with no visited children."""


def best_child(tree: SearchTree, node_id: int) -> int:
    """Visited child with the highest value; ties go to the lowest id."""
    best_id = -1
    best_q = -1.0
    for cid in visited_children(tree, node_id):
        q = tree.node(cid).value
        if q > best_q:
            best_q = q
            best_id = cid
    if best_id < 0:
        raise LeafError(f"node {node_id} has no visited children")
    return best_id


def best_path(tree: SearchTree) -> list[int]:
    """Root-to-leaf node sequence following best_child at every step."""
    path = [tree.root]
    while True:
        try:
            path.append(best_child(tree, path[-1]))
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
    return PlanSet(plans=kept)


def bfs_shortest_path(world: GridWorld) -> int:
    """Breadth-first step count start-to-goal over the open grid, enemies
    ignored: the oracle for ``shortest_unobstructed_path``."""
    dist = {world.start: 0}
    queue = deque([world.start])
    while queue:
        cell = queue.popleft()
        if cell == world.goal:
            return dist[cell]
        x, y = cell
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if 0 <= nxt[0] < world.width and 0 <= nxt[1] < world.height and nxt not in dist:
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    raise AssertionError("goal unreachable on an open grid")


# -- reference bandit scorer -------------------------------------------------
#
# Node-at-a-time restatement of the score run_search's selection loop
# computes inline.


def ucb1_reference(tree: SearchTree, node_id: int, exploration_c: float) -> float:
    """Value estimate plus an exploration term shrinking with visits.

    Unvisited nodes score +inf so they are tried before any visited sibling.
    """
    rec = tree.node(node_id)
    if rec.parent is None:
        raise ValueError("root has no parent visit count")
    if rec.visits == 0:
        return math.inf
    n_parent = tree.node(rec.parent).visits
    return rec.value + exploration_c * math.sqrt(
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


# -- reference search ----------------------------------------------------------
#
# run_search with one full descent per iteration, and no skip of the descents
# that provably repeat a terminal revisit.


def reference_search(sim, config) -> SearchTree:
    """``config.iterations`` iterations, each a full descent from the root,
    then one expansion and its rollout, then one backpropagation: the oracle
    for ``run_search``.  Each child is scored by ``ucb1_reference``."""
    root_state = sim.initial_state()
    root_actions = list(sim.legal_actions(root_state))
    tree = SearchTree(sim.state_key(root_state), config.value_mode, root_actions, not root_actions)
    nodes = tree.nodes
    c = config.bandit.exploration_c
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0)))
    states = [root_state]
    prefix = [0.0]
    for _ in range(config.iterations):
        node_id = tree.root
        rec = nodes[node_id]
        while not rec.untried_actions and rec.children:
            best_score = -math.inf
            for cid in rec.children:
                score = ucb1_reference(tree, cid, c)
                if score > best_score:
                    best_score, node_id = score, cid
            rec = nodes[node_id]
        acc = prefix[node_id]
        if rec.untried_actions:
            action = rec.untried_actions[int(rng.integers(len(rec.untried_actions)))]
            state, reward, done = sim.step(states[node_id], action)
            acc += reward
            node_id = tree.add_child(
                node_id, action, sim.state_key(state), done, () if done else sim.legal_actions(state)
            )
            states.append(state)
            prefix.append(acc)
            if not done:
                acc += rollout(sim, state, rng, config.max_rollout_steps)
        tree.backpropagate(node_id, min(max(acc, 0.0), 1.0))
    return tree
