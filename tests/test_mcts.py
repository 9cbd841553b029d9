import math

import numpy as np
import pytest

from conftest import (
    diverse_ucb1_reference,
    diversity_bonus_reference,
    stem_state_keys,
    ucb1_reference,
)
from planset.extraction import ExtractionConfig, extract_plans
from planset.gridworld import DroneState, PlanningSimulator, generate_instance
from planset.mcts import (
    BanditConfig,
    Policy,
    SearchConfig,
    Simulator,
    SimulatorError,
    _stem_bonus,
    rollout,
    run_search,
)
from planset.metrics import Plan
from planset.tree import SearchTree, ValueMode


class TwoArmBandit:
    """1-step MDP: action 0 pays 1 and terminates, action 1 pays 0."""

    def initial_state(self):
        return "start"

    def legal_actions(self, state):
        return (0, 1) if state == "start" else ()

    def step(self, state, action):
        return ("win" if action == 0 else "lose"), (1.0 if action == 0 else 0.0), True

    def state_key(self, state):
        return state.encode()


class FaultySim(TwoArmBandit):
    class DomainFault(RuntimeError):
        pass

    def step(self, state, action):
        raise self.DomainFault("sensor melted")


def scored_tree():
    tree = SearchTree(b"s0", root_actions=[0])
    child = tree.add_child(tree.root, 0, b"s1")
    for _ in range(2):
        tree.backpropagate(child, 0.5)
    for _ in range(5):
        tree.backpropagate(tree.root, 0.5)
    return tree, child


def test_ucb1_zero_exploration_is_q():
    tree, child = scored_tree()
    assert ucb1_reference(tree, child, 0.0) == pytest.approx(tree.q_value(child))


def test_ucb1_hand_value():
    # parent visits 7, child visits 2, child Q = 0.5, C = 1:
    # 0.5 + sqrt(2*ln(7)/2) = 0.5 + sqrt(ln 7)
    tree, child = scored_tree()
    expected = 0.5 + math.sqrt(math.log(7.0))
    assert ucb1_reference(tree, child, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.8949588341794583, abs=1e-12)


def test_ucb1_unvisited_is_infinite():
    tree = SearchTree(b"s0", root_actions=[0])
    child = tree.add_child(tree.root, 0, b"s1")
    tree.backpropagate(tree.root, 0.5)
    assert ucb1_reference(tree, child, 1.0) == math.inf


def test_ucb1_root_rejected():
    tree = SearchTree(b"s0")
    with pytest.raises(ValueError):
        ucb1_reference(tree, tree.root, 1.0)


def stem_plan(keys):
    return Plan((0,), (), frozenset(k.encode() for k in keys), 1.0, 1.0)


def test_diverse_score_empty_reference():
    tree, child = scored_tree()
    base = ucb1_reference(tree, child, 1.0)
    assert diverse_ucb1_reference(tree, child, 1.0, []) == pytest.approx(base + 1.0)


def test_diverse_score_self_reference_is_zero_bonus():
    tree, child = scored_tree()
    base = ucb1_reference(tree, child, 1.0)
    own = stem_plan(["s1"])
    assert stem_state_keys(tree, child) == own.state_keys
    assert diverse_ucb1_reference(tree, child, 1.0, [own]) == pytest.approx(base)


def test_diverse_score_partial_overlap():
    # stem of 4 states, best reference shares 2 of them -> bonus 0.5
    tree = SearchTree(b"s0", root_actions=[0])
    nid = tree.root
    for i in range(4):
        nid = tree.add_child(nid, 0, b"k%d" % i, untried_actions=[0])
        tree.backpropagate(nid, 0.5)
    ref = stem_plan(["k0", "k1", "x", "y"])
    base = ucb1_reference(tree, nid, 1.0)
    assert diverse_ucb1_reference(tree, nid, 1.0, [ref]) == pytest.approx(base + 0.5)


def visits_rose(before: SearchTree, after: SearchTree) -> list[int]:
    """Ids whose visit count grew from ``before`` to ``after``, root first
    (a child's id is always above its parent's)."""
    old = [rec.visits for rec in before.nodes]
    return [
        nid
        for nid, rec in enumerate(after.nodes)
        if rec.visits > (old[nid] if nid < len(old) else 0)
    ]


def reference_descent(tree: SearchTree, score) -> list[int]:
    """Selection as the reference states it: from the root, while the node
    is fully expanded, move to the child of highest score, ties to the
    lowest id."""
    path = [tree.root]
    rec = tree.node(tree.root)
    while not rec.terminal and not rec.untried_actions and rec.children:
        path.append(max(rec.children, key=lambda cid: (score(cid), -cid)))
        rec = tree.node(path[-1])
    return path


@pytest.mark.parametrize(
    "mode,policy",
    [
        (ValueMode.AVERAGE, Policy.UCB1),
        (ValueMode.MAX, Policy.UCB1),
        (ValueMode.MAX, Policy.DIVERSE_UCB1),
    ],
)
def test_search_selects_the_reference_argmax(mode, policy):
    # Iteration n of an (n+1)-iteration search runs on the n-iteration tree;
    # its selection path is where visits rose, minus a node it expanded.
    world = generate_instance(5, 5, 0.1, rng=4)
    c = 0.05
    bandit = BanditConfig(
        exploration_c=c, policy=policy, diversity_refresh_interval=20, diversity_set_size=3
    )

    def grow(iterations):
        config = SearchConfig(
            iterations=iterations, max_rollout_steps=40, value_mode=mode, bandit=bandit, seed=6
        )
        return run_search(PlanningSimulator(world), config)

    ends = set()
    for n in range(1, 300, 7):
        before, after = grow(n), grow(n + 1)
        reference = []
        last_refresh = n - n % bandit.diversity_refresh_interval
        if policy is Policy.DIVERSE_UCB1 and last_refresh:
            reference = extract_plans(
                grow(last_refresh), ExtractionConfig(k=bandit.diversity_set_size)
            ).plans

        def score(cid):
            if policy is Policy.DIVERSE_UCB1:
                return diverse_ucb1_reference(before, cid, c, reference)
            return ucb1_reference(before, cid, c)

        path = reference_descent(before, score)
        rose = visits_rose(before, after)
        assert rose in (path, path + [len(before)]), n
        ends.add((len(rose) > len(path), len(path) > 2))
    # expansions and revisits both occur, and some descents go below depth 1
    assert {end for end, _ in ends} == {False, True}
    assert any(deep for _, deep in ends)


def test_stem_bonus_matches_set_reference():
    rng = np.random.default_rng(17)
    universe = [b"k%d" % i for i in range(12)]

    def random_keys(low, high, replace):
        picks = rng.choice(len(universe), size=int(rng.integers(low, high)), replace=replace)
        return [universe[int(i)] for i in picks]

    for _ in range(300):
        reference = [
            Plan((0,), (), frozenset(random_keys(1, 9, False)), 1.0, 1.0)
            for _ in range(int(rng.integers(0, 5)))
        ]
        stem_keys: set[bytes] = set()
        overlaps = [0] * len(reference)
        for key in random_keys(1, 12, True):  # repeats revisit a state
            want = diversity_bonus_reference(frozenset(stem_keys | {key}), reference)
            assert _stem_bonus(key, stem_keys, overlaps, reference) == want
            # extend the stem the way the selection loop does
            if key not in stem_keys:
                stem_keys.add(key)
                for j, plan in enumerate(reference):
                    overlaps[j] += key in plan.state_keys


def test_two_arm_bandit_converges():
    tree = run_search(TwoArmBandit(), SearchConfig(iterations=100, bandit=BanditConfig(exploration_c=1.0), seed=5))
    best = tree.best_child(tree.root)
    assert tree.node(best).action == 0
    assert tree.node(tree.root).visits == 100


def test_zero_exploration_locks_on_winning_arm():
    config = SearchConfig(iterations=50, bandit=BanditConfig(exploration_c=0.0), seed=9)
    tree = run_search(TwoArmBandit(), config)
    win = next(c for c in tree.node(tree.root).children if tree.node(c).action == 0)
    # both arms tried once during expansion, everything else exploits
    assert tree.node(win).visits == 49


def test_single_iteration_tree():
    tree = run_search(TwoArmBandit(), SearchConfig(iterations=1, seed=1))
    assert len(tree.nodes) == 2
    child = tree.node(tree.root).children[0]
    assert tree.node(child).visits == 1


def test_identical_seeds_identical_trees():
    world = generate_instance(6, 6, 0.0, rng=2)
    config = SearchConfig(iterations=150, max_rollout_steps=60, seed=77)
    a = run_search(PlanningSimulator(world), config)
    b = run_search(PlanningSimulator(world), config)
    assert a.to_text() == b.to_text()
    c = run_search(PlanningSimulator(world), SearchConfig(iterations=150, max_rollout_steps=60, seed=78))
    assert c.to_text() != a.to_text()


def test_visited_nodes_reachable_and_root_visits_match_iterations():
    world = generate_instance(6, 6, 0.0, rng=3)
    tree = run_search(PlanningSimulator(world), SearchConfig(iterations=200, max_rollout_steps=60, seed=4))
    assert tree.node(tree.root).visits == 200
    assert tree.check_consistency() == []
    reachable = {tree.root}
    frontier = [tree.root]
    while frontier:
        nid = frontier.pop()
        for cid in tree.visited_children(nid):
            reachable.add(cid)
            frontier.append(cid)
    assert set(tree.iter_visited()) == reachable


def test_diverse_policy_with_constant_bonus_matches_ucb1():
    # Reference set never refreshes (interval > iterations), so the bonus is
    # the constant 1.0 and every argmax agrees with plain UCB1.
    world = generate_instance(6, 6, 0.0, rng=8)
    base = SearchConfig(iterations=120, max_rollout_steps=60, seed=21)
    diverse = SearchConfig(
        iterations=120,
        max_rollout_steps=60,
        seed=21,
        bandit=BanditConfig(policy=Policy.DIVERSE_UCB1, diversity_refresh_interval=10_000),
    )
    assert run_search(PlanningSimulator(world), diverse).to_text() == run_search(
        PlanningSimulator(world), base
    ).to_text()


def test_diverse_policy_with_refresh_builds_valid_tree():
    world = generate_instance(6, 6, 0.2, rng=13)
    config = SearchConfig(
        iterations=300,
        max_rollout_steps=60,
        seed=3,
        bandit=BanditConfig(policy=Policy.DIVERSE_UCB1, diversity_refresh_interval=50, diversity_set_size=3),
    )
    tree = run_search(PlanningSimulator(world), config)
    assert tree.node(tree.root).visits == 300
    assert tree.check_consistency() == []
    # diversity pressure spreads visits: still extractable
    assert len(extract_plans(tree, ExtractionConfig(k=3)).plans) >= 1


def test_simulator_fault_is_wrapped():
    with pytest.raises(SimulatorError) as info:
        run_search(FaultySim(), SearchConfig(iterations=5, seed=0))
    assert isinstance(info.value.__cause__, FaultySim.DomainFault)


def test_rollout_terminal_state_contributes_nothing():
    world = generate_instance(6, 6, 0.0, rng=1)
    sim = PlanningSimulator(world)
    done = DroneState(world.goal, 3, True)
    rng = np.random.default_rng(0)
    assert rollout(sim, done, rng, 10) == 0.0


def test_rollout_adjacent_to_goal_pays_discounted_reward():
    world = generate_instance(6, 6, 0.0, rng=1)
    sim = PlanningSimulator(world)
    beside_goal = DroneState((world.goal[0] - 1, world.goal[1]), 5, False)
    # seed 0's first uniform draw is < 0.8, so the greedy step (east, into
    # the goal) is taken deterministically
    reward = rollout(sim, beside_goal, np.random.default_rng(0), 10)
    assert reward == pytest.approx(0.99**6)


def test_rollout_timeout_pays_zero():
    world = generate_instance(10, 10, 0.0, rng=1)
    sim = PlanningSimulator(world)
    start = sim.initial_state()
    assert rollout(sim, start, np.random.default_rng(0), 3) == 0.0


def test_simulator_protocol_match():
    assert isinstance(PlanningSimulator(generate_instance(4, 4, 0.0, rng=0)), Simulator)
    assert isinstance(TwoArmBandit(), Simulator)
