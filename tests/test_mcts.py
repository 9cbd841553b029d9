import hashlib
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


# -- pinned trees --------------------------------------------------------------
#
# SHA-256 (first 16 hex digits) of ``run_search(...).to_text()`` on
# ``generate_instance(12, 12, 0.2, seed)`` for seeds 0-3, 1,500 iterations,
# rollouts of at most 60 steps and a diversity refresh every 200 iterations.
# Keyed by (exploration_c, value mode, policy, rollout_greedy_p): c = 0.7
# expands on almost every iteration, c = 0.02 converges and spends most
# iterations revisiting terminal nodes.

GOLDEN_TREES = {
    (0.7, ValueMode.AVERAGE, Policy.UCB1, 1.0): ('9dc59cbe3fdaf2ac', '09dd30e7e7ff27fc', '7ab55f69f2d64e84', '1b96f0fd859ecac4'),
    (0.7, ValueMode.AVERAGE, Policy.UCB1, 0.8): ('c62db86190cd7906', 'd34287d628b4e4b5', 'ffd6df79bf7a3b11', '5f272bea46eb209d'),
    (0.7, ValueMode.AVERAGE, Policy.DIVERSE_UCB1, 1.0): ('cd75506836cdf0a5', '876c93414aa82a72', '8c47576151d26dfd', 'e5cc73c5886f3272'),
    (0.7, ValueMode.AVERAGE, Policy.DIVERSE_UCB1, 0.8): ('70e20c96c1f4038e', '5e290d1c08a39c1d', '154f4a5742574180', '0f45e17c1d0be83f'),
    (0.7, ValueMode.MAX, Policy.UCB1, 1.0): ('84bb6170896d3f70', '08f9a701d02c4385', 'cd60d87c42c4d981', '605d28053d6b595f'),
    (0.7, ValueMode.MAX, Policy.UCB1, 0.8): ('d9eab18ada4fa246', '11635ca659371180', 'c7c0fd07fcdf509e', '691dadb477458bb2'),
    (0.7, ValueMode.MAX, Policy.DIVERSE_UCB1, 1.0): ('ece74a0ec9a78dd7', '5ba5be5c75aba937', 'aee75c64248fa884', 'f478b42f0e4878b5'),
    (0.7, ValueMode.MAX, Policy.DIVERSE_UCB1, 0.8): ('fda7a5f078f98813', '97967f0ac475bb6c', 'a5ebf9542c3d5184', 'fb5f30827e627e62'),
    (0.02, ValueMode.AVERAGE, Policy.UCB1, 1.0): ('969980a74b4e3932', 'c7a24bee544a559a', 'd2961df1bec29411', '76ee9358de897f7f'),
    (0.02, ValueMode.AVERAGE, Policy.UCB1, 0.8): ('c62b8dcf2d3c22ff', '8551d37cf155c1f2', '078d2a977878188b', '77913a3167250c47'),
    (0.02, ValueMode.AVERAGE, Policy.DIVERSE_UCB1, 1.0): ('ac5247353b5840e9', 'c2824668e94e5254', '89c24c183933a20d', '74aaff1a1556f9d0'),
    (0.02, ValueMode.AVERAGE, Policy.DIVERSE_UCB1, 0.8): ('8d3f86ca54a161f2', '68fc5994ad292a6f', '549af4d0d71cca63', '1112e854ce93e920'),
    (0.02, ValueMode.MAX, Policy.UCB1, 1.0): ('168e8b40faf14769', '4076929dc9a5cd9c', '78a7ef85d4c510f4', 'b14fd6d1c0742133'),
    (0.02, ValueMode.MAX, Policy.UCB1, 0.8): ('0db450e5302c4181', 'c1aafb957df5617e', '2e230bd014719f40', '10e6926b5b77735c'),
    (0.02, ValueMode.MAX, Policy.DIVERSE_UCB1, 1.0): ('20033a5ded44680d', '321467247761f0d2', 'e92aace8f260f205', '3ff9bb282a5382fe'),
    (0.02, ValueMode.MAX, Policy.DIVERSE_UCB1, 0.8): ('f08e33450b332062', 'a6f26555052dc657', 'a0a9b9d1dd56e209', '33ea21befaa45128'),
}


def golden_search(seed, c, mode, policy, greedy_p):
    sim = PlanningSimulator(generate_instance(12, 12, 0.2, seed), rollout_greedy_p=greedy_p)
    bandit = BanditConfig(exploration_c=c, policy=policy, diversity_refresh_interval=200)
    config = SearchConfig(iterations=1500, max_rollout_steps=60, value_mode=mode, bandit=bandit, seed=seed)
    return run_search(sim, config)


@pytest.mark.parametrize("key", list(GOLDEN_TREES), ids=lambda key: "-".join(map(str, key)))
def test_trees_match_the_pinned_hashes(key):
    """The hashes were computed by the search that re-stepped every
    descent from the root state, before node states were cached; caching
    states, building rollout generators lazily and stopping the max
    refresh early must leave every tree byte-identical."""
    got = tuple(
        hashlib.sha256(golden_search(seed, *key).to_text().encode()).hexdigest()[:16]
        for seed in range(4)
    )
    assert got == GOLDEN_TREES[key]


class DenseChain:
    """Six moves of three actions in which every move pays, so a node's
    reward from the root is a sum of several non-zero floats."""

    def initial_state(self):
        return ()

    def legal_actions(self, state):
        return (0, 1, 2) if len(state) < 6 else ()

    def step(self, state, action):
        nxt = state + (action,)
        return nxt, (action + 1) / 30 + 0.01 * (len(nxt) % 3), len(nxt) == 6

    def state_key(self, state):
        return bytes(state)


DENSE_GOLDEN_TREES = {
    (ValueMode.AVERAGE, Policy.UCB1): "3a4cad0d2e551ad5",
    (ValueMode.AVERAGE, Policy.DIVERSE_UCB1): "34e33c58dd9fe0e2",
    (ValueMode.MAX, Policy.UCB1): "dc65d63a28bea7e2",
    (ValueMode.MAX, Policy.DIVERSE_UCB1): "ecc5d573fa38494a",
}


def dense_config(mode=ValueMode.MAX, policy=Policy.UCB1):
    bandit = BanditConfig(exploration_c=0.3, policy=policy, diversity_refresh_interval=100)
    return SearchConfig(iterations=600, max_rollout_steps=10, value_mode=mode, bandit=bandit, seed=3)


@pytest.mark.parametrize("key", list(DENSE_GOLDEN_TREES), ids=lambda key: f"{key[0].name}-{key[1].name}")
def test_dense_reward_trees_match_the_pinned_hashes(key):
    """Pinned, like ``GOLDEN_TREES``, before node states were cached; every
    edge pays, so the reward summed along a cached path is checked too."""
    text = run_search(DenseChain(), dense_config(*key)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DENSE_GOLDEN_TREES[key]


# -- cost contract -------------------------------------------------------------


class CountingSim:
    """Delegates to ``sim``, counting ``step`` calls made inside rollouts
    (while ``in_rollout`` is set) and outside them separately."""

    def __init__(self, sim):
        self.sim = sim
        self.in_rollout = False
        self.steps = {False: 0, True: 0}

    def __getattr__(self, name):
        return getattr(self.sim, name)

    def step(self, state, action):
        self.steps[self.in_rollout] += 1
        return self.sim.step(state, action)


@pytest.mark.parametrize(
    "sim,config",
    [
        (TwoArmBandit(), SearchConfig(iterations=100, bandit=BanditConfig(exploration_c=1.0), seed=5)),
        (
            PlanningSimulator(generate_instance(12, 12, 0.2, 0)),
            SearchConfig(
                iterations=1500, max_rollout_steps=60, value_mode=ValueMode.MAX, bandit=BanditConfig(exploration_c=0.02)
            ),
        ),
        (DenseChain(), dense_config()),
    ],
    ids=["bandit", "gridworld", "dense"],
)
def test_search_steps_each_tree_edge_once(monkeypatch, sim, config):
    counted = CountingSim(sim)
    real_rollout = rollout

    def counted_rollout(sim, *args):
        sim.in_rollout = True
        try:
            return real_rollout(sim, *args)
        finally:
            sim.in_rollout = False

    monkeypatch.setattr("planset.mcts.rollout", counted_rollout)
    tree = run_search(counted, config)
    # Some iterations revisit a terminal node, which costs no step at all.
    assert len(tree) < config.iterations
    assert counted.steps[False] == len(tree) - 1
    assert counted.steps[True] > 0 or isinstance(sim, TwoArmBandit)


def count_generators(monkeypatch):
    built = []
    real = np.random.default_rng

    def default_rng(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("planset.mcts.np.random.default_rng", default_rng)
    return built


def test_greedy_rollouts_build_no_generator(monkeypatch):
    sim = PlanningSimulator(generate_instance(20, 20, 0.2, 3))
    config = SearchConfig(
        iterations=2000, max_rollout_steps=60, value_mode=ValueMode.MAX, bandit=BanditConfig(exploration_c=0.02)
    )
    built = count_generators(monkeypatch)
    tree = run_search(sim, config)
    assert len(tree) > 100
    assert len(built) == 1  # the tree's own generator


def test_drawing_rollouts_build_their_generator_on_first_draw(monkeypatch):
    key = (0.02, ValueMode.MAX, Policy.UCB1, 0.8)
    built = count_generators(monkeypatch)
    tree = golden_search(0, *key)
    assert 1 < len(built) < len(tree)
    assert hashlib.sha256(tree.to_text().encode()).hexdigest()[:16] == GOLDEN_TREES[key][0]
