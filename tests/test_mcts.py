import ast
import hashlib
import inspect
import math
import re

import numpy as np
import pytest

from conftest import (
    best_child,
    reference_search,
    visited_ids,
    ucb1_reference,
    visited_children,
)
import planset.mcts
from planset.gridworld import DroneState, PlanningSimulator, generate_instance
from planset.mcts import (
    BanditConfig,
    Policy,
    SearchConfig,
    Simulator,
    SimulatorError,
    rollout,
    run_search,
)
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
    assert ucb1_reference(tree, child, 0.0) == pytest.approx(tree.node(child).value)


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


@pytest.mark.parametrize("mode", list(ValueMode), ids=lambda mode: mode.name)
def test_search_selects_the_reference_argmax(mode):
    # Iteration n of an (n+1)-iteration search runs on the n-iteration tree;
    # its selection path is where visits rose, minus a node it expanded.
    world = generate_instance(5, 5, 0.1, rng=4)
    c = 0.05
    bandit = BanditConfig(exploration_c=c)

    def grow(iterations):
        config = SearchConfig(
            iterations=iterations, max_rollout_steps=40, value_mode=mode, bandit=bandit, seed=6
        )
        return run_search(PlanningSimulator(world), config)

    ends = set()
    for n in range(1, 300, 7):
        before, after = grow(n), grow(n + 1)
        path = reference_descent(before, lambda cid: ucb1_reference(before, cid, c))
        rose = visits_rose(before, after)
        assert rose in (path, path + [len(before)]), n
        ends.add((len(rose) > len(path), len(path) > 2))
    # expansions and revisits both occur, and some descents go below depth 1
    assert {end for end, _ in ends} == {False, True}
    assert any(deep for _, deep in ends)


def test_two_arm_bandit_converges():
    tree = run_search(TwoArmBandit(), SearchConfig(iterations=100, bandit=BanditConfig(exploration_c=1.0), seed=5))
    best = best_child(tree, tree.root)
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
        for cid in visited_children(tree, nid):
            reachable.add(cid)
            frontier.append(cid)
    assert set(visited_ids(tree)) == reachable


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
    # at the default rollout_greedy_p of 1.0 the policy draws nothing and
    # takes the greedy step, east into the goal
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


def test_search_imports_no_plan_layer():
    """The search only grows a tree; plan sets come from the finished tree,
    so the search module imports the tree layer and nothing else of the
    package."""
    module = ast.parse(inspect.getsource(planset.mcts))
    local = {node.module for node in ast.walk(module) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {
        alias.name for node in ast.walk(module) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(module) if isinstance(node, ast.ImportFrom) and not node.level}
    assert local == {"tree"}
    assert not {name for name in absolute if name.split(".")[0] == "planset"}


NON_INTEGER_SETTINGS = {
    "iterations": lambda: SearchConfig(iterations=2.5),
    "max_rollout_steps": lambda: SearchConfig(max_rollout_steps=2.5),
    "seed": lambda: SearchConfig(seed=1.5),
    "max_steps": lambda: rollout(TwoArmBandit(), "start", np.random.default_rng(0), 2.5),
    "iterations str": lambda: SearchConfig(iterations="5"),
    "seed None": lambda: SearchConfig(seed=None),
    "max_steps None": lambda: rollout(TwoArmBandit(), "start", np.random.default_rng(0), None),
}


@pytest.mark.parametrize("field", list(NON_INTEGER_SETTINGS))
def test_non_integer_search_settings_are_refused(field):
    """Refused with the field's name, not left for the search to fail on
    and blame the simulator.  A row's key is the field, then the kind of
    value when it is not a float."""
    name = field.split()[0]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        NON_INTEGER_SETTINGS[field]()


OUT_OF_RANGE_SETTINGS = {
    "iterations": (lambda: SearchConfig(iterations=0), "iterations must be >= 1"),
    "seed": (lambda: SearchConfig(seed=-1), "seed must be >= 0, got -1"),
    "exploration_c negative": (
        lambda: BanditConfig(exploration_c=-0.1), r"exploration_c must be a finite real number >= 0, got -0\.1"
    ),
    "exploration_c nan": (
        lambda: BanditConfig(exploration_c=math.nan), "exploration_c must be a finite real number >= 0, got nan"
    ),
    "exploration_c inf": (
        lambda: BanditConfig(exploration_c=math.inf), "exploration_c must be a finite real number >= 0, got inf"
    ),
    "max_rollout_steps": (lambda: SearchConfig(max_rollout_steps=0), "max_rollout_steps must be >= 1"),
    "rollout max_steps": (lambda: rollout(TwoArmBandit(), "start", np.random.default_rng(0), 0), "max_steps must be >= 1"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE_SETTINGS))
def test_out_of_range_search_settings_are_refused(case):
    make, message = OUT_OF_RANGE_SETTINGS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


MISTYPED_SETTINGS = {
    "policy": (lambda: BanditConfig(policy="diverse_ucb1"), "policy must be a Policy, got 'diverse_ucb1'"),
    "exploration_c": (lambda: BanditConfig(exploration_c="0.7"), "exploration_c must be a finite real number >= 0, got '0.7'"),
    "value_mode": (lambda: SearchConfig(value_mode="max"), "value_mode must be a ValueMode, got 'max'"),
    "tree value_mode": (lambda: SearchTree(value_mode="max"), "value_mode must be a ValueMode, got 'max'"),
    "policy None": (lambda: BanditConfig(policy=None), "policy must be a Policy, got None"),
    "exploration_c None": (
        lambda: BanditConfig(exploration_c=None), "exploration_c must be a finite real number >= 0, got None"
    ),
    "value_mode None": (lambda: SearchConfig(value_mode=None), "value_mode must be a ValueMode, got None"),
    "tree value_mode None": (lambda: SearchTree(value_mode=None), "value_mode must be a ValueMode, got None"),
}


@pytest.mark.parametrize("case", list(MISTYPED_SETTINGS))
def test_mistyped_search_settings_are_refused(case):
    """An enum setting's string spelling is refused, not read as another
    member (a ``policy`` string grew the UCB1 tree, a ``value_mode`` string
    a tree read as MAX by one method and AVERAGE by another)."""
    make, message = MISTYPED_SETTINGS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_integer_search_settings_are_accepted():
    config = SearchConfig(iterations=np.int64(120), max_rollout_steps=np.uint8(60), seed=np.uint32(21))
    plain = SearchConfig(iterations=120, max_rollout_steps=60, seed=21)
    world = generate_instance(8, 8, 0.2, rng=2)
    assert run_search(PlanningSimulator(world), config).to_text() == \
        run_search(PlanningSimulator(world), plain).to_text()


# -- pinned trees --------------------------------------------------------------
#
# SHA-256 (first 16 hex digits) of ``run_search(...).to_text()`` on
# ``generate_instance(12, 12, 0.2, seed)`` for seeds 0-3, 1,500 iterations
# and rollouts of at most 60 steps.  Keyed by (exploration_c, value mode, policy, rollout_greedy_p): c = 0.7
# expands on almost every iteration, c = 0.02 converges and spends most
# iterations revisiting terminal nodes.

GOLDEN_TREES = {
    (0.7, ValueMode.AVERAGE, Policy.UCB1, 1.0): ('9dc59cbe3fdaf2ac', '09dd30e7e7ff27fc', '7ab55f69f2d64e84', '1b96f0fd859ecac4'),
    (0.7, ValueMode.AVERAGE, Policy.UCB1, 0.8): ('91e89d2236beccfb', 'bcee6e10f7ee8c86', '077d0102d94f0e0b', 'ee2280bc8e792340'),
    (0.7, ValueMode.MAX, Policy.UCB1, 1.0): ('84bb6170896d3f70', '08f9a701d02c4385', 'cd60d87c42c4d981', '605d28053d6b595f'),
    (0.7, ValueMode.MAX, Policy.UCB1, 0.8): ('95542943c4321767', '22d7f092277e42b8', 'e09911ba05c4c458', 'eb9e58a78bd782c7'),
    (0.02, ValueMode.AVERAGE, Policy.UCB1, 1.0): ('969980a74b4e3932', 'c7a24bee544a559a', 'd2961df1bec29411', '76ee9358de897f7f'),
    (0.02, ValueMode.AVERAGE, Policy.UCB1, 0.8): ('58bc61fcbe1e6fce', '7058ad1c2603d2a8', '061cf3cb40d9dbea', '7366bc17f2b1d510'),
    (0.02, ValueMode.MAX, Policy.UCB1, 1.0): ('168e8b40faf14769', '4076929dc9a5cd9c', '78a7ef85d4c510f4', 'b14fd6d1c0742133'),
    (0.02, ValueMode.MAX, Policy.UCB1, 0.8): ('002410bf05c6589b', '3ff3c1721038052d', '049c40655bfcfeae', '2bbb577f629e7aba'),
}


def golden_search(seed, c, mode, policy, greedy_p):
    sim = PlanningSimulator(generate_instance(12, 12, 0.2, seed), rollout_greedy_p=greedy_p)
    bandit = BanditConfig(exploration_c=c, policy=policy)
    config = SearchConfig(iterations=1500, max_rollout_steps=60, value_mode=mode, bandit=bandit, seed=seed)
    return run_search(sim, config)


@pytest.mark.parametrize("key", list(GOLDEN_TREES), ids=lambda key: "-".join(map(str, key)))
def test_trees_match_the_pinned_hashes(key):
    """The rows at ``rollout_greedy_p`` 1.0 were computed by the search
    that re-stepped every descent from the root state, before node states
    were cached; caching states and stopping the max refresh early left
    them byte-identical.  The rows at 0.8 were re-pinned when rollouts
    began to draw from the search's one generator."""
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
    (ValueMode.AVERAGE, Policy.UCB1): "99e5215c265c9167",
    (ValueMode.MAX, Policy.UCB1): "f064736638617869",
}


def dense_config(mode=ValueMode.MAX, policy=Policy.UCB1):
    bandit = BanditConfig(exploration_c=0.3, policy=policy)
    return SearchConfig(iterations=600, max_rollout_steps=10, value_mode=mode, bandit=bandit, seed=3)


@pytest.mark.parametrize("key", list(DENSE_GOLDEN_TREES), ids=lambda key: f"{key[0].name}-{key[1].name}")
def test_dense_reward_trees_match_the_pinned_hashes(key):
    """Pinned, like the 0.8 rows of ``GOLDEN_TREES``, when rollouts began
    to draw from the search's one generator; every edge pays, so the reward
    summed along a cached path is checked too."""
    text = run_search(DenseChain(), dense_config(*key)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DENSE_GOLDEN_TREES[key]


class EqualArms:
    """Three arms of two steps each, every step paying 0.05, so every
    terminal pays 0.1 and the values tie up to the rounding of their running
    sums: at c = 0 each descent hinges on child order and that rounding."""

    def initial_state(self):
        return ()

    def legal_actions(self, state):
        return (0, 1, 2) if len(state) < 2 else ()

    def step(self, state, action):
        nxt = state + (action,)
        return nxt, 0.05, len(nxt) == 2

    def state_key(self, state):
        return bytes(state)


ORACLE_DOMAINS = {
    "grid-greedy-1.0": lambda: PlanningSimulator(generate_instance(12, 12, 0.2, 1)),
    "grid-greedy-0.8": lambda: PlanningSimulator(generate_instance(12, 12, 0.2, 1), rollout_greedy_p=0.8),
    "dense": DenseChain,
    "bandit": TwoArmBandit,
    "equal-arms": EqualArms,
}


@pytest.mark.parametrize("mode", list(ValueMode), ids=lambda mode: mode.name)
@pytest.mark.parametrize("c", [0.0, 0.02, 0.7])
@pytest.mark.parametrize("domain", list(ORACLE_DOMAINS))
def test_search_matches_the_reference_search(domain, c, mode):
    """Skipping the descents that repeat a terminal revisit grows the tree
    one full descent per iteration grows, for short searches (the skip
    capped at the iterations left) and long ones alike."""
    sim = ORACLE_DOMAINS[domain]()
    for iterations in (1, 2, 3, 50, 1500):
        bandit = BanditConfig(exploration_c=c)
        config = SearchConfig(iterations=iterations, max_rollout_steps=60, value_mode=mode, bandit=bandit, seed=5)
        assert run_search(sim, config).to_text() == reference_search(sim, config).to_text(), iterations


# -- cost contract -------------------------------------------------------------


def count_walks(monkeypatch) -> dict[str, int]:
    """Count full descents, each ending in one ``backpropagate``, and
    backpropagation walks, which also apply the skipped descents' batches."""
    calls = {"descents": 0, "walks": 0}
    real_backpropagate = SearchTree.backpropagate
    real_add_playouts = SearchTree._add_playouts

    def backpropagate(tree, *args):
        calls["descents"] += 1
        return real_backpropagate(tree, *args)

    def add_playouts(tree, *args):
        calls["walks"] += 1
        return real_add_playouts(tree, *args)

    monkeypatch.setattr(SearchTree, "backpropagate", backpropagate)
    monkeypatch.setattr(SearchTree, "_add_playouts", add_playouts)
    return calls


def test_repeated_terminal_revisits_are_skipped(monkeypatch):
    """On the pinned geometry at c = 0.02 most iterations revisit a terminal
    node.  A full descent ends in ``backpropagate``; the descents that would
    repeat it are applied in one batch walk.  The counts are pinned."""
    calls = count_walks(monkeypatch)
    tree = golden_search(0, 0.02, ValueMode.MAX, Policy.UCB1, 1.0)
    assert tree.node(tree.root).visits == 1500
    # Each descent's backpropagate is one walk; the other walks are batches.
    assert calls == {"descents": 515, "walks": 515 + 24}
    assert calls["walks"] < 1500 // 2


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


GRID_CONFIG = SearchConfig(
    iterations=2000, max_rollout_steps=60, value_mode=ValueMode.MAX, bandit=BanditConfig(exploration_c=0.02)
)


@pytest.mark.parametrize(
    "sim,config",
    [
        (PlanningSimulator(generate_instance(20, 20, 0.2, 3)), GRID_CONFIG),
        (PlanningSimulator(generate_instance(20, 20, 0.2, 3), rollout_greedy_p=0.8), GRID_CONFIG),
        (DenseChain(), dense_config()),
    ],
    ids=["greedy-1.0", "greedy-0.8", "dense"],
)
def test_each_search_builds_one_generator(monkeypatch, sim, config):
    built = count_generators(monkeypatch)
    tree = run_search(sim, config)
    assert len(tree) > 100
    assert len(built) == 1  # shared by expansions and rollouts


class GeneratorCheckingChain(DenseChain):
    def default_action(self, state, rng):
        assert isinstance(rng, np.random.Generator)
        return int(rng.integers(3))


class ReseedingChain(DenseChain):
    def default_action(self, state, rng):
        return int(np.random.default_rng(rng).integers(3))  # a Generator comes back as itself


@pytest.mark.parametrize("sim", [GeneratorCheckingChain(), ReseedingChain()], ids=["isinstance", "default_rng"])
def test_rollouts_receive_the_search_generator(sim):
    """A rollout policy may treat its ``rng`` as the ``Generator`` the
    contract names.  Both policies make the draws of the uniform fallback,
    so they grow the tree a search without ``default_action`` grows."""
    text = run_search(sim, dense_config()).to_text()
    assert text == run_search(DenseChain(), dense_config()).to_text()
