import ast
import hashlib
import inspect
import math
import re

import numpy as np
import pytest

from conftest import (
    best_child,
    random_backprop_tree,
    reference_search,
    repeat_count_reference,
    visited_ids,
    ucb1_reference,
    visited_children,
)
import planset.mcts
from planset.gridworld import MOVES, DroneState, PlanningSimulator, generate_instance
from planset.mcts import (
    BanditConfig,
    Policy,
    SearchConfig,
    Simulator,
    SimulatorError,
    _index_draw,
    _repeat_count,
    _tail_return,
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
    "bandit None": (lambda: SearchConfig(bandit=None), "bandit must be a BanditConfig, got None"),
    "search config dict": (
        lambda: run_search(TwoArmBandit(), {"iterations": 5}), "config must be a SearchConfig, got {'iterations': 5}"
    ),
}


@pytest.mark.parametrize("case", list(MISTYPED_SETTINGS))
def test_mistyped_search_settings_are_refused(case):
    """An enum setting's string spelling is refused, not read as another
    member (a ``policy`` string grew the UCB1 tree, a ``value_mode`` string
    a tree read as MAX by one method and AVERAGE by another), and so is a
    ``bandit`` that is not a ``BanditConfig`` (``None`` failed inside the
    search, reported as a simulator fault), and a search config that is not
    a ``SearchConfig`` (a dict was reported as a simulator fault too)."""
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


class ListStateGrid:
    """A grid whose states are lists, which cannot be hashed: its greedy
    rollouts draw nothing, yet every one of them must run."""

    def __init__(self, world):
        self.sim = PlanningSimulator(world)

    def initial_state(self):
        return list(self.sim.initial_state())

    def legal_actions(self, state):
        return self.sim.legal_actions(DroneState(*state))

    def step(self, state, action):
        nxt, reward, done = self.sim.step(DroneState(*state), action)
        return list(nxt), reward, done

    def state_key(self, state):
        return self.sim.state_key(DroneState(*state))

    def default_action(self, state, rng):
        return self.sim.default_action(DroneState(*state), rng)


class TopRowDrawingGrid(PlanningSimulator):
    """A grid whose rollouts draw only on the top row: the search reuses
    returns until its first rollout that passes there (at c = 0.7 after
    about 80 rollouts of 1,500 iterations), and none after it."""

    def default_action(self, state, rng):
        if state.position[1] == 0:
            legal = self.legal_actions(state)
            return legal[int(rng.integers(len(legal)))]
        return super().default_action(state, rng)


class GreedyDenseChain(DenseChain):
    """A ``DenseChain`` whose rollout policy draws nothing: every rollout
    runs to the end of the chain and leaves a return for each state it
    passed, a sum of non-dyadic rewards that comes out one way only when
    added in the order the state's own rollout adds them."""

    def default_action(self, state, rng):
        return 2 * len(state) % 3


class AwayThenGreedyGrid(PlanningSimulator):
    """A grid whose rollout policy draws nothing and walks away from the
    goal until step 50, then toward it.  A rollout from a shallow state
    stops at ``max_rollout_steps`` with nothing, while one from a later
    state on its path reaches the goal: a rollout that stops short of a
    terminal state leaves no return for the states it passed."""

    def default_action(self, state, rng):
        if state.steps_taken >= 50:
            return super().default_action(state, rng)
        (x, y), (gx, gy) = state.position, self.world.goal
        return max(self.legal_actions(state), key=lambda a: abs(x + MOVES[a][0] - gx) + abs(y + MOVES[a][1] - gy))


class WideChain:
    """Four moves of nine actions in which every move pays, and no
    ``default_action``: expansions draw among up to nine untried actions and
    rollouts among nine."""

    def initial_state(self):
        return ()

    def legal_actions(self, state):
        return tuple(range(9)) if len(state) < 4 else ()

    def step(self, state, action):
        nxt = state + (action,)
        return nxt, (action + 1) / 40, len(nxt) == 4

    def state_key(self, state):
        return bytes(state)


ORACLE_DOMAINS = {
    "grid-greedy-1.0": lambda: PlanningSimulator(generate_instance(12, 12, 0.2, 1)),
    "grid-away-then-greedy": lambda: AwayThenGreedyGrid(generate_instance(12, 12, 0.2, 1)),
    "grid-greedy-0.8": lambda: PlanningSimulator(generate_instance(12, 12, 0.2, 1), rollout_greedy_p=0.8),
    "grid-list-states": lambda: ListStateGrid(generate_instance(12, 12, 0.2, 1)),
    "grid-draws-on-top-row": lambda: TopRowDrawingGrid(generate_instance(12, 12, 0.2, 1)),
    "dense": DenseChain,
    "dense-greedy": GreedyDenseChain,
    "bandit": TwoArmBandit,
    "equal-arms": EqualArms,
    "wide": WideChain,
}


@pytest.mark.parametrize("mode", list(ValueMode), ids=lambda mode: mode.name)
@pytest.mark.parametrize("c", [0.0, 0.02, 0.7])
@pytest.mark.parametrize("domain", list(ORACLE_DOMAINS))
def test_search_matches_the_reference_search(domain, c, mode):
    """Skipping the descents that repeat a terminal revisit, and the
    rollouts whose return a rollout that drew nothing already gave (from its
    start state, or from a state it passed on its way to a terminal state),
    grows the tree one full descent and one rollout per iteration grow, for
    short searches (the skip capped at the iterations left) and long ones
    alike."""
    sim = ORACLE_DOMAINS[domain]()
    for iterations in (1, 2, 3, 50, 1500):
        bandit = BanditConfig(exploration_c=c)
        config = SearchConfig(iterations=iterations, max_rollout_steps=60, value_mode=mode, bandit=bandit, seed=5)
        assert run_search(sim, config).to_text() == reference_search(sim, config).to_text(), iterations


# -- the expansion draw ----------------------------------------------------------

DRAW_BOUNDS = [*range(1, 71), 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_index_draw_matches_generator_integers(seed):
    """Value for value and state for state, with the ``random()`` draws of a
    ``rollout_greedy_p < 1`` policy between them.  n = 1 draws nothing,
    2**31 + 1 rejects about half its words, 2**32 takes a word as it is and
    2**32 + 1 is past the 32-bit words."""
    mine, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draw = _index_draw(mine)
    for i, n in enumerate(DRAW_BOUNDS * 3):
        if i % 4 == 0:
            assert mine.random() == numpy_rng.random()
        assert draw(n) == int(numpy_rng.integers(n)), n
        assert mine.bit_generator.state == numpy_rng.bit_generator.state, n


@pytest.mark.parametrize("n", [3, 7, 69, 2**31 + 1, 2**32 - 1])
def test_index_draw_rejects_the_words_below_the_threshold(n):
    """A word w is drawn again while w * n mod 2**32 is below 2**32 mod n,
    which real words almost never are at small n: crafted words land one
    below the threshold, on it, and at n, where no threshold is needed."""
    threshold = 2**32 % n
    inverse = pow(n, -1, 2**32)  # n is odd

    def word_leaving(low):  # the word w with w * n mod 2**32 == low
        return low * inverse % 2**32

    below, at, past = word_leaving(threshold - 1), word_leaving(threshold), word_leaving(n)
    words = iter([below, below, at, past])
    draw = _index_draw(np.random.default_rng(0), words.__next__)
    assert draw(n) == at * n >> 32
    assert draw(n) == past * n >> 32
    assert next(words, None) is None


# -- the repeat count ------------------------------------------------------------

REPEAT_CAPS = (1, 2, 3, 64, 5000)


@pytest.mark.parametrize("mode", list(ValueMode), ids=lambda mode: mode.name)
@pytest.mark.parametrize("c", [0.0, 0.02, 0.7])
def test_repeat_count_matches_the_reference_on_random_trees(c, mode):
    """At every leaf with nothing to expand, just after a playout of a
    random reward, for each cap."""
    rng = np.random.default_rng(11)
    counts = []
    for _ in range(40):
        tree = random_backprop_tree(rng, value_mode=mode)
        for leaf, rec in enumerate(tree.nodes):
            if rec.parent is None or rec.children or rec.untried_actions:
                continue
            reward = float(rng.random())
            tree.backpropagate(leaf, reward)
            for cap in REPEAT_CAPS:
                counts.append(_repeat_count(tree, leaf, reward, c, cap))
                assert counts[-1] == repeat_count_reference(tree, leaf, reward, c, cap), (leaf, cap)
    assert 0 in counts and any(0 < count < 5000 for count in counts)


@pytest.mark.parametrize("mode", list(ValueMode), ids=lambda mode: mode.name)
@pytest.mark.parametrize("c", [0.0, 0.02, 0.7])
def test_repeat_count_matches_the_reference_on_searched_trees(monkeypatch, c, mode):
    """For the search's own cap and each of the others: at every terminal
    revisit of two pinned-geometry searches, and at every visited node of
    the finished trees, with its average as the reward.  The count is a
    function of the path, which need not end at a terminal node: at c = 0.7
    these searches reach none."""
    counts = []

    def check(tree, leaf, reward, c, caps):
        for cap in caps:
            counts.append(_repeat_count(tree, leaf, reward, c, cap))
            assert counts[-1] == repeat_count_reference(tree, leaf, reward, c, cap), (leaf, cap)

    def checked(tree, leaf, reward, c, cap):
        check(tree, leaf, reward, c, (cap, *REPEAT_CAPS))
        return _repeat_count(tree, leaf, reward, c, cap)

    monkeypatch.setattr(planset.mcts, "_repeat_count", checked)
    for seed in range(2):
        tree = golden_search(seed, c, mode, Policy.UCB1, 1.0)
        for leaf, rec in enumerate(tree.nodes):
            if rec.visits and rec.parent is not None:
                check(tree, leaf, rec.total_reward / rec.visits, c, REPEAT_CAPS)
    assert counts  # at c = 0.7 in MAX trees every count is 0


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


def count_rollouts(monkeypatch) -> list[int]:
    """Count the rollouts the search runs (one-element list)."""
    calls = [0]

    def counted_rollout(*args):
        calls[0] += 1
        return rollout(*args)

    monkeypatch.setattr("planset.mcts.rollout", counted_rollout)
    return calls


def greedy_chain_walk(sim, state):
    """Each (state, reward) the greedy policy steps to from ``state``."""
    walk = []
    while sim.legal_actions(state):
        state, reward, _ = sim.step(state, sim.default_action(state, None))
        walk.append((state, reward))
    return walk


def test_a_rollout_to_a_terminal_state_leaves_its_trail():
    sim, trail = GreedyDenseChain(), []
    value = rollout(sim, (), np.random.default_rng(0), 10, trail)
    assert trail == greedy_chain_walk(sim, ()) and len(trail) == 6
    assert value == _tail_return(trail, 0)


@pytest.mark.parametrize("start,max_steps", [((), 3), ((0,) * 6, 10)], ids=["cut-at-max-steps", "terminal-start"])
def test_a_rollout_cut_at_max_steps_or_from_a_terminal_state_leaves_no_trail(start, max_steps):
    trail = []
    rollout(GreedyDenseChain(), start, np.random.default_rng(0), max_steps, trail)
    assert trail == []


def test_a_trail_tail_is_the_rollout_of_the_state_before_it():
    # The rewards are non-dyadic, so only the rollout's own order of
    # additions gives the same float.
    sim, trail = GreedyDenseChain(), []
    rollout(sim, (), np.random.default_rng(0), 10, trail)
    befores = [()] + [state for state, _ in trail[:-1]]
    for i, state in enumerate(befores):
        assert _tail_return(trail, i) == rollout(sim, state, np.random.default_rng(0), 10)


def non_terminal_expansions(tree: SearchTree) -> int:
    return sum(not rec.terminal for rec in tree.nodes[1:])


def test_rollouts_from_a_repeated_state_are_reused(monkeypatch):
    """Greedy rollouts draw nothing, so a return is a function of its start
    state: on the pinned geometry the 475 non-terminal expansions reach 132
    states.  A greedy rollout that reaches the goal also gives the return of
    every state it passed, and the tree grows along those greedy paths, so
    42 rollouts run.  The counts are pinned."""
    calls = count_rollouts(monkeypatch)
    tree = golden_search(0, 0.02, ValueMode.MAX, Policy.UCB1, 1.0)
    assert (calls[0], non_terminal_expansions(tree)) == (42, 475)


@pytest.mark.parametrize(
    "sim",
    [
        PlanningSimulator(generate_instance(12, 12, 0.2, 0), rollout_greedy_p=0.8),
        ListStateGrid(generate_instance(12, 12, 0.2, 0)),
    ],
    ids=["greedy-0.8", "list-states"],
)
def test_no_return_is_reused_from_rollouts_that_draw_or_unhashable_states(monkeypatch, sim):
    calls = count_rollouts(monkeypatch)
    bandit = BanditConfig(exploration_c=0.02)
    tree = run_search(sim, SearchConfig(iterations=1500, max_rollout_steps=60, value_mode=ValueMode.MAX, bandit=bandit))
    assert calls[0] == non_terminal_expansions(tree) > 400


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


def test_search_calls_each_hook_the_benchmark_tracer_counts(monkeypatch):
    """``perfbench --trace 1`` counts a search's layers by replacing
    ``SearchTree.add_child``, ``SearchTree.backpropagate`` and
    ``planset.mcts.rollout``; a search that reached around them would zero
    its per-layer counts.  One search calls ``add_child`` once per
    expansion, ``backpropagate`` once per full descent (the batches add the
    skipped descents' playouts) and ``rollout`` once per rollout it runs,
    with every rollout step inside it."""
    counted = CountingSim(PlanningSimulator(generate_instance(12, 12, 0.2, 0)))
    calls = {"add_child": 0, "backpropagate": 0, "rollout": 0}
    batched = []  # playouts per batch walk, the walks made outside backpropagate
    inside = [False]
    real = {name: getattr(SearchTree, name) for name in ("add_child", "backpropagate", "_add_playouts")}

    def add_child(tree, *args, **kwargs):
        calls["add_child"] += 1
        return real["add_child"](tree, *args, **kwargs)

    def backpropagate(tree, *args):
        calls["backpropagate"] += 1
        inside[0] = True
        try:
            real["backpropagate"](tree, *args)
        finally:
            inside[0] = False

    def add_playouts(tree, leaf, reward, times):
        if not inside[0]:
            batched.append(times)
        return real["_add_playouts"](tree, leaf, reward, times)

    def traced_rollout(sim, *args):
        calls["rollout"] += 1
        sim.in_rollout = True
        try:
            return rollout(sim, *args)
        finally:
            sim.in_rollout = False

    monkeypatch.setattr(SearchTree, "add_child", add_child)
    monkeypatch.setattr(SearchTree, "backpropagate", backpropagate)
    monkeypatch.setattr(SearchTree, "_add_playouts", add_playouts)
    monkeypatch.setattr("planset.mcts.rollout", traced_rollout)
    config = SearchConfig(
        iterations=1500, max_rollout_steps=60, value_mode=ValueMode.MAX, bandit=BanditConfig(exploration_c=0.02)
    )
    tree = run_search(counted, config)
    assert calls["add_child"] == len(tree) - 1
    assert batched and calls["backpropagate"] + sum(batched) == config.iterations
    assert counted.steps[False] == len(tree) - 1 and counted.steps[True] > 0
    assert calls["rollout"] == 42  # as test_rollouts_from_a_repeated_state_are_reused pins


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
