"""Monte Carlo tree search over a black-box simulator contract.

One search iteration selects a path through the tree with the UCB1 bandit
rule, expands one untried action, plays the domain's default policy out from
the new state, and backpropagates the accumulated reward.  The simulator is
any object satisfying :class:`Simulator`: deterministic transitions, stable
action ordering, rewards that sum into [0, 1].

Expanded nodes keep their state and reward from the root, so an iteration
costs one ``step`` per expansion plus its rollout's steps, and none to
revisit a terminal node.  A revisit draws nothing, and the same descent
often follows it many times in a row (60 on average on desk trees).  After
a revisit the search counts the next descents that provably repeat it and
applies their playouts in one batch, so such a run costs about one descent,
and the tree is the one a descent per iteration grows.

Randomness is reproducible by construction: each search builds one
``numpy.random.Generator`` from its seed, draws every expansion from it and
hands the same generator to ``default_action``.  A rollout's draws shift
the draws of later expansions, but replaying a seed replays the tree bit
for bit.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from .tree import SearchTree, ValueMode

class SimulatorError(RuntimeError):
    """A domain fault raised by the simulator, wrapped with search context."""


@runtime_checkable
class Simulator(Protocol):
    """What a domain must provide to be searched.

    Transitions must be deterministic (same state and action, same
    successor) and ``legal_actions`` must return the same ordering for a
    given state.  An empty action list marks a terminal state.  The search
    keeps every expanded node's state and steps each edge once, so ``step``
    must leave its ``state`` argument unmodified.  Domains may
    additionally expose ``default_action(state, rng)`` to drive rollouts,
    where ``rng`` is the search's one ``numpy.random.Generator``; without
    it, rollouts pick uniformly among legal actions with that generator.
    Its draws shift later expansions, but the tree stays a deterministic
    function of the seed.
    """

    def initial_state(self) -> Any: ...

    def legal_actions(self, state: Any) -> Sequence[int]: ...

    def step(self, state: Any, action: int) -> tuple[Any, float, bool]: ...

    def state_key(self, state: Any) -> bytes: ...


class Policy(Enum):  # one member, kept while perfbench binds Policy.UCB1 and BanditConfig.policy
    UCB1 = "ucb1"


def require_integer(name: str, value: Any) -> None:
    """Refuse a value that is not an integer (a bool or numpy integer is one)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def require_integers(config: Any, *names: str) -> None:
    """Refuse a field of ``config`` that is not an integer."""
    for name in names:
        require_integer(name, getattr(config, name))


@dataclass(frozen=True)
class BanditConfig:
    """Tree-policy settings: the UCB1 exploration constant.

    A child scores its value plus ``exploration_c * sqrt(2 ln N / n)``, N
    and n the parent's and the child's visits.  Diversity comes from
    extraction, never from the search.
    """

    exploration_c: float = 0.7
    policy: Policy = Policy.UCB1

    def __post_init__(self):
        if not isinstance(self.policy, Policy):
            raise ValueError(f"policy must be a Policy, got {self.policy!r}")
        c = self.exploration_c
        if not isinstance(c, numbers.Real) or not math.isfinite(c) or c < 0:
            raise ValueError(f"exploration_c must be a finite real number >= 0, got {c!r}")


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 1000
    max_rollout_steps: int = 200
    value_mode: ValueMode = ValueMode.AVERAGE
    bandit: BanditConfig = field(default_factory=BanditConfig)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.value_mode, ValueMode):
            raise ValueError(f"value_mode must be a ValueMode, got {self.value_mode!r}")
        require_integers(self, "iterations", "max_rollout_steps", "seed")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.max_rollout_steps < 1:
            raise ValueError("max_rollout_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def rollout(sim: Simulator, state: Any, rng: np.random.Generator, max_steps: int) -> float:
    """Reward accumulated by the default policy from ``state`` onward.

    Stops at a terminal state or after ``max_steps`` steps; an already
    terminal state adds nothing.  The result is clamped into [0, 1].
    """
    require_integer("max_steps", max_steps)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    pick = getattr(sim, "default_action", None)
    total = 0.0
    for _ in range(max_steps):
        actions = sim.legal_actions(state)
        if not actions:
            break
        if pick is not None:
            action = pick(state, rng)
        else:
            action = actions[int(rng.integers(len(actions)))]
        state, reward, done = sim.step(state, action)
        total += reward
        if done:
            break
    return min(max(total, 0.0), 1.0)


def run_search(sim: Simulator, config: SearchConfig) -> SearchTree:
    """Grow a search tree with ``config.iterations`` backpropagated playouts."""
    try:
        return _run_search(sim, config)
    except SimulatorError:
        raise
    except Exception as exc:
        raise SimulatorError(f"search aborted by simulator fault: {exc}") from exc


def _run_search(sim: Simulator, config: SearchConfig) -> SearchTree:
    root_state = sim.initial_state()
    root_actions = list(sim.legal_actions(root_state))
    tree = SearchTree(
        root_state_key=sim.state_key(root_state),
        value_mode=config.value_mode,
        root_actions=root_actions,
        root_terminal=not root_actions,
    )
    nodes = tree.nodes
    c = config.bandit.exploration_c
    # The entropy (seed, 0) is part of every pinned tree: keep it.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0)))
    # Per node id: the simulator state after the node's edge, and the reward
    # summed from the root along the same additions a replay would make.
    states = [root_state]
    prefix = [0.0]

    iteration = 0
    while iteration < config.iterations:
        node_id = tree.root
        rec = nodes[node_id]
        # Selection: descend through visited children while the node is
        # fully expanded; any untried action makes it expandable first.
        while not rec.untried_actions and rec.children:
            two_log_n = 2.0 * math.log(rec.visits)
            best_score = -math.inf
            for cid in rec.children:
                child = nodes[cid]
                score = child.value + c * math.sqrt(two_log_n / child.visits)
                if score > best_score:
                    best_score = score
                    best_id = cid
            node_id = best_id
            rec = nodes[node_id]
        state = states[node_id]
        acc = prefix[node_id]

        # Expansion: one seeded-uniform untried action, then a rollout.
        revisit = not rec.untried_actions
        if not revisit:
            action = rec.untried_actions[int(rng.integers(len(rec.untried_actions)))]
            state, reward, done = sim.step(state, action)
            acc += reward
            node_id = tree.add_child(
                node_id,
                action,
                sim.state_key(state),
                terminal=done,
                untried_actions=() if done else sim.legal_actions(state),
            )
            states.append(state)
            prefix.append(acc)
            if not done:
                acc += rollout(sim, state, rng, config.max_rollout_steps)

        reward = min(max(acc, 0.0), 1.0)
        tree.backpropagate(node_id, reward)
        iteration += 1
        left = config.iterations - iteration
        if revisit and left:
            # The descent ended on a leaf with nothing to expand, so it drew
            # nothing: skip the descents that provably repeat it.
            repeats = _repeat_count(tree, node_id, reward, c, left)
            if repeats:
                tree._add_playouts(node_id, reward, repeats)
                iteration += repeats
    return tree


# Scores within this share of each other are not told apart: far above the
# rounding of a score (~1e-15) and the drift of a running sum (<= ~1e-12).
_SLACK = 1e-9


def _repeat_count(tree, leaf, reward, c, cap) -> int:
    """How many of the next ``cap`` descents provably end at ``leaf``.

    ``leaf`` has nothing to expand, and ``reward`` was just backpropagated
    from it.  A repeat of that descent moves two counts per level by one: the
    parent's visits N and the path child's n.  Each sibling's exploration
    term rises with N.  A sibling also makes n < N and N >= 2, where ln(N) / n
    falls as both grow, so the path child's term falls.  Its value moves
    monotonically or not at all (``SearchTree._value_floors``).  So one check
    per level at the last repeat, with the lowest value the child takes up to
    it, covers every repeat before it.  Found by doubling, then bisection.
    """
    nodes = tree.nodes
    path, levels = [], []
    nid = leaf
    while nodes[nid].parent is not None:
        parent = nodes[nodes[nid].parent]
        rivals = [(nodes[s].value, nodes[s].visits) for s in parent.children if s != nid]
        path.append(nid)
        levels.append((parent.visits, nodes[nid].visits, rivals))
        nid = nodes[nid].parent

    def repeats(t: int) -> bool:
        x = t - 1  # playouts added before the t-th descent
        for value, (n_parent, n, rivals) in zip(tree._value_floors(path, reward, x), levels):
            two_log_n = 2.0 * math.log(n_parent + x)
            score = value + c * math.sqrt(two_log_n / (n + x))
            floor = score - _SLACK * (1.0 + score)
            for rival_value, rival_n in rivals:
                if rival_value + c * math.sqrt(two_log_n / rival_n) >= floor:
                    return False
        return True

    good, bad = 0, 1  # good repeats; bad does not, or is past the cap
    while bad <= cap and repeats(bad):
        good, bad = bad, 2 * bad
    bad = min(bad, cap + 1)
    while bad - good > 1:
        mid = (good + bad) // 2
        if repeats(mid):
            good = mid
        else:
            bad = mid
    return good

