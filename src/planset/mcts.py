"""Monte Carlo tree search over a black-box simulator contract.

One search iteration selects a path through the tree with a bandit rule
(UCB1, optionally augmented with a plan-stem diversity bonus), expands one
untried action, plays the domain's default policy out from the new state,
and backpropagates the accumulated reward.  The simulator is any object
satisfying :class:`Simulator`: deterministic transitions, stable action
ordering, rewards that sum into [0, 1].

Expanded nodes keep their state and reward from the root, so an iteration
costs one ``step`` per expansion plus its rollout's steps, and none to
revisit a terminal node.

Randomness is reproducible by construction: the tree builder and every
rollout draw from their own generator (built on the rollout's first draw),
derived from the master seed by fixed offsets, so replaying a seed replays
the tree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from .extraction import ExtractionConfig, extract_plans
from .metrics import Plan
from .tree import SearchTree, ValueMode

_TREE_STREAM = 0
_ROLLOUT_STREAM = 1


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
    additionally expose ``default_action(state, rng)`` to drive rollouts;
    without it, rollouts pick uniformly among legal actions.
    """

    def initial_state(self) -> Any: ...

    def legal_actions(self, state: Any) -> Sequence[int]: ...

    def step(self, state: Any, action: int) -> tuple[Any, float, bool]: ...

    def state_key(self, state: Any) -> bytes: ...


class Policy(Enum):
    UCB1 = "ucb1"
    DIVERSE_UCB1 = "diverse_ucb1"


@dataclass(frozen=True)
class BanditConfig:
    """Tree-policy settings: exploration constant and selection rule.

    The diversity fields only matter for the diverse policy: the reference
    plan set is re-extracted (top ``diversity_set_size``, no bounds) every
    ``diversity_refresh_interval`` iterations while the tree grows.
    """

    exploration_c: float = 0.7
    policy: Policy = Policy.UCB1
    diversity_refresh_interval: int = 500
    diversity_set_size: int = 5

    def __post_init__(self):
        if not math.isfinite(self.exploration_c) or self.exploration_c < 0:
            raise ValueError(f"exploration_c must be finite and >= 0, got {self.exploration_c}")
        if self.diversity_refresh_interval < 1 or self.diversity_set_size < 1:
            raise ValueError("diversity refresh interval and set size must be >= 1")


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 1000
    max_rollout_steps: int = 200
    value_mode: ValueMode = ValueMode.AVERAGE
    bandit: BanditConfig = field(default_factory=BanditConfig)
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.max_rollout_steps < 1:
            raise ValueError("max_rollout_steps must be >= 1")


def rollout(sim: Simulator, state: Any, rng: np.random.Generator, max_steps: int) -> float:
    """Reward accumulated by the default policy from ``state`` onward.

    Stops at a terminal state or after ``max_steps`` steps; an already
    terminal state adds nothing.  The result is clamped into [0, 1].
    """
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
    seed = config.seed
    bandit = config.bandit
    c = bandit.exploration_c
    diverse = bandit.policy is Policy.DIVERSE_UCB1
    max_mode = config.value_mode is ValueMode.MAX
    tree_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _TREE_STREAM)))
    reference: list[Plan] = []
    # Per node id: the simulator state after the node's edge, and the reward
    # summed from the root along the same additions a replay would make.
    states = [root_state]
    prefix = [0.0]

    for iteration in range(config.iterations):
        if diverse and iteration and iteration % bandit.diversity_refresh_interval == 0:
            reference = extract_plans(
                tree, ExtractionConfig(k=bandit.diversity_set_size)
            ).plans

        node_id = tree.root
        rec = nodes[node_id]
        stem_keys: set[bytes] = set()
        overlaps = [0] * len(reference)

        # Selection: descend through visited children while the node is
        # fully expanded; any untried action makes it expandable first.
        while not rec.terminal and not rec.untried_actions and rec.children:
            two_log_n = 2.0 * math.log(rec.visits)
            best_id = -1
            best_score = -math.inf
            for cid in rec.children:
                child = nodes[cid]
                nv = child.visits
                if not nv:
                    continue
                qv = child.max_value if max_mode else child.total_reward / nv
                score = qv + c * math.sqrt(two_log_n / nv)
                if diverse:
                    score += _stem_bonus(child.state_key, stem_keys, overlaps, reference)
                if score > best_score:
                    best_score = score
                    best_id = cid
            if best_id < 0:
                break
            child = nodes[best_id]
            if diverse and child.state_key not in stem_keys:
                stem_keys.add(child.state_key)
                for j, plan in enumerate(reference):
                    if child.state_key in plan.state_keys:
                        overlaps[j] += 1
            node_id = best_id
            rec = child
        state = states[node_id]
        acc = prefix[node_id]

        # Expansion: one seeded-uniform untried action, then a rollout.
        if not rec.terminal and rec.untried_actions:
            action = rec.untried_actions[int(tree_rng.integers(len(rec.untried_actions)))]
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
                rollout_rng = _LazyGenerator((seed, _ROLLOUT_STREAM, iteration))
                acc += rollout(sim, state, rollout_rng, config.max_rollout_steps)

        tree.backpropagate(node_id, min(max(acc, 0.0), 1.0))
    return tree


class _LazyGenerator:
    """``default_rng(SeedSequence(entropy))``, built on its first use."""

    __slots__ = ("_entropy", "_rng")

    def __init__(self, entropy: tuple[int, ...]):
        self._entropy, self._rng = entropy, None

    def __getattr__(self, name: str) -> Any:
        if self._rng is None:
            self._rng = np.random.default_rng(np.random.SeedSequence(entropy=self._entropy))
        return getattr(self._rng, name)


def _stem_bonus(
    key: bytes,
    stem_keys: set[bytes],
    overlaps: list[int],
    reference: list[Plan],
) -> float:
    """Diversity bonus of (stem + key) against the reference set.

    The bonus is the min, over reference plans, of the fraction of the
    stem's state keys (root excluded) that the plan never visits; 1.0
    against an empty reference set.  Overlap counts for the stem so far are
    maintained during descent, so scoring one candidate child costs
    O(len(reference)).
    """
    if not reference:
        return 1.0
    fresh = key not in stem_keys
    size = len(stem_keys) + (1 if fresh else 0)
    best = 1.0
    for j, plan in enumerate(reference):
        overlap = overlaps[j] + (1 if fresh and key in plan.state_keys else 0)
        div = (size - overlap) / size
        if div < best:
            best = div
    return best
