"""Monte Carlo tree search over a black-box simulator contract.

One search iteration selects a path through the tree with the UCB1 bandit
rule, expands one untried action, plays the domain's default policy out from
the new state, and backpropagates the accumulated reward.  The simulator is
any object satisfying :class:`Simulator`: deterministic transitions, stable
action ordering, rewards that sum into [0, 1], equal states interchangeable.

Expanded nodes keep their state and reward from the root, so an iteration
costs one ``step`` per expansion plus its rollout's steps, and none to
revisit a terminal node.  A rollout that draws nothing from the generator
returns a function of its start state, so while no rollout has drawn the
search keeps each state's return and reuses it when an expansion reaches an
equal state again (many paths reach one grid cell at one step count); such
an expansion costs one ``step``.  A rollout that draws nothing and ends at a
terminal state leaves a return for every state it passed, too: the rest of
its path is that state's own rollout.  The first rollout that draws, or a
state that cannot be hashed, turns the reuse off for the rest of the search.

A terminal revisit draws nothing, and the same descent often follows it
many times in a row (45.5 repeats per revisit on the desk sweep's seed-1
slice, none for 724 of its 1,526 revisits).  After a revisit the search
counts the next descents that provably repeat it and applies their playouts
in one batch, so such a run costs about one descent.  Either way the tree is
the one a descent and a rollout per iteration grow.

Randomness is reproducible by construction: each search builds one
``numpy.random.Generator`` from its seed, draws every expansion from it and
hands the same generator to ``default_action``.  A rollout's draws shift
the draws of later expansions, but replaying a seed replays the tree bit
for bit.  Expansions, and rollouts of a domain without ``default_action``,
draw an index with :func:`_index_draw`: the value ``Generator.integers``
gives, from the same words of the bit generator, without its call overhead,
so a tree depends on the bit generator's stream alone.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .tree import SearchTree, ValueMode

class SimulatorError(RuntimeError):
    """A domain fault raised by the simulator, wrapped with search context."""


@runtime_checkable
class Simulator(Protocol):
    """What a domain must provide to be searched.

    Transitions must be deterministic (same state and action, same
    successor) and ``legal_actions`` must return the same ordering for a
    given state.  States that compare equal must be interchangeable: the
    search reuses the return of a rollout that drew nothing for any equal
    hashable state, and when such a rollout ends at a terminal state, the
    return it leaves for every state it passed.  An empty action list marks
    a terminal state.  The search
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


def require_real(name: str, value: Any) -> None:
    """Refuse a value that is not a real number (a bool or numpy float is one)."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


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
        if not isinstance(self.bandit, BanditConfig):
            raise ValueError(f"bandit must be a BanditConfig, got {self.bandit!r}")
        require_integers(self, "iterations", "max_rollout_steps", "seed")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.max_rollout_steps < 1:
            raise ValueError("max_rollout_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_WORD = 1 << 32  # values of one bit-generator word


def _index_draw(rng: np.random.Generator, word: Callable[[], int] | None = None) -> Callable[[int], int]:
    """``draw(n)``, a uniform index in [0, n) equal to ``int(rng.integers(n))``,
    leaving the bit generator's state where that call leaves it.

    For n <= 2**32 ``Generator.integers`` is Lemire's multiply-and-reject
    over the bit generator's 32-bit words (``next_uint32``, which keeps the
    unused half of a 64-bit output for the next word); ``draw`` takes the
    same steps on the same words, read through ``rng.bit_generator.ctypes``,
    and draws nothing for n = 1, as numpy does.  Larger n go to
    ``rng.integers``.  ``word`` stands in for the bit generator's words.
    """
    if word is None:
        bits = rng.bit_generator.ctypes
        word = functools.partial(bits.next_uint32, bits.state)
    integers = rng.integers

    def draw(n: int) -> int:
        if n == 1:
            return 0
        if n >= _WORD:
            return word() if n == _WORD else int(integers(n))
        m = word() * n
        if m & 0xFFFFFFFF < n:  # n bounds the rejection threshold
            threshold = _WORD % n
            while m & 0xFFFFFFFF < threshold:
                m = word() * n
        return m >> 32

    return draw


def rollout(
    sim: Simulator, state: Any, rng: np.random.Generator, max_steps: int, trail: list | None = None
) -> float:
    """Reward accumulated by the default policy from ``state`` onward.

    Stops at a terminal state or after ``max_steps`` steps; an already
    terminal state adds nothing.  The result is clamped into [0, 1].  A
    ``trail`` list receives each (state, reward) the rollout steps to, in
    order, and is emptied if the rollout stops at ``max_steps``: only a
    rollout that ends at a terminal state is, from each state it passed,
    that state's own rollout.
    """
    require_integer("max_steps", max_steps)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    pick = getattr(sim, "default_action", None)
    if pick is None:
        draw = _index_draw(rng)
    total = 0.0
    for _ in range(max_steps):
        actions = sim.legal_actions(state)
        if not actions:
            break
        if pick is not None:
            action = pick(state, rng)
        else:
            action = actions[draw(len(actions))]
        state, reward, done = sim.step(state, action)
        total += reward
        if trail is not None:
            trail.append((state, reward))
        if done:
            break
    else:
        if trail is not None:
            trail.clear()
    return min(max(total, 0.0), 1.0)


def _tail_return(trail: list, start: int) -> float:
    """The return ``rollout`` gives from the state before ``trail[start]``,
    on a trail that ended at a terminal state: the same rewards added in the
    same order from 0.0, so the same float."""
    total = 0.0
    for _, reward in islice(trail, start, None):
        total += reward
    return min(max(total, 0.0), 1.0)


def run_search(sim: Simulator, config: SearchConfig) -> SearchTree:
    """Grow a search tree with ``config.iterations`` backpropagated playouts."""
    if not isinstance(config, SearchConfig):
        raise ValueError(f"config must be a SearchConfig, got {config!r}")
    try:
        return _run_search(sim, config)
    except SimulatorError:
        raise
    except Exception as exc:
        raise SimulatorError(f"search aborted by simulator fault: {exc}") from exc


# 2 ln n for visit counts n below _TWO_LOG_SIZE, the floats ``2.0 * log(n)``
# gives, read by the selection scan and by _repeat_count's check, with the log
# itself above that.  Entry 0 is never read: a node scored from has been visited.
_TWO_LOG_SIZE = 1024
_TWO_LOG = (0.0, *(2.0 * math.log(n) for n in range(1, _TWO_LOG_SIZE)))


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
    sqrt, log, inf = math.sqrt, math.log, math.inf
    two_log, table_size = _TWO_LOG, _TWO_LOG_SIZE
    # The entropy (seed, 0) is part of every pinned tree: keep it.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0)))
    draw = _index_draw(rng)
    # Per node id: the simulator state after the node's edge, and the reward
    # summed from the root along the same additions a replay would make.
    states = [root_state]
    prefix = [0.0]
    # Rollout returns by start state, kept while no rollout has drawn: such a
    # return is a function of the state alone, and reusing it leaves the
    # generator where the rollout would.  A rollout that also ended at a
    # terminal state keeps, for each later state on its path, (trail, index
    # of the first reward after it), summed on first reuse.  None once a
    # rollout draws or a state cannot be hashed.
    returns: dict[Any, float | tuple[list, int]] | None = {}

    iteration = 0
    while iteration < config.iterations:
        node_id = tree.root
        rec = nodes[node_id]
        # Selection: descend through visited children while the node is
        # fully expanded; any untried action makes it expandable first.
        while not rec.untried_actions and rec.children:
            n = rec.visits
            two_log_n = two_log[n] if n < table_size else 2.0 * log(n)
            best_score = -inf
            for cid in rec.children:
                child = nodes[cid]
                score = child.value + c * sqrt(two_log_n / child.visits)
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
            action = rec.untried_actions[draw(len(rec.untried_actions))]
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
                value = None
                if returns is not None:
                    try:
                        value = returns.get(state)
                    except TypeError:  # an unhashable state: roll out every time
                        returns = None
                if value is None:
                    if returns is None:
                        value = rollout(sim, state, rng, config.max_rollout_steps)
                    else:
                        before = rng.bit_generator.state
                        trail: list = []
                        value = rollout(sim, state, rng, config.max_rollout_steps, trail)
                        if rng.bit_generator.state != before:  # the rollouts draw: roll out every time
                            returns = None
                        else:
                            returns[state] = value
                            # The rest of a kept trail is the rollout of each
                            # state it passed before its terminal one.
                            try:
                                for i, (passed, _) in enumerate(trail[:-1], 1):
                                    returns.setdefault(passed, (trail, i))
                            except TypeError:  # an unhashable state
                                returns = None
                elif value.__class__ is tuple:
                    value = returns[state] = _tail_return(*value)
                acc += value

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
    it, covers every repeat before it, and the count is the least, over the
    levels, of the last repeat each level lets through.  The walk goes up
    the path with a running count, ``cap`` at first: each level is checked
    once at the count; a level that fails it lowers the count to its own last
    repeat, found by doubling, then bisection, below the count; a level that
    lets none through ends the walk.
    """
    nodes = tree.nodes
    floor = tree._value_floors(reward)
    sqrt, log, two_log = math.sqrt, math.log, _TWO_LOG
    count = cap
    nid = leaf
    parent_id = nodes[leaf].parent
    while parent_id is not None:
        parent = nodes[parent_id]
        n_parent, n = parent.visits, nodes[nid].visits
        rivals = [(nodes[s].value, nodes[s].visits) for s in parent.children if s != nid]

        def repeats(t: int) -> bool:
            x = t - 1  # playouts added before the t-th descent
            m = n_parent + x
            two_log_n = two_log[m] if m < _TWO_LOG_SIZE else 2.0 * log(m)
            score = floor(nid, x) + c * sqrt(two_log_n / (n + x))
            bar = score - _SLACK * (1.0 + score)
            for rival_value, rival_n in rivals:
                if rival_value + c * sqrt(two_log_n / rival_n) >= bar:
                    return False
            return True

        if not repeats(count):
            good, bad = 0, 1  # good repeats at this level; bad does not, or reaches the count
            while bad < count and repeats(bad):
                good, bad = bad, 2 * bad
            bad = min(bad, count)
            while bad - good > 1:
                mid = (good + bad) // 2
                if repeats(mid):
                    good = mid
                else:
                    bad = mid
            if not good:
                return 0
            count = good
        nid, parent_id = parent_id, parent.parent
    return count
