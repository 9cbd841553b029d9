"""Drone-delivery gridworld: plan blind, execute against hidden enemies.

A drone must cross a rectangular grid from the left-edge midpoint to the
right-edge midpoint.  A fraction of cells (the *risk level*) hides enemies
that are invisible at planning time: :class:`PlanningSimulator` exposes the
map with enemies stripped, while :func:`execute_plan` replays an action
sequence against the ground truth and shoots the drone down as soon as it
enters a cell within the detection radius (Chebyshev) of any enemy.

Reaching the goal after n steps pays ``GAMMA ** n``; everything else pays
zero, with episodes cut off at a generous horizon.  The discounted terminal
reward keeps every payoff in [0, 1] and makes shorter successful routes
strictly more valuable, even though path length is never costed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Action alphabet, fixed order: indices are ActionIds everywhere.
MOVES: tuple[tuple[int, int], ...] = ((0, -1), (1, 0), (0, 1), (-1, 0))
_MOVE_OF = dict(enumerate(MOVES))  # unlike MOVES[-1], a lookup outside 0..3 fails
ACTION_NAMES = "NESW"
GAMMA = 0.99

Cell = tuple[int, int]


class InvalidGeometryError(ValueError):
    """Start and goal on one cell, or a grid too small to host two."""


class InvalidPlanError(ValueError):
    """Executed action sequence leaves the grid or names no action."""


@dataclass(frozen=True)
class GridWorld:
    """Immutable problem instance: geometry, hidden enemies, detection rule."""

    width: int
    height: int
    start: Cell
    goal: Cell
    enemies: frozenset[Cell]
    risk: float
    detection_radius: int = 0

    def __post_init__(self):
        if self.detection_radius < 0:
            raise ValueError(f"detection_radius must be >= 0, got {self.detection_radius}")
        if not 0.0 <= self.risk <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"risk {self.risk} outside [0, 1]")
        cells = [("start", self.start), ("goal", self.goal), *(("enemy", e) for e in self.enemies)]
        for name, (x, y) in cells:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"{name} {(x, y)} is off the {self.width}x{self.height} grid")
        if self.start == self.goal:
            raise InvalidGeometryError(f"start and goal share the cell {self.start}")
        for name, cell in cells[:2]:
            if cell in self.enemies:
                raise ValueError(f"an enemy sits on the {name} cell {cell}")


class DroneState(NamedTuple):
    position: Cell
    steps_taken: int
    done: bool


@dataclass(frozen=True)
class ExecutionOutcome:
    reached_goal: bool
    shot_down: bool
    path_length: int


def generate_instance(
    width: int,
    height: int,
    risk: float,
    rng: np.random.Generator | int,
    detection_radius: int = 0,
) -> GridWorld:
    """Sample a problem instance at the given risk level.

    Start and goal sit at the left and right edge midpoints; enemies occupy
    ``round(risk * (width*height - 2))`` cells drawn without replacement
    from the rest.  Deterministic for a given generator state.
    """
    if width < 2 or height < 2:
        raise InvalidGeometryError(f"grid {width}x{height} cannot host start and goal")
    if not 0.0 <= risk <= 1.0:
        raise ValueError(f"risk {risk} outside [0, 1]")
    rng = np.random.default_rng(rng)
    start = (0, height // 2)
    goal = (width - 1, height // 2)
    candidates = [
        (x, y) for y in range(height) for x in range(width) if (x, y) not in (start, goal)
    ]
    count = round(risk * (width * height - 2))
    picked = rng.choice(len(candidates), size=count, replace=False) if count else []
    enemies = frozenset(candidates[i] for i in picked)
    return GridWorld(width, height, start, goal, enemies, risk, detection_radius)


class PlanningSimulator:
    """The planners' view of a world: same geometry, enemies removed.

    Satisfies the search engine's simulator contract.  Legal moves are the
    in-bounds 4-neighbours in fixed N/E/S/W order; stepping onto the goal is
    terminal with reward ``GAMMA ** steps``; running past the horizon
    ``4 * (width + height)`` is terminal with reward 0.

    ``rollout_greedy_p`` weights the rollout policy between goal-greedy and
    uniform moves.  The default is fully greedy: on an open grid the greedy
    completion from any cell is exactly the shortest one, so every playout
    reports the exact value of its start state and the search converges to
    the true optimum instead of orbiting near-optimal detours.
    """

    def __init__(self, world: GridWorld, rollout_greedy_p: float = 1.0):
        if not 0.0 <= rollout_greedy_p <= 1.0:
            raise ValueError(f"rollout_greedy_p must lie in [0, 1], got {rollout_greedy_p}")
        self.world = world
        self.rollout_greedy_p = rollout_greedy_p
        self.horizon = 4 * (world.width + world.height)
        w, h = world.width, world.height
        gx, gy = world.goal
        self._legal: dict[Cell, tuple[int, ...]] = {}
        self._moves: dict[Cell, dict[int, Cell]] = {}  # each legal move's successor cell
        self._keys: dict[Cell, bytes] = {}
        self._greedy: dict[Cell, int] = {}  # default_action's greedy move per cell
        for y in range(h):
            for x in range(w):
                cell = (x, y)
                legal = tuple(
                    a for a, (dx, dy) in enumerate(MOVES) if 0 <= x + dx < w and 0 <= y + dy < h
                )
                self._legal[cell] = legal
                self._moves[cell] = {a: (x + MOVES[a][0], y + MOVES[a][1]) for a in legal}
                self._keys[cell] = f"{x},{y}".encode()
                self._greedy[cell] = min(
                    legal, key=lambda a: abs(x + MOVES[a][0] - gx) + abs(y + MOVES[a][1] - gy)
                )

    def initial_state(self) -> DroneState:
        return DroneState(self.world.start, 0, False)

    def legal_actions(self, state: DroneState) -> tuple[int, ...]:
        if state.done:
            return ()
        return self._legal[state.position]

    def step(self, state: DroneState, action: int) -> tuple[DroneState, float, bool]:
        moves = None if state.done else self._moves.get(state.position)
        if moves is None:
            why = "the episode is over" if state.done else "its cell is off the grid"
            raise ValueError(f"cannot step from {state}: {why}")
        pos = moves.get(action)
        if pos is None:
            if action not in _MOVE_OF:
                raise ValueError(f"action {action!r} is not one of 0..3")
            raise ValueError(f"action {action} leaves the grid from {state.position}")
        steps = state.steps_taken + 1
        if pos == self.world.goal:
            return DroneState(pos, steps, True), GAMMA**steps, True
        if steps >= self.horizon:
            return DroneState(pos, steps, True), 0.0, True
        return DroneState(pos, steps, False), 0.0, False

    def state_key(self, state: DroneState) -> bytes:
        # The cell alone: plan diversity compares routes spatially, so two
        # visits to one cell at different times must share a key.
        return self._keys[state.position]

    def default_action(self, state: DroneState, rng: np.random.Generator) -> int:
        """Rollout policy: with probability ``rollout_greedy_p`` the legal
        move that minimises Manhattan distance to the goal (ties to the
        lowest action index), otherwise a uniform legal move."""
        if self.rollout_greedy_p >= 1.0 or rng.random() < self.rollout_greedy_p:
            return self._greedy[state.position]
        legal = self._legal[state.position]
        return legal[int(rng.integers(len(legal)))]


def execute_plan(world: GridWorld, actions: Sequence[int]) -> ExecutionOutcome:
    """Replay an action sequence in the true world, enemies included.

    The drone is shot down on entering any cell within the detection radius
    of an enemy (checked before goal arrival); reaching the goal ends the
    flight successfully.  ``path_length`` counts executed steps either way.
    """
    danger = _danger_zone(world)
    x, y = world.start
    steps = 0
    for action in actions:
        try:
            dx, dy = _MOVE_OF[action]
        except KeyError:
            raise InvalidPlanError(f"step {steps}: action {action!r} is not one of 0..3") from None
        x, y = x + dx, y + dy
        if not (0 <= x < world.width and 0 <= y < world.height):
            raise InvalidPlanError(f"step {steps} leaves the grid")
        steps += 1
        if (x, y) in danger:
            return ExecutionOutcome(False, True, steps)
        if (x, y) == world.goal:
            return ExecutionOutcome(True, False, steps)
    return ExecutionOutcome(False, False, steps)


def _danger_zone(world: GridWorld) -> frozenset[Cell]:
    r = world.detection_radius
    if r == 0:
        return world.enemies
    zone = set()
    for ex, ey in world.enemies:
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                zone.add((ex + dx, ey + dy))
    return frozenset(zone)


def shortest_unobstructed_path(world: GridWorld) -> int:
    """Step count start-to-goal ignoring enemies: on an open grid of
    4-neighbour moves, the Manhattan distance."""
    (sx, sy), (gx, gy) = world.start, world.goal
    return abs(gx - sx) + abs(gy - sy)


# -- map text format ------------------------------------------------------
#
# One character per cell, rows top to bottom: '.' free, 'E' enemy,
# 'S' start, 'G' goal.


def render_map(world: GridWorld) -> str:
    marks = {**dict.fromkeys(world.enemies, "E"), world.goal: "G", world.start: "S"}
    rows = ("".join(marks.get((x, y), ".") for x in range(world.width)) for y in range(world.height))
    return "\n".join(rows) + "\n"


def parse_map(text: str) -> GridWorld:
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or len(set(map(len, rows))) != 1:
        raise ValueError("map rows must be non-empty and equal length")
    width, height = len(rows[0]), len(rows)
    ends: dict[str, Cell] = {}
    enemies = set()
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == "S" or ch == "G":
                if ch in ends:
                    raise ValueError(f"map has two {ch} cells, {ends[ch]} and {(x, y)}")
                ends[ch] = (x, y)
            elif ch == "E":
                enemies.add((x, y))
            elif ch != ".":
                raise ValueError(f"unknown map character {ch!r}")
    if len(ends) < 2:
        raise ValueError("map must contain exactly one S and one G")
    risk = len(enemies) / max(width * height - 2, 1)
    return GridWorld(width, height, ends["S"], ends["G"], frozenset(enemies), risk)
