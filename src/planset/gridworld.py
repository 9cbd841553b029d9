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

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Action alphabet, fixed order: indices are ActionIds everywhere.
MOVES: tuple[tuple[int, int], ...] = ((0, -1), (1, 0), (0, 1), (-1, 0))
ACTION_NAMES = "NESW"
GAMMA = 0.99

Cell = tuple[int, int]


class InvalidGeometryError(ValueError):
    """Grid too small to host distinct start and goal cells."""


class InvalidPlanError(ValueError):
    """Executed action sequence leaves the grid."""


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

    def __init__(self, world: GridWorld, discount: float = GAMMA, rollout_greedy_p: float = 1.0):
        self.world = world
        self.discount = discount
        self.rollout_greedy_p = rollout_greedy_p
        self.horizon = 4 * (world.width + world.height)
        w, h = world.width, world.height
        self._legal: dict[Cell, tuple[int, ...]] = {}
        self._keys: dict[Cell, bytes] = {}
        for y in range(h):
            for x in range(w):
                cell = (x, y)
                self._legal[cell] = tuple(
                    a for a, (dx, dy) in enumerate(MOVES) if 0 <= x + dx < w and 0 <= y + dy < h
                )
                self._keys[cell] = f"{x},{y}".encode()

    def initial_state(self) -> DroneState:
        return DroneState(self.world.start, 0, False)

    def legal_actions(self, state: DroneState) -> tuple[int, ...]:
        if state.done:
            return ()
        return self._legal[state.position]

    def step(self, state: DroneState, action: int) -> tuple[DroneState, float, bool]:
        x, y = state.position
        dx, dy = MOVES[action]
        pos = (x + dx, y + dy)
        if pos not in self._legal:
            raise ValueError(f"action {action} leaves the grid from {state.position}")
        steps = state.steps_taken + 1
        if pos == self.world.goal:
            return DroneState(pos, steps, True), self.discount**steps, True
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
        legal = self._legal[state.position]
        if self.rollout_greedy_p >= 1.0 or rng.random() < self.rollout_greedy_p:
            gx, gy = self.world.goal
            x, y = state.position
            best = legal[0]
            best_dist = 1 << 30
            for a in legal:
                dx, dy = MOVES[a]
                dist = abs(x + dx - gx) + abs(y + dy - gy)
                if dist < best_dist:
                    best_dist = dist
                    best = a
            return best
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
        dx, dy = MOVES[action]
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
    """BFS step count start-to-goal ignoring enemies."""
    if world.start == world.goal:
        return 0
    dist = {world.start: 0}
    queue = deque([world.start])
    while queue:
        x, y = queue.popleft()
        d = dist[(x, y)]
        for dx, dy in MOVES:
            nxt = (x + dx, y + dy)
            if nxt == world.goal:
                return d + 1
            if 0 <= nxt[0] < world.width and 0 <= nxt[1] < world.height and nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    raise RuntimeError("goal unreachable on an open grid")


# -- map text format ------------------------------------------------------
#
# One character per cell, rows top to bottom: '.' free, 'E' enemy,
# 'S' start, 'G' goal.


def render_map(world: GridWorld) -> str:
    rows = []
    for y in range(world.height):
        row = []
        for x in range(world.width):
            cell = (x, y)
            if cell == world.start:
                row.append("S")
            elif cell == world.goal:
                row.append("G")
            elif cell in world.enemies:
                row.append("E")
            else:
                row.append(".")
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def parse_map(text: str, detection_radius: int = 0) -> GridWorld:
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or len(set(map(len, rows))) != 1:
        raise ValueError("map rows must be non-empty and equal length")
    width, height = len(rows[0]), len(rows)
    start = goal = None
    enemies = set()
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == "S":
                start = (x, y)
            elif ch == "G":
                goal = (x, y)
            elif ch == "E":
                enemies.add((x, y))
            elif ch != ".":
                raise ValueError(f"unknown map character {ch!r}")
    if start is None or goal is None:
        raise ValueError("map must contain exactly one S and one G")
    risk = len(enemies) / max(width * height - 2, 1)
    return GridWorld(width, height, start, goal, frozenset(enemies), risk, detection_radius)
