import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import bfs_shortest_path
from planset.experiment import desk_profile, run_experiment
from planset.gridworld import (
    ACTION_NAMES,
    MOVES,
    DroneState,
    ExecutionOutcome,
    GridWorld,
    InvalidGeometryError,
    InvalidPlanError,
    PlanningSimulator,
    _danger_zone,
    execute_plan,
    generate_instance,
    parse_map,
    render_map,
    shortest_unobstructed_path,
)

N, E, S, W = range(4)


class ScriptedRng:
    """Duck-typed generator feeding predetermined draws to the policy."""

    def __init__(self, uniforms=(), integers=()):
        self._u = list(uniforms)
        self._i = list(integers)

    def random(self):
        return self._u.pop(0)

    def integers(self, n):
        return self._i.pop(0) % n


def test_zero_risk_has_no_enemies():
    world = generate_instance(8, 8, 0.0, rng=0)
    assert world.enemies == frozenset()
    assert world.start == (0, 4)
    assert world.goal == (7, 4)


def test_full_risk_fills_everything_else():
    world = generate_instance(5, 5, 1.0, rng=0)
    assert len(world.enemies) == 23
    assert world.start not in world.enemies
    assert world.goal not in world.enemies


def test_enemy_count_rounds():
    world = generate_instance(20, 20, 0.10, rng=1)
    assert len(world.enemies) == 40  # round(0.10 * 398)


def test_instance_generation_is_seeded():
    a = generate_instance(12, 9, 0.3, rng=42)
    b = generate_instance(12, 9, 0.3, rng=42)
    c = generate_instance(12, 9, 0.3, rng=43)
    assert a == b
    assert a != c


def test_geometry_and_risk_validation():
    with pytest.raises(InvalidGeometryError):
        generate_instance(1, 5, 0.0, rng=0)
    with pytest.raises(ValueError):
        generate_instance(5, 5, 1.5, rng=0)


def open_sim(**kwargs):
    return PlanningSimulator(generate_instance(4, 4, 0.0, rng=0), **kwargs)


OUT_OF_RANGE_SETTINGS = {
    # A negative radius would empty the danger zone: every route survives.
    "radius via generate_instance": (
        lambda: generate_instance(6, 6, 0.5, rng=1, detection_radius=-1), "detection_radius must be >= 0, got -1"
    ),
    "radius": (
        lambda: GridWorld(5, 5, (0, 0), (2, 2), frozenset(), 0.0, detection_radius=-1),
        "detection_radius must be >= 0, got -1",
    ),
    # An off-grid start or goal would drop from render_map and fail the search.
    "start off the grid": (
        lambda: GridWorld(5, 5, (7, 2), (4, 2), frozenset(), 0.0), r"start \(7, 2\) is off the 5x5 grid"
    ),
    "goal off the grid": (
        lambda: GridWorld(5, 5, (0, 2), (4, -1), frozenset(), 0.0), r"goal \(4, -1\) is off the 5x5 grid"
    ),
    # A start on the goal would render as S alone, and no plan reaches it in
    # the 0 steps the shortest path would claim.
    "start on the goal": (
        lambda: GridWorld(3, 3, (1, 1), (1, 1), frozenset(), 0.0), r"start and goal share the cell \(1, 1\)"
    ),
    # An enemy off the grid or under S or G would drop from render_map, and
    # one on the start cell would never shoot the drone down.
    "enemy off the grid": (
        lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset({(9, 9)}), 0.1), r"enemy \(9, 9\) is off the 5x3 grid"
    ),
    "enemy on the start": (
        lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset({(0, 1)}), 0.1), r"an enemy sits on the start cell \(0, 1\)"
    ),
    "enemy on the goal": (
        lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset({(4, 1)}), 0.1), r"an enemy sits on the goal cell \(4, 1\)"
    ),
    # A fractional radius or side passes every comparison, then fails in
    # range() inside execute_plan or the simulator; a fractional enemy cell
    # is never entered and drops from render_map.
    "fractional radius": (
        lambda: GridWorld(5, 5, (0, 0), (2, 2), frozenset(), 0.0, detection_radius=0.5),
        "detection_radius must be an integer, got 0.5",
    ),
    "fractional radius via generate_instance": (
        lambda: generate_instance(6, 6, 0.5, rng=1, detection_radius=0.5), "detection_radius must be an integer, got 0.5"
    ),
    "fractional width": (
        lambda: GridWorld(5.0, 5, (0, 0), (2, 2), frozenset(), 0.0), "width must be an integer, got 5.0"
    ),
    "fractional height": (
        lambda: GridWorld(5, 5.5, (0, 0), (2, 2), frozenset(), 0.0), "height must be an integer, got 5.5"
    ),
    "fractional width via generate_instance": (
        lambda: generate_instance(5.0, 5, 0.1, 1), "width must be an integer, got 5.0"
    ),
    "fractional height via generate_instance": (
        lambda: generate_instance(5, 5.5, 0.1, 1), "height must be an integer, got 5.5"
    ),
    "fractional enemy": (
        lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset({(2.5, 1)}), 0.1),
        r"enemy \(2.5, 1\) must have integer coordinates",
    ),
    "fractional start": (
        lambda: GridWorld(5, 3, (0, 1.0), (4, 1), frozenset(), 0.0), r"start \(0, 1.0\) must have integer coordinates"
    ),
    "risk above 1": (lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset(), 7.5), r"risk 7.5 outside \[0, 1\]"),
    "risk below 0": (lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset(), -0.1), r"risk -0.1 outside \[0, 1\]"),
    "risk nan": (lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset(), math.nan), r"risk nan outside \[0, 1\]"),
    "greedy_p above 1": (lambda: open_sim(rollout_greedy_p=1.7), r"rollout_greedy_p must lie in \[0, 1\], got 1.7"),
    "greedy_p below 0": (lambda: open_sim(rollout_greedy_p=-0.1), r"rollout_greedy_p must lie in \[0, 1\], got -0.1"),
    "greedy_p nan": (lambda: open_sim(rollout_greedy_p=math.nan), r"rollout_greedy_p must lie in \[0, 1\], got nan"),
    # A risk or greedy_p that is no number escaped as a bare TypeError.
    "risk string": (
        lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset(), "0.1"), "risk must be a real number, got '0.1'"
    ),
    "risk None": (lambda: GridWorld(5, 3, (0, 1), (4, 1), frozenset(), None), "risk must be a real number, got None"),
    "risk string via generate_instance": (
        lambda: generate_instance(4, 4, "0.1", 0), "risk must be a real number, got '0.1'"
    ),
    "greedy_p None": (lambda: open_sim(rollout_greedy_p=None), "rollout_greedy_p must be a real number, got None"),
    "greedy_p string": (lambda: open_sim(rollout_greedy_p="1"), "rollout_greedy_p must be a real number, got '1'"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE_SETTINGS))
def test_out_of_range_settings_are_refused(case):
    make, message = OUT_OF_RANGE_SETTINGS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_numpy_and_bool_integers_are_integers():
    world = GridWorld(
        np.int64(5), np.int32(3), (np.int64(0), 1), (4, np.int8(1)), frozenset({(np.int64(2), 1)}), 0.1,
        detection_radius=True,
    )
    assert parse_map(render_map(world)).enemies == world.enemies
    assert generate_instance(np.int64(6), np.uint8(5), 0.3, 2) == generate_instance(6, 5, 0.3, 2)


def test_legal_actions_respect_bounds():
    world = generate_instance(3, 3, 0.5, rng=0)  # enemies don't matter here
    sim = PlanningSimulator(world)
    assert sim.legal_actions(DroneState((0, 0), 0, False)) == (E, S)
    assert sim.legal_actions(DroneState((1, 1), 0, False)) == (N, E, S, W)
    assert sim.legal_actions(DroneState((2, 2), 0, False)) == (N, W)
    assert sim.legal_actions(DroneState((1, 1), 0, True)) == ()


def test_goal_step_pays_discounted_reward():
    world = generate_instance(8, 8, 0.0, rng=0)
    sim = PlanningSimulator(world)
    beside = DroneState((world.goal[0] - 1, world.goal[1]), 5, False)
    state, reward, done = sim.step(beside, E)
    assert done and state.done
    assert reward == pytest.approx(0.99**6)
    assert state.position == world.goal


def test_horizon_cuts_off_with_zero_reward():
    world = generate_instance(2, 2, 0.0, rng=0)
    sim = PlanningSimulator(world)
    horizon = sim.horizon
    state = DroneState((0, 0), horizon - 1, False)
    nxt, reward, done = sim.step(state, S)
    assert done and reward == 0.0 and nxt.steps_taken == horizon


def test_off_grid_step_rejected():
    world = generate_instance(4, 4, 0.0, rng=0)
    sim = PlanningSimulator(world)
    with pytest.raises(ValueError):
        sim.step(DroneState((0, 0), 0, False), W)


def test_step_refuses_a_state_off_the_grid():
    # Moving East from (-1, 3) would land on the grid at (0, 3); the state
    # itself is refused before any move is read.
    sim = PlanningSimulator(generate_instance(6, 6, 0.2, rng=4))
    for cell in ((-1, 3), (6, 0), (2, -1), (0, 6)):
        for action in range(4):
            with pytest.raises(ValueError, match=r"its cell is off the grid$"):
                sim.step(DroneState(cell, 0, False), action)


def test_step_refuses_a_finished_episode():
    world = generate_instance(6, 6, 0.2, rng=4)
    sim = PlanningSimulator(world)
    beside = DroneState((world.goal[0] - 1, world.goal[1]), 3, False)
    arrived, _, done = sim.step(beside, E)
    assert done
    cut_off, _, done = sim.step(DroneState((1, 1), sim.horizon - 1, False), S)
    assert done
    for state in (arrived, cut_off, DroneState(world.start, 0, True)):
        for action in range(4):
            with pytest.raises(ValueError, match=r"the episode is over$"):
                sim.step(state, action)


def test_rewards_stay_in_unit_interval():
    world = generate_instance(6, 6, 0.0, rng=5)
    sim = PlanningSimulator(world)
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = sim.initial_state()
        total = 0.0
        while True:
            actions = sim.legal_actions(state)
            if not actions:
                break
            state, reward, done = sim.step(state, actions[int(rng.integers(len(actions)))])
            assert 0.0 <= reward <= 1.0
            total += reward
            if done:
                break
        assert 0.0 <= total <= 1.0


def test_state_key_is_cell_only():
    world = generate_instance(6, 6, 0.0, rng=0)
    sim = PlanningSimulator(world)
    a = DroneState((2, 3), 4, False)
    b = DroneState((2, 3), 9, False)
    assert sim.state_key(a) == sim.state_key(b) == b"2,3"
    assert sim.state_key(DroneState((3, 2), 4, False)) != sim.state_key(a)


def rollout_policy(world):
    return PlanningSimulator(world, rollout_greedy_p=0.8).default_action


def test_default_policy_greedy_branch():
    world = generate_instance(8, 8, 0.0, rng=0)
    policy = rollout_policy(world)
    left_of_goal = DroneState((world.goal[0] - 1, world.goal[1]), 0, False)
    assert policy(left_of_goal, ScriptedRng(uniforms=[0.79])) == E
    above_goal = DroneState((world.goal[0], world.goal[1] - 1), 0, False)
    assert policy(above_goal, ScriptedRng(uniforms=[0.0])) == S


def test_default_policy_greedy_tie_breaks_low_index():
    # Start cell: goal straight east, N and S both neutral, E unique argmin.
    # From a corner equidistant diagonally, E (index 1) beats S (index 2).
    world = GridWorld(5, 5, (0, 0), (2, 2), frozenset(), 0.0)
    corner = DroneState((0, 0), 0, False)
    assert rollout_policy(world)(corner, ScriptedRng(uniforms=[0.5])) == E


def test_default_policy_uniform_branch():
    world = generate_instance(8, 8, 0.0, rng=0)
    policy = rollout_policy(world)
    center = DroneState((4, 4), 0, False)
    for idx, expected in enumerate((N, E, S, W)):
        assert policy(center, ScriptedRng(uniforms=[0.9], integers=[idx])) == expected


def manhattan_argmin(world, cell):
    """The greedy move as a scan over the legal moves: lowest Manhattan
    distance to the goal, ties to the lowest action index."""
    (x, y), (gx, gy) = cell, world.goal
    best, best_dist = None, None
    for a, (dx, dy) in enumerate(MOVES):
        if 0 <= x + dx < world.width and 0 <= y + dy < world.height:
            dist = abs(x + dx - gx) + abs(y + dy - gy)
            if best_dist is None or dist < best_dist:
                best, best_dist = a, dist
    return best


@pytest.mark.parametrize("world", [
    generate_instance(8, 8, 0.0, rng=0),
    generate_instance(7, 4, 0.3, rng=1),
    GridWorld(5, 5, (0, 0), (2, 2), frozenset(), 0.0),
    GridWorld(2, 3, (0, 0), (1, 2), frozenset(), 0.0),
])
def test_greedy_move_is_the_manhattan_argmin_in_every_cell(world):
    sim = PlanningSimulator(world)
    for y in range(world.height):
        for x in range(world.width):
            state = DroneState((x, y), 0, False)
            # At rollout_greedy_p = 1 the policy draws nothing.
            assert sim.default_action(state, ScriptedRng()) == manhattan_argmin(world, (x, y))


def test_default_policy_draws_the_same_numbers():
    """One ``random()`` per move below p = 1, plus one ``integers`` per
    uniform move, in the same order as before the greedy table."""
    world = generate_instance(9, 9, 0.0, rng=3)
    sim = PlanningSimulator(world, rollout_greedy_p=0.6)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for i in range(400):
        cell = (i % 9, (i * 7) % 9)
        legal = sim.legal_actions(DroneState(cell, 0, False))
        if ref.random() < 0.6:
            expected = manhattan_argmin(world, cell)
        else:
            expected = legal[int(ref.integers(len(legal)))]
        assert sim.default_action(DroneState(cell, 0, False), rng) == expected
    assert rng.random() == ref.random()


def test_execute_plan_shot_down_on_enemy_cell():
    world = GridWorld(4, 3, (0, 1), (3, 1), frozenset({(1, 1)}), 0.1)
    outcome = execute_plan(world, [E, E, E])
    assert outcome == ExecutionOutcome(False, True, 1)


def test_execute_plan_reaches_goal_on_clear_grid():
    world = generate_instance(6, 6, 0.0, rng=0)
    outcome = execute_plan(world, [E] * 5)
    assert outcome.reached_goal and not outcome.shot_down
    assert outcome.path_length == shortest_unobstructed_path(world) == 5


def test_execute_plan_empty_sequence():
    world = generate_instance(6, 6, 0.0, rng=0)
    assert execute_plan(world, []) == ExecutionOutcome(False, False, 0)


def test_execute_plan_rejects_illegal_step():
    world = generate_instance(6, 6, 0.0, rng=0)
    with pytest.raises(InvalidPlanError):
        execute_plan(world, [W])  # leaves the grid from the left edge


@pytest.mark.parametrize("bad", [-1, -4, 4, 7])
def test_execute_plan_refuses_an_action_outside_the_alphabet(bad):
    # From (1, 3) a West move stays on the grid, so -1 must not read as W.
    world = generate_instance(6, 6, 0.0, rng=0)
    with pytest.raises(InvalidPlanError, match=f"^step 1: action {bad} is not one of 0..3$"):
        execute_plan(world, [E, bad, E])


@pytest.mark.parametrize("bad", [-1, -4, 4, 7])
def test_step_refuses_an_action_outside_the_alphabet(bad):
    sim = PlanningSimulator(generate_instance(6, 6, 0.0, rng=0))
    inside, _, _ = sim.step(sim.initial_state(), E)
    with pytest.raises(ValueError, match=f"^action {bad} is not one of 0..3$"):
        sim.step(inside, bad)


def test_execute_plan_stops_at_goal_ignoring_rest():
    world = generate_instance(4, 4, 0.0, rng=0)
    outcome = execute_plan(world, [E, E, E, N, N, N])
    assert outcome.reached_goal
    assert outcome.path_length == 3


def test_detection_radius_kills_nearby():
    enemies = frozenset({(2, 0)})
    world = GridWorld(5, 3, (0, 1), (4, 1), enemies, 0.1, detection_radius=1)
    outcome = execute_plan(world, [E, E, E, E])
    assert outcome.shot_down and outcome.path_length == 1  # (1,1) is within Chebyshev 1 of (2,0)
    safe = GridWorld(5, 3, (0, 1), (4, 1), enemies, 0.1, detection_radius=0)
    assert execute_plan(safe, [E, E, E, E]).reached_goal


def execute_reference(world, actions):
    """``execute_plan`` for legal moves with no danger zone: each entered
    cell is tested against every enemy's Chebyshev distance."""
    x, y = world.start
    r = world.detection_radius
    for steps, action in enumerate(actions, 1):
        x, y = x + MOVES[action][0], y + MOVES[action][1]
        if any(max(abs(x - ex), abs(y - ey)) <= r for ex, ey in world.enemies):
            return ExecutionOutcome(False, True, steps)
        if (x, y) == world.goal:
            return ExecutionOutcome(True, False, steps)
    return ExecutionOutcome(False, False, len(actions))


def random_walk(rng, world, steps):
    """Actions of a walk of legal moves from the start."""
    (x, y), actions = world.start, []
    for _ in range(steps):
        legal = [a for a, (dx, dy) in enumerate(MOVES) if 0 <= x + dx < world.width and 0 <= y + dy < world.height]
        action = legal[int(rng.integers(len(legal)))]
        x, y = x + MOVES[action][0], y + MOVES[action][1]
        actions.append(action)
    return actions


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_detection_radius_outcomes_match_the_uncached_computation(radius, seed):
    rng = np.random.default_rng(seed)
    worlds = [generate_instance(10, 10, risk, rng, detection_radius=radius) for risk in (0.02, 0.05, 0.15)]
    walks = [random_walk(rng, worlds[0], int(rng.integers(1, 16))) for _ in range(45)]
    shot = 0
    # Worlds alternate, so each zone is read both freshly built and cached.
    for _ in range(2):
        for i, actions in enumerate(walks):
            world = worlds[i % len(worlds)]
            outcome = execute_plan(world, actions)
            assert outcome == execute_reference(world, actions), (i, actions)
            shot += outcome.shot_down
    assert 0 < shot < 2 * len(walks)


def test_a_sweep_builds_each_worlds_danger_zone_once():
    base = desk_profile()
    config = desk_profile(
        detection_radius=1,
        risk_levels=(0.3, 0.5),
        replications_per_level=2,
        width=10,
        height=10,
        search=replace(base.search, iterations=400),
    )
    _danger_zone.cache_clear()
    records = run_experiment(config)
    info = _danger_zone.cache_info()
    assert info.misses == config.instances
    assert info.hits + info.misses == sum(r.plans_emitted for r in records) > config.instances


def test_detection_checked_before_goal():
    enemies = frozenset({(4, 2)})
    world = GridWorld(5, 3, (0, 1), (4, 1), enemies, 0.1, detection_radius=1)
    outcome = execute_plan(world, [E, E, E, E])
    assert outcome.shot_down and not outcome.reached_goal


def test_shortest_path_cases():
    neighbors = GridWorld(4, 4, (1, 1), (1, 2), frozenset(), 0.0)
    assert shortest_unobstructed_path(neighbors) == 1
    corners = GridWorld(5, 3, (4, 0), (0, 2), frozenset(), 0.0)
    assert shortest_unobstructed_path(corners) == 6
    world = generate_instance(20, 20, 0.5, rng=9)
    assert shortest_unobstructed_path(world) == 19  # enemies are ignored
    for hand_built in (neighbors, corners, world):
        assert shortest_unobstructed_path(hand_built) == bfs_shortest_path(hand_built)


@pytest.mark.parametrize("width", range(2, 13))
def test_shortest_path_matches_breadth_first_search(width):
    for height in range(2, 13):
        for seed in range(3):
            world = generate_instance(width, height, 0.3, rng=seed)
            assert shortest_unobstructed_path(world) == bfs_shortest_path(world)


def test_map_round_trip():
    world = generate_instance(7, 5, 0.25, rng=4)
    text = render_map(world)
    clone = parse_map(text)
    assert clone.width == world.width and clone.height == world.height
    assert clone.start == world.start and clone.goal == world.goal
    assert clone.enemies == world.enemies
    assert clone.risk == pytest.approx(world.risk, abs=0.02)
    assert text.count("S") == 1 and text.count("G") == 1
    assert text.count("E") == len(world.enemies)


@pytest.mark.parametrize("risk", [0.0, 0.3, 1.0])
def test_rendered_maps_keep_every_enemy(risk):
    for width, height in ((2, 2), (3, 7), (9, 4), (12, 12)):
        for seed in range(3):
            world = generate_instance(width, height, risk, rng=seed)
            assert parse_map(render_map(world)).enemies == world.enemies


def test_map_parse_validation():
    with pytest.raises(ValueError):
        parse_map("S.\n..\n")  # no goal
    with pytest.raises(ValueError):
        parse_map("S.G\n..\n")  # ragged rows
    with pytest.raises(ValueError):
        parse_map("S?G\n...\n")  # unknown char
    # a second start or goal names both cells instead of keeping the last
    with pytest.raises(ValueError, match=r"two S cells, \(0, 0\) and \(2, 0\)"):
        parse_map("S.S.G\n.....\n")
    with pytest.raises(ValueError, match=r"two G cells, \(4, 0\) and \(4, 1\)"):
        parse_map("S...G\n....G\n")


def test_moves_match_action_names():
    assert len(MOVES) == len(ACTION_NAMES) == 4
    assert MOVES[ACTION_NAMES.index("N")] == (0, -1)
    assert MOVES[ACTION_NAMES.index("E")] == (1, 0)
