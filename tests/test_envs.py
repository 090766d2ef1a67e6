"""Environments, soft value iteration, and episode rollouts."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asaf.discriminator import AsqfModel
from asaf.envs import (
    ENVS,
    PointMassSpec,
    ScriptedPointMassPolicy,
    SoftExpertPolicy,
    TabularSpec,
    chain_spec,
    env_by_id,
    gridworld_mdp,
    gridworld_spec,
    one_hot,
    rollout,
    soft_value_iteration,
    TabularMdp,
)
from asaf.errors import ShapeError, UnsupportedError, ValidationError
from asaf.policies import make_policy
from asaf.verify import collect_expert_demos
from test_pinned import random_mdp_spec

# Two-state toggle task used as the soft-backup fixture: action a in state s
# moves deterministically to TOGGLE_NEXT[s][a].
TOGGLE_NEXT = ((0, 1), (1, 0))
TOGGLE_R = ((0.0, 0.5), (1.0, 0.2))


def toggle_mdp(horizon=3, gamma=0.9):
    p = np.zeros((2, 2, 2))
    for s in range(2):
        for a in range(2):
            p[s, a, TOGGLE_NEXT[s][a]] = 1.0
    return TabularMdp(
        transitions=p,
        start=np.array([1.0, 0.0]),
        rewards=np.array(TOGGLE_R),
        horizon=horizon,
        gamma=gamma,
    )


def step(spec, state, action, rng):
    """(next state, reward, terminal) of one state through ``step_rows``, with
    the step's own draws taken from ``rng``."""
    kind, n = spec.draws
    acts = np.reshape(action, 1) if spec.action_kind == "discrete" else np.reshape(action, (1, -1))
    nxt, reward, terminal = spec.step_rows(np.array([state]), acts, getattr(rng, kind)((1, n)))
    return nxt[0].item(), float(reward[0]), bool(terminal[0])


def soft_q_by_recursion(t, s, a, horizon, gamma, alpha):
    """Independent oracle: expand the soft backup as nested log-sums over
    action continuations (valid because the toggle dynamics are deterministic)."""
    if t == horizon - 1:
        return TOGGLE_R[s][a]
    s2 = TOGGLE_NEXT[s][a]
    vals = [soft_q_by_recursion(t + 1, s2, a2, horizon, gamma, alpha) for a2 in range(2)]
    soft_v = alpha * math.log(sum(math.exp(v / alpha) for v in vals))
    return TOGGLE_R[s][a] + gamma * soft_v


# ---------------------------------------------------------------- mdp validation

def test_mdp_validate_catches_bad_tables():
    good = toggle_mdp()
    p = good.transitions.copy()
    p[0, 0, 0] = 0.5  # row no longer sums to 1
    with pytest.raises(ValidationError):
        TabularMdp(transitions=p, start=good.start, rewards=good.rewards, horizon=3)
    with pytest.raises(ValidationError):
        TabularMdp(transitions=good.transitions, start=np.array([0.7, 0.7]), rewards=good.rewards, horizon=3)
    with pytest.raises(ShapeError):
        TabularMdp(transitions=good.transitions, start=good.start, rewards=np.zeros((3, 2)), horizon=3)
    with pytest.raises(ValidationError):
        TabularMdp(transitions=good.transitions, start=good.start, rewards=good.rewards, horizon=0)
    with pytest.raises(ValidationError):
        TabularMdp(transitions=good.transitions, start=good.start, rewards=good.rewards, horizon=3, gamma=1.5)
    with pytest.raises(ShapeError, match=r"transitions must be \(S, A, S\), got \(2, 2, 3\)"):
        TabularMdp(transitions=np.full((2, 2, 3), 1 / 3), start=good.start, rewards=good.rewards, horizon=3)
    with pytest.raises(ShapeError, match=r"start distribution must be \(2,\), got \(3,\)"):
        TabularMdp(transitions=good.transitions, start=np.array([1.0, 0.0, 0.0]), rewards=good.rewards, horizon=3)
    negative = good.transitions.copy()
    negative[0, 0] = [1.5, -0.5]    # the row still sums to 1
    for p, p0 in ((negative, good.start), (good.transitions, np.array([1.5, -0.5]))):
        with pytest.raises(ValidationError, match="negative probabilities"):
            TabularMdp(transitions=p, start=p0, rewards=good.rewards, horizon=3)
    # a terminal state must be a state, absorbing, and pay nothing
    absorbing = good.transitions.copy()
    absorbing[0] = [[1.0, 0.0], [1.0, 0.0]]
    zero_r = good.rewards.copy()
    zero_r[0] = 0.0
    TabularMdp(transitions=absorbing, start=good.start, rewards=zero_r, horizon=3, terminal=(0,))
    for terminal in ((2,), (-1,), (0.5,)):
        with pytest.raises(ValidationError):
            TabularMdp(transitions=absorbing, start=good.start, rewards=zero_r, horizon=3, terminal=terminal)
    with pytest.raises(ValidationError):  # state 0 leaves itself under action 1
        TabularMdp(transitions=good.transitions, start=good.start, rewards=zero_r, horizon=3, terminal=(0,))
    with pytest.raises(ValidationError):  # absorbing but paying 0.5
        TabularMdp(transitions=absorbing, start=good.start, rewards=good.rewards, horizon=3, terminal=(0,))


# ---------------------------------------------------------------- soft backups

def test_soft_value_iteration_matches_recursion_oracle():
    mdp = toggle_mdp(horizon=3, gamma=0.9)
    table = soft_value_iteration(mdp, alpha=0.5)
    for t in range(3):
        for s in range(2):
            for a in range(2):
                want = soft_q_by_recursion(t, s, a, horizon=3, gamma=0.9, alpha=0.5)
                assert table.q[t, s, a] == pytest.approx(want, abs=1e-9)


def test_soft_value_iteration_frozen_values():
    table = soft_value_iteration(toggle_mdp(horizon=3, gamma=0.9), alpha=0.5)
    np.testing.assert_allclose(
        table.q[0],
        [[1.4043755899679955, 2.324175463007945],
         [2.824175463007945, 1.6043755899679955]],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        table.q[1],
        [[0.5909677593832002, 1.4827553333997527],
         [1.9827553333997527, 0.7909677593832003]],
        atol=1e-12,
    )


def test_terminal_stage_equals_rewards():
    mdp = toggle_mdp(horizon=4)
    table = soft_value_iteration(mdp, alpha=1.0)
    np.testing.assert_array_equal(table.q[3], mdp.rewards)


def test_gamma_zero_is_myopic():
    table = soft_value_iteration(toggle_mdp(horizon=5, gamma=0.0), alpha=1.0)
    for t in range(5):
        np.testing.assert_array_equal(table.q[t], np.array(TOGGLE_R))


def test_backup_resubstitution():
    # each returned stage must satisfy q[t] = r + gamma P v[t+1] exactly
    mdp = chain_spec().mdp
    table = soft_value_iteration(mdp, alpha=1.0)
    for t in range(mdp.horizon - 1):
        v = np.log(np.exp(table.q[t + 1]).sum(axis=1))     # alpha = 1
        want = mdp.rewards + mdp.gamma * (mdp.transitions @ v)
        np.testing.assert_allclose(table.q[t], want, atol=1e-12)


def test_tiny_alpha_approaches_hard_backup():
    mdp = toggle_mdp(horizon=4, gamma=0.9)
    soft = soft_value_iteration(mdp, alpha=1e-3)
    # hard (max) value iteration for the same horizon
    v = np.zeros(2)
    q = None
    for _ in range(4):
        q = mdp.rewards + mdp.gamma * (mdp.transitions @ v)
        v = q.max(axis=1)
    np.testing.assert_allclose(soft.q[0], q, atol=0.01)


def test_soft_value_iteration_rejects_bad_alpha():
    with pytest.raises(ValidationError):
        soft_value_iteration(toggle_mdp(), alpha=0.0)
    with pytest.raises(ValidationError):
        soft_value_iteration(toggle_mdp(), alpha=-1.0)
    for alpha in (np.nan, np.inf):   # NaN would give an all-action-0 "expert"
        with pytest.raises(ValidationError, match="finite"):
            soft_value_iteration(toggle_mdp(), alpha=alpha)


def test_maxent_policy_examples():
    mdp = toggle_mdp(horizon=1)
    # only the terminal stage: q = r, so the policy is softmax(r / alpha)
    table = soft_value_iteration(mdp, alpha=1.0)
    p = table.policy_table()[0][0]
    want = np.exp([0.0, 0.5]) / np.exp([0.0, 0.5]).sum()
    np.testing.assert_allclose(p, want, atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)

    # equal values give the uniform policy
    flat = TabularMdp(
        transitions=toggle_mdp().transitions,
        start=np.array([1.0, 0.0]),
        rewards=np.zeros((2, 2)),
        horizon=1,
    )
    np.testing.assert_allclose(soft_value_iteration(flat, 1.0).policy_table()[0][0], [0.5, 0.5], atol=1e-15)


def test_smaller_alpha_sharpens_policy():
    mdp = toggle_mdp(horizon=1)
    soft = soft_value_iteration(mdp, alpha=1.0).policy_table()[0][0]
    sharp = soft_value_iteration(mdp, alpha=0.1).policy_table()[0][0]
    assert sharp[1] > soft[1] > 0.5  # action 1 pays 0.5 vs 0 in state 0


def test_greedy_table():
    table = soft_value_iteration(chain_spec().mdp, alpha=1.0)
    greedy = table.greedy_table()
    assert greedy.shape == (5, 4)
    assert np.all(greedy == 1)  # moving right dominates everywhere on the chain


# ---------------------------------------------------------------- tabular env

def test_chain_env_dynamics():
    spec = chain_spec()
    rng = np.random.default_rng(0)
    state = spec.reset(rng.random())
    assert state == 0
    np.testing.assert_array_equal(spec.observe(state), one_hot(0, 4))
    for action, want in ((1, (1, 0.4, False)), (0, (0, 0.1, False)), (0, (0, 0.0, False)),
                         (1, (1, 0.4, False)), (1, (2, 0.5, False))):
        state, r, terminal = step(spec, state, action, rng)
        assert (state, r, terminal) == want
        np.testing.assert_array_equal(spec.observe(state), one_hot(state, 4))
    # the chain has no terminal state: rollout stops the same actions after 5 steps
    traj, ret = rollout(spec, Scripted([1, 0, 0, 1, 1, 1, 1]), seed=0)
    assert len(traj) == 5 and ret == pytest.approx(0.4 + 0.1 + 0.0 + 0.4 + 0.5, abs=1e-15)


def test_chain_env_rejects_bad_action():
    with pytest.raises(ValueError):
        chain_spec().step_rows(np.array([0]), np.array([2]), np.zeros((1, 1)))


def test_chain_spec_tables():
    spec = chain_spec()
    mdp = spec.mdp
    assert spec.env_id == "chain"
    assert (mdp.n_states, mdp.n_actions, mdp.horizon) == (4, 2, 5)
    np.testing.assert_allclose(mdp.transitions.sum(axis=2), 1.0)
    assert mdp.rewards[2, 1] == pytest.approx(0.6)
    assert mdp.rewards[3, 0] == pytest.approx(0.3)
    assert mdp.transitions[3, 1, 3] == 1.0  # right move clamps at the end


# ---------------------------------------------------------------- gridworld

# The maze and the step of the interactive gridworld env that the tabular
# form replaced, kept as the reference its dynamics are checked against.
REF_GRID = ("S....", ".###.", "...#.", "##.#.", "....G")
REF_WALLS = {(r, c) for r, row in enumerate(REF_GRID) for c, ch in enumerate(row) if ch == "#"}
REF_START, REF_GOAL = (0, 0), (4, 4)
REF_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))   # up, down, left, right
CORRIDORS = ((3, 3, 3, 3, 1, 1, 1, 1), (1, 1, 3, 3, 1, 1, 3, 3))


def reference_grid_step(cell, t, action, horizon):
    """Step ``t`` (from 0) of the former ``GridworldEnv``: (next cell, reward, done)."""
    dr, dc = REF_MOVES[action]
    nxt = (cell[0] + dr, cell[1] + dc)
    if not (0 <= nxt[0] < 5 and 0 <= nxt[1] < 5) or nxt in REF_WALLS:
        nxt = cell
    r = -1.0 + (10.0 if nxt == REF_GOAL else 0.0)
    return nxt, r, nxt == REF_GOAL or t + 1 >= horizon


def test_gridworld_walls_block():
    spec, rng = gridworld_spec(), np.random.default_rng(0)
    state = spec.reset(rng.random())
    state, r, terminal = step(spec, state, 0, rng)   # up from the corner: blocked
    assert (state, r, terminal) == (5 * 0 + 0, -1.0, False)
    state, _, _ = step(spec, state, 3, rng)          # to (0, 1)
    state, r, _ = step(spec, state, 1, rng)          # down into the wall at (1, 1)
    assert (state, r) == (5 * 0 + 1, -1.0)


def test_gridworld_corridor_reaches_goal():
    spec, rng = gridworld_spec(), np.random.default_rng(0)
    state = spec.reset(rng.random())
    total = 0.0
    for a in (3, 3, 3, 3, 1, 1, 1):
        state, r, terminal = step(spec, state, a, rng)
        total += r
        assert not terminal
    state, r, terminal = step(spec, state, 1, rng)   # (3, 4) -> goal
    total += r
    assert terminal and state == 5 * 4 + 4
    assert total == 2.0                             # 7 * (-1) + 9
    # rollout stops there: the policy is asked for no ninth action
    traj, ret = rollout(gridworld_spec(), Scripted(CORRIDORS[0]), seed=0)
    assert len(traj) == 8 and ret == 2.0


def test_gridworld_second_corridor_same_length():
    spec, rng = gridworld_spec(), np.random.default_rng(0)
    state = spec.reset(rng.random())
    for a in (1, 1, 3, 3, 1, 1, 3):
        state, _, terminal = step(spec, state, a, rng)
        assert not terminal
    state, _, terminal = step(spec, state, 3, rng)
    assert terminal and state == 5 * 4 + 4
    traj, ret = rollout(gridworld_spec(), Scripted(CORRIDORS[1]), seed=0)
    assert len(traj) == 8 and ret == 2.0


def test_gridworld_times_out_at_horizon():
    traj, ret = rollout(gridworld_spec(horizon=4), ConstantPolicy(0), seed=0)   # blocked forever
    assert len(traj) == 4 and ret == -4.0


def test_gridworld_mdp_matches_env():
    mdp = gridworld_mdp()
    assert mdp.n_states == 25 and mdp.n_actions == 4
    assert mdp.terminal == (24,) and np.flatnonzero(mdp.terminal_mask).tolist() == [24]
    np.testing.assert_allclose(mdp.transitions.sum(axis=2), 1.0)
    goal = 24
    np.testing.assert_array_equal(mdp.transitions[goal, :, goal], 1.0)  # absorbing
    np.testing.assert_array_equal(mdp.rewards[goal], 0.0)
    assert mdp.rewards[19, 1] == 9.0   # (3,4) stepping down enters the goal
    assert mdp.rewards[0, 3] == -1.0


def test_gridworld_env_return_matches_mdp_expected_return():
    # the episode ends at the goal, the tabular form absorbs there with zero
    # reward: totals agree for any (deterministic) policy
    from asaf.exact import expected_return

    mdp = gridworld_mdp(horizon=10)
    pi = np.zeros((25, 4))
    pi[:, 3] = 1.0   # always right; never reaches the goal from the start row? it does not pass (1,*) walls
    _, total = rollout(gridworld_spec(horizon=10), ConstantPolicy(3), seed=0)
    assert total == pytest.approx(expected_return(mdp, pi), abs=1e-12)


@pytest.mark.parametrize("horizon", [1, 30])
def test_gridworld_steps_match_reference_for_every_state_and_action(horizon):
    grid = gridworld_mdp(horizon)
    spec, rng = TabularSpec(grid), np.random.default_rng(0)
    for s in range(25):
        # the same maze started in s: its one-step rollouts say whether step 0 ends the episode
        from_s = TabularSpec(TabularMdp(grid.transitions, one_hot(s, 25), grid.rewards, horizon, terminal=grid.terminal))
        for a in range(4):
            nxt, r, terminal = step(spec, s, a, rng)
            ended = len(rollout(from_s, ConstantPolicy(a), seed=0)[0]) == 1
            if divmod(s, 5) == REF_GOAL:
                # the reference never steps from the goal; the table absorbs there for free
                assert (nxt, r, terminal, ended) == (s, 0.0, True, True)
                continue
            cell, want_r, want_done = reference_grid_step(divmod(s, 5), 0, a, horizon)
            assert (nxt, r, terminal, ended) == (5 * cell[0] + cell[1], want_r, cell == REF_GOAL, want_done)
            np.testing.assert_array_equal(spec.observe(nxt), one_hot(nxt, 25))


@given(
    st.tuples(st.sampled_from(CORRIDORS), st.integers(0, 8), st.lists(st.integers(0, 3), max_size=32))
    .map(lambda c: list(c[0][: c[1]]) + c[2]),
    st.integers(1, 30),
)
@example(actions=list(CORRIDORS[0]) + [0], horizon=30)   # the goal, then a step too many
@example(actions=list(CORRIDORS[1]), horizon=8)          # the goal on the last step
@example(actions=[0] * 5, horizon=4)                     # a timeout, then a step too many
def test_gridworld_episodes_match_reference(actions, horizon):
    spec, rng = gridworld_spec(horizon=horizon), np.random.default_rng(0)
    state = spec.reset(rng.random())
    assert state == 5 * REF_START[0] + REF_START[1]
    cell, done, played, cells, want_ret = REF_START, False, [], [state], 0.0
    for t, a in enumerate(actions):
        if done:
            break
        cell, want_r, done = reference_grid_step(cell, t, a, horizon)
        state, r, terminal = step(spec, state, a, rng)
        assert (state, r, terminal) == (5 * cell[0] + cell[1], want_r, cell == REF_GOAL)
        np.testing.assert_array_equal(spec.observe(state), one_hot(state, 25))
        played.append(a)
        cells.append(state)
        want_ret += want_r
    if done:
        # rollout plays the same actions and ends where the reference does:
        # Scripted raises IndexError if asked for one more
        traj, ret = rollout(spec, Scripted(played), seed=0)
        assert len(traj) == len(played) and ret == want_ret
        np.testing.assert_array_equal(traj.obs, [one_hot(c, 25) for c in cells[:-1]])


# ---------------------------------------------------------------- point mass

def test_pointmass_arithmetic():
    spec, rng = PointMassSpec(), np.random.default_rng(3)
    x, r, terminal = step(spec, 0.5, 1.0, rng)
    assert x == pytest.approx(0.6, abs=1e-15) and not terminal
    assert r == pytest.approx(-0.36, abs=1e-15)
    np.testing.assert_array_equal(spec.observe(x), [x])
    x, r, _ = step(spec, x, 5.0, rng)      # actions clamp to [-1, 1]
    assert x == pytest.approx(0.7, abs=1e-15)


def test_pointmass_position_clamps():
    spec, rng = PointMassSpec(), np.random.default_rng(0)
    x, _, _ = step(spec, 1.98, 1.0, rng)
    assert x == 2.0
    x, _, _ = step(spec, x, 1.0, rng)
    assert x == 2.0


@pytest.mark.parametrize("action", [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.3, -7.0])
@pytest.mark.parametrize("x0", [-0.0, 0.0, 1.95, -1.95])
def test_pointmass_clamps_match_np_clip(action, x0):
    # the step clamps with scalar min/max; the same value np.clip gives, NaN,
    # infinities and signed zeros included (the sign of a NaN is left to the
    # interpreter's float arithmetic, so NaNs only need to be NaN)
    def same(a, b):
        return bool(np.isnan(a) and np.isnan(b)) or (a == b and np.signbit(a) == np.signbit(b))

    spec, rng = PointMassSpec(horizon=8), np.random.default_rng(0)
    state = x = x0
    for _ in range(8):
        state, r, _ = step(spec, state, action, rng)
        x = float(np.clip(x + 0.1 * float(np.clip(action, -1.0, 1.0)), -2.0, 2.0))
        assert same(spec.observe(state)[0], x)
        assert same(r, -x * x)


def test_pointmass_episode_length_and_start():
    spec = PointMassSpec()
    x0 = spec.reset(np.random.default_rng(11).random())
    assert -1.0 <= x0 <= 1.0
    traj, _ = rollout(spec, ConstantPolicy([0.0]), seed=11)   # the reset is the episode's first draw
    assert len(traj) == 50
    assert traj.obs[0, 0] == x0 and np.all(traj.obs == x0)


@pytest.mark.parametrize("horizon", [0, -3])
def test_pointmass_horizon_below_one_is_refused(horizon):
    with pytest.raises(ValidationError, match=f"horizon must be >= 1, got {horizon}"):
        rollout(PointMassSpec(horizon=horizon), ConstantPolicy([0.0]), seed=0)
    with pytest.raises(ValidationError, match=f"horizon must be >= 1, got {horizon}"):
        collect_expert_demos(PointMassSpec(horizon=horizon), n=2, alpha=1.0, seed=0)
    assert len(rollout(PointMassSpec(horizon=1), ConstantPolicy([0.0]), seed=0)[0]) == 1


def test_pointmass_rejects_vector_action():
    with pytest.raises(ShapeError):
        PointMassSpec().step_rows(np.zeros(1), np.zeros((1, 2)))


def test_scripted_expert_values():
    acts = ScriptedPointMassPolicy().act(np.array([[0.5], [0.1], [-0.05], [-1.0]]), None, 0)
    np.testing.assert_allclose(acts, [[-1.0], [-0.5], [0.25], [1.0]], rtol=0, atol=1e-15)
    assert acts[0, 0] == -1.0 and acts[3, 0] == 1.0     # clamped exactly


# ---------------------------------------------------------------- env registry

def test_env_by_id():
    assert env_by_id("chain").env_id == "chain"
    assert env_by_id("gridworld").env_id == "gridworld"
    assert env_by_id("pointmass").env_id == "pointmass"
    with pytest.raises(ValidationError, match=r"^unknown environment id 'cartpole' "
                                              r"\(expected chain, gridworld, or pointmass\)$"):
        env_by_id("cartpole")


def test_cli_reads_the_env_registry(capsys):
    from asaf.cli import DEFAULT_DEMO_COUNTS, main

    assert list(ENVS) == ["chain", "gridworld", "pointmass"]
    assert list(DEFAULT_DEMO_COUNTS) == list(ENVS)   # every id has a gen-expert default
    assert main(["gen-expert", "--env", "cartpole", "--out", "x.jsonl"]) == 2
    assert "--env {chain,gridworld,pointmass}" in capsys.readouterr().err


# ---------------------------------------------------------------- rollouts

class ConstantPolicy:
    """Plays one action (a pointmass action is a list of one real); draws nothing."""

    draws = ("random", 0)

    def __init__(self, action):
        self.action = action

    def act(self, obs, noise, t):
        return np.repeat([self.action], len(obs), axis=0)


class Scripted:
    """Plays a fixed action sequence; asking for an action past its end raises."""

    draws = ("random", 0)

    def __init__(self, actions):
        self.actions = list(actions)

    def act(self, obs, noise, t):
        return np.full(len(obs), self.actions[t])


def test_rollout_constant_policy_return():
    # always-right on the chain: rewards 0.4, 0.5, 0.6, 0.7, 0.7
    traj, ret = rollout(chain_spec(), ConstantPolicy(1), seed=0)
    assert ret == pytest.approx(2.9, abs=1e-12)
    assert len(traj) == 5
    np.testing.assert_array_equal(traj.acts, [1, 1, 1, 1, 1])
    np.testing.assert_array_equal(traj.obs[0], one_hot(0, 4))
    np.testing.assert_array_equal(traj.obs[4], one_hot(3, 4))  # obs precede each action


def test_rollout_is_deterministic_in_the_seed():
    spec = chain_spec()
    expert = SoftExpertPolicy(soft_value_iteration(spec.mdp, 1.0))
    t1, r1 = rollout(spec, expert, seed=42)
    t2, r2 = rollout(spec, expert, seed=42)
    np.testing.assert_array_equal(t1.obs, t2.obs)
    np.testing.assert_array_equal(t1.acts, t2.acts)
    assert r1 == r2
    t3, _ = rollout(spec, expert, seed=43)
    assert not (np.array_equal(t1.acts, t3.acts) and np.array_equal(t1.obs, t3.obs))


def test_rollout_gridworld_stops_at_goal():
    expert = SoftExpertPolicy(soft_value_iteration(gridworld_mdp(), 0.05))
    traj, ret = rollout(gridworld_spec(), expert, seed=(1, 2))
    assert len(traj) <= 30
    # a near-greedy expert takes one of the two 8-step corridors
    assert len(traj) == 8 and ret == 2.0


def test_rollout_action_frequencies_match_policy():
    # on the chain the soft expert's right-move probability sits near 0.6
    spec = chain_spec()
    expert = SoftExpertPolicy(soft_value_iteration(spec.mdp, 1.0))
    acts = np.concatenate([rollout(spec, expert, seed=(0, i))[0].acts for i in range(300)])
    freq = acts.mean()
    assert 0.55 < freq < 0.67


def test_tabular_step_refuses_out_of_range_actions_of_either_dtype():
    # only a real array takes the integrality test; an integer array is range-checked alone
    spec = chain_spec()
    for acts in ([0.0, 1.5], [0.0, -1.0], [0.0, 2.0], [0.0, np.nan], [0, -1], [0, 2]):
        with pytest.raises(ValueError, match=rf"action {acts[1]} is not an integer in \[0, 2\)"):
            spec.step_rows(np.array([0, 1]), np.array(acts), np.zeros((2, 1)))
    for acts in ([1.0, 0.0], [1, 0], np.array([1, 0], dtype=np.uint8)):
        assert spec.step_rows(np.array([0, 1]), np.array(acts), np.zeros((2, 1)))[0].tolist() == [1, 0]


def test_tabular_step_refuses_non_integral_actions():
    # 1.7 used to step as action 1 while the trajectory recorded 1.7
    with pytest.raises(ValueError, match=r"action 1.7 is not an integer in \[0, 2\)"):
        rollout(chain_spec(), ConstantPolicy(1.7), seed=0)
    for action in (1.7, np.nan, -0.5, 2):
        with pytest.raises(ValueError, match="is not an integer in"):
            chain_spec().step_rows(np.array([0]), np.array([action]), np.zeros((1, 1)))
    _, ret = rollout(chain_spec(), ConstantPolicy(1.0), seed=0)     # an integral real steps
    assert ret == pytest.approx(2.9, abs=1e-12)


# ---------------------------------------------------------------- lockstep rollouts

def lockstep_case(env, kind, seed):
    spec = {"chain": chain_spec, "random_mdp": random_mdp_spec, "gridworld": gridworld_spec,
            "pointmass": lambda: PointMassSpec(horizon=12)}[env]()
    rng = np.random.default_rng(seed)
    if kind == "learned":
        policy = make_policy(spec, (8, 8), rng)
    elif kind == "asqf":
        policy = AsqfModel.init(spec.obs_dim, spec.n_actions, (8, 8), rng).snapshot()
    else:
        policy = (ScriptedPointMassPolicy() if env == "pointmass"
                  else SoftExpertPolicy(soft_value_iteration(spec.mdp, float(rng.uniform(0.05, 2.0)))))
    return spec, policy


LOCKSTEP_CASES = [(env, kind) for env in ("chain", "random_mdp", "gridworld") for kind in ("learned", "asqf", "expert")]
LOCKSTEP_CASES += [("pointmass", kind) for kind in ("learned", "expert")]


def reference_episode(spec, policy, rng):
    """One episode stepped alone through one-row ``act`` and ``step_rows`` calls,
    each drawing as it goes.  An episode that ends early then draws the rest
    of its full-horizon block, as the lockstep loop does."""
    (kind, n_pol), (_, n_env) = policy.draws, spec.draws
    state, obs, acts, total = spec.reset(rng.random()), [], [], 0.0
    for t in range(spec.horizon):
        obs.append(spec.observe(state))
        acts.append(policy.act(obs[-1][None, :], getattr(rng, kind)((1, n_pol)), t)[0])
        state, reward, terminal = step(spec, state, acts[-1], rng)
        total += reward
        if terminal:
            break
    if len(obs) < spec.horizon:
        getattr(rng, kind)((spec.horizon - len(obs), n_pol + n_env))
    return np.asarray(obs), np.asarray(acts), total


def assert_same_episodes(traj, returns, episodes):
    """``traj`` and ``returns`` hold ``episodes``, (obs, acts, return) triples, bit for bit."""
    assert traj.lengths.tolist() == [len(obs) for obs, _, _ in episodes]
    obs, acts = np.concatenate([e[0] for e in episodes]), np.concatenate([e[1] for e in episodes])
    assert traj.obs.tobytes() == obs.tobytes()
    assert traj.acts.dtype == acts.dtype and traj.acts.shape == acts.shape
    assert traj.acts.tobytes() == acts.tobytes()
    assert returns.tobytes() == np.array([e[2] for e in episodes]).tobytes()


@given(st.sampled_from(LOCKSTEP_CASES), st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_lockstep_equals_episodes_one_at_a_time_on_a_shared_generator(case, seed, k):
    spec, policy = lockstep_case(*case, seed)
    ours, singles, reference = (np.random.default_rng(seed + 1) for _ in range(3))
    traj, returns = rollout(spec, policy, ours, episodes=k)
    assert_same_episodes(traj, returns, [reference_episode(spec, policy, reference) for _ in range(k)])
    one = [rollout(spec, policy, singles) for _ in range(k)]
    assert_same_episodes(traj, returns, [(t.obs, t.acts, r) for t, r in one])
    assert ours.bit_generator.state == singles.bit_generator.state == reference.bit_generator.state


@given(st.sampled_from(LOCKSTEP_CASES), st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_lockstep_on_a_seed_list_equals_one_rollout_per_seed(case, seed, k):
    spec, policy = lockstep_case(*case, seed)
    seeds = [(seed, i) for i in range(k)]
    traj, returns = rollout(spec, policy, seeds, episodes=k)
    one = [rollout(spec, policy, s) for s in seeds]
    assert_same_episodes(traj, returns, [(t.obs, t.acts, r) for t, r in one])
    parts = traj.episodes()
    assert [len(p) for p in parts] == traj.lengths.tolist()
    assert all(p.obs.tobytes() == t.obs.tobytes() and p.acts.tobytes() == t.acts.tobytes()
               for p, (t, _) in zip(parts, one))


@given(st.sampled_from(LOCKSTEP_CASES), st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_lockstep_on_a_generator_list_leaves_each_generator_where_its_episode_does(case, seed, k):
    # each generator of the list draws its episode's numbers in one call (two for
    # a Gaussian learner: a uniform, then normals) and ends where stepping it alone does
    spec, policy = lockstep_case(*case, seed)
    ours, theirs = ([np.random.default_rng((seed, i)) for i in range(k)] for _ in range(2))
    traj, returns = rollout(spec, policy, ours, episodes=k)
    assert_same_episodes(traj, returns, [reference_episode(spec, policy, rng) for rng in theirs])
    assert [rng.bit_generator.state for rng in ours] == [rng.bit_generator.state for rng in theirs]


class SampleOnly:
    """A policy with ``sample`` alone, the protocol that rollout no longer steps."""

    def sample(self, obs, rng):
        return 0


class ActOnly:
    """A policy that acts but does not declare its draws."""

    def act(self, obs, noise, t):
        return np.zeros(len(obs), dtype=np.int64)


@pytest.mark.parametrize("policy", [SampleOnly(), ActOnly()])
def test_rollout_refuses_a_policy_without_draws_and_act(policy):
    # either used to end in an AttributeError, or (sample alone) ran one episode at a time
    want = rf"^{type(policy).__name__} lacks the sampling protocol: draws and act\(obs, noise, t\)$"
    with pytest.raises(UnsupportedError, match=want):
        rollout(chain_spec(), policy, seed=0)
    with pytest.raises(UnsupportedError, match="sampling protocol"):
        rollout(chain_spec(), policy, [0, 1], episodes=2)


def test_rollout_refuses_a_seed_list_of_the_wrong_length():
    spec, policy = lockstep_case("chain", "learned", 0)
    with pytest.raises(ValidationError, match="need one seed per episode, got 2 for 3"):
        rollout(spec, policy, [0, 1], episodes=3)
    with pytest.raises(ValidationError, match="episodes must be >= 1"):
        rollout(spec, policy, 0, episodes=0)


@pytest.mark.parametrize("episodes", [2.5, True, np.float64(2.0)])
def test_rollout_refuses_non_integer_episode_counts(episodes):
    # 2.5 used to die in a bare TypeError inside the loop; True ran one episode
    spec, policy = lockstep_case("chain", "learned", 0)
    with pytest.raises(ValidationError, match="episodes must be an integer"):
        rollout(spec, policy, 0, episodes=episodes)
    assert len(rollout(spec, policy, 0, episodes=np.int64(2))[1]) == 2


def test_soft_expert_log_prob_matches_table():
    # the expert draws action 0 exactly for uniforms below pi(0 | s, t) of the
    # stage's table, and action 1 from there on
    spec = chain_spec()
    table = soft_value_iteration(spec.mdp, 1.0)
    expert = SoftExpertPolicy(table)
    probs = table.policy_table()
    states = np.eye(4)
    for t in (0, 2, 4):
        p0 = probs[t, :, :1]
        assert expert.act(states, np.nextafter(p0, 0.0), t).tolist() == [0] * 4
        assert expert.act(states, p0 * (1 + 1e-12), t).tolist() == [1] * 4
    # stages past the horizon clamp to the final table
    u = np.random.default_rng(0).random((4, 1))
    assert expert.act(states, u, 99).tolist() == expert.act(states, u, 4).tolist()


def test_soft_expert_never_draws_past_the_last_action():
    # at alpha 0.25, 36 of the gridworld expert's 750 (t, s) CDF rows end below 1 - 2**-53
    spec = gridworld_spec()
    table = soft_value_iteration(spec.mdp, 0.25)
    expert, cdf = SoftExpertPolicy(table), np.cumsum(table.policy_table(), axis=2)
    top, states = np.nextafter(1.0, 0.0), np.eye(spec.mdp.n_states)
    assert (cdf[..., -1] < top).sum() == 36
    n_actions, u = spec.mdp.n_actions, np.random.default_rng(0).random((spec.mdp.n_states, 1))
    for t in range(len(cdf)):
        for v in (np.full_like(u, top), cdf[t, :, -1:], u):    # every other draw is the plain count
            got = expert.act(states, v, t)
            assert ((0 <= got) & (got < n_actions)).all()
            np.testing.assert_array_equal(got, np.minimum((cdf[t] <= v).sum(axis=1), n_actions - 1))
        assert (expert.act(states, cdf[t, :, -1:], t) == n_actions - 1).all()   # u at the last entry counts them all


# Probability rows with zeros whose sums sit within 1e-9 of 1, as validate()
# admits them.
prob_rows = st.tuples(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1, max_size=8).filter(lambda w: sum(w) > 0),
    st.floats(-4e-10, 4e-10),
).map(lambda ws: np.asarray(ws[0]) / sum(ws[0]) * (1.0 + ws[1]))


@given(prob_rows, st.integers(0, 2 ** 32 - 1))
def test_cdf_draws_match_generator_choice(row, seed):
    # TabularSpec draws start and next states from precomputed CDFs; each draw
    # must be the index Generator.choice(n, p=row) returns and use up the
    # same random numbers, so collection streams stay as they were
    n = len(row)
    mdp = TabularMdp(transitions=np.tile(row, (n, 2, 1)), start=row, rewards=np.zeros((n, 2)), horizon=20)
    spec = TabularSpec(mdp)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [spec.reset(ours.random())]
    for t in range(20):
        drawn.append(step(spec, drawn[-1], t % 2, ours)[0])
    assert drawn == [int(theirs.choice(n, p=row)) for _ in range(21)]
    assert ours.bit_generator.state == theirs.bit_generator.state


@given(st.integers(0, 2 ** 32 - 1))
def test_pointmass_reset_is_bitwise_generator_uniform(seed):
    # -1 + 2 u rounds once, as uniform(-1, 1) does: the product by 2 is exact
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    x = PointMassSpec().reset(ours.random())
    assert np.float64(x).tobytes() == np.float64(theirs.uniform(-1.0, 1.0)).tobytes()


@given(st.sampled_from(["chain", "random_mdp", "gridworld", "pointmass"]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 12))
def test_reset_of_an_array_of_uniforms_is_the_reset_of_each(env, seed, k):
    spec, _ = lockstep_case(env, "expert", seed)
    u = np.random.default_rng(seed).random(k)
    edges = [0.0, np.nextafter(1.0, 0.0)]
    if isinstance(spec, TabularSpec):   # the CDF's own steps, where the inverse moves on
        edges += [c for c in spec.mdp.start_cdf if c < 1.0]
    u = np.concatenate([u, edges])
    got = spec.reset(u)
    want = np.array([spec.reset(float(x)) for x in u], dtype=got.dtype)
    assert got.shape == u.shape and got.tobytes() == want.tobytes()
