"""Enumeration, occupancy, JS divergence, and the finite-support fixed point."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asaf.envs import EXPERT_ALPHA, TabularMdp, chain_spec, gridworld_spec, soft_value_iteration
from asaf.errors import CapacityError, ShapeError
from asaf.exact import (
    _key_count,
    bce_from_enumeration,
    enumerable,
    exact_traj_distribution,
    expected_return,
    js_between,
    js_bound,
    js_divergence,
    mle_projection,
    occupancy,
    stage_kl,
    stage_marginals,
    unroll,
    verify_lemma1,
)

LOG4 = np.log(4.0)


def toggle_mdp(horizon=2, gamma=1.0):
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[0, 1, 1] = 1.0   # action 1 toggles, action 0 stays
    p[1, 0, 1] = p[1, 1, 0] = 1.0
    return TabularMdp(
        transitions=p,
        start=np.array([1.0, 0.0]),
        rewards=np.array([[0.0, 0.5], [1.0, 0.2]]),
        horizon=horizon,
        gamma=gamma,
    )


ALWAYS_TOGGLE = np.array([[0.0, 1.0], [0.0, 1.0]])
UNIFORM2 = np.full((2, 2), 0.5)


def random_mdp(rng, n_states=3, n_actions=2, horizon=4, gamma=0.9):
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    start = rng.dirichlet(np.ones(n_states))
    r = rng.normal(size=(n_states, n_actions))
    return TabularMdp(transitions=p, start=start, rewards=r, horizon=horizon, gamma=gamma)


def random_policy(rng, n_states, n_actions):
    return rng.dirichlet(np.ones(n_actions), size=n_states)


def factors(mdp, pi, key):
    """The policy-only factor q and the dynamics-only factor xi of a key,
    each multiplied along the key in the enumeration's order."""
    stage_pi = np.broadcast_to(pi, (mdp.horizon, *np.shape(pi)[-2:]))
    q, xi = 1.0, float(mdp.start[key[0]])
    for t in range(len(key) // 2):
        s, a = key[2 * t], key[2 * t + 1]
        q, xi = q * stage_pi[t, s, a], xi * mdp.transitions[s, a, key[2 * t + 2]]
    return q, xi


def with_terminal_states(mdp, terminal):
    """The MDP with the states ``terminal`` made absorbing, zero-reward and terminal."""
    p, r = mdp.transitions.copy(), mdp.rewards.copy()
    for g in terminal:
        p[g], r[g] = 0.0, 0.0
        p[g, :, g] = 1.0
    return TabularMdp(transitions=p, start=mdp.start, rewards=r, horizon=mdp.horizon, gamma=mdp.gamma,
                      terminal=tuple(terminal))


def occupancy_by_enumeration(mdp, pi):
    """Independent oracle: accumulate discounted visitation over every
    enumerated trajectory instead of running the forward DP.  A key holds
    one (state, action) pair per step its episode ran."""
    dist = exact_traj_distribution(mdp, pi)
    w = mdp.gamma ** np.arange(mdp.horizon)
    z = w.sum()
    d_s = np.zeros(mdp.n_states)
    d_sa = np.zeros((mdp.n_states, mdp.n_actions))
    for key, p in dist.items():
        for t in range(len(key) // 2):
            s, a = key[2 * t], key[2 * t + 1]
            d_s[s] += w[t] * p
            d_sa[s, a] += w[t] * p
    return d_s / z, d_sa / z


def reference_traj_distribution(mdp, pi):
    """The recursive form the enumeration had: a depth-first walk over the
    policy's nonzero actions, in action order, and each action's nonzero
    transitions, in state order, with q and xi multiplied in along the way."""
    stage_pi = np.broadcast_to(pi, (mdp.horizon, *np.shape(pi)[-2:]))
    probs = {}

    def descend(t, s, prefix, q, xi):
        if t == mdp.horizon or (t > 0 and mdp.terminal_mask[s]):   # the episode has ended
            probs[prefix + (s,)] = q * xi
            return
        for a in range(mdp.n_actions):
            pa = stage_pi[t, s, a]
            if pa == 0.0:
                continue
            row = mdp.transitions[s, a]
            for s2 in np.flatnonzero(row):
                descend(t + 1, int(s2), prefix + (s, a), q * pa, xi * row[s2])

    for s0 in np.flatnonzero(mdp.start):
        descend(0, int(s0), (), 1.0, float(mdp.start[s0]))
    return probs


def assert_same_enumeration(got, want):
    assert list(got) == list(want)     # the same keys in the same order
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


def enumeration_case(seed, stationary):
    """A random MDP with zeroed transitions, up to S - 1 terminal states and
    zeroed start entries, a start state terminal where there are terminal
    states; and a stationary or stage-indexed table with zeroed entries and
    entries near 1e-170, whose products underflow to 0.0."""
    rng = np.random.default_rng(seed)
    n_states, n_actions = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    p[rng.uniform(size=p.shape) < 0.3] = 0.0
    p[..., 0] += p.sum(axis=2) == 0.0
    terminal = sorted(rng.choice(n_states, size=int(rng.integers(0, n_states)), replace=False).tolist())
    start = rng.dirichlet(np.ones(n_states)) * (rng.uniform(size=n_states) > 0.3)
    start[terminal[0] if terminal else 0] += 0.1
    mdp = with_terminal_states(TabularMdp(transitions=p / p.sum(axis=2, keepdims=True), start=start / start.sum(),
                                          rewards=rng.normal(size=(n_states, n_actions)),
                                          horizon=int(rng.integers(1, 5))), terminal)
    table = rng.dirichlet(np.ones(n_actions), size=(n_states,) if stationary else (mdp.horizon, n_states))
    table[rng.uniform(size=table.shape) < 0.25] = 0.0
    table[rng.uniform(size=table.shape) < 0.25] = 1e-170 * rng.uniform(0.5, 2.0)
    return mdp, table


# ---------------------------------------------------------------- enumeration

def test_enumeration_deterministic_gives_single_key():
    dist = exact_traj_distribution(toggle_mdp(horizon=3), ALWAYS_TOGGLE)
    assert len(dist) == 1
    key, p = next(iter(dist.items()))
    assert key == (0, 1, 1, 1, 0, 1, 1)   # s0 a0 s1 a1 s2 a2 s3
    assert p == 1.0


def test_enumeration_uniform_toggle():
    dist = exact_traj_distribution(toggle_mdp(horizon=2), UNIFORM2)
    assert len(dist) == 4
    for p in dist.values():
        assert p == pytest.approx(0.25, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_prunes_zero_probability_actions():
    dist = exact_traj_distribution(toggle_mdp(horizon=2), ALWAYS_TOGGLE)
    for key in dist:
        assert all(a == 1 for a in key[1::2])


def test_enumeration_factorization_is_exact():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng)
    pi = random_policy(rng, 3, 2)
    for key, p in exact_traj_distribution(mdp, pi).items():
        q, xi = factors(mdp, pi, key)
        assert p == q * xi


@settings(max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_enumeration_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, horizon=int(rng.integers(1, 5)))
    dist = exact_traj_distribution(mdp, random_policy(rng, 3, 2))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)


def test_enumeration_accepts_stage_indexed_policies():
    spec = chain_spec()
    table = soft_value_iteration(spec.mdp, 1.0).policy_table()
    dist = exact_traj_distribution(spec.mdp, table)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ShapeError):
        exact_traj_distribution(spec.mdp, table[:3])  # wrong stage count


def test_enumeration_capacity_guard():
    p = np.ones((1, 2, 1))
    huge = TabularMdp(transitions=p, start=np.array([1.0]), rewards=np.zeros((1, 2)), horizon=24)
    with pytest.raises(CapacityError):
        exact_traj_distribution(huge, np.array([[0.5, 0.5]]))


@settings(max_examples=60)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_enumeration_matches_the_recursive_reference(seed, stationary):
    mdp, table = enumeration_case(seed, stationary)
    assert_same_enumeration(exact_traj_distribution(mdp, table), reference_traj_distribution(mdp, table))


def test_keys_that_underflow_are_kept_by_the_enumeration_and_skipped_by_the_loss():
    # staying in state 0 twice has probability 1e-170 ** 2, which underflows to 0.0; the learner
    # never stays in state 0 at step 1, so that key alone would give log D = -inf
    mdp, tiny = toggle_mdp(horizon=2), np.array([[1e-170, 1.0], [1e-170, 1.0]])
    learner = np.full((2, 2, 2), 0.5)
    learner[1, 0] = (0.0, 1.0)
    dist = exact_traj_distribution(mdp, tiny)
    assert len(dist) == 4 and dist[(0, 0, 0, 0, 0)] == 0.0
    loss = bce_from_enumeration(mdp, learner, UNIFORM2, tiny)
    assert np.isfinite(loss) and loss == pytest.approx(direct_bce(mdp, learner, UNIFORM2, tiny), rel=1e-12)
    assert bce_from_enumeration(mdp, learner, UNIFORM2, np.array([[1e-100, 1.0], [1e-100, 1.0]])) == np.inf


def dense_mdp(n_states, horizon):
    return TabularMdp(transitions=np.full((n_states, 2, n_states), 1.0 / n_states),
                      start=np.full(n_states, 1.0 / n_states), rewards=np.zeros((n_states, 2)), horizon=horizon)


@pytest.mark.parametrize("n_states, horizon", [(9, 5), (10, 6)])
def test_enumeration_budget_counts_keys_not_action_sequences(n_states, horizon):
    # every step also branches on s': (2 * 9)^5 * 9 = 17,006,112 and (2 * 10)^6 * 10 = 640,000,000 keys,
    # where |A|^T * S reads 288 and 640
    mdp, uniform = dense_mdp(n_states, horizon), np.full((n_states, 2), 0.5)
    assert not enumerable(mdp)
    with pytest.raises(CapacityError, match="trajectory keys"):
        exact_traj_distribution(mdp, uniform)
    with pytest.raises(CapacityError, match="trajectory keys"):
        bce_from_enumeration(mdp, uniform, uniform, uniform)


def test_key_counts_of_the_shipped_mdps():
    chain = chain_spec().mdp
    assert _key_count(chain) == _key_count(unroll(chain)) == 32
    assert _key_count(dense_mdp(3, 4)) == 6 ** 4 * 3
    assert not enumerable(gridworld_spec().mdp)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_key_count_is_the_size_of_a_full_support_enumeration(seed):
    mdp, _ = enumeration_case(seed, stationary=True)
    full = np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
    assert _key_count(mdp) == len(exact_traj_distribution(mdp, full))


BAD_TABLES = {"nan": [[np.nan, 0.5], [0.5, 0.5]], "inf": [[np.inf, 0.5], [0.5, 0.5]],
              "negative": [[-0.5, 1.5], [0.5, 0.5]]}
ORACLES = {
    "exact_traj_distribution": lambda mdp, bad, good: exact_traj_distribution(mdp, bad),
    "stage_marginals": lambda mdp, bad, good: stage_marginals(mdp, bad),
    "occupancy": lambda mdp, bad, good: occupancy(mdp, bad),
    "expected_return": lambda mdp, bad, good: expected_return(mdp, bad),
    "mle_projection": lambda mdp, bad, good: mle_projection(mdp, bad),
    "bce_learner": lambda mdp, bad, good: bce_from_enumeration(mdp, bad, good, good),
    "bce_generator": lambda mdp, bad, good: bce_from_enumeration(mdp, good, bad, good),
    "bce_expert": lambda mdp, bad, good: bce_from_enumeration(mdp, good, good, bad),
}


@pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES)
@pytest.mark.parametrize("bad", BAD_TABLES.values(), ids=BAD_TABLES)
def test_every_oracle_refuses_a_table_that_is_not_finite_and_nonnegative(oracle, bad):
    # these used to return nan, NaN rows, a uniform row for a NaN state or a key of "probability" -2.53
    with pytest.raises(ValueError, match="finite and nonnegative"):
        oracle(toggle_mdp(horizon=2), np.array(bad), UNIFORM2)


# ---------------------------------------------------------------- occupancy

def test_stage_marginals_toggle():
    d = stage_marginals(toggle_mdp(horizon=4), ALWAYS_TOGGLE)
    np.testing.assert_allclose(d, [[1, 0], [0, 1], [1, 0], [0, 1]], atol=1e-15)


def test_occupancy_toggle_frozen():
    occ = occupancy(toggle_mdp(horizon=4, gamma=1.0), ALWAYS_TOGGLE)
    np.testing.assert_allclose(occ.d_state, [0.5, 0.5], atol=1e-15)
    assert occ.normalizer == 4.0
    # all mass rides action 1
    np.testing.assert_allclose(occ.d_state_action[:, 0], 0.0, atol=1e-15)


def test_occupancy_discount_weighting():
    occ = occupancy(toggle_mdp(horizon=2, gamma=0.5), ALWAYS_TOGGLE)
    # stages weigh 1 and 0.5: d = (1*[1,0] + 0.5*[0,1]) / 1.5
    np.testing.assert_allclose(occ.d_state, [2 / 3, 1 / 3], atol=1e-15)
    assert occ.normalizer == 1.5


def test_occupancy_factorizes_for_stationary_policies():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng)
    pi = random_policy(rng, 3, 2)
    occ = occupancy(mdp, pi)
    np.testing.assert_allclose(occ.d_state_action, occ.d_state[:, None] * pi, atol=1e-12)
    assert occ.d_state.sum() == pytest.approx(1.0, abs=1e-12)


def test_occupancy_dp_matches_enumeration():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 6))
        gamma = float(rng.choice([1.0, 0.9, 0.5]))
        mdp = random_mdp(rng, horizon=horizon, gamma=gamma)
        pi = random_policy(rng, 3, 2)
        occ = occupancy(mdp, pi)
        d_s, d_sa = occupancy_by_enumeration(mdp, pi)
        np.testing.assert_allclose(occ.d_state, d_s, atol=1e-10)
        np.testing.assert_allclose(occ.d_state_action, d_sa, atol=1e-10)


def test_occupancy_monte_carlo_cross_check():
    from asaf.envs import TabularSpec, rollout

    class TablePolicy:
        action_kind = "discrete"
        draws = ("random", 1)

        def __init__(self, table):
            self.table = table

        def act(self, obs, u, t):
            cdf = np.cumsum(self.table[np.argmax(obs, axis=1)], axis=1)
            return (cdf <= u).sum(axis=1)

    base = chain_spec().mdp
    mdp = TabularMdp(transitions=base.transitions, start=base.start, rewards=base.rewards,
                     horizon=base.horizon, gamma=1.0)
    rng = np.random.default_rng(2)
    pi = random_policy(rng, 4, 2)
    occ = occupancy(mdp, pi)

    spec = TabularSpec(mdp=mdp, env_id="chain")
    counts = np.zeros(4)
    n = 2000
    for i in range(n):
        traj, _ = rollout(spec, TablePolicy(pi), seed=(9, i))
        for row in traj.obs:
            counts[int(np.argmax(row))] += 1.0
    np.testing.assert_allclose(counts / (n * mdp.horizon), occ.d_state, atol=0.02)


def goal_mdp(horizon, leave):
    """Two states; state 1 is a terminal goal.  From state 0, action 0 goes
    to the goal with probability ``leave`` and action 1 always does."""
    p = np.zeros((2, 2, 2))
    p[0, 0] = [1.0 - leave, leave]
    p[0, 1, 1] = p[1, :, 1] = 1.0
    return TabularMdp(transitions=p, start=np.array([1.0, 0.0]), rewards=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      horizon=horizon, terminal=(1,))


@pytest.mark.parametrize("leave, d_state", [
    (0.0, [1.75 / 3, 0.0]),   # half the episodes end at step 1, a quarter run all 3 steps
    (1.0, [1 / 3, 0.0]),      # every episode ends after its first step
])
def test_terminal_state_ends_the_oracles_episodes(leave, d_state):
    # two policies that differ only in the goal emit the same episodes; the
    # oracles used to branch on actions taken in the goal (trajectory JS
    # 0.349 and 0.514) and keep an ended episode's mass there (0.417 and
    # 0.667 of the occupancy)
    mdp = goal_mdp(3, leave)
    pi_a, pi_b = np.array([[0.5, 0.5], [0.9, 0.1]]), np.array([[0.5, 0.5], [0.1, 0.9]])
    dist_a, dist_b = exact_traj_distribution(mdp, pi_a), exact_traj_distribution(mdp, pi_b)
    assert dist_a == dist_b and js_between(dist_a, dist_b) == 0.0
    assert all(key[-1] == 1 or len(key) == 7 for key in dist_a)
    assert sum(dist_a.values()) == pytest.approx(1.0, abs=1e-15)
    for pi in (pi_a, pi_b):
        occ = occupancy(mdp, pi)
        np.testing.assert_allclose(occ.d_state, d_state, atol=1e-15)
        assert occ.normalizer == 3.0   # Z stays sum_t gamma^t, so the total is below 1
        assert expected_return(mdp, pi) == pytest.approx(0.5 + 0.25 + 0.125 if leave == 0.0 else 0.5, abs=1e-15)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_dp_matches_enumeration_with_terminal_states(seed):
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, 5))
    terminal = sorted(rng.choice(n_states, size=int(rng.integers(1, n_states)), replace=False).tolist())
    mdp = with_terminal_states(random_mdp(rng, n_states=n_states, horizon=int(rng.integers(1, 6)),
                                          gamma=float(rng.choice([1.0, 0.9]))), terminal)
    pi = random_policy(rng, n_states, 2)
    dist = exact_traj_distribution(mdp, pi)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(len(key) == 2 * mdp.horizon + 1 or mdp.terminal_mask[key[-1]] for key in dist)
    occ = occupancy(mdp, pi)
    d_s, d_sa = occupancy_by_enumeration(mdp, pi)
    np.testing.assert_allclose(occ.d_state, d_s, atol=1e-12)
    np.testing.assert_allclose(occ.d_state_action, d_sa, atol=1e-12)
    assert not stage_marginals(mdp, pi)[1:, terminal].any()
    total = sum(p * sum(mdp.rewards[key[2 * t], key[2 * t + 1]] for t in range(len(key) // 2))
                for key, p in dist.items())
    assert expected_return(mdp, pi) == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------- stage-wise KL and the projection

def random_case(seed, terminals, stationary):
    """A random MDP, with terminal states (a start state among them, since
    every state has start mass) or none, and two strictly positive policy
    tables, stationary or stage-indexed."""
    rng = np.random.default_rng(seed)
    n_states, n_actions = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    mdp = random_mdp(rng, n_states=n_states, n_actions=n_actions, horizon=int(rng.integers(1, 5)))
    if terminals:
        mdp = with_terminal_states(mdp, sorted(rng.choice(n_states, size=int(rng.integers(1, n_states)),
                                                          replace=False).tolist()))
    shape = (n_states,) if stationary else (mdp.horizon, n_states)
    return rng, mdp, *(rng.dirichlet(np.ones(n_actions), size=shape) for _ in range(2))


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans())
def test_stage_kl_matches_enumeration_and_bounds_js(seed, terminals, stationary):
    _, mdp, p_pi, q_pi = random_case(seed, terminals, stationary)
    dist_p, dist_q = exact_traj_distribution(mdp, p_pi), exact_traj_distribution(mdp, q_pi)
    for (a, b), (da, db) in [((p_pi, q_pi), (dist_p, dist_q)), ((q_pi, p_pi), (dist_q, dist_p))]:
        enumerated = sum(w * np.log(w / db[key]) for key, w in da.items())
        assert stage_kl(mdp, a, b) == pytest.approx(enumerated, rel=1e-9, abs=1e-14)
    assert stage_kl(mdp, p_pi, p_pi) == 0.0
    assert js_between(dist_p, dist_q) <= js_bound(mdp, p_pi, q_pi)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans())
def test_mle_projection_is_the_closest_stationary_table(seed, terminals, stationary):
    rng, mdp, pi, _ = random_case(seed, terminals, stationary)
    proj = mle_projection(mdp, pi)
    np.testing.assert_allclose(proj.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    floor = stage_kl(mdp, pi, proj)
    if stationary:
        assert floor < 1e-12
    for _ in range(5):
        nearby = proj * np.exp(0.01 * rng.normal(size=proj.shape))
        for table in (rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states), nearby / nearby.sum(axis=1)[:, None]):
            assert floor <= stage_kl(mdp, pi, table) + 1e-15


def test_mle_projection_is_uniform_where_no_episode_runs():
    # from state 0, one step never reaches state 1; a goal entered at step 1 holds no running episode
    np.testing.assert_array_equal(mle_projection(toggle_mdp(horizon=1), [[0.2, 0.8], [0.9, 0.1]]),
                                  [[0.2, 0.8], [0.5, 0.5]])
    np.testing.assert_array_equal(mle_projection(goal_mdp(3, 1.0), [[0.2, 0.8], [0.9, 0.1]]),
                                  [[0.2, 0.8], [0.5, 0.5]])


def test_chain_floor_and_its_js_bound():
    # the soft-VI chain expert is stage-indexed, so a stationary learner stays this far from it
    mdp = chain_spec().mdp
    expert = soft_value_iteration(mdp, 1.0).policy_table()
    proj = mle_projection(mdp, expert)
    floor = stage_kl(mdp, expert, proj)
    js = js_between(exact_traj_distribution(mdp, expert), exact_traj_distribution(mdp, proj))
    bound = js_bound(mdp, expert, proj)
    assert (floor, js, bound) == pytest.approx((2.7843e-4, 6.9617e-5, 1.3924e-4), rel=1e-4)
    assert js <= bound


def test_stage_kl_refuses_tables_that_are_not_finite_or_do_not_fit():
    mdp, good = toggle_mdp(horizon=2), np.full((2, 2), 0.5)
    for bad in ([[np.nan, 0.5], [0.5, 0.5]], [[np.inf, 0.5], [0.5, 0.5]], [[-0.5, 1.5], [0.5, 0.5]]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stage_kl(mdp, bad, good)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            stage_kl(mdp, good, bad)
    with pytest.raises(ShapeError):
        stage_kl(mdp, good, np.full((3, 2), 0.5))
    assert stage_kl(mdp, good, [[1.0, 0.0], [0.5, 0.5]]) == np.inf   # Q never takes an action P takes


# ---------------------------------------------------------------- the unrolled MDP

def unrolled_table(pi):
    """A stage-indexed (T, S, A) table as a stationary table of the unrolled
    MDP: stage t's rows, then uniform rows for stage T, where no action is taken."""
    t_max, n_states, n_actions = pi.shape
    return np.concatenate([pi.reshape(t_max * n_states, n_actions), np.full((n_states, n_actions), 1.0 / n_actions)])


def folded(dist, n_states):
    """An enumerated distribution of the unrolled MDP keyed by the original
    MDP's states: each state id of a key read modulo S."""
    return {tuple(x if i % 2 else x % n_states for i, x in enumerate(key)): p for key, p in dist.items()}


def test_unrolled_mdp_is_stage_by_state():
    mdp = with_terminal_states(random_mdp(np.random.default_rng(0), n_states=3, horizon=2), [1])
    u = unroll(mdp)
    assert (u.n_states, u.n_actions, u.horizon, u.gamma) == (9, 2, 2, 0.9)
    assert u.terminal == (1, 4, 7)
    np.testing.assert_array_equal(u.start, np.concatenate([mdp.start, np.zeros(6)]))
    np.testing.assert_array_equal(u.transitions[[3, 5], :, 6:], mdp.transitions[[0, 2]])   # stage 1 to stage 2
    np.testing.assert_array_equal(u.rewards[[3, 5]], mdp.rewards[[0, 2]])
    for absorbing in (1, 4, 6, 7, 8):
        np.testing.assert_array_equal(u.transitions[absorbing, :, absorbing], 1.0)
        np.testing.assert_array_equal(u.rewards[absorbing], 0.0)


def test_unrolled_chain_expert_has_the_chain_trajectory_distribution():
    mdp = chain_spec().mdp
    expert = soft_value_iteration(mdp, EXPERT_ALPHA).policy_table()
    unrolled = exact_traj_distribution(unroll(mdp), unrolled_table(expert))
    assert folded(unrolled, mdp.n_states) == exact_traj_distribution(mdp, expert)


@pytest.mark.parametrize("unrolled", [False, True])
def test_chain_enumeration_matches_the_recursive_reference(unrolled):
    mdp = chain_spec().mdp
    expert = soft_value_iteration(mdp, EXPERT_ALPHA).policy_table()
    mdp, table = (unroll(mdp), unrolled_table(expert)) if unrolled else (mdp, expert)
    assert_same_enumeration(exact_traj_distribution(mdp, table), reference_traj_distribution(mdp, table))


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_unrolled_stage_table_has_the_trajectory_distribution_with_terminal_states(seed):
    _, mdp, pi, _ = random_case(seed, terminals=True, stationary=False)
    unrolled = exact_traj_distribution(unroll(mdp), unrolled_table(pi))
    assert folded(unrolled, mdp.n_states) == exact_traj_distribution(mdp, pi)


@pytest.mark.parametrize("spec, floor", [(chain_spec, 2.7843e-4), (gridworld_spec, 5.919e-9)])
def test_unrolled_projection_is_the_stage_expert_and_its_floor_is_zero(spec, floor):
    mdp = spec().mdp
    expert = soft_value_iteration(mdp, EXPERT_ALPHA).policy_table()
    u, table = unroll(mdp), unrolled_table(expert)
    proj = mle_projection(u, table)
    visited = stage_marginals(u, table).sum(axis=0) > 0.0
    np.testing.assert_allclose(proj[visited], table[visited], rtol=0, atol=1e-15)
    assert stage_kl(u, table, proj) == 0.0
    assert stage_kl(mdp, expert, mle_projection(mdp, expert)) == pytest.approx(floor, rel=1e-3)


# ---------------------------------------------------------------- returns

def test_expected_return_hand_values():
    mdp = toggle_mdp(horizon=3, gamma=0.9)
    # deterministic path: r(0,1)=0.5, r(1,1)=0.2, r(0,1)=0.5
    assert expected_return(mdp, ALWAYS_TOGGLE) == pytest.approx(1.2, abs=1e-12)   # gamma is not applied


def test_expected_return_matches_enumeration():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, horizon=3)
    pi = random_policy(rng, 3, 2)
    dist = exact_traj_distribution(mdp, pi)
    total = 0.0
    for key, p in dist.items():
        total += p * sum(mdp.rewards[key[2 * t], key[2 * t + 1]] for t in range(3))
    assert expected_return(mdp, pi) == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------- JS divergence

def test_js_examples():
    assert js_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.log(2.0), abs=1e-15)
    want = 0.5 * (0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)) + 0.5 * np.log(1.0 / 0.75)
    assert js_divergence([0.5, 0.5], [1.0, 0.0]) == pytest.approx(want, abs=1e-15)


def test_js_rejects_bad_input():
    with pytest.raises(ShapeError):
        js_divergence([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        js_divergence([0.5, 0.5], [0.8, 0.1])
    with pytest.raises(ValueError):
        js_divergence([-0.5, 1.5], [0.5, 0.5])
    # NaN passes the sign and sum checks and max(0.0, nan) is 0.0: it used to read as identical inputs
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [np.nan, 0.5, 0.5], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            js_divergence(bad, np.full(len(bad), 1.0 / len(bad)))
        with pytest.raises(ValueError, match="finite"):
            js_divergence(np.full(len(bad), 1.0 / len(bad)), bad)


@given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
       st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6))
@example([1.0, 1.0], [1.0, 0.9999999999999999])     # rounded to -2.8e-17 before the clamp
def test_js_symmetric_and_bounded(ws_p, ws_q):
    n = min(len(ws_p), len(ws_q))
    p = np.array(ws_p[:n]) / np.sum(ws_p[:n])
    q = np.array(ws_q[:n]) / np.sum(ws_q[:n])
    js = js_divergence(p, q)
    assert 0.0 <= js <= np.log(2.0) + 1e-12
    assert js == pytest.approx(js_divergence(q, p), abs=1e-12)


def test_js_between_trajectory_distributions():
    mdp = toggle_mdp(horizon=2)
    uniform = exact_traj_distribution(mdp, UNIFORM2)
    skew = exact_traj_distribution(mdp, np.array([[0.9, 0.1], [0.9, 0.1]]))
    assert js_between(uniform, uniform) == 0.0
    assert 0.0 < js_between(uniform, skew) < np.log(2.0)


# ---------------------------------------------------------------- fixed point

def test_lemma1_recovers_expert_distribution():
    gap = verify_lemma1([0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3])
    assert gap < 1e-2


def test_lemma1_is_generator_independent():
    for p_g in ([0.1, 0.2, 0.7], [0.5, 0.25, 0.25]):
        assert verify_lemma1([0.7, 0.2, 0.1], p_g) < 1e-2


def test_lemma1_rejects_bad_distributions():
    with pytest.raises(ValueError):
        verify_lemma1([0.7, 0.3, 0.0], [0.5, 0.25, 0.25])
    with pytest.raises(ShapeError):
        verify_lemma1([0.5, 0.5], [0.25, 0.25, 0.5])


# ---------------------------------------------------------------- exact bce

def test_bce_enumeration_fixed_point_is_log4():
    mdp = toggle_mdp(horizon=3)
    expert = soft_value_iteration(mdp, 1.0).policy_table()
    pi = np.array([[0.4, 0.6], [0.7, 0.3]])
    assert bce_from_enumeration(mdp, pi, pi, expert) == pytest.approx(LOG4, abs=1e-12)


def test_bce_enumeration_identity_with_js():
    # learner fixed at the expert: loss = log4 - 2 JS(expert, generator)
    mdp = toggle_mdp(horizon=3)
    expert = soft_value_iteration(mdp, 1.0).policy_table()
    for gen in (UNIFORM2, np.array([[0.8, 0.2], [0.3, 0.7]])):
        loss = bce_from_enumeration(mdp, expert, gen, expert)
        js = js_between(exact_traj_distribution(mdp, expert), exact_traj_distribution(mdp, gen))
        assert loss == pytest.approx(LOG4 - 2.0 * js, abs=1e-8)


def test_bce_enumeration_expert_is_the_minimizer():
    rng = np.random.default_rng(4)
    mdp = toggle_mdp(horizon=3)
    expert = soft_value_iteration(mdp, 1.0).policy_table()
    gen = np.array([[0.6, 0.4], [0.5, 0.5]])
    at_expert = bce_from_enumeration(mdp, expert, gen, expert)
    for _ in range(5):
        other = random_policy(rng, 2, 2)
        assert at_expert <= bce_from_enumeration(mdp, other, gen, expert) + 1e-12


def reference_bce_from_enumeration(mdp, learner_pi, generator_pi, expert_pi):
    """The form ``bce_from_enumeration`` had with the learner enumerated too,
    which looked each key's factors up in the enumerations and so needed
    every table strictly positive on the keys the loss runs over."""
    loss = 0.0
    for side, scored in ((expert_pi, learner_pi), (generator_pi, generator_pi)):
        for key, p in exact_traj_distribution(mdp, side).items():
            if p == 0.0:
                continue
            a, g = (np.log(factors(mdp, pi, key)[0]) for pi in (learner_pi, generator_pi))
            loss -= p * (np.log(factors(mdp, scored, key)[0]) - np.logaddexp(a, g))
    return float(loss)


def direct_bce(mdp, learner_pi, generator_pi, expert_pi):
    """-P_E log D - P_G log(1 - D) summed key by key, D = q_L / (q_L + q_G)
    with q a plain product along the key, and +inf for a learner zero on an
    expert key."""
    d_e, d_g = exact_traj_distribution(mdp, expert_pi), exact_traj_distribution(mdp, generator_pi)
    tables = [np.broadcast_to(pi, (mdp.horizon, *np.shape(pi)[-2:])) for pi in (learner_pi, generator_pi)]
    total = 0.0
    for key in set(d_e) | set(d_g):
        q_l, q_g = (np.prod([tab[t, key[2 * t], key[2 * t + 1]] for t in range(len(key) // 2)]) for tab in tables)
        p_e, p_g = d_e.get(key, 0.0), d_g.get(key, 0.0)
        if p_e > 0.0:
            total += np.inf if q_l == 0.0 else -p_e * np.log(q_l / (q_l + q_g))
        if p_g > 0.0:
            total -= p_g * np.log(q_g / (q_l + q_g))
    return total


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans())
def test_bce_enumeration_keeps_the_bits_of_the_learner_enumeration(seed, terminals, stationary):
    rng, mdp, learner, generator = random_case(seed, terminals, stationary)
    expert = rng.dirichlet(np.ones(mdp.n_actions), size=np.shape(learner)[:-1])
    got = bce_from_enumeration(mdp, learner, generator, expert)
    assert np.isfinite(got) and got == reference_bce_from_enumeration(mdp, learner, generator, expert)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.booleans())
def test_bce_enumeration_with_zero_probability_actions(seed, terminals, stationary):
    rng, mdp, learner, generator = random_case(seed, terminals, stationary)
    expert = rng.dirichlet(np.ones(mdp.n_actions), size=np.shape(learner)[:-1])
    zeroed = []
    for table in (learner, generator, expert):
        drop = rng.uniform(size=table.shape) < 0.3
        drop[..., rng.integers(mdp.n_actions)] = False          # every row keeps an action
        zeroed.append(np.where(drop, 0.0, table) / np.where(drop, 0.0, table).sum(axis=-1, keepdims=True))
    got, want = bce_from_enumeration(mdp, *zeroed), direct_bce(mdp, *zeroed)
    assert got == want if np.isinf(want) else got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_bce_enumeration_of_disjoint_supports_is_zero():
    # the expert and the learner always take action 0 and the generator always action 1, so each
    # key's other side is 0 and every term is 0: the loss is +0.0, a sum from 0.0 with no terms
    mdp = chain_spec().mdp
    first, second = np.tile([1.0, 0.0], (4, 1)), np.tile([0.0, 1.0], (4, 1))
    loss = bce_from_enumeration(mdp, first, second, first)
    assert loss == 0.0 and np.copysign(1.0, loss) == 1.0


def test_bce_enumeration_rules_for_zero_probability_actions():
    # uniform expert and learner on chain, and a generator that never takes
    # action 1 in state 0: expert keys it gives 0 are 0 terms; the same zero
    # in the learner gives expert keys log D = -inf
    mdp = chain_spec().mdp
    uniform, never = np.full((4, 2), 0.5), np.full((4, 2), 0.5)
    never[0] = (1.0, 0.0)
    loss = bce_from_enumeration(mdp, uniform, never, uniform)
    assert np.isfinite(loss) and loss == pytest.approx(direct_bce(mdp, uniform, never, uniform), rel=1e-12)
    assert bce_from_enumeration(mdp, never, uniform, uniform) == np.inf
    assert bce_from_enumeration(mdp, never, never, uniform) == np.inf


def off_support_case(seed, terminal):
    """A random MDP whose last state s_off holds no start mass and is entered
    only through the last action, with probability at least 0.2; an expert
    that never takes that action, so it never visits s_off; a generator that
    takes every action with probability above 0.09, so it visits s_off from
    step 1 on; and a learner equal to the generator except at s_off, every
    entry above 0.09.  With ``terminal``, state 0 is terminal and holds no
    start mass either."""
    rng = np.random.default_rng(seed)
    n_states, n_actions = int(rng.integers(3, 5)), int(rng.integers(2, 4))
    off, sneak = n_states - 1, n_actions - 1
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    p[:, :sneak, off] = 0.0
    p[:, sneak] *= 0.8
    p[:, sneak, off] += 0.2
    start = np.zeros(n_states)
    start[int(terminal):off] = rng.dirichlet(np.ones(off - int(terminal)))
    mdp = TabularMdp(transitions=p / p.sum(axis=2, keepdims=True), start=start,
                     rewards=rng.normal(size=(n_states, n_actions)), horizon=int(rng.integers(2, 5)))
    if terminal:
        mdp = with_terminal_states(mdp, [0])
    expert = np.zeros((n_states, n_actions))
    expert[:, :sneak] = rng.dirichlet(np.ones(sneak), size=n_states)
    weights = rng.uniform(1.0, 5.0, size=(n_states + 1, n_actions))
    generator = weights[:n_states] / weights[:n_states].sum(axis=1, keepdims=True)
    learner = generator.copy()
    learner[off] = weights[n_states] / weights[n_states].sum()
    return mdp, off, expert, generator, learner


@settings(max_examples=100)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_the_generator_maximises_the_loss_off_the_expert_support(seed, terminal):
    # At a state the expert never visits only the generator term is left,
    # E_G[log(2 q_G / (q_G + q))] <= log 2 by Jensen, with equality at q = q_G:
    # there the generator is the loss's maximum, not its minimum.
    mdp, off, expert, generator, learner = off_support_case(seed, terminal)
    assume(np.abs(learner[off] - generator[off]).sum() >= 0.1)
    assert not stage_marginals(mdp, expert)[:, off].any()
    assert stage_marginals(mdp, generator)[1:, off].sum() > 0.0
    assert bce_from_enumeration(mdp, generator, generator, expert) == pytest.approx(LOG4, rel=0, abs=1e-12)
    assert bce_from_enumeration(mdp, learner, generator, expert) < LOG4 - 1e-12
