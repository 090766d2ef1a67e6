"""Enumeration, occupancy, JS divergence, and the finite-support fixed point."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asaf.envs import TabularMdp, chain_spec, soft_value_iteration
from asaf.errors import CapacityError, ShapeError
from asaf.exact import (
    bce_from_enumeration,
    exact_traj_distribution,
    expected_return,
    js_between,
    js_divergence,
    occupancy,
    stage_marginals,
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


def occupancy_by_enumeration(mdp, pi):
    """Independent oracle: accumulate discounted visitation over every
    enumerated trajectory instead of running the forward DP."""
    dist = exact_traj_distribution(mdp, pi)
    w = mdp.gamma ** np.arange(mdp.horizon)
    z = w.sum()
    d_s = np.zeros(mdp.n_states)
    d_sa = np.zeros((mdp.n_states, mdp.n_actions))
    for key, p in dist.probs.items():
        for t in range(mdp.horizon):
            s, a = key[2 * t], key[2 * t + 1]
            d_s[s] += w[t] * p
            d_sa[s, a] += w[t] * p
    return d_s / z, d_sa / z


# ---------------------------------------------------------------- enumeration

def test_enumeration_deterministic_gives_single_key():
    dist = exact_traj_distribution(toggle_mdp(horizon=3), ALWAYS_TOGGLE)
    assert len(dist.probs) == 1
    key, p = next(iter(dist.probs.items()))
    assert key == (0, 1, 1, 1, 0, 1, 1)   # s0 a0 s1 a1 s2 a2 s3
    assert p == 1.0


def test_enumeration_uniform_toggle():
    dist = exact_traj_distribution(toggle_mdp(horizon=2), UNIFORM2)
    assert len(dist.probs) == 4
    for p in dist.probs.values():
        assert p == pytest.approx(0.25, abs=1e-15)
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_prunes_zero_probability_actions():
    dist = exact_traj_distribution(toggle_mdp(horizon=2), ALWAYS_TOGGLE)
    for key in dist.probs:
        assert all(a == 1 for a in key[1::2])


def test_enumeration_factorization_is_exact():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng)
    dist = exact_traj_distribution(mdp, random_policy(rng, 3, 2))
    for key, p in dist.probs.items():
        assert p == dist.policy_factors[key] * dist.dynamics_factors[key]


@settings(max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_enumeration_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, horizon=int(rng.integers(1, 5)))
    dist = exact_traj_distribution(mdp, random_policy(rng, 3, 2))
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-8)


def test_enumeration_accepts_stage_indexed_policies():
    spec = chain_spec()
    table = soft_value_iteration(spec.mdp, 1.0).policy_table()
    dist = exact_traj_distribution(spec.mdp, table)
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ShapeError):
        exact_traj_distribution(spec.mdp, table[:3])  # wrong stage count


def test_enumeration_capacity_guard():
    p = np.ones((1, 2, 1))
    huge = TabularMdp(transitions=p, start=np.array([1.0]), rewards=np.zeros((1, 2)), horizon=24)
    with pytest.raises(CapacityError):
        exact_traj_distribution(huge, np.array([[0.5, 0.5]]))


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


# ---------------------------------------------------------------- returns

def test_expected_return_hand_values():
    mdp = toggle_mdp(horizon=3, gamma=0.9)
    # deterministic path: r(0,1)=0.5, r(1,1)=0.2, r(0,1)=0.5
    assert expected_return(mdp, ALWAYS_TOGGLE) == pytest.approx(1.2, abs=1e-12)
    want = 0.5 + 0.9 * 0.2 + 0.81 * 0.5
    assert expected_return(mdp, ALWAYS_TOGGLE, discounted=True) == pytest.approx(want, abs=1e-12)


def test_expected_return_matches_enumeration():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, horizon=3)
    pi = random_policy(rng, 3, 2)
    dist = exact_traj_distribution(mdp, pi)
    total = 0.0
    for key, p in dist.probs.items():
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
    gap = verify_lemma1([0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3], steps=5000, lr=0.1)
    assert gap < 1e-2


def test_lemma1_is_generator_independent():
    for p_g in ([0.1, 0.2, 0.7], [0.5, 0.25, 0.25]):
        assert verify_lemma1([0.7, 0.2, 0.1], p_g, steps=5000, lr=0.1) < 1e-2


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
