"""Categorical and diagonal-Gaussian policy heads."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asaf.envs import chain_spec, one_hot, pointmass_spec
from asaf.errors import ShapeError
from asaf.nn import Mlp, grad_check
from asaf.policies import (
    CategoricalPolicy,
    GaussianPolicy,
    LOG_STD_MAX,
    LOG_STD_MIN,
    make_policy,
    tabular_policy_extract,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def bias_only_categorical(biases):
    """One-layer policy on a 1-dim observation with zero weights: the output
    scores are exactly ``biases`` regardless of the observation."""
    biases = np.asarray(biases, dtype=np.float64)
    params = np.concatenate([np.zeros(len(biases)), biases])
    return CategoricalPolicy(Mlp((1, len(biases)), params))


def bias_only_gaussian(mean, log_std):
    params = np.array([0.0, 0.0, float(mean), float(log_std)])
    return GaussianPolicy(Mlp((1, 2), params))


OBS1 = np.zeros(1)


# ---------------------------------------------------------------- categorical

def test_categorical_zero_net_is_uniform():
    policy = CategoricalPolicy(Mlp((3, 4)))
    lp = policy.log_probs(np.zeros(3))
    np.testing.assert_allclose(lp, -np.log(4.0), atol=1e-15)


def test_categorical_log_prob_examples():
    policy = bias_only_categorical(np.log([0.2, 0.3, 0.5]))
    assert policy.log_prob(OBS1, 0) == pytest.approx(np.log(0.2), abs=1e-12)
    assert policy.log_prob(OBS1, 2) == pytest.approx(np.log(0.5), abs=1e-12)
    with pytest.raises(ValueError):
        policy.log_prob(OBS1, 3)
    with pytest.raises(ValueError):
        policy.log_prob(OBS1, -1)


def test_categorical_batch_matches_scalar():
    rng = np.random.default_rng(0)
    policy = CategoricalPolicy(Mlp.init((3, 8, 2), rng))
    obs = rng.normal(size=(5, 3))
    acts = rng.integers(0, 2, size=5)
    batch = policy.log_prob_batch(obs, acts)
    for i in range(5):
        assert batch[i] == pytest.approx(policy.log_prob(obs[i], acts[i]), abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
def test_categorical_normalization(seed):
    rng = np.random.default_rng(seed)
    policy = CategoricalPolicy(Mlp.init((2, 6, 3), rng))
    obs = rng.normal(size=(4, 2)) * 3.0
    lp = policy.log_probs(obs)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)


def test_categorical_sampling_frequencies():
    policy = bias_only_categorical(np.log([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(123)
    counts = np.bincount([policy.sample(OBS1, rng) for _ in range(4000)], minlength=3)
    np.testing.assert_allclose(counts / 4000.0, [0.2, 0.3, 0.5], atol=0.03)


def test_categorical_sampling_degenerate_distribution():
    policy = bias_only_categorical([100.0, 0.0])
    rng = np.random.default_rng(7)
    assert all(policy.sample(OBS1, rng) == 0 for _ in range(100))


def test_categorical_sampling_deterministic_in_rng():
    rng = np.random.default_rng(11)
    policy = CategoricalPolicy(Mlp.init((2, 3), rng))
    obs = np.array([0.5, -0.5])
    a = [policy.sample(obs, np.random.default_rng(5)) for _ in range(3)]
    assert a[0] == a[1] == a[2]


def reference_sample(policy, obs, rng):
    """``CategoricalPolicy.sample`` as it was before its CDFs were memoised."""
    p = np.exp(policy.log_probs(obs))
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))


def test_memoised_sample_matches_uncached_draws():
    rng = np.random.default_rng(5)
    policy = CategoricalPolicy.init(4, 3, (16, 16), rng)
    fresh = CategoricalPolicy(Mlp(policy.net.sizes, policy.net.params))
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for s in rng.integers(0, 4, size=400):
        assert policy.sample(one_hot(s, 4), ours) == reference_sample(fresh, one_hot(s, 4), theirs)
    assert len(policy._cdfs) == 4
    assert ours.bit_generator.state == theirs.bit_generator.state

    # observations that are not one-hot are drawn the same way, and never
    # grow the memo past one entry per input dimension
    other = CategoricalPolicy(Mlp(policy.net.sizes, policy.net.params))
    for x in rng.normal(size=(50, 4)):
        assert other.sample(x, ours) == reference_sample(fresh, x, theirs)
        assert len(other._cdfs) <= 4
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_params_are_read_only_and_the_setter_refreshes_the_memo():
    policy = CategoricalPolicy(Mlp((4, 3)))    # zero net: uniform over 3 actions
    obs = one_hot(2, 4)
    rng = np.random.default_rng(0)
    assert {policy.sample(obs, rng) for _ in range(60)} == {0, 1, 2}
    with pytest.raises(ValueError, match="read-only"):
        policy.net.params[:] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        policy.net.weights(0)[0, 0] = 1.0
    assert not np.any(policy.net.params)

    params = np.zeros(policy.net.n_params)
    params[-3:] = [-50.0, -50.0, 50.0]         # biases: action 2 almost surely
    policy.net.params = params
    np.testing.assert_array_equal(policy.net.params, params)
    assert {policy.sample(obs, rng) for _ in range(60)} == {2}
    np.testing.assert_array_equal(policy._cdfs[obs.tobytes()], CategoricalPolicy(Mlp((4, 3), params)).cdf(obs))


def test_categorical_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(6, 3))
    acts = rng.integers(0, 2, size=6)
    weights = rng.normal(size=6)
    policy = CategoricalPolicy(Mlp((3, 8, 2)))

    def f(theta):
        policy.net.params = theta
        lp, cache = policy.log_prob_tape(obs, acts)
        return float(weights @ lp), policy.backprop_log_prob(cache, weights)

    assert grad_check(f, Mlp.init((3, 8, 2), rng).params) < 1e-4


def test_categorical_backprop_weight_shape_checked():
    policy = CategoricalPolicy(Mlp((2, 2)))
    _, cache = policy.log_prob_tape(np.zeros((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        policy.backprop_log_prob(cache, np.ones(4))


def test_categorical_snapshot_is_frozen():
    rng = np.random.default_rng(4)
    policy = CategoricalPolicy(Mlp.init((2, 4, 2), rng))
    frozen = policy.snapshot()
    before = frozen.log_probs(np.ones(2)).copy()
    policy.net.params = policy.net.params + 1.0
    np.testing.assert_array_equal(frozen.log_probs(np.ones(2)), before)
    assert not np.allclose(policy.log_probs(np.ones(2)), before)


# ---------------------------------------------------------------- gaussian

def test_gaussian_standard_normal_log_prob():
    policy = GaussianPolicy(Mlp((3, 2)))  # mean 0, log-std 0
    assert policy.log_prob(np.zeros(3), [0.0]) == pytest.approx(-HALF_LOG_2PI, abs=1e-15)
    assert policy.log_prob(np.zeros(3), [1.0]) == pytest.approx(-0.5 - HALF_LOG_2PI, abs=1e-15)


def test_gaussian_log_prob_hand_value():
    policy = bias_only_gaussian(mean=1.0, log_std=np.log(2.0))
    want = -0.5 * 0.25 - np.log(2.0) - HALF_LOG_2PI  # z = (2 - 1)/2
    assert policy.log_prob(OBS1, [2.0]) == pytest.approx(want, abs=1e-12)


def test_gaussian_multidim_log_prob_sums_over_dims():
    rng = np.random.default_rng(5)
    policy = GaussianPolicy(Mlp.init((2, 6, 4), rng))  # act_dim 2
    obs = rng.normal(size=(3, 2))
    acts = rng.normal(size=(3, 2))
    mean, std = policy.mean_std(obs)
    z = (acts - mean) / std
    want = np.sum(-0.5 * z * z - np.log(std) - HALF_LOG_2PI, axis=1)
    np.testing.assert_allclose(policy.log_prob_batch(obs, acts), want, atol=1e-12)


def test_gaussian_log_std_clamps():
    wide = bias_only_gaussian(0.0, 10.0)
    _, std = wide.mean_std(OBS1)
    assert std[0] == pytest.approx(np.exp(LOG_STD_MAX), abs=1e-12)
    narrow = bias_only_gaussian(0.0, -10.0)
    _, std = narrow.mean_std(OBS1)
    assert std[0] == pytest.approx(np.exp(LOG_STD_MIN), abs=1e-15)


def test_gaussian_saturated_log_std_gets_zero_grad():
    policy = bias_only_gaussian(0.0, 10.0)
    _, cache = policy.log_prob_tape(OBS1[None, :], np.array([[0.5]]))
    grad = policy.backprop_log_prob(cache, np.ones(1))
    # layout: [w_mean, w_logstd, b_mean, b_logstd]
    assert grad[3] == 0.0
    assert grad[2] != 0.0


def test_gaussian_density_integrates_to_one():
    policy = bias_only_gaussian(mean=0.7, log_std=np.log(0.4))
    mean, std = policy.mean_std(OBS1)
    grid = np.linspace(mean[0] - 8 * std[0], mean[0] + 8 * std[0], 4001)
    dens = np.array([np.exp(policy.log_prob(OBS1, [a])) for a in grid])
    integral = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_gaussian_sample_statistics():
    policy = bias_only_gaussian(mean=1.0, log_std=np.log(2.0))
    rng = np.random.default_rng(17)
    draws = np.array([policy.sample(OBS1, rng)[0] for _ in range(4000)])
    assert draws.mean() == pytest.approx(1.0, abs=4 * 2.0 / np.sqrt(4000))
    assert draws.std() == pytest.approx(2.0, abs=0.15)


def test_gaussian_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    obs = rng.normal(size=(5, 2))
    acts = rng.normal(size=(5, 1))
    weights = rng.normal(size=5)
    policy = GaussianPolicy(Mlp((2, 6, 2)))

    def f(theta):
        policy.net.params = theta
        lp, cache = policy.log_prob_tape(obs, acts)
        return float(weights @ lp), policy.backprop_log_prob(cache, weights)

    assert grad_check(f, Mlp.init((2, 6, 2), rng).params) < 1e-4


def test_gaussian_shape_errors():
    policy = GaussianPolicy(Mlp((2, 2)))
    with pytest.raises(ShapeError):
        policy.log_prob_batch(np.zeros((3, 2)), np.zeros((3, 2)))  # act_dim is 1
    with pytest.raises(ShapeError):
        policy.log_prob_tape(np.zeros(2), np.zeros((1, 1)))        # obs must be 2-D
    with pytest.raises(ShapeError):
        GaussianPolicy(Mlp((2, 3)))                                # odd head count


def test_gaussian_snapshot_is_frozen():
    rng = np.random.default_rng(8)
    policy = GaussianPolicy(Mlp.init((1, 4, 2), rng))
    frozen = policy.snapshot()
    m0, s0 = frozen.mean_std(OBS1)
    policy.net.params = policy.net.params * 0.5
    m1, s1 = frozen.mean_std(OBS1)
    np.testing.assert_array_equal(m0, m1)
    np.testing.assert_array_equal(s0, s1)


# ---------------------------------------------------------------- factory, extract

def test_make_policy_dispatch():
    rng = np.random.default_rng(9)
    p = make_policy(chain_spec(), (16,), rng)
    assert isinstance(p, CategoricalPolicy) and p.net.sizes == (4, 16, 2)
    p = make_policy(pointmass_spec(), (16, 8), rng)
    assert isinstance(p, GaussianPolicy) and p.net.sizes == (1, 16, 8, 2)


def test_tabular_policy_extract():
    rng = np.random.default_rng(10)
    policy = CategoricalPolicy(Mlp.init((4, 8, 2), rng))
    table = tabular_policy_extract(policy, 4)
    assert table.shape == (4, 2)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
    for s in range(4):
        row = np.exp(policy.log_probs(np.eye(4)[s]))
        np.testing.assert_allclose(table[s], row, atol=1e-14)
    with pytest.raises(ShapeError):
        tabular_policy_extract(policy, 5)
