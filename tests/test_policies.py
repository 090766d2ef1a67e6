"""Categorical and diagonal-Gaussian policy heads."""

import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asaf.discriminator import AsqfModel
from asaf.envs import PointMassSpec, chain_spec, one_hot
from asaf.errors import NumericalError, ShapeError, TapeError, UnsupportedError
from asaf.nn import Mlp, grad_check, log_softmax_rows
from asaf.policies import (
    CategoricalPolicy,
    GaussianPolicy,
    LOG_STD_MAX,
    LOG_STD_MIN,
    make_policy,
    one_hot_rows,
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


def record_cdf(policy, obs):
    """The action CDF of ``obs`` from the evaluation record that ``act`` reads."""
    ev, rows = policy._read(np.asarray(obs))
    return np.cumsum(np.take(ev.probs, rows, axis=0), axis=-1)


def gaussian_log_prob(policy, obs, action):
    """log pi(action | obs) of one observation, read through ``log_prob_batch``."""
    return float(policy.log_prob_batch(np.reshape(obs, (1, -1)), np.reshape(action, (1, -1)))[0])


# ---------------------------------------------------------------- categorical

def test_categorical_zero_net_is_uniform():
    policy = CategoricalPolicy(Mlp((3, 4)))
    lp = policy.log_probs(np.zeros(3))
    np.testing.assert_allclose(lp, -np.log(4.0), atol=1e-15)


def test_categorical_log_prob_examples():
    policy = bias_only_categorical(np.log([0.2, 0.3, 0.5]))
    lp = policy.log_prob_batch(np.zeros((2, 1)), np.array([0, 2]))
    np.testing.assert_allclose(lp, np.log([0.2, 0.5]), rtol=0, atol=1e-12)
    for bad in (3, -1):
        with pytest.raises(ValueError):
            policy.log_prob_batch(OBS1[None, :], np.array([bad]))


def test_categorical_batch_matches_scalar():
    rng = np.random.default_rng(0)
    policy = CategoricalPolicy(Mlp.init((3, 8, 2), rng))
    obs = rng.normal(size=(5, 3))
    acts = rng.integers(0, 2, size=5)
    batch = policy.log_prob_batch(obs, acts)
    for i in range(5):
        assert batch[i] == pytest.approx(policy.log_prob_batch(obs[i : i + 1], acts[i : i + 1])[0], abs=1e-12)


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


def row_log_probs(net, obs):
    """Log-probabilities from the net's own forward pass on ``obs``, (B, A)."""
    scores, _ = net.forward(np.atleast_2d(obs))
    return log_softmax_rows(scores)


def row_reference(net, obs, acts, weights):
    """Per-row log-probs of ``acts`` and the gradient of their ``weights``-sum,
    from the net's own forward and backward passes on ``obs``."""
    scores, tape = net.forward(obs)
    lp = log_softmax_rows(scores)
    dy = -np.exp(lp) * weights[:, None]
    dy[np.arange(len(acts)), acts] += weights
    return lp[np.arange(len(acts)), acts], net.backward(tape, dy)


def reference_sample(net, obs, rng):
    """An inverse-CDF draw from the net's own forward pass on ``obs``."""
    p = np.exp(row_log_probs(net, obs)[0])
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))


def counting_forwards(policy):
    """Wrap ``policy.net.forward`` to record the row count of every call."""
    rows, forward = [], policy.net.forward
    policy.net.forward = lambda x, *split: rows.append(len(np.atleast_2d(x))) or forward(x, *split)
    return rows


def test_memoised_sample_matches_uncached_draws():
    rng = np.random.default_rng(5)
    policy = CategoricalPolicy.init(4, 3, (16, 16), rng)
    fresh = Mlp(policy.net.sizes, policy.net.params)
    rows = counting_forwards(policy)
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for s in rng.integers(0, 4, size=400):
        assert policy.sample(one_hot(s, 4), ours) == reference_sample(fresh, one_hot(s, 4), theirs)
    assert rows == [4]          # one evaluation of the state table serves every draw
    assert ours.bit_generator.state == theirs.bit_generator.state

    # observations that are not one-hot take the generic path, one forward a draw
    other = CategoricalPolicy(Mlp(policy.net.sizes, policy.net.params))
    rows = counting_forwards(other)
    for x in rng.normal(size=(50, 4)):
        assert other.sample(x, ours) == reference_sample(fresh, x, theirs)
    assert rows == [1] * 50
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_params_are_read_only_and_the_setter_refreshes_the_memo():
    policy = CategoricalPolicy(Mlp((4, 3)))    # zero net: uniform over 3 actions
    obs = one_hot(2, 4)
    rng = np.random.default_rng(0)
    assert {policy.sample(obs, rng) for _ in range(60)} == {0, 1, 2}
    with pytest.raises(ValueError, match="read-only"):
        policy.net.params[:] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        policy.net.params[:12].reshape(3, 4)[0, 0] = 1.0    # the first layer's weights, out x in
    assert not np.any(policy.net.params)

    params = np.zeros(policy.net.n_params)
    params[-3:] = [-50.0, -50.0, 50.0]         # biases: action 2 almost surely
    policy.net.params = params
    np.testing.assert_array_equal(policy.net.params, params)
    assert {policy.sample(obs, rng) for _ in range(60)} == {2}
    np.testing.assert_array_equal(record_cdf(policy, obs), record_cdf(CategoricalPolicy(Mlp((4, 3), params)), obs))

    # a net swapped in whole is a new key, whatever its version
    policy.net = Mlp((4, 3))
    assert {policy.sample(obs, rng) for _ in range(60)} == {0, 1, 2}


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(2, 4), st.integers(1, 12))
def test_state_table_matches_the_row_path(seed, n_states, n_actions, n_rows):
    rng = np.random.default_rng(seed)
    net = Mlp.init((n_states, 8, n_actions), rng)
    policy, net = CategoricalPolicy(net), Mlp(net.sizes, net.params)
    forwards = counting_forwards(policy)
    obs = np.eye(n_states)[rng.integers(0, n_states, size=n_rows)]
    acts = rng.integers(0, n_actions, size=n_rows)
    weights = rng.normal(size=n_rows)
    lp_r, grad_r = row_reference(net, obs, acts, weights)

    np.testing.assert_allclose(policy.log_prob_batch(obs, acts), lp_r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(policy.log_probs(obs), row_log_probs(net, obs), rtol=0, atol=1e-12)
    lp_t, cache_t = policy.log_prob_tape(obs, acts)
    np.testing.assert_allclose(lp_t, lp_r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(policy.backprop_log_prob(cache_t, weights), grad_r, rtol=0, atol=1e-12)
    for x in obs:
        cdf = record_cdf(policy, x)
        np.testing.assert_allclose(cdf, np.cumsum(np.exp(row_log_probs(net, x)[0])), rtol=0, atol=1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert forwards == [n_states]


NOT_ONE_HOT = [
    [0.0, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [2.0, 0.0, 0.0, 0.0],
    [-1.0, 1.0, 0.0, 0.0],
    [1.0, 1e-9, 0.0, 0.0],
    [0.0, 0.0, 1.0 + 1e-12, 0.0],
]


def reference_one_hot(obs):
    """The demo check's own row test, before it shared ``one_hot_rows``."""
    return (np.count_nonzero(obs, axis=1) == 1) & (obs.max(axis=1) == 1.0)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_one_hot_rows_matches_the_demo_row_test(seed, n_rows):
    rng = np.random.default_rng(seed)
    pool = np.vstack([np.eye(4), NOT_ONE_HOT, [[np.nan, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, np.nan]]])
    obs = pool[rng.integers(0, len(pool), size=n_rows)]
    if rng.random() < 0.5:
        obs = np.eye(4)[rng.integers(0, 4, size=n_rows)]
    states, hot = one_hot_rows(obs)
    np.testing.assert_array_equal(hot, reference_one_hot(obs))
    np.testing.assert_array_equal(states[hot], np.argmax(obs[hot], axis=1))
    for row, want in zip(obs, hot):     # a single row is one row of the mask
        s, h = one_hot_rows(row)
        assert h.shape == (1,) and h[0] == want
        assert s == np.argmax(row) or not want


@pytest.mark.parametrize("row", [[-0.0, 1.0, -0.0, 0.0], [0.0, 0.0, np.nextafter(1.0, 2.0), 0.0],
                                 [np.nan, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
def test_states_decide_as_the_one_hot_row_mask(row):
    # one comparison of the whole batch decides as every row's mask did, -0.0 counting as 0
    policy = CategoricalPolicy.init(4, 3, (8,), np.random.default_rng(15))
    for obs in (np.asarray(row), np.vstack([np.eye(4)[[2, 0]], row]), np.vstack([row, np.eye(4)[[3]]]),
                np.eye(4)[[1, 1]], np.zeros((0, 4))):
        states, hot = one_hot_rows(obs)
        got = policy._states(obs)
        assert (got is not None) == hot.all()
        if got is not None:
            assert np.array_equal(got, states)


def test_index_checks_once_and_the_table_reads_by_state():
    rng = np.random.default_rng(14)
    policy = CategoricalPolicy.init(4, 3, (8,), rng)
    obs, acts = np.eye(4)[[0, 2, 3, 2]], np.array([1.0, 0.0, 2.0, 2.0])
    states, checked = policy.index(obs, acts)
    np.testing.assert_array_equal(states, [0, 2, 3, 2])
    assert checked.dtype == np.int64
    lp, cache = policy.table_tape(states, checked)
    lp_ref, cache_ref = policy.log_prob_tape(obs, acts)
    np.testing.assert_array_equal(lp, lp_ref)
    weights = rng.normal(size=4)
    np.testing.assert_array_equal(policy.backprop_log_prob(cache, weights), policy.backprop_log_prob(cache_ref, weights))
    # rows that are not all one-hot get no states; the actions are checked either way
    assert policy.index(np.vstack([obs[:3], NOT_ONE_HOT[1]]), acts)[0] is None
    for bad, error in (([0, 1, 3, 0], ValueError), ([0.5, 1, 2, 0], UnsupportedError), ([0, 1, 2], ShapeError)):
        with pytest.raises(error):
            policy.index(obs, np.array(bad))


@pytest.mark.parametrize("bad", NOT_ONE_HOT)
def test_rows_that_are_not_one_hot_take_the_row_path(bad):
    rng = np.random.default_rng(13)
    policy = CategoricalPolicy.init(4, 3, (8,), rng)
    net = Mlp(policy.net.sizes, policy.net.params)
    forwards = counting_forwards(policy)
    obs = np.vstack([np.eye(4)[[0, 2]], bad, np.eye(4)[[3]]])
    acts, weights = np.array([0, 1, 2, 1]), rng.normal(size=4)
    lp_r, grad_r = row_reference(net, obs, acts, weights)

    np.testing.assert_array_equal(policy.log_prob_batch(obs, acts), lp_r)
    lp, cache = policy.log_prob_tape(obs, acts)
    np.testing.assert_array_equal(lp, lp_r)
    np.testing.assert_array_equal(policy.backprop_log_prob(cache, weights), grad_r)
    np.testing.assert_array_equal(policy.log_probs(obs), row_log_probs(net, obs))
    np.testing.assert_array_equal(record_cdf(policy, bad), np.cumsum(np.exp(row_log_probs(net, bad)[0])))
    assert forwards == [4, 4, 4, 1]     # every call ran the net on its own rows
    # the one-hot rows alone read the state table
    policy.log_prob_batch(obs[[0, 1, 3]], acts[[0, 1, 3]])
    policy.sample(obs[0], rng)
    assert forwards == [4, 4, 4, 1, 4]


def test_state_table_is_one_forward_per_parameter_version():
    rng = np.random.default_rng(12)
    policy = CategoricalPolicy.init(4, 2, (8,), rng)
    rows = counting_forwards(policy)
    obs, acts = np.eye(4)[[0, 1, 1, 3]], np.array([0, 1, 0, 1])
    _, cache_e = policy.log_prob_tape(obs, acts)
    _, cache_g = policy.log_prob_tape(obs[::-1], acts)
    policy.backprop_log_prob(cache_e, np.ones(4))
    policy.backprop_log_prob(cache_g, np.ones(4))
    policy.sample(obs[0], rng)
    tabular_policy_extract(policy, 4)
    assert rows == [4]
    policy.net.params = policy.net.params + 0.1
    policy.log_prob_batch(obs, acts)
    assert rows == [4, 4]
    # a tape from an older version is refused, as on the row path
    with pytest.raises(TapeError):
        policy.backprop_log_prob(cache_e, np.ones(4))
    with pytest.raises(ShapeError):
        policy.log_prob_tape(obs, acts[:3])
    with pytest.raises(ShapeError):
        policy.log_probs(np.eye(5)[0])


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(2, 4), st.integers(1, 12))
def test_mixed_batches_match_the_row_path_bitwise(seed, n_states, n_actions, n_rows):
    # a batch with a row that is not one-hot is evaluated on its own rows and
    # read through the same index and scatter as the state table
    rng = np.random.default_rng(seed)
    net = Mlp.init((n_states, 8, n_actions), rng)
    policy, net = CategoricalPolicy(net), Mlp(net.sizes, net.params)
    obs = np.eye(n_states)[rng.integers(0, n_states, size=n_rows)]
    noisy = rng.random(n_rows) < 0.5
    noisy[rng.integers(n_rows)] = True
    obs[noisy] += rng.normal(size=(np.count_nonzero(noisy), n_states))
    acts = rng.integers(0, n_actions, size=n_rows)
    weights = rng.normal(size=n_rows)
    lp_r, grad_r = row_reference(net, obs, acts, weights)

    lp, cache = policy.log_prob_tape(obs, acts)
    np.testing.assert_array_equal(lp, lp_r)
    np.testing.assert_array_equal(policy.backprop_log_prob(cache, weights), grad_r)
    np.testing.assert_array_equal(policy.log_probs(obs), row_log_probs(net, obs))
    for x in obs[noisy]:
        np.testing.assert_array_equal(policy.log_probs(x), row_log_probs(net, x)[0])
        np.testing.assert_array_equal(record_cdf(policy, x), np.cumsum(np.exp(row_log_probs(net, x)[0])))


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(2, 4), st.integers(1, 12), st.booleans())
def test_act_compares_u_with_the_cumsum_of_each_sampled_row(seed, n_states, n_actions, n_rows, noisy):
    rng = np.random.default_rng(seed)
    policy = CategoricalPolicy.init(n_states, n_actions, (8,), rng)
    obs = np.eye(n_states)[rng.integers(0, n_states, size=n_rows)]
    if noisy:
        obs[rng.integers(n_rows)] += rng.normal(size=n_states)
    u = rng.random((n_rows, 1))
    for x, ux in [(obs, u), *zip(obs, u)]:     # 2-D rows, then each row 1-D
        ev, rows = policy._read(x)
        cdf = np.array([np.cumsum(ev.probs[r]) for r in np.atleast_1d(rows)])
        # a u set to one of its row's own CDF entries makes `<=` decide on the last bit; the
        # last entry can lie below 1, so the count is capped at the last action
        ties = rng.random(len(cdf)) < 0.5
        picked = cdf[np.arange(len(cdf)), rng.integers(0, n_actions, len(cdf))]
        ux = np.where(ties, picked, ux.ravel()).reshape(ux.shape)
        want = np.minimum((cdf <= ux.reshape(-1, 1)).sum(axis=1), n_actions - 1)
        np.testing.assert_array_equal(np.atleast_1d(policy.act(x, ux, 0)), want)


U_TOP = np.nextafter(1.0, 0.0)    # 1 - 2**-53, the largest value Generator.random returns


def test_act_never_draws_past_the_last_action():
    policy = CategoricalPolicy.init(4, 4, (8,), np.random.default_rng(0))
    last = record_cdf(policy, np.eye(4))[:, -1:]
    assert last[1, 0] < U_TOP     # state 1's raw cumulative sum ends below a legal uniform
    assert policy.act(np.eye(4)[[1]], np.array([[U_TOP]]), 0).tolist() == [3]
    assert policy.sample(np.eye(4)[1], types.SimpleNamespace(random=lambda n: np.full(n, U_TOP))) == 3
    for u in (np.full((4, 1), U_TOP), last):    # u equal to each row's last CDF entry counts every entry
        assert policy.act(np.eye(4), u, 0).tolist() == [3, 3, 3, 3]
    below = np.nextafter(last, 0.0)
    np.testing.assert_array_equal(policy.act(np.eye(4), below, 0), (record_cdf(policy, np.eye(4)) <= below).sum(axis=1))


def test_discrete_actions_must_be_integral_and_one_dimensional():
    rng = np.random.default_rng(14)
    obs = np.eye(4)[[0, 2]]
    for policy in (CategoricalPolicy.init(4, 3, (8,), rng), AsqfModel.init(4, 3, (8,), rng)):
        np.testing.assert_array_equal(policy.log_prob_batch(obs, np.array([1.0, 0.0])),
                                      policy.log_prob_batch(obs, np.array([1, 0])))
        for bad in ([1.5, 0.7], [[1], [0]], [np.nan, 0.0], 1):
            with pytest.raises(UnsupportedError):
                policy.log_prob_batch(obs, np.array(bad))
        with pytest.raises(UnsupportedError):
            policy.log_prob_batch(obs[:1], np.array([1.5]))
        with pytest.raises(ValueError, match="must lie in"):
            policy.log_prob_batch(obs, np.array([0, 3]))


def test_non_finite_scores_raise_a_numerical_error():
    policy = CategoricalPolicy(Mlp((4, 3), np.full(15, 1e308)))    # every score overflows
    with np.errstate(over="ignore", invalid="ignore"):
        for obs in (np.eye(4)[[0, 1]], np.full((2, 4), 0.5)):
            with pytest.raises(NumericalError, match="non-finite net scores"):
                policy.log_prob_batch(obs, np.array([0, 1]))
        with pytest.raises(NumericalError, match="non-finite net scores"):
            policy.sample(one_hot(0, 4), np.random.default_rng(0))


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
    assert gaussian_log_prob(policy, np.zeros(3), [0.0]) == pytest.approx(-HALF_LOG_2PI, abs=1e-15)
    assert gaussian_log_prob(policy, np.zeros(3), [1.0]) == pytest.approx(-0.5 - HALF_LOG_2PI, abs=1e-15)


def test_gaussian_log_prob_hand_value():
    policy = bias_only_gaussian(mean=1.0, log_std=np.log(2.0))
    want = -0.5 * 0.25 - np.log(2.0) - HALF_LOG_2PI  # z = (2 - 1)/2
    assert gaussian_log_prob(policy, OBS1, [2.0]) == pytest.approx(want, abs=1e-12)


def test_gaussian_multidim_log_prob_sums_over_dims():
    rng = np.random.default_rng(5)
    policy = GaussianPolicy(Mlp.init((2, 6, 4), rng))  # act_dim 2
    obs = rng.normal(size=(3, 2))
    acts = rng.normal(size=(3, 2))
    mean, std = policy.mean_std(obs)
    log_std = np.clip(policy.net.forward(obs)[0][:, 2:], LOG_STD_MIN, LOG_STD_MAX)
    z = (acts - mean) / std
    want = np.sum(-0.5 * z * z - log_std - HALF_LOG_2PI, axis=1)
    assert policy.log_prob_batch(obs, acts).tobytes() == want.tobytes()   # the in-place head, bit for bit


def test_gaussian_log_std_clamps():
    wide = bias_only_gaussian(0.0, 10.0)
    _, std = wide.mean_std(OBS1)
    assert std[0] == pytest.approx(np.exp(LOG_STD_MAX), abs=1e-12)
    narrow = bias_only_gaussian(0.0, -10.0)
    _, std = narrow.mean_std(OBS1)
    assert std[0] == pytest.approx(np.exp(LOG_STD_MIN), abs=1e-15)
    # the clamp gives np.clip's bits, NaN and signed zeros included
    raw = np.array([[0.0, np.nan], [0.0, -np.inf], [0.0, np.inf], [0.0, -0.0], [0.0, 1.5], [0.0, -5.0 - 1e-15]])
    _, _, log_std = narrow._heads(raw)
    assert log_std.tobytes() == np.clip(raw[:, 1:], LOG_STD_MIN, LOG_STD_MAX).tobytes()


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
    dens = np.exp(policy.log_prob_batch(np.zeros((len(grid), 1)), grid[:, None]))
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
    rows = counting_forwards(p)
    p.sample(one_hot(1, 4), rng)
    p.log_prob_batch(np.eye(4)[[0, 3, 3]], np.array([1, 0, 1]))
    assert rows == [4]          # one-hot chain states read one state table
    p = make_policy(PointMassSpec(), (16, 8), rng)
    assert isinstance(p, GaussianPolicy) and p.net.sizes == (1, 16, 8, 2)


def test_tabular_policy_extract():
    rng = np.random.default_rng(10)
    policy = CategoricalPolicy(Mlp.init((4, 8, 2), rng))
    table = tabular_policy_extract(policy, 4)
    assert table.shape == (4, 2)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
    for s in range(4):
        row = np.exp(row_log_probs(policy.net, np.eye(4)[s])[0])
        np.testing.assert_allclose(table[s], row, atol=1e-14)
    with pytest.raises(ShapeError):
        tabular_policy_extract(policy, 5)
