"""Numeric kit: logsumexp, the flat-parameter net, Adam, clipping, grad_check,
and the single-threaded BLAS scope."""

import contextlib
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asaf import nn
from asaf.errors import NumericalError, ShapeError, TapeError
from asaf.nn import (
    AdamState,
    Mlp,
    adam_step,
    clip_by_global_norm,
    grad_check,
    log_softmax_rows,
    logsumexp,
    logsumexp_rows,
    param_count,
    serial_blas,
)

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 8),
    elements=st.floats(-50.0, 50.0, allow_nan=False),
)


# ---------------------------------------------------------------- logsumexp

def test_logsumexp_examples():
    assert logsumexp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-15)
    assert logsumexp([5.0]) == 5.0
    assert logsumexp([np.log(1.0), np.log(2.0), np.log(3.0)]) == pytest.approx(np.log(6.0), abs=1e-14)


def test_logsumexp_does_not_overflow():
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0), abs=1e-12)
    assert logsumexp([-1000.0, -1001.0]) == pytest.approx(-1000.0 + np.log1p(np.exp(-1.0)), abs=1e-12)


def test_logsumexp_minus_inf_entries_drop_out():
    assert logsumexp([-np.inf, 0.0]) == 0.0
    assert logsumexp([-np.inf, -np.inf]) == -np.inf


def test_logsumexp_rejects_bad_input():
    with pytest.raises(ValueError):
        logsumexp([])
    with pytest.raises(ShapeError):
        logsumexp(np.zeros((2, 2)))


@given(finite_vectors, st.floats(-100.0, 100.0, allow_nan=False))
def test_logsumexp_shift_invariance(v, c):
    assert abs(logsumexp(v + c) - (logsumexp(v) + c)) < 1e-10


@given(finite_vectors)
def test_logsumexp_bounds(v):
    val = logsumexp(v)
    assert np.max(v) <= val + 1e-12
    assert val <= np.max(v) + np.log(len(v)) + 1e-12


def test_logsumexp_rows_matches_vector_form():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4))
    rows = logsumexp_rows(a)
    for i in range(5):
        assert rows[i] == pytest.approx(logsumexp(a[i]), abs=1e-14)
    with pytest.raises(ShapeError):
        logsumexp_rows(np.zeros(3))


def test_log_softmax_rows_normalizes():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 3)) * 10.0
    lp = log_softmax_rows(a)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)
    # shifting a row by a constant must not change the distribution
    np.testing.assert_allclose(log_softmax_rows(a + 7.0), lp, atol=1e-10)


# ---------------------------------------------------------------- Mlp forward

def test_param_count_examples():
    assert param_count((2, 3)) == 2 * 3 + 3
    assert param_count((4, 64, 64, 2)) == 4 * 64 + 64 + 64 * 64 + 64 + 64 * 2 + 2
    assert Mlp((3, 5, 2)).n_params == param_count((3, 5, 2))


def test_forward_hand_example():
    # layout: W1 rows then b1, W2 rows then b2
    params = np.array([1.0, 0.0, 0.0, 1.0,   # W1 = I
                       0.0, -1.0,             # b1
                       1.0, 1.0,              # W2
                       0.5])                  # b2
    net = Mlp((2, 2, 1), params)
    y, _ = net.forward(np.array([0.3, 0.2]))
    assert y[0] == pytest.approx(0.8, abs=1e-15)      # relu kills the second unit
    y, _ = net.forward(np.array([-1.0, 2.0]))
    assert y[0] == pytest.approx(1.5, abs=1e-15)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(2)
    net = Mlp.init((3, 4, 4, 2), rng)
    x = rng.normal(size=(5, 3))

    h = x
    for layer in range(3):
        z = h @ net.weights(layer).T + net.biases(layer)
        h = z if layer == 2 else np.maximum(z, 0.0)
    y, _ = net.forward(x)
    np.testing.assert_allclose(y, h, atol=1e-12)


def test_forward_batch_and_single_agree():
    rng = np.random.default_rng(3)
    net = Mlp.init((2, 6, 3), rng)
    x = rng.normal(size=(4, 2))
    batch_y, _ = net.forward(x)
    for i in range(4):
        single_y, _ = net.forward(x[i])
        # BLAS may reassociate the row sum, so allow a few ulps
        np.testing.assert_allclose(single_y, batch_y[i], atol=1e-14)


def test_forward_shape_errors():
    net = Mlp((3, 2))
    with pytest.raises(ShapeError):
        net.forward(np.zeros(4))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 2, 3)))
    for x, split in ((np.zeros(3), 1), (np.zeros((2, 3)), 0), (np.zeros((2, 3)), 2)):
        with pytest.raises(ShapeError):     # two row blocks, neither empty
            net.forward(x, split)


def test_constructor_rejects_bad_sizes_and_params():
    with pytest.raises(ValueError):
        Mlp((3,))
    with pytest.raises(ValueError):
        Mlp((0, 2))
    with pytest.raises(ShapeError):
        Mlp((2, 2), params=np.zeros(5))


# ---------------------------------------------------------------- Mlp backward

def test_backward_hand_example():
    net = Mlp((1, 1, 1), np.array([2.0, 0.5, 3.0, 0.0]))
    y, tape = net.forward(np.array([1.0]))
    assert y[0] == 7.5
    grad = net.backward(tape, np.array([1.0]))
    np.testing.assert_array_equal(grad, [3.0, 3.0, 2.5, 1.0])

    # negative pre-activation: relu blocks everything upstream
    y, tape = net.forward(np.array([-1.0]))
    assert y[0] == 0.0
    grad = net.backward(tape, np.array([1.0]))
    np.testing.assert_array_equal(grad, [0.0, 0.0, 0.0, 1.0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 3))
    dy = rng.normal(size=(4, 2))
    shell = Mlp((3, 5, 2))

    def f(theta):
        net = Mlp((3, 5, 2), theta)
        y, tape = net.forward(x)
        return float(np.sum(dy * y)), net.backward(tape, dy)

    assert grad_check(f, Mlp.init((3, 5, 2), rng).params) < 1e-6
    del shell


def test_backward_sums_over_batch():
    rng = np.random.default_rng(5)
    net = Mlp.init((2, 4, 3), rng)
    x = rng.normal(size=(3, 2))
    dy = rng.normal(size=(3, 3))
    _, tape = net.forward(x)
    total = net.backward(tape, dy)
    parts = np.zeros_like(total)
    for i in range(3):
        _, t_i = net.forward(x[i])
        parts += net.backward(t_i, dy[i])
    np.testing.assert_allclose(total, parts, atol=1e-12)


def test_backward_zero_dy_gives_zero_grad():
    rng = np.random.default_rng(6)
    net = Mlp.init((3, 4, 2), rng)
    _, tape = net.forward(rng.normal(size=(2, 3)))
    np.testing.assert_array_equal(net.backward(tape, np.zeros((2, 2))), 0.0)


def test_backward_rejects_stale_tape():
    rng = np.random.default_rng(7)
    net = Mlp.init((2, 3, 1), rng)
    _, tape = net.forward(np.zeros(2))
    net.params = net.params + 0.1
    with pytest.raises(TapeError):
        net.backward(tape, np.ones(1))


def test_backward_dy_shape_checked():
    net = Mlp((2, 2))
    _, tape = net.forward(np.zeros(2))
    with pytest.raises(ShapeError):
        net.backward(tape, np.zeros(3))
    _, tape = net.forward(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        net.backward(tape, np.zeros((3, 2)))


def reference_affine(h, weights, bias):
    return (h * weights[:, 0] if weights.shape[1] == 1 else h @ weights.T) + bias


def reference_forward(net, x):
    """``Mlp.forward`` with a fresh array per step: (output, layer inputs, pre-activations)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h, last = (x[None, :] if single else x), len(net.sizes) - 2
    inputs, preacts = [], []
    for i in range(last + 1):
        inputs.append(h)
        z = reference_affine(h, net.weights(i), net.biases(i))
        preacts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return (h[0] if single else h), inputs, preacts


def reference_forward_rows(net, x):
    h, last = x[:, None, :], len(net.sizes) - 2
    for i in range(last + 1):
        z = reference_affine(h, net.weights(i), net.biases(i))
        h = z if i == last else np.maximum(z, 0.0)
    return h[:, 0, :]


def reference_backward(net, inputs, preacts, dy):
    """``Mlp.backward`` on a zeroed gradient, masking with the kept pre-activations."""
    dy = np.asarray(dy, dtype=np.float64)
    delta = dy[None, :] if dy.ndim == 1 else dy
    grad = np.zeros(net.n_params)
    for i, (w, b, _, _) in reversed(list(enumerate(nn._layer_slices(net.sizes)))):
        grad[w] = (delta.T @ inputs[i]).ravel()
        grad[b] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights(i)) * (preacts[i - 1] > 0.0)
    return grad


widths = st.one_of(st.just(1), st.integers(1, 70))


def random_net_and_rows(sizes, batch, seed, boundary):
    """A net, its input (a (batch, in) matrix, or one vector when batch is None)
    and a draw of further values of the same kind.
    On the ReLU boundary every value is a small integer or -0.0, so many
    pre-activations are exactly zero and many inputs and outputs negative."""
    rng = np.random.default_rng(seed)
    shape = (sizes[0],) if batch is None else (batch, sizes[0])
    if boundary:
        def draw(size):
            a = rng.integers(-2, 3, size=size).astype(np.float64)
            a[rng.random(size) < 0.2] = -0.0
            return a
        return Mlp(sizes, draw(param_count(sizes))), draw(shape), draw
    return Mlp.init(sizes, rng), rng.normal(size=shape) * rng.uniform(0.1, 10.0), lambda size: rng.normal(size=size)


@given(st.lists(st.integers(1, 70), min_size=0, max_size=2), widths, widths,
       st.one_of(st.none(), st.just(1), st.integers(1, 120)), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_in_place_layers_are_bitwise_the_reference(hidden, n_in, n_out, batch, seed, boundary):
    # one input column (the broadcast product), one output column, batch 1
    # and single vectors, with exact zeros and negatives at the ReLU, with and
    # without the single-thread scope
    sizes = (n_in, *hidden, n_out)
    net, x, draw = random_net_and_rows(sizes, batch, seed, boundary)
    want_y, want_inputs, want_preacts = reference_forward(net, x)
    dy = draw(want_y.shape)
    want_grad = reference_backward(net, want_inputs, want_preacts, dy)
    for scope in (contextlib.nullcontext, serial_blas):
        with scope():
            y, tape = net.forward(x)
            assert y.tobytes() == want_y.tobytes()
            assert [a.tobytes() for a in tape.inputs] == [a.tobytes() for a in want_inputs]
            assert tape.output.tobytes() == want_preacts[-1].tobytes()
            assert net.backward(tape, dy).tobytes() == want_grad.tobytes()
            if batch is not None:
                assert net.forward_rows(x).tobytes() == reference_forward_rows(net, x).tobytes()


@given(st.lists(st.integers(1, 30), min_size=2, max_size=4),
       st.one_of(st.none(), st.integers(1, 50)), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_backward_only_reads_its_tape_and_dy(sizes, batch, seed, boundary):
    # the Gaussian loss and the micro benchmarks run backward twice on one tape
    net, x, draw = random_net_and_rows(sizes, batch, seed, boundary)
    y, tape = net.forward(x)
    dy = draw(y.shape)
    read = (dy, *tape.inputs, tape.output)
    kept = [a.copy() for a in read]
    first = net.backward(tape, dy)
    assert net.backward(tape, dy).tobytes() == first.tobytes()
    assert [a.tobytes() for a in read] == [a.tobytes() for a in kept]
    with pytest.raises(ShapeError):
        net.backward(tape, np.zeros(y.shape[:-1] + (sizes[-1] + 1,)))
    net.params = net.params
    with pytest.raises(TapeError):
        net.backward(tape, dy)


block_rows = st.one_of(st.just(1), st.integers(10, 18), st.integers(1, 40))


@given(st.sampled_from([(1, 64, 64, 2), (4, 8, 3)]), block_rows, block_rows, st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_two_row_blocks_are_bitwise_two_passes(sizes, rows_e, rows_g, seed, boundary):
    # the two sides of a loss run as one forward and one backward over two
    # row blocks; a single product over the stacked rows would round
    # differently (64 x 64 layers at 1 and at 10-18 rows, the 64 -> 2 head at
    # most row counts that are not multiples of 4), one per block must not
    net, x, draw = random_net_and_rows(sizes, rows_e + rows_g, seed, boundary)
    dy = draw((len(x), sizes[-1]))
    for scope in (contextlib.nullcontext, serial_blas):
        with scope():
            (y_e, tape_e), (y_g, tape_g) = net.forward(x[:rows_e]), net.forward(x[rows_e:])
            y, tape = net.forward(x, rows_e)
            assert y.tobytes() == np.concatenate([y_e, y_g]).tobytes()
            assert [a.tobytes() for a in tape.inputs] == [np.concatenate(a).tobytes()
                                                          for a in zip(tape_e.inputs, tape_g.inputs)]
            want = net.backward(tape_e, dy[:rows_e]) + net.backward(tape_g, dy[rows_e:])
            assert net.backward(tape, dy).tobytes() == want.tobytes()


def test_params_setter_copies_and_checks_shape():
    net = Mlp((2, 2))
    fresh = np.ones(net.n_params)
    net.params = fresh
    fresh[0] = 99.0
    assert net.params[0] == 1.0
    with pytest.raises(ShapeError):
        net.params = np.ones(net.n_params + 1)


def test_copy_is_independent():
    rng = np.random.default_rng(8)
    net = Mlp.init((2, 3, 2), rng)
    dup = net.copy()
    np.testing.assert_array_equal(dup.params, net.params)
    net.params = net.params * 2.0
    assert not np.array_equal(dup.params, net.params)


def test_init_bounds_and_zero_biases():
    rng = np.random.default_rng(9)
    net = Mlp.init((10, 7, 3), rng)
    for layer, fan_in in ((0, 10), (1, 7)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(net.weights(layer)) <= bound)
        np.testing.assert_array_equal(net.biases(layer), 0.0)
    again = Mlp.init((10, 7, 3), np.random.default_rng(9))
    np.testing.assert_array_equal(again.params, net.params)


# ---------------------------------------------------------------- Adam

def test_adam_first_step_hand_value():
    # with g = 1 the bias corrections cancel exactly: step = lr / (1 + eps)
    state = AdamState.for_params(np.zeros(1))
    params, state = adam_step(state, np.zeros(1), np.ones(1), lr=0.1)
    assert params[0] == -(0.1 * 1.0) / (1.0 + 1e-8)
    assert state.t == 1


def test_adam_step_is_scale_free():
    # constant gradients of different magnitude give the same trajectory
    # up to the eps regularizer in the denominator
    s1 = AdamState.for_params(np.zeros(1))
    s2 = AdamState.for_params(np.zeros(1))
    p1 = p2 = np.zeros(1)
    for _ in range(5):
        p1, s1 = adam_step(s1, p1, np.full(1, 1e-3), lr=0.01)
        p2, s2 = adam_step(s2, p2, np.full(1, 1e3), lr=0.01)
    np.testing.assert_allclose(p1, p2, rtol=1e-4)


def test_adam_zero_gradient_keeps_params():
    state = AdamState.for_params(np.zeros(3))
    params, state = adam_step(state, np.arange(3.0), np.zeros(3), lr=0.5)
    np.testing.assert_array_equal(params, np.arange(3.0))
    assert state.t == 1


def test_adam_descends_a_quadratic():
    state = AdamState.for_params(np.zeros(1))
    x = np.array([2.0])
    for _ in range(400):
        x, state = adam_step(state, x, 2.0 * x, lr=0.05)
    assert abs(x[0]) < 1e-2


def test_adam_is_functional():
    state = AdamState.for_params(np.zeros(2))
    params = np.ones(2)
    grads = np.ones(2)
    adam_step(state, params, grads, lr=0.1)
    np.testing.assert_array_equal(params, 1.0)
    np.testing.assert_array_equal(state.m, 0.0)
    assert state.t == 0


def reference_adam_step(state, params, grads, lr):
    """Adam as one expression per line, written apart from ``adam_step``."""
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps), replace(state, m=m, v=v, t=t)


@given(
    seed=st.integers(0, 2 ** 31 - 1),
    n=st.integers(1, 40),
    scale=st.integers(-8, 8),
    betas=st.sampled_from([(0.9, 0.999), (0.5, 0.9), (0.0, 0.0), (0.99, 0.9999)]),
    eps=st.sampled_from([1e-8, 0.0, 0.1]),
)
def test_adam_step_is_bitwise_the_reference(seed, n, scale, betas, eps):
    rng = np.random.default_rng(seed)
    ours = theirs = AdamState.for_params(np.zeros(n), beta1=betas[0], beta2=betas[1], eps=eps)
    p_ours = p_theirs = rng.normal(size=n)
    for _ in range(5):
        grads, lr = rng.normal(size=n) * 10.0 ** scale, 10.0 ** rng.uniform(-5, 0)
        kept = (p_ours.copy(), grads.copy(), ours.m.copy(), ours.v.copy(), ours.t)
        new_p, new_state = adam_step(ours, p_ours, grads, lr)
        # the caller's params, gradient and state are left as they were
        for was, now in zip(kept, (p_ours, grads, ours.m, ours.v, ours.t)):
            np.testing.assert_array_equal(now, was)
        assert not any(np.shares_memory(a, b) for a in (new_p, new_state.m, new_state.v)
                       for b in (p_ours, grads, ours.m, ours.v))
        p_ours, ours = new_p, new_state
        p_theirs, theirs = reference_adam_step(theirs, p_theirs, grads, lr)
        np.testing.assert_array_equal(p_ours, p_theirs)
        np.testing.assert_array_equal(ours.m, theirs.m)
        np.testing.assert_array_equal(ours.v, theirs.v)
        assert ours.t == theirs.t


def test_adam_rejects_bad_input():
    state = AdamState.for_params(np.zeros(2))
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(3), np.zeros(3), lr=0.1)
    with pytest.raises(NumericalError):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]), lr=0.1)
    with pytest.raises(NumericalError):
        adam_step(state, np.zeros(2), np.array([1.0, np.inf]), lr=0.1)


# ---------------------------------------------------------------- clipping

def test_clip_by_global_norm():
    np.testing.assert_allclose(clip_by_global_norm(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-15)
    g = np.array([3.0, 4.0])
    out = clip_by_global_norm(g, 10.0)
    np.testing.assert_array_equal(out, g)
    out[0] = 0.0
    assert g[0] == 3.0  # result is always a fresh array
    with pytest.raises(ValueError):
        clip_by_global_norm(g, 0.0)


@given(hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-1e3, 1e3, allow_nan=False)),
       st.floats(1e-3, 1e3))
def test_clip_norm_never_exceeds_threshold(g, thr):
    assert np.linalg.norm(clip_by_global_norm(g, thr)) <= thr * (1.0 + 1e-12)


# ---------------------------------------------------------------- grad_check

def test_grad_check_accepts_correct_gradient():
    def f(x):
        return float(np.sum(x * x)), 2.0 * x

    assert grad_check(f, np.array([1.0, -2.0, 0.5])) < 1e-8


def test_grad_check_flags_wrong_gradient():
    def f(x):
        return float(np.sum(x * x)), 3.0 * x

    assert grad_check(f, np.array([1.0, -2.0, 0.5])) > 0.1


def test_grad_check_rejects_shape_mismatch():
    def f(x):
        return 0.0, np.zeros(x.size + 1)

    with pytest.raises(ShapeError):
        grad_check(f, np.zeros(2))


@given(st.lists(st.integers(1, 70), min_size=2, max_size=4), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
def test_forward_rows_has_the_bits_of_one_row_forwards(sizes, batch, seed):
    # sampling runs the Gaussian policy on a batch of episodes' rows and
    # must give each row the bits a forward of that row alone gives, with
    # and without the single-thread BLAS scope; a NumPy or BLAS whose
    # stacked product rounds differently fails here, not in a pinned digest
    rng = np.random.default_rng(seed)
    net = Mlp.init(sizes, rng)
    x = rng.normal(size=(batch, sizes[0])) * rng.uniform(0.1, 10.0)
    alone = np.stack([net.forward(row)[0] for row in x])
    assert net.forward_rows(x).tobytes() == alone.tobytes()
    with serial_blas():
        assert net.forward_rows(x).tobytes() == alone.tobytes()
        assert np.stack([net.forward(row)[0] for row in x]).tobytes() == alone.tobytes()


@given(st.lists(st.integers(1, 70), min_size=1, max_size=3), st.integers(1, 200), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_one_column_layers_equal_the_matrix_product(hidden, batch, seed, zeros):
    # a layer with one input column is a broadcast product; it must keep the
    # bits of the K=1 matrix product, with and without the single-thread scope
    rng = np.random.default_rng(seed)
    sizes = (1, *hidden, int(rng.integers(1, 5)))
    net = Mlp(sizes, rng.normal(size=nn.param_count(sizes)) * rng.uniform(0.01, 100.0))
    x = rng.normal(size=(batch, 1)) * rng.uniform(0.01, 100.0)
    if zeros:
        x[rng.random(batch) < 0.5] = 0.0

    def matrix_product(h):
        for i in range(len(sizes) - 1):
            z = h @ net.weights(i).T + net.biases(i)
            h = z if i == len(sizes) - 2 else np.maximum(z, 0.0)
        return h

    want = matrix_product(x)
    for scope in (contextlib.nullcontext, serial_blas):
        with scope():
            assert net.forward(x)[0].tobytes() == want.tobytes()
            assert net.forward_rows(x).tobytes() == matrix_product(x[:, None, :])[:, 0, :].tobytes()


def test_forward_rows_checks_its_input():
    net = Mlp((3, 2))
    with pytest.raises(ShapeError):
        net.forward_rows(np.zeros(3))
    with pytest.raises(ShapeError):
        net.forward_rows(np.zeros((2, 4)))


# ---------------------------------------------------------------- serial_blas

def test_serial_blas_caps_nested_scopes_and_restores_once(blas_threads):
    get, _ = blas_threads
    with serial_blas():
        assert get() == 1
        with serial_blas():
            assert get() == 1
        assert get() == 1       # the inner exit leaves the outer scope capped
    assert get() == 2


def test_serial_blas_restores_when_the_body_raises(blas_threads):
    get, _ = blas_threads
    with pytest.raises(NumericalError):
        with serial_blas():
            raise NumericalError("boom")
    assert get() == 2


def test_serial_blas_overlapping_scopes_in_two_threads_restore_once(blas_threads):
    # A enters, B enters, A exits (B still capped), B exits (restored)
    get, _ = blas_threads
    a_in, b_in, a_out, seen = threading.Event(), threading.Event(), threading.Event(), {}

    def a():
        with serial_blas():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with serial_blas():
            b_in.set()
            a_out.wait(10)
            seen["after a exits"] = get()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert a_out.is_set() and seen == {"after a exits": 1}
    assert get() == 2


def test_serial_blas_under_thread_switching_stress(blas_threads):
    # more threads than cores entering and leaving at a short switch interval:
    # every body sees 1 and the last exit restores the caller's count
    get, _ = blas_threads
    wrong = []

    def worker():
        for _ in range(200):
            with serial_blas():
                if get() != 1:
                    wrong.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert get() == 2


def test_serial_blas_without_a_setter_does_nothing(monkeypatch):
    monkeypatch.setattr(nn, "_openblas_threads", lambda: None)
    with serial_blas():
        with serial_blas():
            assert nn._scopes.depth == 2 and nn._scopes.restore is None
    assert nn._scopes.depth == 0


def test_importing_the_package_leaves_the_blas_threads_alone():
    # the lookup runs on the first scope, never at import, so a fresh
    # process that imports asaf reads the default count this process has
    pair = nn._openblas_threads()
    if pair is None:
        pytest.skip("NumPy's BLAS has no OpenBLAS thread-count setter")
    script = ("import sys, asaf; nn = sys.modules['asaf.nn']; "
              "print(nn._openblas_threads.cache_info().currsize, nn._openblas_threads()[0]())")
    src = str(Path(nn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    looked_up, count = map(int, proc.stdout.split())
    assert looked_up == 0
    assert count == pair[0]()
