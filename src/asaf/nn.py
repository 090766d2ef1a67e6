"""Small fully-connected network stack with hand-rolled reverse mode.

Everything is float64 and operates on flat parameter vectors so that the
optimizer, gradient clipping, and finite-difference checking all see one
contiguous array.  Layout per layer: weights (row-major, out x in), then
biases.  Hidden activations are ReLU, the output layer is linear.  A layer
adds its bias and ReLU in place, so a tape holds only each layer's input and
the net's output: ``inputs[i] > 0`` is the ReLU mask of layer i-1.

A batch may be cut into two row blocks: every matrix product and every sum
over rows runs once per block, bitwise a pass over each block alone, which a
product over the stacked rows is not; the elementwise work runs once.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import NumericalError, ShapeError, TapeError

__all__ = [
    "AdamState",
    "GradTape",
    "Mlp",
    "adam_step",
    "clip_by_global_norm",
    "grad_check",
    "log_softmax_rows",
    "logsumexp",
    "logsumexp_rows",
    "row_blocks",
    "serial_blas",
]


def logsumexp(v) -> float:
    """log(sum(exp(v))) with the maximum shifted out for stability."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"logsumexp expects a vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("logsumexp of an empty vector")
    m = np.max(v)
    if not np.isfinite(m):
        # all -inf collapses to -inf; +inf or nan propagates
        return float(m + 0.0) if m == -np.inf else float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp for a 2-D array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"logsumexp_rows expects a matrix, got shape {a.shape}")
    m = np.maximum.reduce(a, axis=1, keepdims=True)
    return (m + np.log(np.add.reduce(np.exp(a - m), axis=1, keepdims=True)))[:, 0]


def log_softmax_rows(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64) - logsumexp_rows(a)[:, None]


def _layer_slices(sizes: tuple[int, ...]) -> list[tuple[slice, slice, int, int]]:
    out = []
    off = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = slice(off, off + n_in * n_out)
        off += n_in * n_out
        b = slice(off, off + n_out)
        off += n_out
        out.append((w, b, n_in, n_out))
    return out


def param_count(sizes: tuple[int, ...]) -> int:
    return sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))


def row_blocks(split: int | None) -> tuple[slice, ...]:
    """The row blocks of a batch: all rows, or the rows before and from ``split``."""
    return (slice(None),) if split is None else (slice(None, split), slice(split, None))


def _matmul(a: np.ndarray, b: np.ndarray, split: int | None) -> np.ndarray:
    """``a @ b``, one product per row block of ``a`` when ``split`` cuts it in two."""
    if split is None:
        return a @ b
    out = np.empty((len(a), b.shape[1]))
    for rows in row_blocks(split):
        np.matmul(a[rows], b, out=out[rows])
    return out


def _layer(h: np.ndarray, weights: np.ndarray, bias: np.ndarray, relu: bool, split: int | None = None) -> np.ndarray:
    z = h * weights[:, 0] if weights.shape[1] == 1 else _matmul(h, weights.T, split)
    z += bias
    return np.maximum(z, 0.0, out=z) if relu else z


@dataclass
class GradTape:
    """Layer inputs and output of a forward pass, read but never written by
    backward; ``inputs[i] > 0`` is where layer i-1's pre-activation is > 0."""

    version: int
    single: bool
    inputs: list[np.ndarray]    # input to each layer (ReLU output after layer 0), shape (B, n_in)
    output: np.ndarray          # the net's output, shape (B, n_out)
    split: int | None = None    # first row of the second row block, if the batch has two


class Mlp:
    """Feedforward net over a flat float64 parameter vector.

    ``params`` is read-only; assigning a new vector through the property
    setter invalidates any tape produced earlier, which turns
    use-after-update bugs into TapeError instead of silently wrong gradients.
    The per-layer ``(W, b)`` views into the vector are rebuilt on every
    assignment, so forward and backward never re-slice it.
    """

    def __init__(self, sizes, params: np.ndarray | None = None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least in/out layer sizes >= 1, got {sizes}")
        self.sizes = sizes
        n = param_count(sizes)
        if params is None:
            params = np.zeros(n, dtype=np.float64)
        else:
            params = np.asarray(params, dtype=np.float64).copy()
            if params.shape != (n,):
                raise ShapeError(f"expected {n} parameters for sizes {sizes}, got shape {params.shape}")
        self._version = 0
        self._slices = _layer_slices(sizes)
        self._set(params)

    def _set(self, params: np.ndarray) -> None:
        """Adopt ``params`` (owned by the net) read-only, with its layer views."""
        params.flags.writeable = False
        self._params = params
        self._layers = [(params[w].reshape(n_out, n_in), params[b]) for w, b, n_in, n_out in self._slices]

    @classmethod
    def init(cls, sizes, rng: np.random.Generator) -> "Mlp":
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
        net = cls(sizes)
        p = np.zeros(net.n_params, dtype=np.float64)
        for w, _, n_in, _ in net._slices:
            bound = 1.0 / np.sqrt(n_in)
            p[w] = rng.uniform(-bound, bound, size=w.stop - w.start)
        net._set(p)
        return net

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._params.shape:
            raise ShapeError(f"parameter vector must keep shape {self._params.shape}, got {value.shape}")
        self._set(value.copy())
        self._version += 1

    @property
    def n_params(self) -> int:
        return self._params.size

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def copy(self) -> "Mlp":
        return Mlp(self.sizes, self._params)

    def weights(self, layer: int) -> np.ndarray:
        return self._layers[layer][0]

    def biases(self, layer: int) -> np.ndarray:
        return self._layers[layer][1]

    def forward(self, x, split: int | None = None) -> tuple[np.ndarray, GradTape]:
        """Run the net on a vector or a batch of row vectors.

        Returns (output, tape); output has the same leading shape as ``x``.
        ``split`` cuts a batch into the non-empty row blocks ``x[:split]`` and
        ``x[split:]``.  A layer with one input column is the broadcast product
        ``h * W[:, 0]``, bitwise the K=1 matrix product: each rounds once.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ShapeError(f"input must have trailing dim {self.sizes[0]}, got shape {x.shape}")
        if split is not None and (single or not 0 < split < len(x)):
            raise ShapeError(f"split {split} does not cut a batch of shape {x.shape} into two row blocks")
        inputs, h, last = [], x, len(self._layers) - 1
        for i, (weights, bias) in enumerate(self._layers):
            inputs.append(h)
            h = _layer(h, weights, bias, i < last, split)
        tape = GradTape(version=self._version, single=single, inputs=inputs, output=h, split=split)
        return (h[0] if single else h), tape

    def forward_rows(self, x) -> np.ndarray:
        """The net on a (B, in) batch with no tape, one (1, in) product per row,
        so each output row has the bits ``forward`` gives that row alone."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ShapeError(f"input must be (B, {self.sizes[0]}), got shape {x.shape}")
        h, last = x[:, None, :], len(self._layers) - 1
        for i, (weights, bias) in enumerate(self._layers):
            h = _layer(h, weights, bias, i < last)
        return h[:, 0, :]

    def backward(self, tape: GradTape, dy) -> np.ndarray:
        """Accumulate d(sum of dy . y)/d(params) into a flat gradient.

        For a batch, gradients are summed over rows, each row block's on its
        own and the blocks' sums then added.  The tape must come from a
        forward pass at the current parameters; it and ``dy`` are only read.
        """
        if tape.version != self._version:
            raise TapeError("tape is stale: parameters changed since the forward pass")
        dy = np.asarray(dy, dtype=np.float64)
        if tape.single:
            if dy.shape != (self.sizes[-1],):
                raise ShapeError(f"dy must have shape ({self.sizes[-1]},), got {dy.shape}")
            dy = dy[None, :]
        elif dy.shape != tape.output.shape:
            raise ShapeError(f"dy must have shape {tape.output.shape}, got {dy.shape}")
        grad = np.empty_like(self._params)    # every entry is written below
        first, *rest = row_blocks(tape.split)
        delta = dy
        for i in range(len(self._slices) - 1, -1, -1):
            w, b, n_in, n_out = self._slices[i]
            h, grad_w, grad_b = tape.inputs[i], grad[w].reshape(n_out, n_in), grad[b]
            np.matmul(delta[first].T, h[first], out=grad_w)
            np.add.reduce(delta[first], axis=0, out=grad_b)
            for rows in rest:
                grad_w += delta[rows].T @ h[rows]
                grad_b += np.add.reduce(delta[rows], axis=0)
            if i > 0:
                delta = _matmul(delta, self._layers[i][0], tape.split)
                delta *= h > 0.0
        return grad


@dataclass
class AdamState:
    """First/second moment accumulators; step count t is 0 before any update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: np.ndarray, **kw) -> "AdamState":
        n = np.asarray(params).size
        return cls(m=np.zeros(n, dtype=np.float64), v=np.zeros(n, dtype=np.float64), **kw)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float):
    """One Adam update with bias correction; returns (new_params, new_state)."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ShapeError(f"params/grads/state shapes disagree: {params.shape} vs {grads.shape} vs {state.m.shape}")
    if not np.all(np.isfinite(grads)):
        raise NumericalError("non-finite entries in gradient")
    # the textbook order of operations, written into m, v and two scratch arrays
    t, beta1, beta2 = state.t + 1, state.beta1, state.beta2
    m, a = beta1 * state.m, np.multiply(grads, 1.0 - beta1)
    m += a
    v = beta2 * state.v
    v += np.multiply(np.multiply(grads, 1.0 - beta2, out=a), grads, out=a)
    b = np.sqrt(np.divide(v, 1.0 - beta2 ** t, out=a))
    b += state.eps
    np.multiply(np.divide(m, 1.0 - beta1 ** t, out=a), lr, out=a)
    a /= b
    return np.subtract(params, a, out=a), AdamState(m, v, t, beta1, beta2, state.eps)


def clip_by_global_norm(grads: np.ndarray, threshold: float) -> np.ndarray:
    """Scale the whole gradient down so its 2-norm is at most threshold."""
    if threshold <= 0.0:
        raise ValueError("clip threshold must be positive")
    grads = np.asarray(grads, dtype=np.float64)
    norm = float(np.linalg.norm(grads))
    if norm > threshold:
        return grads * (threshold / norm)
    return grads.copy()


def grad_check(f, params: np.ndarray, h: float = 1e-5) -> float:
    """Compare an analytic gradient against central differences.

    ``f(params) -> (value, grad)``.  Returns the worst relative error
    max_i |g_i - fd_i| / max(1e-12, |g_i| + |fd_i|).
    """
    params = np.asarray(params, dtype=np.float64)
    _, grad = f(params)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ShapeError(f"analytic gradient shape {grad.shape} does not match params {params.shape}")
    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up, _ = f(bumped)
        bumped[i] = params[i] - h
        down, _ = f(bumped)
        fd = (up - down) / (2.0 * h)
        err = abs(grad[i] - fd) / max(1e-12, abs(grad[i]) + abs(fd))
        worst = max(worst, err)
    return worst


# get/set thread-count symbol pairs, in the order OpenBLAS builds name them:
# NumPy's bundled scipy-openblas, a 64-bit-index system OpenBLAS, a plain one
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that NumPy
    loaded, or None where none is found (MKL, Accelerate)."""
    here = Path(np.__file__).parent
    libs = [*sorted((here.parent / "numpy.libs").glob("*openblas*")),
            *sorted((here / ".dylibs").glob("*openblas*")), None]
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib) if lib else None)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# serial_blas scopes open across threads, and the call that restores the
# caller's thread count when the last one exits
_scopes = SimpleNamespace(lock=threading.Lock(), depth=0, restore=None)


@contextmanager
def serial_blas():
    """Run the body on one OpenBLAS thread, restoring the caller's count on exit.

    The nets here multiply at most a few hundred rows by 64 columns, where a
    second OpenBLAS thread halves no wall time and spin-waits between calls,
    doubling the CPU spent.  OpenBLAS splits output rows and columns, never a
    summation, so results are bitwise the same on any thread count.  Scopes
    nest and may overlap across Python threads; the count is restored once,
    when the last one exits, also on an exception.  Where NumPy's BLAS is not
    an OpenBLAS with a thread-count setter, this does nothing.
    """
    with _scopes.lock:
        if _scopes.depth == 0:
            pair = _openblas_threads()
            if pair is not None:
                get, set_ = pair
                _scopes.restore = functools.partial(set_, get())
                set_(1)
        _scopes.depth += 1
    try:
        yield
    finally:
        with _scopes.lock:
            _scopes.depth -= 1
            if _scopes.depth == 0 and _scopes.restore is not None:
                _scopes.restore()
                _scopes.restore = None
