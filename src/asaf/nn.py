"""Small fully-connected network stack with hand-rolled reverse mode.

Everything is float64 and operates on flat parameter vectors so that the
optimizer (Adam at the constants ``ADAM_*``), gradient clipping, and
finite-difference checking (step ``FD_STEP``) all see one contiguous array.
Adam updates its ``AdamState`` in place and returns fresh parameters, which
reach a net only through its ``params`` setter.
Layout per layer: weights (row-major, out x in), then biases.  Hidden
activations are ReLU, the output layer is linear.  A layer adds its bias and
ReLU in place, so a tape holds only each layer's input and the net's output:
``inputs[i] > 0`` is the ReLU mask of layer i-1.

A batch may be cut into two row blocks: every matrix product and every sum
over rows runs once per block, bitwise a pass over each block alone, which a
product over the stacked rows is not; the elementwise work runs once.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    "logsumexp_rows",
    "row_blocks",
    "serial_blas",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8    # Adam's decay rates and eps
FD_STEP = 1e-5                                         # grad_check's central-difference step


def _logsumexp_kept(a) -> tuple[np.ndarray, np.ndarray]:
    """The float64 matrix ``a`` and its row-wise log(sum(exp(row))) as a
    column, each row's maximum shifted out."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"logsumexp_rows expects a matrix, got shape {a.shape}")
    m = np.maximum.reduce(a, axis=1, keepdims=True)
    return a, m + np.log(np.add.reduce(np.exp(a - m), axis=1, keepdims=True))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(row))) of a 2-D array, each row's maximum shifted out."""
    return _logsumexp_kept(a)[1][:, 0]


def log_softmax_rows(a: np.ndarray) -> np.ndarray:
    a, lse = _logsumexp_kept(a)
    return a - lse


def _layer_slices(sizes: tuple[int, ...]) -> tuple[tuple[slice, slice, int, int], ...]:
    out = []
    off = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = slice(off, off + n_in * n_out)
        off += n_in * n_out
        b = slice(off, off + n_out)
        off += n_out
        out.append((w, b, n_in, n_out))
    return tuple(out)


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
    if weights.shape[1] == 1:
        z = h * weights[:, 0]
    else:
        z = h @ weights.T if split is None else _matmul(h, weights.T, split)
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

    ``params`` is read-only; the property setter stores a copy of a new
    vector and makes every earlier tape stale, which turns use-after-update
    bugs into TapeError instead of silently wrong gradients.
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
        """A net of the same sizes over a copy of the parameters, at version 0;
        the sizes and layer slices, checked once, are shared."""
        net = object.__new__(Mlp)
        net.sizes, net._slices, net._version = self.sizes, self._slices, 0
        net._set(self._params.copy())
        return net

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
        delta, split = dy, tape.split
        for i in range(len(self._slices) - 1, -1, -1):
            w, b, n_in, n_out = self._slices[i]
            h, grad_w, grad_b = tape.inputs[i], grad[w].reshape(n_out, n_in), grad[b]
            if split is None:   # one row block
                np.matmul(delta.T, h, out=grad_w)
                np.add.reduce(delta, axis=0, out=grad_b)
            else:               # the first block's sums, then the second's added
                np.matmul(delta[:split].T, h[:split], out=grad_w)
                np.add.reduce(delta[:split], axis=0, out=grad_b)
                grad_w += delta[split:].T @ h[split:]
                grad_b += np.add.reduce(delta[split:], axis=0)
            if i > 0:
                delta = _matmul(delta, self._layers[i][0], split)
                delta *= h > 0.0
        return grad


@dataclass
class AdamState:
    """First/second moment accumulators; step count t is 0 before any update.

    ``adam_step`` updates ``m``, ``v`` and ``t`` in place, through two scratch
    arrays the state owns; a gradient it refuses leaves all of them as they were.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        n = np.asarray(params).size
        return cls(m=np.zeros(n, dtype=np.float64), v=np.zeros(n, dtype=np.float64))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float, clip: float = math.inf):
    """One Adam update with bias correction of the gradient clipped to global
    norm ``clip``, written into ``state``; returns (new_params, state), the
    new params a fresh array.  The clip reuses the squared norm the finite
    check computes and has ``clip_by_global_norm``'s bits: a finite gradient
    whose squared norm overflows is scaled to zero.  A non-finite gradient
    raises ``NumericalError`` before anything is written."""
    if clip <= 0.0:
        raise ValueError("clip threshold must be positive")
    params = np.asarray(params, dtype=np.float64)
    grads = np.ascontiguousarray(grads, dtype=np.float64)     # as clip_by_global_norm ravels: a strided dot may round
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ShapeError(f"params/grads/state shapes disagree: {params.shape} vs {grads.shape} vs {state.m.shape}")
    # a non-finite entry makes the sum of squares non-finite; only an overflowed sum is looked at entry by entry
    squares = grads @ grads
    if not (math.isfinite(squares) or np.isfinite(grads).all()):
        raise NumericalError("non-finite entries in gradient")
    if (norm := math.sqrt(squares)) > clip:
        grads = grads * (clip / norm)
    # the textbook order of operations; from t = 356, 1 - beta1**t is exactly 1.0 and x / 1.0 is x
    state.t += 1
    m, v, (a, b) = state.m, state.v, state.scratch
    c1 = 1.0 - ADAM_BETA1 ** state.t
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grads, 1.0 - ADAM_BETA2, out=a), grads, out=a)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=b), out=b)
    b += ADAM_EPS
    np.multiply(m if c1 == 1.0 else np.divide(m, c1, out=a), lr, out=a)
    a /= b
    return params - a, state


def clip_by_global_norm(grads: np.ndarray, threshold: float) -> np.ndarray:
    """Scale the whole gradient down so its 2-norm is at most threshold: a
    new array when it is scaled, else the input itself (float64), uncopied.
    The norm is ``np.linalg.norm``'s, bit for bit: the root of the flat dot."""
    if threshold <= 0.0:
        raise ValueError("clip threshold must be positive")
    grads = np.asarray(grads, dtype=np.float64)
    flat = grads.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))
    return grads * (threshold / norm) if norm > threshold else grads


def grad_check(f, params: np.ndarray) -> float:
    """Compare an analytic gradient against central differences of step ``FD_STEP``.

    ``f(params) -> (value, grad)``.  Returns the worst relative error
    max_i |g_i - fd_i| / max(1e-12, |g_i| + |fd_i|), or NaN when the loss or
    a gradient entry is not finite, so no threshold passes it.
    """
    params = np.asarray(params, dtype=np.float64)
    value, grad = f(params)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ShapeError(f"analytic gradient shape {grad.shape} does not match params {params.shape}")
    if not np.isfinite(value):
        return float("nan")
    errs = np.zeros(params.size)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + FD_STEP
        up, _ = f(bumped)
        bumped[i] = params[i] - FD_STEP
        down, _ = f(bumped)
        fd = (up - down) / (2.0 * FD_STEP)
        errs[i] = abs(grad[i] - fd) / max(1e-12, abs(grad[i]) + abs(fd))
    return float(np.max(errs, initial=0.0))    # np.max keeps a NaN, Python's max may drop it


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
