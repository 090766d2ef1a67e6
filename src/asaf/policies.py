"""Stochastic policies over Mlp trunks.

Both policies share one gradient protocol used by the discriminator losses:

* ``log_prob_tape(obs, acts, split=None)`` runs one taped forward pass and
  returns per-sample log-probabilities; ``split`` cuts the rows into two
  blocks, the two sides of a loss, each with the bits a tape of its own gives,
* ``backprop_log_prob(cache, weights)`` backpropagates
  sum_i weights[i] * log pi(a_i | s_i) into a flat parameter gradient in one
  backward pass, each row block summed on its own.

They also share one sampling protocol: ``draws`` names the ``Generator``
method and the count of numbers one action takes, and ``act(obs, noise, t)``
maps observation rows, their drawn noise and the step index to actions (a
stationary policy ignores ``t``).  ``sample(obs, rng)`` is a convenience of
the learned policies that wraps ``act`` for one observation.

Log-probabilities are densities for the Gaussian case, so they can be
positive; everything downstream works in the log domain and never needs
them bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import one_hot
from .errors import NumericalError, ShapeError, UnsupportedError
from .nn import GradTape, Mlp, log_softmax_rows, row_blocks

__all__ = [
    "CategoricalPolicy",
    "GaussianPolicy",
    "LOG_STD_MIN",
    "LOG_STD_MAX",
    "make_policy",
    "one_hot_rows",
    "tabular_policy_extract",
]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class _Evaluation:
    """One evaluation of a net on a set of rows, at one parameter version."""

    net: Mlp
    version: int
    tape: GradTape
    scores: np.ndarray  # (R, A) raw net outputs
    logp: np.ndarray    # (R, A) log-probabilities, log softmax of the scores
    probs: np.ndarray   # (R, A) probabilities, exp(logp)


def _evaluate(net: Mlp, rows: np.ndarray, split: int | None = None) -> _Evaluation:
    scores, tape = net.forward(rows, split)
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite net scores")
    logp = log_softmax_rows(scores)
    return _Evaluation(net, net._version, tape, scores, logp, np.exp(logp))


def one_hot_rows(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax, and whether each row is its argmax's identity row (a mask of one for one row)."""
    states = obs.argmax(axis=-1)
    return states, np.atleast_1d((obs == one_hot(states, obs.shape[-1])).all(axis=-1))


class CategoricalPolicy:
    """Softmax over the net's output scores; one score per discrete action.

    Every read goes through one evaluation record and a row index into it.
    When every input row is exactly one-hot (one entry 1, the rest 0), the
    rows are states, and the record is the state table: one evaluation of
    the net on all ``S = net.in_dim`` states, made once per parameter
    version and shared by every log-prob, action and gradient tape of that
    version.  Any other input is evaluated afresh on its own rows.
    A tape codes each (row, action) pair once, ``row * A + action``;
    ``score_grad`` adds the row weights per code and per row, each row block
    on its own and the blocks' sums then added, so two sides that read one
    state table cancel exactly where their weights do; ``backprop_log_prob``
    runs one backward of that.  ``table_tape`` reads checked states.
    """

    action_kind = "discrete"
    draws = ("random", 1)   # one uniform per action
    _normalized = True      # the learner protocol reads log pi, not raw scores

    def __init__(self, net: Mlp):
        self.net = net
        self.n_actions = net.out_dim
        self._memo: _Evaluation | None = None

    @classmethod
    def init(cls, obs_dim: int, n_actions: int, hidden, rng: np.random.Generator) -> "CategoricalPolicy":
        return cls(Mlp.init((obs_dim, *hidden, n_actions), rng))

    def _table(self) -> _Evaluation:
        """The state table of the net's current parameters, built on first use."""
        net, memo = self.net, self._memo
        if memo is None or memo.net is not net or memo.version != net._version:
            memo = self._memo = _evaluate(net, one_hot(slice(None), net.in_dim))
        return memo

    def _states(self, obs: np.ndarray) -> np.ndarray | None:
        """The state of each row when every row is exactly one-hot, else None."""
        if obs.ndim not in (1, 2) or obs.shape[-1] != self.net.in_dim:
            return None
        states, hot = one_hot_rows(obs)
        return states if hot.all() else None

    def _read(self, obs: np.ndarray, split: int | None = None) -> tuple[_Evaluation, np.ndarray]:
        """The evaluation holding the rows of ``obs`` and each row's index in it: the
        state table when every row is one-hot, else the rows evaluated afresh, cut at ``split``."""
        if (states := self._states(obs)) is not None:
            return self._table(), states
        rows = np.atleast_2d(obs)
        return _evaluate(self.net, rows, split), np.arange(len(rows)).reshape(obs.shape[:-1])

    def _checked(self, obs, acts) -> tuple[np.ndarray, np.ndarray]:
        """``obs`` as an array and ``acts`` as int64, checked to be one integer in [0, A) per row."""
        obs, acts = np.asarray(obs), np.asarray(acts)
        if acts.ndim != 1 or not (acts.dtype.kind in "iu" or np.array_equal(acts, np.round(acts))):
            raise UnsupportedError(f"discrete actions must be a 1-D array of integers, got {acts.dtype} {acts.shape}")
        if np.any(acts < 0) or np.any(acts >= self.n_actions):
            raise ValueError(f"actions must lie in [0, {self.n_actions})")
        if obs.shape[:-1] != acts.shape:
            raise ShapeError(f"need one action per observation row, got {acts.shape} for {obs.shape}")
        return obs, acts.astype(np.int64, copy=False)

    def log_probs(self, obs) -> np.ndarray:
        """Full log distribution: (A,) for one observation, (B, A) batched."""
        ev, rows = self._read(np.asarray(obs))
        return np.take(ev.logp, rows, axis=0)

    def log_prob_batch(self, obs: np.ndarray, acts: np.ndarray) -> np.ndarray:
        return self.log_prob_tape(obs, acts)[0]

    def index(self, obs, acts) -> tuple[np.ndarray | None, np.ndarray]:
        """Each row's state (None unless every row is one-hot) and the checked actions."""
        obs, acts = self._checked(obs, acts)
        return self._states(obs), acts

    def log_prob_tape(self, obs: np.ndarray, acts: np.ndarray, split: int | None = None):
        obs, acts = self._checked(obs, acts)
        ev, rows = self._read(obs, split)
        return self.table_tape(rows, acts, split, ev)

    def table_tape(self, rows: np.ndarray, acts: np.ndarray, split: int | None = None, ev: _Evaluation | None = None):
        """``log_prob_tape`` by (row, action) index into ``ev``, the state table
        by default, unchecked: each pair read by its flat code."""
        ev, codes = ev or self._table(), rows * self.n_actions + acts
        return (ev.logp if self._normalized else ev.scores).ravel()[codes], (ev, rows, codes, split)

    def backprop_log_prob(self, cache, weights: np.ndarray) -> np.ndarray:
        return self.net.backward(cache[0].tape, self.score_grad(cache, weights))

    def score_grad(self, cache, weights: np.ndarray) -> np.ndarray:
        """d(sum_i weights[i] * lp_i) / d(cached scores), lp as ``log_prob_tape`` reads it."""
        ev, rows, codes, split = cache
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(codes),):
            raise ShapeError(f"weights must have shape ({len(codes)},), got {weights.shape}")
        # the weights of a block's rows that read one evaluated row add up onto it
        dy = None
        for b in row_blocks(split):
            d = np.bincount(codes[b], weights[b], minlength=ev.probs.size).reshape(ev.probs.shape)
            if self._normalized:    # d log softmax / d scores = onehot(a) - probs, per row
                d -= ev.probs * np.bincount(rows[b], weights[b], minlength=len(ev.probs))[:, None]
            dy = d if dy is None else np.add(dy, d, out=dy)
        return dy

    def act(self, obs, u: np.ndarray, t: int) -> np.ndarray:
        """Inverse-CDF draws for (B, obs_dim) rows and (B, 1) uniforms, at any step: the count of the first
        A - 1 CDF entries <= u, as a raw cumulative sum can end below a legal uniform (a full count gives A)."""
        ev, rows = self._read(np.asarray(obs))
        return (np.take(ev.probs[:, :-1], rows, axis=0).cumsum(axis=-1) <= u).sum(axis=-1)

    def sample(self, obs, rng: np.random.Generator) -> int:
        """Inverse-CDF draw from the softmax distribution."""
        return int(self.act(obs, rng.random(1), 0))

    def snapshot(self) -> "CategoricalPolicy":
        """A frozen copy of the softmax policy, always a plain ``CategoricalPolicy``."""
        return CategoricalPolicy(self.net.copy())


class GaussianPolicy:
    """Diagonal Gaussian: the net emits (mean, log-std) per action dim.

    Log-stds are clamped to [LOG_STD_MIN, LOG_STD_MAX] in the forward pass;
    saturated dims get zero gradient.  Samples are mean + std * zeta with no
    squashing, so the density is the plain Gaussian one.
    """

    action_kind = "continuous"

    def __init__(self, net: Mlp):
        if net.out_dim % 2 != 0:
            raise ShapeError(f"net output dim must be even (mean, log-std pairs), got {net.out_dim}")
        self.net = net
        self.act_dim = net.out_dim // 2
        self.draws = ("standard_normal", self.act_dim)

    @classmethod
    def init(cls, obs_dim: int, act_dim: int, hidden, rng: np.random.Generator) -> "GaussianPolicy":
        return cls(Mlp.init((obs_dim, *hidden, 2 * act_dim), rng))

    def _heads(self, out: np.ndarray):
        mean = out[..., : self.act_dim]
        raw = out[..., self.act_dim :]
        return mean, raw, np.minimum(np.maximum(raw, LOG_STD_MIN), LOG_STD_MAX)

    def mean_std(self, obs):
        out, _ = self.net.forward(obs)
        mean, _, log_std = self._heads(out)
        return mean, np.exp(log_std)

    def _check_acts(self, acts: np.ndarray, n: int) -> np.ndarray:
        acts = np.asarray(acts, dtype=np.float64)
        if acts.shape != (n, self.act_dim):
            raise ShapeError(f"actions must have shape ({n}, {self.act_dim}), got {acts.shape}")
        return acts

    def log_prob_batch(self, obs: np.ndarray, acts: np.ndarray) -> np.ndarray:
        lp, _ = self.log_prob_tape(obs, acts)
        return lp

    def log_prob_tape(self, obs: np.ndarray, acts: np.ndarray, split: int | None = None):
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2:
            raise ShapeError(f"observations must be (B, obs_dim), got {obs.shape}")
        acts = self._check_acts(acts, len(obs))
        out, tape = self.net.forward(obs, split)
        mean, raw, log_std = self._heads(out)
        std = np.exp(log_std)
        zscore = (acts - mean) / std
        lp = np.multiply(zscore, -0.5)   # -0.5 * z * z - log_std - log(2 pi) / 2, in place
        lp *= zscore
        lp -= log_std
        lp -= _HALF_LOG_2PI
        return np.add.reduce(lp, axis=1), (tape, zscore, std, raw)

    def backprop_log_prob(self, cache, weights: np.ndarray) -> np.ndarray:
        tape, zscore, std, raw = cache
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(zscore),):
            raise ShapeError(f"weights must have shape ({len(zscore)},), got {weights.shape}")
        d_mean = zscore / std
        d_log_std = zscore * zscore - 1.0
        active = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
        dy = np.concatenate([d_mean, d_log_std * active], axis=1) * weights[:, None]
        return self.net.backward(tape, dy)

    def act(self, obs, z: np.ndarray, t: int) -> np.ndarray:
        """mean + std * z for (B, obs_dim) rows and (B, act_dim) normals, each row on its own, at any step."""
        mean, _, log_std = self._heads(self.net.forward_rows(obs))
        return mean + np.exp(log_std) * z

    def sample(self, obs, rng: np.random.Generator) -> np.ndarray:
        return self.act(np.reshape(obs, (1, -1)), rng.standard_normal((1, self.act_dim)), 0)[0]

    def snapshot(self) -> "GaussianPolicy":
        return GaussianPolicy(self.net.copy())


def make_policy(env_spec, hidden, rng: np.random.Generator):
    """Fresh randomly initialized policy of the kind the environment needs."""
    if env_spec.action_kind == "discrete":
        return CategoricalPolicy.init(env_spec.obs_dim, env_spec.n_actions, hidden, rng)
    return GaussianPolicy.init(env_spec.obs_dim, env_spec.act_dim, hidden, rng)


def tabular_policy_extract(policy: CategoricalPolicy, n_states: int) -> np.ndarray:
    """A copy of the policy's state table, its softmax on every one-hot state: (S, A),
    rows exact softmax outputs that sum to 1 up to float rounding."""
    if policy.net.in_dim != n_states:
        raise ShapeError(f"policy expects obs_dim {policy.net.in_dim}, not {n_states}")
    return policy._table().probs.copy()
