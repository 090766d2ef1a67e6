"""Stochastic policies over Mlp trunks.

Both policies share one gradient protocol used by the discriminator losses:

* ``log_prob_tape(obs, acts)`` runs a taped forward pass and returns
  per-sample log-probabilities,
* ``backprop_log_prob(tape, weights)`` backpropagates
  sum_i weights[i] * log pi(a_i | s_i) into a flat parameter gradient.

Log-probabilities are densities for the Gaussian case, so they can be
positive; everything downstream works in the log domain and never needs
them bounded.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import Mlp, log_softmax_rows

__all__ = [
    "CategoricalPolicy",
    "GaussianPolicy",
    "LOG_STD_MIN",
    "LOG_STD_MAX",
    "make_policy",
    "tabular_policy_extract",
]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class CategoricalPolicy:
    """Softmax over the net's output scores; one score per discrete action.

    ``sample`` memoises ``cdf`` per observation, for at most ``net.in_dim``
    observations (every state of a one-hot task) and only while the net's
    parameters stay the same.
    """

    action_kind = "discrete"

    def __init__(self, net: Mlp):
        self.net = net
        self.n_actions = net.out_dim
        self._cdfs: dict[bytes, np.ndarray] = {}
        self._cdfs_of = (None, -1)   # (net, parameter version) the memo belongs to

    @classmethod
    def init(cls, obs_dim: int, n_actions: int, hidden, rng: np.random.Generator) -> "CategoricalPolicy":
        return cls(Mlp.init((obs_dim, *hidden, n_actions), rng))

    def _check_actions(self, acts: np.ndarray) -> np.ndarray:
        acts = np.asarray(acts)
        if acts.dtype.kind not in "iu":
            acts = acts.astype(np.int64)
        if np.any(acts < 0) or np.any(acts >= self.n_actions):
            raise ValueError(f"actions must lie in [0, {self.n_actions})")
        return acts

    def log_probs(self, obs) -> np.ndarray:
        """Full log distribution: (A,) for one observation, (B, A) batched."""
        scores, _ = self.net.forward(obs)
        if scores.ndim == 1:
            return log_softmax_rows(scores[None, :])[0]
        return log_softmax_rows(scores)

    def log_prob(self, obs, action) -> float:
        a = int(action)
        if not 0 <= a < self.n_actions:
            raise ValueError(f"action {a} out of range [0, {self.n_actions})")
        return float(self.log_probs(obs)[a])

    def log_prob_batch(self, obs: np.ndarray, acts: np.ndarray) -> np.ndarray:
        acts = self._check_actions(acts)
        scores, _ = self.net.forward(obs)
        lp = log_softmax_rows(scores)
        return lp[np.arange(len(acts)), acts]

    def log_prob_tape(self, obs: np.ndarray, acts: np.ndarray):
        acts = self._check_actions(acts)
        scores, tape = self.net.forward(obs)
        lp = log_softmax_rows(scores)
        cache = (tape, np.exp(lp), acts)
        return lp[np.arange(len(acts)), acts], cache

    def backprop_log_prob(self, cache, weights: np.ndarray) -> np.ndarray:
        tape, probs, acts = cache
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(acts),):
            raise ShapeError(f"weights must have shape ({len(acts)},), got {weights.shape}")
        # d log softmax / d scores = onehot(a) - probs
        dy = -probs * weights[:, None]
        dy[np.arange(len(acts)), acts] += weights
        return self.net.backward(tape, dy)

    def cdf(self, obs) -> np.ndarray:
        """Cumulative action probabilities at one observation."""
        return np.cumsum(np.exp(self.log_probs(obs)))

    def sample(self, obs, rng: np.random.Generator) -> int:
        """Inverse-CDF draw from the softmax distribution."""
        obs = np.asarray(obs, dtype=np.float64)
        if self._cdfs_of != (self.net, self.net._version):
            self._cdfs = {}
            self._cdfs_of = (self.net, self.net._version)
        key = obs.tobytes()
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = self.cdf(obs)
            if len(self._cdfs) < self.net.in_dim:
                self._cdfs[key] = cdf
        return int(cdf.searchsorted(rng.random(), side="right"))

    def snapshot(self) -> "CategoricalPolicy":
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

    @classmethod
    def init(cls, obs_dim: int, act_dim: int, hidden, rng: np.random.Generator) -> "GaussianPolicy":
        return cls(Mlp.init((obs_dim, *hidden, 2 * act_dim), rng))

    def _heads(self, out: np.ndarray):
        mean = out[..., : self.act_dim]
        raw = out[..., self.act_dim :]
        return mean, raw, np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)

    def mean_std(self, obs):
        out, _ = self.net.forward(obs)
        mean, _, log_std = self._heads(out)
        return mean, np.exp(log_std)

    def _check_acts(self, acts: np.ndarray, n: int) -> np.ndarray:
        acts = np.asarray(acts, dtype=np.float64)
        if acts.shape != (n, self.act_dim):
            raise ShapeError(f"actions must have shape ({n}, {self.act_dim}), got {acts.shape}")
        return acts

    def log_prob(self, obs, action) -> float:
        obs = np.asarray(obs, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        lp, _ = self.log_prob_tape(obs[None, :], action[None, :])
        return float(lp[0])

    def log_prob_batch(self, obs: np.ndarray, acts: np.ndarray) -> np.ndarray:
        lp, _ = self.log_prob_tape(obs, acts)
        return lp

    def log_prob_tape(self, obs: np.ndarray, acts: np.ndarray):
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 2:
            raise ShapeError(f"observations must be (B, obs_dim), got {obs.shape}")
        acts = self._check_acts(acts, len(obs))
        out, tape = self.net.forward(obs)
        mean, raw, log_std = self._heads(out)
        std = np.exp(log_std)
        zscore = (acts - mean) / std
        lp = np.sum(-0.5 * zscore * zscore - log_std - _HALF_LOG_2PI, axis=1)
        cache = (tape, zscore, std, raw)
        return lp, cache

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

    def sample(self, obs, rng: np.random.Generator) -> np.ndarray:
        mean, std = self.mean_std(obs)
        return mean + std * rng.standard_normal(self.act_dim)

    def snapshot(self) -> "GaussianPolicy":
        return GaussianPolicy(self.net.copy())


def make_policy(env_spec, hidden, rng: np.random.Generator):
    """Fresh randomly initialized policy of the kind the environment needs."""
    if env_spec.action_kind == "discrete":
        return CategoricalPolicy.init(env_spec.obs_dim, env_spec.n_actions, hidden, rng)
    return GaussianPolicy.init(env_spec.obs_dim, env_spec.act_dim, hidden, rng)


def tabular_policy_extract(policy: CategoricalPolicy, n_states: int) -> np.ndarray:
    """Evaluate a categorical policy on every one-hot state: table (S, A).

    Rows are exact softmax outputs and sum to 1 up to float rounding.
    """
    if policy.net.in_dim != n_states:
        raise ShapeError(f"policy expects obs_dim {policy.net.in_dim}, not {n_states}")
    eye = np.eye(n_states, dtype=np.float64)
    return np.exp(policy.log_probs(eye))
