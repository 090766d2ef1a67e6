"""Exact ground-truth computations for small tabular tasks.

These are the oracles the learning code is tested against: full trajectory
distributions by brute-force enumeration, occupancy measures by forward
dynamic programming, Jensen-Shannon divergence, and a direct fixed-point
check for the finite-support discriminator objective.

A trajectory key is the complete tuple (s0, a0, s1, a1, ..., s_T) including
the final state.  For each key the policy-only factor q = prod pi(a_t | s_t)
and the dynamics-only factor xi = p0(s0) prod P(s_{t+1} | s_t, a_t) are kept
separately, so P(tau) = q * xi is checkable term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeError
from .envs import TabularMdp

__all__ = [
    "OccupancyTable",
    "TrajDistribution",
    "bce_from_enumeration",
    "enumerable",
    "exact_traj_distribution",
    "expected_return",
    "js_divergence",
    "js_between",
    "occupancy",
    "stage_marginals",
    "verify_lemma1",
]

ENUMERATION_BUDGET = 10_000_000


def _stage_policy(pi: np.ndarray, horizon: int) -> np.ndarray:
    """Broadcast a stationary (S, A) table to stage-indexed (T, S, A)."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim == 2:
        return np.broadcast_to(pi, (horizon, *pi.shape))
    if pi.ndim == 3:
        if pi.shape[0] != horizon:
            raise ShapeError(f"stage-indexed policy must have {horizon} stages, got {pi.shape[0]}")
        return pi
    raise ShapeError(f"policy table must be (S, A) or (T, S, A), got {pi.shape}")


@dataclass
class TrajDistribution:
    """Exact distribution over full trajectory keys of one policy."""

    horizon: int
    probs: dict[tuple, float]
    policy_factors: dict[tuple, float]
    dynamics_factors: dict[tuple, float]


def enumerable(mdp: TabularMdp) -> bool:
    """Whether |A|^T * S, the enumeration's size bound, is within the budget."""
    return mdp.n_actions ** mdp.horizon * mdp.n_states <= ENUMERATION_BUDGET


def exact_traj_distribution(mdp: TabularMdp, pi: np.ndarray) -> TrajDistribution:
    """Enumerate every positive-probability trajectory of the policy.

    The policy may be stationary (S, A) or stage-indexed (T, S, A).  Raises
    CapacityError when the MDP is not ``enumerable``.
    """
    if not enumerable(mdp):
        raise CapacityError(
            f"enumeration of {mdp.n_actions}^{mdp.horizon} action sequences over "
            f"{mdp.n_states} states exceeds the budget of {ENUMERATION_BUDGET}"
        )
    stage_pi = _stage_policy(pi, mdp.horizon)
    probs: dict[tuple, float] = {}
    q_fac: dict[tuple, float] = {}
    xi_fac: dict[tuple, float] = {}

    def descend(t: int, s: int, prefix: tuple, q: float, xi: float) -> None:
        if t == mdp.horizon:
            key = prefix + (s,)
            probs[key] = q * xi
            q_fac[key] = q
            xi_fac[key] = xi
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
    return TrajDistribution(horizon=mdp.horizon, probs=probs, policy_factors=q_fac, dynamics_factors=xi_fac)


def stage_marginals(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """State marginals d[t, s] under the policy, by forward DP."""
    stage_pi = _stage_policy(pi, mdp.horizon)
    d = np.zeros((mdp.horizon, mdp.n_states), dtype=np.float64)
    d[0] = mdp.start
    for t in range(mdp.horizon - 1):
        flow = d[t][:, None] * stage_pi[t]              # (S, A) mass per state-action
        d[t + 1] = np.einsum("sa,sap->p", flow, mdp.transitions)
    return d


@dataclass
class OccupancyTable:
    """Discount-weighted state and state-action visitation frequencies."""

    d_state: np.ndarray
    d_state_action: np.ndarray
    normalizer: float


def occupancy(mdp: TabularMdp, pi: np.ndarray) -> OccupancyTable:
    """d(s) = (1/Z) sum_t gamma^t d_t(s) with Z = sum_t gamma^t.

    For a stationary policy d(s, a) factorizes as d(s) pi(a | s); for a
    stage-indexed one the per-stage products are accumulated directly.
    """
    stage_pi = _stage_policy(pi, mdp.horizon)
    d = stage_marginals(mdp, pi)
    weights = mdp.gamma ** np.arange(mdp.horizon)
    z = float(weights.sum())
    d_state = (weights[:, None] * d).sum(axis=0) / z
    d_sa = np.einsum("t,ts,tsa->sa", weights, d, stage_pi) / z
    return OccupancyTable(d_state=d_state, d_state_action=d_sa, normalizer=z)


def expected_return(mdp: TabularMdp, pi: np.ndarray, discounted: bool = False) -> float:
    """Exact expected episode return sum_t gamma^t E[r] (gamma^0 if undiscounted)."""
    stage_pi = _stage_policy(pi, mdp.horizon)
    d = stage_marginals(mdp, pi)
    weights = mdp.gamma ** np.arange(mdp.horizon) if discounted else np.ones(mdp.horizon)
    return float(np.einsum("t,ts,tsa,sa->", weights, d, stage_pi, mdp.rewards))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats between aligned distributions.

    Zero entries contribute zero (0 log 0 = 0).  Symmetric, bounded by
    log 2, and zero exactly on identical inputs.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"supports must align, got {p.shape} vs {q.shape}")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("probabilities must be nonnegative")
    for name, vec in (("p", p), ("q", q)):
        if abs(vec.sum() - 1.0) > 1e-8:
            raise ValueError(f"{name} must sum to 1, got {vec.sum()!r}")
    m = 0.5 * (p + q)

    def half_kl(a):
        mask = a > 0.0
        return 0.5 * float(np.sum(a[mask] * (np.log(a[mask]) - np.log(m[mask]))))

    # near-equal inputs can round the two halves to a sum just below zero
    return max(0.0, half_kl(p) + half_kl(q))


def js_between(d1: TrajDistribution, d2: TrajDistribution) -> float:
    """JS divergence between two enumerated trajectory distributions."""
    keys = sorted(set(d1.probs) | set(d2.probs))
    p = np.array([d1.probs.get(k, 0.0) for k in keys])
    q = np.array([d2.probs.get(k, 0.0) for k in keys])
    return js_divergence(p, q)


def bce_from_enumeration(mdp: TabularMdp, learner_pi, generator_pi, expert_pi) -> float:
    """Exact expected two-sided cross entropy of the structured discriminator.

    Expert trajectories are scored with log D, generator trajectories with
    log(1 - D), where D is built from the learner/generator policy factors.
    All three expectations come from full enumeration; nothing is sampled.
    """
    d_e = exact_traj_distribution(mdp, expert_pi)
    d_g = exact_traj_distribution(mdp, generator_pi)
    d_l = exact_traj_distribution(mdp, learner_pi)
    loss = 0.0
    for key, p in d_e.probs.items():
        if p == 0.0:
            continue
        a = np.log(d_l.policy_factors[key])
        g = np.log(d_g.policy_factors[key])
        loss -= p * (a - np.logaddexp(a, g))
    for key, p in d_g.probs.items():
        if p == 0.0:
            continue
        a = np.log(d_l.policy_factors[key])
        g = np.log(d_g.policy_factors[key])
        loss -= p * (g - np.logaddexp(a, g))
    return float(loss)


def verify_lemma1(p_expert, p_generator, steps: int = 5000, lr: float = 0.1) -> float:
    """Fixed-point check for the discriminator objective on finite support.

    Parameterize a candidate distribution as softmax(z) and run plain
    gradient ascent on

        L = sum_i pE_i log(p_i / (p_i + pG_i)) + pG_i log(pG_i / (p_i + pG_i)).

    The maximizer is p = pE, so the returned L1 gap ||p - pE||_1 measures
    how sharply the objective pins the expert distribution.
    """
    p_e = np.asarray(p_expert, dtype=np.float64)
    p_g = np.asarray(p_generator, dtype=np.float64)
    if p_e.shape != p_g.shape or p_e.ndim != 1:
        raise ShapeError(f"supports must align, got {p_e.shape} vs {p_g.shape}")
    for name, vec in (("expert", p_e), ("generator", p_g)):
        if np.any(vec <= 0.0) or abs(vec.sum() - 1.0) > 1e-8:
            raise ValueError(f"{name} distribution must be strictly positive and sum to 1")
    z = np.zeros_like(p_e)
    for _ in range(steps):
        zs = z - z.max()
        p = np.exp(zs)
        p /= p.sum()
        dl_dp = p_e / p - (p_e + p_g) / (p + p_g)
        grad_z = p * (dl_dp - float(p @ dl_dp))
        z = z + lr * grad_z
    zs = z - z.max()
    p = np.exp(zs)
    p /= p.sum()
    return float(np.abs(p - p_e).sum())
