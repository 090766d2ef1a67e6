"""Exact ground-truth computations for small tabular tasks.

These are the oracles the learning code is tested against: full trajectory
distributions by brute-force enumeration, occupancy measures by forward
dynamic programming, Jensen-Shannon divergence, trajectory KL by stages and
the stationary table closest to a policy in it, and a direct fixed-point
check for the finite-support discriminator objective.

A trajectory key is the complete tuple (s0, a0, s1, a1, ..., s_T) including
the final state, and its probability is the policy-only factor
q = prod pi(a_t | s_t) times the dynamics-only factor
xi = p0(s0) prod P(s_{t+1} | s_t, a_t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeError
from .envs import TabularMdp

__all__ = [
    "OccupancyTable",
    "bce_from_enumeration",
    "enumerable",
    "exact_traj_distribution",
    "expected_return",
    "js_divergence",
    "js_between",
    "js_bound",
    "mle_projection",
    "occupancy",
    "stage_kl",
    "stage_marginals",
    "unroll",
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


def enumerable(mdp: TabularMdp) -> bool:
    """Whether |A|^T * S, the enumeration's size bound, is within the budget."""
    return mdp.n_actions ** mdp.horizon * mdp.n_states <= ENUMERATION_BUDGET


def exact_traj_distribution(mdp: TabularMdp, pi: np.ndarray) -> dict[tuple, float]:
    """Enumerate every positive-probability trajectory of the policy: the
    map from each trajectory key to its probability q * xi.

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

    def descend(t: int, s: int, prefix: tuple, q: float, xi: float) -> None:
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


def stage_marginals(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """State marginals d[t, s] of the episodes still running at step t, by
    forward DP: mass that enters a terminal state leaves, so with terminal
    states a later row sums to less than 1."""
    stage_pi = _stage_policy(pi, mdp.horizon)
    d = np.zeros((mdp.horizon, mdp.n_states), dtype=np.float64)
    d[0] = mdp.start
    for t in range(mdp.horizon - 1):
        flow = d[t][:, None] * stage_pi[t]              # (S, A) mass per state-action
        d[t + 1] = np.einsum("sa,sap->p", flow, mdp.transitions)
        d[t + 1, mdp.terminal_mask] = 0.0
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
    ``d_t`` holds only running episodes (``stage_marginals``) and Z stays
    sum_t gamma^t, so with terminal states the totals fall below 1.
    """
    stage_pi = _stage_policy(pi, mdp.horizon)
    d = stage_marginals(mdp, pi)
    weights = mdp.gamma ** np.arange(mdp.horizon)
    z = float(weights.sum())
    d_state = (weights[:, None] * d).sum(axis=0) / z
    d_sa = np.einsum("t,ts,tsa->sa", weights, d, stage_pi) / z
    return OccupancyTable(d_state=d_state, d_state_action=d_sa, normalizer=z)


def expected_return(mdp: TabularMdp, pi: np.ndarray) -> float:
    """Exact expected undiscounted episode return sum_t E[r_t]."""
    return float(np.einsum("ts,tsa,sa->", stage_marginals(mdp, pi), _stage_policy(pi, mdp.horizon), mdp.rewards))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats between aligned distributions.

    Zero entries contribute zero (0 log 0 = 0).  Symmetric, bounded by
    log 2, and zero exactly on identical inputs.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeError(f"supports must align, got {p.shape} vs {q.shape}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):   # NaN passes every check below
        raise ValueError("probabilities must be finite")
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


def js_between(d1: dict[tuple, float], d2: dict[tuple, float]) -> float:
    """JS divergence between two enumerated trajectory distributions."""
    keys = sorted(set(d1) | set(d2))
    p = np.array([d1.get(k, 0.0) for k in keys])
    q = np.array([d2.get(k, 0.0) for k in keys])
    return js_divergence(p, q)


def stage_kl(mdp: TabularMdp, p_pi, q_pi) -> float:
    """KL(P‖Q) in nats between the trajectory distributions of two policy
    tables, each stationary (S, A) or stage-indexed (T, S, A), with no
    enumeration.  The dynamics factors cancel, so it is

        sum_t sum_s d_t(s) KL(p_t(.|s) ‖ q_t(.|s)),

    d_t the stage marginals of P's running episodes.  It is infinite where Q
    gives no mass to an action P takes; a sum that rounds below zero, as at
    P = Q up to rounding, is reported as 0, as ``js_divergence`` does.
    """
    p, q = _stage_policy(p_pi, mdp.horizon), _stage_policy(q_pi, mdp.horizon)
    if p.shape != (mdp.horizon, mdp.n_states, mdp.n_actions) or q.shape != p.shape:
        raise ShapeError(f"policy tables {p.shape} and {q.shape} do not fit {mdp.n_states} states, "
                         f"{mdp.n_actions} actions")
    if not (np.isfinite(p).all() and np.isfinite(q).all()) or (p < 0.0).any() or (q < 0.0).any():
        raise ValueError("policy tables must be finite and nonnegative")
    flow = stage_marginals(mdp, p)[:, :, None] * p      # P's mass on each (t, s, a)
    on = flow > 0.0
    with np.errstate(divide="ignore"):
        return max(0.0, float(np.sum(flow[on] * (np.log(p[on]) - np.log(q[on])))))


def js_bound(mdp: TabularMdp, p_pi, q_pi) -> float:
    """(KL(P‖Q) + KL(Q‖P)) / 4 by ``stage_kl``, an upper bound on JS(P, Q):
    KL(P‖M) <= KL(P‖Q) / 2 for M = (P + Q) / 2, as KL is convex in its
    second argument, and likewise for Q."""
    return (stage_kl(mdp, p_pi, q_pi) + stage_kl(mdp, q_pi, p_pi)) / 4.0


def mle_projection(mdp: TabularMdp, pi) -> np.ndarray:
    """The stationary (S, A) table L that minimises ``stage_kl(mdp, pi, L)``,
    the maximum-likelihood fit to ``pi``'s episodes: ``pi``'s undiscounted
    state-action occupancy of running episodes, normalised per state, and
    uniform on a state no running episode visits."""
    flow = np.einsum("ts,tsa->sa", stage_marginals(mdp, pi), _stage_policy(pi, mdp.horizon))
    mass = flow.sum(axis=1, keepdims=True)
    return np.divide(flow, mass, out=np.full_like(flow, 1.0 / mdp.n_actions), where=mass > 0.0)


def unroll(mdp: TabularMdp) -> TabularMdp:
    """The MDP on stage-state pairs: state t * S + s is state s of ``mdp`` at
    stage t = 0..T, and an action moves (t, s) to (t + 1, s') as ``mdp`` moves
    s to s'.  Stage T and every (t, g) of a terminal g are absorbing with zero
    reward, and each (t, g) is terminal, so a stage-indexed table of ``mdp``
    is a stationary one here, with the same trajectory distribution once each
    state id is read modulo S."""
    n, t_max = mdp.n_states, mdp.horizon
    size = (t_max + 1) * n
    p, r, start = np.zeros((size, mdp.n_actions, size)), np.zeros((size, mdp.n_actions)), np.zeros(size)
    for t in range(t_max):
        p[t * n:(t + 1) * n, :, (t + 1) * n:(t + 2) * n] = mdp.transitions
        r[t * n:(t + 1) * n] = mdp.rewards
    terminal = [t * n + g for t in range(t_max + 1) for g in mdp.terminal]
    absorbing = terminal + list(range(t_max * n, size))
    p[absorbing], r[absorbing] = 0.0, 0.0
    p[absorbing, :, absorbing] = 1.0
    start[:n] = mdp.start
    return TabularMdp(transitions=p, start=start, rewards=r, horizon=t_max, gamma=mdp.gamma, terminal=tuple(terminal))


def bce_from_enumeration(mdp: TabularMdp, learner_pi, generator_pi, expert_pi) -> float:
    """Exact expected two-sided cross entropy of the structured discriminator.

    Expert trajectories are scored with log D, generator trajectories with
    log(1 - D), where D is built from the learner/generator policy factors,
    read from their tables along each key.  Both expectations come from full
    enumeration; nothing is sampled.  A learner zero on an expert key makes
    the loss +inf, whatever the generator gives that key; a generator zero
    on an expert key, or a learner zero on a generator key, is a 0 term.
    """
    tables = _stage_policy(learner_pi, mdp.horizon), _stage_policy(generator_pi, mdp.horizon)
    loss = 0.0
    for side, pi in enumerate((expert_pi, generator_pi)):   # log D on expert keys, then log(1 - D) on generator keys
        for key, p in exact_traj_distribution(mdp, pi).items():
            if p == 0.0:
                continue
            q = [1.0, 1.0]          # learner's and generator's prod pi(a_t | s_t), in the enumeration's order
            for t, (state, action) in enumerate(zip(key[:-1:2], key[1::2])):
                q = [f * table[t, state, action] for f, table in zip(q, tables)]
            if q[side] == 0.0:      # a learner zero on an expert key: log D = -inf
                return float("inf")
            if q[1 - side] == 0.0:  # the other side's zero: log D or log(1 - D) is 0
                continue
            a, g = np.log(q[0]), np.log(q[1])
            loss -= p * ((a, g)[side] - np.logaddexp(a, g))
    return float(loss)


def verify_lemma1(p_expert, p_generator) -> float:
    """Fixed-point check for the discriminator objective on finite support.

    Parameterize a candidate distribution as softmax(z) and run 5,000 steps
    of plain gradient ascent at rate 0.1 on

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
    for step in range(5001):
        p = np.exp(z - z.max())
        p /= p.sum()
        if step == 5000:
            return float(np.abs(p - p_e).sum())
        dl_dp = p_e / p - (p_e + p_g) / (p + p_g)
        z = z + 0.1 * (p * (dl_dp - float(p @ dl_dp)))
