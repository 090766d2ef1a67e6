"""Desk-scale environments and exact soft-optimal experts.

Two environment families are shipped:

* ``tabular``: any finite MDP given by its tables, with optional terminal
  states; the named instances are a 4-state chain (:func:`chain_spec`) and a
  5x5 maze with step cost -1, a +10 goal bonus and a terminal goal
  (:func:`gridworld_spec`),
* ``pointmass``: a 1-D continuous-control task with quadratic state cost.

An environment is its spec.  ``TabularSpec`` and ``PointMassSpec`` hold no
episode state; each answers three pure methods:

* ``reset(u) -> state``: the start state of the episode's first uniform
  ``u`` (one start state per entry of an array of uniforms),
* ``observe(states) -> obs``: the observation of a state, or one row per
  state of an array,
* ``step_rows(states, actions, u) -> (states, rewards, terminal flags)``:
  one transition of an array of states, given the random numbers the step
  draws beforehand (``draws``: the ``Generator`` method and the count per
  step), refusing an action outside the action space (on a tabular task,
  any action that is not an integer in ``[0, A)``).

:func:`rollout` is the one episode loop.  It steps k episodes together, one
policy ``act`` and one ``step_rows`` per time step, until the horizon or a
step into a terminal state.  Each episode first draws all its noise in the
order stepping it alone would: the reset's uniform, then for each of the
``horizon`` steps the policy's draws before the step's.  When the steps
draw uniforms too, a generator draws all its episodes' numbers in one
call, the same stream; a policy that draws normals takes one uniform call
and one normal call per episode.  A policy declares its draws as ``draws``
and acts through ``act(obs, noise, t)``, given the step index ``t``, which
only a stage-indexed expert reads.

Discrete environments expose one-hot observations so the same network code
serves tabular and continuous tasks.  Experts are exact: stage-indexed soft
value iteration for discrete tasks and a scripted proportional controller
for the point mass.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UnsupportedError, ValidationError, check_count
from .nn import logsumexp_rows

__all__ = [
    "ENVS",
    "EXPERT_ALPHA",
    "EnvSpec",
    "PackedWindows",
    "PointMassSpec",
    "ScriptedPointMassPolicy",
    "SoftExpertPolicy",
    "SoftQTable",
    "TabularMdp",
    "TabularSpec",
    "chain_spec",
    "env_by_id",
    "gridworld_mdp",
    "gridworld_spec",
    "one_hot",
    "rollout",
    "soft_value_iteration",
    "soft_vi_alpha",
    "soft_vi_name",
    "window_rows",
]

_ATOL = 1e-9

EXPERT_ALPHA = 1.0    # gen-expert's temperature; js_to_expert's when the demos name none


def soft_vi_name(alpha: float) -> str:
    """The ``generator`` name of demos of the soft-VI expert at temperature ``alpha``."""
    return f"soft_vi(alpha={alpha})"


def soft_vi_alpha(generator: str) -> float:
    """The temperature x of demos named ``soft_vi_name(x)`` if finite and positive, else ``EXPERT_ALPHA``."""
    try:
        alpha = float(re.fullmatch(r"soft_vi\(alpha=(.+)\)", generator)[1])
    except (TypeError, ValueError):     # no match, or no real
        return EXPERT_ALPHA
    return alpha if np.isfinite(alpha) and alpha > 0.0 else EXPERT_ALPHA


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The read-only (n, n) identity, built once per n: every one-hot state row, in state order."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def one_hot(i, n: int) -> np.ndarray:
    """Row i of the cached read-only n x n identity (a view; ``slice(None)``
    gives every state's row), or one fresh row per index of an array."""
    return _identity(n)[i]


@dataclass
class TabularMdp:
    """Finite MDP: transition tensor P[s, a, s'], start dist p0, rewards r[s, a].

    The horizon is the longest episode.  An episode also ends on entering a
    ``terminal`` state, which must be absorbing with zero reward; the
    oracles end it there too: an enumerated trajectory stops at that state,
    and the stage marginals drop its mass from the next step on.

    ``start_cdf`` and ``transition_cdf`` are the sampling CDFs of p0 and of
    every row of P, each a cumulative sum divided by its last entry, the same
    CDF ``Generator.choice`` builds on every call; ``terminal_mask`` marks the
    terminal states.
    """

    transitions: np.ndarray
    start: np.ndarray
    rewards: np.ndarray
    horizon: int
    gamma: float = 1.0
    terminal: tuple[int, ...] = ()
    start_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    transition_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    terminal_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.start = np.asarray(self.start, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.validate()
        self.start_cdf = np.cumsum(self.start)
        self.start_cdf /= self.start_cdf[-1]
        self.transition_cdf = np.cumsum(self.transitions, axis=2)
        self.transition_cdf /= self.transition_cdf[..., -1:]
        self.terminal_mask = np.zeros(self.n_states, dtype=bool)
        self.terminal_mask[list(self.terminal)] = True

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    def validate(self) -> None:
        p, p0, r = self.transitions, self.start, self.rewards
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ShapeError(f"transitions must be (S, A, S), got {p.shape}")
        s, a = p.shape[0], p.shape[1]
        if p0.shape != (s,):
            raise ShapeError(f"start distribution must be ({s},), got {p0.shape}")
        if r.shape != (s, a):
            raise ShapeError(f"rewards must be ({s}, {a}), got {r.shape}")
        if np.any(p < -_ATOL) or np.any(p0 < -_ATOL):
            raise ValidationError("negative probabilities")
        rows = p.sum(axis=2)
        if np.max(np.abs(rows - 1.0)) > _ATOL:
            raise ValidationError(f"transition rows must sum to 1 within {_ATOL}")
        if abs(p0.sum() - 1.0) > _ATOL:
            raise ValidationError(f"start distribution must sum to 1 within {_ATOL}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValidationError(f"gamma must lie in [0, 1], got {self.gamma}")
        check_count("horizon", self.horizon, 1)
        for g in self.terminal:
            if not (isinstance(g, (int, np.integer)) and 0 <= g < s):
                raise ValidationError(f"terminal state {g!r} is not a state in [0, {s})")
            if np.any(np.abs(p[g, :, g] - 1.0) > _ATOL) or np.any(r[g] != 0.0):
                raise ValidationError(f"terminal state {g} must be absorbing with zero reward")


@dataclass
class SoftQTable:
    """Stage-indexed soft action values q[t, s, a] for t in 0..T-1, at the
    temperature ``alpha``; ``policy_table()[t]`` is the stage-t expert."""

    q: np.ndarray
    alpha: float

    def policy_table(self) -> np.ndarray:
        """The maximum-entropy action distribution exp((q - v) / alpha) of
        every stage and state, shape (T, S, A)."""
        z = self.q / self.alpha
        z = z - z.max(axis=2, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=2, keepdims=True)

    def greedy_table(self) -> np.ndarray:
        """Argmax action per (t, s)."""
        return np.argmax(self.q, axis=2)


def soft_value_iteration(mdp: TabularMdp, alpha: float) -> SoftQTable:
    """Finite-horizon soft backup with terminal value zero.

    q[t] = r + gamma * P v[t+1] and v[t] = alpha * logsumexp(q[t] / alpha),
    swept backwards from the horizon.  alpha is the entropy temperature; the
    matching stochastic expert is softmax(q / alpha) per stage.
    """
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValidationError(f"alpha must be finite and positive, got {alpha}")
    t_max = mdp.horizon
    q = np.zeros((t_max, mdp.n_states, mdp.n_actions), dtype=np.float64)
    v_next = np.zeros(mdp.n_states, dtype=np.float64)
    for t in range(t_max - 1, -1, -1):
        q[t] = mdp.rewards + mdp.gamma * (mdp.transitions @ v_next)
        v_next = alpha * logsumexp_rows(q[t] / alpha)
    return SoftQTable(q=q, alpha=alpha)


def window_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows of windows that begin at rows ``starts`` and run ``lengths``
    steps, in window order: row r of the windows packed back to back comes
    from row r + (its window's start - the window's new start)."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


@dataclass
class PackedWindows:
    """Episodes, windows of them, or single transitions, back to back: the
    one layout that rollouts, demos and every loss share.

    ``obs`` holds one (obs_dim,) float64 row per step, ``acts`` the action
    taken (int for discrete tasks, an (act_dim,) float row for continuous
    ones), and ``lengths`` the steps of each window (one window of every row
    by default); the windows lie back to back, so ``starts``, each window's
    first row, is derived from ``lengths`` when first read and kept (a pack's
    ``lengths`` are set once, by the constructor, which holds them to whole
    numbers >= 0 that add up to the rows).  ``take`` and ``span`` select from a checked pack without
    checking again, and a span carries its slice of the parent's ``starts``.
    ``len`` counts steps and ``n_windows`` windows.  Rewards are
    deliberately absent; only evaluation and expert generation ever look at
    the reward channel.

    ``segment_sum`` (reduceat over ``starts``) and ``per_step`` (repeat by
    ``lengths``) return their input on one-step windows, bitwise the same.
    ``gen_logp`` caches the frozen generator's per-window log-likelihood,
    refreshed whenever the generator changes.  ``states``, from
    ``CategoricalPolicy.index``, lets the losses read a state table by index;
    such a pack may hold no ``obs`` (None), as ``train``'s pools do.
    """

    obs: np.ndarray | None
    acts: np.ndarray
    lengths: np.ndarray | None = None
    gen_logp: np.ndarray | None = None
    states: np.ndarray | None = None
    _ROWS = ("obs", "acts", "states")      # the per-step fields, selected by row
    _WINDOWS = ("lengths", "gen_logp")     # the per-window fields, selected by window

    def __post_init__(self):
        self.acts = np.asarray(self.acts)
        if self.obs is not None:
            self.obs = np.asarray(self.obs, dtype=np.float64)
            if self.obs.ndim != 2 or len(self.obs) != len(self.acts):
                raise ShapeError(f"need one observation row per action, got {self.obs.shape} for {len(self.acts)}")
        given = np.array([len(self.acts)]) if self.lengths is None else np.asarray(self.lengths)
        self.lengths = lengths = given.astype(np.int64, copy=False)
        if (lengths.ndim != 1 or lengths.sum() != len(self.acts) or (len(lengths) and lengths.min() < 0)
                or (given.dtype.kind not in "iu" and not np.array_equal(lengths, given))):
            raise ShapeError(f"window lengths {given} are not whole numbers >= 0 adding up to {len(self.acts)} steps")

    def __len__(self) -> int:
        return len(self.acts)

    @property
    def n_windows(self) -> int:
        return len(self.lengths)

    @property
    def starts(self) -> np.ndarray:
        """Each window's first row, ``cumsum(lengths) - lengths``, derived on first read."""
        if "_starts" not in vars(self):
            self._starts = np.cumsum(self.lengths) - self.lengths
        return self._starts

    def segment_sum(self, per_step: np.ndarray) -> np.ndarray:
        return per_step if len(self.lengths) == len(self.acts) else np.add.reduceat(per_step, self.starts)

    def per_step(self, per_window: np.ndarray) -> np.ndarray:
        return per_window if len(self.lengths) == len(self.acts) else np.repeat(per_window, self.lengths)

    def log_prob_tape(self, policy, split: int | None = None):
        """``policy.log_prob_tape`` of the packed steps, cut into two row blocks
        at ``split`` if given, read by state index when the pack has one."""
        if self.states is None:
            return policy.log_prob_tape(self.obs, self.acts, split)
        return policy.table_tape(self.states, self.acts, split)

    def take(self, idx: np.ndarray) -> "PackedWindows":
        """Windows ``idx`` (repeats allowed) packed in that order, gathered in
        one indexing pass by ``window_rows``."""
        idx = np.asarray(idx)
        return self._select(window_rows(self.starts[idx], self.lengths[idx]), idx)

    def span(self, lo: int, hi: int) -> "PackedWindows":
        """Windows ``lo:hi``, bitwise what ``take`` of them gives, with their
        rows sliced and their slice of ``starts``.  A span of every window is
        the pack itself; one of no window (``lo >= hi``) is empty."""
        n, starts = len(self.lengths), self.starts
        hi = min(hi, n)
        if lo == 0 and hi == n:
            return self
        end = starts[hi] if hi < n else len(self.acts)
        first = starts[lo] if lo < hi else end
        return self._select(slice(first, end), slice(lo, hi), starts[lo:hi] - first)

    def episodes(self) -> list["PackedWindows"]:
        """One pack per window."""
        return [self.span(i, i + 1) for i in range(len(self.lengths))]

    def _select(self, rows, windows, starts: np.ndarray | None = None) -> "PackedWindows":
        """Each per-step field at ``rows`` and each per-window one at
        ``windows``; a field the pack lacks (None) stays None.  The
        constructor's checks are not run again: a selection of a checked
        pack holds one row per step and lengths that add up to its rows."""
        fields, out = vars(self), object.__new__(PackedWindows)
        picked = vars(out)
        for names, at in ((self._ROWS, rows), (self._WINDOWS, windows)):
            for name in names:
                picked[name] = None if (v := fields[name]) is None else v[at]
        if starts is not None:
            picked["_starts"] = starts
        return out


@dataclass
class TabularSpec:
    """Environment spec wrapping a TabularMdp.  Its exact expert is soft
    value iteration on the MDP; training tracks it at the demos' temperature."""

    mdp: TabularMdp
    env_id: str = "tabular"
    action_kind: str = field(init=False, default="discrete")
    draws = ("random", 1)

    @property
    def obs_dim(self) -> int:
        return self.mdp.n_states

    @property
    def n_actions(self) -> int:
        return self.mdp.n_actions

    @property
    def horizon(self) -> int:
        return self.mdp.horizon

    def reset(self, u):
        """The start state of the uniform u by inverse CDF of p0, the draw
        ``Generator.choice`` makes from it; an array of uniforms gives an
        array of states."""
        s = self.mdp.start_cdf.searchsorted(u, side="right")
        return int(s) if np.ndim(s) == 0 else s

    def observe(self, state) -> np.ndarray:
        return one_hot(state, self.mdp.n_states)

    def step_rows(self, states: np.ndarray, acts, u: np.ndarray):
        """(next states, rewards, terminal flags) of (k,) states and actions,
        next state i drawn by inverse CDF from the uniform u[i, 0]."""
        a = np.asarray(acts)
        ok = (a >= 0) & (a < self.mdp.n_actions)
        if a.dtype.kind not in "iu":    # only a non-integer array can hold a fraction
            ok &= a == np.floor(a)
        if not ok.all():
            raise ValueError(f"action {a[~ok][0]} is not an integer in [0, {self.mdp.n_actions})")
        a = a.astype(np.intp)
        nxt = (self.mdp.transition_cdf[states, a] <= u).sum(axis=1)
        return nxt, self.mdp.rewards[states, a], self.mdp.terminal_mask[nxt]


def chain_spec() -> TabularSpec:
    """The canonical 4-state, 2-action chain: horizon 5, discount 0.3.

    Action 1 moves right (clamped at state 3), action 0 moves left (clamped
    at 0).  Reward 0.1 * state + 0.4 for the right move, so drifting right
    is softly preferred in every state at every stage.
    """
    n = 4
    p = np.zeros((n, 2, n))
    for s in range(n):
        p[s, 0, max(s - 1, 0)] = 1.0
        p[s, 1, min(s + 1, n - 1)] = 1.0
    r = np.zeros((n, 2))
    for s in range(n):
        r[s, 0] = 0.1 * s
        r[s, 1] = 0.1 * s + 0.4
    p0 = np.zeros(n)
    p0[0] = 1.0
    return TabularSpec(mdp=TabularMdp(transitions=p, start=p0, rewards=r, horizon=5, gamma=0.3), env_id="chain")


# 5x5 maze: S start, G goal, # wall.  Two disjoint 8-step corridors reach G.
_GRID_ROWS = (
    "S....",
    ".###.",
    "...#.",
    "##.#.",
    "....G",
)


def gridworld_mdp(horizon: int = 30) -> TabularMdp:
    """The maze as a TabularMdp, state 5 * row + column.

    Actions are 0 up, 1 down, 2 left, 3 right; a move off the grid or into a
    wall stays put.  Every move costs -1 and the one that enters the goal
    earns +10 on top.  The goal is terminal: absorbing with zero reward.
    """
    n = len(_GRID_ROWS)
    cells = "".join(_GRID_ROWS)
    goal = cells.index("G")
    p = np.zeros((n * n, 4, n * n))
    r = np.zeros((n * n, 4))
    p[goal, :, goal] = 1.0
    for s in range(n * n):
        if s == goal:
            continue
        row, col = divmod(s, n)
        for a, (dr, dc) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            rr, cc = row + dr, col + dc
            nxt = rr * n + cc if 0 <= rr < n and 0 <= cc < n and _GRID_ROWS[rr][cc] != "#" else s
            p[s, a, nxt] = 1.0
            r[s, a] = -1.0 + (10.0 if nxt == goal else 0.0)
    p0 = np.zeros(n * n)
    p0[cells.index("S")] = 1.0
    return TabularMdp(transitions=p, start=p0, rewards=r, horizon=horizon, gamma=1.0, terminal=(goal,))


@dataclass
class PointMassSpec:
    """1-D point mass: x' = clamp(x + 0.1 a, -2, 2) with a clamped to [-1, 1].

    Reward is -x'^2, the start position is uniform on [-1, 1], and episodes
    run exactly ``horizon`` steps.
    """

    horizon: int = 50
    env_id: str = field(init=False, default="pointmass")
    action_kind: str = field(init=False, default="continuous")
    draws = ("random", 0)

    def __post_init__(self):
        check_count("horizon", self.horizon, 1)

    @property
    def obs_dim(self) -> int:
        return 1

    @property
    def act_dim(self) -> int:
        return 1

    def reset(self, u):
        """The start position -1 + 2 u of the uniform u (or of each entry of an
        array), bitwise ``Generator.uniform(-1, 1)``: the product by 2 is exact."""
        return -1.0 + 2.0 * u

    def observe(self, x) -> np.ndarray:
        """The row [x] of a position, or one row per position of an array."""
        return np.asarray(x, dtype=np.float64)[..., None]

    def step_rows(self, xs: np.ndarray, acts, u=None):
        """(x', -x'^2, all False) of (k,) positions and (k, 1) actions; draws nothing."""
        acts = np.asarray(acts, dtype=np.float64)
        if acts.shape != (len(xs), 1):
            raise ShapeError(f"actions must be one scalar per position, shape ({len(xs)}, 1), got {acts.shape}")
        a = np.minimum(np.maximum(acts[:, 0], -1.0), 1.0)
        x = np.minimum(np.maximum(xs + 0.1 * a, -2.0), 2.0)
        return x, -x * x, np.zeros(len(x), dtype=bool)


EnvSpec = TabularSpec | PointMassSpec


def gridworld_spec(horizon: int = 30) -> TabularSpec:
    return TabularSpec(mdp=gridworld_mdp(horizon), env_id="gridworld")


# Named instances addressable from configs and the command line.
ENVS = {"chain": chain_spec, "gridworld": gridworld_spec, "pointmass": PointMassSpec}


def env_by_id(env_id: str) -> EnvSpec:
    """The named instance ``env_id`` of ``ENVS`` at its defaults."""
    if env_id not in ENVS:
        *head, last = ENVS
        raise ValidationError(f"unknown environment id {env_id!r} (expected {', '.join(head)}, or {last})", key="env")
    return ENVS[env_id]()


class ScriptedPointMassPolicy:
    """The scripted proportional controller a = clamp(-5 x, -1, 1)."""

    action_kind = "continuous"
    draws = ("random", 0)

    def act(self, obs, noise, t: int) -> np.ndarray:
        """clamp(-5 x, -1, 1) for each (B, 1) observation row, at any step; draws nothing."""
        return np.minimum(np.maximum(-5.0 * np.asarray(obs)[:, :1], -1.0), 1.0)


class SoftExpertPolicy:
    """Stage-indexed sampler for a SoftQTable expert on a one-hot discrete env.

    The optimal entropy-regularized policy of a finite-horizon task depends
    on the stage, so its ``act`` reads the step index that rollout() passes
    to every policy.
    """

    action_kind = "discrete"
    draws = ("random", 1)

    def __init__(self, qtable: SoftQTable):
        self._cdf = np.cumsum(qtable.policy_table(), axis=2)[..., :-1]     # a u past these is the last action

    def act(self, obs, u: np.ndarray, t: int) -> np.ndarray:
        """Inverse-CDF draws at stage t for (B, S) one-hot rows from (B, 1) uniforms."""
        cdf = self._cdf[min(t, len(self._cdf) - 1), np.argmax(obs, axis=1)]
        return (cdf <= u).sum(axis=1)


def rollout(env_spec: EnvSpec, policy, seed, episodes: int | None = None):
    """Run one episode, or ``episodes=k`` back to back in one ``PackedWindows``;
    return it and its undiscounted return (with ``episodes``, a (k,) array).

    ``seed`` is a Generator or seed the episodes share in turn, or with
    ``episodes`` a list of k seeds, one stream each.  All k episodes step
    together in the draw layout of the module docstring, so the policy needs
    ``draws`` and ``act(obs, noise, t)``.  Rewards are summed apart from the
    (obs, act) pairs, so imitation code can drop them unseen.
    """
    if episodes is not None:
        check_count("episodes", episodes, 1)
    try:
        (kind, n_pol), act = policy.draws, policy.act
    except AttributeError:
        raise UnsupportedError(f"{type(policy).__name__} lacks the sampling protocol: "
                               "draws and act(obs, noise, t)") from None
    listed = isinstance(seed, list) and episodes is not None
    if listed and len(seed) != episodes:
        raise ValidationError(f"need one seed per episode, got {len(seed)} for {episodes}")
    rngs = [np.random.default_rng(s) for s in seed] if listed else [np.random.default_rng(seed)]
    (env_kind, n_env), k, horizon = env_spec.draws, episodes or 1, env_spec.horizon
    kind, n, per = kind if n_pol else env_kind, n_pol + n_env, k // len(rngs)     # per: episodes per generator
    if kind == "random" or not n:   # only uniforms: each generator's episodes, reset then steps, in one call
        u = np.empty((k, 1 + horizon * n))
        for i, rng in enumerate(rngs):
            rng.random(out=u[i * per:(i + 1) * per])
        first, noise = u[:, 0], u[:, 1:].reshape(k, horizon, n)
    else:                           # each episode draws its reset's uniform, then its steps' numbers
        first, noise = np.empty(k), np.empty((k, horizon, n))
        for i in range(k):
            rng = rngs[i // per]
            first[i] = rng.random()
            noise[i] = getattr(rng, kind)((horizon, n))
    states, live = env_spec.reset(first), slice(None)    # every episode; once one ends, the running ones
    obs, lengths, returns = np.empty((k, horizon, env_spec.obs_dim)), np.full(k, horizon), np.zeros(k)
    discrete = env_spec.action_kind == "discrete"
    acts = np.empty((k, horizon) if discrete else (k, horizon, env_spec.act_dim), np.int64 if discrete else np.float64)
    for t in range(horizon):
        o, z = env_spec.observe(states[live]), noise[live, t]
        a = act(o, z[:, :n_pol], t)
        obs[live, t] = o    # before the step: o may be a view of the states it overwrites
        states[live], reward, terminal = env_spec.step_rows(states[live], a, z[:, n_pol:])
        acts[live, t] = a
        returns[live] += reward
        if np.count_nonzero(terminal):
            running = np.arange(k)[live]
            lengths[running[terminal]], live = t + 1, running[~terminal]
            if not len(live):
                break
    stepped = np.arange(horizon) < lengths[:, None]
    traj = PackedWindows(obs=obs[stepped], acts=acts[stepped], lengths=lengths)
    return (traj, float(returns[0])) if episodes is None else (traj, returns)
