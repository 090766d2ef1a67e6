"""One training loop for structured-discriminator imitation (asaf, asaf_w,
asaf_1), its transition-wise scored form (asqf) and behavioral cloning (bc).

``train`` alternates, for a configured number of outer steps:

1. collect ``n_g`` fresh episodes with the frozen generator policy in one
   lockstep ``rollout`` call, back to back in one ``PackedWindows`` (bc
   collects nothing),
2. cut them, like the demos, into windows of whole episodes, fixed-size
   windows or single transitions, and cache the generator's
   log-likelihood of every window,
3. run ``epochs`` passes of minibatch updates on the learned net, all with
   the one cross-entropy of ``disc.bce_on_packed`` (the generator pool
   defines an epoch; expert windows are drawn with replacement to pair each
   batch one-to-one); bc passes over the demo transitions alone and
   minimizes ``disc.nll_on_packed``, their negative log-likelihood.  All
   draws of the step come first, in update order (an epoch's permutation,
   then one expert pick per minibatch), and one gather from the
   ``disc.joined`` pools holds every minibatch as its expert windows then
   its generator windows; each update reads its span with
   ``disc.bce_on_joined``,
4. freeze the learned net into the next generator: a snapshot of its
   softmax policy (for asqf, the softmax of the scores).

A ``NumericalError`` names the outer step it came from, and the epoch and
minibatch (all counted from 1) when an update raised it.  Non-finite net
scores, losses, gradients and evaluation returns all raise one, so NumPy's
floating-point warnings are silenced for the call.

No reinforcement signal is used anywhere: the reward channel is read only
by ``evaluate_policy`` and by expert generation.  Collected generator data
is discarded after every outer step, keeping the discriminator strictly
on-policy.

Seeding: everything derives from ``TrainConfig.seed``.  Evaluation episodes
use the standalone seed ``seed + 100003 * (outer_step)`` recorded in each
log row, so any logged evaluation can be reproduced later from a saved
checkpoint with ``evaluate_policy``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import discriminator as disc
from .envs import EXPERT_ALPHA, EnvSpec, PackedWindows, TabularSpec, rollout, soft_value_iteration
from .errors import NumericalError, UnsupportedError, ValidationError, check_count
from .exact import enumerable, exact_traj_distribution, js_between
from .nn import AdamState, adam_step, clip_by_global_norm, serial_blas
from .policies import CategoricalPolicy, make_policy, one_hot_rows, tabular_policy_extract

__all__ = [
    "ALGORITHMS",
    "DemoSet",
    "RunLog",
    "RunRecord",
    "TrainConfig",
    "check_algorithm_fits",
    "evaluate_policy",
    "train",
]

ALGORITHMS = ("asaf", "asaf_w", "asaf_1", "asqf", "bc")


@dataclass
class TrainConfig:
    algorithm: str = "asaf"
    w: int | None = None            # window length, asaf_w only
    stride: int | None = None       # window offset step, defaults to w
    lr_d: float = 0.001
    batch: int = 10                 # windows (or transitions) per side per minibatch
    n_g: int = 10                   # episodes collected between updates
    epochs: int = 50                # passes over the collected pool per outer step
    clip: float = 1.0
    clip_mode: str = "norm"         # the only mode: the global norm is clipped to ``clip``
    steps: int = 100                # outer steps
    eval_k: int = 20
    eval_interval: int = 10
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)

    def validated(self) -> "TrainConfig":
        """The config checked and completed; a refusal's ``key`` names the field it is about."""
        least = {"batch": 1, "n_g": 1, "epochs": 0, "steps": 0, "eval_k": 1, "eval_interval": 1, "seed": 0}
        for name, low in least.items():
            check_count(name, getattr(self, name), low)
        for name, value in [("w", self.w), ("stride", self.stride), *(("hidden size", h) for h in self.hidden)]:
            if value is not None:
                check_count(name, value, 1)
        cfg = replace(self, hidden=tuple(int(h) for h in self.hidden))
        if cfg.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {cfg.algorithm!r}, expected one of {ALGORITHMS}", key="algorithm")
        if cfg.algorithm == "asaf_w":
            if cfg.w is None:
                raise ValidationError("asaf_w needs a window length w >= 1", key="w")
            cfg = replace(cfg, stride=cfg.stride or cfg.w)
        elif cfg.algorithm == "asaf_1":
            if wrong := [key for key in ("w", "stride") if getattr(cfg, key) not in (None, 1)]:
                raise ValidationError("asaf_1 is fixed to w = 1, stride = 1", key=wrong[0])
            cfg = replace(cfg, w=1, stride=1)
        elif given := [key for key in ("w", "stride") if getattr(cfg, key) is not None]:
            raise ValidationError(f"{cfg.algorithm} does not take w/stride", key=given[0])
        if not (np.isfinite(cfg.lr_d) and cfg.lr_d > 0.0):
            raise ValidationError(f"lr_d must be finite and positive, got {cfg.lr_d}", key="lr_d")
        if not cfg.clip > 0.0:   # inf never clips; NaN is refused
            raise ValidationError(f"clip must be positive, got {cfg.clip}", key="clip")
        if cfg.clip_mode != "norm":
            raise ValidationError(f"clip_mode must be 'norm', got {cfg.clip_mode!r}", key="clip_mode")
        return cfg


@dataclass
class DemoSet:
    """Expert demonstrations plus the metadata needed to check compatibility.
    Each entry is a ``PackedWindows`` of one episode (or, built in memory,
    several back to back); ``lines``, each entry's line in the demo file it
    was read from, is None for a set built in memory."""

    trajectories: list[PackedWindows]
    env_id: str
    action_kind: str
    obs_dim: int
    mean_return: float
    generator: str = ""
    lines: list[int] | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.trajectories)


@dataclass
class RunRecord:
    step: int               # outer steps completed when the row was written
    env_steps: int          # cumulative collected environment transitions
    mean_return: float
    std_return: float
    bce_loss: float         # mean minibatch loss of the step (bc: negative log-likelihood)
    js_to_expert: float | None
    eval_seed: int


@dataclass
class RunLog:
    rows: list[RunRecord] = field(default_factory=list)
    first_batch_losses: list[float] = field(default_factory=list)
    total_env_steps: int = 0


def evaluate_policy(policy, env_spec: EnvSpec, k: int = 20, seed: int = 0) -> tuple[float, float]:
    """Mean and population std of undiscounted return over k seeded episodes.

    Episode i uses the composite seed (seed, i), so the whole evaluation is
    reproducible from the scalar seed alone.  Sampling is stochastic: the
    policy's own distribution is drawn from, never its argmax.  A non-finite
    return raises ``NumericalError``.
    """
    check_count("k", k, 1)
    check_count("seed", seed, 0)
    _, returns = rollout(env_spec, policy, [(seed, i) for i in range(k)], episodes=k)
    if not np.isfinite(returns).all():
        raise NumericalError("non-finite evaluation return")
    return float(returns.mean()), float(returns.std())


def check_algorithm_fits(algorithm: str, env_spec: EnvSpec) -> None:
    """Refuse an algorithm that cannot act in the environment's action space."""
    if algorithm == "asqf" and env_spec.action_kind != "discrete":
        raise UnsupportedError("the scored discriminator requires discrete actions", key="algorithm")


def _check_demos(demos: DemoSet, env_spec: EnvSpec) -> None:
    if len(demos) == 0:
        raise ValidationError("demo set is empty")
    if demos.env_id != env_spec.env_id:
        raise ValidationError(f"demos recorded on {demos.env_id!r} cannot train on {env_spec.env_id!r}")
    if demos.action_kind != env_spec.action_kind:
        raise ValidationError(f"demo action kind {demos.action_kind!r} does not match env {env_spec.action_kind!r}")
    if demos.obs_dim != env_spec.obs_dim:
        raise ValidationError(f"demo obs_dim {demos.obs_dim} does not match env {env_spec.obs_dim}")
    discrete, tabular = demos.action_kind == "discrete", isinstance(env_spec, TabularSpec)
    for i, traj in enumerate(demos.trajectories):
        where = f"episode {i}" if demos.lines is None else f"episode {i} (demo file line {demos.lines[i]})"
        if not (len(traj) and traj.lengths.all()):   # a zero-length window would score row 0 of the next one
            raise ValidationError(f"{where}: episode has no steps")
        if traj.obs.shape[1] != env_spec.obs_dim:
            raise ValidationError(f"{where}: observation rows {traj.obs.shape[1]} wide, expected {env_spec.obs_dim}")
        want = (len(traj),) if discrete else (len(traj), env_spec.act_dim)
        if traj.acts.shape != want:
            raise ValidationError(f"{where}: actions of shape {traj.acts.shape}, expected {want}")
        if discrete and np.any(bad := (traj.acts < 0) | (traj.acts >= env_spec.n_actions)):
            raise ValidationError(f"{where}: action {traj.acts[bad][0]} is outside [0, {env_spec.n_actions})")
        if tabular and not (hot := one_hot_rows(traj.obs)[1]).all():   # the policies read a state from its row
            raise ValidationError(f"{where}: observation row {np.argmin(hot)} is not a one-hot state")


def _eval_seed(cfg: TrainConfig, outer_step: int) -> int:
    return cfg.seed + 100003 * outer_step


def _demo_alpha(generator: str) -> float:
    """The temperature x of demos whose generator reads ``soft_vi(alpha=<x>)``,
    as ``collect_expert_demos`` names it, if x is a finite positive real; else
    ``EXPERT_ALPHA``."""
    try:
        alpha = float(re.fullmatch(r"soft_vi\(alpha=(.+)\)", generator)[1])
    except (TypeError, ValueError):     # no match, or no real
        return EXPERT_ALPHA
    return alpha if np.isfinite(alpha) and alpha > 0.0 else EXPERT_ALPHA


def _js_to_expert(env_spec: EnvSpec, generator: str):
    """The map from a policy to its exact JS divergence to the soft-VI expert
    at the demos' temperature, or to None where the MDP is too large to
    enumerate.  A tabular train() always holds a CategoricalPolicy generator."""
    if not (isinstance(env_spec, TabularSpec) and enumerable(env_spec.mdp)):
        return lambda policy: None
    mdp = env_spec.mdp
    expert = exact_traj_distribution(mdp, soft_value_iteration(mdp, _demo_alpha(generator)).policy_table())
    return lambda policy: js_between(exact_traj_distribution(mdp, tabular_policy_extract(policy, mdp.n_states)), expert)


def _pool(trajs: list[PackedWindows], cfg: TrainConfig, policy) -> PackedWindows:
    """The windows ``cfg.algorithm`` reads: the configured ones for asaf_w,
    single transitions for asaf_1, asqf and bc, whole episodes for asaf; a
    categorical learner's pack of one-hot rows holds state ids in their place."""
    w, stride = (None, 1) if cfg.algorithm == "asaf" else (cfg.w or 1, cfg.stride or 1)
    pack = disc.windows_from(trajs, w, stride)
    if isinstance(policy, CategoricalPolicy):
        states, pack.acts = policy.index(pack.obs, pack.acts)
        if states is not None:
            pack.obs, pack.states = None, states
    return pack


@serial_blas()
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(cfg: TrainConfig, demos: DemoSet, env_spec: EnvSpec):
    """Train ``cfg.algorithm`` on the demos; returns (policy, RunLog).

    The generator is a snapshot of the learned net's softmax policy: for
    asqf, the softmax of its score net.  bc collects nothing and its
    epochs pass over the demo transitions.  The returned policy is the
    generator after the last outer step.  The call runs on one BLAS thread
    (``nn.serial_blas``) and restores the caller's thread count when it
    returns or raises.
    """
    cfg = cfg.validated()
    check_algorithm_fits(cfg.algorithm, env_spec)
    _check_demos(demos, env_spec)

    ss_init, ss_collect, ss_batch = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(ss_init)
    learned = (disc.AsqfModel.init(env_spec.obs_dim, env_spec.n_actions, cfg.hidden, init_rng)
               if cfg.algorithm == "asqf" else make_policy(env_spec, cfg.hidden, init_rng))
    collects = cfg.algorithm != "bc"
    generator = learned.snapshot()
    adam = AdamState.for_params(learned.net.params)
    collect_rng = np.random.default_rng(ss_collect)
    batch_rng = np.random.default_rng(ss_batch)

    expert = _pool(demos.trajectories, cfg, learned)
    n_expert = expert.n_windows
    js_to_expert = _js_to_expert(env_spec, demos.generator)
    log = RunLog()
    env_steps = 0

    for m in range(cfg.steps):
        at = None   # (epoch, minibatch) of the running update, counted from 0; named only if it raises
        try:
            gen_pool = None
            if collects:
                episodes, _ = rollout(env_spec, generator, collect_rng, episodes=cfg.n_g)
                env_steps += len(episodes)
                gen_pool = _pool([episodes], cfg, learned)
                disc.refresh_generator_scores(expert, generator)
                disc.refresh_generator_scores(gen_pool, generator)

            epoch_pool = gen_pool if collects else expert
            lows = range(0, epoch_pool.n_windows, cfg.batch)
            sizes = [min(cfg.batch, epoch_pool.n_windows - lo) for lo in lows]
            picks = []   # every draw of the step before its first update, in the order that keeps the bits
            for _ in range(cfg.epochs):
                order = batch_rng.permutation(epoch_pool.n_windows)
                for lo, size in zip(lows, sizes):   # a minibatch's expert picks, then its generator windows
                    g = order[lo:lo + size]
                    picks += [batch_rng.integers(0, n_expert, size=size), g + n_expert] if collects else [g]
            if picks:
                gathered = (disc.joined(expert, gen_pool) if collects else expert).take(np.concatenate(picks))
            losses, hi = [], 0
            for epoch in range(cfg.epochs):
                for k, size in enumerate(sizes):
                    at = epoch, k
                    lo, hi = hi, hi + size * (1 + collects)
                    batch = gathered.span(lo, hi)
                    loss, grad = disc.bce_on_joined(learned, batch) if collects else disc.nll_on_packed(learned, batch)
                    grad = clip_by_global_norm(grad, cfg.clip)
                    learned.net.params, adam = adam_step(adam, learned.net.params, grad, cfg.lr_d)
                    if not losses:
                        log.first_batch_losses.append(loss)
                    losses.append(loss)

            at = None
            generator = learned.snapshot()
            if (m + 1) % cfg.eval_interval == 0 or m == cfg.steps - 1:
                seed = _eval_seed(cfg, m + 1)
                mean, std = evaluate_policy(generator, env_spec, k=cfg.eval_k, seed=seed)
                bce = float(np.mean(losses)) if losses else float("nan")
                log.rows.append(RunRecord(step=m + 1, env_steps=env_steps, mean_return=mean, std_return=std,
                                          bce_loss=bce, js_to_expert=js_to_expert(generator), eval_seed=seed))
        except NumericalError as exc:
            where = "" if at is None else f", epoch {at[0] + 1}, minibatch {at[1] + 1}"
            raise NumericalError(f"outer step {m + 1}{where}: {exc}") from exc

    log.total_env_steps = env_steps
    return generator, log
