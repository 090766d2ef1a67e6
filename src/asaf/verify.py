"""Named verification suites: small end-to-end recipes with hard thresholds.

Each suite returns CheckResult rows; a check passes when value <= threshold.
The CLI prints one line per row and the test suite asserts on the same
functions, so the command line and pytest agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discriminator as disc
from .envs import (
    EXPERT_ALPHA,
    PackedWindows,
    PointMassSpec,
    ScriptedPointMassPolicy,
    SoftExpertPolicy,
    chain_spec,
    gridworld_spec,
    one_hot,
    rollout,
    soft_value_iteration,
    soft_vi_name,
)
from .errors import ValidationError, check_count
from .exact import stage_marginals, verify_lemma1
from .nn import Mlp, grad_check
from .policies import CategoricalPolicy, GaussianPolicy, tabular_policy_extract
from .train import DemoSet, TrainConfig, evaluate_policy, train

__all__ = [
    "CheckResult",
    "SUITES",
    "asqf_chain_check",
    "asqf_gridworld_check",
    "asqf_suite",
    "collect_expert_demos",
    "gradient_suite",
    "lemma1_suite",
    "run_suite",
    "theorem1_suite",
]


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}: value={self.value:.6g} threshold={self.threshold:.6g} {verdict}"


def collect_expert_demos(env_spec, n: int, alpha: float, seed: int) -> DemoSet:
    """Roll out ``n`` expert episodes, episode i on the seed (seed, i).

    The expert is the exact soft-optimal policy at temperature ``alpha`` on
    a discrete environment and the scripted controller on pointmass, which
    ignores ``alpha`` but, like every environment, refuses one that is not
    finite and positive.
    """
    check_count("n", n, 1)
    check_count("seed", seed, 0)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValidationError(f"alpha must be finite and positive, got {alpha}")
    if isinstance(env_spec, PointMassSpec):
        expert, generator = ScriptedPointMassPolicy(), "scripted_proportional"
    else:
        expert, generator = SoftExpertPolicy(soft_value_iteration(env_spec.mdp, alpha)), soft_vi_name(alpha)
    episodes, rets = rollout(env_spec, expert, [(seed, i) for i in range(n)], episodes=n)
    return DemoSet(
        trajectories=episodes.episodes(),
        env_id=env_spec.env_id,
        action_kind=env_spec.action_kind,
        obs_dim=env_spec.obs_dim,
        mean_return=float(np.mean(rets)),
        generator=generator,
    )


def lemma1_suite() -> list[CheckResult]:
    """Gradient ascent on the finite-support objective recovers the expert
    distribution regardless of the generator it discriminates against."""
    p_e = np.array([0.7, 0.2, 0.1])
    generators = {
        "uniform": np.array([1 / 3, 1 / 3, 1 / 3]),
        "reversed": np.array([0.1, 0.2, 0.7]),
        "lopsided": np.array([0.5, 0.25, 0.25]),
    }
    out = []
    for name, p_g in generators.items():
        gap = verify_lemma1(p_e, p_g)
        out.append(CheckResult(name=f"lemma1_gap_vs_{name}", value=gap, threshold=1e-2))
    return out


def _fd_check(name: str, learner, loss, rng) -> CheckResult:
    """The worst ``grad_check`` error of ``loss()`` in the learner's
    parameters over 10 points drawn from ``rng``."""
    def f(theta):
        learner.net.params = theta
        return loss()

    worst = np.max([grad_check(f, Mlp.init(learner.net.sizes, rng).params) for _ in range(10)])
    return CheckResult(name=name, value=float(worst), threshold=1e-4)


def _bce_check(name: str, learner, generator, obs, acts, rng) -> CheckResult:
    """``_fd_check`` of the loss on the episodes ``(obs[i], acts[i])``, the
    first half on the expert side, packed and scored as ``train()`` does."""
    pack, half = disc.windows_from([PackedWindows(o, a) for o, a in zip(obs, acts)]), len(obs) // 2
    disc.refresh_generator_scores(pack, generator)
    expert, gen = pack.span(0, half), pack.span(half, len(obs))
    return _fd_check(name, learner, lambda: disc.bce_on_packed(learner, expert, gen), rng)


def gradient_suite() -> list[CheckResult]:
    """Finite-difference agreement for every loss used in training."""
    rng = np.random.default_rng(7)
    out = []

    # trajectory discriminator, discrete policy
    learner = CategoricalPolicy.init(3, 2, (8,), rng)
    generator = CategoricalPolicy.init(3, 2, (8,), rng)
    obs = rng.normal(size=(4, 3, 3))
    acts = rng.integers(0, 2, size=(4, 3))
    out.append(_bce_check("grad_bce_categorical", learner, generator, obs, acts, rng))

    # the same on one-hot states, through the policies' state tables, with the actions above
    learner = CategoricalPolicy.init(3, 2, (8,), rng)
    generator = CategoricalPolicy.init(3, 2, (8,), rng)
    obs = one_hot(rng.integers(0, 3, size=(4, 3)), 3)
    out.append(_bce_check("grad_bce_categorical_one_hot", learner, generator, obs, acts, rng))

    # trajectory discriminator, gaussian policy
    learner = GaussianPolicy.init(2, 1, (6,), rng)
    generator = GaussianPolicy.init(2, 1, (6,), rng)
    obs = rng.normal(size=(4, 3, 2))
    acts = rng.normal(size=(4, 3, 1))
    out.append(_bce_check("grad_bce_gaussian", learner, generator, obs, acts, rng))

    # transition-wise scored discriminator
    model = disc.AsqfModel.init(3, 2, (8,), rng)
    generator = CategoricalPolicy.init(3, 2, (8,), rng)
    expert = disc.transitions_from([PackedWindows(obs=rng.normal(size=(6, 3)), acts=rng.integers(0, 2, size=6))])
    gen = disc.transitions_from([PackedWindows(obs=rng.normal(size=(6, 3)), acts=rng.integers(0, 2, size=6))])
    out.append(_fd_check("grad_bce_asqf", model, lambda: disc.asqf_bce_loss(model, generator, expert, gen), rng))

    # behavioral cloning negative log-likelihood
    policy = CategoricalPolicy.init(3, 2, (8,), rng)
    demos = disc.transitions_from([PackedWindows(obs=rng.normal(size=(6, 3)), acts=rng.integers(0, 2, size=6))])
    out.append(_fd_check("grad_bc_nll", policy, lambda: disc.nll_on_packed(policy, demos), rng))

    # the scored discriminator on one-hot states, through the score net's state table
    model = disc.AsqfModel.init(3, 2, (8,), rng)
    generator = CategoricalPolicy.init(3, 2, (8,), rng)
    obs, acts = one_hot(rng.integers(0, 3, size=(12, 1)), 3), rng.integers(0, 2, size=(12, 1))
    out.append(_bce_check("grad_bce_asqf_one_hot", model, generator, obs, acts, rng))
    return out


def theorem1_config() -> TrainConfig:
    # Paper-style settings except fewer passes per collection: at this scale
    # Adam's scale-free steps just wander once the discriminator sits at its
    # fixed point, so extra passes add noise rather than fit.
    return TrainConfig(epochs=10, steps=200, eval_interval=25)


def theorem1_suite() -> list[CheckResult]:
    """Trajectory matching on the chain: exact JS to the expert goes below
    0.01 nats within 200 outer steps."""
    env = chain_spec()
    demos = collect_expert_demos(env, n=200, alpha=1.0, seed=0)
    _, log = train(theorem1_config(), demos, env)
    final_js = log.rows[-1].js_to_expert
    return [CheckResult(name="theorem1_chain_js", value=float(final_js), threshold=0.01)]


def asqf_chain_config() -> TrainConfig:
    return TrainConfig(algorithm="asqf", batch=100, epochs=10, steps=200, eval_interval=50)


def asqf_gridworld_config() -> TrainConfig:
    return TrainConfig(algorithm="asqf", batch=128, epochs=10, steps=300, eval_interval=100)


GRIDWORLD_DEMO_ALPHA = 0.25


def asqf_chain_check() -> CheckResult:
    """The scored discriminator recovers the chain expert's argmax on every reachable state."""
    env = chain_spec()
    demos = collect_expert_demos(env, n=200, alpha=1.0, seed=123)
    policy, _ = train(asqf_chain_config(), demos, env)
    table = tabular_policy_extract(policy, env.mdp.n_states)
    expert_q = soft_value_iteration(env.mdp, EXPERT_ALPHA)
    greedy = expert_q.greedy_table()
    reachable = stage_marginals(env.mdp, expert_q.policy_table()) > 0.0
    mismatches = np.count_nonzero(reachable & (np.argmax(table, axis=1) != greedy))
    return CheckResult(name="asqf_chain_argmax_mismatches", value=float(mismatches), threshold=0.0)


def asqf_gridworld_check() -> tuple[CheckResult, CategoricalPolicy]:
    """The scored discriminator's return on the maze is near the expert's;
    also returns the trained policy, for reports beside the check."""
    grid = gridworld_spec()
    demos = collect_expert_demos(grid, n=50, alpha=GRIDWORLD_DEMO_ALPHA, seed=7)
    policy, _ = train(asqf_gridworld_config(), demos, grid)
    eval_seed, eval_k = 424242, 50
    expert = SoftExpertPolicy(soft_value_iteration(grid.mdp, GRIDWORLD_DEMO_ALPHA))
    expert_mean, _ = evaluate_policy(expert, grid, k=eval_k, seed=eval_seed)
    learner_mean, _ = evaluate_policy(policy, grid, k=eval_k, seed=eval_seed)
    rel_gap = abs(learner_mean - expert_mean) / abs(expert_mean)
    return CheckResult(name="asqf_gridworld_return_gap", value=rel_gap, threshold=0.10), policy


def asqf_suite() -> list[CheckResult]:
    """Scored-discriminator checks: exact argmax recovery on the chain and
    near-expert return on the maze."""
    return [asqf_chain_check(), asqf_gridworld_check()[0]]


SUITES = {
    "lemma1": lemma1_suite,
    "theorem1": theorem1_suite,
    "gradients": gradient_suite,
    "asqf": asqf_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    return SUITES[name]()
