"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single PASS/FAIL line with the measured quantity next to
its tolerance; run ``pytest tests/test_acceptance.py -s`` to see all nine
lines even when everything is green.  Criteria that promise a wall-clock
budget assert on elapsed time as well.
"""

import math
import time

import numpy as np

from asaf import discriminator as disc
from asaf.envs import (
    PointMassSpec,
    ScriptedPointMassPolicy,
    TabularMdp,
    Trajectory,
    chain_spec,
    rollout,
)
from asaf.exact import exact_traj_distribution, occupancy
from asaf.formats import (
    load_checkpoint,
    read_demos,
    runlog_csv,
    save_checkpoint,
    write_demos,
)
from asaf.nn import Mlp
from asaf.policies import CategoricalPolicy, GaussianPolicy
from asaf.train import DemoSet, TrainConfig, evaluate_policy, train
from asaf.verify import (
    asqf_suite,
    collect_expert_demos,
    gradient_suite,
    lemma1_suite,
    theorem1_suite,
)
from test_discriminator import scored_packs

LOG4 = math.log(4.0)


def report(criterion: str, detail: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}", flush=True)


# ---------------------------------------------------------------- criterion 1

def test_c1_expert_marginal_recovered_from_any_generator():
    t0 = time.monotonic()
    results = lemma1_suite()
    elapsed = time.monotonic() - t0
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results) and elapsed < 5.0
    report("criterion 1 (finite-support recovery)",
           f"max L1 gap {worst:.3g} <= 0.01 over {len(results)} generators in {elapsed:.2f}s",
           ok)
    assert ok, [r.line() for r in results]


# ---------------------------------------------------------------- criterion 2

def test_c2_chain_trajectory_matching_reaches_low_js():
    t0 = time.monotonic()
    (result,) = theorem1_suite()
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 60.0
    report("criterion 2 (chain trajectory matching)",
           f"final JS {result.value:.3g} <= 0.01 within 200 outer steps in {elapsed:.2f}s",
           ok)
    assert ok, result.line()


# ---------------------------------------------------------------- criterion 3

def test_c3_matched_policies_give_half_and_log4():
    worst_d = 0.0
    worst_loss = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)

        learner = CategoricalPolicy.init(3, 2, (10,), rng)
        generator = learner.snapshot()
        wins = [disc.Window(obs=rng.normal(size=(4, 3)), acts=rng.integers(0, 2, size=4))
                for _ in range(6)]
        for w in wins:
            log_d, _ = disc.structured_log_d(learner, generator, w)
            worst_d = max(worst_d, abs(math.exp(log_d) - 0.5))
        loss, _ = disc.bce_on_packed(learner, *scored_packs(generator, wins[:3], wins[3:]))
        worst_loss = max(worst_loss, abs(loss - LOG4))

        learner = GaussianPolicy.init(2, 1, (8,), rng)
        generator = learner.snapshot()
        wins = [disc.Window(obs=rng.normal(size=(5, 2)), acts=rng.normal(size=(5, 1)))
                for _ in range(4)]
        for w in wins:
            log_d, _ = disc.structured_log_d(learner, generator, w)
            worst_d = max(worst_d, abs(math.exp(log_d) - 0.5))
        loss, _ = disc.bce_on_packed(learner, *scored_packs(generator, wins[:2], wins[2:]))
        worst_loss = max(worst_loss, abs(loss - LOG4))

    ok = worst_d <= 1e-10 and worst_loss <= 1e-9
    report("criterion 3 (matched-policy fixed point)",
           f"max |D - 1/2| {worst_d:.3g} <= 1e-10, max |loss - log4| {worst_loss:.3g} <= 1e-9",
           ok)
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_c4_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    results = gradient_suite(points=10)
    elapsed = time.monotonic() - t0
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results) and elapsed < 10.0
    report("criterion 4 (gradient checks)",
           f"max rel err {worst:.3g} <= 1e-4 across {len(results)} objectives, "
           f"10 points each, in {elapsed:.2f}s",
           ok)
    assert ok, [r.line() for r in results]


# ---------------------------------------------------------------- criterion 5

def test_c5_window_reductions_are_exact():
    rng = np.random.default_rng(11)
    env = chain_spec()
    horizon = env.mdp.horizon

    # full-horizon windows are the trajectories themselves
    trajs = [rollout(env, _UniformPolicy(), seed=(1, i))[0] for i in range(4)]
    max_loss_diff = 0.0
    learner = CategoricalPolicy.init(4, 2, (12,), rng)
    generator = CategoricalPolicy.init(4, 2, (12,), rng)
    full, split = disc.windows_from(trajs), disc.windows_from(trajs, w=horizon, stride=1)
    for name in ("obs", "acts", "starts", "lengths"):
        np.testing.assert_array_equal(getattr(full, name), getattr(split, name))
    for pack in (full, split):
        disc.refresh_generator_scores(pack, generator)
    (loss_full, grad_full), (loss_split, grad_split) = (
        disc.bce_on_packed(learner, pack.span(0, 2), pack.span(2, 4)) for pack in (full, split))
    max_loss_diff = max(max_loss_diff, abs(loss_full - loss_split))
    same_grads = bool(np.array_equal(grad_full, grad_split))

    # whole training runs coincide bitwise under both reductions
    demos = collect_expert_demos(env, n=12, alpha=1.0, seed=2)
    base = dict(lr_d=0.01, batch=8, n_g=4, epochs=2, clip=1.0,
                steps=3, eval_k=3, eval_interval=1, seed=0, hidden=(8,))
    p_asaf, log_asaf = train(TrainConfig(algorithm="asaf", **base), demos, env)
    p_w5, log_w5 = train(
        TrainConfig(algorithm="asaf_w", w=horizon, stride=1, **base), demos, env)
    full_run_w = bool(np.array_equal(p_asaf.net.params, p_w5.net.params)) \
        and runlog_csv(log_asaf) == runlog_csv(log_w5)

    p_w1, log_w1 = train(
        TrainConfig(algorithm="asaf_w", w=1, stride=1, **base), demos, env)
    p_t, log_t = train(TrainConfig(algorithm="asaf_1", **base), demos, env)
    full_run_1 = bool(np.array_equal(p_w1.net.params, p_t.net.params)) \
        and runlog_csv(log_w1) == runlog_csv(log_t)

    ok = max_loss_diff == 0.0 and same_grads and full_run_w and full_run_1
    report("criterion 5 (reduction identities)",
           f"loss diff {max_loss_diff:.3g} == 0, grads identical: {same_grads}, "
           f"full-horizon run identical: {full_run_w}, one-step run identical: {full_run_1}",
           ok)
    assert ok


class _UniformPolicy:
    """Either of two actions with probability 1/2, from one uniform each."""

    action_kind = "discrete"
    draws = ("random", 1)

    def act(self, obs, u, t):
        return (u[:, 0] >= 0.5).astype(np.int64)


# ---------------------------------------------------------------- criterion 6

def test_c6_scored_discriminator_recovers_chain_and_gridworld():
    t0 = time.monotonic()
    results = asqf_suite()
    elapsed = time.monotonic() - t0
    chain, grid = results
    ok = all(r.passed for r in results) and elapsed < 300.0
    report("criterion 6 (scored discriminator)",
           f"chain argmax mismatches {chain.value:.0f} == 0, "
           f"gridworld return gap {grid.value:.3g} <= 0.10, in {elapsed:.2f}s",
           ok)
    assert ok, [r.line() for r in results]


# ---------------------------------------------------------------- criterion 7

def test_c7_transition_wise_matching_on_pointmass():
    t0 = time.monotonic()
    env = PointMassSpec()
    expert = ScriptedPointMassPolicy()
    trajs, rets = [], []
    for i in range(25):
        traj, ret = rollout(env, expert, seed=(5, i))
        trajs.append(traj)
        rets.append(ret)
    demos = DemoSet(trajectories=trajs, env_id="pointmass", action_kind="continuous",
                    obs_dim=1, mean_return=float(np.mean(rets)))

    cfg = TrainConfig(algorithm="asaf_1", lr_d=0.001, batch=100, n_g=10, epochs=10,
                      clip=1.0, steps=300, eval_k=20, eval_interval=50, seed=0,
                      hidden=(64, 64))
    policy, _ = train(cfg, demos, env)
    elapsed = time.monotonic() - t0

    expert_mean, _ = evaluate_policy(expert, env, k=50, seed=99)
    learner_mean, _ = evaluate_policy(policy, env, k=50, seed=99)
    rel_gap = abs(learner_mean - expert_mean) / abs(expert_mean)
    ok = rel_gap <= 0.10 and elapsed < 300.0
    report("criterion 7 (transition-wise continuous control)",
           f"return gap {rel_gap:.3g} <= 0.10 "
           f"(expert {expert_mean:.4f}, learner {learner_mean:.4f}) in {elapsed:.2f}s",
           ok)
    assert ok


# ---------------------------------------------------------------- criterion 8

def test_c8_exact_oracles_agree():
    worst_dp = 0.0
    worst_total = 0.0
    factorization_exact = True
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n_s, n_a = 3, 2
        horizon = int(rng.integers(2, 6))   # enumeration stays tiny for T <= 5
        mdp = TabularMdp(
            transitions=rng.dirichlet(np.ones(n_s), size=(n_s, n_a)),
            start=rng.dirichlet(np.ones(n_s)),
            rewards=rng.normal(size=(n_s, n_a)),
            horizon=horizon,
            gamma=float(rng.choice([1.0, 0.9, 0.5])),
        )
        pi = rng.dirichlet(np.ones(n_a), size=n_s)
        dist = exact_traj_distribution(mdp, pi)
        worst_total = max(worst_total, abs(sum(dist.probs.values()) - 1.0))
        for key, p in dist.probs.items():
            if p != dist.policy_factors[key] * dist.dynamics_factors[key]:
                factorization_exact = False

        w = mdp.gamma ** np.arange(horizon)
        d_s = np.zeros(n_s)
        d_sa = np.zeros((n_s, n_a))
        for key, p in dist.probs.items():
            for t in range(horizon):
                s, a = key[2 * t], key[2 * t + 1]
                d_s[s] += w[t] * p
                d_sa[s, a] += w[t] * p
        d_s /= w.sum()
        d_sa /= w.sum()
        table = occupancy(mdp, pi)
        worst_dp = max(worst_dp,
                       float(np.max(np.abs(table.d_state - d_s))),
                       float(np.max(np.abs(table.d_state_action - d_sa))))

    ok = worst_dp <= 1e-10 and worst_total <= 1e-8 and factorization_exact
    report("criterion 8 (oracle agreement)",
           f"max DP-vs-enumeration gap {worst_dp:.3g} <= 1e-10, "
           f"max |sum - 1| {worst_total:.3g} <= 1e-8, "
           f"probability factorization exact: {factorization_exact}",
           ok)
    assert ok


# ---------------------------------------------------------------- criterion 9

def test_c9_reproducibility_and_round_trips(tmp_path):
    env = chain_spec()
    demos = collect_expert_demos(env, n=10, alpha=1.0, seed=0)
    cfg = TrainConfig(algorithm="asaf", lr_d=0.01, batch=6, n_g=4, epochs=2,
                      clip=1.0, steps=4, eval_k=3, eval_interval=2, seed=13,
                      hidden=(8,))
    p1, log1 = train(cfg, demos, env)
    p2, log2 = train(cfg, demos, env)
    runs_identical = runlog_csv(log1) == runlog_csv(log2) \
        and bool(np.array_equal(p1.net.params, p2.net.params))

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_demos(a, demos)
    write_demos(b, read_demos(a))
    demos_identical = a.read_bytes() == b.read_bytes()

    ck1, ck2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ck1, p1)
    back = load_checkpoint(ck1)
    save_checkpoint(ck2, back)
    ckpt_identical = bool(np.array_equal(back.net.params, p1.net.params)) \
        and ck1.read_bytes() == ck2.read_bytes()

    ok = runs_identical and demos_identical and ckpt_identical
    report("criterion 9 (determinism and round trips)",
           f"same-seed runs identical: {runs_identical}, "
           f"demo file round trip byte-exact: {demos_identical}, "
           f"checkpoint round trip bit-exact: {ckpt_identical}",
           ok)
    assert ok
