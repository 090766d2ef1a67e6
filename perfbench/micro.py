"""Per-layer microbenchmarks: public calls of each module at fixed inputs.

Inputs are generated from the workload seed, with the shapes the shipped
recipes use: the gridworld net (25 -> 64 -> 64 -> 4) for ``nn``, the
pointmass Gaussian policy (1 -> 64 -> 64 -> 2) at batch 100 for the update
path, chain and gridworld for the exact oracles.

Each case is sampled ``SAMPLES`` times, each sample a loop of calls long
enough to be measured reliably, and the samples of all cases are taken in
turn, round after round, so that a slow stretch of a shared machine touches
every case alike instead of a few of them.  A result is the median time per
call over the samples, with the quartile spread of the samples as a share of
that median.

Gridworld episodes end at the goal, so their length depends on the seed;
``envs.rollout_us.gridworld`` runs episodes at several seeds and reports the
time per ``horizon`` steps, which does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from asaf import (
    AdamState,
    CategoricalPolicy,
    GaussianPolicy,
    Mlp,
    PointMassSpec,
    adam_step,
    chain_spec,
    collect_expert_demos,
    exact_traj_distribution,
    gridworld_spec,
    js_between,
    occupancy,
    rollout,
    soft_value_iteration,
    tabular_policy_extract,
    window_split,
)
from asaf.discriminator import (
    AsqfModel,
    Window,
    asqf_bce_loss,
    bce_on_packed,
    pack_windows,
    refresh_generator_scores,
    transitions_from,
)
from asaf.envs import one_hot
from asaf.exact import stage_marginals
from asaf.nn import clip_by_global_norm

SAMPLES = 11
GRID_EPISODES = 8


def calls_per_sample(fn, sample_s: float) -> int:
    """Number of calls of ``fn()`` that take about ``sample_s`` seconds,
    found by doubling until a loop takes a quarter of that."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        took = time.perf_counter() - t0
        if took >= sample_s / 4:
            return max(1, round(n * sample_s / took))
        n *= 2


def _packed_one_step(trajs):
    return pack_windows([w for i, t in enumerate(trajs) for w in window_split(t, 1, 1, source=i)])


def cases(seed: int) -> dict[str, tuple[object, float]]:
    """Name -> (zero-argument call, calls it counts as), all inputs built
    here from ``seed``."""
    rng = np.random.default_rng(seed)
    chain, grid, pm = chain_spec(), gridworld_spec(), PointMassSpec()
    grid_mdp = grid.mdp

    net = Mlp.init((25, 64, 64, 4), rng)
    xs = {1: rng.normal(size=25), 10: rng.normal(size=(10, 25)), 100: rng.normal(size=(100, 25))}
    tapes = {b: net.forward(x)[1] for b, x in xs.items()}
    dys = {1: rng.normal(size=4), 10: rng.normal(size=(10, 4)), 100: rng.normal(size=(100, 4))}
    grad = rng.normal(size=net.n_params)
    adam = AdamState.for_params(net.params)

    cat = CategoricalPolicy.init(25, 4, (64, 64), rng)
    chain_pol = CategoricalPolicy.init(4, 2, (64, 64), rng)
    chain_gen = CategoricalPolicy.init(4, 2, (64, 64), rng)
    gauss = GaussianPolicy.init(1, 1, (64, 64), rng)
    gauss_gen = GaussianPolicy.init(1, 1, (64, 64), rng)
    sample_rng = np.random.default_rng(seed + 1)
    onehot = one_hot(int(rng.integers(25)), 25)
    x_pm = np.array([rng.uniform(-1.0, 1.0)])

    obs100 = rng.uniform(-1.0, 1.0, size=(100, 1))
    acts100 = rng.normal(size=(100, 1))
    _, tape100 = gauss.log_prob_tape(obs100, acts100)
    w100 = rng.normal(size=100) / 100

    # asaf_1 on pointmass: 10 collected episodes against 25 expert ones, batch 100
    pm_gen = _packed_one_step([rollout(pm, gauss_gen, seed=(seed, i))[0] for i in range(10)])
    pm_exp = _packed_one_step([rollout(pm, gauss, seed=(seed, 100 + i))[0] for i in range(25)])
    refresh_generator_scores(pm_gen, gauss_gen)
    refresh_generator_scores(pm_exp, gauss_gen)
    idx_g100 = rng.permutation(pm_gen.n_windows)[:100]
    idx_e100 = rng.integers(0, pm_exp.n_windows, size=100)
    pm_e100, pm_g100 = pm_exp.take(idx_e100), pm_gen.take(idx_g100)

    # asaf on chain: whole 5-step trajectories, batch 10
    chain_demos = collect_expert_demos(chain, n=200, alpha=1.0, seed=seed)
    chain_exp = pack_windows([Window(obs=t.obs, acts=t.acts, source=i)
                              for i, t in enumerate(chain_demos.trajectories)])
    chain_g = pack_windows([Window(obs=t.obs, acts=t.acts, source=i) for i, t in
                            enumerate(rollout(chain, chain_gen, seed=(seed, i))[0] for i in range(10))])
    refresh_generator_scores(chain_exp, chain_gen)
    refresh_generator_scores(chain_g, chain_gen)
    idx_e10 = rng.integers(0, chain_exp.n_windows, size=10)
    chain_e10 = chain_exp.take(idx_e10)

    # asqf on gridworld: transitions, batch 128
    model = AsqfModel.init(25, 4, (64, 64), rng)
    grid_exp = transitions_from(collect_expert_demos(grid, n=50, alpha=0.25, seed=seed).trajectories)
    grid_gen = transitions_from([rollout(grid, cat, seed=(seed, i))[0] for i in range(10)])
    grid_exp.gen_logp = cat.log_prob_batch(grid_exp.obs, grid_exp.acts)
    grid_gen.gen_logp = cat.log_prob_batch(grid_gen.obs, grid_gen.acts)
    idx_g128 = rng.permutation(len(grid_gen))[:128]
    idx_e128 = rng.integers(0, len(grid_exp), size=len(idx_g128))
    grid_e128, grid_g128 = grid_exp.take(idx_e128), grid_gen.take(idx_g128)

    chain_table = tabular_policy_extract(chain_pol, chain.mdp.n_states)
    chain_dist = exact_traj_distribution(chain.mdp, chain_table)
    expert_dist = exact_traj_distribution(chain.mdp, soft_value_iteration(chain.mdp, 1.0).policy_table())
    grid_table = tabular_policy_extract(cat, grid_mdp.n_states)

    grid_seeds = [(seed, i) for i in range(GRID_EPISODES)]
    grid_steps = sum(len(rollout(grid, cat, seed=s)[0]) for s in grid_seeds)

    def grid_rollouts():
        for s in grid_seeds:
            rollout(grid, cat, seed=s)

    calls = {
        "nn.forward_us.b1": lambda: net.forward(xs[1]),
        "nn.forward_us.b10": lambda: net.forward(xs[10]),
        "nn.forward_us.b100": lambda: net.forward(xs[100]),
        "nn.backward_us.b1": lambda: net.backward(tapes[1], dys[1]),
        "nn.backward_us.b10": lambda: net.backward(tapes[10], dys[10]),
        "nn.backward_us.b100": lambda: net.backward(tapes[100], dys[100]),
        "nn.adam_step_us": lambda: adam_step(adam, net.params, grad, 0.001),
        "nn.clip_us": lambda: clip_by_global_norm(grad, 1.0),
        "policies.sample_us.categorical": lambda: cat.sample(onehot, sample_rng),
        "policies.sample_us.gaussian": lambda: gauss.sample(x_pm, sample_rng),
        "policies.log_prob_tape_us.b100": lambda: gauss.log_prob_tape(obs100, acts100),
        "policies.backprop_log_prob_us.b100": lambda: gauss.backprop_log_prob(tape100, w100),
        "policies.tabular_extract_us.chain": lambda: tabular_policy_extract(chain_pol, chain.mdp.n_states),
        "envs.rollout_us.chain": lambda: rollout(chain, chain_pol, seed=seed),
        "envs.rollout_us.gridworld": grid_rollouts,
        "envs.rollout_us.pointmass": lambda: rollout(pm, gauss, seed=seed),
        "envs.soft_vi_us.gridworld": lambda: soft_value_iteration(grid_mdp, 0.25),
        "discriminator.take_us.asaf_1_b100": lambda: pm_gen.take(idx_g100),
        "discriminator.take_us.asaf_b10": lambda: chain_exp.take(idx_e10),
        "discriminator.transition_take_us.b128": lambda: grid_gen.take(idx_g128),
        "discriminator.refresh_us": lambda: refresh_generator_scores(pm_gen, gauss_gen),
        "discriminator.bce_on_packed_us.asaf_1_b100": lambda: bce_on_packed(gauss, pm_e100, pm_g100),
        "discriminator.bce_on_packed_us.asaf_b10": lambda: bce_on_packed(chain_pol, chain_e10, chain_g),
        "discriminator.asqf_bce_loss_us.b128": lambda: asqf_bce_loss(model, cat, grid_e128, grid_g128),
        "exact.enumerate_us.chain": lambda: exact_traj_distribution(chain.mdp, chain_table),
        "exact.js_between_us.chain": lambda: js_between(chain_dist, expert_dist),
        "exact.stage_marginals_us.gridworld": lambda: stage_marginals(grid_mdp, grid_table),
        "exact.occupancy_us.gridworld": lambda: occupancy(grid_mdp, grid_table),
    }
    per = {name: 1.0 for name in calls}
    per["envs.rollout_us.gridworld"] = grid_steps / grid.horizon
    return {name: (fn, per[name]) for name, fn in calls.items()}


def run(seed: int, budget_s: float) -> dict[str, dict]:
    """Name -> median µs per call, quartile spread and sample count for every
    case, spending about ``budget_s`` seconds on the samples."""
    todo = cases(seed)
    # Finding the calls per sample costs up to one sample's time.
    sample_s = budget_s / (len(todo) * (SAMPLES + 1))
    reps = {name: calls_per_sample(fn, sample_s) for name, (fn, _) in todo.items()}
    samples = {name: [] for name in todo}
    for _ in range(SAMPLES):
        for name, (fn, per) in todo.items():
            n = reps[name]
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            samples[name].append((time.perf_counter() - t0) / (n * per) * 1e6)
    out = {}
    for name, us in samples.items():
        median = statistics.median(us)
        q1, _, q3 = statistics.quantiles(us, n=4)
        out[name] = {"us": median, "spread": (q3 - q1) / median, "samples": len(us), "calls_per_sample": reps[name]}
    return out
