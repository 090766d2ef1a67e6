"""Training loops: seeding, logging, reductions, and the no-reward guarantee."""

import importlib

import numpy as np
import pytest

from asaf.envs import (
    PointMassSpec,
    ScriptedPointMassPolicy,
    TabularMdp,
    TabularSpec,
    Trajectory,
    chain_spec,
    env_by_id,
    gridworld_spec,
    one_hot,
)
from asaf import discriminator as disc
from asaf import nn
from asaf.errors import NumericalError, UnsupportedError, ValidationError
from asaf.formats import runlog_csv
from asaf.nn import Mlp
from asaf.policies import CategoricalPolicy, make_policy, tabular_policy_extract
from asaf.train import DemoSet, TrainConfig, _pool, evaluate_policy, train
from asaf.verify import collect_expert_demos

LOG4 = np.log(4.0)


def tiny_cfg(**kw):
    base = dict(
        algorithm="asaf",
        steps=3,
        epochs=2,
        n_g=3,
        batch=4,
        eval_interval=1,
        eval_k=3,
        seed=0,
        hidden=(8, 8),
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def chain_demos():
    return collect_expert_demos(chain_spec(), n=20, alpha=1.0, seed=0)


class ConstantPolicy:
    action_kind = "discrete"
    draws = ("random", 0)

    def __init__(self, action):
        self.action = action

    def act(self, obs, noise, t):
        return np.full(len(obs), self.action)


# ---------------------------------------------------------------- config

def test_config_validation_errors():
    with pytest.raises(ValidationError):
        TrainConfig(algorithm="gail").validated()
    with pytest.raises(ValidationError):
        TrainConfig(algorithm="asaf", w=3).validated()
    with pytest.raises(ValidationError):
        TrainConfig(algorithm="asaf_w").validated()          # missing w
    with pytest.raises(ValidationError):
        TrainConfig(algorithm="asaf_1", w=2).validated()
    with pytest.raises(ValidationError):
        TrainConfig(algorithm="bc", stride=1).validated()
    with pytest.raises(ValidationError):
        TrainConfig(lr_d=0.0).validated()
    # non-finite reals: NaN passes every `<=` test, so each is refused by name
    for bad in (dict(lr_d=np.nan), dict(lr_d=np.inf), dict(clip=np.nan), dict(clip=0.0), dict(clip=-np.inf)):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            TrainConfig(**bad).validated()
    assert TrainConfig(clip=np.inf).validated().clip == np.inf   # never clips
    for mode in ("soft", "value"):     # global-norm clipping is the one mode
        with pytest.raises(ValidationError, match=f"clip_mode must be 'norm', got '{mode}'"):
            TrainConfig(clip_mode=mode).validated()
    with pytest.raises(ValidationError):
        TrainConfig(eval_interval=0).validated()
    with pytest.raises(ValidationError):
        TrainConfig(seed=-1).validated()


@pytest.mark.parametrize("name, bad", [
    ("hidden size", dict(hidden=(8.7,))), ("hidden size", dict(hidden=(8, True))), ("eval_k", dict(eval_k=True)),
    ("batch", dict(batch=2.5)), ("steps", dict(steps=1.5)), ("epochs", dict(epochs=1.0)),
    ("n_g", dict(n_g=np.float64(2.0))), ("seed", dict(seed=False)), ("eval_interval", dict(eval_interval=3.0)),
    ("w", dict(algorithm="asaf_w", w=2.0)), ("stride", dict(algorithm="asaf_w", w=2, stride=True)),
    ("w", dict(algorithm="asaf_1", w=True)),
])
def test_config_refuses_non_integer_counts(name, bad):
    # 2.5 used to fail deep inside train(); 8.7, 1.0 and True ran as 8, 1 and 1
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        TrainConfig(**bad).validated()


def test_config_accepts_numpy_integers():
    cfg = TrainConfig(algorithm="asaf_w", w=np.int64(2), batch=np.int32(3), seed=np.uint8(4),
                      hidden=(np.int64(8),)).validated()
    assert (cfg.w, cfg.stride, cfg.batch, cfg.seed, cfg.hidden) == (2, 2, 3, 4, (8,))
    assert type(cfg.hidden[0]) is int


def test_config_stride_defaults_to_w():
    cfg = TrainConfig(algorithm="asaf_w", w=3).validated()
    assert cfg.stride == 3
    cfg = TrainConfig(algorithm="asaf_1").validated()
    assert (cfg.w, cfg.stride) == (1, 1)


def test_dispatch_rejects_cross_algorithm_calls():
    # one algorithm's options are refused on another before any demo is read
    demos = DemoSet([Trajectory(obs=np.eye(4)[:2], acts=np.array([1, 1]))],
                    env_id="chain", action_kind="discrete", obs_dim=4, mean_return=0.0)
    env = chain_spec()
    with pytest.raises(ValidationError):
        train(tiny_cfg(algorithm="asqf", w=2), demos, env)
    with pytest.raises(ValidationError):
        train(tiny_cfg(algorithm="bc", stride=1), demos, env)
    with pytest.raises(ValidationError):
        train(tiny_cfg(algorithm="asaf", w=5, stride=5), demos, env)
    with pytest.raises(ValidationError):
        train(tiny_cfg(algorithm="gail"), demos, env)


# ---------------------------------------------------------------- evaluation

def test_evaluate_constant_policy_exact():
    mean, std = evaluate_policy(ConstantPolicy(1), chain_spec(), k=5, seed=0)
    assert mean == pytest.approx(2.9, abs=1e-12)   # rewards 0.4+0.5+0.6+0.7+0.7
    assert std == 0.0


def test_evaluate_is_deterministic():
    policy = ScriptedPointMassPolicy()
    a = evaluate_policy(policy, PointMassSpec(), k=10, seed=3)
    b = evaluate_policy(policy, PointMassSpec(), k=10, seed=3)
    assert a == b
    c = evaluate_policy(policy, PointMassSpec(), k=10, seed=4)
    assert a != c
    with pytest.raises(ValidationError):
        evaluate_policy(policy, PointMassSpec(), k=0)
    with pytest.raises(ValidationError):
        evaluate_policy(policy, PointMassSpec(), k=1, seed=-1)


@pytest.mark.parametrize("k", [2.5, True, np.float64(2.0)])
def test_evaluate_and_expert_demos_refuse_non_integer_counts(k):
    # 2.5 used to die in a bare TypeError; True ran one episode
    with pytest.raises(ValidationError, match="k must be an integer"):
        evaluate_policy(ConstantPolicy(1), chain_spec(), k=k)
    with pytest.raises(ValidationError, match="n must be an integer"):
        collect_expert_demos(chain_spec(), n=k, alpha=1.0, seed=0)
    assert len(collect_expert_demos(chain_spec(), n=np.int64(2), alpha=1.0, seed=np.int64(0))) == 2


def test_evaluate_refuses_a_non_finite_return():
    class NanPolicy:
        action_kind = "continuous"
        draws = ("random", 0)

        def act(self, obs, noise, t):
            return np.full((len(obs), 1), np.nan)

    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite evaluation return"):
        evaluate_policy(NanPolicy(), PointMassSpec(), k=2, seed=0)


def test_scripted_pointmass_policy_return_frozen():
    mean, std = evaluate_policy(ScriptedPointMassPolicy(), PointMassSpec(), k=200, seed=77)
    assert mean == pytest.approx(-0.7524351410308131, abs=1e-12)
    assert std == pytest.approx(0.8279286054975545, abs=1e-12)
    assert mean > -1.0


# ---------------------------------------------------------------- demo checks

def test_demo_env_mismatch_is_rejected(chain_demos):
    with pytest.raises(ValidationError):
        train(tiny_cfg(), chain_demos, gridworld_spec())
    empty = DemoSet([], env_id="chain", action_kind="discrete", obs_dim=4, mean_return=0.0)
    with pytest.raises(ValidationError):
        train(tiny_cfg(), empty, chain_spec())
    wrong_kind = DemoSet(chain_demos.trajectories, env_id="pointmass", action_kind="discrete",
                         obs_dim=1, mean_return=0.0)
    with pytest.raises(ValidationError):
        train(tiny_cfg(), wrong_kind, PointMassSpec())
    for bad in (-1, 2):
        acts = [np.array([1, 1, 0, 1, 1]), np.array([1, 0, bad, 1, 1])]
        out_of_range = DemoSet([Trajectory(obs=np.eye(4)[[0, 1, 2, 3, 3]], acts=a) for a in acts],
                               env_id="chain", action_kind="discrete", obs_dim=4, mean_return=0.0)
        with pytest.raises(ValidationError, match=rf"episode 1 \(demo file line 3\): action {bad}"):
            train(tiny_cfg(), out_of_range, chain_spec())


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                                 [2.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0 + 1e-16 * 4]])
@pytest.mark.parametrize("episode, step", [(0, 0), (1, 2), (2, 1)])
def test_tabular_demo_rows_must_be_one_hot(row, episode, step):
    trajs = [one_hot_traj(states, [1] * len(states)) for states in ([0, 1, 2], [0, 1, 2, 3, 3], [1, 2])]
    trajs[episode].obs[step] = row
    demos = DemoSet(trajs, env_id="chain", action_kind="discrete", obs_dim=4, mean_return=0.0)
    with pytest.raises(ValidationError, match=rf"episode {episode} \(demo file line {episode + 2}\): "
                                              rf"observation row {step} is not a one-hot state"):
        train(tiny_cfg(steps=1), demos, chain_spec())


def test_continuous_demo_actions_must_be_act_dim_wide():
    acts = [np.zeros((3, 1)), np.zeros((3, 2))]
    wide = DemoSet([Trajectory(obs=np.zeros((3, 1)), acts=a) for a in acts],
                   env_id="pointmass", action_kind="continuous", obs_dim=1, mean_return=0.0)
    with pytest.raises(ValidationError, match=r"episode 1 \(demo file line 3\): actions of shape \(3, 2\), "
                                              r"expected \(3, 1\)"):
        train(tiny_cfg(algorithm="asaf_1", steps=1), wide, PointMassSpec())


@pytest.mark.parametrize("env_id, algorithm, width", [("chain", "asaf", 5), ("chain", "asqf", 3),
                                                      ("gridworld", "asaf_1", 4), ("pointmass", "asaf_1", 2)])
def test_demo_observation_rows_must_be_obs_dim_wide(env_id, algorithm, width):
    # a library caller's DemoSet used to die in np.concatenate (tabular) or in the net (pointmass)
    env = env_by_id(env_id)
    episodes = collect_expert_demos(env, n=3, alpha=1.0, seed=0).trajectories
    episodes[1] = Trajectory(obs=np.zeros((len(episodes[1]), width)), acts=episodes[1].acts)
    demos = DemoSet(episodes, env_id=env_id, action_kind=env.action_kind, obs_dim=env.obs_dim, mean_return=0.0)
    with pytest.raises(ValidationError, match=rf"^episode 1 \(demo file line 3\): observation rows {width} wide, "
                                              rf"expected {env.obs_dim}$"):
        train(tiny_cfg(algorithm=algorithm, steps=1), demos, env)


@pytest.mark.parametrize("algorithm, cfg_kw", [("asaf", {}), ("asaf_w", dict(w=2, stride=1)),
                                               ("asaf_w", dict(w=3, stride=2)), ("asaf_1", {}),
                                               ("asqf", {}), ("bc", {})])
def test_pool_state_ids_equal_indexing_before_the_gather(chain_demos, algorithm, cfg_kw):
    # the pool used to index every demo row and then gather the windows' rows;
    # indexing the gathered rows gives the same ids, repeated rows included
    trajs = chain_demos.trajectories
    cfg = tiny_cfg(algorithm=algorithm, **cfg_kw).validated()
    policy = make_policy(chain_spec(), (8,), np.random.default_rng(0))
    pool = _pool(trajs, cfg, policy)
    states, acts = policy.index(np.concatenate([t.obs for t in trajs]), np.concatenate([t.acts for t in trajs]))
    firsts = np.cumsum([len(t) for t in trajs]) - [len(t) for t in trajs]
    windows = [[disc.Window(t.obs, t.acts)] if algorithm == "asaf" else
               disc.window_split(t, cfg.w or 1, cfg.stride or 1) for t in trajs]
    rows = np.concatenate([first + win.offset + np.arange(len(win)) for first, wins in zip(firsts, windows)
                           for win in wins])
    assert pool.states.dtype == states.dtype and pool.states.tobytes() == states[rows].tobytes()
    assert pool.acts.dtype == acts.dtype and pool.acts.tobytes() == acts[rows].tobytes()
    assert pool.obs.tobytes() == np.concatenate([t.obs for t in trajs])[rows].tobytes()


# ---------------------------------------------------------------- asaf loop

def test_asaf_zero_steps_returns_untrained_policy(chain_demos):
    policy, log = train(tiny_cfg(steps=0), chain_demos, chain_spec())
    assert log.rows == [] and log.first_batch_losses == []
    assert log.total_env_steps == 0
    assert policy.sample(one_hot(0, 4), np.random.default_rng(0)) in (0, 1)


def test_asaf_same_seed_is_bitwise_reproducible(chain_demos):
    p1, l1 = train(tiny_cfg(), chain_demos, chain_spec())
    p2, l2 = train(tiny_cfg(), chain_demos, chain_spec())
    assert runlog_csv(l1) == runlog_csv(l2)
    np.testing.assert_array_equal(p1.net.params, p2.net.params)
    p3, _ = train(tiny_cfg(seed=1), chain_demos, chain_spec())
    assert not np.array_equal(p1.net.params, p3.net.params)


def test_asaf_first_batch_loss_is_log4(chain_demos):
    # every outer step starts with learner == generator, where the
    # discriminator is exactly 1/2 on both sides of any batch
    _, log = train(tiny_cfg(steps=4), chain_demos, chain_spec())
    assert len(log.first_batch_losses) == 4
    np.testing.assert_allclose(log.first_batch_losses, LOG4, atol=1e-9)


def test_asaf_env_step_accounting(chain_demos):
    cfg = tiny_cfg(steps=3, n_g=4, eval_interval=2)
    _, log = train(cfg, chain_demos, chain_spec())
    assert log.total_env_steps == 3 * 4 * 5       # chain episodes always run 5 steps
    assert [r.step for r in log.rows] == [2, 3]
    assert [r.env_steps for r in log.rows] == [2 * 4 * 5, 3 * 4 * 5]


def test_asaf_eval_rows_and_seeds(chain_demos):
    cfg = tiny_cfg(steps=7, eval_interval=3, seed=5)
    _, log = train(cfg, chain_demos, chain_spec())
    assert [r.step for r in log.rows] == [3, 6, 7]
    for row in log.rows:
        assert row.eval_seed == 5 + 100003 * row.step
    assert log.rows[0].js_to_expert is not None


def test_asaf_final_row_reproducible_from_policy(chain_demos):
    cfg = tiny_cfg()
    policy, log = train(cfg, chain_demos, chain_spec())
    last = log.rows[-1]
    mean, std = evaluate_policy(policy, chain_spec(), k=cfg.eval_k, seed=last.eval_seed)
    assert mean == last.mean_return
    assert std == last.std_return


def test_asaf_never_reads_rewards(chain_demos):
    # two environments identical except for the reward tables produce the
    # same learned parameters under the same seed
    base = chain_spec().mdp
    zeroed = TabularMdp(transitions=base.transitions, start=base.start,
                        rewards=np.zeros_like(base.rewards), horizon=base.horizon, gamma=base.gamma)
    spec0 = TabularSpec(mdp=zeroed, env_id="chain")
    cfg = tiny_cfg(steps=2)
    p_real, l_real = train(cfg, chain_demos, chain_spec())
    p_zero, l_zero = train(cfg, chain_demos, spec0)
    np.testing.assert_array_equal(p_real.net.params, p_zero.net.params)
    assert l_real.first_batch_losses == l_zero.first_batch_losses
    # the reward channel only feeds evaluation
    assert l_real.rows[-1].mean_return != l_zero.rows[-1].mean_return
    assert all(r.mean_return == 0.0 for r in l_zero.rows)


def test_pointmass_js_column_is_empty():
    demos = DemoSet(
        [Trajectory(obs=np.zeros((3, 1)), acts=np.zeros((3, 1)))],
        env_id="pointmass", action_kind="continuous", obs_dim=1, mean_return=0.0,
    )
    cfg = tiny_cfg(algorithm="asaf_1", steps=1, n_g=1, epochs=1, batch=8, eval_k=2)
    _, log = train(cfg, demos, PointMassSpec())
    assert log.rows[-1].js_to_expert is None
    assert log.total_env_steps == 50


@pytest.mark.parametrize("env_id, calls", [("chain", 1), ("gridworld", 0)])
def test_expert_reference_runs_soft_vi_only_when_enumerable(env_id, calls, monkeypatch):
    # gridworld's 4^30 trajectories exceed the budget, so its expert is never needed
    module = importlib.import_module("asaf.train")   # the package rebinds asaf.train to the function
    spec = env_by_id(env_id)
    demos = collect_expert_demos(spec, n=2, alpha=1.0, seed=0)
    seen = []
    real = module.soft_value_iteration
    monkeypatch.setattr(module, "soft_value_iteration", lambda *a: seen.append(a) or real(*a))
    train(tiny_cfg(algorithm="asqf", steps=0), demos, spec)
    assert len(seen) == calls


def test_gridworld_js_column_is_empty():
    # gridworld is tabular, but 4^30 trajectories exceed the enumeration budget
    grid = gridworld_spec()
    demos = collect_expert_demos(grid, n=3, alpha=0.25, seed=0)
    _, log = train(tiny_cfg(algorithm="asqf", steps=1, n_g=2, epochs=1, eval_k=2), demos, grid)
    assert log.rows[-1].js_to_expert is None
    assert runlog_csv(log).splitlines()[-1].endswith(",")


# ---------------------------------------------------------------- reductions

def test_asaf_w_full_width_equals_asaf(chain_demos):
    # every chain episode is exactly 5 steps, so w = 5 windows are whole
    # trajectories and the two algorithms must walk identical paths
    p_a, l_a = train(tiny_cfg(), chain_demos, chain_spec())
    p_w, l_w = train(tiny_cfg(algorithm="asaf_w", w=5), chain_demos, chain_spec())
    np.testing.assert_array_equal(p_a.net.params, p_w.net.params)
    assert runlog_csv(l_a) == runlog_csv(l_w)


def test_asaf_w_unit_window_equals_asaf_1(chain_demos):
    p_w, l_w = train(tiny_cfg(algorithm="asaf_w", w=1, stride=1, batch=16), chain_demos, chain_spec())
    p_1, l_1 = train(tiny_cfg(algorithm="asaf_1", batch=16), chain_demos, chain_spec())
    np.testing.assert_array_equal(p_w.net.params, p_1.net.params)
    assert runlog_csv(l_w) == runlog_csv(l_1)


def test_tabular_training_runs_the_nets_on_the_states_only(chain_demos, monkeypatch):
    # every forward of a tabular run evaluates all S states at once: the
    # generator's scores of both pools, its samples, the learner's loss pass
    # (asqf's score net included), the evaluation and the exact oracle all
    # read state tables; both sides of an update share one backward over them
    rows, forward = [], Mlp.forward
    backwards, backward = [], Mlp.backward
    monkeypatch.setattr(Mlp, "forward", lambda net, x, *split: rows.append(np.shape(x)) or forward(net, x, *split))
    monkeypatch.setattr(Mlp, "backward", lambda net, tape, dy: backwards.append(np.shape(dy)) or backward(net, tape, dy))
    # the pool holds whole episodes (asaf) or their 5 transitions each (asqf)
    for algorithm, pool_per_episode in (("asaf", 1), ("asqf", 5)):
        rows.clear()
        backwards.clear()
        cfg = tiny_cfg(algorithm=algorithm, steps=2)
        policy, log = train(cfg, chain_demos, chain_spec())
        assert set(rows) == {(4, 4)}, algorithm
        # one table for the first generator, one per update, one per later generator
        minibatches = -(-cfg.n_g * pool_per_episode // cfg.batch)
        assert len(rows) == 1 + cfg.steps * cfg.epochs * minibatches + cfg.steps, algorithm
        assert backwards == [(4, 2)] * (cfg.steps * cfg.epochs * minibatches), algorithm
        assert log.rows[-1].js_to_expert is not None


# ---------------------------------------------------------------- asqf loop

@pytest.mark.parametrize("env_id, algorithm, cfg_kw, per_epoch", [
    ("pointmass", "asaf_1", dict(n_g=2, batch=30), 2),   # 100 transitions: minibatches of 30, 30, 30 and 10
    ("chain", "asaf", dict(n_g=3, batch=4), 2),          # 3 episodes: one minibatch, two gathers an update as before
    ("chain", "bc", dict(batch=7), 1),                   # bc gathers the demo transitions alone
])
def test_updates_gather_each_side_once_per_epoch(env_id, algorithm, cfg_kw, per_epoch, monkeypatch):
    spec = env_by_id(env_id)
    demos = collect_expert_demos(spec, n=4, alpha=1.0, seed=3)
    calls, take = [], disc.PackedWindows.take
    monkeypatch.setattr(disc.PackedWindows, "take", lambda self, idx: calls.append(len(idx)) or take(self, idx))
    cfg = tiny_cfg(algorithm=algorithm, **cfg_kw)
    train(cfg, demos, spec)
    pools = 1 + (cfg.steps if algorithm != "bc" else 0)   # each pool is built with one take
    assert len(calls) == pools + per_epoch * cfg.steps * cfg.epochs


def test_asqf_smoke_and_determinism(chain_demos):
    cfg = tiny_cfg(algorithm="asqf", steps=2, epochs=1, batch=16, n_g=2)
    p1, l1 = train(cfg, chain_demos, chain_spec())
    p2, l2 = train(cfg, chain_demos, chain_spec())
    assert isinstance(p1, CategoricalPolicy)
    np.testing.assert_array_equal(p1.net.params, p2.net.params)
    assert runlog_csv(l1) == runlog_csv(l2)
    assert l1.total_env_steps == 2 * 2 * 5
    assert l1.rows[-1].js_to_expert is not None
    # unlike the likelihood-ratio form, the score net is unnormalized, so
    # the initial discriminator is not pinned at 1/2 and the loss only has
    # to be finite and positive
    assert all(np.isfinite(v) and v > 0.0 for v in l1.first_batch_losses)


def test_asqf_requires_discrete_actions():
    demos = DemoSet(
        [Trajectory(obs=np.zeros((2, 1)), acts=np.zeros((2, 1)))],
        env_id="pointmass", action_kind="continuous", obs_dim=1, mean_return=0.0,
    )
    with pytest.raises(UnsupportedError):
        train(tiny_cfg(algorithm="asqf", steps=1), demos, PointMassSpec())


# ---------------------------------------------------------------- bc loop

def one_hot_traj(states, actions):
    return Trajectory(obs=np.stack([one_hot(s, 4) for s in states]), acts=np.asarray(actions))


def test_bc_learns_deterministic_demos():
    demos = DemoSet(
        [one_hot_traj([0, 1, 2, 3, 3], [1, 1, 1, 1, 1]) for _ in range(10)],
        env_id="chain", action_kind="discrete", obs_dim=4, mean_return=2.9,
    )
    cfg = tiny_cfg(algorithm="bc", steps=30, epochs=2, batch=10, eval_interval=30)
    policy, log = train(cfg, demos, chain_spec())
    table = tabular_policy_extract(policy, 4)
    assert np.all(np.argmax(table, axis=1) == 1)
    assert log.first_batch_losses[-1] < log.first_batch_losses[0]
    assert log.total_env_steps == 0
    assert all(r.env_steps == 0 for r in log.rows)


def test_bc_nll_column_and_determinism(chain_demos):
    cfg = tiny_cfg(algorithm="bc", steps=2, epochs=1, batch=20)
    p1, l1 = train(cfg, chain_demos, chain_spec())
    p2, l2 = train(cfg, chain_demos, chain_spec())
    np.testing.assert_array_equal(p1.net.params, p2.net.params)
    assert runlog_csv(l1) == runlog_csv(l2)
    # the loss column carries the negative demo log-likelihood, about log 2
    # per step for a near-uniform starting policy
    assert 0.0 < l1.rows[-1].bce_loss < 1.5


def test_bc_zero_epochs_leaves_policy_at_init(chain_demos):
    cfg = tiny_cfg(algorithm="bc", steps=2, epochs=0)
    p_idle, log = train(cfg, chain_demos, chain_spec())
    p_init, _ = train(tiny_cfg(algorithm="bc", steps=0), chain_demos, chain_spec())
    np.testing.assert_array_equal(p_idle.net.params, p_init.net.params)
    assert log.first_batch_losses == []
    assert np.isnan(log.rows[-1].bce_loss)


# ---------------------------------------------------------------- dispatcher

def test_train_dispatches_by_algorithm(chain_demos):
    for algo in ("asaf", "bc"):
        policy, log = train(tiny_cfg(algorithm=algo, steps=1, epochs=1), chain_demos, chain_spec())
        assert log.rows[-1].step == 1
    policy, _ = train(tiny_cfg(algorithm="asqf", steps=1, epochs=1, batch=16), chain_demos, chain_spec())
    assert isinstance(policy, CategoricalPolicy)


def test_interleaved_repeat_calls_are_bitwise_equal():
    # the benchmark's repeat check: three recipes called in turn in one
    # process, twice over, each call's result bitwise the same as its first;
    # no cache, memo or pool may carry state from one train() call to another
    chain, pointmass = chain_spec(), PointMassSpec()
    chain_demos = collect_expert_demos(chain, n=20, alpha=1.0, seed=1)
    pointmass_demos = collect_expert_demos(pointmass, n=3, alpha=1.0, seed=1)
    runs = [(tiny_cfg(steps=4, n_g=10, batch=10, eval_interval=2, hidden=(64, 64), seed=1), chain_demos, chain),
            (tiny_cfg(algorithm="asaf_1", steps=2, n_g=2, batch=100, hidden=(64, 64), seed=1), pointmass_demos, pointmass),
            (tiny_cfg(algorithm="asqf", steps=3, batch=16, seed=1), chain_demos, chain)]
    first = []
    for repeat in range(2):
        for i, (cfg, demos, spec) in enumerate(runs):
            policy, log = train(cfg, demos, spec)
            got = (policy.net.params.tobytes(), repr(log))
            if repeat == 0:
                first.append(got)
            else:
                assert got == first[i], cfg.algorithm


# ---------------------------------------------------------------- divergence

def test_divergence_after_the_last_update_names_the_outer_step(chain_demos, recwarn):
    # the one update overflows the learner; the snapshot's scores are not
    # finite, which its first evaluation refuses, without a NumPy warning
    with pytest.raises(NumericalError, match=r"^outer step 1: non-finite net scores$"):
        train(tiny_cfg(lr_d=1e300, steps=1, epochs=1, batch=10), chain_demos, chain_spec())
    with pytest.raises(NumericalError, match=r"^outer step 1, epoch 2, minibatch 1: non-finite net scores$"):
        train(tiny_cfg(lr_d=1e300, steps=1, epochs=2, batch=10), chain_demos, chain_spec())
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------- BLAS threads

def test_train_runs_on_one_blas_thread_and_restores_the_count(chain_demos, blas_threads, monkeypatch):
    get, _ = blas_threads
    module = importlib.import_module("asaf.train")
    seen, step = [], module.adam_step
    monkeypatch.setattr(module, "adam_step", lambda *a: seen.append(get()) or step(*a))
    train(tiny_cfg(steps=1), chain_demos, chain_spec())
    assert seen and set(seen) == {1}
    assert get() == 2


def test_train_restores_the_blas_threads_when_it_raises(chain_demos, blas_threads):
    get, _ = blas_threads
    with pytest.raises(NumericalError):
        train(tiny_cfg(lr_d=1e300), chain_demos, chain_spec())
    assert get() == 2


@pytest.mark.parametrize("env_id, algorithm", [("chain", "asaf"), ("pointmass", "asaf_1")])
def test_train_without_a_blas_setter_is_bitwise_the_same(env_id, algorithm, blas_threads, monkeypatch):
    # pointmass updates multiply 100 x 64 matrices, which OpenBLAS splits
    # over the caller's 2 threads when train() cannot cap them
    spec = env_by_id(env_id)
    demos = collect_expert_demos(spec, n=2, alpha=1.0, seed=0)
    cfg = tiny_cfg(algorithm=algorithm, steps=2, n_g=2, batch=100, hidden=(64, 64))
    p_one, l_one = train(cfg, demos, spec)
    monkeypatch.setattr(nn, "_openblas_threads", lambda: None)
    p_two, l_two = train(cfg, demos, spec)
    assert p_one.net.params.tobytes() == p_two.net.params.tobytes()
    assert repr(l_one) == repr(l_two)
