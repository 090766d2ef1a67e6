"""Pinned behaviour: every training recipe and every ``gen-expert`` output is
byte-identical to the digests recorded before the trainers were merged into
one loop, and raw rollout streams are identical to those recorded before
sampling moved to cached CDFs.

The three gridworld digests (``gridworld_asqf``, ``gen-expert`` on gridworld
and the gridworld rollout stream) were recorded again when the maze became a
``TabularMdp`` with a terminal goal, served by ``TabularSpec``.  The former
maze env drew no random numbers; ``TabularSpec.reset`` and ``step`` each
draw one uniform from the episode's ``Generator``, so the policy's draws that
follow come from other positions of the same stream.  The dynamics are
unchanged: the old maze step, made to draw one uniform per reset and per
step, reproduces the new rollout digest, and without the draws the old one.

Four chain digests (``chain_asaf``, ``chain_asaf_w``, ``chain_asaf_1`` and
``chain_bc``) were recorded again when tabular policies began to read a state
table: one forward pass of the net on all one-hot states per parameter
version.  The learner's gradient now adds the weights of each state's rows
before one backward pass over the states, where the backward used to sum
over the rows, so its last bits differ.  For the (8, 8) nets pinned here
the log-probabilities themselves are unchanged bit for bit whenever a batch
has more than one row (checked on 100 random batches of chain rows; one-row
batches, and batches on (64, 64) nets, can differ in the last bit), which is
why ``chain_asqf`` and ``gridworld_asqf``, whose learner then kept its row
path and whose generator only scores and samples, and every rollout stream
kept their digests.

``chain_asqf`` and ``gridworld_asqf`` were recorded again when the asqf score
net became a ``CategoricalPolicy`` that reads the same evaluation as the
policies, so that its learner too reads the state table on one-hot states.
Its gradient now adds the weights of each state's rows before one backward
pass over the states, as the other chain learners' did above, so its last
bits differ.  The same code made to run the asqf net on each batch's own
rows again reproduces both old digests, and keeps every other one.

``gridworld_asqf`` and the gridworld rollout stream were recorded again when
``rollout`` began to step episodes in lockstep.  Each episode now draws the
noise of all ``horizon`` steps before its first step, so a gridworld episode
that ends at the goal leaves its unused draws behind on a shared
``Generator``, and the next episode starts further along the stream.  The
dynamics and the sampling are unchanged: the former one-step-at-a-time loop,
made to draw the rest of a full-horizon block (two uniforms per step left)
on reaching the goal, reproduces both new digests and keeps every other one.
The ``gen-expert`` files draw each episode from its own stream and kept
their digests.

``chain_asaf``, ``chain_asaf_w``, ``chain_asaf_1``, ``chain_asqf`` and
``gridworld_asqf`` were recorded again when ``bce_on_packed`` began to run
one backward pass for both sides whenever both read the learner's state
table: each side's weights are added per (state, action) on their own, the
two score gradients are summed, and the sum is backpropagated once, where
the two sides used to be backpropagated apart and their gradients summed.
The same code made to run the two backward passes again reproduces all five
old digests and keeps the other nine, so the pools' one-time indexing by
state and the in-place ``adam_step`` move no bits.  ``chain_bc`` has one
side and ``pointmass_asaf_1`` has no state table, so both kept their digests.

``pointmass_asaf_1_h64`` runs the (64, 64) net of the shipped recipes at
15 and 10 rows per row block.  The (8, 8) recipes at batches of at most 32
rows get the bits of one product per side from one product over both
stacked sides, so their digests do not guard the per-block products of
``nn._matmul``; this one does: a ``_matmul`` that ignores ``split`` moves it
(to ``84ca6c62…``), while at ``batch=100`` it would not.  It was recorded on
the commit before the window builder moved into ``discriminator.windows_from``,
before any edit of that change, and the change keeps it.

The three ``gen-expert`` digests were recorded again when the demo header
gained its optional ``generator`` key, written after ``mean_return`` when
``DemoSet.generator`` is non-empty, which it is for every expert.  Each new
file with ``, "generator": "soft_vi(alpha=1.0)"`` (chain, gridworld) or
``, "generator": "scripted_proportional"`` (pointmass) cut from its header
hashes to the old digest, so nothing else in the files moved.

The verify-suite digest pins the values of the ``gradients`` and ``lemma1``
suites bit for bit: the finite-difference checks of every loss (the step of
``grad_check``, the draws of ``gradient_suite`` from its one generator) and
the fixed-point ascent of ``verify_lemma1``.  It was recorded before those
suites' options became constants and their loops one helper.

A recipe's digest is SHA-256 over the final ``policy.net.params`` bytes
followed by ``repr(log)``; a ``gen-expert`` digest is SHA-256 over the file it
writes; a rollout digest is SHA-256 over the ``obs`` and ``acts`` bytes and
the return of 100 episodes drawn one after another from one ``Generator``;
the verify-suite digest is SHA-256 over one line per check of the two suites,
``"{name} {value.hex()} {threshold.hex()}\n"``.
The digests hold for float64 NumPy on x86-64; a different BLAS or CPU may
change the last bits of a matrix product and so every digest.
"""

import hashlib
import importlib

import numpy as np
import pytest

from asaf.cli import main
from asaf.envs import (
    ScriptedPointMassPolicy,
    TabularMdp,
    TabularSpec,
    chain_spec,
    PointMassSpec,
    gridworld_spec,
    rollout,
)
from asaf.nn import Mlp
from asaf.policies import make_policy
from asaf.train import DemoSet, TrainConfig, train
from asaf.verify import collect_expert_demos, gradient_suite, lemma1_suite

RECIPES = {
    "chain_asaf": {},
    "chain_asaf_w": dict(algorithm="asaf_w", w=2, stride=1),
    "chain_asaf_1": dict(algorithm="asaf_1", batch=16),
    "chain_asqf": dict(algorithm="asqf", batch=16),
    "chain_bc": dict(algorithm="bc", batch=8),
    "gridworld_asqf": dict(algorithm="asqf", batch=16),
    "pointmass_asaf_1": dict(algorithm="asaf_1", steps=2, epochs=1, n_g=2, batch=32, eval_k=2),
    "pointmass_asaf_1_h64": dict(algorithm="asaf_1", steps=2, epochs=2, n_g=2, batch=15, eval_k=2, hidden=(64, 64)),
}

RECIPE_DIGESTS = {
    "chain_asaf": "54705476f26391be5844d6bf91b77d6a93f52fcfa0f839df230a7c2359b8e81a",
    "chain_asaf_w": "e095e0f3cdf74986c65f68ef01366d621f43f54aad29e71791962afe4f08b7c0",
    "chain_asaf_1": "31d8221a7f3bbf9f00e692d81bf183adc028edb992853256a90b6ce2c1211d0e",
    "chain_asqf": "35b772acb383173adac236be80f340e20c861ed4b37a767619e6375d1b751006",
    "chain_bc": "018b2607f7ff565a83b9d2eaa6701af04d2b911352cb2ad62c12baf59ff04b7c",
    "gridworld_asqf": "84e595fc4cd6f92daeedb5b043dd279b7822fcf21f963641b52d26d57a5db0b1",
    "pointmass_asaf_1": "5530d0761906084eb26ce6eb2fe8fdb73ced4ab6379f31e5a6a8f062d851aa51",
    "pointmass_asaf_1_h64": "db634138c7354dc6526078e1a41d7c12d53afe1c9f3946aea8855e8288f230b7",
}

GEN_EXPERT_DIGESTS = {
    "chain": "6b2c9b21c5732b8e9d4f4971866789ab25644d8e41e989ea6bb2ae8c3f16f32e",
    "gridworld": "3186257a268ee1e8777c75dfa0f46c51014653f1fb3a8176035240631ee1b474",
    "pointmass": "fb8c9c45408b81b8d69dd8091ae8b3e5bb3a8cb682ddf2be8fdc090544dcf462",
}

ROLLOUT_DIGESTS = {
    "chain": "9c5a9e62944f69935a77ca4da6f81ef0cce97c0054662ddedb49021fa536fa1c",
    "gridworld": "223e07e94ea9ad8df5c83bc760e5f8770f8dc3408b56a47e29309f17988bccbb",
    "pointmass": "2052850387945810375463da6c2146c9b9206c22f19dce395c3226562d7562c4",
    "random_mdp": "8f38e2119a299e580cbfb2b3c6a05b67254bb039b71022d2f27184f15226d2bf",
}

VERIFY_SUITES_DIGEST = "f0dc034bd8d8fe657516ff414e8615a265290fa9babcb930e05854f703a75720"


def random_mdp_spec(seed=7, n_states=5, n_actions=3):
    """Stochastic tabular task: rows drawn from a Dirichlet with some entries
    zeroed, so every draw of the transition table matters."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    p *= rng.random(p.shape) < 0.7
    p[..., 0] += 1e-3
    p /= p.sum(axis=2, keepdims=True)
    start = rng.dirichlet(np.ones(n_states))
    mdp = TabularMdp(transitions=p, start=start, rewards=rng.normal(size=(n_states, n_actions)), horizon=6)
    return TabularSpec(mdp=mdp, env_id="random_mdp")


def rollout_digest(name):
    spec = {"chain": chain_spec, "gridworld": gridworld_spec, "pointmass": PointMassSpec,
            "random_mdp": random_mdp_spec}[name]()
    policy = make_policy(spec, (64, 64), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    h = hashlib.sha256()
    for _ in range(100):
        traj, ret = rollout(spec, policy, seed=rng)
        h.update(traj.obs.tobytes())
        h.update(np.asarray(traj.acts).tobytes())
        h.update(np.float64(ret).tobytes())
    return h.hexdigest()


def pointmass_demos(n, seed):
    trajs = [rollout(PointMassSpec(), ScriptedPointMassPolicy(), seed=(seed, i))[0] for i in range(n)]
    return DemoSet(trajs, env_id="pointmass", action_kind="continuous", obs_dim=1, mean_return=0.0)


def recipe(name):
    """(config, demos, environment) of a pinned recipe."""
    cfg = TrainConfig(**{**dict(steps=3, epochs=2, n_g=3, batch=4, eval_interval=1, eval_k=3,
                                seed=0, hidden=(8, 8)), **RECIPES[name]})
    if name.startswith("pointmass"):
        return cfg, pointmass_demos(3, seed=0), PointMassSpec()
    if name.startswith("gridworld"):
        return cfg, collect_expert_demos(gridworld_spec(), n=5, alpha=0.25, seed=0), gridworld_spec()
    return cfg, collect_expert_demos(chain_spec(), n=20, alpha=1.0, seed=0), chain_spec()


def recipe_digest(name):
    policy, log = train(*recipe(name))
    return hashlib.sha256(np.asarray(policy.net.params).tobytes() + repr(log).encode()).hexdigest()


def gen_expert_digest(env, out):
    assert main(["gen-expert", "--env", env, "--n", "5", "--seed", "3", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RECIPE_DIGESTS) + [f"gen-expert-{e}" for e in sorted(GEN_EXPERT_DIGESTS)])
def test_pinned_digests(name, tmp_path, capsys):
    if name.startswith("gen-expert-"):
        env = name.removeprefix("gen-expert-")
        assert gen_expert_digest(env, tmp_path / "demos.jsonl") == GEN_EXPERT_DIGESTS[env]
    else:
        assert recipe_digest(name) == RECIPE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ROLLOUT_DIGESTS))
def test_pinned_rollout_streams(name):
    assert rollout_digest(name) == ROLLOUT_DIGESTS[name]


def test_pinned_verify_suite_values():
    rows = gradient_suite() + lemma1_suite()
    text = "".join(f"{r.name} {float(r.value).hex()} {float(r.threshold).hex()}\n" for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SUITES_DIGEST


@pytest.mark.parametrize("name", ["pointmass_asaf_1", "chain_asaf"])
def test_one_learner_forward_and_backward_per_update(name, monkeypatch):
    # the learner runs once on both sides of an update: pointmass tapes the
    # expert rows then the generator rows, cut into two blocks where they
    # meet; chain evaluates its state table once.  Each update then runs one
    # backward.  Nets no backward reads (the generators) are not counted.
    calls, forward, backward = [], Mlp.forward, Mlp.backward
    monkeypatch.setattr(Mlp, "forward", lambda net, x, split=None: calls.append(
        ("forward", net, np.shape(x), split)) or forward(net, x, split))
    monkeypatch.setattr(Mlp, "backward", lambda net, tape, dy: calls.append(
        ("backward", net, np.shape(dy), tape.split)) or backward(net, tape, dy))
    module = importlib.import_module("asaf.train")
    updates, step = [], module.adam_step
    monkeypatch.setattr(module, "adam_step", lambda *a: updates.append(len(calls)) or step(*a))
    train(*recipe(name))
    learners = {id(net) for kind, net, _, _ in calls if kind == "backward"}
    assert len(learners) == 1
    learner = [(kind, shape, split) for kind, net, shape, split in calls if id(net) in learners]
    assert updates and [kind for kind, _, _ in learner] == ["forward", "backward"] * len(updates)
    for (_, rows, split), (_, dy, tape_split) in zip(learner[::2], learner[1::2]):
        if name == "chain_asaf":
            assert (rows, split, dy, tape_split) == ((4, 4), None, (4, 2), None)
        else:
            assert rows == (2 * split, 1) and dy == (2 * split, 2) and tape_split == split
