"""Build one workload's inputs from its seed and judge a trained policy.

Definitions live in ``workloads.json``.  The benchmark seed seeds the demos
and ``TrainConfig.seed``; the program receives only the generated demos and
the config.  Call ``checkout.use_checkout_src()`` before importing this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from asaf import (
    DemoSet,
    PointMassSpec,
    ScriptedPointMassPolicy,
    SoftExpertPolicy,
    TrainConfig,
    chain_spec,
    collect_expert_demos,
    evaluate_policy,
    gridworld_spec,
    rollout,
    soft_value_iteration,
    train,
)

SPEC_PATH = Path(__file__).with_name("workloads.json")
ENVS = {"chain": chain_spec, "gridworld": gridworld_spec, "pointmass": PointMassSpec}


def specs() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@dataclass
class Workload:
    name: str
    seed: int
    env: object
    demos: DemoSet
    cfg: TrainConfig
    quality_spec: dict
    expert_alpha: float | None     # soft-VI temperature of the demos; None when scripted

    @property
    def quality_bound(self) -> float:
        return float(self.quality_spec["bound"])

    def expert(self):
        if self.demos.action_kind == "continuous":
            return ScriptedPointMassPolicy()
        return SoftExpertPolicy(soft_value_iteration(self.env.mdp, self.expert_alpha))

    def untrained_js(self) -> float:
        """Exact JS to the expert of the policy this seed starts from: one
        outer step that makes no update."""
        _, log = train(replace(self.cfg, steps=1, epochs=0), self.demos, self.env)
        return float(log.rows[-1].js_to_expert)

    def quality(self, policy, log) -> float:
        """Mean exact JS to the expert over the run's evaluations as a share
        of the untrained policy's, or the relative return gap to the expert
        on fixed evaluation seeds; lower is better for both."""
        if self.quality_spec["metric"] == "mean_js_share":
            untrained = self.untrained_js()
            mean = float(np.mean([row.js_to_expert for row in log.rows]))
            return mean / untrained if untrained > 0 else float("inf")
        seed, k = self.quality_spec["eval_seed"], self.quality_spec["eval_k"]
        expert_mean, _ = evaluate_policy(self.expert(), self.env, k=k, seed=seed)
        learner_mean, _ = evaluate_policy(policy, self.env, k=k, seed=seed)
        return abs(learner_mean - expert_mean) / abs(expert_mean)


def scripted_demos(env: PointMassSpec, n: int, seed: int) -> DemoSet:
    """Episodes of the scripted point-mass controller, as acceptance c7 builds them."""
    expert = ScriptedPointMassPolicy()
    trajs, rets = [], []
    for i in range(n):
        traj, ret = rollout(env, expert, seed=(seed, i))
        trajs.append(traj)
        rets.append(ret)
    return DemoSet(trajectories=trajs, env_id=env.env_id, action_kind="continuous",
                   obs_dim=env.obs_dim, mean_return=float(np.mean(rets)),
                   generator="scripted_proportional")


def build(name: str, seed: int, steps: int | None = None) -> Workload:
    """Inputs of workload ``name`` at ``seed``; ``steps`` overrides the outer steps."""
    spec = specs()[name]
    env = ENVS[spec["env"]]()
    demo_spec = spec["demos"]
    if demo_spec["kind"] == "soft_vi":
        demos = collect_expert_demos(env, n=demo_spec["n"], alpha=demo_spec["alpha"], seed=seed)
    else:
        demos = scripted_demos(env, demo_spec["n"], seed)
    fields = dict(spec["config"], hidden=tuple(spec["config"]["hidden"]), seed=seed)
    if steps is not None:
        fields["steps"] = steps
    return Workload(name=name, seed=seed, env=env, demos=demos, cfg=TrainConfig(**fields),
                    quality_spec=spec["quality"], expert_alpha=demo_spec.get("alpha"))
