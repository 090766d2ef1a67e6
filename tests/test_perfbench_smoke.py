"""The benchmark under ``perfbench/`` still runs against this source tree.

The benchmark imports public names of the package, and ``perfbench/run.py``
imports ``micro`` on every run, so a change that renames or deletes one of
them fails here instead of failing the benchmark.  ``micro.py`` imports, at
module top:

* from ``asaf``: ``AdamState``, ``CategoricalPolicy``, ``GaussianPolicy``,
  ``Mlp``, ``PointMassSpec``, ``adam_step``, ``chain_spec``,
  ``collect_expert_demos``, ``exact_traj_distribution``, ``gridworld_spec``,
  ``js_between``, ``occupancy``, ``rollout``, ``soft_value_iteration``,
  ``tabular_policy_extract`` and ``window_split``,
* from ``asaf.discriminator``: ``AsqfModel``, ``Window``, ``asqf_bce_loss``,
  ``bce_on_packed``, ``pack_windows``, ``refresh_generator_scores`` and
  ``transitions_from``,
* ``asaf.envs.one_hot``, ``asaf.exact.stage_marginals`` and
  ``asaf.nn.clip_by_global_norm``.

Every microbenchmark case is called once; every workload of
``BENCHMARK.json`` is trained for two outer steps under the span tracer,
with its update and env-step counts checked, and set up in a fresh process
by ``setup_probe.py``, the path behind the ``setup_s`` metric.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checkout  # noqa: E402

checkout.use_checkout_src()

import micro  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from asaf.train import train  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# (adam steps, env steps) of two outer steps: n_g = 10 episodes per step, and
# per step epochs = 10 passes over the generator pool in batches.
COUNTS = {"chain_asaf": (20, 100), "pointmass_asaf1": (100, 1000)}


def test_micro_cases_all_run():
    for name, (fn, per) in micro.cases(0).items():
        fn()
        assert per > 0, name


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_traced(name):
    work = workloads.build(name, seed=0, steps=2)
    tracer = spans.Tracer()
    with tracer:
        policy, log = tracer.call(train, work.cfg, work.demos, work.env)
    counts = tracer.analyse()["counts"]
    assert (counts["train.updates"], counts["train.env_steps"]) == COUNTS[name]
    assert log.total_env_steps == COUNTS[name][1]
    assert len(log.rows) == 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_setup_probe_runs_in_a_fresh_process(name):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip().splitlines()[-1]) > 0.0
