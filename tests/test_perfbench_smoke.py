"""The benchmark under ``perfbench/`` still runs against this source tree.

The benchmark imports public names of the package, and ``perfbench/run.py``
imports ``micro`` on every run, so a change that renames or deletes one of
them fails here instead of failing the benchmark.  ``BENCHMARK_IMPORTS``
lists every package name that ``micro.py`` and ``workloads.py`` import, and
a test holds the two files to that list, so a change to the package that the
benchmark would have to follow shows in the diff.

Every microbenchmark case is called once; every workload of
``BENCHMARK.json`` is trained for two outer steps under the span tracer,
with its update and env-step counts checked, and set up in a fresh process
by ``setup_probe.py``, the path behind the ``setup_s`` metric.
"""

import ast
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


# Every package name that micro.py and workloads.py import, as module.name.
BENCHMARK_IMPORTS = [
    "asaf.AdamState", "asaf.CategoricalPolicy", "asaf.DemoSet", "asaf.GaussianPolicy", "asaf.Mlp",
    "asaf.PointMassSpec", "asaf.ScriptedPointMassPolicy", "asaf.SoftExpertPolicy", "asaf.TrainConfig",
    "asaf.adam_step", "asaf.chain_spec", "asaf.collect_expert_demos", "asaf.evaluate_policy",
    "asaf.exact_traj_distribution", "asaf.gridworld_spec", "asaf.js_between", "asaf.occupancy", "asaf.rollout",
    "asaf.soft_value_iteration", "asaf.tabular_policy_extract", "asaf.train", "asaf.window_split",
    "asaf.discriminator.AsqfModel", "asaf.discriminator.Window", "asaf.discriminator.asqf_bce_loss",
    "asaf.discriminator.bce_on_packed", "asaf.discriminator.pack_windows",
    "asaf.discriminator.refresh_generator_scores", "asaf.discriminator.transitions_from",
    "asaf.envs.one_hot", "asaf.exact.stage_marginals", "asaf.nn.clip_by_global_norm",
]


def benchmark_imports() -> list[str]:
    """The package names imported anywhere in micro.py and workloads.py, as module.name."""
    names = []
    for file in ("micro.py", "workloads.py"):
        for node in ast.walk(ast.parse((ROOT / "perfbench" / file).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "asaf":
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names if alias.name.split(".")[0] == "asaf"]
    return names


def test_the_benchmark_imports_exactly_the_listed_package_names():
    assert sorted(set(benchmark_imports())) == sorted(BENCHMARK_IMPORTS)
    assert len(BENCHMARK_IMPORTS) == len(set(BENCHMARK_IMPORTS))


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
