"""The benchmark under ``perfbench/`` still runs against this source tree.

The benchmark imports public names of the package (``window_split``,
``pack_windows``, ``gridworld_spec``, ...); a change that renames one fails
here instead of failing the benchmark.  Every microbenchmark case is called
once, and every workload of ``BENCHMARK.json`` is trained for two outer
steps under the span tracer, with its update and env-step counts checked.
"""

import json
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
