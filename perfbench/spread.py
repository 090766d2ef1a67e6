"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/spread.py [--first-seed 0] [--trace-runs 1] [--compare FILE] [--out FILE]

This runs ``run.py`` once per seed and workload of BENCHMARK.json, one run
at a time, with its ``run_seconds``.  The runs are interleaved: seed by
seed, every workload in turn, the order rotated from one seed to the next,
so that a slow stretch of a shared machine lands on all workloads instead
of on one workload's seeds.  Per end-to-end metric it prints the median
over the ten runs and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound.  ``--trace-runs`` adds traced runs, on the
first seeds, and prints each per-layer metric's median and spread over
them, so one command prints every metric of every workload with its unit.
``--compare`` takes an earlier ``--out`` file, or ``baseline.json`` (its
later set), and prints how much worse each median got against it, as a
share of the earlier median, next to the bound.  ``--out`` writes
everything as JSON; ``baseline.json`` holds such sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
        if median:
            out["spread"] = (q3 - q1) / abs(median)
    return out


def interleaved(names: list[str], seeds: range):
    """(workload, seed) pairs, seed by seed, the workload order rotated per seed."""
    for i, seed in enumerate(seeds):
        k = i % len(names)
        for name in names[k:] + names[:k]:
            yield name, seed


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--compare")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
        earlier = earlier["sets"][-1]["workloads"] if "sets" in earlier else earlier["workloads"]

    t0 = time.perf_counter()
    seeds = range(args.first_seed, args.first_seed + RUNS)
    runs = {name: [] for name in names}
    traced = {name: [] for name in names}
    for name, seed in interleaved(names, seeds):
        runs[name].append(run_once(name, seed, seconds, 0))
        print(f"# {time.perf_counter() - t0:6.0f} s  {name} seed {seed}", flush=True)
    for name, seed in interleaved(names, seeds[: args.trace_runs]):
        traced[name].append(run_once(name, seed, seconds, 1))
        print(f"# {time.perf_counter() - t0:6.0f} s  {name} seed {seed} traced", flush=True)
    with open(RUN.parent / "out" / f"{names[0]}-seed{seeds[0]}-trace0.json", encoding="utf-8") as fh:
        environment = json.load(fh)["environment"]

    report = {"run_seconds": seconds, "runs": RUNS, "first_seed": args.first_seed,
              "environment": environment, "wall_s": time.perf_counter() - t0, "workloads": {}}
    for name in names:
        done = runs[name] + traced[name]
        entry = {
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "all_correct": all(r["correct"] for r in done),
            "end_to_end": {n: summarize([r["metrics"][n]["value"] for r in runs[name]]) for n in bounds},
            "per_layer": {n: summarize([r["metrics"][n]["value"] for r in traced[name]]) for n in units}
            if traced[name] else {},
        }
        report["workloads"][name] = entry
        print(f"{name}: failed {entry['failed']}/{entry['attempted']}, all correct {entry['all_correct']}")
        for metric, s in entry["end_to_end"].items():
            spread = s.get("spread", float("nan"))
            line = (f"  {metric:18s} median {s['median']:14.6f}  spread {spread:7.4f}  bound {bounds[metric]:.2f}"
                    f"  spread/bound {spread / bounds[metric]:5.2f}")
            if name in earlier:
                before = earlier[name]["end_to_end"][metric]["median"]
                worse = (before - s["median"] if metric in higher else s["median"] - before) / before
                s["worse_than_compared"] = worse
                line += f"  worse than compared {worse:+.4f}"
            print(line)
        for metric, s in entry["per_layer"].items():
            spread = f"spread {s['spread']:7.4f}" if "spread" in s else ""
            print(f"  {metric:44s} {s['median']:16.6f} {units[metric]:9s} {spread}".rstrip())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
