"""Benchmark of the shipped training recipes, end to end and layer by layer.

    python3 perfbench/run.py --workload chain_asaf --seed 1 --seconds 50 --trace 0

Workloads are defined in ``perfbench/workloads.json``.  Each is a closed
loop: one ``asaf.train.train`` call at a time in this one process, with the
default threading a user gets (nothing is pinned).

``--trace 0`` measures end to end.  A first ``train()`` call, traced only
at ``adam_step``, counts the updates and fixes the reference result; then
untraced calls repeat for ``--seconds``, interleaved with sixteen fresh
processes that time the set-up.  Every call must reproduce the reference
parameters bitwise, and the reference must meet the workload's quality
bound, or the call counts as failed.  A pass of the fixed kernel in
``calibrate.py`` precedes every call; times are medians over the run, scaled
by the kernel's reference time over its median time in the run, so that
they read as seconds on the machine at its reference speed.

``--trace 1`` measures layers.  Untraced and traced calls alternate; the
traced ones record a span around every public call the loop makes (see
``spans.py``), and their final parameters must equal the untraced ones
bitwise.  Then every microbenchmark in ``micro.py`` runs for the rest of
``--seconds``.

Every metric is printed by name with its unit, after the environment.  The
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, holding the metrics ``BENCHMARK.json`` lists for the mode.  A
full record, and the spans of the last traced call, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checkout

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 16
MIN_REPEATS = 3
MAX_LOOP_S = 120.0
TRACE_SHARE = 0.4          # of --seconds spent on traced/untraced pairs; the rest on micro.py
MIN_TRACE_PAIRS = 2
MIN_MICRO_S = 5.0


def blas_threads() -> tuple[str, int | None]:
    """Name and version of NumPy's BLAS, and its current thread count when
    the library exposes ``openblas_get_num_threads`` under a known name."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    libs = [None, *sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*"))]
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib) if lib else None)
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment() -> dict:
    import numpy as np

    blas, threads = blas_threads()
    return {
        "commit": checkout.commit(),
        "source_sha256": checkout.source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "machine": platform.machine(),
    }


def probe_setup(name: str, seed: int) -> float:
    """Seconds to set up the workload in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                          cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed(fn, *args):
    """(result, wall seconds, process CPU seconds) of ``fn(*args)``."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0, time.process_time() - c0


def same_result(a, b) -> bool:
    """Bitwise equal final parameters and identical run logs."""
    (pa, la), (pb, lb) = a, b
    return pa.net.params.tobytes() == pb.net.params.tobytes() and repr(la) == repr(lb)


def end_to_end(work, seconds: float, train, spans) -> dict:
    counter = spans.Tracer(only={"nn.adam_step"})
    with counter:
        reference = counter.call(train, work.cfg, work.demos, work.env)
    policy, log = reference
    updates = counter.count("nn.adam_step")
    quality = work.quality(policy, log)
    quality_ok = quality <= work.quality_bound
    attempted, failed = 1, 0 if quality_ok else 1
    env_steps = log.total_env_steps

    # Set-up probes and calibration passes are spread over the timed calls,
    # so that all three sample the same stretches of a machine whose speed
    # drifts from second to second.
    walls, cpus, setup, speed, errors = [], [], [], [], []
    calibrate.kernel()
    start = time.perf_counter()
    deadline = start + seconds
    # The last call must end by the deadline, not start before it.
    while len(walls) < MIN_REPEATS or time.perf_counter() + speed[-1] + statistics.median(walls) < deadline:
        elapsed = time.perf_counter() - start
        if elapsed > MAX_LOOP_S:
            break
        while len(setup) < max(1.0, SETUP_REPEATS * min(1.0, elapsed / seconds)):
            setup.append(probe_setup(work.name, work.seed))
        speed.append(calibrate.kernel())
        attempted += 1
        try:
            result, wall, cpu = timed(train, work.cfg, work.demos, work.env)
        except Exception as exc:  # a raising run is a failed attempt; the benchmark keeps reporting
            failed += 1
            errors.append(repr(exc))
            continue
        walls.append(wall)
        cpus.append(cpu)
        if not (quality_ok and same_result(result, reference)):
            failed += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(probe_setup(work.name, work.seed))

    # Times are medians over the run, scaled to the machine's reference speed
    # (see calibrate.py); the unscaled medians a user meets are printed.
    scale = calibrate.REFERENCE_S / statistics.median(speed)
    wall_s, cpu_s, setup_s = (statistics.median(v) for v in (walls, cpus, setup))
    train_s = wall_s * scale
    metrics = {
        "train_s": (train_s, "s"),
        "cpu_s": (cpu_s * scale, "s"),
        "env_steps_per_s": (env_steps / train_s, "1/s"),
        "updates_per_s": (updates / train_s, "1/s"),
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"quality": quality, "quality_bound": work.quality_bound, "env_steps": env_steps,
               "updates": updates, "speed_scale": scale, "calibration_s_samples": speed,
               "train_s_samples": walls, "cpu_s_samples": cpus, "setup_s_samples": setup, "errors": errors}
    scaled = f"x {scale:.4f} machine-speed scale"
    notes = {"train_s": f"median of {len(walls)} calls, {wall_s:.4f} unscaled, {scaled}",
             "cpu_s": f"median {cpu_s:.4f} unscaled, {scaled}",
             "setup_s": f"median of {len(setup)} processes, {setup_s:.4f} unscaled, {scaled}"}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "details": details, "notes": notes,
            "rows": [("quality", quality, f"{work.quality_spec['metric']}, bound {work.quality_bound}")]}


def layered(work, seconds: float, train, spans, micro, spans_path: Path) -> dict:
    untraced, traced, analyses = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds * TRACE_SHARE
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        plain, wall, _ = timed(train, work.cfg, work.demos, work.env)
        untraced.append(wall)
        tracer = spans.Tracer()
        with tracer:
            recorded, wall, _ = timed(tracer.call, train, work.cfg, work.demos, work.env)
        traced.append(wall)
        analyses.append(tracer.analyse())
        attempted += 2
        if not same_result(plain, recorded):
            failed += 1
        if len(traced) == 1 and work.quality(*plain) > work.quality_bound:
            failed += 1
    tracer.write(spans_path)
    counts = analyses[0]["counts"]
    if any(a["counts"] != counts for a in analyses):
        failed += 1

    metrics = {}
    for phase in analyses[0]["phases"]:
        metrics[f"train.{phase}_s"] = (statistics.median(a["phases"][phase] for a in analyses), "s")
    # Every wrapped call gets a self time, 0 where the workload never makes it.
    names = sorted({spans.ROOT, *(t[2] for t in spans.TARGETS), *(n for a in analyses for n in a["spans"])})
    for n in names:
        metrics[f"{n}.self_s"] = (statistics.median(a["spans"].get(n, {}).get("self_s", 0.0)
                                                    for a in analyses), "s")
    for n, v in counts.items():
        metrics[n] = (v, "rows/call" if n == "nn.rows_per_forward" else "count")
    metrics["trace.train_s"] = (statistics.median(a["train_s"] for a in analyses), "s")
    metrics["trace.overhead_pct"] = ((min(traced) / min(untraced) - 1.0) * 100.0, "%")
    timings = micro.run(work.seed, max(seconds - (time.perf_counter() - start), MIN_MICRO_S))
    for name, t in timings.items():
        metrics[name] = (t["us"], "us")

    total_self = sum(metrics[f"{n}.self_s"][0] for n in names)
    notes = {f"{n}.self_s": f"{100.0 * metrics[f'{n}.self_s'][0] / total_self:5.1f}% of self time" for n in names}
    notes.update({name: f"median of {t['samples']} samples, quartile spread {t['spread']:.3f}"
                  for name, t in timings.items()})
    details = {"untraced_train_s": untraced, "traced_train_s": traced, "analyses": analyses, "micro": timings}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "details": details,
            "notes": notes, "rows": []}


def _fmt(value) -> str:
    return f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"


def listed_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for the mode."""
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    checkout.use_checkout_src()
    import micro
    import spans
    import workloads

    if args.workload not in workloads.specs():
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(workloads.specs())}")
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    listed = listed_metrics(args.trace)
    try:
        train = importlib.import_module("asaf.train").train
        work = workloads.build(args.workload, args.seed)
        if args.trace:
            res = layered(work, args.seconds, train, spans, micro, OUT / f"{stem}-spans.json")
        else:
            res = end_to_end(work, args.seconds, train, spans)
    except Exception:  # the program raised outside a timed repeat: the run failed
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {n: {"value": 0.0, "unit": u} for n, u in listed.items()}}))
        return 0
    correct = res["failed"] == 0

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:46s} {_fmt(value)} {unit:9s} {res['notes'].get(name, '')}".rstrip())
    for name, value, note in res["rows"]:
        print(f"{name:46s} {_fmt(value)} {note}")
    print(f"{'failed/attempted':46s} {res['failed']:>9d}/{res['attempted']:<6d} correct={correct}")

    wrong = [n for n, u in listed.items() if n not in res["metrics"] or res["metrics"][n][1] != u]
    if wrong:
        print(f"metrics listed in BENCHMARK.json but not measured with that unit: {wrong}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in res["metrics"].items()},
              "details": res["details"]}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {n: record["metrics"][n] for n in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
