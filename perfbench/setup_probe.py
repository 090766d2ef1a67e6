"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from the start of this script to the return of
``train()`` on the workload's config with ``steps=0``: importing ``asaf``,
building the demos and the trainer's own set-up.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import checkout  # noqa: E402


def main() -> None:
    checkout.use_checkout_src()
    import importlib

    import workloads

    train = importlib.import_module("asaf.train").train
    work = workloads.build(sys.argv[1], int(sys.argv[2]), steps=0)
    train(work.cfg, work.demos, work.env)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
