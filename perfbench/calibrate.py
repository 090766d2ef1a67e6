"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark runs on a shared machine whose speed drifts by 10-30% over
minutes, as other tenants come and go.  That drift moves every time the
benchmark takes alike, so ``run.py`` times this kernel next to every
``train()`` call and scales the run's times by ``REFERENCE_S`` over the
kernel's median time in the run: the result reads as seconds on the machine
at its reference speed.

The kernel mixes the two kinds of work the training loop does, small NumPy
operations on a batch-10 MLP and plain interpreter work on dicts and ints.
It imports nothing from ``asaf``, so a change to the program never changes
it; its inputs are fixed, so its work is the same in every run.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of ``kernel()`` over eleven minutes on the 2-core x86_64 VM
# the baseline was measured on (OpenBLAS with 2 threads): the speed the
# scaled times refer to.
REFERENCE_S = 0.314

_rng = np.random.default_rng(0)
_W1 = _rng.standard_normal((8, 64))
_W2 = _rng.standard_normal((64, 64))
_W3 = _rng.standard_normal((64, 4))
_X = _rng.standard_normal((10, 8))


def _numpy_part(n: int = 6000) -> float:
    acc = 0.0
    for _ in range(n):
        h = np.tanh(_X @ _W1)
        h = np.tanh(h @ _W2)
        o = h @ _W3
        acc += float(np.exp(o - o.max(axis=1, keepdims=True)).sum())
    return acc


def _python_part(n: int = 600_000) -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        table[i & 255] = i * 3
        total += table.get(i & 127, 0) % 7
    return total


def kernel() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    _numpy_part()
    _python_part()
    return time.perf_counter() - t0
