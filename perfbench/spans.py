"""Spans recorded from outside the program, around its public calls.

``Tracer`` replaces the public names that ``asaf.train`` and the modules it
drives call at run time (module functions looked up through the caller's
globals, and policy, net and batch methods looked up on their classes) with
wrappers that record one span per call: name, start, end, parent and a row
count.  Nothing under ``src/asaf`` changes; ``restore`` puts every original
back.  Spans stay in memory until ``write`` or ``analyse``.

``asaf/__init__.py`` rebinds the attribute ``asaf.train`` to the ``train``
function, so the modules are fetched with ``importlib.import_module``.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

# Phase of a span whose parent is the root ``train`` span, by span name.
# Rollouts inside evaluate_policy are children of its span, so they count as
# eval, not collect.
PHASES = {
    "collect": ("envs.rollout", "discriminator.pack_windows", "discriminator.window_split",
                "discriminator.transitions_from"),
    "refresh": ("discriminator.refresh", "policies.log_prob_batch"),
    "update": ("discriminator.take", "discriminator.transition_take", "discriminator.bce_on_packed",
               "discriminator.asqf_bce_loss", "nn.clip",
               "nn.adam_step", "policies.log_prob_tape", "policies.backprop_log_prob"),
    "eval": ("train.evaluate_policy",),
    "oracle": ("exact.enumerate", "exact.js_between", "policies.tabular_extract"),
}
PHASE_OF = {name: phase for phase, names in PHASES.items() for name in names}
# The first top-level span with one of these names ends the set-up of
# train(); packing the demos happens before it and counts as set-up.
LOOP_START = ("envs.rollout", *PHASES["update"])
ROOT = "train.train"


def _rows(args, result) -> int:
    x = np.asarray(args[1])
    return 1 if x.ndim == 1 else len(x)


def _episode_len(args, result) -> int:
    return len(result[0])


# (module, owner.attribute or attribute, span name, row counter) of every
# wrapped call.  Module functions are replaced in the namespace the caller
# looks them up in (``asaf.train`` imports most of them by name, and reaches
# the discriminator as ``disc.<name>``); methods are replaced on their class.
TARGETS = [
    ("asaf.nn", "Mlp.forward", "nn.forward", _rows),
    ("asaf.nn", "Mlp.backward", "nn.backward", None),
    ("asaf.train", "adam_step", "nn.adam_step", None),
    ("asaf.train", "clip_by_global_norm", "nn.clip", None),
    ("asaf.train", "clip_by_value", "nn.clip", None),
    ("asaf.train", "make_policy", "policies.make_policy", None),
    ("asaf.train", "tabular_policy_extract", "policies.tabular_extract", None),
    ("asaf.train", "rollout", "envs.rollout", _episode_len),
    ("asaf.train", "soft_value_iteration", "envs.soft_vi", None),
    ("asaf.train", "exact_traj_distribution", "exact.enumerate", None),
    ("asaf.train", "js_between", "exact.js_between", None),
    ("asaf.train", "evaluate_policy", "train.evaluate_policy", None),
    ("asaf.discriminator", "PackedWindows.take", "discriminator.take", None),
    ("asaf.discriminator", "TransitionBatch.take", "discriminator.transition_take", None),
    ("asaf.discriminator", "AsqfModel.score_tape", "discriminator.score_tape", None),
    ("asaf.discriminator", "AsqfModel.backprop_scores", "discriminator.backprop_scores", None),
    ("asaf.discriminator", "pack_windows", "discriminator.pack_windows", None),
    ("asaf.discriminator", "window_split", "discriminator.window_split", None),
    ("asaf.discriminator", "transitions_from", "discriminator.transitions_from", None),
    ("asaf.discriminator", "refresh_generator_scores", "discriminator.refresh", None),
    ("asaf.discriminator", "bce_on_packed", "discriminator.bce_on_packed", None),
    ("asaf.discriminator", "asqf_bce_loss", "discriminator.asqf_bce_loss", None),
    ("asaf.discriminator", "asqf_extract_policy", "discriminator.asqf_extract_policy", None),
] + [
    ("asaf.policies", f"{cls}.{method}", f"policies.{method}", None)
    for cls in ("CategoricalPolicy", "GaussianPolicy")
    for method in ("sample", "log_prob_batch", "log_prob_tape", "backprop_log_prob")
]


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name), or None when a later
    version of the program no longer has it: its spans then just do not appear."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder; use as a context manager to install the wrappers.

    ``only`` restricts the wrappers to the given span names (the root span is
    always recorded).
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        names, starts, ends, parents, rows, stack = (
            self.names, self.starts, self.ends, self.parents, self.rows, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            rows.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                rows[i] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, path, name, count in TARGETS:
            found = _owner(module, path)
            if found is None or (self.only is not None and name not in self.only):
                continue
            owner, attr = found
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def call(self, fn, *args):
        """Run ``fn(*args)`` under the root span."""
        return self._wrap(fn, ROOT, None)(*args)

    def count(self, name: str) -> int:
        return self.names.count(name)

    def write(self, path) -> None:
        """Spans as columns; times in ns from the first span's start."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.names, "start_ns": [s - t0 for s in self.starts],
                       "end_ns": [e - t0 for e in self.ends], "parent": self.parents,
                       "rows": self.rows}, fh)

    def analyse(self) -> dict:
        """Phase totals, per-name self and inclusive times, and exact counts
        for one traced ``train()`` call recorded with ``call``."""
        names = np.array(self.names)
        dur = (np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)) * 1e-9
        parents = np.array(self.parents, dtype=np.int64)
        rows = np.array(self.rows, dtype=np.int64)
        roots = np.flatnonzero(names == ROOT)
        if len(roots) != 1:
            raise ValueError(f"expected one {ROOT} span, got {len(roots)}")
        root = roots[0]
        children = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(children, parents[nested], dur[nested])
        self_time = dur - children

        top = np.flatnonzero(parents == root)
        phase = np.array([PHASE_OF.get(n, "other") for n in names[top]])
        loop = top[np.isin(names[top], LOOP_START)]
        start = np.array(self.starts, dtype=np.int64)
        loop_start = start[loop[0]] if len(loop) else int(self.ends[root])
        in_loop = start[top] >= loop_start
        phases = {"setup": (loop_start - start[root]) * 1e-9}
        for p in PHASES:
            phases[p] = float(dur[top[in_loop & (phase == p)]].sum())
        phases["other"] = float(dur[root]) - sum(phases.values())

        by_name = {}
        for n in sorted(set(self.names)):
            sel = names == n
            by_name[n] = {"calls": int(sel.sum()), "self_s": float(self_time[sel].sum()),
                          "inclusive_s": float(dur[sel].sum())}

        rollouts = np.flatnonzero(names == "envs.rollout")
        collected = rollouts[np.isin(rollouts, top) & (start[rollouts] >= loop_start)]
        forwards = names == "nn.forward"
        calls, n_rows = int(forwards.sum()), int(rows[forwards].sum())
        counts = {
            "nn.forward_calls": calls,
            "nn.forward_rows": n_rows,
            "nn.rows_per_forward": n_rows / calls if calls else 0.0,
            "train.updates": int((names[top] == "nn.adam_step").sum()),
            "train.env_steps": int(rows[collected].sum()),
            "envs.episodes": len(rollouts),
        }
        return {"train_s": float(dur[root]), "phases": phases, "spans": by_name, "counts": counts}
