"""Structured discriminators whose parameters are the thing being learned.

The full-trajectory discriminator scores a window tau by the learner's and
the frozen generator's policy-only likelihoods

    D = ql(tau) / (ql(tau) + qg(tau)),   q(tau) = prod_t pi(a_t | s_t).

Environment dynamics multiply numerator and denominator identically and
cancel, so D never touches a transition model.  All arithmetic stays in the
log domain:

    log D = A - logaddexp(A, G),  log(1 - D) = G - logaddexp(A, G)

with A = sum log learner, G = sum log generator.  Minimizing the usual
two-sided cross entropy over D trains the learner policy directly.

The transition-wise scored variant (ASQF) is the same discriminator on
windows of one step with A replaced by an unnormalized score f(s, a).
``AsqfModel`` is a ``CategoricalPolicy`` whose learner protocol
(``log_prob_tape``, ``backprop_log_prob``) returns f in place of log pi,
read from the one evaluation the policy reads (the state table on one-hot
states), so ``bce_on_packed`` and ``structured_log_d`` serve it unchanged.
Its snapshot is softmax(f), a plain ``CategoricalPolicy``; it only makes
sense for discrete actions.  Behavioral cloning's negative log-likelihood
(``nll_on_packed``) completes the set of losses.

``windows_from`` cuts episodes into the one packed layout every loss reads;
``Window``, ``window_split`` and ``pack_windows``, its list-form reference,
stay because the benchmark imports them and a test checks it against them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .envs import Trajectory
from .policies import CategoricalPolicy

__all__ = [
    "AsqfModel",
    "PackedWindows",
    "Window",
    "asqf_bce_loss",
    "bce_on_packed",
    "nll_on_packed",
    "pack_windows",
    "refresh_generator_scores",
    "structured_log_d",
    "transitions_from",
    "window_split",
    "windows_from",
]


@dataclass
class Window:
    """A contiguous (obs, act) slice of one trajectory (list-form reference)."""

    obs: np.ndarray
    acts: np.ndarray
    source: int = -1
    offset: int = 0

    def __len__(self) -> int:
        return len(self.obs)


def window_split(traj: Trajectory, w: int, stride: int, source: int = -1) -> list[Window]:
    """Cut a trajectory into windows of length w at the given stride.

    Offsets are 0, stride, 2 stride, ... while a full window fits.  An
    episode shorter than w yields a single truncated window so no data is
    ever dropped.  The list-form reference of ``windows_from``.
    """
    if w < 1:
        raise ValueError(f"window length must be >= 1, got {w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n = len(traj)
    if n == 0:
        raise ValueError("cannot split an empty trajectory")
    if n < w:
        return [Window(obs=traj.obs, acts=traj.acts, source=source, offset=0)]
    return [
        Window(obs=traj.obs[off : off + w], acts=traj.acts[off : off + w], source=source, offset=off)
        for off in range(0, n - w + 1, stride)
    ]


@dataclass
class PackedWindows:
    """A list of windows flattened for batched net evaluation.

    Whole trajectories, fixed-size windows and single transitions (windows
    of length 1), as ``windows_from`` cuts them, all use this one layout.
    ``starts`` marks each window's first row in the packed arrays; summing a
    per-step vector with reduceat over ``starts`` gives per-window totals.
    Both read windows that lie back to back, as ``take`` packs them; then a
    pack with as many windows as rows has one-step windows, and both return
    their input, bitwise what reduceat and repeat give.
    ``gen_logp`` caches the frozen generator's per-window log-likelihood; it
    is filled in by the caller whenever the generator changes.  ``states``,
    from ``CategoricalPolicy.index``, lets the losses read a state table by index.
    """

    obs: np.ndarray
    acts: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    gen_logp: np.ndarray | None = None
    states: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_windows(self) -> int:
        return len(self.starts)

    def segment_sum(self, per_step: np.ndarray) -> np.ndarray:
        return per_step if len(self.starts) == len(self.acts) else np.add.reduceat(per_step, self.starts)

    def per_step(self, per_window: np.ndarray) -> np.ndarray:
        return per_window if len(self.starts) == len(self.acts) else np.repeat(per_window, self.lengths)

    def log_prob_tape(self, policy, split: int | None = None):
        """``policy.log_prob_tape`` of the packed steps, cut into two row blocks
        at ``split`` if given, read by state index when the pack has one."""
        if self.states is None:
            return policy.log_prob_tape(self.obs, self.acts, split)
        return policy.table_tape(self.states, self.acts, split)

    def take(self, idx: np.ndarray) -> "PackedWindows":
        """Windows ``idx`` (repeats allowed) packed in that order, gathered in
        one indexing pass: row r of the result comes from row
        r + (source start - new start) of its window."""
        idx = np.asarray(idx)
        lengths = self.lengths[idx]
        starts = np.cumsum(lengths) - lengths
        rows = np.arange(lengths.sum()) + np.repeat(self.starts[idx] - starts, lengths)
        return PackedWindows(
            obs=self.obs[rows],
            acts=self.acts[rows],
            starts=starts,
            lengths=lengths,
            gen_logp=None if self.gen_logp is None else self.gen_logp[idx],
            states=None if self.states is None else self.states[rows],
        )

    def span(self, lo: int, hi: int) -> "PackedWindows":
        """Windows ``lo:hi`` of a pack whose windows lie back to back, bitwise
        what ``take`` of them gives: rows sliced, starts shifted.  A span of
        every window is the pack itself."""
        hi = min(hi, len(self.starts))
        if lo == 0 and hi == len(self.starts):
            return self
        a, b = self.starts[lo], self.starts[hi - 1] + self.lengths[hi - 1]
        return PackedWindows(self.obs[a:b], self.acts[a:b], self.starts[lo:hi] - a, self.lengths[lo:hi],
                             gen_logp=None if self.gen_logp is None else self.gen_logp[lo:hi],
                             states=None if self.states is None else self.states[a:b])


def pack_windows(windows: list[Window]) -> PackedWindows:
    """A window list back to back (list-form reference of ``windows_from``)."""
    if not windows:
        raise ValueError("cannot pack an empty window list")
    lengths = np.array([len(w) for w in windows], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return PackedWindows(
        obs=np.concatenate([w.obs for w in windows]),
        acts=np.concatenate([np.atleast_1d(w.acts) for w in windows]),
        starts=starts,
        lengths=lengths,
    )


def refresh_generator_scores(packed: PackedWindows, generator) -> None:
    """Recompute the cached generator log-likelihood per window."""
    packed.gen_logp = packed.segment_sum(packed.log_prob_tape(generator)[0])


def structured_log_d(learner, generator, window: Window) -> tuple[float, float]:
    """(log D, log(1 - D)) for one window; both always finite."""
    a = float(np.sum(learner.log_prob_batch(window.obs, np.atleast_1d(window.acts))))
    g = float(np.sum(generator.log_prob_batch(window.obs, np.atleast_1d(window.acts))))
    m = np.logaddexp(a, g)
    return a - m, g - m


def bce_on_packed(learner, packed_e: PackedWindows, packed_g: PackedWindows) -> tuple[float, np.ndarray]:
    """Two-sided cross entropy and its gradient in the learner's parameters.

    Both packs must carry cached generator scores.  The expert and generator
    sides must hold the same number of windows; the loss weighs each side by
    1/n.  Gradient per window: expert side -(1 - D)/n, generator side +D/n,
    distributed onto each step's log-prob gradient.  The learner runs once
    on both sides: one tape over the expert rows then the generator rows (by
    state id when both packs carry them), cut into two row blocks, and one
    backward, so each side keeps the bits a tape of its own gives and the
    two sides of one state table cancel exactly at the fixed point.
    """
    if packed_e.gen_logp is None or packed_g.gen_logp is None:
        raise ValueError("generator scores not cached; call refresh_generator_scores first")
    n, n_g = packed_e.n_windows, packed_g.n_windows
    if n != n_g or n == 0:
        raise ValueError(f"need equally many expert and generator windows, got {n} vs {n_g}")

    split = len(packed_e.acts)
    both = PackedWindows(
        obs=np.concatenate([packed_e.obs, packed_g.obs]),
        acts=np.concatenate([packed_e.acts, packed_g.acts]),
        starts=np.concatenate([packed_e.starts, packed_g.starts + split]),
        lengths=np.concatenate([packed_e.lengths, packed_g.lengths]),
        gen_logp=np.concatenate([packed_e.gen_logp, packed_g.gen_logp]),
        states=None if packed_e.states is None or packed_g.states is None else
        np.concatenate([packed_e.states, packed_g.states]))
    lp, cache = both.log_prob_tape(learner, split)
    a = both.segment_sum(lp)
    m = np.logaddexp(a, both.gen_logp)
    x = both.gen_logp - m                    # log(1 - D); log D = a - m
    loss = -float((a[:n] - m[:n]).sum() / n) - float(x[n:].sum() / n)   # np.mean per side, bit for bit

    np.subtract(a[n:], m[n:], out=x[n:])     # log D on generator windows, log(1 - D) on expert ones
    w = np.exp(x, out=x)
    w /= n
    np.negative(w[:n], out=w[:n])            # -(1 - D)/n, then +D/n
    grad = learner.backprop_log_prob(cache, both.per_step(w))
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise NumericalError("non-finite discriminator loss or gradient")
    return loss, grad


def nll_on_packed(learner, packed: PackedWindows) -> tuple[float, np.ndarray]:
    """Behavioral cloning: mean negative log-likelihood of the packed steps
    and its gradient in the learner's parameters."""
    logp, cache = packed.log_prob_tape(learner)
    return -float(np.mean(logp)), learner.backprop_log_prob(cache, np.full(len(logp), -1.0 / len(logp)))


def windows_from(trajs, w: int | None = None, stride: int = 1) -> PackedWindows:
    """The windows of w steps at offsets 0, stride, ... of every episode in
    ``trajs`` while one fits, one truncated window for a shorter episode, and
    with ``w=None`` each whole episode; packed back to back, unindexed."""
    if (w is not None and w < 1) or stride < 1:
        raise ValueError(f"need w >= 1 and stride >= 1, got w={w}, stride={stride}")
    obs, acts = np.concatenate([t.obs for t in trajs]), np.concatenate([t.acts for t in trajs])
    lengths = np.concatenate([t.lengths for t in trajs])
    w = lengths.max() if w is None else w
    counts = np.maximum(lengths - w, 0) // stride + 1
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = np.repeat(np.cumsum(lengths) - lengths, counts) + stride * offsets
    cuts = PackedWindows(obs, acts, starts, np.repeat(np.minimum(lengths, w), counts))
    return cuts.take(np.arange(len(cuts)))


def transitions_from(trajs) -> PackedWindows:
    """All steps of ``trajs`` as windows of length 1."""
    return windows_from(trajs, 1)


class AsqfModel(CategoricalPolicy):
    """Unnormalized per-action score net f(s, a); softmax(f) is the policy.

    The learner protocol reads the raw score f(s, a) from the policy's own
    evaluation, so one-hot states read the state table here too, and
    ``snapshot()`` is the plain softmax policy.
    """

    _normalized = False


def asqf_bce_loss(model: AsqfModel, generator, expert: PackedWindows, gen: PackedWindows) -> tuple[float, np.ndarray]:
    """``bce_on_packed`` for a score net.  A pack without cached ``gen_logp``
    is scored by ``generator`` on a copy; the arguments are never modified."""
    expert, gen = (p if p.gen_logp is not None else
                   replace(p, gen_logp=p.segment_sum(p.log_prob_tape(generator)[0]))
                   for p in (expert, gen))
    return bce_on_packed(model, expert, gen)
