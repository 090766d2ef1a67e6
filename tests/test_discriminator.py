"""Structured discriminator: windows, the two-sided loss, and the scored variant."""

import functools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asaf
from asaf import discriminator as disc
from asaf.envs import PackedWindows, SoftExpertPolicy, chain_spec, rollout, soft_value_iteration, window_rows
from asaf.errors import NumericalError, ShapeError, UnsupportedError
from asaf.nn import Mlp, grad_check, log_softmax_rows
from asaf.policies import CategoricalPolicy, GaussianPolicy
from asaf.verify import collect_expert_demos

LOG4 = np.log(4.0)


def toy_traj(length, obs_dim=3, n_actions=2, seed=0):
    rng = np.random.default_rng(seed)
    return PackedWindows(obs=rng.normal(size=(length, obs_dim)), acts=rng.integers(0, n_actions, size=length))


def random_windows(n, length, obs_dim, n_actions, rng):
    return [
        disc.Window(obs=rng.normal(size=(length, obs_dim)), acts=rng.integers(0, n_actions, size=length), source=i)
        for i in range(n)
    ]


def random_windows_of(lengths, rng):
    return [
        disc.Window(obs=rng.normal(size=(n, 2)), acts=rng.integers(0, 3, size=n), source=i)
        for i, n in enumerate(lengths)
    ]


def bias_only_policy(probs):
    """Single-layer net with zero weights whose softmax equals ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    return CategoricalPolicy(Mlp((1, len(probs)), np.concatenate([np.zeros(len(probs)), np.log(probs)])))


def transitions(obs, acts):
    return disc.transitions_from([PackedWindows(obs=obs, acts=acts)])


def scored_packs(generator, *window_lists):
    """Each window list packed and scored by ``generator``, as ``train()``
    refreshes its pools before ``bce_on_packed`` reads them."""
    packs = [disc.pack_windows(wins) for wins in window_lists]
    for packed in packs:
        disc.refresh_generator_scores(packed, generator)
    return packs


def record_scores(model, obs):
    """The raw scores of ``obs`` in the evaluation record the model reads them from."""
    ev, rows = model._read(np.asarray(obs))
    return np.take(ev.scores, rows, axis=0)


def reference_take(packed, idx):
    """Window gather with one np.arange per window, the form ``take`` replaced."""
    idx = np.asarray(idx)
    rows = np.concatenate([np.arange(s, s + l) for s, l in zip(packed.starts[idx], packed.lengths[idx])])
    lengths = packed.lengths[idx]
    return disc.PackedWindows(
        obs=packed.obs[rows],
        acts=packed.acts[rows],
        lengths=lengths,
        gen_logp=None if packed.gen_logp is None else packed.gen_logp[idx],
        states=None if packed.states is None else packed.states[rows],
    )


def indexed(packed, policy):
    """The pack with the state ids and checked actions ``policy.index`` gives."""
    states, acts = policy.index(packed.obs, packed.acts)
    assert states is not None
    return replace(packed, acts=acts, states=states)


def one_hot_windows(n, n_states, n_actions, rng, max_len=6):
    return [disc.Window(obs=np.eye(n_states)[rng.integers(0, n_states, size=length)],
                        acts=rng.integers(0, n_actions, size=length), source=i)
            for i, length in enumerate(rng.integers(1, max_len + 1, size=n))]


def reference_bce_on_packed(learner, packed_e, packed_g):
    """The two-sided loss with one backward pass per side, the form
    ``bce_on_packed`` had before both sides of a state table shared one."""
    lp_e, cache_e = learner.log_prob_tape(packed_e.obs, packed_e.acts)
    lp_g, cache_g = learner.log_prob_tape(packed_g.obs, packed_g.acts)
    a_e, a_g = packed_e.segment_sum(lp_e), packed_g.segment_sum(lp_g)
    m_e, m_g = np.logaddexp(a_e, packed_e.gen_logp), np.logaddexp(a_g, packed_g.gen_logp)
    loss = -float(np.mean(a_e - m_e)) - float(np.mean(packed_g.gen_logp - m_g))
    w_e = -np.exp(packed_e.gen_logp - m_e) / packed_e.n_windows
    w_g = np.exp(a_g - m_g) / packed_g.n_windows
    grad = learner.backprop_log_prob(cache_e, packed_e.per_step(w_e))
    grad += learner.backprop_log_prob(cache_g, packed_g.per_step(w_g))
    return loss, grad


def reference_one_tape_bce(learner, packed_e, packed_g):
    """``bce_on_packed`` as it was written before its join and its core were
    split out: both packs concatenated, one tape cut at the expert rows."""
    n, split = packed_e.n_windows, len(packed_e.acts)
    starts = np.concatenate([packed_e.starts, packed_g.starts + split])
    gen_logp = np.concatenate([packed_e.gen_logp, packed_g.gen_logp])
    acts = np.concatenate([packed_e.acts, packed_g.acts])
    if packed_e.states is None or packed_g.states is None:
        lp, cache = learner.log_prob_tape(np.concatenate([packed_e.obs, packed_g.obs]), acts, split)
    else:
        lp, cache = learner.table_tape(np.concatenate([packed_e.states, packed_g.states]), acts, split)
    a = lp if len(starts) == len(acts) else np.add.reduceat(lp, starts)
    m = np.logaddexp(a, gen_logp)
    x = gen_logp - m
    loss = -float((a[:n] - m[:n]).sum() / n) - float(x[n:].sum() / n)
    np.subtract(a[n:], m[n:], out=x[n:])
    w = np.exp(x, out=x)
    w /= n
    np.negative(w[:n], out=w[:n])
    lengths = np.concatenate([packed_e.lengths, packed_g.lengths])
    return loss, learner.backprop_log_prob(cache, w if len(starts) == len(acts) else np.repeat(w, lengths))


def reference_two_sided_backward(learner, cache_e, w_e, cache_g, w_g):
    """The gradient step of ``bce_on_packed`` as it was before the learner's
    ``backprop_log_prob`` took both sides: a ``CategoricalPolicy`` whose two
    sides read one evaluation added their score gradients and ran one
    backward, and any other learner ran one backward per side."""
    if isinstance(learner, CategoricalPolicy) and cache_e[0] is cache_g[0]:
        dy = learner.score_grad(cache_e, w_e) + learner.score_grad(cache_g, w_g)
        return learner.net.backward(cache_e[0].tape, dy)
    return learner.backprop_log_prob(cache_e, w_e) + learner.backprop_log_prob(cache_g, w_g)


def one_step_window(action):
    return disc.Window(obs=np.zeros((1, 1)), acts=np.array([action]))


def reference_asqf_bce_loss(model, generator, expert, gen):
    """The transition-wise loss as it was written before the scored net took the
    learner protocol, with its ``score_tape``/``backprop_scores`` inlined."""
    n_e, n_g = len(expert), len(gen)
    g_e = expert.gen_logp if expert.gen_logp is not None else generator.log_prob_batch(expert.obs, expert.acts)
    g_g = gen.gen_logp if gen.gen_logp is not None else generator.log_prob_batch(gen.obs, gen.acts)

    def score_tape(obs, acts):
        out, tape = model.net.forward(obs)
        return out[np.arange(len(acts)), acts], (tape, acts, out.shape)

    def backprop_scores(cache, weights):
        tape, acts, shape = cache
        dy = np.zeros(shape, dtype=np.float64)
        dy[np.arange(len(acts)), acts] = weights
        return model.net.backward(tape, dy)

    f_e, cache_e = score_tape(expert.obs, expert.acts)
    f_g, cache_g = score_tape(gen.obs, gen.acts)
    m_e = np.logaddexp(f_e, g_e)
    m_g = np.logaddexp(f_g, g_g)
    loss = -float(np.mean(f_e - m_e)) - float(np.mean(g_g - m_g))

    w_e = -np.exp(g_e - m_e) / n_e
    w_g = np.exp(f_g - m_g) / n_g
    grad = backprop_scores(cache_e, w_e) + backprop_scores(cache_g, w_g)
    return loss, grad


class ReferenceAsqf:
    """The score net's learner protocol as it was written before the score net
    became a ``CategoricalPolicy``: its own forward, gather and scatter on the
    given rows."""

    def __init__(self, net):
        self.net = net

    def log_prob_tape(self, obs, acts):
        out, tape = self.net.forward(obs)
        return out[np.arange(len(acts)), acts], (tape, acts, out.shape)

    def backprop_log_prob(self, cache, weights):
        tape, acts, shape = cache
        dy = np.zeros(shape, dtype=np.float64)
        dy[np.arange(len(acts)), acts] = weights
        return self.net.backward(tape, dy)


def reference_nll(learner, packed):
    """Behavioral cloning's loss as it was written inline in the training loop."""
    logp, cache = learner.log_prob_tape(packed.obs, packed.acts)
    return -float(np.mean(logp)), learner.backprop_log_prob(cache, np.full(len(packed), -1.0 / len(packed)))


# ---------------------------------------------------------------- window_split

def test_window_split_examples():
    traj = toy_traj(5)
    wins = disc.window_split(traj, w=2, stride=1)
    assert [w.offset for w in wins] == [0, 1, 2, 3]
    assert all(len(w) == 2 for w in wins)
    np.testing.assert_array_equal(wins[1].obs, traj.obs[1:3])
    np.testing.assert_array_equal(wins[1].acts, traj.acts[1:3])

    wins = disc.window_split(traj, w=2, stride=2)
    assert [w.offset for w in wins] == [0, 2]

    wins = disc.window_split(traj, w=5, stride=1)
    assert len(wins) == 1 and len(wins[0]) == 5


def test_window_split_short_trajectory_truncates():
    traj = toy_traj(3)
    wins = disc.window_split(traj, w=10, stride=1)
    assert len(wins) == 1
    assert len(wins[0]) == 3 and wins[0].offset == 0


def test_window_split_tags_source():
    wins = disc.window_split(toy_traj(4), w=1, stride=1, source=7)
    assert [w.source for w in wins] == [7, 7, 7, 7]
    assert [w.offset for w in wins] == [0, 1, 2, 3]


def test_window_split_rejects_bad_args():
    with pytest.raises(ValueError):
        disc.window_split(toy_traj(3), w=0, stride=1)
    with pytest.raises(ValueError):
        disc.window_split(toy_traj(3), w=2, stride=0)
    with pytest.raises(ValueError, match="cannot split an empty trajectory"):
        disc.window_split(toy_traj(0), w=2, stride=1)


# ---------------------------------------------------------------- packing

def test_pack_windows_layout():
    rng = np.random.default_rng(1)
    wins = random_windows(3, 4, 2, 2, rng) + random_windows(1, 2, 2, 2, rng)
    packed = disc.pack_windows(wins)
    assert packed.n_windows == 4
    np.testing.assert_array_equal(packed.lengths, [4, 4, 4, 2])
    np.testing.assert_array_equal(packed.starts, [0, 4, 8, 12])
    np.testing.assert_array_equal(packed.obs[8:12], wins[2].obs)
    per_window = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(packed.per_step(per_window)[8:12], 3.0)
    np.testing.assert_array_equal(
        packed.segment_sum(np.ones(len(packed.obs))), packed.lengths.astype(float)
    )
    with pytest.raises(ValueError):
        disc.pack_windows([])


def test_one_pack_type_counts_steps_with_len_and_windows_with_n_windows():
    # rollouts, demo entries and window packs are one type; the benchmark
    # traces discriminator.take through this class's own take
    assert asaf.discriminator.PackedWindows is PackedWindows and "take" in vars(asaf.discriminator.PackedWindows)
    spec = chain_spec()
    episodes, _ = rollout(spec, SoftExpertPolicy(soft_value_iteration(spec.mdp, 1.0)), 0, episodes=3)
    assert (len(episodes), episodes.n_windows) == (15, 3)
    entry = collect_expert_demos(spec, n=2, alpha=1.0, seed=0).trajectories[1]
    assert type(entry) is PackedWindows and (len(entry), entry.n_windows) == (5, 1)
    for w, stride, steps, n_windows in ((None, 1, 15, 3), (2, 1, 24, 12), (2, 2, 12, 6), (1, 1, 15, 15)):
        pack = disc.windows_from([episodes], w, stride)
        assert (len(pack), pack.n_windows) == (steps, n_windows)


@given(
    lengths=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=5), min_size=1, max_size=4),
    w=st.one_of(st.none(), st.integers(1, 7)),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_starts_follow_lengths_after_every_builder(lengths, w, stride, seed):
    # no pack stores starts: each window begins where the ones before it end
    rng = np.random.default_rng(seed)
    trajs = [PackedWindows(rng.normal(size=(sum(ls), 2)), rng.integers(0, 3, size=sum(ls)), ls) for ls in lengths]
    cut = disc.windows_from(trajs, w, stride)
    idx = rng.integers(0, cut.n_windows, size=int(rng.integers(1, 12)))
    lo = int(rng.integers(0, cut.n_windows))
    for pack in (*trajs, cut, cut.take(idx), cut.span(lo, int(rng.integers(lo + 1, cut.n_windows + 1))),
                 disc.joined(cut, trajs[0]), disc.transitions_from(trajs)):
        assert np.array_equal(pack.starts, np.cumsum(pack.lengths) - pack.lengths)
        assert pack.n_windows == len(pack.lengths) and len(pack) == pack.lengths.sum() == len(pack.obs)


@given(
    lengths=st.lists(st.integers(0, 5), min_size=0, max_size=8),
    obs=st.booleans(),
    continuous=st.booleans(),
    scored=st.booleans(),
    stated=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_selections_equal_a_checked_pack_of_their_arrays(lengths, obs, continuous, scored, stated, seed):
    # take and span skip the constructor's checks; each of their packs must
    # be the one the constructor builds from the same arrays, every empty span
    # included (span(0, 0) used to raise ShapeError and span(n, n) IndexError),
    # and a span's carried starts those its lengths give
    rng = np.random.default_rng(seed)
    steps = sum(lengths)
    pack = PackedWindows(rng.normal(size=(steps, 2)) if obs or not stated else None,
                         rng.normal(size=(steps, 1)) if continuous else rng.integers(0, 3, size=steps),
                         lengths, rng.normal(size=len(lengths)) if scored else None,
                         rng.integers(0, 4, size=steps) if stated else None)
    n = pack.n_windows
    picks = [np.arange(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
    picks += [rng.integers(0, n, size=int(rng.integers(0, 12))) if n else np.zeros(0, dtype=np.int64)]
    spans = [pack.span(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
    for sub, idx in zip([*spans, *(pack.take(idx) for idx in picks)], [*picks[:-1], *picks]):
        assert set(vars(sub)) <= {f.name for f in fields(PackedWindows)} | {"_starts"}
        assert_same_pack(sub, PackedWindows(**{f.name: getattr(sub, f.name) for f in fields(PackedWindows)}))
        assert_same_pack(sub, pack.take(idx))
        assert sub.starts.dtype == np.int64 and np.array_equal(sub.starts, np.cumsum(sub.lengths) - sub.lengths)


def test_pack_refuses_rows_it_cannot_hold():
    with pytest.raises(ShapeError):
        PackedWindows(np.zeros(3), np.zeros(3))                      # obs not one row per step
    with pytest.raises(ShapeError):
        PackedWindows(np.zeros((3, 2)), np.zeros(2))                 # one action per row
    with pytest.raises(ShapeError):
        PackedWindows(np.zeros((3, 2)), np.zeros(3), lengths=[1, 1])  # lengths add up to the rows
    # whole numbers >= 0: a negative length would let a window read the next one's rows,
    # and a fractional one was cut to an integer
    for rows, lengths in ((5, [6, -1]), (6, [3.5, 2.5]), (5, [3.5, 1.5]), (2, [np.nan, 2])):
        with np.errstate(invalid="ignore"), pytest.raises(ShapeError, match="are not whole numbers >= 0"):
            PackedWindows(np.zeros((rows, 2)), np.zeros(rows), lengths=lengths)
    assert PackedWindows(np.zeros((5, 2)), np.zeros(5), lengths=[3.0, 2.0]).lengths.dtype == np.int64
    pack = PackedWindows(None, np.zeros(3), lengths=[2, 1])           # a state-indexed pool holds no obs
    assert pack.obs is None and np.array_equal(pack.starts, [0, 2])
    assert PackedWindows([[1], [2]], [0, 1]).obs.dtype == np.float64


def test_packed_take_reindexes():
    rng = np.random.default_rng(2)
    wins = random_windows(4, 3, 2, 2, rng)
    packed = disc.pack_windows(wins)
    packed.gen_logp = np.array([10.0, 20.0, 30.0, 40.0])
    sub = packed.take(np.array([2, 0]))
    assert sub.n_windows == 2
    np.testing.assert_array_equal(sub.obs[:3], wins[2].obs)
    np.testing.assert_array_equal(sub.obs[3:], wins[0].obs)
    np.testing.assert_array_equal(sub.gen_logp, [30.0, 10.0])


@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 1000), min_size=1, max_size=12),
    unit=st.booleans(),
    scored=st.booleans(),
    stated=st.booleans(),
)
def test_take_matches_reference_gather(lengths, picks, unit, scored, stated):
    rng = np.random.default_rng(len(lengths) + 31 * len(picks))
    if unit:
        lengths = [1] * len(lengths)
    packed = disc.pack_windows(random_windows_of(lengths, rng))
    if scored:
        packed.gen_logp = rng.normal(size=packed.n_windows)
    if stated:
        packed.states = rng.integers(0, 5, size=len(packed.obs))
    idx = np.array([p % packed.n_windows for p in picks])   # repeats are common
    got, want = packed.take(idx), reference_take(packed, idx)
    for name in ("obs", "acts", "starts", "lengths"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name, kept in (("gen_logp", scored), ("states", stated)):
        assert (getattr(got, name) is None) == (getattr(want, name) is None) == (not kept), name
        if kept:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.n_windows == len(idx)


def assert_same_pack(got, want):
    for name in (f.name for f in fields(disc.PackedWindows)):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_the_field_lists_name_every_pack_field_once():
    # take, span, joined and windows_from carry the fields these lists name,
    # so a field added to the dataclass without a list entry would be dropped
    # by them; starts is derived from lengths, not a field
    listed = [*disc.PackedWindows._ROWS, *disc.PackedWindows._WINDOWS]
    assert sorted(listed) == sorted(f.name for f in fields(disc.PackedWindows))


@pytest.mark.parametrize("with_obs, stated", [(True, False), (True, True), (False, True)])
@given(
    lengths=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=10), min_size=1, max_size=4),
    scored=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_joined_concatenates_every_field(with_obs, stated, lengths, scored, seed):
    # a field any pack lacks is None, as gen_logp is when one is unscored;
    # one join of all the packs is their join two at a time
    rng = np.random.default_rng(seed)
    packs = [disc.pack_windows(random_windows_of(n, rng)) for n in lengths]
    scored = scored[:len(packs)]
    for p, has_scores in zip(packs, scored):
        p.gen_logp = rng.normal(size=p.n_windows) if has_scores else None
        p.states = rng.integers(0, 5, size=len(p.acts)) if stated else None
        p.obs = p.obs if with_obs else None

    def cat(name):
        parts = [getattr(p, name) for p in packs]
        return None if any(part is None for part in parts) else np.concatenate(parts)

    want = disc.PackedWindows(obs=cat("obs"), acts=cat("acts"), lengths=cat("lengths"), gen_logp=cat("gen_logp"),
                              states=cat("states"))
    assert_same_pack(disc.joined(*packs), want)
    assert_same_pack(functools.reduce(disc.joined, packs), want)
    assert (want.gen_logp is None) == (not all(scored)) and (want.obs is None) == (not with_obs)


@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=30),
    batch=st.integers(1, 12),
    unit=st.booleans(),
    scored=st.booleans(),
    stated=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_spans_of_an_epoch_gather_equal_minibatch_takes(lengths, batch, unit, scored, stated, seed):
    # train() gathers an outer step once and reads each minibatch, the
    # last one of an epoch ragged, as a span of that gather
    rng = np.random.default_rng(seed)
    if unit:
        lengths = [1] * len(lengths)
    packed = disc.pack_windows(random_windows_of(lengths, rng))
    if scored:
        packed.gen_logp = rng.normal(size=packed.n_windows)
    if stated:
        packed.states = rng.integers(0, 5, size=len(packed.obs))
    order = rng.permutation(packed.n_windows)
    epoch = packed.take(order)
    for lo in range(0, len(order), batch):
        assert_same_pack(epoch.span(lo, lo + batch), packed.take(order[lo : lo + batch]))
    assert epoch.span(0, len(order) + batch) is epoch


@given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_one_step_packs_skip_the_window_sums(n, seed, spanned):
    # asaf_1, asqf and bc packs hold one-step windows, where reduceat and
    # repeat are identities that segment_sum and per_step skip
    rng = np.random.default_rng(seed)
    packed = transitions(rng.normal(size=(n, 2)), rng.integers(0, 3, size=n))
    if spanned:
        lo = int(rng.integers(0, n))
        packed = packed.take(rng.permutation(n)).span(lo, int(rng.integers(lo + 1, n + 1)))
    v = rng.normal(size=len(packed)) * np.exp(rng.uniform(-30, 30, size=len(packed)))
    assert packed.segment_sum(v).tobytes() == np.add.reduceat(v, packed.starts).tobytes()
    assert packed.per_step(v).tobytes() == np.repeat(v, packed.lengths).tobytes()


def test_refresh_generator_scores():
    rng = np.random.default_rng(3)
    gen = CategoricalPolicy(Mlp.init((2, 6, 2), rng))
    wins = random_windows(3, 4, 2, 2, rng)
    packed = disc.pack_windows(wins)
    disc.refresh_generator_scores(packed, gen)
    for i, w in enumerate(wins):
        want = float(np.sum(gen.log_prob_batch(w.obs, w.acts)))
        assert packed.gen_logp[i] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- log D

def test_log_d_identical_policies_is_half():
    rng = np.random.default_rng(4)
    policy = CategoricalPolicy(Mlp.init((3, 8, 2), rng))
    win = random_windows(1, 6, 3, 2, rng)[0]
    log_d, log_1md = disc.structured_log_d(policy, policy, win)
    assert log_d == pytest.approx(-np.log(2.0), abs=1e-12)
    assert log_1md == pytest.approx(-np.log(2.0), abs=1e-12)


def test_log_d_hand_value():
    learner = bias_only_policy([0.6, 0.4])
    generator = bias_only_policy([0.2, 0.8])
    log_d, log_1md = disc.structured_log_d(learner, generator, one_step_window(0))
    assert np.exp(log_d) == pytest.approx(0.75, abs=1e-12)       # 0.6 / (0.6 + 0.2)
    assert np.exp(log_1md) == pytest.approx(0.25, abs=1e-12)


def test_log_d_extreme_gap_stays_finite():
    learner = bias_only_policy([0.5, 0.5])
    generator = bias_only_policy([0.5, 0.5])
    # push the learner 700 nats below the generator by hand
    learner.net.params = np.array([0.0, 0.0, -700.0, 0.0])
    log_d, log_1md = disc.structured_log_d(learner, generator, one_step_window(0))
    assert np.isfinite(log_d) and np.isfinite(log_1md)
    assert log_d < -600.0
    assert log_1md == pytest.approx(0.0, abs=1e-12)


def test_log_d_swap_antisymmetry():
    rng = np.random.default_rng(5)
    p1 = CategoricalPolicy(Mlp.init((2, 5, 3), rng))
    p2 = CategoricalPolicy(Mlp.init((2, 5, 3), rng))
    win = random_windows(1, 4, 2, 3, rng)[0]
    log_d, log_1md = disc.structured_log_d(p1, p2, win)
    log_d_sw, log_1md_sw = disc.structured_log_d(p2, p1, win)
    assert log_d == log_1md_sw
    assert log_1md == log_d_sw


def test_log_d_ignores_window_metadata():
    rng = np.random.default_rng(6)
    p1 = CategoricalPolicy(Mlp.init((2, 4, 2), rng))
    p2 = CategoricalPolicy(Mlp.init((2, 4, 2), rng))
    base = random_windows(1, 3, 2, 2, rng)[0]
    retagged = disc.Window(obs=base.obs, acts=base.acts, source=99, offset=3)
    assert disc.structured_log_d(p1, p2, base) == disc.structured_log_d(p1, p2, retagged)


@given(st.integers(0, 2 ** 31 - 1))
def test_log_d_components_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    p1 = CategoricalPolicy(Mlp.init((2, 6, 3), rng))
    p2 = CategoricalPolicy(Mlp.init((2, 6, 3), rng))
    win = random_windows(1, rng.integers(1, 8), 2, 3, rng)[0]
    log_d, log_1md = disc.structured_log_d(p1, p2, win)
    assert np.exp(log_d) + np.exp(log_1md) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- bce loss

def test_bce_on_joined_refuses_a_non_finite_loss():
    learner = bias_only_policy([0.6, 0.4])
    both = disc.joined(*scored_packs(learner, [one_step_window(0)], [one_step_window(1)]))
    both.gen_logp[0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite discriminator loss"):
        disc.bce_on_joined(learner, both)


def test_bce_hand_value():
    learner = bias_only_policy([0.6, 0.4])
    generator = bias_only_policy([0.2, 0.8])
    loss, _ = disc.bce_on_packed(learner, *scored_packs(generator, [one_step_window(0)], [one_step_window(1)]))
    # expert side D = 0.75, generator side 1 - D = 0.8 / 1.2
    assert loss == pytest.approx(-np.log(0.75) - np.log(0.8 / 1.2), abs=1e-12)


def test_bce_at_fixed_point_is_log4():
    rng = np.random.default_rng(7)
    policy = CategoricalPolicy(Mlp.init((3, 8, 2), rng))
    wins_e = random_windows(4, 5, 3, 2, rng)
    wins_g = random_windows(4, 5, 3, 2, rng)
    loss, grad = disc.bce_on_packed(policy, *scored_packs(policy, wins_e, wins_g))
    assert loss == pytest.approx(LOG4, abs=1e-9)


def test_bce_fixed_point_gradient_vanishes_on_paired_batches():
    # expert batch == generator batch and learner == generator: the two
    # backprop passes cancel term by term
    rng = np.random.default_rng(8)
    policy = CategoricalPolicy(Mlp.init((2, 6, 2), rng))
    wins = random_windows(3, 4, 2, 2, rng)
    loss, grad = disc.bce_on_packed(policy, *scored_packs(policy, wins, wins))
    assert loss == pytest.approx(LOG4, abs=1e-9)
    np.testing.assert_array_equal(grad, 0.0)


@given(seed=st.integers(0, 2 ** 31 - 1), gaussian=st.booleans(), rows=st.integers(1, 40), w=st.integers(1, 4))
def test_bce_fixed_point_gradient_vanishes_on_wide_nets(seed, gaussian, rows, w):
    # the same on (64, 64) nets, Gaussian or categorical on rows that are
    # not one-hot: each side's log-probs and gradient are the exact negative
    # of the other's only because every matrix product runs once per row
    # block; one product over both stacked sides rounds differently here
    rng = np.random.default_rng(seed)
    obs_dim = 1 if gaussian else 4
    if gaussian:
        policy, acts = GaussianPolicy(Mlp.init((obs_dim, 64, 64, 2), rng)), rng.normal(size=(rows, 1))
    else:
        policy, acts = CategoricalPolicy(Mlp.init((obs_dim, 64, 64, 3), rng)), rng.integers(0, 3, size=rows)
    packed = disc.windows_from([PackedWindows(rng.normal(size=(rows, obs_dim)), acts)], w, stride=w)
    disc.refresh_generator_scores(packed, policy)
    loss, grad = disc.bce_on_packed(policy, packed, packed)
    assert loss == pytest.approx(LOG4, abs=1e-9)
    np.testing.assert_array_equal(grad, 0.0)


def test_bce_fixed_point_gradient_vanishes_on_one_hot_windows():
    # the same cancellation on the state-table path that tabular runs take,
    # where both sides share one backward: each side's score gradient is
    # the exact negative of the other's, whether or not the packs carry states
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n_states, n_actions = rng.integers(2, 7), rng.integers(2, 5)
        policy = CategoricalPolicy(Mlp.init((n_states, 6, n_actions), rng))
        wins = one_hot_windows(rng.integers(1, 5), n_states, n_actions, rng)
        packed, _ = scored_packs(policy, wins, wins)
        loss, grad = disc.bce_on_packed(policy, packed, packed)
        assert loss == pytest.approx(LOG4, abs=1e-9)
        np.testing.assert_array_equal(grad, 0.0)
        loss, grad = disc.bce_on_packed(policy, indexed(packed, policy), indexed(packed, policy))
        assert loss == pytest.approx(LOG4, abs=1e-9)
        np.testing.assert_array_equal(grad, 0.0)


@given(
    seed=st.integers(0, 2 ** 31 - 1),
    n_states=st.integers(2, 6),
    n_actions=st.integers(2, 4),
    n=st.integers(1, 6),
    scored=st.booleans(),
    unit=st.booleans(),
)
def test_bce_on_state_carrying_packs(seed, n_states, n_actions, n, scored, unit):
    # asaf windows, or asqf transitions read by a score net: indexing the
    # packs changes no bit of the scores or the loss, and the one shared
    # backward agrees with one backward per side
    rng = np.random.default_rng(seed)
    learner = (disc.AsqfModel if scored else CategoricalPolicy)(Mlp.init((n_states, 8, n_actions), rng))
    generator = CategoricalPolicy(Mlp.init((n_states, 8, n_actions), rng))
    packs = [disc.pack_windows(one_hot_windows(n, n_states, n_actions, rng, max_len=1 if unit else 6))
             for _ in range(2)]
    stated = [indexed(p, learner) for p in packs]
    for p, q in zip(packs, stated):
        disc.refresh_generator_scores(p, generator)
        disc.refresh_generator_scores(q, generator)
        assert np.array_equal(p.gen_logp, q.gen_logp)
    loss, grad = disc.bce_on_packed(learner, *stated)
    plain_loss, plain_grad = disc.bce_on_packed(learner, *packs)
    want_loss, want_grad = reference_bce_on_packed(learner, *packs)
    assert loss == plain_loss == want_loss
    np.testing.assert_array_equal(grad, plain_grad)
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


@given(
    seed=st.integers(0, 2 ** 31 - 1),
    kind=st.sampled_from(["table", "scored_table", "rows", "scored_rows", "gaussian"]),
    n_states=st.integers(2, 6),
    n_actions=st.integers(2, 4),
    n=st.integers(1, 6),
    unit=st.booleans(),
    stated=st.booleans(),
)
def test_backprop_of_two_pairs_matches_the_old_branches(seed, kind, n_states, n_actions, n, unit, stated):
    # one tape over both sides, cut into two row blocks, and one backward:
    # the log-probabilities are bitwise those of a tape per side, and the
    # gradient bitwise the old branches (both sides of a state table merged
    # into one backward, sides read from their own rows, Gaussian or
    # categorical rows that are not one-hot, one backward each)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        learner = GaussianPolicy(Mlp.init((n_states, 8, 2 * n_actions), rng))
    else:
        learner = (disc.AsqfModel if kind.startswith("scored") else CategoricalPolicy)(
            Mlp.init((n_states, 8, n_actions), rng))
    packs = [disc.pack_windows(one_hot_windows(n, n_states, n_actions, rng, max_len=1 if unit else 6))
             for _ in range(2)]
    if kind.endswith("table") and stated:
        packs = [indexed(p, learner) for p in packs]
    elif not kind.endswith("table"):
        packs = [replace(p, obs=p.obs + rng.normal(size=p.obs.shape)) for p in packs]
    if kind == "gaussian":
        packs = [replace(p, acts=rng.normal(size=(len(p.obs), n_actions))) for p in packs]
    (lp_e, cache_e), (lp_g, cache_g) = (p.log_prob_tape(learner) for p in packs)
    w_e, w_g = (rng.normal(size=len(p.obs)) for p in packs)
    split, acts = len(packs[0].acts), np.concatenate([p.acts for p in packs])
    if packs[0].states is None:
        lp, cache = learner.log_prob_tape(np.concatenate([p.obs for p in packs]), acts, split)
    else:
        lp, cache = learner.table_tape(np.concatenate([p.states for p in packs]), acts, split)
    assert lp.tobytes() == np.concatenate([lp_e, lp_g]).tobytes()
    grad = learner.backprop_log_prob(cache, np.concatenate([w_e, w_g]))
    assert grad.tobytes() == reference_two_sided_backward(learner, cache_e, w_e, cache_g, w_g).tobytes()
    if kind.endswith("table"):
        assert cache[0] is cache_e[0] is cache_g[0]
    else:
        assert np.array_equal(grad, learner.backprop_log_prob(cache_e, w_e) + learner.backprop_log_prob(cache_g, w_g))


@given(
    seed=st.integers(0, 2 ** 31 - 1),
    kind=st.sampled_from(["gaussian", "rows", "table", "scored_table"]),
    max_len=st.integers(1, 5),
    n=st.integers(1, 12),
    before=st.integers(0, 6),
)
def test_joined_core_is_bitwise_bce_on_packed(seed, kind, max_len, n, before):
    # train() joins the two pools once, gathers every minibatch of an outer
    # step in one take, expert picks then generator picks, and hands each
    # span to bce_on_joined: byte for byte bce_on_packed of the two sides'
    # own gathers and the one-tape loss it was before; indexed pools hold
    # state ids in place of their rows, as train()'s do, and read as packs
    # that keep their rows, which joined keeps too
    rng = np.random.default_rng(seed)
    n_states, n_actions = 4, 3
    out = 2 * n_actions if kind == "gaussian" else n_actions
    make = {"gaussian": GaussianPolicy, "scored_table": disc.AsqfModel}.get(kind, CategoricalPolicy)
    learner = make(Mlp.init((n_states, 64, 64, out), rng))
    generator = (GaussianPolicy if kind == "gaussian" else CategoricalPolicy)(Mlp.init((n_states, 8, out), rng))
    pools = [disc.pack_windows(one_hot_windows(int(rng.integers(1, 15)), n_states, n_actions, rng, max_len))
             for _ in range(2)]
    if kind.endswith("table"):
        rows = [p.obs for p in pools]
        pools = [replace(indexed(p, learner), obs=None) for p in pools]
    else:
        pools = [replace(p, obs=p.obs + rng.normal(size=p.obs.shape)) for p in pools]
    if kind == "gaussian":
        pools = [replace(p, acts=rng.normal(size=(len(p.obs), n_actions))) for p in pools]
    for p in pools:
        disc.refresh_generator_scores(p, generator)
    pool_e, pool_g = pools
    n_e, n_g = pool_e.n_windows, pool_g.n_windows
    picks_e, picks_g = rng.integers(0, n_e, size=n), rng.integers(0, n_g, size=n)
    idx = np.concatenate([rng.integers(0, n_e + n_g, size=before), picks_e, picks_g + n_e])
    source = disc.joined(pool_e, pool_g)
    both = source.take(idx).span(before, before + 2 * n)
    loss, grad = disc.bce_on_joined(learner, both)
    sides = pool_e.take(picks_e), pool_g.take(picks_g)
    for want_loss, want_grad in (disc.bce_on_packed(learner, *sides), reference_one_tape_bce(learner, *sides)):
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
    assert (both.obs is None) == kind.endswith("table")
    if both.obs is None:
        with_obs = disc.joined(*(replace(p, obs=o) for p, o in zip(pools, rows))).take(idx).span(before, before + 2 * n)
        assert with_obs.obs is not None
        got_loss, got_grad = disc.bce_on_joined(learner, with_obs)
        assert got_loss == loss and got_grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("scored", [False, True])
def test_shared_backward_matches_finite_differences(scored):
    rng = np.random.default_rng(21)
    learner = (disc.AsqfModel if scored else CategoricalPolicy)(Mlp((4, 6, 3)))
    generator = CategoricalPolicy(Mlp.init((4, 6, 3), rng))
    packs = [indexed(disc.pack_windows(one_hot_windows(5, 4, 3, rng, max_len=1 if scored else 4)), learner)
             for _ in range(2)]
    for p in packs:
        disc.refresh_generator_scores(p, generator)

    def f(theta):
        learner.net.params = theta
        return disc.bce_on_packed(learner, *packs)

    assert grad_check(f, Mlp.init((4, 6, 3), rng).params) < 1e-4


def test_bce_paired_batches_lower_bounded_by_log4():
    # scoring one batch against itself: loss = log4 exactly at D == 1/2 and
    # above it for any other discriminator
    rng = np.random.default_rng(9)
    learner = CategoricalPolicy(Mlp.init((2, 6, 2), rng))
    generator = CategoricalPolicy(Mlp.init((2, 6, 2), rng))
    wins = random_windows(5, 4, 2, 2, rng)
    loss, _ = disc.bce_on_packed(learner, *scored_packs(generator, wins, wins))
    assert loss > LOG4 + 1e-6


@given(st.integers(0, 2 ** 31 - 1))
def test_bce_loss_is_positive(seed):
    rng = np.random.default_rng(seed)
    learner = CategoricalPolicy(Mlp.init((2, 5, 2), rng))
    generator = CategoricalPolicy(Mlp.init((2, 5, 2), rng))
    wins_e = random_windows(3, 3, 2, 2, rng)
    wins_g = random_windows(3, 3, 2, 2, rng)
    loss, _ = disc.bce_on_packed(learner, *scored_packs(generator, wins_e, wins_g))
    assert loss > 0.0


def test_bce_requires_paired_counts_and_cached_scores():
    rng = np.random.default_rng(10)
    policy = CategoricalPolicy(Mlp.init((2, 4, 2), rng))
    wins = random_windows(4, 3, 2, 2, rng)
    with pytest.raises(ValueError):
        disc.bce_on_packed(policy, *scored_packs(policy, wins[:1], wins[1:]))
    packed = disc.pack_windows(wins)
    with pytest.raises(ValueError):
        disc.bce_on_packed(policy, packed, packed)  # gen_logp never cached


def test_bce_gaussian_windows():
    rng = np.random.default_rng(11)
    policy = GaussianPolicy(Mlp.init((2, 6, 2), rng))
    wins = [
        disc.Window(obs=rng.normal(size=(4, 2)), acts=rng.normal(size=(4, 1)), source=i)
        for i in range(4)
    ]
    loss, grad = disc.bce_on_packed(policy, *scored_packs(policy, wins[:2], wins[2:]))
    assert loss == pytest.approx(LOG4, abs=1e-9)

    generator = GaussianPolicy(Mlp.init((2, 6, 2), rng))
    packs = scored_packs(generator, wins[:2], wins[2:])

    def f(theta):
        policy.net.params = theta
        return disc.bce_on_packed(policy, *packs)

    assert grad_check(f, Mlp.init((2, 6, 2), rng).params) < 1e-4


# ---------------------------------------------------------------- transitions

def test_transitions_from_flattens():
    trajs = [toy_traj(3, seed=1), toy_traj(2, seed=2)]
    batch = disc.transitions_from(trajs)
    assert len(batch) == 5
    np.testing.assert_array_equal(batch.obs[:3], trajs[0].obs)
    np.testing.assert_array_equal(batch.acts[3:], trajs[1].acts)
    np.testing.assert_array_equal(batch.starts, np.arange(5))
    np.testing.assert_array_equal(batch.lengths, np.ones(5))
    sub = batch.take(np.array([4, 0]))
    np.testing.assert_array_equal(sub.obs[0], batch.obs[4])
    assert len(sub) == 2


def reference_transitions_from(trajs):
    """``transitions_from`` as it was written before it called ``windows_from``."""
    obs = np.concatenate([t.obs for t in trajs])
    acts = np.concatenate([np.atleast_1d(t.acts) for t in trajs])
    return disc.PackedWindows(obs=obs, acts=acts, lengths=np.ones(len(obs), dtype=np.int64))


@given(
    episodes=st.lists(st.lists(st.integers(1, 7), min_size=1, max_size=4), min_size=1, max_size=4),
    w=st.one_of(st.none(), st.integers(1, 8)),
    stride=st.integers(1, 4),
    continuous=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_windows_from_matches_the_list_form(episodes, w, stride, continuous, seed):
    # each inner list holds the episode lengths of one pack; windows
    # longer than an episode, strides past the window and w=None (whole
    # episodes) all cut as window_split + pack_windows cut them
    rng = np.random.default_rng(seed)
    trajs = [PackedWindows(obs=rng.normal(size=(sum(ls), 2)), lengths=ls,
                        acts=rng.normal(size=(sum(ls), 1)) if continuous else rng.integers(0, 3, size=sum(ls)))
             for ls in episodes]
    parts = [part for t in trajs for part in t.episodes()]
    wins = ([disc.Window(part.obs, part.acts) for part in parts] if w is None else
            [win for part in parts for win in disc.window_split(part, w, stride)])
    assert_same_pack(disc.windows_from(trajs, w, stride), disc.pack_windows(wins))
    if w is None:
        assert_same_pack(disc.windows_from(trajs, w, stride), disc.windows_from(trajs, max(map(max, episodes))))
    assert_same_pack(disc.transitions_from(trajs), reference_transitions_from(trajs))
    assert_same_pack(disc.transitions_from(trajs), disc.windows_from(trajs, 1))


def gathered_windows_from(trajs, w, stride):
    """``windows_from`` with every window's rows gathered, as it was before
    whole episodes and single steps were taken as the rows lie."""
    obs, acts = np.concatenate([t.obs for t in trajs]), np.concatenate([t.acts for t in trajs])
    lengths = np.concatenate([t.lengths for t in trajs])
    w = lengths.max() if w is None else w
    counts = np.maximum(lengths - w, 0) // stride + 1
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = np.repeat(np.cumsum(lengths) - lengths, counts) + stride * offsets
    cut = np.repeat(np.minimum(lengths, w), counts)
    rows = window_rows(starts, cut)
    return PackedWindows(obs[rows], acts[rows], cut)


@given(
    episodes=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=5), min_size=1, max_size=4),
    unit=st.booleans(),
    continuous=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_whole_episodes_and_single_steps_equal_the_gathered_windows(episodes, unit, continuous, seed):
    # one pack or several, empty windows among them, or only one-step episodes
    rng = np.random.default_rng(seed)
    if unit:
        episodes = [[1] * len(ls) for ls in episodes]
    trajs = [PackedWindows(obs=rng.normal(size=(sum(ls), 2)), lengths=ls,
                           acts=rng.normal(size=(sum(ls), 1)) if continuous else rng.integers(0, 3, size=sum(ls)))
             for ls in episodes]
    for w, stride in ((None, 1), (None, 3), (1, 1)):
        pack = disc.windows_from(trajs, w, stride)
        assert_same_pack(pack, gathered_windows_from(trajs, w, stride))
        if len(trajs) == 1 and len(pack) and (w is None or trajs[0].lengths.all()):   # the pack's own rows
            assert np.shares_memory(pack.obs, trajs[0].obs) and np.shares_memory(pack.acts, trajs[0].acts)


@given(
    episodes=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_windows_from_cuts_state_ids_and_a_list_as_its_join(episodes, seed):
    # every per-step field is cut at the same rows: a pack of state ids and
    # no obs cuts as its one-hot rows do, indexed afterwards; a list of
    # packs cuts as their join does
    rng = np.random.default_rng(seed)
    policy = CategoricalPolicy.init(4, 3, (8,), rng)
    trajs = [PackedWindows(np.eye(4)[rng.integers(0, 4, size=sum(ls))], rng.integers(0, 3, size=sum(ls)), ls)
             for ls in episodes]
    stated = []
    for t in trajs:
        states, acts = policy.index(t.obs, t.acts)
        stated.append(PackedWindows(None, acts, t.lengths, states=states))
    for w, stride in ((None, 1), (1, 1), (2, 1)):
        cut = disc.windows_from(trajs, w, stride)
        states, acts = policy.index(cut.obs, cut.acts)
        assert_same_pack(disc.windows_from(stated, w, stride), PackedWindows(None, acts, cut.lengths, states=states))
        for packs in (trajs, stated):
            assert_same_pack(disc.windows_from(packs, w, stride), disc.windows_from([disc.joined(*packs)], w, stride))
    pack = disc.windows_from([PackedWindows(None, np.arange(5) % 3, [3, 2], states=np.array([3, 2, 1, 0, 1]))], 2, 1)
    assert pack.obs is None and pack.states.tolist() == [3, 2, 2, 1, 0, 1] and pack.lengths.tolist() == [2, 2, 2]


def test_windows_from_rejects_bad_args():
    for w, stride in ((0, 1), (2, 0), (None, 0)):
        with pytest.raises(ValueError, match="need w >= 1 and stride >= 1"):
            disc.windows_from([toy_traj(3)], w, stride)


# ---------------------------------------------------------------- scored variant

def test_asqf_scores_pick_the_acted_column():
    rng = np.random.default_rng(12)
    model = disc.AsqfModel(Mlp.init((3, 6, 4), rng))
    obs = rng.normal(size=(5, 3))
    acts = rng.integers(0, 4, size=5)
    f, _ = model.log_prob_tape(obs, acts)
    full = record_scores(model, obs)
    np.testing.assert_array_equal(f, full[np.arange(5), acts])
    np.testing.assert_array_equal(model.log_prob_batch(obs, acts), f)


def test_asqf_rejects_continuous_actions():
    model = disc.AsqfModel(Mlp((2, 3)))
    with pytest.raises(UnsupportedError):
        model.log_prob_tape(np.zeros((2, 2)), np.array([[0.1], [0.2]]))
    with pytest.raises(UnsupportedError):
        model.log_prob_tape(np.zeros((2, 2)), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        model.log_prob_tape(np.zeros((2, 2)), np.array([0, 3]))


def test_asqf_log_d_matched_scores_give_half():
    probs = np.array([0.25, 0.75])
    generator = bias_only_policy(probs)
    model = disc.AsqfModel(Mlp((1, 2), np.concatenate([np.zeros(2), np.log(probs)])))
    for action in (0, 1, 1):
        log_d, log_1md = disc.structured_log_d(model, generator, one_step_window(action))
        assert np.exp(log_d) == pytest.approx(0.5, abs=1e-10)
        assert np.exp(log_1md) == pytest.approx(0.5, abs=1e-10)


def test_asqf_log_d_hand_value():
    generator = bias_only_policy([0.5, 0.5])  # log pi = -log 2
    model = disc.AsqfModel(Mlp((1, 2), np.array([0.0, 0.0, np.log(3.0) - np.log(2.0), 0.0])))
    log_d, _ = disc.structured_log_d(model, generator, one_step_window(0))
    assert np.exp(log_d) == pytest.approx(0.75, abs=1e-12)  # 3 / (3 + 1)


def test_asqf_bce_fixed_point_and_mismatch():
    probs = np.array([0.3, 0.7])
    generator = bias_only_policy(probs)
    model = disc.AsqfModel(Mlp((1, 2), np.concatenate([np.zeros(2), np.log(probs)])))
    rng = np.random.default_rng(13)
    expert = transitions(np.zeros((6, 1)), rng.integers(0, 2, size=6))
    gen = transitions(np.zeros((6, 1)), rng.integers(0, 2, size=6))
    loss, _ = disc.asqf_bce_loss(model, generator, expert, gen)
    assert loss == pytest.approx(LOG4, abs=1e-9)
    with pytest.raises(ValueError):
        disc.asqf_bce_loss(model, generator, expert.take(np.arange(2)), gen)


def test_asqf_bce_uses_cached_generator_scores():
    rng = np.random.default_rng(14)
    model = disc.AsqfModel(Mlp.init((2, 5, 2), rng))
    generator = CategoricalPolicy(Mlp.init((2, 5, 2), rng))
    expert = transitions(rng.normal(size=(4, 2)), rng.integers(0, 2, size=4))
    gen = transitions(rng.normal(size=(4, 2)), rng.integers(0, 2, size=4))
    fresh, _ = disc.asqf_bce_loss(model, generator, expert, gen)
    expert.gen_logp = generator.log_prob_batch(expert.obs, expert.acts)
    gen.gen_logp = generator.log_prob_batch(gen.obs, gen.acts)
    cached, _ = disc.asqf_bce_loss(model, generator, expert, gen)
    assert fresh == cached


def test_asqf_grad_matches_finite_differences():
    rng = np.random.default_rng(15)
    model = disc.AsqfModel(Mlp((2, 6, 2)))
    generator = CategoricalPolicy(Mlp.init((2, 6, 2), rng))
    expert = transitions(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
    gen = transitions(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))

    def f(theta):
        model.net.params = theta
        return disc.asqf_bce_loss(model, generator, expert, gen)

    assert grad_check(f, Mlp.init((2, 6, 2), rng).params) < 1e-4


@given(
    n=st.integers(1, 64),
    n_actions=st.integers(2, 4),
    cached=st.booleans(),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_asqf_loss_matches_reference(n, n_actions, cached, seed):
    rng = np.random.default_rng(seed)
    model = disc.AsqfModel(Mlp.init((3, 5, n_actions), rng))
    generator = CategoricalPolicy(Mlp.init((3, 5, n_actions), rng))
    expert = transitions(rng.normal(size=(n, 3)), rng.integers(0, n_actions, size=n))
    gen = transitions(rng.normal(size=(n, 3)), rng.integers(0, n_actions, size=n))
    if cached:
        expert.gen_logp = generator.log_prob_batch(expert.obs, expert.acts)
        gen.gen_logp = generator.log_prob_batch(gen.obs, gen.acts)
    want_loss, want_grad = reference_asqf_bce_loss(model, generator, expert, gen)

    loss, grad = disc.asqf_bce_loss(model, generator, expert, gen)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)
    assert (expert.gen_logp is None, gen.gen_logp is None) == (not cached, not cached)  # no caching leaks back

    scored_e, scored_g = replace(expert), replace(gen)
    disc.refresh_generator_scores(scored_e, generator)
    disc.refresh_generator_scores(scored_g, generator)
    loss, grad = disc.bce_on_packed(model, scored_e, scored_g)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


@given(
    seed=st.integers(0, 2 ** 31 - 1),
    n_states=st.integers(2, 6),
    n_actions=st.integers(2, 4),
    n_rows=st.integers(1, 16),
    noisy=st.booleans(),
)
def test_asqf_learner_protocol_matches_the_old_score_net(seed, n_states, n_actions, n_rows, noisy):
    # one-hot rows read the state table and add their weights per state before
    # one backward; any other rows run the net on themselves, as the old net did
    rng = np.random.default_rng(seed)
    net = Mlp.init((n_states, 8, n_actions), rng)
    model, reference = disc.AsqfModel(net), ReferenceAsqf(Mlp(net.sizes, net.params))
    obs = np.eye(n_states)[rng.integers(0, n_states, size=n_rows)]
    if noisy:
        obs += rng.normal(size=obs.shape)
    acts, weights = rng.integers(0, n_actions, size=n_rows), rng.normal(size=n_rows)

    f, cache = model.log_prob_tape(obs, acts)
    f_ref, cache_ref = reference.log_prob_tape(obs, acts)
    np.testing.assert_array_equal(model.log_prob_batch(obs, acts), f)
    if noisy or n_rows > 1:
        np.testing.assert_array_equal(f, f_ref)
    else:   # a one-row product can round apart from the table's S-row one
        np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-12)
    grad, grad_ref = model.backprop_log_prob(cache, weights), reference.backprop_log_prob(cache_ref, weights)
    np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-12)
    if noisy:
        np.testing.assert_array_equal(grad, grad_ref)


def test_asqf_snapshot_is_the_plain_softmax_policy():
    # the generator scores windows with log pi = log softmax(f), never with f
    rng = np.random.default_rng(18)
    model = disc.AsqfModel(Mlp.init((4, 6, 3), rng))
    policy = model.snapshot()
    assert type(policy) is CategoricalPolicy
    for obs in (np.eye(4)[[0, 3, 3, 1]], rng.normal(size=(4, 4))):
        acts = rng.integers(0, 3, size=4)
        scores = record_scores(model, obs)
        np.testing.assert_array_equal(model.log_prob_batch(obs, acts), scores[np.arange(4), acts])
        np.testing.assert_array_equal(policy.log_prob_batch(obs, acts), log_softmax_rows(scores)[np.arange(4), acts])
        np.testing.assert_array_equal(policy.log_probs(obs), model.log_probs(obs))


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_nll_on_packed_matches_reference(kind):
    rng = np.random.default_rng(17)
    obs = rng.normal(size=(7, 2))
    if kind == "gaussian":
        learner, acts = GaussianPolicy(Mlp.init((2, 5, 2), rng)), rng.normal(size=(7, 1))
    else:
        learner, acts = CategoricalPolicy(Mlp.init((2, 5, 3), rng)), rng.integers(0, 3, size=7)
    packed = transitions(obs, acts)
    loss, grad = disc.nll_on_packed(learner, packed)
    want_loss, want_grad = reference_nll(learner, packed)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)

    def f(theta):
        learner.net.params = theta
        return disc.nll_on_packed(learner, packed)

    assert grad_check(f, Mlp.init(learner.net.sizes, rng).params) < 1e-4


def test_asqf_extract_policy_is_softmax_of_scores():
    rng = np.random.default_rng(16)
    model = disc.AsqfModel(Mlp.init((3, 6, 2), rng))
    policy = model.snapshot()
    obs = rng.normal(size=(4, 3))
    scores = record_scores(model, obs)
    want = scores - scores.max(axis=1, keepdims=True)
    want = want - np.log(np.exp(want).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(policy.log_probs(obs), want, atol=1e-12)
    # the extraction is a frozen copy, not a view of the live model
    model.net.params = model.net.params + 1.0
    np.testing.assert_allclose(policy.log_probs(obs), want, atol=1e-12)
