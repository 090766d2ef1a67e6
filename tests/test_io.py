"""File formats and the command-line front end."""

import importlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asaf
from asaf import cli, formats, verify
from asaf.cli import main
from asaf.envs import EXPERT_ALPHA, chain_spec, soft_value_iteration, soft_vi_alpha, soft_vi_name
from asaf.errors import ConfigError, FormatError, NumericalError
from asaf.exact import exact_traj_distribution, expected_return, js_between
from asaf.formats import (
    CSV_HEADER,
    DEFAULTS,
    format_real,
    load_checkpoint,
    parse_run_config,
    read_demos,
    runlog_csv,
    save_checkpoint,
    write_demos,
)
from asaf.nn import Mlp
from asaf.policies import CategoricalPolicy, GaussianPolicy, tabular_policy_extract
from asaf.train import RunLog, RunRecord, TrainConfig, train
from asaf.verify import collect_expert_demos


# ---------------------------------------------------------------- real formatting

def test_format_real_examples():
    assert format_real(1.0) == "1.0"
    assert format_real(-0.0) == "-0.0"
    assert format_real(0.1) == "0.10000000000000001"
    assert format_real(2.5e-10) == "2.5000000000000002e-10"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_real_round_trips_bit_exact(x):
    back = float(format_real(x))
    assert back == x
    assert np.signbit(back) == np.signbit(x)


# ---------------------------------------------------------------- demo files

def test_demo_round_trip_discrete(tmp_path):
    demos = collect_expert_demos(chain_spec(), n=6, alpha=1.0, seed=3)
    path = tmp_path / "demos.jsonl"
    write_demos(path, demos)
    back = read_demos(path)
    assert (back.env_id, back.action_kind, back.obs_dim) == ("chain", "discrete", 4)
    assert back.mean_return == demos.mean_return
    assert back.generator == demos.generator == "soft_vi(alpha=1.0)"
    assert len(back) == 6
    for a, b in zip(demos.trajectories, back.trajectories):
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.acts, b.acts)


def test_demo_round_trip_continuous(tmp_path):
    rng = np.random.default_rng(0)
    from asaf.envs import PackedWindows
    from asaf.train import DemoSet

    trajs = [PackedWindows(obs=rng.normal(size=(4, 1)), acts=rng.normal(size=(4, 1))) for _ in range(3)]
    trajs[0].obs[0, 0] = -0.0  # signed zero must survive
    demos = DemoSet(trajs, env_id="pointmass", action_kind="continuous", obs_dim=1,
                    mean_return=-0.125)
    path = tmp_path / "demos.jsonl"
    write_demos(path, demos)
    assert '"generator"' not in path.read_text(encoding="utf-8")   # the header of files written before the key
    back = read_demos(path)
    assert back.action_kind == "continuous" and back.generator == ""
    for a, b in zip(demos.trajectories, back.trajectories):
        np.testing.assert_array_equal(a.obs, b.obs)
        assert np.signbit(b.obs[0, 0]) == np.signbit(a.obs[0, 0])
        np.testing.assert_array_equal(a.acts, b.acts)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_HEADER = ('{"format_version": 1, "env": "chain", "action_kind": "discrete", '
               '"obs_dim": 2, "n_trajectories": 1, "mean_return": 0.0}')
GOOD_BODY = '{"obs": [[1.0,0.0]], "acts": [0], "len": 1}'


def test_demo_file_errors(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError, match="empty"):
        read_demos(path)

    write_lines(path, ['{"format_version": 1}', GOOD_BODY])
    with pytest.raises(FormatError, match="header keys"):
        read_demos(path)

    write_lines(path, [GOOD_HEADER.replace('"format_version": 1', '"format_version": 2'), GOOD_BODY])
    with pytest.raises(FormatError, match="format_version"):
        read_demos(path)

    write_lines(path, [GOOD_HEADER[:-1] + ', "author": "x"}', GOOD_BODY])
    with pytest.raises(FormatError, match="header keys"):
        read_demos(path)

    for generator in ("1", "null", '["soft_vi"]'):
        write_lines(path, [GOOD_HEADER[:-1] + f', "generator": {generator}}}', GOOD_BODY])
        with pytest.raises(FormatError, match="line 1: generator .* is not a string"):
            read_demos(path)

    write_lines(path, [GOOD_HEADER, GOOD_BODY, GOOD_BODY])
    with pytest.raises(FormatError, match="promises 1"):
        read_demos(path)

    # blank lines are skipped, and an error names the line as numbered in the file
    three = GOOD_HEADER.replace('"n_trajectories": 1', '"n_trajectories": 3')
    write_lines(path, [three, GOOD_BODY, "", "  ", GOOD_BODY, GOOD_BODY, ""])
    assert len(read_demos(path)) == 3
    write_lines(path, [three, GOOD_BODY, "", "", GOOD_BODY, GOOD_BODY.replace('"len": 1', '"len": 2')])
    with pytest.raises(FormatError, match="line 6: len field"):
        read_demos(path)

    write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [0], "len": 1'])
    with pytest.raises(FormatError, match="line 2"):
        read_demos(path)

    write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0,3.0]], "acts": [0], "len": 1}'])
    with pytest.raises(FormatError, match="obs_dim"):
        read_demos(path)

    write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [0, 1], "len": 1}'])
    with pytest.raises(FormatError, match="len field"):
        read_demos(path)

    write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [[0]], "len": 1}'])
    with pytest.raises(FormatError, match="flat list"):
        read_demos(path)

    for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
        write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,%s]], "acts": [0], "len": 1}' % literal])
        with pytest.raises(FormatError, match="line 2: non-finite"):
            read_demos(path)
    write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [NaN], "len": 1}'])
    with pytest.raises(FormatError, match="line 2: non-finite"):
        read_demos(path)
    write_lines(path, [GOOD_HEADER.replace('"mean_return": 0.0', '"mean_return": NaN'), GOOD_BODY])
    with pytest.raises(FormatError, match="line 1: non-finite"):
        read_demos(path)

    # discrete actions are JSON integers that fit in int64, never truncated reals
    for acts in ("1.5", "1.0", "true", '"1"'):
        write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [%s], "len": 1}' % acts])
        with pytest.raises(FormatError, match="line 2: discrete acts must be integers"):
            read_demos(path)
    for big in (str(2 ** 63), str(-2 ** 63 - 1), "99999999999999999999"):
        write_lines(path, [GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [%s], "len": 1}' % big])
        with pytest.raises(FormatError, match="line 2: integer .* does not fit in 64 bits"):
            read_demos(path)
    for mean_return in ('"abc"', '"1.5"', "null", "[0.0]"):
        write_lines(path, [GOOD_HEADER.replace('"mean_return": 0.0', '"mean_return": ' + mean_return), GOOD_BODY])
        with pytest.raises(FormatError, match="line 1: mean_return .* is not a number"):
            read_demos(path)
    for body in ('{"obs": [[1.0,0.0],[1.0]], "acts": [0, 0], "len": 2}',
                 '{"obs": [["a",0.0]], "acts": [0], "len": 1}',
                 '{"obs": [[1.0,0.0]], "acts": [0, [1]], "len": 1}'):
        write_lines(path, [GOOD_HEADER, body])
        with pytest.raises(FormatError, match="line 2: obs and acts must be arrays of numbers"):
            read_demos(path)
    # integer fields are JSON integers: true and 2.0 compare equal to ints but are refused
    for key, value in (("format_version", 1), ("obs_dim", 2), ("n_trajectories", 1)):
        for bad in ("true", f"{value}.0"):
            write_lines(path, [GOOD_HEADER.replace(f'"{key}": {value}', f'"{key}": {bad}'), GOOD_BODY])
            with pytest.raises(FormatError, match=f"line 1: {key} .* is not an integer"):
                read_demos(path)
    for bad in ("true", "1.0"):
        write_lines(path, [GOOD_HEADER, GOOD_BODY.replace('"len": 1', f'"len": {bad}')])
        with pytest.raises(FormatError, match="line 2: len .* is not an integer"):
            read_demos(path)


CONTINUOUS_HEADER = GOOD_HEADER.replace('"chain", "action_kind": "discrete", "obs_dim": 2',
                                       '"pointmass", "action_kind": "continuous", "obs_dim": 1')


@pytest.mark.parametrize("header, body, message", [
    ('{"format_version": 1}', [GOOD_BODY], r"line 1: header keys \['format_version'\] do not match"),
    (GOOD_HEADER.replace('"format_version": 1', '"format_version": 2'), [GOOD_BODY],
     "line 1: unsupported format_version 2"),
    (GOOD_HEADER.replace('"discrete"', '"weird"'), [GOOD_BODY], "line 1: bad action_kind 'weird'"),
    (GOOD_HEADER, [GOOD_BODY, GOOD_BODY], "line 1: header promises 1 trajectories, found 2"),
])
def test_demo_header_refusals_name_line_1(tmp_path, header, body, message):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [header, *body])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}"):
        read_demos(path)


@pytest.mark.parametrize("header, body, message", [
    (GOOD_HEADER, '{"obs": [[1.0,0.0]], "acts": [0], "n": 1}', "line 2: trajectory keys must be obs/acts/len"),
    (CONTINUOUS_HEADER, '{"obs": [[0.5]], "acts": [0.5], "len": 1}', "line 2: continuous acts must be rows of reals"),
    (GOOD_HEADER, "[1, 2]", "line 2: expected a JSON object"),
    ("3", GOOD_BODY, "line 1: expected a JSON object"),
])
def test_demo_line_refusals(tmp_path, header, body, message):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [header, body])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}"):
        read_demos(path)


def test_write_demos_rejects_non_finite_before_opening(tmp_path):
    from asaf.envs import PackedWindows
    from asaf.train import DemoSet

    path = tmp_path / "demos.jsonl"
    good = PackedWindows(obs=np.zeros((2, 1)), acts=np.zeros((2, 1)))
    cases = [
        (PackedWindows(obs=np.array([[0.0], [np.nan]]), acts=np.zeros((2, 1))), 0.0, "line 3"),
        (PackedWindows(obs=np.zeros((2, 1)), acts=np.array([[np.inf], [0.0]])), 0.0, "line 3"),
        (good, float("-inf"), "mean_return"),
        (PackedWindows(obs=np.zeros((0, 1)), acts=np.zeros((0, 1))), 0.0, "line 3: episode has no steps"),
    ]
    for traj, mean_return, where in cases:
        demos = DemoSet([good, traj], env_id="pointmass", action_kind="continuous", obs_dim=1,
                        mean_return=mean_return)
        with pytest.raises(FormatError, match=where):
            write_demos(path, demos)
        assert not path.exists()


def test_write_demos_refuses_what_would_not_read_back(tmp_path):
    # each of these was written, and then read back as other data (three
    # episodes as one 15-step episode, the action 1.5 as 1) or refused by
    # read_demos; each refusal names the line and comes before the file opens
    from asaf.envs import PackedWindows, SoftExpertPolicy, rollout
    from asaf.train import DemoSet

    spec = chain_spec()
    three, _ = rollout(spec, SoftExpertPolicy(soft_value_iteration(spec.mdp, 1.0)), 0, episodes=3)
    one = three.episodes()[0]
    chain = dict(env_id="chain", action_kind="discrete", obs_dim=4, mean_return=0.0)
    pointmass = dict(env_id="pointmass", action_kind="continuous", obs_dim=1, mean_return=0.0)
    cases = [
        ([one, three], chain, "line 3: an entry of 3 episodes; a line holds one"),
        ([one, PackedWindows(np.eye(4)[[0, 1, 2]], [1, 1, 0], lengths=[2, 0, 1])], chain,
         "line 3: episode has no steps"),
        ([PackedWindows(np.eye(4)[[0, 1, 2]], [1.0, 1.5, 0.0])], chain,
         "line 2: discrete action 1.5 is not an integer"),
        ([one, PackedWindows(np.eye(4)[[0, 1]], [[1], [0]])], chain,
         r"line 3: discrete actions of shape \(2, 1\), expected a flat list"),
        ([PackedWindows(np.zeros((3, 1)), np.zeros(3))], pointmass,
         r"line 2: continuous actions of shape \(3,\), expected rows of reals"),
        ([one, PackedWindows(np.zeros((3, 3)), [1, 1, 0])], chain,
         r"line 3: obs shape \(3, 3\) does not match obs_dim 4"),
        ([one], {**chain, "action_kind": "weird"}, "line 1: bad action_kind 'weird'"),
    ]
    path = tmp_path / "demos.jsonl"
    for trajs, header, message in cases:
        with pytest.raises(FormatError, match=message):
            write_demos(path, DemoSet(trajs, **header))
        assert not path.exists()
    write_demos(path, DemoSet(three.episodes(), **chain))    # the same episodes, one a line, round-trip
    for a, b in zip(three.episodes(), read_demos(path).trajectories):
        assert a.obs.tobytes() == b.obs.tobytes() and a.acts.tobytes() == b.acts.tobytes()


# ---------------------------------------------------------------- run configs

FULL_CONFIG = """
# chain imitation run
env = chain
algorithm = asaf_w
demos_path = demos.jsonl
w = 2
stride = 1
lr_d = 0.0005
batch = 16
n_g = 4
epochs = 3
clip = 0.5
clip_mode = norm
steps = 12
eval_k = 8
eval_interval = 6
seed = 9
out_dir = out/run1
"""


def test_parse_full_config():
    setup = parse_run_config(FULL_CONFIG, source="run.cfg")
    cfg = setup.config
    assert setup.env_id == "chain"
    assert setup.demos_path == "demos.jsonl"
    assert setup.out_dir == "out/run1"
    assert (cfg.algorithm, cfg.w, cfg.stride) == ("asaf_w", 2, 1)
    assert (cfg.lr_d, cfg.batch, cfg.n_g, cfg.epochs) == (0.0005, 16, 4, 3)
    assert (cfg.clip, cfg.clip_mode, cfg.steps) == (0.5, "norm", 12)
    assert (cfg.eval_k, cfg.eval_interval, cfg.seed) == (8, 6, 9)
    cfg.validated()


def test_parse_config_applies_defaults():
    setup = parse_run_config("env = chain\nalgorithm = asaf\ndemos_path = d.jsonl\n")
    cfg = setup.config
    assert cfg.lr_d == DEFAULTS["lr_d"]
    assert cfg.batch == DEFAULTS["batch"]
    assert cfg.epochs == DEFAULTS["epochs"]
    assert cfg.steps == DEFAULTS["steps"]
    assert setup.out_dir == "run"
    assert cfg.w is None and cfg.stride is None


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_run_config("env = chain\nlearning_rate = 3\n", source="x.cfg")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_run_config("env = chain\nalgorithm = asaf\nalgorithm = bc\n")
    with pytest.raises(ConfigError, match="line 1.*integer"):
        parse_run_config("steps = twelve\n")
    with pytest.raises(ConfigError, match="line 1.*real"):
        parse_run_config("lr_d = fast\n")
    with pytest.raises(ConfigError, match="line 2.*key = value"):
        parse_run_config("env = chain\njust some words\n")
    with pytest.raises(ConfigError, match="required key 'algorithm'"):
        parse_run_config("env = chain\ndemos_path = d.jsonl\n")


def test_parse_config_hidden_sizes():
    base = "env = chain\nalgorithm = asaf\ndemos_path = d.jsonl\n"
    assert parse_run_config(base).config.hidden == DEFAULTS["hidden"] == (64, 64)
    assert parse_run_config(base + "hidden = 16, 8 ,4\n").config.hidden == (16, 8, 4)
    assert parse_run_config(base + "hidden = 32\n").config.hidden == (32,)
    for bad in ("", "64,", "64,,64", "sixty", "64, 6.5", "0", "64, -1"):
        with pytest.raises(ConfigError, match=r"line 4: .*'hidden' needs comma-separated integers >= 1"):
            parse_run_config(base + f"hidden = {bad}\n")


def test_parse_config_ignores_comments_and_blanks():
    text = "\n# full line comment\nenv = chain  # trailing comment\nalgorithm = bc\ndemos_path = d\n\n"
    setup = parse_run_config(text)
    assert setup.env_id == "chain"
    assert setup.config.algorithm == "bc"


def test_config_keys_are_the_train_config_fields_and_the_run_paths():
    assert set(formats._KEYS) == {f.name for f in fields(TrainConfig)} | {"env", "demos_path", "out_dir"}


def test_the_package_exports_what_it_imports_and_no_submodule():
    # asaf.__all__ is derived from the imports in asaf/__init__.py
    assert asaf.__all__ == [
        "AdamState", "AsqfModel", "CategoricalPolicy", "DemoSet", "EnvSpec", "GaussianPolicy", "Mlp",
        "OccupancyTable", "PackedWindows", "PointMassSpec", "RunLog", "RunRecord", "ScriptedPointMassPolicy",
        "SoftExpertPolicy", "SoftQTable", "TabularMdp", "TabularSpec", "TrainConfig", "Window", "adam_step",
        "asqf_bce_loss", "chain_spec", "collect_expert_demos", "env_by_id", "evaluate_policy",
        "exact_traj_distribution", "expected_return", "grad_check", "gridworld_spec", "js_between",
        "js_divergence", "make_policy", "occupancy", "rollout", "soft_value_iteration", "structured_log_d",
        "tabular_policy_extract", "train", "verify_lemma1", "window_split",
    ]
    assert "PackedWindows" in asaf.__all__ and not {"Trajectory", "TrajDistribution"} & set(asaf.__all__)
    assert not any(isinstance(getattr(asaf, name), types.ModuleType) for name in asaf.__all__)
    assert asaf.train is train and "train" in asaf.__all__ and "nn" not in asaf.__all__


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_categorical(tmp_path):
    rng = np.random.default_rng(1)
    policy = CategoricalPolicy(Mlp.init((4, 16, 2), rng))
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, policy)
    back = load_checkpoint(path)
    assert isinstance(back, CategoricalPolicy)
    assert back.net.sizes == (4, 16, 2)
    np.testing.assert_array_equal(back.net.params, policy.net.params)
    obs = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(back.log_probs(obs), policy.log_probs(obs))


def test_checkpoint_round_trip_gaussian(tmp_path):
    rng = np.random.default_rng(2)
    policy = GaussianPolicy(Mlp.init((1, 8, 2), rng))
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, policy)
    back = load_checkpoint(path)
    assert isinstance(back, GaussianPolicy)
    np.testing.assert_array_equal(back.net.params, policy.net.params)


def test_checkpoint_corruption_detected(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, CategoricalPolicy(Mlp.init((2, 4, 2), rng)))
    blob = path.read_bytes()

    (tmp_path / "a.ckpt").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(tmp_path / "a.ckpt")

    (tmp_path / "b.ckpt").write_bytes(blob[:10])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(tmp_path / "b.ckpt")

    (tmp_path / "c.ckpt").write_bytes(blob + b"\x00" * 8)
    with pytest.raises(FormatError, match="bytes"):
        load_checkpoint(tmp_path / "c.ckpt")

    (tmp_path / "d.ckpt").write_bytes(blob[:8] + struct.pack("<I", 7) + blob[12:])
    with pytest.raises(FormatError, match="kind"):
        load_checkpoint(tmp_path / "d.ckpt")

    (tmp_path / "e.ckpt").write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(tmp_path / "e.ckpt")


def test_checkpoint_refuses_fewer_than_two_layer_sizes(tmp_path):
    path = tmp_path / "p.ckpt"
    path.write_bytes(formats.CHECKPOINT_MAGIC + struct.pack("<III", formats.CHECKPOINT_VERSION, 0, 1)
                     + struct.pack("<I", 4))
    with pytest.raises(FormatError, match="need at least two layer sizes, got 1"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_a_policy_type_it_cannot_store(tmp_path):
    path = tmp_path / "p.ckpt"
    with pytest.raises(FormatError, match="cannot checkpoint policy type ScriptedPointMassPolicy"):
        save_checkpoint(path, asaf.ScriptedPointMassPolicy())
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoints_refuse_non_finite_parameters(tmp_path, bad):
    # the demo format refuses non-finite reals; checkpoints do so too, naming
    # the first bad index, on the way out and on the way in
    rng = np.random.default_rng(6)
    policy = CategoricalPolicy(Mlp.init((4, 8, 2), rng))
    params = policy.net.params.copy()
    params[[5, 9]] = bad
    path = tmp_path / "p.ckpt"
    with pytest.raises(FormatError, match=f"parameter 5 is {bad}, not finite"):
        save_checkpoint(path, CategoricalPolicy(Mlp((4, 8, 2), params)))
    assert not path.exists()
    save_checkpoint(path, policy)
    blob = path.read_bytes()
    offset = len(blob) - 8 * len(params)
    path.write_bytes(blob[:offset] + params.astype("<f8").tobytes())
    with pytest.raises(FormatError, match=f"parameter 5 is {bad}, not finite"):
        load_checkpoint(path)
    proc = run_module("eval", "--checkpoint", path, "--env", "chain", "--k", "2")
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
    assert proc.stderr == f"file error: {path}: parameter 5 is {bad}, not finite\n"


# ---------------------------------------------------------------- curves csv

def test_runlog_csv_layout():
    log = RunLog(rows=[
        RunRecord(step=10, env_steps=500, mean_return=1.5, std_return=0.25,
                  bce_loss=1.375, js_to_expert=0.015625, eval_seed=42),
        RunRecord(step=20, env_steps=1000, mean_return=-2.0, std_return=0.0,
                  bce_loss=float("nan"), js_to_expert=None, eval_seed=43),
    ])
    text = runlog_csv(log)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "10,500,1.5,0.25,1.375,0.015625"
    assert lines[2] == "20,1000,-2.0,0.0,nan,"   # no exact tracking: empty cell
    assert text.endswith("\n")


# ---------------------------------------------------------------- cli: gen-expert

def test_cli_gen_expert_writes_valid_demos(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    assert main(["gen-expert", "--env", "chain", "--n", "5", "--out", str(out)]) == 0
    assert "wrote 5 episodes" in capsys.readouterr().out
    demos = read_demos(out)
    assert len(demos) == 5 and demos.env_id == "chain"
    assert all(len(t) == 5 for t in demos.trajectories)


def test_cli_gen_expert_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["gen-expert", "--env", "chain", "--n", "8", "--seed", "4", "--out", str(a)])
    main(["gen-expert", "--env", "chain", "--n", "8", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    main(["gen-expert", "--env", "chain", "--n", "8", "--seed", "5", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_cli_gen_expert_mean_matches_exact_return(tmp_path):
    # the sampled mean must sit within 3 standard errors of the exact
    # expected return of the soft-optimal expert
    out = tmp_path / "chain.jsonl"
    assert main(["gen-expert", "--env", "chain", "--out", str(out)]) == 0
    demos = read_demos(out)
    assert len(demos) == 200  # documented default for this env

    spec = chain_spec()
    expert = soft_value_iteration(spec.mdp, 1.0)
    exact = expected_return(spec.mdp, expert.policy_table())
    assert exact == pytest.approx(1.6670641309288667, abs=1e-12)

    from asaf.envs import SoftExpertPolicy, rollout
    returns = [rollout(spec, SoftExpertPolicy(expert), seed=(0, i))[1] for i in range(200)]
    assert demos.mean_return == pytest.approx(np.mean(returns), abs=1e-12)
    stderr3 = 3.0 * np.std(returns) / np.sqrt(200.0)
    assert abs(demos.mean_return - exact) < stderr3


def test_cli_gen_expert_pointmass(tmp_path):
    out = tmp_path / "pm.jsonl"
    assert main(["gen-expert", "--env", "pointmass", "--n", "5", "--out", str(out)]) == 0
    demos = read_demos(out)
    assert demos.action_kind == "continuous"
    assert demos.trajectories[0].acts.shape == (50, 1)
    # worst start |x| = 1 costs about -2.9 before the controller settles
    assert demos.mean_return > -3.0


def test_cli_gen_expert_rejects_bad_args(tmp_path, capsys):
    out = str(tmp_path / "x.jsonl")
    assert main(["gen-expert", "--env", "chain", "--n", "0", "--out", out]) == 3
    assert main(["gen-expert", "--env", "chain", "--alpha", "-1", "--out", out]) == 3
    assert "validation error" in capsys.readouterr().err
    # every env refuses an alpha that is not finite and positive; pointmass,
    # which ignores alpha, used to write its demos and exit 0
    for env in ("chain", "gridworld", "pointmass"):
        for alpha in ("nan", "inf", "-inf", "0", "-1"):
            assert main(["gen-expert", "--env", env, f"--alpha={alpha}", "--n", "2", "--out", out]) == 3
            err = capsys.readouterr().err
            assert f"validation error: alpha must be finite and positive, got {float(alpha)}" in err
            assert "Traceback" not in err and not os.path.exists(out)


def test_cli_gen_expert_reads_a_separate_negative_alpha_token(tmp_path, capsys):
    # argparse takes a token that starts with '-' for an option unless it is
    # a plain negative number; these used to exit 2 with "expected one argument"
    out = str(tmp_path / "x.jsonl")
    for alpha in ("-inf", "-nan", "-1e-3", "-1"):
        assert main(["gen-expert", "--env", "chain", f"--alpha={alpha}", "--out", out]) == 3
        joined = capsys.readouterr().err
        assert main(["gen-expert", "--env", "chain", "--alpha", alpha, "--out", out]) == 3
        assert capsys.readouterr().err == joined
        assert joined.startswith("validation error: alpha must be finite and positive")
    # a missing value is still a usage error
    assert main(["gen-expert", "--env", "chain", "--alpha", "--out", out]) == 2
    assert "expected one argument" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------- cli: train/eval

@pytest.fixture()
def run_setup(tmp_path):
    demos = tmp_path / "demos.jsonl"
    main(["gen-expert", "--env", "chain", "--n", "5", "--out", str(demos)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\n"
        f"steps = 2\nepochs = 1\nn_g = 2\nbatch = 4\neval_interval = 1\neval_k = 2\n"
        f"out_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    return tmp_path, cfg


def test_cli_train_writes_curves_and_checkpoint(run_setup, capsys):
    tmp_path, cfg = run_setup
    assert main(["train", "--config", str(cfg)]) == 0
    assert "trained asaf" in capsys.readouterr().out
    lines = (tmp_path / "out" / "curves.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # eval after each of the 2 outer steps
    policy = load_checkpoint(tmp_path / "out" / "policy.ckpt")
    assert isinstance(policy, CategoricalPolicy)


def test_cli_train_is_deterministic(run_setup):
    tmp_path, cfg = run_setup
    main(["train", "--config", str(cfg)])
    first = (tmp_path / "out" / "curves.csv").read_bytes()
    first_ckpt = (tmp_path / "out" / "policy.ckpt").read_bytes()
    main(["train", "--config", str(cfg)])
    assert (tmp_path / "out" / "curves.csv").read_bytes() == first
    assert (tmp_path / "out" / "policy.ckpt").read_bytes() == first_ckpt


def test_cli_train_hidden_reproduces_the_library_run(run_setup):
    tmp_path, cfg = run_setup
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("hidden = 8, 3\n")
    assert main(["train", "--config", str(cfg)]) == 0
    policy = load_checkpoint(tmp_path / "out" / "policy.ckpt")
    assert policy.net.sizes == (4, 8, 3, 2)
    setup = parse_run_config(cfg.read_text(encoding="utf-8"))
    library, log = train(setup.config, read_demos(setup.demos_path), chain_spec())
    assert policy.net.params.tobytes() == library.net.params.tobytes()
    assert (tmp_path / "out" / "curves.csv").read_text() == runlog_csv(log)


def test_cli_train_zero_steps_header_only(tmp_path):
    demos = tmp_path / "demos.jsonl"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"env = chain\nalgorithm = bc\ndemos_path = {demos}\nsteps = 0\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "curves.csv").read_text() == CSV_HEADER + "\n"


def test_cli_eval_reproduces_logged_evaluation(run_setup, capsys):
    tmp_path, cfg = run_setup
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    final = (tmp_path / "out" / "curves.csv").read_text().splitlines()[-1].split(",")
    step, logged_mean = int(final[0]), final[2]
    eval_seed = 0 + 100003 * step
    code = main(["eval", "--checkpoint", str(tmp_path / "out" / "policy.ckpt"),
                 "--env", "chain", "--k", "2", "--seed", str(eval_seed)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"mean={logged_mean} ")
    assert "K=2" in out


def test_cli_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"

    cfg.write_text("env = chain\nwhatever = 3\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 4

    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {tmp_path / 'none.jsonl'}\n",
                   encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 4

    # demos recorded on a different environment: semantic validation error
    demos = tmp_path / "pm.jsonl"
    main(["gen-expert", "--env", "pointmass", "--n", "2", "--out", str(demos)])
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\n",
                   encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 3

    # an out-of-range discrete action is refused with its demo-file line
    demos = tmp_path / "chain.jsonl"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    lines = demos.read_text(encoding="utf-8").splitlines()
    lines[3] = re.sub(r'"acts": \[\d', '"acts": [5', lines[3])
    demos.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "episode 2 (demo file line 4): action 5" in err
    assert "Traceback" not in err

    # non-finite reals are refused where they enter, before any update
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    for line in ("clip = nan", "lr_d = nan", "lr_d = inf"):
        cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\n{line}\n",
                       encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 3, line
        assert f"{line.split()[0]} must be" in capsys.readouterr().err
    nan_expert = tmp_path / "nan.jsonl"
    assert main(["gen-expert", "--env", "chain", "--alpha", "nan", "--out", str(nan_expert)]) == 3
    assert "alpha must be finite and positive, got nan" in capsys.readouterr().err
    assert not nan_expert.exists()

    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--env", "chain"]) == 4
    garbage = tmp_path / "junk.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    assert main(["eval", "--checkpoint", str(garbage), "--env", "chain"]) == 4


def test_cli_train_refuses_where_it_reads_and_writes_before_training(tmp_path, capsys, monkeypatch):
    # an out_dir under a regular file and a missing demo file are refused with
    # their config lines before train() runs, and leave no directory behind
    def no_training(*args, **kwargs):
        raise AssertionError("train() ran")

    monkeypatch.setattr(cli, "train", no_training)
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    (tmp_path / "afile").write_text("", encoding="utf-8")
    cases = [
        (f"{tmp_path / 'afile' / 'run'}", demos, "line 4: [Errno 20] Not a directory"),
        (f"{tmp_path / 'new' / 'run'}", tmp_path / "missing.jsonl", "line 3: [Errno 2] No such file or directory"),
        (f"{tmp_path / 'new' / 'run'}", tmp_path, "line 3: [Errno 21] Is a directory"),
    ]
    for out_dir, demos_path, message in cases:
        cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos_path}\nout_dir = {out_dir}\nsteps = 300\n",
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith(f"file error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "demos.jsonl", "run.cfg"]

    # out_dir exists when training starts, and a run that fails removes what it made
    def diverging(config, demo_set, env_spec):
        assert (tmp_path / "new" / "run").is_dir() and len(demo_set) == 3
        raise NumericalError("outer step 1: non-finite net scores")

    monkeypatch.setattr(cli, "train", diverging)
    for out_dir in (tmp_path / "new" / "run", tmp_path / "ghost" / ".." / "new" / "run"):
        cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nout_dir = {out_dir}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "numerical error: outer step 1: non-finite net scores\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "demos.jsonl", "run.cfg"]

    # without the keys in the file the refusals name no line
    monkeypatch.chdir(tmp_path)
    cfg.write_text("env = chain\nalgorithm = asaf\ndemos_path = demos.jsonl\n", encoding="utf-8")
    (tmp_path / "run").write_text("", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err == "file error: [Errno 17] File exists: 'run'\n"


def test_cli_process_names_the_line_of_an_out_dir_it_cannot_make(tmp_path):
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    (tmp_path / "afile").write_text("", encoding="utf-8")
    out_dir = tmp_path / "afile" / "run"
    cfg.write_text(f"env = chain\nalgorithm = asaf\nsteps = 300\nout_dir = {out_dir}\ndemos_path = {demos}\n",
                   encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
    assert proc.stderr == f"file error: line 4: [Errno 20] Not a directory: '{out_dir}'\n"


def test_cli_eval_rejects_mismatched_env(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ckpt = tmp_path / "p.ckpt"
    save_checkpoint(ckpt, CategoricalPolicy(Mlp.init((4, 8, 2), rng)))
    assert main(["eval", "--checkpoint", str(ckpt), "--env", "gridworld"]) == 3
    assert "does not fit" in capsys.readouterr().err


def test_cli_eval_rejects_a_discrete_policy_on_a_continuous_env(tmp_path, capsys):
    # sizes (1, 2) fit pointmass's obs_dim 1 and its (mean, log-std) pair, so only the kind differs
    ckpt = tmp_path / "p.ckpt"
    save_checkpoint(ckpt, CategoricalPolicy(Mlp.init((1, 2), np.random.default_rng(5))))
    assert main(["eval", "--checkpoint", str(ckpt), "--env", "pointmass"]) == 3
    assert "discrete policy cannot act on continuous env" in capsys.readouterr().err


def test_cli_verify_lemma1(capsys):
    assert main(["verify", "--suite", "lemma1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert all(line.endswith("PASS") for line in out)


def test_cli_usage_errors_exit_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=r"unknown suite 'nope', expected one of \['asqf', 'gradients'"):
        verify.run_suite("nope")


def test_asqf_suite_returns_the_chain_check_then_the_gridworld_one(monkeypatch):
    # the checks themselves run in acceptance c6; here only the suite's assembly
    chain, grid = verify.CheckResult("chain", 0.0, 1.0), verify.CheckResult("grid", 0.05, 0.1)
    monkeypatch.setattr(verify, "asqf_chain_check", lambda: chain)
    monkeypatch.setattr(verify, "asqf_gridworld_check", lambda: (grid, "policy"))
    assert verify.asqf_suite() == verify.run_suite("asqf") == [chain, grid]


def run_module(*args):
    """``python -m asaf.cli <args>`` in a fresh interpreter, no install needed:
    the exit code, the message and the absence of a traceback are what a
    shell sees."""
    src = str(Path(asaf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "asaf.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_process_rejects_malformed_demos(tmp_path):
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    good = demos.read_text(encoding="utf-8").splitlines()
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    cases = [
        (3, re.sub(r'"acts": \[\d', '"acts": [1.5', good[2])),
        (2, re.sub(r'"acts": \[\d', '"acts": [99999999999999999999', good[1])),
        (1, re.sub(r'"mean_return": [^}]*', '"mean_return": "abc"', good[0])),
    ]
    for lineno, edited in cases:
        lines = list(good)
        lines[lineno - 1] = edited
        demos.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_module("train", "--config", cfg)
        assert proc.returncode == 4, proc.stderr
        assert f"line {lineno}:" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_rejects_tabular_demo_rows_that_are_not_one_hot(tmp_path, capsys):
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    lines = demos.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[2])
    rec["obs"][1] = [0.5, 0.5, 0.0, 0.0]
    lines[2] = json.dumps(rec)
    demos.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    message = "validation error: episode 1 (demo file line 3): observation row 1 is not a one-hot state"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    assert message in capsys.readouterr().err
    proc = run_module("train", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, sizes, env", [(0, (4, 0, 2), "chain"), (1, (1, 8, 3), "pointmass")])
def test_cli_process_rejects_malformed_checkpoints(tmp_path, kind, sizes, env):
    # a layer size of 0 and a gaussian net of odd output width used to end
    # in a ValueError or ShapeError traceback and exit 1
    n_params = sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
    ckpt = tmp_path / "p.ckpt"
    ckpt.write_bytes(b"ASAF" + struct.pack(f"<III{len(sizes)}I", 1, kind, len(sizes), *sizes)
                     + np.zeros(n_params, dtype="<f8").tobytes())
    with pytest.raises(FormatError):
        load_checkpoint(ckpt)
    proc = run_module("eval", "--checkpoint", ckpt, "--env", env)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("file error: ")
    assert "Traceback" not in proc.stderr


def test_cli_process_reports_numerical_error(tmp_path):
    # a learning rate that overflows the parameters: exit 3 with the outer step
    # and minibatch that raised, never a traceback
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 2\nlr_d = 1e300\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert re.search(r"numerical error: outer step 1, epoch \d+, minibatch \d+: non-finite", proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("env, algorithm", [("chain", "asaf"), ("pointmass", "asaf_1")])
def test_cli_process_refuses_training_that_diverged_after_its_last_update(tmp_path, env, algorithm):
    # one update overflows the parameters and no later update sees them, so the
    # evaluation finds the net's scores (chain) or the returns (pointmass) not
    # finite: exit 3 with the outer step, no warning, no out dir
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", env, "--n", "3", "--out", str(demos)])
    cfg.write_text(f"env = {env}\nalgorithm = {algorithm}\ndemos_path = {demos}\nsteps = 1\nepochs = 1\n"
                   f"batch = 1000\nlr_d = 1e300\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert re.search(r"numerical error: outer step 1: non-finite", proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_process_rejects_negative_seeds(tmp_path):
    # gen-expert and eval refuse a negative seed with exit 3, as a config does
    out = tmp_path / "demos.jsonl"
    proc = run_module("gen-expert", "--env", "chain", "--n", "2", "--seed", "-1", "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert "validation error: seed must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    ckpt = tmp_path / "p.ckpt"
    save_checkpoint(ckpt, CategoricalPolicy(Mlp.init((4, 8, 2), np.random.default_rng(5))))
    proc = run_module("eval", "--checkpoint", ckpt, "--env", "chain", "--k", "2", "--seed", "-1")
    assert proc.returncode == 3, proc.stderr
    assert "validation error: seed must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_process_rejects_wide_continuous_actions(tmp_path):
    # pointmass actions are 1 wide; 2-wide rows are well-formed reals, so the
    # file reads, and training refuses them with the episode's line
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "pointmass", "--n", "3", "--out", str(demos)])
    lines = demos.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[2])
    rec["acts"] = [row * 2 for row in rec["acts"]]
    lines[2] = json.dumps(rec)
    demos.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(read_demos(demos).trajectories[1].acts[0]) == 2
    cfg.write_text(f"env = pointmass\nalgorithm = asaf_1\ndemos_path = {demos}\nsteps = 1\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert "validation error: episode 1 (demo file line 3): actions of shape (50, 2), expected (50, 1)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_process_rejects_non_finite_reals(tmp_path):
    out = tmp_path / "nan.jsonl"
    proc = run_module("gen-expert", "--env", "gridworld", "--alpha", "nan", "--out", out)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert "validation error: alpha must be finite and positive, got nan" in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()

    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\nclip = nan\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert "validation error: line 5: clip must be positive, got nan" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_process_refuses_a_clip_mode_other_than_norm(tmp_path):
    # global-norm clipping is the one mode; "value" was a second that no recipe set
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\nclip_mode = value\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert "validation error: line 5: clip_mode must be 'norm', got 'value'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_js_to_expert_tracks_the_temperature_that_made_the_demos(tmp_path):
    path = tmp_path / "soft.jsonl"
    assert main(["gen-expert", "--env", "chain", "--n", "20", "--alpha", "0.5", "--out", str(path)]) == 0
    demos, mdp = read_demos(path), chain_spec().mdp
    assert demos.generator == "soft_vi(alpha=0.5)"
    cfg = TrainConfig(algorithm="asaf", steps=1, epochs=0, n_g=2, eval_k=2, eval_interval=1, hidden=(8,), seed=4)
    policy, log = train(cfg, demos, chain_spec())   # no update: the logged generator is the untrained net
    untrained = exact_traj_distribution(mdp, tabular_policy_extract(policy, mdp.n_states))
    js = {alpha: js_between(untrained, exact_traj_distribution(mdp, soft_value_iteration(mdp, alpha).policy_table()))
          for alpha in (0.5, 1.0)}
    assert log.rows[0].js_to_expert == js[0.5] != js[1.0]


@pytest.mark.parametrize("alpha", [0.25, 1.0, 1e-300])
def test_the_soft_vi_demo_name_gives_back_its_temperature(alpha):
    assert soft_vi_alpha(soft_vi_name(alpha)) == alpha


@pytest.mark.parametrize("generator", ["soft_vi(alpha=nan)", "scripted_proportional", ""])
def test_demos_named_without_a_usable_temperature_read_the_default_expert(generator):
    assert soft_vi_alpha(generator) == EXPERT_ALPHA


@pytest.mark.parametrize("lines, message", [
    ({5: "batch = 0"}, "line 5: batch must be >= 1, got 0"),
    ({5: "lr_d = -0.5"}, "line 5: lr_d must be finite and positive, got -0.5"),
    ({5: "clip = 0"}, "line 5: clip must be positive, got 0.0"),
    ({5: "w = 2"}, "line 5: asaf does not take w/stride"),
    ({2: "algorithm = bc", 6: "stride = 3"}, "line 6: bc does not take w/stride"),
    ({2: "algorithm = asaf_1", 5: "w = 2"}, "line 5: asaf_1 is fixed to w = 1, stride = 1"),
    ({2: "algorithm = gail"}, "line 2: unknown algorithm 'gail'"),
    ({1: "env = cartpole"}, "line 1: unknown environment id 'cartpole'"),
    ({2: "algorithm = asaf_w"}, "asaf_w needs a window length w >= 1"),   # about a key the file omits
    ({1: "env = pointmass", 2: "algorithm = asqf"}, "line 2: the scored discriminator requires discrete actions"),
])
def test_cli_process_config_refusals_name_their_line(tmp_path, lines, message):
    # the refusals of TrainConfig.validated, env_by_id and check_algorithm_fits
    # name the config line of the key they are about, before the demo file is read
    text = {1: "env = chain", 2: "algorithm = asaf", 3: "demos_path = missing.jsonl", 4: "# a comment", **lines}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(text.get(i, "") for i in range(1, max(text) + 1)) + "\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr.startswith(f"validation error: {message}"), proc.stderr
    assert "Traceback" not in proc.stderr
    if "line" not in message:
        assert "line" not in proc.stderr


def test_cli_process_demo_errors_cite_the_line_an_episode_came_from(tmp_path):
    # read_demos skips blank lines, so an episode's line is not its index + 2
    demos, cfg = tmp_path / "demos.jsonl", tmp_path / "run.cfg"
    main(["gen-expert", "--env", "chain", "--n", "3", "--out", str(demos)])
    header, *episodes = demos.read_text(encoding="utf-8").splitlines()
    episodes[2] = re.sub(r'"acts": \[\d', '"acts": [5', episodes[2])
    demos.write_text("\n".join([header, "", *episodes]) + "\n", encoding="utf-8")   # episode 2 on line 5
    cfg.write_text(f"env = chain\nalgorithm = asaf\ndemos_path = {demos}\nsteps = 1\n"
                   f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    proc = run_module("train", "--config", cfg)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert "validation error: episode 2 (demo file line 5): action 5 is outside [0, 2)" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()
    read = read_demos(demos)
    assert read.lines == [3, 4, 5] and read == replace(read, lines=None)    # lines take no part in equality


def test_console_script_runs(capsys):
    # the installed script where it is on PATH, else the target that
    # pyproject.toml's [project.scripts] names, called in process
    if shutil.which("asaf") is not None:
        proc = subprocess.run(["asaf", "--help"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "gen-expert" in proc.stdout
        return
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["asaf"].partition(":")
    assert getattr(importlib.import_module(module), name)(["--help"]) == 0
    assert "gen-expert" in capsys.readouterr().out
