"""Command-line front end.

Subcommands:

* ``gen-expert``: roll out the exact expert of an environment into a demo file,
* ``train``: run a config file end to end, writing curves.csv and policy.ckpt
  to ``out_dir``, which it creates before it reads the demos (and removes
  again if reading them or training fails),
* ``eval``: evaluate a checkpoint, printing ``mean=<v> std=<v> K=<k>``,
* ``verify``: run a named verification suite, one pass/fail line per check.

Exit codes: 0 success, 2 usage or config problems, 3 semantic validation
failures or a numerical error in training (printed with the outer step, and
the epoch and minibatch when an update raised it), 4 unreadable or
malformed files.  A failed verify suite exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from .envs import ENVS, EXPERT_ALPHA, env_by_id
from .errors import ConfigError, FormatError, NumericalError, ValidationError
from .formats import load_checkpoint, parse_run_config, read_demos, save_checkpoint, write_demos, write_runlog_csv
from .train import evaluate_policy, train
from .verify import SUITES, collect_expert_demos, run_suite

DEFAULT_DEMO_COUNTS = {"chain": 200, "gridworld": 50, "pointmass": 25}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asaf", description="Imitation learning via structured discriminators.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-expert", help="record expert demonstrations")
    gen.add_argument("--env", required=True, choices=tuple(ENVS))
    gen.add_argument("--n", type=int, default=None, help="episode count (default depends on env)")
    gen.add_argument("--alpha", type=float, default=EXPERT_ALPHA, help="expert softness for discrete envs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train from a run config file")
    tr.add_argument("--config", required=True)

    ev = sub.add_parser("eval", help="evaluate a saved policy")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--env", required=True, choices=tuple(ENVS))
    ev.add_argument("--k", type=int, default=20)
    ev.add_argument("--seed", type=int, default=0)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", required=True, choices=sorted(SUITES))
    return parser


def cmd_gen_expert(args) -> int:
    n = args.n if args.n is not None else DEFAULT_DEMO_COUNTS[args.env]
    demos = collect_expert_demos(env_by_id(args.env), n=n, alpha=args.alpha, seed=args.seed)
    write_demos(args.out, demos)
    print(f"wrote {n} episodes to {args.out} (mean return {demos.mean_return:.4f})")
    return 0


def cmd_train(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read config {args.config}: {exc.strerror}") from exc
    setup = parse_run_config(text, source=args.config)
    env_spec, config = setup.validated()
    out_dir = os.path.normpath(setup.out_dir)              # no "x/.." for makedirs to make x of
    path, made = os.path.abspath(out_dir), []             # what makedirs makes, deepest first
    while not os.path.lexists(path):
        path, made = os.path.dirname(path), made + [path]
    try:
        setup.at_line("out_dir", os.makedirs, out_dir, exist_ok=True)
        policy, log = train(config, setup.at_line("demos_path", read_demos, setup.demos_path), env_spec)
    except BaseException:
        for path in filter(os.path.isdir, made):         # a failed run leaves no directory behind
            os.rmdir(path)
        raise
    curves = os.path.join(setup.out_dir, "curves.csv")
    ckpt = os.path.join(setup.out_dir, "policy.ckpt")
    write_runlog_csv(curves, log)
    save_checkpoint(ckpt, policy)
    print(f"trained {setup.config.algorithm} for {setup.config.steps} outer steps "
          f"({log.total_env_steps} env steps); wrote {curves} and {ckpt}")
    return 0


def cmd_eval(args) -> int:
    policy = load_checkpoint(args.checkpoint)
    env_spec = env_by_id(args.env)
    expected_out = env_spec.n_actions if env_spec.action_kind == "discrete" else 2 * env_spec.act_dim
    if policy.net.in_dim != env_spec.obs_dim or policy.net.out_dim != expected_out:
        raise ValidationError(
            f"checkpoint net {policy.net.sizes} does not fit env {env_spec.env_id} "
            f"(obs_dim {env_spec.obs_dim}, out_dim {expected_out})"
        )
    if (policy.action_kind == "discrete") != (env_spec.action_kind == "discrete"):
        raise ValidationError(f"{policy.action_kind} policy cannot act on {env_spec.action_kind} env")
    mean, std = evaluate_policy(policy, env_spec, k=args.k, seed=args.seed)
    print(f"mean={mean:.17g} std={std:.17g} K={args.k}")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value that starts with '-' for an option unless it is a
    # plain negative number: glue `--alpha -inf` (-nan, -1e-3) into `--alpha=-inf`
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--alpha" and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"--alpha={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "gen-expert":
            return cmd_gen_expert(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
