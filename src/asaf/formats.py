"""On-disk formats: demo files, run configs, checkpoints, curve CSVs.

Demo file (UTF-8 text, one JSON object per line, blank lines skipped):
    line 1   header: {"format_version": 1, "env": str, "action_kind": str,
                      "obs_dim": int, "n_trajectories": int, "mean_return": float,
                      "generator": str}    generator: optional, written if non-empty
    line 2+  one episode of >= 1 steps each: {"obs": [[...]], "acts": [...], "len": int}

Reals are written with 17 significant digits and always carry a decimal
point, which makes the round trip bit-exact for float64 (including the sign
of zero).  Discrete actions are plain JSON integers; continuous actions are
rows of reals.  The reader refuses non-finite reals (JSON has no form for
them), integers beyond int64, a ``mean_return`` that is not a number, an
``env`` or ``generator`` that is not a string, and a ``format_version``,
``obs_dim``, ``n_trajectories`` or ``len`` that is not an integer.  The
writer reads its text back through the reader before it opens the file and
refuses what does not read back as given.  Errors name the line as numbered
in the file; ``DemoSet.lines`` keeps each episode's line for ``train``.

Run config (UTF-8 text): one ``key = value`` per line, blank lines and
``#`` comments ignored; ``hidden`` takes comma-separated layer sizes
(``hidden = 64, 64``).  Unknown keys are an error, as are malformed
values; both report the offending line number, as does a value that
``RunSetup.validated`` refuses.  Missing keys fall back to
the documented defaults in DEFAULTS below; env, algorithm, and demos_path
have no default and must be present for training.

Checkpoint (binary, little-endian):
    bytes 0-3   magic "ASAF"
    u32         format version (1)
    u32         policy kind: 0 categorical, 1 gaussian
    u32         number of layer sizes, then that many u32 layer sizes
    f64 * n     flat parameters, n implied by the layer sizes
The loader refuses a layer size of 0, and an odd output width for gaussian;
both sides refuse a non-finite parameter, naming its index.

Curves CSV: header ``step,env_steps,mean_return,std_return,bce_loss,
js_to_expert``; the last column is empty when no exact tracking exists.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .envs import EnvSpec, PackedWindows, env_by_id
from .errors import ConfigError, FormatError, ValidationError
from .nn import Mlp, param_count
from .policies import CategoricalPolicy, GaussianPolicy
from .train import DemoSet, RunLog, TrainConfig, check_algorithm_fits

__all__ = [
    "DEFAULTS",
    "RunSetup",
    "format_real",
    "load_checkpoint",
    "parse_run_config",
    "read_demos",
    "runlog_csv",
    "save_checkpoint",
    "write_demos",
    "write_runlog_csv",
]

FORMAT_VERSION = 1
CHECKPOINT_MAGIC = b"ASAF"
CHECKPOINT_VERSION = 1


def format_real(x: float) -> str:
    """17 significant digits, always with a decimal point or exponent."""
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE") and s not in ("nan", "inf", "-inf"):
        s += ".0"
    return s


def _json_real(x, discrete: bool = False) -> str:
    """A real by ``format_real``, a non-finite one as the ``NaN``/``Infinity`` literal
    that the reader refuses by name, and a whole discrete action as a JSON integer."""
    if discrete and float(x).is_integer():
        return str(int(x))
    return format_real(x) if math.isfinite(x := float(x)) else json.dumps(x)


def _json_rows(rows, discrete: bool = False) -> str:
    """Nested JSON lists of ``_json_real`` values; None is ``null``."""
    if rows is None:
        return "null"
    if np.ndim(rows) > 1:
        return "[" + ",".join(_json_rows(r, discrete) for r in rows) + "]"
    return "[" + ",".join(_json_real(v, discrete) for v in rows) + "]"


_HEADER = ("env_id", "action_kind", "obs_dim", "mean_return", "generator")    # the DemoSet fields of line 1


def write_demos(path, demos: DemoSet) -> None:
    """Write a demo file.  Before the file is opened, its text is read back by
    ``read_demos``'s parser, which must neither refuse it nor read back other
    values (header fields, each entry's ``lengths`` and per-step fields)."""
    lines = ["{" + f'"format_version": {FORMAT_VERSION}, "env": {json.dumps(demos.env_id)}, '
             + f'"action_kind": {json.dumps(demos.action_kind)}, "obs_dim": {demos.obs_dim}, '
             + f'"n_trajectories": {len(demos)}, "mean_return": {_json_real(demos.mean_return)}'
             + (f', "generator": {json.dumps(demos.generator)}' if demos.generator != "" else "") + "}"]
    lines += ['{"obs": ' + _json_rows(traj.obs) + ', "acts": ' + _json_rows(traj.acts, demos.action_kind == "discrete")
              + f', "len": {len(traj)}}}' for traj in demos.trajectories]
    back = _parse_demos(path, lines)
    for lineno, (given, read) in enumerate(zip([demos, *demos.trajectories], [back, *back.trajectories]), start=1):
        for name in _HEADER if lineno == 1 else ("lengths", *PackedWindows._ROWS):
            if not np.array_equal(a := getattr(given, name), b := getattr(read, name)):
                raise FormatError(f"{path}: line {lineno}: {name} {a!r} reads back as {b!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_demos(path) -> DemoSet:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_demos(path, fh.read().splitlines())


def _parse_demos(path, lines: list[str]) -> DemoSet:
    """The demo set that the text ``lines`` of the file ``path`` hold."""
    if not lines:
        raise FormatError(f"{path}: empty demo file")
    header = _parse_json_line(path, 1, lines[0])
    required = {"format_version", "env", "action_kind", "obs_dim", "n_trajectories", "mean_return"}
    if set(header) - {"generator"} != required:
        raise FormatError(f"{path}: line 1: header keys {sorted(header)} do not match {sorted(required)} "
                          "(generator optional)")
    for key in ("format_version", "obs_dim", "n_trajectories"):
        _check_int(path, 1, key, header[key])
    if header["format_version"] != FORMAT_VERSION:
        raise FormatError(f"{path}: line 1: unsupported format_version {header['format_version']!r}")
    if header["action_kind"] not in ("discrete", "continuous"):
        raise FormatError(f"{path}: line 1: bad action_kind {header['action_kind']!r}")
    if type(header["mean_return"]) not in (int, float):
        raise FormatError(f"{path}: line 1: mean_return {header['mean_return']!r} is not a number")
    for key in ("env", "generator"):
        if type(header.get(key, "")) is not str:
            raise FormatError(f"{path}: line 1: {key} {header[key]!r} is not a string")
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != header["n_trajectories"]:
        raise FormatError(f"{path}: line 1: header promises {header['n_trajectories']} trajectories, found {len(body)}")
    discrete = header["action_kind"] == "discrete"
    trajectories = []
    for i, line in body:
        rec = _parse_json_line(path, i, line)
        if set(rec) != {"obs", "acts", "len"}:
            raise FormatError(f"{path}: line {i}: trajectory keys must be obs/acts/len")
        _check_int(path, i, "len", rec["len"])
        if rec["len"] < 1:
            raise FormatError(f"{path}: line {i}: episode has no steps")
        try:
            obs = np.asarray(rec["obs"], dtype=np.float64)
            acts = np.asarray(rec["acts"], dtype=None if discrete else np.float64)
        except (TypeError, ValueError):
            raise FormatError(f"{path}: line {i}: obs and acts must be arrays of numbers") from None
        if obs.ndim != 2 or obs.shape[1] != header["obs_dim"]:
            raise FormatError(f"{path}: line {i}: obs shape {obs.shape} does not match obs_dim {header['obs_dim']}")
        if discrete and acts.ndim != 1:
            raise FormatError(f"{path}: line {i}: discrete acts must be a flat list")
        if discrete and acts.dtype.kind != "i":
            raise FormatError(f"{path}: line {i}: discrete acts must be integers")
        if not discrete and acts.ndim != 2:
            raise FormatError(f"{path}: line {i}: continuous acts must be rows of reals")
        if len(obs) != rec["len"] or len(acts) != rec["len"]:
            raise FormatError(f"{path}: line {i}: len field {rec['len']} does not match arrays")
        trajectories.append(PackedWindows(obs=obs, acts=acts))
    return DemoSet(trajectories=trajectories, env_id=header["env"], action_kind=header["action_kind"],
                   obs_dim=header["obs_dim"], mean_return=float(header["mean_return"]),
                   generator=header.get("generator", ""), lines=[i for i, _ in body])


def _check_int(path, lineno: int, key: str, value) -> None:
    """JSON ``true`` and ``2.0`` compare equal to integers; refuse them."""
    if type(value) is not int:
        raise FormatError(f"{path}: line {lineno}: {key} {value!r} is not an integer")


def _parse_json_line(path, lineno: int, line: str):
    def finite(text: str) -> float:
        x = float(text)
        if not np.isfinite(x):
            raise FormatError(f"{path}: line {lineno}: non-finite number {text}")
        return x

    def int64(text: str) -> int:
        x = int(text)
        if not -2**63 <= x < 2**63:
            raise FormatError(f"{path}: line {lineno}: integer {text} does not fit in 64 bits")
        return x

    try:
        obj = json.loads(line, parse_float=finite, parse_int=int64, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: line {lineno}: expected a JSON object")
    return obj


# ---------------------------------------------------------------- run config

# Every TrainConfig field is a config key with the dataclass's default, except
# algorithm, which is required.
DEFAULTS = {
    **{f.name: f.default for f in fields(TrainConfig) if f.name != "algorithm"},
    "out_dir": "run",
}


def _layer_sizes(text: str) -> tuple[int, ...]:
    sizes = tuple(int(part) for part in text.split(","))
    if min(sizes) < 1:
        raise ValueError(text)
    return sizes


# Each key's parser, and what its refusal says a value needs (str refuses none).
_KEYS = {
    **dict.fromkeys(("env", "algorithm", "clip_mode", "demos_path", "out_dir"), (str, "")),
    **dict.fromkeys(("batch", "n_g", "epochs", "w", "stride", "steps", "eval_k", "eval_interval", "seed"),
                    (int, "an integer")),
    **dict.fromkeys(("lr_d", "clip"), (float, "a real")),
    "hidden": (_layer_sizes, "comma-separated integers >= 1"),
}


@dataclass
class RunSetup:
    """A parsed run config: what to train, on what, and where to write;
    ``lines`` maps each key the file gives to its line."""

    env_id: str
    config: TrainConfig
    demos_path: str
    out_dir: str
    lines: dict[str, int] = field(default_factory=dict, compare=False)

    def validated(self) -> tuple[EnvSpec, TrainConfig]:
        """The environment and the checked config that fits it; a refusal
        about a key the file gives names that key's line."""
        try:
            env, config = env_by_id(self.env_id), self.config.validated()
            check_algorithm_fits(config.algorithm, env)
            return env, config
        except ValidationError as exc:
            if exc.key not in self.lines:
                raise
            raise type(exc)(f"line {self.lines[exc.key]}: {exc}", key=exc.key) from None

    def at_line(self, key: str, call, *args, **kwargs):
        """``call(*args, **kwargs)`` on the path of ``key``; an OSError it raises
        becomes a FormatError naming that key's line when the file gives it."""
        try:
            return call(*args, **kwargs)
        except OSError as exc:
            if key not in self.lines:
                raise
            raise FormatError(f"line {self.lines[key]}: {exc}") from exc


def parse_run_config(text: str, source: str = "<config>") -> RunSetup:
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: expected 'key = value', got {raw!r}", line=lineno)
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"{source}: duplicate key {key!r}", line=lineno)
        lines[key] = lineno
        parse, needs = _KEYS[key]
        try:
            values[key] = parse(val)
        except ValueError:
            raise ConfigError(f"{source}: key {key!r} needs {needs}, got {val!r}", line=lineno) from None
    for key in ("env", "algorithm", "demos_path"):
        if key not in values:
            raise ConfigError(f"{source}: required key {key!r} is missing")
    merged = {**DEFAULTS, **values}
    cfg = TrainConfig(**{f.name: merged[f.name] for f in fields(TrainConfig) if f.name in merged})
    return RunSetup(env_id=merged["env"], config=cfg, demos_path=merged["demos_path"], out_dir=merged["out_dir"],
                    lines=lines)


# ---------------------------------------------------------------- checkpoint

_KINDS = (CategoricalPolicy, GaussianPolicy)    # a policy kind's code is its index


def _finite_params(path, params: np.ndarray) -> np.ndarray:
    """``params``, refused at the first non-finite entry, which no trained net has."""
    if (bad := np.flatnonzero(~np.isfinite(params))).size:
        raise FormatError(f"{path}: parameter {bad[0]} is {params[bad[0]]}, not finite")
    return params


def save_checkpoint(path, policy) -> None:
    kind = next((code for code, cls in enumerate(_KINDS) if isinstance(policy, cls)), None)
    if kind is None:
        raise FormatError(f"cannot checkpoint policy type {type(policy).__name__}")
    sizes, params = policy.net.sizes, _finite_params(path, np.ascontiguousarray(policy.net.params, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, kind, len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(params.tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    try:
        version, kind, n_sizes = struct.unpack_from("<III", blob, 4)
        sizes = struct.unpack_from(f"<{n_sizes}I", blob, 16)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated checkpoint header") from exc
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if kind >= len(_KINDS):
        raise FormatError(f"{path}: unknown policy kind {kind}")
    if n_sizes < 2:
        raise FormatError(f"{path}: need at least two layer sizes, got {n_sizes}")
    if min(sizes) < 1:
        raise FormatError(f"{path}: layer sizes {sizes} include a size of 0")
    if _KINDS[kind] is GaussianPolicy and sizes[-1] % 2:
        raise FormatError(f"{path}: a gaussian net needs an even output width (mean, log-std pairs), got {sizes[-1]}")
    offset = 16 + 4 * n_sizes
    n_params = param_count(sizes)
    expected = offset + 8 * n_params
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for sizes {sizes}, file has {len(blob)}")
    params = _finite_params(path, np.frombuffer(blob, dtype="<f8", count=n_params, offset=offset).astype(np.float64))
    return _KINDS[kind](Mlp(sizes, params))


# ---------------------------------------------------------------- curves csv

CSV_HEADER = "step,env_steps,mean_return,std_return,bce_loss,js_to_expert"


def runlog_csv(log: RunLog) -> str:
    lines = [CSV_HEADER]
    for row in log.rows:
        js = "" if row.js_to_expert is None else format_real(row.js_to_expert)
        lines.append(
            f"{row.step},{row.env_steps},{format_real(row.mean_return)},"
            f"{format_real(row.std_return)},{format_real(row.bce_loss)},{js}"
        )
    return "\n".join(lines) + "\n"


def write_runlog_csv(path, log: RunLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(runlog_csv(log))
