"""Command-line front end: strict JSON run configs, figure-style experiment
presets, seeded execution, and plot-ready CSV output with a reproducibility
manifest."""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import __version__, fitting, network, protocols
from . import device as dev
from .device import DeviceParams
from .network import PatternOrder, PatternSpec
from .protocols import ExperimentPlan, PulseTrain
from .trace import Trace

__all__ = ["ConfigError", "RunConfig", "parse_config", "emit_csv", "main"]

# Each preset and the override sections it reads; any other section would be
# silently ignored, so it is refused.
_PRESET_SECTIONS = {
    "fig2_stp": {"device", "train", "plan"},
    "fig2f_drift": {"device", "train", "plan"},
    "fig3a_decay": {"device"},
    "fig3b_amplitude": {"device"},
    "fig4_sequence": {"network", "train", "pattern"},
    "fig4_control": {"network", "train", "pattern"},
    "s12_coincidence": {"network", "train", "pattern"},
    "iv_sweep": {"device"},
}
PRESET_NAMES = tuple(_PRESET_SECTIONS)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Bad run configuration (unknown key, missing field, type mismatch)."""


@dataclass
class RunConfig:
    preset: str
    seed: int = 0
    overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    out_dir: str = "out"
    trials: int = 1000


_TOP_KEYS = {"preset", "seed", "overrides", "out_dir", "trials", "threads"}
_OVERRIDE_SECTIONS = {
    "device": DeviceParams,
    "plan": ExperimentPlan,
    "train": PulseTrain,
    "pattern": PatternSpec,
    "network": network.Network,
}
# Fields a preset fixes: the topology is chosen by the preset name, and the
# synapse and neuron objects are built with it; trains come from the train
# section, and detector presets run both pattern orders.
_FIXED_FIELDS = {"network": {"topology", "synapses", "neuron"},
                 "plan": {"train"}, "pattern": {"train", "order"}}


class _NonFiniteLiteral:
    """A NaN or Infinity literal in a config document, which no field
    accepts; kept as a marker so the type checks can name its field."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_seed(seed: Any, name: str) -> None:
    _expect(isinstance(seed, int) and not isinstance(seed, bool),
            f"{name} must be an integer")
    _expect(0 <= seed < 2 ** 64, f"{name} must fit in 64 unsigned bits")


def _check_count(value: Any, name: str) -> None:
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"{name} must be a positive integer")


def _check_override(name: str, value: Any, hint: Any) -> None:
    """Check one override value against its field's annotation."""
    if hint is bool:
        _expect(isinstance(value, bool), f"override {name} must be true or false")
    elif hint is int:
        _expect(isinstance(value, int) and not isinstance(value, bool),
                f"override {name} must be an integer, got {value!r}")
    elif hint is float:
        try:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
        except OverflowError:  # an integer beyond the float range
            ok = False
        _expect(ok, f"override {name} must be a finite number, got {value!r}")
    else:
        _expect(isinstance(value, str), f"override {name} must be a string")


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration document, strictly.

    Unknown keys anywhere are rejected with the offending key named; so are
    override sections the preset does not read. Override values are checked
    against their field's annotation (bool, int, or finite float), and NaN
    or Infinity literals are refused wherever they appear.
    """
    try:
        doc = json.loads(text, parse_constant=_NonFiniteLiteral)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    for key in doc:
        _expect(key in _TOP_KEYS,
                f"unknown key {key!r} (allowed: {sorted(_TOP_KEYS)})")
    _expect("preset" in doc, "missing required field 'preset'")
    preset = doc["preset"]
    _expect(isinstance(preset, str), "field 'preset' must be a string")
    _expect(preset in PRESET_NAMES,
            f"unknown preset {preset!r} (known: {list(PRESET_NAMES)})")

    seed = doc.get("seed", 0)
    _check_seed(seed, "field 'seed'")

    out_dir = doc.get("out_dir", "out")
    _expect(isinstance(out_dir, str), "field 'out_dir' must be a string")

    trials = doc.get("trials", 1000)
    _check_count(trials, "field 'trials'")
    # threads is accepted but ignored, so it is not a run parameter.
    _check_count(doc.get("threads", 1), "field 'threads'")

    overrides = doc.get("overrides", {})
    _expect(isinstance(overrides, dict), "field 'overrides' must be an object")
    for section, patch in overrides.items():
        _expect(section in _OVERRIDE_SECTIONS,
                f"unknown override section {section!r} "
                f"(allowed: {sorted(_OVERRIDE_SECTIONS)})")
        _expect(section in _PRESET_SECTIONS[preset],
                f"override section {section!r} is not read by preset "
                f"{preset!r} (it reads: {sorted(_PRESET_SECTIONS[preset])})")
        _expect(isinstance(patch, dict),
                f"override section {section!r} must be an object")
        cls = _OVERRIDE_SECTIONS[section]
        allowed = ({f.name for f in dataclasses.fields(cls)}
                   - _FIXED_FIELDS.get(section, set()))
        hints = typing.get_type_hints(cls)
        for key, value in patch.items():
            _expect(key in allowed,
                    f"unknown key '{section}.{key}' (allowed: {sorted(allowed)})")
            _check_override(f"{section}.{key}", value, hints[key])
    return RunConfig(preset=preset, seed=seed, overrides=overrides,
                     out_dir=out_dir, trials=trials)


def _patched(instance, section: str, overrides: dict) -> Any:
    patch = overrides.get(section, {})
    if not patch:
        return instance
    try:
        return dataclasses.replace(instance, **patch)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad override for section {section!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV / manifest output
# ---------------------------------------------------------------------------


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def emit_csv(obj: Any, path: Path | str) -> Path:
    """Write a Trace, record list, or (x, y) pair list as CSV.

    Header row then data rows; floats carry 9 significant digits; the final
    row is newline-terminated. Trace and event rows are written from one
    '%.9g' row template each, which formats a float exactly as ``_fmt``.
    """
    path = Path(path)
    try:
        # Created with its first file, so a refused run leaves no directory.
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            if isinstance(obj, Trace):
                fh.write(f"time_s,{obj.column_name}\n")
                fh.writelines("%.9g,%.9g\n" % row for row in
                              zip(obj.times.tolist(), obj.values.tolist()))
            elif isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], Trace):
                # (v, i) style paired traces share the time base.
                a, b = obj
                fh.write(f"time_s,{a.column_name},{b.column_name}\n")
                fh.writelines("%.9g,%.9g,%.9g\n" % row for row in zip(
                    a.times.tolist(), a.values.tolist(), b.values.tolist()))
            elif isinstance(obj, list) and obj and isinstance(obj[0], protocols.EventRecord):
                n = len(obj[0].peaks)
                peak_cols = ",".join(f"peak_{k + 1}" for k in range(n))
                fh.write(f"index,g0_S,g_post_S,label,{peak_cols}\n")
                row = "%d,%.9g,%.9g,%s" + ",%.9g" * n + "\n"
                fh.writelines(row % (rec.index, rec.g0, rec.g_post,
                                     rec.label.value, *rec.peaks) for rec in obj)
            elif isinstance(obj, list) and obj and isinstance(obj[0], network.TrialRecord):
                fh.write("index,pattern,spiked,label,g0_S,n_spikes\n")
                for i, rec in enumerate(obj):
                    label = rec.label.value if rec.label is not None else ""
                    fh.write(f"{i},{rec.pattern.value},{int(rec.spiked)},{label},"
                             f"{_fmt(rec.g0)},{len(rec.spike_times)}\n")
            elif isinstance(obj, list):
                fh.write("x,y\n")
                for x, y in obj:
                    fh.write(f"{_fmt(float(x))},{_fmt(float(y))}\n")
            else:
                raise TypeError(f"cannot emit {type(obj).__name__} as CSV")
    except OSError as exc:
        raise RuntimeError(f"cannot write CSV {path}: {exc}") from exc
    return path


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def write_manifest(out_dir: Path, config: RunConfig, resolved: dict) -> Path:
    manifest = {
        "tool": "memstp",
        "version": __version__,
        "preset": config.preset,
        "seed": config.seed,
        "trials": config.trials,
        "overrides": config.overrides,
        "resolved": resolved,
    }
    # Serialised before the file is opened, so a non-finite value fails
    # without leaving a truncated manifest behind.
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    path = out_dir / "manifest.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


# ---------------------------------------------------------------------------
# Preset runners
# ---------------------------------------------------------------------------


def _device_params(config: RunConfig, **preset_fields) -> DeviceParams:
    base = DeviceParams(**preset_fields)
    return _patched(base, "device", config.overrides)


def _run_protocol_preset(config: RunConfig, out: Path) -> dict:
    if config.preset == "fig2_stp":
        train = PulseTrain(n=3, v=-4.0, w=10e-6, t_int=0.4)
        plan = ExperimentPlan(train=train, repeats=600, t_rec=10.0)
    else:  # fig2f_drift
        train = PulseTrain(n=3, v=4.0, w=10e-6, t_int=0.2)
        plan = ExperimentPlan(train=train, repeats=20, t_rec=20.0)
    train = _patched(train, "train", config.overrides)
    plan = _patched(dataclasses.replace(plan, train=train), "plan", config.overrides)
    params = _device_params(config)
    rng = np.random.default_rng(config.seed)
    records, _ = protocols.run_protocol(dev.initial_state(params), params, plan, rng)
    emit_csv(records, out / "events.csv")
    # plot-ready conductance transient of one train from rest
    _, trace = protocols.train_trace(
        dev.initial_state(params), params, plan.train, 0.0, plan.sample_dt)
    emit_csv(trace, out / "train_trace.csv")
    n_f = sum(r.label is dev.EventLabel.STP_F for r in records)
    print(f"{config.preset}: {len(records)} events, "
          f"{n_f} STP-F / {len(records) - n_f} STP-S -> {out / 'events.csv'}")
    return {"device": _jsonable(params), "plan": _jsonable(plan)}


def _run_decay_preset(config: RunConfig, out: Path) -> dict:
    params = _device_params(config)
    t_ints = [0.02, 0.05, 0.1, 0.15, 0.2]
    rng = np.random.default_rng(config.seed)
    results = protocols.decay_sweep(params, t_ints, rng)
    for t, r in results:
        if not r.converged:
            raise RuntimeError(f"decay fit at t_int={t * 1e3:g} ms did not "
                               f"converge: {r.message}")
    pairs = [(t, r.params["tau_d"]) for t, r in results]
    emit_csv(pairs, out / "decay_vs_interval.csv")
    for t, tau_d in pairs:
        print(f"t_int={t * 1e3:.0f} ms -> tau_d={tau_d:.4g} s")
    return {"device": _jsonable(params), "t_ints": t_ints}


def _run_amplitude_preset(config: RunConfig, out: Path) -> dict:
    params = _device_params(config)
    amplitudes = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    pairs = protocols.amplitude_sweep(params, amplitudes)
    emit_csv(pairs, out / "amplitude_response.csv")
    print(f"{config.preset}: {len(pairs)} amplitudes -> "
          f"{out / 'amplitude_response.csv'}")
    return {"device": _jsonable(params), "amplitudes": amplitudes}


_TOPOLOGY_BY_PRESET = {
    "fig4_sequence": "sequence_detector",
    "fig4_control": "control_rc",
    "s12_coincidence": "coincidence_detector",
}


def _run_detector_preset(config: RunConfig, out: Path,
                         patterns: Sequence[PatternOrder]) -> dict:
    topology = _TOPOLOGY_BY_PRESET[config.preset]
    # force_mode arrives as a JSON string; parse it into a Mode on a copy, so
    # config.overrides keeps the raw value for the manifest.
    overrides = config.overrides
    mode = overrides.get("network", {}).get("force_mode")
    if mode is not None:
        modes = [m.value for m in dev.Mode]
        _expect(mode in modes, f"override network.force_mode must be one of {modes}")
        overrides = {**overrides,
                     "network": {**overrides["network"], "force_mode": dev.Mode(mode)}}
    net = _patched(network.build_detector(topology), "network", overrides)
    pattern = PatternSpec()
    train = _patched(pattern.train, "train", config.overrides)
    pattern = _patched(dataclasses.replace(pattern, train=train),
                       "pattern", config.overrides)
    summary = {}
    for order in patterns:
        spec = dataclasses.replace(pattern, order=order)
        p_spike, records = network.monte_carlo(
            net, spec, config.trials, config.seed)
        emit_csv(records, out / f"trials_{order.value}.csv")
        summary[order.value] = p_spike
        print(f"{topology} {order.value.upper()}: p_spike = {p_spike:.4f} "
              f"({config.trials} trials)")
    return {"topology": topology, "pattern": _jsonable(pattern),
            "p_spike": summary}


def _run_iv_preset(config: RunConfig, out: Path) -> dict:
    params = _device_params(config, e0=math.inf)
    n_seg = 500
    up = np.linspace(0.0, 2.0, n_seg, endpoint=False)
    down = np.linspace(2.0, -2.0, 2 * n_seg, endpoint=False)
    back = np.linspace(-2.0, 0.0, n_seg, endpoint=False)
    waveform = np.concatenate([up, down, back, [0.0]])
    dt = 20e-6
    state = dev.initial_state(params)
    _, v, i = dev.iv_sweep(state, params, waveform, dt)
    times = dt * np.arange(v.size)
    emit_csv((Trace(times, v, kind="voltage"), Trace(times, i, kind="current")),
             out / "iv_trace.csv")
    print(f"iv_sweep: {v.size} samples -> {out / 'iv_trace.csv'}")
    return {"device": _jsonable(params), "dt": dt, "v_peak": 2.0}


def run_config(config: RunConfig) -> int:
    out = Path(config.out_dir)
    if config.preset in ("fig2_stp", "fig2f_drift"):
        resolved = _run_protocol_preset(config, out)
    elif config.preset == "fig3a_decay":
        resolved = _run_decay_preset(config, out)
    elif config.preset == "fig3b_amplitude":
        resolved = _run_amplitude_preset(config, out)
    elif config.preset in _TOPOLOGY_BY_PRESET:
        resolved = _run_detector_preset(
            config, out, (PatternOrder.AB, PatternOrder.BA))
    else:
        resolved = _run_iv_preset(config, out)
    write_manifest(out, config, resolved)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _read_csv_columns(path: str, columns: Sequence[str]) -> list[np.ndarray]:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out = []
    for col in columns:
        if col not in header:
            raise ConfigError(
                f"{path}: missing column {col!r} (found {header})")
        k = header.index(col)
        try:
            values = np.array([float(r[k]) for r in rows])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: bad value in column {col!r}: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ConfigError(f"{path}: non-finite value {rows[bad[0]][k]!r} "
                              f"in column {col!r}, data row {bad[0] + 1}")
        out.append(values)
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    config = parse_config(text)
    if args.seed is not None:
        _check_seed(args.seed, "--seed")
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    if args.threads is not None:
        _check_count(args.threads, "--threads")
    return run_config(config)


def _cmd_fit(args: argparse.Namespace) -> int:
    for flag, value in (("--g-eq", args.g_eq), ("--v-th", args.v_th)):
        _expect(value is None or math.isfinite(value),
                f"{flag} must be a finite number, got {value!r}")
    out = Path(args.out)
    if args.kind == "decay":
        if args.g_eq is None:
            raise ConfigError("fit decay requires --g-eq")
        t, g = _read_csv_columns(args.input, ["time_s", "conductance_S"])
        res = fitting.fit_decay(t, g, args.g_eq)
    elif args.kind == "tm":
        ts, pk = _read_csv_columns(args.input, ["spike_time_s", "peak"])
        res = fitting.fit_tm(pk, list(ts))
    else:
        v, y = _read_csv_columns(args.input, ["amplitude_V", "dg_norm"])
        res = fitting.fit_amplitude_curve(list(zip(v, y)), v_th=args.v_th)
    rows = [(k, val) for k, val in res.params.items()]
    path = out / f"fit_{args.kind}.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write("parameter,value\n")
            for k, val in rows:
                fh.write(f"{k},{_fmt(val)}\n")
            fh.write(f"sse,{_fmt(res.sse)}\n")
            fh.write(f"converged,{int(res.converged)}\n")
            fh.write(f"iterations,{res.iterations}\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write CSV {path}: {exc}") from exc
    print(f"fit {args.kind}: converged={res.converged} sse={res.sse:.6g}")
    for k, val in rows:
        print(f"  {k} = {val:.6g}")
    return EXIT_OK


_PATTERN_CHOICES = {"ab": (PatternOrder.AB,), "ba": (PatternOrder.BA,),
                    "both": (PatternOrder.AB, PatternOrder.BA)}
_TOPOLOGY_CHOICES = {"sequence": "fig4_sequence", "control": "fig4_control",
                     "coincidence": "s12_coincidence"}


def _cmd_detect(args: argparse.Namespace) -> int:
    _check_seed(args.seed, "--seed")
    _check_count(args.trials, "--trials")
    _check_count(args.threads, "--threads")
    config = RunConfig(preset=_TOPOLOGY_CHOICES[args.topology], seed=args.seed,
                       out_dir=args.out, trials=args.trials)
    out = Path(config.out_dir)
    resolved = _run_detector_preset(config, out, _PATTERN_CHOICES[args.pattern])
    write_manifest(out, config, resolved)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    preset = {"iv": "iv_sweep", "decay": "fig3a_decay",
              "amplitude": "fig3b_amplitude"}[args.kind]
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        config = parse_config(text)
        if config.preset != preset:
            raise ConfigError(
                f"sweep {args.kind} expects preset {preset!r}, "
                f"config names {config.preset!r}")
    else:
        config = RunConfig(preset=preset)
    if args.out is not None:
        config.out_dir = args.out
    return run_config(config)


_THREADS_HELP = ("ignored: detector trials run batched in one process; "
                 "accepted so existing scripts and configs keep working")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memstp",
        description="Volatile-memristor STP simulator and fitting tools")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a preset from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out")
    p_sim.add_argument("--threads", type=int, help=_THREADS_HELP)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit model parameters to CSV data")
    p_fit.add_argument("kind", choices=["decay", "tm", "amplitude"])
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--out", default="out")
    p_fit.add_argument("--g-eq", type=float, dest="g_eq")
    p_fit.add_argument("--v-th", type=float, dest="v_th", default=1.0)
    p_fit.set_defaults(func=_cmd_fit)

    p_det = sub.add_parser("detect", help="run a detector Monte-Carlo batch")
    p_det.add_argument("--topology", choices=sorted(_TOPOLOGY_CHOICES),
                       required=True)
    p_det.add_argument("--pattern", choices=sorted(_PATTERN_CHOICES),
                       default="both")
    p_det.add_argument("--trials", type=int, default=1000)
    p_det.add_argument("--seed", type=int, default=0)
    p_det.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_det.add_argument("--out", default="out")
    p_det.set_defaults(func=_cmd_detect)

    p_sweep = sub.add_parser("sweep", help="run an iv/decay/amplitude sweep")
    p_sweep.add_argument("kind", choices=["iv", "decay", "amplitude"])
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
