"""Command-line front end: strict JSON run configs, figure-style experiment
presets, seeded execution, and plot-ready CSV output with a reproducibility
manifest. One table, ``_PRESETS``, declares each preset's runner and the
default of every override section it reads; ``run_config`` patches them
and records what ran. One writer creates every file, and its directory,
only when it writes it; a failed write exits 3 naming the file."""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, fitting, network, protocols
from . import device as dev
from .device import DeviceParams
from .network import PatternOrder, PatternSpec
from .protocols import ExperimentPlan, PulseTrain

__all__ = ["ConfigError", "RunConfig", "parse_config", "emit_csv", "main"]

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
# section, and detector presets run the orders they are given.
_FIXED_FIELDS = {"network": {"topology", "synapses", "neuron"},
                 "plan": {"train"}, "pattern": {"train", "order"}}
_OVERRIDABLE = {section: [f.name for f in dataclasses.fields(cls)
                           if f.name not in _FIXED_FIELDS.get(section, ())]
                for section, cls in _OVERRIDE_SECTIONS.items()}


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_seed(seed: Any, name: str) -> None:
    _expect(isinstance(seed, int) and not isinstance(seed, bool),
            f"{name} must be an integer")
    _expect(0 <= seed < 2 ** 64, f"{name} must fit in 64 unsigned bits")


def _check_preset(preset: str) -> None:
    _expect(preset in PRESET_NAMES,
            f"unknown preset {preset!r} (known: {list(PRESET_NAMES)})")


def _check_count(value: Any, name: str) -> None:
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"{name} must be a positive integer")


def _check_override(name: str, value: Any, hint: Any) -> None:
    """Check one override value against its field's annotation. Numbers,
    integers too, must lie in the float range, as the models use floats."""
    if hint is bool:
        _expect(isinstance(value, bool), f"override {name} must be true or false")
    elif hint is int:
        _expect(isinstance(value, int) and not isinstance(value, bool),
                f"override {name} must be an integer, got {value!r}")
        _expect(abs(value) <= sys.float_info.max,
                f"override {name} must be an integer within the float range")
    elif hint is float:
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max,
                f"override {name} must be a finite number, got {value!r}")
    else:
        _expect(isinstance(value, str), f"override {name} must be a string")


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration document, strictly.

    Unknown keys anywhere are rejected with the offending key named; so are
    override sections that the preset's entry in the preset table does not
    list. Override values are checked against their field's annotation
    (bool, int, or finite float). A NaN or Infinity literal parses as a
    float, so the same checks refuse it wherever it appears.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    for key in doc:
        _expect(key in _TOP_KEYS,
                f"unknown key {key!r} (allowed: {sorted(_TOP_KEYS)})")
    _expect("preset" in doc, "missing required field 'preset'")
    preset = doc["preset"]
    _expect(isinstance(preset, str), "field 'preset' must be a string")
    _check_preset(preset)

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
    reads = _PRESETS[preset].sections
    for section, patch in overrides.items():
        _expect(section in _OVERRIDE_SECTIONS,
                f"unknown override section {section!r} "
                f"(allowed: {sorted(_OVERRIDE_SECTIONS)})")
        _expect(section in reads,
                f"override section {section!r} is not read by preset "
                f"{preset!r} (it reads: {sorted(reads)})")
        _expect(isinstance(patch, dict),
                f"override section {section!r} must be an object")
        allowed = _OVERRIDABLE[section]
        hints = typing.get_type_hints(_OVERRIDE_SECTIONS[section])
        for key, value in patch.items():
            _expect(key in allowed,
                    f"unknown key '{section}.{key}' (allowed: {sorted(allowed)})")
            _check_override(f"{section}.{key}", value, hints[key])
    return RunConfig(preset=preset, seed=seed, overrides=overrides,
                     out_dir=out_dir, trials=trials)


def _patched(instance, section: str, patch: dict) -> Any:
    """``instance`` patched; a refused value is a ConfigError naming the section."""
    try:
        return dataclasses.replace(instance, **patch)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad override for section {section!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV / manifest output
# ---------------------------------------------------------------------------


def _write(path: Path, lines: Iterable[str]) -> Path:
    """Write ``lines`` to ``path``, creating its directory with it, so a run
    refused before its first write leaves no directory behind. An OSError
    becomes a RuntimeError (exit 3) naming the file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise RuntimeError(
            f"cannot write {path.suffix[1:].upper()} {path}: {exc}") from exc
    return path


def emit_csv(path: Path | str, header: str, rows: Iterable[tuple],
             row_format: str) -> Path:
    """Write the ``header`` line, then ``row_format % row`` for each row.

    Callers name their own columns and give floats a '%.9g' field, so the
    file is plot-ready and 9 significant digits survive a round trip; every
    line, the last included, is newline-terminated. A row may carry text
    formatted in advance, as the detector trials' shared tails are.
    """
    return _write(Path(path), itertools.chain(
        [header + "\n"], map((row_format + "\n").__mod__, rows)))


def _jsonable(value: Any) -> Any:
    """A field's value as JSON: an enum by its value, an infinity as "inf"."""
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
    return _write(out_dir / "manifest.json", [text + "\n"])


# ---------------------------------------------------------------------------
# Preset runners
# ---------------------------------------------------------------------------


def _run_protocol_preset(config: RunConfig, out: Path, patterns, inputs) -> dict:
    params, plan = inputs["device"], inputs["plan"]
    # Plot-ready conductance transient of one train from rest, built before
    # any file is written, so a sample_dt too fine to allocate writes none.
    try:
        _, times, values = protocols.train_trace(
            dev.initial_state(params), params, plan.train, 0.0, plan.sample_dt)
    except MemoryError as exc:
        raise MemoryError(f"plan.sample_dt: {exc}") from exc
    rng = np.random.default_rng(config.seed)
    records, _ = protocols.run_protocol(dev.initial_state(params), params, plan, rng)
    peaks = range(1, plan.train.n + 1)
    emit_csv(out / "events.csv",
             "index,g0_S,g_post_S,label" + "".join(f",peak_{k}" for k in peaks),
             ((r.index, r.g0, r.g_post, r.label.value, *r.peaks) for r in records),
             "%d,%.9g,%.9g,%s" + ",%.9g" * len(peaks))
    emit_csv(out / "train_trace.csv", "time_s,conductance_S",
             zip(times.tolist(), values.tolist()), "%.9g,%.9g")
    n_f = sum(r.label is dev.EventLabel.STP_F for r in records)
    print(f"{config.preset}: {len(records)} events, "
          f"{n_f} STP-F / {len(records) - n_f} STP-S -> {out / 'events.csv'}")
    return {}


def _run_decay_preset(config: RunConfig, out: Path, patterns, inputs) -> dict:
    params = inputs["device"]
    t_ints = [0.02, 0.05, 0.1, 0.15, 0.2]
    rng = np.random.default_rng(config.seed)
    results = protocols.decay_sweep(params, t_ints, rng)
    for t, r in results:
        if not r.converged:
            raise RuntimeError(f"decay fit at t_int={t * 1e3:g} ms did not "
                               f"converge: {r.message}")
    pairs = [(t, r.params["tau_d"]) for t, r in results]
    emit_csv(out / "decay_vs_interval.csv", "x,y", pairs, "%.9g,%.9g")
    for t, tau_d in pairs:
        print(f"t_int={t * 1e3:.0f} ms -> tau_d={tau_d:.4g} s")
    return {"t_ints": t_ints}


def _run_amplitude_preset(config: RunConfig, out: Path, patterns, inputs) -> dict:
    params = inputs["device"]
    amplitudes = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    pairs = protocols.amplitude_sweep(params, amplitudes)
    emit_csv(out / "amplitude_response.csv", "x,y", pairs, "%.9g,%.9g")
    print(f"{config.preset}: {len(pairs)} amplitudes -> "
          f"{out / 'amplitude_response.csv'}")
    return {"amplitudes": amplitudes}


def _trial_rows(batch: network.TrialBatch, pattern: str) -> Iterable[tuple]:
    """(index, "pattern,spiked,label,g0_S,n_spikes") of each trial: the tail
    of each distinct row is formatted once, then repeated for the trials
    that share it (every trial, or only its own). One iterator holds the
    column lists it reads, so they are freed once the file is written."""
    rows = batch.rows or len(batch)
    # "pattern,spiked,label" of a row is heads[spiked * len(names) + label].
    names = ("",) if batch.label is None else ("stp_s", "stp_f")
    heads = [f"{pattern},{spiked},{name}" for spiked in (0, 1) for name in names]
    picks = batch.spiked[:rows] * len(names) + (
        0 if batch.label is None else batch.label[:rows])
    tails = map("%s,%.9g,%d".__mod__, zip(
        map(heads.__getitem__, picks.tolist()), batch.g0[:rows].tolist(),
        batch.n_spikes[:rows].tolist()))
    shared = map(itertools.repeat, tails, itertools.repeat(len(batch) // rows))
    return zip(range(len(batch)), itertools.chain.from_iterable(shared))


def _run_detector_preset(config: RunConfig, out: Path,
                         patterns: Sequence[PatternOrder], inputs) -> dict:
    net, pattern = inputs["network"], inputs["pattern"]
    try:
        network.check_trial_steps(net, pattern, config.trials)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    summary = {}
    for order in patterns:
        p_spike, batch = network.monte_carlo(
            net, dataclasses.replace(pattern, order=order), config.trials,
            config.seed)
        emit_csv(out / f"trials_{order.value}.csv",
                 "index,pattern,spiked,label,g0_S,n_spikes",
                 _trial_rows(batch, order.value), "%d,%s")
        del batch  # frees this order's columns before the next order runs
        summary[order.value] = p_spike
        print(f"{net.topology} {order.value.upper()}: p_spike = {p_spike:.4f} "
              f"({config.trials} trials)")
    return {"p_spike": summary}


def _run_iv_preset(config: RunConfig, out: Path, patterns, inputs) -> dict:
    params = inputs["device"]
    n_seg = 500
    up = np.linspace(0.0, 2.0, n_seg, endpoint=False)
    down = np.linspace(2.0, -2.0, 2 * n_seg, endpoint=False)
    back = np.linspace(-2.0, 0.0, n_seg, endpoint=False)
    waveform = np.concatenate([up, down, back, [0.0]])
    dt = 20e-6
    state = dev.initial_state(params)
    _, v, i = dev.iv_sweep(state, params, waveform, dt)
    emit_csv(out / "iv_trace.csv", "time_s,voltage_V,current_A",
             zip((dt * np.arange(v.size)).tolist(), v.tolist(), i.tolist()),
             "%.9g,%.9g,%.9g")
    print(f"iv_sweep: {v.size} samples -> {out / 'iv_trace.csv'}")
    return {"dt": dt, "v_peak": 2.0}


class _Preset(NamedTuple):
    """A preset: ``inputs``, the default of each override section it reads,
    in build order (any other section would be silently ignored, so
    ``parse_config`` refuses it), and ``run(config, out, patterns, inputs)``,
    given the patched sections by name. Only a detector reads ``patterns``.
    A runner returns, for the manifest, what only it knows."""

    inputs: dict[str, Any]
    run: Callable[..., dict]

    @property
    def sections(self) -> typing.KeysView[str]:
        return self.inputs.keys()


def _protocol(train: PulseTrain, **plan) -> dict[str, Any]:
    return {"device": DeviceParams(), "train": train,
            "plan": ExperimentPlan(train, **plan)}


def _detector(topology: str) -> dict[str, Any]:
    pattern = PatternSpec()
    return {"network": network.build_detector(topology),
            "train": pattern.train, "pattern": pattern}


# The detector topologies, in the order the network module declares them.
_SEQUENCE, _CONTROL, _COINCIDENCE = network.TOPOLOGIES
_PRESETS = {
    "fig2_stp": _Preset(_protocol(
        PulseTrain(n=3, v=-4.0, w=10e-6, t_int=0.4), repeats=600, t_rec=10.0),
        _run_protocol_preset),
    "fig2f_drift": _Preset(_protocol(
        PulseTrain(n=3, v=4.0, w=10e-6, t_int=0.2), repeats=20, t_rec=20.0),
        _run_protocol_preset),
    "fig3a_decay": _Preset({"device": DeviceParams()}, _run_decay_preset),
    "fig3b_amplitude": _Preset({"device": DeviceParams()}, _run_amplitude_preset),
    "fig4_sequence": _Preset(_detector(_SEQUENCE), _run_detector_preset),
    "fig4_control": _Preset(_detector(_CONTROL), _run_detector_preset),
    "s12_coincidence": _Preset(_detector(_COINCIDENCE), _run_detector_preset),
    "iv_sweep": _Preset({"device": DeviceParams(e0=math.inf)}, _run_iv_preset),
}
PRESET_NAMES = tuple(_PRESETS)


def run_config(config: RunConfig,
               patterns: Sequence[PatternOrder] = tuple(PatternOrder)) -> int:
    """Run ``config``'s preset (a detector preset runs the given pattern
    orders), then write its manifest. Its ``resolved`` block holds every
    overridable field of each patched section, so it replays as a config,
    and what the runner returns. An unknown preset writes nothing."""
    _check_preset(config.preset)
    entry = _PRESETS[config.preset]
    inputs: dict[str, Any] = {}
    for section, default in entry.inputs.items():
        # A plan or a pattern takes the patched train, inside the same guard.
        patch = {**config.overrides.get(section, {}),
                 **{f.name: inputs[f.name] for f in dataclasses.fields(default)
                    if f.name in inputs}}
        mode = patch.get("force_mode")  # a Mode's value, as JSON spells it
        if mode is not None:
            modes = [m.value for m in dev.Mode]
            _expect(mode in modes,
                    f"override network.force_mode must be one of {modes}")
            patch["force_mode"] = dev.Mode(mode)
        inputs[section] = _patched(default, section, patch)
    resolved = {section: {name: _jsonable(getattr(obj, name))
                          for name in _OVERRIDABLE[section]}
                for section, obj in inputs.items()}
    out = Path(config.out_dir)
    resolved.update(entry.run(config, out, patterns, inputs))
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
    emit_csv(Path(args.out) / f"fit_{args.kind}.csv", "parameter,value",
             [*res.params.items(), ("sse", res.sse),
              ("converged", res.converged), ("iterations", res.iterations)],
             "%s,%.9g")
    print(f"fit {args.kind}: converged={res.converged} sse={res.sse:.6g}")
    for k, val in res.params.items():
        print(f"  {k} = {val:.6g}")
    if not res.converged:
        print(f"fit {args.kind} did not converge: {res.message}",
              file=sys.stderr)
        return EXIT_RUNTIME
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
    return run_config(config, _PATTERN_CHOICES[args.pattern])


def _cmd_sweep(args: argparse.Namespace) -> int:
    preset = {"iv": "iv_sweep", "decay": "fig3a_decay",
              "amplitude": "fig3b_amplitude"}[args.kind]
    return run_config(RunConfig(preset=preset, out_dir=args.out))


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

    p_sweep = sub.add_parser(
        "sweep", help="run an iv/decay/amplitude sweep at its preset's "
        "defaults (a configured run is `simulate --config`)")
    p_sweep.add_argument("kind", choices=["iv", "decay", "amplitude"])
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, once per process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
