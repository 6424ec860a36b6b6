"""Benchmark workloads: seeded inputs, the CLI invocations of one pass, and
the checks every invocation's outputs must pass.

A *pass* runs a workload's list of operations once for one pass seed; an
*op* is one ``memstp`` CLI invocation. The program sees only the configs and
CSV files written here. The checks read the outputs back and recompute what
they need with their own code, never with memstp functions, so a traced run
counts only the program's own calls.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NOISE = 0.01  # multiplicative noise injected into every fit input
RESIDUAL_FACTOR = 3.0  # a fit passes if its relative RMS residual <= 3 * NOISE

DETECT_PRESETS = ("fig4_sequence", "fig4_control", "s12_coincidence")
DEVICE_PRESETS = ("fig2_stp", "fig2f_drift", "fig3a_decay", "fig3b_amplitude",
                  "iv_sweep")

# Ground truths of the generated fit inputs. The TM train is six spikes
# 50 ms apart on the default TMParams synapse; the amplitude points are those
# of the fig3b_amplitude preset, in closed form for a fresh default device:
# dG/g0 = (g_max - g_eq0)/g_eq0 * u_dev * c_amp * (exp((v - v_th)/v0) - 1).
TM_TRUTH = {"a": 1.0, "u_cap": 0.2, "tau_rec": 0.05, "tau_f": 0.5}
TM_SPIKE_TIMES = tuple(0.05 * k for k in range(6))
AMP_VOLTS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
AMP_V_TH = 1.0
AMP_TRUTH = {"c_amp": (3.5e-6 - 2.9e-6) / 2.9e-6 * 0.2 * 0.05, "v0": 1.5}
DECAY_G_EQ = 2.9e-6
DECAY_SAMPLES = 200
FIT_PANEL_SEED = 0


class CheckError(Exception):
    """An op's outputs do not hold what the benchmark requires."""


@dataclass
class Op:
    """One CLI invocation plus the check its outputs must pass."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path], None]
    items: int


def pass_seed(run_seed: int, index: int) -> int:
    """Seed of pass ``index`` in a run: independent streams per pass."""
    return int(np.random.SeedSequence([run_seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_csv(path: Path, header: list[str] | None = None,
             rows: int | None = None) -> list[dict[str, str]]:
    """Parse a CSV the program wrote; optionally require header and row count."""
    _expect(path.is_file(), f"missing {path.name}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        body = list(reader)
    _expect(head is not None, f"{path.name}: empty file")
    if header is not None:
        _expect(head == header, f"{path.name}: header {head} != {header}")
    for k, row in enumerate(body):
        _expect(len(row) == len(head), f"{path.name}: row {k + 1} has "
                f"{len(row)} fields, header has {len(head)}")
    if rows is not None:
        _expect(len(body) == rows, f"{path.name}: {len(body)} rows, expected {rows}")
    return [dict(zip(head, row)) for row in body]


def number(row: dict[str, str], col: str) -> float:
    try:
        x = float(row[col])
    except ValueError:
        raise CheckError(f"column {col}: not a number: {row[col]!r}") from None
    _expect(math.isfinite(x), f"column {col}: non-finite value {row[col]!r}")
    return x


def read_manifest(out: Path, preset: str, seed: int) -> dict:
    path = out / "manifest.json"
    _expect(path.is_file(), "missing manifest.json")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"manifest.json does not parse: {exc}") from None
    _expect(isinstance(doc, dict), "manifest.json is not an object")
    _expect(doc.get("preset") == preset and doc.get("seed") == seed,
            f"manifest.json names preset {doc.get('preset')!r} seed "
            f"{doc.get('seed')!r}, expected {preset!r} {seed}")
    return doc


def rel_rms(residual: np.ndarray, reference: np.ndarray) -> float:
    return float(np.sqrt(np.mean(residual ** 2)) / np.sqrt(np.mean(reference ** 2)))


def csv_digest(root: Path) -> str:
    """sha256 over every CSV under ``root``, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.csv")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# detect_mc: detector Monte-Carlo presets
# ---------------------------------------------------------------------------


def _check_detector(preset: str, seed: int, trials: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        manifest = read_manifest(out, preset, seed)
        p = {}
        for order in ("ab", "ba"):
            rows = read_csv(out / f"trials_{order}.csv",
                            ["index", "pattern", "spiked", "label", "g0_S",
                             "n_spikes"], trials)
            spiked = 0
            for row in rows:
                _expect(row["pattern"] == order, f"trials_{order}.csv: "
                        f"pattern {row['pattern']!r}")
                _expect(row["spiked"] in ("0", "1"), "spiked is not 0/1")
                n_spikes = int(row["n_spikes"])
                _expect((n_spikes > 0) == (row["spiked"] == "1"),
                        "spiked disagrees with n_spikes")
                number(row, "g0_S")
                spiked += row["spiked"] == "1"
            p[order] = spiked / trials
            reported = manifest.get("resolved", {}).get("p_spike", {}).get(order)
            _expect(reported == p[order], f"manifest p_spike[{order}]="
                    f"{reported} but trials_{order}.csv gives {p[order]}")
        if preset == "fig4_sequence":
            # The sequence detector fires on BA (dynamic synapse first).
            _expect(p["ba"] > p["ab"], f"sequence detector: p_spike(BA)="
                    f"{p['ba']} not above p_spike(AB)={p['ab']}")
        else:
            # RC control and coincidence detector do not see the order.
            _expect(p["ab"] == p["ba"], f"{preset}: p_spike(AB)={p['ab']} "
                    f"!= p_spike(BA)={p['ba']}")
    return check


def _simulate_op(preset: str, seed: int, pass_dir: Path, items: int,
                 check: Callable[[Path], None], **config) -> Op:
    cfg = pass_dir / f"{preset}.json"
    out = pass_dir / preset
    cfg.write_text(json.dumps({"preset": preset, "seed": seed, **config}))
    return Op(preset, ["simulate", "--config", str(cfg), "--out", str(out),
                       "--threads", "1"], out, check, items)


def detect_mc_ops(seed: int, pass_dir: Path, trials: int = 1000) -> list[Op]:
    """Three detector presets, each ``trials`` x AB+BA trials."""
    return [_simulate_op(p, seed, pass_dir, 2 * trials,
                         _check_detector(p, seed, trials), trials=trials)
            for p in DETECT_PRESETS]


# ---------------------------------------------------------------------------
# device_protocols: single-device protocol presets
# ---------------------------------------------------------------------------

G_MIN, G_MAX = 2.5e-6, 3.5e-6  # default DeviceParams conductance bounds


def _check_events(rows: list[dict[str, str]], both_labels: bool) -> None:
    labels = set()
    for row in rows:
        g0, g_post = number(row, "g0_S"), number(row, "g_post_S")
        _expect(row["label"] in ("stp_f", "stp_s"), f"label {row['label']!r}")
        # The CSV keeps 9 significant digits; closer values may round either way.
        if abs(g_post - g0) > 1e-8 * g0:
            want = "stp_f" if g_post > g0 else "stp_s"
            _expect(row["label"] == want, f"event {row['index']}: label "
                    f"{row['label']!r}, conductance says {want!r}")
        labels.add(row["label"])
    if both_labels:
        # Trains are stochastically facilitating or saturating.
        _expect(labels == {"stp_f", "stp_s"}, f"only {sorted(labels)} events")


def _check_device(preset: str, seed: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        read_manifest(out, preset, seed)
        if preset in ("fig2_stp", "fig2f_drift"):
            n = 600 if preset == "fig2_stp" else 20
            events = read_csv(out / "events.csv", rows=n)
            _check_events(events, both_labels=preset == "fig2_stp")
            trace = read_csv(out / "train_trace.csv", ["time_s", "conductance_S"])
            _expect(len(trace) > 0, "train_trace.csv has no rows")
            for row in trace:
                g = number(row, "conductance_S")
                _expect(G_MIN <= g <= G_MAX, f"conductance {g} outside bounds")
        elif preset == "fig3a_decay":
            rows = read_csv(out / "decay_vs_interval.csv", ["x", "y"], 5)
            tau = [number(r, "y") for r in rows]
            # Rate law: the faster the pulsing, the slower the decay.
            _expect(all(a > b > 0.0 for a, b in zip(tau, tau[1:])),
                    f"tau_d not decreasing with the interval: {tau}")
        elif preset == "fig3b_amplitude":
            rows = read_csv(out / "amplitude_response.csv", ["x", "y"], 6)
            dg = [number(r, "y") for r in rows]
            _expect(all(0.0 < a < b for a, b in zip(dg, dg[1:])),
                    f"response not growing with amplitude: {dg}")
        else:  # iv_sweep
            rows = read_csv(out / "iv_trace.csv",
                            ["time_s", "voltage_V", "current_A"], 2001)
            by_v: dict[float, list[float]] = {}
            for row in rows:
                v, i = number(row, "voltage_V"), number(row, "current_A")
                if v == 0.0:
                    _expect(i == 0.0, f"current {i} at 0 V: loop not pinched")
                else:
                    by_v.setdefault(v, []).append(i)
            _expect(any(max(c) != min(c) for c in by_v.values()),
                    "no hysteresis: equal currents on both sweeps")
    return check


def device_protocols_ops(seed: int, pass_dir: Path) -> list[Op]:
    """Five single-device presets; each preset run is one item."""
    return [_simulate_op(p, seed, pass_dir, 1, _check_device(p, seed))
            for p in DEVICE_PRESETS]


# ---------------------------------------------------------------------------
# fit_suite: the three fits on seeded noisy inputs
# ---------------------------------------------------------------------------


def tm_peaks(p: dict[str, float], times) -> np.ndarray:
    """Closed-form Tsodyks-Markram peaks from rest (u=0, x=1)."""
    u, x, prev, out = 0.0, 1.0, times[0], []
    for t in times:
        u *= math.exp(-(t - prev) / p["tau_f"])
        x = 1.0 - (1.0 - x) * math.exp(-(t - prev) / p["tau_rec"])
        u += p["u_cap"] * (1.0 - u)
        out.append(p["a"] * u * x)
        x *= 1.0 - u
        prev = t
    return np.array(out)


def amp_response(p: dict[str, float], v: np.ndarray) -> np.ndarray:
    return p["c_amp"] * (np.exp((np.abs(v) - AMP_V_TH) / p["v0"]) - 1.0)


def _write_columns(path: Path, header: tuple[str, str], x, y) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a, b in zip(x, y):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def write_fit_inputs(seed: int, pass_dir: Path) -> dict:
    """Write the TM, amplitude and decay input CSVs of one pass.

    The decay data set is drawn from the pass seed. The TM and amplitude
    data sets carry one fixed noise draw (FIT_PANEL_SEED): the cost of a
    multi-start simplex fit swings by about +-20% with the noise draw, and a
    run holds too few fits to average that out across seeds.
    """
    fixed = np.random.default_rng(FIT_PANEL_SEED)
    times = np.array(TM_SPIKE_TIMES)
    peaks = tm_peaks(TM_TRUTH, times) * (1.0 + NOISE * fixed.standard_normal(times.size))
    volts = np.array(AMP_VOLTS)
    dg = amp_response(AMP_TRUTH, volts) * (1.0 + NOISE * fixed.standard_normal(volts.size))
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.1, 2.0)  # the device's tau_d range
    amp = rng.uniform(0.05e-6, 0.3e-6)
    t = np.linspace(1e-3, 4.0 * tau, DECAY_SAMPLES)
    g = DECAY_G_EQ + amp * np.exp(-t / tau) * (1.0 + NOISE * rng.standard_normal(t.size))
    _write_columns(pass_dir / "tm_peaks.csv", ("spike_time_s", "peak"), times, peaks)
    _write_columns(pass_dir / "amplitude.csv", ("amplitude_V", "dg_norm"), volts, dg)
    _write_columns(pass_dir / "decay.csv", ("time_s", "conductance_S"), t, g)
    return {"tm": (times, peaks), "amplitude": (volts, dg), "decay": (t, g)}


def _fit_params(out: Path, kind: str, names: tuple[str, ...]) -> dict[str, float]:
    rows = read_csv(out / f"fit_{kind}.csv", ["parameter", "value"])
    values = {r["parameter"]: r["value"] for r in rows}
    for key in (*names, "sse", "converged"):
        _expect(key in values, f"fit_{kind}.csv: no {key!r} row")
    _expect(values["converged"] in ("0", "1"), "converged is not 0/1")
    return {k: number(values, k) for k in names}


def _check_fit(kind: str, data) -> Callable[[Path], None]:
    x, y = data

    def check(out: Path) -> None:
        if kind == "tm":
            p = _fit_params(out, kind, ("a", "u_cap", "tau_rec", "tau_f"))
            _expect(p["tau_rec"] > 0.0 and p["tau_f"] > 0.0,
                    f"non-positive time constant: {p}")
            rel = rel_rms(tm_peaks(p, x) - y, y)
        elif kind == "amplitude":
            p = _fit_params(out, kind, ("c_amp", "v0"))
            rel = rel_rms(amp_response(p, x) - y, y)
        else:
            p = _fit_params(out, kind, ("tau_d", "amplitude"))
            resid = y - DECAY_G_EQ
            rel = rel_rms(resid - p["amplitude"] * np.exp(-x / p["tau_d"]), resid)
        _expect(rel <= RESIDUAL_FACTOR * NOISE, f"fit {kind}: relative RMS "
                f"residual {rel:.4g} above {RESIDUAL_FACTOR} x noise {NOISE}")
    return check


def fit_suite_ops(seed: int, pass_dir: Path) -> list[Op]:
    """fit tm, fit amplitude and fit decay; each fit is one item."""
    data = write_fit_inputs(seed, pass_dir)
    inputs = {"tm": "tm_peaks.csv", "amplitude": "amplitude.csv",
              "decay": "decay.csv"}
    ops = []
    for kind, name in inputs.items():
        out = pass_dir / f"fit_{kind}"
        argv = ["fit", kind, "--input", str(pass_dir / name), "--out", str(out)]
        if kind == "decay":
            argv += ["--g-eq", repr(DECAY_G_EQ)]
        ops.append(Op(f"fit_{kind}", argv, out, _check_fit(kind, data[kind]), 1))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "detect_mc": detect_mc_ops,
    "device_protocols": device_protocols_ops,
    "fit_suite": fit_suite_ops,
}
