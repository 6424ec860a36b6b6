"""Stimulus-protocol builders and runners: pulse trains with recovery gaps,
per-event conductance records, binned mode statistics, and the rate/amplitude
sweeps.

Only pulses change a device. Conductance reads are instantaneous closed-form
evaluations of the last pulse's state (``device.conductance(state, t)``):
they carry no voltage, deposit no energy and never change the state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import device as dev
from . import fitting
from .device import DeviceParams, DeviceState, EventLabel, Mode, Pulse
from .trace import Trace

__all__ = [
    "PulseTrain",
    "ExperimentPlan",
    "EventRecord",
    "BinSpec",
    "BinStats",
    "apply_train",
    "train_trace",
    "run_protocol",
    "bin_statistics",
    "decay_sweep",
    "amplitude_sweep",
]


@dataclass(frozen=True)
class PulseTrain:
    """n pulses of amplitude v and width w, one every t_int seconds."""

    n: int = 3
    v: float = -4.0
    w: float = 10e-6
    t_int: float = 0.4

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.w <= 0.0:
            raise ValueError("pulse width w must be > 0")
        if self.t_int <= self.w:
            raise ValueError("t_int must exceed the pulse width")

    @property
    def duration(self) -> float:
        """Onset of the first pulse to the end of the last one."""
        return (self.n - 1) * self.t_int + self.w

    def pulse_times(self, t0: float) -> list[float]:
        return [t0 + k * self.t_int for k in range(self.n)]


@dataclass(frozen=True)
class ExperimentPlan:
    """A train repeated with recovery gaps, plus read times."""

    train: PulseTrain = PulseTrain()
    repeats: int = 600
    t_rec: float = 10.0
    sample_dt: float = 1e-3
    g_post_delay: float = 10e-3

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.t_rec <= self.train.duration:
            raise ValueError("t_rec must exceed the train duration")
        if self.sample_dt <= 0.0 or self.g_post_delay <= 0.0:
            raise ValueError("sample_dt and g_post_delay must be > 0")
        if self.g_post_delay >= self.t_rec:
            raise ValueError("g_post_delay must be shorter than t_rec")


@dataclass(frozen=True)
class EventRecord:
    index: int
    g0: float
    g_post: float
    peaks: tuple[float, ...]
    label: EventLabel
    mode: Mode
    g_eq_before: float
    g_eq_after: float


@dataclass(frozen=True)
class BinSpec:
    lo: float
    hi: float
    n_bins: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError("lo must be below hi")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n_bins


@dataclass
class BinStats:
    """Per-bin event statistics; p_f/p_s are NaN where a bin is empty."""

    spec: BinSpec
    counts: np.ndarray
    p_f: np.ndarray
    p_s: np.ndarray
    empty: np.ndarray
    underflow: int
    overflow: int


def _fold_train(s: tuple, params: DeviceParams, train: PulseTrain,
                t0: float) -> list[tuple]:
    """Fold the device kernel over one train from plain state ``s``; returns
    the plain state after each pulse."""
    states = []
    for t in train.pulse_times(t0):
        s, _ = dev._pulse_step(s, params, t, train.v, train.w)
        states.append(s)
    return states


def _peaks(states: list[tuple]) -> list[float]:
    """Conductance g_eq + delta_g right after each pulse."""
    return [s[0] + s[3] for s in states]


def apply_train(
    state: DeviceState,
    params: DeviceParams,
    train: PulseTrain,
    t0: float,
) -> tuple[DeviceState, list[float]]:
    """Apply one pulse train; returns the state and per-pulse conductance peaks."""
    states = _fold_train(dev._values(state), params, train, t0)
    return DeviceState(*states[-1]), _peaks(states)


def train_trace(
    state: DeviceState,
    params: DeviceParams,
    train: PulseTrain,
    t0: float,
    sample_dt: float,
    tail: float = 1.0,
) -> tuple[DeviceState, Trace]:
    """Apply a train and sample the conductance every ``sample_dt``.

    Returns the state after the last pulse and the sampled G(t) trace (train
    span plus ``tail`` seconds of relaxation). A sample at or after a pulse
    reads the state that pulse left; reads never change the state.
    """
    if sample_dt <= 0.0:
        raise ValueError("sample_dt must be > 0")
    times = np.arange(t0, t0 + train.duration + tail, sample_dt)
    s = dev._values(state)
    states = [s] + _fold_train(s, params, train, t0)
    # states[k] holds from pulse k-1 (inclusive) until pulse k.
    pieces = np.split(times, np.searchsorted(times, train.pulse_times(t0)))
    values = np.concatenate([dev._read(s, ts) for s, ts in zip(states, pieces)])
    return DeviceState(*states[-1]), Trace(times, values, kind="conductance")


def run_protocol(
    state: DeviceState,
    params: DeviceParams,
    plan: ExperimentPlan,
    rng: np.random.Generator,
) -> tuple[list[EventRecord], DeviceState]:
    """Run the repeated-train protocol, classifying each event.

    Per repeat: read g0, draw the train mode, apply the train recording the
    per-pulse peaks, read g_post after the configured delay, classify, then
    idle for t_rec before the next train. Returns the records and the state
    after the last pulse; reads never change the state.
    """
    records: list[EventRecord] = []
    s = dev._values(state)
    t = state.t_last
    for k in range(plan.repeats):
        g_eq, u, x, delta_g, tau_d, acc, mode, t_last, t_last_pulse = s
        g0 = dev._read(s, t)
        if dev._starts_train(t_last_pulse, params, t):
            mode = dev.sample_mode(g0, params, rng)
            s = (g_eq, u, x, delta_g, tau_d, acc, mode, t_last, t_last_pulse)
        states = _fold_train(s, params, plan.train, t)
        s = states[-1]
        t_end = s[7]  # t_last: the last pulse
        g_post = dev._read(s, t_end + plan.g_post_delay)
        records.append(EventRecord(
            index=k, g0=g0, g_post=g_post, peaks=tuple(_peaks(states)),
            label=dev.classify_event(g0, g_post), mode=mode,
            g_eq_before=g_eq, g_eq_after=s[0]))
        t = t_end + plan.train.w + plan.t_rec
    return records, DeviceState(*s)


def bin_statistics(records: Sequence[EventRecord], bins: BinSpec) -> BinStats:
    """Histogram the records by g0 and compute per-bin label fractions.

    g0 exactly at the upper edge lands in the last bin; values outside the
    range are tallied in the underflow/overflow buckets rather than dropped.
    """
    counts = np.zeros(bins.n_bins, dtype=int)
    f_counts = np.zeros(bins.n_bins, dtype=int)
    underflow = overflow = 0
    for rec in records:
        if rec.g0 < bins.lo:
            underflow += 1
            continue
        if rec.g0 > bins.hi:
            overflow += 1
            continue
        idx = min(int((rec.g0 - bins.lo) // bins.width), bins.n_bins - 1)
        counts[idx] += 1
        if rec.label is EventLabel.STP_F:
            f_counts[idx] += 1
    empty = counts == 0
    with np.errstate(invalid="ignore"):
        p_f = np.where(empty, np.nan, f_counts / np.maximum(counts, 1))
    p_s = np.where(empty, np.nan, 1.0 - p_f)
    return BinStats(spec=bins, counts=counts, p_f=p_f, p_s=p_s, empty=empty,
                    underflow=underflow, overflow=overflow)


def decay_sweep(
    params: DeviceParams,
    t_ints: Sequence[float],
    rng: np.random.Generator,
    amplitude: float = 4.0,
    width: float = 10e-6,
    n_samples: int = 200,
) -> list[tuple[float, fitting.FitResult]]:
    """Two-pulse trains at each inter-pulse interval; fit the post-train decay.

    Each interval starts from a fresh device. The relaxation trace is sampled
    after the second pulse and fed to the log-linear decay fit.
    """
    if not t_ints:
        raise ValueError("t_ints must be non-empty")
    results: list[tuple[float, fitting.FitResult]] = []
    for t_int in t_ints:
        state = dev.initial_state(params)
        train = PulseTrain(n=2, v=amplitude, w=width, t_int=t_int)
        state = dev.resample_mode_for_train(state, params, 0.0, rng)
        state, _ = apply_train(state, params, train, 0.0)
        times = np.linspace(t_int + 1e-3, t_int + 4.0 * state.tau_d, n_samples)
        fit = fitting.fit_decay(times - t_int, dev.conductance(state, times),
                                state.g_eq)
        results.append((t_int, fit))
    return results


def amplitude_sweep(
    params: DeviceParams,
    amplitudes: Sequence[float],
    width: float = 10e-6,
) -> list[tuple[float, float]]:
    """Single pulses of growing amplitude from identical reset states.

    Returns (amplitude, dG/g0) pairs, dG measured immediately after the pulse.
    """
    if any(abs(v) < params.v_th for v in amplitudes):
        raise ValueError("all amplitudes must be at or above v_th")
    out: list[tuple[float, float]] = []
    for v in amplitudes:
        state = dev.initial_state(params)
        g0 = dev.conductance(state)
        state, _ = dev.apply_pulse(state, params, Pulse(t=0.0, v=v, w=width))
        out.append((v, (dev.conductance(state) - g0) / g0))
    return out
