"""Stimulus-protocol builders and runners: pulse trains with recovery gaps,
per-event conductance records, and the rate/amplitude sweeps.

Only pulses change a device. Conductance reads are instantaneous closed-form
evaluations of the last pulse's state (``device.conductance(state, t)``):
they carry no voltage, deposit no energy and never change the state."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import device as dev
from . import fitting
from ._fields import AT_LEAST_ONE, POSITIVE, checked, param
from .device import DeviceParams, DeviceState, EventLabel, Mode, Pulse

__all__ = [
    "PulseTrain",
    "ExperimentPlan",
    "EventRecord",
    "apply_train",
    "train_trace",
    "run_protocol",
    "decay_sweep",
    "amplitude_sweep",
]

_SWEEP_WIDTH = 10e-6
_DECAY_AMPLITUDE = 4.0
_DECAY_SAMPLES = 200


@checked
class PulseTrain:
    """n pulses of amplitude v and width w, one every t_int seconds."""

    n: int = param(3, AT_LEAST_ONE)
    v: float = -4.0
    w: float = param(10e-6, POSITIVE)
    t_int: float = 0.4

    def __post_init__(self) -> None:
        if not self.t_int > self.w:
            raise ValueError("t_int must exceed the pulse width")

    @property
    def duration(self) -> float:
        """Onset of the first pulse to the end of the last one."""
        return (self.n - 1) * self.t_int + self.w

    def pulse_times(self, t0: float) -> list[float]:
        return [t0 + k * self.t_int for k in range(self.n)]


@checked
class ExperimentPlan:
    """A train repeated with recovery gaps, plus read times."""

    train: PulseTrain = PulseTrain()
    repeats: int = param(600, AT_LEAST_ONE)
    t_rec: float = 10.0
    sample_dt: float = param(1e-3, POSITIVE)
    g_post_delay: float = param(10e-3, POSITIVE)

    def __post_init__(self) -> None:
        # 1e7 pulses: a minute of run_protocol at ~5 us each (2-CPU x86-64).
        if self.repeats * self.train.n > 10 ** 7:
            raise ValueError(f"repeats * train.n must be at most 1e+07 pulses, "
                             f"got {self.repeats} * {self.train.n}")
        if not self.t_rec > self.train.duration:
            raise ValueError("t_rec must exceed the train duration")
        if not self.g_post_delay < self.t_rec:
            raise ValueError("g_post_delay must be shorter than t_rec")
        # run_protocol's clock reaches about this time; an infinite clock
        # would read inf - inf = NaN.
        if not math.isfinite(self.repeats * (self.train.duration + self.t_rec)):
            raise ValueError("repeats * (train duration + t_rec) must be finite")


class EventRecord(NamedTuple):
    index: int
    g0: float
    g_post: float
    peaks: tuple[float, ...]
    label: EventLabel
    mode: Mode
    g_eq_before: float
    g_eq_after: float


def _fold_train(s: tuple, params: DeviceParams, train: PulseTrain,
                t0: float) -> list[tuple]:
    """Fold the device kernel over one train from plain state ``s``; returns
    the plain state after each pulse."""
    pulses = zip(train.pulse_times(t0), itertools.repeat(train.v))
    return [s for s, _ in dev._fold(s, params, pulses, train.w)]


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
    s = dev._kernel_values(state, params)
    states = _fold_train(s, params, train, t0)
    return DeviceState(*states[-1]), _peaks(states)


def train_trace(
    state: DeviceState,
    params: DeviceParams,
    train: PulseTrain,
    t0: float,
    sample_dt: float,
    tail: float = 1.0,
) -> tuple[DeviceState, np.ndarray, np.ndarray]:
    """Apply a train and sample the conductance every ``sample_dt``.

    Returns the state after the last pulse, the sample times (train span
    plus ``tail`` seconds of relaxation) and the conductance at each. A
    sample at or after a pulse reads the state that pulse left; reads never
    change the state.
    """
    if not sample_dt > 0.0:
        raise ValueError("sample_dt must be > 0")
    for name, value in (("t0", t0), ("tail", tail)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    span = train.duration + tail
    try:
        times = np.arange(t0, t0 + span, sample_dt)
    except (OverflowError, MemoryError, ValueError) as exc:
        raise MemoryError(
            f"cannot allocate a trace of {span / sample_dt:.4g} samples of "
            f"sample_dt={sample_dt:g} s over {span:g} s, a train "
            f"{train.duration:g} s long and a {tail:g} s tail") from exc
    s = dev._kernel_values(state, params)
    states = [s] + _fold_train(s, params, train, t0)
    # states[k] holds from pulse k-1 (inclusive) until pulse k. A tau_d so
    # short that (t - t_last)/tau_d overflows reads as fully relaxed.
    pieces = np.split(times, np.searchsorted(times, train.pulse_times(t0)))
    with np.errstate(over="ignore"):
        values = np.concatenate([dev._read(s, ts)
                                 for s, ts in zip(states, pieces)])
    return DeviceState(*states[-1]), times, values


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
    s = dev._kernel_values(state, params)
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


def decay_sweep(
    params: DeviceParams,
    t_ints: Sequence[float],
    rng: np.random.Generator,
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
        train = PulseTrain(n=2, v=_DECAY_AMPLITUDE, w=_SWEEP_WIDTH,
                           t_int=t_int)
        state = dev.resample_mode_for_train(state, params, 0.0, rng)
        state, _ = apply_train(state, params, train, 0.0)
        times = np.linspace(t_int + 1e-3, t_int + 4.0 * state.tau_d,
                            _DECAY_SAMPLES)
        fit = fitting.fit_decay(times - t_int, dev.conductance(state, times),
                                state.g_eq)
        results.append((t_int, fit))
    return results


def amplitude_sweep(
    params: DeviceParams,
    amplitudes: Sequence[float],
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
        state, _ = dev.apply_pulse(state, params, Pulse(t=0.0, v=v, w=_SWEEP_WIDTH))
        out.append((v, (dev.conductance(state) - g0) / g0))
    return out
