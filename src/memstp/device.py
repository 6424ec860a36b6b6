"""Phenomenological volatile memristor model.

A device is described by an equilibrium conductance ``g_eq`` plus a volatile
offset ``delta_g`` that relaxes back to zero between pulses. Supra-threshold
voltage pulses produce conductance jumps shaped by internal facilitation /
resource variables (u, x); the decay time constant of the volatile offset is
re-set on every write pulse from the inter-pulse interval (rapid pulsing
decays slower). Each event train is stochastically either Facilitating or
Saturating: a Saturating train additionally walks the equilibrium conductance
down toward a floor. Pulse energy feeds a leaky accumulator; once it exceeds
a state-dependent barrier the equilibrium conductance takes a discrete
non-volatile step.

All operations are pure: they take a state and return a new one. The state
changes only at pulses; a read between pulses is the closed-form relaxation
``conductance(state, t)`` and leaves the state as it is.

One private kernel, ``_pulse_step``, holds the model equations: it relaxes a
device from its last event to a pulse and applies the pulse. It works on
plain values, a tuple of the ``DeviceState`` fields in declaration order,
with floats for one device or with g_eq, delta_g, acc and mode as arrays for a
batch of devices that share one pulse sequence. Every pulse loop (here, in
``protocols`` and in ``network``) folds the kernel over such tuples; a
``DeviceState`` is built only where a public function returns one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "Mode",
    "EventLabel",
    "DeviceParams",
    "DeviceState",
    "Pulse",
    "initial_state",
    "conductance",
    "decay_to",
    "pulse_energy",
    "energy_barrier",
    "apply_pulse",
    "p_saturating",
    "sample_mode",
    "resample_mode_for_train",
    "classify_event",
    "iv_sweep",
]

# Guard against round-off when the accumulated energy lands exactly on the
# barrier (identical pulses summing to the barrier must trigger).
_BARRIER_REL_TOL = 1e-9


class Mode(Enum):
    FACILITATING = "facilitating"
    SATURATING = "saturating"


class EventLabel(Enum):
    STP_F = "stp_f"
    STP_S = "stp_s"


@dataclass(frozen=True)
class DeviceParams:
    """Device constants. Conductances in siemens, times in seconds.

    Attributes:
        g_min, g_max: hard conductance bounds.
        g_eq0: equilibrium conductance of a fresh device.
        v_th: write threshold; pulses with |v| below it do not write.
        v0, c_amp: scale and gain of the exponential amplitude response
            s(v) = c_amp * (exp((|v| - v_th)/v0) - 1).
        u_dev: per-pulse utilization increment, in (0, 1].
        tau_f_dev, tau_rec_dev: relaxation times of the facilitation and
            resource variables.
        tau_d_base, gamma, tau_d_min, tau_d_max, dt_ref: volatile-decay rate
            law tau_d = clip(tau_d_base * (dt_ref / dt_pulse)**gamma).
        kappa_sat: per-pulse equilibrium decrement rate in Saturating mode.
        g_floor: conductance the Saturating decrement walks down toward; an
            equilibrium at or below it is left alone.
        g_c, sigma_s: midpoint and width of the logistic Saturating-mode
            probability p_S(g0).
        e0, beta: barrier law E_i = e0 * (1 + beta*(g_eq-g_min)/(g_max-g_min)),
            e0 > 0 (inf = no non-volatile step), beta >= 0.
        tau_acc: leak time constant of the energy accumulator (inf = no leak).
        dg_nv: equilibrium step taken when the barrier is crossed.
        t_rec_min: quiescent gap after which the next pulse starts a new
            train (mode is re-drawn).
        polarity_sensitive: if True the non-volatile step follows pulse
            polarity (negative pulses potentiate, positive ones depress);
            if False every barrier crossing potentiates.
    """

    g_min: float = 2.5e-6
    g_max: float = 3.5e-6
    g_eq0: float = 2.9e-6
    v_th: float = 1.0
    v0: float = 1.5
    c_amp: float = 0.05
    u_dev: float = 0.2
    tau_f_dev: float = 0.5
    tau_rec_dev: float = 0.05
    tau_d_base: float = 0.5
    gamma: float = 0.5
    tau_d_min: float = 0.1
    tau_d_max: float = 2.0
    dt_ref: float = 0.1
    kappa_sat: float = 0.18
    g_floor: float = 2.5e-6
    g_c: float = 3.02e-6
    sigma_s: float = 0.02e-6
    e0: float = 0.6e-9
    beta: float = 2.0
    tau_acc: float = 30.0
    dg_nv: float = 0.05e-6
    t_rec_min: float = 1.0
    polarity_sensitive: bool = False

    def __post_init__(self) -> None:
        for name in ("g_eq0", "g_floor"):
            if not (0.0 < self.g_min <= getattr(self, name) <= self.g_max):
                raise ValueError(f"require 0 < g_min <= {name} <= g_max")
        for name in ("v0", "tau_f_dev", "tau_rec_dev", "tau_d_base",
                     "tau_d_min", "tau_d_max", "tau_acc", "dt_ref", "e0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("c_amp", "gamma", "beta"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 < self.u_dev <= 1.0):
            raise ValueError("u_dev must be in (0, 1]")
        if not (0.0 <= self.kappa_sat < 1.0):
            raise ValueError("kappa_sat must be in [0, 1)")
        if self.sigma_s <= 0.0:
            raise ValueError("sigma_s must be > 0")
        if self.tau_d_min > self.tau_d_max:
            raise ValueError("tau_d_min must not exceed tau_d_max")


@dataclass(frozen=True)
class DeviceState:
    """Dynamic device state at time ``t_last``.

    ``decay_to`` and the pulse kernel also accept a batch of devices driven
    by one pulse sequence: g_eq, delta_g, acc and mode are then arrays over
    the batch, and the remaining fields are shared. The kernel takes the
    fields as a plain tuple, in this order.
    """

    g_eq: float
    u: float
    x: float
    delta_g: float
    tau_d: float
    acc: float
    mode: Mode
    t_last: float
    t_last_pulse: Optional[float]


@dataclass(frozen=True)
class Pulse:
    """A rectangular voltage pulse: onset time, signed amplitude, width."""

    t: float
    v: float
    w: float

    def __post_init__(self) -> None:
        if self.w <= 0.0:
            raise ValueError("pulse width must be > 0")


def initial_state(params: DeviceParams, t0: float = 0.0) -> DeviceState:
    """Fresh device: at equilibrium, resources full, accumulator empty."""
    tau_d = min(max(params.tau_d_base, params.tau_d_min), params.tau_d_max)
    return DeviceState(
        g_eq=params.g_eq0, u=0.0, x=1.0, delta_g=0.0, tau_d=tau_d,
        acc=0.0, mode=Mode.FACILITATING, t_last=t0, t_last_pulse=None,
    )


def _values(state: DeviceState) -> tuple:
    """The plain-value form of ``state``: its fields in declaration order."""
    return (state.g_eq, state.u, state.x, state.delta_g, state.tau_d,
            state.acc, state.mode, state.t_last, state.t_last_pulse)


def _read(s: tuple, t):
    """Closed-form conductance of plain state ``s`` at ``t >= t_last``."""
    g_eq, _, _, delta_g, tau_d, _, _, t_last, _ = s
    return g_eq + delta_g * np.exp(-(t - t_last) / tau_d)


def conductance(state: DeviceState, t=None):
    """Total conductance G = g_eq + delta_g at ``state.t_last``, or at
    ``t >= t_last`` (a float or an array) g_eq + delta_g*exp(-(t - t_last)/tau_d).

    A read is the closed-form relaxation: it never changes the state.
    """
    if t is None:
        return state.g_eq + state.delta_g
    if np.any(np.less(t, state.t_last)):
        raise ValueError(
            f"time reversal: t={float(np.min(t))} is before "
            f"state.t_last={state.t_last}")
    return _read(_values(state), t)


def _relax(s: tuple, params: DeviceParams, t: float) -> tuple:
    """``decay_to`` on plain values: the kernel's relaxation step."""
    g_eq, u, x, delta_g, tau_d, acc, mode, t_last, t_last_pulse = s
    if t < t_last:
        raise ValueError(f"time reversal: t={t} is before state.t_last={t_last}")
    dt = t - t_last
    if dt == 0.0:
        return s
    return (g_eq, u * math.exp(-dt / params.tau_f_dev),
            1.0 - (1.0 - x) * math.exp(-dt / params.tau_rec_dev),
            delta_g * math.exp(-dt / tau_d), tau_d,
            acc * math.exp(-dt / params.tau_acc), mode, t, t_last_pulse)


def decay_to(state: DeviceState, params: DeviceParams, t: float) -> DeviceState:
    """Relax the volatile variables from ``state.t_last`` to ``t``.

    delta_g and u decay exponentially, x recovers toward 1, the energy
    accumulator leaks with tau_acc. The equilibrium conductance is untouched.
    """
    return DeviceState(*_relax(_values(state), params, t))


def pulse_energy(g: float, v: float, w: float) -> float:
    """Joule energy g * v^2 * w deposited by a rectangular pulse."""
    if w <= 0.0:
        raise ValueError("pulse width must be > 0")
    return g * v * v * w


def energy_barrier(params: DeviceParams, g_eq: float) -> float:
    """State-dependent barrier for a non-volatile transition.

    Grows linearly with the equilibrium conductance: already-potentiated
    devices need more energy to step again.
    """
    frac = (g_eq - params.g_min) / (params.g_max - params.g_min)
    return params.e0 * (1.0 + params.beta * frac)


def apply_pulse(
    state: DeviceState, params: DeviceParams, pulse: Pulse
) -> tuple[DeviceState, float]:
    """Apply one voltage pulse; returns (new state, volatile jump).

    Sequence: relax to the pulse time; for write pulses (|v| >= v_th) re-set
    tau_d from the inter-pulse interval, facilitate u, take a headroom-
    proportional jump, deplete x, and in Saturating mode decrement an
    equilibrium above g_floor toward it. Every pulse (sub-threshold ones
    too) deposits g*v^2*w into the accumulator; crossing the barrier takes a
    non-volatile equilibrium step and resets the accumulator.

    Sub-threshold pulses do not count as write events: they leave tau_d and
    t_last_pulse alone so that they cannot drive the rate law.
    """
    s, jump = _pulse_step(_values(state), params, pulse.t, pulse.v, pulse.w)
    return DeviceState(*s), jump


def _select(mask, a, b):
    """``a if mask else b``; elementwise when ``mask`` is a bool array."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _pulse_step(
    s: tuple, params: DeviceParams, t: float, v: float, w: float
) -> tuple[tuple, float]:
    """The device kernel: ``apply_pulse`` on plain values.

    Relaxes plain state ``s`` to ``t`` and applies a pulse of amplitude ``v``
    and width ``w`` there; returns the new plain state and the volatile jump.
    For a batch of devices that share their pulse history, g_eq, delta_g,
    acc and mode are arrays over the batch (mode an object array of
    ``Mode``), and the mode, jump-cap and barrier branches act as per-device
    masks.
    """
    g_eq, u, x, delta_g, tau_d, acc, mode, _, t_last_pulse = _relax(s, params, t)
    amp = abs(v)
    jump = 0.0

    if amp >= params.v_th:
        dt_p = math.inf if t_last_pulse is None else t - t_last_pulse
        if dt_p <= 0.0:
            tau_d = params.tau_d_max
        else:
            tau_d = params.tau_d_base * (params.dt_ref / dt_p) ** params.gamma
        tau_d = min(max(tau_d, params.tau_d_min), params.tau_d_max)

        u = u + params.u_dev * (1.0 - u)
        try:
            resp = params.c_amp * (math.exp((amp - params.v_th) / params.v0) - 1.0)
        except OverflowError:
            raise OverflowError(
                f"amplitude response exp((|v| - v_th)/v0) overflows for a "
                f"{v:g} V pulse with v_th={params.v_th:g} V and "
                f"v0={params.v0:g} V") from None
        headroom = params.g_max - g_eq - delta_g
        jump = headroom * resp * u * x
        jump = _select(headroom < jump, headroom, jump)
        x = x * (1.0 - u)
        # A Saturating train only walks the equilibrium down toward g_floor.
        g_eq = _select((mode == Mode.SATURATING) & (g_eq > params.g_floor),
                       g_eq - params.kappa_sat * (g_eq - params.g_floor), g_eq)
        delta_g = delta_g + jump
        t_last_pulse = t

    acc = acc + pulse_energy(g_eq + delta_g, v, w)
    crossed = acc >= energy_barrier(params, g_eq) * (1.0 - _BARRIER_REL_TOL)
    step = params.dg_nv
    if params.polarity_sensitive and v > 0.0:
        step = -step
    # Clamp so the total conductance stays inside [g_min, g_max].
    stepped = g_eq + step
    stepped = _select(params.g_min > stepped, params.g_min, stepped)
    ceiling = params.g_max - delta_g
    stepped = _select(ceiling < stepped, ceiling, stepped)
    return (_select(crossed, stepped, g_eq), u, x, delta_g, tau_d,
            _select(crossed, 0.0, acc), mode, t, t_last_pulse), jump


def p_saturating(g0, params: DeviceParams):
    """Probability p_S = logistic((g0 - g_c)/sigma_s) that a train starting at
    conductance ``g0`` (a float or an array) is Saturating: high initial
    conductance makes saturating events more likely."""
    z = (g0 - params.g_c) / params.sigma_s
    # exp(min(z, 0)) / (1 + exp(-|z|)): the logistic with no exp overflow.
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def sample_mode(g0: float, params: DeviceParams, rng: np.random.Generator) -> Mode:
    """Draw the event mode for a train starting at conductance ``g0``:
    Saturating with probability ``p_saturating(g0, params)``."""
    if rng.random() < p_saturating(g0, params):
        return Mode.SATURATING
    return Mode.FACILITATING


def resample_mode_for_train(
    state: DeviceState,
    params: DeviceParams,
    t: float,
    rng: np.random.Generator,
) -> DeviceState:
    """Re-draw the mode if a pulse at ``t`` starts a new train.

    A new train begins at the first pulse after a quiescent gap of at least
    t_rec_min (or at the very first pulse). Within a train the mode is held.
    """
    if not _starts_train(state.t_last_pulse, params, t):
        return state
    g0 = conductance(state, t)
    return replace(state, mode=sample_mode(g0, params, rng))


def _starts_train(t_last_pulse: Optional[float], params: DeviceParams,
                  t: float) -> bool:
    """Whether a pulse at ``t`` starts a new train: the first write pulse, or
    the first after a quiescent gap of at least t_rec_min."""
    return t_last_pulse is None or not t - t_last_pulse < params.t_rec_min


def classify_event(g0: float, g_post: float) -> EventLabel:
    """Label an event from pre-train vs post-train conductance.

    Conductance up -> STP_F, down -> STP_S; exact ties break to STP_F.
    """
    return EventLabel.STP_F if g_post >= g0 else EventLabel.STP_S


def iv_sweep(
    state: DeviceState,
    params: DeviceParams,
    waveform: np.ndarray,
    dt: float,
) -> tuple[DeviceState, np.ndarray, np.ndarray]:
    """Drive the device with a sampled voltage waveform.

    Each sample is treated as a micro-pulse of the sample width; the current
    is i = G * v with G evolving under the volatile dynamics. Returns the
    final state and the (v, i) trace.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    v = np.asarray(waveform, dtype=float)
    i_out = np.empty_like(v)
    s = _values(state)
    t = state.t_last
    for k, vk in enumerate(v.tolist()):
        s, _ = _pulse_step(s, params, t, vk, dt)
        i_out[k] = (s[0] + s[3]) * vk  # G = g_eq + delta_g
        t += dt
    return DeviceState(*s), v, i_out
