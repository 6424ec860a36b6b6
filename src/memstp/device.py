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
``conductance(state, t)`` and leaves the state as it is. A time before the
state's last event, or a NaN time, is refused.

One private kernel, ``_fold``, applies the model equations to a whole pulse
sequence in one call: before each pulse it relaxes the device from its last
event through ``_relax`` (which ``decay_to`` shares), then applies the pulse,
and it yields the state after each pulse. It works on plain values, a tuple
of the ``DeviceState`` fields in declaration order, with floats for one
device or with g_eq, delta_g, acc and mode as arrays for a batch of devices
that share one pulse sequence. A call reads the parameters and chooses the
scalar or the batch form once, and takes the non-volatile step only at a
pulse where some device crossed the barrier. ``apply_pulse`` is its
one-pulse case; ``iv_sweep``, and every train in ``protocols`` and
``network``, is one call. A ``DeviceState`` is built only where a public
function returns one, and checked once where one is handed to the kernel:
its g_eq must lie in [g_min, g_max].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from ._fields import NON_NEGATIVE, POSITIVE, checked, param

__all__ = [
    "Mode",
    "EventLabel",
    "DeviceParams",
    "DeviceState",
    "Pulse",
    "initial_state",
    "conductance",
    "decay_to",
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


@checked
class DeviceParams:
    """Device constants. Conductances in siemens, times in seconds.

    No field may be NaN, only e0 and tau_acc may be infinite, g_eq0 and
    g_floor must lie in [g_min, g_max], and g_c and sigma_s must keep the
    logit of p_S finite; other domains are declared below.

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
            probability p_S(g0); (G - g_c)/sigma_s must be finite for every
            G in [g_min, g_max].
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

    g_min: float = param(2.5e-6, POSITIVE)
    g_max: float = 3.5e-6
    g_eq0: float = 2.9e-6
    v_th: float = 1.0
    v0: float = param(1.5, POSITIVE)
    c_amp: float = param(0.05, NON_NEGATIVE)
    u_dev: float = param(0.2, ("be in (0, 1]", lambda u: 0.0 < u <= 1.0))
    tau_f_dev: float = param(0.5, POSITIVE)
    tau_rec_dev: float = param(0.05, POSITIVE)
    tau_d_base: float = param(0.5, POSITIVE)
    gamma: float = param(0.5, NON_NEGATIVE)
    tau_d_min: float = param(0.1, POSITIVE)
    tau_d_max: float = param(2.0, POSITIVE)
    dt_ref: float = param(0.1, POSITIVE)
    kappa_sat: float = param(0.18, ("be in [0, 1)", lambda k: 0.0 <= k < 1.0))
    g_floor: float = 2.5e-6
    g_c: float = 3.02e-6
    sigma_s: float = param(0.02e-6, POSITIVE)
    e0: float = param(0.6e-9, POSITIVE, inf=True)
    beta: float = param(2.0, NON_NEGATIVE)
    tau_acc: float = param(30.0, POSITIVE, inf=True)
    dg_nv: float = 0.05e-6
    t_rec_min: float = 1.0
    polarity_sensitive: bool = False

    def __post_init__(self) -> None:
        if not self.g_min < self.g_max:  # energy_barrier divides by the span
            raise ValueError("g_max must exceed g_min")
        for name in ("g_eq0", "g_floor"):
            if not self.g_min <= getattr(self, name) <= self.g_max:
                raise ValueError(f"{name} must lie in [g_min, g_max]")
        if self.tau_d_min > self.tau_d_max:
            raise ValueError("tau_d_min must not exceed tau_d_max")
        # G lies in [g_min, g_max], so this bounds p_saturating's logit.
        spread = max(abs(self.g_min - self.g_c), abs(self.g_max - self.g_c))
        if not math.isfinite(spread / self.sigma_s):
            raise ValueError("sigma_s must keep (G - g_c)/sigma_s finite for "
                             "G in [g_min, g_max]")


@dataclass(frozen=True)
class DeviceState:
    """Dynamic device state at time ``t_last``.

    ``decay_to`` and the pulse kernel ``_fold`` also accept a batch of
    devices driven by one pulse sequence: g_eq, delta_g, acc and mode are
    then arrays over the batch, and the remaining fields are shared. The
    kernel takes and yields the fields as a plain tuple, in this order.
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


@checked
class Pulse:
    """A rectangular voltage pulse: onset time, signed amplitude, width."""

    t: float
    v: float
    w: float = param(domain=POSITIVE)


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


def _kernel_values(state: DeviceState, params: DeviceParams) -> tuple:
    """``_values(state)`` for a public call into ``_fold``, whose barrier
    guard assumes g_min <= g_eq <= g_max (the barrier is never below e0
    there). Checked once per call, never per pulse."""
    if not params.g_min <= state.g_eq <= params.g_max:
        raise ValueError(
            f"state g_eq={state.g_eq!r} must lie in [g_min, g_max] = "
            f"[{params.g_min!r}, {params.g_max!r}]")
    return _values(state)


def _read(s: tuple, t):
    """Closed-form conductance of plain state ``s`` at ``t >= t_last``."""
    g_eq, _, _, delta_g, tau_d, _, _, t_last, _ = s
    return g_eq + delta_g * np.exp(-(t - t_last) / tau_d)


def conductance(state: DeviceState, t=None):
    """Total conductance G = g_eq + delta_g at ``state.t_last``, or at
    ``t >= t_last`` (a float or an array) g_eq + delta_g*exp(-(t - t_last)/tau_d).

    A read is the closed-form relaxation: it never changes the state. A
    tau_d so short that (t - t_last)/tau_d overflows reads as fully relaxed.
    """
    if t is None:
        return state.g_eq + state.delta_g
    if not np.all(np.greater_equal(t, state.t_last)):
        raise ValueError(
            f"time reversal: t={float(np.min(t))} is not at or after "
            f"t_last={state.t_last}")
    with np.errstate(over="ignore"):
        return _read(_values(state), t)


def _relax(params: DeviceParams, t: float, t_last: float, u, x, delta_g,
           tau_d: float, acc) -> tuple:
    """The volatile variables (u, x, delta_g, acc) relaxed from ``t_last`` to
    ``t``: delta_g and u decay exponentially, x recovers toward 1 and the
    energy accumulator leaks with tau_acc. ``decay_to`` and the kernel both
    relax through it."""
    if not t >= t_last:
        raise ValueError(f"time reversal: t={t} is not at or after t_last={t_last}")
    dt = t - t_last
    if dt == 0.0:
        return u, x, delta_g, acc
    return (u * math.exp(-dt / params.tau_f_dev),
            1.0 - (1.0 - x) * math.exp(-dt / params.tau_rec_dev),
            delta_g * math.exp(-dt / tau_d), acc * math.exp(-dt / params.tau_acc))


def decay_to(state: DeviceState, params: DeviceParams, t: float) -> DeviceState:
    """Relax the volatile variables from ``state.t_last`` to ``t``.

    delta_g and u decay exponentially, x recovers toward 1, the energy
    accumulator leaks with tau_acc. The equilibrium conductance is untouched.
    """
    u, x, delta_g, acc = _relax(params, t, state.t_last, state.u, state.x,
                                state.delta_g, state.tau_d, state.acc)
    return replace(state, u=u, x=x, delta_g=delta_g, acc=acc, t_last=t)


def _joule(g, v: float, w: float):
    """The pulse-energy law g * v^2 * w, unchecked."""
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
    s, jump = next(_fold(_kernel_values(state, params), params,
                         [(pulse.t, pulse.v)], pulse.w))
    return DeviceState(*s), jump


def _select(mask, a, b):
    """``a if mask else b`` for one device; the batch kernel uses np.where."""
    return a if mask else b


def _fold(
    s: tuple, params: DeviceParams, pulses: Iterable[tuple[float, float]],
    w: float,
) -> Iterator[tuple[tuple, Any]]:
    """The device kernel: ``apply_pulse`` over a pulse sequence, on plain values.

    From plain state ``s``, applies each (t, v) of ``pulses`` in time order as
    a pulse of amplitude v and width ``w`` at t, and yields the new plain
    state and the volatile jump after each. For a batch of devices that share
    their pulse history, g_eq, delta_g, acc and mode are arrays over the batch
    (mode an object array of ``Mode``), and the mode, jump-cap and barrier
    branches act as per-device masks. A call reads the parameters, checks the
    width and chooses between the scalar and the batch form once. It reads
    the barrier of the current g_eq only where some accumulator has reached
    e0, the least barrier, and steps only where some device crossed it.
    """
    if not w > 0.0:
        raise ValueError("pulse width w must be > 0")
    g_eq, u, x, delta_g, tau_d, acc, mode, t_last, t_last_pulse = s
    if isinstance(g_eq, np.ndarray):
        select, any_ = np.where, np.any
    else:
        select, any_ = _select, bool
    p = params
    v_th, v0, c_amp, u_dev, g_max = p.v_th, p.v0, p.c_amp, p.u_dev, p.g_max
    tau_d_base, dt_ref, gamma = p.tau_d_base, p.dt_ref, p.gamma
    tau_d_min, tau_d_max = p.tau_d_min, p.tau_d_max
    g_min, g_floor, kappa_sat = p.g_min, p.g_floor, p.kappa_sat
    dg_nv, polarity_sensitive = p.dg_nv, p.polarity_sensitive
    saturating = mode == Mode.SATURATING
    walks = any_(saturating)  # whether a Saturating decrement can apply
    keep = 1.0 - _BARRIER_REL_TOL
    e_floor = p.e0 * keep  # the barrier is never below e0
    for t, v in pulses:
        u, x, delta_g, acc = _relax(p, t, t_last, u, x, delta_g, tau_d, acc)
        amp = abs(v)
        jump = 0.0

        if amp >= v_th:
            dt_p = math.inf if t_last_pulse is None else t - t_last_pulse
            if dt_p <= 0.0:
                tau_d = tau_d_max
            else:
                tau_d = tau_d_base * (dt_ref / dt_p) ** gamma
            tau_d = min(max(tau_d, tau_d_min), tau_d_max)

            u = u + u_dev * (1.0 - u)
            try:
                resp = c_amp * (math.exp((amp - v_th) / v0) - 1.0)
            except OverflowError:
                raise OverflowError(
                    f"amplitude response exp((|v| - v_th)/v0) overflows for a "
                    f"{v:g} V pulse with v_th={v_th:g} V and v0={v0:g} V"
                ) from None
            headroom = g_max - g_eq - delta_g
            jump = headroom * resp * u * x
            jump = select(headroom < jump, headroom, jump)
            x = x * (1.0 - u)
            if walks:
                # A Saturating train only walks the equilibrium down toward
                # g_floor.
                g_eq = select(saturating & (g_eq > g_floor),
                              g_eq - kappa_sat * (g_eq - g_floor), g_eq)
            delta_g = delta_g + jump
            t_last_pulse = t

        acc = acc + _joule(g_eq + delta_g, v, w)
        # An infinite barrier is never evaluated: no accumulator reaches it.
        if any_(acc >= e_floor) and any_(
                crossed := acc >= energy_barrier(p, g_eq) * keep):
            step = -dg_nv if polarity_sensitive and v > 0.0 else dg_nv
            # Clamp so the total conductance stays inside [g_min, g_max].
            stepped = g_eq + step
            stepped = select(g_min > stepped, g_min, stepped)
            ceiling = g_max - delta_g
            stepped = select(ceiling < stepped, ceiling, stepped)
            g_eq = select(crossed, stepped, g_eq)
            acc = select(crossed, 0.0, acc)
        t_last = t
        yield (g_eq, u, x, delta_g, tau_d, acc, mode, t, t_last_pulse), jump


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
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    v = np.asarray(waveform, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("waveform samples must be finite")
    s = _kernel_values(state, params)
    # Sample k sits at t_last + dt + ... + dt, k additions of dt.
    times = itertools.accumulate(itertools.repeat(dt, v.size - 1),
                                 initial=state.t_last)
    g = []  # G = g_eq + delta_g after each sample
    for s, _ in _fold(s, params, zip(times, v.tolist()), dt):
        g.append(s[0] + s[3])
    return DeviceState(*s), v, np.array(g) * v
