"""Reduced Tsodyks-Markram synapse: closed-form updates plus a step oracle.

Between spikes the utilization u decays to zero with tau_f and the resource
pool x recovers to one with tau_rec; at a spike, u jumps by u_cap*(1-u), the
efficacy peak a*u+*x is emitted, and x is depleted by the post-jump u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._fields import POSITIVE, check, param

__all__ = [
    "TMParams",
    "TMState",
    "advance",
    "on_spike",
    "peaks_for_train",
    "peaks_with_jacobian",
    "integrate_reference",
]


@dataclass(frozen=True)
class TMParams:
    a: float = param(1.0, POSITIVE)
    u_cap: float = param(0.2, ("be in [0, 1]", lambda u: 0.0 <= u <= 1.0))
    tau_rec: float = param(0.05, POSITIVE)
    tau_f: float = param(0.5, POSITIVE)

    def __post_init__(self) -> None:
        check(self)

    @classmethod
    def facilitation_only(cls, a: float, u_cap: float, tau_f: float) -> "TMParams":
        """Facilitation-only reduction: resources recover effectively
        instantly, so every peak is a * u+ alone."""
        return cls(a=a, u_cap=u_cap, tau_rec=1e-9, tau_f=tau_f)


@dataclass(frozen=True)
class TMState:
    u: float = 0.0
    x: float = 1.0
    t_last: float = 0.0


def advance(state: TMState, dt: float, params: TMParams) -> TMState:
    """Relax (u, x) over a spike-free interval dt."""
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return state
    return replace(
        state,
        u=state.u * math.exp(-dt / params.tau_f),
        x=1.0 - (1.0 - state.x) * math.exp(-dt / params.tau_rec),
        t_last=state.t_last + dt,
    )


def on_spike(state: TMState, params: TMParams) -> tuple[TMState, float]:
    """Spike update: facilitate, emit peak a*u+*x, deplete resources."""
    u_plus = state.u + params.u_cap * (1.0 - state.u)
    peak = params.a * u_plus * state.x
    return replace(state, u=u_plus, x=state.x * (1.0 - u_plus)), peak


def peaks_for_train(params: TMParams, spike_times: Sequence[float]) -> list[float]:
    """Efficacy peaks for a spike train, starting from rest (u=0, x=1)."""
    return peaks_with_jacobian(params, spike_times)[0].tolist()


def peaks_with_jacobian(
    params: TMParams, spike_times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Peaks for a spike train from rest, plus their (n, 4) Jacobian with
    respect to (a, u_cap, tau_rec, tau_f), carried forward through the loop.
    """
    times = list(spike_times)
    for earlier, later in zip(times, times[1:]):
        if later <= earlier:
            raise ValueError("spike times must be strictly increasing")
    a, u_cap, tau_rec, tau_f = params.a, params.u_cap, params.tau_rec, params.tau_f
    # Plain-float fold of advance/on_spike: the first spike sees dt = 0,
    # where exp(0) = 1 leaves the rest state exactly as it is. The state's
    # sensitivities ride along; u does not depend on tau_rec.
    peaks: list[float] = []
    rows: list[tuple[float, float, float, float]] = []
    u, x = 0.0, 1.0
    u_c = u_f = x_c = x_r = x_f = 0.0
    prev = times[0] if times else 0.0
    for t in times:
        dt = t - prev
        e_f = math.exp(-dt / tau_f)
        e_r = math.exp(-dt / tau_rec)
        u_f = u_f * e_f + u * (e_f * dt / tau_f) / tau_f
        u_c *= e_f
        u *= e_f
        x_c *= e_r
        x_f *= e_r
        x_r = x_r * e_r - (1.0 - x) * (e_r * dt / tau_rec) / tau_rec
        x = 1.0 - (1.0 - x) * e_r
        u_c = u_c * (1.0 - u_cap) + (1.0 - u)
        u_f *= 1.0 - u_cap
        u += u_cap * (1.0 - u)
        peaks.append(a * u * x)
        rows.append((u * x, a * (u_c * x + u * x_c), a * u * x_r,
                     a * (u_f * x + u * x_f)))
        x_c = x_c * (1.0 - u) - x * u_c
        x_r *= 1.0 - u
        x_f = x_f * (1.0 - u) - x * u_f
        x *= 1.0 - u
        prev = t
    return np.array(peaks), np.array(rows).reshape(len(peaks), 4)


def _rk4_decay_multiplier(h: float) -> float:
    """One RK4 step for y' = -y/tau, expressed as y_new = m(h)*y, h = dt/tau."""
    return 1.0 - h + h * h / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0


def _integrate_interval(y: float, span: float, tau: float, dt: float) -> float:
    """RK4-integrate y' = -y/tau over ``span`` using steps of dt plus one
    final partial step, so the interval boundary is hit exactly.

    Steps are capped at tau/10 to keep the scheme stable for very fast
    time constants.
    """
    dt = min(dt, tau / 10.0)
    n = int(span // dt)
    rem = span - n * dt
    m = _rk4_decay_multiplier(dt / tau)
    y = y * m ** n
    if rem > 0.0:
        y *= _rk4_decay_multiplier(rem / tau)
    return y


def integrate_reference(
    params: TMParams, spike_times: Sequence[float], dt: float
) -> list[float]:
    """Step-integrator oracle for :func:`peaks_for_train`.

    Integrates du/dt = -u/tau_f and dx/dt = (1-x)/tau_rec numerically between
    spikes (classical RK4 on the decaying variables) with the same spike maps.
    Independent of the closed-form exponentials; converges to them as dt
    shrinks.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    times = list(spike_times)
    for earlier, later in zip(times, times[1:]):
        if later <= earlier:
            raise ValueError("spike times must be strictly increasing")
    peaks: list[float] = []
    u, x = 0.0, 1.0
    prev = times[0] if times else 0.0
    for t in times:
        span = t - prev
        if span > 0.0:
            u = _integrate_interval(u, span, params.tau_f, dt)
            x = 1.0 - _integrate_interval(1.0 - x, span, params.tau_rec, dt)
        u_plus = u + params.u_cap * (1.0 - u)
        peaks.append(params.a * u_plus * x)
        x = x * (1.0 - u_plus)
        u = u_plus
        prev = t
    return peaks
