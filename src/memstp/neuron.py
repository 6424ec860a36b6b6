"""Exponential integrate-and-fire membrane with spike/reset and refractoriness.

c_m dv/dt = -g_l (v - e_l) + g_l delta_t exp((v - v_t)/delta_t) + i_in

Explicit fixed-step integration; with delta_t = 0 the exponential term is
dropped (leaky IF) and the trace runners use a C-speed linear filter with the
identical recursion, over one membrane or a batch of independent ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
from scipy.signal import lfilter

__all__ = [
    "NeuronParams",
    "NeuronState",
    "step",
    "run_trace",
    "run_traces",
    "psc_from_conductance",
]

# Cap on the exponential argument; keeps a diverging membrane finite until the
# spike detector fires.
_EXP_ARG_MAX = 30.0


@dataclass(frozen=True)
class NeuronParams:
    c_m: float = 200e-12
    g_l: float = 4e-9
    e_l: float = -0.070
    v_t: float = -0.050
    delta_t: float = 0.002
    v_peak: float = 0.0
    v_reset: float = -0.060
    t_ref: float = 0.002

    def __post_init__(self) -> None:
        if self.c_m <= 0.0 or self.g_l <= 0.0:
            raise ValueError("c_m and g_l must be > 0")
        if self.v_reset >= self.v_peak:
            raise ValueError("v_reset must be below v_peak")
        if self.delta_t < 0.0 or self.t_ref < 0.0:
            raise ValueError("delta_t and t_ref must be >= 0")

    @property
    def tau_m(self) -> float:
        return self.c_m / self.g_l


@dataclass(frozen=True)
class NeuronState:
    v_m: float
    t_last_spike: Optional[float] = None
    refrac_left: float = 0.0


def _check_dt(params: NeuronParams, dt: float) -> None:
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if dt > params.tau_m / 10.0:
        raise ValueError(
            f"dt={dt} violates the stability contract dt <= tau_m/10 "
            f"(tau_m={params.tau_m})")


def step(
    state: NeuronState,
    params: NeuronParams,
    i_in: float,
    dt: float,
    t: Optional[float] = None,
) -> tuple[NeuronState, bool]:
    """Advance the membrane one step; returns (state, spiked).

    During the refractory window the membrane is clamped at v_reset and input
    is ignored. ``t`` (the time of the step's end) is only used to stamp
    t_last_spike.
    """
    _check_dt(params, dt)
    if state.refrac_left > 0.0:
        return replace(
            state, v_m=params.v_reset,
            refrac_left=max(state.refrac_left - dt, 0.0)), False

    v = state.v_m
    i_total = -params.g_l * (v - params.e_l) + i_in
    if params.delta_t > 0.0:
        arg = min((v - params.v_t) / params.delta_t, _EXP_ARG_MAX)
        i_total += params.g_l * params.delta_t * math.exp(arg)
    v = v + (dt / params.c_m) * i_total

    if v >= params.v_peak:
        return replace(
            state, v_m=params.v_reset, t_last_spike=t,
            refrac_left=params.t_ref), True
    return replace(state, v_m=v), False


def psc_from_conductance(g: float, v_read: float) -> float:
    """Post-synaptic current of a conductance read at a fixed bias."""
    return g * v_read


def _run_trace_lif(
    params: NeuronParams, current: np.ndarray, dt: float, v0: np.ndarray
) -> tuple[np.ndarray, list[list[int]]]:
    """Linear-filter fast path for delta_t == 0, one membrane per row of
    ``current``, with spike/reset handling.

    Implements exactly v[k+1] = alpha*v[k] + (dt/c_m)*(g_l*e_l + i[k]) along
    each row, starting from v0[row]. All rows are filtered together; after
    each detected crossing that row's filter restarts from v_reset past the
    refractory window.
    """
    alpha = 1.0 - dt * params.g_l / params.c_m
    coef = dt / params.c_m
    drive = coef * (params.g_l * params.e_l + current)
    m, n = drive.shape
    spikes: list[list[int]] = [[] for _ in range(m)]
    ref_steps = int(math.ceil(params.t_ref / dt)) if params.t_ref > 0.0 else 0

    v = lfilter([1.0], [1.0, -alpha], drive, zi=(alpha * v0)[:, None])[0]
    hit = v >= params.v_peak
    for row in np.flatnonzero(hit.any(axis=1)):
        k = int(hit[row].argmax())
        while True:
            spikes[row].append(k)
            stop = min(k + 1 + ref_steps, n)
            v[row, k:stop] = params.v_reset
            if stop == n:
                break
            seg = lfilter([1.0], [1.0, -alpha], drive[row, stop:],
                          zi=[alpha * params.v_reset])[0]
            v[row, stop:] = seg
            crossings = np.flatnonzero(seg >= params.v_peak)
            if crossings.size == 0:
                break
            k = stop + int(crossings[0])
    return v, spikes


def run_traces(
    params: NeuronParams,
    current: np.ndarray,
    dt: float,
    v0: Union[None, float, np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Integrate each row of a (rows, steps) current array as its own membrane.

    Returns (times, v array of the same shape, spike times of each row).
    ``v0`` is the starting membrane, one value for all rows or one per row
    (rest if not given). Each row matches ``run_trace`` on that row alone.
    """
    _check_dt(params, dt)
    current = np.asarray(current, dtype=float)
    m, n = current.shape
    times = dt * np.arange(1, n + 1)
    v0 = np.broadcast_to(np.asarray(params.e_l if v0 is None else v0,
                                    dtype=float), (m,))

    if params.delta_t == 0.0:
        v, spike_idx = _run_trace_lif(params, current, dt, v0)
    else:
        v = np.empty((m, n), dtype=float)
        spike_idx = [[] for _ in range(m)]
        for row in range(m):
            state = NeuronState(v_m=float(v0[row]))
            for k in range(n):
                state, spiked = step(state, params, float(current[row, k]), dt,
                                     t=float(times[k]))
                v[row, k] = state.v_m
                if spiked:
                    spike_idx[row].append(k)
    return times, v, [[float(times[k]) for k in idx] for idx in spike_idx]


def run_trace(
    params: NeuronParams,
    current: np.ndarray,
    dt: float,
    v0: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Integrate a sampled current series; returns (times, v trace, spike times).

    The trace holds the membrane after each step; spike times are the step-end
    times of threshold crossings. The membrane starts at ``v0`` (rest if not
    given).
    """
    current = np.asarray(current, dtype=float)
    times, v, spike_times = run_traces(params, current[None, :], dt, v0)
    return times, v[0], spike_times[0]
