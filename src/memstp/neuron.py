"""Exponential integrate-and-fire membrane with spike/reset and refractoriness.

c_m dv/dt = -g_l (v - e_l) + g_l delta_t exp((v - v_t)/delta_t) + i_in

Explicit fixed-step integration; with delta_t = 0 the exponential term is
dropped (leaky IF). ``step`` advances one membrane; ``run_traces`` advances
a batch of independent membranes together, one time step at a time, taking
the input current in cache-sized blocks of steps. A batch of one membrane
runs the same float operations on Python floats instead of 1-element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "NeuronParams",
    "NeuronState",
    "step",
    "run_traces",
]

# Cap on the exponential argument; keeps a diverging membrane finite until the
# spike detector fires.
_EXP_ARG_MAX = 30.0

# Elements of one current block (64 KB of float64): small enough that a
# block's drive temporaries stay in cache.
_BLOCK_ELEMENTS = 8192


def _block_steps(rows: int) -> int:
    """Steps per current block for a batch of ``rows`` membranes."""
    return max(1, _BLOCK_ELEMENTS // max(rows, 1))


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
        for f in fields(self):
            if math.isnan(getattr(self, f.name)):
                raise ValueError(f"{f.name} must not be NaN")
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
    if not dt > 0.0:
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

    During the refractory window (ceil(t_ref/dt) steps after a spike) the
    membrane is clamped at v_reset and input is ignored. ``t`` (the time of
    the step's end) is only used to stamp t_last_spike.
    """
    _check_dt(params, dt)
    if state.refrac_left > 0.0:
        # Count whole steps, so float residue in refrac_left adds no step.
        steps_left = max(round(state.refrac_left / dt) - 1, 0)
        return replace(state, v_m=params.v_reset,
                       refrac_left=steps_left * dt), False

    v = state.v_m
    i_total = -params.g_l * (v - params.e_l) + i_in
    if params.delta_t > 0.0:
        arg = min((v - params.v_t) / params.delta_t, _EXP_ARG_MAX)
        i_total += params.g_l * params.delta_t * math.exp(arg)
    v = v + (dt / params.c_m) * i_total

    if v >= params.v_peak:
        return replace(
            state, v_m=params.v_reset, t_last_spike=t,
            refrac_left=math.ceil(params.t_ref / dt) * dt), True
    return replace(state, v_m=v), False


def _integrate(
    params: NeuronParams,
    current: Callable[[int, int], np.ndarray],
    steps: int,
    dt: float,
    v0: np.ndarray,
    v_out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance one membrane per entry of ``v0`` for ``steps`` steps.

    ``current(a, b)`` is the input current of steps a..b-1 as a time-major
    (b - a, rows) array, with a row per membrane or one row for all of
    them. It is asked for consecutive blocks of ``_block_steps(rows)`` steps
    that cover the run once. The drive coef*(g_l*e_l + i) of a whole block
    is computed at once. Each of its steps is then ``step`` over the batch:
    v = drive + alpha*v, plus the capped exponential term if delta_t > 0,
    then spike, reset and ceil(t_ref/dt) refractory steps. A single membrane
    runs these float operations in the same order on Python floats, which
    gives the same bits as its row in a batch without a numpy call per step.
    Fills column k of ``v_out`` with step k's membranes if given. Returns
    (step-end times, the spike times of all rows in row order, row offsets):
    row r's spike times are ``spike_times[offsets[r]:offsets[r + 1]]``.
    """
    _check_dt(params, dt)
    alpha = 1.0 - dt * params.g_l / params.c_m
    coef = dt / params.c_m
    rest = params.g_l * params.e_l
    exp_gain = coef * params.g_l * params.delta_t
    ref_steps = math.ceil(params.t_ref / dt)  # as in step
    times = dt * np.arange(1, steps + 1)
    block = _block_steps(v0.size)
    if v0.size == 1:
        x, held, fired_at = float(v0.item()), 0, []
        for a in range(0, steps, block):
            b = min(a + block, steps)
            trace = None if v_out is None else []
            # A memoryview yields the block's drive as Python floats, one at
            # a time, with no per-block list.
            for k, drive in enumerate(
                    memoryview((coef * (rest + current(a, b))).ravel()), a):
                if held:  # the clamp leaves v at v_reset, below v_peak
                    x = params.v_reset
                    held -= 1
                else:
                    if exp_gain > 0.0:
                        # np.exp, not math.exp: the array loop's last bit.
                        drive += exp_gain * float(np.exp(min(
                            (x - params.v_t) / params.delta_t, _EXP_ARG_MAX)))
                    x = drive + x * alpha
                    if x >= params.v_peak:
                        x = params.v_reset
                        held = ref_steps
                        fired_at.append(k)
                if trace is not None:
                    trace.append(x)
            if trace is not None:
                v_out[0, a:b] = trace
        return (times, times[np.array(fired_at, dtype=int)],
                np.array([0, len(fired_at)]))
    held = np.zeros(v0.shape, dtype=int)  # refractory steps still to serve
    busy = 0  # steps until no membrane is refractory
    # Per spike step: the step, once per row that fired, and those rows.
    fired_steps: list[np.ndarray] = [np.zeros(0, dtype=int)]
    fired_rows: list[np.ndarray] = [np.zeros(0, dtype=int)]
    v = np.array(v0, dtype=float)
    scaled = np.empty_like(v)
    for a in range(0, steps, block):
        for k, drive in enumerate(
                coef * (rest + current(a, min(a + block, steps))), a):
            if exp_gain > 0.0:
                drive = drive + exp_gain * np.exp(
                    np.minimum((v - params.v_t) / params.delta_t, _EXP_ARG_MAX))
            # v = drive + alpha*v into owned buffers: numpy's in-place
            # operators cost more than a fresh array on small batches.
            np.multiply(v, alpha, scaled)
            np.add(drive, scaled, v)
            if busy:
                clamped = held > 0
                v[clamped] = params.v_reset
                held -= clamped
                busy -= 1
            fired = (v >= params.v_peak).nonzero()[0]
            if fired.size:
                v[fired] = params.v_reset
                held[fired] = ref_steps
                busy = ref_steps
                fired_steps.append(np.full(fired.size, k))
                fired_rows.append(fired)
            if v_out is not None:
                v_out[:, k] = v
    rows = np.concatenate(fired_rows)
    # A stable sort by row keeps each row's spikes in step order.
    order = np.argsort(rows, kind="stable")
    offsets = np.zeros(v.size + 1, dtype=int)
    np.cumsum(np.bincount(rows, minlength=v.size), out=offsets[1:])
    return times, times[np.concatenate(fired_steps)[order]], offsets


def run_traces(
    params: NeuronParams,
    current: np.ndarray,
    dt: float,
    v0: Union[None, float, np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Integrate each row of a (rows, steps) current array as its own membrane.

    Returns (times, v array of the same shape, spike times of each row).
    The v array holds each membrane after every step; spike times are the
    step-end times of threshold crossings. ``v0`` is the starting membrane,
    one value for all rows or one per row (rest if not given). A single
    series is the one-row array ``current[None]``.
    """
    current = np.asarray(current, dtype=float)
    v0 = np.broadcast_to(np.asarray(params.e_l if v0 is None else v0,
                                    dtype=float), current.shape[:1])
    v = np.empty(current.shape)
    times, spike_times, offsets = _integrate(
        params, lambda a, b: current[:, a:b].T, current.shape[1], dt, v0, v)
    return times, v, [spike_times[a:b].tolist()
                      for a, b in zip(offsets[:-1], offsets[1:])]
