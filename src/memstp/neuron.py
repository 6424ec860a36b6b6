"""Exponential integrate-and-fire membrane with spike/reset and refractoriness.

c_m dv/dt = -g_l (v - e_l) + g_l delta_t exp((v - v_t)/delta_t) + i_in

Explicit fixed-step integration; with delta_t = 0 the exponential term is
dropped (leaky IF). ``run_traces`` advances a batch of independent membranes
together, one time step at a time, taking the input current in cache-sized
blocks of steps. A batch of one membrane runs the same float operations on
Python floats instead of 1-element arrays.

A leaky batch of more than one membrane that records no traces can instead
take the event path, ``_integrate_events``, when its current comes as
pieces: one-step pulses, and stretches where it is a + b*rho**j. Between
pulses the Euler recurrence has a closed form (exact integration between
events, Rotter & Diesmann, Biol. Cybern. 81, 381 (1999), applied to the
Euler recurrence), so each piece costs O(1) numpy work per membrane: its
maximum, and by bisection its first threshold crossing. The path reproduces
the step loop's spike steps by certificate: a membrane with a compared value
within ``_EPS`` of v_peak, or whose closed form rounds too much (a decay
rate rho too near the membrane's alpha), is run again by the step loop.
The step loop stays for the exponential IF, traces, one membrane, and
currents that are not such pieces (two decay rates in one piece), and is
the event path's oracle. Both paths take the Euler coefficients from
``_euler`` and return their spikes through ``_spike_csr``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from ._fields import NON_NEGATIVE, POSITIVE, checked, param

__all__ = [
    "NeuronParams",
    "run_traces",
]

# Cap on the exponential argument; keeps a diverging membrane finite until the
# spike detector fires.
_EXP_ARG_MAX = 30.0

# Elements of one current block (64 KB of float64): small enough that a
# block's drive temporaries stay in cache.
_BLOCK_ELEMENTS = 8192


# Margin of the event path's exactness certificate, in volts: far above the
# rounding by which its closed form and the step loop differ (under 1e-14 V
# on the detector's pieces), far below a membrane step.
_EPS = 1e-9
_ULP = float(np.finfo(float).eps)


def _block_steps(rows: int) -> int:
    """Steps per current block for a batch of ``rows`` membranes."""
    return max(1, _BLOCK_ELEMENTS // max(rows, 1))


@checked
class NeuronParams:
    """Membrane constants. No field may be NaN; only v_peak may be infinite,
    for a membrane that never fires."""

    c_m: float = param(200e-12, POSITIVE)
    g_l: float = param(4e-9, POSITIVE)
    e_l: float = -0.070
    v_t: float = -0.050
    delta_t: float = param(0.002, NON_NEGATIVE)
    v_peak: float = param(0.0, inf=True)
    v_reset: float = -0.060
    t_ref: float = param(0.002, NON_NEGATIVE)

    def __post_init__(self) -> None:
        if self.v_reset >= self.v_peak:
            raise ValueError("v_reset must be below v_peak")

    @property
    def tau_m(self) -> float:
        return self.c_m / self.g_l


def _check_dt(params: NeuronParams, dt: float) -> None:
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    if dt > params.tau_m / 10.0:
        raise ValueError(
            f"dt={dt} violates the stability contract dt <= tau_m/10 "
            f"(tau_m={params.tau_m})")


def _euler(params: NeuronParams, steps: int,
           dt: float) -> tuple[float, float, float, int, np.ndarray]:
    """What both membrane paths share: v = coef*(rest + i) + alpha*v is the
    leaky Euler update of the membrane equation, ref_steps the steps held
    after a spike, and times the step-end times of ``steps`` steps. Checks
    dt."""
    _check_dt(params, dt)
    return (1.0 - dt * params.g_l / params.c_m, dt / params.c_m,
            params.g_l * params.e_l, math.ceil(params.t_ref / dt),
            dt * np.arange(1, steps + 1))


def _spike_csr(times: np.ndarray, rows: int, fired_rows: list[np.ndarray],
               fired_steps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(spike times of all rows in row order, row offsets) of the spikes of
    rows ``fired_rows[i]`` on steps ``fired_steps[i]``; each row's spikes
    come in step order across the lists."""
    fired, at = (np.concatenate([np.zeros(0, dtype=int), *x])
                 for x in (fired_rows, fired_steps))
    offsets = np.zeros(rows + 1, dtype=int)
    np.cumsum(np.bincount(fired, minlength=rows), out=offsets[1:])
    # A stable sort by row keeps each row's spikes in step order.
    return times[at[np.argsort(fired, kind="stable")]], offsets


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
    is computed at once. Each of its steps is then one Euler step of the
    batch: v = drive + alpha*v, plus the capped exponential term if
    delta_t > 0, then spike, reset and ceil(t_ref/dt) refractory steps. A
    single membrane runs these float operations in the same order on Python
    floats, which gives the same bits as its row in a batch without a numpy
    call per step.
    Fills column k of ``v_out`` with step k's membranes if given. Returns
    (step-end times, the spike times of all rows in row order, row offsets):
    row r's spike times are ``spike_times[offsets[r]:offsets[r + 1]]``.
    """
    alpha, coef, rest, ref_steps, times = _euler(params, steps, dt)
    exp_gain = coef * params.g_l * params.delta_t
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
        fired_at = np.array(fired_at, dtype=int)
        return (times, *_spike_csr(times, 1, [np.zeros_like(fired_at)],
                                   [fired_at]))
    held = np.zeros(v0.shape, dtype=int)  # refractory steps still to serve
    busy = 0  # steps until no membrane is refractory
    # Per spike step: the step, once per row that fired, and those rows.
    fired_steps: list[np.ndarray] = []
    fired_rows: list[np.ndarray] = []
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
    return (times, *_spike_csr(times, v.size, fired_rows, fired_steps))


class Piece(NamedTuple):
    """The input current of a batch on the steps lo..hi-1.

    On step k it is a + b*rho**(k - lo), with a and b one value per row or
    one for all rows. Where rho is None the piece is the one step lo, and a
    is that step's current exactly as the step loop sums it.
    """

    lo: int
    hi: int
    a: Union[float, np.ndarray]
    b: Union[float, np.ndarray] = 0.0
    rho: Optional[float] = None


def _integrate_events(
    params: NeuronParams,
    pieces: Iterable[Piece],
    steps: int,
    dt: float,
    v0: np.ndarray,
    current_of: Callable[[np.ndarray], Callable[[int, int], np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_integrate`` of a leaky batch whose current is given as ``pieces``.

    The pieces cover the steps 0..steps-1 in order; each is run for all
    rows, ``_BLOCK_ELEMENTS`` rows at a time. A one-step piece is one step
    of the loop, with its float operations. A smooth piece is solved in
    closed form by ``_first_crossing``; a row that crosses v_peak on it is
    reset, held ceil(t_ref/dt) steps and restarted from v_reset on the rest
    of the piece. Rows that fail the certificate (``_first_crossing``, or a
    one-step value within ``_EPS`` of v_peak) are run again by
    ``_integrate`` on ``current_of(rows)``, the current of just those rows,
    so spike steps equal the step loop's. Returns what ``_integrate``
    returns.
    """
    if params.delta_t > 0.0:
        raise ValueError("the event path integrates leaky membranes only")
    alpha, coef, rest, ref_steps, times = _euler(params, steps, dt)
    v = np.array(v0, dtype=float)
    free = np.zeros(v.size, dtype=int)  # a row's first step after its hold
    bad = np.zeros(v.size, dtype=bool)  # rows that fail the certificate
    fired_rows: list[np.ndarray] = []
    fired_steps: list[np.ndarray] = []

    def fire(rows: np.ndarray, at: np.ndarray) -> None:
        v[rows] = params.v_reset
        free[rows] = at + ref_steps + 1
        fired_rows.append(rows)
        fired_steps.append(at)

    for piece in pieces:
        for r0 in range(0, v.size, _BLOCK_ELEMENTS):
            chunk = slice(r0, r0 + _BLOCK_ELEMENTS)
            if piece.rho is None:
                # The loop's drive + v*alpha on the rows that are not held.
                rows = r0 + np.flatnonzero((free[chunk] <= piece.lo)
                                           & ~bad[chunk])
                x = coef * (rest + _per_row(piece.a, rows)) + v[rows] * alpha
                bad[rows[np.abs(x - params.v_peak) < _EPS]] = True
                v[rows] = x
                up = x >= params.v_peak
                fire(rows[up], np.full(np.count_nonzero(up), piece.lo))
                continue
            rows = r0 + np.flatnonzero((free[chunk] < piece.hi) & ~bad[chunk])
            drive_a = coef * (rest + _per_row(piece.a, rows))
            drive_b = coef * _per_row(piece.b, rows)
            index = np.arange(rows.size)  # each row's entry in drive_a/_b
            while rows.size:
                start = np.maximum(free[rows], piece.lo)
                v_end, m, failed = _first_crossing(
                    params, alpha, piece.rho, v[rows], piece.hi - start,
                    _per_row(drive_a, index),
                    _per_row(drive_b, index) * piece.rho ** (start - piece.lo))
                bad[rows[failed]] = True
                calm = ~failed & (m == 0)
                v[rows[calm]] = v_end[calm]
                up = ~failed & (m > 0)
                rows, index = rows[up], index[up]
                fire(rows, start[up] + m[up] - 1)
                again = free[rows] < piece.hi
                rows, index = rows[again], index[again]
        del piece  # free its arrays before the next piece is built

    failed = np.flatnonzero(bad)
    if failed.size:
        # Drop the failed rows' spikes, then add the step loop's.
        for i, (rows, at) in enumerate(zip(fired_rows, fired_steps)):
            keep = ~bad[rows]
            fired_rows[i], fired_steps[i] = rows[keep], at[keep]
        _, again, offsets = _integrate(params, current_of(failed), steps, dt,
                                       v0[failed])
        fired_rows.append(np.repeat(failed, np.diff(offsets)))
        fired_steps.append(np.searchsorted(times, again))
    return (times, *_spike_csr(times, v.size, fired_rows, fired_steps))


def _per_row(x, index):
    """``x[index]`` of a per-row array; a value shared by all rows as is."""
    return x[index] if np.ndim(x) else x


# Rows whose rho lies too near alpha get huge or infinite Q and P; the
# rounding bound fails them, so their overflow and nan go unreported.
@np.errstate(all="ignore")
def _first_crossing(
    params: NeuronParams,
    alpha: float,
    rho: float,
    u: np.ndarray,
    steps: np.ndarray,
    drive_a,
    drive_b,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Membranes at ``u`` run ``steps`` Euler steps v = d + alpha*v of the
    drive d = drive_a + drive_b*rho**j on their step j = 0, 1, ...

    In closed form, v after m steps is v(m) = K + P*alpha**m + Q*rho**m,
    with K = drive_a/(1 - alpha), Q = drive_b/(rho - alpha) and
    P = u - K - Q. v(m) has at most one stationary point m*, so its largest
    value over m = 1..steps is at 1, steps, floor(m*) or ceil(m*). Up to
    that maximum v(m) is monotone, and bisection finds the first m with
    v(m) >= v_peak - _EPS. Returns (v(steps), that m or 0 if there is none,
    failed). A row fails the certificate if the v(m) it crosses at lies
    below v_peak + _EPS, or if a bound on the rounding of closed form and
    loop reaches _EPS/256, as when rho is too near alpha for Q; otherwise
    every v(m) compared lies more than _EPS from v_peak, so the step loop,
    which differs by rounding, crosses at the same m.
    """
    below, above = params.v_peak - _EPS, params.v_peak + _EPS
    log_alpha, log_rho = math.log(alpha), math.log(rho)
    k = drive_a / (1.0 - alpha)
    q = drive_b / (rho - alpha)
    p = u - k - q
    m_star = np.log(-(q * log_rho) / (p * log_alpha)) / (log_alpha - log_rho)
    m_star = np.fmax(np.fmin(m_star, steps), 1.0)  # nan: no m*, steps
    # Candidates in the order 1, floor(m*), ceil(m*), steps.
    ms = np.stack([np.ones_like(steps), np.floor(m_star).astype(int),
                   np.ceil(m_star).astype(int), steps])

    def v_at(m):  # exp of a product: faster than ** on integer arrays
        return k + p * np.exp(m * log_alpha) + q * np.exp(m * log_rho)

    values = v_at(ms)
    # Closed form and loop each round by about _ULP of |K| + |P| + |Q| per
    # step, over the piece's steps and the loop's memory, 1/(1 - alpha).
    rounding = ((np.abs(k) + np.abs(p) + np.abs(q))
                * (steps + 1.0 / (1.0 - alpha)) * _ULP)
    failed = ~(rounding < _EPS / 256)
    hit = np.flatnonzero((values.max(0) >= below) & ~failed)
    first = np.zeros_like(steps)
    if hit.size:
        # v is monotone from 1 up to the first candidate that reaches below;
        # bisect on (lo_m, hi_m], where v(lo_m) < below <= v(hi_m).
        reach = values[:, hit] >= below
        hi_m = ms[reach.argmax(0), hit]
        lo_m = np.ones_like(hi_m)
        k, p, q = (_per_row(x, hit) for x in (k, p, q))
        while np.any(hi_m - lo_m > 1):
            mid = (lo_m + hi_m) // 2
            up = v_at(mid) >= below
            hi_m = np.where(up, mid, hi_m)
            lo_m = np.where(up, lo_m, mid)
        failed[hit[v_at(hi_m) < above]] = True
        first[hit] = hi_m
    return values[3], first, failed


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
