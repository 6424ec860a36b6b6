"""Slow reference models that the tests compare the package's fast paths
against, and the binned statistics acceptance criterion 3 reads.

- ``TMState``, ``advance`` and ``on_spike``: the reduced Tsodyks-Markram
  synapse as a state machine, one interval or spike at a time. The plain
  float fold in ``tm.peaks_with_jacobian`` (and so ``tm.peaks_for_train``)
  must give their peaks exactly.
- ``integrate_reference``: the same synapse integrated by classical RK4
  between spikes, independent of the closed-form exponentials that
  ``tm.peaks_for_train`` uses; it converges to them as dt shrinks.
- ``NeuronState`` and ``step``: one membrane advanced one Euler step at a
  time. ``neuron.run_traces``, on its one-row float path and its batched
  array path, must reproduce its spike steps and voltages.
- ``BinSpec``, ``BinStats`` and ``bin_statistics``: event records of
  ``protocols.run_protocol`` histogrammed by g0, with the Saturating
  fraction of each bin.
- ``trf_least_squares``: the variable-projection fit of
  ``fitting._least_squares`` run by scipy's bounded TRF from every start to
  convergence, in the fit's own coordinates; the package's batched
  Levenberg-Marquardt fit must not end above it.

pytest puts this directory on ``sys.path``, so tests ``import oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from memstp._fields import AT_LEAST_ONE, checked, param
from memstp.device import EventLabel
from memstp.fitting import FitResult
from memstp.neuron import _EXP_ARG_MAX, NeuronParams, _check_dt
from memstp.protocols import EventRecord
from memstp.tm import TMParams


# ---------------------------------------------------------------------------
# Tsodyks-Markram state machine and its RK4 integrator
# ---------------------------------------------------------------------------


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
    """Step-integrator oracle for ``tm.peaks_for_train``.

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


# ---------------------------------------------------------------------------
# One membrane, one step at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeuronState:
    v_m: float
    t_last_spike: Optional[float] = None
    refrac_left: float = 0.0


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


# ---------------------------------------------------------------------------
# Binned mode statistics
# ---------------------------------------------------------------------------


@checked
class BinSpec:
    lo: float
    hi: float
    n_bins: int = param(domain=AT_LEAST_ONE)

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError("lo must be below hi")

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


# ---------------------------------------------------------------------------
# Bounded least squares by scipy TRF, every start to convergence
# ---------------------------------------------------------------------------


def trf_least_squares(model, y, starts, bounds, names, log=None) -> FitResult:
    """``fitting._least_squares`` as scipy's bounded TRF would fit it.

    Same arguments (``log`` is ignored: TRF searches theta itself, scaled by
    its Jacobian), same projection of the linear scale c = f.y / f.f clipped
    to [1e-12, 1e6 * max(y)], same data scaling; each start runs one row of
    ``model`` at a time to convergence (at most 4000 evaluations), and the
    lowest cost wins. ``iterations`` counts the evaluations of all starts.
    """
    c_lo, c_hi = 1e-12, 1e6 * max(float(np.max(y)), 1e-12)
    scale = float(np.max(np.abs(y))) or 1.0
    y_s = y / scale
    cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def projected(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # TRF asks for the residual and the Jacobian in separate calls.
        key = theta.tobytes()
        if key not in cache:
            f, df = (v[0] for v in model(theta[None]))
            ff = f @ f
            c_raw = (f @ y_s) / ff
            c = min(max(c_raw, c_lo / scale), c_hi / scale)
            r = y_s - c * f
            jac = -c * df
            if c == c_raw:
                jac -= np.outer(f, (df.T @ r - c * (df.T @ f)) / ff)
            cache.clear()
            cache[key] = (r, jac)
        return cache[key]

    lo, hi = zip(*bounds)
    runs = [least_squares(lambda th: projected(th)[0], start,
                          jac=lambda th: projected(th)[1], bounds=(lo, hi),
                          method="trf", x_scale="jac", max_nfev=4000)
            for start in starts]
    best = min(runs, key=lambda run: run.cost)
    f = model(best.x[None])[0][0]
    c = min(max(float(f @ y / (f @ f)), c_lo), c_hi)
    return FitResult(
        params=dict(zip(names, (c, *map(float, best.x)))),
        sse=float(np.sum((y - c * f) ** 2)),
        iterations=sum(run.nfev for run in runs),
        converged=best.status > 0, message=best.message)
