"""Parameter estimation: decay fits, plus TM and amplitude-law fits by
bounded TRF least squares (scipy)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import OptimizeResult, least_squares

from . import tm

__all__ = [
    "FitResult",
    "fit_decay",
    "fit_tm",
    "fit_amplitude_curve",
]


@dataclass
class FitResult:
    """Named parameter estimates plus goodness-of-fit bookkeeping.

    ``iterations`` counts the residual (function) evaluations of the winning
    least-squares start; closed-form fits report 0.
    """

    params: dict[str, float]
    sse: float
    iterations: int
    converged: bool
    message: str = ""

    def __post_init__(self) -> None:
        if self.sse < 0.0:
            raise ValueError("sse must be >= 0")


def _least_squares(
    residuals: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[Sequence[float]],
    bounds: Sequence[tuple[float, float]],
) -> OptimizeResult:
    """Bounded TRF least squares from each start; the lowest cost wins."""
    lo, hi = zip(*bounds)
    best: Optional[OptimizeResult] = None
    for start in starts:
        res = least_squares(residuals, start, bounds=(lo, hi), method="trf",
                            x_scale="jac", max_nfev=4000)
        if best is None or res.cost < best.cost:
            best = res
    assert best is not None
    return best


def fit_decay(
    times: Sequence[float],
    values: Sequence[float],
    g_eq: float,
) -> FitResult:
    """Fit G(t) = g_eq + amplitude * exp(-t/tau_d) by log-linear regression.

    Samples at or below the baseline are excluded; fewer than 3 usable
    samples is a failure.
    """
    t = np.asarray(times, dtype=float)
    g = np.asarray(values, dtype=float)
    resid = g - g_eq
    usable = resid > 0.0
    if int(np.count_nonzero(usable)) < 3:
        return FitResult(params={"tau_d": math.nan, "amplitude": math.nan},
                         sse=0.0, iterations=0, converged=False,
                         message="fewer than 3 samples above baseline")
    t_u, ln_r = t[usable], np.log(resid[usable])
    slope, intercept = np.polyfit(t_u, ln_r, 1)
    if slope >= 0.0:
        return FitResult(params={"tau_d": math.nan, "amplitude": math.nan},
                         sse=0.0, iterations=0, converged=False,
                         message="non-decaying residual")
    tau_d = -1.0 / slope
    amplitude = math.exp(intercept)
    sse = float(np.sum((resid[usable] - amplitude * np.exp(-t_u / tau_d)) ** 2))
    return FitResult(params={"tau_d": float(tau_d), "amplitude": amplitude},
                     sse=sse, iterations=0, converged=True)


def fit_tm(peaks: Sequence[float], spike_times: Sequence[float]) -> FitResult:
    """Least-squares fit of the TM peak map to measured peaks.

    Parameters (a, u_cap, tau_rec, tau_f) are estimated by bounded TRF least
    squares (scipy) from a small multi-start grid: u_cap in {0.1, 0.5, 0.9}
    crossed with fast/slow time-constant combinations, a seeded from the
    largest peak. ``FitResult.iterations`` counts the function evaluations
    of the winning start.
    """
    pk = np.asarray(peaks, dtype=float)
    ts = list(spike_times)
    if pk.size != len(ts) or pk.size < 2:
        raise ValueError("need equal-length peaks and spike_times, >= 2")
    for earlier, later in zip(ts, ts[1:]):
        if later <= earlier:
            raise ValueError("spike times must be strictly increasing")

    a_hi = max(float(np.max(pk)), 1e-12)

    def residuals(p: np.ndarray) -> np.ndarray:
        a, u_cap, tau_rec, tau_f = p
        model = tm.peaks_for_train(
            tm.TMParams(a=a, u_cap=u_cap, tau_rec=tau_rec, tau_f=tau_f), ts)
        return pk - np.asarray(model)

    bounds = [(1e-12, 1e6 * a_hi), (1e-3, 1.0), (1e-3, 100.0), (1e-3, 100.0)]
    starts = []
    for u0 in (0.1, 0.5, 0.9):
        for tau_rec0, tau_f0 in ((0.05, 0.5), (0.5, 0.05), (0.2, 0.2), (0.02, 1.0)):
            starts.append([a_hi / u0, u0, tau_rec0, tau_f0])

    best = _least_squares(residuals, starts, bounds)
    a, u_cap, tau_rec, tau_f = map(float, best.x)
    degenerate = float(np.ptp(pk)) <= 1e-12 * a_hi
    return FitResult(
        params={"a": a, "u_cap": u_cap, "tau_rec": tau_rec, "tau_f": tau_f},
        sse=float(np.sum(best.fun ** 2)), iterations=int(best.nfev),
        converged=best.status > 0 and not degenerate,
        message="peaks constant: time constants unidentifiable" if degenerate
        else best.message)


def fit_amplitude_curve(
    points: Sequence[tuple[float, float]], v_th: float = 1.0
) -> FitResult:
    """Fit dG_norm(v) = c_amp * (exp((|v| - v_th)/v0) - 1) to (v, dG) points
    by bounded TRF least squares (scipy) from a 3 x 3 start grid."""
    if len(points) < 3:
        raise ValueError("need at least 3 points above the write threshold")
    v = np.array([abs(p[0]) for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.any(v <= v_th):
        raise ValueError("all amplitudes must exceed v_th")

    if np.all(y == 0.0):
        return FitResult(params={"c_amp": 0.0, "v0": math.nan}, sse=0.0,
                         iterations=0, converged=False,
                         message="all responses zero: v0 unidentifiable")

    def residuals(p: np.ndarray) -> np.ndarray:
        c_amp, v0 = p
        # Cap the exponent so extreme v0 trials stay finite.
        arg = np.minimum((v - v_th) / v0, 50.0)
        return y - c_amp * (np.exp(arg) - 1.0)

    y_top = max(float(np.max(np.abs(y))), 1e-12)
    starts = [[c0, v00] for c0 in (0.01, 0.1, y_top) for v00 in (0.5, 1.5, 4.0)]
    best = _least_squares(residuals, starts, [(1e-12, 1e6), (1e-3, 100.0)])
    c_amp, v0 = map(float, best.x)
    return FitResult(
        params={"c_amp": c_amp, "v0": v0},
        sse=float(np.sum(best.fun ** 2)), iterations=int(best.nfev),
        converged=best.status > 0, message=best.message)
