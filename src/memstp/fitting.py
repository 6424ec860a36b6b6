"""Parameter estimation: decay fits, plus TM and amplitude-law fits by
variable projection.

Both the TM peaks and the amplitude law scale linearly with their amplitude
(a, c_amp). That scale is solved in closed form at every trial of the other
parameters, which bounded TRF least squares (scipy) searches from a small
multi-start grid with the exact Jacobian of the projected residual
(Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973). A grid of more than three
starts is staged: each start takes a short probe, and only the three
lowest-cost probes run on to convergence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    least-squares start, its probe included when the starts were staged;
    closed-form fits report 0.
    """

    params: dict[str, float]
    sse: float
    iterations: int
    converged: bool
    message: str = ""

    def __post_init__(self) -> None:
        if self.sse < 0.0:
            raise ValueError("sse must be >= 0")


# The staged multi-start of _least_squares.
_PROBE_NFEV = 10  # evaluations every start gets before the cut
_KEEP_STARTS = 3  # lowest-cost probes that run on to convergence


def _least_squares(
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    y: np.ndarray,
    starts: Sequence[Sequence[float]],
    bounds: Sequence[tuple[float, float]],
    names: Sequence[str],
) -> FitResult:
    """Fit y ~ c * f(theta), with c solved in closed form (variable projection).

    ``model(theta)`` returns f and df/dtheta; ``bounds[0]`` bounds the linear
    scale c and the rest bound theta. At each theta the scale is the clipped
    projection c = f.y / f.f, so bounded TRF least squares (scipy) searches
    theta alone, with the exact Jacobian of the projected residual. The data
    are divided by their largest magnitude so TRF's tolerances do not depend
    on their units.

    With at most ``_KEEP_STARTS`` starts, each runs to convergence and the
    lowest cost wins. With more, the multi-start is staged: every start runs
    ``_PROBE_NFEV`` evaluations, and only the ``_KEEP_STARTS`` probes with the
    lowest cost continue from where they stopped, to convergence. The
    reported ``iterations`` are the winner's probe plus continuation
    evaluations.
    """
    # Imported here so that only the fits load scipy.
    from scipy.optimize import least_squares

    (c_lo, c_hi), *theta_bounds = bounds
    scale = float(np.max(np.abs(y))) or 1.0
    y_s = y / scale
    cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def projected(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # scipy asks for the residual and the Jacobian at each accepted point
        # in separate calls; both come from one model evaluation.
        key = theta.tobytes()
        if key not in cache:
            f, df = model(theta)
            ff = f @ f
            c_raw = (f @ y_s) / ff
            c = min(max(c_raw, c_lo / scale), c_hi / scale)
            r = y_s - c * f
            jac = -c * df
            if c == c_raw:  # a scale held at its bound has no derivative
                jac -= np.outer(f, (df.T @ r - c * (df.T @ f)) / ff)
            cache.clear()
            cache[key] = (r, jac)
        return cache[key]

    lo, hi = zip(*theta_bounds)

    def trf(start, max_nfev):
        return least_squares(lambda th: projected(th)[0], start,
                             jac=lambda th: projected(th)[1], bounds=(lo, hi),
                             method="trf", x_scale="jac", max_nfev=max_nfev)

    probe_nfev = [0] * len(starts)
    if len(starts) > _KEEP_STARTS:
        probes = sorted((trf(s, _PROBE_NFEV) for s in starts),
                        key=lambda r: r.cost)[:_KEEP_STARTS]
        starts = [p.x for p in probes]
        probe_nfev = [p.nfev for p in probes]
    best, spent = min(((trf(start, 4000), n) for start, n
                       in zip(starts, probe_nfev)), key=lambda run: run[0].cost)
    f, _ = model(best.x)
    c = min(max(float(f @ y / (f @ f)), c_lo), c_hi)
    return FitResult(
        params=dict(zip(names, (c, *map(float, best.x)))),
        sse=float(np.sum((y - c * f) ** 2)), iterations=int(spent + best.nfev),
        converged=best.status > 0, message=best.message)


def fit_decay(
    times: Sequence[float],
    values: Sequence[float],
    g_eq: float,
) -> FitResult:
    """Fit G(t) = g_eq + amplitude * exp(-t/tau_d) by log-linear regression.

    Samples at or below the baseline are excluded; fewer than 3 usable
    samples, or usable samples at fewer than 2 distinct times, is a failure.
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
    if t_u.min() == t_u.max():
        return FitResult(params={"tau_d": math.nan, "amplitude": math.nan},
                         sse=0.0, iterations=0, converged=False,
                         message="fewer than 2 distinct times above baseline")
    # Regress on t / max|t| so the regression never squares a huge time.
    t_scale = float(np.max(np.abs(t_u))) or 1.0
    slope, intercept = np.polyfit(t_u / t_scale, ln_r, 1)
    slope /= t_scale
    if slope >= 0.0:
        return FitResult(params={"tau_d": math.nan, "amplitude": math.nan},
                         sse=0.0, iterations=0, converged=False,
                         message="non-decaying residual")
    tau_d = -1.0 / slope
    amplitude = math.exp(intercept)
    # Residuals beyond sqrt of the largest float give an SSE of inf.
    with np.errstate(over="ignore"):
        sse = float(np.sum((resid[usable] - amplitude * np.exp(-t_u / tau_d))
                           ** 2))
    return FitResult(params={"tau_d": float(tau_d), "amplitude": amplitude},
                     sse=sse, iterations=0, converged=True)


def fit_tm(peaks: Sequence[float], spike_times: Sequence[float]) -> FitResult:
    """Least-squares fit of the TM peak map to measured peaks.

    The peaks scale linearly with a, so a is solved in closed form at every
    (u_cap, tau_rec, tau_f), and bounded TRF least squares (scipy) searches
    those three with the exact Jacobian of :func:`tm.peaks_with_jacobian`.
    Starts: u_cap in {0.1, 0.5, 0.9} crossed with four fast/slow
    (tau_rec, tau_f) pairs. Each of the 12 starts is probed with 10
    evaluations, and the 3 lowest-cost probes run on to convergence.
    ``FitResult.iterations`` counts the function evaluations of the winning
    start, probe plus continuation.
    """
    pk = np.asarray(peaks, dtype=float)
    ts = list(spike_times)
    if pk.size != len(ts) or pk.size < 2:
        raise ValueError("need equal-length peaks and spike_times, >= 2")
    if not (np.all(np.isfinite(pk)) and np.all(np.isfinite(ts))):
        raise ValueError("peaks and spike_times must be finite")
    for earlier, later in zip(ts, ts[1:]):
        if later <= earlier:
            raise ValueError("spike times must be strictly increasing")

    def model(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u_cap, tau_rec, tau_f = theta
        f, df = tm.peaks_with_jacobian(
            tm.TMParams(a=1.0, u_cap=u_cap, tau_rec=tau_rec, tau_f=tau_f), ts)
        return f, df[:, 1:]

    a_hi = max(float(np.max(pk)), 1e-12)
    bounds = [(1e-12, 1e6 * a_hi), (1e-3, 1.0), (1e-3, 100.0), (1e-3, 100.0)]
    # tau_rec = 2 s: with slow recovery, starts from the faster pairs alone
    # can all end in one local minimum above the true parameters' SSE.
    starts = [[u0, tau_rec0, tau_f0] for u0 in (0.1, 0.5, 0.9)
              for tau_rec0, tau_f0 in ((0.05, 0.5), (0.5, 0.05), (0.02, 1.0),
                                       (2.0, 0.5))]
    res = _least_squares(model, pk, starts, bounds,
                         ("a", "u_cap", "tau_rec", "tau_f"))
    if float(np.ptp(pk)) <= 1e-12 * a_hi:
        res.converged = False
        res.message = "peaks constant: time constants unidentifiable"
    return res


def _amplitude_law(dv: np.ndarray, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(dv/v0) - 1 and its derivative in v0. The exponent is capped at 50
    so extreme v0 trials stay finite; where the cap holds, f ignores v0."""
    arg = dv / v0
    e = np.exp(np.minimum(arg, 50.0))
    return e - 1.0, np.where(arg < 50.0, -e * arg / v0, 0.0)


def fit_amplitude_curve(
    points: Sequence[tuple[float, float]], v_th: float = 1.0
) -> FitResult:
    """Fit dG_norm(v) = c_amp * (exp((|v| - v_th)/v0) - 1) to (v, dG) points.

    c_amp is solved in closed form at every v0, so bounded TRF least squares
    (scipy) searches v0 alone, from v0 in {0.5, 1.5, 4.0}.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points above the write threshold")
    v = np.array([abs(p[0]) for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(y))):
        raise ValueError("amplitudes and responses must be finite")
    if np.any(v <= v_th):
        raise ValueError("all amplitudes must exceed v_th")

    if np.all(y == 0.0):
        return FitResult(params={"c_amp": 0.0, "v0": math.nan}, sse=0.0,
                         iterations=0, converged=False,
                         message="all responses zero: v0 unidentifiable")

    def model(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, df = _amplitude_law(v - v_th, theta[0])
        return f, df[:, None]

    return _least_squares(model, y, [[0.5], [1.5], [4.0]],
                          [(1e-12, 1e6), (1e-3, 100.0)], ("c_amp", "v0"))
