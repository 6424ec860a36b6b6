"""Parameter estimation: decay fits, plus TM and amplitude-law fits by
variable projection.

Both the TM peaks and the amplitude law scale linearly with their amplitude
(a, c_amp). That scale is solved in closed form at every trial of the other
parameters (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973), which a
bounded Levenberg-Marquardt loop in numpy searches with the exact Jacobian
of the projected residual. All starts of a small multi-start grid advance
together, one row each of a batch, and the lowest-cost row wins."""

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
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    y: np.ndarray,
    starts: Sequence[Sequence[float]],
    bounds: Sequence[tuple[float, float]],
    names: Sequence[str],
    log: Sequence[bool],
) -> FitResult:
    """Fit y ~ c * f(theta), with c solved in closed form (variable projection).

    ``model`` maps a (rows, k) array of theta to (rows, n) f and its
    (rows, n, k) derivative df/dtheta, and ``bounds`` bound theta. The scale
    c is bounded relative to the data, to [1e-12, 1e6 * max(y, 1e-12)]; at
    each theta it is the clipped projection c = f.y / f.f, so only theta is
    searched, with the exact Jacobian of the projected residual. The data
    are divided by their largest magnitude so the tolerances do not depend
    on their units.

    Every start is one row of a batched Levenberg-Marquardt loop, searched in
    log coordinates where ``log`` is set. A row's step solves
    (J'J + lam * D) s = -J'r over its free coordinates, with D the diagonal
    of J'J (Marquardt's scaling) kept at its running maximum, which forgets
    5% per step. The step is clipped to the box, and a coordinate at a bound
    whose gradient points out of the box is held there. Each row has its own
    damping lam (Nielsen's update) and stops on its own: converged when each
    free Jacobian column is orthogonal to the residual (cosine at most 1e-8),
    when the cost stops falling or when the step stops moving (each to
    1e-8), and not converged after 400 evaluations. The row with the lowest cost wins,
    and ``iterations`` counts its evaluations.
    """
    scale = float(np.max(np.abs(y))) or 1.0
    y_s = y / scale
    c_lo = 1e-12 / scale
    c_hi = 1e6 * max(float(np.max(y_s)), c_lo)
    log = np.array(log, dtype=bool)
    t_lo, t_hi = np.array(bounds, dtype=float).T

    def search(theta: np.ndarray) -> np.ndarray:
        z = np.array(theta, dtype=float)
        z[..., log] = np.log(z[..., log])
        return z

    def theta_of(z: np.ndarray) -> np.ndarray:
        theta = z.copy()
        theta[:, log] = np.exp(z[:, log])
        return np.clip(theta, t_lo, t_hi)

    def evaluate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta = theta_of(z)
        f, df = model(theta)
        df[:, :, log] *= theta[:, None, log]
        ff = np.einsum("rn,rn->r", f, f)
        c_raw = f @ y_s / ff
        c = np.clip(c_raw, c_lo, c_hi)
        r = y_s - c[:, None] * f
        jac = -c[:, None, None] * df
        # d c / d theta; a scale held at its bound has no derivative.
        dc = (np.einsum("rnk,rn->rk", df, r)
              - c[:, None] * np.einsum("rnk,rn->rk", df, f)) / ff[:, None]
        jac -= np.where((c == c_raw)[:, None, None],
                        f[:, :, None] * dc[:, None, :], 0.0)
        return r, jac, np.einsum("rn,rn->r", r, r)

    lo, hi = search(t_lo), search(t_hi)
    z = np.clip(search(starts), lo, hi)
    rows, k = z.shape
    r, jac, cost = evaluate(z)
    nfev = np.ones(rows, dtype=int)
    lam, nu = np.ones(rows), np.full(rows, 2.0)
    scaling = np.zeros((rows, k))
    status = np.zeros(rows, dtype=int)  # 0 running, 1 converged, -1 capped
    eye = np.eye(k)
    while (run := np.flatnonzero(status == 0)).size:
        zr, rr, jr, cr = z[run], r[run], jac[run], cost[run]
        g = np.einsum("rnk,rn->rk", jr, rr)
        a = np.einsum("rnk,rnl->rkl", jr, jr)
        scaling[run] = np.maximum(0.95 * scaling[run],
                                  np.diagonal(a, axis1=1, axis2=2))
        d = np.where(scaling[run] > 0.0, scaling[run], 1.0)
        held = ((zr <= lo) & (g > 0.0)) | ((zr >= hi) & (g < 0.0))
        g = np.where(held, 0.0, g)
        # Largest cosine between the residual and a free Jacobian column.
        done = (np.max(np.abs(g) / np.sqrt(d), axis=1)
                <= 1e-8 * np.sqrt(cr))
        status[run[done]] = 1
        run, zr, cr, g, a, d, held = (
            v[~done] for v in (run, zr, cr, g, a, d, held))
        m = np.where(held[:, :, None] | held[:, None, :], eye,
                     a + lam[run, None, None] * d[:, :, None] * eye)
        z_new = np.clip(zr - np.linalg.solve(m, g[:, :, None])[:, :, 0],
                        lo, hi)
        step = z_new - zr
        r_new, jac_new, cost_new = evaluate(z_new)
        nfev[run] += 1
        fall = cr - cost_new
        predicted = -2.0 * np.einsum("rk,rk->r", g, step) - np.einsum(
            "rk,rkl,rl->r", step, a, step)
        ratio = fall / np.where(predicted > 0.0, predicted, np.inf)
        ok = fall > 0.0
        took = run[ok]
        z[took], r[took], jac[took], cost[took] = (
            z_new[ok], r_new[ok], jac_new[ok], cost_new[ok])
        lam[took] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio[ok] - 1.0) ** 3)
        nu[took] = 2.0
        lam[run[~ok]] *= nu[run[~ok]]
        nu[run[~ok]] *= 2.0
        status[run[(ok & (fall <= 1e-8 * cr) & (ratio > 0.25))
                   | (np.linalg.norm(step, axis=1)
                      <= 1e-8 * (1e-8 + np.linalg.norm(zr, axis=1)))]] = 1
        status[run[(status[run] == 0) & (nfev[run] >= 400)]] = -1
    best = int(np.argmin(cost))
    theta = theta_of(z[best:best + 1])
    f = model(theta)[0][0]
    c = min(max(float(f @ y_s / (f @ f)), c_lo), c_hi) * scale
    # Residuals beyond sqrt of the largest float give an SSE of inf.
    with np.errstate(over="ignore"):
        sse = float(np.sum((y - c * f) ** 2))
    converged = bool(status[best] == 1)
    return FitResult(
        params=dict(zip(names, (c, *map(float, theta[0])))),
        sse=sse, iterations=int(nfev[best]), converged=converged,
        message="" if converged else "evaluation cap of 400 reached")


def fit_decay(
    times: Sequence[float],
    values: Sequence[float],
    g_eq: float,
) -> FitResult:
    """Fit G(t) = g_eq + amplitude * exp(-t/tau_d) by log-linear regression.

    Samples at or below the baseline are excluded; fewer than 3 usable
    samples, or usable samples at fewer than 2 distinct times, is a failure.
    """
    def failed(message: str) -> FitResult:
        return FitResult(params={"tau_d": math.nan, "amplitude": math.nan},
                         sse=0.0, iterations=0, converged=False,
                         message=message)

    t = np.asarray(times, dtype=float)
    g = np.asarray(values, dtype=float)
    resid = g - g_eq
    usable = resid > 0.0
    if int(np.count_nonzero(usable)) < 3:
        return failed("fewer than 3 samples above baseline")
    t_u, ln_r = t[usable], np.log(resid[usable])
    if t_u.min() == t_u.max():
        return failed("fewer than 2 distinct times above baseline")
    # Regress on t / max|t| so the regression never squares a huge time.
    t_scale = float(np.max(np.abs(t_u))) or 1.0
    slope, intercept = np.polyfit(t_u / t_scale, ln_r, 1)
    slope /= t_scale
    if slope >= 0.0:
        return failed("non-decaying residual")
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
    (u_cap, tau_rec, tau_f), and the batched Levenberg-Marquardt loop of
    ``_least_squares`` searches u_cap and the logarithms of the two time
    constants with the exact Jacobian of :func:`tm.peaks_with_jacobian`,
    which refuses spike times that do not rise from spike to spike.
    Starts: u_cap in {0.1, 0.5, 0.9} crossed with four fast/slow
    (tau_rec, tau_f) pairs; all 12 run to convergence as one batch.
    ``FitResult.iterations`` counts the function evaluations of the winning
    start.
    """
    pk = np.asarray(peaks, dtype=float)
    ts = list(spike_times)
    if pk.size != len(ts) or pk.size < 2:
        raise ValueError("need equal-length peaks and spike_times, >= 2")
    if not (np.all(np.isfinite(pk)) and np.all(np.isfinite(ts))):
        raise ValueError("peaks and spike_times must be finite")

    def model(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return tm.peaks_with_jacobian(*theta.T, ts)

    bounds = [(1e-3, 1.0), (1e-3, 100.0), (1e-3, 100.0)]
    # tau_rec = 2 s: with slow recovery, starts from the faster pairs alone
    # can all end in one local minimum above the true parameters' SSE.
    starts = [[u0, tau_rec0, tau_f0] for u0 in (0.1, 0.5, 0.9)
              for tau_rec0, tau_f0 in ((0.05, 0.5), (0.5, 0.05), (0.02, 1.0),
                                       (2.0, 0.5))]
    res = _least_squares(model, pk, starts, bounds,
                         ("a", "u_cap", "tau_rec", "tau_f"), (False, True, True))
    if float(np.ptp(pk)) <= 1e-12 * max(float(np.max(pk)), 1e-12):
        res.converged = False
        res.message = "peaks constant: time constants unidentifiable"
    return res


def _amplitude_law(dv: np.ndarray, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(dv/v0) - 1 and its derivative in v0. The exponent is capped at 50
    so extreme v0 trials stay finite; where the cap holds, f ignores v0."""
    arg = dv / v0
    capped = np.minimum(arg, 50.0)
    e = np.exp(capped)
    return e - 1.0, np.where(arg < 50.0, -e * capped / v0, 0.0)


def fit_amplitude_curve(
    points: Sequence[tuple[float, float]], v_th: float = 1.0
) -> FitResult:
    """Fit dG_norm(v) = c_amp * (exp((|v| - v_th)/v0) - 1) to (v, dG) points.

    c_amp is solved in closed form at every v0, at most 1e6 times the
    largest response, so the batched Levenberg-Marquardt loop of
    ``_least_squares`` searches log v0 alone, from v0 in {0.5, 1.5, 4.0}.
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
        f, df = _amplitude_law(v - v_th, theta)
        return f, df[:, :, None]

    return _least_squares(model, y, [[0.5], [1.5], [4.0]], [(1e-3, 100.0)],
                          ("c_amp", "v0"), (True,))
