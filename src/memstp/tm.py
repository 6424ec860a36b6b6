"""Reduced Tsodyks-Markram synapse: closed-form peaks of a spike train.

Between spikes the utilization u decays to zero with tau_f and the resource
pool x recovers to one with tau_rec; at a spike, u jumps by u_cap*(1-u), the
efficacy peak a*u+*x is emitted, and x is depleted by the post-jump u.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._fields import POSITIVE, checked, param

__all__ = [
    "TMParams",
    "peaks_for_train",
    "peaks_with_jacobian",
]


@checked
class TMParams:
    a: float = param(1.0, POSITIVE)
    u_cap: float = param(0.2, ("be in [0, 1]", lambda u: 0.0 <= u <= 1.0))
    tau_rec: float = param(0.05, POSITIVE)
    tau_f: float = param(0.5, POSITIVE)


def peaks_for_train(params: TMParams, spike_times: Sequence[float]) -> list[float]:
    """Efficacy peaks for a spike train, starting from rest (u=0, x=1)."""
    peaks, _ = peaks_with_jacobian([params.u_cap], [params.tau_rec],
                                   [params.tau_f], spike_times, a=params.a)
    return peaks[0].tolist()


def peaks_with_jacobian(
    u_cap: Sequence[float],
    tau_rec: Sequence[float],
    tau_f: Sequence[float],
    spike_times: Sequence[float],
    a: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Peaks for a spike train from rest, one row per parameter set, plus
    their Jacobian with respect to (u_cap, tau_rec, tau_f).

    ``u_cap``, ``tau_rec`` and ``tau_f`` are equal-length sequences, one
    entry per row; ``a`` scales every row. Returns (rows, n) peaks and a
    (rows, n, 3) Jacobian, carried forward through the fold over spikes.

    Each row is one fold on Python floats: a fit evaluates a dozen rows or
    fewer, where a numpy call per map costs more than the arithmetic. The
    arrays keep the memory layout of a fold with rows side by side (spike
    index outermost), since the fit's sums depend on it in the last bit.
    """
    # Floats once: arithmetic on numpy scalars, which a CSV column yields,
    # costs several times more.
    times = [float(t) for t in spike_times]
    for earlier, later in zip(times, times[1:]):
        if later <= earlier:
            raise ValueError("spike times must be strictly increasing")
    params = [np.asarray(p, dtype=float).tolist()
              for p in (u_cap, tau_rec, tau_f)]
    n, rows = len(times), len(params[0])
    # The first spike sees dt = 0, where exp(0) = 1 leaves the rest state
    # exactly as it is. The exponentials are libm's (math.exp), so the peaks
    # equal a one-spike-at-a-time fold of the same maps exactly.
    steps = [t - prev for prev, t in zip(times[:1] + times, times)]
    peaks = [0.0] * (n * rows)
    jac = [0.0] * (n * 3 * rows)
    exp = math.exp
    for row, (u_cap_r, tau_rec_r, tau_f_r) in enumerate(zip(*params)):
        # The state and its sensitivities; u does not depend on tau_rec.
        u, x = 0.0, 1.0
        u_c = u_f = x_c = x_r = x_f = 0.0
        keep = 1.0 - u_cap_r
        at = row
        for dt in steps:
            e_f = exp(-dt / tau_f_r)
            e_r = exp(-dt / tau_rec_r)
            u_f = u_f * e_f + u * (e_f * dt / tau_f_r / tau_f_r)
            u_c = u_c * e_f
            u = u * e_f
            spent = 1.0 - x
            x_r = x_r * e_r - spent * (e_r * dt / tau_rec_r / tau_rec_r)
            x_c = x_c * e_r
            x_f = x_f * e_r
            x = 1.0 - spent * e_r
            rest = 1.0 - u
            u_c = u_c * keep + rest
            u_f = u_f * keep
            u = u + u_cap_r * rest
            peaks[at] = a * u * x
            j = 3 * at - 2 * row
            jac[j] = a * (u_c * x + u * x_c)
            jac[j + rows] = a * (u * x_r)
            jac[j + 2 * rows] = a * (u_f * x + u * x_f)
            rest = 1.0 - u
            x_c = x_c * rest - x * u_c
            x_r = x_r * rest
            x_f = x_f * rest - x * u_f
            x = x * rest
            at += rows
    return (np.array(peaks).reshape(n, rows).T,
            np.array(jac).reshape(n, 3, rows).transpose(2, 0, 1))
