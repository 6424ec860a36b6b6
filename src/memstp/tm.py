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
    (rows, n, 3) Jacobian, carried forward through the loop over spikes.
    """
    times = list(spike_times)
    for earlier, later in zip(times, times[1:]):
        if later <= earlier:
            raise ValueError("spike times must be strictly increasing")
    u_cap, tau_rec, tau_f = (np.asarray(p, dtype=float)
                             for p in (u_cap, tau_rec, tau_f))
    n, rows = len(times), u_cap.size
    # The first spike sees dt = 0, where exp(0) = 1 leaves the rest state
    # exactly as it is. The exponentials are libm's (math.exp): numpy's SIMD
    # exp can round differently in the last bit, and the peaks must equal a
    # one-spike-at-a-time fold of the same maps exactly.
    dt = np.diff(np.array(times[:1] + times, dtype=float))
    e_f, e_r = (np.array([[math.exp(-step / t) for t in tau.tolist()]
                          for step in dt.tolist()]).reshape(n, rows)
                for tau in (tau_f, tau_rec))
    # d e / d tau of each relaxation factor.
    de_f = e_f * dt[:, None] / tau_f / tau_f
    de_r = e_r * dt[:, None] / tau_rec / tau_rec
    # Fold of the relaxation and spike maps over spikes, rows side by side.
    # The state's sensitivities ride along; u does not depend on tau_rec.
    peaks = np.empty((n, rows))
    jac = np.empty((n, 3, rows))
    u, x = np.zeros(rows), np.ones(rows)
    u_c, u_f, x_c, x_r, x_f = np.zeros((5, rows))
    for i in range(n):
        u_f = u_f * e_f[i] + u * de_f[i]
        u_c = u_c * e_f[i]
        u = u * e_f[i]
        spent = 1.0 - x
        x_r = x_r * e_r[i] - spent * de_r[i]
        x_c = x_c * e_r[i]
        x_f = x_f * e_r[i]
        x = 1.0 - spent * e_r[i]
        rest = 1.0 - u
        u_c = u_c * (1.0 - u_cap) + rest
        u_f = u_f * (1.0 - u_cap)
        u = u + u_cap * rest
        peaks[i] = a * u * x
        jac[i, 0] = u_c * x + u * x_c
        jac[i, 1] = u * x_r
        jac[i, 2] = u_f * x + u * x_f
        rest = 1.0 - u
        x_c = x_c * rest - x * u_c
        x_r = x_r * rest
        x_f = x_f * rest - x * u_f
        x = x * rest
    return peaks.T, a * jac.transpose(2, 0, 1)
