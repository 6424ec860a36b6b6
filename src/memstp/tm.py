"""Reduced Tsodyks-Markram synapse: closed-form peaks of a spike train.

Between spikes the utilization u decays to zero with tau_f and the resource
pool x recovers to one with tau_rec; at a spike, u jumps by u_cap*(1-u), the
efficacy peak a*u+*x is emitted, and x is depleted by the post-jump u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fields import POSITIVE, check, param

__all__ = [
    "TMParams",
    "peaks_for_train",
    "peaks_with_jacobian",
]


@dataclass(frozen=True)
class TMParams:
    a: float = param(1.0, POSITIVE)
    u_cap: float = param(0.2, ("be in [0, 1]", lambda u: 0.0 <= u <= 1.0))
    tau_rec: float = param(0.05, POSITIVE)
    tau_f: float = param(0.5, POSITIVE)

    def __post_init__(self) -> None:
        check(self)


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
    # Plain-float fold of the relaxation and spike maps: the first spike
    # sees dt = 0, where exp(0) = 1 leaves the rest state exactly as it is.
    # The state's sensitivities ride along; u does not depend on tau_rec.
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
