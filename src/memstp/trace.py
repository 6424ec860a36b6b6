"""Time-stamped sample series shared by the simulation modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Trace"]


@dataclass
class Trace:
    """A sampled signal: times in seconds plus values of one kind.

    ``kind`` names what the values are ("conductance", "vmem", ...); the
    code that writes a trace to CSV names its columns itself.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "value"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
