"""Time-stamped sample series shared by the simulation modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Trace"]

_COLUMN_NAMES = {
    "conductance": "conductance_S",
    "vmem": "vmem_V",
    "current": "current_A",
    "voltage": "voltage_V",
}


@dataclass
class Trace:
    """A sampled signal: times in seconds plus values of one kind.

    ``kind`` picks the CSV column name ("conductance", "vmem", "current",
    "voltage", or anything else for a generic value column).
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "value"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")

    @property
    def column_name(self) -> str:
        return _COLUMN_NAMES.get(self.kind, self.kind)
