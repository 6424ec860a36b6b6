"""memstp: volatile-memristor short-term plasticity simulation toolkit."""

__version__ = "0.3.0"

from . import device, fitting, network, neuron, protocols, tm
from .trace import Trace

__all__ = [
    "device",
    "fitting",
    "network",
    "neuron",
    "protocols",
    "tm",
    "Trace",
    "__version__",
]
