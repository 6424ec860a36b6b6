"""memstp: volatile-memristor short-term plasticity simulation toolkit."""

__version__ = "0.4.0"

from . import device, fitting, network, neuron, protocols, tm

__all__ = [
    "device",
    "fitting",
    "network",
    "neuron",
    "protocols",
    "tm",
    "__version__",
]
