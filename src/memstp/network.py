"""Synapse-to-neuron wiring for the spike-pattern detectors.

Topologies: a sequence detector (static + memristive synapse into one IF
neuron), its passive RC control, and a two-memristor coincidence detector.
The memristive synapse injects G(t) * read_v continuously, so a facilitated
conductance elevation acts as a decaying memory trace; static pulses arriving
on top of that plateau push the membrane over threshold.

The shipped "paper operating point" is a calibration: the hardware threshold,
read bias, and resistor values are chosen so that the BA order spikes on
facilitating trials, saturating trials miss (false negatives), and high
initial-conductance facilitating trials fire on the AB order (false
positives).

A batch of trials draws one ``rng.random((trials, k))`` block: row i holds
trial i's draws, per memristive synapse the g0 jitter draw, then the mode
draw. ``monte_carlo`` seeds it with ``default_rng(seed)``, so the first N
trials of a longer run equal an N-trial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import device as dev
from . import neuron as nrn
from .device import DeviceParams, EventLabel, Mode
from .protocols import PulseTrain
from .trace import Trace

__all__ = [
    "PatternOrder",
    "PatternSpec",
    "StaticSynapse",
    "RCSynapse",
    "MemristiveSynapse",
    "Network",
    "TrialRecord",
    "build_detector",
    "run_trial",
    "monte_carlo",
    "OPERATING_POINT",
]


class PatternOrder(Enum):
    AB = "ab"
    BA = "ba"


@dataclass(frozen=True)
class PatternSpec:
    """Two three-pulse trains: A on the static synapse, B on the dynamic one.

    ``gap`` is the interval from the end of the first train to the start of
    the second. For the coincidence topology (two dynamic synapses) ``gap``
    is instead the offset between the two train starts, so gap=0 means fully
    overlapping trains.
    """

    order: PatternOrder = PatternOrder.BA
    train: PulseTrain = PulseTrain(n=3, v=-4.0, w=10e-6, t_int=0.25)
    gap: float = 0.25

    def __post_init__(self) -> None:
        if self.gap < 0.0:
            raise ValueError("gap must be >= 0")


@dataclass(frozen=True)
class StaticSynapse:
    """Fixed resistor: injects v/R only while one of its pulses is on."""

    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0.0:
            raise ValueError("resistance must be > 0")

    @property
    def g(self) -> float:
        return 1.0 / self.resistance


@dataclass(frozen=True)
class RCSynapse:
    """Resistor-capacitor control: pulse current low-passed with tau = R*C,
    plus the standing read-bias current through R."""

    resistance: float
    capacitance: float
    read_v: float = 0.0

    def __post_init__(self) -> None:
        if self.resistance <= 0.0 or self.capacitance <= 0.0:
            raise ValueError("resistance and capacitance must be > 0")

    @property
    def g(self) -> float:
        return 1.0 / self.resistance

    @property
    def tau(self) -> float:
        return self.resistance * self.capacitance


@dataclass(frozen=True)
class MemristiveSynapse:
    """Volatile memristor under a standing read bias."""

    params: DeviceParams
    read_v: float = 0.2


Synapse = Union[StaticSynapse, RCSynapse, MemristiveSynapse]


@dataclass(frozen=True)
class Network:
    topology: str
    synapses: tuple[Synapse, ...]
    neuron: nrn.NeuronParams
    dt: float = 1e-3
    g0_jitter: float = 0.0
    force_mode: Optional[Mode] = None
    include_write_charge: bool = True
    g_post_delay: float = 10e-3
    lead: float = 0.1
    tail: float = 0.5

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not self.g_post_delay > 0.0:
            raise ValueError("g_post_delay must be > 0")
        for name in ("lead", "tail", "g0_jitter"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class TrialRecord:
    pattern: PatternOrder
    spiked: bool
    membrane: Optional[Trace]
    conductance: Optional[Trace]
    label: Optional[EventLabel]
    g0: float
    mode: Optional[Mode]
    spike_times: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Paper operating point (calibrated; see module docstring).
# ---------------------------------------------------------------------------

_OP_NEURON_COMMON = dict(
    c_m=5e-8, g_l=1e-6, e_l=0.0, delta_t=0.0, v_reset=0.0, t_ref=5e-3,
)

OPERATING_POINT = {
    # Memristive synapse: fresh device per trial at g_eq0 with a uniform
    # initial-conductance jitter; non-volatile programming disabled for the
    # short detector sessions.
    "device": dict(g_eq0=3.005e-6, e0=math.inf),
    "read_v": 0.2,
    "g0_jitter": 0.012e-6,
    # Static input resistor.
    "static_resistance": 1.0 / 11.25e-6,
    # Membrane threshold (leaky-IF operating point).
    "theta_sequence": 0.613655,
    "theta_coincidence": 1.2196,
    # RC control matched to the device: R from the mean conductance,
    # R*C equal to the default volatile decay constant.
    "rc_resistance": 1.0 / 3.0e-6,
    "rc_capacitance": 0.5 * 3.0e-6,
    "dt": 1e-3,
}


def _op_neuron(theta: float) -> nrn.NeuronParams:
    return nrn.NeuronParams(v_t=theta, v_peak=theta, **_OP_NEURON_COMMON)


def build_detector(topology: str, **overrides) -> Network:
    """Build one of the named topologies at the paper operating point.

    topology: "sequence_detector", "control_rc", or "coincidence_detector".
    Keyword overrides patch the Network fields (e.g. force_mode, g0_jitter).
    """
    op = OPERATING_POINT
    device_params = DeviceParams(**{**dev.DeviceParams().__dict__, **op["device"]})
    read_v = op["read_v"]
    if topology == "sequence_detector":
        synapses: tuple[Synapse, ...] = (
            StaticSynapse(resistance=op["static_resistance"]),
            MemristiveSynapse(params=device_params, read_v=read_v),
        )
        neuron = _op_neuron(op["theta_sequence"])
        jitter = op["g0_jitter"]
    elif topology == "control_rc":
        synapses = (
            StaticSynapse(resistance=op["static_resistance"]),
            RCSynapse(resistance=op["rc_resistance"],
                      capacitance=op["rc_capacitance"], read_v=read_v),
        )
        neuron = _op_neuron(op["theta_sequence"])
        jitter = 0.0
    elif topology == "coincidence_detector":
        synapses = (
            MemristiveSynapse(params=device_params, read_v=read_v),
            MemristiveSynapse(params=device_params, read_v=read_v),
        )
        neuron = _op_neuron(op["theta_coincidence"])
        jitter = 0.0
    else:
        raise ValueError(f"unknown topology: {topology!r}")
    force_mode = Mode.FACILITATING if topology == "coincidence_detector" else None
    net = Network(topology=topology, synapses=synapses, neuron=neuron,
                  dt=op["dt"], g0_jitter=jitter, force_mode=force_mode)
    if overrides:
        net = replace(net, **overrides)
    return net


# ---------------------------------------------------------------------------
# Trial simulation
# ---------------------------------------------------------------------------

def _pulse_step_indices(times: Sequence[float], dt: float, n: int) -> list[int]:
    return [min(round(t / dt), n - 1) for t in times]


def _initial_draws(
    network: Network,
    mem_params: Sequence[DeviceParams],
    trials: int,
    rng: Optional[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Initial conductance and mode of every memristive synapse, per trial.

    Returns (g_eq0, mode) arrays of shape (synapses, trials). The draws come
    from one ``rng.random((trials, k))`` block whose row i is trial i's:
    synapse by synapse, the jitter draw, then the mode draw. ``rng=None``
    makes none: every synapse starts at its g_eq0, Facilitating unless the
    network forces a mode.
    """
    jitter = rng is not None and network.g0_jitter > 0.0
    draw_mode = rng is not None and network.force_mode is None
    per_synapse = jitter + draw_mode
    columns = iter(rng.random((trials, len(mem_params) * per_synapse)).T
                   if per_synapse else ())
    g_eq0 = np.empty((len(mem_params), trials))
    modes = np.full((len(mem_params), trials),
                    network.force_mode or Mode.FACILITATING, dtype=object)
    for row, params in enumerate(mem_params):
        g = params.g_eq0
        if jitter:
            g = np.clip(g + network.g0_jitter * (2.0 * next(columns) - 1.0),
                        params.g_min, params.g_max)
        if draw_mode:
            saturating = next(columns) < dev.p_saturating(g, params)
            modes[row, saturating] = Mode.SATURATING
        g_eq0[row] = g
    return g_eq0, modes


def _memristor_currents(
    syn: MemristiveSynapse,
    g_eq0: np.ndarray,
    modes: np.ndarray,
    pulse_times: Sequence[float],
    train: PulseTrain,
    grid: np.ndarray,
    dt: float,
    include_write_charge: bool,
    g_post_delay: float,
    g_out: Optional[np.ndarray] = None,
) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """Event-driven simulation of a batch of fresh devices, read out on the
    sample grid. Device r starts at g_eq0[r] in mode modes[r]; all see the
    same pulses.

    Returns an iterator over the grid's steps that yields every device's
    current (and fills column k of ``g_out`` with the conductances, if
    given), and the conductance of each device g_post_delay after its last
    pulse.
    """
    params = syn.params
    s = dev._values(replace(dev.initial_state(params), g_eq=g_eq0,
                            delta_g=np.zeros(g_eq0.size),
                            acc=np.zeros(g_eq0.size), mode=modes))

    # Piecewise segments: (start time, g_eq, delta_g, tau_d) after each pulse.
    segments = [(grid[0] if grid.size else 0.0, s[0], s[3], s[4])]
    write_charges: dict[int, list[np.ndarray]] = {}
    for t, k in zip(pulse_times, _pulse_step_indices(pulse_times, dt, grid.size)):
        s, _ = dev._pulse_step(s, params, t, train.v, train.w)
        g_eq, _, _, delta_g, tau_d = s[:5]
        segments.append((t, g_eq, delta_g, tau_d))
        if include_write_charge:
            charge = (g_eq + delta_g) * abs(train.v) * train.w
            write_charges.setdefault(k, []).append(charge / dt)
    g_post = dev._read(s, pulse_times[-1] + g_post_delay)

    # Sample k belongs to the latest segment whose start time <= grid[k].
    seg_starts, g_eqs, delta_gs, tau_ds = (np.array(c) for c in zip(*segments))
    which = np.clip(np.searchsorted(seg_starts, grid, side="right") - 1,
                    0, len(segments) - 1)
    relax = np.exp(-(grid - seg_starts[which]) / tau_ds[which])

    def columns() -> Iterator[np.ndarray]:
        for k, (seg, r) in enumerate(zip(which.tolist(), relax.tolist())):
            g = g_eqs[seg] + delta_gs[seg] * r
            if g_out is not None:
                g_out[:, k] = g
            current = g * syn.read_v
            for charge in write_charges.get(k, ()):
                current += charge
            yield current

    return columns(), g_post


def _static_currents(
    syn: StaticSynapse,
    pulse_times: Sequence[float],
    train: PulseTrain,
    grid: np.ndarray,
    dt: float,
) -> np.ndarray:
    current = np.zeros(grid.size)
    for k in _pulse_step_indices(pulse_times, dt, grid.size):
        current[k] += syn.g * abs(train.v) * train.w / dt
    return current


def _rc_currents(
    syn: RCSynapse,
    pulse_times: Sequence[float],
    train: PulseTrain,
    grid: np.ndarray,
    dt: float,
) -> np.ndarray:
    drive = np.zeros(grid.size)
    for k in _pulse_step_indices(pulse_times, dt, grid.size):
        drive[k] += syn.g * abs(train.v) * train.w / dt
    # First-order low-pass y' = (x - y)/tau, explicit step with a = dt/tau:
    # y[k] = a*x[k] + (1 - a)*y[k-1].
    a = dt / syn.tau
    out = np.empty(grid.size)
    y = 0.0
    for k, x in enumerate(drive.tolist()):
        y = a * x + (1.0 - a) * y
        out[k] = y
    return out + syn.g * syn.read_v


def _simulate(
    network: Network,
    pattern: PatternSpec,
    trials: int,
    rng: Optional[np.random.Generator],
    record_traces: bool,
) -> list[TrialRecord]:
    """Simulate trials 0..trials-1 on fresh networks, all as one batch.

    Static and RC synapse currents are the same in every trial and are
    computed once; memristive currents are built one time step at a time and
    fed straight to the membranes, so without ``record_traces`` memory grows
    with the trials, not with trials x steps. Row i of one ``rng`` draw
    block holds trial i's draws; ``rng=None`` draws nothing (see
    _initial_draws).
    """
    dt = network.dt
    train = pattern.train
    t_first = network.lead
    if network.topology == "coincidence_detector":
        t_second = t_first + pattern.gap
    else:
        t_second = t_first + train.duration + pattern.gap
    t_end = max(t_first, t_second) + train.duration + network.tail
    n = int(math.ceil(t_end / dt))
    grid = dt * np.arange(n)

    starts = [t_first, t_second]  # per synapse: static first, dynamic second
    if (network.topology != "coincidence_detector"
            and pattern.order is PatternOrder.BA):
        starts.reverse()

    mem_params = [s.params for s in network.synapses
                  if isinstance(s, MemristiveSynapse)]
    g_eq0, modes = _initial_draws(network, mem_params, trials, rng)
    draws = iter(zip(g_eq0, modes))
    g_trace = np.empty((trials, n)) if record_traces and mem_params else None
    sources = []  # per synapse: its current at each step
    standing_g0 = []
    first = None  # (g0, mode, g_post) of the first memristor
    for idx, syn in enumerate(network.synapses):
        times = train.pulse_times(starts[idx])
        if isinstance(syn, StaticSynapse):
            sources.append(_static_currents(syn, times, train, grid, dt))
        elif isinstance(syn, RCSynapse):
            sources.append(_rc_currents(syn, times, train, grid, dt))
        else:
            g_init, mode_init = next(draws)
            columns, g_post = _memristor_currents(
                syn, g_init, mode_init, times, train, grid, dt,
                network.include_write_charge, network.g_post_delay,
                g_out=g_trace if first is None else None)
            sources.append(columns)
            standing_g0.append(g_init * syn.read_v)
            if first is None:
                first = (g_init, mode_init, g_post)

    rc_standing = sum(
        s.g * s.read_v for s in network.synapses if isinstance(s, RCSynapse))
    standing = sum(standing_g0) + rc_standing
    v0 = np.broadcast_to(network.neuron.e_l + standing / network.neuron.g_l,
                         (trials,))
    v = np.empty((trials, n)) if record_traces else None
    total = (sum(currents) for currents in zip(*sources))  # per step
    times_out, spike_times = nrn._integrate(network.neuron, total, dt, v0, v)

    records: list[TrialRecord] = []
    for r, spikes in enumerate(spike_times):
        label = mode = None
        g0 = 0.0
        if first is not None:
            g0s, mode_row, g_post = first
            g0, mode = float(g0s[r]), mode_row[r]
            label = dev.classify_event(g0, float(g_post[r]))
        records.append(TrialRecord(
            pattern=pattern.order, spiked=bool(spikes),
            membrane=(Trace(times_out, v[r], kind="vmem")
                      if record_traces else None),
            conductance=(Trace(times_out, g_trace[r], kind="conductance")
                         if record_traces and first is not None else None),
            label=label, g0=g0, mode=mode, spike_times=tuple(spikes)))
    return records


def run_trial(
    network: Network,
    pattern: PatternSpec,
    rng: Optional[np.random.Generator] = None,
    record_traces: bool = True,
) -> TrialRecord:
    """Simulate one pattern presentation on a fresh network, on its ``dt``.

    The membrane starts from its standing-bias steady state; ``spiked`` is
    true if any spike is emitted during the trial. The trial takes the next
    draws of ``rng``, in the order of one row of a Monte-Carlo draw block.
    Without ``rng`` the memristive synapses start unjittered in Facilitating
    mode (unless the network forces a mode).
    """
    return _simulate(network, pattern, 1, rng, record_traces)[0]


def monte_carlo(
    network: Network,
    pattern: PatternSpec,
    trials: int,
    seed: int,
    record_traces: bool = False,
) -> tuple[float, list[TrialRecord]]:
    """Independent seeded trials; returns (spike fraction, per-trial records).

    All trials run as one batch. Trial i draws from row i of one
    ``default_rng(seed).random((trials, k))`` block, so it depends only on
    ``seed`` and i: the first N records of a longer run equal an N-trial run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records = _simulate(network, pattern, trials,
                        np.random.default_rng(seed), record_traces)
    p_spike = sum(r.spiked for r in records) / trials
    return p_spike, records
