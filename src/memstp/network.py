"""Synapse-to-neuron wiring for the spike-pattern detectors.

Topologies: a sequence detector (static + memristive synapse into one IF
neuron), its passive RC control, and a two-memristor coincidence detector.
The memristive synapse injects G(t) * read_v continuously, so a facilitated
conductance elevation acts as a decaying memory trace; static pulses arriving
on top of that plateau push the membrane over threshold.

One table, ``_CIRCUITS``, declares each topology once: its synapses, its
neuron's threshold, its g0 jitter and forced mode, and its trial timing, at
the "paper operating point". That is a calibration: the hardware threshold,
read bias, and resistor values are chosen so that the BA order spikes on
facilitating trials, saturating trials miss (false negatives), and high
initial-conductance facilitating trials fire on the AB order (false
positives).

A batch of trials draws one ``rng.random((trials, k))`` block: row i holds
trial i's draws, per memristive synapse the g0 jitter draw, then the mode
draw. ``monte_carlo`` seeds it with ``default_rng(seed)``, so the first N
trials of a longer run equal an N-trial run. A batch that draws nothing has
identical trials and simulates one of them. ``monte_carlo`` returns the
trials as columns, a ``TrialBatch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import device as dev
from . import neuron as nrn
from ._fields import NON_NEGATIVE, POSITIVE, checked, param
from .device import DeviceParams, Mode
from .protocols import PulseTrain, _fold_train

__all__ = [
    "PatternOrder",
    "PatternSpec",
    "StaticSynapse",
    "RCSynapse",
    "MemristiveSynapse",
    "Network",
    "TrialBatch",
    "build_detector",
    "monte_carlo",
    "TOPOLOGIES",
    "MAX_TRIAL_STEPS",
    "check_trial_steps",
]

# Trial steps (trials x steps per trial) one batch may take. The event path
# ran 1.1e9 a second (sequence detector, 200k trials of 1,850 steps, 2-CPU
# x86-64), so the bound is about 10 s of it per order; a batch's memory grows
# with its trials, about 240 MB per 1M.
MAX_TRIAL_STEPS = 10 ** 10


class PatternOrder(Enum):
    AB = "ab"
    BA = "ba"


@checked
class PatternSpec:
    """Two three-pulse trains: A on the static synapse, B on the dynamic one.

    ``gap`` is the interval from the end of the first train to the start of
    the second. For the coincidence topology (two dynamic synapses) ``gap``
    is instead the offset between the two train starts, so gap=0 means fully
    overlapping trains.
    """

    order: PatternOrder = PatternOrder.BA
    train: PulseTrain = PulseTrain(n=3, v=-4.0, w=10e-6, t_int=0.25)
    gap: float = param(0.25, NON_NEGATIVE)


@checked
class StaticSynapse:
    """Fixed resistor: injects v/R only while one of its pulses is on."""

    resistance: float = param(domain=POSITIVE)

    @property
    def g(self) -> float:
        return 1.0 / self.resistance


@checked
class RCSynapse:
    """Resistor-capacitor control: pulse current low-passed with tau = R*C,
    plus the standing read-bias current through R."""

    resistance: float = param(domain=POSITIVE)
    capacitance: float = param(domain=POSITIVE)
    read_v: float = 0.0

    @property
    def g(self) -> float:
        return 1.0 / self.resistance

    @property
    def tau(self) -> float:
        return self.resistance * self.capacitance


@checked
class MemristiveSynapse:
    """Volatile memristor under a standing read bias."""

    params: DeviceParams
    read_v: float = 0.2


Synapse = Union[StaticSynapse, RCSynapse, MemristiveSynapse]


@checked
class Network:
    """A detector: a topology of ``TOPOLOGIES``, its synapses and neuron,
    and its trials' time step and span. Only a memristive synapse reads
    ``g0_jitter``, ``force_mode``, ``include_write_charge`` and
    ``g_post_delay``, so a network without one refuses any value of them
    but the default."""

    topology: str
    synapses: tuple[Synapse, ...]
    neuron: nrn.NeuronParams
    dt: float = param(1e-3, POSITIVE)
    g0_jitter: float = param(0.0, NON_NEGATIVE)
    force_mode: Optional[Mode] = None
    include_write_charge: bool = True
    g_post_delay: float = param(10e-3, POSITIVE)
    lead: float = param(0.1, NON_NEGATIVE)
    tail: float = param(0.5, NON_NEGATIVE)

    def __post_init__(self) -> None:
        _circuit(self.topology)
        if len(self.synapses) != 2:
            raise ValueError(f"synapses must hold exactly two synapses, got "
                             f"{len(self.synapses)}")
        nrn._check_dt(self.neuron, self.dt)
        # The RC step y = a*x + (1 - a)*y, a = dt/tau, stops decaying at
        # a = 2 and grows beyond it.
        for syn in self.synapses:
            if isinstance(syn, RCSynapse) and not self.dt < 2.0 * syn.tau:
                raise ValueError(f"dt must be below 2*R*C of the RC synapse, "
                                 f"got dt={self.dt:g} s and R*C={syn.tau:g} s")
        if not any(isinstance(s, MemristiveSynapse) for s in self.synapses):
            for name in ("g0_jitter", "force_mode", "include_write_charge",
                         "g_post_delay"):
                default = self.__dataclass_fields__[name].default
                if getattr(self, name) != default:
                    raise ValueError(f"{name} must keep its default {default!r}"
                                     f": only a memristive synapse reads it")


@dataclass(frozen=True)
class TrialBatch:
    """Columnar results of a batch of trials: entry i is trial i.

    ``g0`` (0 without a memristive synapse), ``saturating`` (the drawn or
    forced mode), ``g_post`` and ``label`` (True for STP-F: g_post >= g0,
    the ``classify_event`` tie rule) describe the first memristive synapse;
    the last three are None when there is none. Trial i's spike times are
    ``spike_times[spike_offsets[i]:spike_offsets[i + 1]]``. Recorded
    (trials, steps) traces: ``membrane[:, k]`` is v at ``times[k]``, the end
    of step k; ``conductance[:, k]`` is G at ``times[k] - dt``, which drives
    step k. ``rows`` is the number of distinct simulated rows, 1 or one per
    trial: a batch that drew nothing has one row, whose results every trial
    shares, so its columns are read-only broadcasts. None, as in a batch
    built by hand, means one row per trial.
    """

    pattern: PatternOrder
    n_spikes: np.ndarray
    spike_times: np.ndarray
    spike_offsets: np.ndarray
    g0: np.ndarray
    saturating: Optional[np.ndarray]
    g_post: Optional[np.ndarray]
    label: Optional[np.ndarray]
    times: np.ndarray
    membrane: Optional[np.ndarray] = None
    conductance: Optional[np.ndarray] = None
    rows: Optional[int] = None

    def __len__(self) -> int:
        return self.n_spikes.size

    @property
    def spiked(self) -> np.ndarray:
        return self.n_spikes > 0


# ---------------------------------------------------------------------------
# The circuits at the paper operating point (calibrated; see module docstring)
# ---------------------------------------------------------------------------

class _Circuit(NamedTuple):
    """A sequential circuit starts its second train ``pattern.gap`` after
    the first ends, the dynamic synapse's first for BA; otherwise the trains
    start ``pattern.gap`` apart, whatever the order."""

    synapses: tuple[Synapse, ...]
    theta: float  # the leaky-IF neuron's threshold
    g0_jitter: float = 0.0
    force_mode: Optional[Mode] = None
    sequential: bool = True


# A fresh device per trial, read at 0.2 V, without non-volatile programming
# in the short detector sessions; the sequence detector jitters its g0.
_MEMRISTOR = MemristiveSynapse(DeviceParams(g_eq0=3.005e-6, e0=math.inf), 0.2)
_STATIC = StaticSynapse(1.0 / 11.25e-6)
_CIRCUITS = {
    "sequence_detector": _Circuit((_STATIC, _MEMRISTOR), 0.613655, 0.012e-6),
    # RC control matched to the device: R from the mean conductance, R*C
    # equal to the default volatile decay constant.
    "control_rc": _Circuit((_STATIC, RCSynapse(
        resistance=1.0 / 3.0e-6, capacitance=0.5 * 3.0e-6, read_v=0.2)),
        0.613655),
    "coincidence_detector": _Circuit((_MEMRISTOR, _MEMRISTOR), 1.2196,
                                     force_mode=Mode.FACILITATING,
                                     sequential=False),
}
TOPOLOGIES = tuple(_CIRCUITS)


def _circuit(topology: str) -> _Circuit:
    if topology not in _CIRCUITS:
        raise ValueError(f"unknown topology: {topology!r}")
    return _CIRCUITS[topology]


def build_detector(topology: str, **overrides) -> Network:
    """Build the circuit ``topology`` at the paper operating point. Keyword
    overrides patch the Network fields (e.g. force_mode, g0_jitter)."""
    c = _circuit(topology)
    neuron = nrn.NeuronParams(c_m=5e-8, g_l=1e-6, e_l=0.0, v_t=c.theta,
                              delta_t=0.0, v_peak=c.theta, v_reset=0.0,
                              t_ref=5e-3)
    return replace(Network(topology, c.synapses, neuron, g0_jitter=c.g0_jitter,
                           force_mode=c.force_mode), **overrides)


# ---------------------------------------------------------------------------
# Trial simulation
# ---------------------------------------------------------------------------

def _pulse_step_indices(times: Sequence[float], dt: float, n: int) -> list[int]:
    return [min(round(t / dt), n - 1) for t in times]


def _initial_draws(
    network: Network,
    mem_params: Sequence[DeviceParams],
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Initial conductance and mode of every memristive synapse, per trial.

    Returns (g_eq0, saturating) arrays of shape (synapses, trials). The draws
    come from one ``default_rng(seed).random((trials, k))`` block whose row
    i is trial i's: synapse by synapse, the jitter draw, then the mode
    draw. A batch that draws nothing (no memristive synapse, or no jitter
    and a forced mode) has one distinct trial, so it gets a single column:
    every synapse at its g_eq0, in the forced mode.
    """
    jitter = network.g0_jitter > 0.0
    draw_mode = network.force_mode is None
    draws = len(mem_params) * (jitter + draw_mode)
    columns = iter(np.random.default_rng(seed).random((trials, draws)).T
                   if draws else ())
    trials = trials if draws else 1
    g_eq0 = np.empty((len(mem_params), trials))
    saturating = np.full((len(mem_params), trials),
                         network.force_mode is Mode.SATURATING)
    for row, params in enumerate(mem_params):
        g = params.g_eq0
        if jitter:
            g = np.clip(g + network.g0_jitter * (2.0 * next(columns) - 1.0),
                        params.g_min, params.g_max)
        if draw_mode:
            saturating[row] = next(columns) < dev.p_saturating(g, params)
        g_eq0[row] = g
    return g_eq0, saturating


def _charge(g, train: PulseTrain, dt: float):
    """g*|v|*w/dt: one pulse's charge through ``g`` as one step's current."""
    return g * abs(train.v) * train.w / dt


class _Segment(NamedTuple):
    """The conductance g + delta_g*relax[k] of a ``_Drive`` on its steps
    lo <= k < hi, where relax falls by rho per step. g and delta_g are one
    value per row, or one float for all rows."""

    lo: int
    hi: int
    g: Union[float, np.ndarray]
    delta_g: Union[float, np.ndarray]
    rho: float


@dataclass(frozen=True)
class _Drive:
    """A synapse's current: scale*G, where G is given by smooth segments
    that cover the grid (0 if there are none), plus on each impulse's step
    its pulse charge. The step loop reads it by ``current``, the event path
    by its segments and impulses (``_pieces``). A memristor's G is its
    conductance and scale its read bias; the RC control's G is its current
    and scale 1."""

    segments: list[_Segment]
    impulses: list[tuple[int, Union[float, np.ndarray]]]  # (step, charge)
    scale: float = 0.0
    relax: Optional[np.ndarray] = None

    def conductance(self, a: int, b: int) -> np.ndarray:
        """G on the steps a..b-1 as a (b - a, rows) array."""
        g = np.zeros((b - a, np.size(self.segments[0].g if self.segments else 0)))
        for s in self.segments:
            lo, hi = max(a, s.lo), min(b, s.hi)
            if lo < hi:
                # g + delta_g*relax computed in place, on basic slices: a
                # gather over the block costs more than the arithmetic.
                piece = np.multiply(s.delta_g, self.relax[lo:hi, None],
                                    out=g[lo - a:hi - a])
                piece += s.g
        return g

    def current(self, a: int, b: int) -> np.ndarray:
        """The current on the steps a..b-1 as a (b - a, rows) array."""
        i = self.conductance(a, b)
        i *= self.scale
        for k, charge in self.impulses:
            if a <= k < b:
                i[k - a] += charge
        return i


def _pulse_drive(syn, pulse_times, train: PulseTrain, dt: float, n: int):
    """The pulses through a fixed resistor, each one's charge on its step."""
    return _Drive([], [(k, _charge(syn.g, train, dt))
                       for k in _pulse_step_indices(pulse_times, dt, n)])


def _memristor_currents(
    syn: MemristiveSynapse,
    g_eq0: np.ndarray,
    saturating: np.ndarray,
    t0: float,
    train: PulseTrain,
    grid: np.ndarray,
    dt: float,
    include_write_charge: bool,
    g_post_delay: float,
) -> tuple[_Drive, np.ndarray]:
    """Event-driven simulation of a batch of fresh devices under ``train``
    from ``t0``, read out on the sample grid. Device r starts at g_eq0[r],
    Saturating where saturating[r]; all see the same pulses.

    Returns the devices' current as a ``_Drive`` and the conductance of
    each device g_post_delay after its last pulse.
    """
    params = syn.params
    rows = g_eq0.size
    modes = np.full(rows, Mode.FACILITATING, dtype=object)
    modes[saturating] = Mode.SATURATING
    s = dev._values(replace(dev.initial_state(params), g_eq=g_eq0,
                            delta_g=np.zeros(rows), acc=np.zeros(rows),
                            mode=modes))
    states = [s, *_fold_train(s, params, train, t0)]  # fresh, then per pulse
    pulse_times = train.pulse_times(t0)
    g_post = dev._read(states[-1], pulse_times[-1] + g_post_delay)
    # State j is read on the samples edges[j]:edges[j + 1]; of it the run
    # keeps only (g_eq, delta_g) and exp(-(t - t_last)/tau_d) per sample.
    edges = [0, *np.searchsorted(grid, pulse_times).tolist(), grid.size]
    spans = list(zip(edges, edges[1:]))
    # A tau_d so short that (t - t_last)/tau_d overflows reads as fully
    # relaxed, as in ``device.conductance``.
    with np.errstate(over="ignore"):
        relax = np.concatenate([np.exp(-(grid[lo:hi] - s[7]) / s[4])
                                for s, (lo, hi) in zip(states, spans)])
    # Each pulse's write charge, through the conductance right after it,
    # lands on its step.
    impulses = ([(k, _charge(s[0] + s[3], train, dt)) for k, s in
                 zip(_pulse_step_indices(pulse_times, dt, grid.size),
                     states[1:])] if include_write_charge else [])
    segments = [_Segment(lo, hi, s[0], s[3], math.exp(-dt / s[4]))
                for s, (lo, hi) in zip(states, spans)]
    return _Drive(segments, impulses, syn.read_v, relax), g_post


def _rc_drive(syn: RCSynapse, pulse_times, train: PulseTrain, dt: float,
              n: int) -> _Drive:
    """The RC control's current: its pulses low-passed by the explicit step
    y[k] = a*x[k] + (1 - a)*y[k-1], a = dt/tau, plus g*read_v. Between pulse
    steps y falls by 1 - a per step, so each such span is one segment."""
    a = dt / syn.tau
    relax = np.empty(n)
    y = 0.0
    for k, x in enumerate(_pulse_drive(syn, pulse_times, train, dt, n)
                          .current(0, n)[:, 0].tolist()):
        y = a * x + (1.0 - a) * y
        relax[k] = y
    edges = sorted({0, n, *_pulse_step_indices(pulse_times, dt, n)})
    return _Drive([_Segment(lo, hi, syn.g * syn.read_v, 1.0, 1.0 - a)
                   for lo, hi in zip(edges, edges[1:])], [], 1.0, relax)


def _pieces(drives: Sequence[_Drive],
            n: int) -> Optional[Iterator[nrn.Piece]]:
    """The summed current of ``drives`` on the grid of ``n`` steps as the
    membrane's pieces, each built when the membrane reaches it.

    Breakpoints are the segment edges and the impulse steps; an impulse
    step's current is the drives' summed ``current`` of that step, in
    synapse order, as the step loop sums it. None if a piece holds two
    decay rates, or if a rate is not positive.
    """
    impulses = {k for d in drives for k, _ in d.impulses}
    edges = sorted({0, n, *impulses, *(k + 1 for k in impulses),
                    *(s.lo for d in drives for s in d.segments)})
    # Per piece: (drive, segment) of each segment that holds it.
    spans = [(lo, hi, [(d, s) for d in drives for s in d.segments
                       if s.lo <= lo < s.hi])
             for lo, hi in zip(edges, edges[1:])]
    # The closed form takes log(rho); an RC step dt/tau >= 1 has rho <= 0.
    if any(s.rho <= 0.0 for d in drives for s in d.segments) or any(
            len({s.rho for _, s in held if np.any(s.delta_g)}) > 1
            for lo, _, held in spans if lo not in impulses):
        return None

    def piece(lo: int, hi: int, held: list) -> nrn.Piece:
        if lo in impulses:
            return nrn.Piece(lo, hi, sum(d.current(lo, hi) for d in drives)[0])
        a = [d.scale * s.g for d, s in held]
        decaying = [(d, s) for d, s in held if np.any(s.delta_g)]
        b = [s.delta_g * (d.scale * d.relax[lo]) for d, s in decaying]
        return nrn.Piece(lo, hi, sum(a[1:], a[0]) if a else 0.0,
                         sum(b[1:], b[0]) if b else 0.0,
                         decaying[0][1].rho if decaying else 1.0)

    # One piece at a time: a generator frame keeps no piece's arrays.
    return (piece(*span) for span in spans)


def _grid_text(network: Network, pattern: PatternSpec, t_end: float) -> str:
    """The fields that set a trial's grid, for a message."""
    return (f"network.dt={network.dt:g} s over {t_end:g} s, the span set by "
            f"network.lead={network.lead:g} s, pattern.gap={pattern.gap:g} s, "
            f"network.tail={network.tail:g} s and trains "
            f"{pattern.train.duration:g} s long")


def _time_grid(network: Network, pattern: PatternSpec,
               t_end: float) -> np.ndarray:
    """The sample grid dt*k of a trial, k < ceil(t_end/dt), once
    ``check_trial_steps`` has bounded the step count."""
    steps = t_end / network.dt
    try:
        return network.dt * np.arange(math.ceil(steps))
    except MemoryError as exc:
        raise MemoryError(f"cannot allocate a trial grid of {steps:.4g} steps "
                          f"of {_grid_text(network, pattern, t_end)}") from exc


def _trial_span(network: Network,
                pattern: PatternSpec) -> tuple[float, float, float]:
    """Start of the first and of the second train of a trial, and its end."""
    train = pattern.train
    sequential = _circuit(network.topology).sequential
    t_first = network.lead
    t_second = t_first + (train.duration if sequential else 0.0) + pattern.gap
    t_end = max(t_first, t_second) + train.duration + network.tail
    return t_first, t_second, t_end


def check_trial_steps(network: Network, pattern: PatternSpec,
                      trials: int) -> None:
    """Refuse a batch of more than MAX_TRIAL_STEPS trial steps: ``trials``
    times the ceil(t_end/dt) steps of one trial's grid."""
    t_end = _trial_span(network, pattern)[2]
    steps = t_end / network.dt
    if steps <= MAX_TRIAL_STEPS:
        steps = math.ceil(steps)
    if not trials * steps <= MAX_TRIAL_STEPS:
        raise ValueError(
            f"trials * steps per trial must be at most {MAX_TRIAL_STEPS:.0e}, "
            f"got {trials} trials of {steps:g} steps of "
            f"{_grid_text(network, pattern, t_end)}")


def monte_carlo(
    network: Network,
    pattern: PatternSpec,
    trials: int,
    seed: int,
    record_traces: bool = False,
) -> tuple[float, TrialBatch]:
    """Independent seeded trials on fresh networks, all as one batch;
    returns (spike fraction, trial columns).

    Trial i draws from row i of one ``default_rng(seed).random((trials,
    k))`` block, so it depends only on ``seed`` and i: the first N trials of
    a longer run equal an N-trial run. A batch that draws nothing (see
    _initial_draws) simulates one row and gives every trial its results.
    Each synapse's current is a ``_Drive``; the step loop asks each for
    blocks of steps, so without ``record_traces`` memory grows with the
    trials, not with trials x steps. A leaky batch of many rows without
    traces gives the membranes the drives as ``_pieces`` instead, for
    ``neuron._integrate_events``; the rows that fail its certificate get
    their drives rebuilt from their own draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_trial_steps(network, pattern, trials)
    dt = network.dt
    train = pattern.train
    t_first, t_second, t_end = _trial_span(network, pattern)
    grid = _time_grid(network, pattern, t_end)
    n = grid.size

    # Per synapse: static first, dynamic second; a sequential BA swaps them.
    starts = [t_first, t_second]
    if (_circuit(network.topology).sequential
            and pattern.order is PatternOrder.BA):
        starts.reverse()

    mem_params = [s.params for s in network.synapses
                  if isinstance(s, MemristiveSynapse)]
    g_eq0, saturating = _initial_draws(network, mem_params, trials, seed)
    rows = g_eq0.shape[1]

    def synapses(g_eq0, saturating):
        """The summed current(a, b) of the rows drawn as (g_eq0, saturating),
        each synapse's ``_Drive`` and (g0, saturating, g_post, drive) of the
        first memristor.
        """
        draws = iter(zip(g_eq0, saturating))
        drives = []  # per synapse
        first = None
        for idx, syn in enumerate(network.synapses):
            times = train.pulse_times(starts[idx])
            if isinstance(syn, MemristiveSynapse):
                g_init, sat_init = next(draws)
                drive, g_post = _memristor_currents(
                    syn, g_init, sat_init, starts[idx], train, grid, dt,
                    network.include_write_charge, network.g_post_delay)
                if first is None:
                    first = (g_init, sat_init, g_post, drive)
            elif isinstance(syn, RCSynapse):
                drive = _rc_drive(syn, times, train, dt, n)
            else:
                drive = _pulse_drive(syn, times, train, dt, n)
            drives.append(drive)
        return (lambda a, b: sum(d.current(a, b) for d in drives), drives,
                first)

    current, drives, first = synapses(g_eq0, saturating)
    # Before its first pulse a synapse passes scale*g of its first segment.
    standing = sum(d.scale * d.segments[0].g for d in drives if d.segments)
    g0, sat, g_post, mem = first or (np.zeros(rows), None, None, None)
    g_trace = mem.conductance(0, n).T if record_traces and mem else None
    v0 = np.broadcast_to(network.neuron.e_l + standing / network.neuron.g_l,
                         (rows,))
    v = np.empty((rows, n)) if record_traces else None
    pieces = None
    if not record_traces and rows > 1 and network.neuron.delta_t == 0.0:
        pieces = _pieces(drives, n)
    if pieces is None:
        times_out, spike_times, offsets = nrn._integrate(
            network.neuron, current, n, dt, v0, v)
    else:
        times_out, spike_times, offsets = nrn._integrate_events(
            network.neuron, pieces, n, dt, v0,
            lambda r: synapses(g_eq0[:, r], saturating[:, r])[0])

    n_spikes = np.diff(offsets)
    if rows < trials:  # one distinct trial: every trial is row 0
        spike_times = np.tile(spike_times, trials)
        offsets = n_spikes[0] * np.arange(trials + 1)

    def column(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if a is None or rows == trials:
            return a
        return np.broadcast_to(a, (trials,) + a.shape[1:])

    batch = TrialBatch(
        pattern=pattern.order, n_spikes=column(n_spikes),
        spike_times=spike_times, spike_offsets=offsets, g0=column(g0),
        saturating=column(sat), g_post=column(g_post),
        label=column(None if first is None else g_post >= g0),
        times=times_out, membrane=column(v), conductance=column(g_trace),
        rows=rows)
    return int(np.count_nonzero(batch.n_spikes)) / trials, batch
