"""The batched trial simulation against a frozen per-trial reference.

``reference_run_trial`` and ``reference_memristor_currents`` are the
one-trial-at-a-time implementation that ``network.monte_carlo`` used before
trials were batched, kept here as the oracle; each reference trial is a
``RefTrial``. Every column of the batch (g0, mode, label, spike counts and
times, both traces) must equal the reference trial by trial, for every
topology, for the off-operating-point settings that reach its per-trial
mask branches, and across the edges of its blocks of steps.
``reference_monte_carlo`` feeds one seeded generator to the reference
trials in trial order, which is the draw order of the batch's draw block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import pytest

from memstp import device as dev
from memstp import network as net
from memstp import neuron as nrn
from memstp.device import DeviceParams, EventLabel, Mode, Pulse
from memstp.network import (
    MemristiveSynapse,
    PatternOrder,
    PatternSpec,
    RCSynapse,
    StaticSynapse,
    build_detector,
)
from memstp.protocols import PulseTrain


# ---------------------------------------------------------------------------
# Frozen per-trial reference
# ---------------------------------------------------------------------------


@dataclass
class RefTrial:
    """One reference trial. ``membrane`` and ``conductance`` are sampled at
    ``times`` and are None unless traces were recorded."""

    pattern: PatternOrder
    spiked: bool
    times: np.ndarray
    membrane: Optional[np.ndarray]
    conductance: Optional[np.ndarray]
    label: Optional[EventLabel]
    g0: float
    mode: Optional[Mode]
    spike_times: tuple[float, ...] = ()


def reference_memristor_currents(
    syn: MemristiveSynapse,
    params: DeviceParams,
    pulse_times: Sequence[float],
    train: PulseTrain,
    grid: np.ndarray,
    dt: float,
    include_write_charge: bool,
    rng: Optional[np.random.Generator],
    force_mode: Optional[Mode],
    g_post_delay: float,
) -> tuple[np.ndarray, np.ndarray, float, Mode, EventLabel]:
    state = dev.initial_state(params)
    g0 = dev.conductance(state)
    if force_mode is not None:
        state = replace(state, mode=force_mode)
    elif rng is not None:
        state = dev.resample_mode_for_train(state, params, pulse_times[0], rng)
    mode = state.mode

    segments = [(grid[0] if grid.size else 0.0, state.g_eq, 0.0, state.tau_d)]
    write_charges: list[tuple[float, float]] = []
    for t in pulse_times:
        state, _ = dev.apply_pulse(
            state, params, Pulse(t=t, v=train.v, w=train.w))
        segments.append((t, state.g_eq, state.delta_g, state.tau_d))
        write_charges.append((t, dev.conductance(state) * abs(train.v) * train.w))

    g_series = np.empty_like(grid)
    seg_starts = np.array([s[0] for s in segments])
    which = np.clip(np.searchsorted(seg_starts, grid, side="right") - 1,
                    0, len(segments) - 1)
    for i, (t0, g_eq, delta_g, tau_d) in enumerate(segments):
        sel = which == i
        if np.any(sel):
            g_series[sel] = g_eq + delta_g * np.exp(-(grid[sel] - t0) / tau_d)

    current = g_series * syn.read_v
    if include_write_charge:
        for t, charge in write_charges:
            k = min(round(t / dt), grid.size - 1)
            current[k] += charge / dt

    t_post = pulse_times[-1] + g_post_delay
    state = dev.decay_to(state, params, t_post)
    label = dev.classify_event(g0, dev.conductance(state))
    return current, g_series, g0, mode, label


def reference_pulses(syn, pulse_times, train, grid, dt) -> np.ndarray:
    """Each pulse's charge through the fixed ``syn.g`` as a current on the
    grid step nearest its time."""
    drive = np.zeros(grid.size)
    for t in pulse_times:
        k = min(round(t / dt), grid.size - 1)
        drive[k] += syn.g * abs(train.v) * train.w / dt
    return drive


def reference_run_trial(
    network: net.Network,
    pattern: PatternSpec,
    rng: Optional[np.random.Generator] = None,
    dt: Optional[float] = None,
    record_traces: bool = True,
) -> RefTrial:
    dt = network.dt if dt is None else dt
    train = pattern.train
    t_a = network.lead
    if network.topology == "coincidence_detector":
        t_first, t_second = t_a, t_a + pattern.gap
    else:
        t_second = t_a + train.duration + pattern.gap
        t_first = t_a
    t_end = max(t_first, t_second) + train.duration + network.tail
    n = int(math.ceil(t_end / dt))
    grid = dt * np.arange(n)

    if network.topology == "coincidence_detector":
        starts = [t_first, t_second]
    elif pattern.order is PatternOrder.AB:
        starts = [t_first, t_second]
    else:
        starts = [t_second, t_first]

    total = np.zeros(n)
    g_trace: Optional[np.ndarray] = None
    g0_out = 0.0
    mode_out: Optional[Mode] = None
    label_out: Optional[EventLabel] = None
    standing_g0 = []
    for idx, syn in enumerate(network.synapses):
        times = train.pulse_times(starts[idx])
        if isinstance(syn, MemristiveSynapse):
            params = syn.params
            if network.g0_jitter > 0.0 and rng is not None:
                g_jit = params.g_eq0 + network.g0_jitter * (2.0 * rng.random() - 1.0)
                g_jit = min(max(g_jit, params.g_min), params.g_max)
                params = replace(params, g_eq0=g_jit)
            current, g_series, g0, mode, label = reference_memristor_currents(
                syn, params, times, train, grid, dt,
                network.include_write_charge, rng, network.force_mode,
                network.g_post_delay)
            total += current
            standing_g0.append(g0 * syn.read_v)
            if g_trace is None:
                g_trace, g0_out, mode_out, label_out = g_series, g0, mode, label
        elif isinstance(syn, StaticSynapse):
            total += reference_pulses(syn, times, train, grid, dt)
        else:
            # The RC control's explicit low-pass step y' = (x - y)/tau.
            x = reference_pulses(syn, times, train, grid, dt)
            a = dt / syn.tau
            y = 0.0
            for k in range(n):
                y = a * x[k] + (1.0 - a) * y
                total[k] += y + syn.g * syn.read_v

    standing = sum(standing_g0) + sum(
        s.g * s.read_v for s in network.synapses if isinstance(s, RCSynapse))
    v0 = network.neuron.e_l + standing / network.neuron.g_l
    times_out, (v,), (spike_times,) = nrn.run_traces(
        network.neuron, total[None], dt, v0=v0)

    membrane = v if record_traces else None
    conductance = g_trace if record_traces else None
    return RefTrial(
        pattern=pattern.order, spiked=bool(spike_times), times=times_out,
        membrane=membrane, conductance=conductance, label=label_out,
        g0=g0_out, mode=mode_out, spike_times=tuple(spike_times))


def reference_monte_carlo(network, pattern, trials, seed, record_traces=True):
    rng = np.random.default_rng(seed)
    return [reference_run_trial(network, pattern, rng=rng,
                                record_traces=record_traces)
            for _ in range(trials)]


def assert_batch_matches(batch: net.TrialBatch,
                         want: Sequence[RefTrial]) -> None:
    """Every column of ``batch`` equals the trials ``want``, trial by trial."""
    assert len(batch) == len(want)
    assert all(w.pattern is batch.pattern for w in want)
    assert all(np.array_equal(batch.times, w.times) for w in want)
    assert batch.spiked.tolist() == [w.spiked for w in want]
    assert batch.g0.tolist() == [w.g0 for w in want]
    if want[0].mode is None:
        assert batch.saturating is None and batch.g_post is None
        assert batch.label is None
    else:
        assert [Mode.SATURATING if s else Mode.FACILITATING
                for s in batch.saturating.tolist()] == [w.mode for w in want]
        assert [EventLabel.STP_F if f else EventLabel.STP_S
                for f in batch.label.tolist()] == [w.label for w in want]
        assert np.array_equal(batch.label, batch.g_post >= batch.g0)
    assert batch.n_spikes.tolist() == [len(w.spike_times) for w in want]
    offsets = batch.spike_offsets
    assert offsets[0] == 0 and np.array_equal(np.diff(offsets), batch.n_spikes)
    assert [batch.spike_times[a:b].tolist()
            for a, b in zip(offsets[:-1], offsets[1:])] == [
        list(w.spike_times) for w in want]
    for name in ("membrane", "conductance"):
        column = getattr(batch, name)
        if getattr(want[0], name) is None:
            assert column is None
            continue
        assert column.shape == (len(want), batch.times.size)
        for row, w in zip(column, want):
            assert np.array_equal(row, getattr(w, name))


def assert_batch_prefix(short: net.TrialBatch, long: net.TrialBatch) -> None:
    """``short`` equals the first len(short) trials of ``long``, column by
    column."""
    n = len(short)
    assert short.pattern is long.pattern
    assert np.array_equal(short.times, long.times)
    for name in ("n_spikes", "g0", "saturating", "g_post", "label",
                 "membrane", "conductance"):
        a, b = getattr(short, name), getattr(long, name)
        assert (a is None and b is None) or np.array_equal(a, b[:n])
    assert np.array_equal(short.spike_offsets, long.spike_offsets[:n + 1])
    assert np.array_equal(short.spike_times,
                          long.spike_times[:short.spike_offsets[-1]])


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def with_device(network: net.Network, **device_fields) -> net.Network:
    """Patch the DeviceParams of every memristive synapse."""
    return replace(network, synapses=tuple(
        replace(s, params=replace(s.params, **device_fields))
        if isinstance(s, MemristiveSynapse) else s
        for s in network.synapses))


def rc_beside_memristor(tau: float = 0.5) -> net.Network:
    """The RC control, with time constant ``tau``, beside a jittered
    memristor that never writes (4 V pulses under v_th) and the coincidence
    neuron: many rows whose pieces hold only the RC's decay rate."""
    control = build_detector("control_rc")
    rc = control.synapses[1]
    return replace(
        control, g0_jitter=0.2e-6,
        synapses=(replace(rc, capacitance=tau / rc.resistance),
                  with_device(build_detector("sequence_detector"),
                              v_th=5.0).synapses[1]),
        neuron=build_detector("coincidence_detector").neuron)


@pytest.mark.parametrize("tau", [0.5e-3, 0.3e-3, 0.15e-3])
def test_network_refuses_an_rc_step_that_does_not_decay(tau):
    # At dt = 1 ms, a = dt/tau >= 2 in the RC step y = a*x + (1 - a)*y: at
    # tau = 0.3 ms monte_carlo overflowed instead.
    with pytest.raises(ValueError, match=r"^dt must be below 2\*R\*C"):
        rc_beside_memristor(tau)


CASES = {
    "sequence": lambda: build_detector("sequence_detector"),
    "control": lambda: build_detector("control_rc"),
    "coincidence": lambda: build_detector("coincidence_detector"),
    # Finite barrier: saturating trials cross at the second pulse, the
    # others at the third.
    "barrier": lambda: with_device(build_detector("sequence_detector"),
                                   e0=0.5e-9),
    "barrier_polarity": lambda: with_device(
        build_detector("sequence_detector"), e0=0.5e-9,
        polarity_sensitive=True),
    "forced_saturating": lambda: build_detector(
        "sequence_detector", force_mode=Mode.SATURATING),
    "no_write_charge": lambda: build_detector(
        "sequence_detector", include_write_charge=False),
    "half_dt": lambda: build_detector("sequence_detector", dt=5e-4),
    # Jitter wider than [g_min, g_max] clamps some initial conductances.
    "clamped_jitter": lambda: build_detector("sequence_detector",
                                             g0_jitter=0.8e-6),
    # Two drawn synapses: the jitter and mode draws of both share a stream.
    "coincidence_drawn": lambda: with_device(
        build_detector("coincidence_detector", force_mode=None,
                       g0_jitter=0.02e-6), e0=0.5e-9),
    # Overlapping trains (gap 0 below): both memristors decay at one rate,
    # so the event path sums their decaying currents.
    "coincidence_overlap": lambda: CASES["coincidence_drawn"](),
    # Draw nothing, like control and coincidence: one simulated row.
    "forced_unjittered": lambda: build_detector(
        "sequence_detector", force_mode=Mode.SATURATING, g0_jitter=0.0),
    "unjittered_facilitating": lambda: build_detector(
        "sequence_detector", force_mode=Mode.FACILITATING, g0_jitter=0.0),
    "rc_memristor": lambda: rc_beside_memristor(),
    # An RC step dt/tau = 1.25: its current alternates in sign, which the
    # event path's closed form cannot take, so the step loop runs it.
    "rc_fast_memristor": lambda: rc_beside_memristor(tau=0.8e-3),
}


def check_against_reference(case, order, traces):
    network = CASES[case]()
    trials = 37
    pattern = PatternSpec(order=order)
    if case == "barrier_polarity":
        # Positive pulses: the polarity-sensitive step depresses.
        pattern = replace(pattern, train=replace(pattern.train, v=4.0))
    if case == "coincidence_overlap":
        pattern = replace(pattern, gap=0.0)
    p_spike, got = net.monte_carlo(network, pattern, trials, seed=11,
                                   record_traces=traces)
    want = reference_monte_carlo(network, pattern, trials, seed=11,
                                 record_traces=traces)
    assert_batch_matches(got, want)
    assert type(p_spike) is float
    assert p_spike == sum(w.spiked for w in want) / trials


@pytest.mark.parametrize("order", [PatternOrder.AB, PatternOrder.BA])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_monte_carlo_matches_per_trial_reference(case, order):
    check_against_reference(case, order, traces=True)


@pytest.mark.parametrize("order", [PatternOrder.AB, PatternOrder.BA])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_without_traces_matches_per_trial_reference(case, order):
    # Many-row leaky batches without traces take the event path.
    check_against_reference(case, order, traces=False)


@pytest.mark.parametrize("order, trials", [(PatternOrder.AB, 300),
                                           (PatternOrder.BA, 330)])
def test_block_edges_match_per_trial_reference(order, trials):
    # At dt = 0.5 ms these batches make 27- and 24-step blocks: some blocks
    # span two segments, and a write-charge step falls on a block's first or
    # last step.
    network = build_detector("sequence_detector", dt=5e-4)
    pattern = PatternSpec(order=order)
    step = nrn._block_steps(trials)
    p_spike, got = net.monte_carlo(network, pattern, trials, seed=5,
                                   record_traces=True)
    start = network.lead
    if order is PatternOrder.AB:
        start += pattern.train.duration + pattern.gap
    pulses = pattern.train.pulse_times(start)
    writes = net._pulse_step_indices(pulses, network.dt, got.times.size)
    grid = network.dt * np.arange(got.times.size)
    segment = np.searchsorted(pulses, grid, side="right")
    seg_edges = np.flatnonzero(np.diff(segment)) + 1
    assert any(k % step in (0, step - 1) for k in writes)
    assert any(k % step for k in seg_edges)
    want = reference_monte_carlo(network, pattern, trials, seed=5)
    assert_batch_matches(got, want)
    assert p_spike == sum(w.spiked for w in want) / trials


@pytest.mark.parametrize("case", ["control", "coincidence",
                                  "forced_unjittered"])
def test_batch_without_draws_gives_every_trial_one_row(case, monkeypatch):
    network = CASES[case]()
    pattern = PatternSpec(order=PatternOrder.BA)
    rows = []
    integrate = nrn._integrate

    def counting_integrate(params, current, steps, dt, v0, v_out=None):
        rows.append(v0.size)
        return integrate(params, current, steps, dt, v0, v_out)

    monkeypatch.setattr(nrn, "_integrate", counting_integrate)
    _, got = net.monte_carlo(network, pattern, 25, seed=3, record_traces=True)
    assert rows == [1]
    want = reference_run_trial(network, pattern)
    assert_batch_matches(got, [want] * 25)


@pytest.mark.parametrize("order", [PatternOrder.AB, PatternOrder.BA])
def test_sequence_batch_without_traces_takes_the_event_path(order,
                                                           monkeypatch):
    # The step loop runs only the rows that fail the event path's
    # certificate, on their own current, never all 1000 rows.
    network = build_detector("sequence_detector")
    pattern = PatternSpec(order=order)
    _, want = net.monte_carlo(network, pattern, 1000, seed=7,
                              record_traces=True)
    rows = []
    integrate = nrn._integrate

    def counting_integrate(params, current, steps, dt, v0, v_out=None):
        rows.append(v0.size)
        return integrate(params, current, steps, dt, v0, v_out)

    monkeypatch.setattr(nrn, "_integrate", counting_integrate)
    _, got = net.monte_carlo(network, pattern, 1000, seed=7)
    assert len(rows) <= 1 and sum(rows) < 10
    for name in ("n_spikes", "spike_offsets", "spike_times", "g0",
                 "saturating", "g_post", "label"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.membrane is None and got.conductance is None


@pytest.mark.parametrize("order", [PatternOrder.AB, PatternOrder.BA])
def test_rows_failing_the_certificate_run_on_their_own_current(order,
                                                               monkeypatch):
    # A 1 mV certificate margin fails about a third of the rows; the step
    # loop runs them on currents built from their own draws.
    network = build_detector("sequence_detector")
    pattern = PatternSpec(order=order)
    trials = 200
    _, want = net.monte_carlo(network, pattern, trials, seed=3,
                              record_traces=True)
    calls = []
    integrate = nrn._integrate

    def recording_integrate(params, current, steps, dt, v0, v_out=None):
        calls.append(current(0, steps))
        return integrate(params, current, steps, dt, v0, v_out)

    monkeypatch.setattr(nrn, "_EPS", 1e-3)
    monkeypatch.setattr(nrn, "_integrate", recording_integrate)
    _, got = net.monte_carlo(network, pattern, trials, seed=3)
    (current,) = calls
    assert current.shape[0] == want.times.size
    assert trials // 10 < current.shape[1] < trials // 2
    for name in ("n_spikes", "spike_offsets", "spike_times"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("order", [PatternOrder.AB, PatternOrder.BA])
@pytest.mark.parametrize("case", ["sequence", "coincidence_overlap",
                                  "rc_memristor"])
def test_pieces_rebuild_the_step_loop_current(case, order, monkeypatch):
    # The event path's pieces against current(0, n) of the same batch, the
    # step loop's current of every row: a smooth piece's a + b*rho**j to
    # rounding, an impulse piece bit for bit.
    network = CASES[case]()
    pattern = PatternSpec(order=order,
                          gap=0.0 if case == "coincidence_overlap" else 0.25)
    seen = {}
    integrate_events = nrn._integrate_events

    def capturing(params, pieces, steps, dt, v0, current_of):
        seen["pieces"] = list(pieces)
        seen["current"] = current_of(np.arange(v0.size))(0, steps)
        return integrate_events(params, iter(seen["pieces"]), steps, dt, v0,
                                current_of)

    monkeypatch.setattr(nrn, "_integrate_events", capturing)
    net.monte_carlo(network, pattern, 37, seed=11)
    current = seen["current"]
    assert current.shape[1] == 37
    end = 0
    for piece in seen["pieces"]:
        assert piece.lo == end < piece.hi
        end = piece.hi
        want = current[piece.lo:piece.hi]
        if piece.rho is None:
            assert piece.hi == piece.lo + 1
            assert np.array_equal(np.broadcast_to(piece.a, want[0].shape),
                                  want[0])
        else:
            j = np.arange(piece.hi - piece.lo)[:, None]
            got = piece.a + piece.b * piece.rho ** j
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert end == current.shape[0]
    assert any(p.rho is None for p in seen["pieces"])
    assert any(np.any(p.b) for p in seen["pieces"] if p.rho is not None)


@pytest.mark.parametrize("case", ["sequence", "coincidence_drawn"])
def test_monte_carlo_prefix_independent_of_trial_count(case):
    # Trial i reads row i of one seeded draw block, so a shorter run is the
    # prefix of a longer one.
    network = CASES[case]()
    pattern = PatternSpec(order=PatternOrder.BA)
    _, short = net.monte_carlo(network, pattern, 40, seed=11)
    _, long = net.monte_carlo(network, pattern, 100, seed=11)
    assert len(short) == 40 and len(long) == 100
    assert_batch_prefix(short, long)


@pytest.mark.parametrize("v", [0.0, 0.5, -4.0])
@pytest.mark.parametrize("case", ["unjittered_facilitating", "control",
                                  "coincidence", "forced_unjittered"])
def test_one_trial_without_draws_matches_reference(case, v):
    # The reference without a generator starts every memristor unjittered
    # and Facilitating unless a mode is forced: the trial of a network that
    # draws nothing.
    network = CASES[case]()
    pattern = PatternSpec(train=PulseTrain(n=3, v=v, w=10e-6, t_int=0.25))
    _, got = net.monte_carlo(network, pattern, 1, seed=0, record_traces=True)
    assert_batch_matches(got, [reference_run_trial(network, pattern)])


def test_one_trial_matches_reference_with_draws_and_dt():
    network = build_detector("sequence_detector")
    pattern = PatternSpec()
    _, got = net.monte_carlo(replace(network, dt=5e-4), pattern, 1, seed=4)
    want = reference_run_trial(network, pattern, rng=np.random.default_rng(4),
                               dt=5e-4, record_traces=False)
    assert_batch_matches(got, [want])


def test_barrier_case_crosses_at_different_pulses():
    # Guards the "barrier" case above: at some pulse, the barrier branch
    # must be taken by some trials and not by others.
    network = CASES["barrier"]()
    syn = network.synapses[1]
    crossed = []
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = syn.params.g_eq0 + network.g0_jitter * (2.0 * rng.random() - 1.0)
        params = replace(syn.params, g_eq0=g)
        state = dev.resample_mode_for_train(dev.initial_state(params), params,
                                            0.1, rng)
        hits = []
        for t in PatternSpec().train.pulse_times(0.1):
            state, _ = dev.apply_pulse(state, params, Pulse(t=t, v=-4.0, w=1e-5))
            hits.append(state.acc == 0.0)
        crossed.append(tuple(hits))
    assert len(set(crossed)) > 1


# ---------------------------------------------------------------------------
# RC synapse low-pass
# ---------------------------------------------------------------------------


def reference_rc_lowpass(syn: RCSynapse, pulse_times, train, grid, dt):
    drive = reference_pulses(syn, pulse_times, train, grid, dt)
    y = np.empty_like(drive)
    acc = 0.0
    a = dt / syn.tau
    for k in range(drive.size):
        acc += a * (drive[k] - acc)
        y[k] = acc
    return y + syn.g * syn.read_v


@pytest.mark.parametrize("tau_scale", [0.05, 1.0, 20.0])
def test_rc_drive_matches_explicit_step_loop(tau_scale):
    dt = 1e-3
    # read_v = 0 leaves only the filtered pulses, so rtol bites on them.
    syn = RCSynapse(resistance=1.0 / 3.0e-6,
                    capacitance=tau_scale * 0.5 * 3.0e-6, read_v=0.0)
    train = PulseTrain(n=4, v=-4.0, w=10e-6, t_int=0.2)
    grid = dt * np.arange(1900)
    times = list(train.pulse_times(0.1)) + [0.1]  # two pulses in one step
    got = net._rc_drive(syn, times, train, dt, grid.size).current(
        0, grid.size)[:, 0]
    want = reference_rc_lowpass(syn, times, train, grid, dt)
    assert np.all(want[200:] > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
