"""The batched trial simulation against a frozen per-trial reference.

``reference_run_trial`` and ``reference_memristor_currents`` are the
one-trial-at-a-time implementation that ``network.monte_carlo`` used before
trials were batched, kept here unchanged as the oracle. The batch must give
identical ``TrialRecord``s, traces included, for every topology and for the
off-operating-point settings that reach its per-trial mask branches.
``reference_monte_carlo`` feeds one seeded generator to the reference trials
in trial order, which is the draw order of the batch's draw block.
"""

from __future__ import annotations

import math
from dataclasses import replace
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
    TrialRecord,
    build_detector,
)
from memstp.protocols import PulseTrain
from memstp.trace import Trace


# ---------------------------------------------------------------------------
# Frozen per-trial reference
# ---------------------------------------------------------------------------


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


def reference_run_trial(
    network: net.Network,
    pattern: PatternSpec,
    rng: Optional[np.random.Generator] = None,
    dt: Optional[float] = None,
    record_traces: bool = True,
) -> TrialRecord:
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
            total += net._static_currents(syn, times, train, grid, dt)
        else:
            total += net._rc_currents(syn, times, train, grid, dt)

    standing = sum(standing_g0) + sum(
        s.g * s.read_v for s in network.synapses if isinstance(s, RCSynapse))
    v0 = network.neuron.e_l + standing / network.neuron.g_l
    times_out, v, spike_times = nrn.run_trace(network.neuron, total, dt, v0=v0)

    membrane = Trace(times_out, v, kind="vmem") if record_traces else None
    conductance = (
        Trace(times_out, g_trace, kind="conductance")
        if record_traces and g_trace is not None else None)
    return TrialRecord(
        pattern=pattern.order, spiked=bool(spike_times), membrane=membrane,
        conductance=conductance, label=label_out, g0=g0_out, mode=mode_out,
        spike_times=tuple(spike_times))


def reference_monte_carlo(network, pattern, trials, seed):
    rng = np.random.default_rng(seed)
    return [reference_run_trial(network, pattern, rng=rng)
            for _ in range(trials)]


def assert_same_trace(a: Optional[Trace], b: Optional[Trace]) -> None:
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.kind == b.kind
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.values, b.values)


def assert_same_record(got: TrialRecord, want: TrialRecord) -> None:
    assert got.pattern is want.pattern
    assert got.spiked is want.spiked
    assert got.label is want.label
    assert got.mode is want.mode
    assert type(got.g0) is type(want.g0) and got.g0 == want.g0
    assert got.spike_times == want.spike_times
    assert all(type(t) is float for t in got.spike_times)
    assert_same_trace(got.membrane, want.membrane)
    assert_same_trace(got.conductance, want.conductance)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def with_device(network: net.Network, **device_fields) -> net.Network:
    """Patch the DeviceParams of every memristive synapse."""
    return replace(network, synapses=tuple(
        replace(s, params=replace(s.params, **device_fields))
        if isinstance(s, MemristiveSynapse) else s
        for s in network.synapses))


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
    # Jitter wider than [g_min, g_max] clamps some initial conductances.
    "clamped_jitter": lambda: build_detector("sequence_detector",
                                             g0_jitter=0.8e-6),
    # Two drawn synapses: the jitter and mode draws of both share a stream.
    "coincidence_drawn": lambda: with_device(
        build_detector("coincidence_detector", force_mode=None,
                       g0_jitter=0.02e-6), e0=0.5e-9),
}


@pytest.mark.parametrize("order", [PatternOrder.AB, PatternOrder.BA])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_monte_carlo_matches_per_trial_reference(case, order):
    network = CASES[case]()
    trials = 37
    pattern = PatternSpec(order=order)
    if case == "barrier_polarity":
        # Positive pulses: the polarity-sensitive step depresses.
        pattern = replace(pattern, train=replace(pattern.train, v=4.0))
    p_spike, got = net.monte_carlo(network, pattern, trials, seed=11,
                                   record_traces=True)
    want = reference_monte_carlo(network, pattern, trials, seed=11)
    assert len(got) == trials
    for g, w in zip(got, want):
        assert_same_record(g, w)
    assert p_spike == sum(w.spiked for w in want) / trials


@pytest.mark.parametrize("case", ["sequence", "coincidence_drawn"])
def test_monte_carlo_prefix_independent_of_trial_count(case):
    # Trial i reads row i of one seeded draw block, so a shorter run is the
    # prefix of a longer one.
    network = CASES[case]()
    pattern = PatternSpec(order=PatternOrder.BA)
    _, short = net.monte_carlo(network, pattern, 40, seed=11)
    _, long = net.monte_carlo(network, pattern, 100, seed=11)
    for g, w in zip(short, long[:40]):
        assert_same_record(g, w)


@pytest.mark.parametrize("v", [0.0, 0.5, -4.0])
def test_run_trial_matches_reference_without_rng(v):
    network = build_detector("sequence_detector")
    pattern = PatternSpec(train=PulseTrain(n=3, v=v, w=10e-6, t_int=0.25))
    assert_same_record(net.run_trial(network, pattern),
                       reference_run_trial(network, pattern))


def test_run_trial_matches_reference_with_rng_and_dt():
    network = build_detector("sequence_detector")
    pattern = PatternSpec()
    got = net.run_trial(replace(network, dt=5e-4), pattern,
                        rng=np.random.default_rng(4), record_traces=False)
    want = reference_run_trial(network, pattern, rng=np.random.default_rng(4),
                               dt=5e-4, record_traces=False)
    assert_same_record(got, want)


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
    drive = np.zeros(grid.size)
    for k in net._pulse_step_indices(pulse_times, dt, grid.size):
        drive[k] += syn.g * abs(train.v) * train.w / dt
    y = np.empty_like(drive)
    acc = 0.0
    a = dt / syn.tau
    for k in range(drive.size):
        acc += a * (drive[k] - acc)
        y[k] = acc
    return y + syn.g * syn.read_v


@pytest.mark.parametrize("tau_scale", [0.05, 1.0, 20.0])
def test_rc_lfilter_matches_explicit_step_loop(tau_scale):
    dt = 1e-3
    # read_v = 0 leaves only the filtered pulses, so rtol bites on them.
    syn = RCSynapse(resistance=1.0 / 3.0e-6,
                    capacitance=tau_scale * 0.5 * 3.0e-6, read_v=0.0)
    train = PulseTrain(n=4, v=-4.0, w=10e-6, t_int=0.2)
    grid = dt * np.arange(1900)
    times = list(train.pulse_times(0.1)) + [0.1]  # two pulses in one step
    got = net._rc_currents(syn, times, train, grid, dt)
    want = reference_rc_lowpass(syn, times, train, grid, dt)
    assert np.all(want[200:] > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
