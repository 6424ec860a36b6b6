import math
import re
from dataclasses import replace

import numpy as np
import pytest

from memstp import device as dev
from memstp import network
from memstp.device import DeviceParams, Mode, Pulse
from memstp.network import (
    MemristiveSynapse,
    Network,
    PatternOrder,
    PatternSpec,
    RCSynapse,
    StaticSynapse,
    build_detector,
    monte_carlo,
)
from memstp.protocols import PulseTrain


# ---------------------------------------------------------------------------
# build_detector
# ---------------------------------------------------------------------------


def test_sequence_topology_shape():
    n = build_detector("sequence_detector")
    assert len(n.synapses) == 2
    assert isinstance(n.synapses[0], StaticSynapse)
    assert isinstance(n.synapses[1], MemristiveSynapse)


def test_control_topology_shape():
    n = build_detector("control_rc")
    assert isinstance(n.synapses[0], StaticSynapse)
    assert isinstance(n.synapses[1], RCSynapse)
    assert not any(isinstance(s, MemristiveSynapse) for s in n.synapses)


def test_coincidence_topology_shape():
    n = build_detector("coincidence_detector")
    assert len(n.synapses) == 2
    assert all(isinstance(s, MemristiveSynapse) for s in n.synapses)


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        build_detector("perceptron")
    # A Network with a misspelt topology used to run with the sequence timing.
    net = build_detector("sequence_detector")
    with pytest.raises(ValueError, match="^unknown topology: 'sequnce_detector'$"):
        Network(topology="sequnce_detector", synapses=net.synapses,
                neuron=net.neuron)
    with pytest.raises(ValueError, match="^unknown topology: 'perceptron'$"):
        replace(net, topology="perceptron")


def test_topologies_build_their_circuits():
    assert network.TOPOLOGIES == ("sequence_detector", "control_rc",
                                  "coincidence_detector")
    for topology in network.TOPOLOGIES:
        assert build_detector(topology).topology == topology


# ---------------------------------------------------------------------------
# Single trials: networks that draw nothing have one outcome
# ---------------------------------------------------------------------------


def deterministic_net(**overrides):
    return build_detector("sequence_detector", g0_jitter=0.0,
                          force_mode=Mode.FACILITATING, **overrides)


def one_trial(network, pattern, record_traces=False):
    """The outcome of a network that draws nothing, as a 1-trial batch."""
    _, batch = monte_carlo(network, pattern, 1, seed=0,
                           record_traces=record_traces)
    return batch


def test_deterministic_facilitating_ba_spikes_ab_does_not():
    n = deterministic_net()
    assert one_trial(n, PatternSpec(order=PatternOrder.BA)).spiked[0]
    assert not one_trial(n, PatternSpec(order=PatternOrder.AB)).spiked[0]


def test_forced_saturating_ba_is_false_negative():
    n = build_detector("sequence_detector", g0_jitter=0.0,
                       force_mode=Mode.SATURATING)
    batch = one_trial(n, PatternSpec(order=PatternOrder.BA))
    assert not batch.spiked[0]
    assert not batch.label[0]  # STP-S


def test_zero_amplitude_flat_traces():
    n = deterministic_net()
    spec = PatternSpec(train=PulseTrain(n=3, v=0.0, w=1e-5, t_int=0.25))
    batch = one_trial(n, spec, record_traces=True)
    assert not batch.spiked[0]
    v = batch.membrane[0]
    assert np.max(v) - np.min(v) < 1e-12
    g = batch.conductance[0]
    assert np.max(g) - np.min(g) < 1e-18


def test_trial_traces_share_time_base():
    batch = one_trial(deterministic_net(), PatternSpec(order=PatternOrder.BA),
                      record_traces=True)
    assert batch.membrane.shape == batch.conductance.shape == (
        1, batch.times.size)


def test_trace_columns_membrane_at_times_conductance_one_step_earlier():
    # membrane[:, k] is v at times[k], the end of step k; conductance[:, k]
    # is G at times[k] - dt, the start of step k, the value that drives it.
    n = deterministic_net()
    pattern = PatternSpec(order=PatternOrder.BA)
    batch = one_trial(n, pattern, record_traces=True)
    k = round(n.lead / n.dt)  # the step of B's first pulse
    assert batch.times[k] == pytest.approx(n.lead + n.dt)
    params = n.synapses[1].params
    after, _ = dev.apply_pulse(dev.initial_state(params), params,
                               Pulse(n.lead, pattern.train.v, pattern.train.w))
    g, v = batch.conductance[0], batch.membrane[0]
    assert g[k - 1] == params.g_eq0
    for j in (k, k + 1, k + 50):
        assert g[j] == pytest.approx(
            dev.conductance(after, batch.times[j] - n.dt), rel=1e-12, abs=0.0)
    # The pulse's write charge lands on step k, so v jumps at times[k].
    assert v[k - 1] == pytest.approx(v[k - 2], abs=1e-12)
    assert v[k] - v[k - 1] > 1e-3


def test_label_consistency_on_trials():
    n = build_detector("sequence_detector")
    _, batch = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 30, seed=5)
    assert batch.label.dtype == bool
    # Saturating trials are STP-S (label False), facilitating ones STP-F.
    assert np.array_equal(batch.saturating, ~batch.label)


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_deterministic_given_seed():
    n = build_detector("sequence_detector")
    spec = PatternSpec(order=PatternOrder.BA)
    p1, rec1 = monte_carlo(n, spec, 60, seed=9)
    p2, rec2 = monte_carlo(n, spec, 60, seed=9)
    assert p1 == p2
    assert np.array_equal(rec1.spiked, rec2.spiked)


def test_monte_carlo_forced_facilitating_is_binary():
    n = deterministic_net()
    p_ba, _ = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 20, seed=0)
    p_ab, _ = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 20, seed=0)
    assert p_ba == 1.0
    assert p_ab == 0.0


def test_sequence_detector_operating_point_bands():
    n = build_detector("sequence_detector")
    p_ba, rec_ba = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 400, seed=42)
    p_ab, rec_ab = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 400, seed=42)
    assert 0.55 <= p_ba <= 0.80
    assert 0.05 <= p_ab <= 0.25
    assert p_ba > p_ab


def test_error_mechanism_labels():
    n = build_detector("sequence_detector")
    _, rec_ba = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 300, seed=1)
    _, rec_ab = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 300, seed=1)
    # label is True for STP_F and False for STP_S.
    non_spikes = rec_ba.label[~rec_ba.spiked]
    fps = rec_ab.label[rec_ab.spiked]
    assert non_spikes.size and fps.size
    s_frac = np.count_nonzero(~non_spikes) / non_spikes.size
    f_frac = np.count_nonzero(fps) / fps.size
    assert s_frac >= 0.95
    assert f_frac >= 0.95


def test_forty_trial_batches_near_reported_rates():
    # ~27 of 40 BA trials and ~6 of 40 AB trials spike; allow 3-sigma
    # binomial slack around the reported 67.5% / 15% rates
    n = build_detector("sequence_detector")
    _, rec_ba = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 40, seed=8)
    _, rec_ab = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 40, seed=8)
    ba_spikes = np.count_nonzero(rec_ba.spiked)
    ab_spikes = np.count_nonzero(rec_ab.spiked)
    assert abs(ba_spikes - 27) <= 3 * (40 * 0.675 * 0.325) ** 0.5
    assert abs(ab_spikes - 6) <= 3 * (40 * 0.15 * 0.85) ** 0.5


def test_control_topology_cannot_discriminate():
    n = build_detector("control_rc")
    p_ba, _ = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 200, seed=2)
    p_ab, _ = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 200, seed=2)
    assert abs(p_ba - p_ab) < 0.1


def test_coincidence_detector():
    n = build_detector("coincidence_detector")
    overlap = one_trial(n, PatternSpec(order=PatternOrder.AB, gap=0.0))
    train_span = PatternSpec().train.duration
    disjoint = one_trial(n, PatternSpec(order=PatternOrder.AB,
                                        gap=train_span + 2.0))
    assert overlap.spiked[0]
    assert not disjoint.spiked[0]


def test_pattern_gap_validation():
    with pytest.raises(ValueError):
        PatternSpec(gap=-0.1)


def _sequence(**fields):
    return replace(build_detector("sequence_detector"), **fields)


# A tail that ends the default sequence trial at 2,000 steps of 1 ms, which
# divides the bound: 5e6 trials take exactly 1e10 trial steps.
_TAIL_2000_STEPS = 0.64998


@pytest.mark.parametrize("fields, trials, steps", [
    ({"tail": _TAIL_2000_STEPS}, 5_000_001, "2000"),
    ({}, 10 ** 8, "1851"),
    ({"dt": 1e-14}, 1, "1.85002e+14"),
])
def test_detector_batch_refuses_more_than_1e10_trial_steps(fields, trials,
                                                           steps):
    # 1e8 trials of the default sequence detector failed to allocate a
    # (1, 1e8) array, naming no field. No trial is simulated here.
    net = _sequence(**fields)
    message = re.escape(f"trials * steps per trial must be at most 1e+10, "
                        f"got {trials} trials of {steps} steps of "
                        f"network.dt={net.dt:g} s over ")
    with pytest.raises(ValueError, match=f"^{message}"):
        network.check_trial_steps(net, PatternSpec(), trials)
    with pytest.raises(ValueError, match=f"^{message}"):
        monte_carlo(net, PatternSpec(), trials, 0)


def test_detector_batch_takes_1e10_trial_steps():
    network.check_trial_steps(_sequence(tail=_TAIL_2000_STEPS), PatternSpec(),
                              5_000_000)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_network_refuses_other_than_two_synapses(count):
    # A third synapse used to reach monte_carlo, which has a start time for
    # two, and fail there with a bare IndexError.
    net = build_detector("sequence_detector")
    synapses = (net.synapses * 2)[:count]
    with pytest.raises(ValueError, match=f"^synapses must .*got {count}"):
        replace(net, synapses=synapses)


NAN, INF = math.nan, math.inf
POSITIVE = ([0.0, -5e-324], "be > 0")
NON_NEGATIVE = ([-5e-324], "be >= 0")


@pytest.mark.parametrize("make, field, value, message", [
    (make, field, value, f"{field} must {end}")
    for make, field, (edges, words) in [
        (PatternSpec, "gap", NON_NEGATIVE),
        (StaticSynapse, "resistance", POSITIVE),
        (lambda **kw: RCSynapse(resistance=1.0, **kw), "capacitance",
         POSITIVE),
        (lambda **kw: RCSynapse(capacitance=1.0, **kw), "resistance",
         POSITIVE),
        (lambda **kw: RCSynapse(1.0, 1.0, **kw), "read_v", ([], None)),
        (lambda **kw: MemristiveSynapse(DeviceParams(), **kw), "read_v",
         ([], None)),
        (_sequence, "dt", POSITIVE),
        (_sequence, "g0_jitter", NON_NEGATIVE),
        (_sequence, "g_post_delay", POSITIVE),
        (_sequence, "lead", NON_NEGATIVE),
        (_sequence, "tail", NON_NEGATIVE),
    ] for value, end in [(NAN, "not be NaN"), (INF, "be finite"),
                         (-INF, "be finite"), *((v, words) for v in edges)]])
def test_network_dataclasses_refuse_nan_and_meaningless_values(make, field,
                                                              value, message):
    # NaN fails every comparison, so a check written `x <= 0` lets it
    # through: a NaN resistance would run as a synapse that never fires.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("g0_jitter", 5e-8), ("force_mode", Mode.SATURATING),
    ("force_mode", Mode.FACILITATING), ("include_write_charge", False),
    ("g_post_delay", 0.3)])
def test_network_without_a_memristor_refuses_memristor_only_fields(field,
                                                                   value):
    # The RC control used to accept these and run as if they were unset.
    with pytest.raises(ValueError,
                       match=f"^{field} must keep its default .*: only a "
                             "memristive synapse reads it$"):
        build_detector("control_rc", **{field: value})
    assert getattr(build_detector("sequence_detector", **{field: value}),
                   field) == value


@pytest.mark.parametrize("order", list(PatternOrder))
def test_memristor_with_the_shortest_decay_reads_fully_relaxed(order):
    # Every pulse sets tau_d = 5e-324, so (t - t_last)/tau_d overflows on
    # the samples after it, which used to raise a RuntimeWarning.
    net = build_detector("sequence_detector")
    static, syn = net.synapses
    syn = replace(syn, params=replace(syn.params, tau_d_min=5e-324,
                                      tau_d_base=5e-324))
    p_spike, batch = monte_carlo(replace(net, synapses=(static, syn)),
                                 PatternSpec(order=order), 20, seed=1)
    assert 0.0 <= p_spike <= 1.0
    assert np.isfinite(batch.g_post).all()
