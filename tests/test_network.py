import numpy as np
import pytest

from memstp.device import EventLabel, Mode
from memstp.network import (
    MemristiveSynapse,
    PatternOrder,
    PatternSpec,
    RCSynapse,
    StaticSynapse,
    build_detector,
    monte_carlo,
    run_trial,
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


# ---------------------------------------------------------------------------
# run_trial
# ---------------------------------------------------------------------------


def deterministic_net(**overrides):
    return build_detector("sequence_detector", g0_jitter=0.0,
                          force_mode=Mode.FACILITATING, **overrides)


def test_deterministic_facilitating_ba_spikes_ab_does_not():
    n = deterministic_net()
    ba = run_trial(n, PatternSpec(order=PatternOrder.BA))
    ab = run_trial(n, PatternSpec(order=PatternOrder.AB))
    assert ba.spiked
    assert not ab.spiked


def test_forced_saturating_ba_is_false_negative():
    n = build_detector("sequence_detector", g0_jitter=0.0,
                       force_mode=Mode.SATURATING)
    rec = run_trial(n, PatternSpec(order=PatternOrder.BA))
    assert not rec.spiked
    assert rec.label is EventLabel.STP_S


def test_zero_amplitude_flat_traces():
    n = deterministic_net()
    spec = PatternSpec(train=PulseTrain(n=3, v=0.0, w=1e-5, t_int=0.25))
    rec = run_trial(n, spec)
    assert not rec.spiked
    v = rec.membrane.values
    assert np.max(v) - np.min(v) < 1e-12
    g = rec.conductance.values
    assert np.max(g) - np.min(g) < 1e-18


def test_trial_traces_share_time_base():
    n = deterministic_net()
    rec = run_trial(n, PatternSpec(order=PatternOrder.BA))
    assert np.array_equal(rec.membrane.times, rec.conductance.times)


def test_label_consistency_on_trials():
    n = build_detector("sequence_detector")
    rng = np.random.default_rng(5)
    for _ in range(30):
        rec = run_trial(n, PatternSpec(order=PatternOrder.BA), rng=rng)
        assert rec.label in (EventLabel.STP_F, EventLabel.STP_S)
        assert (rec.mode is Mode.SATURATING) == (rec.label is EventLabel.STP_S)


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_deterministic_given_seed():
    n = build_detector("sequence_detector")
    spec = PatternSpec(order=PatternOrder.BA)
    p1, rec1 = monte_carlo(n, spec, 60, seed=9)
    p2, rec2 = monte_carlo(n, spec, 60, seed=9)
    assert p1 == p2
    assert [r.spiked for r in rec1] == [r.spiked for r in rec2]


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
    non_spikes = [r for r in rec_ba if not r.spiked]
    fps = [r for r in rec_ab if r.spiked]
    assert non_spikes and fps
    s_frac = sum(r.label is EventLabel.STP_S for r in non_spikes) / len(non_spikes)
    f_frac = sum(r.label is EventLabel.STP_F for r in fps) / len(fps)
    assert s_frac >= 0.95
    assert f_frac >= 0.95


def test_forty_trial_batches_near_reported_rates():
    # ~27 of 40 BA trials and ~6 of 40 AB trials spike; allow 3-sigma
    # binomial slack around the reported 67.5% / 15% rates
    n = build_detector("sequence_detector")
    _, rec_ba = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 40, seed=8)
    _, rec_ab = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 40, seed=8)
    ba_spikes = sum(r.spiked for r in rec_ba)
    ab_spikes = sum(r.spiked for r in rec_ab)
    assert abs(ba_spikes - 27) <= 3 * (40 * 0.675 * 0.325) ** 0.5
    assert abs(ab_spikes - 6) <= 3 * (40 * 0.15 * 0.85) ** 0.5


def test_control_topology_cannot_discriminate():
    n = build_detector("control_rc")
    p_ba, _ = monte_carlo(n, PatternSpec(order=PatternOrder.BA), 200, seed=2)
    p_ab, _ = monte_carlo(n, PatternSpec(order=PatternOrder.AB), 200, seed=2)
    assert abs(p_ba - p_ab) < 0.1


def test_coincidence_detector():
    n = build_detector("coincidence_detector")
    overlap = run_trial(n, PatternSpec(order=PatternOrder.AB, gap=0.0))
    train_span = PatternSpec().train.duration
    disjoint = run_trial(n, PatternSpec(order=PatternOrder.AB,
                                        gap=train_span + 2.0))
    assert overlap.spiked
    assert not disjoint.spiked


def test_pattern_gap_validation():
    with pytest.raises(ValueError):
        PatternSpec(gap=-0.1)
