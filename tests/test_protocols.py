import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from memstp import device as dev
from memstp import protocols as pr
from memstp.device import DeviceParams, EventLabel, Mode


@pytest.fixture
def params():
    return DeviceParams()


def make_plan(**kw):
    base = dict(train=pr.PulseTrain(n=3, v=-4.0, w=1e-5, t_int=0.4),
                repeats=2, t_rec=10.0)
    base.update(kw)
    return pr.ExperimentPlan(**base)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_pulse_train_validation():
    with pytest.raises(ValueError):
        pr.PulseTrain(n=0, v=-4.0, w=1e-5, t_int=0.4)
    with pytest.raises(ValueError):
        pr.PulseTrain(n=3, v=-4.0, w=0.5, t_int=0.4)


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(repeats=0)
    with pytest.raises(ValueError):
        make_plan(t_rec=0.5)  # shorter than the train


@pytest.mark.parametrize("kw", [dict(t_rec=1.797e308), dict(t_rec=1e306, repeats=600)])
def test_plan_refuses_an_infinite_protocol_clock(kw):
    # The clock reached inf on the third train, and the next pulse's
    # inf - inf = NaN filled the rest of the events.
    with pytest.raises(ValueError, match=r"^repeats \* \(train duration"):
        make_plan(**kw)


@pytest.mark.parametrize("repeats, n", [(3_333_334, 3), (10 ** 11, 3),
                                        (1, 10 ** 7 + 1)])
def test_plan_refuses_more_than_ten_million_pulses(repeats, n):
    # 1e11 repeats of the fig2_stp train ran run_protocol for hours.
    with pytest.raises(ValueError,
                       match=r"^repeats \* train.n must be at most 1e\+07 "):
        make_plan(repeats=repeats, train=pr.PulseTrain(n=n, t_int=0.4))


@pytest.mark.parametrize("repeats, n", [(3_333_333, 3), (10 ** 7, 1)])
def test_plan_takes_ten_million_pulses(repeats, n):
    assert make_plan(repeats=repeats, train=pr.PulseTrain(n=n)).repeats == repeats


def test_train_trace_with_the_shortest_tau_d_is_fully_relaxed():
    # The first pulse sets tau_d = tau_d_min, so every sample before the
    # second pulse divides by 5e-324.
    params = DeviceParams(tau_d_min=5e-324)
    _, times, values = pr.train_trace(
        dev.initial_state(params), params, pr.PulseTrain(), 0.0, 1e-3)
    assert np.isfinite(values).all() and times.size == values.size


# ---------------------------------------------------------------------------
# run_protocol
# ---------------------------------------------------------------------------


def test_record_count_and_indices(params):
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, make_plan(repeats=2),
        np.random.default_rng(0))
    assert [r.index for r in records] == [0, 1]
    assert all(len(r.peaks) == 3 for r in records)
    with pytest.raises(AttributeError):
        records[0].g0 = 0.0  # records are immutable


def test_fig2_protocol_g0_bounds(params):
    plan = make_plan(repeats=600)
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, plan, np.random.default_rng(1))
    assert len(records) == 600
    for r in records:
        assert params.g_min <= r.g0 <= params.g_max


def test_label_matches_classify_event(params):
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, make_plan(repeats=100),
        np.random.default_rng(2))
    for r in records:
        assert r.label is dev.classify_event(r.g0, r.g_post)


def test_long_recovery_means_g0_tracks_equilibrium(params):
    # t_rec = 100 * tau_d_max: volatile part fully relaxed at the next read
    plan = make_plan(repeats=20, t_rec=100.0 * params.tau_d_max)
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, plan, np.random.default_rng(3))
    for r in records:
        peak = max(r.peaks) - r.g_eq_after  # volatile excursion scale
        assert peak > 0.0
        assert abs(r.g0 - r.g_eq_before) < 0.01 * peak


def test_saturating_events_have_lower_g_post(params):
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, make_plan(repeats=400),
        np.random.default_rng(4))
    sat = [r for r in records if r.mode is Mode.SATURATING]
    assert sat, "expected some saturating events in 400 repeats"
    for r in sat:
        assert r.label is EventLabel.STP_S
        assert r.g_eq_after < r.g_eq_before


def test_drift_and_restore(params):
    # drift preset: rises past g_c + 2 sigma, then saturating events restore
    plan = pr.ExperimentPlan(train=pr.PulseTrain(n=3, v=4.0, w=1e-5, t_int=0.2),
                             repeats=150, t_rec=20.0)
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, plan, np.random.default_rng(7))
    g0s = np.array([r.g0 for r in records])
    thr = params.g_c + 2.0 * params.sigma_s
    above = np.nonzero(g0s > thr)[0]
    assert above.size > 0, "g0 never exceeded g_c + 2 sigma"
    k = int(above[0])
    window = records[k:k + 20]
    assert any(r.mode is Mode.SATURATING and r.g_eq_after < r.g_eq_before
               for r in window)
    assert all(max(r.peaks) <= params.g_max + 1e-18 for r in records)


@pytest.mark.parametrize("kw, named", [
    ({"sample_dt": math.nan}, "sample_dt"), ({"sample_dt": 0.0}, "sample_dt"),
    ({"t0": math.nan}, "t0"), ({"t0": math.inf}, "t0"),
    ({"tail": math.nan}, "tail"),
])
def test_train_trace_refuses_a_nan_argument_naming_it(params, kw, named):
    # A NaN sample_dt or t0 used to reach np.arange and end in a MemoryError
    # about a trace of "nan samples" (or of 1800 samples, for t0).
    args = {"t0": 0.0, "sample_dt": 1e-3, **kw}
    with pytest.raises(ValueError, match=f"^{named} must"):
        pr.train_trace(dev.initial_state(params), params, pr.PulseTrain(),
                       **args)


def test_apply_train_refuses_a_nan_start(params):
    # It used to return the peaks [nan, nan, nan].
    with pytest.raises(ValueError, match="time reversal"):
        pr.apply_train(dev.initial_state(params), params, pr.PulseTrain(),
                       math.nan)


def test_train_trace_shows_peaks_and_relaxation(params):
    train = pr.PulseTrain(n=3, v=-4.0, w=1e-5, t_int=0.4)
    state, times, values = pr.train_trace(
        dev.initial_state(params), params, train, 0.0, 1e-3, tail=2.0)
    assert times.shape == values.shape and times[-1] > train.duration + 1.99
    # pulses lift the conductance above the starting level
    assert float(np.max(values)) > params.g_eq0
    # the tail relaxes back toward the (possibly stepped) equilibrium
    assert values[-1] == pytest.approx(state.g_eq, rel=1e-2)


def test_train_trace_matches_interleaved_probe_loop(params):
    # Oracle: relax a copy of the state to every sample in time order, with
    # each pulse applied before the samples at or after its onset.
    # Binary fractions, so samples fall exactly on the pulse onsets.
    train = pr.PulseTrain(n=4, v=-4.0, w=1e-5, t_int=0.25)
    start = dev.initial_state(params)
    state, times, values = pr.train_trace(start, params, train, 0.0, 1 / 32,
                                          tail=1.0)
    pulses = train.pulse_times(0.0)
    ref, k = start, 0
    for t, g in zip(times, values):
        while k < len(pulses) and pulses[k] <= t:
            ref, _ = dev.apply_pulse(ref, params,
                                     dev.Pulse(t=pulses[k], v=train.v, w=train.w))
            k += 1
        ref = dev.decay_to(ref, params, float(t))
        assert g == pytest.approx(dev.conductance(ref), rel=1e-13)
    # a sample that falls on a pulse onset reads the state after the pulse
    on_pulse = np.isin(times, pulses)
    assert on_pulse.sum() == len(pulses)
    assert np.all(values[on_pulse] > params.g_eq0)
    # the returned state is the one after the last pulse
    after, _ = pr.apply_train(start, params, train, 0.0)
    assert state == after


def test_run_protocol_returns_state_after_last_pulse(params):
    plan = make_plan(repeats=3)
    records, state = pr.run_protocol(
        dev.initial_state(params), params, plan, np.random.default_rng(4))
    train_span = (plan.train.n - 1) * plan.train.t_int
    last_pulse = 3 * train_span + 2 * (plan.train.w + plan.t_rec)
    assert state.t_last == state.t_last_pulse
    assert state.t_last == pytest.approx(last_pulse, rel=1e-12)
    assert records[-1].g_post == dev.conductance(
        state, state.t_last + plan.g_post_delay)


def reference_run_protocol(state, params, plan, rng):
    """run_protocol built from the public device functions alone."""
    records = []
    t = state.t_last
    for k in range(plan.repeats):
        g0 = dev.conductance(state, t)
        state = dev.resample_mode_for_train(state, params, t, rng)
        g_eq_before = state.g_eq
        peaks = []
        for tp in plan.train.pulse_times(t):
            state, _ = dev.apply_pulse(
                state, params, dev.Pulse(t=tp, v=plan.train.v, w=plan.train.w))
            peaks.append(dev.conductance(state))
        g_post = dev.conductance(state, state.t_last + plan.g_post_delay)
        records.append(pr.EventRecord(
            index=k, g0=g0, g_post=g_post, peaks=tuple(peaks),
            label=dev.classify_event(g0, g_post), mode=state.mode,
            g_eq_before=g_eq_before, g_eq_after=state.g_eq))
        t = state.t_last + plan.train.w + plan.t_rec
    return records, state


@pytest.mark.parametrize("device,plan", [
    ({}, {}),
    # barrier crossings, and trains closer than t_rec_min that keep the mode
    ({"e0": 0.2e-9, "dg_nv": 0.1e-6, "polarity_sensitive": True, "tau_acc": 2.0},
     {"train": pr.PulseTrain(n=4, v=3.0, w=1e-5, t_int=0.05), "t_rec": 0.5}),
    ({"g_c": 2.95e-6, "g_floor": 2.7e-6},
     {"train": pr.PulseTrain(n=2, v=-4.0, w=2e-5, t_int=0.3), "t_rec": 1.0}),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_run_protocol_matches_public_function_loop(device, plan, seed):
    params = DeviceParams(**device)
    plan = make_plan(repeats=60, **plan)
    got = pr.run_protocol(dev.initial_state(params), params, plan,
                          np.random.default_rng(seed))
    want = reference_run_protocol(dev.initial_state(params), params, plan,
                                  np.random.default_rng(seed))
    assert got == want
    # Trains that follow within t_rec_min keep the first train's mode.
    held = plan.t_rec + plan.train.w < params.t_rec_min
    assert len({r.mode for r in got[0]}) == (1 if held else 2)


# ---------------------------------------------------------------------------
# bin_statistics
# ---------------------------------------------------------------------------


def _record(g0, label=EventLabel.STP_F):
    return pr.EventRecord(index=0, g0=g0, g_post=g0, peaks=(g0,), label=label,
                          mode=Mode.FACILITATING, g_eq_before=g0, g_eq_after=g0)


def test_bin_width_17_bins():
    spec = oracles.BinSpec(lo=2.85e-6, hi=3.1e-6, n_bins=17)
    assert spec.width == pytest.approx(0.0147059e-6, rel=1e-4)


def test_bin_boundaries():
    spec = oracles.BinSpec(lo=2.85e-6, hi=3.1e-6, n_bins=17)
    stats = oracles.bin_statistics([_record(2.85e-6), _record(3.1e-6)],
                                   spec)
    assert stats.counts[0] == 1
    assert stats.counts[16] == 1


def test_bin_overflow_underflow_not_dropped():
    spec = oracles.BinSpec(lo=2.85e-6, hi=3.1e-6, n_bins=17)
    stats = oracles.bin_statistics(
        [_record(2.0e-6), _record(3.5e-6), _record(2.9e-6)], spec)
    assert stats.underflow == 1
    assert stats.overflow == 1
    assert int(stats.counts.sum()) == 1


def test_bins_probabilities_sum_to_one():
    spec = oracles.BinSpec(lo=0.0, hi=1.0, n_bins=4)
    recs = [_record(0.1, EventLabel.STP_F), _record(0.15, EventLabel.STP_S),
            _record(0.6, EventLabel.STP_S)]
    stats = oracles.bin_statistics(recs, spec)
    for k in range(4):
        if not stats.empty[k]:
            assert stats.p_f[k] + stats.p_s[k] == pytest.approx(1.0)
    assert bool(stats.empty[1]) and bool(stats.empty[3])


@given(g0s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_bin_assignment_total(g0s):
    spec = oracles.BinSpec(lo=0.2, hi=0.8, n_bins=7)
    stats = oracles.bin_statistics([_record(g) for g in g0s], spec)
    assert int(stats.counts.sum()) + stats.underflow + stats.overflow == len(g0s)


def test_mode_probability_trend_monte_carlo(params):
    # empirical p_S per bin non-decreasing up to 3-sigma binomial noise
    plan = make_plan(repeats=10_000)
    records, _ = pr.run_protocol(
        dev.initial_state(params), params, plan, np.random.default_rng(11))
    stats = oracles.bin_statistics(
        records, oracles.BinSpec(lo=2.85e-6, hi=3.1e-6, n_bins=17))
    idx = [k for k in range(17) if not stats.empty[k]]
    for a, b in zip(idx, idx[1:]):
        se = math.sqrt(
            stats.p_s[a] * (1 - stats.p_s[a]) / stats.counts[a]
            + stats.p_s[b] * (1 - stats.p_s[b]) / stats.counts[b])
        assert stats.p_s[b] - stats.p_s[a] >= -3.0 * max(se, 1e-12)


# ---------------------------------------------------------------------------
# decay_sweep / amplitude_sweep
# ---------------------------------------------------------------------------


def test_decay_sweep_strictly_decreasing(params):
    res = pr.decay_sweep(params, [0.02, 0.05, 0.1, 0.15, 0.2],
                         np.random.default_rng(5))
    taus = [r.params["tau_d"] for _, r in res]
    assert all(r.converged for _, r in res)
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_decay_sweep_single_interval(params):
    res = pr.decay_sweep(params, [0.1], np.random.default_rng(6))
    assert len(res) == 1
    assert res[0][0] == 0.1


def test_decay_sweep_flat_law_when_gamma_zero():
    params = DeviceParams(gamma=0.0)
    res = pr.decay_sweep(params, [0.02, 0.1, 0.2], np.random.default_rng(8))
    taus = [r.params["tau_d"] for _, r in res]
    for t in taus:
        assert t == pytest.approx(taus[0], rel=0.02)


def test_amplitude_sweep_increasing_and_threshold_edge(params):
    pairs = pr.amplitude_sweep(params, [1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    vals = [d for _, d in pairs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    edge = pr.amplitude_sweep(params, [params.v_th])
    assert edge[0][1] == 0.0


def test_amplitude_sweep_matches_first_pulse_law(params):
    pairs = pr.amplitude_sweep(params, [1.5, 2.5, 4.0])
    for v, d in pairs:
        s = params.c_amp * (math.exp((abs(v) - params.v_th) / params.v0) - 1.0)
        expect = (params.g_max - params.g_eq0) * s * params.u_dev / params.g_eq0
        assert d == pytest.approx(expect, rel=1e-9)


def test_amplitude_sweep_rejects_subthreshold(params):
    with pytest.raises(ValueError):
        pr.amplitude_sweep(params, [0.5, 2.0])
