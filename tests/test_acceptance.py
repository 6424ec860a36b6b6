"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

import oracles
from memstp import device as dev
from memstp import fitting, protocols as pr, tm
from memstp.cli import main as cli_main
from memstp.device import DeviceParams, Mode, Pulse
from memstp.network import PatternOrder, PatternSpec, build_detector, monte_carlo


def report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion:2d}: {message}")


@pytest.fixture(scope="module")
def detector_batches():
    """The criterion-9 Monte-Carlo batches, shared with criterion 10."""
    net = build_detector("sequence_detector")
    t0 = time.time()
    p_ba, rec_ba = monte_carlo(net, PatternSpec(order=PatternOrder.BA),
                               1000, seed=42)
    p_ab, rec_ab = monte_carlo(net, PatternSpec(order=PatternOrder.AB),
                               1000, seed=42)
    elapsed = time.time() - t0
    return p_ba, rec_ba, p_ab, rec_ab, elapsed


def test_criterion_01_tm_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        params = tm.TMParams(
            a=float(rng.uniform(0.1, 10.0)),
            u_cap=float(rng.uniform(0.02, 0.98)),
            tau_rec=float(10.0 ** rng.uniform(-3, 1)),
            tau_f=float(10.0 ** rng.uniform(-3, 1)),
        )
        n_spikes = int(rng.integers(2, 11))
        gaps = rng.uniform(2e-3, 0.5, n_spikes - 1)
        times = list(np.concatenate([[0.0], np.cumsum(gaps)]))
        closed = np.array(tm.peaks_for_train(params, times))
        stepped = np.array(oracles.integrate_reference(params, times, 10e-6))
        worst = max(worst, float(np.max(np.abs(stepped - closed) / closed)))
    elapsed = time.time() - t0
    assert worst < 1e-4
    assert elapsed < 10.0
    report(1, f"TM closed form vs step oracle: max rel dev {worst:.2e} "
              f"in {elapsed:.1f}s (<1e-4, <10s)")


def test_criterion_02_facilitation_staircase():
    params = DeviceParams()
    train = pr.PulseTrain(n=3, v=-4.0, w=10e-6, t_int=0.4)
    _, peaks_f = pr.apply_train(dev.initial_state(params), params, train, 0.0)
    assert peaks_f[0] < peaks_f[1] < peaks_f[2]
    forced = dataclasses.replace(dev.initial_state(params),
                                 mode=Mode.SATURATING)
    _, peaks_s = pr.apply_train(forced, params, train, 0.0)
    assert peaks_s[2] < peaks_s[0]
    report(2, "facilitating peaks strictly increase; "
              "saturating third peak below the first")


def test_criterion_03_mode_probability_trend():
    params = DeviceParams()
    plan = pr.ExperimentPlan(train=pr.PulseTrain(n=3, v=-4.0, w=10e-6,
                                                 t_int=0.4),
                             repeats=10_000, t_rec=10.0)
    t0 = time.time()
    records, _ = pr.run_protocol(dev.initial_state(params), params, plan,
                                 np.random.default_rng(11))
    elapsed = time.time() - t0
    stats = oracles.bin_statistics(
        records, oracles.BinSpec(lo=2.85e-6, hi=3.1e-6, n_bins=17))
    occupied = [k for k in range(17) if not stats.empty[k]]
    for a, b in zip(occupied, occupied[1:]):
        se = math.sqrt(stats.p_s[a] * (1 - stats.p_s[a]) / stats.counts[a]
                       + stats.p_s[b] * (1 - stats.p_s[b]) / stats.counts[b])
        assert stats.p_s[b] - stats.p_s[a] >= -3.0 * max(se, 1e-12)
    assert elapsed < 60.0
    report(3, f"p_S non-decreasing over {len(occupied)} occupied bins "
              f"(10k events in {elapsed:.1f}s)")


def test_criterion_04_drift_and_restore():
    params = DeviceParams()
    plan = pr.ExperimentPlan(train=pr.PulseTrain(n=3, v=4.0, w=10e-6,
                                                 t_int=0.2),
                             repeats=150, t_rec=20.0)
    records, _ = pr.run_protocol(dev.initial_state(params), params, plan,
                                 np.random.default_rng(7))
    g0s = np.array([r.g0 for r in records])
    assert g0s.max() > g0s[0]  # the sequence rises
    threshold = params.g_c + 2.0 * params.sigma_s
    above = np.nonzero(g0s > threshold)[0]
    assert above.size > 0
    window = records[int(above[0]):int(above[0]) + 20]
    assert any(r.mode is Mode.SATURATING and r.g_eq_after < r.g_eq_before
               for r in window)
    assert all(max(r.peaks) <= params.g_max + 1e-18 for r in records)
    report(4, f"g0 rose past g_c+2sigma at train {int(above[0])}; "
              f"saturating restore within 20 trains; G <= g_max")


def test_criterion_05_rate_law():
    params = DeviceParams()
    t_ints = [0.02, 0.05, 0.1, 0.15, 0.2]
    results = pr.decay_sweep(params, t_ints, np.random.default_rng(5))
    taus = [r.params["tau_d"] for _, r in results]
    assert all(r.converged for _, r in results)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    # full recovery inside the 1-120 s observation window
    for t_int in t_ints:
        state = dev.initial_state(params)
        state = dev.resample_mode_for_train(state, params, 0.0,
                                            np.random.default_rng(0))
        train = pr.PulseTrain(n=2, v=4.0, w=10e-6, t_int=t_int)
        state, _ = pr.apply_train(state, params, train, 0.0)
        g = dev.conductance(state, t_int + 120.0)
        assert abs(g - state.g_eq) < 0.01 * state.g_eq
    report(5, "fitted tau_d strictly decreasing over "
              f"{[f'{t * 1e3:.0f}ms' for t in t_ints]}; "
              "conductance within 1% of baseline by 120 s")


def test_criterion_06_amplitude_law():
    params = DeviceParams()
    amplitudes = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    pairs = pr.amplitude_sweep(params, amplitudes)
    values = [d for _, d in pairs]
    assert all(a < b for a, b in zip(values, values[1:]))
    for v, d in pairs:
        s = params.c_amp * (math.exp((abs(v) - params.v_th) / params.v0) - 1.0)
        expected = ((params.g_max - params.g_eq0) * s * params.u_dev
                    / params.g_eq0)
        assert d == pytest.approx(expected, rel=1e-9)
    report(6, "normalized dG strictly increasing over 1.5-4 V and matching "
              "the exponential law within 1e-9")


def test_criterion_07_accumulator_transition():
    params = DeviceParams(e0=2.4e-9, beta=0.0, tau_acc=math.inf, c_amp=0.0,
                          g_eq0=3.0e-6)
    state = dev.initial_state(params)
    trigger = None
    for k in range(8):
        g_before = state.g_eq
        state, _ = dev.apply_pulse(state, params,
                                   Pulse(t=0.1 * k, v=4.0, w=10e-6))
        if trigger is None and state.g_eq != g_before:
            trigger = k + 1
    assert trigger == 5

    leaky = DeviceParams(e0=2.4e-9, beta=0.0, tau_acc=60.0, c_amp=0.0,
                         g_eq0=3.0e-6)
    state = dev.initial_state(leaky)
    for k in range(50):
        g_before = state.g_eq
        state, _ = dev.apply_pulse(state, leaky,
                                   Pulse(t=600.0 * k, v=4.0, w=10e-6))
        assert state.g_eq == g_before
    report(7, "0.48 nJ pulses cross the 2.4 nJ barrier exactly at pulse 5; "
              "with leak and long gaps no transition ever occurs")


def test_criterion_08_pinched_hysteresis():
    params = DeviceParams(e0=math.inf)
    n_seg = 500
    wave = np.concatenate([
        np.linspace(0.0, 2.0, n_seg, endpoint=False),
        np.linspace(2.0, -2.0, 2 * n_seg, endpoint=False),
        np.linspace(-2.0, 0.0, n_seg, endpoint=False),
        [0.0],
    ])
    _, v, i = dev.iv_sweep(dev.initial_state(params), params, wave, 20e-6)
    assert all(ii == 0.0 for vv, ii in zip(v, i) if vv == 0.0)
    area = 0.5 * float(np.sum(v[:-1] * i[1:] - v[1:] * i[:-1]))
    assert area > 0.0
    report(8, f"i = 0 exactly at every v = 0 sample; loop area {area:.2e} > 0")


def test_criterion_09_sequence_detector_statistics(detector_batches):
    p_ba, _, p_ab, _, elapsed = detector_batches
    assert 0.55 <= p_ba <= 0.80
    assert 0.05 <= p_ab <= 0.25
    assert elapsed < 60.0

    control = build_detector("control_rc")
    p_ba_c, _ = monte_carlo(control, PatternSpec(order=PatternOrder.BA),
                            1000, seed=42)
    p_ab_c, _ = monte_carlo(control, PatternSpec(order=PatternOrder.AB),
                            1000, seed=42)
    assert abs(p_ba_c - p_ab_c) < 0.1
    report(9, f"p_spike(BA)={p_ba:.3f} in [0.55,0.80], "
              f"p_spike(AB)={p_ab:.3f} in [0.05,0.25] "
              f"({elapsed:.1f}s); control |dp|={abs(p_ba_c - p_ab_c):.3f}")


def test_criterion_10_error_mechanism(detector_batches):
    _, rec_ba, _, rec_ab, _ = detector_batches
    # label is True for STP_F and False for STP_S.
    non_spikes = rec_ba.label[~rec_ba.spiked]
    false_pos = rec_ab.label[rec_ab.spiked]
    assert non_spikes.size and false_pos.size
    s_frac = np.count_nonzero(~non_spikes) / non_spikes.size
    f_frac = np.count_nonzero(false_pos) / false_pos.size
    assert s_frac >= 0.95
    assert f_frac >= 0.95
    report(10, f"BA non-spikes carry STP_S at {s_frac:.1%}, "
               f"AB spikes carry STP_F at {f_frac:.1%} (>=95%)")


def test_criterion_11_coincidence_detector():
    # The coincidence detector draws nothing: one trial is its outcome.
    net = build_detector("coincidence_detector")
    p_overlap, _ = monte_carlo(net, PatternSpec(order=PatternOrder.AB,
                                                gap=0.0), 1, seed=11)
    span = PatternSpec().train.duration
    p_disjoint, _ = monte_carlo(net, PatternSpec(order=PatternOrder.AB,
                                                 gap=span + 2.0), 1, seed=11)
    assert p_overlap == 1.0
    assert p_disjoint == 0.0
    report(11, "coincident trains spike, trains separated by 2 s do not")


def test_criterion_12_fit_round_trips():
    rng = np.random.default_rng(12)
    t = np.linspace(0, 0.5, 500)
    g = 2.9e-6 + 0.2e-6 * np.exp(-t / 0.1) * (
        1.0 + 0.01 * rng.standard_normal(t.size))
    res_decay = fitting.fit_decay(t, g, 2.9e-6)
    assert res_decay.params["tau_d"] == pytest.approx(0.1, rel=0.02)

    spikes = [0.0, 0.15, 0.55, 0.7, 1.3]
    true = tm.TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02)
    res_tm = fitting.fit_tm(tm.peaks_for_train(true, spikes), spikes)
    assert res_tm.params["u_cap"] == pytest.approx(0.1, rel=0.10)
    assert res_tm.params["tau_f"] == pytest.approx(0.5, rel=0.10)

    v = np.array([1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    y = 0.05 * (np.exp((v - 1.0) / 1.5) - 1.0)
    res_amp = fitting.fit_amplitude_curve(list(zip(v, y)), v_th=1.0)
    assert res_amp.params["c_amp"] == pytest.approx(0.05, rel=0.05)
    assert res_amp.params["v0"] == pytest.approx(1.5, rel=0.05)
    report(12, "decay tau within 2% under 1% noise; TM u_cap/tau_f within "
               "10%; amplitude c_amp/v0 within 5%")


def test_criterion_13_reproducibility(tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, threads in zip(outs, ("1", "1", "4")):
        rc = cli_main(["detect", "--topology", "sequence", "--pattern",
                       "both", "--trials", "60", "--seed", "31337",
                       "--threads", threads, "--out", str(out)])
        assert rc == 0
    manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
    assert manifests[0] == manifests[1] == manifests[2]
    for name in ("trials_ab.csv", "trials_ba.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]
    report(13, "identical manifests give byte-identical CSVs, "
               "independent of --threads")
