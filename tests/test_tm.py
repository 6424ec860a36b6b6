import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from memstp import tm
from memstp.tm import TMParams
from oracles import TMState


def test_advance_zero_dt_identity():
    p = TMParams()
    s = TMState(u=0.4, x=0.6)
    assert oracles.advance(s, 0.0, p) == s


def test_advance_exact_exponentials():
    p = TMParams(tau_f=0.5, tau_rec=0.02)
    s = oracles.advance(TMState(u=0.5, x=0.5), 0.5, p)
    assert s.u == pytest.approx(0.5 / math.e, rel=1e-12)
    s2 = oracles.advance(TMState(u=0.5, x=0.5), 0.02, p)
    assert s2.x == pytest.approx(1.0 - 0.5 / math.e, rel=1e-12)


def test_advance_negative_dt_rejected():
    with pytest.raises(ValueError):
        oracles.advance(TMState(), -1e-9, TMParams())


def test_on_spike_from_rest():
    p = TMParams(a=2.0, u_cap=0.1)
    s, peak = oracles.on_spike(TMState(), p)
    assert s.u == pytest.approx(0.1, abs=0.0)
    assert peak == pytest.approx(0.2, rel=1e-12)
    assert s.x == pytest.approx(0.9, rel=1e-12)


def test_on_spike_saturating_u_cap():
    p = TMParams(u_cap=1.0)
    s, _ = oracles.on_spike(TMState(u=0.37, x=0.8), p)
    assert s.u == 1.0


def test_second_spike_hand_computed():
    # u_cap = 0.1, tau_f = 500 ms, second spike 400 ms later
    p = TMParams(u_cap=0.1, tau_f=0.5, tau_rec=0.02)
    s, _ = oracles.on_spike(TMState(), p)
    s = oracles.advance(s, 0.4, p)
    assert s.u == pytest.approx(0.044933, abs=5e-7)
    s, _ = oracles.on_spike(s, p)
    assert s.u == pytest.approx(0.140440, abs=5e-7)


def test_peaks_single_spike():
    p = TMParams(a=3.0, u_cap=0.25)
    assert tm.peaks_for_train(p, [0.0]) == [pytest.approx(0.75, rel=1e-12)]


def test_peaks_facilitating_train():
    p = TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02)
    peaks = tm.peaks_for_train(p, [0.0, 0.4, 0.8])
    assert peaks == pytest.approx([0.1000, 0.140440, 0.156793], abs=5e-6)
    assert peaks[0] < peaks[1] < peaks[2]


def test_peaks_depressing_train():
    p = TMParams(a=1.0, u_cap=0.9, tau_rec=2.0, tau_f=0.01)
    peaks = tm.peaks_for_train(p, [0.0, 0.4, 0.8])
    assert peaks[0] > peaks[1] > peaks[2]


def test_peaks_reject_non_monotone_times():
    with pytest.raises(ValueError):
        tm.peaks_for_train(TMParams(), [0.0, 0.4, 0.4])


@pytest.mark.parametrize("params,times", [
    (TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02), [0.0, 0.4, 0.8]),
    (TMParams(a=2.5, u_cap=0.9, tau_rec=2.0, tau_f=0.01),
     [0.3, 0.31, 0.55, 1.7, 1.7001]),
    (TMParams(a=0.03, u_cap=0.37, tau_rec=0.15, tau_f=0.07),
     [0.0, 0.15, 0.55, 0.7, 1.3, 4.0]),
    (TMParams(a=1.0, u_cap=0.2, tau_rec=1e-9, tau_f=0.5), [1.0, 1.1, 1.2]),
    (TMParams(), [2.0]),
])
def test_peaks_equal_advance_on_spike_fold_exactly(params, times):
    expected = []
    state = TMState(t_last=times[0])
    prev = times[0]
    for t in times:
        state = oracles.advance(state, t - prev, params)
        state, peak = oracles.on_spike(state, params)
        expected.append(peak)
        prev = t
    assert tm.peaks_for_train(params, times) == expected


@pytest.mark.parametrize("params,times", [
    (TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02), [0.0, 0.4, 0.8]),
    (TMParams(a=2.5, u_cap=0.9, tau_rec=2.0, tau_f=0.01),
     [0.3, 0.31, 0.55, 1.7, 1.7001]),
    (TMParams(a=0.03, u_cap=0.37, tau_rec=0.15, tau_f=0.07),
     [0.0, 0.15, 0.55, 0.7, 1.3, 4.0]),
    (TMParams(a=1.0, u_cap=0.2, tau_rec=0.05, tau_f=0.5),
     [0.05 * k for k in range(6)]),
])
def test_peaks_with_jacobian_matches_central_differences(params, times):
    peaks, jac = tm.peaks_with_jacobian(
        [params.u_cap], [params.tau_rec], [params.tau_f], times, a=params.a)
    assert peaks.tolist() == [tm.peaks_for_train(params, times)]
    assert jac.shape == (1, len(times), 3)
    theta = np.array([params.a, params.u_cap, params.tau_rec, params.tau_f])
    for k in range(1, 4):
        h = 1e-6 * theta[k]
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        diff = (np.array(tm.peaks_for_train(TMParams(*up), times))
                - np.array(tm.peaks_for_train(TMParams(*down), times))) / (2 * h)
        np.testing.assert_allclose(jac[0, :, k - 1], diff, rtol=1e-5,
                                   atol=1e-9 * np.max(np.abs(jac)))


def test_peaks_with_jacobian_rows_equal_one_row_calls_exactly():
    times = [0.0, 0.15, 0.55, 0.7, 1.3, 4.0]
    u_cap = [0.1, 0.9, 0.37, 1e-3, 1.0]
    tau_rec = [0.02, 2.0, 0.15, 100.0, 1e-3]
    tau_f = [0.5, 0.01, 0.07, 1e-3, 100.0]
    peaks, jac = tm.peaks_with_jacobian(u_cap, tau_rec, tau_f, times, a=0.7)
    assert peaks.shape == (5, 6) and jac.shape == (5, 6, 3)
    for row, params in enumerate(zip(u_cap, tau_rec, tau_f)):
        one_peaks, one_jac = tm.peaks_with_jacobian(
            *([p] for p in params), times, a=0.7)
        assert peaks[row].tolist() == one_peaks[0].tolist()
        assert jac[row].tolist() == one_jac[0].tolist()


def test_long_gap_resets_to_rest_peak():
    p = TMParams(a=1.0, u_cap=0.17, tau_f=0.3, tau_rec=0.1)
    peaks = tm.peaks_for_train(p, [0.0, 100.0, 200.0])
    for pk in peaks[1:]:
        assert pk == pytest.approx(p.a * p.u_cap, rel=1e-10)


def test_integrate_reference_empty():
    assert oracles.integrate_reference(TMParams(), [], 1e-5) == []


def test_integrate_reference_matches_closed_form():
    p = TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02)
    ts = [0.0, 0.4, 0.8]
    closed = tm.peaks_for_train(p, ts)
    stepped = oracles.integrate_reference(p, ts, 1e-5)
    for c, s in zip(closed, stepped):
        assert s == pytest.approx(c, rel=1e-4)


def test_integrate_reference_error_shrinks_with_dt():
    p = TMParams(a=1.0, u_cap=0.3, tau_f=0.07, tau_rec=0.15)
    ts = [0.0, 0.05, 0.13, 0.31]
    closed = np.array(tm.peaks_for_train(p, ts))

    def err(dt):
        stepped = np.array(oracles.integrate_reference(p, ts, dt))
        return float(np.max(np.abs(stepped - closed) / closed))

    assert err(5e-4) > err(2.5e-4) > 0.0


@given(
    u_cap=st.floats(0.01, 1.0),
    tau_f=st.floats(1e-3, 10.0),
    tau_rec=st.floats(1e-3, 10.0),
    gaps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=9),
)
@settings(max_examples=150, deadline=None)
def test_state_stays_in_unit_box(u_cap, tau_f, tau_rec, gaps):
    p = TMParams(a=1.0, u_cap=u_cap, tau_f=tau_f, tau_rec=tau_rec)
    times = list(np.cumsum([0.0] + gaps))
    s = TMState()
    prev = times[0]
    for t in times:
        s = oracles.advance(s, t - prev, p)
        s, peak = oracles.on_spike(s, p)
        assert 0.0 <= s.u <= 1.0
        assert 0.0 <= s.x <= 1.0
        assert peak >= 0.0
        prev = t


@given(
    a=st.floats(1e-3, 1e3),
    u_cap=st.floats(0.01, 0.99),
    gap=st.floats(0.01, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_paired_pulse_ratio_scale_invariant(a, u_cap, gap):
    base = TMParams(a=1.0, u_cap=u_cap, tau_f=0.5, tau_rec=0.05)
    scaled = TMParams(a=a, u_cap=u_cap, tau_f=0.5, tau_rec=0.05)
    p1 = tm.peaks_for_train(base, [0.0, gap])
    p2 = tm.peaks_for_train(scaled, [0.0, gap])
    assert p2[1] / p2[0] == pytest.approx(p1[1] / p1[0], rel=1e-9)


def test_facilitation_only_reduction_keeps_resources_full():
    p = TMParams(a=1.0, u_cap=0.2, tau_rec=1e-9, tau_f=0.5)
    peaks = tm.peaks_for_train(p, [0.0, 0.1, 0.2, 0.3])
    # with instant resource recovery every peak is a * u+ alone
    u = 0.0
    for pk in peaks:
        u = u + 0.2 * (1.0 - u)
        assert pk == pytest.approx(u, rel=1e-9)
        u *= math.exp(-0.1 / 0.5)
