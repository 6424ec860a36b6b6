import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from memstp import fitting, tm


# ---------------------------------------------------------------------------
# fit_decay
# ---------------------------------------------------------------------------


def test_fit_decay_noiseless_exact():
    t = np.arange(0, 0.5, 1e-3)
    g = 2.9e-6 + 0.2e-6 * np.exp(-t / 0.1)
    res = fitting.fit_decay(t, g, 2.9e-6)
    assert res.converged
    assert res.params["tau_d"] == pytest.approx(0.1, rel=1e-6)
    assert res.params["amplitude"] == pytest.approx(0.2e-6, rel=1e-6)


@pytest.mark.parametrize("tau", [1e-300, 1e300])
def test_fit_decay_any_time_scale(tau):
    # Squaring times near 1e300 overflows; the fit must not.
    t = np.linspace(0.0, 4.0 * tau, 200)
    g = 2.9e-6 + 0.2e-6 * np.exp(-t / tau)
    res = fitting.fit_decay(t, g, 2.9e-6)
    assert res.converged
    assert res.params["tau_d"] == pytest.approx(tau, rel=1e-6)


def test_fit_decay_sse_beyond_the_float_range_is_inf():
    # Residuals near 1e300 square beyond the largest float.
    t = np.linspace(0.0, 1.0, 50)
    g = 1e300 * np.exp(-t / 0.2) + 1e299 * np.sin(40.0 * t) ** 2
    res = fitting.fit_decay(t, g, 0.0)
    assert res.converged and res.sse == np.inf


def test_fit_decay_constant_trace_fails():
    t = np.arange(0, 0.5, 1e-3)
    res = fitting.fit_decay(t, np.full(t.size, 2.9e-6), 2.9e-6)
    assert not res.converged


@pytest.mark.parametrize("t0", [0.0, 0.1])
def test_fit_decay_needs_two_distinct_times(t0):
    # One time for every sample leaves the slope undetermined: at t=0 the
    # regression failed inside LAPACK, at t=0.1 it reported a made-up tau_d.
    res = fitting.fit_decay([t0] * 3, [3.1e-6, 3.0e-6, 2.95e-6], 2.9e-6)
    assert not res.converged
    assert np.isnan(res.params["tau_d"]) and np.isnan(res.params["amplitude"])
    assert "distinct times" in res.message


def test_fit_decay_noisy_within_two_percent():
    rng = np.random.default_rng(12)
    t = np.linspace(0, 0.5, 500)
    g = 2.9e-6 + 0.2e-6 * np.exp(-t / 0.1) * (
        1.0 + 0.01 * rng.standard_normal(t.size))
    res = fitting.fit_decay(t, g, 2.9e-6)
    assert res.converged
    assert res.params["tau_d"] == pytest.approx(0.1, rel=0.02)


# ---------------------------------------------------------------------------
# fit_tm
# ---------------------------------------------------------------------------

VARIED_SPIKES = [0.0, 0.15, 0.55, 0.7, 1.3]


def test_fit_tm_round_trip_noiseless():
    true = tm.TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02)
    peaks = tm.peaks_for_train(true, VARIED_SPIKES)
    res = fitting.fit_tm(peaks, VARIED_SPIKES)
    assert res.params["u_cap"] == pytest.approx(0.1, rel=0.10)
    assert res.params["tau_f"] == pytest.approx(0.5, rel=0.10)


def test_fit_tm_depressing_round_trip():
    true = tm.TMParams(a=2.0, u_cap=0.45, tau_f=0.12, tau_rec=0.3)
    peaks = tm.peaks_for_train(true, VARIED_SPIKES)
    res = fitting.fit_tm(peaks, VARIED_SPIKES)
    assert res.params["u_cap"] == pytest.approx(0.45, rel=0.10)
    assert res.params["tau_f"] == pytest.approx(0.12, rel=0.10)


def test_fit_tm_constant_peaks_flagged_degenerate():
    res = fitting.fit_tm([0.2, 0.2, 0.2, 0.2], [0.0, 0.4, 0.8, 1.2])
    assert not res.converged


def test_fit_tm_noise_floor():
    rng = np.random.default_rng(3)
    true = tm.TMParams(a=1.0, u_cap=0.1, tau_f=0.5, tau_rec=0.02)
    clean = np.array(tm.peaks_for_train(true, VARIED_SPIKES))
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
    res = fitting.fit_tm(list(noisy), VARIED_SPIKES)
    noise_var = float(np.mean((noisy - clean) ** 2))
    assert res.sse / len(noisy) <= 3.0 * max(noise_var, 1e-30)


def _assert_in_bounds(params, bounds):
    for name, (lo, hi) in bounds.items():
        assert lo <= params[name] <= hi, name


@given(
    a=st.floats(0.05, 20.0),
    u_cap=st.floats(0.02, 0.95),
    tau_rec=st.floats(0.005, 3.0),
    tau_f=st.floats(0.005, 3.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=12, deadline=None)
# High u_cap: starts with u_cap in {0.1, 0.5} alone all end in one local
# minimum at about 3x the SSE of the true parameters.
@example(a=1.0, u_cap=0.75, tau_rec=0.0625, tau_f=1.0, seed=5204)
# Tiny peaks: unless the data are divided by their scale, TRF stops at its
# first evaluation on gtol.
@example(a=0.05, u_cap=0.02, tau_rec=3.0, tau_f=0.005, seed=3)
# Slow recovery: needs the tau_rec = 2 starts.
@example(a=2.5418823244444306, u_cap=0.050712249939134174,
         tau_rec=1.5124926617192889, tau_f=0.3737852999188372, seed=721318108)
def test_fit_tm_never_worse_than_true_params(a, u_cap, tau_rec, tau_f, seed):
    true = tm.TMParams(a=a, u_cap=u_cap, tau_rec=tau_rec, tau_f=tau_f)
    clean = np.array(tm.peaks_for_train(true, VARIED_SPIKES))
    rng = np.random.default_rng(seed)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
    res = fitting.fit_tm(list(noisy), VARIED_SPIKES)
    sse_true = float(np.sum((noisy - clean) ** 2))
    assert res.sse <= sse_true * (1.0 + 1e-9)
    a_hi = float(np.max(noisy))
    _assert_in_bounds(res.params, {
        "a": (1e-12, 1e6 * a_hi), "u_cap": (1e-3, 1.0),
        "tau_rec": (1e-3, 100.0), "tau_f": (1e-3, 100.0)})


def _trf_oracle(peaks, spike_times):
    """fit_tm with scipy TRF run from every start to convergence."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_least_squares", oracles.trf_least_squares)
        return fitting.fit_tm(peaks, spike_times)


@pytest.mark.parametrize("spikes", [VARIED_SPIKES,
                                    [0.05 * k for k in range(6)]],
                         ids=["varied", "six_50ms"])
def test_fit_tm_batched_starts_match_trf_oracle(spikes):
    # Seeded draws from the property-test ranges, 1% multiplicative noise.
    rng = np.random.default_rng(1013)
    misses = []
    for draw in range(40):
        a, u_cap, tau_rec, tau_f = rng.uniform([0.05, 0.02, 0.005, 0.005],
                                               [20.0, 0.95, 3.0, 3.0])
        clean = np.array(tm.peaks_for_train(
            tm.TMParams(a=a, u_cap=u_cap, tau_rec=tau_rec, tau_f=tau_f),
            spikes))
        noisy = list(clean * (1.0 + 0.01 * rng.standard_normal(clean.size)))
        sse = fitting.fit_tm(noisy, spikes).sse
        sse_oracle = _trf_oracle(noisy, spikes).sse
        floor = 1e-12 * float(np.sum(np.square(noisy)))
        if sse > sse_oracle * (1.0 + 1e-6) + floor:
            misses.append((draw, sse, sse_oracle))
    assert misses == []


def test_fit_tm_three_rising_peaks_bounded_cost(monkeypatch):
    # The best fit lies at tau_f -> infinity, where TRF run to convergence
    # from all twelve starts crawls toward the tau_f bound (32,477 model
    # evaluations). The winning row must stop there on its projected
    # gradient, converged.
    rows = []
    exact = tm.peaks_with_jacobian

    def counted(u_cap, *args, **kwargs):
        rows.append(len(u_cap))
        return exact(u_cap, *args, **kwargs)

    monkeypatch.setattr(tm, "peaks_with_jacobian", counted)
    res = fitting.fit_tm([0.2, 0.25, 0.3], [0.0, 0.05, 0.1])
    assert sum(rows) <= 2000
    assert res.sse <= 3.0263e-4
    assert res.converged
    assert res.params["tau_f"] == 100.0


def test_fit_tm_ends_in_the_better_basin():
    # Six peaks where a multi-start that cut most starts after a short probe
    # ended at SSE 3.857e-3 (tau_rec at its 1e-3 bound), 21% above the
    # basin with tau_rec at its 100 bound.
    res = fitting.fit_tm([0.875901, 1.6163, 2.15177, 2.6311, 3.04454, 3.26295],
                         [0.05 * k for k in range(6)])
    assert res.converged
    assert res.sse <= 3.1855e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fits_reject_non_finite_inputs(bad):
    with pytest.raises(ValueError, match="finite"):
        fitting.fit_tm([0.1, bad, 0.3], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="finite"):
        fitting.fit_tm([0.1, 0.2, 0.3], [0.0, bad, 0.2])
    with pytest.raises(ValueError, match="finite"):
        fitting.fit_amplitude_curve([(2.0, 0.1), (3.0, bad), (4.0, 0.3)])
    with pytest.raises(ValueError, match="finite"):
        fitting.fit_amplitude_curve([(2.0, 0.1), (bad, 0.2), (4.0, 0.3)])


def test_fit_tm_bad_inputs_rejected():
    with pytest.raises(ValueError):
        fitting.fit_tm([0.1], [0.0])
    with pytest.raises(ValueError):
        fitting.fit_tm([0.1, 0.2], [0.4, 0.4])


# ---------------------------------------------------------------------------
# fit_amplitude_curve
# ---------------------------------------------------------------------------


def test_fit_amplitude_round_trip():
    v = np.array([1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    y = 0.05 * (np.exp((v - 1.0) / 1.5) - 1.0)
    res = fitting.fit_amplitude_curve(list(zip(v, y)), v_th=1.0)
    assert res.params["c_amp"] == pytest.approx(0.05, rel=0.05)
    assert res.params["v0"] == pytest.approx(1.5, rel=0.05)


@pytest.mark.parametrize("gain", [1e9, 1e200])
def test_fit_amplitude_scale_bound_is_relative_to_the_data(gain):
    # A fixed bound on c_amp held the scale at 1e6 and the fit "converged"
    # at its first start; the bound is 1e6 times the largest response.
    v = np.array([1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    y = gain * 0.05 * (np.exp((v - 1.0) / 1.5) - 1.0)
    res = fitting.fit_amplitude_curve(list(zip(v, y)), v_th=1.0)
    assert res.converged
    assert res.params["c_amp"] == pytest.approx(gain * 0.05, rel=1e-6)
    assert res.params["v0"] == pytest.approx(1.5, rel=1e-6)


def test_fit_amplitude_two_points_rejected():
    with pytest.raises(ValueError):
        fitting.fit_amplitude_curve([(2.0, 0.1), (3.0, 0.2)], v_th=1.0)


def test_fit_amplitude_all_zero_degenerate():
    res = fitting.fit_amplitude_curve(
        [(2.0, 0.0), (3.0, 0.0), (4.0, 0.0)], v_th=1.0)
    assert not res.converged
    assert res.params["c_amp"] == 0.0


@pytest.mark.parametrize("v0", [0.021, 0.047, 0.3, 1.5, 40.0])
def test_amplitude_law_derivative_matches_central_differences(v0):
    # dv / v0 spans both sides of the exponent cap at 50 for small v0, away
    # from the kink at the cap itself.
    dv = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    f, df = fitting._amplitude_law(dv, v0)
    h = 1e-6 * v0
    diff = (fitting._amplitude_law(dv, v0 + h)[0]
            - fitting._amplitude_law(dv, v0 - h)[0]) / (2 * h)
    np.testing.assert_allclose(df, diff, rtol=1e-5, atol=1e-9 * np.max(np.abs(f)))
    if v0 < 0.05:
        assert np.all(df[dv / v0 > 50.0] == 0.0)


@given(
    c_amp=st.floats(0.005, 0.5),
    v0=st.floats(0.5, 4.0),
)
@settings(max_examples=20, deadline=None)
def test_fit_amplitude_round_trip_property(c_amp, v0):
    v = np.array([1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    y = c_amp * (np.exp((v - 1.0) / v0) - 1.0)
    res = fitting.fit_amplitude_curve(list(zip(v, y)), v_th=1.0)
    assert res.params["c_amp"] == pytest.approx(c_amp, rel=0.05)
    assert res.params["v0"] == pytest.approx(v0, rel=0.05)


@given(
    c_amp=st.floats(0.005, 0.5),
    v0=st.floats(0.5, 4.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_fit_amplitude_never_worse_than_true_params(c_amp, v0, seed):
    v = np.array([1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    clean = c_amp * (np.exp((v - 1.0) / v0) - 1.0)
    rng = np.random.default_rng(seed)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
    res = fitting.fit_amplitude_curve(list(zip(v, noisy)), v_th=1.0)
    sse_true = float(np.sum((noisy - clean) ** 2))
    assert res.sse <= sse_true * (1.0 + 1e-9)
    _assert_in_bounds(res.params, {"c_amp": (1e-12, 1e6), "v0": (1e-3, 100.0)})
