import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_fit_decay_constant_trace_fails():
    t = np.arange(0, 0.5, 1e-3)
    res = fitting.fit_decay(t, np.full(t.size, 2.9e-6), 2.9e-6)
    assert not res.converged


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
