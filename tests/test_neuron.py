import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import oracles
from memstp import neuron as nrn
from memstp.neuron import NeuronParams
from oracles import NeuronState


def lif_params(**kw):
    base = dict(c_m=5e-8, g_l=1e-6, e_l=0.0, delta_t=0.0, v_t=1.0,
                v_peak=1.0, v_reset=0.0, t_ref=0.0)
    base.update(kw)
    return NeuronParams(**base)


def test_rest_is_a_fixed_point():
    p = lif_params()
    s = NeuronState(v_m=p.e_l)
    for _ in range(100):
        s, spiked = oracles.step(s, p, 0.0, 1e-3)
        assert not spiked
    assert s.v_m == pytest.approx(p.e_l, abs=1e-15)


def test_lif_subthreshold_steady_state():
    p = lif_params()
    i_in = 0.5e-6  # v_inf = 0.5 V < v_peak
    s = NeuronState(v_m=p.e_l)
    for _ in range(20000):
        s, _ = oracles.step(s, p, i_in, 1e-4)
    assert s.v_m == pytest.approx(p.e_l + i_in / p.g_l, rel=1e-6)


def test_lif_spike_time_matches_closed_form():
    p = lif_params()
    tau_m = p.tau_m
    i_in = 1.5e-6  # v_inf = 1.5 V > v_peak
    dt = tau_m / 1000.0
    n = int(5 * tau_m / dt)
    _, _, (spikes,) = nrn.run_traces(p, np.full((1, n), i_in), dt)
    v_inf = p.e_l + i_in / p.g_l
    t_star = tau_m * math.log((v_inf - p.e_l) / (v_inf - p.v_peak))
    assert spikes[0] == pytest.approx(t_star, rel=0.02)


def test_lif_trace_matches_exact_exponential():
    # piecewise-constant input: charging toward v_inf with tau_m
    p = lif_params(v_peak=10.0, v_t=10.0)
    i_in = 1.0e-6
    dt = p.tau_m / 1000.0
    n = 3000
    times, (v,), _ = nrn.run_traces(p, np.full((1, n), i_in), dt)
    v_inf = p.e_l + i_in / p.g_l
    exact = v_inf * (1.0 - np.exp(-times / p.tau_m))
    assert np.max(np.abs(v - exact)) < 0.005 * v_inf


def test_spike_fires_at_exactly_v_peak():
    # From v = e_l = 0 with no exponential term, both paths compute
    # v = (dt/c_m) * i exactly on the first step, which equals v_peak.
    dt, i = 1e-4, 1e-9
    params = NeuronParams(delta_t=0.0, e_l=0.0,
                          v_peak=(dt / NeuronParams().c_m) * i)
    _, spiked = oracles.step(NeuronState(v_m=0.0), params, i, dt, t=dt)
    assert spiked
    _, _, (spikes,) = nrn.run_traces(params, np.full((1, 3), i), dt, v0=0.0)
    assert spikes[:1] == [dt]


def test_dt_stability_contract_rejected():
    p = lif_params()
    with pytest.raises(ValueError, match="stability"):
        oracles.step(NeuronState(v_m=0.0), p, 0.0, p.tau_m)
    with pytest.raises(ValueError):
        nrn.run_traces(p, np.zeros((1, 10)), p.tau_m)


def test_zero_current_trace_flat_no_spikes():
    p = lif_params()
    _, (v,), (spikes,) = nrn.run_traces(p, np.zeros((1, 500)), 1e-3)
    assert spikes == []
    assert np.allclose(v, p.e_l, atol=1e-15)


def test_refractory_isi_floor():
    p = lif_params(t_ref=7e-3)
    # hard drive: spikes as fast as the refractory period allows
    _, _, (spikes,) = nrn.run_traces(p, np.full((1, 5000), 5e-6), 1e-3)
    isi = np.diff(spikes)
    assert len(spikes) > 3
    assert np.all(isi >= p.t_ref)


def test_exponential_term_accelerates_spiking():
    # with delta_t > 0 the exponential term adds depolarizing current above
    # v_t, so the spike comes earlier than in the pure LIF
    p_exp = lif_params(delta_t=0.05, v_t=0.8, v_peak=1.0)
    p_lif = lif_params(v_t=1.0, v_peak=1.0)
    i_in = 1.2e-6
    dt = 1e-4
    n = 50000
    _, _, (spk_exp,) = nrn.run_traces(p_exp, np.full((1, n), i_in), dt)
    _, _, (spk_lif,) = nrn.run_traces(p_lif, np.full((1, n), i_in), dt)
    assert spk_exp and spk_lif
    assert spk_exp[0] < spk_lif[0]


def test_exponential_overflow_guarded():
    p = lif_params(delta_t=1e-3, v_t=0.1, v_peak=1.0)
    s = NeuronState(v_m=0.9)  # far above v_t: huge exponential argument
    s, spiked = oracles.step(s, p, 0.0, 1e-3)
    assert spiked
    assert math.isfinite(s.v_m)


def test_three_increasing_charge_pulses_increasing_membrane_peaks():
    # facilitating-synapse drive: growing pulse areas, gap 400 ms >> tau_m
    p = lif_params(v_peak=10.0, v_t=10.0)
    dt = 1e-3
    n = 1400
    current = np.zeros(n)
    for k, scale in enumerate((1.0, 1.4, 1.8)):
        current[int(0.1 / dt) + int(0.4 / dt) * k] = 2e-6 * scale
    _, (v,), _ = nrn.run_traces(p, current[None], dt)
    segs = [v[int(0.1 / dt) + int(0.4 / dt) * k:
               int(0.1 / dt) + int(0.4 / dt) * (k + 1)] for k in range(3)]
    peaks = [float(np.max(s)) for s in segs]
    assert peaks[0] < peaks[1] < peaks[2]


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    scale=st.floats(1.1, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_monotone_drive_never_fewer_spikes(seed, scale):
    p = lif_params(t_ref=0.0, v_peak=0.4, v_t=0.4)
    rng = np.random.default_rng(seed)
    current = rng.uniform(0.0, 0.9e-6, 2500)
    _, _, (spk_small, spk_big) = nrn.run_traces(
        p, np.stack([current, scale * current]), 1e-3)
    assert len(spk_big) >= len(spk_small)


@pytest.mark.parametrize("dt, t_ref", [
    (1e-3, 7e-3),
    # t_ref/dt is a whole number that float countdowns of t_ref overshoot.
    (1e-4, 3e-3),
])
def test_fast_path_matches_step_loop_exactly(dt, t_ref):
    p = lif_params(v_peak=0.3, v_t=0.3, t_ref=t_ref)
    rng = np.random.default_rng(1)
    current = rng.uniform(0.0, 1.2e-6, 4000)
    _, (v_fast,), (spk_fast,) = nrn.run_traces(p, current[None], dt)
    s = NeuronState(v_m=p.e_l)
    v_loop, spk_loop = [], []
    for k in range(current.size):
        s, spiked = oracles.step(s, p, float(current[k]), dt, t=(k + 1) * dt)
        v_loop.append(s.v_m)
        if spiked:
            spk_loop.append((k + 1) * dt)
    assert np.max(np.abs(v_fast - np.array(v_loop))) < 1e-14
    assert spk_fast == pytest.approx(spk_loop)


def reference_lif(params, current, dt, v0):
    """One-membrane lfilter loop the batched LIF filter replaced."""
    alpha = 1.0 - dt * params.g_l / params.c_m
    drive = dt / params.c_m * (params.g_l * params.e_l + current)
    n = current.size
    v = np.empty(n)
    spikes = []
    ref_steps = int(math.ceil(params.t_ref / dt)) if params.t_ref > 0.0 else 0
    start, v_prev = 0, v0
    while start < n:
        seg = lfilter([1.0], [1.0, -alpha], drive[start:], zi=[alpha * v_prev])[0]
        crossings = np.nonzero(seg >= params.v_peak)[0]
        if crossings.size == 0:
            v[start:] = seg
            break
        k = int(crossings[0])
        v[start:start + k] = seg[:k]
        spikes.append(start + k)
        stop = min(start + k + 1 + ref_steps, n)
        v[start + k:stop] = params.v_reset
        v_prev, start = params.v_reset, stop
    return v, spikes


@pytest.mark.parametrize("t_ref", [0.0, 7e-3])
def test_batched_lif_rows_match_one_membrane_filter(t_ref):
    p = lif_params(v_peak=0.3, v_t=0.3, t_ref=t_ref)
    rng = np.random.default_rng(2)
    dt = 1e-3
    # Rows from silent to multi-spike, each with its own start voltage.
    current = rng.uniform(0.0, 1.0, (9, 1500)) * np.linspace(0.0, 1.2e-6, 9)[:, None]
    v0 = rng.uniform(-0.1, 0.29, 9)
    times, v, spikes = nrn.run_traces(p, current, dt, v0=v0)
    assert np.array_equal(times, dt * np.arange(1, 1501))
    assert len(spikes[0]) == 0 and len(spikes[-1]) > 3
    for row in range(9):
        want_v, want_idx = reference_lif(p, current[row], dt, v0[row])
        assert np.array_equal(v[row], want_v)
        assert spikes[row] == [float(times[k]) for k in want_idx]
        _, (v_one,), (spk_one,) = nrn.run_traces(p, current[row, None], dt,
                                                 v0=v0[row])
        assert np.array_equal(v_one, want_v) and spk_one == spikes[row]


def test_batched_exponential_rows_match_one_row_runs():
    p = lif_params(delta_t=0.05, v_t=0.25, v_peak=0.3, t_ref=3e-3)
    current = np.random.default_rng(3).uniform(0.0, 1.0e-6, (3, 600))
    _, v, spikes = nrn.run_traces(p, current, 1e-3)
    for row in range(3):
        _, (v_one,), (spk_one,) = nrn.run_traces(p, current[row, None], 1e-3)
        assert np.array_equal(v[row], v_one) and spikes[row] == spk_one


def test_exponential_rows_match_step_loop():
    # The batched loop and `oracles.step` evaluate the EIF equation in
    # different float orders, and np.exp may differ from math.exp in the
    # last ulp, so v agrees to a tolerance; spike steps agree exactly
    # because no threshold crossing here is closer than 1e-9 V.
    p = lif_params(delta_t=0.05, v_t=0.25, v_peak=0.3, t_ref=3e-3)
    p_no_reset = replace(p, v_peak=math.inf)
    dt = 1e-3
    rng = np.random.default_rng(4)
    # Rows from silent to tens of spikes, each with its own start voltage.
    current = rng.uniform(0.0, 1.0, (6, 1500)) * np.linspace(
        0.2e-6, 1.0e-6, 6)[:, None]
    v0 = rng.uniform(-0.05, 0.28, 6)
    times, v, spikes = nrn.run_traces(p, current, dt, v0=v0)
    assert len(spikes[0]) == 0 and len(spikes[-1]) > 20
    for row in range(6):
        s = NeuronState(v_m=float(v0[row]))
        v_loop, spk_loop = [], []
        for k in range(times.size):
            i_in = float(current[row, k])
            if s.refrac_left == 0.0:
                v_free = oracles.step(s, p_no_reset, i_in, dt)[0].v_m
                assert abs(v_free - p.v_peak) > 1e-9
            s, spiked = oracles.step(s, p, i_in, dt, t=float(times[k]))
            v_loop.append(s.v_m)
            if spiked:
                spk_loop.append(float(times[k]))
        np.testing.assert_allclose(v[row], v_loop, rtol=0.0, atol=1e-12)
        assert spikes[row] == spk_loop


@pytest.mark.parametrize("rows", [700, 1])
def test_integrate_asks_for_each_step_once_in_consecutive_blocks(monkeypatch,
                                                                 rows):
    p = lif_params(v_peak=0.3, v_t=0.3, t_ref=3e-3)
    dt = 1e-3
    block = nrn._block_steps(rows)
    steps = 5 * block + 3  # not a whole number of blocks
    rng = np.random.default_rng(5)
    current = rng.uniform(0.0, 1.2e-6, (rows, steps))
    v0 = rng.uniform(0.0, 0.29, rows)
    calls = []

    def recorded(a, b):
        calls.append((a, b))
        return current[:, a:b].T

    v = np.empty((rows, steps))
    times, spike_times, offsets = nrn._integrate(p, recorded, steps, dt, v0, v)
    assert len(calls) == 6 and calls[0][0] == 0 and calls[-1][1] == steps
    assert all(a < b for a, b in calls)
    assert all(b == a for (_, b), (a, _) in zip(calls, calls[1:]))
    assert np.max(np.diff(offsets)) > 1  # rows with several spikes

    monkeypatch.setattr(nrn, "_block_steps", lambda rows: steps)
    v_one = np.empty_like(v)
    one = nrn._integrate(p, lambda a, b: current[:, a:b].T, steps, dt, v0,
                         v_one)
    assert np.array_equal(v, v_one)
    for got, want in zip((times, spike_times, offsets), one):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [
    lif_params(v_peak=0.3, v_t=0.3, t_ref=5e-3),
    lif_params(delta_t=0.05, v_t=0.25, v_peak=0.3, t_ref=5e-3),
], ids=["lif", "eif"])
def test_one_row_matches_its_row_in_a_batch(p):
    # One membrane runs on Python floats and two take the array loop; both
    # must give the same bits. A forced spike two steps before the first
    # block edge puts a refractory window across it.
    dt = 1e-3
    block = nrn._block_steps(1)
    steps = 2 * block + 5
    current = np.random.default_rng(6).uniform(0.0, 1.0e-6, steps)
    current[block - 2] = 2e-5  # one step from rest past v_peak
    v0 = np.array([0.1])
    v_one, v_two = np.empty((1, steps)), np.empty((2, steps))
    one = nrn._integrate(p, lambda a, b: current[a:b, None], steps, dt, v0,
                         v_one)
    two = nrn._integrate(p, lambda a, b: np.repeat(current[a:b, None], 2, 1),
                         steps, dt, np.repeat(v0, 2), v_two)
    times, spike_times, offsets = one
    spike_steps = np.rint(spike_times / dt).astype(int) - 1
    assert np.any((spike_steps < block) & (spike_steps + 5 >= block))
    assert offsets.tolist() == [0, spike_times.size] and spike_times.size > 20
    assert np.array_equal(times, two[0])
    assert np.array_equal(two[2], [0, spike_times.size, 2 * spike_times.size])
    for row in range(2):
        assert np.array_equal(v_two[row], v_one[0])
        assert np.array_equal(two[1][two[2][row]:two[2][row + 1]], spike_times)
    no_trace = nrn._integrate(p, lambda a, b: current[a:b, None], steps, dt,
                              v0)
    for got, want in zip(no_trace, one):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("field", [f.name for f in fields(NeuronParams)])
def test_params_reject_nan_naming_the_field(field):
    with pytest.raises(ValueError, match=f"^{field} must not be NaN"):
        NeuronParams(**{field: math.nan})


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", [f.name for f in fields(NeuronParams) if f.name != "v_peak"])
def test_params_reject_infinity_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        NeuronParams(**{field: value})


@pytest.mark.parametrize("field, value, words", [
    ("c_m", 0.0, "be > 0"), ("c_m", -5e-324, "be > 0"), ("g_l", 0.0, "be > 0"),
    ("delta_t", -5e-324, "be >= 0"), ("t_ref", -5e-324, "be >= 0"),
])
def test_params_reject_values_outside_the_domain(field, value, words):
    with pytest.raises(ValueError, match=f"^{field} must {words}$"):
        NeuronParams(**{field: value})
    edge = 5e-324 if words == "be > 0" else 0.0
    assert getattr(NeuronParams(**{field: edge}), field) == edge


def test_params_accept_infinite_v_peak():
    assert NeuronParams(v_peak=math.inf).v_peak == math.inf


# ---------------------------------------------------------------------------
# Event path against the step loop
# ---------------------------------------------------------------------------


def piece_current(pieces, rows):
    """The (steps, rows) current the step loop reads for ``pieces``."""
    current = np.empty((pieces[-1].hi, rows))
    for piece in pieces:
        if piece.rho is None:
            current[piece.lo] = piece.a
        else:
            j = np.arange(piece.hi - piece.lo)[:, None]
            current[piece.lo:piece.hi] = piece.a + piece.b * piece.rho ** j
    return current


def random_pieces(rng, rows, steps, dt):
    """Smooth pieces 1-60 steps long, each with its own decay rate and per-row
    (a, b), and one-step pulses, some strong enough to fire on their own."""
    pieces, lo = [], 0
    while lo < steps:
        if rng.random() < 0.3:
            pieces.append(nrn.Piece(lo, lo + 1, rng.uniform(0.0, 3e-5, rows)))
            lo += 1
            continue
        hi = min(steps, lo + int(rng.integers(1, 61)))
        pieces.append(nrn.Piece(
            lo, hi, rng.uniform(0.0, 1.6e-6, rows),
            rng.uniform(-1.5e-6, 1.5e-6, rows),
            math.exp(-dt / rng.uniform(2e-3, 1.0))))
        lo = hi
    return pieces


def run_both(p, pieces, dt, v0, monkeypatch=None):
    """Spike results of the event path and of the step loop on ``pieces``;
    with ``monkeypatch``, also the row counts of the event path's calls to
    ``_integrate``."""
    current = piece_current(pieces, v0.size)
    steps = current.shape[0]
    want = nrn._integrate(p, lambda a, b: current[a:b], steps, dt, v0)
    calls = []
    if monkeypatch is not None:
        integrate = nrn._integrate

        def counting(params, current, steps, dt, v0, v_out=None):
            calls.append(v0.size)
            return integrate(params, current, steps, dt, v0, v_out)

        monkeypatch.setattr(nrn, "_integrate", counting)
    got = nrn._integrate_events(
        p, iter(pieces), steps, dt, v0,
        lambda rows: lambda a, b: current[a:b, rows])
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return want, calls


@given(seed=st.integers(0, 2 ** 32 - 1),
       t_ref=st.sampled_from([0.0, 3e-3, 25e-3]))
@settings(max_examples=30, deadline=None)
def test_event_path_matches_step_loop_on_random_pieces(seed, t_ref):
    rng = np.random.default_rng(seed)
    p = lif_params(v_peak=0.6, v_t=0.6, v_reset=0.1, t_ref=t_ref)
    dt = 1e-3
    v0 = rng.uniform(-0.2, 0.55, 40)
    run_both(p, random_pieces(rng, 40, 700, dt), dt, v0)


def test_event_path_covers_multi_spike_rows_and_holds_across_edges():
    # A fixed draw of random_pieces that shows what the property test above
    # exercises: rows that fire many times, in one piece and across pieces,
    # and holds that end in a later piece than they start.
    rng = np.random.default_rng(2024)
    p = lif_params(v_peak=0.6, v_t=0.6, v_reset=0.1, t_ref=25e-3)
    dt = 1e-3
    pieces = random_pieces(rng, 40, 700, dt)
    v0 = rng.uniform(-0.2, 0.55, 40)
    (times, spike_times, offsets), _ = run_both(p, pieces, dt, v0)
    spikes = np.rint(spike_times / dt).astype(int) - 1
    assert np.max(np.diff(offsets)) > 5
    starts = np.array([piece.lo for piece in pieces])
    # The piece of each spike step, and of the last step of its hold.
    spike_piece = np.searchsorted(starts, spikes, side="right")
    hold_piece = np.searchsorted(starts, spikes + round(p.t_ref / dt),
                                 side="right")
    assert np.any(hold_piece > spike_piece)
    smooth = [np.count_nonzero((spikes >= q.lo) & (spikes < q.hi))
              for q in pieces if q.rho is not None]
    assert max(smooth) > 1


def test_event_path_hands_rho_near_alpha_to_the_step_loop(monkeypatch):
    # A decay rate within 1e-12 of the membrane's: Q = B/(rho - alpha) is
    # too large for the closed form, so the rows with a decaying term there
    # fall back.
    p = lif_params(v_peak=0.6, v_t=0.6, t_ref=5e-3)
    dt = 1e-3
    alpha = 1.0 - dt * p.g_l / p.c_m
    tau_d = -dt / math.log(alpha) * (1.0 + 1e-11)
    rng = np.random.default_rng(7)
    rows = 30
    b = np.where(np.arange(rows) < 10, rng.uniform(0.2e-6, 1e-6, rows), 0.0)
    pieces = [nrn.Piece(0, 200, rng.uniform(0.2e-6, 0.9e-6, rows), 0.0, 0.9),
              nrn.Piece(200, 201, np.full(rows, 2e-5)),
              nrn.Piece(201, 900, rng.uniform(0.3e-6, 0.7e-6, rows), b,
                        math.exp(-dt / tau_d))]
    assert 0.0 < abs(pieces[2].rho - alpha) < 1e-12
    _, calls = run_both(p, pieces, dt, np.zeros(rows), monkeypatch)
    assert calls == [10]


def loop_peak(p, pieces, dt, v0):
    """The step loop's largest v of one row that never fires."""
    current = piece_current(pieces, 1)
    _, (v,), _ = nrn.run_traces(replace(p, v_peak=math.inf), current.T, dt,
                                v0=v0)
    return float(np.max(v))


def test_event_path_hands_a_peak_at_v_peak_to_the_step_loop(monkeypatch):
    # One decaying drive, so v rises to an interior maximum and falls.
    # Row 0 peaks exactly at v_peak (and fires), row 1 is tuned by bisection
    # to peak within 1e-12 V below it (and does not); both fail the
    # certificate. Row 2 peaks over 0.01 V below and stays on the event path.
    p = lif_params(v_peak=0.6, v_t=0.6, t_ref=5e-3)
    dt = 1e-3

    def pieces(a):
        return [nrn.Piece(0, 400, np.asarray(a), np.full(len(a), 0.9e-6),
                          math.exp(-dt / 0.2))]

    target = loop_peak(p, pieces([0.2e-6]), dt, 0.0)
    p = replace(p, v_peak=target, v_t=target)
    lo, hi = 0.19e-6, 0.2e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if loop_peak(p, pieces([mid]), dt, 0.0) < target:
            lo = mid
        else:
            hi = mid
    tuned = loop_peak(p, pieces([lo]), dt, 0.0)
    assert target - 1e-12 < tuned < target
    a = [0.2e-6, lo, 0.1e-6]
    assert loop_peak(p, pieces(a[2:]), dt, 0.0) < target - 0.01
    (_, _, offsets), calls = run_both(p, pieces(a), dt, np.zeros(3),
                                      monkeypatch)
    assert np.diff(offsets).tolist() == [1, 0, 0]
    assert calls == [2]


def test_run_traces_of_no_steps_is_empty():
    times, v, spikes = nrn.run_traces(lif_params(), np.zeros((2, 0)), 1e-3)
    assert times.size == 0 and v.shape == (2, 0) and spikes == [[], []]
