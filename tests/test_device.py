import dataclasses
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from memstp import device as dev
from memstp import network, neuron, protocols, tm
from memstp.device import DeviceParams, EventLabel, Mode, Pulse
from memstp.protocols import ExperimentPlan, PulseTrain
from memstp.tm import TMParams
from oracles import BinSpec


@pytest.fixture
def params():
    return DeviceParams()


@pytest.fixture
def state(params):
    return dev.initial_state(params)


# ---------------------------------------------------------------------------
# Validation of the kernel's inputs
# ---------------------------------------------------------------------------

# Per float field: the refused values at its domain's edge and the words that
# end "<field> must ...", or None for a field without a single-field domain.
POSITIVE = ([0.0, -5e-324], "be > 0")
NON_NEGATIVE = ([-5e-324], "be >= 0")
ABOVE_ONE = math.nextafter(1.0, 2.0)

DEVICE_DOMAINS = {
    "g_min": POSITIVE, "g_max": None, "g_eq0": None, "v_th": None,
    "v0": POSITIVE, "c_amp": NON_NEGATIVE,
    "u_dev": ([0.0, ABOVE_ONE], "be in (0, 1]"), "tau_f_dev": POSITIVE,
    "tau_rec_dev": POSITIVE, "tau_d_base": POSITIVE, "gamma": NON_NEGATIVE,
    "tau_d_min": POSITIVE, "tau_d_max": POSITIVE, "dt_ref": POSITIVE,
    "kappa_sat": ([-5e-324, 1.0], "be in [0, 1)"), "g_floor": None,
    "g_c": None, "sigma_s": POSITIVE, "e0": POSITIVE, "beta": NON_NEGATIVE,
    "tau_acc": POSITIVE, "dg_nv": None, "t_rec_min": None,
}
MAY_BE_INFINITE = {"e0", "tau_acc"}  # inf = no non-volatile step, no leak


def test_device_float_fields_are_listed():
    names = {f.name for f in dataclasses.fields(DeviceParams)}
    assert names - {"polarity_sensitive"} == set(DEVICE_DOMAINS)


def _pulse(**kw):
    return Pulse(**{"t": 0.0, "v": -4.0, "w": 1e-5, **kw})


def refusals(make, domains, may_be_infinite=()):
    """(make, field, value, message) for NaN, both infinities and the edge
    values of each field of ``domains``; a field that may be infinite is
    refused only -inf, by its domain."""
    for field, domain in domains.items():
        edges, words = domain or ([], None)
        cases = [(math.nan, "not be NaN"), (math.inf, "be finite"),
                 (-math.inf, "be finite")]
        if field in may_be_infinite:
            cases[1:] = [(-math.inf, words)]
        for value, end in cases + [(value, words) for value in edges]:
            yield make, field, value, f"{field} must {end}"


@pytest.mark.parametrize("make, field, value, message", [
    case for args in [
        (DeviceParams, DEVICE_DOMAINS, MAY_BE_INFINITE),
        (_pulse, {"t": None, "v": None, "w": POSITIVE}),
        (PulseTrain, {"v": None, "w": POSITIVE, "t_int": None}),
        (ExperimentPlan, {"t_rec": None, "sample_dt": POSITIVE,
                          "g_post_delay": POSITIVE}),
        (lambda **kw: BinSpec(**{"lo": 0.0, "hi": 1.0, "n_bins": 3, **kw}),
         {"lo": None, "hi": None}),
        (TMParams, {"a": POSITIVE, "u_cap": ([-5e-324, ABOVE_ONE],
                                             "be in [0, 1]"),
                    "tau_rec": POSITIVE, "tau_f": POSITIVE}),
    ] for case in refusals(*args)])
def test_kernel_inputs_refuse_nan_and_infinities(make, field, value, message):
    # NaN fails every comparison, so a check written `x <= 0` lets it
    # through: DeviceParams(v0=nan) used to build a device whose every
    # write returned G = nan, and TMParams(a=nan) a synapse of NaN peaks.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**{field: value})


@pytest.mark.parametrize("g_max", [3e-6, math.nextafter(3e-6, 0.0)])
def test_device_params_refuse_g_max_not_above_g_min(g_max):
    # energy_barrier divides by g_max - g_min, so tied bounds are refused
    # at construction, before the bounds of g_eq0 and g_floor.
    with pytest.raises(ValueError, match="^g_max must exceed g_min$"):
        DeviceParams(g_min=3e-6, g_max=g_max, g_eq0=g_max, g_floor=g_max)


@pytest.mark.parametrize("field, value", [
    ("sigma_s", 5e-324), ("g_c", 1.797e308), ("g_c", -1.797e308),
    ("g_max", 1.797e308),
])
def test_device_params_refuse_an_overflowing_saturation_logit(field, value):
    # p_saturating divides g0 - g_c by sigma_s, for g0 in [g_min, g_max]; a
    # quotient beyond the largest float used to overflow on every read.
    with pytest.raises(ValueError, match=r"^sigma_s must keep \(G - g_c\)"):
        DeviceParams(**{field: value})


@pytest.mark.parametrize("make, field, value", [
    (DeviceParams, "c_amp", 0.0), (DeviceParams, "gamma", 0.0),
    (DeviceParams, "beta", 0.0), (DeviceParams, "u_dev", 1.0),
    (DeviceParams, "kappa_sat", 0.0), (DeviceParams, "v0", 5e-324),
    (PulseTrain, "w", 5e-324), (ExperimentPlan, "sample_dt", 5e-324),
    (TMParams, "u_cap", 0.0), (TMParams, "u_cap", 1.0),
    (TMParams, "tau_f", 5e-324),
])
def test_parameters_accept_the_edge_of_their_domain(make, field, value):
    assert getattr(make(**{field: value}), field) == value


# Results and states, which the package builds itself, not parameters.
NOT_PARAMETERS = {"DeviceState", "TrialBatch", "EventRecord"}


def test_every_float_parameter_refuses_nan():
    # Walks the public dataclasses, so a float field added later cannot
    # skip the rule.
    valid = {Pulse: _pulse(),
             network.StaticSynapse: network.StaticSynapse(1e5),
             network.RCSynapse: network.RCSynapse(1e5, 1e-6),
             network.MemristiveSynapse: network.MemristiveSynapse(
                 DeviceParams()),
             network.Network: network.build_detector("sequence_detector")}
    classes = {getattr(m, name) for m in (dev, protocols, network, neuron, tm)
               for name in m.__all__ if name not in NOT_PARAMETERS
               and dataclasses.is_dataclass(getattr(m, name))}
    assert {c.__name__ for c in classes} == {
        "DeviceParams", "Pulse", "PulseTrain", "ExperimentPlan",
        "NeuronParams", "TMParams", "PatternSpec", "StaticSynapse",
        "RCSynapse", "MemristiveSynapse", "Network"}
    for cls in classes:
        base = valid[cls] if cls in valid else cls()
        floats = [name for name, hint in typing.get_type_hints(cls).items()
                  if hint is float]
        assert floats or cls is network.MemristiveSynapse
        for name in floats:
            with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
                dataclasses.replace(base, **{name: math.nan})


@pytest.mark.parametrize("field", sorted(MAY_BE_INFINITE))
def test_infinite_barrier_and_leak_are_allowed(field):
    params = DeviceParams(**{field: math.inf})
    state, _ = dev.apply_pulse(dev.initial_state(params), params, _pulse())
    assert params.g_min <= dev.conductance(state) <= params.g_max


def test_an_infinite_barrier_is_never_read(monkeypatch):
    # No accumulator reaches e0 = inf, so the kernel never evaluates the
    # barrier over a whole I-V sweep.
    def read(*_):
        raise AssertionError("barrier read")

    monkeypatch.setattr(dev, "energy_barrier", read)
    params = DeviceParams(e0=math.inf)
    *_, i = dev.iv_sweep(dev.initial_state(params), params,
                         np.linspace(-2.0, 2.0, 50), 1e-3)
    assert np.all(np.isfinite(i))


def test_the_least_barrier_is_crossed_within_its_tolerance():
    # At g_eq = g_min the barrier is e0 itself, the least it can be: an
    # accumulator a part in 1e10 below it still crosses, as it does higher up.
    e = dev._joule(2.5e-6, 0.5, 1e-5)
    params = DeviceParams(g_eq0=2.5e-6, tau_acc=math.inf,
                          e0=(e + e) * (1.0 + 1e-10))
    state = dev.initial_state(params)
    for t in (0.0, 0.1):  # sub-threshold: g_eq and the energy stay put
        state, _ = dev.apply_pulse(state, params, Pulse(t=t, v=0.5, w=1e-5))
    assert state.g_eq == 2.5e-6 + params.dg_nv and state.acc == 0.0


# Each public function that hands a state to the kernel, driven once.
KERNEL_ENTRIES = {
    "apply_pulse": lambda s, p: dev.apply_pulse(s, p, _pulse()),
    "iv_sweep": lambda s, p: dev.iv_sweep(s, p, np.full(4, 2.0), 1e-3),
    "apply_train": lambda s, p: protocols.apply_train(s, p, PulseTrain(), 0.0),
    "train_trace": lambda s, p: protocols.train_trace(
        s, p, PulseTrain(), 0.0, 1e-3),
    "run_protocol": lambda s, p: protocols.run_protocol(
        s, p, ExperimentPlan(repeats=2), np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", KERNEL_ENTRIES)
def test_kernel_entries_refuse_a_state_outside_the_conductance_bounds(
        params, state, entry):
    # Below g_min the barrier falls under e0, which the kernel's guard
    # assumes it never does: such a state kept the energy of a sub-threshold
    # pulse that crossed its barrier.
    for g_eq in (2.0e-6, math.nextafter(params.g_min, 0.0),
                 math.nextafter(params.g_max, 1.0), math.nan):
        with pytest.raises(ValueError, match=re.escape(
                f"must lie in [g_min, g_max] = [{params.g_min!r}, "
                f"{params.g_max!r}]")) as err:
            KERNEL_ENTRIES[entry](dataclasses.replace(state, g_eq=g_eq),
                                  params)
        assert f"g_eq={g_eq!r}" in str(err.value)
    for g_eq in (params.g_min, params.g_max):
        KERNEL_ENTRIES[entry](dataclasses.replace(state, g_eq=g_eq), params)


@pytest.mark.parametrize("w", [math.nan, 0.0, -1e-5])
def test_kernel_width_check_refuses_nan(params, state, w):
    with pytest.raises(ValueError, match="pulse width w must be > 0"):
        next(dev._fold(dev._values(state), params, [(0.0, -4.0)], w))
    with pytest.raises(ValueError, match="dt must be > 0"):
        dev.iv_sweep(state, params, np.ones(3), w)


@pytest.mark.parametrize("sample", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 3])
def test_iv_sweep_refuses_a_non_finite_sample(params, state, sample, at):
    # A NaN sample used to leave acc = nan for the rest of the sweep, so the
    # barrier could never be crossed again, with no error.
    waveform = np.full(6, 2.0)
    waveform[at] = sample
    with pytest.raises(ValueError, match="waveform samples must be finite"):
        dev.iv_sweep(state, params, waveform, 1e-3)


# ---------------------------------------------------------------------------
# decay_to
# ---------------------------------------------------------------------------


def test_decay_zero_dt_is_identity(params, state):
    s = dataclasses.replace(state, delta_g=0.1e-6, u=0.3, x=0.7, acc=1e-9)
    assert dev.decay_to(s, params, s.t_last) == s


def test_decay_exact_exponential(params, state):
    s = dataclasses.replace(state, delta_g=0.2e-6, tau_d=0.1)
    out = dev.decay_to(s, params, s.t_last + 0.1)
    assert out.delta_g == pytest.approx(0.2e-6 / math.e, rel=1e-12)


def test_decay_seven_tau_returns_near_equilibrium(params):
    s = dev.initial_state(params)
    for k in range(3):
        s, _ = dev.apply_pulse(s, params, Pulse(t=0.4 * k, v=-4.0, w=1e-5))
    offset = s.delta_g
    out = dev.decay_to(s, params, s.t_last + 7.0 * s.tau_d)
    # e^-7 < 0.1% of the post-train offset
    assert abs(dev.conductance(out) - out.g_eq) < 1e-3 * offset


@pytest.mark.parametrize("dt", [-1e-9, math.nan])
def test_decay_time_reversal_rejected(params, state, dt):
    # A NaN time used to pass `t < t_last` and return an all-NaN state.
    with pytest.raises(ValueError, match="time reversal"):
        dev.decay_to(state, params, state.t_last + dt)


@given(
    delta_g=st.floats(1e-9, 1e-6),
    u=st.floats(0.0, 1.0),
    x=st.floats(0.0, 1.0),
    tau_d=st.floats(0.3, 2.0),
    t1=st.floats(0.001, 0.2),
    t2=st.floats(0.001, 0.2),
)
@settings(max_examples=200, deadline=None)
def test_decay_composition(delta_g, u, x, tau_d, t1, t2):
    # 4-ulp agreement holds for spans up to ~1.5 tau; the exponent's
    # round-off grows linearly with dt/tau beyond that.
    params = DeviceParams()
    s = dataclasses.replace(
        dev.initial_state(params), delta_g=delta_g, u=u, x=x, tau_d=tau_d,
        acc=1e-9)
    two_step = dev.decay_to(dev.decay_to(s, params, t1), params, t1 + t2)
    direct = dev.decay_to(s, params, t1 + t2)
    for name in ("delta_g", "u", "acc"):
        a, b = getattr(two_step, name), getattr(direct, name)
        assert abs(a - b) <= 4.0 * np.spacing(max(abs(a), abs(b)))
    # x lives in [0, 1] and its update pivots through 1.0, so its round-off
    # is anchored at spacing(1.0).
    assert abs(two_step.x - direct.x) <= 4.0 * np.spacing(1.0)


def test_decay_monotone_relaxation(params):
    s = dev.initial_state(params)
    s, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    gaps = np.linspace(0.01, 2.0, 40)
    offsets = [abs(dev.conductance(dev.decay_to(s, params, g)) - s.g_eq)
               for g in gaps]
    assert all(a >= b for a, b in zip(offsets, offsets[1:]))


# ---------------------------------------------------------------------------
# conductance reads
# ---------------------------------------------------------------------------


def test_conductance_read_is_closed_form_relaxation(params):
    s = dev.initial_state(params)
    s, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    assert dev.conductance(s, s.t_last) == dev.conductance(s)
    times = np.linspace(0.0, 3.0, 31)
    reads = dev.conductance(s, times)
    assert reads.shape == times.shape
    for t, g in zip(times, reads):
        decayed = dev.conductance(dev.decay_to(s, params, float(t)))
        assert g == pytest.approx(decayed, rel=1e-15)
        assert dev.conductance(s, float(t)) == g


def test_conductance_read_with_the_shortest_tau_d_is_fully_relaxed(params):
    # (t - t_last)/tau_d overflows to inf at tau_d = 5e-324; exp(-inf) = 0.
    s = dataclasses.replace(dev.initial_state(params), delta_g=1e-7,
                            tau_d=5e-324)
    reads = dev.conductance(s, np.array([0.0, 0.5, 1.0]))
    assert reads.tolist() == [s.g_eq + 1e-7, s.g_eq, s.g_eq]


@pytest.mark.parametrize("t", [-1e-9, np.array([0.1, -1e-9]), math.nan,
                               np.array([0.1, math.nan])])
def test_conductance_read_time_reversal_rejected(state, t):
    with pytest.raises(ValueError, match="time reversal"):
        dev.conductance(state, t)


# ---------------------------------------------------------------------------
# pulse energy / energy barrier
# ---------------------------------------------------------------------------


def test_pulse_energy_arithmetic():
    assert dev._joule(3e-6, 4.0, 10e-6) == pytest.approx(4.8e-10, rel=1e-12)


def test_pulse_energy_zero_voltage():
    assert dev._joule(3e-6, 0.0, 10e-6) == 0.0


def test_pulse_energy_linear_in_width():
    assert dev._joule(3e-6, 4.0, 2e-5) == pytest.approx(
        2.0 * dev._joule(3e-6, 4.0, 1e-5), rel=1e-12)


def test_energy_barrier_grows_with_conductance(params):
    assert (dev.energy_barrier(params, 3.2e-6)
            > dev.energy_barrier(params, 2.6e-6))


# ---------------------------------------------------------------------------
# apply_pulse
# ---------------------------------------------------------------------------


def test_subthreshold_pulse_only_accumulates(params, state):
    out, jump = dev.apply_pulse(state, params, Pulse(t=0.0, v=0.1, w=1e-5))
    assert jump == 0.0
    assert out.delta_g == 0.0
    assert out.u == 0.0
    assert out.acc > state.acc
    # reads are non-perturbing: no write event registered
    assert out.t_last_pulse is None
    assert out.tau_d == state.tau_d


def test_first_pulse_utilization_is_u_dev(params, state):
    out, _ = dev.apply_pulse(state, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    assert out.u == pytest.approx(params.u_dev, abs=0.0)


def test_facilitating_second_jump_larger(params):
    # two -4 V pulses 400 ms apart; resources recover fully in between
    s = dev.initial_state(params)
    s, jump1 = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    s, jump2 = dev.apply_pulse(s, params, Pulse(t=0.4, v=-4.0, w=1e-5))
    assert jump2 > jump1


def test_jump_monotone_in_amplitude(params):
    jumps = []
    for v in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
        s = dev.initial_state(params)
        _, jump = dev.apply_pulse(s, params, Pulse(t=0.0, v=v, w=1e-5))
        jumps.append(jump)
    assert all(a < b for a, b in zip(jumps, jumps[1:]))


def test_rate_law_tau_d_decreasing_in_interval(params):
    taus = []
    for dt_p in (0.02, 0.2):
        s = dev.initial_state(params)
        s, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
        s, _ = dev.apply_pulse(s, params, Pulse(t=dt_p, v=-4.0, w=1e-5))
        taus.append(s.tau_d)
    assert taus[0] > taus[1]


def test_saturating_mode_decrements_equilibrium(params):
    s = dataclasses.replace(dev.initial_state(params), mode=Mode.SATURATING)
    before = s.g_eq
    s, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    assert s.g_eq == pytest.approx(
        before - params.kappa_sat * (before - params.g_floor), rel=1e-12)


def test_accumulator_triggers_at_exact_pulse_index():
    # leak disabled, constant barrier 2.4 nJ, identical 0.48 nJ pulses
    params = DeviceParams(e0=2.4e-9, beta=0.0, tau_acc=math.inf, c_amp=0.0,
                          g_eq0=3.0e-6)
    s = dev.initial_state(params)
    trigger = None
    for k in range(8):
        g_before = s.g_eq
        s, _ = dev.apply_pulse(s, params, Pulse(t=0.1 * k, v=4.0, w=1e-5))
        if trigger is None and s.g_eq != g_before:
            trigger = k + 1
    assert trigger == 5  # ceil(2.4 / 0.48)


def test_accumulator_triggers_at_non_dividing_ratio():
    params = DeviceParams(e0=2.4e-9, beta=0.0, tau_acc=math.inf, c_amp=0.0,
                          g_eq0=3.0e-6)
    s = dev.initial_state(params)
    # 0.7 nJ pulses: g v^2 w = 0.7e-9 with g = 3 uS, w = 10 us -> v^2 = 70/3
    v = math.sqrt(0.7e-9 / (3.0e-6 * 1e-5))
    trigger = None
    for k in range(8):
        g_before = s.g_eq
        s, _ = dev.apply_pulse(s, params, Pulse(t=0.1 * k, v=v, w=1e-5))
        if trigger is None and s.g_eq != g_before:
            trigger = k + 1
    assert trigger == math.ceil(2.4 / 0.7)


def test_accumulator_leak_prevents_transition():
    params = DeviceParams(e0=2.4e-9, beta=0.0, tau_acc=60.0, c_amp=0.0,
                          g_eq0=3.0e-6)
    s = dev.initial_state(params)
    for k in range(50):
        g_before = s.g_eq
        s, _ = dev.apply_pulse(s, params, Pulse(t=600.0 * k, v=4.0, w=1e-5))
        assert s.g_eq == g_before


def test_polarity_sensitive_step_direction():
    params = DeviceParams(e0=1e-12, beta=0.0, tau_acc=math.inf, c_amp=0.0,
                          g_eq0=3.0e-6, polarity_sensitive=True)
    s = dev.initial_state(params)
    s_pos, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=4.0, w=1e-5))
    s_neg, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    assert s_pos.g_eq < s.g_eq < s_neg.g_eq


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_pulses=st.integers(1, 25),
)
@settings(max_examples=60, deadline=None)
def test_bounds_invariant_under_random_drive(seed, n_pulses):
    params = DeviceParams()
    rng = np.random.default_rng(seed)
    s = dev.initial_state(params)
    t = 0.0
    for _ in range(n_pulses):
        t += float(rng.uniform(1e-3, 5.0))
        s = dev.resample_mode_for_train(s, params, t, rng)
        s, _ = dev.apply_pulse(
            s, params,
            Pulse(t=t, v=float(rng.uniform(-6.0, 6.0)), w=1e-5))
        assert params.g_min <= dev.conductance(s) <= params.g_max + 1e-18
        assert 0.0 <= s.u <= 1.0
        assert 0.0 <= s.x <= 1.0
        assert s.acc >= 0.0
        assert params.tau_d_min <= s.tau_d <= params.tau_d_max


@st.composite
def device_params(draw):
    """DeviceParams around the defaults, with v0 >= 0.1 so that no exponent
    overflows for |v| <= 6. Some draws put g_floor below g_min or make c_amp
    negative; validation must refuse those, and they are rejected."""
    g_min = draw(st.floats(1e-6, 5e-6))
    span = draw(st.floats(0.1e-6, 2e-6))
    g_max = g_min + span

    def within(lo=0.0):
        return min(g_min + span * draw(st.floats(lo, 1.0)), g_max)

    tau_d_min = draw(st.floats(1e-3, 1.0))
    kw = dict(
        g_min=g_min, g_max=g_max, g_eq0=within(), g_floor=within(-0.25),
        g_c=within(), sigma_s=span * draw(st.floats(0.01, 0.5)),
        v_th=draw(st.floats(0.1, 3.0)), v0=draw(st.floats(0.1, 10.0)),
        c_amp=draw(st.floats(-0.1, 1.0)), u_dev=draw(st.floats(0.01, 1.0)),
        tau_f_dev=draw(st.floats(1e-3, 5.0)),
        tau_rec_dev=draw(st.floats(1e-3, 5.0)),
        tau_d_base=draw(st.floats(1e-3, 5.0)), gamma=draw(st.floats(0.0, 2.0)),
        tau_d_min=tau_d_min,
        tau_d_max=tau_d_min * draw(st.floats(1.0, 100.0)),
        dt_ref=draw(st.floats(1e-3, 1.0)),
        kappa_sat=draw(st.floats(0.0, 0.99)),
        e0=draw(st.floats(0.0, 2e-9)), beta=draw(st.floats(0.0, 5.0)),
        tau_acc=draw(st.floats(0.1, 100.0)),
        dg_nv=span * draw(st.floats(0.0, 0.5)),
        t_rec_min=draw(st.floats(0.0, 2.0)),
        polarity_sensitive=draw(st.booleans()),
    )
    try:
        return DeviceParams(**kw)
    except ValueError:
        reject()


@given(
    params=device_params(),
    seed=st.integers(0, 2 ** 32 - 1),
    pulses=st.lists(st.tuples(st.floats(1e-4, 3.0), st.floats(-6.0, 6.0),
                              st.floats(1e-6, 1e-3)), min_size=1, max_size=30),
)
# A Saturating device below g_floor with a full jump: the decrement used to
# raise g_eq toward the floor and push G past g_max.
@example(params=DeviceParams(g_eq0=2.6e-6, g_floor=3.5e-6, g_c=2.5e-6,
                             sigma_s=0.01e-6, c_amp=1.0, kappa_sat=0.5),
         seed=0, pulses=[(1.0, -4.0, 1e-5)])
@settings(max_examples=150, deadline=None)
def test_bounds_invariant_over_random_params(params, seed, pulses):
    rng = np.random.default_rng(seed)
    s = dev.initial_state(params)
    t = 0.0
    for gap, v, w in pulses:
        t += gap
        assert (params.g_min - 1e-18 <= dev.conductance(s, t)
                <= params.g_max + 1e-18)
        s = dev.resample_mode_for_train(s, params, t, rng)
        s, _ = dev.apply_pulse(s, params, Pulse(t=t, v=v, w=w))
        assert params.g_min - 1e-18 <= dev.conductance(s) <= params.g_max + 1e-18
        assert 0.0 <= s.u <= 1.0
        assert 0.0 <= s.x <= 1.0
        assert s.acc >= 0.0


def reference_apply_pulse(state, params, pulse):
    """apply_pulse as written before it shared the batch pulse kernel."""
    state = dev.decay_to(state, params, pulse.t)
    amp = abs(pulse.v)
    jump = 0.0
    if amp >= params.v_th:
        if state.t_last_pulse is None:
            dt_p = math.inf
        else:
            dt_p = pulse.t - state.t_last_pulse
        if dt_p <= 0.0:
            tau_d = params.tau_d_max
        else:
            tau_d = params.tau_d_base * (params.dt_ref / dt_p) ** params.gamma
        tau_d = min(max(tau_d, params.tau_d_min), params.tau_d_max)
        u = state.u + params.u_dev * (1.0 - state.u)
        s = params.c_amp * (math.exp((amp - params.v_th) / params.v0) - 1.0)
        headroom = params.g_max - state.g_eq - state.delta_g
        jump = min(headroom * s * u * state.x, headroom)
        x = state.x * (1.0 - u)
        g_eq = state.g_eq
        if state.mode is Mode.SATURATING and g_eq > params.g_floor:
            g_eq = g_eq - params.kappa_sat * (g_eq - params.g_floor)
        state = dataclasses.replace(
            state, u=u, x=x, delta_g=state.delta_g + jump, g_eq=g_eq,
            tau_d=tau_d, t_last_pulse=pulse.t)
    g_total = dev.conductance(state)
    acc = state.acc + g_total * pulse.v * pulse.v * pulse.w
    g_eq = state.g_eq
    if acc >= dev.energy_barrier(params, g_eq) * (1.0 - dev._BARRIER_REL_TOL):
        step = params.dg_nv
        if params.polarity_sensitive and pulse.v > 0.0:
            step = -step
        g_eq = min(max(g_eq + step, params.g_min), params.g_max - state.delta_g)
        acc = 0.0
    return dataclasses.replace(state, acc=acc, g_eq=g_eq), jump


def random_pulses(rng, n):
    """Pulse times with repeats, reads, writes and over-range amplitudes."""
    t = 0.0
    for _ in range(n):
        t += float(rng.choice([0.0, 1e-3, 0.05, 0.3, 2.0]))
        yield Pulse(t=t, v=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 12.0)),
                    w=1e-5)


@given(seed=st.integers(0, 2 ** 32 - 1), polarity=st.booleans())
@settings(max_examples=60, deadline=None)
def test_apply_pulse_matches_reference(seed, polarity):
    params = DeviceParams(e0=0.4e-9, dg_nv=0.3e-6, tau_acc=0.5,
                          polarity_sensitive=polarity)
    rng = np.random.default_rng(seed)
    s = s_ref = dev.initial_state(params)
    for pulse in random_pulses(rng, 30):
        if rng.random() < 0.2:
            mode = Mode.SATURATING if rng.random() < 0.5 else Mode.FACILITATING
            s = dataclasses.replace(s, mode=mode)
            s_ref = dataclasses.replace(s_ref, mode=mode)
        s, jump = dev.apply_pulse(s, params, pulse)
        s_ref, jump_ref = reference_apply_pulse(s_ref, params, pulse)
        assert s == s_ref and jump == jump_ref


def _row(s, r):
    """Device ``r`` of the plain batch state ``s`` as a ``DeviceState``."""
    g_eq, u, x, delta_g, tau_d, acc, mode, t_last, t_last_pulse = s
    return dev.DeviceState(g_eq[r], u, x, delta_g[r], tau_d, acc[r], mode[r],
                           t_last, t_last_pulse)


@pytest.mark.parametrize("seed", range(8))
def test_fold_matches_reference_pulse_by_pulse(seed):
    # Sub-threshold pulses, both polarities, Saturating rows (some below
    # g_floor) and a finite barrier that only some rows cross at a pulse: a
    # one-call fold of each device alone and of all 12 as a batch must equal
    # the reference loop exactly, state and jump, pulse by pulse.
    params = DeviceParams(e0=0.3e-9, dg_nv=0.1e-6, tau_acc=2.0,
                          g_floor=2.7e-6, polarity_sensitive=seed % 2 == 1)
    rng = np.random.default_rng(seed)
    m = 12
    pulses = list(random_pulses(rng, 80))
    modes = np.array([Mode.SATURATING if k % 3 == 0 else Mode.FACILITATING
                      for k in range(m)], dtype=object)
    batch = dataclasses.replace(
        dev.initial_state(params), g_eq=rng.uniform(2.5e-6, 3.4e-6, m),
        delta_g=np.zeros(m), acc=rng.uniform(0.0, 0.3e-9, m), mode=modes)
    refs = [_row(dev._values(batch), r) for r in range(m)]
    expected = []  # per pulse, each device's reference state and jump
    crossed = np.zeros((len(pulses), m), dtype=bool)
    for k, pulse in enumerate(pulses):
        row = []
        for r in range(m):
            refs[r], jump = reference_apply_pulse(refs[r], params, pulse)
            row.append((refs[r], jump))
            crossed[k, r] = refs[r].acc == 0.0 and pulse.v != 0.0
        expected.append(row)
    timed = [(p.t, p.v) for p in pulses]
    w = pulses[0].w
    for k, (s, jumps) in enumerate(dev._fold(dev._values(batch), params,
                                             timed, w)):
        for r, (ref, jump_ref) in enumerate(expected[k]):
            assert _row(s, r) == ref
            assert np.broadcast_to(jumps, (m,))[r] == jump_ref
    for r in range(m):
        folded = list(dev._fold(dev._values(_row(dev._values(batch), r)),
                                params, timed, w))
        assert len(folded) == len(pulses)
        for (s, jump), (ref, jump_ref) in zip(folded, (e[r] for e in expected)):
            assert dev.DeviceState(*s) == ref and jump == jump_ref
    # Some pulse is crossed by some rows but not by others.
    assert (crossed.any(axis=1) & ~crossed.all(axis=1)).any()


def test_pulse_kernel_names_amplitude_overflow():
    params = DeviceParams(v0=0.001)
    state = dev.initial_state(params)
    with pytest.raises(OverflowError, match=r"-4 V pulse.*v_th=1 V.*v0=0.001 V"):
        dev.apply_pulse(state, params, Pulse(t=0.0, v=-4.0, w=1e-5))


@pytest.mark.parametrize("mode", list(Mode))
def test_iv_sweep_matches_apply_pulse_fold(mode):
    params = DeviceParams(e0=0.5e-9, polarity_sensitive=True, g_floor=2.7e-6)
    start = dataclasses.replace(dev.initial_state(params, t0=0.25), mode=mode)
    waveform = 2.5 * np.sin(np.linspace(0.0, 4.0 * np.pi, 300))
    dt = 1e-4
    final, v, i = dev.iv_sweep(start, params, waveform, dt)
    state = start
    t = state.t_last
    crossings = 0
    for k, vk in enumerate(waveform.tolist()):
        state, _ = dev.apply_pulse(state, params, Pulse(t=t, v=vk, w=dt))
        assert i[k] == dev.conductance(state) * vk
        crossings += state.acc == 0.0 and vk != 0.0
        t += dt
    assert final == state
    assert np.array_equal(v, waveform)
    assert crossings > 0


# ---------------------------------------------------------------------------
# sample_mode / classify_event
# ---------------------------------------------------------------------------


def test_sample_mode_midpoint(params):
    rng = np.random.default_rng(0)
    draws = [dev.sample_mode(params.g_c, params, rng) for _ in range(4000)]
    p_s = sum(d is Mode.SATURATING for d in draws) / len(draws)
    assert p_s == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(4000))


def test_sample_mode_step_limit():
    params = DeviceParams(sigma_s=1e-12)
    rng = np.random.default_rng(1)
    above = [dev.sample_mode(params.g_c + 1e-8, params, rng) for _ in range(200)]
    assert all(d is Mode.SATURATING for d in above)
    below = [dev.sample_mode(params.g_c - 1e-8, params, rng) for _ in range(200)]
    assert all(d is Mode.FACILITATING for d in below)


def test_sample_mode_far_tail_binomial(params):
    g0 = params.g_c - 5.0 * params.sigma_s
    p_expect = 1.0 / (1.0 + math.exp(5.0))
    rng = np.random.default_rng(2)
    n = 10_000
    hits = sum(dev.sample_mode(g0, params, rng) is Mode.SATURATING
               for _ in range(n))
    sigma = math.sqrt(n * p_expect * (1.0 - p_expect))
    assert abs(hits - n * p_expect) <= 3.0 * sigma


def test_mode_resample_gated_by_quiescence(params):
    rng = np.random.default_rng(3)
    s = dev.initial_state(params)
    s, _ = dev.apply_pulse(s, params, Pulse(t=0.0, v=-4.0, w=1e-5))
    within = dataclasses.replace(s, mode=Mode.SATURATING)
    # gap below t_rec_min: mode held
    held = dev.resample_mode_for_train(within, params, 0.4, rng)
    assert held.mode is Mode.SATURATING
    # quiescent gap: mode redrawn from the logistic (g0 far below g_c -> F)
    redrawn = dev.resample_mode_for_train(within, params, 0.4 + params.t_rec_min, rng)
    assert redrawn.mode is Mode.FACILITATING


def test_classify_event_rule():
    assert dev.classify_event(2.9e-6, 3.0e-6) is EventLabel.STP_F
    assert dev.classify_event(3.0e-6, 2.9e-6) is EventLabel.STP_S
    assert dev.classify_event(3.0e-6, 3.0e-6) is EventLabel.STP_F


def test_seed_determinism(params):
    def run(seed):
        rng = np.random.default_rng(seed)
        s = dev.initial_state(params)
        out = []
        for k in range(20):
            t = 10.0 * k
            s = dev.resample_mode_for_train(s, params, t, rng)
            s, _ = dev.apply_pulse(s, params, Pulse(t=t, v=-4.0, w=1e-5))
            out.append(s)
        return out

    assert run(99) == run(99)


# ---------------------------------------------------------------------------
# iv_sweep
# ---------------------------------------------------------------------------


def _triangle_wave(v_peak=2.0, n_seg=400):
    up = np.linspace(0.0, v_peak, n_seg, endpoint=False)
    down = np.linspace(v_peak, -v_peak, 2 * n_seg, endpoint=False)
    back = np.linspace(-v_peak, 0.0, n_seg, endpoint=False)
    return np.concatenate([up, down, back, [0.0]])


def _loop_area(v, i):
    return 0.5 * float(np.sum(v[:-1] * i[1:] - v[1:] * i[:-1]))


def test_iv_sweep_pinched_at_origin():
    params = DeviceParams(e0=math.inf)
    _, v, i = dev.iv_sweep(dev.initial_state(params), params,
                           _triangle_wave(), 20e-6)
    assert all(ii == 0.0 for vv, ii in zip(v, i) if vv == 0.0)


def test_iv_sweep_frozen_device_is_ohmic():
    params = DeviceParams(c_amp=0.0, e0=math.inf)
    state = dev.initial_state(params)
    g = dev.conductance(state)
    _, v, i = dev.iv_sweep(state, params, _triangle_wave(), 20e-6)
    assert np.allclose(i, g * v, rtol=0, atol=1e-18)
    assert abs(_loop_area(v, i)) < 1e-15


def test_iv_sweep_dynamics_open_a_loop():
    params = DeviceParams(e0=math.inf)
    _, v, i = dev.iv_sweep(dev.initial_state(params), params,
                           _triangle_wave(), 20e-6)
    assert _loop_area(v, i) > 0.0
