"""Fuzz the CLI contract: every JSON document run through ``memstp simulate``
ends in exit 0 (ran), 2 (bad config) or 3 (runtime violation), never in an
uncaught exception. RuntimeWarnings are errors in this suite, so a NaN or
overflow on the way fails the run too."""

import dataclasses
import json
import math
import tempfile
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memstp import cli

# Values for override and top-level fields: zero, negatives, the float
# range's ends, NaN/Infinity literals, wrong types, small ints.
EDGE_VALUES = [0, 0.0, -1, -2.5, 1e-300, -1e-300, 1e300, -1e300, math.nan,
               math.inf, -math.inf, 1, 2, 3, True, False, None, "x",
               "saturating", [], {"a": 1}]

FIELDS = {name: [f.name for f in dataclasses.fields(cls)]
          for name, cls in cli._OVERRIDE_SECTIONS.items()}


def _overrides_of(kind):
    """Every override field of type ``kind`` that a preset reads, as
    (preset, section, field)."""
    return [(preset, section, name)
            for preset, entry in cli._PRESETS.items()
            for section in sorted(entry.sections)
            for name in cli._OVERRIDABLE[section]
            if typing.get_type_hints(cli._OVERRIDE_SECTIONS[section])[name]
            is kind]


FLOAT_OVERRIDES = _overrides_of(float)
INT_OVERRIDES = _overrides_of(int)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@st.composite
def near_valid_configs(draw):
    """A real preset with small trials and overrides of real and bogus
    sections and fields, set to edge values."""
    preset = draw(st.sampled_from(cli.PRESET_NAMES))
    sections = sorted(cli._PRESETS[preset].sections) + ["device", "bogus"]
    overrides = {}
    for section in draw(st.lists(st.sampled_from(sections), max_size=2,
                                 unique=True)):
        names = FIELDS.get(section, []) + ["bogus"]
        overrides[section] = draw(st.dictionaries(
            st.sampled_from(names), st.sampled_from(EDGE_VALUES), max_size=2))
    doc = {"preset": preset, "overrides": overrides,
           "trials": draw(st.sampled_from([1, 2, 3]))}
    for key in ("seed", "threads"):
        if draw(st.booleans()):
            doc[key] = draw(st.sampled_from([0, 1, 7, 2 ** 64, -1, 2.0]))
    return doc


@st.composite
def tied_configs(draw):
    """A preset with overrides that make cross-field rules tight: ties that
    a rule refuses (g_min == g_max, t_int == w, g_post_delay == t_rec) and
    ties that it allows (g_eq0 == g_min, g_floor == g_max, tau_d_min ==
    tau_d_max, t_rec one float above the train's duration)."""
    preset = draw(st.sampled_from(cli.PRESET_NAMES))
    g = draw(st.sampled_from([2.0e-6, 2.5e-6, 3.0e-6, 3.5e-6, 4.0e-6]))
    tau = draw(st.sampled_from([0.1, 0.5, 2.0]))
    w = draw(st.sampled_from([1e-5, 0.01, 0.2]))
    t = draw(st.sampled_from([0.5, 1.0, 10.0]))
    ties = [("device", {"g_min": g, "g_max": g, "g_eq0": g, "g_floor": g}),
            ("device", {"g_eq0": g, "g_min": g}),
            ("device", {"g_floor": g, "g_max": g}),
            ("device", {"tau_d_min": tau, "tau_d_max": tau}),
            ("train", {"t_int": w, "w": w}),
            ("plan", {"g_post_delay": t, "t_rec": t})]
    entry = cli._PRESETS[preset]
    if "plan" in entry.sections:
        duration = entry.inputs["plan"].train.duration
        ties.append(("plan", {"t_rec": math.nextafter(duration, math.inf)}))
    read = [tie for tie in ties if tie[0] in entry.sections]
    overrides = {}
    for section, fields in draw(st.lists(st.sampled_from(read), min_size=1,
                                         max_size=2, unique_by=repr)):
        overrides[section] = {**overrides.get(section, {}), **fields}
    return {"preset": preset, "overrides": overrides,
            "trials": draw(st.sampled_from([1, 2, 3]))}


def _exit_code(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))  # NaN/Infinity written as literals
        code = cli.main(["simulate", "--config", str(config),
                         "--out", str(Path(tmp) / "out")])
        for csv in Path(tmp).glob("out/*.csv"):
            assert "nan" not in csv.read_text().lower(), csv.name
        return code


@settings(max_examples=100, deadline=None)
@given(doc=json_values)
def test_simulate_exits_cleanly_on_random_json(doc):
    assert _exit_code(doc) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=near_valid_configs())
def test_simulate_exits_cleanly_on_near_valid_configs(doc):
    assert _exit_code(doc) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=tied_configs())
def test_simulate_exits_cleanly_on_tied_cross_field_pairs(doc):
    assert _exit_code(doc) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)


@pytest.mark.parametrize("value", [5e-324, 1.797e308, -1.797e308])
@pytest.mark.parametrize("preset,section,name", FLOAT_OVERRIDES)
def test_simulate_exits_cleanly_on_edge_floats(preset, section, name, value):
    # The smallest positive float and both ends of the float range, one
    # field at a time: the draws above never reach them.
    doc = {"preset": preset, "trials": 1, "overrides": {section: {name: value}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _exit_code(doc) in (cli.EXIT_OK, cli.EXIT_CONFIG,
                                   cli.EXIT_RUNTIME)


@pytest.mark.parametrize("value", [int("9" * 400), -int("9" * 400), 2 ** 1024])
@pytest.mark.parametrize("preset,section,name", INT_OVERRIDES)
def test_simulate_refuses_ints_beyond_the_float_range(capsys, preset, section,
                                                      name, value):
    # The models compute with these counts as floats, which cannot hold them.
    doc = {"preset": preset, "trials": 1, "overrides": {section: {name: value}}}
    assert _exit_code(doc) == cli.EXIT_CONFIG
    assert f"override {section}.{name} " in capsys.readouterr().err
