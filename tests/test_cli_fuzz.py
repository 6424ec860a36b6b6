"""Fuzz the CLI contract: every JSON document run through ``memstp simulate``
ends in exit 0 (ran), 2 (bad config) or 3 (runtime violation), never in an
uncaught exception. RuntimeWarnings are errors in this suite, so a NaN or
overflow on the way fails the run too."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

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
    sections = sorted(cli._PRESET_SECTIONS[preset]) + ["device", "bogus"]
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


def _exit_code(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))  # NaN/Infinity written as literals
        return cli.main(["simulate", "--config", str(config),
                         "--out", str(Path(tmp) / "out")])


@settings(max_examples=100, deadline=None)
@given(doc=json_values)
def test_simulate_exits_cleanly_on_random_json(doc):
    assert _exit_code(doc) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=near_valid_configs())
def test_simulate_exits_cleanly_on_near_valid_configs(doc):
    assert _exit_code(doc) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
