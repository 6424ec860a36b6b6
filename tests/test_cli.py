import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memstp import cli
from memstp.cli import ConfigError, emit_csv, main, parse_config
from memstp.device import EventLabel, Mode
from memstp.fitting import FitResult
from memstp.network import PatternOrder, TrialBatch
from memstp.protocols import EventRecord


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------


def test_parse_minimal_config():
    cfg = parse_config('{"preset": "fig4_sequence", "seed": 42}')
    assert cfg.preset == "fig4_sequence"
    assert cfg.seed == 42
    assert cfg.out_dir == "out"
    assert cfg.overrides == {}


def test_parse_rejects_misspelled_key():
    with pytest.raises(ConfigError, match="seeed"):
        parse_config('{"preset": "fig4_sequence", "seeed": 42}')


def test_parse_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="fig9"):
        parse_config('{"preset": "fig9"}')


def test_run_config_refuses_unknown_preset_before_writing(tmp_path):
    # A RunConfig built in code skips parse_config; run_config itself must
    # refuse the name, not run some other preset under it.
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
        cli.run_config(cli.RunConfig(preset="fig9", out_dir=str(out)))
    assert not out.exists()


def test_parse_rejects_bad_types():
    with pytest.raises(ConfigError, match="seed"):
        parse_config('{"preset": "fig2_stp", "seed": "forty-two"}')
    with pytest.raises(ConfigError, match="trials"):
        parse_config('{"preset": "fig2_stp", "trials": 0}')


def test_parse_rejects_unknown_override_key():
    with pytest.raises(ConfigError, match="device.g_maxx"):
        parse_config(
            '{"preset": "fig2_stp", "overrides": {"device": {"g_maxx": 1}}}')


def test_parse_rejects_bad_json_with_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"preset": "fig2_stp",,}')


def test_override_round_trip_t_int(tmp_path):
    cfg = parse_config(json.dumps({
        "preset": "fig4_sequence",
        "seed": 1,
        "overrides": {"train": {"t_int": 0.25}},
    }))
    assert cfg.overrides["train"]["t_int"] == 0.25


# ---------------------------------------------------------------------------
# emit_csv
# ---------------------------------------------------------------------------


def test_emit_trace_line_count(tmp_path):
    times, values = np.array([0.0, 1e-3, 2e-3]), np.array([1.0, 2.0, 3.0])
    path = emit_csv(tmp_path / "t.csv", "time_s,conductance_S",
                    zip(times, values), "%.9g,%.9g")
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "time_s,conductance_S"
    assert path.read_text().endswith("\n")


def test_emit_empty_records_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv(path, "x,y", [], "%.9g,%.9g")
    assert path.read_text() == "x,y\n"


def test_emit_event_records_round_trip(tmp_path):
    recs = [EventRecord(index=k, g0=2.9e-6 + k * 1e-9, g_post=3.0e-6,
                        peaks=(2.95e-6, 2.97e-6, 3.0e-6),
                        label=EventLabel.STP_F, mode=Mode.FACILITATING,
                        g_eq_before=2.9e-6, g_eq_after=2.9e-6)
            for k in range(3)]
    path = emit_csv(tmp_path / "r.csv",
                    "index,g0_S,g_post_S,label,peak_1,peak_2,peak_3",
                    ((r.index, r.g0, r.g_post, r.label.value, *r.peaks)
                     for r in recs),
                    "%d,%.9g,%.9g,%s,%.9g,%.9g,%.9g")
    lines = path.read_text().splitlines()
    assert lines[0] == "index,g0_S,g_post_S,label,peak_1,peak_2,peak_3"
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == k
        # 9 significant digits survive the round trip
        assert float(cells[1]) == pytest.approx(recs[k].g0, rel=1e-9)
        assert float(cells[2]) == pytest.approx(recs[k].g_post, rel=1e-9)


def test_emit_trace_round_trip_9_digits(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(1e-7, 1e-5, 50)
    path = emit_csv(tmp_path / "t.csv", "time_s,current_A",
                    zip(np.linspace(0, 1, 50), values), "%.9g,%.9g")
    lines = path.read_text().splitlines()[1:]
    vals = np.array([float(l.split(",")[1]) for l in lines])
    assert np.allclose(vals, values, rtol=1e-8, atol=0)


# ---------------------------------------------------------------------------
# subcommands, exit codes, manifests
# ---------------------------------------------------------------------------


def test_simulate_unknown_config_file_is_config_error(capsys):
    rc = main(["simulate", "--config", "/nonexistent/x.json"])
    assert rc == cli.EXIT_CONFIG


def test_simulate_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"preset": "bogus"}')
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG


def test_simulate_runtime_violation_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    # the amplitude sweep starts at 1.5 V, below a 5 V write threshold
    cfg.write_text(json.dumps({
        "preset": "fig3b_amplitude",
        "overrides": {"device": {"v_th": 5.0}},
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_RUNTIME


def _simulate_device_override(tmp_path, preset, patch):
    cfg = tmp_path / "c.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"preset": preset, "seed": 1,
                               "overrides": {"device": patch},
                               "out_dir": str(out)}))
    return main(["simulate", "--config", str(cfg)]), out


@pytest.mark.parametrize("patch", [
    {"v0": 0}, {"gamma": -50}, {"g_floor": 1e-6}, {"g_floor": 4e-6},
    {"c_amp": -2.0}, {"e0": -1}, {"e0": 0}, {"beta": -10},
])
def test_device_override_out_of_range_rejected(tmp_path, capsys, patch):
    rc, out = _simulate_device_override(tmp_path, "fig2_stp", patch)
    assert rc == cli.EXIT_CONFIG
    assert next(iter(patch)) in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_tied_conductance_bounds_are_config_error(tmp_path, capsys):
    # energy_barrier divides by g_max - g_min: tied bounds used to exit 3
    # with a bare "float division by zero".
    rc, out = _simulate_device_override(tmp_path, "fig2_stp", {
        "g_min": 3e-6, "g_max": 3e-6, "g_eq0": 3e-6, "g_floor": 3e-6})
    assert rc == cli.EXIT_CONFIG
    assert "g_max must exceed g_min" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["fig2_stp", "fig4_sequence", "fig4_control"])
@pytest.mark.parametrize("w", [0, -1])
def test_non_positive_pulse_width_rejected(tmp_path, capsys, preset, w):
    # A zero-volt train reaches no device check; a negative width used to
    # index the synapse currents with negative steps.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": preset, "trials": 1,
                               "overrides": {"train": {"v": 0, "w": w}}}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "'train': w must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("preset", ["fig2_stp", "iv_sweep", "fig3b_amplitude"])
def test_arithmetic_overflow_is_runtime_error(tmp_path, capsys, preset):
    # exp((|v| - v_th)/v0) overflows a float on the first write pulse
    rc, _ = _simulate_device_override(tmp_path, preset, {"v0": 0.001})
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error" in err and "Traceback" not in err


@pytest.mark.parametrize("preset", ["fig2_stp", "iv_sweep", "fig3b_amplitude"])
def test_amplitude_overflow_message_names_its_parameters(tmp_path, capsys,
                                                         preset):
    rc, _ = _simulate_device_override(tmp_path, preset, {"v0": 0.001})
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "v0=0.001" in err and "v_th=" in err and " V pulse" in err


def test_unconverged_decay_fit_is_runtime_error(tmp_path, capsys):
    # A 100 V threshold leaves the 4 V pulses sub-threshold: no volatile
    # offset to fit, so no tau_d row may be written.
    rc, out = _simulate_device_override(tmp_path, "fig3a_decay",
                                        {"v_th": 100.0})
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "t_int=20 ms" in err and "fewer than 3 samples above baseline" in err
    assert not out.exists()


def test_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli.network, "monte_carlo", exhausted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "fig4_sequence", "trials": 2}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error: Unable to allocate 7.45 GiB" in err
    assert "Traceback" not in err


def test_refused_runs_leave_no_output_directory(tmp_path):
    rc, out = _simulate_device_override(tmp_path, "fig2_stp", {"v0": 0})
    assert rc == cli.EXIT_CONFIG
    assert not out.exists()
    (tmp_path / "in.csv").write_text("time_s,peak\n0.0,0.2\n0.05,0.25\n")
    rc = main(["fit", "tm", "--input", str(tmp_path / "in.csv"),
               "--out", str(tmp_path / "fitout")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "fitout").exists()


def test_output_path_that_is_a_file_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "fig3b_amplitude"}))
    header, rows, extra = _FIT_INPUTS["decay"]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    for argv in (["simulate", "--config", str(cfg)],
                 ["fit", "decay", "--input", str(tmp_path / "in.csv"), *extra]):
        assert main([*argv, "--out", str(blocker)]) == cli.EXIT_RUNTIME
        assert "cannot write CSV" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_manifest_write_error_is_runtime_error(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "fig3b_amplitude"}))
    argv = {"simulate": ["simulate", "--config", str(cfg)],
            "detect": ["detect", "--topology", "sequence", "--trials", "2"],
            }[command]
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "manifest.json" in err and "Traceback" not in err


def test_fig3b_simulate_writes_manifest_and_csv(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "preset": "fig3b_amplitude", "seed": 5,
        "out_dir": str(tmp_path / "out"),
    }))
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["preset"] == "fig3b_amplitude"
    assert (out / "amplitude_response.csv").exists()


# A non-default value for one field of each override section.
_NON_DEFAULT = {"device": {"tau_f_dev": 0.6}, "train": {"t_int": 0.3},
                "plan": {"repeats": 5}, "pattern": {"gap": 0.3},
                "network": {"tail": 0.4}}


def _resolved_of_run(out, preset, overrides):
    cfg = out.with_suffix(".json")
    cfg.write_text(json.dumps({"preset": preset, "seed": 3, "trials": 20,
                               "overrides": overrides, "out_dir": str(out)}))
    assert main(["simulate", "--config", str(cfg)]) == 0
    return json.loads((out / "manifest.json").read_text())["resolved"]


@pytest.mark.parametrize("preset", cli.PRESET_NAMES)
def test_manifest_resolved_replays_the_run(tmp_path, preset):
    # A run configured by its manifest's resolved sections repeats it: the
    # same CSVs and the same resolved. A value no config can write (an
    # infinity, a None) comes from the preset, so it is left out.
    sections = cli._PRESETS[preset].sections
    first = _resolved_of_run(tmp_path / "first", preset,
                             {s: _NON_DEFAULT[s] for s in sections})
    for section in sections:
        for name, value in _NON_DEFAULT[section].items():
            assert first[section][name] == value
    replay = {s: {k: v for k, v in first[s].items() if v not in (None, "inf")}
              for s in sections}
    assert _resolved_of_run(tmp_path / "replay", preset, replay) == first
    csvs = sorted(path.name for path in (tmp_path / "first").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert ((tmp_path / "replay" / name).read_bytes()
                == (tmp_path / "first" / name).read_bytes()), name


def test_detector_manifest_records_only_the_orders_it_ran(tmp_path):
    out = tmp_path / "out"
    assert main(["detect", "--topology", "sequence", "--pattern", "ab",
                 "--trials", "5", "--out", str(out)]) == 0
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert list(resolved["p_spike"]) == ["ab"]
    assert "order" not in resolved["pattern"]


@pytest.mark.parametrize("preset", ["fig2_stp", "fig2f_drift"])
def test_train_override_that_breaks_the_plan_is_config_error(tmp_path, capsys,
                                                             preset):
    # An 11 s interval makes the train outlast the plan's recovery time.
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": preset, "out_dir": str(out),
                               "overrides": {"train": {"t_int": 11.0}}}))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'plan'" in err and "t_rec must exceed the train duration" in err
    assert not out.exists()


def test_detect_reproducible_and_thread_invariant(tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    for out, threads in ((out1, "1"), (out2, "1"), (out3, "3")):
        rc = main(["detect", "--topology", "sequence", "--pattern", "ba",
                   "--trials", "40", "--seed", "7", "--threads", threads,
                   "--out", str(out)])
        assert rc == 0
    csv1 = (out1 / "trials_ba.csv").read_bytes()
    assert csv1 == (out2 / "trials_ba.csv").read_bytes()
    assert csv1 == (out3 / "trials_ba.csv").read_bytes()


def test_fit_decay_subcommand(tmp_path):
    t = np.arange(0, 0.5, 1e-3)
    g = 2.9e-6 + 0.2e-6 * np.exp(-t / 0.1)
    emit_csv(tmp_path / "in.csv", "time_s,conductance_S", zip(t, g),
             "%.9g,%.9g")
    rc = main(["fit", "decay", "--input", str(tmp_path / "in.csv"),
               "--g-eq", "2.9e-6", "--out", str(tmp_path / "fit")])
    assert rc == 0
    rows = (tmp_path / "fit" / "fit_decay.csv").read_text().splitlines()
    fitted = {r.split(",")[0]: r.split(",")[1] for r in rows[1:]}
    assert float(fitted["tau_d"]) == pytest.approx(0.1, rel=1e-6)


@pytest.mark.parametrize("t0", ["0.0", "0.1"])
def test_fit_decay_on_one_time_reports_why(tmp_path, capsys, t0):
    (tmp_path / "in.csv").write_text(
        "time_s,conductance_S\n" + "".join(
            f"{t0},{g}\n" for g in ("3.1e-6", "3.0e-6", "2.95e-6")))
    rc = main(["fit", "decay", "--input", str(tmp_path / "in.csv"),
               "--g-eq", "2.9e-6", "--out", str(tmp_path / "fit")])
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "fit decay did not converge: fewer than 2 distinct times" in err
    rows = (tmp_path / "fit" / "fit_decay.csv").read_text().splitlines()
    assert rows[1:4] == ["tau_d,nan", "amplitude,nan", "sse,0"]
    assert rows[4] == "converged,0"


def test_fit_tm_on_constant_peaks_is_runtime_error(tmp_path, capsys):
    (tmp_path / "in.csv").write_text("spike_time_s,peak\n" + "".join(
        f"{t},0.2\n" for t in ("0.0", "0.4", "0.8", "1.2")))
    rc = main(["fit", "tm", "--input", str(tmp_path / "in.csv"),
               "--out", str(tmp_path / "fit")])
    assert rc == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "fit tm did not converge: peaks constant" in err
    assert "Traceback" not in err
    rows = (tmp_path / "fit" / "fit_tm.csv").read_text().splitlines()
    assert "converged,0" in rows


def test_sweep_iv_runs(tmp_path):
    rc = main(["sweep", "iv", "--out", str(tmp_path / "iv")])
    assert rc == 0
    lines = (tmp_path / "iv" / "iv_trace.csv").read_text().splitlines()
    assert lines[0] == "time_s,voltage_V,current_A"
    assert len(lines) > 100


def test_sweep_takes_no_config(tmp_path, monkeypatch, capsys):
    # A configured run is `simulate --config`; `sweep` runs its preset's
    # defaults, so argparse refuses --config before anything is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"preset": "fig3a_decay"}))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "decay", "--config", "c.json"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("flag,value", [
    ("--seed", "-1"), ("--seed", str(2 ** 64)), ("--trials", "0"),
    ("--threads", "0"),
])
def test_detect_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    argv = ["detect", "--topology", "sequence", "--trials", "2",
            "--out", str(tmp_path / "out"), flag, value]
    assert main(argv) == cli.EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch", [{"topology": "bogus"}, {"recovery": -3},
                                   {"synapses": 1}, {"neuron": 1}])
def test_network_override_rejects_fixed_and_removed_fields(tmp_path, patch):
    key = next(iter(patch))
    doc = {"preset": "fig4_sequence", "trials": 2,
           "overrides": {"network": patch}, "out_dir": str(tmp_path / "out")}
    with pytest.raises(ConfigError, match=f"network.{key}"):
        parse_config(json.dumps(doc))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("topology", ["sequence", "control", "coincidence"])
def test_detect_matches_golden_csvs(tmp_path, topology):
    # Goldens written by `memstp detect --topology <topology> --pattern both
    # --trials 200 --seed 31337`: output must stay byte-identical for a
    # fixed seed. The control and coincidence goldens predate batched
    # trials (they make no random draws); the sequence goldens were re-cut
    # in 0.2.0, when trial i started drawing from row i of one seeded
    # draw block.
    out = tmp_path / topology
    assert main(["detect", "--topology", topology, "--pattern", "both",
                 "--trials", "200", "--seed", "31337", "--out", str(out)]) == 0
    for name in ("trials_ab.csv", "trials_ba.csv"):
        assert (out / name).read_bytes() == (GOLDEN / topology / name).read_bytes()


DEVICE_PRESETS = ["fig2_stp", "fig2f_drift", "fig3a_decay", "fig3b_amplitude",
                  "iv_sweep"]


@pytest.mark.parametrize("preset", DEVICE_PRESETS)
def test_device_presets_match_golden_csvs(tmp_path, preset):
    # Goldens written by `memstp simulate` with {"preset": <preset>,
    # "seed": 7} before the device loops moved onto the plain-value kernel.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": preset, "seed": 7}))
    out = tmp_path / preset
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    golden = sorted(p.name for p in (GOLDEN / "device" / preset).glob("*.csv"))
    assert sorted(p.name for p in out.glob("*.csv")) == golden
    for name in golden:
        assert (out / name).read_bytes() == \
            (GOLDEN / "device" / preset / name).read_bytes()


FIT_CASES = sorted(p.name for p in (GOLDEN / "fit").iterdir())


@pytest.mark.parametrize("case", FIT_CASES)
def test_fits_match_golden_csvs(tmp_path, case):
    # Each case holds input.csv and the fit_<kind>.csv that `memstp fit
    # <kind>` wrote for it (decay with --g-eq 2.9e-6) before the TM fold
    # moved onto Python floats.
    (golden,) = (GOLDEN / "fit" / case).glob("fit_*.csv")
    kind = golden.stem.removeprefix("fit_")
    extra = ["--g-eq", "2.9e-6"] if kind == "decay" else []
    out = tmp_path / case
    assert main(["fit", kind, "--input", str(golden.with_name("input.csv")),
                 "--out", str(out), *extra]) == 0
    assert sorted(p.name for p in out.iterdir()) == [golden.name]
    assert (out / golden.name).read_bytes() == golden.read_bytes()


# Values whose '%.9g' and f"{x:.9g}" spellings could plausibly part ways.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-310, math.inf, -math.inf, math.nan, 1e16, -1e16, 1e15,
                123456789.5, 0.1, 1.0, -1.0, 3.01408441e-06]


def _edge_values():
    rng = np.random.default_rng(11)
    random = rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)
    return _EDGE_FLOATS + random.tolist()


def _spelled(header, rows):
    """A CSV as the writer spells it: floats with 9 significant digits as
    f"{x:.9g}" gives them, anything else as str gives it."""
    return "".join(
        ",".join(f"{x:.9g}" if isinstance(x, float) else str(x) for x in row)
        + "\n" for row in [header, *rows])


def test_emit_csv_rows_match_fmt_on_edge_values(tmp_path, monkeypatch):
    # Every CSV the CLI writes is fed edge values through its real caller.
    vals = _edge_values()
    back = vals[::-1]
    times = (np.arange(len(vals)) * 1e-3).tolist()
    cfg = tmp_path / "c.json"

    def simulate(preset, out):
        cfg.write_text(json.dumps({"preset": preset, "trials": 2}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    # Event fields keep their type: plain floats and numpy float64 alike.
    records = [EventRecord(index=k, g0=cast(a), g_post=cast(b),
                           peaks=(cast(b), a, cast(a)), label=EventLabel.STP_S,
                           mode=Mode.SATURATING, g_eq_before=a, g_eq_after=b)
               for k, (a, b) in enumerate(zip(vals, back))
               for cast in (float, np.float64)]
    monkeypatch.setattr(cli.protocols, "run_protocol",
                        lambda *args: (records, None))
    monkeypatch.setattr(cli.protocols, "train_trace", lambda *args: (
        None, np.array(times), np.array(vals)))
    out = simulate("fig2_stp", tmp_path / "fig2")
    assert (out / "events.csv").read_text() == _spelled(
        ["index", "g0_S", "g_post_S", "label", "peak_1", "peak_2", "peak_3"],
        [(r.index, r.g0, r.g_post, "stp_s", *r.peaks) for r in records])
    assert (out / "train_trace.csv").read_text() == _spelled(
        ["time_s", "conductance_S"], zip(times, vals))

    monkeypatch.setattr(cli.dev, "iv_sweep", lambda *args: (
        None, np.array(vals), np.array(back)))
    out = simulate("iv_sweep", tmp_path / "iv")
    dt = json.loads((out / "manifest.json").read_text())["resolved"]["dt"]
    assert (out / "iv_trace.csv").read_text() == _spelled(
        ["time_s", "voltage_V", "current_A"],
        zip((dt * np.arange(len(vals))).tolist(), vals, back))

    pairs = [(a, b) for a, b in zip(vals, back)] + [(2, -3), (0, 1e-310)]
    monkeypatch.setattr(cli.protocols, "amplitude_sweep", lambda *args: pairs)
    out = simulate("fig3b_amplitude", tmp_path / "amp")
    assert (out / "amplitude_response.csv").read_text() == _spelled(
        ["x", "y"], [(float(a), float(b)) for a, b in pairs])

    # AB: a batch without a memristive synapse (no labels); BA: labelled
    # trials, STP-F on odd indices.
    odd = np.arange(len(vals)) % 2 == 1
    n_spikes = np.arange(len(vals)) % 3
    unlabelled = TrialBatch(
        pattern=PatternOrder.AB, n_spikes=n_spikes,
        spike_times=np.full(n_spikes.sum(), 0.1),
        spike_offsets=np.concatenate(([0], np.cumsum(n_spikes))),
        g0=np.array(vals), saturating=None, g_post=None, label=None,
        times=np.zeros(0))
    batches = {PatternOrder.AB: unlabelled,
               PatternOrder.BA: dataclasses.replace(
                   unlabelled, pattern=PatternOrder.BA, saturating=~odd,
                   g_post=np.array(back), label=odd)}
    monkeypatch.setattr(cli.network, "monte_carlo",
                        lambda net, spec, *args: (0.5, batches[spec.order]))
    out = tmp_path / "det"
    assert main(["detect", "--topology", "sequence", "--pattern", "both",
                 "--trials", "2", "--out", str(out)]) == 0
    for order, labels in (("ab", [""] * len(vals)),
                          ("ba", [("stp_s", "stp_f")[k % 2]
                                  for k in range(len(vals))])):
        assert (out / f"trials_{order}.csv").read_text() == _spelled(
            ["index", "pattern", "spiked", "label", "g0_S", "n_spikes"],
            [(i, order, int(n > 0), label, g0, n) for i, (label, g0, n)
             in enumerate(zip(labels, vals, n_spikes.tolist()))])

    def fit(*args):
        return FitResult(params={"tau_d": math.nan, "amplitude": -math.inf,
                                 "offset": -0.0, "ceiling": math.inf},
                         sse=1e-310, iterations=4000, converged=False,
                         message="stub fit")

    monkeypatch.setattr(cli.fitting, "fit_decay", fit)
    header, rows, extra = _FIT_INPUTS["decay"]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    assert main(["fit", "decay", "--input", str(tmp_path / "in.csv"),
                 "--out", str(tmp_path / "fit"), *extra]) == cli.EXIT_RUNTIME
    assert (tmp_path / "fit" / "fit_decay.csv").read_text() == (
        "parameter,value\ntau_d,nan\namplitude,-inf\noffset,-0\n"
        "ceiling,inf\nsse,1e-310\nconverged,0\niterations,4000\n")


def _spelled_trials(batch, order):
    """trials_<order>.csv spelled row by row from every trial's column
    entries, broadcast or not."""
    labels = ([""] * len(batch) if batch.label is None else
              [("stp_s", "stp_f")[k] for k in batch.label.tolist()])
    return _spelled(
        ["index", "pattern", "spiked", "label", "g0_S", "n_spikes"],
        [(i, order.value, int(n > 0), label, g0, n) for i, (label, g0, n)
         in enumerate(zip(labels, batch.g0.tolist(), batch.n_spikes.tolist()))])


@pytest.mark.parametrize("topology, trials, rows", [
    ("control", 3000, 1), ("coincidence", 3000, 1), ("sequence", 300, 300)])
def test_detector_trial_rows_spell_every_trial(tmp_path, monkeypatch,
                                               topology, trials, rows):
    # A batch that draws nothing holds one row, whose line tail the writer
    # formats once for every trial; a drawing batch holds one row per trial.
    # Either way the file must spell each trial's columns, one line each.
    batches = {}
    monte_carlo = cli.network.monte_carlo

    def recorded(net, spec, *args):
        p_spike, batch = monte_carlo(net, spec, *args)
        batches[spec.order] = batch
        return p_spike, batch

    monkeypatch.setattr(cli.network, "monte_carlo", recorded)
    out = tmp_path / topology
    assert main(["detect", "--topology", topology, "--pattern", "both",
                 "--trials", str(trials), "--seed", "5",
                 "--out", str(out)]) == 0
    assert set(batches) == set(PatternOrder)
    for order, batch in batches.items():
        assert (len(batch), batch.rows) == (trials, rows)
        text = (out / f"trials_{order.value}.csv").read_text()
        assert text.count("\n") == trials + 1
        assert text == _spelled_trials(batch, order)
        tails = {line.split(",", 1)[1] for line in text.splitlines()[1:]}
        assert len(tails) == rows


def _simulate_network_override(tmp_path, preset, patch, trials=2):
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "preset": preset, "seed": 3, "trials": trials,
        "overrides": {"network": patch}, "out_dir": str(out)}))
    return main(["simulate", "--config", str(cfg)]), out


@pytest.mark.parametrize("preset", ["fig4_sequence", "fig4_control"])
@pytest.mark.parametrize("patch", [
    {"dt": 0}, {"dt": 0.01}, {"lead": -0.05}, {"tail": -1},
    {"g0_jitter": -1e-6}, {"g_post_delay": 0}, {"force_mode": "bogus"},
])
def test_network_override_rejects_bad_values(tmp_path, capsys, preset, patch):
    rc, out = _simulate_network_override(tmp_path, preset, patch)
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert next(iter(patch)) in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("patch", [
    {"g0_jitter": 5e-8}, {"force_mode": "saturating"},
    {"include_write_charge": False, "g_post_delay": 0.3},
    {"g_post_delay": 0.3},
])
def test_control_refuses_overrides_only_a_memristor_reads(tmp_path, capsys,
                                                          patch):
    # The RC control has no memristive synapse: these overrides used to run
    # as if unset, while the manifest recorded them as run.
    rc, out = _simulate_network_override(tmp_path, "fig4_control", patch)
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{next(iter(patch))} must keep its default" in err
    assert not out.exists()


def test_plan_repeats_beyond_the_pulse_bound_is_config_error(tmp_path, capsys):
    # 1e11 repeats of a 3-pulse train ran for hours.
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "fig2_stp", "out_dir": str(out),
                               "overrides": {"plan": {"repeats": 10 ** 11}}}))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'plan'" in err and "repeats * train.n must be at most" in err
    assert not out.exists()


@pytest.mark.parametrize("section, patch, steps", [
    ("pattern", {"gap": 1e9}, "1e+12 steps"),
    ("network", {"tail": 1e300}, "1e+303 steps"),
])
def test_trial_grid_beyond_the_step_bound_names_its_fields(tmp_path, capsys,
                                                          section, patch,
                                                          steps):
    # These grids used to fail to allocate (exit 3); the bound on trials x
    # steps per trial now refuses them as a config error.
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "preset": "fig4_sequence", "trials": 2,
        "overrides": {section: patch}, "out_dir": str(out)}))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"2 trials of {steps}" in err
    for name in ("network.dt", "network.lead", "network.tail", "pattern.gap",
                 "trains 0.50001 s long"):
        assert name in err
    assert not out.exists()


def test_detect_trials_beyond_the_step_bound_is_config_error(tmp_path,
                                                            capsys):
    # Under a 2.5 GB address-space limit this used to exit 3 with numpy's
    # "Unable to allocate 95.4 MiB", naming no field.
    out = tmp_path / "out"
    assert main(["detect", "--topology", "sequence", "--pattern", "ab",
                 "--trials", str(10 ** 8), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("trials * steps per trial must be at most 1e+10, got 100000000 "
            "trials of 1851 steps") in err
    assert not out.exists()


def test_unallocatable_sample_dt_names_it_and_writes_nothing(tmp_path,
                                                            capsys):
    # 1e-300 s asks for ~1e300 samples, which numpy refuses before it
    # allocates anything.
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "preset": "fig2_stp", "overrides": {"plan": {"sample_dt": 1e-300}},
        "out_dir": str(out)}))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    for text in ("plan.sample_dt", "1.8e+300 samples", "over 1.80001 s",
                 "a train 0.80001 s long and a 1 s tail"):
        assert text in err
    assert "Traceback" not in err
    assert not out.exists()


def test_force_mode_override_runs_every_trial_in_that_mode(tmp_path,
                                                           monkeypatch):
    runs = []
    monte_carlo = cli.network.monte_carlo

    def recording_monte_carlo(*args, **kwargs):
        p_spike, batch = monte_carlo(*args, **kwargs)
        runs.append(batch)
        return p_spike, batch

    monkeypatch.setattr(cli.network, "monte_carlo", recording_monte_carlo)
    rc, out = _simulate_network_override(
        tmp_path, "fig4_sequence", {"force_mode": "saturating"}, trials=20)
    assert rc == 0
    assert len(runs) == 2
    assert all(len(batch) == 20 and batch.saturating.all() for batch in runs)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["overrides"]["network"]["force_mode"] == "saturating"


_FIT_INPUTS = {
    "tm": (("spike_time_s", "peak"), [(0.0, 0.2), (0.05, 0.25), (0.1, 0.3)], []),
    "amplitude": (("amplitude_V", "dg_norm"),
                  [(1.5, 0.01), (2.0, 0.03), (3.0, 0.1)], []),
    "decay": (("time_s", "conductance_S"),
              [(0.0, 3.1e-6), (0.1, 3.0e-6), (0.2, 2.95e-6)],
              ["--g-eq", "2.9e-6"]),
}


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("kind", sorted(_FIT_INPUTS))
@pytest.mark.parametrize("col", [0, 1])
def test_fit_rejects_non_finite_input(tmp_path, capsys, kind, col, bad):
    header, rows, extra = _FIT_INPUTS[kind]
    lines = [",".join(header)] + [f"{x!r},{y!r}" for x, y in rows]
    cells = lines[2].split(",")
    cells[col] = bad
    lines[2] = ",".join(cells)
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n")
    rc = main(["fit", kind, "--input", str(tmp_path / "in.csv"),
               "--out", str(tmp_path / "fit"), *extra])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(header[col]) in err and "row 2" in err
    assert not (tmp_path / "fit" / f"fit_{kind}.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind,flag", [("decay", "--g-eq"),
                                       ("amplitude", "--v-th")])
def test_fit_rejects_non_finite_flag(tmp_path, capsys, kind, flag, bad):
    header, rows, _ = _FIT_INPUTS[kind]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    rc = main(["fit", kind, "--input", str(tmp_path / "in.csv"),
               "--out", str(tmp_path / "fit"), f"{flag}={bad}"])
    assert rc == cli.EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "fit" / f"fit_{kind}.csv").exists()


_FIT_EDGES = [0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324]


def _fit_edge_cases():
    """(kind, rows): an edge value in the first or last cell of either
    column, a repeated time, and one response far above the rest."""
    for kind, (header, rows, _) in _FIT_INPUTS.items():
        for value in _FIT_EDGES:
            for k in (0, len(rows) - 1):
                for col in (0, 1):
                    cell = list(rows[k])
                    cell[col] = value
                    yield pytest.param(
                        kind, [*rows[:k], tuple(cell), *rows[k + 1:]],
                        id=f"{kind}-{header[col]}[{k}]={value!r}")
        yield pytest.param(kind, [rows[0], (rows[0][0], rows[1][1]), *rows[2:]],
                           id=f"{kind}-repeated-{header[0]}")
        yield pytest.param(kind, [*rows[:-1], (rows[-1][0], 1e200)],
                           id=f"{kind}-{header[1]}[{len(rows) - 1}]=1e200")


@pytest.mark.parametrize("kind,rows", _fit_edge_cases())
def test_fit_exits_cleanly_on_edge_values(tmp_path, kind, rows):
    # Each fit ends in exit 0, 2 or 3 with no RuntimeWarning on the way, and
    # writes finite parameters when it exits 0.
    header, _, extra = _FIT_INPUTS[kind]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["fit", kind, "--input", str(tmp_path / "in.csv"),
                         "--out", str(tmp_path / "fit"), *extra])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    if code == cli.EXIT_OK:
        lines = (tmp_path / "fit" / f"fit_{kind}.csv").read_text().splitlines()
        # The parameter rows come before sse, converged and iterations.
        for line in lines[1:-3]:
            assert math.isfinite(float(line.split(",")[1])), line


def test_fit_csv_reports_iterations(tmp_path):
    header, rows, _ = _FIT_INPUTS["amplitude"]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    assert main(["fit", "amplitude", "--input", str(tmp_path / "in.csv"),
                 "--out", str(tmp_path / "fit")]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "fit" / "fit_amplitude.csv").read_text().splitlines()]
    assert rows[0] == ["parameter", "value"]
    assert [r[0] for r in rows[-3:]] == ["sse", "converged", "iterations"]
    assert int(rows[-1][1]) >= 1


@pytest.mark.parametrize("preset", cli.PRESET_NAMES)
def test_each_preset_reads_exactly_the_sections_it_declares(tmp_path,
                                                             monkeypatch,
                                                             preset):
    # A declared section that the runner never patches would be accepted and
    # silently ignored; one it patches but does not declare is refused.
    read = set()
    patched = cli._patched

    def spy(instance, section, overrides):
        read.add(section)
        return patched(instance, section, overrides)

    monkeypatch.setattr(cli, "_patched", spy)
    config = cli.RunConfig(preset=preset, trials=1, out_dir=str(tmp_path))
    assert cli.run_config(config) == cli.EXIT_OK
    assert read == cli._PRESETS[preset].sections


@pytest.mark.parametrize("preset,overrides,named", [
    ("fig3b_amplitude", {"network": {"force_mode": "bogus", "dt": 0}},
     "'network'"),
    ("fig3b_amplitude", {"pattern": {"gap": -1}}, "'pattern'"),
    ("iv_sweep", {"train": {"n": 2}}, "'train'"),
    ("fig2_stp", {"network": {"dt": 1e-3}}, "'network'"),
    ("fig4_sequence", {"device": {"g_c": 3.0e-6}}, "'device'"),
    ("fig4_sequence", {"plan": {"repeats": 2}}, "'plan'"),
    ("fig4_sequence", {"pattern": {"order": "ba"}}, "pattern.order"),
    ("fig4_sequence", {"pattern": {"train": 1}}, "pattern.train"),
    ("fig2_stp", {"plan": {"train": 1}}, "plan.train"),
])
def test_override_not_read_by_preset_rejected(tmp_path, capsys, preset,
                                              overrides, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": preset, "trials": 2,
                               "overrides": overrides,
                               "out_dir": str(tmp_path / "out")}))
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,named", [
    ('{"train": {"n": 2.5}}', "train.n"),
    ('{"train": {"n": true}}', "train.n"),
    ('{"plan": {"repeats": NaN}}', "plan.repeats"),
    ('{"device": {"tau_f_dev": NaN}}', "device.tau_f_dev"),
    ('{"device": {"g_c": NaN}}', "device.g_c"),
    ('{"device": {"g_c": Infinity}}', "device.g_c"),
    ('{"device": {"g_c": -Infinity}}', "device.g_c"),
    ('{"device": {"g_c": 1e400}}', "device.g_c"),
    ('{"device": {"g_c": ' + "9" * 400 + '}}', "device.g_c"),
    ('{"device": {"g_c": "3e-6"}}', "device.g_c"),
    ('{"device": {"polarity_sensitive": "no"}}', "device.polarity_sensitive"),
    ('{"device": {"polarity_sensitive": 0}}', "device.polarity_sensitive"),
    ('{"device": {"polarity_sensitive": NaN}}', "device.polarity_sensitive"),
])
def test_override_of_wrong_type_or_non_finite_rejected(tmp_path, capsys, text,
                                                        named):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"preset": "fig2_stp", "overrides": ' + text
                   + ', "out_dir": ' + json.dumps(str(tmp_path / "out")) + "}")
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch,message", [
    ('{"device": {"g_c": NaN}}', "device.g_c must be a finite number, got nan"),
    ('{"device": {"g_c": Infinity}}', "device.g_c must be a finite number, got inf"),
    ('{"device": {"g_c": -Infinity}}',
     "device.g_c must be a finite number, got -inf"),
    ('{"plan": {"repeats": NaN}}', "plan.repeats must be an integer, got nan"),
])
def test_non_finite_override_refusal_spells_the_float(patch, message):
    # A NaN or Infinity literal parses as a float, so a refusal prints it
    # as Python spells it.
    with pytest.raises(ConfigError, match=f"^override {re.escape(message)}$"):
        parse_config('{"preset": "fig2_stp", "overrides": %s}' % patch)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_string_override_rejected(literal):
    with pytest.raises(ConfigError, match="network.force_mode must be a string"):
        parse_config('{"preset": "fig4_sequence", "overrides": '
                     '{"network": {"force_mode": %s}}}' % literal)


@pytest.mark.parametrize("field", ["seed", "trials", "threads", "out_dir",
                                   "preset", "overrides"])
def test_non_finite_top_level_field_rejected(field):
    for literal in ("NaN", "Infinity", "-Infinity"):
        doc = {"preset": '"fig2_stp"', field: literal}
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            parse_config(text)


# ---------------------------------------------------------------------------
# Entry points and import weight
# ---------------------------------------------------------------------------


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's memstp."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "default", *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("module", ["memstp", "memstp.cli"])
def test_python_m_version_runs_clean(module):
    proc = run_python("-m", module, "--version")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.split() == [cli.__version__]


def test_pyproject_version_is_package_version():
    # The manifest records memstp.__version__; the package metadata must
    # agree with it.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match and match.group(1) == cli.__version__


# Run first in a fresh interpreter: any import of scipy then fails loudly.
_NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def test_detector_run_does_not_import_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "fig4_sequence", "trials": 20}))
    proc = run_python("-c", (
        _NO_SCIPY + "import memstp.cli\n"
        "memstp.cli.build_parser()\n"
        f"code = memstp.cli.main(['simulate', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy.')))\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "trials_ba.csv").is_file()


@pytest.mark.parametrize("kind", sorted(_FIT_INPUTS))
def test_fit_does_not_import_scipy(tmp_path, kind):
    header, rows, extra = _FIT_INPUTS[kind]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    argv = ["fit", kind, "--input", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "fit"), *extra]
    proc = run_python("-c", (
        _NO_SCIPY + "import memstp.cli\n"
        f"print(memstp.cli.main({argv!r}))\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"
    assert (tmp_path / "fit" / f"fit_{kind}.csv").is_file()


def test_cli_import_loads_no_package_beyond_numpy():
    # What the benchmark's setup probe imports. Standard-library modules are
    # part of every interpreter; any other top-level package is import
    # weight that every run of the command line pays.
    listing = ("import sys\n"
               "print(*sorted({m.partition('.')[0] for m in sys.modules}\n"
               "              - set(sys.stdlib_module_names)))\n")
    bare = run_python("-c", "import numpy\n" + listing)
    loaded = run_python("-c", "import memstp, memstp.cli\n"
                        "memstp.cli.build_parser()\n" + listing)
    assert bare.returncode == loaded.returncode == 0, bare.stderr + loaded.stderr
    assert "numpy" in bare.stdout.split()
    assert set(loaded.stdout.split()) <= set(bare.stdout.split()) | {"memstp"}


def test_main_runs_repeatedly_in_one_process(tmp_path, capsys):
    # main builds its parser once per process: a run after a fit, an
    # argparse error and --version must exit and write as the first did.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "fig4_sequence", "seed": 4,
                               "trials": 50}))
    header, rows, _ = _FIT_INPUTS["tm"]
    (tmp_path / "in.csv").write_text(
        ",".join(header) + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["fit", "tm", "--input", str(tmp_path / "in.csv"),
                 "--out", str(tmp_path / "fit")]) == 0
    for argv, code in ((["detect", "--topology", "sequence",
                         "--pattern", "abc"], 2), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    captured = capsys.readouterr()
    assert "invalid choice: 'abc'" in captured.err
    assert captured.out.splitlines()[-1] == cli.__version__
    assert main(["simulate", "--config", str(cfg), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == ["manifest.json", "trials_ab.csv", "trials_ba.csv"]
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert cli.build_parser() is not cli.build_parser()
