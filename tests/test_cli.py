import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memstp import cli
from memstp.cli import ConfigError, emit_csv, main, parse_config
from memstp.device import EventLabel, Mode
from memstp.protocols import EventRecord
from memstp.trace import Trace


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
    tr = Trace(np.array([0.0, 1e-3, 2e-3]), np.array([1.0, 2.0, 3.0]),
               kind="conductance")
    path = emit_csv(tr, tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "time_s,conductance_S"
    assert path.read_text().endswith("\n")


def test_emit_empty_records_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv([], path)
    assert path.read_text() == "x,y\n"


def test_emit_event_records_round_trip(tmp_path):
    recs = [EventRecord(index=k, g0=2.9e-6 + k * 1e-9, g_post=3.0e-6,
                        peaks=(2.95e-6, 2.97e-6, 3.0e-6),
                        label=EventLabel.STP_F, mode=Mode.FACILITATING,
                        g_eq_before=2.9e-6, g_eq_after=2.9e-6)
            for k in range(3)]
    path = emit_csv(recs, tmp_path / "r.csv")
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
    tr = Trace(np.linspace(0, 1, 50), rng.uniform(1e-7, 1e-5, 50),
               kind="current")
    path = emit_csv(tr, tmp_path / "t.csv")
    lines = path.read_text().splitlines()[1:]
    vals = np.array([float(l.split(",")[1]) for l in lines])
    assert np.allclose(vals, tr.values, rtol=1e-8, atol=0)


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
    assert "pulse width w must be > 0" in capsys.readouterr().err
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

    monkeypatch.setattr(cli, "_run_detector_preset", exhausted)
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
    emit_csv(Trace(t, g, kind="conductance"), tmp_path / "in.csv")
    rc = main(["fit", "decay", "--input", str(tmp_path / "in.csv"),
               "--g-eq", "2.9e-6", "--out", str(tmp_path / "fit")])
    assert rc == 0
    rows = (tmp_path / "fit" / "fit_decay.csv").read_text().splitlines()
    fitted = {r.split(",")[0]: r.split(",")[1] for r in rows[1:]}
    assert float(fitted["tau_d"]) == pytest.approx(0.1, rel=1e-6)


def test_sweep_iv_runs(tmp_path):
    rc = main(["sweep", "iv", "--out", str(tmp_path / "iv")])
    assert rc == 0
    lines = (tmp_path / "iv" / "iv_trace.csv").read_text().splitlines()
    assert lines[0] == "time_s,voltage_V,current_A"
    assert len(lines) > 100


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


# Values whose '%.9g' and f"{x:.9g}" spellings could plausibly part ways.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-310, math.inf, -math.inf, math.nan, 1e16, -1e16, 1e15,
                123456789.5, 0.1, 1.0, -1.0, 3.01408441e-06]


def _edge_values():
    rng = np.random.default_rng(11)
    random = rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)
    return _EDGE_FLOATS + random.tolist()


def test_emit_csv_rows_match_fmt_on_edge_values(tmp_path):
    vals = _edge_values()
    times = np.arange(len(vals)) * 1e-3
    emit_csv(Trace(times, vals, kind="current"), tmp_path / "t.csv")
    want = ["time_s,current_A"] + [
        f"{cli._fmt(float(t))},{cli._fmt(v)}" for t, v in zip(times, vals)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"

    back = vals[::-1]
    emit_csv((Trace(times, vals, kind="voltage"), Trace(times, back, kind="current")),
             tmp_path / "p.csv")
    want = ["time_s,voltage_V,current_A"] + [
        f"{cli._fmt(float(t))},{cli._fmt(a)},{cli._fmt(b)}"
        for t, a, b in zip(times, vals, back)]
    assert (tmp_path / "p.csv").read_text() == "\n".join(want) + "\n"

    # Event fields keep their type: plain floats and numpy float64 alike.
    records = [EventRecord(index=k, g0=cast(a), g_post=cast(b),
                           peaks=(cast(b), a, cast(a)), label=EventLabel.STP_S,
                           mode=Mode.SATURATING, g_eq_before=a, g_eq_after=b)
               for k, (a, b) in enumerate(zip(vals, back))
               for cast in (float, np.float64)]
    emit_csv(records, tmp_path / "e.csv")
    want = ["index,g0_S,g_post_S,label,peak_1,peak_2,peak_3"] + [
        f"{r.index},{cli._fmt(r.g0)},{cli._fmt(r.g_post)},stp_s,"
        + ",".join(cli._fmt(p) for p in r.peaks) for r in records]
    assert (tmp_path / "e.csv").read_text() == "\n".join(want) + "\n"


def _simulate_network_override(tmp_path, preset, patch, trials=2):
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "preset": preset, "seed": 3, "trials": trials,
        "overrides": {"network": patch}, "out_dir": str(out)}))
    return main(["simulate", "--config", str(cfg)]), out


@pytest.mark.parametrize("preset", ["fig4_sequence", "fig4_control"])
@pytest.mark.parametrize("patch", [
    {"dt": 0}, {"lead": -0.05}, {"tail": -1}, {"g0_jitter": -1e-6},
    {"g_post_delay": 0}, {"force_mode": "bogus"},
])
def test_network_override_rejects_bad_values(tmp_path, capsys, preset, patch):
    rc, out = _simulate_network_override(tmp_path, preset, patch)
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert next(iter(patch)) in err
    assert not list(out.glob("*.csv"))


def test_force_mode_override_runs_every_trial_in_that_mode(tmp_path,
                                                           monkeypatch):
    runs = []
    monte_carlo = cli.network.monte_carlo

    def recording_monte_carlo(*args, **kwargs):
        p_spike, records = monte_carlo(*args, **kwargs)
        runs.append(records)
        return p_spike, records

    monkeypatch.setattr(cli.network, "monte_carlo", recording_monte_carlo)
    rc, out = _simulate_network_override(
        tmp_path, "fig4_sequence", {"force_mode": "saturating"}, trials=20)
    assert rc == 0
    assert len(runs) == 2
    assert all(rec.mode is Mode.SATURATING for recs in runs for rec in recs)
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
])
def test_override_of_wrong_type_or_non_finite_rejected(tmp_path, capsys, text,
                                                        named):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"preset": "fig2_stp", "overrides": ' + text
                   + ', "out_dir": ' + json.dumps(str(tmp_path / "out")) + "}")
    assert main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["seed", "trials"])
def test_non_finite_top_level_field_rejected(field):
    with pytest.raises(ConfigError, match=field):
        parse_config('{"preset": "fig2_stp", "%s": NaN}' % field)


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


def test_detector_run_does_not_import_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "fig4_sequence", "trials": 20}))
    proc = run_python("-c", (
        "import sys, memstp.cli\n"
        "memstp.cli.build_parser()\n"
        f"code = memstp.cli.main(['simulate', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m == 'scipy' or m.startswith('scipy.')))\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "trials_ba.csv").is_file()
