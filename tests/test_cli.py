"""CLI commands end to end: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wearsim import cli
from wearsim.cli import main
from wearsim.motion import NoiseModel
from wearsim.protocol import HopPolicy, TimingProfile
from wearsim.pipeline import read_recording
from wearsim.quatmath import Quaternion
from wearsim.runner import load_session

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

ARM_RAISE_YAML = """\
session: {duration_s: 4.0, seed: 2}
motion: {preset: arm-raise}
protocol: {kind: cw}
interference: {preset: clean}
"""


@pytest.fixture(scope="module")
def artificial_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("artificial")
    rc = main(["simulate", "--scenario", str(SCENARIOS / "artificial_joint_90.yaml"),
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def arm_raise_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("armraise")
    scenario = base / "arm_raise.yaml"
    scenario.write_text(ARM_RAISE_YAML)
    out = base / "run"
    rc = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0
    return out


def setting(section, key, *command, id=None):
    """A test_unrunnable_setting case: a scenario line, the name its error
    must give, and the command line (simulate unless given)."""
    return pytest.param(section, key, command or ("simulate",), id=id or f"{section}-{key}")


class TestSimulate:
    def test_output_files(self, artificial_run):
        names = {p.name for p in artificial_run.iterdir()}
        assert {"recording.csv", "session_trace.csv", "radio_trace.csv",
                "metrics.json", "session.json",
                "ground_truth_right_elbow.csv"} <= names

    def test_metrics(self, artificial_run):
        m = json.loads((artificial_run / "metrics.json").read_text())
        assert m["protocol"] == "cw"
        assert m["hop_count"] == 0
        for sid in ("1", "2"):
            st = m["per_sensor"][sid]
            assert st["pdr"] == 1.0
            assert st["mean_rate_hz"] == pytest.approx(60.0, abs=0.2)

    def test_recording_parses(self, artificial_run):
        frames = read_recording(artificial_run / "recording.csv")
        by_sensor = {}
        for f in frames:
            by_sensor.setdefault(f.sensor_id, []).append(f)
        assert set(by_sensor) == {1, 2}
        counts = [len(v) for v in by_sensor.values()]
        assert counts[0] == counts[1]
        assert 295 <= counts[0] <= 301

    def test_session_sidecar_roundtrips(self, artificial_run):
        calib, meta = load_session(artificial_run / "session.json")
        assert meta["joints"] == ["right elbow"]
        assert calib.placement.name == "artificial-joint"
        assert set(calib.q_calib) == {1, 2}
        assert isinstance(calib.q_calib[1], Quaternion)

    def test_ground_truth_grid(self, artificial_run):
        lines = (artificial_run / "ground_truth_right_elbow.csv").read_text().splitlines()
        assert lines[0] == "time_us,angle_deg"
        assert len(lines) == 1 + 501  # 5 s at 100 Hz, inclusive
        assert lines[1] == "0,90"
        assert lines[-1].startswith("5000000,")

    def test_stdout_summary(self, arm_raise_run, capsys):
        # The fixture already ran; run again into a fresh dir to capture.
        out = arm_raise_run.parent / "echo"
        scenario = arm_raise_run.parent / "arm_raise.yaml"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "protocol cw" in text
        assert "sensor 1:" in text and "sensor 5:" in text


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("session: {duration_s: 2.0, seed: 14}\n"
                            "motion: {preset: arm-raise}\n"
                            "interference: {preset: crowded}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(b)]) == 0
        for name in ("recording.csv", "session_trace.csv", "radio_trace.csv",
                     "metrics.json", "session.json",
                     "ground_truth_left_shoulder.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_run(self, tmp_path):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("session: {duration_s: 2.0, seed: 14}\n"
                            "motion: {preset: arm-raise}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(b),
                     "--seed", "99"]) == 0
        assert (a / "recording.csv").read_bytes() != (b / "recording.csv").read_bytes()
        assert json.loads((b / "session.json").read_text())["seed"] == 99


class TestAnalyze:
    def test_artificial_joint_is_constant_90(self, artificial_run, tmp_path):
        out = tmp_path / "analysis"
        rc = main(["analyze", "--recording", str(artificial_run / "recording.csv"),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "analysis.json").read_text())
        stats = summary["joints"]["right elbow"]
        # Zero-noise fixture: only the 9-digit CSV quantization remains.
        assert stats["mean_deg"] == pytest.approx(90.0, abs=1e-5)
        assert stats["range_deg"] < 1e-4
        assert (out / "angles_right_elbow.csv").exists()
        assert (out / "rates.csv").exists()
        for sid in ("1", "2"):
            assert summary["rates"][sid]["mean_hz"] == pytest.approx(60.0, abs=1.0)

    def test_arm_raise_covers_both_shoulders(self, arm_raise_run, tmp_path, capsys):
        out = tmp_path / "analysis"
        rc = main(["analyze", "--recording", str(arm_raise_run / "recording.csv"),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "analysis.json").read_text())
        for label in ("left shoulder", "right shoulder"):
            stats = summary["joints"][label]
            assert stats["max_deg"] == pytest.approx(90.0, abs=6.0)
            assert stats["min_deg"] < 10.0
            assert not stats["zero_range"]
        text = capsys.readouterr().out
        assert "left shoulder:" in text

    def test_joint_subset_flag(self, arm_raise_run, tmp_path):
        out = tmp_path / "one"
        rc = main(["analyze", "--recording", str(arm_raise_run / "recording.csv"),
                   "--joints", "left shoulder", "--out", str(out)])
        assert rc == 0
        assert (out / "angles_left_shoulder.csv").exists()
        assert not (out / "angles_right_shoulder.csv").exists()

    def test_zero_range_flag(self, tmp_path):
        # A recording frozen on one orientation must be flagged.
        from wearsim.pipeline import RecordingFrame, write_recording
        frames = []
        for k in range(5):
            for sensor in (1, 2):
                frames.append(RecordingFrame.quantized(
                    k * 20000 + sensor, sensor, k + 1, Quaternion.identity()))
        write_recording(frames, tmp_path / "recording.csv")
        session = {
            "calibration_pose": "neutral",
            "duration_s": 0.1,
            "joints": ["right elbow"],
            "placement": {"name": "artificial-joint",
                          "sensors": {"1": "arm_r", "2": "forearm_r"}},
            "protocol": "cw",
            "q_calib": {"1": [1.0, 0.0, 0.0, 0.0], "2": [1.0, 0.0, 0.0, 0.0]},
            "seed": 0,
        }
        (tmp_path / "session.json").write_text(json.dumps(session))
        out = tmp_path / "analysis"
        rc = main(["analyze", "--recording", str(tmp_path / "recording.csv"),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "analysis.json").read_text())
        assert summary["joints"]["right elbow"]["zero_range"] is True


class TestCompare:
    def test_ground_truth_vs_itself(self, arm_raise_run, capsys):
        truth = arm_raise_run / "ground_truth_left_shoulder.csv"
        assert main(["compare", str(truth), str(truth)]) == 0
        out = capsys.readouterr().out
        assert "mae_deg 0" in out
        assert "pearson 1" in out

    def test_recording_vs_ground_truth(self, arm_raise_run, tmp_path, capsys):
        rc = main(["compare", str(arm_raise_run / "recording.csv"),
                   str(arm_raise_run / "ground_truth_left_shoulder.csv"),
                   "--joint", "left shoulder", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert report["mae_deg"] < 5.0
        assert report["pearson"] > 0.9

    def test_huge_finite_angles(self, tmp_path, capsys):
        a, b = tmp_path / "big.csv", tmp_path / "big2.csv"
        a.write_text("time_us,angle_deg\n0,1e308\n100,-1e308\n")
        b.write_text("time_us,angle_deg\n0,-1e308\n100,1e308\n")
        out = tmp_path / "o"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "mean absolute error overflows" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_recording_needs_joint_choice(self, arm_raise_run, capsys):
        rc = main(["compare", str(arm_raise_run / "recording.csv"),
                   str(arm_raise_run / "ground_truth_left_shoulder.csv")])
        assert rc == 2
        assert "--joint" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_scenario_key(self, tmp_path, capsys):
        s = tmp_path / "s.yaml"
        s.write_text("motion: {preset: arm-raise}\nturbo: true\n")
        assert main(["simulate", "--scenario", str(s), "--out", str(tmp_path / "o")]) == 2
        assert "turbo" in capsys.readouterr().err

    def test_too_many_sensors(self, tmp_path, capsys):
        s = tmp_path / "s.yaml"
        s.write_text("motion: {preset: half-jacks, params: {sensors: 13}}\n")
        assert main(["simulate", "--scenario", str(s), "--out", str(tmp_path / "o")]) == 2
        assert "10 or 12" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, command", [
        setting("protocol: {timing: {beacon_interval_ms: 0}}", "beacon_interval_ms"),
        setting("protocol: {timing: {poll_bytes: 0}}", "poll_bytes"),
        setting("protocol: {timing: {resync_timeout_ms: 0}}", "resync_timeout_ms"),
        setting("protocol: {hop: {walk_dwell_ms: 0}}", "walk_dwell_ms"),
        setting("protocol: {hop: {blacklist_size: 76}}", "blacklist_size"),
        setting("interference: {sources: [{type: jam, channel: 40, seed: 3}]}", "seed"),
        setting("protocol: {timing: {poll_cap_hz: .nan}}", "poll_cap_hz"),
        setting("protocol: {hop: {loss_window: 100000000000000000000}}", "loss_window"),
        setting(f"protocol: {{timing: {{poll_bytes: {10**310}}}}}", "poll_bytes",
                id="poll_bytes-10**310"),
        setting(f"session: {{duration_s: {10**310}}}", "duration_s",
                id="duration_s-10**310"),
        setting(f"motion: {{preset: artificial-joint, params: {{angle_deg: {10**310}}}}}",
                "motion.params.angle_deg", id="angle_deg-10**310"),
        setting("interference: {sources: [{type: bt, event_interval_ms: 1.0e-3}]}",
                "event_interval_ms"),
        # arm-raise builds three knots per 2 s of duration_s at parse time.
        setting("motion: {preset: arm-raise, params: {duration_s: 2.0e5}}",
                "motion.params.duration_s"),
        setting("motion: {preset: artificial-joint, params: {angle_deg: 30, dwell_s: 86401}}",
                "motion.params.dwell_s"),
        setting("session: {duration_s: 86401}", "session.duration_s"),
        # Under 1 us, the slaves' channel arithmetic overflowed (exit 1).
        setting("protocol: {timing: {beacon_interval_ms: 5.0e-324}}", "beacon_interval_ms"),
        setting("protocol: {hop: {walk_dwell_ms: 5.0e-324}}", "walk_dwell_ms"),
        # The interpolated cap was 1e300 + (7 - 1e300) = 0: the sampler redrew forever.
        setting("motion: {preset: arm-raise, noise: {static_max_deg: 1.0e+300}}",
                "motion.noise: perturbation caps must be <= 180 deg"),
        # --seed follows session.seed's rule: an integer in 0..2**63 - 1.
        setting("", "--seed", "simulate", "--seed", "-1", id="simulate --seed -1"),
        setting("", "--seed", "simulate", "--seed", str(2**63), id="simulate --seed 2**63"),
        setting("", "--seed", "simulate", "--seed", str(10**23), id="simulate --seed 10**23"),
        setting("", "--seed", "protocol-bench", "--seed", "-1",
                id="protocol-bench --seed -1"),
        setting("interference: {preset: crowded}", "--seed", "protocol-bench", "--seed", "-1",
                id="protocol-bench crowded --seed -1"),
        setting("", "--seed", "protocol-bench", "--seed", str(10**23),
                id="protocol-bench --seed 10**23"),
    ])
    def test_unrunnable_setting(self, tmp_path, capsys, section, key, command):
        s = tmp_path / "s.yaml"
        s.write_text(f"session: {{duration_s: 2.0}}\nmotion: {{preset: arm-raise}}\n"
                     f"{section}\n")
        argv = [command[0], "--scenario", str(s), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "interference.preset" not in err

    def test_missing_scenario_file(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_yaml_syntax_error(self, tmp_path):
        s = tmp_path / "s.yaml"
        s.write_text("motion: [unclosed\n")
        assert main(["simulate", "--scenario", str(s), "--out", str(tmp_path / "o")]) == 3

    def test_corrupt_recording(self, artificial_run, tmp_path, capsys):
        lines = (artificial_run / "recording.csv").read_text().splitlines()
        lines[2] = lines[2].replace(",", ";", 1)
        bad = tmp_path / "recording.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["analyze", "--recording", str(bad),
                   "--session", str(artificial_run / "session.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "1e200"])
    @pytest.mark.parametrize("sensor", [1, 4], ids=["shoulders", "no-joint"])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_bad_quaternion_cell(self, arm_raise_run, tmp_path, capsys, cell, sensor, command):
        # A malformed row wherever it sits, whether or not a joint reads the sensor.
        lines = (arm_raise_run / "recording.csv").read_text().splitlines()
        n = next(i for i in range(20, len(lines)) if lines[i].split(",")[1] == str(sensor))
        cells = lines[n].split(",")
        cells[3] = cell
        lines[n] = ",".join(cells)
        bad = tmp_path / "recording.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "session.json").write_bytes((arm_raise_run / "session.json").read_bytes())
        argv = {"analyze": ["analyze", "--recording", str(bad), "--out", str(tmp_path / "o")],
                "compare": ["compare", str(bad),
                            str(arm_raise_run / "ground_truth_left_shoulder.csv"),
                            "--joint", "left shoulder"]}[command]
        assert main(argv) == 3
        assert f"line {n + 1}: quaternion norm" in capsys.readouterr().err

    def test_recording_without_sidecar(self, artificial_run, tmp_path):
        alone = tmp_path / "recording.csv"
        alone.write_bytes((artificial_run / "recording.csv").read_bytes())
        assert main(["analyze", "--recording", str(alone),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_joint(self, artificial_run, tmp_path, capsys):
        rc = main(["analyze", "--recording", str(artificial_run / "recording.csv"),
                   "--joints", "left wing", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "left wing" in capsys.readouterr().err

    def test_disjoint_series(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("time_us,angle_deg\n0,1\n100,2\n")
        b.write_text("time_us,angle_deg\n5000,3\n6000,4\n")
        assert main(["compare", str(a), str(b)]) == 4

    def test_unrecognized_header(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("t,angle\n0,1\n")
        assert main(["compare", str(a), str(a)]) == 3

    def test_angle_row_with_three_columns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("time_us,angle_deg\n0,1\n100,2,3\n")
        assert main(["compare", str(a), str(a)]) == 3
        assert "line 3: expected 2 columns, got 3" in capsys.readouterr().err

    def test_angle_header_only(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("time_us,angle_deg\n")
        assert main(["compare", str(a), str(a)]) == 4
        assert "no angle rows" in capsys.readouterr().err

    def test_angle_blank_lines_skipped(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("time_us,angle_deg\n0,1\n100,3\n")
        b.write_text("time_us,angle_deg\n\n0,1\n  \n100,3\n\n")
        assert main(["compare", str(a), str(b)]) == 0
        assert "mae_deg 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("rows, line, message", [
        ("0,1\n150,2\n100,3\n300,4\n", 4, "timestamp 100 does not increase (previous 150)"),
        ("0,1\n100,2\n100,3\n200,4\n", 4, "timestamp 100 does not increase (previous 100)"),
    ])
    def test_angle_timestamps_must_increase(self, tmp_path, capsys, rows, line, message):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("time_us,angle_deg\n" + rows)
        b.write_text("time_us,angle_deg\n0,1\n100,2\n200,3\n")
        for args in ([str(a), str(b)], [str(b), str(a)]):
            assert main(["compare", *args]) == 4
            assert f"{a} line {line}: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["simulate", "protocol-bench", "analyze",
                                         "compare-angles", "compare-recording"])
    def test_undecodable_input(self, artificial_run, tmp_path, capsys, command):
        # Byte 0xff starts no UTF-8 sequence: a read failure, not a validation one.
        scenario = tmp_path / "s.yaml"
        scenario.write_bytes(b"session: {duration_s: 1.0}\nmotion: {preset: arm-raise}\n"
                             b"# \xff\n")
        recording = tmp_path / "recording.csv"
        recording.write_bytes((artificial_run / "recording.csv").read_bytes() + b"\xff\n")
        (tmp_path / "session.json").write_bytes((artificial_run / "session.json").read_bytes())
        angles = tmp_path / "a.csv"
        angles.write_bytes(b"time_us,angle_deg\n0,1\n100,2\xff\n")
        good = tmp_path / "b.csv"
        good.write_text("time_us,angle_deg\n0,1\n100,2\n")
        out = str(tmp_path / "o")
        argv = {
            "simulate": ["simulate", "--scenario", str(scenario), "--out", out],
            "protocol-bench": ["protocol-bench", "--scenario", str(scenario), "--out", out],
            "analyze": ["analyze", "--recording", str(recording), "--out", out],
            "compare-angles": ["compare", str(good), str(angles)],
            "compare-recording": ["compare", str(recording), str(good)],
        }[command]
        assert main(argv) == 3
        assert "can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "infinity"])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_non_finite_angle(self, tmp_path, capsys, cell, which):
        paths = {name: tmp_path / f"{name}.csv" for name in "ab"}
        for name, path in paths.items():
            path.write_text("time_us,angle_deg\n0,1\n100,2\n200,3\n")
        paths[which].write_text(f"time_us,angle_deg\n0,1\n100,{cell}\n200,3\n")
        out = tmp_path / "o"
        assert main(["compare", str(paths["a"]), str(paths["b"]), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert f"{paths[which]} line 3: angle '{cell}' is not finite" in captured.err
        assert captured.out == ""
        assert not (out / "comparison.json").exists()


class TestProtocolBench:
    def test_small_bench(self, tmp_path, capsys):
        scenario = tmp_path / "s.yaml"
        scenario.write_text("session: {duration_s: 2.0, seed: 5}\n"
                            "motion: {preset: arm-raise}\n")
        out = tmp_path / "bench"
        rc = main(["protocol-bench", "--scenario", str(scenario),
                   "--out", str(out), "--seeds", "2"])
        assert rc == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["protocols"] == ["cw", "ble-baseline"]
        assert set(report["per_run"]["cw"]) == {"5", "6"}
        assert report["hop_count_total"]["cw"] == 0  # clean band never trips
        assert set(report["ordering"]) == {"cw_mean_dominates_fraction",
                                           "ble_min_window_below_10_fraction",
                                           "cw_min_window_at_least_40_fraction"}
        rows = (out / "bench.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 5
        assert "total hops" in capsys.readouterr().out

    def test_ble_sensor_limit(self, tmp_path, capsys):
        rc = main(["protocol-bench", "--scenario",
                   str(SCENARIOS / "half_jacks_p10.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "at most 5" in capsys.readouterr().err

    @pytest.mark.parametrize("session_seed, flags, given", [
        (0, ["--seed", str(2**63 - 2)], "--seed"),
        (2**63 - 2, [], "session.seed"),
    ])
    def test_last_seed_out_of_range(self, tmp_path, capsys, monkeypatch,
                                    session_seed, flags, given):
        # The last derived seed is checked before the first seed runs.
        monkeypatch.setattr(cli, "execute", lambda *a: pytest.fail("a seed ran"))
        scenario = tmp_path / "s.yaml"
        scenario.write_text(f"session: {{duration_s: 0.3, seed: {session_seed}}}\n"
                            "motion: {preset: arm-raise}\n"
                            "interference: {preset: crowded}\n")
        out = tmp_path / "bench"
        rc = main(["protocol-bench", "--scenario", str(scenario), "--out", str(out),
                   "--seeds", "3", *flags])
        assert rc == 2
        assert (f"--seeds 3 from {given} {2**63 - 2} reaches seed {2**63}, beyond 2**63 - 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_protocol(self, tmp_path):
        rc = main(["protocol-bench", "--scenario",
                   str(SCENARIOS / "arm_raise_crowded.yaml"),
                   "--out", str(tmp_path / "o"), "--protocols", "cw,zigbee"])
        assert rc == 2


class TestJamScenario:
    def test_hop_and_trace(self, tmp_path):
        out = tmp_path / "jam"
        rc = main(["simulate", "--scenario", str(SCENARIOS / "jam_recovery.yaml"),
                   "--out", str(out)])
        assert rc == 0
        m = json.loads((out / "metrics.json").read_text())
        assert m["hop_count"] >= 1
        assert m["resync_count"] == 0
        trace = (out / "radio_trace.csv").read_text()
        assert ",busy" in trace       # jammer bursts merged in
        assert ",jam:0," in trace
        session = (out / "session_trace.csv").read_text()
        assert ",hop," in session


# Values that are out of range or of the wrong type for most keys.
ODD = st.sampled_from([-1, -0.5, 0, math.nan, -math.inf, 2**63, 10**30, True, "x", None,
                       [1], {"a": 1}])


def mostly(valid, odd=ODD):
    """valid, or one time in ten an odd value. (one_of would not keep these
    odds: hypothesis favours its last branch.)"""
    return st.integers(0, 9).flatmap(lambda n: odd if n == 9 else valid)


def with_unknown(mappings):
    """The mappings, one time in ten with an unknown key added."""
    return st.tuples(mappings, st.integers(0, 9)).map(
        lambda mn: {**mn[0], "turbo": 1} if mn[1] == 9 else mn[0])


def section(required=None, **keys):
    """Mappings over the required keys and some of the others, each drawn
    mostly from its strategy."""
    return with_unknown(st.fixed_dictionaries(
        {key: mostly(value) for key, value in (required or {}).items()},
        optional={key: mostly(value) for key, value in keys.items()}))


def scaled(cls):
    """A section of cls's number fields: each a default times a power of two
    from 1/8 to 8, or, for a float, one of the extremes 5e-324 and 1e300."""
    def value(default):
        factor = st.sampled_from([0.125, 0.5, 1.0, 2.0, 8.0])
        if isinstance(default, int):
            return factor.map(lambda f: max(1, int(default * f)))
        return st.one_of(factor.map(lambda f: default * f), st.sampled_from([5e-324, 1e300]))
    return section(**{f.name: value(f.default) for f in fields(cls) if f.name != "seed"})


SOURCE = section(
    {"type": st.sampled_from(["wifi", "bt", "jam"])},
    channel=st.integers(-1, 80), duty=st.floats(0.0, 1.0), mean_burst_ms=st.floats(1e-3, 10.0),
    event_interval_ms=st.floats(1e-3, 30.0), burst_us=st.floats(1e-3, 1000.0),
    start_s=st.floats(0.0, 1.0), seed=st.integers(0, 2**63 - 1))

PRESET_PARAMS = {
    "artificial-joint": section({"angle_deg": st.floats(-720.0, 720.0)},
                                dwell_s=st.floats(1e-3, 100.0)),
    "elbow-flexion": section(),
    "half-jacks": section(sensors=st.sampled_from([10, 11, 12]),
                          duration_s=st.floats(1e-3, 100.0)),
    "arm-raise": section(duration_s=st.floats(1e-3, 100.0)),
}
# All five sections; session.duration_s is always given and, when valid,
# at most 0.5 s, so a run stays short.
SCENARIO_MAPPINGS = section(
    {"session": section({"duration_s": st.floats(1e-3, 0.5)}, seed=st.integers(0, 2**63 - 1)),
     "motion": st.sampled_from(sorted(PRESET_PARAMS)).flatmap(lambda name: section(
         {"preset": st.just(name)}, params=PRESET_PARAMS[name],
         noise=st.one_of(st.just("zero"), scaled(NoiseModel))))},
    placement=section(preset=st.sampled_from(["p5-upper", "p10", "p12"])),
    protocol=section(kind=st.sampled_from(["cw", "ble-baseline"]),
                     initial_channel=st.integers(0, 80), p_floor=st.floats(0.0, 0.999),
                     timing=scaled(TimingProfile), hop=scaled(HopPolicy)),
    interference=st.one_of(section(preset=st.sampled_from(["clean", "crowded"])),
                           section(sources=st.lists(mostly(SOURCE), max_size=3))))


class TestSimulateProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scenario=SCENARIO_MAPPINGS,
           seed=mostly(st.one_of(st.none(), st.integers(0, 2**63 - 1)),
                       odd=st.sampled_from([-1, 2**63])))
    def test_exit_code_never_a_crash(self, scenario, seed):
        # simulate exits 0, 2, 3 or 4 on any scenario mapping; a traceback
        # (an exception out of main) would be exit 1.
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            path = Path(tmp) / "s.yaml"
            path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
            argv = ["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "o")]
            if seed is not None:
                argv += ["--seed", str(seed)]
            assert main(argv) in (0, 2, 3, 4)
