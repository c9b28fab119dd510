"""CLI commands end to end: outputs, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from wearsim.cli import main
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

    @pytest.mark.parametrize("section, key", [
        ("protocol: {timing: {beacon_interval_ms: 0}}", "beacon_interval_ms"),
        ("protocol: {timing: {poll_bytes: 0}}", "poll_bytes"),
        ("protocol: {timing: {resync_timeout_ms: 0}}", "resync_timeout_ms"),
        ("protocol: {hop: {walk_dwell_ms: 0}}", "walk_dwell_ms"),
        ("protocol: {hop: {blacklist_size: 76}}", "blacklist_size"),
        ("interference: {sources: [{type: jam, channel: 40, seed: 3}]}", "seed"),
        ("protocol: {timing: {poll_cap_hz: .nan}}", "poll_cap_hz"),
        ("protocol: {hop: {loss_window: 100000000000000000000}}", "loss_window"),
        pytest.param(f"protocol: {{timing: {{poll_bytes: {10**310}}}}}", "poll_bytes",
                     id="poll_bytes-10**310"),
        pytest.param(f"session: {{duration_s: {10**310}}}", "duration_s",
                     id="duration_s-10**310"),
        pytest.param(f"motion: {{preset: artificial-joint, params: {{angle_deg: {10**310}}}}}",
                     "motion.params.angle_deg", id="angle_deg-10**310"),
        ("interference: {sources: [{type: bt, event_interval_ms: 1.0e-3}]}",
         "event_interval_ms"),
        # arm-raise builds three knots per 2 s of duration_s at parse time.
        ("motion: {preset: arm-raise, params: {duration_s: 2.0e5}}",
         "motion.params.duration_s"),
        ("motion: {preset: artificial-joint, params: {angle_deg: 30, dwell_s: 86401}}",
         "motion.params.dwell_s"),
        ("session: {duration_s: 86401}", "session.duration_s"),
    ])
    def test_unrunnable_setting(self, tmp_path, capsys, section, key):
        s = tmp_path / "s.yaml"
        s.write_text(f"session: {{duration_s: 2.0}}\nmotion: {{preset: arm-raise}}\n"
                     f"{section}\n")
        assert main(["simulate", "--scenario", str(s), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

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
