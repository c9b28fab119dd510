"""CLI commands end to end: outputs, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
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


UNCOVERED_KNEE = ("placement 'p5-upper' has no sensor on 'thigh_l', "
                  "needed by joint 'left knee'")


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

    @pytest.mark.parametrize("duration_s, last", [
        ("1.1199999999999999", "1110000"), ("0.06999999999999999", "60000"),
        ("0.13999999999999999", "130000"), ("0.27999999999999997", "270000"),
        ("0.5599999999999999", "550000"), ("2.01", "2010000")])
    def test_ground_truth_ends_in_the_session(self, tmp_path, duration_s, last):
        # duration_s * 1e6 rounds up to a grid point past the session for the
        # first five, and down to one short of the last grid point for 2.01.
        scenario = tmp_path / "s.yaml"
        scenario.write_text(f"session: {{duration_s: {duration_s}, seed: 1}}\n"
                            "motion: {preset: half-jacks}\n")
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ground_truth_left_hip.csv").read_text().splitlines()
        assert lines[-1].split(",")[0] == last
        assert len(lines) == 2 + int(last) // 10_000

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

    def test_outputs_equal_under_two_hash_seeds(self, tmp_path):
        # One scenario and seed give one output whatever str hashes to: a
        # set or dict order that follows hash() would show here.
        scenario = tmp_path / "s.yaml"
        scenario.write_text("session: {duration_s: 2.0, seed: 14}\n"
                            "motion: {preset: arm-raise}\n"
                            "interference: {preset: crowded}\n")
        src = Path(__file__).resolve().parents[1] / "src"
        digests = {}
        for hash_seed in ("0", "12345"):
            out = tmp_path / hash_seed
            for command in (["simulate", "--out", str(out / "simulate")],
                            ["protocol-bench", "--seeds", "2", "--out", str(out / "bench")]):
                subprocess.run([sys.executable, "-m", "wearsim.cli", command[0],
                                "--scenario", str(scenario), *command[1:]],
                               env={**os.environ, "PYTHONPATH": str(src),
                                    "PYTHONHASHSEED": hash_seed},
                               check=True, capture_output=True, timeout=120)
            digests[hash_seed] = {
                str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}
        assert {"simulate/recording.csv", "simulate/radio_trace.csv",
                "bench/bench.json", "bench/bench.csv"} <= set(digests["0"])
        assert digests["0"] == digests["12345"]

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

    def test_sidecar_without_joints(self, artificial_run, tmp_path, capsys):
        # No --joints and a sidecar that lists none: nothing to analyze.
        session = json.loads((artificial_run / "session.json").read_text())
        session["joints"] = []
        (tmp_path / "session.json").write_text(json.dumps(session))
        (tmp_path / "recording.csv").write_bytes(
            (artificial_run / "recording.csv").read_bytes())
        out = tmp_path / "analysis"
        assert main(["analyze", "--recording", str(tmp_path / "recording.csv"),
                     "--out", str(out)]) == 2
        assert "the session lists no joints; pass --joints" in capsys.readouterr().err
        assert not out.exists()


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

    def test_unknown_joint_for_angle_inputs(self, arm_raise_run, tmp_path, capsys):
        # The report names the joint, so it is checked whatever the inputs.
        truth = arm_raise_run / "ground_truth_left_shoulder.csv"
        out = tmp_path / "o"
        assert main(["compare", "--joint", "nope", str(truth), str(truth),
                     "--out", str(out)]) == 2
        assert "unknown joint 'nope'; known joints: " in capsys.readouterr().err
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
        # Not a key (the hop walk has no blacklist): refused by name as unknown.
        setting("protocol: {hop: {blacklist_size: 76}}", "blacklist_size"),
        setting("protocol: {hop: {announce_repeats: 0}}", "announce_repeats"),
        setting("interference: {sources: [{type: jam, channel: 40, seed: 3}]}", "seed"),
        setting("protocol: {timing: {poll_cap_hz: .nan}}", "poll_cap_hz"),
        setting("protocol: {hop: {loss_window: 100000000000000000000}}", "loss_window"),
        setting("protocol: {hop: {loss_threshold: 9}}", "loss_threshold 9 and loss_window 8"),
        setting("protocol: {hop: {loss_threshold: 0}}", "loss_threshold 0 and loss_window 8"),
        setting("protocol: {hop: {loss_window: 2}}", "loss_threshold 3 and loss_window 2"),
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
        # The beacon's air time overflowed to inf: the slaves' clocks became
        # NaN mid-session (exit 4). A response of 32 bytes overflows at 1e307.
        setting("protocol: {timing: {us_per_byte: 1.5e+307}}", "us_per_byte"),
        setting("protocol: {timing: {us_per_byte: 1.0e+307}}", "us_per_byte",
                id="us_per_byte-1e307"),
        # The interpolated cap was 1e300 + (7 - 1e300) = 0: the sampler redrew forever.
        setting("motion: {preset: arm-raise, noise: {static_max_deg: 1.0e+300}}",
                "motion.noise: static_max_deg must be <= 180 deg"),
        setting("motion: {preset: arm-raise, noise: {dynamic_max_deg: 200}}",
                "motion.noise: dynamic_max_deg must be <= 180 deg"),
        setting("motion: {preset: arm-raise, noise: {static_sigma_deg: 5}}",
                "static_sigma_deg <= static_max_deg"),
        setting("motion: {preset: arm-raise, noise: {dynamic_sigma_deg: 5}}",
                "dynamic_sigma_deg <= dynamic_max_deg"),
        setting("motion: {preset: arm-raise, noise: {omega_ref_deg_s: 0}}", "omega_ref_deg_s"),
        setting("interference: {sources: 5}", "interference.sources"),
        setting("placement: {preset: 5}", "placement.preset"),
        # The source's own prefix, once.
        setting("interference: {sources: [{type: wifi, duty: 0.2}]}",
                "error: interference.sources[0].channel is required"),
        # drift_deg_per_min * t overflowed mid-session: sin(inf) exited 4.
        setting("motion: {preset: arm-raise, noise: {drift_deg_per_min: 1.0e+308}}",
                "motion.noise.drift_deg_per_min"),
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
        setting("", "--seeds", "protocol-bench", "--seeds", "0",
                id="protocol-bench --seeds 0"),
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

    @pytest.mark.parametrize("ts, code", [(2**63, 3), (-2**63 - 1, 3), (2**63 - 1, 0)],
                             ids=["2**63", "-2**63-1", "2**63-1"])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_timestamp_outside_int64(self, arm_raise_run, tmp_path, capsys, ts, code, command):
        # The last frame's timestamp: an int64 column holds 2**63 - 1 and no more.
        lines = (arm_raise_run / "recording.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[0] = str(ts)
        lines[-1] = ",".join(cells)
        bad = tmp_path / "recording.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "session.json").write_bytes((arm_raise_run / "session.json").read_bytes())
        argv = {"analyze": ["analyze", "--recording", str(bad), "--out", str(tmp_path / "o")],
                "compare": ["compare", str(bad),
                            str(arm_raise_run / "ground_truth_left_shoulder.csv"),
                            "--joint", "left shoulder"]}[command]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert f"line {len(lines)}: timestamp {ts} outside -2**63..2**63 - 1" in err

    def test_recording_without_sidecar(self, artificial_run, tmp_path):
        alone = tmp_path / "recording.csv"
        alone.write_bytes((artificial_run / "recording.csv").read_bytes())
        assert main(["analyze", "--recording", str(alone),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, run, joint, message", [
        ("analyze", "artificial_run", "left wing", "unknown joint 'left wing'"),
        # arm_raise_run's placement is p5-upper: no sensor on the legs.
        ("analyze", "arm_raise_run", "left knee", UNCOVERED_KNEE),
        ("compare", "arm_raise_run", "left knee", UNCOVERED_KNEE),
    ], ids=["analyze-unknown", "analyze-uncovered", "compare-uncovered"])
    def test_unknown_joint(self, request, tmp_path, capsys, command, run, joint, message):
        run = request.getfixturevalue(run)
        out = tmp_path / "o"
        argv = {"analyze": ["analyze", "--recording", str(run / "recording.csv"),
                            "--joints", joint, "--out", str(out)],
                "compare": ["compare", str(run / "recording.csv"),
                            str(run / "ground_truth_left_shoulder.csv"),
                            "--joint", joint, "--out", str(out)]}[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, code, message", [
        ("duration_s", None, 3, "duration_s"), ("duration_s", "abc", 3, "duration_s"),
        ("duration_s", True, 3, "duration_s"), ("duration_s", -5, 3, "duration_s"),
        ("duration_s", 0.0, 3, "duration_s"), ("duration_s", 86_401, 3, "duration_s"),
        ("duration_s", 1e300, 3, "duration_s"), ("duration_s", math.inf, 3, "duration_s"),
        ("joints", 5, 3, "joints"), ("joints", "left shoulder", 3, "joints"),
        ("joints", [1], 3, "joints"),
        ("joints", ["left shoulder", "left shoulder"], 3, "joints"),
        ("joints", ["left wing"], 2, "unknown joint 'left wing'"),
        ("joints", ["left knee"], 2, UNCOVERED_KNEE),
        ("placement", {"name": "p5-upper", "sensors": ["spine", "arm_l", "arm_r",
                                                       "forearm_l", "forearm_r"]},
         3, "placement.sensors must be a mapping"),
        ("q_calib", [[1, 0, 0, 0]] * 5, 3, "q_calib must be a mapping"),
        # Sensor 3 carries the right shoulder, a joint of the session.
        ("q_calib", {s: [1, 0, 0, 0] for s in "1245"}, 3,
         "calibration snapshot missing sensors [3] for placement 'p5-upper'"),
        ("q_calib", {s: [10**400 if s == "3" else 1, 0, 0, 0] for s in "12345"}, 3,
         "int too large to convert to float"),
        # Keys that int() maps to a sensor already named: only str() of an
        # id is a sensor key, so the alias is refused.
        ("q_calib", {**{s: [1, 0, 0, 0] for s in "12345"}, "04": [0, 1, 0, 0]}, 3,
         "'04' is not an integer as str() writes one"),
        ("placement", {"name": "p5-upper", "sensors": {
            "1": "spine", "2": "arm_l", "3": "arm_r", "4": "forearm_l", "5": "forearm_r",
            " 2": "forearm_r"}}, 3, "' 2' is not an integer as str() writes one"),
    ], ids=["duration-null", "duration-str", "duration-bool", "duration-negative",
            "duration-zero", "duration-over-a-day", "duration-1e300", "duration-inf",
            "joints-int", "joints-str", "joints-int-list", "joints-repeated",
            "joints-unknown", "joints-uncovered", "sensors-list", "q_calib-list",
            "q_calib-missing-sensor", "q_calib-int-beyond-float", "q_calib-sensor-twice",
            "sensors-sensor-twice"])
    def test_bad_sidecar_metadata(self, arm_raise_run, tmp_path, capsys, key, value, code,
                                  message):
        meta = json.loads((arm_raise_run / "session.json").read_text())
        meta[key] = value
        session = tmp_path / "session.json"
        session.write_text(json.dumps(meta))
        rc = main(["analyze", "--recording", str(arm_raise_run / "recording.csv"),
                   "--session", str(session), "--out", str(tmp_path / "o")])
        assert rc == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["-2", "1_0", " 2", "+2", "02", "\u0662", "0", "13",
                                     "x", "2" * 30])
    def test_bad_sensor_key(self, arm_raise_run, tmp_path, capsys, key):
        # Sensor 2 renamed in both maps: any key but str() of an id in 1..12
        # is a sidecar of the wrong shape, even one that int() reads as 2.
        meta = json.loads((arm_raise_run / "session.json").read_text())
        for mapping in (meta["placement"]["sensors"], meta["q_calib"]):
            mapping[key] = mapping.pop("2")
        session = tmp_path / "session.json"
        session.write_text(json.dumps(meta))
        rc = main(["analyze", "--recording", str(arm_raise_run / "recording.csv"),
                   "--session", str(session), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sensor", ["0", "99", "1" * 30])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_frame_of_a_sensor_outside_the_placement(self, arm_raise_run, tmp_path, capsys,
                                                     sensor, command):
        lines = (arm_raise_run / "recording.csv").read_text().splitlines()
        cells = lines[20].split(",")
        cells[1] = sensor
        lines[20] = ",".join(cells)
        bad = tmp_path / "recording.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "session.json").write_bytes((arm_raise_run / "session.json").read_bytes())
        out = tmp_path / "o"
        argv = {"analyze": ["analyze", "--recording", str(bad), "--out", str(out)],
                "compare": ["compare", str(bad),
                            str(arm_raise_run / "ground_truth_left_shoulder.csv"),
                            "--joint", "left shoulder", "--out", str(out)]}[command]
        assert main(argv) == 4
        assert (f"line 21: sensor {sensor} is not in placement 'p5-upper'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_sidecar_metadata_is_optional(self, arm_raise_run, tmp_path):
        meta = json.loads((arm_raise_run / "session.json").read_text())
        del meta["joints"], meta["duration_s"]
        session = tmp_path / "session.json"
        session.write_text(json.dumps(meta))
        rc = main(["analyze", "--recording", str(arm_raise_run / "recording.csv"),
                   "--session", str(session), "--joints", "left shoulder",
                   "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("joints, message", [
        ("left shoulder,left shoulder", "--joints repeats 'left shoulder'"),
        (" , ", "--joints lists no names"),
        ("", "--joints lists no names"),
    ], ids=["repeated", "empty", "blank"])
    def test_bad_joints_flag(self, arm_raise_run, tmp_path, capsys, joints, message):
        rc = main(["analyze", "--recording", str(arm_raise_run / "recording.csv"),
                   "--joints", joints, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_disjoint_series(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("time_us,angle_deg\n0,1\n100,2\n")
        b.write_text("time_us,angle_deg\n5000,3\n6000,4\n")
        assert main(["compare", str(a), str(b)]) == 4
        assert "series do not overlap in time" in capsys.readouterr().err

    def test_overlap_without_a_sample_of_the_first_series(self, tmp_path, capsys):
        # b lies inside a's span, between a's two samples: the series overlap,
        # but only b has samples in the overlap.
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("time_us,angle_deg\n0,1.0\n10000000,2.0\n")
        b.write_text("time_us,angle_deg\n3000000,1.0\n7000000,2.0\n")
        assert main(["compare", str(a), str(b)]) == 4
        err = capsys.readouterr().err
        assert "no sample of the first series lies in the overlap 3000000..7000000 us" in err
        assert "do not overlap" not in err
        assert main(["compare", str(b), str(a)]) == 0
        assert "mae_deg 0.3\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("protocols, message", [
        ("cw,cw", "--protocols repeats 'cw'"),
        ("ble-baseline, cw,ble-baseline", "--protocols repeats 'ble-baseline'"),
        (",", "--protocols lists no names"),
    ], ids=["repeated", "repeated-apart", "empty"])
    def test_bad_protocols_flag(self, tmp_path, capsys, monkeypatch, protocols, message):
        monkeypatch.setattr(cli, "execute", lambda *a: pytest.fail("a seed ran"))
        out = tmp_path / "o"
        rc = main(["protocol-bench", "--scenario", str(SCENARIOS / "arm_raise_crowded.yaml"),
                   "--out", str(out), "--protocols", protocols])
        assert rc == 2
        assert message in capsys.readouterr().err
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


SHORT_RUN_YAML = """\
session: {duration_s: 0.5, seed: 3}
motion: {preset: artificial-joint, params: {angle_deg: 60.0, dwell_s: 0.5}}
interference: {preset: clean}
"""
# Where a mutation may land in the sidecar of SHORT_RUN_YAML's run, whose
# placement has sensors 1 and 2: a top-level key, the placement's name or
# sensors, one q_calib entry or one of its components.
SIDECAR_KEYS = ["calibration_pose", "duration_s", "joints", "motion_preset", "placement",
                "protocol", "q_calib", "seed"]
SIDECAR_PATHS = st.one_of(
    st.sampled_from(SIDECAR_KEYS).map(lambda key: (key,)),
    st.sampled_from([("placement", "name"), ("placement", "sensors")]),
    st.sampled_from([("q_calib", "1"), ("q_calib", "2")]),
    st.tuples(st.just("q_calib"), st.sampled_from(["1", "2"]), st.integers(0, 3)))


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("short")
    scenario = base / "short.yaml"
    scenario.write_text(SHORT_RUN_YAML)
    out = base / "run"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert sorted(json.loads((out / "session.json").read_text())) == SIDECAR_KEYS
    return out


# Values of the sidecar's shape that are still wrong there: a q_calib entry
# given as a string of four digits, a q_calib component that is a string,
# a bool or null (float() would take the first two), a placement name that
# is a list.
MISSHAPEN = {("q_calib", "1"): "1000", ("q_calib", "2"): "0100",
             ("q_calib", "1", 0): "1.0", ("q_calib", "2", 3): True,
             ("q_calib", "1", 2): None, ("placement", "name"): [1, 2]}


def sidecar_exit(short_run, path, value, command) -> tuple[int, str]:
    """analyze or compare of SHORT_RUN_YAML's run with one sidecar value
    replaced: the exit code and standard error."""
    meta = json.loads((short_run / "session.json").read_text())
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        session = Path(tmp) / "session.json"
        session.write_text(json.dumps(meta), encoding="utf-8")
        recording = str(short_run / "recording.csv")
        argv = {"analyze": ["analyze", "--recording", recording, "--session", str(session),
                            "--out", str(Path(tmp) / "o")],
                "compare": ["compare", recording, recording, "--session-a", str(session),
                            "--session-b", str(short_run / "session.json")]}[command]
        return main(argv), err.getvalue()


class TestSidecarProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(path=SIDECAR_PATHS, value=ODD | st.sampled_from(["1000", "0100", "1.0", [1, 2]]),
           command=st.sampled_from(["analyze", "compare"]))
    def test_exit_code_never_a_crash(self, short_run, path, value, command):
        # analyze and compare exit 0, 2, 3 or 4 whatever one sidecar value
        # becomes; a traceback (an exception out of main) would be exit 1.
        rc, _ = sidecar_exit(short_run, path, value, command)
        assert rc in (0, 2, 3, 4)
        if path in MISSHAPEN and MISSHAPEN[path] == value:
            assert rc == 3

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("path, value", MISSHAPEN.items(),
                             ids=["q_calib-string", "q_calib-string-2", "component-string",
                                  "component-bool", "component-null", "name-list"])
    def test_misshapen_value_names_its_key(self, short_run, path, value, command):
        rc, err = sidecar_exit(short_run, path, value, command)
        key = "placement.name" if path[0] == "placement" else f"q_calib[{path[1]!r}]"
        assert rc == 3 and f"{key} must be" in err
