"""Acceptance gate: nine system-level criteria at their stated tolerances.

Each test prints one PASS line with the measured margin (visible with
pytest -s); a failure shows up as a normal assertion with the same
numbers. Criteria:

  1  quaternion algebra against a rotation-matrix oracle
  2  zero-noise angle sweep exactness
  3  static accuracy under default noise
  4  dynamic tracking error and correlation
  5  throughput calibration at 1/10/12 sensors
  6  interference ordering, polling vs broadcast, 100 seeds
  7  hop correctness under a parked jammer
  8  byte-identical reruns and per-source packet conservation
  9  CSV round trip at 10^5 frames
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from wearsim.motion import NoiseModel, SyntheticBody, preset_scenario, random_offsets
from wearsim.pipeline import (AngleSeries, RecordingFrame, joint_angle_series, mae,
                              pearson, read_recording, write_recording)
from wearsim.protocol import (TimingProfile, ble_baseline_run, master_run,
                              session_metrics, source_counts)
from wearsim.quatmath import Quaternion, enu_to_left_handed, hamilton_product
from wearsim.radio import (DELIVERED, InterferenceField, Jammer, build_field,
                           preset_interferers)
from wearsim.randomness import stream
from wearsim.runner import run_scenario
from wearsim.scenario import parse_scenario
from wearsim.skeleton import (JOINTS, CalibrationPose, Skeleton, animate_frame,
                              calibrate, joint_angle)

IDENTITY = Quaternion.identity()
CLEAN = InterferenceField(())


def flat_sampler(sensor: int, t_us: float) -> Quaternion:
    return IDENTITY


def _unit_rows(rng, n: int) -> np.ndarray:
    rows = rng.normal(size=(n, 4))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _rotation_matrix(q: Quaternion) -> np.ndarray:
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def test_ac1_quaternion_matrix_oracle():
    rng = np.random.default_rng(20260814)
    a_rows = _unit_rows(rng, 10_000)
    b_rows = _unit_rows(rng, 10_000)
    worst_matrix = 0.0
    worst_dot = 0.0
    for ar, br in zip(a_rows, b_rows):
        a, b = Quaternion(*ar), Quaternion(*br)
        product = hamilton_product(a, b)
        oracle = _rotation_matrix(a) @ _rotation_matrix(b)
        worst_matrix = max(worst_matrix,
                           float(np.abs(_rotation_matrix(product) - oracle).max()))
        ma, mb = enu_to_left_handed(a), enu_to_left_handed(b)
        dot_before = ar @ br
        dot_after = (ma.w * mb.w + ma.x * mb.x + ma.y * mb.y + ma.z * mb.z)
        worst_dot = max(worst_dot, abs(dot_after - dot_before))
    assert worst_matrix < 1e-9
    assert worst_dot < 1e-9
    print(f"\nAC1 PASS: 10000 pairs, matrix deviation {worst_matrix:.2e}, "
          f"dot4 deviation {worst_dot:.2e} (tol 1e-9)")


def _bench_angle(angle: float, noise: NoiseModel, offset_seed: int,
                 sample_times: tuple[float, ...]) -> float:
    spec, placement = preset_scenario("artificial-joint", angle_deg=angle)
    skel = Skeleton.default()
    body = SyntheticBody(spec, skel, placement, noise,
                         random_offsets(placement, offset_seed))
    calib = calibrate(body.calibration_snapshot(), CalibrationPose.NEUTRAL, placement)
    joint = JOINTS["right elbow"]
    measured = []
    for t in sample_times:
        snapshot = {s: body.reading(s, t) for s in placement.bones}
        pose = animate_frame(snapshot, calib, skel)
        measured.append(joint_angle(pose, joint))
    return math.fsum(measured) / len(measured)


def test_ac2_zero_noise_exactness():
    worst = 0.0
    for angle in range(10, 101, 10):
        got = _bench_angle(float(angle), NoiseModel.zero(), offset_seed=angle,
                           sample_times=(2.5,))
        worst = max(worst, abs(got - angle))
    assert worst < 1e-6
    print(f"\nAC2 PASS: hinge sweep 10..100 deg, worst |error| {worst:.2e} deg "
          f"(tol 1e-6)")


def test_ac3_static_accuracy_under_noise():
    times = (0.5, 1.5, 2.5, 3.5, 4.5)
    worst_mean = 0.0
    for angle in range(10, 101, 10):
        errors = []
        for trial in range(5):
            noise = NoiseModel(seed=angle * 100 + trial)
            got = _bench_angle(float(angle), noise, offset_seed=trial, sample_times=times)
            errors.append(got - angle)
        mean_error = math.fsum(errors) / len(errors)
        assert abs(mean_error) < 1.0, f"{angle} deg: mean error {mean_error:+.3f}"
        worst_mean = max(worst_mean, abs(mean_error))
    print(f"\nAC3 PASS: 5 trials per step, worst |mean error| {worst_mean:.3f} deg "
          f"(tol 1.0)")


def test_ac4_dynamic_tracking():
    spec, placement = preset_scenario("elbow-flexion")
    skel = Skeleton.default()
    body = SyntheticBody(spec, skel, placement, NoiseModel(seed=4),
                         random_offsets(placement, 4))
    calib = calibrate(body.calibration_snapshot(), CalibrationPose.NEUTRAL, placement)
    result = master_run(sorted(placement.bones), spec.duration_s,
                        lambda s, t_us: body.reading(s, t_us / 1e6), CLEAN, seed=4)
    computed = joint_angle_series(result.frames, calib, skel, JOINTS["right elbow"])
    truth = AngleSeries("truth", [
        (t_us, body.truth_joint_angle("right elbow", t_us / 1e6))
        for t_us in range(0, int(spec.duration_s * 1e6) + 1, 10_000)])
    err = mae(computed, truth)
    corr = pearson(computed, truth)
    assert err < 5.0
    assert corr > 0.99
    print(f"\nAC4 PASS: elbow flexion MAE {err:.3f} deg (tol 5.0), "
          f"Pearson {corr:.5f} (floor 0.99)")


def test_ac5_throughput_calibration():
    rates = {}
    for n in (1, 10, 12):
        result = master_run(list(range(1, n + 1)), 10.0, flat_sampler, CLEAN, seed=1)
        per = session_metrics(result)["per_sensor"]
        rates[n] = [per[str(s)]["mean_rate_hz"] for s in range(1, n + 1)]
    assert abs(rates[1][0] - 60.0) <= 1e-3, rates[1]
    assert all(40.0 <= r <= 60.0 for r in rates[10]), rates[10]
    assert all(28.0 <= r <= 42.0 for r in rates[12]), rates[12]
    print(f"\nAC5 PASS: mean rates 1 sensor {rates[1][0]:.3f} Hz (cap 60), "
          f"10 sensors {min(rates[10]):.2f}..{max(rates[10]):.2f} Hz (50±10), "
          f"12 sensors {min(rates[12]):.2f}..{max(rates[12]):.2f} Hz ([28,42])")


def test_ac6_interference_ordering():
    started = time.monotonic()
    roster = [1, 2, 3, 4, 5]
    dominates = starved = solid = 0
    seeds = 100
    for seed in range(seeds):
        field = build_field(preset_interferers("crowded", seed), 10.1e6)
        cw = session_metrics(master_run(roster, 10.0, flat_sampler, field, seed))
        ble = session_metrics(ble_baseline_run(roster, 10.0, flat_sampler, field, seed))
        cw_per, ble_per = cw["per_sensor"], ble["per_sensor"]
        if all(cw_per[k]["mean_rate_hz"] > ble_per[k]["mean_rate_hz"] for k in cw_per):
            dominates += 1
        if any(ble_per[k]["min_window_rate_hz"] < 10.0 for k in ble_per):
            starved += 1
        if all(cw_per[k]["min_window_rate_hz"] >= 40.0 for k in cw_per):
            solid += 1
    elapsed = time.monotonic() - started
    assert dominates >= 95, f"cw dominated in {dominates}/100 seeds"
    assert starved >= 80, f"ble starved in {starved}/100 seeds"
    assert solid >= 80, f"cw held 40 Hz windows in {solid}/100 seeds"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    print(f"\nAC6 PASS: cw dominates {dominates}/100 (need 95), ble<10Hz "
          f"{starved}/100 (need 80), cw>=40Hz {solid}/100 (need 80), "
          f"{elapsed:.1f} s (< 120)")


def test_ac7_hop_correctness():
    jammed = 40
    field = build_field([Jammer(jammed, start_s=2.0)], 5.2e6)
    result = master_run([1, 2, 3, 4, 5], 5.0, flat_sampler, field, seed=3,
                        initial_channel=jammed)
    assert result.hop_count >= 1
    assert len(result.channel_history) >= 2
    hop_time, _ = result.channel_history[1]
    new_channel = result.channel_history[-1][1]
    assert new_channel != jammed

    delivered = [r for r in result.trace
                 if r.frame_type == "response" and r.outcome == DELIVERED]
    post_hop_on_jammed = [r for r in delivered
                          if r.time_us > hop_time and r.channel == jammed]
    assert post_hop_on_jammed == []

    timing = TimingProfile()
    bound_us = timing.resync_us + 3 * timing.scan_dwell_us  # timeout + full rescan
    worst_gap = 0.0
    for sensor in (1, 2, 3, 4, 5):
        mine = sorted(r.time_us for r in delivered if r.sensor_id == sensor)
        assert mine, f"sensor {sensor} never delivered"
        recovered = [t for t in mine if t > hop_time]
        assert recovered, f"sensor {sensor} never resynced after the hop"
        assert recovered[0] - hop_time <= bound_us
        gaps = [b - a for a, b in zip(mine, mine[1:])]
        worst_gap = max(worst_gap, max(gaps))
    assert worst_gap <= bound_us
    assert result.resync_count == 0  # chain walking sufficed, no rescan
    print(f"\nAC7 PASS: {result.hop_count} hop(s) off channel {jammed}, no post-hop "
          f"deliveries there, worst outage {worst_gap / 1e3:.0f} ms "
          f"(bound {bound_us / 1e3:.0f} ms)")


def test_ac8_determinism_and_conservation(tmp_path):
    cfg = {"session": {"duration_s": 2.0, "seed": 14},
           "motion": {"preset": "arm-raise"},
           "interference": {"preset": "crowded"}}
    sc = parse_scenario(cfg)
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name

    checked = 0
    roster = [1, 2, 3]
    field = build_field(preset_interferers("crowded", 5), 3.1e6)
    traces = [
        master_run(roster, 3.0, flat_sampler, field, seed=5).trace,
        master_run(roster, 3.0, flat_sampler, field, seed=5, p_floor=0.05).trace,
        ble_baseline_run(roster, 3.0, flat_sampler, field, seed=5).trace,
    ]
    for trace in traces:
        for source, c in source_counts(trace).items():
            assert c["sent"] == c["delivered"] + c["collided"] + c["floor_lost"], source
            checked += 1
    assert checked >= 8
    print(f"\nAC8 PASS: {len(names)} output files byte-identical across reruns; "
          f"sent = delivered + collided + floor-lost for {checked} sources "
          f"over {len(traces)} traces")


def test_ac9_csv_round_trip(tmp_path):
    rng = stream(2026, 8)
    components = rng.normal(size=(100_000, 4))
    components /= np.linalg.norm(components, axis=1, keepdims=True)
    frames = []
    for k in range(100_000):
        frames.append(RecordingFrame.quantized(
            timestamp_us=k * 83, sensor_id=k % 12 + 1, seq=k // 12 + 1,
            q=Quaternion(*components[k]), status=k % 4))
    path = tmp_path / "big.csv"
    write_recording(frames, path)
    loaded = read_recording(path)
    assert loaded == frames
    rewrite = tmp_path / "big2.csv"
    write_recording(loaded, rewrite)
    assert rewrite.read_bytes() == path.read_bytes()
    print(f"\nAC9 PASS: {len(frames)} frames survive write-read bit-exactly; "
          f"rewrite is byte-identical ({path.stat().st_size} bytes)")
