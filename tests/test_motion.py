"""Trajectory synthesis, forward kinematics, and the IMU noise model."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from wearsim import motion as mo
from wearsim import quatmath as qm
from wearsim import randomness, runner
from wearsim import skeleton as sk
from wearsim.motion import Constant, NoiseModel, Piecewise, Sinusoid, SyntheticBody
from wearsim.quatmath import Quaternion


def fold_deg(deg):
    """Fold an arbitrary angle into [0, 180], the range of measured angles."""
    a = abs(deg) % 360.0
    return 360.0 - a if a > 180.0 else a


def truth_body(spec):
    """Zero-noise p12 body: its truth_joint_angles is the library's ground truth."""
    return SyntheticBody(spec, sk.Skeleton.default(), sk.placement_preset("p12"),
                         NoiseModel.zero())


def elbow_spec(fn, duration=10.0):
    return mo.TrajectorySpec(
        joints={"right elbow": mo.JointTrack(fn, (0.0, 1.0, 0.0))},
        duration_s=duration)


class TestTrajectories:
    def test_constant(self):
        assert Constant(42.0).angle(0.0) == 42.0
        assert Constant(42.0).angle(123.4) == 42.0

    def test_sinusoid_quarter_period(self):
        s = Sinusoid(center_deg=90.0, amplitude_deg=55.0, period_s=5.0)
        assert s.angle(5.0 / 4.0) == pytest.approx(145.0, abs=1e-12)
        assert s.angle(0.0) == pytest.approx(90.0, abs=1e-12)

    def test_sinusoid_phase_starts_at_zero(self):
        s = Sinusoid(45.0, 45.0, 1.0, phase_rad=-math.pi / 2.0)
        assert s.angle(0.0) == pytest.approx(0.0, abs=1e-9)
        assert s.angle(0.5) == pytest.approx(90.0, abs=1e-9)

    def test_piecewise_interpolates(self):
        p = Piecewise(((0.0, 0.0), (1.0, 90.0), (2.0, 30.0)))
        assert p.angle(0.5) == pytest.approx(45.0)
        assert p.angle(1.5) == pytest.approx(60.0)

    def test_piecewise_clamps_outside(self):
        p = Piecewise(((1.0, 10.0), (2.0, 20.0)))
        assert p.angle(0.0) == 10.0
        assert p.angle(5.0) == 20.0

    def test_piecewise_needs_increasing_times(self):
        with pytest.raises(ValueError):
            Piecewise(((1.0, 0.0), (1.0, 5.0)))
        with pytest.raises(ValueError):
            Piecewise(((0.0, 0.0),))

    def test_unknown_joint_label_rejected(self):
        with pytest.raises(ValueError, match="left wrist"):
            mo.TrajectorySpec(
                joints={"left wrist": mo.JointTrack(Constant(0.0), (1, 0, 0))},
                duration_s=1.0)


class TestGroundTruth:
    # The forward kinematics is ScalarBody's; TestColumnTruth pins the
    # library's column truth to it bit for bit.
    def setup_method(self):
        self.skel = sk.Skeleton.default()
        self.placement = sk.placement_preset("p12")

    def test_all_rest_when_no_motion(self):
        oracle = ScalarBody(elbow_spec(Constant(0.0)), self.skel, self.placement,
                            NoiseModel.zero(), {})
        for t in (0.0, 3.3, 10.0):
            assert all(oracle.world(b, t) == Quaternion.identity() for b in sk.BoneId)

    def test_out_of_range_t(self):
        body = truth_body(elbow_spec(Constant(0.0), duration=2.0))
        for t in (-0.1, 2.1, math.nan):
            with pytest.raises(ValueError, match=rf"t={t} outside trajectory \[0, 2.0\]"):
                body.truth_joint_angle("right elbow", t)

    def test_hinge_angle_recovered_over_sweep(self):
        s = Sinusoid(90.0, 55.0, 5.0)
        oracle = ScalarBody(elbow_spec(s), self.skel, self.placement, NoiseModel.zero(), {})
        for i in range(101):
            t = 10.0 * i / 100.0
            got = oracle.truth_joint_angle("right elbow", t)
            assert abs(got - fold_deg(s.angle(t))) <= 1e-9

    def test_child_follows_parent_joint(self):
        # With only the shoulder moving, the whole arm chain moves rigidly.
        spec = mo.TrajectorySpec(
            joints={"right shoulder": mo.JointTrack(Constant(70.0), (0, 0, 1))},
            duration_s=1.0)
        oracle = ScalarBody(spec, self.skel, self.placement, NoiseModel.zero(), {})
        forearm = oracle.world(sk.BoneId.FOREARM_R, 0.5)
        assert qm.shortest_angle_deg(oracle.world(sk.BoneId.ARM_R, 0.5), forearm) == 0.0
        assert qm.shortest_angle_deg(oracle.world(sk.BoneId.SPINE, 0.5),
                                     forearm) == pytest.approx(70.0, abs=1e-9)

    def test_elbow_angle_immune_to_shoulder_motion(self):
        elbow = Sinusoid(45.0, 45.0, 2.0, phase_rad=-math.pi / 2)
        shoulder = Sinusoid(30.0, 30.0, 1.3, phase_rad=-math.pi / 2)
        spec = mo.TrajectorySpec(
            joints={"right elbow": mo.JointTrack(elbow, (0, 1, 0)),
                    "right shoulder": mo.JointTrack(shoulder, (0, 0, 1))},
            duration_s=10.0)
        oracle = ScalarBody(spec, self.skel, self.placement, NoiseModel.zero(), {})
        for i in range(100):
            t = 10.0 * i / 99.0
            got = oracle.truth_joint_angle("right elbow", t)
            assert abs(got - fold_deg(elbow.angle(t))) <= 1e-9

    def test_truth_joint_angle_helper(self):
        spec = elbow_spec(Constant(90.0))
        body = SyntheticBody(spec, self.skel, sk.placement_preset("p5-upper"),
                             NoiseModel.zero())
        assert body.truth_joint_angle("right elbow", 1.0) == pytest.approx(90.0, abs=1e-12)


class TestSensorReadings:
    def setup_method(self):
        self.skel = sk.Skeleton.default()
        self.placement = sk.placement_preset("p5-upper")

    def test_zero_noise_identity_offset_is_truth(self):
        spec = elbow_spec(Sinusoid(90.0, 55.0, 5.0))
        body = SyntheticBody(spec, self.skel, self.placement, NoiseModel.zero())
        oracle = ScalarBody(spec, self.skel, self.placement, NoiseModel.zero(), {})
        for t in (0.0, 1.25, 7.7):
            for sensor, bone in self.placement.bones.items():
                assert body.reading(sensor, t) == oracle.world(bone, t)

    def test_zero_noise_offset_angle(self):
        offset = qm.from_axis_angle((1, 2, 3), 25.0)
        offsets = {i: offset for i in self.placement.bones}
        spec = elbow_spec(Constant(30.0))
        body = SyntheticBody(spec, self.skel, self.placement, NoiseModel.zero(), offsets=offsets)
        oracle = ScalarBody(spec, self.skel, self.placement, NoiseModel.zero(), offsets)
        truth = oracle.world(sk.BoneId.FOREARM_R, 1.0)
        r = body.reading(5, 1.0)
        assert qm.shortest_angle_deg(r, truth) == pytest.approx(25.0, abs=1e-9)

    def test_static_noise_mean_matches_truncated_half_normal(self):
        sigma, cap = 0.3, 2.0
        noise = NoiseModel(static_sigma_deg=sigma, dynamic_sigma_deg=sigma,
                           static_max_deg=cap, dynamic_max_deg=cap, seed=77)
        spec = elbow_spec(Constant(30.0))
        body = SyntheticBody(spec, self.skel, self.placement, noise)
        truth = ScalarBody(spec, self.skel, self.placement, noise, {}).world(
            sk.BoneId.FOREARM_R, 5.0)
        n = 10_000
        angles = [qm.shortest_angle_deg(body.reading(5, 5.0), truth) for _ in range(n)]
        mc_mean = sum(angles) / n

        pdf = lambda x: 2.0 * stats.norm.pdf(x, 0.0, sigma)
        z = integrate.quad(pdf, 0.0, cap)[0]
        oracle = integrate.quad(lambda x: x * pdf(x), 0.0, cap)[0] / z
        assert abs(mc_mean - oracle) < 0.01
        assert 0.2 <= mc_mean <= 0.45

    def test_perturbation_never_exceeds_cap(self):
        noise = NoiseModel(static_sigma_deg=1.8, dynamic_sigma_deg=1.8,
                           static_max_deg=2.0, dynamic_max_deg=2.0, seed=3)
        spec = elbow_spec(Constant(30.0))
        body = SyntheticBody(spec, self.skel, self.placement, noise)
        truth = ScalarBody(spec, self.skel, self.placement, noise, {}).world(
            sk.BoneId.FOREARM_R, 2.0)
        for _ in range(10_000):
            a = qm.shortest_angle_deg(body.reading(5, 2.0), truth)
            assert a <= 2.0 + 1e-9

    def test_sigma_interpolation(self):
        noise = NoiseModel(static_sigma_deg=0.3, dynamic_sigma_deg=1.2,
                           static_max_deg=1.0, dynamic_max_deg=3.0)
        assert mo.sigma_and_cap(noise, 0.0) == (0.3, 1.0)
        assert mo.sigma_and_cap(noise, 90.0) == (1.2, 3.0)
        assert mo.sigma_and_cap(noise, 200.0) == (1.2, 3.0)
        assert mo.sigma_and_cap(noise, 45.0) == pytest.approx((0.75, 2.0))

    def test_drift_linear_growth(self):
        noise = NoiseModel(static_sigma_deg=0.0, dynamic_sigma_deg=0.0,
                           drift_deg_per_min=6.0, seed=5)
        body = SyntheticBody(elbow_spec(Constant(0.0), duration=60.0), self.skel,
                             self.placement, noise)
        for t in (0.0, 10.0, 30.0, 60.0):
            r = body.reading(1, t)
            assert qm.shortest_angle_deg(r, Quaternion.identity()) == pytest.approx(
                6.0 * t / 60.0, abs=1e-6)

    def test_deterministic_by_seed(self):
        def run(seed):
            noise = NoiseModel(seed=seed)
            body = SyntheticBody(elbow_spec(Sinusoid(90, 55, 5)), self.skel,
                                 self.placement, noise)
            return [body.reading(5, t / 50.0) for t in range(200)]

        a, b = run(42), run(42)
        assert all(x == y for x, y in zip(a, b))
        c = run(43)
        assert any(x != y for x, y in zip(a, c))

    def test_sensors_have_independent_streams(self):
        noise = NoiseModel(seed=9)
        body = SyntheticBody(elbow_spec(Constant(0.0)), self.skel,
                             self.placement, noise)
        r1 = body.reading(1, 1.0)
        r2 = body.reading(2, 1.0)
        assert r1 != r2

    @pytest.mark.parametrize("noise", [NoiseModel.zero(), NoiseModel(seed=3)])
    def test_reading_out_of_range_t(self, noise):
        body = SyntheticBody(elbow_spec(Constant(0.0), duration=2.0), self.skel,
                             self.placement, noise)
        for t in (-0.1, 2.1, math.nan):
            for sensor in (1, 5):
                with pytest.raises(ValueError, match="outside trajectory"):
                    body.reading(sensor, t)

    def test_unmoved_bone_reads_at_rest_speed(self):
        # The spine's chain holds no tracked joint: its speed is 0 at any t.
        body = SyntheticBody(elbow_spec(Sinusoid(45.0, 45.0, 2.0)), self.skel,
                             self.placement, NoiseModel.zero())
        assert body._angular_speed(body._chain[sk.BoneId.SPINE], 0.3) == 0.0
        assert body._angular_speed(body._chain[sk.BoneId.FOREARM_R], 0.3) > 0.0

    def test_angular_speed_matches_analytic(self):
        # theta(t) = 45 - 45 cos(2 pi t / 2): |dtheta/dt| = 45 pi |sin(pi t)|
        s = Sinusoid(45.0, 45.0, 2.0, phase_rad=-math.pi / 2)
        body = SyntheticBody(elbow_spec(s), self.skel, self.placement,
                             NoiseModel.zero())
        for t in (0.3, 0.5, 0.9, 1.4):
            w = body._angular_speed(body._chain[sk.BoneId.FOREARM_R], t)
            expect = abs(45.0 * math.pi * math.sin(math.pi * t))
            assert w == pytest.approx(expect, rel=0.01, abs=0.05)

    def test_angular_speed_where_the_step_rounds_away(self):
        # Past 2**43 s (about 8.8e12), t +- 0.5 ms rounds to t: the speed
        # reads 0, not 0 / 0.
        body = SyntheticBody(elbow_spec(Sinusoid(45.0, 45.0, 2.0), duration=2e13),
                             self.skel, self.placement, NoiseModel())
        assert body._angular_speed(body._chain[sk.BoneId.FOREARM_R], 1e13) == 0.0
        body.reading(5, 1e13)

    def test_calibration_snapshot_zero_noise_equals_offsets(self):
        rng = random.Random(55)
        offsets = {}
        for i in self.placement.bones:
            offsets[i] = qm.from_axis_angle(
                (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)), rng.uniform(0, 300))
        body = SyntheticBody(elbow_spec(Constant(10.0)), self.skel,
                             self.placement, NoiseModel.zero(), offsets=offsets)
        snap = body.calibration_snapshot()
        assert snap == offsets

    def test_calibration_snapshot_noisy_within_static_cap(self):
        noise = NoiseModel(seed=8)
        body = SyntheticBody(elbow_spec(Constant(10.0)), self.skel,
                             self.placement, noise)
        snap = body.calibration_snapshot()
        for i in self.placement.bones:
            assert qm.shortest_angle_deg(snap[i], Quaternion.identity()) <= noise.static_max_deg


class TestEndToEndExactness:
    def test_zero_noise_pipeline_and_offset_invariance(self):
        skel = sk.Skeleton.default()
        placement = sk.placement_preset("p5-upper")
        s = Sinusoid(60.0, 60.0, 4.0, phase_rad=-math.pi / 2)
        spec = mo.TrajectorySpec(
            joints={"right elbow": mo.JointTrack(s, (0, 1, 0)),
                    "right shoulder": mo.JointTrack(Sinusoid(20, 20, 3, phase_rad=-math.pi / 2), (0, 0, 1))},
            duration_s=8.0)

        def angles(offset_seed):
            offsets = mo.random_offsets(placement, offset_seed)
            body = SyntheticBody(spec, skel, placement, NoiseModel.zero(), offsets=offsets)
            rec = sk.calibrate(body.calibration_snapshot(), sk.CalibrationPose.NEUTRAL, placement)
            out = []
            for i in range(160):
                t = 8.0 * i / 159.0
                snapshot = {sid: body.reading(sid, t) for sid in placement.bones}
                frame = sk.animate_frame(snapshot, rec, skel)
                out.append((t, sk.joint_angle(frame, sk.JOINTS["right elbow"])))
            return out

        a = angles(101)
        for t, measured in a:
            assert abs(measured - fold_deg(s.angle(t))) <= 1e-9

        b = angles(202)
        for (_, ma), (_, mb) in zip(a, b):
            assert abs(ma - mb) <= 1e-9


def unit_vector(rng):
    """A direction from three normal draws at a time, redrawn while too short."""
    while True:
        x, y, z = rng.normal(size=3).tolist()
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-12:
            return (x / n, y / n, z / n)


class ScalarBody:
    """The sampler as it was before the float path: a Quaternion per step,
    rng.normal(0, sigma) per draw and three rng.normal draws per direction
    on the generator itself. SyntheticBody must match it bit for bit."""

    def __init__(self, spec, skel, placement, noise, offsets):
        self.spec, self.placement, self.noise, self.offsets = spec, placement, noise, offsets
        tracks = {sk.JOINTS[label].child_bone: tr for label, tr in spec.joints.items()}
        self.chain = {}
        for bone in sk.BoneId:
            chain, cur = [], bone
            while cur is not None:
                if cur in tracks:
                    chain.append(tracks[cur])
                cur = skel.parent[cur]
            self.chain[bone] = chain[::-1]
        self.noisy = noise.static_sigma_deg > 0.0 or noise.dynamic_sigma_deg > 0.0
        self.rng = {s: randomness.stream(noise.seed, randomness.NOISE, s)
                    for s in sorted(placement.bones)}
        self.drift_axis = {
            s: unit_vector(randomness.stream(noise.seed, randomness.DRIFT_AXIS, s))
            for s in sorted(placement.bones)}
        self.draws = {s: 0 for s in placement.bones}
        self.redraws = 0

    def world(self, bone, t):
        q = Quaternion.identity()
        for tr in self.chain[bone]:
            q = qm.hamilton_product(q, qm.from_axis_angle(tr.axis, tr.fn.angle(t)))
        return q

    def speed(self, bone, t):
        lo, hi = max(0.0, t - 5e-4), min(self.spec.duration_s, t + 5e-4)
        if hi <= lo:
            return 0.0
        return qm.shortest_angle_deg(self.world(bone, lo), self.world(bone, hi)) / (hi - lo)

    def perturbation(self, sensor, sigma, cap):
        rng = self.rng[sensor]
        angle = abs(float(rng.normal(0.0, sigma)))
        self.draws[sensor] += 4
        while angle > cap:
            angle = abs(float(rng.normal(0.0, sigma)))
            self.draws[sensor] += 1
            self.redraws += 1
        return qm.from_axis_angle(unit_vector(rng), angle)

    def calibration_snapshot(self):
        snap = {}
        for sensor in sorted(self.placement.bones):
            q = self.offsets.get(sensor, Quaternion.identity())
            if self.noisy:
                p = self.perturbation(sensor, self.noise.static_sigma_deg,
                                      self.noise.static_max_deg)
                q = qm.hamilton_product(p, q)
            snap[sensor] = q
        return snap

    def reading(self, sensor, t):
        bone = self.placement.bones[sensor]
        q = qm.hamilton_product(self.world(bone, t), self.offsets[sensor])
        if self.noise.drift_deg_per_min != 0.0:
            drift = self.noise.drift_deg_per_min * t / 60.0
            q = qm.hamilton_product(qm.from_axis_angle(self.drift_axis[sensor], drift), q)
        if self.noisy:
            sigma, cap = mo.sigma_and_cap(self.noise, self.speed(bone, t))
            q = qm.hamilton_product(self.perturbation(sensor, sigma, cap), q)
        return q

    def truth_joint_angle(self, label, t):
        joint = sk.JOINTS[label]
        return qm.shortest_angle_deg(self.world(joint.parent_bone, t),
                                     self.world(joint.child_bone, t))


def bits(q):
    return [c.hex() for c in q]


NOISES = {
    "default": lambda seed: NoiseModel(seed=seed),
    "zero": lambda seed: NoiseModel.zero(),
    # Cap equal to sigma: about a third of the angle draws are redrawn.
    "capped": lambda seed: NoiseModel(1.0, 1.5, 1.0, 1.5, seed=seed),
    "drift": lambda seed: NoiseModel(drift_deg_per_min=4.5, seed=seed),
}
PRESETS = {"artificial-joint": {"angle_deg": 75.0}, "elbow-flexion": {},
           "half-jacks": {"sensors": 12}, "arm-raise": {}}


class TestFloatPathOracle:
    # Each noisy sensor takes at least 4 draws per reading, so 200 readings
    # cross three of randomness.normals' NORMAL_BLOCK refills.
    STEPS = 200

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bits_equal_the_scalar_path(self, preset, noise):
        assert set(PRESETS) == set(mo._PRESETS)  # every preset is covered
        spec, placement = mo.preset_scenario(preset, **PRESETS[preset])
        skel = sk.Skeleton.default()
        sensors = sorted(placement.bones)
        for seed in range(4):
            model = NOISES[noise](seed)
            offsets = mo.random_offsets(placement, seed)
            body = SyntheticBody(spec, skel, placement, model, offsets)
            oracle = ScalarBody(spec, skel, placement, model, offsets)
            snap, want = body.calibration_snapshot(), oracle.calibration_snapshot()
            assert {s: bits(q) for s, q in snap.items()} == \
                {s: bits(q) for s, q in want.items()}
            for k in range(self.STEPS):
                for j, s in enumerate(sensors):
                    # Sensors sample at staggered times; the first and last
                    # steps reach both ends of the trajectory.
                    t = min(spec.duration_s,
                            spec.duration_s * (k + 0.5 * j / len(sensors)) / (self.STEPS - 1))
                    assert bits(body.reading(s, t)) == bits(oracle.reading(s, t)), (seed, s, t)
                if k % 10 == 0:
                    t = spec.duration_s * k / (self.STEPS - 1)
                    for label in spec.joints:
                        assert body.truth_joint_angle(label, t).hex() == \
                            oracle.truth_joint_angle(label, t).hex()
            if model.static_sigma_deg > 0.0:
                assert min(oracle.draws.values()) > 3 * randomness.NORMAL_BLOCK
            if noise == "capped":
                assert oracle.redraws > 0


def hexes(values):
    return [v.hex() for v in values]


def assert_numpy_is_math(x):
    """numpy's sin, cos, radians and degrees give math's bits on each value
    of x: the column truth takes them from numpy, the scalar one from math."""
    for np_fn, math_fn in ((np.sin, math.sin), (np.cos, math.cos),
                           (np.radians, math.radians), (np.degrees, math.degrees)):
        assert hexes(np_fn(x).tolist()) == hexes(map(math_fn, x.tolist())), np_fn.__name__


def assert_columns_are_scalar(body, t):
    """At each time of t, every joint's column truth has the bits of
    ScalarBody's truth_joint_angle, each track's angles those of its angle,
    and numpy gives math's bits on the arguments of the truth's sin, cos,
    radians and degrees."""
    ts = t.tolist()
    oracle = ScalarBody(body.spec, sk.Skeleton.default(), body.placement, body.noise, {})
    for label, track in body.spec.joints.items():
        assert hexes(body.truth_joint_angles(label, t)) == \
            hexes(oracle.truth_joint_angle(label, x) for x in ts), label
        angles = track.fn.angles(t)
        assert hexes(angles.tolist()) == hexes(map(track.fn.angle, ts)), label
        assert_numpy_is_math(angles)
        assert_numpy_is_math(np.radians(angles) / 2.0)
        if isinstance(track.fn, Sinusoid):
            assert_numpy_is_math(2.0 * math.pi * t / track.fn.period_s + track.fn.phase_rad)
        joint = sk.JOINTS[label]
        dots = [abs(sum(map(float.__mul__, oracle.world(joint.parent_bone, x),
                            oracle.world(joint.child_bone, x)))) for x in ts]
        assert_numpy_is_math(np.array([2.0 * math.acos(min(d, 1.0)) for d in dots]))


# Angles, with the hinge's half turns and signed zeros among them.
ANGLES = st.one_of(st.floats(-400.0, 400.0),
                   st.sampled_from([180.0, -180.0, 0.0, -0.0, 90.0, -90.0, 360.0]))
AXES = st.one_of(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)]),
                 st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
                     lambda a: sum(c * c for c in a) > 1e-6))


@st.composite
def angle_fns(draw, duration_s):
    kind = draw(st.sampled_from(["constant", "sinusoid", "piecewise"]))
    if kind == "constant":
        return Constant(draw(ANGLES))
    if kind == "sinusoid":
        return Sinusoid(draw(ANGLES), draw(ANGLES), draw(st.floats(0.01, 20.0)),
                        draw(st.floats(-7.0, 7.0)))
    times = draw(st.lists(st.floats(-1.0, duration_s + 1.0), min_size=2, max_size=8,
                          unique=True))
    return Piecewise(tuple((k, draw(ANGLES)) for k in sorted(times)))


@st.composite
def column_cases(draw):
    """A zero-noise body of drawn tracks, and times inside its session: the
    ends, each knot inside and drawn times."""
    duration_s = draw(st.floats(0.01, 30.0))
    labels = draw(st.lists(st.sampled_from(["right shoulder", "right elbow", "left hip",
                                            "left knee"]), min_size=1, unique=True))
    spec = mo.TrajectorySpec({label: mo.JointTrack(draw(angle_fns(duration_s)), draw(AXES))
                              for label in labels}, duration_s)
    knots = [k for track in spec.joints.values() if isinstance(track.fn, Piecewise)
             for k, _ in track.fn.points if 0.0 <= k <= duration_s]
    times = draw(st.lists(st.floats(0.0, duration_s), max_size=20))
    return truth_body(spec), np.array(sorted({0.0, duration_s, *knots, *times}))


class TestColumnTruth:
    @pytest.mark.parametrize("preset, params", [
        *sorted(PRESETS.items()),
        ("artificial-joint", {"angle_deg": 37.0}), ("artificial-joint", {"angle_deg": 180.0}),
        ("artificial-joint", {"angle_deg": -90.0}),
        ("half-jacks", {"sensors": 12, "duration_s": 60.0}), ("arm-raise", {"duration_s": 60.0}),
        # Durations that are not a multiple of 10 ms.
        ("half-jacks", {"duration_s": 1.1199999999999999}),
        ("arm-raise", {"duration_s": 2.0149}),
        ("artificial-joint", {"angle_deg": 180.0, "dwell_s": 0.06999999999999999}),
    ])
    def test_every_preset(self, preset, params):
        assert set(PRESETS) == set(mo._PRESETS)  # every preset is covered
        spec, _ = mo.preset_scenario(preset, **params)
        t = np.arange(int(spec.duration_s * 100) + 1) / 100  # every 10 ms, and the end
        assert_columns_are_scalar(truth_body(spec), np.append(t[t <= spec.duration_s],
                                                               spec.duration_s))

    @settings(max_examples=150, deadline=None)
    @given(column_cases())
    @example((truth_body(elbow_spec(Piecewise(((0.0, -180.0), (0.5, 180.0), (1.0, -0.0))),
                                    duration=1.0)),
              np.array([0.0, 0.25, 0.5, 0.75, 1.0])))
    def test_drawn_tracks(self, case):
        assert_columns_are_scalar(*case)

    @pytest.mark.parametrize("t", [-1e-9, 2.0000000000000004, math.nan])
    def test_time_outside_the_session(self, t):
        body = truth_body(elbow_spec(Constant(10.0), duration=2.0))
        with pytest.raises(ValueError, match=f"t={t} outside trajectory"):
            body.truth_joint_angles("right elbow", np.array([0.0, 1.0, t, 2.0]))

    @pytest.mark.parametrize("duration_s", [1.1199999999999999, 0.06999999999999999,
                                            0.13999999999999999, 0.27999999999999997,
                                            0.5599999999999999, 2.01, 0.123, 10.245])
    def test_ground_truth_files(self, tmp_path, duration_s):
        # Each file holds ScalarBody's truth at every 10 ms grid point whose
        # time is in the session, across runner._TRUTH_BATCH's batches.
        spec, _ = mo.preset_scenario("half-jacks", duration_s=duration_s)
        body = truth_body(spec)
        oracle = ScalarBody(spec, sk.Skeleton.default(), body.placement, body.noise, {})
        runner._write_ground_truth(body, SimpleNamespace(duration_s=duration_s,
                                                         trajectory=spec), tmp_path)
        grid = [t_us for t_us in range(0, int(duration_s * 1e6) + 20_000, 10_000)
                if t_us / 1e6 <= duration_s]
        for label in spec.joints:
            rows = [(t_us, oracle.truth_joint_angle(label, t_us / 1e6)) for t_us in grid]
            path = tmp_path / f"ground_truth_{label.replace(' ', '_')}.csv"
            assert path.read_text() == "time_us,angle_deg\n" + "".join(
                f"{t_us},{angle:.9g}\n" for t_us, angle in rows)


class TestNoiseStream:
    def test_normals_are_the_generators_normal_draws(self):
        # Four blocks and a bit cross three block boundaries.
        n = 4 * randomness.NORMAL_BLOCK + 7
        draws = randomness.normals(randomness.stream(5, randomness.NOISE, 1))
        want = randomness.stream(5, randomness.NOISE, 1).normal(0.0, 1.0, size=n)
        assert [next(draws).hex() for _ in range(n)] == [z.hex() for z in want.tolist()]

    def test_a_negative_zero_draw_comes_out_as_zero(self):
        class Generator:
            def standard_normal(self, size):
                return np.array([-0.0, -1.0] * (size // 2))

        draws = randomness.normals(Generator())
        assert [math.copysign(1.0, next(draws)) for _ in range(4)] == [1.0, -1.0, 1.0, -1.0]

    def test_unit_vector_is_the_plain_python_expression(self):
        # 33,334 directions take 100,002 draws; the oracle's helper draws
        # three at a time from a generator of the same stream.
        draws = randomness.normals(randomness.stream(9, randomness.DRIFT_AXIS, 4))
        rng = randomness.stream(9, randomness.DRIFT_AXIS, 4)
        for _ in range(33_334):
            assert bits(randomness.unit_vector(draws)) == bits(unit_vector(rng))

    def test_a_norm_at_the_cut_off_is_drawn_again(self):
        # A norm of exactly 1e-12 is too short and uses up its three draws;
        # 2e-12 is long enough.
        draws = iter([0.0, 1e-12, 0.0, 0.0, 0.0, -2e-12, 7.0])
        assert randomness.unit_vector(draws) == (0.0, 0.0, -1.0)
        assert next(draws) == 7.0


class TestPresets:
    def test_artificial_joint(self):
        spec, placement = mo.preset_scenario("artificial-joint", angle_deg=10.0)
        assert len(placement.bones) == 2
        assert set(spec.joints) == {"right elbow"}
        fn = spec.joints["right elbow"].fn
        assert fn.angle(0.0) == 10.0 and fn.angle(spec.duration_s) == 10.0
        bones = set(placement.bones.values())
        assert bones == {sk.BoneId.ARM_R, sk.BoneId.FOREARM_R}

    def test_artificial_joint_requires_angle(self):
        with pytest.raises(ValueError):
            mo.preset_scenario("artificial-joint")

    def test_elbow_flexion(self):
        spec, placement = mo.preset_scenario("elbow-flexion")
        assert placement.name == "p5-upper"
        assert set(spec.joints) == {"right elbow", "left elbow"}
        right = spec.joints["right elbow"].fn
        left = spec.joints["left elbow"].fn
        # Right arm moves in the first half only, left in the second half.
        assert max(right.angle(t / 10) for t in range(0, 81)) == pytest.approx(90.0)
        assert all(right.angle(t / 10) == 0.0 for t in range(81, 161))
        assert all(left.angle(t / 10) == 0.0 for t in range(0, 80))
        assert max(left.angle(t / 10) for t in range(80, 161)) == pytest.approx(90.0)

    def test_elbow_flexion_two_peaks_per_arm(self):
        spec, _ = mo.preset_scenario("elbow-flexion")
        for label, lo, hi in (("right elbow", 0.0, 8.0), ("left elbow", 8.0, 16.0)):
            fn = spec.joints[label].fn
            ts = [lo + (hi - lo) * i / 800 for i in range(801)]
            vals = [fn.angle(t) for t in ts]
            crossings = sum(1 for i in range(1, len(vals))
                            if vals[i - 1] < 45.0 <= vals[i])
            assert crossings == 2

    def test_half_jacks(self):
        spec, placement = mo.preset_scenario("half-jacks", sensors=12)
        assert placement.name == "p12"
        assert {"left shoulder", "right shoulder", "left hip", "right hip"} <= set(spec.joints)
        spec10, placement10 = mo.preset_scenario("half-jacks", sensors=10)
        assert placement10.name == "p10"
        assert spec.duration_s == 10.0
        for track in spec.joints.values():
            assert track.fn.angle(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_half_jacks_bad_sensor_count(self):
        with pytest.raises(ValueError):
            mo.preset_scenario("half-jacks", sensors=7)

    def test_arm_raise(self):
        spec, placement = mo.preset_scenario("arm-raise")
        assert placement.name == "p5-upper"
        assert set(spec.joints) == {"left shoulder", "right shoulder"}
        left = spec.joints["left shoulder"].fn
        right = spec.joints["right shoulder"].fn
        # Alternating: when one arm peaks the other rests.
        assert left.angle(0.5) == pytest.approx(90.0)
        assert right.angle(0.5) == pytest.approx(0.0)
        assert right.angle(1.5) == pytest.approx(90.0)
        assert left.angle(1.5) == pytest.approx(0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            mo.preset_scenario("moonwalk")
