"""Bone tree, placements, calibration, and joint-angle extraction."""

import math
import random

import pytest

from wearsim import quatmath as qm
from wearsim import skeleton as sk
from wearsim.quatmath import Quaternion


def random_quaternion(rng):
    axis = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    if all(abs(c) < 1e-12 for c in axis):
        axis = (1.0, 0.0, 0.0)
    return qm.from_axis_angle(axis, rng.uniform(-360.0, 360.0))


class TestBoneTree:
    def test_twenty_bones(self):
        assert len(sk.BoneId) == 20

    def test_single_root_is_pelvis(self):
        roots = [b for b in sk.BoneId if sk.PARENT[b] is None]
        assert roots == [sk.BoneId.PELVIS]

    def test_all_paths_reach_root(self):
        for bone in sk.BoneId:
            seen = set()
            cur = bone
            while cur is not None:
                assert cur not in seen, f"cycle through {cur}"
                seen.add(cur)
                cur = sk.PARENT[cur]
            assert sk.BoneId.PELVIS in seen

    def test_limb_chains(self):
        assert sk.PARENT[sk.BoneId.FOREARM_L] == sk.BoneId.ARM_L
        assert sk.PARENT[sk.BoneId.CALF_R] == sk.BoneId.THIGH_R
        assert sk.PARENT[sk.BoneId.TOES_L] == sk.BoneId.FOOT_L
        assert sk.PARENT[sk.BoneId.THIGH_R] == sk.BoneId.PELVIS


class TestSkeleton:
    def test_rest_sets_complete_and_unit(self):
        skel = sk.Skeleton.default()
        for pose in sk.CalibrationPose:
            rest = skel.rest[pose]
            assert set(rest) == set(sk.BoneId)
            for q in rest.values():
                n = math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2)
                assert abs(n - 1.0) <= 1e-12

    def test_neutral_rest_is_identity(self):
        skel = sk.Skeleton.default()
        for q in skel.rest[sk.CalibrationPose.NEUTRAL].values():
            assert q == Quaternion.identity()

    def test_tpose_arm_chain_shares_rest(self):
        # Arm and forearm share rest orientation per side, so the elbow's
        # rest relative rotation is identity even in T-pose.
        rest = sk.Skeleton.default().rest[sk.CalibrationPose.TPOSE]
        assert rest[sk.BoneId.ARM_L] == rest[sk.BoneId.FOREARM_L] == rest[sk.BoneId.HAND_L]
        assert rest[sk.BoneId.ARM_R] == rest[sk.BoneId.FOREARM_R] == rest[sk.BoneId.HAND_R]
        assert qm.shortest_angle_deg(rest[sk.BoneId.ARM_L],
                                     rest[sk.BoneId.SPINE]) == pytest.approx(90.0, abs=1e-9)


class TestPlacements:
    def test_preset_sizes(self):
        assert len(sk.placement_preset("p5-upper").bones) == 5
        assert len(sk.placement_preset("p10").bones) == 10
        assert len(sk.placement_preset("p12").bones) == 12

    def test_p12_extends_p10_with_feet(self):
        p10 = sk.placement_preset("p10").bones
        p12 = sk.placement_preset("p12").bones
        assert {k: v for k, v in p12.items() if k in p10} == p10
        extra = set(p12.values()) - set(p10.values())
        assert extra == {sk.BoneId.FOOT_L, sk.BoneId.FOOT_R}

    def test_p10_bone_set(self):
        bones = set(sk.placement_preset("p10").bones.values())
        assert bones == {sk.BoneId.SPINE, sk.BoneId.ARM_L, sk.BoneId.ARM_R,
                         sk.BoneId.FOREARM_L, sk.BoneId.FOREARM_R, sk.BoneId.PELVIS,
                         sk.BoneId.THIGH_L, sk.BoneId.THIGH_R,
                         sk.BoneId.CALF_L, sk.BoneId.CALF_R}

    def test_p5_upper_bone_set(self):
        bones = set(sk.placement_preset("p5-upper").bones.values())
        assert bones == {sk.BoneId.SPINE, sk.BoneId.ARM_L, sk.BoneId.ARM_R,
                         sk.BoneId.FOREARM_L, sk.BoneId.FOREARM_R}

    def test_injective(self):
        for name in ("p5-upper", "p10", "p12"):
            bones = sk.placement_preset(name).bones
            assert len(set(bones.values())) == len(bones)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="placement"):
            sk.placement_preset("p99")

    def test_duplicate_bone_rejected(self):
        with pytest.raises(ValueError):
            sk.SensorPlacement("bad", {1: sk.BoneId.SPINE, 2: sk.BoneId.SPINE})

    def test_joint_sensors(self):
        p5 = sk.placement_preset("p5-upper")
        assert p5.joint_sensors(sk.JOINTS["left elbow"]) == (2, 4)
        assert p5.joint_sensors(sk.JOINTS["right shoulder"]) == (1, 3)
        with pytest.raises(ValueError, match="^placement 'p5-upper' has no sensor on "
                                             "'thigh_l', needed by joint 'left knee'$"):
            p5.joint_sensors(sk.JOINTS["left knee"])


class TestJointRegistry:
    def test_labels(self):
        assert set(sk.JOINTS) == {
            "left elbow", "right elbow", "left shoulder", "right shoulder",
            "left hip", "right hip", "left knee", "right knee",
            "left ankle", "right ankle"}

    def test_elbow_bones(self):
        j = sk.JOINTS["right elbow"]
        assert (j.parent_bone, j.child_bone) == (sk.BoneId.ARM_R, sk.BoneId.FOREARM_R)

    def test_all_joints_measurable_in_p12(self):
        sensed = set(sk.placement_preset("p12").bones.values())
        for j in sk.JOINTS.values():
            assert j.parent_bone in sensed and j.child_bone in sensed


class TestCalibrate:
    def setup_method(self):
        self.placement = sk.placement_preset("p5-upper")

    def test_stores_verbatim(self):
        q30 = qm.from_axis_angle((1, 0, 0), 30.0)
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        snapshot[1] = q30
        rec = sk.calibrate(snapshot, sk.CalibrationPose.NEUTRAL, self.placement)
        assert rec.q_calib[1] == q30
        assert rec.q_calib[2] == Quaternion.identity()
        assert rec.pose is sk.CalibrationPose.NEUTRAL

    def test_all_identity(self):
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        rec = sk.calibrate(snapshot, sk.CalibrationPose.NEUTRAL, self.placement)
        assert all(q == Quaternion.identity() for q in rec.q_calib.values())

    def test_missing_sensor_listed(self):
        snapshot = {i: Quaternion.identity() for i in (1, 2, 3, 4)}
        with pytest.raises(sk.CalibrationError, match="5"):
            sk.calibrate(snapshot, sk.CalibrationPose.NEUTRAL, self.placement)


class TestAnimateFrame:
    def setup_method(self):
        self.skel = sk.Skeleton.default()
        self.placement = sk.placement_preset("p5-upper")

    def _calib(self, snapshot, pose=sk.CalibrationPose.NEUTRAL):
        return sk.calibrate(snapshot, pose, self.placement)

    def test_calibration_snapshot_gives_rest_pose(self):
        rng = random.Random(31)
        snapshot = {i: random_quaternion(rng) for i in self.placement.bones}
        for pose in sk.CalibrationPose:
            rec = self._calib(snapshot, pose)
            frame = sk.animate_frame(snapshot, rec, self.skel)
            for sensor, bone in self.placement.bones.items():
                assert frame[bone] == self.skel.rest[pose][bone]

    def test_uncalibrated_sensor_rejected(self):
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        rec = self._calib(snapshot)
        snapshot[9] = Quaternion.identity()
        with pytest.raises(sk.CalibrationError, match="9"):
            sk.animate_frame(snapshot, rec, self.skel)

    def test_partial_snapshot_allowed(self):
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        rec = self._calib(snapshot)
        frame = sk.animate_frame({1: Quaternion.identity()}, rec, self.skel)
        assert set(frame) == {sk.BoneId.SPINE}

    def test_hinge_angle_recovered_with_offsets_and_parent_motion(self):
        # Sensor readings are bone-world orientation times a fixed mounting
        # offset; the measured relative angle must equal the hinge angle
        # regardless of offsets and of what the parent does.
        rng = random.Random(32)
        for _ in range(50):
            off_arm = random_quaternion(rng)
            off_fore = random_quaternion(rng)
            rest = {3: qm.hamilton_product(Quaternion.identity(), off_arm),
                    5: qm.hamilton_product(Quaternion.identity(), off_fore)}
            rest.update({i: Quaternion.identity() for i in (1, 2, 4)})
            rec = self._calib(rest)

            parent_world = random_quaternion(rng)
            theta = rng.uniform(0.0, 180.0)
            hinge = qm.from_axis_angle((0, 1, 0), theta)
            child_world = qm.hamilton_product(parent_world, hinge)
            snapshot = dict(rest)
            snapshot[3] = qm.hamilton_product(parent_world, off_arm)
            snapshot[5] = qm.hamilton_product(child_world, off_fore)

            frame = sk.animate_frame(snapshot, rec, self.skel)
            got = sk.joint_angle(frame, sk.JOINTS["right elbow"])
            assert abs(got - theta) <= 1e-9


class TestJointAngle:
    def setup_method(self):
        self.skel = sk.Skeleton.default()
        self.placement = sk.placement_preset("p5-upper")
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        self.rec = sk.calibrate(snapshot, sk.CalibrationPose.NEUTRAL, self.placement)
        self.rest_frame = sk.animate_frame(snapshot, self.rec, self.skel)

    def test_rest_pose_collinear_zero(self):
        assert sk.joint_angle(self.rest_frame, sk.JOINTS["right elbow"]) == 0.0

    def test_ninety_degree_hinge(self):
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        snapshot[5] = qm.from_axis_angle((0, 1, 0), 90.0)
        frame = sk.animate_frame(snapshot, self.rec, self.skel)
        got = sk.joint_angle(frame, sk.JOINTS["right elbow"])
        assert abs(got - 90.0) <= 1e-9

    def test_missing_bone_named(self):
        with pytest.raises(ValueError, match="thigh_l"):
            sk.joint_angle(self.rest_frame, sk.JOINTS["left knee"])

    def test_angle_same_under_p10_and_p12(self):
        rng = random.Random(33)
        for name in ("p10", "p12"):
            placement = sk.placement_preset(name)
            rng_local = random.Random(33)
            snapshot_rest = {i: Quaternion.identity() for i in placement.bones}
            rec = sk.calibrate(snapshot_rest, sk.CalibrationPose.NEUTRAL, placement)
            snapshot = dict(snapshot_rest)
            snapshot[7] = qm.from_axis_angle((1, 0, 0), 40.0)
            frame = sk.animate_frame(snapshot, rec, sk.Skeleton.default())
            angle = sk.joint_angle(frame, sk.JOINTS["left hip"])
            assert abs(angle - 40.0) <= 1e-9
