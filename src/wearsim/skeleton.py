"""Bone hierarchy, sensor placements, calibration, and joint angles.

The avatar is a 20-bone tree rooted at the pelvis. Sensors bind to a
subset of bones through a placement preset, and a placement's
joint_sensors names the two sensors a joint needs. calibrate snapshots
each sensor's orientation in a known pose and is the one builder of a
CalibrationRecord; sensor_poses maps subsequent readings onto bone
orientations:

    q'  = q * q_calib^-1          (motion since calibration)
    q'' = enu_to_left_handed(q')  (display basis)
    r   = q'' * q_bone            (bone rest orientation applied)

sensor_poses runs these steps on quatmath's column kernel, on one sensor's
readings as (w, x, y, z) columns; animate_frame is its batch of one, a
reading per sensor.

Joint angles are the shortest rotation angle between the two bones of a
joint, with no anatomical plane decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .quatmath import QuadColumns, Quaternion, from_axis_angle, mul4_columns, \
    relative_to_calibration, shortest_angle_deg, unit4_columns


class CalibrationError(ValueError):
    """Calibration coverage or consistency failure."""


class BoneId(Enum):
    PELVIS = "pelvis"
    SPINE = "spine"
    CHEST = "chest"
    UPPER_CHEST = "upper_chest"
    SHOULDER_L = "shoulder_l"
    SHOULDER_R = "shoulder_r"
    ARM_L = "arm_l"
    ARM_R = "arm_r"
    FOREARM_L = "forearm_l"
    FOREARM_R = "forearm_r"
    HAND_L = "hand_l"
    HAND_R = "hand_r"
    THIGH_L = "thigh_l"
    THIGH_R = "thigh_r"
    CALF_L = "calf_l"
    CALF_R = "calf_r"
    FOOT_L = "foot_l"
    FOOT_R = "foot_r"
    TOES_L = "toes_l"
    TOES_R = "toes_r"


PARENT: Mapping[BoneId, BoneId | None] = {
    BoneId.PELVIS: None,
    BoneId.SPINE: BoneId.PELVIS,
    BoneId.CHEST: BoneId.SPINE,
    BoneId.UPPER_CHEST: BoneId.CHEST,
    BoneId.SHOULDER_L: BoneId.UPPER_CHEST,
    BoneId.SHOULDER_R: BoneId.UPPER_CHEST,
    BoneId.ARM_L: BoneId.SHOULDER_L,
    BoneId.ARM_R: BoneId.SHOULDER_R,
    BoneId.FOREARM_L: BoneId.ARM_L,
    BoneId.FOREARM_R: BoneId.ARM_R,
    BoneId.HAND_L: BoneId.FOREARM_L,
    BoneId.HAND_R: BoneId.FOREARM_R,
    BoneId.THIGH_L: BoneId.PELVIS,
    BoneId.THIGH_R: BoneId.PELVIS,
    BoneId.CALF_L: BoneId.THIGH_L,
    BoneId.CALF_R: BoneId.THIGH_R,
    BoneId.FOOT_L: BoneId.CALF_L,
    BoneId.FOOT_R: BoneId.CALF_R,
    BoneId.TOES_L: BoneId.FOOT_L,
    BoneId.TOES_R: BoneId.FOOT_R,
}


class CalibrationPose(Enum):
    NEUTRAL = "neutral"
    TPOSE = "t-pose"


def _rest_sets() -> dict[CalibrationPose, dict[BoneId, Quaternion]]:
    # Neutral: arms at the sides, every bone at the avatar's bind
    # orientation (identity). T-pose: arms horizontal; the whole arm
    # chain of each side shares one rest orientation, so elbow rest
    # relative rotation stays identity and elbow angles stay exact.
    neutral = {b: Quaternion.identity() for b in BoneId}
    tpose = dict(neutral)
    left = from_axis_angle((0.0, 0.0, 1.0), 90.0)
    right = from_axis_angle((0.0, 0.0, 1.0), -90.0)
    for b in (BoneId.ARM_L, BoneId.FOREARM_L, BoneId.HAND_L):
        tpose[b] = left
    for b in (BoneId.ARM_R, BoneId.FOREARM_R, BoneId.HAND_R):
        tpose[b] = right
    return {CalibrationPose.NEUTRAL: neutral, CalibrationPose.TPOSE: tpose}


@dataclass(frozen=True)
class Skeleton:
    """Immutable bone tree with rest poses."""

    parent: Mapping[BoneId, BoneId | None]
    rest: Mapping[CalibrationPose, Mapping[BoneId, Quaternion]]

    @staticmethod
    def default() -> "Skeleton":
        return Skeleton(parent=dict(PARENT), rest=_rest_sets())


@dataclass(frozen=True)
class SensorPlacement:
    """Injective binding of sensor ids to bones."""

    name: str
    bones: Mapping[int, BoneId]

    def __post_init__(self) -> None:
        if len(set(self.bones.values())) != len(self.bones):
            raise ValueError(f"placement {self.name!r} binds a bone twice")

    def joint_sensors(self, joint: JointSpec) -> tuple[int, int]:
        """The sensors on the joint's parent and child bones."""
        sensors = {b: s for s, b in self.bones.items()}
        for bone in (joint.parent_bone, joint.child_bone):
            if bone not in sensors:
                raise ValueError(f"placement {self.name!r} has no sensor on {bone.value!r}, "
                                 f"needed by joint {joint.label!r}")
        return sensors[joint.parent_bone], sensors[joint.child_bone]


# Canonical sensor numbering shared by every preset: a preset is a
# prefix of this table.
SENSOR_BONES: Mapping[int, BoneId] = {
    1: BoneId.SPINE,
    2: BoneId.ARM_L,
    3: BoneId.ARM_R,
    4: BoneId.FOREARM_L,
    5: BoneId.FOREARM_R,
    6: BoneId.PELVIS,
    7: BoneId.THIGH_L,
    8: BoneId.THIGH_R,
    9: BoneId.CALF_L,
    10: BoneId.CALF_R,
    11: BoneId.FOOT_L,
    12: BoneId.FOOT_R,
}

_PRESET_SIZES = {"p5-upper": 5, "p10": 10, "p12": 12}


def placement_preset(name: str) -> SensorPlacement:
    """Named sensor set: p5-upper (ids 1-5), p10 (1-10), p12 (1-12)."""
    if name not in _PRESET_SIZES:
        raise ValueError(
            f"unknown placement preset {name!r}; choose from {sorted(_PRESET_SIZES)}")
    n = _PRESET_SIZES[name]
    return SensorPlacement(name, {i: SENSOR_BONES[i] for i in range(1, n + 1)})


@dataclass(frozen=True)
class JointSpec:
    """A measured joint: the angle between two sensed bones."""

    label: str
    parent_bone: BoneId
    child_bone: BoneId


JOINTS: Mapping[str, JointSpec] = {
    spec.label: spec for spec in (
        JointSpec("left elbow", BoneId.ARM_L, BoneId.FOREARM_L),
        JointSpec("right elbow", BoneId.ARM_R, BoneId.FOREARM_R),
        # Shoulder and hip angles are taken against the trunk sensors
        # (back and pelvis); the shoulder bones themselves carry none.
        JointSpec("left shoulder", BoneId.SPINE, BoneId.ARM_L),
        JointSpec("right shoulder", BoneId.SPINE, BoneId.ARM_R),
        JointSpec("left hip", BoneId.PELVIS, BoneId.THIGH_L),
        JointSpec("right hip", BoneId.PELVIS, BoneId.THIGH_R),
        JointSpec("left knee", BoneId.THIGH_L, BoneId.CALF_L),
        JointSpec("right knee", BoneId.THIGH_R, BoneId.CALF_R),
        JointSpec("left ankle", BoneId.CALF_L, BoneId.FOOT_L),
        JointSpec("right ankle", BoneId.CALF_R, BoneId.FOOT_R),
    )
}


@dataclass(frozen=True)
class CalibrationRecord:
    pose: CalibrationPose
    placement: SensorPlacement
    q_calib: Mapping[int, Quaternion]


def calibrate(snapshot: Mapping[int, Quaternion], pose: CalibrationPose,
              placement: SensorPlacement) -> CalibrationRecord:
    """Freeze each sensor's instantaneous orientation as its reference.

    The snapshot values are stored verbatim; no transformation applies.
    """
    missing = sorted(set(placement.bones) - set(snapshot))
    if missing:
        raise CalibrationError(
            f"calibration snapshot missing sensors {missing} for placement {placement.name!r}")
    q_calib = {sensor: snapshot[sensor] for sensor in placement.bones}
    return CalibrationRecord(pose, placement, q_calib)


def sensor_poses(calib: CalibrationRecord, skel: Skeleton, sensor: int,
                 q: QuadColumns) -> QuadColumns:
    """The orientation of sensor's bone at each of the sensor's readings,
    given and returned as (w, x, y, z) columns, one row per reading."""
    if sensor not in calib.q_calib:
        raise CalibrationError(f"sensor {sensor} was not calibrated")
    rest = skel.rest[calib.pose][calib.placement.bones[sensor]]
    w, x, y, z = relative_to_calibration(unit4_columns(*q), calib.q_calib[sensor])
    # enu_to_left_handed's permutation, normalized as its constructor does.
    return mul4_columns(unit4_columns(w, y, -z, -x), rest)


def animate_frame(snapshot: Mapping[int, Quaternion], calib: CalibrationRecord,
                  skel: Skeleton) -> dict[BoneId, Quaternion]:
    """Orientation of each sensed bone for one instant of sensor readings:
    sensor_poses on a batch of one reading per sensor."""
    poses: dict[BoneId, Quaternion] = {}
    for sensor, q in snapshot.items():
        pose = sensor_poses(calib, skel, sensor, tuple(np.array([c], float) for c in q))
        poses[calib.placement.bones[sensor]] = Quaternion._make(c.item() for c in pose)
    return poses


def joint_angle(poses: Mapping[BoneId, Quaternion], joint: JointSpec) -> float:
    """Shortest angle in degrees between the joint's two bones."""
    for bone in (joint.parent_bone, joint.child_bone):
        if bone not in poses:
            raise ValueError(f"joint {joint.label!r} needs bone {bone.value}, absent from frame")
    return shortest_angle_deg(poses[joint.parent_bone], poses[joint.child_bone])
