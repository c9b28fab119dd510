"""Ground-truth motion synthesis and the synthetic IMU.

A trajectory assigns each tracked joint a hinge-angle function of time
about a fixed axis; forward kinematics turns that into world
orientations for every bone. The synthetic IMU then reports

    reading = noise * drift * world(t) * mounting_offset

where world(t) is the bone's world orientation and the noise angle is a
truncated Gaussian whose sigma interpolates between the static and
dynamic figures with the bone's instantaneous angular speed.

All bones rest at the identity world orientation: sensors get a heading
reset at power-on while lying parallel in their storage box, so the
calibration pose is the shared zero of every sensor frame. Fixed
mounting differences live entirely in the per-sensor offsets, which the
calibration step cancels.

A reading chains the quatmath kernel's plain-tuple products and wraps
one Quaternion. It follows its sensor's plan, keyed by sensor id (its
bone's chain, offset, drift axis and noise draws), and checks t once; a
bone that no tracked joint moves has angular speed 0 without forward
kinematics. Each sensor's noise is randomness.normals over its own
stream, so a reading makes no numpy call except the generator's refill
every NORMAL_BLOCK draws.

The ground truth is computed one way, on numpy columns
(truth_joint_angles): each track's angles(t) evaluates its angle
expression in the same order as angle(t), and _world_columns chains
quatmath's column twins as _world chains the kernel. truth_joint_angle
is its batch of one. tests/test_motion.py pins the columns bit for bit
to a scalar forward kinematics on every preset and on drawn tracks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Protocol

import numpy as np

from . import randomness
from .quatmath import (Quad, QuadColumns, Quaternion, Vector3, axis_angle4,
                       axis_angle4_columns, mul4, mul4_columns, shortest_angle_deg,
                       shortest_angle_deg_columns)
from .skeleton import JOINTS, BoneId, SensorPlacement, Skeleton, placement_preset

# Step for numeric differentiation of bone orientation (seconds).
_SPEED_H = 5e-4


class AngleFn(Protocol):
    def angle(self, t: float) -> float: ...

    def angles(self, t: np.ndarray) -> np.ndarray:
        """angle at each time of t, with angle's bits."""


@dataclass(frozen=True)
class Constant:
    deg: float

    def angle(self, t: float) -> float:
        return self.deg

    def angles(self, t: np.ndarray) -> np.ndarray:
        return np.full(len(t), self.deg, dtype=float)


@dataclass(frozen=True)
class Sinusoid:
    center_deg: float
    amplitude_deg: float
    period_s: float
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ValueError("sinusoid period must be positive")

    def angle(self, t: float) -> float:
        return self.center_deg + self.amplitude_deg * math.sin(
            2.0 * math.pi * t / self.period_s + self.phase_rad)

    def angles(self, t: np.ndarray) -> np.ndarray:
        return self.center_deg + self.amplitude_deg * np.sin(
            2.0 * math.pi * t / self.period_s + self.phase_rad)


@dataclass(frozen=True)
class Piecewise:
    """Linear interpolation through (time, angle) knots; clamped outside."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("piecewise trajectory needs at least two points")
        times = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("piecewise times must be strictly increasing")

    def angle(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        i = bisect_right(pts, t, key=itemgetter(0))
        (t0, a0), (t1, a1) = pts[i - 1], pts[i]
        return a0 + (a1 - a0) * (t - t0) / (t1 - t0)

    def angles(self, t: np.ndarray) -> np.ndarray:
        times, values = np.array(self.points, dtype=float).T
        # The segment of each t inside the knots, as angle's bisect_right
        # finds it; the clip keeps the rows outside in range.
        i = np.clip(np.searchsorted(times, t, "right"), 1, len(times) - 1)
        t0, a0, t1, a1 = times[i - 1], values[i - 1], times[i], values[i]
        # Huge knots overflow on rows outside them, which np.where drops.
        with np.errstate(over="ignore", invalid="ignore"):
            inside = a0 + (a1 - a0) * (t - t0) / (t1 - t0)
        return np.where(t <= times[0], values[0],
                        np.where(t >= times[-1], values[-1], inside))


@dataclass(frozen=True)
class JointTrack:
    fn: AngleFn
    axis: tuple[float, float, float]


@dataclass(frozen=True)
class TrajectorySpec:
    """Hinge-angle programs for a set of joints over a session."""

    joints: Mapping[str, JointTrack]
    duration_s: float

    def __post_init__(self) -> None:
        unknown = sorted(set(self.joints) - set(JOINTS))
        if unknown:
            raise ValueError(f"unknown joint labels in trajectory: {unknown}")
        if self.duration_s <= 0.0:
            raise ValueError("trajectory duration must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Orientation error envelope of the simulated IMU."""

    static_sigma_deg: float = 0.3
    dynamic_sigma_deg: float = 1.2
    static_max_deg: float = 2.0
    dynamic_max_deg: float = 3.5
    drift_deg_per_min: float = 0.0
    seed: int = 0
    # Angular speed at which sigma reaches the dynamic figure.
    omega_ref_deg_s: float = 90.0

    def __post_init__(self) -> None:
        for sigma, cap in (("static_sigma_deg", "static_max_deg"),
                           ("dynamic_sigma_deg", "dynamic_max_deg")):
            if not 0.0 <= getattr(self, sigma) <= getattr(self, cap):
                raise ValueError(f"require 0 <= {sigma} <= {cap}")
            # A cap past 180 deg means nothing, and interpolating between caps
            # far apart can cancel to 0, where the redraw loop never ends.
            if getattr(self, cap) > 180.0:
                raise ValueError(f"{cap} must be <= 180 deg")
        if self.omega_ref_deg_s <= 0.0:
            raise ValueError("omega_ref_deg_s must be positive")

    @staticmethod
    def zero() -> "NoiseModel":
        return NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0)


def sigma_and_cap(noise: NoiseModel, omega_deg_s: float) -> tuple[float, float]:
    """Perturbation sigma and cap at angular speed omega: linear from the
    static values at rest to the dynamic ones at omega_ref_deg_s and above."""
    f = min(omega_deg_s / noise.omega_ref_deg_s, 1.0)
    return (noise.static_sigma_deg + (noise.dynamic_sigma_deg - noise.static_sigma_deg) * f,
            noise.static_max_deg + (noise.dynamic_max_deg - noise.static_max_deg) * f)


def random_offsets(placement: SensorPlacement, seed: int) -> dict[int, Quaternion]:
    """Arbitrary fixed mounting rotation per sensor."""
    offsets = {}
    for sensor in sorted(placement.bones):
        rng = randomness.stream(seed, randomness.OFFSETS, sensor)
        w, x, y, z = rng.normal(size=4)
        offsets[sensor] = Quaternion(w, x, y, z)
    return offsets


# (angle function, hinge axis, its angles) of each tracked joint from the
# root down to a bone.
_Chain = tuple[tuple[Callable[[float], float], Vector3,
                     Callable[[np.ndarray], np.ndarray]], ...]


def _world(chain: _Chain, t: float) -> Quad:
    """World orientation at t of the bone at the end of chain: forward
    kinematics, as a unit (w, x, y, z) tuple."""
    # Starts from the identity, not the first joint's rotation: the
    # identity product turns a -0.0 component into 0.0.
    q = Quaternion.identity()
    for angle, axis, _ in chain:
        q = mul4(q, axis_angle4(axis, angle(t)))
    return q


def _world_columns(chain: _Chain, t: np.ndarray) -> QuadColumns:
    """_world at each time of t, as (w, x, y, z) columns with its bits."""
    q = (np.ones(len(t)), np.zeros(len(t)), np.zeros(len(t)), np.zeros(len(t)))
    for _, axis, angles in chain:
        q = mul4_columns(q, axis_angle4_columns(axis, angles(t)))
    return q


class SyntheticBody:
    """Stateful sensor simulator for one session.

    Noisy readings consume per-sensor random streams, so each sensor's
    readings must be requested in chronological order for reproducible
    sequences; different sensors are independent.
    """

    def __init__(self, spec: TrajectorySpec, skel: Skeleton,
                 placement: SensorPlacement, noise: NoiseModel,
                 offsets: Mapping[int, Quaternion] | None = None) -> None:
        self.spec = spec
        self.placement = placement
        self.noise = noise
        self._offsets = dict(offsets or {})
        tracks = {JOINTS[label].child_bone: tr for label, tr in spec.joints.items()}
        self._chain: dict[BoneId, _Chain] = {}
        for bone in BoneId:
            chain = []
            cur: BoneId | None = bone
            while cur is not None:
                if cur in tracks:
                    fn, axis = tracks[cur].fn, tracks[cur].axis
                    chain.append((fn.angle, axis, fn.angles))
                cur = skel.parent[cur]
            self._chain[bone] = tuple(reversed(chain))
        self._noisy = noise.static_sigma_deg > 0.0 or noise.dynamic_sigma_deg > 0.0
        drifting = noise.drift_deg_per_min != 0.0

        def draws(tag: int, sensor: int) -> Iterator[float]:
            return randomness.normals(randomness.stream(noise.seed, tag, sensor))

        # Per sensor: its bone's chain, its offset and drift axis (None for
        # none) and its noise draws.
        self._plans = {s: (self._chain[bone], self._offsets.get(s),
                           randomness.unit_vector(draws(randomness.DRIFT_AXIS, s))
                           if drifting else None,
                           draws(randomness.NOISE, s))
                       for s, bone in sorted(placement.bones.items())}

    def _check(self, t: float) -> None:
        if not 0.0 <= t <= self.spec.duration_s:
            raise ValueError(f"t={t} outside trajectory [0, {self.spec.duration_s}]")

    def _angular_speed(self, chain: _Chain, t: float) -> float:
        """Rotation speed in deg/s of the bone at the end of chain, by
        central difference; 0 for a bone no tracked joint moves."""
        if not chain:
            return 0.0
        lo = max(0.0, t - _SPEED_H)
        hi = min(self.spec.duration_s, t + _SPEED_H)
        # Past t = 2**43 s (about 8.8e12), t +- _SPEED_H rounds to t itself.
        if hi <= lo:
            return 0.0
        return shortest_angle_deg(_world(chain, lo), _world(chain, hi)) / (hi - lo)

    def truth_joint_angle(self, label: str, t: float) -> float:
        """Ground-truth angle between a joint's bones at time t: a batch of one."""
        return self.truth_joint_angles(label, np.array([t], float))[0]

    def truth_joint_angles(self, label: str, t: np.ndarray) -> list[float]:
        """Ground-truth angle between a joint's bones at each time of t."""
        outside = ~((t >= 0.0) & (t <= self.spec.duration_s))
        if outside.any():
            self._check(float(t[outside.argmax()]))
        joint = JOINTS[label]
        return shortest_angle_deg_columns(_world_columns(self._chain[joint.parent_bone], t),
                                          _world_columns(self._chain[joint.child_bone], t)
                                          ).tolist()

    @staticmethod
    def _perturbation(draws: Iterator[float], sigma: float, cap: float) -> Quad:
        angle = abs(sigma * next(draws))
        while angle > cap:
            angle = abs(sigma * next(draws))
        return axis_angle4(randomness.unit_vector(draws), angle)

    def calibration_snapshot(self) -> dict[int, Quaternion]:
        """Sensor orientations while the wearer holds the calibration pose.

        The pose is held before the session clock starts, so bones sit at
        their rest (identity) world orientation; static-grade noise still
        applies, which is what makes per-session calibration imperfect.
        """
        snap = {}
        for sensor in sorted(self.placement.bones):
            q = self._offsets.get(sensor, Quaternion.identity())
            if self._noisy:
                p = self._perturbation(self._plans[sensor][3], self.noise.static_sigma_deg,
                                       self.noise.static_max_deg)
                q = mul4(p, q)
            snap[sensor] = Quaternion(*q)
        return snap

    def reading(self, sensor: int, t: float) -> Quaternion:
        """Instantaneous orientation reported by one sensor."""
        chain, off, drift_axis, draws = self._plans[sensor]
        self._check(t)
        q = _world(chain, t)
        if off is not None:
            q = mul4(q, off)
        if drift_axis is not None:
            drift_deg = self.noise.drift_deg_per_min * t / 60.0
            q = mul4(axis_angle4(drift_axis, drift_deg), q)
        if self._noisy:
            omega = self._angular_speed(chain, t)
            q = mul4(self._perturbation(draws, *sigma_and_cap(self.noise, omega)), q)
        # q is mul4's unit 4-tuple: wrapped without _make's Python call.
        return tuple.__new__(Quaternion, q)


def _artificial_joint(angle_deg: float | None = None, dwell_s: float = 5.0):
    # Two-segment bench rig: one sensor per segment, hinge fixed at the
    # target angle for the whole dwell.
    if angle_deg is None:
        raise ValueError("artificial-joint preset requires angle_deg")
    placement = SensorPlacement("artificial-joint",
                                {1: BoneId.ARM_R, 2: BoneId.FOREARM_R})
    spec = TrajectorySpec(
        joints={"right elbow": JointTrack(Constant(float(angle_deg)), (0.0, 1.0, 0.0))},
        duration_s=float(dwell_s))
    return spec, placement


def _flexion_cycles(start: float, reps: int, peak: float = 90.0):
    # Bend up in 1.2 s, hold the quick stop 0.8 s, lower in 1.2 s, rest.
    pts = []
    t = start
    for _ in range(reps):
        pts += [(t, 0.0), (t + 1.2, peak), (t + 2.0, peak), (t + 3.2, 0.0)]
        t += 4.0
    return Piecewise(tuple(pts))


def _elbow_flexion():
    spec = TrajectorySpec(
        joints={"right elbow": JointTrack(_flexion_cycles(0.0, 2), (1.0, 0.0, 0.0)),
                "left elbow": JointTrack(_flexion_cycles(8.0, 2), (1.0, 0.0, 0.0))},
        duration_s=16.0)
    return spec, placement_preset("p5-upper")


def _half_jacks(sensors: int = 10, duration_s: float = 10.0):
    if sensors not in (10, 12):
        raise ValueError("half-jacks preset supports sensors=10 or 12")
    swing = lambda center, amp: Sinusoid(center, amp, 1.0, phase_rad=-math.pi / 2.0)
    spec = TrajectorySpec(
        joints={"left shoulder": JointTrack(swing(45.0, 45.0), (0.0, 0.0, 1.0)),
                "right shoulder": JointTrack(swing(45.0, 45.0), (0.0, 0.0, 1.0)),
                "left hip": JointTrack(swing(20.0, 20.0), (0.0, 0.0, 1.0)),
                "right hip": JointTrack(swing(20.0, 20.0), (0.0, 0.0, 1.0))},
        duration_s=float(duration_s))
    return spec, placement_preset(f"p{sensors}")


def _arm_raise(duration_s: float = 10.0):
    if duration_s < 2.0:
        raise ValueError(f"arm-raise needs duration_s of at least one 2 s cycle, got {duration_s}")
    left_pts, right_pts = [], []
    k = 0.0
    while k + 2.0 <= duration_s + 1e-9:
        left_pts += [(k, 0.0), (k + 0.5, 90.0), (k + 1.0, 0.0)]
        right_pts += [(k + 1.0, 0.0), (k + 1.5, 90.0), (k + 2.0, 0.0)]
        k += 2.0
    spec = TrajectorySpec(
        joints={"left shoulder": JointTrack(Piecewise(tuple(left_pts)), (1.0, 0.0, 0.0)),
                "right shoulder": JointTrack(Piecewise(tuple(right_pts)), (1.0, 0.0, 0.0))},
        duration_s=float(duration_s))
    return spec, placement_preset("p5-upper")


_PRESETS = {
    "artificial-joint": _artificial_joint,
    "elbow-flexion": _elbow_flexion,
    "half-jacks": _half_jacks,
    "arm-raise": _arm_raise,
}


def preset_scenario(name: str, **params) -> tuple[TrajectorySpec, SensorPlacement]:
    """Named experiment motion: trajectory plus its sensor placement."""
    if name not in _PRESETS:
        raise ValueError(f"unknown motion preset {name!r}; choose from {sorted(_PRESETS)}")
    try:
        return _PRESETS[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for preset {name!r}: {exc}") from None
