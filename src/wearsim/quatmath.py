"""Unit-quaternion math for orientation tracking.

Conventions used throughout the package:

- Components are (w, x, y, z) with w the scalar part.
- Hamilton product, right-to-left rotation application: the rotation
  matrix of a*b equals R(a) @ R(b).
- Angles cross module boundaries in degrees; radians stay internal.

Everything here is pure value math with no dependencies beyond the
stdlib, so it stays trivially deterministic across platforms.
"""

from __future__ import annotations

import math
from typing import Sequence

Vector3 = Sequence[float]

# Renormalize only when drift is detectable; keeps products of exact
# inputs (identity, axis-aligned 90s) bit-exact.
_NORM_TOL = 1e-12


class Quaternion:
    """Immutable unit quaternion.

    Constructor inputs must be finite and not all zero; the value is
    normalized on construction when its norm is off unity.
    """

    __slots__ = ("w", "x", "y", "z")

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        w, x, y, z = float(w), float(x), float(y), float(z)
        if not (math.isfinite(w) and math.isfinite(x)
                and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("quaternion components must be finite")
        n2 = w * w + x * x + y * y + z * z
        if n2 == 0.0:
            raise ValueError("zero quaternion has no direction")
        if abs(n2 - 1.0) > _NORM_TOL:
            n = math.sqrt(n2)
            w, x, y, z = w / n, x / n, y / n, z / n
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Quaternion is immutable")

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)


def hamilton_product(a: Quaternion, b: Quaternion) -> Quaternion:
    """a*b: applying b first, then a."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def inverse(q: Quaternion) -> Quaternion:
    """Conjugate; equals the inverse for unit quaternions."""
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def relative_to_calibration(q: Quaternion, q_calib: Quaternion) -> Quaternion:
    """Rotation of q relative to the calibration snapshot: q * q_calib^-1.

    A fixed mounting offset shared by both arguments cancels out, so the
    result expresses pure bone motion since calibration.
    """
    if q == q_calib:
        # At the calibration instant the result is the exact identity,
        # not an identity perturbed by rounding.
        return Quaternion.identity()
    return hamilton_product(q, inverse(q_calib))


def enu_to_left_handed(q: Quaternion) -> Quaternion:
    """Re-express an ENU orientation in the left-handed display basis.

    Signed component permutation (w, x, y, z) -> (w, y, -z, -x). As a
    4D isometry it preserves dot products, hence relative angles.
    """
    return Quaternion(q.w, q.y, -q.z, -q.x)


def dot4(a: Quaternion, b: Quaternion) -> float:
    """4-component dot product."""
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def shortest_angle_deg(r_a: Quaternion, r_b: Quaternion) -> float:
    """Shortest rotation angle between two orientations, in [0, 180].

    alpha = 2*acos(min(|dot4|, 1)); the abs folds the double cover so
    q and -q compare as equal.
    """
    if (r_a.w == r_b.w and r_a.x == r_b.x and r_a.y == r_b.y and r_a.z == r_b.z) or \
       (r_a.w == -r_b.w and r_a.x == -r_b.x and r_a.y == -r_b.y and r_a.z == -r_b.z):
        # Same orientation either way round the double cover: exactly 0,
        # not acos rounding noise.
        return 0.0
    d = abs(dot4(r_a, r_b))
    if d >= 1.0:
        return 0.0
    return math.degrees(2.0 * math.acos(d))


def from_axis_angle(axis: Vector3, deg: float) -> Quaternion:
    """Unit quaternion rotating by deg degrees about axis."""
    ax, ay, az = float(axis[0]), float(axis[1]), float(axis[2])
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if n == 0.0:
        raise ValueError("rotation axis must be non-zero")
    half = math.radians(deg) / 2.0
    s = math.sin(half) / n
    return Quaternion(math.cos(half), s * ax, s * ay, s * az)
