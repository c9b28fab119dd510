"""Unit-quaternion math for orientation tracking.

Conventions used throughout the package:

- Components are (w, x, y, z) with w the scalar part.
- Hamilton product, right-to-left rotation application: the rotation
  matrix of a*b equals R(a) @ R(b).
- Angles cross module boundaries in degrees; radians stay internal.

Every product, axis-angle rotation and renormalization is computed once,
by a kernel on plain (w, x, y, z) float tuples: mul4, axis_angle4,
unit4 and angle4_deg. The Quaternion functions wrap it, and the sampler's
per-frame path calls it directly, so a reading builds one Quaternion
instead of one per intermediate.

Everything here is stdlib float math in a fixed order, so one input gives
the same bits on every run of one machine. Across machines, sin, cos and
acos come from the platform's libm, and the noise fed in comes from numpy
(see randomness._direction), so bit identity is promised per machine and
build, not across platforms.
"""

from __future__ import annotations

import math
from typing import Sequence

Vector3 = Sequence[float]
Quad = tuple[float, float, float, float]
IDENTITY4: Quad = (1.0, 0.0, 0.0, 0.0)

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
        w, x, y, z = unit4(w, x, y, z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @classmethod
    def _of(cls, q: Quad) -> "Quaternion":
        # A kernel result is finite and already unit: skip the checks.
        self = object.__new__(cls)
        object.__setattr__(self, "w", q[0])
        object.__setattr__(self, "x", q[1])
        object.__setattr__(self, "y", q[2])
        object.__setattr__(self, "z", q[3])
        return self

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


def unit4(w: float, x: float, y: float, z: float) -> Quad:
    """(w, x, y, z) scaled to unit norm when its squared norm is off unity by
    more than _NORM_TOL; otherwise the same values. Components must be
    finite floats."""
    n2 = w * w + x * x + y * y + z * z
    if abs(n2 - 1.0) > _NORM_TOL:
        if n2 == 0.0:
            raise ValueError("zero quaternion has no direction")
        n = math.sqrt(n2)
        return (w / n, x / n, y / n, z / n)
    return (w, x, y, z)


def mul4(a: Quad, b: Quad) -> Quad:
    """Hamilton product a*b of unit tuples: applying b first, then a."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return unit4(aw * bw - ax * bx - ay * by - az * bz,
                 aw * bx + ax * bw + ay * bz - az * by,
                 aw * by - ax * bz + ay * bw + az * bx,
                 aw * bz + ax * by - ay * bx + az * bw)


def axis_angle4(axis: Vector3, deg: float) -> Quad:
    """Unit tuple rotating by deg degrees about axis."""
    ax, ay, az = float(axis[0]), float(axis[1]), float(axis[2])
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if n == 0.0:
        raise ValueError("rotation axis must be non-zero")
    half = math.radians(deg) / 2.0
    s = math.sin(half) / n
    return unit4(math.cos(half), s * ax, s * ay, s * az)


def angle4_deg(a: Quad, b: Quad) -> float:
    """Shortest rotation angle between two unit tuples, in [0, 180].

    alpha = 2*acos(min(|a.b|, 1)) with a.b the 4-component dot product;
    the abs folds the double cover so q and -q compare as equal.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    if (aw == bw and ax == bx and ay == by and az == bz) or \
       (aw == -bw and ax == -bx and ay == -by and az == -bz):
        # Same orientation either way round the double cover: exactly 0,
        # not acos rounding noise.
        return 0.0
    d = abs(aw * bw + ax * bx + ay * by + az * bz)
    if d >= 1.0:
        return 0.0
    return math.degrees(2.0 * math.acos(d))


def hamilton_product(a: Quaternion, b: Quaternion) -> Quaternion:
    """a*b: applying b first, then a."""
    return Quaternion._of(mul4((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z)))


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


def shortest_angle_deg(r_a: Quaternion, r_b: Quaternion) -> float:
    """Shortest rotation angle between two orientations, in [0, 180]."""
    return angle4_deg((r_a.w, r_a.x, r_a.y, r_a.z), (r_b.w, r_b.x, r_b.y, r_b.z))


def from_axis_angle(axis: Vector3, deg: float) -> Quaternion:
    """Unit quaternion rotating by deg degrees about axis."""
    return Quaternion._of(axis_angle4(axis, deg))
