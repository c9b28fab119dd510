"""Unit-quaternion math for orientation tracking.

Conventions used throughout the package:

- Components are (w, x, y, z) with w the scalar part.
- Hamilton product, right-to-left rotation application: the rotation
  matrix of a*b equals R(a) @ R(b).
- Angles cross module boundaries in degrees; radians stay internal.

A Quaternion is a (w, x, y, z) tuple, so the kernel (unit4, mul4,
axis_angle4, shortest_angle_deg) takes one as it is. Every product,
axis-angle rotation and renormalization is computed once, by that
kernel. mul4 and axis_angle4 return plain tuples: the sampler's per-frame
path chains them and builds one Quaternion per reading, not one per
intermediate.

Everything here is stdlib float math in a fixed order, so one input gives
the same bits on every run of one machine. Across machines, sin, cos and
acos come from the platform's libm, and the noise fed in comes from numpy
(see randomness._direction), so bit identity is promised per machine and
build, not across platforms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

Vector3 = Sequence[float]
Quad = tuple[float, float, float, float]

# Renormalize only when drift is detectable; keeps products of exact
# inputs (identity, axis-aligned 90s) bit-exact.
_NORM_TOL = 1e-12


class Quaternion(namedtuple("Quaternion", "w x y z")):
    """Immutable unit quaternion: the tuple (w, x, y, z).

    Constructor inputs must be finite and not all zero; the value is
    normalized on construction when its norm is off unity. _make(q) is the
    unchecked path for a kernel result, which is finite and already unit.

    Being a tuple, a Quaternion unpacks, has len 4, equals (and hashes as)
    a plain tuple with the same components, and its repr names the fields.
    """

    __slots__ = ()

    def __new__(cls, w: float, x: float, y: float, z: float) -> "Quaternion":
        w, x, y, z = float(w), float(x), float(y), float(z)
        if not (math.isfinite(w) and math.isfinite(x)
                and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("quaternion components must be finite")
        return tuple.__new__(cls, unit4(w, x, y, z))

    @staticmethod
    def identity() -> "Quaternion":
        return _IDENTITY


_IDENTITY = Quaternion._make((1.0, 0.0, 0.0, 0.0))


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


def shortest_angle_deg(a: Quad, b: Quad) -> float:
    """Shortest rotation angle between two orientations, in [0, 180].

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
    return Quaternion._make(mul4(a, b))


def relative_to_calibration(q: Quad, q_calib: Quad) -> Quaternion:
    """Rotation of q relative to the calibration snapshot: q * q_calib^-1.

    A fixed mounting offset shared by both arguments cancels out, so the
    result expresses pure bone motion since calibration.
    """
    if q == q_calib:
        # At the calibration instant the result is the exact identity,
        # not an identity perturbed by rounding.
        return _IDENTITY
    # The conjugate is the inverse of a unit quaternion.
    w, x, y, z = q_calib
    return Quaternion._make(mul4(q, unit4(w, -x, -y, -z)))


def enu_to_left_handed(q: Quaternion) -> Quaternion:
    """Re-express an ENU orientation in the left-handed display basis.

    Signed component permutation (w, x, y, z) -> (w, y, -z, -x). As a
    4D isometry it preserves dot products, hence relative angles.
    """
    w, x, y, z = q
    return Quaternion(w, y, -z, -x)


def from_axis_angle(axis: Vector3, deg: float) -> Quaternion:
    """Unit quaternion rotating by deg degrees about axis."""
    return Quaternion._make(axis_angle4(axis, deg))
