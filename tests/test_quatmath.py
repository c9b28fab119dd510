"""Quaternion math tests.

The Hamilton product is checked against an independent rotation-matrix
oracle built here from axis-angle inputs (Rodrigues formula) rather than
from the library's own conversion path.
"""

import math
import random

import numpy as np
import pytest

from wearsim import quatmath as qm
from wearsim.quatmath import Quaternion

SQ2 = math.sqrt(2.0) / 2.0


def rodrigues_matrix(axis, deg):
    """Rotation matrix from axis-angle, independent of the quaternion path."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    th = math.radians(deg)
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return np.eye(3) + math.sin(th) * k + (1.0 - math.cos(th)) * (k @ k)


def quat_to_matrix(q):
    """Standard unit-quaternion to rotation-matrix formula (test-local)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def random_axis_angle(rng):
    axis = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    if all(abs(c) < 1e-12 for c in axis):
        axis = (1.0, 0.0, 0.0)
    return axis, rng.uniform(-360.0, 360.0)


def random_quaternion(rng):
    axis, deg = random_axis_angle(rng)
    return qm.from_axis_angle(axis, deg)


def dot4(a, b):
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def assert_quat_close(a, b, tol=1e-9):
    # Double cover: compare up to global sign.
    d = abs(a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z)
    assert d > 1.0 - tol, f"{a} vs {b}"


class TestConstruction:
    def test_identity(self):
        q = Quaternion.identity()
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_normalizes(self):
        q = Quaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Quaternion(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Quaternion(float("inf"), 0.0, 0.0, 0.0)

    def test_norm_invariant_after_ops(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_quaternion(rng)
            b = random_quaternion(rng)
            for q in (qm.hamilton_product(a, b), qm.relative_to_calibration(a, b),
                      qm.enu_to_left_handed(a)):
                n = math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2)
                assert abs(n - 1.0) <= 1e-9


class TestTupleType:
    def test_is_a_tuple_equal_to_its_components(self):
        q = Quaternion(SQ2, 0.0, 0.0, SQ2)
        assert isinstance(q, tuple)
        assert q == (SQ2, 0.0, 0.0, SQ2) and hash(q) == hash((SQ2, 0.0, 0.0, SQ2))
        assert tuple(q) == (q.w, q.x, q.y, q.z) and len(q) == 4
        w, x, y, z = Quaternion.identity()
        assert (w, x, y, z) == (1.0, 0.0, 0.0, 0.0)
        assert repr(q) == f"Quaternion(w={SQ2!r}, x=0.0, y=0.0, z={SQ2!r})"

    def test_immutable(self):
        q = Quaternion.identity()
        with pytest.raises(AttributeError):
            q.w = 0.5
        with pytest.raises(AttributeError):
            q.extra = 1.0
        assert q == (1.0, 0.0, 0.0, 0.0)

    def test_make_is_unchecked_and_constructor_is_checked(self):
        assert Quaternion._make((2.0, 0.0, 0.0, 0.0)).w == 2.0
        assert Quaternion(2.0, 0.0, 0.0, 0.0).w == 1.0

    def test_operations_return_quaternions(self):
        a = qm.from_axis_angle((0.3, -0.5, 0.8), 40.0)
        b = qm.from_axis_angle((1.0, 0.0, 0.0), 25.0)
        for q in (a, qm.hamilton_product(a, b), qm.enu_to_left_handed(a),
                  qm.relative_to_calibration(a, b), qm.relative_to_calibration(a, a)):
            assert type(q) is Quaternion

    def test_kernel_takes_quaternions_as_tuples(self):
        a = qm.from_axis_angle((0.3, -0.5, 0.8), 40.0)
        b = qm.from_axis_angle((1.0, 0.0, 0.0), 25.0)
        assert qm.hamilton_product(a, b) == qm.mul4(tuple(a), tuple(b)) == qm.mul4(a, b)
        assert type(qm.mul4(a, b)) is tuple
        assert qm.shortest_angle_deg(a, b) == qm.shortest_angle_deg(tuple(a), tuple(b))


class TestHamiltonProduct:
    def test_identity_element(self):
        rng = random.Random(1)
        q = random_quaternion(rng)
        p = qm.hamilton_product(Quaternion.identity(), q)
        assert (p.w, p.x, p.y, p.z) == (q.w, q.x, q.y, q.z)

    def test_same_axis_angles_add(self):
        z90 = qm.from_axis_angle((0, 0, 1), 90.0)
        z180 = qm.hamilton_product(z90, z90)
        assert_quat_close(z180, Quaternion(0.0, 0.0, 0.0, 1.0))

    def test_matrix_composition_oracle(self):
        # R(a*b) = R(a) @ R(b): right-to-left rotation application.
        rng = random.Random(20210824)
        for _ in range(1000):
            ax_a, deg_a = random_axis_angle(rng)
            ax_b, deg_b = random_axis_angle(rng)
            qa = qm.from_axis_angle(ax_a, deg_a)
            qb = qm.from_axis_angle(ax_b, deg_b)
            expected = rodrigues_matrix(ax_a, deg_a) @ rodrigues_matrix(ax_b, deg_b)
            got = quat_to_matrix(qm.hamilton_product(qa, qb))
            assert np.allclose(got, expected, atol=1e-9)

    def test_from_axis_angle_matches_rodrigues(self):
        rng = random.Random(5)
        for _ in range(500):
            axis, deg = random_axis_angle(rng)
            assert np.allclose(quat_to_matrix(qm.from_axis_angle(axis, deg)),
                               rodrigues_matrix(axis, deg), atol=1e-9)


class TestRelativeToCalibration:
    def test_calibration_instant_is_exact_identity(self):
        rng = random.Random(3)
        q = random_quaternion(rng)
        p = qm.relative_to_calibration(q, q)
        assert (p.w, p.x, p.y, p.z) == (1.0, 0.0, 0.0, 0.0)

    def test_identity_calibration(self):
        rng = random.Random(4)
        q = random_quaternion(rng)
        p = qm.relative_to_calibration(q, Quaternion.identity())
        assert_quat_close(p, q)

    def test_identity_calibration_is_exact(self):
        rng = random.Random(98)
        for _ in range(100):
            q = random_quaternion(rng)
            assert qm.relative_to_calibration(q, Quaternion.identity()) == q

    def test_from_identity_is_the_conjugate(self):
        q = qm.relative_to_calibration(Quaternion.identity(), Quaternion(SQ2, 0.0, 0.0, SQ2))
        assert q.w == pytest.approx(SQ2, abs=1e-12)
        assert q.z == pytest.approx(-SQ2, abs=1e-12)

    def test_from_identity_is_the_inverse(self):
        rng = random.Random(99)
        for _ in range(1000):
            q = random_quaternion(rng)
            p = qm.hamilton_product(q, qm.relative_to_calibration(Quaternion.identity(), q))
            assert_quat_close(p, Quaternion.identity())

    def test_mounting_offset_cancels(self):
        # bone(t)*O relative to bone(t0)*O is independent of O.
        rng = random.Random(11)
        for _ in range(200):
            bone_t = random_quaternion(rng)
            bone_t0 = random_quaternion(rng)
            offset = random_quaternion(rng)
            with_offset = qm.relative_to_calibration(
                qm.hamilton_product(bone_t, offset),
                qm.hamilton_product(bone_t0, offset))
            without = qm.relative_to_calibration(bone_t, bone_t0)
            assert_quat_close(with_offset, without)

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(1000):
            q = random_quaternion(rng)
            qc = random_quaternion(rng)
            back = qm.hamilton_product(qm.relative_to_calibration(q, qc), qc)
            assert_quat_close(back, q)


class TestEnuToLeftHanded:
    def test_identity_fixed(self):
        p = qm.enu_to_left_handed(Quaternion.identity())
        assert (p.w, p.x, p.y, p.z) == (1.0, 0.0, 0.0, 0.0)

    def test_component_permutation(self):
        p = qm.enu_to_left_handed(Quaternion(0.0, 1.0, 0.0, 0.0))
        assert (p.w, p.x, p.y, p.z) == (0.0, 0.0, 0.0, -1.0)

    def test_preserves_dot4(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = random_quaternion(rng)
            b = random_quaternion(rng)
            da = dot4(a, b)
            db = dot4(qm.enu_to_left_handed(a), qm.enu_to_left_handed(b))
            assert abs(da - db) <= 1e-9

    def test_shortest_angle_invariant_under_map(self):
        rng = random.Random(14)
        for _ in range(500):
            a = random_quaternion(rng)
            b = random_quaternion(rng)
            before = qm.shortest_angle_deg(a, b)
            after = qm.shortest_angle_deg(qm.enu_to_left_handed(a),
                                          qm.enu_to_left_handed(b))
            assert abs(before - after) <= 1e-9


class TestShortestAngle:
    def test_equal_is_zero(self):
        rng = random.Random(15)
        q = random_quaternion(rng)
        assert qm.shortest_angle_deg(q, q) == 0.0

    def test_ninety_about_z(self):
        z90 = qm.from_axis_angle((0, 0, 1), 90.0)
        assert qm.shortest_angle_deg(Quaternion.identity(), z90) == pytest.approx(90.0, abs=1e-9)

    def test_double_cover_exact_zero(self):
        rng = random.Random(16)
        for _ in range(100):
            q = random_quaternion(rng)
            neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
            assert qm.shortest_angle_deg(q, neg) == 0.0

    def test_axis_angle_sweep(self):
        for deg in range(0, 181):
            q = qm.from_axis_angle((0.3, -0.5, 0.8), float(deg))
            got = qm.shortest_angle_deg(q, Quaternion.identity())
            assert abs(got - deg) <= 1e-9

    def test_right_multiplication_preserves_dot4(self):
        rng = random.Random(17)
        for _ in range(1000):
            a = random_quaternion(rng)
            b = random_quaternion(rng)
            g = random_quaternion(rng)
            d0 = dot4(a, b)
            d1 = dot4(qm.hamilton_product(a, g), qm.hamilton_product(b, g))
            assert abs(d0 - d1) <= 1e-9


class TestFromAxisAngle:
    def test_zero_angle(self):
        q = qm.from_axis_angle((0, 0, 1), 0.0)
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_z_ninety(self):
        q = qm.from_axis_angle((0, 0, 1), 90.0)
        assert q.w == pytest.approx(SQ2, abs=1e-12)
        assert q.z == pytest.approx(SQ2, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            qm.from_axis_angle((0, 0, 0), 45.0)
