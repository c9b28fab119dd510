"""Recording persistence, resampling, and analysis metrics."""

import math
import random
import tempfile
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearsim import pipeline as pl
from wearsim import quatmath as qm
from wearsim import skeleton as sk
from wearsim.cli import BENCH_CSV, RATES_CSV
from wearsim.pipeline import ParseError, RecordingFrame, ValidationError, _cell
from wearsim.protocol import TraceRow
from wearsim.quatmath import Quaternion
from wearsim.runner import RADIO_TRACE_CSV, SESSION_TRACE_CSV


def frame(ts, sensor, seq, q, status=3):
    return RecordingFrame.quantized(ts, sensor, seq, q, status)


def rot(deg, axis=(0, 1, 0)):
    return qm.from_axis_angle(axis, deg)


class TestRecordingFrame:
    def test_quantized_is_representable_in_nine_digits(self):
        q = qm.from_axis_angle((1, 2, 3), 37.123)
        f = frame(0, 1, 1, q)
        for c in (f.qw, f.qx, f.qy, f.qz):
            assert float(f"{c:.9g}") == c

    def test_unit_enforced(self):
        with pytest.raises(ValueError):
            RecordingFrame(0, 1, 1, 0.9, 0.0, 0.0, 0.0, 3)

    def test_status_range(self):
        with pytest.raises(ValueError):
            RecordingFrame(0, 1, 1, 1.0, 0.0, 0.0, 0.0, 4)
        with pytest.raises(ValueError):
            RecordingFrame(0, 1, 1, 1.0, 0.0, 0.0, 0.0, -1)

    def test_slotted_and_still_checked(self):
        f = RecordingFrame(0, 1, 1, 1.0, 0.0, 0.0, 0.0, 3)
        assert not hasattr(f, "__dict__")
        with pytest.raises(ValueError, match="not unit"):
            RecordingFrame(0, 1, 1, 0.9, 0.0, 0.0, 0.0, 3)
        for status in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                RecordingFrame(0, 1, 1, 1.0, 0.0, 0.0, 0.0, status)


    @pytest.mark.parametrize("qw", [math.nan, math.inf, 1e200])
    def test_non_finite_or_huge_component(self, qw):
        # A NaN norm fails the unit check too; a square over the float range is inf.
        with pytest.raises(ValueError, match="not unit"):
            RecordingFrame(0, 1, 1, qw, 0.0, 0.0, 0.0, 3)


class TestRoundTrip:
    def test_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        pl.write_recording([], path)
        assert path.read_text() == "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
        assert pl.read_recording(path) == []

    def test_single_frame(self, tmp_path):
        path = tmp_path / "r.csv"
        f = RecordingFrame(0, 1, 0, 1.0, 0.0, 0.0, 0.0, 3)
        pl.write_recording([f], path)
        assert pl.read_recording(path) == [f]

    def test_random_frames_exact(self, tmp_path):
        rng = random.Random(4000)
        frames = []
        for sensor in (1, 2, 3):
            ts, seq = 0, 0
            for _ in range(200):
                ts += rng.randint(1, 30000)
                seq += rng.randint(1, 3)
                axis = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
                frames.append(frame(ts, sensor, seq, rot(rng.uniform(0, 360), axis),
                                    status=rng.randint(0, 3)))
        frames.sort(key=lambda f: (f.timestamp_us, f.sensor_id))
        path = tmp_path / "r.csv"
        pl.write_recording(frames, path)
        assert pl.read_recording(path) == frames

    def test_file_rewrite_is_byte_identical(self, tmp_path):
        f = [frame(10, 1, 1, rot(33.0)), frame(20, 1, 2, rot(34.0))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pl.write_recording(f, p1)
        pl.write_recording(pl.read_recording(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


@st.composite
def frame_streams(draw):
    """Valid quantized frames: timestamps never decrease, each sensor's seq
    strictly increases."""
    frames = []
    ts = draw(st.integers(0, 2**62))
    seqs = {}
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.integers(0, 10**6))
        sensor = draw(st.integers(0, 12))
        seqs[sensor] = seqs.get(sensor, draw(st.integers(-2**40, 2**40))) + draw(
            st.integers(1, 2**20))
        comps = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
            lambda c: sum(x * x for x in c) > 1e-6))
        frames.append(RecordingFrame.quantized(ts, sensor, seqs[sensor], Quaternion(*comps),
                                               draw(st.integers(0, 3))))
    return frames


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(frame_streams())
    def test_write_read_rewrite(self, frames):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            pl.write_recording(frames, a)
            back = pl.read_recording(a)
            assert back == frames
            pl.write_recording(back, b)
            assert a.read_bytes() == b.read_bytes()


SCHEMAS = {"recording": pl.RECORDING_CSV, "angles": pl.ANGLE_CSV,
           "session_trace": SESSION_TRACE_CSV, "radio_trace": RADIO_TRACE_CSV,
           "rates": RATES_CSV, "bench": BENCH_CSV}

CELLS = {
    float: st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324,
                                                   123456789.5, 0.1])),
    int: st.one_of(st.integers(), st.integers(2**53, 2**80), st.integers(-2**80, -2**53)),
    str: st.text(),
    type(None): st.none(),
}


def rows_of(schema):
    """Rows whose cells each hold one of their column's types."""
    return st.lists(st.tuples(*[st.one_of(*map(CELLS.get, kinds))
                                for _, kinds in schema.columns]), max_size=10)


def written(schema, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        pl.write_csv(path, schema, rows)
        return path.read_bytes().decode("utf-8")


class TestCsvSchema:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_equals_cell_join(self, kind):
        schema = SCHEMAS[kind]

        @settings(max_examples=60, deadline=None)
        @given(rows_of(schema))
        def check(rows):
            oracle = "".join(",".join(map(_cell, row)) + "\n" for row in rows)
            assert written(schema, rows) == schema.header + "\n" + oracle

        check()

    def test_radio_rows_with_and_without_channel(self):
        rows = [(1.5, 2.0, "master", 3, "cw", "delivered"),
                (-0.0, 1e-7, "wifi:1", None, "wifi", "busy")]
        assert written(RADIO_TRACE_CSV, rows).splitlines()[1:] == [
            "1.5,2,master,3,cw,delivered", "-0,1e-07,wifi:1,,wifi,busy"]

    @pytest.mark.parametrize("schema, good, bad, column", [
        (SESSION_TRACE_CSV, TraceRow(0.0, 10.0, "master", 3, "cw", "poll", 1, "delivered"),
         TraceRow(2**60, 10.0, "master", 3, "cw", "poll", 1, "delivered"), "time_us"),
        (SESSION_TRACE_CSV, TraceRow(0.0, 10.0, "master", 3, "cw", "poll", 1, "delivered"),
         TraceRow(5.0, 10.0, "master", None, "cw", "poll", 1, "delivered"), "channel"),
        (pl.ANGLE_CSV, (0, 1.5), (100, None), "angle_deg"),
        (RATES_CSV, (1, 0, 50.0), (True, 100, 50.0), "sensor_id"),
    ])
    def test_wrong_type_names_the_column(self, tmp_path, schema, good, bad, column):
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError, match=f"'{column}'"):
            pl.write_csv(path, schema, [good, bad])
        # The good row is written; nothing of the bad one is.
        assert path.read_text() == schema.header + "\n" + ",".join(map(_cell, good)) + "\n"

    def test_float_timestamp_in_a_frame(self, tmp_path):
        path = tmp_path / "r.csv"
        with pytest.raises(TypeError, match="'timestamp_us'"):
            pl.write_recording([RecordingFrame(1e17, 1, 1, 1.0, 0.0, 0.0, 0.0, 3)], path)
        assert path.read_text() == pl.RECORDING_CSV.header + "\n"

    def test_row_of_wrong_length(self, tmp_path):
        with pytest.raises(TypeError, match="expected 2 cells"):
            pl.write_csv(tmp_path / "a.csv", pl.ANGLE_CSV, [(0, 1.0, 2.0)])


class TestReadErrors:
    def write(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    def test_bad_header(self, tmp_path):
        p = self.write(tmp_path, "time,stuff\n")
        with pytest.raises(ParseError, match="line 1"):
            pl.read_recording(p)

    def test_short_row(self, tmp_path):
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       "0,1,1,1,0,0\n")
        with pytest.raises(ParseError, match="line 2"):
            pl.read_recording(p)

    def test_non_numeric(self, tmp_path):
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       "0,1,1,1,0,0,0,3\n"
                       "10,1,2,abc,0,0,0,3\n")
        with pytest.raises(ParseError, match="line 3"):
            pl.read_recording(p)

    def test_non_unit(self, tmp_path):
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       "0,1,1,0.5,0,0,0,3\n")
        with pytest.raises(ParseError, match="line 2"):
            pl.read_recording(p)

    def test_seq_regression(self, tmp_path):
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       "0,1,5,1,0,0,0,3\n"
                       "10,1,5,1,0,0,0,3\n")
        with pytest.raises(ValidationError, match="line 3.*sensor 1"):
            pl.read_recording(p)

    def test_timestamp_regression(self, tmp_path):
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       "100,1,1,1,0,0,0,3\n"
                       "90,1,2,1,0,0,0,3\n")
        with pytest.raises(ValidationError, match="line 3"):
            pl.read_recording(p)

    def test_write_validates_too(self, tmp_path):
        frames = [frame(0, 1, 2, rot(10.0)), frame(10, 1, 1, rot(11.0))]
        with pytest.raises(ValidationError, match="sensor 1"):
            pl.write_recording(frames, tmp_path / "x.csv")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite(self, tmp_path, value):
        # JSON has no NaN or infinity; writing one would give an invalid file.
        with pytest.raises(ValueError, match="JSON compliant"):
            pl.write_json(tmp_path / "x.json", {"mae_deg": value})
        assert not (tmp_path / "x.json").exists()


class TestJointAngleSeries:
    def setup_method(self):
        self.skel = sk.Skeleton.default()
        self.placement = sk.placement_preset("p5-upper")
        snapshot = {i: Quaternion.identity() for i in self.placement.bones}
        self.calib = sk.calibrate(snapshot, sk.CalibrationPose.NEUTRAL, self.placement)
        self.joint = sk.JOINTS["right elbow"]

    def test_constant_recording_is_zero(self):
        frames = []
        for i in range(5):
            frames.append(frame(i * 1000, 3, i + 1, Quaternion.identity()))
            frames.append(frame(i * 1000 + 100, 5, i + 1, Quaternion.identity()))
        series = pl.joint_angle_series(frames, self.calib, self.skel, self.joint)
        assert all(a == 0.0 for _, a in series.points)
        assert series.label == "right elbow"

    def test_constant_ninety(self):
        frames = []
        for i in range(5):
            frames.append(frame(i * 1000, 3, i + 1, Quaternion.identity()))
            frames.append(frame(i * 1000 + 100, 5, i + 1, rot(90.0)))
        series = pl.joint_angle_series(frames, self.calib, self.skel, self.joint)
        for _, a in series.points:
            assert abs(a - 90.0) <= 1e-6

    def test_latest_sample_hold(self):
        frames = [
            frame(0, 3, 1, Quaternion.identity()),
            frame(50, 5, 1, rot(10.0)),
            frame(100, 3, 2, Quaternion.identity()),
            frame(150, 5, 2, rot(20.0)),
        ]
        series = pl.joint_angle_series(frames, self.calib, self.skel, self.joint)
        # Grid starts when both sensors have a sample.
        assert [t for t, _ in series.points] == [50, 100, 150]
        assert [round(a, 6) for _, a in series.points] == [10.0, 10.0, 20.0]

    def test_missing_sensor(self):
        frames = [frame(0, 3, 1, Quaternion.identity())]
        with pytest.raises(ValueError, match="5"):
            pl.joint_angle_series(frames, self.calib, self.skel, self.joint)


def old_animate_frame(snapshot, calib, skel):
    """animate_frame as it was before the tuple kernel: every step through
    checked Quaternion constructors, which normalize where needed."""
    rest = skel.rest[calib.pose]
    poses = {}
    for sensor, q in snapshot.items():
        if sensor not in calib.q_calib:
            raise sk.CalibrationError(f"sensor {sensor} was not calibrated")
        bone = calib.placement.bones[sensor]
        q_calib = calib.q_calib[sensor]
        if q == q_calib:
            q_rel = Quaternion.identity()
        else:
            w, x, y, z = q_calib
            q_rel = qm.hamilton_product(q, Quaternion(w, -x, -y, -z))
        poses[bone] = qm.hamilton_product(qm.enu_to_left_handed(q_rel), rest[bone])
    return poses


def per_point_series(frames, calib, skel, joint):
    """joint_angle_series' reference: both bone poses recomputed at every grid
    point from the latest frame of each sensor."""
    sensors = (calib.placement.sensor_on(joint.parent_bone),
               calib.placement.sensor_on(joint.child_bone))
    streams = {s: [f for f in frames if f.sensor_id == s] for s in sensors}
    for s in sensors:
        if not streams[s]:
            raise ValueError(f"recording has no frames for sensor {s} ({joint.label!r})")
    stamps = {s: [f.timestamp_us for f in streams[s]] for s in sensors}
    start = max(ts[0] for ts in stamps.values())
    grid = sorted({t for ts in stamps.values() for t in ts if t >= start})
    points = []
    for t in grid:
        latest = {s: streams[s][bisect_right(stamps[s], t) - 1] for s in sensors}
        snapshot = {s: Quaternion(f.qw, f.qx, f.qy, f.qz) for s, f in latest.items()}
        points.append((t, sk.joint_angle(old_animate_frame(snapshot, calib, skel), joint)))
    return pl.AngleSeries(joint.label, points)


@st.composite
def recordings(draw):
    """A p12 calibration (maybe missing a sensor), a joint, and frames of its
    two sensors and one bystander: shared and distinct timestamps, readings
    equal to the sensor's q_calib or to the identity, and random ones."""
    placement = sk.placement_preset("p12")
    joint = draw(st.sampled_from(sorted(sk.JOINTS.values(), key=lambda j: j.label)))
    sensors = [placement.sensor_on(joint.parent_bone), placement.sensor_on(joint.child_bone)]
    unit = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda c: sum(x * x for x in c) > 1e-6).map(lambda c: Quaternion(*c))
    q_calib = {}
    for s in placement.bones:
        q = draw(st.one_of(st.just(Quaternion.identity()), unit))
        # A calibration reading is a recorded one: on the 9-digit grid.
        f = RecordingFrame.quantized(0, s, 0, q)
        q_calib[s] = Quaternion(f.qw, f.qx, f.qy, f.qz)
    uncalibrated = draw(st.sampled_from([None] * 4 + sensors))
    if uncalibrated is not None:
        del q_calib[uncalibrated]
    calib = sk.CalibrationRecord(draw(st.sampled_from(list(sk.CalibrationPose))), placement,
                                 q_calib)
    bystander = next(s for s in placement.bones if s not in sensors)
    frames, ts, seq = [], draw(st.integers(0, 10**6)), 0
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.sampled_from([0, 0, 1, 7, 1000]))
        seq += 1
        s = draw(st.sampled_from(sensors + sensors + [bystander]))
        kind = draw(st.sampled_from(["calib", "identity", "random", "random"]))
        if kind == "calib" and s in q_calib:
            frames.append(RecordingFrame(ts, s, seq, *q_calib[s], 3))
        elif kind == "identity":
            frames.append(RecordingFrame(ts, s, seq, 1.0, 0.0, 0.0, 0.0, 3))
        else:
            frames.append(RecordingFrame.quantized(ts, s, seq, draw(unit)))
    return frames, calib, joint


def outcome(fn, *args):
    """A series' points with angles in hex, or the ValueError it raised."""
    try:
        return [(t, a.hex()) for t, a in fn(*args).points]
    except ValueError as exc:
        return type(exc), str(exc)


class TestJointAngleSeriesOracle:
    @settings(max_examples=300, deadline=None)
    @given(recordings())
    def test_equals_per_point_path(self, recording):
        frames, calib, joint = recording
        skel = sk.Skeleton.default()
        assert outcome(pl.joint_angle_series, frames, calib, skel, joint) == \
            outcome(per_point_series, frames, calib, skel, joint)


def series(pts, label="x"):
    return pl.AngleSeries(label, [(int(t), float(a)) for t, a in pts])


class TestMae:
    def test_self_zero(self):
        a = series([(0, 1.0), (100, 2.0), (200, 3.0)])
        assert pl.mae(a, a) == 0.0

    def test_constant_shift(self):
        a = series([(t * 100, math.sin(t / 5.0) * 30) for t in range(50)])
        b = series([(t, v + 5.0) for t, v in a.points])
        assert pl.mae(a, b) == pytest.approx(5.0, abs=1e-9)

    def test_interpolates_b(self):
        a = series([(100, 0.0)])
        b = series([(0, 0.0), (200, 10.0)])
        assert pl.mae(a, b) == pytest.approx(5.0)

    def test_overflow_raises(self):
        # fsum's partial sums overflow although each difference is finite.
        a = series([(0, 1e308), (10, 1e308), (20, -1e308)])
        b = series([(0, 1.0), (10, 2.0), (20, 3.0)])
        with pytest.raises(ValueError, match="mean absolute error overflows"):
            pl.mae(a, b)

    def test_opposite_sign_extremes(self):
        # b's samples differ by more than the float range; its line is finite.
        a = series([(5, 0.0), (6, 1.0)])
        b = series([(0, -1e308), (10, 1e308)])
        assert pl.mae(a, b) == pytest.approx(1e307, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 999))
    def test_interp_keeps_the_plain_form_when_finite(self, va, vb, t):
        plain = va + (vb - va) * (t / 1000)
        got = pl._interp([(0, va), (1000, vb)], [0, 1000], t)
        if math.isfinite(plain):
            assert got.hex() == plain.hex()
        else:
            assert min(va, vb) <= got <= max(va, vb)

    def test_no_overlap(self):
        a = series([(0, 1.0), (10, 1.0)])
        b = series([(100, 1.0), (110, 1.0)])
        with pytest.raises(ValueError, match="overlap"):
            pl.mae(a, b)


class TestPearson:
    def test_affine_is_one(self):
        rng = random.Random(71)
        a = series([(t * 1000, rng.uniform(0, 90)) for t in range(100)])
        b = series([(t, 2.0 * v + 3.0) for t, v in a.points])
        assert abs(pl.pearson(a, b) - 1.0) < 1e-12

    def test_negation_is_minus_one(self):
        a = series([(0, 1.0), (10, 2.0), (20, 4.0)])
        b = series([(t, -v) for t, v in a.points])
        assert abs(pl.pearson(a, b) + 1.0) < 1e-12

    def test_zero_variance(self):
        a = series([(0, 5.0), (10, 5.0)])
        b = series([(0, 1.0), (10, 2.0)])
        with pytest.raises(ValueError, match="variance"):
            pl.pearson(a, b)

    def test_affine_invariance_property(self):
        rng = random.Random(72)
        a = series([(t * 500, rng.gauss(45, 20)) for t in range(200)])
        b = series([(t + 137, rng.gauss(45, 20)) for t, _ in a.points])
        base = pl.pearson(a, b)
        for scale, shift in ((2.0, 0.0), (0.5, -10.0), (7.0, 100.0)):
            bb = pl.AngleSeries("x", [(t, scale * v + shift) for t, v in b.points])
            assert abs(pl.pearson(a, bb) - base) < 1e-12


    @pytest.mark.parametrize("exponent", [200, 700, 1000])
    def test_huge_angles_scale_exactly(self, exponent):
        # Squared deviations of these values overflow a float; a power-of-two
        # factor is exact, so r equals that of the same series scaled down.
        rng = random.Random(73)
        a = series([(t * 10, rng.uniform(-1.0, 1.0)) for t in range(50)])
        b = series([(t, v + rng.uniform(-0.5, 0.5)) for t, v in a.points])

        def scaled(s):
            return pl.AngleSeries(s.label, [(t, math.ldexp(v, exponent)) for t, v in s.points])

        assert pl.pearson(scaled(a), scaled(b)) == pl.pearson(a, b)
        assert pl.pearson(scaled(a), b) == pl.pearson(a, b)


class TestRateSeries:
    def test_uniform_fifty_hz(self):
        frames = [frame(i * 20000, 1, i + 1, Quaternion.identity()) for i in range(500)]
        rates = pl.rate_series(frames)
        assert set(rates) == {1}
        assert all(v == 50.0 for _, v in rates[1])

    def test_gap_reports_zero(self):
        ts = [i * 20000 for i in range(100)]
        ts += [i * 20000 + 3_000_000 for i in range(100, 200)]
        frames = [frame(t, 1, i + 1, Quaternion.identity()) for i, t in enumerate(ts)]
        rates = pl.rate_series(frames)
        vals = [v for _, v in rates[1]]
        assert min(vals) == 0.0
        assert max(vals) == 50.0

    def test_window_is_half_open(self):
        # Samples at 0 and exactly at the window edge t=1s: window [0,1s)
        # evaluated at t=1s contains only the first.
        frames = [frame(0, 1, 1, Quaternion.identity()),
                  frame(1_000_000, 1, 2, Quaternion.identity())]
        rates = pl.rate_series(frames)
        t0, v0 = rates[1][0]
        assert t0 == 1_000_000
        assert v0 == 1.0
