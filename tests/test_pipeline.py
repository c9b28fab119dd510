"""Recording persistence, resampling, and analysis metrics."""

import math
import random
import re
import tempfile
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wearsim import pipeline as pl
from wearsim import quatmath as qm
from wearsim import runner
from wearsim import skeleton as sk
from wearsim.cli import BENCH_CSV, RATES_CSV
from test_streaming import csv_line

from wearsim.pipeline import ParseError, RecordingFrame, ValidationError, nine_digits
from wearsim.protocol import TraceRow
from wearsim.quatmath import Quaternion
from wearsim.runner import SESSION_TRACE_CSV


# Finite floats, with signed zeros, subnormals, the smallest normal,
# magnitudes near 1e-300 and 1e300, and the largest float.
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308]),
                   st.floats(1e-310, 1e-290), st.floats(-1e-290, -1e-310),
                   st.floats(1e290, 1e308), st.floats(-1e308, -1e290))


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

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda c: sum(x * x for x in c) > 1e-6).map(lambda c: Quaternion(*c)))
    def test_quantized_components_are_the_cells_grid(self, q):
        # One format pass for all four components lands on nine_digits' grid.
        assert frame(0, 1, 1, q)[3:7] == tuple(map(nine_digits, q))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[FINITE] * 4))
    def test_a_cell_is_the_one_rounding(self, comps):
        # The protocol loops keep the sampler's floats: the line of a frame
        # of any finite components equals the line of those components on
        # the 9-digit grid.
        raw = RecordingFrame._make((0, 1, 1, *comps, 3))
        on_grid = RecordingFrame._make((0, 1, 1, *map(nine_digits, comps), 3))
        assert list(pl.RECORDING_CSV.lines([on_grid])) == list(pl.RECORDING_CSV.lines([raw]))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.one_of(st.floats(-1.0, 1.0), FINITE)] * 4)
           .filter(any).map(lambda c: Quaternion(*c)))
    @example(Quaternion(1.0, -0.0, 5e-324, -1e-300))
    @example(Quaternion(-1e300, 1e300, 0.0, -0.0))
    def test_line_of_a_frame_is_its_quantized_twins(self, q):
        raw = RecordingFrame(7, 2, 5, *q, 3)
        twin = RecordingFrame.quantized(7, 2, 5, q, 3)
        assert list(pl.RECORDING_CSV.lines([raw])) == list(pl.RECORDING_CSV.lines([twin]))

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
           "session_trace": SESSION_TRACE_CSV, "rates": RATES_CSV, "bench": BENCH_CSV}

CELLS = {
    float: st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324,
                                                   123456789.5, 0.1, 1e-7, 1e17, 3.0,
                                                   1e9])),
    int: st.one_of(st.integers(), st.integers(2**53, 2**80), st.integers(-2**80, -2**53)),
    str: st.text(),
}


# Text a cell of an unquoted CSV line can hold: no newline, and no comma.
LINE_TEXT = st.text().map(lambda s: s.replace("\n", ""))
CSV_TEXT = LINE_TEXT.map(lambda s: s.replace(",", ""))


def rows_of(schema):
    """Rows whose cells each hold their column's type."""
    return st.lists(st.tuples(*[CELLS[kind] for _, kind in schema.columns]), max_size=10)


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
            assert written(schema, rows) == schema.header + "\n" + "".join(map(csv_line, rows))

        check()

    def test_radio_rows_with_and_without_channel(self):
        row = TraceRow(1.5, 2.0, "master", 3, "cw", "poll", 1, "delivered")
        assert runner._radio_lines("".join(SESSION_TRACE_CSV.lines([row]))) == [
            "1.5,2,master,3,cw,delivered\n"]
        burst = runner._BURST_FORMAT % (-0.0, 1e-7, runner._BURST_TAIL % ("wifi:1", "wifi"))
        assert burst == "-0,1e-07,wifi:1,,wifi,busy\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[CSV_TEXT if name in ("frame_type", "outcome")
                                else LINE_TEXT if kind is str else CELLS[kind]
                                for name, kind in SESSION_TRACE_CSV.columns]), max_size=10))
    @example([(0.5, 128.0, "a,b", 40, "c,d", "response", 3, "delivered")])
    # Line ends other than a newline stay inside their line.
    @example([(0.5, 1.0, "a\rb\x1c", 1, "\x85", "\u2028", 2, "\x1e\v"),
              (1.5, 2.0, "\r\f", 3, "\x1d", "\u2029", 4, "done\r")])
    def test_radio_trace_fixed_formats(self, rows):
        # runner cuts the radio lines of TraceRows that fit SESSION_TRACE_CSV
        # from their session_trace.csv text, and writes each burst line by
        # one fixed format. The cut needs no newline in any cell and no
        # comma in the last three.
        rows = list(map(TraceRow._make, rows))
        assert runner._radio_lines("".join(SESSION_TRACE_CSV.lines(rows))) == [
            csv_line((*row[:5], row.outcome)) for row in rows]
        for row in rows:
            start, duration, source = row[:3]
            kind = source.split(":")[0]
            tail = runner._BURST_TAIL % (source, kind)
            assert (runner._BURST_FORMAT % (start, duration, tail)
                    == csv_line((start, duration, source, None, kind, "busy")))

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
        assert path.read_text() == schema.header + "\n" + csv_line(good)

    def test_float_timestamp_in_a_frame(self, tmp_path):
        path = tmp_path / "r.csv"
        with pytest.raises(TypeError, match="'timestamp_us'"):
            pl.write_recording([RecordingFrame(1e17, 1, 1, 1.0, 0.0, 0.0, 0.0, 3)], path)
        assert path.read_text() == pl.RECORDING_CSV.header + "\n"

    def test_row_of_wrong_length(self, tmp_path):
        with pytest.raises(TypeError, match="expected 2 cells"):
            pl.write_csv(tmp_path / "a.csv", pl.ANGLE_CSV, [(0, 1.0, 2.0)])


# A cell of each type, for a column that takes none of them.
ODD_CELLS = [True, 7, 2.5, "x", None, b"x"]


@st.composite
def misfits(draw, schema):
    """A row of schema with one cell of a type its column does not take, or
    with a cell too many or too few."""
    row = draw(rows_of(schema).filter(bool))[0]
    i = draw(st.integers(0, len(row) - 1))
    return draw(st.sampled_from(
        [row[:i] + (odd,) + row[i + 1:] for odd in ODD_CELLS
         if type(odd) is not schema.columns[i][1]] + [row + (0,), row[:-1]]))


def write_outcome(write, schema, rows):
    """The error message and the bytes that write left in a file of schema
    given rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        with pytest.raises(TypeError) as err:
            write(path, schema, rows)
        return str(err.value), path.read_bytes()


def per_row_write(path, schema, rows):
    # write_csv a row at a time, by the cell rule: each row's line once the
    # row is checked, and at the first row that does not fit, the error.
    with pl.open_csv(path, schema.header) as fh:
        for n, row in enumerate(rows, start=1):
            where = f"{schema.header} row {n}:"
            if len(row) != len(schema.columns):
                raise TypeError(f"{where} expected {len(schema.columns)} cells, "
                                f"got {len(row)}: {row!r}")
            for (name, kind), value in zip(schema.columns, row):
                if type(value) is not kind:
                    raise TypeError(f"{where} column {name!r} holds {kind.__name__}, "
                                    f"got {type(value).__name__} {value!r}")
            fh.write(csv_line(row))


class TestBatch:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_batch_equals_lines(self, kind, monkeypatch):
        schema = SCHEMAS[kind]

        @settings(max_examples=60, deadline=None)
        @given(rows_of(schema), st.integers(1, 2**40), st.integers(1, 4))
        def check(rows, start, batch):
            assert "".join(schema.lines(rows, start)) == "".join(map(csv_line, rows))
            # write_csv's batches split rows at any row.
            monkeypatch.setattr(pl, "_WRITE_BATCH", batch)
            assert written(schema, rows) == schema.header + "\n" + "".join(map(csv_line, rows))

        check()

    def test_one_format_per_uniform_batch(self):
        rows = [TraceRow(0.5, 10.0, "master", 3, "cw", "poll", 1, "delivered")] * 3
        assert len(list(SESSION_TRACE_CSV.lines(rows))) == 1
        assert len(list(SESSION_TRACE_CSV.lines([]))) == 0

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_misfit_as_per_row(self, kind, monkeypatch):
        schema = SCHEMAS[kind]

        @settings(max_examples=40, deadline=None)
        @given(rows_of(schema), misfits(schema), st.integers(1, 4), st.data())
        def check(rows, misfit, batch, data):
            # The misfit at the first, a middle or the last row, in a batch
            # after others or past their edge.
            monkeypatch.setattr(pl, "_WRITE_BATCH", batch)
            i = data.draw(st.integers(0, len(rows)))
            rows = [*rows[:i], misfit, *rows[i:]]
            assert write_outcome(pl.write_csv, schema, rows) == \
                write_outcome(per_row_write, schema, rows)

        check()

    @pytest.mark.parametrize("at", [0, 1, -2, -1])
    def test_misfit_around_the_batch_edge(self, at):
        # Row numbers count on across write_csv's batches.
        rows = [(t, t / 3) for t in range(2 * pl._WRITE_BATCH)]
        i = pl._WRITE_BATCH + at
        rows[i] = (rows[i][0], None)
        message, text = write_outcome(pl.write_csv, pl.ANGLE_CSV, rows)
        assert f"row {i + 1}: column 'angle_deg'" in message
        assert (message, text) == write_outcome(per_row_write, pl.ANGLE_CSV, rows)
        assert text.count(b"\n") == i + 1


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

    # Text that int() reads but str() does not write: a space, a plus sign,
    # a leading zero, an underscore, a non-ASCII digit, a minus zero.
    @pytest.mark.parametrize("column, cell", [
        (0, " 40"), (0, "+40"), (0, "4_0"), (0, "\u0664\u0660"), (0, "040"), (0, "-0"),
        (1, "01"), (1, "1 "), (2, "+2"), (2, "\uff12"), (7, "03"), (7, "3\t")])
    def test_int_cell_as_str_writes_it(self, tmp_path, column, cell):
        cells = "40,1,2,1,0,0,0,3".split(",")
        cells[column] = cell
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       "0,1,1,1,0,0,0,3\n" + ",".join(cells) + "\n")
        with pytest.raises(ParseError, match=f"line 3: {re.escape(repr(cell))} is not an "
                                             "integer as str"):
            pl.read_recording(p)

    @pytest.mark.parametrize("first, last", [(0, 2**63), (-2**63 - 1, 40)],
                             ids=["2**63", "-2**63-1"])
    def test_timestamp_outside_int64(self, tmp_path, first, last):
        bad = last if first == 0 else first
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       f"{first},1,1,1,0,0,0,3\n{last},1,2,1,0,0,0,3\n")
        with pytest.raises(ParseError, match=re.escape(f"line {2 if bad == first else 3}: "
                                                       f"timestamp {bad} outside -2**63..")):
            pl.read_recording(p)

    def test_timestamps_at_the_ends_of_int64(self, tmp_path):
        p = self.write(tmp_path,
                       "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status\n"
                       f"{-2**63},1,1,1,0,0,0,3\n{2**63 - 1},1,2,1,0,0,0,3\n")
        assert [f.timestamp_us for f in pl.read_recording(p)] == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("cell", ["+100", "0100", "1_00", "\u0661\u0660\u0660", "100 "])
    def test_angle_time_as_str_writes_it(self, tmp_path, cell):
        p = self.write(tmp_path, f"time_us,angle_deg\n0,1\n{cell},2\n")
        with pytest.raises(ParseError, match="line 3: .* is not an integer as str"):
            pl.read_angles(p)

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


def whole_text_read_recording(path):
    """Oracle: the recording reader that split the whole text at once."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != pl.RECORDING_CSV.header:
        raise ParseError(f"line 1: expected header {pl.RECORDING_CSV.header!r}")
    frames = []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError(f"line {n}: expected 8 fields, got {len(parts)}")
        try:
            f = RecordingFrame(pl.int_cell(parts[0]), pl.int_cell(parts[1]),
                               pl.int_cell(parts[2]), float(parts[3]), float(parts[4]),
                               float(parts[5]), float(parts[6]), pl.int_cell(parts[7]))
        except ValueError as exc:
            raise ParseError(f"line {n}: {exc}") from exc
        frames.append(f)
    pl.FrameOrder(first_line=2).check(frames)
    return frames


def read_outcome(read, path):
    """The frames read, or the ParseError or ValidationError raised."""
    try:
        return read(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def stream_columns(frames):
    """Each sensor's timestamps and quaternion components (as float.hex)
    in stream order, and the stream position of each sensor's first frame."""
    streams, first = {}, {}
    for i, f in enumerate(frames):
        first.setdefault(f.sensor_id, i)
        ts, q = streams.setdefault(f.sensor_id, ([], ([], [], [], [])))
        ts.append(f.timestamp_us)
        for column, c in zip(q, f[3:7]):
            column.append(c.hex())
    return streams, first


def columns_outcome(path):
    """RecordingColumns.read's columns as stream_columns gives them, or the
    ParseError or ValidationError raised."""
    try:
        recording = pl.RecordingColumns.read(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    assert all(ts.dtype == np.int64 and all(c.dtype == np.float64 for c in q)
               for ts, q in recording.streams.values())
    return ({s: (ts.tolist(), tuple([v.hex() for v in c.tolist()] for c in q))
             for s, (ts, q) in recording.streams.items()}, recording.first)


def oracle_columns_outcome(path):
    """columns_outcome of the whole-text oracle."""
    frames = read_outcome(whole_text_read_recording, path)
    return stream_columns(frames) if isinstance(frames, list) else frames


# Every line end str.splitlines honours.
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
ODD_LINES = ["", "0,1,1,1,0,0", "x,1,1,1,0,0,0,3", "0,1,1,0.5,0,0,0,3", "5,1,1,1,0,0,0,3",
             "timestamp_us,sensor_id,seq,qw,qx,qy,qz,status", "0,1,1,1,0,0,0,3,",
             "0,01,1,1,0,0,0,3"]


@st.composite
def recording_texts(draw):
    """A written recording's lines, some replaced or joined by odd lines,
    each ended by any line end, the last one maybe by none."""
    frames = draw(frame_streams())
    lines = [pl.RECORDING_CSV.header, *map(str.rstrip, map(csv_line, frames))]
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(st.sampled_from(ODD_LINES) | st.text(max_size=12))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    ends = st.sampled_from(LINE_ENDS)
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text[:-1]


class TestReadRecordingOracle:
    @settings(max_examples=100, deadline=None)
    @given(recording_texts())
    def test_equals_whole_text_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            path.write_bytes(text.encode("utf-8"))
            assert (read_outcome(pl.read_recording, path)
                    == read_outcome(whole_text_read_recording, path))
            assert columns_outcome(path) == oracle_columns_outcome(path)

    @pytest.mark.parametrize("end", LINE_ENDS)
    def test_line_end_on_a_block_edge(self, tmp_path, end):
        # Spaces before one qw cell, which float() reads, put that line's end
        # on the last character of the reader's first block, so a \r\n has
        # its \n in the second block.
        lines = [pl.RECORDING_CSV.header, *(f"{ts},1,{ts + 1},1,0,0,0,3" for ts in range(900))]
        n = next(n for n in range(len(lines)) if len("\n".join(lines[:n + 2])) >= pl._READ_BLOCK)
        pad = pl._READ_BLOCK - 1 - len("\n".join(lines[:n + 1]))
        lines[n] = lines[n].replace(",1,0,0,0,3", "," + " " * pad + "1,0,0,0,3")
        text = "\n".join(lines[:n + 1]) + end + "\n".join(lines[n + 1:]) + "\n"
        assert text.index(end, pl._READ_BLOCK - 1) == pl._READ_BLOCK - 1
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        got = read_outcome(pl.read_recording, path)
        assert got == read_outcome(whole_text_read_recording, path) and len(got) == 900
        assert columns_outcome(path) == oracle_columns_outcome(path)

    def test_line_ends_across_read_buffers(self, tmp_path):
        # About 6,000 lines of varying length put line ends, \r\n among them,
        # on both sides of the reader's buffer edges.
        rng = random.Random(16)
        frames = [frame(ts, 1 + ts % 3, 1 + ts // 3, rot(rng.uniform(0, 360), (1, 2, 3)))
                  for ts in range(6000)]
        lines = [pl.RECORDING_CSV.header, *map(str.rstrip, map(csv_line, frames))]
        path = tmp_path / "r.csv"
        path.write_bytes("".join(line + rng.choice(LINE_ENDS[:3] * 4 + LINE_ENDS)
                                 for line in lines).encode("utf-8"))
        got = pl.read_recording(path)
        assert got == frames == whole_text_read_recording(path)
        assert columns_outcome(path) == stream_columns(frames)


# Edits of one line that _PLAIN_LINE or the column checks must send to the
# per-line parse, as {cell index: new text}; index 8 appends a ninth cell.
# The last edge is a frame that float()'s leniency reads: (0, 0, 0, 1).
PATTERN_EDGES = {"int-minus-zero": {2: "-0"}, "status-4": {7: "4"}, "nan": {4: "nan"},
                 "inf": {5: "inf"}, "1e400": {3: "1e400"}, "nine-cells": {8: "3"},
                 "float-1_0": {3: "1_0"}, "ts-2**63": {0: str(2**63)},
                 "ts-below-int64": {0: str(-2**63 - 1)},
                 "lenient-floats": {3: " 0", 4: "-0e0", 5: "0.0_0", 6: "1_0e-1"}}


class TestReadRecordingBatches:
    """Files of more than two of read_recording's batches, each with one odd
    line in a later batch, read as the whole-text oracle reads them."""

    @classmethod
    def setup_class(cls):
        rng = random.Random(28)
        n = 2 * pl._WRITE_BATCH + 300
        cls.frames = [frame(ts * 10, 1 + ts % 3, 1 + ts // 3, rot(rng.uniform(0, 360), (1, 2, 3)))
                      for ts in range(n)]
        cls.lines = [pl.RECORDING_CSV.header, *map(str.rstrip, map(csv_line, cls.frames))]

    # Lines after the header: the first and last of the second batch, one
    # inside the third and the file's last.
    AT = [pl._WRITE_BATCH, 2 * pl._WRITE_BATCH - 1, 2 * pl._WRITE_BATCH + 150,
          2 * pl._WRITE_BATCH + 299]

    def outcomes(self, tmp_path, lines):
        """read_recording's outcome and the oracle's; the column reader's
        outcome must equal the oracle's."""
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert columns_outcome(path) == oracle_columns_outcome(path)
        return (read_outcome(pl.read_recording, path),
                read_outcome(whole_text_read_recording, path))

    @pytest.mark.parametrize("at", AT)
    @pytest.mark.parametrize("odd", ODD_LINES)
    def test_odd_line_inserted(self, tmp_path, odd, at):
        lines = list(self.lines)
        lines.insert(1 + at, odd)
        got, want = self.outcomes(tmp_path, lines)
        assert got == want

    @pytest.mark.parametrize("at", AT)
    @pytest.mark.parametrize("edge", PATTERN_EDGES, ids=str)
    def test_pattern_edge(self, tmp_path, edge, at):
        lines = list(self.lines)
        cells = lines[1 + at].split(",") + [None]
        for i, text in PATTERN_EDGES[edge].items():
            cells[i] = text
        lines[1 + at] = ",".join(c for c in cells if c is not None)
        got, want = self.outcomes(tmp_path, lines)
        assert got == want
        if edge == "lenient-floats":
            assert got[at][3:7] == (0.0, -0.0, 0.0, 1.0)
        else:
            assert got[0] is ParseError and got[1].startswith(f"line {2 + at}: ")

    def test_every_batch_whole(self, tmp_path):
        got, want = self.outcomes(tmp_path, self.lines)
        assert got == want == self.frames

    @pytest.mark.parametrize("at", AT)
    def test_sensor_first_seen_in_a_later_batch(self, tmp_path, at):
        lines = list(self.lines)
        cells = lines[1 + at].split(",")
        cells[1] = "7"
        lines[1 + at] = ",".join(cells)
        got, want = self.outcomes(tmp_path, lines)
        assert got == want == self.frames[:at] + [self.frames[at]._replace(sensor_id=7)] \
            + self.frames[at + 1:]

    @pytest.mark.parametrize("late", [False, True], ids=["order-only", "then-bad-line"])
    def test_bad_line_after_a_broken_order_is_reported_first(self, tmp_path, late):
        # Line 12 repeats line 11 (sensor 1 seq 4), in the first batch; a bad
        # line in the third, if late.
        lines = list(self.lines)
        lines[11] = lines[10]
        if late:
            lines[2 * pl._WRITE_BATCH + 150] = "0,1,1,1,0,0"
        got, want = self.outcomes(tmp_path, lines)
        assert got == want
        if late:
            assert got == (ParseError,
                           f"line {2 * pl._WRITE_BATCH + 151}: expected 8 fields, got 6")
        else:
            assert got == (ValidationError, "line 12: sensor 1 seq 4 does not increase "
                                            "(previous 4)")


@st.composite
def ordered_batches(draw):
    """Frames whose timestamps mostly rise and whose seqs mostly increase per
    sensor, among them a sensor id and seqs beyond int64; cut into batches,
    and a first line number (0: frames in memory)."""
    sensors = draw(st.lists(st.sampled_from([1, 2, 3, 12, 2**70]), min_size=1, max_size=3,
                            unique=True))
    base = draw(st.sampled_from([0, 2**63 - 20, 2**64]))
    frames, ts, seqs = [], draw(st.integers(-2**63 + 40, 2**63 - 300)), {}
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.sampled_from([0, 0, 1, 7, -1]))
        s = draw(st.sampled_from(sensors))
        seqs[s] = seqs.get(s, base) + draw(st.sampled_from([1, 1, 1, 3, 0, -1]))
        frames.append(RecordingFrame(ts, s, seqs[s], 1.0, 0.0, 0.0, 0.0, 3))
    cuts = sorted(draw(st.lists(st.integers(0, len(frames)), max_size=4)))
    return frames, cuts, draw(st.sampled_from([0, 2]))


@settings(max_examples=200, deadline=None)
@given(ordered_batches())
# In the second batch a timestamp goes back, then sensor 1 repeats its seq.
@example(([RecordingFrame(10, 1, 1, 1.0, 0.0, 0.0, 0.0, 3),
           RecordingFrame(5, 2, 1, 1.0, 0.0, 0.0, 0.0, 3),
           RecordingFrame(6, 1, 1, 1.0, 0.0, 0.0, 0.0, 3)], [1], 2))
def test_column_check_equals_the_frame_check(drawn):
    # FrameOrder.check_columns, as read_recording calls it, against
    # FrameOrder.check on the same batches of frames.
    frames, cuts, first_line = drawn
    batches = [frames[a:b] for a, b in zip([0, *cuts], [*cuts, len(frames)])]

    def outcome(check):
        """What check returned for each batch, until the ValidationError."""
        order, returned = pl.FrameOrder(first_line), []
        try:
            for batch in batches:
                returned.append(check(order, batch))
        except ValidationError as exc:
            return returned, str(exc)
        return returned, None

    def by_columns(order, batch):
        if not batch:
            return {}
        ts, sensor, seq = (pl._int_column(c) for c in list(zip(*batch))[:3])
        return {s: pos.tolist() for s, pos in order.check_columns(ts, sensor, seq).items()}

    def by_frames(order, batch):
        order.check(batch)
        return {s: [i for i, f in enumerate(batch) if f.sensor_id == s]
                for s in {f.sensor_id for f in batch}}

    assert outcome(by_columns) == outcome(by_frames)


# Cell texts that the line pass or the column pass may refuse, and some that
# both read (a lenient float, the int64 ends).
ODD_CELLS = ["", "x", "-0", "+1", " 1", "01", "1_0", "1.5", "4", "-1", "nan", "inf", "-inf",
             "1e400", " 0", "-0e0", "0.0_0", "1_0e-1", "0x1", str(2**63 - 1), str(2**63),
             str(-2**63), str(-2**63 - 1)]


@st.composite
def recording_batches(draw):
    """The lines of one to four frames of unit quaternions, one of them
    maybe edited: its quaternion scaled to either side of the unit
    tolerance, a cell replaced from ODD_CELLS, or a cell added or dropped."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: math.hypot(*q) > 0.1))
        rows.append([str(draw(st.integers(-2**63, 2**63 - 1))), str(draw(st.integers(0, 12))),
                     str(draw(st.integers(0, 10**6))), *(c / math.hypot(*q) for c in q),
                     str(draw(st.integers(0, 3)))])
    odd = draw(st.sampled_from(rows))
    edit = draw(st.sampled_from(["none", "scale", "cell", "cell", "cell", "cells"]))
    if edit == "scale":
        scale = draw(st.sampled_from([1 + 0.9e-6, 1 + 1.1e-6, 1 - 0.9e-6, 1 - 1.1e-6]))
        odd[3:7] = (c * scale for c in odd[3:7])
    elif edit == "cell":
        odd[draw(st.integers(0, 7))] = draw(st.sampled_from(ODD_CELLS))
    elif edit == "cells":
        odd[:] = odd[:7] if draw(st.booleans()) else [*odd, "3"]
    return [",".join(map(str, row)) for row in rows]


def line_pass_refuses(lines) -> bool:
    try:
        pl._line_frames(lines, 2)
    except ParseError:
        return True
    return False


# read_recording gives _line_frames only the batches that _batch_columns
# refused, and _line_frames returns nothing: it must raise on each.
@settings(max_examples=500, deadline=None)
@given(recording_batches())
def test_column_pass_refuses_exactly_a_batch_with_a_bad_line(lines):
    assert (pl._batch_columns(lines) is None) == line_pass_refuses(lines)


@pytest.mark.parametrize("cell", range(8))
def test_column_pass_refuses_each_odd_cell_as_the_line_pass_does(cell):
    for text in ODD_CELLS:
        cells = ["7", "1", "2", "1.0", "0.0", "0.0", "0.0", "3"]
        cells[cell] = text
        lines = ["0,1,1,1.0,0.0,0.0,0.0,3", ",".join(cells)]
        assert (pl._batch_columns(lines) is None) == line_pass_refuses(lines), text


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


UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda c: sum(x * x for x in c) > 1e-6).map(lambda c: Quaternion(*c))


@st.composite
def snapshots(draw):
    """A p12 calibration in either pose (maybe missing a sensor), and one
    reading of some sensors: equal to the sensor's q_calib, the identity, or
    a random one."""
    placement = sk.placement_preset("p12")
    q_calib = {s: draw(st.one_of(st.just(Quaternion.identity()), UNIT))
               for s in placement.bones}
    for s in draw(st.lists(st.sampled_from(sorted(q_calib)), max_size=1)):
        del q_calib[s]
    calib = sk.CalibrationRecord(draw(st.sampled_from(list(sk.CalibrationPose))), placement,
                                 q_calib)
    snapshot = {}
    for s in draw(st.lists(st.sampled_from(sorted(placement.bones)), min_size=1,
                           unique=True)):
        kind = draw(st.sampled_from(["calib", "identity", "random"]))
        if kind == "calib" and s in q_calib:
            snapshot[s] = q_calib[s]
        elif kind == "identity":
            snapshot[s] = Quaternion.identity()
        else:
            snapshot[s] = draw(UNIT)
    return snapshot, calib


def pose_outcome(fn, *args):
    """Each bone's pose as (bone, components in hex, type), or the
    CalibrationError raised."""
    try:
        return sorted((bone.value, tuple(c.hex() for c in q), type(q))
                      for bone, q in fn(*args).items())
    except sk.CalibrationError as exc:
        return str(exc)


class TestAnimateFrameOracle:
    @settings(max_examples=200, deadline=None)
    @given(snapshots())
    def test_batch_of_one_equals_old_path(self, drawn):
        snapshot, calib = drawn
        skel = sk.Skeleton.default()
        assert pose_outcome(sk.animate_frame, snapshot, calib, skel) == \
            pose_outcome(old_animate_frame, snapshot, calib, skel)


def per_point_series(frames, calib, skel, joint):
    """joint_angle_series' reference: both bone poses recomputed at every grid
    point from the latest frame of each sensor."""
    sensors = calib.placement.joint_sensors(joint)
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
    sensors = list(placement.joint_sensors(joint))
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


# The scalar alignment, MAE and Pearson: one bisect and one interpolation
# per point of the first series, over Python ints and floats.

def scalar_interp(points, ts, t):
    """Oracle: value of points at t, which lies within ts, their timestamps."""
    i = bisect_right(ts, t) - 1
    if ts[i] == t:
        return points[i][1]
    frac = (t - ts[i]) / (ts[i + 1] - ts[i])
    a, b = points[i][1], points[i + 1][1]
    value = a + (b - a) * frac
    # b - a overflows for large samples of opposite sign; this form cannot.
    return value if math.isfinite(value) else a * (1.0 - frac) + b * frac


def scalar_aligned(a, b):
    lo = max(a.points[0][0], b.points[0][0])
    hi = min(a.points[-1][0], b.points[-1][0])
    if lo > hi:
        raise ValueError("series do not overlap in time")
    ts = [p[0] for p in b.points]
    pairs = [(va, scalar_interp(b.points, ts, t)) for t, va in a.points if lo <= t <= hi]
    if not pairs:
        raise ValueError(f"no sample of the first series lies in the overlap {lo}..{hi} us")
    return pairs


def scalar_finite(value, what):
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows: the angles are too large for a float")
    return value


def scalar_mae(a, b):
    pairs = scalar_aligned(a, b)
    try:
        total = math.fsum(abs(va - vb) for va, vb in pairs)
    except OverflowError:
        total = math.inf
    return scalar_finite(total / len(pairs), "mean absolute error")


def scalar_scaled(values):
    shift = pl._PEARSON_EXP - math.frexp(max(map(abs, values)))[1]
    return values if shift >= 0 else [math.ldexp(v, shift) for v in values]


def scalar_pearson(a, b):
    pairs = scalar_aligned(a, b)
    n = len(pairs)
    xs = scalar_scaled([va for va, _ in pairs])
    ys = scalar_scaled([vb for _, vb in pairs])
    ma = math.fsum(xs) / n
    mb = math.fsum(ys) / n
    cov = math.fsum((va - ma) * (vb - mb) for va, vb in zip(xs, ys))
    var_a = math.fsum((va - ma) ** 2 for va in xs)
    var_b = math.fsum((vb - mb) ** 2 for vb in ys)
    if var_a == 0.0 or var_b == 0.0:
        raise ValueError("correlation undefined: a series has zero variance")
    return scalar_finite(cov / math.sqrt(var_a * var_b), "Pearson correlation")


def metric_outcome(metric, a, b):
    """metric(a, b) as float.hex, or the ValueError raised."""
    try:
        return metric(a, b).hex()
    except ValueError as exc:
        return type(exc), str(exc)


# Gaps between timestamps: small ones, and from 2**53 on, where an int64
# no longer converts to float64 exactly; sums of them leave int64.
GAPS = st.one_of(st.integers(1, 1000), st.sampled_from([2**53 - 1, 2**53, 2**53 + 1]),
                 st.integers(2**53, 2**63))
ANGLES = st.one_of(st.floats(-360.0, 360.0), st.sampled_from([0.0, 1.0, -1e308, 1e308]),
                   FINITE)


@st.composite
def series_pairs(draw):
    """Two series: b on increasing timestamps, a on timestamps taken from b's
    (exact hits), next to them, between them and outside them."""
    b_ts = [draw(st.integers(-2**64, 2**64))]
    for _ in range(draw(st.integers(0, 8))):
        b_ts.append(b_ts[-1] + draw(GAPS))
    near = [t + d for t in b_ts for d in (-1, 0, 1)]
    mid = [(s + t) // 2 for s, t in zip(b_ts, b_ts[1:])]
    far = [b_ts[0] - draw(GAPS), b_ts[-1] + draw(GAPS)]
    a_ts = sorted(set(draw(st.lists(st.sampled_from(near + mid + far), min_size=1,
                                    max_size=12))))
    values = st.sampled_from([2.0, -3.5]) if draw(st.booleans()) else ANGLES
    return (pl.AngleSeries("a", [(t, draw(values)) for t in a_ts]),
            pl.AngleSeries("b", [(t, draw(values)) for t in b_ts]))


def gap_series(gap):
    """b from 0 to gap, a at 3: its fraction 3 / gap rounds once."""
    return (pl.AngleSeries("a", [(3, 0.0), (5, 1.0)]),
            pl.AngleSeries("b", [(0, 0.0), (gap, 1.0)]))


class TestMetricsOracle:
    @settings(max_examples=300, deadline=None)
    @given(series_pairs())
    # Exact hits at both ends, and an overflowing b - a between them.
    @example((series([(0, 1.0), (5, 2.0), (10, 0.5)]),
              series([(0, -1e308), (10, 1e308)])))
    @example((series([(-5, 1.0), (20, 2.0)]), series([(0, 1.0), (10, 3.0)])))  # none inside
    @example((series([(0, 1.0), (10, 2.0)]), series([(11, 1.0), (20, 3.0)])))  # disjoint
    @example(gap_series(2**53 + 1))
    @example(gap_series(2**64 + 1))
    def test_equal_the_scalar_path_bit_for_bit(self, pair):
        a, b = pair
        assert metric_outcome(pl.mae, a, b) == metric_outcome(scalar_mae, a, b)
        assert metric_outcome(pl.pearson, a, b) == metric_outcome(scalar_pearson, a, b)

    def test_a_wide_gap_keeps_the_int_division(self):
        # 2**53 + 1 becomes 2**53 as a float64, so a float division of the
        # fraction would round twice and move the last bit of the MAE.
        a, b = gap_series(2**53 + 1)
        assert 3 / (2**53 + 1) != 3.0 / float(2**53 + 1)
        assert pl.mae(a, b).hex() == scalar_mae(a, b).hex()


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
        _, (got,) = pl._aligned(series([(t, 0.0)]), series([(0, va), (1000, vb)]))
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
