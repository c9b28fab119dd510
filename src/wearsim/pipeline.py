"""Output formats, recording persistence and analysis metrics.

Every output file is written here: write_csv for each CSV kind (or
open_csv, for lines written as they become known), write_json for each
JSON report. A CSV cell is a float to 9 significant digits (the
nine_digits grid, FLOAT_FORMAT) or str() of anything else.
Each CSV kind has a CsvSchema: its column names and the one type each
column holds, and from them one %-format per row. The schema formats rows
a batch at a time, the whole batch by one `%`. A cell of the wrong type
is refused instead of written in another format.

A recording is a flat stream of per-sensor quaternion samples. On disk
it is a plain CSV with a fixed header:

    timestamp_us,sensor_id,seq,qw,qx,qy,qz,status

A frame keeps the floats it was built with; its 9-digit cells are their
one rounding, and a cell reads back as a float that writes the same cell.
An int cell reads only as str() writes it (int_cell), as do the sidecar's
sensor keys. So read -> write is byte-identical for a file this writer
wrote (RecordingFrame.quantized builds in memory the frame a read gives).
A float cell reads as float() reads it, so "+1" or "1e0" is taken and
written back as "1".

Invariants enforced on both read and write: file timestamps never
decrease, per-sensor sequence numbers strictly increase, quaternions
are unit within 1e-6, status is an integer in 0..3. Row-local problems
raise ParseError, cross-row problems ValidationError; both carry the
1-based line number.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter, sub
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .quatmath import QuadColumns, Quaternion, shortest_angle_deg_columns
# animate_frame is not called here, but perfbench's span table resolves
# pipeline.animate_frame: a traced run raises KeyError without the name.
from .skeleton import (CalibrationRecord, JointSpec, Skeleton, animate_frame,
                       sensor_poses)

_UNIT_TOL = 1e-6
# The timestamps a frame may carry: those of an int64 column.
_TS_MIN, _TS_MAX = -2**63, 2**63 - 1
# Width of the sliding rate window, and the step between the window ends
# that RateWindows counts.
RATE_WINDOW_US = 1_000_000
RATE_STEP_US = 100_000
# pearson brings each series under 2**_PEARSON_EXP, so that its squared
# deviations, their sums and the product of two such sums stay finite.
_PEARSON_EXP = 201


class RecordingError(ValueError):
    """Base for recording file problems."""


class ParseError(RecordingError):
    """A row (or the header) is malformed."""


class ValidationError(RecordingError):
    """Rows parse but violate a stream invariant."""


# A float cell: 9 significant digits.
FLOAT_FORMAT = "%.9g"
# Rows that write_csv formats at once.
_WRITE_BATCH = 1024


def nine_digits(x: float) -> float:
    """x on the grid of a written CSV cell: 9 significant digits."""
    return float(FLOAT_FORMAT % x)


def int_cell(text: str) -> int:
    """The int whose str() is text; any other text, even one that int()
    reads (a space, a plus sign, a leading zero), raises ValueError."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not an integer as str() writes one")
    return value


def file_slug(label: str) -> str:
    """A joint label as it appears in output file names."""
    return label.replace(" ", "_")


class CsvSchema:
    """Column names and cell types of one CSV kind.

    Each column is given as (name, type). A row is a tuple with one cell
    per column, each of exactly its column's type (a bool is not an int).
    """

    def __init__(self, *columns: tuple[str, type]) -> None:
        self.columns = columns
        self.header = ",".join(name for name, _ in columns)
        self._format = ",".join(FLOAT_FORMAT if k is float else "%s" for _, k in columns) + "\n"

    def lines(self, rows: Sequence[tuple], start: int = 1) -> Iterator[str]:
        """The lines of rows, numbered from start, as one string. A row that
        does not fit raises TypeError after the lines of the rows before it."""
        if set(map(len, rows)) == {len(self.columns)} and all(
                set(map(type, column)) == {kind}
                for column, (_, kind) in zip(zip(*rows), self.columns)):
            yield (self._format * len(rows)) % tuple(itertools.chain.from_iterable(rows))
            return
        for i, row in enumerate(rows):
            if misfit := self._misfit(row):
                yield from self.lines(rows[:i])
                raise TypeError(f"{self.header} row {start + i}: {misfit}")

    def _misfit(self, row: tuple) -> str:
        """Why row does not fit, or "" if it does."""
        if len(row) != len(self.columns):
            return f"expected {len(self.columns)} cells, got {len(row)}: {row!r}"
        return next((f"column {name!r} holds {kind.__name__}, got {type(value).__name__} "
                     f"{value!r}" for (name, kind), value in zip(self.columns, row)
                     if type(value) is not kind), "")


RECORDING_CSV = CsvSchema(("timestamp_us", int), ("sensor_id", int), ("seq", int),
                          ("qw", float), ("qx", float), ("qy", float), ("qz", float),
                          ("status", int))
ANGLE_CSV = CsvSchema(("time_us", int), ("angle_deg", float))


@contextmanager
def open_csv(path: str | Path, header: str) -> Iterator[TextIO]:
    """path open for writing, the header line written: the caller writes
    the lines after it as they become known."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        yield fh


def write_csv(path: str | Path, schema: CsvSchema, rows: Iterable[tuple]) -> None:
    """Write the schema's header line, then one line per row, formatted
    _WRITE_BATCH rows at a time. A row that does not fit raises TypeError
    after the rows before it are written."""
    rows = iter(rows)
    with open_csv(path, schema.header) as fh:
        start = 1
        while batch := list(itertools.islice(rows, _WRITE_BATCH)):
            fh.writelines(schema.lines(batch, start))
            start += len(batch)


def write_json(path: str | Path, data) -> None:
    """Write data as indented JSON with sorted keys and a final newline. A NaN
    or infinity raises ValueError: JSON has no such number."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


class RecordingFrame(namedtuple("RecordingFrame",
                                "timestamp_us sensor_id seq qw qx qy qz status")):
    """One delivered sensor sample: the tuple of its RECORDING_CSV cells.

    The constructor checks that the timestamp is in _TS_MIN.._TS_MAX, the
    quaternion is unit within _UNIT_TOL and the status is in 0..3; _make is
    the unchecked path.
    """

    __slots__ = ()

    def __new__(cls, timestamp_us: int, sensor_id: int, seq: int, qw: float, qx: float,
                qy: float, qz: float, status: int) -> "RecordingFrame":
        if not _TS_MIN <= timestamp_us <= _TS_MAX:
            raise ValueError(f"timestamp {timestamp_us} outside -2**63..2**63 - 1")
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN component fails it too
            raise ValueError(f"quaternion norm {norm:.9f} is not unit within {_UNIT_TOL}")
        if not 0 <= status <= 3:
            raise ValueError(f"status {status} outside 0..3")
        return tuple.__new__(cls, (timestamp_us, sensor_id, seq, qw, qx, qy, qz, status))

    @staticmethod
    def quantized(timestamp_us: int, sensor_id: int, seq: int,
                  q: Quaternion, status: int = 3) -> "RecordingFrame":
        """The frame that reading the line of q's frame gives: components
        rounded to the serialized grid."""
        return RecordingFrame(timestamp_us, sensor_id, seq, *map(nine_digits, q), status)


def _int_column(values: Sequence[int] | Sequence[str]) -> np.ndarray:
    """values, ints or cells that int() reads, as an int64 column, or as a
    column of Python ints if one lies outside int64."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], object)


def _runs(sensor: np.ndarray) -> dict[int, np.ndarray]:
    """The positions of each sensor's cells in the column, in order."""
    if not len(sensor):
        return {}
    order = np.argsort(sensor, kind="stable")
    ids = sensor[order]
    cuts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    return {int(ids[a]): order[a:b] for a, b in zip(cuts, cuts[1:])}


# The cells FrameOrder.check reads: timestamp_us, sensor_id, seq.
_ORDER_CELLS = itemgetter(0, 1, 2)


class FrameOrder:
    """The stream invariants of a recording, checked over frames handed in
    batches: timestamps never decrease and each sensor's seq strictly
    increases. check takes frames in memory, a frame at a time (a
    handoff's few hundred tuples cost less walked than made into columns);
    check_columns takes a batch read from a file as columns. first_line > 0
    numbers the frames as file lines from first_line on; 0 means frames in
    memory, reported without line numbers.
    """

    def __init__(self, first_line: int = 0) -> None:
        self._line = first_line  # the line of the next frame, or 0
        self._last_ts = -math.inf
        self._last_seq: dict[int, int] = {}

    def check(self, frames: Iterable[RecordingFrame]) -> None:
        """ValidationError, naming the sensor and the seq, at the first frame
        that breaks an invariant."""
        last_ts, last_seq = self._last_ts, self._last_seq
        i = -1
        for i, (ts, sensor, seq) in enumerate(map(_ORDER_CELLS, frames)):
            if ts < last_ts:
                self._fail(i, sensor, seq, f": timestamp {ts} decreases (previous {last_ts})")
            prev = last_seq.get(sensor, -math.inf)
            if seq <= prev:
                self._fail(i, sensor, seq, f" does not increase (previous {prev})")
            last_ts = ts
            last_seq[sensor] = seq
        self._last_ts = last_ts
        if self._line:
            self._line += i + 1

    def check_columns(self, ts: np.ndarray, sensor: np.ndarray,
                      seq: np.ndarray) -> dict[int, np.ndarray]:
        """check on the frames whose cells the columns hold; returns each
        sensor's positions in the columns, in order."""
        runs = _runs(sensor)
        n = len(ts)
        bad = n  # the first frame that breaks an invariant, or n
        if n and ts[0] < self._last_ts:
            bad = 0
        elif (dips := ts[1:] < ts[:-1]).any():
            bad = int(dips.argmax()) + 1
        for s, pos in runs.items():
            q = seq[pos]
            if q[0] <= self._last_seq.get(s, -math.inf):
                bad = min(bad, int(pos[0]))
            elif (repeats := q[1:] <= q[:-1]).any():
                bad = min(bad, int(pos[repeats.argmax() + 1]))
        if bad < n:
            last_ts = ts[bad - 1] if bad else self._last_ts
            if ts[bad] < last_ts:  # a frame that breaks both is named for its timestamp
                self._fail(bad, sensor[bad], seq[bad],
                           f": timestamp {ts[bad]} decreases (previous {last_ts})")
            pos = runs[int(sensor[bad])]
            j = int(np.flatnonzero(pos == bad)[0])
            prev = seq[pos[j - 1]] if j else self._last_seq[int(sensor[bad])]
            self._fail(bad, sensor[bad], seq[bad], f" does not increase (previous {prev})")
        if n:
            self._last_ts = ts[-1]
        for s, pos in runs.items():
            self._last_seq[s] = seq[pos[-1]]
        if self._line:
            self._line += n
        return runs

    def _fail(self, i: int, sensor: int, seq: int, broken: str) -> NoReturn:
        where = f"line {self._line + i}: " if self._line else ""
        raise ValidationError(f"{where}sensor {sensor} seq {seq}{broken}")


def write_recording(frames: Sequence[RecordingFrame], path: str | Path) -> None:
    """Write frames as CSV. The stream invariants are checked first."""
    FrameOrder().check(frames)
    write_csv(path, RECORDING_CSV, frames)


# Characters read_recording reads at a time: io's own chunk size, so that
# a file that is not UTF-8 fails at the offset that line iteration names.
_READ_BLOCK = 8192


def _lines(fh: TextIO) -> Iterator[str]:
    """fh's lines, ended where str.splitlines ends them, read a block at a
    time. A \\n, or a \\r with a character after it, ends a line whatever
    comes next, so each block is split after the last of them."""
    rest = ""
    while block := fh.read(_READ_BLOCK):
        text = rest + block
        cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
        yield from text[:cut].splitlines()
        rest = text[cut:]
    yield from rest.splitlines()


def _read_batches(path: str | Path) -> Iterator[tuple[list[np.ndarray], dict[int, np.ndarray]]]:
    """The columns of each _WRITE_BATCH lines of a recording CSV
    (_batch_columns), and each sensor's positions in them.

    A batch that misses any of the column pass's checks is parsed again a
    line at a time (_line_frames), which raises ParseError naming the
    first bad line. A broken stream invariant raises ValidationError after
    the last batch, so that a bad line anywhere in the file is reported
    first."""
    order, broken = FrameOrder(first_line=2), None
    with open(path, encoding="utf-8", newline="") as fh:
        lines = _lines(fh)
        if next(lines, None) != RECORDING_CSV.header:
            raise ParseError(f"line 1: expected header {RECORDING_CSV.header!r}")
        n = 2
        while batch := list(itertools.islice(lines, _WRITE_BATCH)):
            columns = _batch_columns(batch) or _line_frames(batch, n)
            runs: dict[int, np.ndarray] = {}
            if broken is None:
                try:
                    runs = order.check_columns(*columns[:3])
                except ValidationError as exc:
                    broken = exc
            yield columns, runs
            n += len(batch)
    if broken is not None:
        raise broken


def read_recording(path: str | Path) -> list[RecordingFrame]:
    """Parse and validate a recording CSV. Lines end where str.splitlines
    ends them: at \\n, \\r and \\r\\n, and also at \\v, \\f, \\x1c-\\x1e,
    \\x85, \\u2028 and \\u2029. The frames are built a batch at a time from
    the checked columns that RecordingColumns.read also reads."""
    frames: list[RecordingFrame] = []
    for columns, _ in _read_batches(path):
        frames += map(tuple.__new__, itertools.repeat(RecordingFrame),
                      zip(*(c.tolist() for c in columns)))
    return frames


# A recording line as _batch_columns takes it: 8 cells, the int cells as
# str() writes an int, the status in 0..3.
_PLAIN_LINE = re.compile("(?:0|-?[1-9][0-9]*)," * 3 + "[^,]*," * 4 + "[0-3]")


def _batch_columns(lines: list[str]) -> list[np.ndarray] | None:
    """The 8 columns of lines, in RECORDING_CSV's order: int64 but for a
    sensor_id or seq cell beyond int64, which makes its column one of
    Python ints, and float64 for the quaternion. None if a line misses
    _PLAIN_LINE, a float cell is not read by float(), a timestamp is
    outside _TS_MIN.._TS_MAX or a quaternion is not unit within _UNIT_TOL."""
    if not all(map(_PLAIN_LINE.fullmatch, lines)):
        return None
    cells = ",".join(lines).split(",")
    try:
        ts = np.array(cells[0::8], np.int64)  # OverflowError outside int64
        w, x, y, z = (np.array(cells[i::8], np.float64) for i in range(3, 7))
    except (OverflowError, ValueError):
        return None
    with np.errstate(over="ignore"):  # a huge component overflows to inf, and fails
        norm = np.sqrt(w * w + x * x + y * y + z * z)
    if not (np.abs(norm - 1.0) <= _UNIT_TOL).all():
        return None
    return [ts, _int_column(cells[1::8]), _int_column(cells[2::8]), w, x, y, z,
            np.array(cells[7::8], np.int64)]


def _line_frames(lines: list[str], first: int) -> NoReturn:
    """Raise ParseError naming the first line of lines, numbered as file
    lines from first, that the checked RecordingFrame constructor refuses.
    lines is a batch that _batch_columns refused, which it does exactly when
    some line is refused here, so this never returns."""
    for n, line in enumerate(lines, start=first):
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError(f"line {n}: expected 8 fields, got {len(parts)}")
        try:
            RecordingFrame(int_cell(parts[0]), int_cell(parts[1]), int_cell(parts[2]),
                           float(parts[3]), float(parts[4]), float(parts[5]),
                           float(parts[6]), int_cell(parts[7]))
        except ValueError as exc:
            raise ParseError(f"line {n}: {exc}") from exc


class RecordingColumns:
    """A recording as typed columns, grouped per sensor. streams maps each
    sensor to the timestamps of its frames (int64) and their quaternions
    ((w, x, y, z) float64 columns), in stream order; first maps it to the
    stream position of its first frame (0 for the stream's first)."""

    def __init__(self, parts: dict[int, list[list[np.ndarray]]], first: dict[int, int]) -> None:
        """parts: each sensor's [ts, w, x, y, z] columns of consecutive
        batches, joined (and dropped) a sensor at a time."""
        self.first = first
        self.streams: dict[int, tuple[np.ndarray, QuadColumns]] = {}
        for s in list(parts):
            ts, *q = map(np.concatenate, zip(*parts.pop(s)))
            self.streams[s] = (ts, tuple(q))

    @classmethod
    def read(cls, path: str | Path) -> "RecordingColumns":
        """The recording CSV at path, with read_recording's checks and
        errors, held as columns."""
        parts: defaultdict[int, list[list[np.ndarray]]] = defaultdict(list)
        first: dict[int, int] = {}
        n = 0
        for (ts, _, _, w, x, y, z, _), runs in _read_batches(path):
            for s, pos in runs.items():
                parts[s].append([c[pos] for c in (ts, w, x, y, z)])
                first.setdefault(s, n + int(pos[0]))
            n += len(ts)
        return cls(parts, first)

    @classmethod
    def of(cls, frames: Sequence[RecordingFrame]) -> "RecordingColumns":
        """The columns of frames in memory, which are not checked."""
        if not frames:
            return cls({}, {})
        ts, sensor, _, *q, _ = zip(*frames)
        columns = [np.array(ts, np.int64), *(np.array(c, float) for c in q)]
        runs = _runs(_int_column(sensor))
        return cls({s: [[c[pos] for c in columns]] for s, pos in runs.items()},
                   {s: int(pos[0]) for s, pos in runs.items()})


def _as_columns(frames: Sequence[RecordingFrame] | RecordingColumns) -> RecordingColumns:
    return frames if isinstance(frames, RecordingColumns) else RecordingColumns.of(frames)


@dataclass(frozen=True)
class AngleSeries:
    """Timestamped joint angle trace in degrees."""

    label: str
    points: list[tuple[int, float]]


def read_angles(path: str | Path) -> AngleSeries:
    """A time_us,angle_deg CSV labelled by its file stem; blank lines are
    skipped. A bad header or row (a non-finite angle too) is a ParseError;
    no rows, or a timestamp that does not increase, is a ValidationError."""
    path = Path(path)
    points: list[tuple[int, float]] = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != ANGLE_CSV.header:
            raise ParseError(f"{path}: unrecognized header {first!r}")
        for n, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                if len(cells) != 2:
                    raise ValueError(f"expected 2 columns, got {len(cells)}")
                t, value = int_cell(cells[0]), float(cells[1])
                if not math.isfinite(value):
                    raise ValueError(f"angle {cells[1]!r} is not finite")
            except ValueError as exc:
                raise ParseError(f"{path} line {n}: {exc}") from None
            if points and t <= points[-1][0]:
                raise ValidationError(f"{path} line {n}: timestamp {t} does not "
                                      f"increase (previous {points[-1][0]})")
            points.append((t, value))
    if not points:
        raise ValidationError(f"{path} contains no angle rows")
    return AngleSeries(path.stem, points)


def joint_angle_series(frames: Sequence[RecordingFrame] | RecordingColumns,
                       calib: CalibrationRecord, skel: Skeleton, joint: JointSpec,
                       poses: dict[int, tuple[np.ndarray, QuadColumns]] | None = None
                       ) -> AngleSeries:
    """Joint angle over time from a recording: its RecordingColumns, or its
    frames in stream order.

    Sensor streams are asynchronous, so the series is evaluated on the
    union of the two sensors' timestamps with latest-sample-hold; it
    starts once both sensors have delivered at least one sample.

    poses, when given, keeps each sensor's (timestamps, bone poses) from
    this recording across calls, so that joints sharing a sensor compute
    its poses once.
    """
    recording = _as_columns(frames)
    sensors = calib.placement.joint_sensors(joint)
    poses = {} if poses is None else poses
    for s in sensors:
        if s not in poses and s not in recording.streams:
            raise ValueError(f"recording has no frames for sensor {s} ({joint.label!r})")
    # Each frame's bone pose is computed once, then held from its timestamp on.
    for s in sensors:
        if s not in poses:
            ts, q = recording.streams[s]
            poses[s] = (ts, sensor_poses(calib, skel, s, q))
    (p_ts, p_poses), (c_ts, c_poses) = (poses[s] for s in sensors)
    start = max(p_ts[0], c_ts[0])
    grid = np.union1d(p_ts[p_ts >= start], c_ts[c_ts >= start])
    p_held = np.searchsorted(p_ts, grid, "right") - 1
    c_held = np.searchsorted(c_ts, grid, "right") - 1
    angles = shortest_angle_deg_columns(tuple(c[p_held] for c in p_poses),
                                        tuple(c[c_held] for c in c_poses))
    return AngleSeries(joint.label, list(zip(grid.tolist(), angles.tolist())))


# Timestamp gaps from this size on may not convert to float64 exactly.
_EXACT_GAP = 2**53


def _aligned(a: AngleSeries, b: AngleSeries) -> tuple[np.ndarray, np.ndarray]:
    """The values of a inside the time range both series span, and b's
    values at their timestamps, b linearly interpolated."""
    lo = max(a.points[0][0], b.points[0][0])
    hi = min(a.points[-1][0], b.points[-1][0])
    if lo > hi:
        raise ValueError("series do not overlap in time")
    a_ts, a_vals = zip(*a.points)
    b_ts, b_vals = zip(*b.points)
    a_ts, b_ts = _int_column(a_ts), _int_column(b_ts)
    if object in (a_ts.dtype, b_ts.dtype) or b.points[-1][0] - b.points[0][0] >= _EXACT_GAP:
        # As Python ints: int / int rounds once, int64 -> float64 -> / twice.
        a_ts, b_ts = a_ts.astype(object), b_ts.astype(object)
    inside = (lo <= a_ts) & (a_ts <= hi)
    t = a_ts[inside]
    if not t.size:
        raise ValueError(f"no sample of the first series lies in the overlap {lo}..{hi} us")
    i = np.searchsorted(b_ts, t, "right") - 1
    hit = b_ts[i] == t
    j = np.minimum(i + 1, len(b_ts) - 1)
    t0, t1 = b_ts[i], b_ts[j]
    frac = ((t - t0) / np.where(hit, 1, t1 - t0)).astype(float)
    b_vals = np.array(b_vals, float)
    va, vb = b_vals[i], b_vals[j]
    with np.errstate(over="ignore", invalid="ignore"):
        value = va + (vb - va) * frac
        # vb - va overflows for large samples of opposite sign; this form cannot.
        value = np.where(np.isfinite(value), value, va * (1.0 - frac) + vb * frac)
    return np.array(a_vals, float)[inside], np.where(hit, va, value)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows: the angles are too large for a float")
    return value


def mae(a: AngleSeries, b: AngleSeries) -> float:
    """Mean absolute error of b against a, sampled at a's timestamps.

    b is linearly interpolated; only the overlapping time range counts.
    A result that overflows a float raises ValueError.
    """
    va, vb = _aligned(a, b)
    with np.errstate(over="ignore"):
        errors = np.abs(va - vb).tolist()
    try:
        total = math.fsum(errors)
    except OverflowError:  # fsum's partial sums left the float range
        total = math.inf
    return _finite(total / len(errors), "mean absolute error")


def _scaled(values: np.ndarray) -> np.ndarray:
    """values times a power of two that brings every magnitude under
    2**_PEARSON_EXP; values already under it are returned as given. The
    factor is exact and leaves Pearson's r as it is."""
    shift = _PEARSON_EXP - math.frexp(np.abs(values).max())[1]
    return values if shift >= 0 else np.ldexp(values, shift)


def pearson(a: AngleSeries, b: AngleSeries) -> float:
    """Pearson correlation of the two series on a's timestamps. A result
    that is not finite raises ValueError."""
    xs, ys = map(_scaled, _aligned(a, b))
    n = len(xs)
    dx = xs - math.fsum(xs.tolist()) / n
    dy = ys - math.fsum(ys.tolist()) / n
    cov = math.fsum((dx * dy).tolist())
    var_a = math.fsum(d ** 2 for d in dx.tolist())
    var_b = math.fsum(d ** 2 for d in dy.tolist())
    if var_a == 0.0 or var_b == 0.0:
        raise ValueError("correlation undefined: a series has zero variance")
    return _finite(cov / math.sqrt(var_a * var_b), "Pearson correlation")


class RateWindows:
    """One sensor's sliding half-open rate window [t - 1 s, t) at every
    t = first timestamp + 1 s + k * 0.1 s, counted as the timestamps arrive
    in order. It keeps the first and last timestamp, how many arrived (n),
    the timestamps a later window can still hold and the fewest timestamps
    any counted window held (None before the first)."""

    def __init__(self) -> None:
        self.first = self.last = self.n = 0
        self.fewest: int | None = None
        self._held = np.empty(0, np.int64)
        self._next_end: float = math.inf  # the first timestamp sets it

    def extend(self, ts: Sequence[int] | np.ndarray) -> None:
        """More timestamps, in order, none earlier than the last: a list,
        or an int64 column."""
        if not len(ts):
            return
        if not self.n:
            self.first = int(ts[0])
            self._next_end = self.first + RATE_WINDOW_US
        self._held = np.concatenate((self._held, ts))
        self.last = int(ts[-1])
        self.n += len(ts)

    def windows(self, end: float) -> list[tuple[int, int]]:
        """The windows not counted yet that end at or before end, as (window
        end, timestamps in it); no timestamp that arrives later may fall in
        them. The timestamps no later window holds are dropped."""
        t = self._next_end
        if not t <= end:
            return []
        k = int((end - t) // RATE_STEP_US) + 1
        ends = range(t, t + k * RATE_STEP_US, RATE_STEP_US)
        held = self._held
        edges = held.searchsorted([*ends, *(e - RATE_WINDOW_US for e in ends)]).tolist()
        counts = list(map(sub, edges[:k], edges[k:]))
        self._next_end = t + k * RATE_STEP_US
        self.fewest = min(counts) if self.fewest is None else min(self.fewest, *counts)
        self._held = held[held.searchsorted(self._next_end - RATE_WINDOW_US):]
        return list(zip(ends, counts))


def rate_series(frames: Sequence[RecordingFrame] | RecordingColumns,
                end_us: int | None = None) -> dict[int, list[tuple[int, float]]]:
    """Per-sensor delivery rate in Hz over a sliding half-open 1 s window,
    from a recording (its RecordingColumns, or its frames in timestamp
    order): the window [t - 1 s, t) every 0.1 s from first timestamp + 1 s
    up to end_us (default: that sensor's last one)."""
    rates = {}
    for sensor, (ts, _) in sorted(_as_columns(frames).streams.items()):
        counter = RateWindows()
        counter.extend(ts)
        rates[sensor] = [(t, n * 1e6 / RATE_WINDOW_US)
                         for t, n in counter.windows(counter.last if end_us is None else end_us)]
    return rates
