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
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
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


# The cells FrameOrder checks: timestamp_us, sensor_id, seq.
_ORDER_CELLS = itemgetter(0, 1, 2)


class FrameOrder:
    """The stream invariants of a recording, checked over frames handed in
    batches: timestamps never decrease and each sensor's seq strictly
    increases. first_line > 0 numbers the frames as file lines from
    first_line on; 0 means frames in memory, reported without line numbers.
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

    def _fail(self, i: int, sensor: int, seq: int, broken: str) -> NoReturn:
        where = f"line {self._line + i}: " if self._line else ""
        raise ValidationError(f"{where}sensor {sensor} seq {seq}{broken}")


def write_recording(frames: Sequence[RecordingFrame], path: str | Path) -> None:
    """Write frames as CSV. The stream invariants are checked first."""
    FrameOrder().check(frames)
    write_csv(path, RECORDING_CSV, frames)


def read_recording(path: str | Path) -> list[RecordingFrame]:
    """Parse and validate a recording CSV. Lines end where str.splitlines
    ends them: at \\n, \\r and \\r\\n, and also at \\v, \\f, \\x1c-\\x1e,
    \\x85, \\u2028 and \\u2029.

    The lines are parsed _WRITE_BATCH at a time, as columns (_batch_frames).
    A batch that misses any of that path's checks is parsed again a line
    at a time (_line_frames), which raises, naming the first bad line and
    its error.
    """
    frames: list[RecordingFrame] = []
    with open(path, encoding="utf-8", newline="") as fh:
        lines = itertools.chain.from_iterable(line.splitlines() for line in fh)
        if next(lines, None) != RECORDING_CSV.header:
            raise ParseError(f"line 1: expected header {RECORDING_CSV.header!r}")
        n = 2
        while batch := list(itertools.islice(lines, _WRITE_BATCH)):
            frames += _batch_frames(batch) or _line_frames(batch, n)
            n += len(batch)
    FrameOrder(first_line=2).check(frames)
    return frames


# A recording line as _batch_frames takes it: 8 cells, the int cells as
# str() writes an int, the status in 0..3.
_PLAIN_LINE = re.compile("(?:0|-?[1-9][0-9]*)," * 3 + "[^,]*," * 4 + "[0-3]")
_CELL_KINDS = [kind for _, kind in RECORDING_CSV.columns]


def _batch_frames(lines: list[str]) -> list[RecordingFrame] | None:
    """The frames of lines, parsed a column at a time, or None if a line
    misses _PLAIN_LINE, a float cell is not read by float(), a timestamp is
    outside _TS_MIN.._TS_MAX or a quaternion is not unit within _UNIT_TOL."""
    if not all(map(_PLAIN_LINE.fullmatch, lines)):
        return None
    cells = ",".join(lines).split(",")
    try:
        columns = [list(map(kind, cells[i::8])) for i, kind in enumerate(_CELL_KINDS)]
    except ValueError:
        return None
    ts = columns[0]
    if not (_TS_MIN <= min(ts) and max(ts) <= _TS_MAX):
        return None
    w, x, y, z = map(np.array, columns[3:7])
    with np.errstate(over="ignore"):  # a huge component overflows to inf, and fails
        norm = np.sqrt(w * w + x * x + y * y + z * z)
    if not (np.abs(norm - 1.0) <= _UNIT_TOL).all():
        return None
    return list(map(tuple.__new__, itertools.repeat(RecordingFrame), zip(*columns)))


def _line_frames(lines: list[str], first: int) -> NoReturn:
    """Raise ParseError naming the first line of lines, numbered as file
    lines from first, that the checked RecordingFrame constructor refuses.
    lines is a batch that _batch_frames refused, which it does exactly when
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


def joint_angle_series(frames: Sequence[RecordingFrame], calib: CalibrationRecord,
                       skel: Skeleton, joint: JointSpec,
                       poses: dict[int, tuple[np.ndarray, QuadColumns]] | None = None
                       ) -> AngleSeries:
    """Joint angle over time from a recording.

    Sensor streams are asynchronous, so the series is evaluated on the
    union of the two sensors' timestamps with latest-sample-hold; it
    starts once both sensors have delivered at least one sample.

    poses, when given, keeps each sensor's (timestamps, bone poses) from
    these frames across calls, so that joints sharing a sensor compute
    its poses once.
    """
    sensors = calib.placement.joint_sensors(joint)
    poses = {} if poses is None else poses
    streams: dict[int, list[RecordingFrame]] = {s: [] for s in sensors if s not in poses}
    if streams:
        for f in frames:
            if f.sensor_id in streams:
                streams[f.sensor_id].append(f)
    for s, fs in streams.items():
        if not fs:
            raise ValueError(f"recording has no frames for sensor {s} ({joint.label!r})")
    # Each frame's bone pose is computed once, then held from its timestamp on.
    for s, fs in streams.items():
        ts, _, _, *q, _ = zip(*fs)
        poses[s] = (np.array(ts, np.int64),
                    sensor_poses(calib, skel, s, tuple(np.array(c, float) for c in q)))
    (p_ts, p_poses), (c_ts, c_poses) = (poses[s] for s in sensors)
    start = max(p_ts[0], c_ts[0])
    grid = np.union1d(p_ts[p_ts >= start], c_ts[c_ts >= start])
    p_held = np.searchsorted(p_ts, grid, "right") - 1
    c_held = np.searchsorted(c_ts, grid, "right") - 1
    angles = shortest_angle_deg_columns(tuple(c[p_held] for c in p_poses),
                                        tuple(c[c_held] for c in c_poses))
    return AngleSeries(joint.label, list(zip(grid.tolist(), angles.tolist())))


def _interp(points: Sequence[tuple[int, float]], ts: Sequence[int], t: float) -> float:
    """Value of `points` at t, which lies within `ts`, their timestamps."""
    i = bisect_right(ts, t) - 1
    if ts[i] == t:
        return points[i][1]
    frac = (t - ts[i]) / (ts[i + 1] - ts[i])
    a, b = points[i][1], points[i + 1][1]
    value = a + (b - a) * frac
    # b - a overflows for large samples of opposite sign; this form cannot.
    return value if math.isfinite(value) else a * (1.0 - frac) + b * frac


def _aligned(a: AngleSeries, b: AngleSeries) -> list[tuple[float, float]]:
    lo = max(a.points[0][0], b.points[0][0])
    hi = min(a.points[-1][0], b.points[-1][0])
    if lo > hi:
        raise ValueError("series do not overlap in time")
    ts = [p[0] for p in b.points]
    pairs = [(va, _interp(b.points, ts, t)) for t, va in a.points if lo <= t <= hi]
    if not pairs:
        raise ValueError(f"no sample of the first series lies in the overlap {lo}..{hi} us")
    return pairs


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows: the angles are too large for a float")
    return value


def mae(a: AngleSeries, b: AngleSeries) -> float:
    """Mean absolute error of b against a, sampled at a's timestamps.

    b is linearly interpolated; only the overlapping time range counts.
    A result that overflows a float raises ValueError.
    """
    pairs = _aligned(a, b)
    try:
        total = math.fsum(abs(va - vb) for va, vb in pairs)
    except OverflowError:  # fsum's partial sums left the float range
        total = math.inf
    return _finite(total / len(pairs), "mean absolute error")


def _scaled(values: list[float]) -> list[float]:
    """values times a power of two that brings every magnitude under
    2**_PEARSON_EXP; values already under it are returned as given. The
    factor is exact and leaves Pearson's r as it is."""
    shift = _PEARSON_EXP - math.frexp(max(map(abs, values)))[1]
    return values if shift >= 0 else [math.ldexp(v, shift) for v in values]


def pearson(a: AngleSeries, b: AngleSeries) -> float:
    """Pearson correlation of the two series on a's timestamps. A result
    that is not finite raises ValueError."""
    pairs = _aligned(a, b)
    n = len(pairs)
    xs = _scaled([va for va, _ in pairs])
    ys = _scaled([vb for _, vb in pairs])
    ma = math.fsum(xs) / n
    mb = math.fsum(ys) / n
    cov = math.fsum((va - ma) * (vb - mb) for va, vb in zip(xs, ys))
    var_a = math.fsum((va - ma) ** 2 for va in xs)
    var_b = math.fsum((vb - mb) ** 2 for vb in ys)
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
        self._held = array("q")
        self._next_end: float = math.inf  # the first timestamp sets it

    def add(self, ts: int) -> None:
        """One more timestamp, no earlier than the last."""
        if not self.n:
            self.first, self._next_end = ts, ts + RATE_WINDOW_US
        self._held.append(ts)
        self.last = ts
        self.n += 1

    def windows(self, end: int) -> list[tuple[int, int]]:
        """The windows not counted yet that end at or before end, as (window
        end, timestamps in it); no timestamp that arrives later may fall in
        them. The timestamps no later window holds are dropped."""
        held, t = self._held, self._next_end
        counted = []
        while t <= end:
            counted.append((t, bisect_left(held, t) - bisect_left(held, t - RATE_WINDOW_US)))
            t += RATE_STEP_US
        self._next_end = t
        for _, n in counted:
            if self.fewest is None or n < self.fewest:
                self.fewest = n
        del held[:bisect_left(held, t - RATE_WINDOW_US)]
        return counted


def rate_series(frames: Sequence[RecordingFrame],
                end_us: int | None = None) -> dict[int, list[tuple[int, float]]]:
    """Per-sensor delivery rate in Hz over a sliding half-open 1 s window,
    from frames in timestamp order: the window [t - 1 s, t) every 0.1 s from
    first timestamp + 1 s up to end_us (default: that sensor's last one)."""
    counters: defaultdict[int, RateWindows] = defaultdict(RateWindows)
    for f in frames:
        counters[f.sensor_id].add(f.timestamp_us)
    return {sensor: [(t, n * 1e6 / RATE_WINDOW_US)
                     for t, n in c.windows(c.last if end_us is None else end_us)]
            for sensor, c in sorted(counters.items())}
