"""Output formats, recording persistence and analysis metrics.

Every output file is written here: write_csv for each CSV kind (or
open_csv, for lines written as they become known), write_json for each
JSON report. A CSV cell is empty for None, a float to 9 significant
digits (the nine_digits grid) and str() of anything else.
Each CSV kind has a CsvSchema: its column names and the one type each
column holds. The schema turns that rule into one %-format per row shape,
so a row is formatted by one `%` and a cell of the wrong type is refused
instead of written in another format.

A recording is a flat stream of per-sensor quaternion samples. On disk
it is a plain CSV with a fixed header:

    timestamp_us,sensor_id,seq,qw,qx,qy,qz,status

RecordingFrame.quantized rounds components to the 9-digit grid, so write
followed by read reproduces frames exactly and a rewrite of a read file
is byte-identical.

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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO, get_args

from .quatmath import Quaternion, shortest_angle_deg, unit4
# animate_frame is not called here, but perfbench's span table resolves
# pipeline.animate_frame: a traced run raises KeyError without the name.
from .skeleton import (CalibrationRecord, JointSpec, Skeleton, animate_frame,
                       sensor_poses)

_UNIT_TOL = 1e-6
# Width of the sliding window of rate_series.
RATE_WINDOW_US = 1_000_000
# pearson brings each series under 2**_PEARSON_EXP, so that its squared
# deviations, their sums and the product of two such sums stay finite.
_PEARSON_EXP = 201


class RecordingError(ValueError):
    """Base for recording file problems."""


class ParseError(RecordingError):
    """A row (or the header) is malformed."""


class ValidationError(RecordingError):
    """Rows parse but violate a stream invariant."""


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def nine_digits(x: float) -> float:
    """x on the grid of a written CSV cell: 9 significant digits."""
    return float(_cell(x))


def file_slug(label: str) -> str:
    """A joint label as it appears in output file names."""
    return label.replace(" ", "_")


def _cell_format(kind: type) -> str:
    """The %-format that writes a value of type kind as _cell does."""
    if kind is NoneType:
        return "%.0s"  # None as the empty string
    return "%.9g" if kind is float else "%s"


class CsvSchema:
    """Column names and cell types of one CSV kind.

    Each column is given as (name, type); `int | None` marks a column that
    may be empty. A row is a tuple with one cell per column, each of exactly
    one of its column's types (a bool is not an int), and is written by one
    %-format.
    """

    def __init__(self, *columns: tuple[str, type | UnionType]) -> None:
        # (name, accepted cell types) per column.
        self.columns = tuple((name, get_args(kind) if isinstance(kind, UnionType) else (kind,))
                             for name, kind in columns)
        self.names = tuple(name for name, _ in columns)
        self.header = ",".join(self.names)
        # One format per accepted tuple of cell types.
        self._formats = {shape: ",".join(map(_cell_format, shape)) + "\n"
                         for shape in itertools.product(*(k for _, k in self.columns))}

    def lines(self, rows: Iterable[tuple]) -> Iterator[str]:
        """Each row as one line of text. The first row that does not fit
        raises TypeError before any of it is formatted."""
        formats = self._formats
        for n, row in enumerate(rows, start=1):
            fmt = formats.get(tuple(map(type, row)))
            if fmt is None:
                raise TypeError(f"{self.header} row {n}: {self._misfit(row)}")
            yield fmt % row

    def row_format(self, row: tuple) -> str:
        """The %-format that writes every row of row's shape: the types of
        its cells. TypeError if row does not fit."""
        fmt = self._formats.get(tuple(map(type, row)))
        if fmt is None:
            raise TypeError(f"{self.header}: {self._misfit(row)}")
        return fmt

    def _misfit(self, row: tuple) -> str:
        if len(row) != len(self.columns):
            return f"expected {len(self.columns)} cells, got {len(row)}: {row!r}"
        name, kinds, value = next((name, kinds, value)
                                  for (name, kinds), value in zip(self.columns, row)
                                  if type(value) not in kinds)
        return (f"column {name!r} holds {' or '.join(k.__name__ for k in kinds)}, "
                f"got {type(value).__name__} {value!r}")


RECORDING_CSV = CsvSchema(("timestamp_us", int), ("sensor_id", int), ("seq", int),
                          ("qw", float), ("qx", float), ("qy", float), ("qz", float),
                          ("status", int))
ANGLE_CSV = CsvSchema(("time_us", int), ("angle_deg", float))


@contextmanager
def open_csv(path: str | Path, schema: CsvSchema) -> Iterator[TextIO]:
    """path open for writing, the schema's header line written: the caller
    writes lines the schema formatted, as they become known."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(schema.header + "\n")
        yield fh


def write_csv(path: str | Path, schema: CsvSchema, rows: Iterable[tuple]) -> None:
    """Write the schema's header line, then one line per row."""
    with open_csv(path, schema) as fh:
        fh.writelines(schema.lines(rows))


def write_json(path: str | Path, data) -> None:
    """Write data as indented JSON with sorted keys and a final newline. A NaN
    or infinity raises ValueError: JSON has no such number."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


class RecordingFrame(namedtuple("RecordingFrame",
                                "timestamp_us sensor_id seq qw qx qy qz status")):
    """One delivered sensor sample: the tuple of its RECORDING_CSV cells.

    The constructor checks that the quaternion is unit within _UNIT_TOL and
    the status is in 0..3; _make is the unchecked path.
    """

    __slots__ = ()

    def __new__(cls, timestamp_us: int, sensor_id: int, seq: int, qw: float, qx: float,
                qy: float, qz: float, status: int) -> "RecordingFrame":
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN component fails it too
            raise ValueError(f"quaternion norm {norm:.9f} is not unit within {_UNIT_TOL}")
        if not 0 <= status <= 3:
            raise ValueError(f"status {status} outside 0..3")
        return tuple.__new__(cls, (timestamp_us, sensor_id, seq, qw, qx, qy, qz, status))

    @staticmethod
    def quantized(timestamp_us: int, sensor_id: int, seq: int,
                  q: Quaternion, status: int = 3) -> "RecordingFrame":
        """Build a frame with components rounded to the serialized grid."""
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
    """Parse and validate a recording CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORDING_CSV.header:
        raise ParseError(f"line 1: expected header {RECORDING_CSV.header!r}")
    frames: list[RecordingFrame] = []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError(f"line {n}: expected 8 fields, got {len(parts)}")
        try:
            frame = RecordingFrame(int(parts[0]), int(parts[1]), int(parts[2]),
                                   float(parts[3]), float(parts[4]),
                                   float(parts[5]), float(parts[6]), int(parts[7]))
        except ValueError as exc:
            raise ParseError(f"line {n}: {exc}") from exc
        frames.append(frame)
    FrameOrder(first_line=2).check(frames)
    return frames


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
                t, value = int(cells[0]), float(cells[1])
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
                       poses: dict[int, tuple[list[int], list[Quaternion]]] | None = None
                       ) -> AngleSeries:
    """Joint angle over time from a recording.

    Sensor streams are asynchronous, so the series is evaluated on the
    union of the two sensors' timestamps with latest-sample-hold; it
    starts once both sensors have delivered at least one sample.

    poses, when given, keeps each sensor's (timestamps, bone poses) from
    these frames across calls, so that joints sharing a sensor compute
    its poses once.
    """
    sensors = (calib.placement.sensor_on(joint.parent_bone),
               calib.placement.sensor_on(joint.child_bone))
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
        poses[s] = ([f.timestamp_us for f in fs],
                    sensor_poses(calib, skel, s, (unit4(f.qw, f.qx, f.qy, f.qz) for f in fs))[1])
    (p_ts, p_poses), (c_ts, c_poses) = (poses[s] for s in sensors)
    start = max(p_ts[0], c_ts[0])
    grid = sorted({t for t in itertools.chain(p_ts, c_ts) if t >= start})
    return AngleSeries(joint.label, [
        (t, shortest_angle_deg(p_poses[bisect_right(p_ts, t) - 1],
                               c_poses[bisect_right(c_ts, t) - 1]))
        for t in grid])


def _interp(points: Sequence[tuple[int, float]], ts: Sequence[int], t: float) -> float:
    """Value of `points` at t; `ts` holds their timestamps."""
    i = bisect_right(ts, t) - 1
    if i < 0 or t > ts[-1]:
        raise ValueError(f"t={t} outside series range {ts[0]}..{ts[-1]}")
    if ts[i] == t or i + 1 >= len(points):
        return points[i][1]
    frac = (t - ts[i]) / (ts[i + 1] - ts[i])
    a, b = points[i][1], points[i + 1][1]
    value = a + (b - a) * frac
    # b - a overflows for large samples of opposite sign; this form cannot.
    return value if math.isfinite(value) else a * (1.0 - frac) + b * frac


def _aligned(a: AngleSeries, b: AngleSeries) -> list[tuple[float, float]]:
    lo = max(a.points[0][0], b.points[0][0])
    hi = min(a.points[-1][0], b.points[-1][0])
    ts = [p[0] for p in b.points]
    pairs = [(va, _interp(b.points, ts, t)) for t, va in a.points if lo <= t <= hi]
    if lo > hi or not pairs:
        raise ValueError("series do not overlap in time")
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


def rate_series(frames: Sequence[RecordingFrame],
                end_us: int | None = None) -> dict[int, list[tuple[int, float]]]:
    """Per-sensor delivery rate in Hz over a sliding half-open 1 s window.

    The window [t - 1 s, t) is evaluated every 0.1 s from first timestamp
    + 1 s up to end_us (default: that sensor's last timestamp).
    """
    per_sensor: dict[int, list[int]] = {}
    for f in frames:
        per_sensor.setdefault(f.sensor_id, []).append(f.timestamp_us)
    return {sensor: window_rates(sorted(ts), end_us)
            for sensor, ts in sorted(per_sensor.items())}


def window_rates(ts: Sequence[int], end_us: int | None = None) -> list[tuple[int, float]]:
    """rate_series of one sensor, from its timestamps in order (at least one)."""
    end = ts[-1] if end_us is None else end_us
    series: list[tuple[int, float]] = []
    t = ts[0] + RATE_WINDOW_US
    while t <= end:
        count = bisect_left(ts, t) - bisect_left(ts, t - RATE_WINDOW_US)
        series.append((t, count * 1e6 / RATE_WINDOW_US))
        t += 100_000
    return series
