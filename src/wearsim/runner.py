"""Scenario execution: synthetic wearer, radio session, on-disk outputs.

A run writes one directory:

    recording.csv            delivered sensor frames
    session_trace.csv        every protocol transmission, one trace row per line
    radio_trace.csv          protocol rows merged with interferer bursts
                             (empty channel, outcome "busy")
    metrics.json             session summary statistics
    ground_truth_<joint>.csv noise-free joint angles at 100 Hz
    session.json             sidecar needed to re-derive angles offline
                             (placement, calibration pose, frozen q_calib)

Every run streams: the protocol loop hands its rows and frames to a sink
once per simulated second, and the sink checks and folds them into the
session's metrics (protocol.SessionFold). With an output directory the
sink also appends them to recording.csv and session_trace.csv and writes
radio_trace.csv a window at a time. No list of every row or frame is
built, so a run's artifacts carry the metrics but no trace or frames.

Both traces are ordered by (time_us, source). Each handoff ends one
radio_trace.csv window: the rows before the last time_us handed over so
far, and the interferer bursts that start before it (the last window:
the rows left and the bursts at or before the session's end), as columns
from InterferenceField.windows(). A window merges those two ordered
inputs: a searchsorted of the burst starts on the row times puts each
burst after the rows of its time whose source sorts at or before its
own. No Burst or list of every burst is built. A handoff's trace rows
are plain tuples in TraceRow's field order (protocol.Row), and its frames
plain tuples of their recording.csv cells (protocol.Frame), both read by
index. The sink checks and formats them once: the rows through
SESSION_TRACE_CSV, the frames in the fold (pipeline.FrameOrder) and through
RECORDING_CSV, each batch by one %-format (see pipeline.CsvSchema.lines).
A row's radio_trace.csv line is its line of the session_trace.csv text
without the frame_type and sensor_id cells, and every burst line takes
one fixed format. The ground truth is computed as numpy columns
(SyntheticBody.truth_joint_angles) and written _TRUTH_BATCH grid points
at a time, every 10 ms up to the last point in the session. Every file
is written through pipeline.open_csv, write_csv or write_json.

The interference field holds busy()'s index, drawn a time chunk at a
time as the session reaches it (see radio); the radio_trace.csv reader
draws the bursts afresh, one window at each handoff, and keeps none it
has handed over. When execute builds the field itself, as simulate
does, it drops at each handoff the index before the last row's time,
which the clock has passed. So a session holds about a chunk of
interference whatever its length. A field passed in, such as
protocol-bench's one per seed, which every protocol of the seed reads,
keeps its whole index.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .motion import SyntheticBody, random_offsets
# write_recording and session_metrics are not called here, but perfbench's
# span table resolves them in runner: a traced run raises KeyError without them.
from .pipeline import (ANGLE_CSV, FLOAT_FORMAT, RECORDING_CSV, CsvSchema, ParseError,
                       file_slug, int_cell, nine_digits, open_csv, write_csv, write_json,
                       write_recording)
from .protocol import (Frame, Row, SessionFold, TraceRow, ble_baseline_run, master_run,
                       session_metrics)
from .quatmath import Quaternion
from .radio import InterferenceField, build_field
from .scenario import MAX_DURATION_S, Scenario
from .skeleton import (SENSOR_BONES, BoneId, CalibrationPose, CalibrationRecord,
                       SensorPlacement, Skeleton, calibrate)

GROUND_TRUTH_HZ = 100.0
# Ground-truth grid points computed at once.
_TRUTH_BATCH = 1024
SESSION_TRACE_CSV = CsvSchema(*get_type_hints(TraceRow).items())
# A TraceRow's columns without frame_type and sensor_id. Interferer bursts
# have no channel: their cell is empty.
RADIO_TRACE_HEADER = "time_us,duration_us,source,channel,kind,outcome"
# A burst's line: its start and duration, then its lane's _BURST_TAIL of
# the lane's source and kind.
_BURST_FORMAT = f"{FLOAT_FORMAT},{FLOAT_FORMAT}%s"
_BURST_TAIL = ",%s,,%s,busy\n"


@dataclass
class RunArtifacts:
    body: SyntheticBody
    calibration: CalibrationRecord
    metrics: dict


def build_body(sc: Scenario) -> tuple[SyntheticBody, CalibrationRecord]:
    """Synthetic wearer plus the imperfect calibration taken before the run."""
    skel = Skeleton.default()
    offsets = random_offsets(sc.placement, sc.seed)
    body = SyntheticBody(sc.trajectory, skel, sc.placement, sc.noise, offsets)
    calib = calibrate(body.calibration_snapshot(), CalibrationPose.NEUTRAL,
                      sc.placement)
    return body, calib


def scenario_field(sc: Scenario) -> InterferenceField:
    """The scenario's interference field; it depends on the interferers and
    the duration only, so every protocol of one seed can share it."""
    duration_us = sc.duration_s * 1e6
    # Margin so bursts fully cover transmissions arbitrated near the end.
    return build_field(sc.interferers, duration_us + 100_000.0)


def execute(sc: Scenario, field: InterferenceField | None = None,
            out: Path | None = None) -> RunArtifacts:
    """Run the radio session and fold its metrics. field, when given, must
    be scenario_field(sc) or a field built the same way. With out, the
    session also streams into recording.csv, session_trace.csv and
    radio_trace.csv there; without it, nothing is written."""
    body, calib = build_body(sc)
    own_field = field is None
    if own_field:
        field = scenario_field(sc)

    def sampler(sensor: int, t_us: float) -> Quaternion:
        return body.reading(sensor, t_us / 1e6)

    fold = SessionFold(sc.duration_s * 1e6)
    with ExitStack() as stack:
        sink = fold.add if out is None else _SessionFiles(stack, out, field,
                                                          sc.duration_s * 1e6, fold)

        def hand_off(rows: list[Row], frames: list[Frame]) -> None:
            sink(rows, frames)
            if rows:
                # The clock has reached the last row's time; no later query
                # starts before it.
                field.drop(rows[-1][0])

        run_sink = hand_off if own_field else sink
        if sc.protocol_kind == "cw":
            result = master_run(sc.roster, sc.duration_s, sampler, field, sc.seed,
                                timing=sc.timing, policy=sc.policy, p_floor=sc.p_floor,
                                initial_channel=sc.initial_channel, sink=run_sink)
        else:
            result = ble_baseline_run(sc.roster, sc.duration_s, sampler, field,
                                      sc.seed, p_floor=sc.p_floor, sink=run_sink)
        if out is not None:
            sink.close()
    return RunArtifacts(body, calib, fold.metrics(result))


def _radio_lines(session_text: str) -> list[str]:
    """The radio_trace.csv lines of protocol rows, from their
    session_trace.csv text: each line without its frame_type and sensor_id
    cells. No cell of a row may hold a newline, and its frame_type and
    outcome no comma, as a cell of an unquoted CSV cannot."""
    cut = methodcaller("rsplit", ",", 3)
    lines = session_text.split("\n")
    del lines[-1]  # the empty rest after the last line
    return [f"{head},{outcome}\n" for head, _, _, outcome in map(cut, lines)]


class _RadioTrace:
    """The lines of radio_trace.csv after its header, from protocol rows
    handed over in session order with their session_trace.csv lines:
    protocol rows and the interferer bursts that start at or before end_us,
    ordered by (time_us, source), protocol rows first on a tie. Each
    handoff gives the lines before the last time_us handed over; rows of
    that time wait for the next one. The rows must fit SESSION_TRACE_CSV:
    the sink checks and formats them first."""

    def __init__(self, field: InterferenceField, end_us: float) -> None:
        self._take = field.windows(end_us)
        self._sources = field.sources
        self._tails = [_BURST_TAIL % (s, s.split(":")[0]) for s in self._sources]
        self._rows: list[Row] = []  # rows of the last time_us handed over
        self._proto: list[str] = []  # and their radio lines

    def lines(self, rows: list[Row], session_text: str) -> Iterator[str]:
        """The lines of the window that rows, whose session_trace.csv text
        is session_text, complete: the rows and bursts before the last
        time_us handed over so far."""
        pending, proto = self._rows, self._proto
        pending += rows
        proto += _radio_lines(session_text)
        if not pending:
            return iter(())
        cut = pending[-1][0]  # time_us
        b = len(pending)
        while b and pending[b - 1][0] == cut:
            b -= 1
        window, window_proto = pending[:b], proto[:b]
        del pending[:b], proto[:b]
        return self._window(window, window_proto, self._take(cut))

    def close(self) -> Iterator[str]:
        """The lines of the last window: the rows left and every burst left."""
        rows, self._rows = self._rows, []
        proto, self._proto = self._proto, []
        return self._window(rows, proto, self._take(math.inf))

    def _window(self, rows: list[Row], lines: list[str],
                bursts: tuple[np.ndarray, ...]) -> Iterator[str]:
        """The rows, whose radio lines are lines, merged with bursts."""
        starts, durations, lanes = bursts
        if not len(starts):
            return iter(lines)
        lines += map(_BURST_FORMAT.__mod__, zip(starts.tolist(), durations.tolist(),
                                                map(self._tails.__getitem__, lanes.tolist())))
        # Each burst goes before the first row of a later time_us, or of the
        # same time_us and a later source: protocol rows first on a tie.
        times = np.fromiter(map(itemgetter(0), rows), float, len(rows))
        at = np.searchsorted(times, starts)
        after = np.searchsorted(times, starts, "right")
        for i in np.flatnonzero(after > at).tolist():
            source = self._sources[lanes[i]]
            at[i] += sum(r[2] <= source for r in rows[at[i]:after[i]])  # r's source
        # Bursts placed before one row keep their (start, lane) order.
        order = np.insert(np.arange(len(rows)), at, np.arange(len(rows), len(lines)))
        return map(lines.__getitem__, order.tolist())


class _SessionFiles:
    """The sink of a session written to disk: folds its metrics into fold
    and writes recording.csv, session_trace.csv and radio_trace.csv into
    out as rows and frames arrive. The files close with stack."""

    def __init__(self, stack: ExitStack, out: Path, field: InterferenceField,
                 end_us: float, fold: SessionFold) -> None:
        self._fold = fold
        self._radio = _RadioTrace(field, end_us)
        self._recording, self._trace, self._radio_file = (
            stack.enter_context(open_csv(out / name, header))
            for name, header in (("recording.csv", RECORDING_CSV.header),
                                 ("session_trace.csv", SESSION_TRACE_CSV.header),
                                 ("radio_trace.csv", RADIO_TRACE_HEADER)))

    def __call__(self, rows: list[Row], frames: list[Frame]) -> None:
        self._fold.add(rows, frames)  # checks the frames before they are written
        self._recording.writelines(RECORDING_CSV.lines(frames))
        text = "".join(SESSION_TRACE_CSV.lines(rows))  # checks the rows for _radio
        self._trace.write(text)
        self._radio_file.writelines(self._radio.lines(rows, text))

    def close(self) -> None:
        """Write the last radio_trace.csv window."""
        self._radio_file.writelines(self._radio.close())


def _write_ground_truth(body: SyntheticBody, sc: Scenario, out_dir: Path) -> None:
    step = int(round(1e6 / GROUND_TRUTH_HZ))
    # The grid ends at the last t_us whose time t_us / 1e6 is in the session;
    # duration_s * 1e6 can round to either side of it.
    last = int(sc.duration_s * 1e6 // step) + 1
    while last * step / 1e6 > sc.duration_s:
        last -= 1
    times = range(0, last * step + 1, step)
    for label in sorted(sc.trajectory.joints):
        write_csv(out_dir / f"ground_truth_{file_slug(label)}.csv", ANGLE_CSV,
                  _truth_rows(body, label, times))


def _truth_rows(body: SyntheticBody, label: str, times: range) -> Iterator[tuple[int, float]]:
    """(t_us, ground-truth angle at t_us / 1e6) for each t_us of times,
    computed _TRUTH_BATCH at a time."""
    for i in range(0, len(times), _TRUTH_BATCH):
        batch = times[i:i + _TRUTH_BATCH]
        yield from zip(batch, body.truth_joint_angles(label, np.array(batch) / 1e6))


def _write_session(sc: Scenario, calib: CalibrationRecord, path: Path) -> None:
    data = {
        "calibration_pose": calib.pose.value,
        "duration_s": sc.duration_s,
        "joints": sorted(sc.trajectory.joints),
        "motion_preset": sc.motion_preset,
        "placement": {"name": sc.placement.name,
                      "sensors": {str(s): b.value
                                  for s, b in sorted(sc.placement.bones.items())}},
        "protocol": sc.protocol_kind,
        "q_calib": {str(s): list(map(nine_digits, q))
                    for s, q in sorted(calib.q_calib.items())},
        "seed": sc.seed,
    }
    write_json(path, data)


def load_session(path: str | Path) -> tuple[CalibrationRecord, dict]:
    """Rebuild the calibration record from a session.json sidecar, through
    calibrate, so that every sensor of its placement is calibrated; check
    its metadata."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        sensors, q_calib = data["placement"]["sensors"], data["q_calib"]
        for key, value in (("placement.sensors", sensors), ("q_calib", q_calib)):
            if not isinstance(value, dict):
                raise TypeError(f"{key} must be a mapping, got {value!r}")
            # A sensor key is str() of an id in 1..12, as _write_session writes it.
            for k in value:
                if int_cell(k) not in SENSOR_BONES:
                    raise ValueError(f"{key} key {k!r} is not a sensor id in 1..12")
        name = data["placement"]["name"]
        if not isinstance(name, str):
            raise TypeError(f"placement.name must be a string, got {name!r}")
        for k, v in q_calib.items():
            if not (isinstance(v, list) and len(v) == 4 and all(
                    isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)):
                raise TypeError(f"q_calib[{k!r}] must be a list of 4 numbers, got {v!r}")
        placement = SensorPlacement(name, {int(k): BoneId(v) for k, v in sensors.items()})
        calib = calibrate({int(k): Quaternion(*map(float, v)) for k, v in q_calib.items()},
                          CalibrationPose(data["calibration_pose"]), placement)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"session file {path}: {exc}") from None
    joints = data.get("joints", [])
    if not (isinstance(joints, list) and all(isinstance(j, str) for j in joints)
            and len(set(joints)) == len(joints)):
        raise ParseError(f"session file {path}: joints must be a list of distinct "
                         f"joint labels, got {joints!r}")
    duration = data.get("duration_s", 1.0)
    if (isinstance(duration, bool) or not isinstance(duration, (int, float))
            or not 0 < duration <= MAX_DURATION_S):
        raise ParseError(f"session file {path}: duration_s must be a number in "
                         f"(0, {MAX_DURATION_S:g}], got {duration!r}")
    return calib, data


def run_scenario(sc: Scenario, out_dir: str | Path) -> RunArtifacts:
    """Execute a scenario, streaming it into the output directory, and write
    the rest of the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    art = execute(sc, out=out)
    write_json(out / "metrics.json", art.metrics)
    _write_ground_truth(art.body, sc, out)
    _write_session(sc, art.calibration, out / "session.json")
    return art
