"""Scenario execution: synthetic wearer, radio session, on-disk outputs.

A run writes one directory:

    recording.csv            delivered sensor frames
    session_trace.csv        every protocol transmission, one TraceRow per line
    radio_trace.csv          protocol rows merged with interferer bursts
                             (empty channel, outcome "busy")
    metrics.json             session summary statistics
    ground_truth_<joint>.csv noise-free joint angles at 100 Hz
    session.json             sidecar needed to re-derive angles offline
                             (placement, calibration pose, frozen q_calib)

The session streams into its files: the protocol loop hands its rows and
frames to a sink once per simulated second. The sink checks and folds
them into the session's metrics (protocol.SessionFold), appends them to
recording.csv and session_trace.csv, and writes radio_trace.csv a window
at a time. No list of every row or frame is built, so run_scenario's
artifacts carry the metrics but no trace or frames. execute() without a
directory keeps both lists, and the same fold and window writer run over
them.

Both traces are ordered by (time_us, source). radio_trace.csv is written
in windows of a few thousand protocol rows, cut only where time_us
changes. Each window takes the interferer bursts that start before the
next window's first row (the last one: at or before the session's end) as
column views from InterferenceField.windows(), and puts its lines in
order with one stable sort on (time_us, source), protocol rows first on a
tie. That is the order of a merge of the two ordered inputs, and no
Burst or list of every burst is built. Protocol rows are type-checked
row by row; each lane's constant burst cells are checked once. Every file
is written through pipeline.open_csv, write_csv or write_json.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import ExitStack
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .motion import SyntheticBody, random_offsets
# write_recording is not called here, but perfbench's span table resolves
# runner.write_recording: a traced run raises KeyError without the name.
from .pipeline import (ANGLE_CSV, RECORDING_CSV, CsvSchema, ParseError, RecordingFrame,
                       file_slug, nine_digits, open_csv, write_csv, write_json,
                       write_recording)
from .protocol import (SessionFold, SessionResult, TraceRow, ble_baseline_run,
                       master_run, session_metrics)
from .quatmath import Quaternion
from .radio import InterferenceField, build_field
from .scenario import MAX_DURATION_S, Scenario
from .skeleton import (BoneId, CalibrationPose, CalibrationRecord, SensorPlacement,
                       Skeleton, calibrate)

GROUND_TRUTH_HZ = 100.0
SESSION_TRACE_CSV = CsvSchema(*get_type_hints(TraceRow).items())
# Interferer bursts have no channel: their cell is empty.
RADIO_TRACE_CSV = CsvSchema(("time_us", float), ("duration_us", float), ("source", str),
                            ("channel", int | None), ("kind", str), ("outcome", str))
# The radio_trace.csv cells of a TraceRow.
_RADIO_CELLS = itemgetter(0, 1, 2, 3, 4, 7)
# Protocol rows per radio_trace.csv window, before the cut moves past ties.
_WINDOW_ROWS = 4096


@dataclass
class RunArtifacts:
    scenario: Scenario
    body: SyntheticBody
    calibration: CalibrationRecord
    field: InterferenceField
    result: SessionResult
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
    """Run the radio session. field, when given, must be scenario_field(sc)
    or a field built the same way. With out, the session streams into
    recording.csv, session_trace.csv and radio_trace.csv there, and the
    result holds no rows or frames; without it, nothing is written."""
    body, calib = build_body(sc)
    if field is None:
        field = scenario_field(sc)

    def sampler(sensor: int, t_us: float) -> Quaternion:
        return body.reading(sensor, t_us / 1e6)

    with ExitStack() as stack:
        sink = None if out is None else _SessionFiles(stack, out, field, sc.duration_s * 1e6)
        if sc.protocol_kind == "cw":
            result = master_run(sc.roster, sc.duration_s, sampler, field, sc.seed,
                                timing=sc.timing, policy=sc.policy, p_floor=sc.p_floor,
                                initial_channel=sc.initial_channel, sink=sink)
        else:
            result = ble_baseline_run(sc.roster, sc.duration_s, sampler, field,
                                      sc.seed, p_floor=sc.p_floor, sink=sink)
        metrics = session_metrics(result) if sink is None else sink.finish(result)
    return RunArtifacts(sc, body, calib, field, result, metrics)


class _RadioTrace:
    """The lines of radio_trace.csv after its header, from protocol rows
    handed over in session order: protocol rows and the interferer bursts
    that start at or before end_us, ordered by (time_us, source), protocol
    rows first on a tie. Lines come out a window at a time, once the rows
    after the window's cut have arrived."""

    def __init__(self, field: InterferenceField, end_us: float) -> None:
        self._take = field.windows(end_us)
        self._sources = field.sources
        self._tails = [(s, None, s.split(":")[0], "busy") for s in self._sources]
        # Starts and durations come from float64 columns through tolist(): floats.
        self._formats = [RADIO_TRACE_CSV.row_format((0.0, 0.0, *tail)) for tail in self._tails]
        self._rows: list[TraceRow] = []  # rows of windows not cut yet

    def lines(self, rows: list[TraceRow]) -> Iterator[str]:
        """The lines of the windows that rows complete."""
        pending = self._rows
        pending += rows
        windows = []
        a = 0
        while True:
            b = a + _WINDOW_ROWS
            while b < len(pending) and pending[b].time_us == pending[b - 1].time_us:
                b += 1
            if b >= len(pending):
                break
            windows.append((pending[a:b], self._take(pending[b].time_us)))
            a = b
        del pending[:a]
        return itertools.chain.from_iterable(itertools.starmap(self._window, windows))

    def close(self) -> Iterator[str]:
        """The lines of the last window: the rows left and every burst left."""
        rows, self._rows = self._rows, []
        return self._window(rows, self._take(math.inf))

    def _window(self, rows: list[TraceRow], lanes: list[tuple[np.ndarray, np.ndarray]]
                ) -> Iterator[str]:
        proto = RADIO_TRACE_CSV.lines(map(_RADIO_CELLS, rows))
        if not any(len(starts) for starts, _ in lanes):
            return proto
        lines = list(proto)
        for (starts, durations), fmt, tail in zip(lanes, self._formats, self._tails):
            lines += map(fmt.__mod__, zip(starts.tolist(), durations.tolist(),
                                          *map(itertools.repeat, tail)))
        rank = {s: i for i, s in enumerate(sorted(set(map(itemgetter(2), rows))
                                                  .union(self._sources)))}
        times = np.concatenate([[r.time_us for r in rows], *(s for s, _ in lanes)])
        ranks = np.concatenate([[rank[r.source] for r in rows],
                                np.repeat([rank[s] for s in self._sources],
                                          [len(s) for s, _ in lanes])])
        return map(lines.__getitem__, np.lexsort((ranks, times)).tolist())


def _radio_trace_lines(result: SessionResult, field: InterferenceField) -> Iterator[str]:
    """radio_trace.csv's lines after its header for a session's collected rows."""
    radio = _RadioTrace(field, result.duration_us)
    yield from radio.lines(result.trace)
    yield from radio.close()


class _SessionFiles:
    """The sink of a streamed session: folds its metrics and writes
    recording.csv, session_trace.csv and radio_trace.csv into out as rows
    and frames arrive. The files close with stack."""

    def __init__(self, stack: ExitStack, out: Path, field: InterferenceField,
                 end_us: float) -> None:
        self._fold = SessionFold()
        self._radio = _RadioTrace(field, end_us)
        self._recording = stack.enter_context(open_csv(out / "recording.csv", RECORDING_CSV))
        self._trace = stack.enter_context(open_csv(out / "session_trace.csv",
                                                   SESSION_TRACE_CSV))
        self._radio_file = stack.enter_context(open_csv(out / "radio_trace.csv",
                                                        RADIO_TRACE_CSV))

    def __call__(self, rows: list[TraceRow], frames: list[RecordingFrame]) -> None:
        self._fold.add(rows, frames)  # checks the frames before they are written
        self._recording.writelines(RECORDING_CSV.lines(frames))
        self._trace.writelines(SESSION_TRACE_CSV.lines(rows))
        self._radio_file.writelines(self._radio.lines(rows))

    def finish(self, result: SessionResult) -> dict:
        """Write the last radio_trace.csv window; the session's metrics."""
        self._radio_file.writelines(self._radio.close())
        return self._fold.metrics(result)


def _write_ground_truth(body: SyntheticBody, sc: Scenario, out_dir: Path) -> None:
    step = int(round(1e6 / GROUND_TRUTH_HZ))
    times = range(0, int(sc.duration_s * 1e6 // step) * step + 1, step)
    for label in sorted(sc.trajectory.joints):
        write_csv(out_dir / f"ground_truth_{file_slug(label)}.csv", ANGLE_CSV,
                  ((t_us, body.truth_joint_angle(label, t_us / 1e6)) for t_us in times))


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
    """Rebuild the calibration record from a session.json sidecar; check its metadata."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        placement = SensorPlacement(
            data["placement"]["name"],
            {int(k): BoneId(v) for k, v in data["placement"]["sensors"].items()})
        pose = CalibrationPose(data["calibration_pose"])
        q_calib = {int(k): Quaternion(*map(float, v))
                   for k, v in data["q_calib"].items()}
    except (KeyError, TypeError, ValueError) as exc:
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
    return CalibrationRecord(pose, placement, q_calib), data


def run_scenario(sc: Scenario, out_dir: str | Path) -> RunArtifacts:
    """Execute a scenario, streaming it into the output directory, and write
    the rest of the directory. The artifacts hold no rows or frames."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    art = execute(sc, out=out)
    write_json(out / "metrics.json", art.metrics)
    _write_ground_truth(art.body, sc, out)
    _write_session(sc, art.calibration, out / "session.json")
    return art
