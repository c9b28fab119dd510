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

Every run streams: the protocol loop hands its rows and frames to a sink
once per simulated second, and the sink checks and folds them into the
session's metrics (protocol.SessionFold). With an output directory the
sink also appends them to recording.csv and session_trace.csv and writes
radio_trace.csv a window at a time. No list of every row or frame is
built, so a run's artifacts carry the metrics but no trace or frames.

Both traces are ordered by (time_us, source). Each handoff ends one
radio_trace.csv window: the rows before the last time_us handed over so
far, and the interferer bursts that start before it (the last window:
the rows left and the bursts at or before the session's end), as column
views from InterferenceField.windows(). A window's lines are put in order
with one stable sort on (time_us, source), protocol rows first on a tie.
That is the order of a merge of the two ordered inputs, and no Burst or
list of every burst is built. Protocol rows are type-checked row by row;
each lane's constant burst cells are checked once. Every file is written
through pipeline.open_csv, write_csv or write_json.
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
# write_recording and session_metrics are not called here, but perfbench's
# span table resolves them in runner: a traced run raises KeyError without them.
from .pipeline import (ANGLE_CSV, RECORDING_CSV, CsvSchema, ParseError, RecordingFrame,
                       file_slug, nine_digits, open_csv, write_csv, write_json,
                       write_recording)
from .protocol import (SessionFold, TraceRow, ble_baseline_run, master_run,
                       session_metrics)
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


@dataclass
class RunArtifacts:
    scenario: Scenario
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
    if field is None:
        field = scenario_field(sc)

    def sampler(sensor: int, t_us: float) -> Quaternion:
        return body.reading(sensor, t_us / 1e6)

    fold = SessionFold()
    with ExitStack() as stack:
        sink = fold.add if out is None else _SessionFiles(stack, out, field,
                                                          sc.duration_s * 1e6, fold)
        if sc.protocol_kind == "cw":
            result = master_run(sc.roster, sc.duration_s, sampler, field, sc.seed,
                                timing=sc.timing, policy=sc.policy, p_floor=sc.p_floor,
                                initial_channel=sc.initial_channel, sink=sink)
        else:
            result = ble_baseline_run(sc.roster, sc.duration_s, sampler, field,
                                      sc.seed, p_floor=sc.p_floor, sink=sink)
        if out is not None:
            sink.close()
    return RunArtifacts(sc, body, calib, fold.metrics(result))


class _RadioTrace:
    """The lines of radio_trace.csv after its header, from protocol rows
    handed over in session order: protocol rows and the interferer bursts
    that start at or before end_us, ordered by (time_us, source), protocol
    rows first on a tie. Each handoff gives the lines before the last
    time_us handed over; rows of that time wait for the next one."""

    def __init__(self, field: InterferenceField, end_us: float) -> None:
        self._take = field.windows(end_us)
        self._sources = field.sources
        self._tails = [(s, None, s.split(":")[0], "busy") for s in self._sources]
        # Starts and durations come from float64 columns through tolist(): floats.
        self._formats = [RADIO_TRACE_CSV.row_format((0.0, 0.0, *tail)) for tail in self._tails]
        self._rows: list[TraceRow] = []  # rows of the last time_us handed over

    def lines(self, rows: list[TraceRow]) -> Iterator[str]:
        """The lines of the window that rows complete: the rows and bursts
        before the last time_us handed over so far."""
        pending = self._rows
        pending += rows
        if not pending:
            return iter(())
        cut = pending[-1].time_us
        b = len(pending)
        while b and pending[b - 1].time_us == cut:
            b -= 1
        window = pending[:b]
        del pending[:b]
        return self._window(window, self._take(cut))

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


class _SessionFiles:
    """The sink of a session written to disk: folds its metrics into fold
    and writes recording.csv, session_trace.csv and radio_trace.csv into
    out as rows and frames arrive. The files close with stack."""

    def __init__(self, stack: ExitStack, out: Path, field: InterferenceField,
                 end_us: float, fold: SessionFold) -> None:
        self._fold = fold
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

    def close(self) -> None:
        """Write the last radio_trace.csv window."""
        self._radio_file.writelines(self._radio.close())


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
    the rest of the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    art = execute(sc, out=out)
    write_json(out / "metrics.json", art.metrics)
    _write_ground_truth(art.body, sc, out)
    _write_session(sc, art.calibration, out / "session.json")
    return art
