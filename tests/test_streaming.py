"""Streamed sessions: the files run_scenario writes while the session runs
equal those built from a session run without a sink, the pieces that make
streaming possible keep the collected order, and memory does not grow with
the session's length."""

import gc
import itertools
import tempfile
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wearsim import protocol as pr
from wearsim import runner
from wearsim.pipeline import (RecordingFrame, ValidationError, joint_angle_series,
                              read_recording, write_csv, write_json, write_recording)
from wearsim.protocol import SessionResult, TraceRow, session_metrics
from wearsim.radio import Burst, EventScheduler, InterferenceField
from wearsim.runner import RADIO_TRACE_CSV, SESSION_TRACE_CSV, run_scenario
from wearsim.scenario import parse_scenario
from wearsim.skeleton import JOINTS, Skeleton

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
STREAMED = ("recording.csv", "session_trace.csv", "radio_trace.csv", "metrics.json")


def suit(duration_s: float, band: str, seed: int) -> dict:
    """A 12-sensor half-jacks cw session."""
    return {"session": {"duration_s": duration_s, "seed": seed},
            "motion": {"preset": "half-jacks", "params": {"sensors": 12}},
            "protocol": {"kind": "cw"}, "interference": {"preset": band}}


def collected_session(sc) -> tuple[SessionResult, InterferenceField]:
    """The scenario's session run without a sink, so the result holds every
    row and frame, and its interference field."""
    body, _ = runner.build_body(sc)
    field = runner.scenario_field(sc)

    def sampler(sensor, t_us):
        return body.reading(sensor, t_us / 1e6)

    if sc.protocol_kind == "cw":
        result = pr.master_run(sc.roster, sc.duration_s, sampler, field, sc.seed,
                               timing=sc.timing, policy=sc.policy, p_floor=sc.p_floor,
                               initial_channel=sc.initial_channel)
    else:
        result = pr.ble_baseline_run(sc.roster, sc.duration_s, sampler, field, sc.seed,
                                     p_floor=sc.p_floor)
    return result, field


def collected_files(sc, out: Path) -> None:
    """The streamed files, written from a collected session's lists; the
    radio trace is one sort of the rows and bursts."""
    result, field = collected_session(sc)
    write_recording(result.frames, out / "recording.csv")
    write_csv(out / "session_trace.csv", SESSION_TRACE_CSV, result.trace)
    write_csv(out / "radio_trace.csv", RADIO_TRACE_CSV, sorted_radio_rows(result, field))
    write_json(out / "metrics.json", session_metrics(result))


CASES = [(f"{p.stem}-{seed}", yaml.safe_load(p.read_text()), seed)
         for p in sorted(SCENARIOS.glob("*.yaml")) for seed in (0, 1, 2)]
CASES.append(("crowded-p12-10s", suit(10.0, "crowded", 3), 3))


@pytest.mark.parametrize("cfg, seed", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_streamed_files_equal_collected(tmp_path, cfg, seed):
    sc = parse_scenario(cfg, seed=seed)
    run_scenario(sc, tmp_path / "streamed")
    (tmp_path / "collected").mkdir()
    collected_files(sc, tmp_path / "collected")
    for name in STREAMED:
        assert ((tmp_path / "streamed" / name).read_bytes()
                == (tmp_path / "collected" / name).read_bytes()), name


def test_session_memory_does_not_grow_with_length():
    # A clean band keeps the interference field, which does grow, out of it.
    # Collecting first keeps earlier tests' cyclic garbage, which the
    # collector may or may not free inside the traced run, out of the peak.
    def peak_mb(duration_s: float) -> float:
        sc = parse_scenario(suit(duration_s, "clean", 5))
        with tempfile.TemporaryDirectory() as tmp:
            gc.collect()
            tracemalloc.start()
            try:
                run_scenario(sc, tmp)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    short, long = peak_mb(10.0), peak_mb(40.0)
    assert long / short < 1.5, (short, long)


def test_scheduler_steps_run_the_same_resumes():
    def runs(steps):
        log = []
        sched = EventScheduler()

        def proc(name, delays):
            for d in delays:
                log.append((sched.now, name))
                yield d

        sched.at(0.0, proc("a", [3.0, 0.0, 2.5] * 4), 1)
        sched.at(1.0, proc("b", [2.0, 1.5] * 6), 0)
        for t in steps:
            sched.advance(t)
        sched.run_until(20.0)
        return log

    assert runs([]) == runs([3.0, 3.0, 7.5, 11.0]) == runs([0.5 * k for k in range(40)])


# Frame order ---------------------------------------------------------------

def frame(ts: int, sensor: int, seq: int) -> RecordingFrame:
    return RecordingFrame(ts, sensor, seq, 1.0, 0.0, 0.0, 0.0, 3)


def session(frames) -> SessionResult:
    return SessionResult("cw", 1e6, (1, 2), frames, [], 0, 0, {}, [])


@pytest.mark.parametrize("frames, message", [
    ([frame(10, 1, 1), frame(20, 2, 1), frame(30, 1, 1)], "sensor 1 seq 1 does not increase"),
    ([frame(10, 1, 1), frame(30, 2, 1), frame(20, 1, 2)],
     "sensor 1 seq 2: timestamp 20 decreases"),
])
def test_metrics_fold_rejects_broken_frame_order(frames, message):
    with pytest.raises(ValidationError, match=message):
        session_metrics(session(frames))
    fold = pr.SessionFold()
    fold.add([], frames[:2])
    with pytest.raises(ValidationError, match=message):
        fold.add([], frames[2:])


@st.composite
def deliveries(draw):
    """Frames in nondecreasing timestamp order, in arrival order; each
    timestamp's sensors are distinct and arrive in any order."""
    out, seqs, ts = [], {}, 0
    for _ in range(draw(st.integers(0, 12))):
        ts += draw(st.integers(0, 3))
        for s in draw(st.lists(st.integers(1, 5), unique=True, max_size=5)):
            seqs[s] = seqs.get(s, 0) + 1
            out.append(frame(ts, s, seqs[s]))
    return out


@settings(max_examples=300, deadline=None)
@given(deliveries(), st.data())
def test_equal_timestamps_flush_in_sensor_order(frames, data):
    out: list = []
    ordered = pr._SensorOrder(out)
    collected = []
    for f in frames:
        ordered.add(f)
        if data.draw(st.booleans()):  # a handoff takes the frames passed on so far
            collected += out
            out.clear()
    ordered.flush()
    assert collected + out == sorted(frames, key=lambda f: (f.timestamp_us, f.sensor_id))


# radio_trace.csv windows ----------------------------------------------------

def sorted_radio_rows(result, field):
    """The radio trace as one list, stably sorted by (time_us, source)."""
    rows = [(r.time_us, r.duration_us, r.source, r.channel, r.kind, r.outcome)
            for r in result.trace]
    rows += [(b.start_us, b.duration_us, b.source, None, b.source.split(":")[0], "busy")
             for b in field.all_bursts() if b.start_us <= result.duration_us]
    rows.sort(key=lambda r: (r[0], r[2]))
    return rows


# Protocol sources, and lane sources that sort before, between and after
# them, match one of them, or hold a %.
PROTOCOL_SOURCES = ["master", "sensor:1", "sensor:10", "sensor:2"]
LANE_SOURCES = ["bt:0", "jam:5", "master", "n%s", "sensor", "sensor!", "sensor:10",
                "sensor:3", "wifi%%:1", "~%d"]
# A half-microsecond grid, so rows and bursts share starts, and a burst can
# start exactly at the session's end or just after it.
grid = st.integers(0, 24).map(lambda n: n / 2)


@st.composite
def radio_sessions(draw):
    """A small field built from bursts and a session whose trace is ordered
    by (time_us, source)."""
    bursts = []
    for source in draw(st.lists(st.sampled_from(LANE_SOURCES), unique=True, max_size=5)):
        t = draw(grid)
        for _ in range(draw(st.integers(0, 6))):
            d = draw(st.integers(1, 6).map(lambda n: n / 2))
            bursts.append(Burst(t, d, source, (2400.0, 2402.0)))
            t += d + draw(st.sampled_from([0.0, 0.25, 0.5, 2.0]))
    keys = sorted(draw(st.lists(st.tuples(grid, st.sampled_from(PROTOCOL_SOURCES)),
                                max_size=24)))
    trace = [TraceRow(t, 0.5, source, 7, "cw", "poll", 1, "delivered")
             for t, source in keys]
    result = SessionResult("cw", draw(grid), (1,), [], trace, 0, 0, {}, [])
    return result, InterferenceField(bursts)


@settings(max_examples=300, deadline=None)
@given(radio_sessions(), st.lists(st.integers(0, 9), max_size=8))
def test_streamed_radio_trace_equals_sort(session_, batches):
    result, field = session_
    trace = iter(result.trace)
    radio = runner._RadioTrace(field, result.duration_us)
    lines = []
    for n in batches:
        lines += radio.lines(list(itertools.islice(trace, n)))
    lines += radio.lines(list(trace))
    lines += radio.close()
    assert lines == list(RADIO_TRACE_CSV.lines(sorted_radio_rows(result, field)))


# Joint angles ---------------------------------------------------------------

def test_analyze_computes_each_sensor_pose_once(tmp_path, monkeypatch):
    sc = parse_scenario(suit(2.0, "clean", 1))
    run_scenario(sc, tmp_path)
    frames = read_recording(tmp_path / "recording.csv")
    calib, meta = runner.load_session(tmp_path / "session.json")
    skel = Skeleton.default()
    alone = [joint_angle_series(frames, calib, skel, JOINTS[j]) for j in meta["joints"]]

    import wearsim.pipeline as pl
    calls = []
    real = pl.sensor_poses
    monkeypatch.setattr(pl, "sensor_poses", lambda c, k, s, q: calls.append(s) or real(c, k, s, q))
    poses: dict = {}
    shared = [joint_angle_series(frames, calib, skel, JOINTS[j], poses) for j in meta["joints"]]
    assert shared == alone
    assert len(meta["joints"]) == 4 and sorted(calls) == sorted(set(calls)) and len(calls) == 6
