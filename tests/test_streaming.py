"""Streamed sessions: the files run_scenario writes while the session runs
equal those built from a session run without a sink, the pieces that make
streaming possible keep the collected order, and memory does not grow with
the session's length."""

import contextlib
import gc
import io
import itertools
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wearsim import protocol as pr
from wearsim import radio, runner
from wearsim.cli import main
from wearsim.pipeline import (RateWindows, RecordingColumns, RecordingFrame, ValidationError,
                              joint_angle_series, open_csv, rate_series, read_recording,
                              write_csv, write_json, write_recording)
from wearsim.protocol import SessionResult, TraceRow, session_metrics
from wearsim.radio import Burst, InterferenceField
from wearsim.runner import RADIO_TRACE_HEADER, SESSION_TRACE_CSV, run_scenario
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
    with open_csv(out / "radio_trace.csv", RADIO_TRACE_HEADER) as fh:
        fh.writelines(map(csv_line, sorted_radio_rows(result, field)))
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


@pytest.mark.parametrize("protocol", ["cw", "ble-baseline"])
def test_dropping_field_writes_the_bytes_of_a_kept_one(tmp_path, monkeypatch, protocol):
    # 0.5 s chunks: a 2.6 s session's field has five. run_scenario's own
    # field drops what its handoffs pass; a field passed in keeps it all.
    monkeypatch.setattr(radio, "_CHUNK_US", 5e5)
    cfg = suit(2.6, "crowded", 7)
    cfg["protocol"]["kind"] = protocol
    if protocol == "ble-baseline":
        cfg["motion"] = {"preset": "arm-raise"}  # five sensors
    sc = parse_scenario(cfg)
    built, build = [], runner.scenario_field
    monkeypatch.setattr(runner, "scenario_field", lambda sc: built.append(build(sc)) or built[-1])
    art = run_scenario(sc, tmp_path / "dropping")
    dropping, = built
    band = radio.wifi_band_mhz(6)
    # The last handoff's rows end after 2 s.
    with pytest.raises(ValueError, match="was dropped"):
        dropping.busy(band, 2e6, 2e6 + 1.0)
    kept = build(sc)
    (tmp_path / "kept").mkdir()
    assert runner.execute(sc, kept, tmp_path / "kept").metrics == art.metrics
    kept.busy(band, 0.0, 1.0)  # a field passed in still answers from t=0
    for name in STREAMED[:3]:
        assert ((tmp_path / "dropping" / name).read_bytes()
                == (tmp_path / "kept" / name).read_bytes()), name


def test_int_us_per_byte_streams_the_bytes_of_a_float(tmp_path):
    # TimingProfile(us_per_byte=4), as the library takes it, gives each row
    # the float air time of 4.0, and so the same files.
    sc = parse_scenario(suit(1.5, "crowded", 4))
    for us_per_byte in (4.0, 4):
        run_scenario(replace(sc, timing=pr.TimingProfile(us_per_byte=us_per_byte)),
                     tmp_path / repr(us_per_byte))
    for name in STREAMED:
        assert ((tmp_path / "4.0" / name).read_bytes()
                == (tmp_path / "4" / name).read_bytes()), name


def test_session_memory_does_not_grow_with_length(monkeypatch):
    # A crowded band, its field drawn in 2 s chunks: 6 s and 24 s sessions
    # span 3 and 12 chunks. Collecting first keeps earlier tests' cyclic
    # garbage, which the collector may or may not free inside the traced
    # run, out of the peak.
    monkeypatch.setattr(radio, "_CHUNK_US", 2e6)

    def peak_mb(duration_s: float) -> float:
        sc = parse_scenario(suit(duration_s, "crowded", 5))
        with tempfile.TemporaryDirectory() as tmp:
            gc.collect()
            tracemalloc.start()
            try:
                run_scenario(sc, tmp)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    short, long = peak_mb(6.0), peak_mb(24.0)
    assert long / short < 1.5, (short, long)


def test_analysis_memory_grows_by_its_columns(tmp_path):
    # analyze and compare hold a recording as typed columns, about 40 B a
    # frame, where a tuple per frame took about 270. Each command runs once
    # untraced first, so that caches filled by a first call stay out of the
    # traced peaks.
    def peak(argv: list[str]) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    frames, peaks = [], []
    for duration_s in (5.0, 20.0):
        out = tmp_path / str(duration_s)
        metrics = run_scenario(parse_scenario(suit(duration_s, "crowded", 5)), out).metrics
        frames.append(sum(st["recorded"] for st in metrics["per_sensor"].values()))
        commands = (["analyze", "--recording", str(out / "recording.csv"),
                     "--out", str(tmp_path / "analysis")],
                    ["compare", str(out / "recording.csv"),
                     str(out / "ground_truth_left_shoulder.csv"), "--joint", "left shoulder"])
        if not peaks:
            for argv in commands:
                peak(argv)
        peaks.append([peak(argv) for argv in commands])
    added = frames[1] - frames[0]
    per_frame = [(long - short) / added for short, long in zip(*peaks)]
    assert added > 6000 and max(per_frame) <= 128, (frames, peaks)


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
    fold = pr.SessionFold(1e6)
    fold.add([], frames[:2])
    with pytest.raises(ValidationError, match=message):
        fold.add([], frames[2:])


@st.composite
def sensor_streams(draw):
    """Frames of up to three sensors in timestamp order, with gaps from
    none to over a window, cut into handoff batches, and a session end
    that may fall before, between or after the frames, off the grid."""
    frames, seqs, ts = [], {}, draw(st.integers(0, 2_000_000))
    for _ in range(draw(st.integers(0, 60))):
        ts += draw(st.sampled_from([0, 1, 30_000, 99_999, 100_000, 250_000, 1_000_000,
                                    1_500_000]))
        sensor = draw(st.integers(1, 3))
        seqs[sensor] = seqs.get(sensor, 0) + 1
        frames.append(frame(ts, sensor, seqs[sensor]))
    cuts = sorted(draw(st.lists(st.integers(0, len(frames)), max_size=6)))
    batches = [frames[a:b] for a, b in zip([0, *cuts], [*cuts, len(frames)])]
    end = draw(st.integers(0, ts + 3_000_000)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
    if frames and draw(st.booleans()):
        # On a window end of one sensor: its first timestamp + 1 s + k * 0.1 s.
        first = draw(st.sampled_from(frames)).timestamp_us
        end = first + 1_000_000 + 100_000 * draw(st.integers(0, 40))
    return batches, end


def brute_windows(ts, end):
    """(t, count) of each window [t - 1 s, t) for t = ts[0] + 1 s + k * 0.1 s
    up to end, each counted over all of ts."""
    out = []
    t = ts[0] + 1_000_000
    while t <= end:
        out.append((t, sum(t - 1_000_000 <= x < t for x in ts)))
        t += 100_000
    return out


@settings(max_examples=300, deadline=None)
@given(sensor_streams())
def test_fold_rates_equal_window_rates_over_all_timestamps(stream):
    batches, end = stream
    fold = pr.SessionFold(end)
    for batch in batches:
        fold.add([], batch)
    got = fold.metrics(SessionResult("cw", end, (1, 2, 3), [], [], 0, 0, {}, []))
    lasts = []
    for s in (1, 2, 3):
        ts = [f.timestamp_us for batch in batches for f in batch if f.sensor_id == s]
        mean = 0.0
        if len(ts) >= 2 and ts[-1] > ts[0]:
            mean = (len(ts) - 1) / ((ts[-1] - ts[0]) / 1e6)
        low = 0.0
        if ts:
            low = min((n * 1e6 / 1_000_000 for _, n in brute_windows(ts, int(end))),
                      default=float(len(ts)))
            lasts.append(ts[-1])
        figures = got["per_sensor"][str(s)]
        assert (figures["recorded"], figures["mean_rate_hz"], figures["min_window_rate_hz"]) \
            == (len(ts), mean, low), s
    assert got["max_skew_us"] == (max(lasts) - min(lasts) if lasts else 0)


@settings(max_examples=300, deadline=None)
@given(sensor_streams())
def test_rate_windows_in_batches_count_as_one_batch(stream):
    # Fed batch by batch and counted up to each batch's last timestamp, as
    # SessionFold does, a counter gives the windows, first, last, count and
    # fewest (so recorded, mean rate and minimum window rate) of one batch.
    batches, end = stream
    end = int(end)
    for s in (1, 2, 3):
        parts = [[f.timestamp_us for f in batch if f.sensor_id == s] for batch in batches]
        ts = list(itertools.chain.from_iterable(parts))
        if not ts:
            continue
        split, whole = RateWindows(), RateWindows()
        windows = []
        for part in filter(None, parts):
            split.extend(part)  # a list, as SessionFold hands it
            windows += split.windows(min(split.last, end))
        windows += split.windows(end)
        whole.extend(np.array(ts, np.int64))  # a column, as rate_series hands it
        assert windows == whole.windows(end) == brute_windows(ts, end)
        fewest = min((n for _, n in windows), default=None)
        assert ((split.first, split.last, split.n, split.fewest)
                == (whole.first, whole.last, whole.n, whole.fewest)
                == (ts[0], ts[-1], len(ts), fewest))


def per_frame_rates(frames, end_us):
    """rate_series' figures from one RateWindows per sensor fed a frame at a
    time, its windows counted up to each frame as they come."""
    counters: dict[int, RateWindows] = {}
    windows: dict[int, list] = {}
    for f in frames:
        counter = counters.setdefault(f.sensor_id, RateWindows())
        counter.extend([f.timestamp_us])
        end = counter.last if end_us is None else min(counter.last, end_us)
        windows.setdefault(f.sensor_id, []).extend(counter.windows(end))
    return {s: [(t, n * 1e6 / 1_000_000) for t, n in
                windows[s] + c.windows(c.last if end_us is None else end_us)]
            for s, c in sorted(counters.items())}


# Sensor 1: frames from 0 to 3 s; sensor 2: one frame at 1.25 s.
FEW = [frame(0, 1, 1), frame(1_250_000, 2, 1), frame(2_000_000, 1, 2), frame(3_000_000, 1, 3)]


@settings(max_examples=150, deadline=None)
@given(sensor_streams(), st.booleans())
# The session end before the last timestamp, on it, after it, and none.
@example(([FEW], 1_500_000.0), False)
@example(([FEW], 3_000_000.0), False)
@example(([FEW], 4_100_000.0), False)
@example(([FEW], 0.0), True)
def test_rate_series_equals_per_frame_feeding(stream, default_end):
    # Each sensor's column in one call, against a counter fed frame by frame.
    batches, end = stream
    frames = [f for batch in batches for f in batch]
    end_us = None if default_end else int(end)
    want = per_frame_rates(frames, end_us)
    assert rate_series(frames, end_us) == want
    with tempfile.TemporaryDirectory() as tmp:
        write_recording(frames, Path(tmp) / "recording.csv")
        assert rate_series(RecordingColumns.read(Path(tmp) / "recording.csv"), end_us) == want
    for s in {f.sensor_id for f in frames}:
        stamps = [f.timestamp_us for f in frames if f.sensor_id == s]
        brute = brute_windows(stamps, stamps[-1] if end_us is None else end_us)
        assert want[s] == [(t, n * 1e6 / 1_000_000) for t, n in brute]


# radio_trace.csv windows ----------------------------------------------------

def csv_line(row) -> str:
    """row's CSV line by the cell rule, apart from the library's formats: None
    is empty, a float has 9 significant digits, anything else is its str()."""
    return ",".join("" if c is None else format(c, ".9g") if isinstance(c, float) else str(c)
                    for c in row) + "\n"


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


def hand_session(rows, bursts, end_us):
    """A session of poll rows at each (time_us, source) of rows, and a field
    of 1 us bursts at each (start_us, source) of bursts."""
    trace = [TraceRow(t, 0.5, source, 7, "cw", "poll", 1, "delivered") for t, source in rows]
    field = InterferenceField(Burst(t, 1.0, source, (2400.0, 2402.0)) for t, source in bursts)
    return SessionResult("cw", end_us, (1,), [], trace, 0, 0, {}, []), field


# Rows at 1.0 us from two sources, and bursts at that time from sources that
# sort before, between and after them or equal one: a full tie puts the row
# first. Equal starts in several lanes, and a burst at and after the end.
TIED = hand_session([(0.5, "sensor:2"), (1.0, "master"), (1.0, "sensor:10"), (2.0, "sensor:2")],
                    [(1.0, "bt:0"), (1.0, "master"), (1.0, "sensor"), (1.0, "sensor:10"),
                     (1.0, "~%d"), (2.0, "jam:5"), (2.0, "sensor:3"), (2.5, "n%s")], 2.0)


@settings(max_examples=300, deadline=None)
@given(radio_sessions(), st.lists(st.integers(0, 9), max_size=8))
@example(TIED, [])
# Handoffs that cut on the tied time, and empty windows between them.
@example(TIED, [2])
@example(TIED, [2, 0, 1, 0])
@example(TIED, [0, 3])
# Only bursts, and only rows.
@example(hand_session([], [(0.0, "bt:0"), (0.0, "jam:5")], 1.0), [0, 0])
@example(hand_session([(0.0, "master"), (0.0, "sensor:1")], [], 1.0), [1, 0])
def test_streamed_radio_trace_equals_sort(session_, batches):
    result, field = session_
    trace = iter(result.trace)
    radio = runner._RadioTrace(field, result.duration_us)

    def hand(rows):
        # The sink hands each batch over with its session_trace.csv text.
        return radio.lines(rows, "".join(SESSION_TRACE_CSV.lines(rows)))

    lines = []
    for n in batches:
        lines += hand(list(itertools.islice(trace, n)))
    lines += hand(list(trace))
    lines += radio.close()
    assert lines == list(map(csv_line, sorted_radio_rows(result, field)))


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
