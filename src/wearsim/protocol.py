"""Master-slave polling over 2.4 GHz with adaptive channel hopping.

One master beacons on three fixed sync channels, polls each wearable in
a fixed TDMA order on the current data channel, and hops along a seeded
permutation of the data channels when a streak of losses coincides with
a busy carrier. Slaves never transmit unsolicited: each answers its own
poll slot, follows announced hops, probes forward along the shared hop
chain when the master goes quiet, and falls back to scanning the sync
channels after the resync timeout.

A connection-based baseline in the style of a BLE link layer runs the
same sensors as independent links with per-event retries and supervision
resets; it is the comparison point for the polling design. Each of its
frames is one entry of the scheduler in radio.py, at the frame's end,
where its outcome and the link's next frame are known; the link is
sampled as that next frame is queued. Its frames can overlap one
another, so it judges that itself before radio.arbitrate, from each
channel's starts that a frame not judged yet can overlap.

The master, a cw session's one process, is one straight-line loop on
its own clock, each frame one radio.arbitrate call and one trace row;
the baseline is one loop over its scheduler's entries. So two runs with
equal seeds produce byte-identical results.

Both loops append trace rows and frames to lists in session order, and
hand them over a simulated second at a time. A trace row is a plain
tuple in TraceRow's field order (Row), a frame a plain tuple of its
recording.csv cells (Frame), and readers take their cells by index. A
sink takes each second's rows and frames, so no session is held whole;
without one a run returns the whole lists, made TraceRows and checked
RecordingFrames once at the end. The baseline's deliveries arrive in
time order; it hands them off at whole seconds of their timestamps, so
those that round to the same microsecond leave together, and sorts each
batch by timestamp and sensor. A frame carries the sampler's quaternion
as it is: the loops format and parse no value, and the 9-digit cell of
recording.csv is the frame's one rounding. SessionFold folds the metrics
batch by batch, as a sink or over the lists (session_metrics), keeping
about the last second of each sensor's timestamps, and checks each frame
(pipeline.FrameOrder): its cells by the RecordingFrame constructor's
rule, timestamps never decrease and each sensor's seq strictly
increases. So a bad frame raises at its handoff, before a sink writes it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter, defaultdict, deque
from contextlib import suppress
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from . import radio
from . import randomness as rnd
from .bounds import MAX_DURATION_MS, MAX_DURATION_US, check_fields, key
# rate_series is not called here, but perfbench's span table resolves
# protocol.rate_series: a traced run raises KeyError without the name.
from .pipeline import RATE_WINDOW_US, FrameOrder, RateWindows, RecordingFrame, rate_series
from .quatmath import Quaternion
from .radio import CHANNEL_BANDS, DATA_CHANNELS, SYNC_CHANNELS, InterferenceField

Sampler = Callable[[int, float], Quaternion]

# Defaults of the session settings a scenario may override.
DEFAULT_INITIAL_CHANNEL = 40
DEFAULT_P_FLOOR = 0.0


class ConfigError(ValueError):
    """Session configuration that cannot run."""


@dataclass(frozen=True)
class TimingProfile:
    """Air and turnaround times of the polling link.

    The radio runs at 2 Mbps, so one byte takes 4 us of air. A complete
    successful slot is poll + response + ack with three turnarounds and
    a guard: 708 us, followed by the host-side cost of ingesting the
    sample. The poll cap bounds the per-sensor rate from above.
    """

    us_per_byte: float = key(4.0, 0, MAX_DURATION_US, open_lo=True, unit="us/byte")
    poll_bytes: int = key(12, 1)
    response_bytes: int = key(32, 1)
    beacon_bytes: int = key(16, 1)
    hop_bytes: int = key(12, 1)
    ack_bytes: int = key(8, 1)
    # Waits of the master: a negative one would run its clock backwards.
    turnaround_us: float = key(150.0, 0, MAX_DURATION_US, unit="us")
    guard_us: float = key(50.0, 0, MAX_DURATION_US, unit="us")
    host_cost_us: float = key(1400.0, 0, MAX_DURATION_US, unit="us")
    # A cap period of at least 1 us moves the clock every cycle, however
    # short the waits.
    poll_cap_hz: float = key(60.0, 0, 1e6, open_lo=True, unit="Hz")
    # Below 1 us the scan-channel index of a long session overflows.
    beacon_interval_ms: float = key(20.0, 1e-3, MAX_DURATION_MS, unit="ms")
    resync_timeout_ms: float = key(200.0, 0, MAX_DURATION_MS, open_lo=True, unit="ms")

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def resync_us(self) -> float:
        return self.resync_timeout_ms * 1000.0

    @property
    def scan_dwell_us(self) -> float:
        # Twice the beacon interval, so a full dwell on one sync channel
        # always contains at least one beacon burst.
        return 2.0 * self.beacon_interval_ms * 1000.0


@dataclass(frozen=True)
class HopPolicy:
    """When and where the master changes data channel."""

    # Bounded by their rule below.
    loss_threshold: int = key(3)
    loss_window: int = key(8)
    announce_repeats: int = key(3, 1)
    # assess_us is a wait of the master; a slave's probe walk starts
    # probe_gap_ms into a silence and steps every walk_dwell_ms, and below
    # 1 us the step count of a long silence overflows.
    assess_us: float = key(2000.0, 0, MAX_DURATION_US, unit="us")
    probe_gap_ms: float = key(35.0, 0, MAX_DURATION_MS, unit="ms")
    walk_dwell_ms: float = key(20.0, 1e-3, MAX_DURATION_MS, unit="ms")

    def __post_init__(self) -> None:
        check_fields(self)
        if not 1 <= self.loss_threshold <= self.loss_window:
            raise ValueError(f"require 1 <= loss_threshold <= loss_window, got loss_threshold "
                             f"{self.loss_threshold} and loss_window {self.loss_window}")


class TraceRow(NamedTuple):
    """One transmission as seen by the session log; fields in CSV column order.
    The row type of a run without a sink, built once at the end from the
    loop's plain tuples (see Row)."""

    time_us: float
    duration_us: float
    source: str
    channel: int
    kind: str
    frame_type: str
    sensor_id: int
    outcome: str


# A trace row as the loops build it and a sink takes it: a plain tuple of
# TraceRow's cells in its field order. A TraceRow's generated __new__ is a
# Python function, and the collector keeps tracking a tuple subclass, but
# not a tuple of floats, ints and strs.
Row = tuple[float, float, str, int, str, str, int, str]
# A frame as the loops build it and a sink takes it: a plain tuple of a
# RecordingFrame's cells, unchecked until SessionFold checks its batch.
Frame = tuple[int, int, int, float, float, float, float, int]
# Takes the rows and frames that a session produced since its last call, in
# session order. The lists are emptied after each call: copy what you keep.
Sink = Callable[[list[Row], list[Frame]], None]
# Simulated time between two handoffs to a sink.
_HANDOFF_US = 1_000_000.0


class HopSequencer:
    """Walks a seeded permutation of the data channels, one position per hop.

    Both ends derive the same chain from the session seed, so a slave
    that knows the master's last position can predict the next channels.
    """

    def __init__(self, seed: int, channel: int) -> None:
        order = rnd.stream(seed, rnd.PROTOCOL).permutation(len(DATA_CHANNELS))
        self.chain: list[int] = [DATA_CHANNELS[i] for i in order]
        # The trace's channel column holds an int, and a bool is not one.
        if type(channel) is not int:
            raise ConfigError(f"channel {channel!r} is not an int")
        if channel not in self.chain:
            raise ConfigError(f"channel {channel} is not a data channel")
        self.current = channel
        self.cursor = self.chain.index(channel)

    def preview(self) -> tuple[int, int]:
        """The next channel and its chain position; the state does not move."""
        pos = (self.cursor + 1) % len(self.chain)
        return self.chain[pos], pos

    def advance(self) -> int:
        self.current, self.cursor = self.preview()
        return self.current


class SlaveUnit:
    """Receiver-side state of one wearable.

    Slaves hold no timers of their own; the channel they listen on is a
    pure function of the last master frame they heard and the current
    time, so the simulation evaluates them lazily at each transmission.
    """

    def __init__(self, timing: TimingProfile, policy: HopPolicy,
                 chain: Sequence[int]) -> None:
        self._chain = list(chain)
        self._dwell = timing.scan_dwell_us
        self._resync = timing.resync_us
        self._probe_gap = policy.probe_gap_ms * 1000.0
        self._walk = policy.walk_dwell_ms * 1000.0
        self.phase = "scanning"
        self.scan_start_us = 0.0
        self.channel: int | None = None
        self.chain_pos = 0
        self.last_heard_us = 0.0
        # True once a data-channel frame arrived; a fresh joiner has no
        # polling rhythm to lose, so it holds the announced channel
        # instead of probing when its first poll is slow to come.
        self.rhythm = False
        self.seq = 0
        self.resyncs = 0

    def listening_channel(self, t_us: float) -> int:
        if self.phase == "synced":
            silence = t_us - self.last_heard_us
            if silence > self._resync:
                # Gave up on the data channel; rescan for beacons.
                self.phase = "scanning"
                self.scan_start_us = self.last_heard_us + self._resync
                self.resyncs += 1
            elif silence <= self._probe_gap or not self.rhythm:
                return self.channel
            else:
                # Assume a missed hop: walk forward along the chain.
                steps = 1 + int((silence - self._probe_gap) // self._walk)
                return self._chain[(self.chain_pos + steps) % len(self._chain)]
        idx = int((t_us - self.scan_start_us) // self._dwell) % len(SYNC_CHANNELS)
        return SYNC_CHANNELS[idx]

    def hears(self, start_us: float, end_us: float, channel: int) -> bool:
        """Tuned to this channel for the whole frame."""
        return (self.listening_channel(start_us) == channel
                and self.listening_channel(end_us) == channel)

    def heard_master(self, channel: int, chain_pos: int, t_end_us: float,
                     rhythm: bool = True) -> None:
        self.phase = "synced"
        self.channel = channel
        self.chain_pos = chain_pos
        self.last_heard_us = t_end_us
        self.rhythm = rhythm


@dataclass
class SessionResult:
    """Everything a protocol run produced."""

    protocol: str
    duration_us: float
    roster: tuple[int, ...]
    frames: list[RecordingFrame]
    trace: list[TraceRow]
    hop_count: int
    resync_count: int
    host_dropped: dict[int, int]
    channel_history: list[tuple[float, int]]


def _check_session(roster: Sequence[int], limit: int,
                   duration_s: float) -> tuple[tuple[int, ...], float]:
    """The roster's sensor ids and the session length in us."""
    ids = tuple(int(s) for s in roster)
    if not 1 <= len(ids) <= limit:
        raise ConfigError(f"roster size {len(ids)} outside 1..{limit}")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"roster {ids} repeats a sensor id")
    for s in ids:
        if not 1 <= s <= 12:
            raise ConfigError(f"sensor id {s} outside 1..12")
    if not 0 < duration_s < math.inf:
        raise ConfigError(f"duration_s must be positive and finite, got {duration_s}")
    return ids, duration_s * 1e6


def _hand_off(sink: Sink | None, trace: list[Row], frames: list[Frame]) -> None:
    if sink is not None:
        sink(trace, frames)
        trace.clear()
        frames.clear()


class _SessionOver(Exception):
    """The master's clock passed the session's end."""


def master_run(roster: Sequence[int], duration_s: float, sampler: Sampler,
               field: InterferenceField, seed: int, *,
               timing: TimingProfile | None = None,
               policy: HopPolicy | None = None,
               p_floor: float = DEFAULT_P_FLOOR,
               initial_channel: int = DEFAULT_INITIAL_CHANNEL,
               sink: Sink | None = None) -> SessionResult:
    """Run one polling session and return its frames, trace, and counters.
    With a sink, the rows and frames go to it as the session runs, and the
    result's lists are empty. The master is one loop on its own clock, now;
    wait() moves it, one addition per delay (a sum of two can round
    differently), hands off each whole second below the end that it passes
    and ends the session at the first wait past the end."""
    timing = timing or TimingProfile()
    policy = policy or HopPolicy()
    ids, duration_us = _check_session(roster, 12, duration_s)
    seq = HopSequencer(seed, initial_channel)
    slaves = {s: SlaveUnit(timing, policy, seq.chain) for s in ids}
    names = {s: f"sensor:{s}" for s in ids}
    joined = {s: False for s in ids}
    last_ok = {s: -math.inf for s in ids}
    loss: deque[bool] = deque(maxlen=policy.loss_window)
    floor_rng = rnd.stream(seed, rnd.FLOOR) if p_floor > 0 else None
    # Each row's duration is one of these floats, not a new one; an int
    # us_per_byte gives the same floats.
    poll_air, response_air, ack_air, beacon_air, hop_air = (
        float(timing.us_per_byte * n)
        for n in (timing.poll_bytes, timing.response_bytes, timing.ack_bytes,
                  timing.beacon_bytes, timing.hop_bytes))
    turnaround, guard, assess_us = timing.turnaround_us, timing.guard_us, policy.assess_us
    poll_wait, hop_wait = poll_air + turnaround, hop_air + turnaround
    ack_tail = ack_air + turnaround + guard + timing.host_cost_us
    resync_us, cap_period = timing.resync_us, 1e6 / timing.poll_cap_hz
    beacon_gap = timing.beacon_interval_ms * 1000.0

    now, handoff = 0.0, _HANDOFF_US
    stop = min(handoff, duration_us)
    frames: list[Frame] = []
    trace: list[Row] = []
    channel_history: list[tuple[float, int]] = [(0.0, seq.current)]

    def wait(delay: float) -> None:
        nonlocal now, handoff, stop
        now = now + delay
        if now > stop:
            while handoff < now and handoff < duration_us:
                _hand_off(sink, trace, frames)
                handoff += _HANDOFF_US
            if now > duration_us:
                raise _SessionOver
            stop = min(handoff, duration_us)

    def send(source: str, frame_type: str, sensor_id: int, air: float, ch: int,
             listeners: Sequence[int] = (), follow: tuple[int, int] = (0, 0)) -> list[int] | None:
        """Log a hop announce, beacon or join sent now; each listener tuned to
        ch for all of it moves to follow (channel, chain position). Returns
        those listeners, or None if the frame was lost."""
        outcome = radio.arbitrate(now, air, CHANNEL_BANDS[ch], field, p_floor, floor_rng)
        trace.append((now, air, source, ch, "cw", frame_type, sensor_id, outcome))
        if outcome != radio.DELIVERED:
            return None
        heard = [s for s in listeners if slaves[s].hears(now, now + air, ch)]
        for s in heard:
            # A beacon carries no polling rhythm.
            slaves[s].heard_master(*follow, now + air, frame_type != "beacon")
        return heard

    def assess() -> bool:
        """Listen to the current channel for assess_us; True if it was busy."""
        busy = field.busy(CHANNEL_BANDS[seq.current], now, now + assess_us)
        wait(assess_us)
        return busy

    def hop() -> None:
        seq.advance()
        channel_history.append((now, seq.current))

    with suppress(_SessionOver):
        # Leave a channel that is busy right now before inviting anyone.
        for _ in range(len(seq.chain)):
            if not assess():
                break
            hop()
        last_burst = -math.inf
        while now < duration_us:
            cycle_start = now
            for s in ids:
                if not joined[s]:
                    continue
                if now - last_ok[s] > resync_us:
                    joined[s] = False
                    continue
                slave, ch = slaves[s], seq.current
                band = CHANNEL_BANDS[ch]
                start, end = now, now + poll_air
                outcome = radio.arbitrate(start, poll_air, band, field, p_floor, floor_rng)
                trace.append((start, poll_air, "master", ch, "cw", "poll", s, outcome))
                heard = outcome == radio.DELIVERED and slave.hears(start, end, ch)
                if heard:
                    slave.heard_master(ch, seq.cursor, end)
                wait(poll_wait)
                delivered = False
                if heard:
                    slave.seq += 1
                    q = sampler(s, now)
                    start = now
                    outcome = radio.arbitrate(start, response_air, band, field, p_floor,
                                              floor_rng)
                    wait(response_air)
                    # Logged on completion: a response that the session end cuts off
                    # never reaches the master, so it is neither sent nor recorded.
                    trace.append((start, response_air, names[s], ch, "cw", "response", s,
                                  outcome))
                    if outcome == radio.DELIVERED:
                        delivered = True
                        frames.append((int(round(now)), s, slave.seq, *q, 3))
                        last_ok[s] = now
                else:
                    # Nothing came back; the master still waits out the slot.
                    wait(response_air)
                loss.append(delivered)
                if delivered:
                    wait(turnaround)
                    start, end = now, now + ack_air
                    outcome = radio.arbitrate(start, ack_air, band, field, p_floor, floor_rng)
                    trace.append((start, ack_air, "master", ch, "cw", "ack", s, outcome))
                    if outcome == radio.DELIVERED and slave.hears(start, end, ch):
                        slave.heard_master(ch, seq.cursor, end)
                    wait(ack_tail)
                else:
                    wait(guard)
                    # Hop only when the loss window tripped AND the carrier
                    # is actually busy; transient losses never cause a hop.
                    if loss.count(False) >= policy.loss_threshold and assess():
                        follow = seq.preview()
                        for _ in range(policy.announce_repeats):
                            send("master", "hop", 0, hop_air, seq.current, ids, follow)
                            wait(hop_wait)
                        wait(guard)
                        hop()
                if now >= duration_us:
                    raise _SessionOver
            if not all(joined.values()) and now - last_burst >= beacon_gap:
                last_burst = now
                pending = [s for s in ids if not joined[s]]
                for c in SYNC_CHANNELS:
                    heard = send("master", "beacon", 0, beacon_air, c, pending,
                                 (seq.current, seq.cursor)) or ()
                    wait(beacon_air)
                    for s in pending:
                        wait(turnaround)
                        if s in heard and send(names[s], "join", s, response_air, c) is not None:
                            joined[s] = True
                            last_ok[s] = now + response_air
                        wait(response_air)
                    wait(guard)
            wait(max(cycle_start + cap_period - now, 0.0))
    _hand_off(sink, trace, frames)
    resyncs = sum(sl.resyncs for sl in slaves.values())
    return SessionResult("cw", duration_us, ids, list(starmap(RecordingFrame, frames)),
                         list(map(TraceRow._make, trace)), len(channel_history) - 1, resyncs,
                         {s: 0 for s in ids}, channel_history)


# Connection-based baseline ------------------------------------------------

BLE_MAX_SENSORS = 5
_BLE_CHANNELS = 37
_BLE_INTERVAL_US = 15_000.0
_BLE_TX_US = 128.0
_BLE_RECONNECT_US = 1_000_000.0
_BLE_FAIL_LIMIT = 8
_HOST_RATE_HZ = 60.0
_HOST_BURST = 2.0


def csa1_next(channel: int, increment: int) -> int:
    """Next data channel of a link: (channel + increment) mod 37."""
    return (channel + increment) % _BLE_CHANNELS


def ble_center_mhz(channel: int) -> int:
    """Center frequency of a data channel, skipping the advertising gaps."""
    if not 0 <= channel < _BLE_CHANNELS:
        raise ValueError(f"data channel {channel} outside 0..36")
    if channel <= 10:
        return 2404 + 2 * channel
    return 2428 + 2 * (channel - 11)


# The occupied band of each BLE data channel, indexed by channel.
_BLE_BANDS = tuple((c - 1.0, c + 1.0) for c in map(ble_center_mhz, range(_BLE_CHANNELS)))


_STAMP_SENSOR = itemgetter(0, 1)  # a frame's timestamp_us, sensor_id


def ble_baseline_run(roster: Sequence[int], duration_s: float, sampler: Sampler,
                     field: InterferenceField, seed: int, *,
                     p_floor: float = DEFAULT_P_FLOOR,
                     sink: Sink | None = None) -> SessionResult:
    """Run the same sensors as independent connection-based links.

    Each link holds a 15 ms connection event cadence: a fresh sample is
    enqueued every event, the head of the queue gets one transmission
    attempt on the next channel of its hop sequence, and eight straight
    failures drop the link for a one-second reconnect that flushes the
    queue. Delivered samples pass a 60 Hz token-bucket host cap.

    Frames come in (timestamp_us, sensor_id) order: deliveries arrive in
    time order, a handoff comes at a whole second of their timestamps, so
    those that round to the same microsecond leave in one batch, and each
    batch is sorted. With a sink, the rows and frames go to it as the
    session runs, and the result's lists are empty.
    """
    ids, duration_us = _check_session(roster, BLE_MAX_SENSORS, duration_s)
    sched = radio.EventScheduler()
    frames: list[Frame] = []
    trace: list[Row] = []
    host_dropped = {s: 0 for s in ids}
    resyncs = 0
    floor_rng = rnd.stream(seed, rnd.FLOOR) if p_floor > 0 else None
    # Per channel, ascending: the starts that a frame not judged yet can overlap.
    on_air: list[list[float]] = [[] for _ in range(_BLE_CHANNELS)]
    # Per link: name, hop increment, queued samples, last seq, straight fails,
    # host tokens, their last refill, and its next frame's start and channel.
    names = {s: f"sensor:{s}" for s in ids}
    increment, queue, seq, fails, tokens, refilled, start, channel = ({} for _ in range(8))

    def schedule(s: int, t: float) -> None:
        """Sample link s's next frame at t and queue its end, if it starts
        before the session's end."""
        if t < duration_us:
            seq[s] += 1
            queue[s].append((seq[s], sampler(s, t)))
            start[s], channel[s] = t, csa1_next(channel[s], increment[s])
            insort(on_air[channel[s]], t)
            sched.at(t + _BLE_TX_US, s)

    for s in ids:
        rng = rnd.stream(seed, rnd.BLE, s)
        channel[s] = int(rng.integers(0, _BLE_CHANNELS))
        increment[s] = int(rng.integers(5, 17))
        queue[s], seq[s], fails[s], tokens[s], refilled[s] = deque(), 0, 0, _HOST_BURST, 0.0
        schedule(s, float(rng.uniform(0.0, _BLE_INTERVAL_US)))

    handoff = _HANDOFF_US

    def hand_off_before(t: float) -> None:
        """Hand off each whole second below t and the session's end, the
        frames in (timestamp_us, sensor_id) order."""
        nonlocal handoff
        while handoff < t and handoff < duration_us:
            if sink is not None:
                frames.sort(key=_STAMP_SENSOR)
                _hand_off(sink, trace, frames)
            handoff += _HANDOFF_US

    # Every frame lasts _BLE_TX_US, so frames are judged, at their ends, in
    # order of start.
    for end, s in sched.until(duration_us):
        hand_off_before(round(end))  # the frame's timestamp: no tie is split
        t, ch = start[s], channel[s]
        # Starts _BLE_TX_US or more before t overlap no frame judged from now
        # on; those left that are before this frame's end overlap it, t too.
        starts = on_air[ch]
        while starts[0] + _BLE_TX_US <= t:
            del starts[0]
        if bisect_left(starts, t + _BLE_TX_US) > 1:
            outcome = radio.COLLIDED
        else:
            outcome = radio.arbitrate(t, _BLE_TX_US, _BLE_BANDS[ch], field, p_floor, floor_rng)
        trace.append((t, _BLE_TX_US, names[s], ch, "ble", "data", s, outcome))
        gap = _BLE_INTERVAL_US - _BLE_TX_US
        if outcome == radio.DELIVERED:
            fails[s] = 0
            q_seq, q = queue[s].popleft()
            tokens[s] = min(_HOST_BURST, tokens[s] + (end - refilled[s]) * _HOST_RATE_HZ / 1e6)
            refilled[s] = end
            if tokens[s] >= 1.0:
                tokens[s] -= 1.0
                frames.append((int(round(end)), s, q_seq, *q, 3))
            else:
                host_dropped[s] += 1
        else:
            fails[s] += 1
            if fails[s] >= _BLE_FAIL_LIMIT:
                resyncs += 1
                queue[s].clear()
                fails[s] = 0
                gap = _BLE_RECONNECT_US - _BLE_TX_US
        schedule(s, end + gap)
    hand_off_before(duration_us)
    frames.sort(key=_STAMP_SENSOR)
    _hand_off(sink, trace, frames)
    return SessionResult("ble", duration_us, ids, list(starmap(RecordingFrame, frames)),
                         list(map(TraceRow._make, trace)), 0, resyncs, host_dropped, [])


# Metrics -------------------------------------------------------------------

_OUTCOME_KEYS = {radio.DELIVERED: "delivered", radio.COLLIDED: "collided",
                 radio.FLOOR_LOST: "floor_lost"}


# The cells of a trace row that the session tallies count by.
_TALLY_KEY = itemgetter(2, 5, 6, 7)  # source, frame_type, sensor_id, outcome
_SAMPLE_FRAMES = ("response", "data")


def _ledger(tally: Counter) -> dict[str, dict[str, int]]:
    """Per-source conservation ledger: sent splits into the three outcomes."""
    out: dict[str, dict[str, int]] = {}
    for (source, _, _, outcome), n in tally.items():
        c = out.setdefault(source, {"sent": 0, "delivered": 0,
                                    "collided": 0, "floor_lost": 0})
        c["sent"] += n
        c[_OUTCOME_KEYS[outcome]] += n
    return out


def source_counts(trace: Sequence[Row]) -> dict[str, dict[str, int]]:
    """Per-source conservation ledger: sent splits into the three outcomes."""
    return _ledger(Counter(map(_TALLY_KEY, trace)))


class SessionFold:
    """The tallies of session_metrics, folded over the rows and frames of
    a session that ends at end_us as they arrive in session order, a batch
    at a time. Rows are counted by (source, frame_type, sensor_id,
    outcome). Each sensor's timestamps go to its pipeline.RateWindows, which
    counts a window once no later frame can fall in it, so a sensor keeps
    only about the last second of them. Frames, plain tuples or
    RecordingFrames, are checked as they come by pipeline.FrameOrder: their
    cells by the RecordingFrame constructor's rule, raising its ValueError,
    timestamps never decrease and each sensor's seq strictly increases, or
    ValidationError names the sensor and the seq.
    """

    def __init__(self, end_us: float) -> None:
        self._tally: Counter = Counter()
        self._end = int(end_us)
        self._rates: defaultdict[int, RateWindows] = defaultdict(RateWindows)
        self._order = FrameOrder()

    def add(self, rows: Sequence[Row], frames: Sequence[Frame]) -> None:
        self._tally.update(map(_TALLY_KEY, rows))
        self._order.check(frames)
        stamps: defaultdict[int, list[int]] = defaultdict(list)
        for f in frames:
            stamps[f[1]].append(f[0])  # sensor_id, timestamp_us
        for sensor, ts in stamps.items():
            self._rates[sensor].extend(ts)
        # Timestamps never decrease: a window that ends at or before the
        # last one is complete.
        for counter in self._rates.values():
            counter.windows(min(counter.last, self._end))

    def metrics(self, result: SessionResult) -> dict:
        """The summary of the session whose rows and frames were folded.

        Mean rate is (n-1)/span of each sensor's recorded frames; the
        minimum window rate slides a 1 s half-open window from the first
        delivery to the session end, as pipeline.rate_series does.
        """
        sent: Counter = Counter()
        delivered: Counter = Counter()
        for (_, frame_type, sensor, outcome), n in self._tally.items():
            if frame_type in _SAMPLE_FRAMES:
                sent[sensor] += n
                if outcome == radio.DELIVERED:
                    delivered[sensor] += n
        per_sensor: dict[str, dict] = {}
        lasts = []
        for s in result.roster:
            counter = self._rates.get(s)
            recorded, mean, min_window = 0, 0.0, 0.0
            if counter is not None:
                recorded = counter.n
                if counter.last > counter.first:
                    mean = (recorded - 1) / ((counter.last - counter.first) / 1e6)
                counter.windows(self._end)
                min_window = (float(recorded) if counter.fewest is None
                              else counter.fewest * 1e6 / RATE_WINDOW_US)
                lasts.append(counter.last)
            per_sensor[str(s)] = {
                "recorded": recorded,
                "sent": sent[s],
                "delivered": delivered[s],
                "pdr": delivered[s] / sent[s] if sent[s] else 0.0,
                "mean_rate_hz": mean,
                "min_window_rate_hz": min_window,
                "host_dropped": result.host_dropped.get(s, 0),
            }
        return {
            "protocol": result.protocol,
            "duration_s": result.duration_us / 1e6,
            "hop_count": result.hop_count,
            "resync_count": result.resync_count,
            "max_skew_us": max(lasts) - min(lasts) if lasts else 0,
            "per_sensor": per_sensor,
            "sources": _ledger(self._tally),
        }


def session_metrics(result: SessionResult) -> dict:
    """Summary statistics of one session: SessionFold over its lists."""
    fold = SessionFold(result.duration_us)
    fold.add(result.trace, result.frames)
    return fold.metrics(result)
