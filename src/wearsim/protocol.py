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
resets; it is the comparison point for the polling design.

All state advances through the discrete-event scheduler in radio.py, so
two runs with equal seeds produce byte-identical results.

Both loops append trace rows and frames to lists in session order, and
the scheduler advances a simulated second at a time. A sink takes each
second's rows and frames, so no session is held whole; without one a run
returns the whole lists. The baseline's deliveries arrive in time order;
those that round to the same microsecond wait in a small buffer and leave
it in sensor order. SessionFold folds the metrics batch by batch, as a
sink or over the lists (session_metrics), and checks frame order:
timestamps never decrease and each sensor's seq strictly increases.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from . import radio
from . import randomness as rnd
# rate_series is not called here, but perfbench's span table resolves
# protocol.rate_series: a traced run raises KeyError without the name.
from .pipeline import FrameOrder, RecordingFrame, rate_series, window_rates
from .quatmath import Quaternion
from .radio import CHANNEL_BANDS, DATA_CHANNELS, SYNC_CHANNELS, Burst, InterferenceField

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

    us_per_byte: float = 4.0
    poll_bytes: int = 12
    response_bytes: int = 32
    beacon_bytes: int = 16
    hop_bytes: int = 12
    ack_bytes: int = 8
    turnaround_us: float = 150.0
    guard_us: float = 50.0
    host_cost_us: float = 1400.0
    poll_cap_hz: float = 60.0
    beacon_interval_ms: float = 20.0
    resync_timeout_ms: float = 200.0

    def __post_init__(self) -> None:
        # Zero-length frames, beacon intervals or timeouts cannot run.
        for key in ("us_per_byte", "poll_bytes", "response_bytes", "beacon_bytes",
                    "hop_bytes", "ack_bytes", "poll_cap_hz", "beacon_interval_ms",
                    "resync_timeout_ms"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        # Below 1 us the scan-channel index of a long session overflows.
        if self.beacon_interval_ms < 1e-3:
            raise ValueError("beacon_interval_ms must be at least 1e-3 (1 us)")

    def airtime_us(self, nbytes: int) -> float:
        return self.us_per_byte * nbytes

    @property
    def poll_air_us(self) -> float:
        return self.airtime_us(self.poll_bytes)

    @property
    def response_air_us(self) -> float:
        return self.airtime_us(self.response_bytes)

    @property
    def beacon_air_us(self) -> float:
        return self.airtime_us(self.beacon_bytes)

    @property
    def hop_air_us(self) -> float:
        return self.airtime_us(self.hop_bytes)

    @property
    def ack_air_us(self) -> float:
        return self.airtime_us(self.ack_bytes)

    @property
    def cap_period_us(self) -> float:
        return 1e6 / self.poll_cap_hz

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

    loss_threshold: int = 3
    loss_window: int = 8
    blacklist_size: int = 8
    announce_repeats: int = 3
    assess_us: float = 2000.0
    probe_gap_ms: float = 35.0
    walk_dwell_ms: float = 20.0

    def __post_init__(self) -> None:
        if not 1 <= self.loss_threshold <= self.loss_window:
            raise ValueError("loss_threshold must be within the loss window")
        if self.announce_repeats < 1:
            raise ValueError("announce_repeats must be at least 1")
        # Below 1 us the probe-walk step count of a long silence overflows.
        if self.walk_dwell_ms < 1e-3:
            raise ValueError("walk_dwell_ms must be at least 1e-3 (1 us)")
        # The current channel and the blacklist must leave a channel to hop to.
        limit = len(DATA_CHANNELS) - 2
        if not 0 <= self.blacklist_size <= limit:
            raise ValueError(f"blacklist_size must be within 0..{limit}")


class TraceRow(NamedTuple):
    """One transmission as seen by the session log; fields in CSV column order."""

    time_us: float
    duration_us: float
    source: str
    channel: int
    kind: str
    frame_type: str
    sensor_id: int
    outcome: str


# Takes the rows and frames that a session produced since its last call, in
# session order. The lists are emptied after each call: copy what you keep.
Sink = Callable[[list[TraceRow], list[RecordingFrame]], None]
# Simulated time between two handoffs to a sink.
_HANDOFF_US = 1_000_000.0


class HopSequencer:
    """Walks a seeded permutation of the data channels.

    Both ends derive the same chain from the session seed, so a slave
    that knows the master's last position can predict the next channels.
    A short blacklist keeps recently abandoned channels out of play.
    """

    def __init__(self, policy: HopPolicy, seed: int, channel: int) -> None:
        order = rnd.stream(seed, rnd.PROTOCOL).permutation(len(DATA_CHANNELS))
        self.chain: list[int] = [DATA_CHANNELS[i] for i in order]
        if channel not in self.chain:
            raise ConfigError(f"channel {channel} is not a data channel")
        self.current = channel
        self.cursor = self.chain.index(channel)
        self.blacklist: deque[int] = deque(maxlen=policy.blacklist_size)

    def preview(self) -> tuple[int, int]:
        """The next channel and its chain position; the state does not move."""
        n = len(self.chain)
        for step in range(1, n + 1):
            pos = (self.cursor + step) % n
            cand = self.chain[pos]
            if cand != self.current and cand not in self.blacklist:
                return cand, pos
        raise RuntimeError("hop chain exhausted")

    def advance(self) -> int:
        cand, pos = self.preview()
        self.blacklist.append(self.current)
        self.current, self.cursor = cand, pos
        return cand


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


def _run(sched: radio.EventScheduler, duration_us: float, sink: Sink | None,
         trace: list[TraceRow], frames: list[RecordingFrame]) -> None:
    """Run the session to its end a simulated second at a time. After each
    second a sink takes the rows and frames; without one the lists keep
    them. The last ones stay for _hand_off."""
    k = 1
    while k * _HANDOFF_US < duration_us:
        sched.advance(k * _HANDOFF_US)
        _hand_off(sink, trace, frames)
        k += 1
    sched.run_until(duration_us)


def _hand_off(sink: Sink | None, trace: list[TraceRow], frames: list[RecordingFrame]) -> None:
    if sink is not None:
        sink(trace, frames)
        trace.clear()
        frames.clear()


def master_run(roster: Sequence[int], duration_s: float, sampler: Sampler,
               field: InterferenceField, seed: int, *,
               timing: TimingProfile | None = None,
               policy: HopPolicy | None = None,
               p_floor: float = DEFAULT_P_FLOOR,
               initial_channel: int = DEFAULT_INITIAL_CHANNEL,
               sink: Sink | None = None) -> SessionResult:
    """Run one polling session and return its frames, trace, and counters.
    With a sink, the rows and frames go to it as the session runs, and the
    result's lists are empty."""
    timing = timing or TimingProfile()
    policy = policy or HopPolicy()
    ids, duration_us = _check_session(roster, 12, duration_s)
    seq = HopSequencer(policy, seed, initial_channel)
    slaves = {s: SlaveUnit(timing, policy, seq.chain) for s in ids}
    names = {s: f"sensor:{s}" for s in ids}
    joined = {s: False for s in ids}
    last_ok = {s: -math.inf for s in ids}
    loss: deque[bool] = deque(maxlen=policy.loss_window)
    floor_rng = rnd.stream(seed, rnd.FLOOR) if p_floor > 0 else None
    # Each row's duration is one of these floats, not a new one.
    poll_air, response_air, ack_air = (timing.poll_air_us, timing.response_air_us,
                                       timing.ack_air_us)
    beacon_air, hop_air = timing.beacon_air_us, timing.hop_air_us
    turnaround, guard = timing.turnaround_us, timing.guard_us
    ack_tail = ack_air + turnaround + guard + timing.host_cost_us
    resync_us, cap_period = timing.resync_us, timing.cap_period_us
    beacon_gap = timing.beacon_interval_ms * 1000.0

    sched = radio.EventScheduler()
    frames: list[RecordingFrame] = []
    trace: list[TraceRow] = []
    channel_history: list[tuple[float, int]] = [(0.0, seq.current)]

    def arbitrated(source: str, start: float, dur: float, ch: int,
                   frame_type: str, sensor_id: int) -> TraceRow:
        t = Burst(start, dur, source, CHANNEL_BANDS[ch])
        return TraceRow(start, dur, source, ch, "cw", frame_type, sensor_id,
                        radio.arbitrate(t, field, (), p_floor, floor_rng))

    def tx(*frame) -> str:
        row = arbitrated(*frame)
        trace.append(row)
        return row.outcome

    def broadcast(frame_type: str, sensor_id: int, air_us: float, ch: int,
                  listeners: Sequence[int], follow: tuple[int, int]) -> list[int]:
        """Send a master frame; each listener tuned to ch for all of it follows
        it to (channel, chain position). Returns the listeners that heard it."""
        start = sched.now
        end = start + air_us
        heard = []
        if tx("master", start, air_us, ch, frame_type, sensor_id) == radio.DELIVERED:
            for s in listeners:
                if slaves[s].hears(start, end, ch):
                    # A beacon carries no polling rhythm.
                    slaves[s].heard_master(*follow, end, frame_type != "beacon")
                    heard.append(s)
        return heard

    def assess():
        """Listen to the current channel for assess_us; True if it was busy."""
        busy = field.busy(CHANNEL_BANDS[seq.current], sched.now,
                          sched.now + policy.assess_us)
        yield policy.assess_us
        return busy

    def hop() -> None:
        seq.advance()
        channel_history.append((sched.now, seq.current))

    def poll_exchange(s: int):
        ch = seq.current
        heard = broadcast("poll", s, poll_air, ch, (s,), (ch, seq.cursor))
        yield poll_air + turnaround
        delivered = False
        if heard:
            slaves[s].seq += 1
            q = sampler(s, sched.now)
            response = arbitrated(names[s], sched.now, response_air, ch, "response", s)
            yield response_air
            # Logged on completion: a response the session end cuts off
            # never reaches the master, so it is neither sent nor recorded.
            trace.append(response)
            if response.outcome == radio.DELIVERED:
                delivered = True
                frames.append(RecordingFrame.quantized(
                    int(round(sched.now)), s, slaves[s].seq, q, 3))
                last_ok[s] = sched.now
        else:
            # Nothing came back; the master still waits out the slot.
            yield response_air
        loss.append(delivered)
        if delivered:
            yield turnaround
            broadcast("ack", s, ack_air, ch, (s,), (ch, seq.cursor))
            yield ack_tail
        else:
            yield guard
            yield from maybe_hop()

    def maybe_hop():
        # Hop only when the loss window tripped AND the carrier is
        # actually busy; transient losses never cause a hop.
        if sum(1 for ok in loss if not ok) < policy.loss_threshold:
            return
        if not (yield from assess()):
            return
        follow = seq.preview()
        for _ in range(policy.announce_repeats):
            broadcast("hop", 0, hop_air, seq.current, ids, follow)
            yield hop_air + turnaround
        yield guard
        hop()

    def beacon_burst():
        pending = [s for s in ids if not joined[s]]
        for c in SYNC_CHANNELS:
            responders = broadcast("beacon", 0, beacon_air, c, pending,
                                   (seq.current, seq.cursor))
            yield beacon_air
            for s in pending:
                yield turnaround
                if s in responders:
                    j_start = sched.now
                    j_out = tx(names[s], j_start, response_air, c, "join", s)
                    if j_out == radio.DELIVERED:
                        joined[s] = True
                        last_ok[s] = j_start + response_air
                yield response_air
            yield guard

    def master():
        # Leave a channel that is busy right now before inviting anyone.
        for _ in range(len(seq.chain)):
            if not (yield from assess()):
                break
            hop()
        last_burst = -math.inf
        while sched.now < duration_us:
            cycle_start = sched.now
            for s in ids:
                if not joined[s]:
                    continue
                if sched.now - last_ok[s] > resync_us:
                    joined[s] = False
                    continue
                yield from poll_exchange(s)
                if sched.now >= duration_us:
                    return
            if not all(joined.values()) and sched.now - last_burst >= beacon_gap:
                last_burst = sched.now
                yield from beacon_burst()
            yield max(cycle_start + cap_period - sched.now, 0.0)

    sched.at(0.0, master())
    _run(sched, duration_us, sink, trace, frames)
    _hand_off(sink, trace, frames)
    resyncs = sum(sl.resyncs for sl in slaves.values())
    return SessionResult("cw", duration_us, ids, frames, trace,
                         len(channel_history) - 1, resyncs, {s: 0 for s in ids},
                         channel_history)


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


_SENSOR_ID = itemgetter(1)


class _SensorOrder:
    """Frames that arrive in timestamp order, passed on to out in
    (timestamp_us, sensor_id) order: the frames of the latest timestamp
    wait until a later timestamp arrives or flush() is called."""

    def __init__(self, out: list[RecordingFrame]) -> None:
        self._out = out
        self._tied: list[RecordingFrame] = []

    def add(self, frame: RecordingFrame) -> None:
        if self._tied and self._tied[0].timestamp_us != frame.timestamp_us:
            self.flush()
        self._tied.append(frame)

    def flush(self) -> None:
        self._tied.sort(key=_SENSOR_ID)
        self._out += self._tied
        self._tied.clear()


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
    time order, and those that round to the same microsecond are put in
    sensor order. With a sink, the rows and frames go to it as the session
    runs, and the result's lists are empty.
    """
    ids, duration_us = _check_session(roster, BLE_MAX_SENSORS, duration_s)
    sched = radio.EventScheduler()
    frames: list[RecordingFrame] = []
    ordered = _SensorOrder(frames)
    trace: list[TraceRow] = []
    host_dropped = {s: 0 for s in ids}
    resyncs = 0
    ledger: deque[Burst] = deque()
    floor_rng = rnd.stream(seed, rnd.FLOOR) if p_floor > 0 else None

    def node(s: int):
        nonlocal resyncs
        name = f"sensor:{s}"
        rng = rnd.stream(seed, rnd.BLE, s)
        channel = int(rng.integers(0, _BLE_CHANNELS))
        increment = int(rng.integers(5, 17))
        queue: deque[tuple[int, Quaternion]] = deque()
        seq = 0
        fails = 0
        tokens = _HOST_BURST
        last_refill = 0.0
        yield float(rng.uniform(0.0, _BLE_INTERVAL_US))
        while sched.now < duration_us:
            seq += 1
            queue.append((seq, sampler(s, sched.now)))
            channel = csa1_next(channel, increment)
            start = sched.now
            t = Burst(start, _BLE_TX_US, name, _BLE_BANDS[channel])
            while ledger and ledger[0].start_us + ledger[0].duration_us <= start:
                ledger.popleft()
            ledger.append(t)
            yield _BLE_TX_US
            outcome = radio.arbitrate(t, field, ledger, p_floor, floor_rng)
            trace.append(TraceRow(start, _BLE_TX_US, name, channel,
                                  "ble", "data", s, outcome))
            if outcome == radio.DELIVERED:
                fails = 0
                q_seq, q = queue.popleft()
                now = sched.now
                tokens = min(_HOST_BURST,
                             tokens + (now - last_refill) * _HOST_RATE_HZ / 1e6)
                last_refill = now
                if tokens >= 1.0:
                    tokens -= 1.0
                    ordered.add(RecordingFrame.quantized(int(round(now)), s, q_seq, q, 3))
                else:
                    host_dropped[s] += 1
                yield _BLE_INTERVAL_US - _BLE_TX_US
            else:
                fails += 1
                if fails >= _BLE_FAIL_LIMIT:
                    resyncs += 1
                    queue.clear()
                    fails = 0
                    yield _BLE_RECONNECT_US - _BLE_TX_US
                else:
                    yield _BLE_INTERVAL_US - _BLE_TX_US

    for s in ids:
        sched.at(0.0, node(s), s)
    _run(sched, duration_us, sink, trace, frames)
    ordered.flush()
    _hand_off(sink, trace, frames)
    return SessionResult("ble", duration_us, ids, frames, trace, 0,
                         resyncs, host_dropped, [])


# Metrics -------------------------------------------------------------------

_OUTCOME_KEYS = {radio.DELIVERED: "delivered", radio.COLLIDED: "collided",
                 radio.FLOOR_LOST: "floor_lost"}


# The cells of a trace row that the session tallies count by.
_TALLY_KEY = itemgetter(2, 5, 6, 7)  # source, frame_type, sensor_id, outcome
_SAMPLE_FRAMES = ("response", "data")
_STAMP_CELLS = itemgetter(0, 1)  # timestamp_us, sensor_id


def _ledger(tally: Counter) -> dict[str, dict[str, int]]:
    """Per-source conservation ledger: sent splits into the three outcomes."""
    out: dict[str, dict[str, int]] = {}
    for (source, _, _, outcome), n in tally.items():
        c = out.setdefault(source, {"sent": 0, "delivered": 0,
                                    "collided": 0, "floor_lost": 0})
        c["sent"] += n
        c[_OUTCOME_KEYS[outcome]] += n
    return out


def source_counts(trace: Sequence[TraceRow]) -> dict[str, dict[str, int]]:
    """Per-source conservation ledger: sent splits into the three outcomes."""
    return _ledger(Counter(map(_TALLY_KEY, trace)))


class SessionFold:
    """The tallies of session_metrics, folded over a session's rows and
    frames as they arrive in session order, a batch at a time. Rows are
    counted by (source, frame_type, sensor_id, outcome); each sensor keeps
    only its frame timestamps. Frames are checked as they come: timestamps
    never decrease and each sensor's seq strictly increases, or
    ValidationError names the sensor and the seq.
    """

    def __init__(self) -> None:
        self._tally: Counter = Counter()
        self._stamps: dict[int, array] = {}
        self._order = FrameOrder()

    def add(self, rows: Sequence[TraceRow], frames: Sequence[RecordingFrame]) -> None:
        self._tally.update(map(_TALLY_KEY, rows))
        self._order.check(frames)
        stamps = self._stamps
        for ts, sensor in map(_STAMP_CELLS, frames):
            if sensor in stamps:
                stamps[sensor].append(ts)
            else:
                stamps[sensor] = array("q", (ts,))

    def metrics(self, result: SessionResult) -> dict:
        """The summary of the session whose rows and frames were folded.

        Mean rate is (n-1)/span of each sensor's recorded frames; the
        minimum window rate slides a 1 s half-open window from the first
        delivery to the session end.
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
            ts = self._stamps.get(s, ())
            mean = 0.0
            if len(ts) >= 2:
                span = (ts[-1] - ts[0]) / 1e6
                if span > 0:
                    mean = (len(ts) - 1) / span
            if ts:
                rates = window_rates(ts, int(result.duration_us))
                min_window = min((v for _, v in rates), default=float(len(ts)))
                lasts.append(ts[-1])
            else:
                min_window = 0.0
            per_sensor[str(s)] = {
                "recorded": len(ts),
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
    fold = SessionFold()
    fold.add(result.trace, result.frames)
    return fold.metrics(result)
