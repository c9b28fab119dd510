"""Deterministic model of the 2.4 GHz band.

80 radio channels, 1 MHz spacing, 2 MHz occupied bandwidth (adjacent
channels overlap). Interferers are renewal processes (Wi-Fi duty
cycles) or periodic hoppers (Bluetooth); collisions are binary on any
spectral-and-temporal overlap of nonzero measure. No capture effect,
power, or distance modeling: crowdedness is expressed via duty cycles.
An interferer burst is a Burst; protocol frames are trace rows.

The interference field is columnar and lazy. Each source draws its
bursts in bulk as numpy columns (starts, durations, band edges), summed
in the same order as a draw-by-draw loop, so every figure is the scalar
one. The field keeps only busy()'s index: the bursts grouped by exact
band across sources, each group merged into disjoint intervals. The
index is drawn a time chunk of start times (_CHUNK_US) at a time, when a
query first reaches past what is drawn, each source's generator and
running sums carrying on from the chunk before; a new chunk's intervals
that meet a group's last one join it. busy() answers with one bisect per
group that overlaps the queried band. Each source is one lane, an
interferer's, whose bursts cannot overlap; a draw lays the lanes' new
bursts end to end and sorts them once by start, ties in source order.
windows() and all_bursts() draw the bursts afresh, windows() a window at
a time, so the field stores no burst columns. A field keeps its index,
so one field can serve several sessions, until its owner calls drop(t):
the intervals that end by t are freed, and a later query that starts
before t raises.

arbitrate judges a frame, given as its start, duration and band, against
the field and the floor loss only; a protocol whose own nodes can overlap
(the BLE baseline) judges that overlap itself, before it calls arbitrate.

The event scheduler is single-threaded and fully deterministic: a
time-ordered queue of sources. Its entries are taken in (time, source)
order up to a bound, those queued meanwhile included. The BLE baseline
queues each frame as one entry at its end; the cw master, a session's one
process, keeps its own clock (see protocol.master_run).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import randomness
from .bounds import (MAX_DURATION_MS, MAX_DURATION_S, MAX_DURATION_US, check_fields,
                     key)

DELIVERED = "delivered"
COLLIDED = "collided"
FLOOR_LOST = "floor-lost"


# Sync channels 2/26/79 sit in the gaps between the central lobes of
# Wi-Fi channels 1, 6, and 11, mirroring how BLE places its advertising
# channels. Every other channel carries data.
SYNC_CHANNELS = (2, 26, 79)
DATA_CHANNELS = tuple(k for k in range(80) if k not in SYNC_CHANNELS)


def channel_band(k: int) -> tuple[float, float]:
    """Occupied 2 MHz of radio channel k, centered on 2400 + k MHz."""
    if not 0 <= k <= 79:
        raise ValueError(f"channel index {k} outside 0..79")
    return (float(2399 + k), float(2401 + k))


# channel_band of every radio channel, indexed by channel.
CHANNEL_BANDS = tuple(channel_band(k) for k in range(80))


def wifi_band_mhz(wifi_channel: int) -> tuple[float, float]:
    """Occupied band of a 2.4 GHz Wi-Fi channel (22 MHz wide)."""
    if not 1 <= wifi_channel <= 13:
        raise ValueError(f"wifi channel {wifi_channel} outside 1..13")
    center = 2407 + 5 * wifi_channel
    return (float(center - 11), float(center + 11))


class Burst(NamedTuple):
    """An interferer's burst on a band from start_us to start_us +
    duration_us; not a protocol frame. Fields 0 and 2 as in TraceRow."""

    start_us: float
    duration_us: float
    source: str
    band_mhz: tuple[float, float]


@dataclass(frozen=True)
class WifiAp:
    """Access point as an alternating busy/idle exponential renewal process."""

    wifi_channel: int = key()
    duty: float = key(MISSING, 0, 1)
    mean_burst_ms: float = key(2.0, 1e-3, MAX_DURATION_MS, unit="ms")
    seed: int = key(0, 0)
    name: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.wifi_channel not in (1, 6, 11):
            raise ValueError("wifi interferers operate on channels 1, 6, or 11")
        # A draw's sums stay finite when the mean idle time is at most a
        # day; a duty of 0 never transmits.
        if self.duty > 0.0 and self.mean_idle_us > MAX_DURATION_US:
            raise ValueError(f"duty {self.duty!r} at mean_burst_ms {self.mean_burst_ms!r} "
                             f"gives a mean idle time of {self.mean_idle_us:g} us, more than "
                             f"a day ({MAX_DURATION_US:g} us)")

    @property
    def mean_idle_us(self) -> float:
        """Mean idle time between bursts, for a positive duty."""
        return self.mean_burst_ms * 1000.0 * (1.0 - self.duty) / self.duty

    @property
    def source(self) -> str:
        return self.name or f"wifi:{self.wifi_channel}"


@dataclass(frozen=True)
class BtDevice:
    """Classic-BT-style hopper: one short burst per connection event."""

    event_interval_ms: float = key(15.0, 1e-3, MAX_DURATION_MS, unit="ms")
    # Bounded by the event interval (below).
    burst_us: float = key(296.0, 1e-3, unit="us")
    seed: int = key(0, 0)
    name: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        # One device's bursts cannot overlap.
        if not self.burst_us <= self.event_interval_ms * 1000.0:
            raise ValueError(f"event_interval_ms {self.event_interval_ms!r} must cover "
                             f"burst_us {self.burst_us!r}")

    @property
    def source(self) -> str:
        return self.name or "bt"


# Hop increments coprime with 40 so the sequence visits every channel.
_BT_INCREMENTS = (7, 9, 11, 13, 17, 19, 21, 23)


@dataclass(frozen=True)
class Jammer:
    """Continuous occupier of one radio channel from start_s onward."""

    channel: int = key(MISSING, 0, 79)
    start_s: float = key(0.0, 0, MAX_DURATION_S, unit="s")
    name: str = ""

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def source(self) -> str:
        return self.name or f"jam:{self.channel}"


# At most this many Wi-Fi idle/busy pairs, or BT events, per numpy call.
_DRAW_CHUNK = 1 << 16

# The field's time chunk: each source's bursts are drawn, and busy()'s
# index is built, for one chunk of start times at a time, and a remainder
# under half a chunk joins the last chunk. Indexing one chunk of the crowded
# preset (20 sources, 43 bands) costs about 2 ms whatever its length, and
# 10 s of its bursts hold about 1.5 MB; 10 s keeps a 10 s session's field
# (10.1 s with its margin) one chunk.
_CHUNK_US = 10e6

# One source's bursts, ordered by start: starts, durations, band lows and
# band highs, one float64 entry per burst.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _clipped(starts: np.ndarray, ends: np.ndarray, end_us: float,
             lo, hi) -> Columns:
    """Bursts with each end clipped at end_us; bursts left empty are dropped.

    The duration is stored as computed (be - bs); the end is always
    rederived as start + duration, as Burst documents.
    """
    durations = np.minimum(ends, end_us) - starts
    keep = durations > 0.0
    return (starts[keep], durations[keep],
            np.broadcast_to(np.asarray(lo, dtype=float), starts.shape)[keep],
            np.broadcast_to(np.asarray(hi, dtype=float), starts.shape)[keep])


def _renewal(rng: np.random.Generator, mean_idle: float, mean_busy: float,
             end_us: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Alternating idle/busy exponential periods from t=0: start and end of
    every busy period that starts before end_us, a block of about a chunk
    at a time.

    The sums run in draw order (t + idle, then + busy, ...), so each figure
    equals the one of a scalar loop over rng.exponential; blocks carry t.
    """
    n = min(int(min(end_us, _CHUNK_US) / (mean_idle + mean_busy) * 1.1) + 64, _DRAW_CHUNK)
    t = 0.0
    while t < end_us:
        steps = rng.standard_exponential(2 * n)
        steps[0::2] *= mean_idle
        steps[1::2] *= mean_busy
        sums = np.cumsum(np.concatenate(([t], steps)))
        # sums[2k + 1] is the k-th start and sums[2k + 2] its end.
        k = int(np.searchsorted(sums[1::2], end_us))
        yield sums[1:2 * k:2], sums[2:2 * k + 1:2]
        if k < n:
            return
        t = float(sums[-1])


def _periodic(t: float, step: float, end_us: float) -> Iterator[np.ndarray]:
    """t, t + step, (t + step) + step, ... up to the last value below end_us,
    summed in that order, a block of about a chunk at a time."""
    while t < end_us:
        n = min(int(min(end_us - t, _CHUNK_US) / step) + 2, _DRAW_CHUNK)
        sums = np.cumsum(np.concatenate(([t], np.full(n, step))))
        k = int(np.searchsorted(sums, end_us))
        yield sums[:min(k, n)]
        if k <= n:
            return
        t = float(sums[n])


def _occupancy(interferer: WifiAp | BtDevice | Jammer, end_us: float) -> Iterator[Columns]:
    """Seeded bursts of one interferer from t=0, clipped at end_us, in
    blocks ordered by start."""
    if isinstance(interferer, Jammer):
        # A jammer draws nothing, so it carries no seed.
        yield _clipped(np.array([interferer.start_s * 1e6]), np.array([end_us]),
                       end_us, *channel_band(interferer.channel))
        return

    rng = np.random.default_rng(interferer.seed)
    if isinstance(interferer, WifiAp):
        lo, hi = wifi_band_mhz(interferer.wifi_channel)
        if interferer.duty == 1.0:
            yield _clipped(np.array([0.0]), np.array([end_us]), end_us, lo, hi)
        elif interferer.duty > 0.0:
            for starts, ends in _renewal(rng, interferer.mean_idle_us,
                                         interferer.mean_burst_ms * 1000.0, end_us):
                yield _clipped(starts, ends, end_us, lo, hi)
        return

    # Bluetooth: hop (last + increment) mod 40 over 2 MHz channels at
    # 2402 + 2k, one burst per connection event; blocks carry the hop count.
    interval = interferer.event_interval_ms * 1000.0
    phase = float(rng.uniform(0.0, interval))
    inc = _BT_INCREMENTS[int(rng.integers(0, len(_BT_INCREMENTS)))]
    ch = int(rng.integers(0, 40))
    hops = 0
    for starts in _periodic(phase, interval, end_us):
        lo = (2401 + 2 * ((ch + inc * np.arange(hops + 1, hops + len(starts) + 1)) % 40)
              ).astype(float)
        hops += len(starts)
        yield _clipped(starts, starts + interferer.burst_us, end_us, lo, lo + 2.0)


class _Part:
    """One interferer's bursts, taken from its blocks in order of start."""

    def __init__(self, blocks: Iterator[Columns]) -> None:
        self._blocks = blocks
        self._pending: Columns | None = None

    def take(self, until: float) -> list[Columns]:
        """The bursts not taken yet that start before until."""
        out = []
        while True:
            cols = self._pending or next(self._blocks, None)
            if cols is None:
                return out
            k = int(np.searchsorted(cols[0], until))
            if k < len(cols[0]):
                out.append(tuple(c[:k] for c in cols))
                self._pending = tuple(c[k:] for c in cols)
                return out
            out.append(cols)
            self._pending = None


class _Draw:
    """The bursts of a field's interferers, drawn in order of start: one
    lane per interferer, whose bursts do not overlap."""

    def __init__(self, lanes: Iterable[Iterator[Columns]]) -> None:
        self._lanes = list(map(_Part, lanes))

    def take(self, until: float) -> tuple[np.ndarray, ...]:
        """The bursts not taken yet that start before until, ordered by
        (start, lane): starts, durations, band lows, band highs and lane
        indices. One stable sort of every lane's pieces, laid end to end in
        lane order, breaks ties between equal starts by lane."""
        pieces = [lane.take(until) for lane in self._lanes]
        cols = [np.concatenate(c) for c in zip(*itertools.chain(*pieces))] or [np.empty(0)] * 4
        index = np.repeat(np.arange(len(pieces)), [sum(len(c[0]) for c in p) for p in pieces])
        order = np.argsort(cols[0], kind="stable")
        return (*(c[order] for c in cols), index[order])


def _merged(starts: np.ndarray, ends: np.ndarray) -> tuple[list[float], list[float]]:
    """Union of intervals sorted by start, as disjoint intervals that do not
    touch: their starts and ends."""
    reach = np.maximum.accumulate(ends)
    gaps = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    return (starts[np.r_[0, gaps]].tolist(),
            reach[np.r_[gaps - 1, len(starts) - 1]].tolist())


Group = tuple[list[float], list[float]]


def _groups(starts: np.ndarray, ends: np.ndarray, lo: np.ndarray, hi: np.ndarray
            ) -> dict[tuple[float, float], Group]:
    """busy()'s index of bursts: grouped by exact band, each group merged."""
    order = np.lexsort((starts, hi, lo))
    starts, ends, lo, hi = starts[order], ends[order], lo[order], hi[order]
    cuts = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
    return {(float(lo[a]), float(hi[a])): _merged(starts[a:b], ends[a:b])
            for a, b in zip(np.r_[0, cuts].tolist(), np.r_[cuts, len(starts)].tolist())
            if b > a}


class InterferenceField:
    """Queryable set of interferer bursts for one session.

    Each source is one lane: one interferer, or the bursts given for one
    source name. The field holds only busy()'s index: every burst drawn so
    far, grouped by exact band across sources, each group merged into
    disjoint intervals. The index grows a time chunk (_CHUNK_US) at a time,
    when a query first reaches past it, and drop() trims it.

    Bursts given here are checked once: each needs a finite start, a
    positive duration and a band from low to high, and one source's bursts
    must not overlap, as an interferer's never do.
    """

    def __init__(self, bursts: Iterable[Burst]) -> None:
        rows: dict[str, list[tuple[float, float, float, float]]] = {}
        for b in bursts:
            if not math.isfinite(b.start_us):
                raise ValueError(f"burst start must be finite, got {b.start_us}")
            if not b.duration_us > 0.0:
                raise ValueError(f"burst duration must be positive, got {b.duration_us}")
            if not b.band_mhz[0] < b.band_mhz[1]:
                raise ValueError(f"burst band must run from low to high, got {b.band_mhz}")
            rows.setdefault(b.source, []).append((b.start_us, b.duration_us, *b.band_mhz))
        parts = {}
        for source, r in rows.items():
            cols = np.array(r, dtype=float).T
            starts, durations, lo, hi = cols[:, np.argsort(cols[0], kind="stable")]
            if np.any(starts[1:] < (starts + durations)[:-1]):
                raise ValueError(f"overlapping bursts within source {source!r}")
            parts[source] = partial(iter, [(starts, durations, lo, hi)])
        self._start(parts, [])

    @classmethod
    def _drawn(cls, parts: dict[str, Callable[[], Iterator[Columns]]],
               end_us: float) -> "InterferenceField":
        """A field over end_us in chunks of _CHUNK_US."""
        field = cls.__new__(cls)
        field._start(parts, [k * _CHUNK_US for k in range(1, int(end_us / _CHUNK_US + 0.5))])
        return field

    def _start(self, parts: dict[str, Callable[[], Iterator[Columns]]],
               edges: list[float]) -> None:
        """parts: per source, a fresh iterator of its blocks. Chunk k holds
        the bursts that start in [edges[k - 1], edges[k])."""
        self._parts = parts
        self._edges = edges
        self._draw = self._fresh_draw()
        self._groups: dict[tuple[float, float], Group] = {}
        # Query band -> the groups whose band overlaps it strictly.
        self._near: dict[tuple[float, float], list[Group]] = {}
        # busy() answers intervals inside [_floor, _hi] from the index alone.
        self._floor, self._hi = -math.inf, -math.inf
        self._clean = not parts
        self._next_chunk()

    def _fresh_draw(self) -> _Draw:
        return _Draw(self._parts[source]() for source in self.sources)

    @property
    def sources(self) -> list[str]:
        """The source of each lane, sorted: the lane order of windows()."""
        return sorted(self._parts)

    def _next_chunk(self) -> None:
        """Draw the next chunk into the index. Its first intervals that meet
        a group's last one, from a burst across the edge, join that one."""
        k = bisect_right(self._edges, self._hi)
        self._hi = self._edges[k] if k < len(self._edges) else math.inf
        starts, durations, lo, hi, _ = self._draw.take(self._hi)
        for band, (new_starts, new_ends) in _groups(starts, starts + durations, lo, hi).items():
            group = self._groups.get(band)
            if group is None:
                self._groups[band] = new_starts, new_ends
                self._near.clear()
                continue
            group_starts, group_ends = group
            i = 0
            while group_ends and i < len(new_starts) and new_starts[i] <= group_ends[-1]:
                group_ends[-1] = max(group_ends[-1], new_ends[i])
                i += 1
            group_starts += new_starts[i:]
            group_ends += new_ends[i:]

    def drop(self, before_us: float) -> None:
        """Forget the intervals that end at or before before_us; a later
        query that starts before it raises."""
        for starts, ends in self._groups.values():
            i = bisect_right(ends, before_us)
            del starts[:i], ends[:i]
        self._floor = max(self._floor, before_us)

    def windows(self, end_us: float) -> Callable[[float], tuple[np.ndarray, ...]]:
        """A reader of the bursts that start at or before end_us, drawn
        afresh a window at a time: take(cut) returns those not taken yet
        that start before cut, as columns (starts, durations, lane indices
        into sources) ordered by (start, lane). Cuts must not decrease;
        take(math.inf) returns the rest.
        """
        draw = self._fresh_draw()
        last = math.nextafter(end_us, math.inf)  # a start before it is at or before end_us

        def take(cut: float) -> tuple[np.ndarray, ...]:
            starts, durations, _, _, lanes = draw.take(min(cut, last))
            return starts, durations, lanes

        return take

    def all_bursts(self) -> list[Burst]:
        """Every burst, ordered by (start_us, source), drawn afresh."""
        starts, durations, lo, hi, lanes = self._fresh_draw().take(math.inf)
        sources = self.sources
        return list(map(Burst._make, zip(starts.tolist(), durations.tolist(),
                                         map(sources.__getitem__, lanes.tolist()),
                                         zip(lo.tolist(), hi.tolist()))))

    def busy(self, band: tuple[float, float], start_us: float, end_us: float) -> bool:
        """Any burst overlapping the band and the interval, both strictly.

        The interval must have positive length: then it meets a merged
        interval exactly when it meets one of the bursts inside it.
        """
        if self._clean:
            # A clean band: skip hashing the query band.
            return False
        if not (self._floor <= start_us and end_us <= self._hi):
            if start_us < self._floor:
                raise ValueError(f"interference before {self._floor} us was dropped")
            while end_us > self._hi:
                self._next_chunk()
        near = self._near.get(band)
        if near is None:
            near = self._near[band] = [group for (lo, hi), group in self._groups.items()
                                       if lo < band[1] and band[0] < hi]
        for starts, ends in near:
            i = bisect_left(starts, end_us)
            if i and ends[i - 1] > start_us:
                return True
        return False


def arbitrate(start_us: float, duration_us: float, band: tuple[float, float],
              field: InterferenceField, p_floor: float = 0.0,
              floor_rng: np.random.Generator | None = None) -> str:
    """Outcome of one transmission against the field only, under the binary
    any-overlap rule: it collides with a field burst that overlaps it, and
    only a frame clear of the field draws the floor loss. A protocol whose
    own frames can overlap (the BLE baseline) judges that first."""
    if field.busy(band, start_us, start_us + duration_us):
        return COLLIDED
    if p_floor > 0.0 and floor_rng is not None and float(floor_rng.random()) < p_floor:
        return FLOOR_LOST
    return DELIVERED


class EventScheduler:
    """Deterministic time-ordered queue of sources over a microsecond clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self.now = 0.0

    def at(self, time_us: float, source: int) -> None:
        """Queue source at time_us; equal times are taken in source order."""
        if not time_us >= self.now:  # a NaN time fails it too
            raise ValueError(f"cannot schedule at {time_us} before now={self.now}")
        heapq.heappush(self._heap, (time_us, source))

    def until(self, t_us: float) -> Iterator[tuple[float, int]]:
        """Take the (time, source) entries at or before t_us in that order,
        those queued meanwhile included, moving now to each; the entries
        past t_us stay queued."""
        heap = self._heap
        while heap and heap[0][0] <= t_us:
            entry = heapq.heappop(heap)
            self.now = entry[0]
            yield entry


def _derived_seed(seed: int, index: int) -> int:
    return int(randomness.stream(seed, randomness.INTERFERER, index).integers(0, 2**63))


def preset_interferers(name: str, seed: int) -> list[WifiAp | BtDevice]:
    """Interferers of a named preset.

    clean is an empty band; crowded is an office-like load of 12 APs
    split over Wi-Fi 1/6/11 plus 8 BT hoppers.
    """
    if name == "clean":
        return []
    if name != "crowded":
        raise ValueError(f"unknown interference preset {name!r}; choose clean or crowded")
    out: list[WifiAp | BtDevice] = []
    idx = 0
    for ch in (1, 6, 11):
        for n in range(4):
            out.append(WifiAp(ch, duty=0.25, mean_burst_ms=2.0,
                              seed=_derived_seed(seed, idx), name=f"wifi:{ch}:{n}"))
            idx += 1
    for n in range(8):
        out.append(BtDevice(seed=_derived_seed(seed, idx), name=f"bt:{n}"))
        idx += 1
    return out


def build_field(interferers: Sequence[WifiAp | BtDevice | Jammer],
                duration_us: float) -> InterferenceField:
    """The interferers' field from t=0 to duration_us, one lane per
    interferer, so each needs its own source. Its first chunk is drawn
    here, the others when first reached."""
    parts: dict[str, Callable[[], Iterator[Columns]]] = {}
    for i in interferers:
        if i.source in parts:
            raise ValueError(f"two interferers share the source {i.source!r}")
        parts[i.source] = partial(_occupancy, i, duration_us)
    return InterferenceField._drawn(parts, duration_us)
