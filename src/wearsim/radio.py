"""Deterministic model of the 2.4 GHz band.

80 radio channels, 1 MHz spacing, 2 MHz occupied bandwidth (adjacent
channels overlap). Interferers are renewal processes (Wi-Fi duty
cycles) or periodic hoppers (Bluetooth); collisions are binary on any
spectral-and-temporal overlap of nonzero measure. No capture effect,
power, or distance modeling: crowdedness is expressed via duty cycles.
A protocol frame and an interferer burst are one record, Burst.

The interference field is columnar. build_field draws each source's
bursts in bulk as numpy columns (starts, durations, band edges), summed
in the same order as a draw-by-draw loop, so every figure is the scalar
one. busy() answers from the bursts grouped by exact band across
sources, each group merged into disjoint intervals: one bisect per group
that overlaps the queried band. bursts() streams every Burst in
(start, source) order without building a list.

The event scheduler is single-threaded and fully deterministic. Its heap
holds generator processes that yield microsecond delays; they resume in
nondecreasing time, ties broken by (source id, order scheduled). A run
ends at its horizon and closes every process still waiting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import randomness

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


def wifi_band_mhz(wifi_channel: int) -> tuple[float, float]:
    """Occupied band of a 2.4 GHz Wi-Fi channel (22 MHz wide)."""
    if not 1 <= wifi_channel <= 13:
        raise ValueError(f"wifi channel {wifi_channel} outside 1..13")
    center = 2407 + 5 * wifi_channel
    return (float(center - 11), float(center + 11))


class Burst(NamedTuple):
    """A source on a band from start_us to start_us + duration_us: a
    protocol frame or an interferer burst. Fields 0 and 2 as in TraceRow."""

    start_us: float
    duration_us: float
    source: str
    band_mhz: tuple[float, float]


@dataclass(frozen=True)
class WifiAp:
    """Access point as an alternating busy/idle exponential renewal process."""

    wifi_channel: int
    duty: float
    mean_burst_ms: float = 2.0
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.wifi_channel not in (1, 6, 11):
            raise ValueError("wifi interferers operate on channels 1, 6, or 11")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must lie in [0,1]")
        if self.mean_burst_ms <= 0.0:
            raise ValueError("mean burst must be positive")

    @property
    def source(self) -> str:
        return self.name or f"wifi:{self.wifi_channel}"


@dataclass(frozen=True)
class BtDevice:
    """Classic-BT-style hopper: one short burst per connection event."""

    event_interval_ms: float = 15.0
    burst_us: float = 296.0
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.event_interval_ms <= 0.0 or self.burst_us <= 0.0:
            raise ValueError("BT interval and burst must be positive")
        # One device's bursts cannot overlap, and the phase draw needs a
        # finite interval.
        if not self.burst_us <= self.event_interval_ms * 1000.0 < math.inf:
            raise ValueError(f"event_interval_ms {self.event_interval_ms} must be finite "
                             f"and cover burst_us {self.burst_us}")

    @property
    def source(self) -> str:
        return self.name or "bt"


# Hop increments coprime with 40 so the sequence visits every channel.
_BT_INCREMENTS = (7, 9, 11, 13, 17, 19, 21, 23)


@dataclass(frozen=True)
class Jammer:
    """Continuous occupier of one radio channel from start_s onward."""

    channel: int
    start_s: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        channel_band(self.channel)
        if self.start_s < 0.0:
            raise ValueError("jam start must be non-negative")

    @property
    def source(self) -> str:
        return self.name or f"jam:{self.channel}"


# At most this many Wi-Fi idle/busy pairs, or BT events, per numpy call.
_DRAW_CHUNK = 1 << 16
# Bursts turned into Python floats at a time by bursts().
_ROW_CHUNK = 1024

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
             end_us: float) -> tuple[np.ndarray, np.ndarray]:
    """Alternating idle/busy exponential periods from t=0: start and end of
    every busy period that starts before end_us.

    The sums run in draw order (t + idle, then + busy, ...), so each figure
    equals the one of a scalar loop over rng.exponential; chunks carry t.
    """
    n = min(int(end_us / (mean_idle + mean_busy) * 1.1) + 64, _DRAW_CHUNK)
    starts, ends = [], []
    t = 0.0
    while t < end_us:
        steps = rng.standard_exponential(2 * n)
        steps[0::2] *= mean_idle
        steps[1::2] *= mean_busy
        sums = np.cumsum(np.concatenate(([t], steps)))
        # sums[2k + 1] is the k-th start and sums[2k + 2] its end.
        k = int(np.searchsorted(sums[1::2], end_us))
        starts.append(sums[1:2 * k:2])
        ends.append(sums[2:2 * k + 1:2])
        if k < n:
            break
        t = float(sums[-1])
    if not starts:
        return np.empty(0), np.empty(0)
    return np.concatenate(starts), np.concatenate(ends)


def _periodic(t: float, step: float, end_us: float) -> np.ndarray:
    """t, t + step, (t + step) + step, ... up to the last value below end_us,
    summed in that order."""
    out = [np.empty(0)]
    while t < end_us:
        n = min(int((end_us - t) / step) + 2, _DRAW_CHUNK)
        sums = np.cumsum(np.concatenate(([t], np.full(n, step))))
        k = int(np.searchsorted(sums, end_us))
        out.append(sums[:min(k, n)])
        if k <= n:
            break
        t = float(sums[n])
    return np.concatenate(out)


def _occupancy(interferer: WifiAp | BtDevice | Jammer, end_us: float) -> Columns:
    """Seeded bursts of one interferer from t=0, clipped at end_us."""
    if isinstance(interferer, Jammer):
        # A jammer draws nothing, so it carries no seed.
        return _clipped(np.array([interferer.start_s * 1e6]), np.array([end_us]),
                        end_us, *channel_band(interferer.channel))

    rng = np.random.default_rng(interferer.seed)
    if isinstance(interferer, WifiAp):
        lo, hi = wifi_band_mhz(interferer.wifi_channel)
        if interferer.duty == 0.0:
            return _clipped(np.empty(0), np.empty(0), end_us, lo, hi)
        if interferer.duty == 1.0:
            return _clipped(np.array([0.0]), np.array([end_us]), end_us, lo, hi)
        mean_busy = interferer.mean_burst_ms * 1000.0
        mean_idle = mean_busy * (1.0 - interferer.duty) / interferer.duty
        return _clipped(*_renewal(rng, mean_idle, mean_busy, end_us), end_us, lo, hi)

    # Bluetooth: hop (last + increment) mod 40 over 2 MHz channels at
    # 2402 + 2k, one burst per connection event.
    interval = interferer.event_interval_ms * 1000.0
    phase = float(rng.uniform(0.0, interval))
    inc = _BT_INCREMENTS[int(rng.integers(0, len(_BT_INCREMENTS)))]
    ch = int(rng.integers(0, 40))
    starts = _periodic(phase, interval, end_us)
    lo = (2401 + 2 * ((ch + inc * np.arange(1, len(starts) + 1)) % 40)).astype(float)
    return _clipped(starts, starts + interferer.burst_us, end_us, lo, lo + 2.0)


class _Lane(NamedTuple):
    source: str
    starts: np.ndarray
    durations: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _merged(starts: np.ndarray, ends: np.ndarray) -> tuple[list[float], list[float]]:
    """Union of intervals sorted by start, as disjoint intervals that do not
    touch: their starts and ends."""
    reach = np.maximum.accumulate(ends)
    gaps = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    return (starts[np.r_[0, gaps]].tolist(),
            reach[np.r_[gaps - 1, len(starts) - 1]].tolist())


class InterferenceField:
    """Queryable set of interferer bursts for one session.

    Each source is one lane of columns (see Columns). Bursts of one source
    must be non-overlapping (renewal processes guarantee that); sources are
    independent lanes. busy() reads an index of bursts grouped by exact band
    across sources, each group merged into disjoint intervals.
    """

    def __init__(self, bursts: Iterable[Burst]) -> None:
        rows: dict[str, list[tuple[float, float, float, float]]] = {}
        for b in bursts:
            if not b.duration_us > 0.0:
                raise ValueError(f"burst duration must be positive, got {b.duration_us}")
            rows.setdefault(b.source, []).append((b.start_us, b.duration_us, *b.band_mhz))
        self._index({source: [tuple(np.array(r, dtype=float).T)]
                     for source, r in rows.items()})

    @classmethod
    def _from_columns(cls, parts: dict[str, list[Columns]]) -> "InterferenceField":
        field = cls.__new__(cls)
        field._index(parts)
        return field

    def _index(self, parts: dict[str, list[Columns]]) -> None:
        """One lane per source: its columns joined in the order given and
        stably sorted by start. Then the per-band groups of busy()."""
        self._lanes: list[_Lane] = []
        for source in sorted(parts):
            cols = [np.concatenate(c) for c in zip(*parts[source])]
            order = np.argsort(cols[0], kind="stable")
            starts, durations, lo, hi = (c[order] for c in cols)
            if np.any(starts[1:] < (starts + durations)[:-1]):
                raise ValueError(f"overlapping bursts within source {source!r}")
            if len(starts):
                self._lanes.append(_Lane(source, starts, durations, lo, hi))

        self._groups: dict[tuple[float, float], tuple[list[float], list[float]]] = {}
        if self._lanes:
            starts = np.concatenate([lane.starts for lane in self._lanes])
            ends = np.concatenate([lane.starts + lane.durations for lane in self._lanes])
            lo = np.concatenate([lane.lo for lane in self._lanes])
            hi = np.concatenate([lane.hi for lane in self._lanes])
            order = np.lexsort((starts, hi, lo))
            starts, ends, lo, hi = starts[order], ends[order], lo[order], hi[order]
            cuts = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
            for a, b in zip(np.r_[0, cuts].tolist(), np.r_[cuts, len(starts)].tolist()):
                self._groups[(float(lo[a]), float(hi[a]))] = _merged(starts[a:b], ends[a:b])
        # Query band -> the groups whose band overlaps it strictly.
        self._near: dict[tuple[float, float], list[tuple[list[float], list[float]]]] = {}

    @property
    def sources(self) -> list[str]:
        """The source of each lane, sorted: the lane order of windows()."""
        return [lane.source for lane in self._lanes]

    def windows(self, cuts: Sequence[float], end_us: float
                ) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
        """The bursts that start at or before end_us, cut by start into
        len(cuts) + 1 windows: window k holds those that start before
        cuts[k] and not before cuts[k - 1]. cuts must not decrease.

        A window is one (starts, durations) pair of column views per lane,
        in the order of sources, each ordered by start.
        """
        edges = []
        for lane in self._lanes:
            limit = int(np.searchsorted(lane.starts, end_us, "right"))
            edges.append(np.minimum(np.r_[0, np.searchsorted(lane.starts, cuts), limit],
                                    limit).tolist())
        for k in range(len(cuts) + 1):
            yield [(lane.starts[e[k]:e[k + 1]], lane.durations[e[k]:e[k + 1]])
                   for lane, e in zip(self._lanes, edges)]

    def bursts(self) -> Iterator[Burst]:
        """Every burst, ordered by (start_us, source): the lanes, which are
        in source order, laid end to end and stably sorted by start. Columns
        turn into Python floats a chunk at a time."""
        if not self._lanes:
            return
        sources = self.sources
        cols = [np.concatenate(c) for c in zip(*(lane[1:] for lane in self._lanes))]
        lanes = np.repeat(np.arange(len(sources)), [len(lane.starts) for lane in self._lanes])
        order = np.argsort(cols[0], kind="stable")
        starts, durations, lo, hi, lanes = (c[order] for c in (*cols, lanes))
        for i in range(0, len(order), _ROW_CHUNK):
            part = slice(i, i + _ROW_CHUNK)
            yield from map(Burst._make, zip(
                starts[part].tolist(), durations[part].tolist(),
                map(sources.__getitem__, lanes[part].tolist()),
                zip(lo[part].tolist(), hi[part].tolist())))

    def all_bursts(self) -> list[Burst]:
        return list(self.bursts())

    def busy(self, band: tuple[float, float], start_us: float, end_us: float) -> bool:
        """Any burst overlapping the band and the interval, both strictly.

        The interval must have positive length: then it meets a merged
        interval exactly when it meets one of the bursts inside it.
        """
        if not self._groups:
            # A clean band: skip hashing the query band.
            return False
        near = self._near.get(band)
        if near is None:
            near = self._near[band] = [group for (lo, hi), group in self._groups.items()
                                       if lo < band[1] and band[0] < hi]
        for starts, ends in near:
            i = bisect_left(starts, end_us)
            if i and ends[i - 1] > start_us:
                return True
        return False


def arbitrate(tx: Burst, field: InterferenceField,
              node_txs: Sequence[Burst] = (),
              p_floor: float = 0.0,
              floor_rng: np.random.Generator | None = None) -> str:
    """Outcome of one transmission under the binary any-overlap rule."""
    start, end = tx.start_us, tx.start_us + tx.duration_us
    lo, hi = tx.band_mhz
    if field.busy(tx.band_mhz, start, end):
        return COLLIDED
    for other in node_txs:
        if other is tx:
            continue
        if (other.start_us < end and start < other.start_us + other.duration_us
                and other.band_mhz[0] < hi and lo < other.band_mhz[1]):
            return COLLIDED
    if p_floor > 0.0 and floor_rng is not None and float(floor_rng.random()) < p_floor:
        return FLOOR_LOST
    return DELIVERED


class EventScheduler:
    """Deterministic discrete-event loop over a microsecond clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Generator[float, None, None]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def at(self, time_us: float, process: Generator[float, None, None],
           source: int = 0) -> None:
        """Resume process at time_us; ties run by source, then by order scheduled."""
        if time_us < self.now:
            raise ValueError(f"cannot schedule at {time_us} before now={self.now}")
        heapq.heappush(self._heap, (time_us, source, next(self._counter), process))

    def run_until(self, t_end_us: float) -> None:
        """Run every resume up to t_end_us, then close the processes left."""
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            t, source, _, process = heapq.heappop(heap)
            self.now = t
            try:
                delay = next(process)
            except StopIteration:
                continue
            self.at(t + delay, process, source)
        self.now = max(self.now, t_end_us)
        for *_, process in heap:
            process.close()
        heap.clear()


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


def build_field(interferers: Sequence[WifiAp | BtDevice],
                duration_us: float) -> InterferenceField:
    parts: dict[str, list[Columns]] = {}
    for i in interferers:
        parts.setdefault(i.source, []).append(_occupancy(i, duration_us))
    return InterferenceField._from_columns(parts)
