"""Deterministic model of the 2.4 GHz band.

80 radio channels, 1 MHz spacing, 2 MHz occupied bandwidth (adjacent
channels overlap). Interferers are renewal processes (Wi-Fi duty
cycles) or periodic hoppers (Bluetooth); collisions are binary on any
spectral-and-temporal overlap of nonzero measure. No capture effect,
power, or distance modeling: crowdedness is expressed via duty cycles.

The event scheduler is single-threaded and fully deterministic: events
fire in nondecreasing time, ties broken by (source id, insertion
order).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Sequence

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


@dataclass(frozen=True)
class Transmission:
    source: str
    start_us: float
    duration_us: float
    band_mhz: tuple[float, float]

    def __post_init__(self) -> None:
        if self.duration_us <= 0.0:
            raise ValueError("transmission duration must be positive")

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


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


def occupancy(interferer: WifiAp | BtDevice | Jammer,
              end_us: float) -> list[Transmission]:
    """Seeded burst list of one interferer from t=0, clipped at end_us."""
    out: list[Transmission] = []

    def emit(bs: float, be: float, band: tuple[float, float]) -> None:
        be = min(be, end_us)
        if be > bs:
            out.append(Transmission(interferer.source, bs, be - bs, band))

    if isinstance(interferer, Jammer):
        # A jammer draws nothing, so it carries no seed.
        emit(interferer.start_s * 1e6, end_us, channel_band(interferer.channel))
        return out

    rng = np.random.default_rng(interferer.seed)
    if isinstance(interferer, WifiAp):
        band = wifi_band_mhz(interferer.wifi_channel)
        if interferer.duty == 0.0:
            return []
        if interferer.duty == 1.0:
            emit(0.0, end_us, band)
            return out
        mean_busy = interferer.mean_burst_ms * 1000.0
        mean_idle = mean_busy * (1.0 - interferer.duty) / interferer.duty
        t = 0.0
        while t < end_us:
            t += float(rng.exponential(mean_idle))
            if t >= end_us:
                break
            dur = float(rng.exponential(mean_busy))
            emit(t, t + dur, band)
            t += dur
        return out

    # Bluetooth: hop (last + increment) mod 40 over 2 MHz channels at
    # 2402 + 2k, one burst per connection event.
    interval = interferer.event_interval_ms * 1000.0
    phase = float(rng.uniform(0.0, interval))
    inc = _BT_INCREMENTS[int(rng.integers(0, len(_BT_INCREMENTS)))]
    ch = int(rng.integers(0, 40))
    t = phase
    while t < end_us:
        ch = (ch + inc) % 40
        center = 2402 + 2 * ch
        emit(t, t + interferer.burst_us, (float(center - 1), float(center + 1)))
        t += interval
    return out


class InterferenceField:
    """Queryable set of interferer bursts for one session.

    Bursts of one source must be non-overlapping (renewal processes
    guarantee that); sources are independent lanes.
    """

    def __init__(self, bursts: Iterable[Transmission]) -> None:
        lanes: dict[str, list[Transmission]] = {}
        for b in bursts:
            lanes.setdefault(b.source, []).append(b)
        self._lanes: list[tuple[list[float], list[float], list[tuple[float, float]]]] = []
        self._all: list[Transmission] = []
        for source in sorted(lanes):
            lane = sorted(lanes[source], key=lambda b: b.start_us)
            for a, b in zip(lane, lane[1:]):
                if b.start_us < a.end_us:
                    raise ValueError(f"overlapping bursts within source {source!r}")
            self._lanes.append(([b.start_us for b in lane],
                                [b.end_us for b in lane],
                                [b.band_mhz for b in lane]))
            self._all.extend(lane)
        self._all.sort(key=lambda b: (b.start_us, b.source))

    def all_bursts(self) -> list[Transmission]:
        return list(self._all)

    def busy(self, band: tuple[float, float], start_us: float, end_us: float) -> bool:
        """Any burst overlapping the band and the interval, both strictly."""
        for starts, ends, bands in self._lanes:
            i = bisect_left(starts, end_us)
            j = i - 1
            while j >= 0 and ends[j] > start_us:
                lo, hi = bands[j]
                if lo < band[1] and band[0] < hi:
                    return True
                j -= 1
        return False


def arbitrate(tx: Transmission, field: InterferenceField,
              node_txs: Sequence[Transmission] = (),
              p_floor: float = 0.0,
              floor_rng: np.random.Generator | None = None) -> str:
    """Outcome of one transmission under the binary any-overlap rule."""
    if field.busy(tx.band_mhz, tx.start_us, tx.end_us):
        return COLLIDED
    for other in node_txs:
        if other is tx:
            continue
        if (other.start_us < tx.end_us and tx.start_us < other.end_us
                and other.band_mhz[0] < tx.band_mhz[1]
                and tx.band_mhz[0] < other.band_mhz[1]):
            return COLLIDED
    if p_floor > 0.0 and floor_rng is not None and float(floor_rng.random()) < p_floor:
        return FLOOR_LOST
    return DELIVERED


class EventScheduler:
    """Deterministic discrete-event loop over a microsecond clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def at(self, time_us: float, fn: Callable[[], None], source: int = 0) -> None:
        if time_us < self.now:
            raise ValueError(f"cannot schedule at {time_us} before now={self.now}")
        heapq.heappush(self._heap, (time_us, source, next(self._counter), fn))

    def spawn(self, source: int, gen: Generator[float, None, None]) -> None:
        """Drive a generator that yields microsecond delays."""
        def step() -> None:
            try:
                delay = next(gen)
            except StopIteration:
                return
            self.at(self.now + delay, step, source)
        self.at(self.now, step, source)

    def run_until(self, t_end_us: float) -> None:
        while self._heap and self._heap[0][0] <= t_end_us:
            t, _, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = max(self.now, t_end_us)


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
    bursts: list[Transmission] = []
    for i in interferers:
        bursts.extend(occupancy(i, duration_us))
    return InterferenceField(bursts)
