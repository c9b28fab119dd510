"""2.4 GHz band model: channels, interferers, arbitration, scheduler."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearsim import cli, radio, runner
from wearsim.protocol import TraceRow
from wearsim.radio import (DATA_CHANNELS, SYNC_CHANNELS, BtDevice, Burst, EventScheduler,
                           InterferenceField, Jammer, WifiAp, channel_band, wifi_band_mhz)


def make_tx(channel, start, dur, source="s1"):
    return Burst(start_us=start, duration_us=dur, source=source,
                 band_mhz=channel_band(channel))


def occupancy(interferer, end_us):
    """One interferer's bursts, as the field holds them."""
    return radio.build_field([interferer], end_us).all_bursts()


def scalar_occupancy(interferer, end_us):
    """Oracle: one scalar draw per burst edge, in the order the columns sum them."""
    out = []

    def emit(bs, be, band):
        be = min(be, end_us)
        if be > bs:
            out.append(Burst(bs, be - bs, interferer.source, band))

    if isinstance(interferer, Jammer):
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
    interval = interferer.event_interval_ms * 1000.0
    phase = float(rng.uniform(0.0, interval))
    inc = radio._BT_INCREMENTS[int(rng.integers(0, len(radio._BT_INCREMENTS)))]
    ch = int(rng.integers(0, 40))
    t = phase
    while t < end_us:
        ch = (ch + inc) % 40
        center = 2402 + 2 * ch
        emit(t, t + interferer.burst_us, (float(center - 1), float(center + 1)))
        t += interval
    return out


def bits(b):
    assert all(type(x) is float for x in (b.start_us, b.duration_us, *b.band_mhz))
    return (b.source, b.start_us.hex(), b.duration_us.hex(),
            b.band_mhz[0].hex(), b.band_mhz[1].hex())


class TestChannelPlan:
    def test_partition(self):
        assert len(SYNC_CHANNELS) == 3
        assert len(DATA_CHANNELS) == 77
        assert set(SYNC_CHANNELS) | set(DATA_CHANNELS) == set(range(80))
        assert set(SYNC_CHANNELS) & set(DATA_CHANNELS) == set()

    def test_centers_and_bands(self):
        assert channel_band(0) == (2399.0, 2401.0)
        assert channel_band(37) == (2436.0, 2438.0)
        assert channel_band(79) == (2478.0, 2480.0)

    def test_sync_channels_dodge_wifi_centers(self):
        # Sync channels sit outside the central lobes of Wi-Fi 1/6/11.
        assert set(SYNC_CHANNELS) == {2, 26, 79}


class TestOverlaps:
    """The spectral half of the any-overlap rule: a channel against a Wi-Fi band."""

    @staticmethod
    def busy(k, band):
        field = InterferenceField([Burst(0.0, 100.0, "wifi", band)])
        return field.busy(channel_band(k), 10.0, 20.0)

    def test_inside_wifi6(self):
        assert self.busy(37, (2426.0, 2448.0)) is True

    def test_far_channel(self):
        assert self.busy(79, (2401.0, 2423.0)) is False

    def test_touching_is_not_overlap(self):
        # Channel 24 occupies [2423, 2425]; Wi-Fi 1 ends at 2423 exactly.
        assert self.busy(24, (2401.0, 2423.0)) is False

    def test_bad_channel(self):
        with pytest.raises(ValueError):
            channel_band(80)


class TestWifiBand:
    def test_geometry(self):
        assert radio.wifi_band_mhz(6) == (2426.0, 2448.0)
        assert radio.wifi_band_mhz(1) == (2401.0, 2423.0)
        assert radio.wifi_band_mhz(11) == (2451.0, 2473.0)


class TestOccupancy:
    def test_duty_zero_empty(self):
        ap = WifiAp(wifi_channel=6, duty=0.0, seed=1)
        assert occupancy(ap, 1e6) == []

    def test_duty_one_spans_window(self):
        ap = WifiAp(wifi_channel=6, duty=1.0, seed=1)
        bursts = occupancy(ap, 1e6)
        assert len(bursts) == 1
        assert bursts[0].start_us == 0.0
        assert bursts[0].duration_us == 1e6

    def test_duty_half_lln(self):
        ap = WifiAp(wifi_channel=6, duty=0.5, mean_burst_ms=2.0, seed=7)
        busy = sum(b.duration_us for b in occupancy(ap, 10e6))
        assert 0.45 <= busy / 10e6 <= 0.55

    def test_bursts_sorted_disjoint_clipped(self):
        ap = WifiAp(wifi_channel=1, duty=0.3, mean_burst_ms=2.0, seed=3)
        bursts = occupancy(ap, 3e5)
        assert bursts
        for a, b in zip(bursts, bursts[1:]):
            assert a.start_us + a.duration_us <= b.start_us
        for b in bursts:
            assert b.start_us >= 0.0 and b.start_us + b.duration_us <= 3e5

    def test_bt_cadence_and_band(self):
        bt = BtDevice(event_interval_ms=15.0, burst_us=296.0, seed=5)
        bursts = occupancy(bt, 1.5e6)
        assert 98 <= len(bursts) <= 101
        for b in bursts:
            assert b.duration_us == 296.0
            lo, hi = b.band_mhz
            assert hi - lo == 2.0
            assert 2401.0 <= lo and hi <= 2481.0

    def test_bt_hops(self):
        bt = BtDevice(seed=5)
        bands = {b.band_mhz for b in occupancy(bt, 1e6)}
        assert len(bands) > 10

    def test_deterministic(self):
        for mk in (lambda: WifiAp(6, 0.25, seed=11), lambda: BtDevice(seed=11)):
            a = occupancy(mk(), 1e6)
            b = occupancy(mk(), 1e6)
            assert a == b

    def test_duty_validated(self):
        with pytest.raises(ValueError):
            WifiAp(wifi_channel=6, duty=1.5, seed=1)
        with pytest.raises(ValueError):
            WifiAp(wifi_channel=3, duty=0.5, seed=1)

    def test_bt_interval_covers_burst(self):
        BtDevice(event_interval_ms=0.296, burst_us=296.0)
        for interval_ms in (0.295, 1e306):
            with pytest.raises(ValueError, match="event_interval_ms"):
                BtDevice(event_interval_ms=interval_ms, burst_us=296.0)


def mixed_sources(seed):
    """Crowded preset plus a late jammer, a duty-1 AP, a silent AP, a dense AP
    and a fast BT hopper."""
    return [*radio.preset_interferers("crowded", seed),
            Jammer(5 + seed, start_s=0.4 * seed, name="jam:0"),
            WifiAp(6, 1.0, seed=seed, name="wifi:full"),
            WifiAp(11, 0.0, seed=seed, name="wifi:off"),
            WifiAp(1, 0.9, mean_burst_ms=0.5, seed=seed + 1, name="wifi:dense"),
            BtDevice(event_interval_ms=0.4, seed=seed + 2, name="bt:fast")]


# Time chunks of 0.3 s: a 1.3 s field has four, so three chunk edges.
SMALL_CHUNKS = {"_CHUNK_US": 3e5}


class TestColumns:
    @pytest.mark.parametrize("chunks", [{}, {"_DRAW_CHUNK": 7}, SMALL_CHUNKS,
                                        {**SMALL_CHUNKS, "_DRAW_CHUNK": 7}])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_match_scalar_oracle(self, seed, chunks, monkeypatch):
        # Small draws carry the running sum across many draws; small chunks
        # carry it, the BT hop count and each lane's bursts across chunk edges.
        for name, size in chunks.items():
            monkeypatch.setattr(radio, name, size)
        end = 1.3e6
        sources = mixed_sources(seed)
        expected = sorted((b for i in sources for b in scalar_occupancy(i, end)),
                          key=lambda b: (b.start_us, b.source))
        field = radio.build_field(sources, end)
        got = field.all_bursts()
        assert len(got) > 1000 and all(type(b) is Burst for b in got)
        assert list(map(bits, got)) == list(map(bits, expected))
        assert len(field._edges) == (3 if chunks.get("_CHUNK_US") else 0)

    def test_transmissions_and_columns_give_one_field(self):
        columns = radio.build_field(mixed_sources(6), 1e6)
        for rebuilt in (InterferenceField(columns.all_bursts()),
                        InterferenceField(reversed(columns.all_bursts()))):
            assert rebuilt.all_bursts() == columns.all_bursts()
            for band in QUERY_BANDS + [channel_band(k) for k in (26, 40, 60, 79)]:
                for start in np.linspace(-100.0, 1.05e6, 97).tolist():
                    for length in (1.0, 296.0, 5000.0):
                        assert (rebuilt.busy(band, start, start + length)
                                is columns.busy(band, start, start + length))

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must be positive"):
            InterferenceField([Burst(10.0, duration, "wifi", wifi_band_mhz(6))])

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, start):
        # A burst at a NaN or infinite start was dropped from every draw.
        band = wifi_band_mhz(6)
        with pytest.raises(ValueError, match=f"start must be finite, got {start}"):
            InterferenceField([Burst(start, 10.0, "a", band), Burst(5.0, 10.0, "b", band)])

    @pytest.mark.parametrize("band", [(math.nan, 2438.0), (2436.0, math.nan),
                                      (2438.0, 2436.0), (2436.0, 2436.0)])
    def test_band_must_run_from_low_to_high(self, band):
        # A NaN band was never busy.
        with pytest.raises(ValueError, match=re.escape(f"band must run from low to high, "
                                                       f"got {band}")):
            InterferenceField([Burst(10.0, 5.0, "a", band)])

    def test_repeated_source_rejected(self):
        for pair in ([BtDevice(seed=1, name="bt"), BtDevice(seed=2, name="bt")],
                     [Jammer(9, name="jam:9"), Jammer(10, 0.1, name="jam:9")],
                     [WifiAp(6, 0.2), WifiAp(6, 0.5, seed=3)]):
            with pytest.raises(ValueError, match=f"share the source '{pair[0].source}'"):
                radio.build_field(pair, 1e6)

    def test_overlapping_bursts_of_one_source_rejected(self):
        band = channel_band(9)
        bursts = [Burst(0.0, 10.0, "y", band), Burst(30.0, 10.0, "x", band),
                  Burst(10.0, 5.0, "y", band), Burst(20.0, 10.5, "x", band)]
        for given in (bursts, bursts[::-1]):
            with pytest.raises(ValueError, match="overlapping bursts within source 'x'"):
                InterferenceField(given)
        # Touching bursts do not overlap.
        InterferenceField([*bursts[:3], Burst(20.0, 10.0, "x", band)])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lanes_do_not_overlap_across_chunk_edges(self, seed, monkeypatch):
        monkeypatch.setattr(radio, "_CHUNK_US", SMALL_CHUNKS["_CHUNK_US"])
        field = radio.build_field(mixed_sources(seed), 1.3e6)
        take = field.windows(1.3e6)
        reach = [-math.inf] * len(field.sources)  # where each lane's last burst ends
        for cut in [*field._edges, math.inf]:
            starts, durations, lanes = take(cut)
            assert np.all(np.diff(starts) >= 0.0)
            for start, duration, lane in zip(starts.tolist(), durations.tolist(),
                                             lanes.tolist()):
                assert start >= reach[lane], (field.sources[lane], start)
                reach[lane] = start + duration
        # Every lane but the silent AP draws bursts in the last chunk.
        assert field._edges == [3e5, 6e5, 9e5]
        assert sum(r > 9e5 for r in reach) == len(reach) - 1


# Channel 2 shares its low edge with Wi-Fi 1, channels 10 and 11 overlap.
BANDS = [channel_band(2), channel_band(10), channel_band(11), wifi_band_mhz(1)]
QUERY_BANDS = [channel_band(k) for k in range(0, 16)] + [wifi_band_mhz(1), wifi_band_mhz(6)]


@st.composite
def burst_lists(draw):
    """Bursts of up to four sources on a coarse grid, so bursts touch,
    overlap and contain each other across sources and bands repeat."""
    bursts = []
    for n in range(draw(st.integers(0, 4))):
        t = 0
        for _ in range(draw(st.integers(0, 8))):
            t += draw(st.integers(0, 4))
            d = draw(st.integers(1, 12))
            bursts.append(Burst(float(t), float(d), f"s{n}",
                                draw(st.sampled_from(BANDS))))
            t += d
    return bursts


queries = st.lists(st.tuples(st.sampled_from(QUERY_BANDS),
                             st.integers(-2, 60).map(float) | st.floats(-2.0, 60.0),
                             st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5])),
                   min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(burst_lists(), queries)
def test_busy_matches_brute_force(bursts, queries):
    field = InterferenceField(bursts)
    for band, start, length in queries:
        end = start + length
        expected = any(b.start_us < end and b.start_us + b.duration_us > start
                       and b.band_mhz[0] < band[1] and band[0] < b.band_mhz[1]
                       for b in bursts)
        assert field.busy(band, start, end) is expected


# Chunks of 8 us: the grid's bursts cross chunk edges all the time.
SEAM_CHUNK_US = 8.0
SEAM_EDGES = [SEAM_CHUNK_US * k for k in range(1, 8)]


@st.composite
def seam_cases(draw):
    """burst_lists plus, at a chunk edge, a burst across it and a burst of
    another source in its band that starts in the next chunk by the time
    the first one ends, so the index joins intervals at the seam; then
    steps: a drop, moving the drop time on by its value, or a query band
    and length."""
    edge = draw(st.sampled_from(SEAM_EDGES))
    band = draw(st.sampled_from(BANDS))
    lead = draw(st.integers(1, 7))
    reach = draw(st.integers(1, 7))
    follow = draw(st.integers(0, reach))
    bursts = [*draw(burst_lists()),
              Burst(edge - lead, float(lead + reach), "seam:a", band),
              Burst(edge + follow, float(draw(st.integers(1, 8))), "seam:b", band)]
    steps = draw(st.lists(st.integers(0, 8).map(float)
                          | st.tuples(st.sampled_from(QUERY_BANDS),
                                      st.sampled_from([0.5, 1.0, 3.0, 7.5])),
                          min_size=1, max_size=12))
    return bursts, steps


@settings(max_examples=300, deadline=None)
@given(seam_cases())
def test_chunked_busy_matches_brute_force_across_drops(case):
    # Each query step asks from just before every burst edge; a query that
    # starts before the last drop raises.
    bursts, steps = case
    starts = sorted({t - before for b in bursts for t in (b.start_us, b.start_us + b.duration_us)
                     for before in (0.0, 0.25, 1.0)})
    with pytest.MonkeyPatch.context() as m:
        m.setattr(radio, "_CHUNK_US", SEAM_CHUNK_US)
        field = InterferenceField._drawn(InterferenceField(bursts)._parts, 64.0)
    assert field._edges == SEAM_EDGES
    dropped = -math.inf
    for step in steps:
        if isinstance(step, float):
            dropped = max(dropped, 0.0) + step
            field.drop(dropped)
            continue
        band, length = step
        for start in starts:
            end = start + length
            if start < dropped:
                with pytest.raises(ValueError, match=f"before {dropped} us was dropped"):
                    field.busy(band, start, end)
                continue
            expected = any(b.start_us < end and b.start_us + b.duration_us > start
                           and b.band_mhz[0] < band[1] and band[0] < b.band_mhz[1]
                           for b in bursts)
            assert field.busy(band, start, end) is expected, (band, start, end)


class TestChunkEdges:
    """A field drawn in 0.3 s chunks answers and reads as one drawn whole."""

    END = 1.3e6

    @pytest.fixture
    def chunked(self, monkeypatch):
        def build(seed):
            with monkeypatch.context() as m:
                m.setattr(radio, "_CHUNK_US", SMALL_CHUNKS["_CHUNK_US"])
                field = radio.build_field(mixed_sources(seed), self.END)
            assert field._edges == [3e5, 6e5, 9e5]
            return field
        return build

    @staticmethod
    def brute_busy(bursts):
        """Oracle: busy() as one test of every burst."""
        starts, durations, lo, hi = (np.array(c) for c in zip(*(b[:2] + b[3] for b in bursts)))
        ends = starts + durations

        def busy(band, start, end):
            return bool(np.any((starts < end) & (ends > start) & (lo < band[1]) & (band[0] < hi)))
        return busy

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_busy_across_edges(self, chunked, seed):
        field = chunked(seed)
        bursts = field.all_bursts()
        brute = self.brute_busy(bursts)
        edges = field._edges
        # The duty-1 AP, the jammer and some dense-AP bursts span edges.
        spanning = {b.source for b in bursts
                    if any(b.start_us < e < b.start_us + b.duration_us for e in edges)}
        assert {"wifi:full", "jam:0"} <= spanning and len(spanning) > 2
        bands = QUERY_BANDS + [channel_band(k) for k in (2, 26, 40, 60, 79)]
        # Straddling queries at each edge, then queries that run backwards
        # over chunks drawn already, some spanning two edges.
        queries = [(e + lead, length) for e in edges for lead in (-300.0, -1.0, -1e-6, 0.0)
                   for length in (0.5, 2.0, 296.0, 5000.0)]
        queries += [(t, length) for t in np.linspace(1.25e6, -50.0, 41).tolist()
                    for length in (128.0, 4e5)]
        for start, length in queries:
            for band in bands:
                assert (field.busy(band, start, start + length)
                        is brute(band, start, start + length)), (band, start, length)

    def test_windows_read_every_burst_across_edges(self, chunked):
        field = chunked(4)
        expected = [(b.start_us, b.duration_us, b.source) for b in field.all_bursts()
                    if b.start_us <= 1.2e6]
        take = field.windows(1.2e6)
        got = []
        for cut in [0.0, 2.9e5, 3e5, 3e5, 7.7e5, 1.25e6, 1.25e6, math.inf]:
            starts, durations, lanes = take(cut)
            got += zip(starts.tolist(), durations.tolist(),
                       map(field.sources.__getitem__, lanes.tolist()))
        assert got == expected

    def test_drop_forgets_chunks_and_refuses_queries_before_them(self, chunked):
        band = wifi_band_mhz(6)
        # Traced from the build on, so the memory the drop frees is seen.
        tracemalloc.start()
        try:
            field = chunked(5)
            field.busy(band, 1.0e6, 1.0e6 + 10.0)  # draws every chunk
            held = tracemalloc.get_traced_memory()[0]
            field.drop(6.5e5)
            assert tracemalloc.get_traced_memory()[0] < held
        finally:
            tracemalloc.stop()
        brute = self.brute_busy(field.all_bursts())
        for start in (6.5e5, 9e5, 1.1e6):
            assert field.busy(band, start, start + 500.0) is brute(band, start, start + 500.0)
        for start in (0.0, 2.9e5, 6.4e5, 6.4999e5):
            with pytest.raises(ValueError, match="before 650000.0 us was dropped"):
                field.busy(band, start, start + 500.0)


def test_records_share_time_and_source_columns():
    # runner._RadioTrace and InterferenceField.all_bursts() order by time
    # and source, which all three hold in fields 0 and 2. A row's radio
    # line is its session line without the two cells before the last.
    assert TraceRow._fields[0:3:2] == ("time_us", "source")
    assert ",".join(TraceRow._fields[:5] + TraceRow._fields[7:]) == runner.RADIO_TRACE_HEADER
    assert TraceRow._fields[-3:-1] == ("frame_type", "sensor_id")
    assert Burst._fields[0:3:2] == ("start_us", "source")
    assert runner.RADIO_TRACE_HEADER.split(",")[0:3:2] == ["time_us", "source"]


def test_protocol_bench_builds_one_field_per_seed(tmp_path, monkeypatch):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("session: {duration_s: 1.0, seed: 3}\n"
                        "motion: {preset: arm-raise}\n"
                        "interference: {preset: crowded}\n")
    calls = []

    def counted(*args):
        calls.append(args)
        return radio.build_field(*args)

    def bench(out):
        args = ["protocol-bench", "--scenario", str(scenario), "--out", str(out),
                "--seeds", "3"]
        assert cli.main(args) == 0
        return (out / "bench.json").read_bytes(), (out / "bench.csv").read_bytes()

    monkeypatch.setattr(runner, "build_field", counted)
    shared = bench(tmp_path / "shared")
    assert len(calls) == 3
    # Without a shared field, execute builds one per protocol run.
    monkeypatch.setattr(cli, "scenario_field", lambda sc: None)
    separate = bench(tmp_path / "separate")
    assert len(calls) == 3 + 6
    assert shared == separate
    assert json.loads(shared[0])["hop_count_total"]["cw"] > 0


class TestInterferenceField:
    def setup_method(self):
        burst = Burst(start_us=100.0, duration_us=100.0, source="wifi:6",
                      band_mhz=(2436.0, 2438.0))
        self.field = InterferenceField([burst])

    def test_overlap_detected(self):
        assert self.field.busy((2436.0, 2438.0), 150.0, 160.0)
        assert self.field.busy((2437.5, 2439.5), 199.0, 300.0)

    def test_touching_not_busy(self):
        assert not self.field.busy((2436.0, 2438.0), 200.0, 210.0)
        assert not self.field.busy((2436.0, 2438.0), 90.0, 100.0)

    def test_spectrally_clear(self):
        assert not self.field.busy((2448.0, 2450.0), 150.0, 160.0)

    def test_empty_field(self):
        assert not InterferenceField([]).busy((2400.0, 2480.0), 0.0, 1e9)


def arbitrate(tx, field, **kwargs):
    return radio.arbitrate(tx.start_us, tx.duration_us, tx.band_mhz, field, **kwargs)


class TestArbitrate:
    def test_lone_delivery(self):
        tx = make_tx(37, 1000.0, 128.0)
        assert arbitrate(tx, InterferenceField([])) == "delivered"

    def test_inside_burst_collides(self):
        burst = Burst(900.0, 1000.0, "wifi:6", band_mhz=(2426.0, 2448.0))
        tx = make_tx(37, 1000.0, 128.0)
        assert arbitrate(tx, InterferenceField([burst])) == "collided"

    def test_one_microsecond_tail_overlap_collides(self):
        # Burst ends 1 us into the packet.
        burst = Burst(0.0, 1001.0, "wifi:6", band_mhz=(2426.0, 2448.0))
        tx = make_tx(37, 1000.0, 128.0)
        assert arbitrate(tx, InterferenceField([burst])) == "collided"

    def test_touching_delivers(self):
        burst = Burst(0.0, 1000.0, "wifi:6", band_mhz=(2426.0, 2448.0))
        tx = make_tx(37, 1000.0, 128.0)
        assert arbitrate(tx, InterferenceField([burst])) == "delivered"

    def test_floor_draw_only_when_clear(self):
        burst = Burst(0.0, 2000.0, "wifi:6", band_mhz=(2426.0, 2448.0))
        rng = np.random.default_rng(5)
        tx = make_tx(37, 1000.0, 128.0)
        assert arbitrate(tx, InterferenceField([burst]), p_floor=1.0,
                         floor_rng=rng) == "collided"
        assert arbitrate(make_tx(60, 1000.0, 128.0), InterferenceField([burst]), p_floor=1.0,
                         floor_rng=rng) == "floor-lost"
        assert rng.random() == np.random.default_rng(5).random(2)[1]


class TestScheduler:
    def test_time_order(self):
        sched = EventScheduler()
        for t, source in [(30.0, 3), (10.0, 1), (20.0, 2)]:
            sched.at(t, source)
        assert list(sched.until(100.0)) == [(10.0, 1), (20.0, 2), (30.0, 3)]
        assert sched.now == 30.0

    def test_ties_taken_by_source(self):
        sched = EventScheduler()
        for source in (2, 0, 1):
            sched.at(10.0, source)
        assert list(sched.until(10.0)) == [(10.0, 0), (10.0, 1), (10.0, 2)]

    def test_past_event_rejected(self):
        sched = EventScheduler()
        sched.at(50.0, 1)
        assert list(sched.until(50.0)) == [(50.0, 1)]
        with pytest.raises(ValueError, match="cannot schedule at 10.0 before now=50.0"):
            sched.at(10.0, 1)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="cannot schedule at nan"):
            EventScheduler().at(math.nan, 1)

    # Alone or with another entry pending, the bound far or exactly at the
    # bad entry: at() refuses a time before the entry being taken, or NaN.
    @pytest.mark.parametrize("bound", [5.0, 100.0])
    @pytest.mark.parametrize("other", [None, (5.0, 1), (50.0, 0)])
    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_bad_delay_rejected(self, bound, other, delay):
        sched = EventScheduler()
        delays = iter([5.0, delay])
        sched.at(0.0, 0)
        if other is not None:
            sched.at(*other)
        with pytest.raises(ValueError, match="cannot schedule"):
            for t, source in sched.until(bound):
                if source == 0:
                    sched.at(t + next(delays), 0)

    def test_entries_queued_while_taking_are_taken(self):
        # Each entry queues the next one 4 us later, on the bound included.
        sched = EventScheduler()
        sched.at(0.0, 1)
        sched.at(6.0, 0)
        taken = []
        for t, source in sched.until(12.0):
            taken.append((t, source))
            if source == 1:
                sched.at(t + 4.0, 1)
        assert taken == [(0.0, 1), (4.0, 1), (6.0, 0), (8.0, 1), (12.0, 1)]

    def test_entries_past_the_bound_stay_queued(self):
        sched = EventScheduler()
        for t in (5.0, 15.0, 25.0):
            sched.at(t, 1)
        assert list(sched.until(15.0)) == [(5.0, 1), (15.0, 1)]
        assert sched.now == 15.0
        assert list(sched.until(20.0)) == []
        assert list(sched.until(math.inf)) == [(25.0, 1)]


def preset_field(name, seed):
    return radio.build_field(radio.preset_interferers(name, seed), 1e6)


class TestPresets:
    def test_clean_is_empty(self):
        field = preset_field("clean", 1)
        assert field.all_bursts() == []

    def test_crowded_composition(self):
        field = preset_field("crowded", 1)
        sources = {b.source for b in field.all_bursts()}
        wifi = [s for s in sources if s.startswith("wifi")]
        bt = [s for s in sources if s.startswith("bt")]
        assert len(wifi) == 12 and len(bt) == 8

    def test_crowded_deterministic(self):
        a = preset_field("crowded", 9)
        b = preset_field("crowded", 9)
        assert a.all_bursts() == b.all_bursts()
        c = preset_field("crowded", 10)
        assert a.all_bursts() != c.all_bursts()

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="interference"):
            radio.preset_interferers("stormy", seed=1)
