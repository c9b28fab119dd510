"""2.4 GHz band model: channels, interferers, arbitration, scheduler."""

import pytest

from wearsim import radio
from wearsim.radio import (DATA_CHANNELS, SYNC_CHANNELS, BtDevice, EventScheduler,
                           InterferenceField, Transmission, WifiAp, channel_band)


def make_tx(channel, start, dur, source="s1"):
    return Transmission(source=source, start_us=start, duration_us=dur,
                        band_mhz=channel_band(channel))


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
        field = InterferenceField([Transmission("wifi", 0.0, 100.0, band)])
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
        assert radio.occupancy(ap, 1e6) == []

    def test_duty_one_spans_window(self):
        ap = WifiAp(wifi_channel=6, duty=1.0, seed=1)
        bursts = radio.occupancy(ap, 1e6)
        assert len(bursts) == 1
        assert bursts[0].start_us == 0.0
        assert bursts[0].duration_us == 1e6

    def test_duty_half_lln(self):
        ap = WifiAp(wifi_channel=6, duty=0.5, mean_burst_ms=2.0, seed=7)
        busy = sum(b.duration_us for b in radio.occupancy(ap, 10e6))
        assert 0.45 <= busy / 10e6 <= 0.55

    def test_bursts_sorted_disjoint_clipped(self):
        ap = WifiAp(wifi_channel=1, duty=0.3, mean_burst_ms=2.0, seed=3)
        bursts = radio.occupancy(ap, 3e5)
        assert bursts
        for a, b in zip(bursts, bursts[1:]):
            assert a.start_us + a.duration_us <= b.start_us
        for b in bursts:
            assert b.start_us >= 0.0 and b.start_us + b.duration_us <= 3e5

    def test_bt_cadence_and_band(self):
        bt = BtDevice(event_interval_ms=15.0, burst_us=296.0, seed=5)
        bursts = radio.occupancy(bt, 1.5e6)
        assert 98 <= len(bursts) <= 101
        for b in bursts:
            assert b.duration_us == 296.0
            lo, hi = b.band_mhz
            assert hi - lo == 2.0
            assert 2401.0 <= lo and hi <= 2481.0

    def test_bt_hops(self):
        bt = BtDevice(seed=5)
        bands = {b.band_mhz for b in radio.occupancy(bt, 1e6)}
        assert len(bands) > 10

    def test_deterministic(self):
        for mk in (lambda: WifiAp(6, 0.25, seed=11), lambda: BtDevice(seed=11)):
            a = radio.occupancy(mk(), 1e6)
            b = radio.occupancy(mk(), 1e6)
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


class TestInterferenceField:
    def setup_method(self):
        burst = Transmission(source="wifi:6", start_us=100.0, duration_us=100.0,
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


class TestArbitrate:
    def test_lone_delivery(self):
        tx = make_tx(37, 1000.0, 128.0)
        assert radio.arbitrate(tx, InterferenceField([])) == "delivered"

    def test_inside_burst_collides(self):
        burst = Transmission("wifi:6", 900.0, 1000.0, band_mhz=(2426.0, 2448.0))
        tx = make_tx(37, 1000.0, 128.0)
        assert radio.arbitrate(tx, InterferenceField([burst])) == "collided"

    def test_one_microsecond_tail_overlap_collides(self):
        # Burst ends 1 us into the packet.
        burst = Transmission("wifi:6", 0.0, 1001.0, band_mhz=(2426.0, 2448.0))
        tx = make_tx(37, 1000.0, 128.0)
        assert radio.arbitrate(tx, InterferenceField([burst])) == "collided"

    def test_touching_delivers(self):
        burst = Transmission("wifi:6", 0.0, 1000.0, band_mhz=(2426.0, 2448.0))
        tx = make_tx(37, 1000.0, 128.0)
        assert radio.arbitrate(tx, InterferenceField([burst])) == "delivered"

    def test_node_collision(self):
        a = make_tx(37, 1000.0, 128.0, source="a")
        b = make_tx(37, 1100.0, 128.0, source="b")
        assert radio.arbitrate(a, InterferenceField([]), node_txs=[a, b]) == "collided"

    def test_node_on_other_channel_ok(self):
        a = make_tx(37, 1000.0, 128.0, source="a")
        b = make_tx(60, 1100.0, 128.0, source="b")
        assert radio.arbitrate(a, InterferenceField([]), node_txs=[a, b]) == "delivered"


class TestScheduler:
    def test_time_order(self):
        sched = EventScheduler()
        seen = []
        sched.at(30.0, lambda: seen.append("c"))
        sched.at(10.0, lambda: seen.append("a"))
        sched.at(20.0, lambda: seen.append("b"))
        sched.run_until(100.0)
        assert seen == ["a", "b", "c"]
        assert sched.now == 100.0

    def test_tie_break_by_source_then_insertion(self):
        sched = EventScheduler()
        seen = []
        sched.at(10.0, lambda: seen.append("s2-first"), source=2)
        sched.at(10.0, lambda: seen.append("s1"), source=1)
        sched.at(10.0, lambda: seen.append("s2-second"), source=2)
        sched.run_until(10.0)
        assert seen == ["s1", "s2-first", "s2-second"]

    def test_run_until_leaves_future_events(self):
        sched = EventScheduler()
        seen = []
        sched.at(10.0, lambda: seen.append("early"))
        sched.at(200.0, lambda: seen.append("late"))
        sched.run_until(100.0)
        assert seen == ["early"]
        sched.run_until(300.0)
        assert seen == ["early", "late"]

    def test_past_event_rejected(self):
        sched = EventScheduler()
        sched.run_until(50.0)
        with pytest.raises(ValueError):
            sched.at(10.0, lambda: None)

    def test_generator_process(self):
        sched = EventScheduler()
        seen = []

        def proc(name, delay):
            for i in range(3):
                yield delay
                seen.append((name, sched.now, i))

        sched.spawn(1, proc("a", 10.0))
        sched.spawn(2, proc("b", 15.0))
        sched.run_until(100.0)
        assert seen == [("a", 10.0, 0), ("b", 15.0, 0), ("a", 20.0, 1),
                        ("a", 30.0, 2), ("b", 30.0, 1), ("b", 45.0, 2)]


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
