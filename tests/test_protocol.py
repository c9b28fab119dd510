"""Polling protocol, channel hopping, and the connection-based baseline."""

import gc
import math
import tracemalloc
from dataclasses import replace

import pytest

from wearsim import protocol as pr
from wearsim import radio
from wearsim import randomness as rnd
from wearsim.pipeline import rate_series
from wearsim.protocol import (ConfigError, HopPolicy, HopSequencer, SlaveUnit,
                              TimingProfile, ble_baseline_run, csa1_next,
                              master_run, session_metrics)
from wearsim.quatmath import Quaternion
from wearsim.radio import DATA_CHANNELS, SYNC_CHANNELS, InterferenceField, Jammer, build_field

CLEAN = InterferenceField(())


def flat_sampler(sensor_id, t_us):
    return Quaternion.identity()


def crowded_field(seed, duration_s):
    return build_field(radio.preset_interferers("crowded", seed), (duration_s + 0.1) * 1e6)


class TestTimingProfile:
    def test_airtimes(self):
        t = TimingProfile()
        assert t.poll_air_us == 48.0
        assert t.response_air_us == 128.0
        assert t.beacon_air_us == 64.0
        assert t.hop_air_us == 48.0
        assert t.ack_air_us == 32.0

    def test_cap_period(self):
        assert TimingProfile().cap_period_us == pytest.approx(1e6 / 60.0)

    def test_scan_dwell_covers_a_beacon_interval(self):
        t = TimingProfile()
        assert t.scan_dwell_us == 2 * t.beacon_interval_ms * 1000.0


class TestHopSequencer:
    def test_starts_on_its_channel(self):
        seq = HopSequencer(HopPolicy(), seed=9, channel=40)
        assert seq.current == 40
        i = seq.chain.index(40)
        assert seq.advance() == seq.chain[(i + 1) % len(seq.chain)]
        assert list(seq.blacklist) == [40]

    def test_first_hop_follows_the_permutation(self):
        perm = rnd.stream(7, rnd.PROTOCOL).permutation(len(DATA_CHANNELS))
        start, expected = DATA_CHANNELS[perm[0]], DATA_CHANNELS[perm[1]]
        seq = HopSequencer(HopPolicy(), seed=7, channel=start)
        assert seq.advance() == expected

    @pytest.mark.parametrize("channel", [*SYNC_CHANNELS, -1, 80])
    def test_not_a_data_channel(self, channel):
        with pytest.raises(ConfigError, match=f"channel {channel} is not a data channel"):
            HopSequencer(HopPolicy(), seed=1, channel=channel)

    def test_preview_does_not_move(self):
        seq = HopSequencer(HopPolicy(), seed=4, channel=40)
        for _ in range(20):
            state = (seq.current, seq.cursor, list(seq.blacklist))
            nxt, pos = seq.preview()
            assert seq.preview() == (nxt, pos)
            assert (seq.current, seq.cursor, list(seq.blacklist)) == state
            assert seq.chain[pos] == nxt
            assert seq.advance() == nxt
            assert (seq.current, seq.cursor) == (nxt, pos)

    def test_never_a_sync_channel(self):
        seq = HopSequencer(HopPolicy(), seed=3, channel=40)
        for _ in range(200):
            assert seq.advance() in DATA_CHANNELS

    def test_no_revisit_within_blacklist_window(self):
        seq = HopSequencer(HopPolicy(), seed=5, channel=40)
        picks = [40] + [seq.advance() for _ in range(100)]
        for i, ch in enumerate(picks):
            assert ch not in picks[max(0, i - 8):i]


class TestSlaveScanning:
    def test_cycles_sync_channels_without_a_master(self):
        slave = SlaveUnit(TimingProfile(), HopPolicy(), chain=list(DATA_CHANNELS))
        assert slave.listening_channel(0.0) == 2
        assert slave.listening_channel(39_999.0) == 2
        assert slave.listening_channel(40_000.0) == 26
        assert slave.listening_channel(80_000.0) == 79
        assert slave.listening_channel(120_000.0) == 2
        assert slave.seq == 0


class TestRosterValidation:
    def test_empty(self):
        with pytest.raises(ConfigError):
            master_run([], 1.0, flat_sampler, CLEAN, seed=0)

    def test_thirteen_sensors(self):
        with pytest.raises(ConfigError, match="12"):
            master_run(list(range(1, 14)), 1.0, flat_sampler, CLEAN, seed=0)

    def test_duplicate(self):
        with pytest.raises(ConfigError):
            master_run([1, 2, 2], 1.0, flat_sampler, CLEAN, seed=0)

    def test_out_of_range_id(self):
        with pytest.raises(ConfigError):
            master_run([0, 1], 1.0, flat_sampler, CLEAN, seed=0)

    def test_ble_at_most_five(self):
        with pytest.raises(ConfigError, match="5"):
            ble_baseline_run([1, 2, 3, 4, 5, 6], 1.0, flat_sampler, CLEAN, seed=0)

    @pytest.mark.parametrize("run", [master_run, ble_baseline_run])
    @pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_duration_positive_and_finite(self, run, duration_s):
        with pytest.raises(ConfigError, match="duration_s must be positive and finite"):
            run([1], duration_s, flat_sampler, CLEAN, seed=0)

    def test_roster_checked_before_duration(self):
        with pytest.raises(ConfigError, match="roster size"):
            master_run([], math.nan, flat_sampler, CLEAN, seed=0)


class TestCleanThroughput:
    def test_single_sensor_hits_poll_cap_exactly(self):
        res = master_run([1], 10.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        assert abs(m["per_sensor"]["1"]["mean_rate_hz"] - 60.0) <= 1e-3
        assert len(res.frames) == 599
        assert res.hop_count == 0
        assert res.resync_count == 0
        assert m["per_sensor"]["1"]["pdr"] == 1.0

    def test_single_sensor_cadence_is_periodic(self):
        res = master_run([1], 2.0, flat_sampler, CLEAN, seed=0)
        ts = [f.timestamp_us for f in res.frames]
        diffs = {b - a for a, b in zip(ts, ts[1:])}
        assert diffs <= {16666, 16667}

    def test_ten_sensors(self):
        res = master_run(list(range(1, 11)), 10.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        for s in range(1, 11):
            rate = m["per_sensor"][str(s)]["mean_rate_hz"]
            assert 40.0 <= rate <= 60.0
            assert rate == pytest.approx(1e6 / (10 * 2108), abs=0.05)

    def test_twelve_sensors(self):
        res = master_run(list(range(1, 13)), 10.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        for s in range(1, 13):
            rate = m["per_sensor"][str(s)]["mean_rate_hz"]
            assert 28.0 <= rate <= 42.0
            assert rate == pytest.approx(1e6 / (12 * 2108), abs=0.05)

    def test_sequences_contiguous_when_clean(self):
        res = master_run([1, 2, 3], 3.0, flat_sampler, CLEAN, seed=0)
        for s in (1, 2, 3):
            seqs = [f.seq for f in res.frames if f.sensor_id == s]
            assert seqs == list(range(1, len(seqs) + 1))


class TestTdma:
    def test_own_transmissions_never_overlap(self):
        field = crowded_field(2, 4.0)
        res = master_run([1, 2, 3, 4, 5], 4.0, flat_sampler, field, seed=2)
        rows = sorted(res.trace, key=lambda r: r.time_us)
        for a, b in zip(rows, rows[1:]):
            assert a.time_us + a.duration_us <= b.time_us + 1e-9

    def test_ble_nodes_can_collide_with_each_other(self):
        # Unsynchronized connection events may land on the same channel
        # at the same time; the arbiter must see them.
        # On a clean band every collision is node against node; seed 0
        # has some (seeds 1-5 happen to have none).
        res = ble_baseline_run([1, 2, 3, 4, 5], 10.0, flat_sampler, CLEAN, seed=0)
        collided = [r for r in res.trace if r.outcome == radio.COLLIDED]
        assert len(collided) > 0
        for r in collided:
            assert any(o.sensor_id != r.sensor_id and o.channel == r.channel
                       and o.time_us < r.time_us + r.duration_us
                       and r.time_us < o.time_us + o.duration_us
                       for o in res.trace), r


class TestSequenceIntegrity:
    def test_gaps_equal_lost_responses(self):
        field = crowded_field(3, 5.0)
        res = master_run([1, 2, 3, 4, 5], 5.0, flat_sampler, field, seed=3)
        for s in range(1, 6):
            sent = [r for r in res.trace
                    if r.source == f"sensor:{s}" and r.frame_type == "response"]
            delivered = [f for f in res.frames if f.sensor_id == s]
            assert sent, f"sensor {s} never responded"
            assert max(f.seq for f in delivered) <= len(sent)
            lost = sum(1 for r in sent if r.outcome != radio.DELIVERED)
            assert len(sent) - len(delivered) == lost

    def test_response_cut_off_by_session_end_is_not_logged(self):
        # Seed 39 of the crowded arm-raise fixture ends while sensor 5's
        # response is still on air.
        res = master_run([1, 2, 3, 4, 5], 10.0, flat_sampler, crowded_field(39, 10.0),
                         seed=39)
        for s, st in session_metrics(res)["per_sensor"].items():
            assert st["delivered"] == st["recorded"], s


class TestDeterminism:
    def test_cw_bitwise(self):
        field_a = crowded_field(11, 3.0)
        field_b = crowded_field(11, 3.0)
        a = master_run([1, 2, 3], 3.0, flat_sampler, field_a, seed=11)
        b = master_run([1, 2, 3], 3.0, flat_sampler, field_b, seed=11)
        assert a.frames == b.frames
        assert a.trace == b.trace
        assert session_metrics(a) == session_metrics(b)

    def test_ble_bitwise(self):
        field_a = crowded_field(12, 3.0)
        field_b = crowded_field(12, 3.0)
        a = ble_baseline_run([1, 2], 3.0, flat_sampler, field_a, seed=12)
        b = ble_baseline_run([1, 2], 3.0, flat_sampler, field_b, seed=12)
        assert a.frames == b.frames
        assert a.trace == b.trace


class TestConservation:
    def test_every_source_balances(self):
        field = crowded_field(4, 4.0)
        res = master_run([1, 2, 3, 4, 5], 4.0, flat_sampler, field, seed=4)
        for source, c in pr.source_counts(res.trace).items():
            assert c["sent"] == c["delivered"] + c["collided"] + c["floor_lost"], source

    def test_floor_losses_counted(self):
        res = master_run([1], 5.0, flat_sampler, CLEAN, seed=6, p_floor=0.05)
        counts = pr.source_counts(res.trace)
        total_floor = sum(c["floor_lost"] for c in counts.values())
        assert total_floor > 0
        for c in counts.values():
            assert c["sent"] == c["delivered"] + c["collided"] + c["floor_lost"]


class TestJamFixture:
    def run_fixture(self):
        duration = 5.0
        jam = Jammer(channel=40, start_s=2.0)
        field = build_field([jam], duration_us=duration * 1e6 + 1e5)
        return master_run([1, 2, 3, 4, 5], duration, flat_sampler, field, seed=0)

    def test_hops_off_the_jammed_channel(self):
        res = self.run_fixture()
        assert res.hop_count >= 1
        assert res.channel_history[0][1] == 40
        assert res.channel_history[1][1] != 40

    def test_no_deliveries_on_jammed_channel_after_hop(self):
        res = self.run_fixture()
        hop_time = res.channel_history[1][0]
        for r in res.trace:
            if r.channel == 40 and r.outcome == radio.DELIVERED:
                assert r.time_us < hop_time

    def test_all_sensors_resync_within_bound(self):
        res = self.run_fixture()
        bound_us = 200_000 + 3 * 40_000
        for s in range(1, 6):
            ts = [f.timestamp_us for f in res.frames if f.sensor_id == s]
            gaps = [b - a for a, b in zip(ts, ts[1:])]
            assert max(gaps) <= bound_us
        assert res.resync_count == 0  # chain walk suffices; nobody rescanned


class TestCarrierSenseGate:
    def test_transient_losses_do_not_hop(self):
        # Floor losses trip the loss window but assessment finds the
        # channel idle, so the master stays put.
        res = master_run([1, 2], 5.0, flat_sampler, CLEAN, seed=8, p_floor=0.2)
        assert res.hop_count == 0


class TestBleBaseline:
    def test_csa1_example(self):
        assert csa1_next(36, 7) == 6
        assert csa1_next(0, 5) == 5

    def test_channel_centers(self):
        assert pr.ble_center_mhz(0) == 2404
        assert pr.ble_center_mhz(10) == 2424
        assert pr.ble_center_mhz(11) == 2428
        assert pr.ble_center_mhz(36) == 2478

    def test_clean_rate_host_capped(self):
        res = ble_baseline_run([1, 2, 3, 4, 5], 10.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        for s in range(1, 6):
            assert 55.0 <= m["per_sensor"][str(s)]["mean_rate_hz"] <= 60.5
            assert m["per_sensor"][str(s)]["host_dropped"] > 0
        assert res.resync_count == 0

    def test_crowded_degrades_and_drops(self):
        field = crowded_field(1, 5.0)
        res = ble_baseline_run([1, 2, 3, 4, 5], 5.0, flat_sampler, field, seed=1)
        m = session_metrics(res)
        assert res.resync_count >= 1
        rates = [m["per_sensor"][str(s)]["mean_rate_hz"] for s in range(1, 6)]
        assert min(rates) < 45.0

    def test_queue_preserves_order(self):
        field = crowded_field(2, 5.0)
        res = ble_baseline_run([1, 2, 3], 5.0, flat_sampler, field, seed=2)
        for s in (1, 2, 3):
            seqs = [f.seq for f in res.frames if f.sensor_id == s]
            assert seqs == sorted(seqs)
            assert len(seqs) == len(set(seqs))

    def test_stale_samples_deliver_late(self):
        # A retried sample is recorded at its delivery time, later than
        # fresh samples would be; gaps equal flushed/lost samples only.
        field = crowded_field(3, 5.0)
        res = ble_baseline_run([1, 2, 3, 4, 5], 5.0, flat_sampler, field, seed=3)
        assert res.frames
        ts = [f.timestamp_us for f in res.frames]
        assert ts == sorted(ts)


class TestMetrics:
    def test_single_sensor_fields(self):
        res = master_run([1], 3.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        s = m["per_sensor"]["1"]
        assert s["delivered"] == len(res.frames)
        assert s["sent"] == s["delivered"]
        assert s["pdr"] == 1.0
        assert s["min_window_rate_hz"] == 60.0
        assert m["max_skew_us"] == 0
        assert m["protocol"] == "cw"
        assert m["duration_s"] == 3.0

    def test_skew_bounded_by_cycle(self):
        res = master_run(list(range(1, 11)), 3.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        assert 0 < m["max_skew_us"] < 10 * 2108

    def test_min_window_sees_outage(self):
        res = TestJamFixture().run_fixture()
        m = session_metrics(res)
        for s in range(1, 6):
            assert m["per_sensor"][str(s)]["min_window_rate_hz"] < 60.0

    def test_rate_series_agrees(self):
        res = master_run([1], 3.0, flat_sampler, CLEAN, seed=0)
        m = session_metrics(res)
        rates = rate_series(res.frames, end_us=int(3e6))
        assert m["per_sensor"]["1"]["min_window_rate_hz"] == min(v for _, v in rates[1])


class TestCrowdedComparison:
    def test_cw_beats_ble_per_sensor(self):
        roster = [1, 2, 3, 4, 5]
        field = crowded_field(42, 10.0)
        cw = session_metrics(master_run(roster, 10.0, flat_sampler, field, seed=42))
        ble = session_metrics(ble_baseline_run(roster, 10.0, flat_sampler, field, seed=42))
        for s in roster:
            assert (cw["per_sensor"][str(s)]["mean_rate_hz"]
                    > ble["per_sensor"][str(s)]["mean_rate_hz"])
        assert cw["hop_count"] >= 1


def turning_sampler(sensor_id, t_us):
    """A reading that differs per sensor and instant."""
    half = sensor_id + t_us / 1e6
    return Quaternion(math.cos(half), math.sin(half), 0.0, 0.0)


class TestSinkBatches:
    @pytest.mark.parametrize("duration_s", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("run", [master_run, ble_baseline_run], ids=["cw", "ble"])
    def test_batches_equal_collected_lists(self, run, duration_s):
        # A crowded field and a loss floor, so outcomes and retries vary;
        # sub-second and non-integral lengths end within a handoff second.
        roster, field = [1, 2, 3, 4, 5], crowded_field(4, duration_s)
        batches, fold = [], pr.SessionFold()

        def sink(rows, frames):
            batches.append((list(rows), list(frames)))
            fold.add(rows, frames)

        streamed = run(roster, duration_s, turning_sampler, field, 4, p_floor=0.05, sink=sink)
        collected = run(roster, duration_s, turning_sampler, field, 4, p_floor=0.05)
        assert len(batches) == math.ceil(duration_s)
        assert [r for rows, _ in batches for r in rows] == collected.trace
        assert [f for _, frames in batches for f in frames] == collected.frames
        assert {r.outcome for r in collected.trace} >= {radio.DELIVERED, radio.FLOOR_LOST}
        assert streamed.trace == [] and streamed.frames == []
        assert replace(collected, trace=[], frames=[]) == streamed
        assert fold.metrics(streamed) == session_metrics(collected)


class TestSessionMemory:
    @pytest.mark.parametrize("run", [master_run, ble_baseline_run])
    def test_dropped_result_frees_the_session(self, run):
        # With the cyclic collector off, reference counting alone must free
        # the trace and frames once the caller drops the result.
        field = crowded_field(1, 3.0)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run([1, 2, 3, 4, 5], 3.0, flat_sampler, field, 1)
            assert len(result.trace) > 500
            del result
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 100_000
