"""Polling protocol, channel hopping, and the connection-based baseline."""

import gc
import math
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        # 4 us of air per byte: each row lasts its frame's byte count times 4.
        clean = master_run([1, 2], 0.3, flat_sampler, CLEAN, seed=0)
        assert {(r.frame_type, r.duration_us) for r in clean.trace} == {
            ("poll", 48.0), ("response", 128.0), ("join", 128.0), ("ack", 32.0),
            ("beacon", 64.0)}
        jammed = TestJamFixture().run_fixture()
        assert {r.duration_us for r in jammed.trace if r.frame_type == "hop"} == {48.0}

    def test_cap_period(self):
        # A 30 Hz cap spaces one sensor's frames 1e6 / 30 us apart.
        res = master_run([1], 2.0, flat_sampler, CLEAN, seed=0,
                         timing=TimingProfile(poll_cap_hz=30.0))
        ts = [f.timestamp_us for f in res.frames]
        assert {b - a for a, b in zip(ts, ts[1:])} == {33333, 33334}

    def test_scan_dwell_covers_a_beacon_interval(self):
        t = TimingProfile()
        assert t.scan_dwell_us == 2 * t.beacon_interval_ms * 1000.0

    # Each is a wait of the master, or (poll_cap_hz) sets one: a negative or
    # NaN wait would run its clock backwards, and an infinite one is refused too.
    @pytest.mark.parametrize("kind, key, value", [
        (TimingProfile, "turnaround_us", -1000.0), (TimingProfile, "turnaround_us", math.inf),
        (TimingProfile, "guard_us", -1.0), (TimingProfile, "guard_us", math.nan),
        (TimingProfile, "host_cost_us", -1e-9), (TimingProfile, "host_cost_us", math.inf),
        (TimingProfile, "poll_cap_hz", math.nan),
        (HopPolicy, "assess_us", -1.0), (HopPolicy, "assess_us", math.nan),
        (HopPolicy, "assess_us", math.inf)])
    def test_refuses_a_wait_that_runs_the_clock_back(self, kind, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            kind(**{key: value})

    # A slave's probe walk: a NaN dwell or gap made its step count NaN mid-run.
    @pytest.mark.parametrize("key, value", [
        ("walk_dwell_ms", math.nan), ("probe_gap_ms", math.nan),
        ("probe_gap_ms", -5.0), ("probe_gap_ms", math.inf)])
    def test_refuses_a_probe_walk_without_steps(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            HopPolicy(**{key: value})


class TestHopSequencer:
    def test_starts_on_its_channel(self):
        seq = HopSequencer(seed=9, channel=40)
        assert seq.current == 40
        i = seq.chain.index(40)
        assert seq.advance() == seq.chain[(i + 1) % len(seq.chain)]

    def test_first_hop_follows_the_permutation(self):
        perm = rnd.stream(7, rnd.PROTOCOL).permutation(len(DATA_CHANNELS))
        start, expected = DATA_CHANNELS[perm[0]], DATA_CHANNELS[perm[1]]
        seq = HopSequencer(seed=7, channel=start)
        assert seq.advance() == expected

    @pytest.mark.parametrize("channel", [*SYNC_CHANNELS, -1, 80])
    def test_not_a_data_channel(self, channel):
        with pytest.raises(ConfigError, match=f"channel {channel} is not a data channel"):
            HopSequencer(seed=1, channel=channel)

    @pytest.mark.parametrize("channel", [40.0, True, "40"])
    def test_channel_must_be_an_int(self, channel):
        # 40.0 and True equal data channels, but a channel indexes the band
        # table and fills the trace's int column.
        message = re.escape(f"channel {channel!r} is not an int")
        with pytest.raises(ConfigError, match=message):
            HopSequencer(seed=1, channel=channel)
        with pytest.raises(ConfigError, match=message):
            master_run([1], 0.1, flat_sampler, CLEAN, seed=0, initial_channel=channel)

    def test_preview_does_not_move(self):
        seq = HopSequencer(seed=4, channel=40)
        for _ in range(20):
            state = (seq.current, seq.cursor)
            nxt, pos = seq.preview()
            assert seq.preview() == (nxt, pos)
            assert (seq.current, seq.cursor) == state
            assert seq.chain[pos] == nxt
            assert seq.advance() == nxt
            assert (seq.current, seq.cursor) == (nxt, pos)

    def test_never_a_sync_channel(self):
        seq = HopSequencer(seed=3, channel=40)
        for _ in range(200):
            assert seq.advance() in DATA_CHANNELS

    @pytest.mark.parametrize("seed", [0, 5, 123456])
    @pytest.mark.parametrize("start", [DATA_CHANNELS[0], 40, DATA_CHANNELS[-1]])
    def test_walks_the_chain_one_step_per_hop(self, seed, start):
        # Past the 77th hop the walk wraps round the chain and starts again.
        seq = HopSequencer(seed=seed, channel=start)
        i, n = seq.chain.index(start), len(seq.chain)
        for k in range(1, 201):
            pos = (i + k) % n
            assert seq.advance() == seq.chain[pos]
            assert seq.cursor == pos


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


def duration_ending_at(t_us):
    """A duration_s whose session ends at exactly t_us, or None."""
    d = t_us / 1e6
    return next((c for c in (d, math.nextafter(d, 0), math.nextafter(d, math.inf))
                 if c * 1e6 == t_us), None)


def pinned_end(times):
    """The first of times at which a session, and one an ulp earlier, can end."""
    return next(t for t in times if duration_ending_at(t) is not None
                and duration_ending_at(math.nextafter(t, 0)) is not None)


class TestSessionEnd:
    """The master resumes while the clock is at or before the session's
    end: a session that ends exactly at a resume runs it, one that ends an
    ulp earlier does not. Seed 4 hops mid-session."""

    roster, seed = [1, 2, 3, 4, 5], 4

    @pytest.fixture(scope="class")
    def field(self):
        return crowded_field(self.seed, 2.0)

    def ending_at(self, field, t_us):
        return master_run(self.roster, duration_ending_at(t_us), flat_sampler, field,
                          seed=self.seed)

    def test_response_logged_only_if_it_ends_by_the_end(self, field):
        full = master_run(self.roster, 2.0, flat_sampler, field, seed=self.seed)
        rows = [(i, r) for i, r in enumerate(full.trace)
                if r.frame_type == "response" and r.time_us > 1e6]
        end = pinned_end(r.time_us + r.duration_us for _, r in rows)
        i = next(i for i, r in rows if r.time_us + r.duration_us == end)
        assert self.ending_at(field, end).trace == full.trace[:i + 1]
        assert self.ending_at(field, math.nextafter(end, 0)).trace == full.trace[:i]

    def test_hop_taken_only_if_it_resumes_by_the_end(self, field):
        full = master_run(self.roster, 2.0, flat_sampler, field, seed=self.seed)
        hops = full.channel_history
        t = pinned_end(h for h, _ in hops if h > 0.5e6)
        k = next(k for k, (h, _) in enumerate(hops) if h == t)
        assert self.ending_at(field, t).channel_history == hops[:k + 1]
        assert self.ending_at(field, math.nextafter(t, 0)).channel_history == hops[:k]

    @pytest.mark.parametrize("frame_type, after", [("ack", 1e6), ("join", 0.0)])
    def test_frame_sent_only_if_it_starts_by_the_end(self, field, frame_type, after):
        # An ack or a join is sent, and logged, at the resume that starts it.
        full = master_run(self.roster, 2.0, flat_sampler, field, seed=self.seed)
        rows = [(i, r) for i, r in enumerate(full.trace)
                if r.frame_type == frame_type and r.time_us > after]
        t = pinned_end(r.time_us for _, r in rows)
        i = next(i for i, r in rows if r.time_us == t)
        assert self.ending_at(field, t).trace == full.trace[:i + 1]
        assert self.ending_at(field, math.nextafter(t, 0)).trace == full.trace[:i]


class TestSessionPrefix:
    @settings(max_examples=40, deadline=None)
    @given(roster=st.lists(st.integers(1, 12), min_size=1, max_size=12, unique=True),
           seed=st.integers(0, 2**32 - 1), crowded=st.booleans(),
           host_cost_us=st.floats(0.0, 3000.0), turnaround_us=st.floats(0.0, 300.0),
           loss_threshold=st.integers(1, 8), announce_repeats=st.integers(1, 4),
           p_floor=st.sampled_from([0.0, 0.05]),
           durations=st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2,
                              unique=True).map(sorted))
    def test_shorter_session_is_a_prefix(self, roster, seed, crowded, host_cost_us,
                                         turnaround_us, loss_threshold, announce_repeats,
                                         p_floor, durations):
        # The same inputs and a later end: the shorter session's trace, frames
        # and channel history begin the longer one's.
        field = crowded_field(seed, 1.0) if crowded else CLEAN
        timing = TimingProfile(host_cost_us=host_cost_us, turnaround_us=turnaround_us)
        policy = HopPolicy(loss_threshold=loss_threshold, announce_repeats=announce_repeats)
        short, long = (master_run(roster, d, turning_sampler, field, seed, timing=timing,
                                  policy=policy, p_floor=p_floor) for d in durations)
        assert long.trace[:len(short.trace)] == short.trace
        assert long.frames[:len(short.frames)] == short.frames
        assert long.channel_history[:len(short.channel_history)] == short.channel_history


class TestBaselineSessionEnd:
    """The baseline judges a frame at its end while that is at or before the
    session's end: a session that ends exactly at a frame's end logs it, one
    that ends an ulp earlier does not. Seed 1 reconnects mid-session."""

    roster, seed = [1, 2, 3, 4, 5], 1

    @pytest.fixture(scope="class")
    def field(self):
        return crowded_field(self.seed, 5.0)

    @pytest.fixture(scope="class")
    def full(self, field):
        return ble_baseline_run(self.roster, 5.0, flat_sampler, field, seed=self.seed)

    def ending_at(self, field, t_us, sampler=flat_sampler):
        return ble_baseline_run(self.roster, duration_ending_at(t_us), sampler, field,
                                seed=self.seed)

    def test_delivered_frame_logged_only_if_it_ends_by_the_end(self, field, full):
        rows = [(i, r) for i, r in enumerate(full.trace)
                if r.outcome == radio.DELIVERED and r.time_us > 1e6]
        end = pinned_end(r.time_us + r.duration_us for _, r in rows)
        i = next(i for i, r in rows if r.time_us + r.duration_us == end)
        at, before = self.ending_at(field, end), self.ending_at(field, math.nextafter(end, 0))
        assert at.trace == full.trace[:i + 1]
        assert before.trace == full.trace[:i]
        assert len(at.frames) + at.host_dropped[full.trace[i].sensor_id] == (
            len(before.frames) + before.host_dropped[full.trace[i].sensor_id] + 1)

    def test_reconnecting_frame_logged_only_if_it_ends_by_the_end(self, field, full):
        # The last frame before a link's reconnect second: the link's next
        # frame starts about a second after it.
        last, reconnecting = {}, []
        for i, r in enumerate(full.trace):
            if r.time_us - last.get(r.sensor_id, (0, math.inf))[1] > 0.5e6:
                reconnecting.append(last[r.sensor_id])
            last[r.sensor_id] = i, r.time_us
        assert full.resync_count >= 1 and reconnecting
        end = pinned_end(t + pr._BLE_TX_US for _, t in reconnecting)
        i = next(i for i, t in reconnecting if t + pr._BLE_TX_US == end)
        assert full.trace[i].outcome != radio.DELIVERED
        at, before = self.ending_at(field, end), self.ending_at(field, math.nextafter(end, 0))
        assert at.trace == full.trace[:i + 1]
        assert before.trace == full.trace[:i]
        assert at.resync_count == before.resync_count + 1

    def test_sampled_at_the_starts_of_frames(self, field, full):
        # Each link is sampled at the start of each of its logged frames, in
        # order, and at the start of a frame that the end cut off. Sensor 3's
        # first frame after 0.5 s is cut off halfway through its air time.
        cut = next(r for r in full.trace if r.sensor_id == 3 and r.time_us > 0.5e6)
        calls = {s: [] for s in self.roster}

        def sampler(s, t_us):
            calls[s].append(t_us)
            return Quaternion.identity()

        res = self.ending_at(field, cut.time_us + 64.0, sampler)
        for s in self.roster:
            starts = [r.time_us for r in res.trace if r.sensor_id == s]
            assert calls[s][:len(starts)] == starts
            late = calls[s][len(starts):]
            assert len(late) <= 1
            assert all(t < res.duration_us < t + pr._BLE_TX_US for t in late)
        assert calls[3][-1] == cut.time_us
        assert cut not in res.trace


class TestBaselineSessionPrefix:
    @settings(max_examples=40, deadline=None)
    @given(roster=st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True),
           seed=st.integers(0, 2**32 - 1), crowded=st.booleans(),
           p_floor=st.sampled_from([0.0, 0.05, 0.3]),
           durations=st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2,
                              unique=True).map(sorted))
    def test_shorter_session_is_a_prefix(self, roster, seed, crowded, p_floor, durations):
        # The same inputs and a later end: the shorter session's trace begins
        # the longer one's, and so does each sensor's frames. Each session sorts
        # its own frames by (timestamp_us, sensor_id), and frames that round to
        # the same microsecond can end on either side of the shorter end, so a
        # tied frame only the longer session holds may sort before one both
        # hold: only each sensor's frames are compared as a prefix.
        field = crowded_field(seed, 1.0) if crowded else CLEAN
        short, long = (ble_baseline_run(roster, d, turning_sampler, field, seed,
                                        p_floor=p_floor) for d in durations)
        assert long.trace[:len(short.trace)] == short.trace
        for s in roster:
            mine = [f for f in short.frames if f.sensor_id == s]
            assert [f for f in long.frames if f.sensor_id == s][:len(mine)] == mine


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


class TestLastContact:
    """A slave's resync timeout runs from the end of the last master frame
    it heard in full, and the master's from the end of the sensor's last
    delivered response or join. One sensor on a clean band: it joins on
    the first beacon and answers its first poll, whose ack starts 428 us
    and ends 460 us after the poll ends."""

    @settings(max_examples=30, deadline=None)
    @given(probe_gap_ms=st.floats(0.0, 0.5))
    @example(probe_gap_ms=0.0)
    @example(probe_gap_ms=0.44)  # tuned at the ack's start, not at its end
    def test_slave_resyncs_from_the_last_frame_heard_in_full(self, probe_gap_ms):
        # The slave walks off the channel probe_gap_ms after the poll and
        # hears no later poll. So it rescans resync_timeout_ms after the end
        # of the poll, or of the ack if it heard all of that, and joins again
        # after the first beacon it then hears in full. With a 199.6 ms
        # timeout, the first beacon after the master drops the sensor comes
        # after a rescan timed from the poll and before one timed from the ack.
        timing = TimingProfile(resync_timeout_ms=199.6)
        trace = master_run([1], 0.5, flat_sampler, CLEAN, seed=0, timing=timing,
                           policy=HopPolicy(probe_gap_ms=probe_gap_ms)).trace
        poll, ack = (next(r for r in trace if r.frame_type == k) for k in ("poll", "ack"))
        last = poll.time_us + poll.duration_us
        if ack.time_us + ack.duration_us - last <= probe_gap_ms * 1e3:
            last = ack.time_us + ack.duration_us

        def scanned(t_us):
            return SYNC_CHANNELS[int((t_us - last - timing.resync_us)
                                     // timing.scan_dwell_us) % len(SYNC_CHANNELS)]

        beacon = next(r for r in trace if r.frame_type == "beacon"
                      and r.time_us - last > timing.resync_us
                      and scanned(r.time_us) == scanned(r.time_us + r.duration_us) == r.channel)
        rejoin = next(r for r in trace if r.frame_type == "join" and r.time_us > ack.time_us)
        assert rejoin.time_us == beacon.time_us + beacon.duration_us + timing.turnaround_us

    @settings(max_examples=30, deadline=None)
    @given(late_us=st.floats(-300.0, 300.0))
    @example(late_us=-64.0)  # within the timeout of the join's end, not of its start
    def test_joiner_polled_only_within_the_timeout_of_its_join(self, late_us):
        # The sensor's first poll turn comes 16.3 ms after its join ends. With
        # the timeout late_us short of that, the master drops the sensor at
        # that turn instead of polling it if late_us > 0.
        def trace(timing):
            return master_run([1], 0.1, flat_sampler, CLEAN, seed=0, timing=timing).trace

        default = trace(TimingProfile())
        join = next(r for r in default if r.frame_type == "join")
        turn = next(r for r in default if r.frame_type == "poll").time_us
        join_end = join.time_us + join.duration_us
        timing = TimingProfile(resync_timeout_ms=(turn - join_end - late_us) / 1e3)
        polled = any(r.frame_type == "poll" and r.time_us == turn for r in trace(timing))
        assert polled == (turn - join_end <= timing.resync_us)


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


def overlapping_pairs(trace):
    """Each pair of rows whose air times overlap, the earlier first. Brute
    force over the rows in time order."""
    rows = sorted(trace, key=lambda r: r.time_us)
    pairs = []
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if b.time_us >= a.time_us + a.duration_us:
                break
            pairs.append((a, b))
    return pairs


def same_channel_clashes(trace):
    """The rows that another row overlaps on their channel."""
    return {r for pair in overlapping_pairs(trace) if pair[0].channel == pair[1].channel
            for r in pair}


class TestBaselineCollisions:
    """The baseline judges its own frames' overlaps before radio.arbitrate."""

    def test_seed_155_collides_both_frames(self):
        # Sensor 1's frame at 227432.05 us starts after sensor 4's has ended
        # but before sensor 2's, which overlaps it, is judged at its end.
        res = ble_baseline_run([1, 2, 3, 4, 5], 10.0, flat_sampler, CLEAN, seed=155)
        rows = [(r.sensor_id, round(r.time_us, 2), r.channel, r.outcome)
                for r in res.trace if 227_000 < r.time_us < 227_500]
        assert rows == [(4, 227224.44, 10, "collided"), (2, 227344.43, 10, "collided"),
                        (1, 227432.05, 2, "delivered")]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.integers(1, 12), min_size=2, max_size=5, unique=True))
    @example(155, [1, 2, 3, 4, 5])
    def test_overlap_on_one_channel_collides_both(self, seed, roster):
        # On a clean band without floor loss a frame collides exactly when
        # another frame overlaps it on its channel.
        res = ble_baseline_run(roster, 3.0, flat_sampler, CLEAN, seed=seed)
        collided = {r for r in res.trace if r.outcome == radio.COLLIDED}
        assert collided == same_channel_clashes(res.trace)

    def test_adjacent_channels_do_not_collide(self):
        # BLE data channels 2 MHz apart have bands that only touch.
        touching = []
        for seed in range(3):
            res = ble_baseline_run([1, 2, 3, 4, 5], 10.0, flat_sampler, CLEAN, seed=seed)
            clashes = same_channel_clashes(res.trace)
            touching += [r for a, b in overlapping_pairs(res.trace)
                         if abs(pr.ble_center_mhz(a.channel) - pr.ble_center_mhz(b.channel)) == 2
                         for r in (a, b) if r not in clashes]
        assert len(touching) > 10
        assert {r.outcome for r in touching} == {radio.DELIVERED}

    def test_floor_draw_only_when_clear(self):
        # A frame that another node or the field blocks draws no floor loss,
        # so the frames clear of both take the floor stream's draws in order.
        # Seed 8 has frames of both kinds.
        field = crowded_field(8, 10.0)
        res = ble_baseline_run([1, 2, 3, 4, 5], 10.0, flat_sampler, field, seed=8, p_floor=0.3)
        collided = {r for r in res.trace if r.outcome == radio.COLLIDED}
        node_blocked = same_channel_clashes(res.trace)
        assert node_blocked and node_blocked <= collided and collided - node_blocked
        clear = [r for r in res.trace if r not in collided]
        draws = rnd.stream(8, rnd.FLOOR).random(len(clear))
        assert [r.outcome == radio.FLOOR_LOST for r in clear] == [d < 0.3 for d in draws]


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
    @pytest.mark.parametrize("duration_s", [0.3, 1.0, 2.5, 1.00013])
    @pytest.mark.parametrize("run", [master_run, ble_baseline_run], ids=["cw", "ble"])
    def test_batches_equal_collected_lists(self, run, duration_s):
        # A crowded field and a loss floor, so outcomes and retries vary;
        # sub-second and non-integral lengths end within a handoff second.
        # 1.00013 s ends 130 us past a second: no baseline frame ends in them,
        # so the second's handoff comes after the baseline's last frame.
        roster, field = [1, 2, 3, 4, 5], crowded_field(4, duration_s)
        batches, fold = [], pr.SessionFold(duration_s * 1e6)

        def sink(rows, frames):
            batches.append((list(rows), list(frames)))
            fold.add(rows, frames)

        streamed = run(roster, duration_s, turning_sampler, field, 4, p_floor=0.05, sink=sink)
        collected = run(roster, duration_s, turning_sampler, field, 4, p_floor=0.05)
        assert len(batches) == math.ceil(duration_s)
        if duration_s == 1.00013 and run is ble_baseline_run:
            assert max(r.time_us + r.duration_us for r in collected.trace) <= 1e6
        assert [r for rows, _ in batches for r in rows] == collected.trace
        assert [f for _, frames in batches for f in frames] == collected.frames
        assert {r.outcome for r in collected.trace} >= {radio.DELIVERED, radio.FLOOR_LOST}
        assert streamed.trace == [] and streamed.frames == []
        assert replace(collected, trace=[], frames=[]) == streamed
        assert fold.metrics(streamed) == session_metrics(collected)


class TestBaselineTies:
    # On these seeds two of the roster's links start under 1 us apart, so
    # hundreds of their frames round to the same microsecond. On seed
    # 112183, sensor 9's frames end 0.24 us past 1 s and 4 s: they are
    # stamped on the whole second, though their ends are past it.
    @pytest.mark.parametrize("seed, roster", [
        pytest.param(1117, [1, 2, 3, 4, 5], id="1117"),
        pytest.param(4406, [1, 2, 3, 4, 5], id="4406"),
        pytest.param(112183, [1, 9, 11], id="112183")])
    @pytest.mark.parametrize("crowded", [False, True], ids=["clean", "crowded"])
    def test_batches_hold_whole_timestamps_in_order(self, seed, roster, crowded):
        duration_s = 4.5
        field = crowded_field(seed, duration_s) if crowded else CLEAN
        batches = []

        def sink(rows, frames):
            batches.append((list(rows), list(frames)))

        ble_baseline_run(roster, duration_s, turning_sampler, field, seed, sink=sink)
        collected = ble_baseline_run(roster, duration_s, turning_sampler, field, seed)
        assert len(batches) == math.ceil(duration_s)
        assert [r for rows, _ in batches for r in rows] == collected.trace
        assert [f for _, frames in batches for f in frames] == collected.frames
        keys = [(f.timestamp_us, f.sensor_id) for f in collected.frames]
        assert keys == sorted(set(keys))
        # Batch k holds the frames stamped in ((k - 1) s, k s], so no
        # timestamp is in two batches. A sink's frames are plain tuples: f[0]
        # is the timestamp.
        for k, (_, frames) in enumerate(batches, 1):
            assert all((k - 1) * 10**6 < f[0] <= k * 10**6 for f in frames)
        assert len({ts for ts, _ in keys}) < len(keys)  # some timestamps are tied


class TestSessionMemory:
    @pytest.mark.parametrize("run", [master_run, ble_baseline_run])
    def test_dropped_result_frees_the_session(self, run):
        # With the cyclic collector off, reference counting alone must free
        # the trace and frames once the caller drops the result: no cycle
        # holds them. A full collection on each side empties CPython's free
        # lists, whose parked tuples tracemalloc still counts as allocated,
        # so what earlier tests or the run left there is not read as held.
        field = crowded_field(1, 3.0)
        gc.disable()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            result = run([1, 2, 3, 4, 5], 3.0, flat_sampler, field, 1)
            assert len(result.trace) > 500
            del result
            assert gc.collect() == 0
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 100_000
