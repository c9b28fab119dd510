"""Scenario schema: strict validation and preset resolution."""

import copy
import math
import sys
from dataclasses import fields

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wearsim.protocol import ConfigError, HopPolicy, TimingProfile
from wearsim.radio import BtDevice, Jammer, WifiAp, build_field
from wearsim.runner import build_body, scenario_field
from wearsim.scenario import Scenario, load_scenario, parse_scenario

BASE = {"motion": {"preset": "arm-raise"}}


def cfg(**sections):
    out = copy.deepcopy(BASE)
    out.update(sections)
    return out


class TestDefaults:
    def test_minimal_scenario(self):
        sc = parse_scenario(cfg())
        assert sc.duration_s == 10.0
        assert sc.seed == 0
        assert sc.protocol_kind == "cw"
        assert sc.placement.name == "p5-upper"
        assert sc.roster == (1, 2, 3, 4, 5)
        assert sc.interferers == ()
        assert sc.initial_channel == 40
        assert sc.p_floor == 0.0

    def test_session_seed(self):
        sc = parse_scenario(cfg(session={"seed": 9}))
        assert sc.seed == 9
        assert sc.noise.seed == 9

    def test_seed_override_wins(self):
        sc = parse_scenario(cfg(session={"seed": 9}), seed=21)
        assert sc.seed == 21
        assert sc.noise.seed == 21

    @pytest.mark.parametrize("seed", [-1, 2**63, True, 2.0])
    def test_seed_override_checked_like_session_seed(self, seed):
        for config, override, name in ((cfg(session={"seed": seed}), None, "session.seed"),
                                       (cfg(), seed, "--seed")):
            with pytest.raises(ConfigError, match=f"^{name} must"):
                parse_scenario(config, seed=override)

    def test_largest_seed(self):
        assert parse_scenario(cfg(), seed=2**63 - 1).seed == 2**63 - 1

    def test_duration_override_reshapes_trajectory(self):
        sc = parse_scenario(cfg(session={"duration_s": 4.0}))
        assert sc.duration_s == 4.0
        assert sc.trajectory.duration_s == 4.0

    def test_duration_defaults_to_preset(self):
        sc = parse_scenario({"motion": {"preset": "elbow-flexion"}})
        assert sc.duration_s == 16.0


class TestStrictKeys:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="radio"):
            parse_scenario(cfg(radio={}))

    def test_unknown_session_key(self):
        with pytest.raises(ConfigError, match="durration"):
            parse_scenario(cfg(session={"durration": 5}))

    def test_unknown_motion_key(self):
        with pytest.raises(ConfigError, match="speed"):
            parse_scenario({"motion": {"preset": "arm-raise", "speed": 2}})

    def test_unknown_noise_key(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_scenario({"motion": {"preset": "arm-raise",
                                       "noise": {"sigma": 1.0}}})

    def test_noise_seed_not_settable(self):
        # The session seed owns every stream; a per-section seed would
        # silently fork determinism.
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario({"motion": {"preset": "arm-raise",
                                       "noise": {"seed": 3}}})

    def test_unknown_timing_key(self):
        with pytest.raises(ConfigError, match="pol_cap"):
            parse_scenario(cfg(protocol={"timing": {"pol_cap": 30}}))

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="session must be a mapping"):
            parse_scenario(cfg(session=[1, 2]))

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_scenario([1, 2, 3])


class TestMotion:
    def test_preset_required(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_scenario({})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="moonwalk"):
            parse_scenario({"motion": {"preset": "moonwalk"}})

    def test_missing_required_param(self):
        with pytest.raises(ConfigError, match="angle_deg"):
            parse_scenario({"motion": {"preset": "artificial-joint"}})

    def test_bad_param_value(self):
        with pytest.raises(ConfigError, match="10 or 12"):
            parse_scenario({"motion": {"preset": "half-jacks",
                                       "params": {"sensors": 13}}})
        # Lengths are bounded as session.duration_s is.
        for preset, params, key in (("half-jacks", {"sensors": 12.0}, "sensors"),
                                    ("half-jacks", {"duration_s": -1}, "duration_s"),
                                    ("artificial-joint", {"angle_deg": 30, "dwell_s": 0},
                                     "dwell_s"),
                                    ("artificial-joint", {"angle_deg": 30, "dwell_s": 1e-4},
                                     "dwell_s")):
            with pytest.raises(ConfigError, match=f"^motion.params.{key} must"):
                parse_scenario({"motion": {"preset": preset, "params": params}})

    def test_unknown_param_name(self):
        with pytest.raises(ConfigError):
            parse_scenario({"motion": {"preset": "arm-raise",
                                       "params": {"tempo": 2.0}}})

    def test_noise_zero(self):
        sc = parse_scenario({"motion": {"preset": "arm-raise", "noise": "zero"},
                             "session": {"seed": 4}})
        assert sc.noise.static_sigma_deg == 0.0
        assert sc.noise.dynamic_sigma_deg == 0.0
        assert sc.noise.seed == 4

    def test_noise_partial_override(self):
        sc = parse_scenario({"motion": {"preset": "arm-raise",
                                        "noise": {"static_sigma_deg": 0.5}}})
        assert sc.noise.static_sigma_deg == 0.5
        assert sc.noise.dynamic_sigma_deg == 1.2

    def test_largest_drift_reads_to_the_end(self):
        # Half the largest float over 2 s: the drift angle at the end is finite.
        drift = sys.float_info.max / 2.0
        sc = parse_scenario({"motion": {"preset": "arm-raise",
                                        "noise": {"drift_deg_per_min": drift}},
                             "session": {"duration_s": 2.0}})
        body, _ = build_body(sc)
        assert all(map(math.isfinite, body.reading(sc.roster[0], 2.0)))
        with pytest.raises(ConfigError, match="motion.noise.drift_deg_per_min"):
            parse_scenario({"motion": {"preset": "arm-raise", "noise": {
                "drift_deg_per_min": math.nextafter(drift, math.inf)}},
                "session": {"duration_s": 2.0}})


class TestPlacement:
    def test_placement_override(self):
        sc = parse_scenario({"motion": {"preset": "half-jacks"},
                             "placement": {"preset": "p12"}})
        assert sc.roster == tuple(range(1, 13))

    def test_unknown_placement(self):
        with pytest.raises(ConfigError, match="p7"):
            parse_scenario(cfg(placement={"preset": "p7"}))

    def test_placement_must_cover_joints(self):
        # half-jacks tracks the hips; p5-upper has no thigh sensors.
        with pytest.raises(ConfigError, match="hip|thigh"):
            parse_scenario({"motion": {"preset": "half-jacks"},
                            "placement": {"preset": "p5-upper"}})


class TestProtocol:
    def test_kind_validation(self):
        with pytest.raises(ConfigError, match="zigbee"):
            parse_scenario(cfg(protocol={"kind": "zigbee"}))

    def test_ble_sensor_limit(self):
        with pytest.raises(ConfigError, match="at most 5"):
            parse_scenario({"motion": {"preset": "half-jacks"},
                            "protocol": {"kind": "ble-baseline"}})

    def test_timing_override(self):
        sc = parse_scenario(cfg(protocol={"timing": {"poll_cap_hz": 30}}))
        assert sc.timing.poll_cap_hz == 30

    def test_hop_override(self):
        sc = parse_scenario(cfg(protocol={"hop": {"loss_threshold": 5}}))
        assert sc.policy.loss_threshold == 5

    def test_initial_channel_must_be_data(self):
        with pytest.raises(ConfigError, match="26"):
            parse_scenario(cfg(protocol={"initial_channel": 26}))

    def test_p_floor_range(self):
        with pytest.raises(ConfigError, match="p_floor"):
            parse_scenario(cfg(protocol={"p_floor": 1.5}))

    def test_integer_field_rejects_float(self):
        with pytest.raises(ConfigError, match="poll_bytes"):
            parse_scenario(cfg(protocol={"timing": {"poll_bytes": 12.5}}))

    def test_an_integer_for_a_number_key_is_a_float(self):
        sc = parse_scenario(cfg(
            motion={"preset": "arm-raise", "noise": {"static_max_deg": 3}},
            protocol={"timing": {"poll_cap_hz": 30}, "hop": {"assess_us": 1000}},
            interference={"sources": [{"type": "wifi", "channel": 6, "duty": 1},
                                      {"type": "bt", "burst_us": 100},
                                      {"type": "jam", "channel": 40, "start_s": 1}]}))
        wifi, bt, jam = sc.interferers
        values = (sc.noise.static_max_deg, sc.timing.poll_cap_hz, sc.policy.assess_us,
                  wifi.duty, bt.burst_us, jam.start_s)
        assert values == (3.0, 30.0, 1000.0, 1.0, 100.0, 1.0)
        assert {type(v) for v in values} == {float}


# Ints, huge ints, floats (nan and inf too), 0, negatives and bools.
NUMBERS = st.one_of(st.integers(), st.integers(min_value=2**62, max_value=10**320),
                    st.floats(), st.just(0),
                    st.integers(max_value=-1), st.floats(max_value=0.0),
                    st.booleans())
# Source numbers also lean toward magnitudes where bursts can collide.
SOURCE_NUMBERS = st.one_of(st.floats(min_value=1e-3, max_value=1.0),
                           st.floats(min_value=1e-3, max_value=1e3), NUMBERS)


def overrides(cls):
    """Mappings of some of cls's fields to NUMBERS."""
    return st.dictionaries(st.sampled_from([f.name for f in fields(cls)]), NUMBERS)


def parse_and_build(config):
    """parse_scenario returns or raises ConfigError; what it returns builds a field."""
    try:
        sc = parse_scenario(config)
    except ConfigError:
        return
    assert isinstance(sc, Scenario)
    # 10 ms of field is enough to show bursts that cannot be built.
    build_field(sc.interferers, 10_000.0)


WIFI = st.fixed_dictionaries({"type": st.just("wifi"), "channel": st.sampled_from([1, 6, 11]),
                              "duty": SOURCE_NUMBERS}, optional={"mean_burst_ms": SOURCE_NUMBERS})
BT = st.fixed_dictionaries({"type": st.just("bt")},
                           optional={"event_interval_ms": SOURCE_NUMBERS,
                                     "burst_us": SOURCE_NUMBERS})


class TestOverrideProperty:
    @settings(max_examples=300, deadline=None)
    @given(timing=overrides(TimingProfile), hop=overrides(HopPolicy))
    def test_scenario_or_config_error(self, timing, hop):
        parse_and_build(cfg(protocol={"timing": timing, "hop": hop}))

    @settings(max_examples=200, deadline=None)
    @given(preset=st.sampled_from(["artificial-joint", "half-jacks", "arm-raise"]),
           params=st.dictionaries(
               st.sampled_from(["angle_deg", "dwell_s", "sensors", "duration_s"]),
               st.one_of(NUMBERS, st.none(), st.text(max_size=3))))
    @example(preset="half-jacks", params={"sensors": 12.0})
    @example(preset="half-jacks", params={"duration_s": -1})
    @example(preset="artificial-joint", params={"angle_deg": 30, "dwell_s": 0})
    @example(preset="artificial-joint", params={"angle_deg": 30, "dwell_s": 1e-4})
    @example(preset="arm-raise", params={"duration_s": 1.0})
    def test_motion_params(self, preset, params):
        config = {"motion": {"preset": preset, "params": params}}
        parse_and_build(config)
        # A refused parameter is named: one given, or angle_deg when missing.
        try:
            parse_scenario(config)
        except ConfigError as exc:
            assert any(key in str(exc) for key in [*params, "angle_deg"]), exc

    @settings(max_examples=200, deadline=None)
    @given(sources=st.lists(st.one_of(WIFI, BT), max_size=3))
    def test_source_numbers(self, sources):
        parse_and_build(cfg(interference={"sources": sources}))


class TestInterference:
    def test_preset_clean(self):
        assert parse_scenario(cfg(interference={"preset": "clean"})).interferers == ()

    def test_preset_crowded(self):
        sc = parse_scenario(cfg(interference={"preset": "crowded"}))
        kinds = [type(i) for i in sc.interferers]
        assert kinds.count(WifiAp) == 12
        assert kinds.count(BtDevice) == 8

    def test_preset_and_sources_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_scenario(cfg(interference={"preset": "clean", "sources": []}))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="quietish"):
            parse_scenario(cfg(interference={"preset": "quietish"}))

    def test_sources(self):
        sc = parse_scenario(cfg(interference={"sources": [
            {"type": "wifi", "channel": 6, "duty": 0.4},
            {"type": "bt"},
            {"type": "jam", "channel": 40, "start_s": 2.0},
        ]}))
        wifi, bt, jam = sc.interferers
        assert isinstance(wifi, WifiAp) and wifi.wifi_channel == 6
        assert wifi.duty == 0.4
        assert isinstance(bt, BtDevice) and bt.event_interval_ms == 15.0
        assert isinstance(jam, Jammer) and jam.channel == 40
        assert wifi.name == "wifi:0" and bt.name == "bt:1" and jam.name == "jam:2"
        assert wifi.seed != bt.seed

    @settings(max_examples=100, deadline=None)
    @given(sources=st.lists(st.one_of(
        # A positive duty below about 2.3e-8 gives the default 2 ms burst a
        # mean idle time of more than a day, which is refused (TestExitCodes).
        st.fixed_dictionaries({"type": st.just("wifi"), "channel": st.sampled_from([1, 6, 11]),
                               "duty": st.just(0.0) | st.floats(1e-7, 1.0)}),
        st.fixed_dictionaries({"type": st.just("bt")}),
        st.fixed_dictionaries({"type": st.just("jam"), "channel": st.integers(0, 79),
                               "start_s": st.floats(0.0, 1.0)})), min_size=1, max_size=6))
    def test_every_source_is_its_own_lane(self, sources):
        # The field gives each interferer a lane, so their sources must differ.
        sc = parse_scenario(cfg(session={"duration_s": 0.5}, interference={"sources": sources}))
        names = [i.source for i in sc.interferers]
        assert len(set(names)) == len(names) == len(sources)
        assert scenario_field(sc).sources == sorted(names)

    def test_source_seed_follows_session(self):
        a = parse_scenario(cfg(interference={"sources": [{"type": "bt"}]}),
                           seed=1).interferers[0]
        b = parse_scenario(cfg(interference={"sources": [{"type": "bt"}]}),
                           seed=2).interferers[0]
        assert a.seed != b.seed

    def test_default_source_seed_stays_in_int64(self):
        # Below 2**63 / 1000 the default is seed * 1000 + index, as it was.
        sources = cfg(interference={"sources": [{"type": "bt"}, {"type": "wifi", "channel": 1,
                                                                 "duty": 0.5}]})
        assert [i.seed for i in parse_scenario(sources, seed=7).interferers] == [7000, 7001]
        big = parse_scenario(sources, seed=2**63 - 1).interferers
        assert [i.seed for i in big] == [((2**63 - 1) * 1000 + i) % 2**63 for i in (0, 1)]
        build_field(big, 10_000.0)

    def test_bad_wifi_channel(self):
        with pytest.raises(ConfigError, match="1, 6, or 11"):
            parse_scenario(cfg(interference={"sources": [
                {"type": "wifi", "channel": 3, "duty": 0.2}]}))

    def test_unknown_source_type(self):
        with pytest.raises(ConfigError, match="lte"):
            parse_scenario(cfg(interference={"sources": [{"type": "lte"}]}))

    def test_unknown_source_key(self):
        with pytest.raises(ConfigError, match="power"):
            parse_scenario(cfg(interference={"sources": [
                {"type": "jam", "channel": 40, "power": 9}]}))
        # A jammer draws nothing, so it takes no seed.
        with pytest.raises(ConfigError, match="'seed'"):
            parse_scenario(cfg(interference={"sources": [
                {"type": "jam", "channel": 40, "seed": 3}]}))


class TestLoadFile:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("session: {duration_s: 3.0, seed: 6}\n"
                        "motion: {preset: arm-raise}\n")
        sc = load_scenario(path)
        assert (sc.duration_s, sc.seed) == (3.0, 6)
        assert load_scenario(path, seed=8).seed == 8

    def test_yaml_syntax_error_is_not_config(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("motion: [unclosed\n")
        with pytest.raises(yaml.YAMLError):
            load_scenario(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_scenario(path)

    def test_repo_examples_parse(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[1] / "scenarios"
        files = sorted(root.glob("*.yaml"))
        assert len(files) >= 6
        for f in files:
            load_scenario(f)
