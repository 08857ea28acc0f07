"""Tests for the mobile middleware half (streams, filters, privacy,
triggers, remote configs) running on the full testbed."""

import pytest

from repro.core.common import (
    Condition,
    Filter,
    Granularity,
    ModalityType,
    ModalityValue,
    Operator,
    StreamMode,
)
from repro.core.mobile import PrivacyPolicy, StreamState
from repro.core.common.errors import StreamStateError
from repro.device import ActivityState, calibration


@pytest.fixture
def alice(testbed):
    return testbed.add_user("alice", "Paris")


class TestContinuousStreams:
    def test_classified_stream_delivers_labels(self, testbed, alice):
        device = alice.manager.get_user("alice").get_device()
        stream = device.get_stream(ModalityType.ACCELEROMETER, "classified")
        records = []
        stream.register_listener(records.append)
        testbed.run(185.0)
        assert len(records) == 3  # default 60 s duty cycle
        assert all(record.value in ("still", "walking", "running")
                   for record in records)

    def test_raw_stream_delivers_windows(self, testbed, alice):
        device = alice.manager.get_user("alice").get_device()
        stream = device.get_stream(ModalityType.ACCELEROMETER, "raw")
        records = []
        stream.register_listener(records.append)
        testbed.run(70.0)
        assert len(records[0].value) == 40

    def test_duty_cycle_reconfiguration(self, testbed, alice):
        device = alice.manager.get_user("alice").get_device()
        stream = device.get_stream(ModalityType.WIFI, "raw")
        stream.configure({"duty_cycle_s": 20.0})
        records = []
        stream.register_listener(records.append)
        testbed.run(65.0)
        assert len(records) >= 3

    def test_pause_and_resume(self, testbed, alice):
        device = alice.manager.get_user("alice").get_device()
        stream = device.get_stream(ModalityType.WIFI, "raw")
        records = []
        stream.register_listener(records.append)
        testbed.run(65.0)
        count = len(records)
        stream.pause()
        testbed.run(120.0)
        assert len(records) == count
        stream.resume()
        testbed.run(65.0)
        assert len(records) > count

    def test_destroy_stops_and_forbids_use(self, testbed, alice):
        device = alice.manager.get_user("alice").get_device()
        stream = device.get_stream(ModalityType.WIFI, "raw")
        stream.destroy()
        assert stream.state is StreamState.DESTROYED
        with pytest.raises(StreamStateError):
            stream.pause()

    def test_stream_heap_accounting(self, testbed, alice):
        before = alice.phone.heap.allocated_mb
        device = alice.manager.get_user("alice").get_device()
        stream = device.get_stream(ModalityType.WIFI, "raw")
        assert alice.phone.heap.allocated_mb == pytest.approx(
            before + calibration.HEAP_PER_STREAM_MB)
        stream.destroy()
        assert alice.phone.heap.allocated_mb == pytest.approx(before)

    def test_local_stream_cpu_cheaper_than_server_stream(self, testbed, alice):
        device = alice.manager.get_user("alice").get_device()
        local = device.get_stream(ModalityType.WIFI, "raw")
        base = alice.phone.cpu.steady_load_pct()
        server_bound = device.get_stream(ModalityType.WIFI, "raw",
                                         send_to_server=True)
        with_server = alice.phone.cpu.steady_load_pct()
        assert (with_server - base) > 5 * calibration.CPU_LOCAL_STREAM_PCT


class TestConditionGating:
    def test_gps_only_when_walking(self, testbed, alice):
        """The §3.1 flagship example: GPS sampled only while walking."""
        manager = alice.manager
        stream = manager.create_stream(
            ModalityType.LOCATION, Granularity.RAW,
            stream_filter=Filter([Condition(
                ModalityType.PHYSICAL_ACTIVITY, Operator.EQUALS,
                ModalityValue.WALKING)]))
        records = []
        stream.register_listener(records.append)
        # Pin the ground truth still; monitor sees "still"; no samples.
        alice.mobility.stop()
        alice.phone.environment.activity = ActivityState.STILL
        testbed.run(300.0)
        assert records == []
        assert stream.cycles_skipped > 0
        # Accelerometer monitor runs continuously regardless.
        assert ModalityType.ACCELEROMETER in \
            manager.filter_manager.active_monitors()
        # Now walk: samples flow.
        alice.phone.environment.activity = ActivityState.WALKING
        testbed.run(300.0)
        assert len(records) > 0

    def test_time_of_day_condition(self, testbed, alice):
        stream = alice.manager.create_stream(
            ModalityType.WIFI, Granularity.RAW,
            stream_filter=Filter([Condition(
                ModalityType.TIME_OF_DAY, Operator.BETWEEN, [1.0, 2.0])]))
        records = []
        stream.register_listener(records.append)
        testbed.run(1800.0)  # hour 0: outside the window
        assert records == []
        testbed.run(3600.0)  # hour 1+: inside the window
        assert len(records) > 0

    def test_monitor_refcounting(self, testbed, alice):
        manager = alice.manager
        walking = Filter([Condition(ModalityType.PHYSICAL_ACTIVITY,
                                    Operator.EQUALS, "walking")])
        first = manager.create_stream(ModalityType.WIFI, Granularity.RAW,
                                      stream_filter=walking)
        second = manager.create_stream(ModalityType.BLUETOOTH, Granularity.RAW,
                                       stream_filter=walking)
        assert manager.filter_manager.active_monitors() == [
            ModalityType.ACCELEROMETER]
        first.destroy()
        assert manager.filter_manager.active_monitors() == [
            ModalityType.ACCELEROMETER]
        second.destroy()
        assert manager.filter_manager.active_monitors() == []


class TestSocialEventStreams:
    def test_osn_action_triggers_sensing(self, testbed, alice):
        stream = alice.manager.create_stream(
            ModalityType.MICROPHONE, Granularity.CLASSIFIED,
            stream_filter=Filter([Condition(
                ModalityType.FACEBOOK_ACTIVITY, Operator.EQUALS,
                ModalityValue.ACTIVE)]))
        records = []
        stream.register_listener(records.append)
        testbed.run(120.0)
        assert records == []  # no OSN action yet
        testbed.facebook.perform_action("alice", "post", content="hi")
        testbed.run(120.0)
        assert len(records) == 1
        assert records[0].osn_action["content"] == "hi"

    def test_action_type_condition(self, testbed, alice):
        stream = alice.manager.create_stream(
            ModalityType.WIFI, Granularity.RAW,
            stream_filter=Filter([Condition(
                ModalityType.FACEBOOK_ACTIVITY, Operator.EQUALS, "like")]))
        records = []
        stream.register_listener(records.append)
        testbed.facebook.perform_action("alice", "post", content="x")
        testbed.run(150.0)
        assert records == []
        testbed.facebook.perform_action("alice", "like", target="page-1")
        testbed.run(150.0)
        assert len(records) == 1

    def test_content_condition(self, testbed, alice):
        """Content-based subscription: 'posts about football' (§3.1)."""
        stream = alice.manager.create_stream(
            ModalityType.WIFI, Granularity.RAW,
            stream_filter=Filter([Condition(
                ModalityType.FACEBOOK_ACTIVITY, Operator.CONTAINS,
                "football")]))
        records = []
        stream.register_listener(records.append)
        testbed.facebook.perform_action("alice", "post",
                                        content="lovely weather")
        testbed.run(150.0)
        assert records == []
        testbed.facebook.perform_action("alice", "post",
                                        content="great FOOTBALL derby")
        testbed.run(150.0)
        assert len(records) == 1

    def test_other_users_actions_do_not_trigger(self, testbed, alice):
        bob = testbed.add_user("bob", "Paris")
        stream = alice.manager.create_stream(
            ModalityType.WIFI, Granularity.RAW, mode=StreamMode.SOCIAL_EVENT)
        records = []
        stream.register_listener(records.append)
        testbed.facebook.perform_action("bob", "post", content="mine")
        testbed.run(150.0)
        assert records == []

    def test_trigger_latency_measured(self, testbed, alice):
        alice.manager.create_stream(ModalityType.WIFI, Granularity.RAW,
                                    mode=StreamMode.SOCIAL_EVENT)
        testbed.facebook.perform_action("alice", "post")
        testbed.run(150.0)
        assert len(alice.manager.trigger_latencies) == 1
        assert 30.0 < alice.manager.trigger_latencies[0] < 80.0


class TestPrivacyIntegration:
    def test_violating_stream_created_paused(self, testbed, alice):
        alice.manager.privacy.set_policy(
            PrivacyPolicy(ModalityType.LOCATION, allow_raw=False))
        stream = alice.manager.create_stream(ModalityType.LOCATION,
                                             Granularity.RAW)
        assert stream.state is StreamState.PAUSED_PRIVACY
        assert alice.manager.privacy_block_reason(stream.stream_id)
        records = []
        stream.register_listener(records.append)
        testbed.run(180.0)
        assert records == []

    def test_policy_change_pauses_active_stream(self, testbed, alice):
        stream = alice.manager.create_stream(ModalityType.LOCATION,
                                             Granularity.RAW)
        assert stream.state is StreamState.ACTIVE
        alice.manager.privacy.set_policy(
            PrivacyPolicy(ModalityType.LOCATION, allow_raw=False))
        assert stream.state is StreamState.PAUSED_PRIVACY

    def test_policy_relaxation_resumes_stream(self, testbed, alice):
        alice.manager.privacy.set_policy(
            PrivacyPolicy(ModalityType.LOCATION, allow_raw=False))
        stream = alice.manager.create_stream(ModalityType.LOCATION,
                                             Granularity.RAW)
        alice.manager.privacy.remove_policy(ModalityType.LOCATION)
        assert stream.state is StreamState.ACTIVE
        records = []
        stream.register_listener(records.append)
        testbed.run(130.0)
        assert len(records) > 0

    def test_classified_allowed_while_raw_denied(self, testbed, alice):
        alice.manager.privacy.set_policy(
            PrivacyPolicy(ModalityType.MICROPHONE, allow_raw=False))
        raw = alice.manager.create_stream(ModalityType.MICROPHONE,
                                          Granularity.RAW)
        classified = alice.manager.create_stream(ModalityType.MICROPHONE,
                                                 Granularity.CLASSIFIED)
        assert raw.state is StreamState.PAUSED_PRIVACY
        assert classified.state is StreamState.ACTIVE


class TestRemoteManagement:
    def test_server_creates_stream_on_device(self, testbed, alice):
        stream = testbed.server.create_stream(
            "alice", ModalityType.MICROPHONE, Granularity.CLASSIFIED)
        testbed.run(2.0)
        assert stream.stream_id in alice.manager.streams
        mobile_stream = alice.manager.streams[stream.stream_id]
        assert mobile_stream.config.created_by == "server"
        assert mobile_stream.config.send_to_server

    def test_server_stream_records_flow_back(self, testbed, alice):
        stream = testbed.server.create_stream(
            "alice", ModalityType.MICROPHONE, Granularity.CLASSIFIED)
        records = []
        stream.add_listener(records.append)
        testbed.run(130.0)
        assert len(records) >= 2
        assert records[0].user_id == "alice"

    def test_server_destroy_removes_mobile_stream(self, testbed, alice):
        stream = testbed.server.create_stream(
            "alice", ModalityType.MICROPHONE, Granularity.CLASSIFIED)
        testbed.run(2.0)
        stream.destroy()
        testbed.run(2.0)
        assert stream.stream_id not in alice.manager.streams

    def test_server_filter_update_reaches_mobile(self, testbed, alice):
        stream = testbed.server.create_stream(
            "alice", ModalityType.LOCATION, Granularity.RAW)
        testbed.run(2.0)
        stream.set_filter(Filter([Condition(
            ModalityType.PHYSICAL_ACTIVITY, Operator.EQUALS, "walking")]))
        testbed.run(2.0)
        mobile_stream = alice.manager.streams[stream.stream_id]
        assert any(condition.modality is ModalityType.PHYSICAL_ACTIVITY
                   for condition in mobile_stream.config.filter.conditions)

    def test_server_settings_update_reaches_mobile(self, testbed, alice):
        stream = testbed.server.create_stream(
            "alice", ModalityType.WIFI, Granularity.RAW)
        testbed.run(2.0)
        stream.configure({"duty_cycle_s": 15.0})
        testbed.run(2.0)
        mobile_stream = alice.manager.streams[stream.stream_id]
        assert mobile_stream.config.settings["duty_cycle_s"] == 15.0

    def test_config_for_other_device_ignored(self, testbed, alice):
        from repro.core.common import StreamConfig
        config = StreamConfig(stream_id="foreign", device_id="not-this-phone",
                              modality=ModalityType.WIFI,
                              granularity=Granularity.RAW)
        alice.manager.handle_config_xml(config.to_xml())
        assert "foreign" not in alice.manager.streams

    @pytest.mark.parametrize("duty_cycle_s", [0, float("nan")])
    def test_pushed_nonpositive_duty_cycle_rejected(self, testbed, alice,
                                                    duty_cycle_s):
        # The XML carries settings as JSON, so "NaN" arrives as a float
        # NaN and must meet the same check as 0.
        from repro.core.common import StreamConfig
        from repro.device import SensorError
        config = StreamConfig(stream_id="pushed",
                              device_id=alice.manager.phone.device_id,
                              modality=ModalityType.WIFI,
                              granularity=Granularity.RAW,
                              settings={"duty_cycle_s": duty_cycle_s})
        with pytest.raises(SensorError, match="duty cycle must be > 0"):
            alice.manager.handle_config_xml(config.to_xml())
