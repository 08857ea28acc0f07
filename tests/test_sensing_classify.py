"""Unit tests for the sensing manager and the classifiers."""

import pytest

from repro.classify import (
    ActivityClassifier,
    AudioClassifier,
    ClassifierRegistry,
    LocationClassifier,
    ProximityCountClassifier,
)
from repro.device import ActivityState, AudioState, CityRegistry, calibration
from repro.device.battery import EnergyCategory
from repro.sensing import ESSensorManager, SensingConfig
from repro.device.errors import SensorError


@pytest.fixture
def sensing(world, phone):
    return ESSensorManager.get_for(world, phone)


class TestSensingConfig:
    def test_defaults(self):
        config = SensingConfig()
        assert config.duty_cycle_s == calibration.DEFAULT_DUTY_CYCLE_SECONDS
        assert config.sample_rate == 1.0

    def test_from_settings_round_trip(self):
        config = SensingConfig.from_settings(
            {"duty_cycle_s": 30.0, "sample_rate": 2.0})
        assert config.duty_cycle_s == 30.0
        assert config.to_settings()["sample_rate"] == 2.0

    def test_from_empty_settings(self):
        assert SensingConfig.from_settings(None) == SensingConfig()

    def test_unknown_settings_rejected(self):
        with pytest.raises(SensorError):
            SensingConfig.from_settings({"frequency": 1})

    def test_invalid_duty_cycle_rejected(self):
        with pytest.raises(SensorError):
            SensingConfig(duty_cycle_s=0)

    @pytest.mark.parametrize("field", ["duty_cycle_s", "sample_rate"])
    def test_nan_setting_rejected_like_zero(self, field):
        for value in (0.0, float("nan")):
            with pytest.raises(SensorError):
                SensingConfig(**{field: value})


class TestOneOffSensing:
    def test_reading_arrives_after_sensor_window(self, world, phone, sensing):
        readings = []
        sensing.sense_once("wifi", readings.append)
        assert readings == []
        world.run_for(calibration.SENSE_WINDOW_SECONDS["wifi"] + 0.1)
        assert len(readings) == 1
        assert readings[0].modality == "wifi"

    def test_one_off_counts(self, world, phone, sensing):
        sensing.sense_once("wifi", lambda r: None)
        sensing.sense_once("bluetooth", lambda r: None)
        assert sensing.one_off_count == 2

    def test_energy_spent_only_per_cycle(self, world, phone, sensing):
        sensing.sense_once("location", lambda r: None)
        world.run_for(60.0)
        spent = phone.battery.consumed_by(
            "location", EnergyCategory.SAMPLING)
        assert spent == pytest.approx(calibration.SAMPLING_MAH["location"])


class TestSubscriptionSensing:
    def test_duty_cycle_controls_rate(self, world, phone, sensing):
        readings = []
        sensing.subscribe("wifi", SensingConfig(duty_cycle_s=10.0),
                          readings.append)
        world.run_for(61.0)
        assert len(readings) == 6  # first at window end, then every 10 s

    def test_unsubscribe_stops_sampling(self, world, phone, sensing):
        readings = []
        subscription = sensing.subscribe(
            "wifi", SensingConfig(duty_cycle_s=10.0), readings.append)
        world.run_for(25.0)
        count = len(readings)
        sensing.unsubscribe(subscription.subscription_id)
        world.run_for(100.0)
        assert len(readings) == count

    def test_sample_rate_scales_payload(self, world, phone, sensing):
        readings = []
        sensing.subscribe("accelerometer",
                          SensingConfig(duty_cycle_s=10.0, sample_rate=0.5),
                          readings.append)
        world.run_for(20.0)
        assert readings[0].wire_bytes == \
            calibration.RAW_PAYLOAD_BYTES["accelerometer"] // 2

    def test_active_subscriptions_listed(self, world, phone, sensing):
        sensing.subscribe("wifi", SensingConfig(), lambda r: None)
        sensing.subscribe("bluetooth", SensingConfig(), lambda r: None)
        assert len(sensing.active_subscriptions()) == 2
        sensing.unsubscribe_all()
        assert sensing.active_subscriptions() == []

    def test_singleton_per_device(self, world, phone):
        assert ESSensorManager.get_for(world, phone) is \
            ESSensorManager.get_for(world, phone)


class TestActivityClassifier:
    def classify_for(self, phone, activity):
        phone.environment.activity = activity
        classifier = ActivityClassifier()
        return classifier.classify(phone.sensor("accelerometer").sample()).label

    def test_still_classified(self, phone):
        assert self.classify_for(phone, ActivityState.STILL) == "still"

    def test_walking_classified(self, phone):
        assert self.classify_for(phone, ActivityState.WALKING) == "walking"

    def test_running_classified(self, phone):
        assert self.classify_for(phone, ActivityState.RUNNING) == "running"

    def test_accuracy_over_many_windows(self, phone):
        correct = total = 0
        for activity in ActivityState:
            for _ in range(30):
                total += 1
                if self.classify_for(phone, activity) == activity.value:
                    correct += 1
        assert correct / total > 0.9

    def test_classification_energy_charged(self, phone):
        classifier = ActivityClassifier(phone.battery, phone.cpu)
        before = phone.battery.consumed_by(
            "accelerometer", EnergyCategory.CLASSIFICATION)
        classifier.classify(phone.sensor("accelerometer").sample())
        delta = phone.battery.consumed_by(
            "accelerometer", EnergyCategory.CLASSIFICATION) - before
        assert delta == pytest.approx(
            calibration.CLASSIFICATION_MAH["accelerometer"])

    def test_wrong_modality_rejected(self, phone):
        classifier = ActivityClassifier()
        with pytest.raises(ValueError):
            classifier.classify(phone.sensor("microphone").sample())


class TestOtherClassifiers:
    def test_audio_silent_vs_noisy(self, phone):
        classifier = AudioClassifier()
        phone.environment.audio = AudioState.SILENT
        assert classifier.classify(
            phone.sensor("microphone").sample()).label == "silent"
        phone.environment.audio = AudioState.NOISY
        assert classifier.classify(
            phone.sensor("microphone").sample()).label == "not_silent"

    def test_location_reverse_geocodes_to_city(self, phone):
        cities = CityRegistry.europe()
        phone.environment.move_to(*cities.get("Paris").center)
        classifier = LocationClassifier(cities)
        assert classifier.classify(
            phone.sensor("location").sample()).label == "Paris"

    def test_location_unknown_outside_cities(self, phone):
        cities = CityRegistry.europe()
        phone.environment.move_to(30.0, 60.0)
        classifier = LocationClassifier(cities)
        assert classifier.classify(
            phone.sensor("location").sample()).label == "unknown"

    def test_proximity_count_labels(self, phone, env_registry):
        classifier = ProximityCountClassifier("wifi")
        for index in range(4):
            env_registry.add_access_point(f"ap{index}", [0.0, 0.0])
        phone.environment.move_to(0.0, 0.0)
        result = classifier.classify(phone.sensor("wifi").sample())
        assert result.label == "crowded"
        assert result.details["count"] == 4

    def test_proximity_rejects_other_modalities(self):
        with pytest.raises(ValueError):
            ProximityCountClassifier("location")


class TestClassifierRegistry:
    def test_builtins_cover_all_sensors(self):
        registry = ClassifierRegistry()
        assert registry.modalities() == [
            "accelerometer", "bluetooth", "location", "microphone", "wifi"]

    def test_custom_classifier_replaces_builtin(self, phone):
        registry = ClassifierRegistry()

        class AlwaysJogging(ActivityClassifier):
            def _infer(self, reading):
                return "jogging", {}

        registry.register("accelerometer",
                          lambda battery, cpu: AlwaysJogging(battery, cpu))
        classifier = registry.create("accelerometer")
        assert classifier.classify(
            phone.sensor("accelerometer").sample()).label == "jogging"

    def test_unknown_modality_rejected(self):
        with pytest.raises(SensorError):
            ClassifierRegistry().create("thermometer")
