"""Sensing settings: the key-value object of the paper's API.

``SenSocial Manager exposes the API calls to define the duty cycle and
sample rate of a stream in a key-value object.  These settings are
later passed to the ESSensorManager library`` (§4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device import calibration
from repro.device.errors import SensorError


@dataclass(frozen=True)
class SensingConfig:
    """Duty cycle and sample-rate settings for one stream."""

    #: Seconds between the starts of consecutive sensing cycles.
    duty_cycle_s: float = calibration.DEFAULT_DUTY_CYCLE_SECONDS
    #: Multiplier on the sensor's default within-window sample rate;
    #: kept for API fidelity, affects payload size proportionally.
    sample_rate: float = 1.0

    def __post_init__(self):
        if not self.duty_cycle_s > 0:  # also rejects NaN
            raise SensorError(f"duty cycle must be > 0, got {self.duty_cycle_s}")
        if not self.sample_rate > 0:  # also rejects NaN
            raise SensorError(f"sample rate must be > 0, got {self.sample_rate}")

    @classmethod
    def from_settings(cls, settings: dict | None) -> "SensingConfig":
        """Build from the key-value settings object developers pass."""
        if not settings:
            return cls()
        known = {"duty_cycle_s", "sample_rate"}
        unknown = set(settings) - known
        if unknown:
            raise SensorError(f"unknown sensing settings: {sorted(unknown)}")
        return cls(
            duty_cycle_s=float(settings.get(
                "duty_cycle_s", calibration.DEFAULT_DUTY_CYCLE_SECONDS)),
            sample_rate=float(settings.get("sample_rate", 1.0)),
        )

    def to_settings(self) -> dict:
        return {"duty_cycle_s": self.duty_cycle_s, "sample_rate": self.sample_rate}

    def scaled(self, factor: float) -> "SensingConfig":
        """This config with the duty cycle stretched by ``factor``.

        Used by server-pushed rate backoff: factor 2 halves the
        sensing rate.  Factor 1.0 returns an identical config (and
        ``duty_cycle_s * 1.0`` is exact in IEEE-754, preserving
        bit-identity when no backoff is in force).
        """
        if factor <= 0:
            raise SensorError(f"rate factor must be > 0, got {factor}")
        return SensingConfig(duty_cycle_s=self.duty_cycle_s * factor,
                             sample_rate=self.sample_rate)
