"""Scenario configuration: every tunable in one flat, validated record.

Defaults that matter: tick 16 ms (~60 Hz) and 0.064 m interpupillary
distance. Everything else is a calibration default that scenario config
files may override key by key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .attention import HeuristicWeights
from .comfort import ComfortConfig
from .dynamics import BlurConfig, DynamicsConfig
from .errors import ValidationError
from .rays import RayConfig

# config-file keys that parse as integers; every other field is a float
INT_FIELDS = frozenset({"ray_k", "ray_n"})

# defaults of the fields that SimConfig hands to these sub-configs
_DYNAMICS, _BLUR, _COMFORT = DynamicsConfig(), BlurConfig(), ComfortConfig()


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Flat bag of scenario tunables; module invariants are enforced on load."""

    ray_k: int = 4
    ray_n: int = 64
    ray_half_angle_deg: float = 15.0
    roi_half_angle_deg: float = 30.0
    roi_z_far_m: float = 100.0
    p_rm: float = 0.5
    p_d: float = 0.3
    p_v: float = 0.2
    refocus_ms: float = _DYNAMICS.refocus_ms
    persistence_hold_ms: float = _DYNAMICS.persistence_hold_ms
    blur_per_meter: float = _BLUR.blur_per_meter
    max_blur: float = _BLUR.max_blur
    tick_ms: float = 16.0
    ipd_m: float = 0.064
    accel_threshold_m_s2: float = _COMFORT.accel_threshold_m_s2
    min_episode_ms: float = _COMFORT.min_episode_ms
    fov_delta_threshold_deg: float = _COMFORT.fov_delta_threshold_deg
    motion_floor_m_s: float = _COMFORT.motion_floor_m_s
    motion_floor_deg_s: float = _COMFORT.motion_floor_deg_s
    walk_episode_ms: float = _COMFORT.walk_episode_ms
    max_session_ms: float = _COMFORT.max_session_ms
    jump_distance_min_m: float = _COMFORT.jump_distance_min_m
    target_frame_ms: float = _COMFORT.target_frame_ms
    drop_factor: float = _COMFORT.drop_factor

    def __post_init__(self) -> None:
        for name in ("ray_k", "ray_n"):
            if not (isinstance(x := getattr(self, name), int) and x >= 1):
                raise ValidationError(f"{name} must be an integer >= 1, got {x!r}")
        for name in ("ray_half_angle_deg", "roi_half_angle_deg"):
            x = getattr(self, name)
            if not 0.0 < x < 90.0:
                raise ValidationError(f"{name} must be in (0, 90), got {x!r}")
        for name in ("roi_z_far_m", "tick_ms", "ipd_m"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0.0):
                raise ValidationError(f"{name} must be positive, got {x!r}")
        # these constructors re-check their own invariants and name the field
        self.ray_config()
        self.heuristic_weights()
        self.dynamics_config()
        self.blur_config()
        self.comfort_config()

    def ray_config(self) -> RayConfig:
        return RayConfig(
            k=self.ray_k,
            n=self.ray_n,
            half_angle=math.radians(self.ray_half_angle_deg),
        )

    def heuristic_weights(self) -> HeuristicWeights:
        return HeuristicWeights(p_rm=self.p_rm, p_d=self.p_d, p_v=self.p_v)

    def dynamics_config(self) -> DynamicsConfig:
        return self._sub_config(DynamicsConfig)

    def blur_config(self) -> BlurConfig:
        return self._sub_config(BlurConfig)

    def comfort_config(self) -> ComfortConfig:
        return self._sub_config(ComfortConfig)

    def _sub_config(self, cls):
        """An instance of `cls` built from the SimConfig fields of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})


CONFIG_FIELD_NAMES = tuple(f.name for f in fields(SimConfig))
