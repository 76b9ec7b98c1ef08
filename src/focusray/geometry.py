"""Vector and camera math for focus-selection scene queries.

Everything here is a plain immutable value with pure-function operations:
safe to copy between threads, trivially deterministic. All geometry is in
double precision, world units are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeometryError, ValidationError

UNIT_TOL = 1e-9
ORTHO_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class Vec3:
    """3D vector; components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValidationError(f"Vec3 components must be finite, got ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n < 1e-12:
            raise GeometryError("cannot normalize a near-zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol


def _require_unit(v: Vec3, name: str) -> None:
    if not v.is_unit():
        raise ValidationError(f"{name} must be a unit vector (|{name}| = {v.norm()!r})")


@dataclass(frozen=True, slots=True)
class StereoRig:
    """Left/right optical centers plus a shared orthonormal view frame."""

    ol: Vec3
    or_: Vec3
    up: Vec3
    forward: Vec3

    def __post_init__(self) -> None:
        _require_unit(self.forward, "forward")
        _require_unit(self.up, "up")
        if abs(self.forward.dot(self.up)) > ORTHO_TOL:
            raise ValidationError("forward and up must be orthogonal")
        if self.ol == self.or_:
            raise GeometryError("degenerate rig: left and right optical centers coincide")


@dataclass(frozen=True, slots=True)
class MidCamera:
    """Virtual camera at the midpoint of a stereo rig's optical centers."""

    m: Vec3
    forward: Vec3
    up: Vec3

    def __post_init__(self) -> None:
        _require_unit(self.forward, "forward")
        _require_unit(self.up, "up")


@dataclass(frozen=True, slots=True)
class SceneObject:
    """Candidate of visual attention: bounding sphere plus designer-assigned value."""

    id: int
    center: Vec3
    radius: float
    value: float
    label: str = ""

    def __post_init__(self) -> None:
        if not -(2**63) <= self.id < 2**63:  # selection holds ids as int64
            raise ValidationError(f"object id must fit in 64 bits, got {self.id!r}")
        if not self.radius > 0.0:
            raise ValidationError(f"object {self.id}: radius must be positive, got {self.radius!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"object {self.id}: value must be in [0, 1], got {self.value!r}")


@dataclass(frozen=True, slots=True)
class Roi:
    """Region of interest: a solid cone from `apex` along `axis`, truncated at `z_far`."""

    apex: Vec3
    axis: Vec3
    half_angle: float
    z_far: float

    def __post_init__(self) -> None:
        _require_unit(self.axis, "axis")
        if not 0.0 < self.half_angle < math.pi / 2.0:
            raise ValidationError(f"half_angle must be in (0, pi/2), got {self.half_angle!r}")
        if not self.z_far > 0.0:
            raise ValidationError(f"z_far must be positive, got {self.z_far!r}")


def derive_mid_camera(rig: StereoRig) -> MidCamera:
    """Midpoint camera of a stereo rig: exact component-wise midpoint, frame copied."""
    m = Vec3(
        (rig.ol.x + rig.or_.x) / 2.0,
        (rig.ol.y + rig.or_.y) / 2.0,
        (rig.ol.z + rig.or_.z) / 2.0,
    )
    return MidCamera(m=m, forward=rig.forward, up=rig.up)


def sphere_array(objects: Sequence[SceneObject]) -> np.ndarray:
    """Bounding spheres as an (N, 4) float64 array of center x, y, z and radius, in input order."""
    return np.array(
        [(o.center.x, o.center.y, o.center.z, o.radius) for o in objects], dtype=np.float64
    ).reshape(-1, 4)


def cone_mask(apex: Vec3, axis: Vec3, half_angle: float, z_far: float, centers: np.ndarray, rad: np.ndarray) -> np.ndarray:
    """Per sphere, True when it overlaps the solid cone truncated at `z_far`.

    `centers` holds x, y, z in its first three columns. Partial overlap
    counts. The distance from a center to the solid infinite cone is taken
    in the (radial, axial) half-plane, where the cone is convex: zero
    inside, else the distance to the apex or to the lateral boundary ray.
    Truncation: the sphere point closest to the apex plane along the axis
    must lie at axial distance <= z_far.
    """
    relx = centers[:, 0] - apex.x
    rely = centers[:, 1] - apex.y
    relz = centers[:, 2] - apex.z
    ax, ay, az = axis.x, axis.y, axis.z
    z = relx * ax + rely * ay + relz * az
    rho_sq = (relx * relx + rely * rely + relz * relz) - z * z
    rho = np.sqrt(np.where(rho_sq > 0.0, rho_sq, 0.0))
    sin_t = math.sin(half_angle)
    cos_t = math.cos(half_angle)
    side = rho * cos_t - z * sin_t
    inside = (z >= 0.0) & (side <= 0.0)
    s = rho * sin_t + z * cos_t
    # plain sqrt, not hypot, so the scalar reference in tests/oracles.py
    # reproduces these values bit for bit
    apex_dist = np.sqrt(rho * rho + z * z)
    dist = np.where(inside, 0.0, np.where(s <= 0.0, apex_dist, side))
    return (dist <= rad) & (z - rad <= z_far)


def roi_mask(roi: Roi, objects: Sequence[SceneObject]) -> np.ndarray:
    """Per object, True when its bounding sphere overlaps the truncated ROI cone."""
    spheres = sphere_array(objects)
    return cone_mask(roi.apex, roi.axis, roi.half_angle, roi.z_far, spheres, spheres[:, 3])
