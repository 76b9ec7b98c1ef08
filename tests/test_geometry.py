import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusray import (
    GeometryError,
    MidCamera,
    Roi,
    SceneObject,
    StereoRig,
    ValidationError,
    Vec3,
    derive_mid_camera,
    roi_mask,
)
from focusray.geometry import sphere_array
from focusray.rays import nearest_hit_indices
from oracles import cone_distance_by_sampling, hit_by_marching, point_cone_distance, ray_sphere_t

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def unit(x, y, z):
    return Vec3(x, y, z).normalized()


class TestVec3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Vec3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValidationError):
            Vec3(0.0, float("inf"), 0.0)

    def test_arithmetic(self):
        a = Vec3(1.0, 2.0, 3.0)
        b = Vec3(4.0, -5.0, 6.0)
        assert a + b == Vec3(5.0, -3.0, 9.0)
        assert a - b == Vec3(-3.0, 7.0, -3.0)
        assert a * 2.0 == Vec3(2.0, 4.0, 6.0)
        assert -a == Vec3(-1.0, -2.0, -3.0)
        assert a.dot(b) == 4.0 - 10.0 + 18.0

    def test_cross_follows_right_hand_rule(self):
        assert Vec3(1, 0, 0).cross(Vec3(0, 1, 0)) == Vec3(0, 0, 1)
        assert Vec3(0, 0, -1).cross(Vec3(0, 1, 0)) == Vec3(1, 0, 0)

    def test_normalized_rejects_zero(self):
        with pytest.raises(GeometryError):
            Vec3(0.0, 0.0, 0.0).normalized()

    def test_norm_and_unit_check(self):
        assert Vec3(3.0, 4.0, 0.0).norm() == 5.0
        assert unit(2.0, 1.0, -2.0).is_unit()


class TestMidCamera:
    def test_symmetric_rig_midpoint(self):
        rig = StereoRig(
            ol=Vec3(-0.032, 0.0, 0.0),
            or_=Vec3(0.032, 0.0, 0.0),
            up=Vec3(0, 1, 0),
            forward=Vec3(0, 0, -1),
        )
        cam = derive_mid_camera(rig)
        assert cam.m == Vec3(0.0, 0.0, 0.0)
        assert cam.forward == Vec3(0, 0, -1)

    def test_arithmetic_midpoint(self):
        rig = StereoRig(
            ol=Vec3(1.0, 2.0, 3.0),
            or_=Vec3(3.0, 2.0, 1.0),
            up=Vec3(0, 1, 0),
            forward=Vec3(0, 0, -1),
        )
        assert derive_mid_camera(rig).m == Vec3(2.0, 2.0, 2.0)

    def test_degenerate_rig_rejected(self):
        with pytest.raises(GeometryError):
            StereoRig(ol=Vec3(0, 0, 0), or_=Vec3(0, 0, 0), up=Vec3(0, 1, 0), forward=Vec3(0, 0, -1))

    def test_non_unit_frame_rejected(self):
        with pytest.raises(ValidationError):
            StereoRig(ol=Vec3(-1, 0, 0), or_=Vec3(1, 0, 0), up=Vec3(0, 2, 0), forward=Vec3(0, 0, -1))

    def test_non_orthogonal_frame_rejected(self):
        with pytest.raises(ValidationError):
            StereoRig(ol=Vec3(-1, 0, 0), or_=Vec3(1, 0, 0), up=unit(0, 1, 1), forward=Vec3(0, 0, -1))

    @given(ax=coords, ay=coords, az=coords, bx=coords, by=coords, bz=coords)
    @settings(max_examples=200, deadline=None)
    def test_midpoint_exactness(self, ax, ay, az, bx, by, bz):
        a, b = Vec3(ax, ay, az), Vec3(bx, by, bz)
        if a == b:
            b = b + Vec3(1.0, 0.0, 0.0)
        rig = StereoRig(ol=a, or_=b, up=Vec3(0, 1, 0), forward=Vec3(0, 0, -1))
        m = derive_mid_camera(rig).m
        expect = Vec3((a.x + b.x) / 2.0, (a.y + b.y) / 2.0, (a.z + b.z) / 2.0)
        assert m.distance_to(expect) == 0.0


def sphere(cx, cy, cz, r, oid=1):
    return SceneObject(id=oid, center=Vec3(cx, cy, cz), radius=r, value=0.5)


def ray_t(origin: Vec3, direction: Vec3, obj: SceneObject) -> float | None:
    """Hit distance of one ray from the scalar reference (None on miss)."""
    return ray_sphere_t(origin, direction, obj.center, obj.radius)


def hits(origin: Vec3, direction: Vec3, obj: SceneObject) -> bool:
    """Hit/miss of one ray against one sphere, from the library's nearest-hit kernel."""
    d = np.array([[direction.x, direction.y, direction.z]])
    return bool(nearest_hit_indices(origin, d, sphere_array([obj]))[0] == 0)


def in_roi(roi: Roi, obj: SceneObject) -> bool:
    """ROI membership of one object, from the library's `roi_mask`."""
    return bool(roi_mask(roi, [obj])[0])


class TestRaySphere:
    """Distances come from the scalar reference that criterion 2 trusts;
    hit/miss also from the library kernel."""

    origin = Vec3(0.0, 0.0, 0.0)
    down_z = Vec3(0.0, 0.0, -1.0)

    def test_axial_hit(self):
        assert ray_t(self.origin, self.down_z, sphere(0, 0, -5, 1.0)) == 4.0
        assert hits(self.origin, self.down_z, sphere(0, 0, -5, 1.0))

    def test_offset_miss(self):
        assert ray_t(self.origin, self.down_z, sphere(0, 3, -5, 1.0)) is None
        assert not hits(self.origin, self.down_z, sphere(0, 3, -5, 1.0))

    def test_oblique_hit_distance(self):
        # closest approach 0.6 at depth 5: t = 5 - sqrt(1 - 0.36)
        t = ray_t(self.origin, self.down_z, sphere(0, 0.6, -5, 1.0))
        assert t == pytest.approx(5.0 - math.sqrt(1.0 - 0.36), abs=1e-12)
        assert hits(self.origin, self.down_z, sphere(0, 0.6, -5, 1.0))

    def test_origin_inside_hits_at_zero(self):
        assert ray_t(self.origin, self.down_z, sphere(0.1, 0, 0, 1.0)) == 0.0
        assert hits(self.origin, self.down_z, sphere(0.1, 0, 0, 1.0))

    def test_sphere_behind_misses(self):
        assert ray_t(self.origin, self.down_z, sphere(0, 0, 5, 1.0)) is None
        assert not hits(self.origin, self.down_z, sphere(0, 0, 5, 1.0))

    def test_hit_soundness_on_random_pairs(self):
        rng = random.Random(20240811)
        for _ in range(2000):
            origin = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            direction = unit(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            s = sphere(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.1, 4.0))
            t = ray_t(origin, direction, s)
            assert hits(origin, direction, s) == (t is not None)
            if t is None:
                continue
            assert t >= 0.0
            if t == 0.0 and origin.distance_to(s.center) < s.radius:
                continue  # inside-origin convention: reported depth is 0
            p = origin + direction * t
            surface_gap = abs(p.distance_to(s.center) - s.radius)
            assert surface_gap <= 1e-6 * max(1.0, t)

    def test_classification_matches_marching_oracle(self):
        rng = random.Random(999331)
        checked = 0
        for _ in range(1000):
            origin = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            direction = unit(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            s = sphere(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0.3, 3.0))
            t_max = 30.0
            hit_oracle, closest = hit_by_marching(origin, direction, s.center, s.radius, t_max, steps=2500)
            if abs(closest - s.radius) < 2e-2:
                continue  # marching cannot resolve grazing contact
            t = ray_t(origin, direction, s)
            if t is not None and t > t_max:
                continue  # beyond the oracle's march range
            hit_lib = hits(origin, direction, s)
            assert hit_lib == hit_oracle, f"origin={origin} dir={direction} sphere={s} t={t}"
            checked += 1
        assert checked > 600  # the margin must not have eaten the sample


class TestCone:
    apex = Vec3(0.0, 0.0, 0.0)
    axis = Vec3(0.0, 0.0, -1.0)

    def test_inside_is_zero(self):
        assert point_cone_distance(Vec3(0, 0, -5), self.apex, self.axis, math.radians(15)) == 0.0

    def test_behind_apex_uses_apex_distance(self):
        d = point_cone_distance(Vec3(0, 0, 3), self.apex, self.axis, math.radians(15))
        assert d == pytest.approx(3.0, abs=1e-12)

    def test_lateral_distance(self):
        # point at 90 degrees off a 30-degree cone: lateral distance = rho*cos - z*sin
        half = math.radians(30)
        p = Vec3(2.0, 0.0, 0.0)
        expect = 2.0 * math.cos(half)
        assert point_cone_distance(p, self.apex, self.axis, half) == pytest.approx(expect, abs=1e-12)

    def test_matches_sampling_oracle(self):
        rng = random.Random(4242)
        for _ in range(60):
            half = rng.uniform(0.1, 1.2)
            p = Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-25, 5))
            got = point_cone_distance(p, self.apex, self.axis, half)
            want = cone_distance_by_sampling(p, self.apex, self.axis, half)
            assert got == pytest.approx(want, abs=3e-2)


def rodrigues(v: Vec3, k: Vec3, angle: float) -> Vec3:
    c, s = math.cos(angle), math.sin(angle)
    return v * c + k.cross(v) * s + k * (k.dot(v) * (1.0 - c))


class TestRoiContains:
    def test_axial_object_inside(self):
        roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(15), z_far=100.0)
        assert in_roi(roi, sphere(0, 0, -5, 1.0))

    def test_behind_apex_excluded(self):
        roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(15), z_far=100.0)
        assert not in_roi(roi, sphere(0, 0, 4, 1.0))

    def test_grazing_sphere_included(self):
        half = math.radians(20)
        roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=half, z_far=100.0)
        # center 0.5 outside the lateral surface, radius 0.6: grazing overlap
        z = 10.0
        on_surface = Vec3(z * math.tan(half), 0.0, -z)
        center = on_surface + Vec3(math.cos(half), 0.0, math.sin(half)) * 0.5
        assert point_cone_distance(center, roi.apex, roi.axis, half) == pytest.approx(0.5, abs=1e-9)
        assert in_roi(roi, SceneObject(id=1, center=center, radius=0.6, value=0.5))
        assert not in_roi(roi, SceneObject(id=1, center=center, radius=0.4, value=0.5))

    def test_z_far_truncation(self):
        roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(15), z_far=50.0)
        assert in_roi(roi, sphere(0, 0, -49, 1.0))
        assert in_roi(roi, sphere(0, 0, -50.5, 1.0))  # sphere front crosses z_far
        assert not in_roi(roi, sphere(0, 0, -52, 1.0))

    def test_rigid_transform_invariance(self):
        rng = random.Random(77)
        base_roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(25), z_far=40.0)
        for _ in range(100):
            obj = sphere(rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-45, 5), rng.uniform(0.2, 3.0))
            k = unit(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            angle = rng.uniform(0, 2 * math.pi)
            shift = Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9))
            moved_roi = Roi(
                apex=rodrigues(base_roi.apex, k, angle) + shift,
                axis=rodrigues(base_roi.axis, k, angle).normalized(),
                half_angle=base_roi.half_angle,
                z_far=base_roi.z_far,
            )
            moved_obj = SceneObject(
                id=obj.id,
                center=rodrigues(obj.center, k, angle) + shift,
                radius=obj.radius,
                value=obj.value,
            )
            assert in_roi(base_roi, obj) == in_roi(moved_roi, moved_obj)

    def test_invalid_roi_rejected(self):
        with pytest.raises(ValidationError):
            Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(95), z_far=10.0)
        with pytest.raises(ValidationError):
            Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=0.3, z_far=-1.0)


class TestSceneObject:
    def test_radius_and_value_validated(self):
        with pytest.raises(ValidationError):
            sphere(0, 0, 0, -1.0)
        with pytest.raises(ValidationError):
            SceneObject(id=1, center=Vec3(0, 0, 0), radius=1.0, value=1.5)
