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
    prepare_scene,
    roi_mask,
)
from focusray.geometry import sphere_array
from builders import culled, nearest_from
from oracles import cone_distance_by_sampling, hit_by_marching, point_cone_distance, ray_sphere_t, roi_contains

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
    return bool(nearest_from(origin, d, sphere_array([obj]))[0] == 0)


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


def random_unit(rng: random.Random) -> Vec3:
    return unit(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))


def random_roi(rng: random.Random, reach: float, half_angle: float | None = None, z_far: float | None = None) -> Roi:
    apex = Vec3(*(rng.uniform(-reach, reach) for _ in range(3)))
    if half_angle is None:
        half_angle = rng.choice((rng.uniform(0.001, 0.3), rng.uniform(0.3, 1.2), rng.uniform(1.2, 1.55)))
    return Roi(apex=apex, axis=random_unit(rng), half_angle=half_angle, z_far=z_far or rng.uniform(1.0, 30.0))


def edge_objects(rng: random.Random, roi: Roi, radius: float, first_id: int) -> list[SceneObject]:
    """Spheres on the limits of what `roi` keeps: off the lateral boundary
    at every depth up to the corner with the z_far cut, beyond the cut on
    the axis, and behind the apex; each at the limiting distance, and a
    hair nearer and farther."""
    a, t = roi.axis, roi.half_angle
    u = (random_unit(rng).cross(a)).normalized()  # a radial direction
    normal = u * math.cos(t) - a * math.sin(t)  # outward, off the lateral boundary
    centers = []
    for s in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        reach = radius * s
        # deepest: the center sits reach beyond z_far, its nearest cone point reach*sin(t) deeper still
        for depth in (rng.uniform(0.0, roi.z_far), roi.z_far + reach + reach * math.sin(t)):
            centers.append(roi.apex + a * depth + u * (depth * math.tan(t)) + normal * reach)
        centers.append(roi.apex + a * (roi.z_far + reach))
        centers.append(roi.apex - a * reach)
    return [SceneObject(id=first_id + i, center=c, radius=radius, value=0.5) for i, c in enumerate(centers)]


def recorded_bounds(prepared) -> list:
    """Swap `prepared.spheres` for a view whose `searchsorted` notes each
    value it is asked for, the slab's bounds; the notes, in order."""
    asked = []

    class Recording(np.ndarray):
        def searchsorted(self, v, *args, **kwargs):
            asked.extend(np.atleast_1d(v).tolist())
            return np.asarray(self).searchsorted(v, *args, **kwargs)

    object.__setattr__(prepared, "spheres", prepared.spheres.view(Recording))
    return asked


class TestPreparedSceneGrid:
    """The slab cull keeps exactly what the scalar ROI test keeps, however
    the centers sit against the slab's bounds and the ROI's limits: random
    scenes, centers on the edges of a lattice of cells, flat and stretched
    scenes, and extents too wide to subtract."""

    def check(self, objects, roi, prepared=None) -> tuple[int, bool]:
        prepared = prepare_scene(objects) if prepared is None else prepared
        want = sorted(o.id for o in objects if roi_contains(roi, o))
        ids, tested = culled(prepared, roi)
        assert ids == want
        assert roi_mask(roi, objects).sum() == len(want)
        return len(want), tested < len(prepared)

    def background(self, rng: random.Random, n: int = 600, reach: float = 40.0, first: int = 1) -> list[SceneObject]:
        return [
            SceneObject(id=i, center=Vec3(*(rng.uniform(-reach, reach) for _ in range(3))),
                        radius=rng.uniform(0.1, 2.0), value=0.5)
            for i in range(first, first + n)
        ]

    def test_roi_limits(self):
        rng = random.Random(7101)
        base = self.background(rng)
        kept_on_edges = swept = 0
        for case in range(120):
            roi = random_roi(rng, 30.0)
            edges = edge_objects(rng, roi, 2.0, 10_000) + edge_objects(rng, roi, rng.uniform(0.1, 2.0), 20_000)
            kept, slab = self.check(base + edges, roi)
            kept_on_edges += sum(roi_contains(roi, o) for o in edges)
            swept += slab
        assert kept_on_edges > 120 * 10
        assert swept > 40  # slabs that leave rows out, not only ones of every row

    def test_centers_on_cell_edges(self):
        """Centers on the planes of a 5 m lattice, and one ulp to either
        side, so that many share a coordinate on the sweep axis; then, per
        ROI, centers exactly on each bound of its slab and one ulp to either
        side, which the cone cannot keep."""
        rng = random.Random(7102)

        def on_edge():
            x = 5.0 * rng.randint(-8, 8)
            return rng.choice((x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)))

        # the sphere of radius 2 fixes r_max, so added spheres leave the slab's bounds put
        edged = [sphere(0.0, 0.0, 0.0, 2.0, oid=1)] + [
            SceneObject(id=i, center=Vec3(on_edge(), on_edge(), on_edge()), radius=rng.uniform(0.1, 2.0), value=0.5)
            for i in range(2, 601)
        ]
        prepared = prepare_scene(edged)
        e = prepared.sweep_axis
        # many rows share a key on the sweep axis: ties go by id
        assert (np.lexsort((prepared.ids, prepared.spheres[:, e])) == np.arange(len(edged))).all()
        assert len(set(prepared.spheres[:, e].tolist())) < len(edged) // 2
        bounds = recorded_bounds(prepared)
        kept = swept = on_bounds = 0
        for _ in range(150):
            roi = random_roi(rng, 40.0, half_angle=rng.uniform(0.001, 0.8), z_far=rng.uniform(1.0, 25.0))
            bounds.clear()
            n, slab = self.check(edged, roi, prepared)
            kept += n
            swept += slab
            if not all(map(math.isfinite, bounds)):
                continue  # the box is not finite
            placed = []
            for bound in bounds:
                for x in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)):
                    center = [rng.uniform(-40.0, 40.0) for _ in range(3)]
                    center[e] = x
                    placed.append(SceneObject(id=1000 + len(placed), center=Vec3(*center), radius=2.0, value=0.5))
            widened = prepare_scene(edged + placed)
            again = recorded_bounds(widened)
            self.check(edged + placed, roi, widened)
            assert again == bounds and widened.sweep_axis == e
            on_bounds += len(placed)
        assert kept > 150 and swept > 75 and on_bounds > 150 * 4

    def test_degenerate_scenes(self):
        rng = random.Random(7103)
        roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(30.0), z_far=50.0)
        assert self.check([], roi) == (0, False)
        assert self.check([sphere(0, 0, -10, 1.0)], roi) == (1, False)
        assert self.check([sphere(0, 0, 10, 1.0)], roi) == (0, False)
        coincident = [sphere(1.0, 2.0, -9.0, rng.uniform(0.1, 3.0), oid=i) for i in range(1, 601)]
        assert prepare_scene(coincident).sweep_axis == 0  # no axis is wider: the first
        assert self.check(coincident, roi) == (600, False)
        assert self.check(coincident, Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, 1), half_angle=0.5, z_far=5.0))[0] == 0
        # a narrow cone over a row of spheres tests only its slab
        row = prepare_scene([sphere(float(x), 0.0, -10.0, 0.5, oid=x + 1) for x in range(100)])
        narrow = Roi(apex=Vec3(30.0, 0, 0), axis=Vec3(0, 0, -1), half_angle=0.5, z_far=10.0)
        assert 10 < culled(row, narrow)[1] < 20

    def test_flat_axis(self):
        rng = random.Random(7104)
        flat = [sphere(rng.uniform(-100, 100), 1.5, rng.uniform(-100, 100), rng.uniform(0.1, 1.5), oid=i)
                for i in range(1, 801)]
        assert prepare_scene(flat).sweep_axis != 1
        swept = 0
        for _ in range(60):
            roi = random_roi(rng, 90.0, half_angle=rng.uniform(0.05, 0.9), z_far=rng.uniform(5.0, 40.0))
            roi = Roi(apex=Vec3(roi.apex.x, rng.uniform(0.0, 3.0), roi.apex.z), axis=unit(roi.axis.x, 0.1 * roi.axis.y, roi.axis.z),
                      half_angle=roi.half_angle, z_far=roi.z_far)
            swept += self.check(flat + edge_objects(rng, roi, 1.5, 1000), roi)[1]
        assert swept > 30

    def test_widest_axis_is_swept(self):
        rng = random.Random(7107)
        for e in range(3):
            stretch = [1.0, 1.0, 1.0]
            stretch[e] = 4.0
            scene = [
                SceneObject(id=i, center=Vec3(*(s * rng.uniform(-25.0, 25.0) for s in stretch)),
                            radius=rng.uniform(0.1, 2.0), value=0.5)
                for i in range(1, 801)
            ]
            prepared = prepare_scene(scene)
            assert prepared.sweep_axis == e and (np.diff(prepared.spheres[:, e]) >= 0.0).all()
            by_id = {o.id: o for o in scene}
            rows = [by_id[i] for i in prepared.ids.tolist()]
            assert prepared.spheres.tolist() == [[o.center.x, o.center.y, o.center.z, o.radius] for o in rows]
            swept = 0
            for _ in range(40):
                apex = Vec3(*(s * rng.uniform(-20.0, 20.0) for s in stretch))
                roi = Roi(apex=apex, axis=random_unit(rng), half_angle=rng.uniform(0.05, 0.8), z_far=rng.uniform(2.0, 30.0))
                kept, slab = self.check(scene, roi)
                swept += slab
            assert swept > 30

    def test_extent_overflows(self):
        """Two centers 3e308 m apart on x, which no parsed scene may hold
        (MAX_COORD_M): the spread is found without overflow, x is swept, and
        cones among the rest never test the far pair, whose squares overflow."""
        rng = random.Random(7108)
        scene = [sphere(-1.5e308, 0.0, 0.0, 1.0, oid=1), sphere(1.5e308, 0.0, 0.0, 1.0, oid=2)]
        scene += [sphere(rng.uniform(-120.0, 120.0), rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0),
                         rng.uniform(0.1, 2.0), oid=i) for i in range(3, 603)]
        prepared = prepare_scene(scene)
        assert prepared.sweep_axis == 0 and prepared.ids[[0, -1]].tolist() == [1, 2]
        kept = 0
        for _ in range(60):
            apex = Vec3(rng.uniform(-90.0, 90.0), rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
            roi = Roi(apex=apex, axis=random_unit(rng), half_angle=rng.uniform(0.1, 0.6), z_far=rng.uniform(5.0, 30.0))
            ids, tested = culled(prepared, roi)
            assert ids == [o.id for o in scene[2:] if roi_contains(roi, o)]
            assert tested < len(scene) // 2
            kept += len(ids)
        assert kept > 60

    def test_far_outlier(self):
        rng = random.Random(7105)
        scene = self.background(rng, 599, 20.0) + [sphere(1e7, -3e6, 5.0, 1.0, oid=600)]
        for _ in range(40):
            self.check(scene, random_roi(rng, 20.0))
        toward = unit(1e7, -3e6, 5.0)
        assert self.check(scene, Roi(apex=Vec3(0, 0, 0), axis=toward, half_angle=0.01, z_far=2e7))[0] >= 1

    def test_unbounded_and_wide_cones(self):
        rng = random.Random(7106)
        scene = self.background(rng)
        for half_angle in (0.2, 1.2, math.pi / 2 - 1e-9, math.nextafter(math.pi / 2, 0.0)):
            for z_far in (math.inf, 3.0, 1e300):
                for _ in range(5):
                    roi = random_roi(rng, 30.0, half_angle=half_angle, z_far=z_far)
                    edges = [] if math.isinf(z_far) or z_far > 1e6 else edge_objects(rng, roi, 2.0, 10_000)
                    kept, slab = self.check(scene + edges, roi)
                    assert not slab or (half_angle < 1.3 and math.isfinite(z_far))
