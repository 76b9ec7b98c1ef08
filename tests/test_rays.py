import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusray import (
    GOLDEN_ANGLE,
    MidCamera,
    RayConfig,
    SceneObject,
    StereoRig,
    ValidationError,
    Vec3,
    layer_weight,
    ray_bundle,
)
from focusray import rays
from focusray.geometry import MAX_COORD_M, CameraRows, dot_rows, sphere_array
from focusray.rays import GROUP_PAIRS, MAX_RAYS, cone_frame, nearest_hit_indices, rm_scores
from focusray.simulate import CHUNK_TICKS
from builders import FORWARD, UP, axial_cam, grazing_spheres, nearest_from, profile, rm_from
from oracles import nearest_hits_world, ray_sphere_t, rm_by_enumeration

TWO_PI = 2.0 * math.pi


def cfg(k=3, n=10, half_deg=15.0):
    return RayConfig(k=k, n=n, half_angle=math.radians(half_deg))


class TestLayerWeight:
    def test_three_layer_taper(self):
        assert layer_weight(1, 3) == 3 / 6
        assert layer_weight(2, 3) == 2 / 6
        assert layer_weight(3, 3) == 1 / 6

    def test_single_layer_is_unity(self):
        assert layer_weight(1, 1) == 1.0

    def test_layer_sums_to_one(self):
        for k in range(1, 12):
            assert sum(layer_weight(i, k) for i in range(1, k + 1)) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        for k in range(2, 12):
            ws = [layer_weight(i, k) for i in range(1, k + 1)]
            assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            layer_weight(0, 3)
        with pytest.raises(ValidationError):
            layer_weight(4, 3)


class TestGoldenAngleConstant:
    def test_value(self):
        assert GOLDEN_ANGLE == pytest.approx(2.3999632297286535, abs=1e-15)

    def test_definition(self):
        assert GOLDEN_ANGLE == TWO_PI * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))


class TestConeTrig:
    """The cone's cached cos/sin rows are scalar `math`'s, element for
    element, on each ray's polar angle and azimuth, and its prefilter table
    is their products, at the default cone and at `MAX_RAYS` both ways (one
    ring of many azimuths and many rings of one)."""

    @pytest.mark.parametrize("k, n", [(4, 64), (1, MAX_RAYS), (MAX_RAYS, 1), (256, 256)])
    def test_rows_equal_math(self, k, n):
        config = RayConfig(k=k, n=n, half_angle=math.radians(15.0))
        layers, _, trig, table = rays._cone(config)
        cos_t, cos_p, sin_p, sin_t = trig.tolist()
        theta = (config.half_angle * layers / k).tolist()
        phi = (np.arange(k * n, dtype=np.float64) * GOLDEN_ANGLE).tolist()
        assert trig.shape == (4, k * n) and table.shape == (k * n, 4)
        for row, fn, angles in ((cos_t, math.cos, theta), (sin_t, math.sin, theta),
                                (cos_p, math.cos, phi), (sin_p, math.sin, phi)):
            assert row == list(map(fn, angles))
        assert table.tolist() == [[ct, st * cp, st * sp, -1.0] for ct, cp, sp, st in zip(cos_t, cos_p, sin_p, sin_t)]

    def test_memory_of_a_max_rays_cone(self):
        """The cache of a `MAX_RAYS` cone holds its layers, weights, rows and
        table at 80 bytes a ray, about 5.25 MB; a second cache of the rows
        and table beside it held 7.35 MB."""
        config = RayConfig(k=256, n=256, half_angle=0.3)
        rays._cone.cache_clear()
        tracemalloc.start()
        try:
            rays._cone(config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 81 * MAX_RAYS, held


class TestRayConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            RayConfig(k=0, n=4, half_angle=0.3)
        with pytest.raises(ValidationError):
            RayConfig(k=2, n=0, half_angle=0.3)
        with pytest.raises(ValidationError):
            RayConfig(k=2, n=4, half_angle=0.0)
        with pytest.raises(ValidationError):
            RayConfig(k=2, n=4, half_angle=math.pi / 2.0)
        with pytest.raises(ValidationError, match="at most 65536 rays, got 65537"):
            RayConfig(k=1, n=MAX_RAYS + 1, half_angle=0.3)
        assert RayConfig(k=256, n=256, half_angle=0.3).n == 256  # the limit itself is allowed


class TestBundleGeometry:
    cam = axial_cam(0.0, 0.0, 0.0)

    def test_ray_count_and_layer_order(self):
        b = ray_bundle(cfg(k=4, n=64), self.cam)
        assert b.directions.shape == (256, 3)
        assert list(b.layers) == [i for i in range(1, 5) for _ in range(64)]

    def test_weights_match_layer_taper_exactly(self):
        k, n = 5, 12
        b = ray_bundle(cfg(k=k, n=n), self.cam)
        for idx in range(k * n):
            assert b.weights[idx] == layer_weight(int(b.layers[idx]), k) / n

    def test_weight_sum_is_one(self):
        for k, n in [(1, 1), (1, 16), (2, 7), (4, 64), (6, 33)]:
            b = ray_bundle(cfg(k=k, n=n), self.cam)
            assert math.fsum(b.weights.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_directions_are_unit(self):
        """Within 2 ulps of 1, also when the camera's forward is 6e-10 off
        unit length, which `is_unit` lets through: the bundle normalizes it."""
        long = 1.0 + 6e-10
        assert Vec3(0.0, 0.0, -long).is_unit()
        cams = (self.cam, MidCamera(m=Vec3(0, 0, 0), forward=Vec3(0.0, 0.0, -long), up=Vec3(0, 1, 0)),
                StereoRig(ol=Vec3(-0.032, 1.6, 0.0), or_=Vec3(0.032, 1.6, 0.0), up=Vec3(0, 1, 0),
                          forward=Vec3(0.6 * long, 0.0, -0.8 * long)))
        for cam in cams:
            b = ray_bundle(cfg(k=4, n=32, half_deg=40.0), cam)
            norms = np.sqrt((b.directions * b.directions).sum(axis=1))
            assert np.max(np.abs(norms - 1.0)) <= 2 * np.spacing(1.0)

    def test_polar_angles_scale_with_layer(self):
        half = math.radians(30.0)
        b = ray_bundle(RayConfig(k=3, n=8, half_angle=half), self.cam)
        fwd = np.array([FORWARD.x, FORWARD.y, FORWARD.z])
        cos_polar = b.directions @ fwd
        for idx in range(24):
            expect = half * int(b.layers[idx]) / 3
            assert math.acos(min(1.0, max(-1.0, cos_polar[idx]))) == pytest.approx(expect, abs=1e-9)

    def test_azimuth_is_global_golden_angle_index(self):
        b = ray_bundle(cfg(k=3, n=7, half_deg=25.0), self.cam)
        # with forward -z / up +y the right vector is +x, so
        # azimuth = atan2(dir.y, dir.x)
        for g in range(21):
            want = (g * GOLDEN_ANGLE) % TWO_PI
            got = math.atan2(b.directions[g, 1], b.directions[g, 0]) % TWO_PI
            diff = abs(got - want)
            assert min(diff, TWO_PI - diff) < 1e-9

    def test_first_ray_lies_in_forward_right_plane(self):
        b = ray_bundle(cfg(k=2, n=5), self.cam)
        assert b.directions[0, 1] == 0.0  # azimuth exactly zero

    def test_single_ray_example(self):
        b = ray_bundle(RayConfig(k=1, n=1, half_angle=math.radians(15.0)), self.cam)
        assert b.directions.shape == (1, 3)
        assert int(b.layers[0]) == 1
        assert b.weights[0] == 1.0
        assert b.directions[0, 0] == pytest.approx(math.sin(math.radians(15.0)), abs=1e-15)
        assert b.directions[0, 1] == 0.0
        assert b.directions[0, 2] == pytest.approx(-math.cos(math.radians(15.0)), abs=1e-15)

    def test_azimuth_coverage_within_each_layer(self):
        # golden-angle spacing never clumps: the largest circular gap in a
        # layer stays within a small factor of the mean gap
        n = 50
        b = ray_bundle(cfg(k=3, n=n, half_deg=20.0), self.cam)
        for layer in (1, 2, 3):
            phis = sorted(
                math.atan2(b.directions[i, 1], b.directions[i, 0]) % TWO_PI
                for i in range(150)
                if b.layers[i] == layer
            )
            gaps = [b - a for a, b in zip(phis, phis[1:])]
            gaps.append(TWO_PI - phis[-1] + phis[0])
            assert max(gaps) <= 3.0 * (TWO_PI / n)

    def test_arrays_read_only(self):
        b = ray_bundle(cfg(), self.cam)
        with pytest.raises(ValueError):
            b.directions[0, 0] = 9.9

    def test_bitwise_repeatability(self):
        c = cfg(k=4, n=64, half_deg=15.0)
        a = ray_bundle(c, self.cam)
        b = ray_bundle(c, self.cam)
        assert a.directions.tobytes() == b.directions.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_tilted_camera_keeps_cone_shape(self):
        fwd = Vec3(1.0, 1.0, -1.0).normalized()
        cam = MidCamera(m=Vec3(2.0, -1.0, 3.0), forward=fwd, up=Vec3(0, 1, 0))
        half = math.radians(18.0)
        b = ray_bundle(RayConfig(k=2, n=6, half_angle=half), cam)
        f = np.array([fwd.x, fwd.y, fwd.z])
        for i in range(12):
            polar = math.acos(min(1.0, max(-1.0, float(b.directions[i] @ f))))
            assert polar == pytest.approx(half * int(b.layers[i]) / 2, abs=1e-9)


def obj(oid, cx, cy, cz, r, value=0.5):
    return SceneObject(id=oid, center=Vec3(cx, cy, cz), radius=r, value=value)


class TestNearestHits:
    cam = axial_cam(0.0, 0.0, 0.0)

    def test_empty_scene_all_miss(self):
        nearest = nearest_from(self.cam.m, cone_frame(cfg(), self.cam), sphere_array([]))
        assert nearest.shape == (30,) and (nearest == -1).all()

    def test_occluder_wins(self):
        scene = [obj(1, 0, 0, -20, 3.0), obj(2, 0, 0, -5, 2.0)]
        nearest = nearest_from(self.cam.m, cone_frame(cfg(k=1, n=1), self.cam), sphere_array(scene))
        assert nearest[0] == 1  # index of the closer sphere

    def test_tie_goes_to_earlier_entry(self):
        # two coincident spheres: identical hit t on the one ray, 5 degrees off axis
        scene = [obj(7, 0, 0, -10, 2.0), obj(9, 0, 0, -10, 2.0)]
        nearest = nearest_from(self.cam.m, cone_frame(cfg(k=1, n=1, half_deg=5.0), self.cam), sphere_array(scene))
        assert nearest.tolist() == [0]


class TestComputeRm:
    """The rm signal of one object, from `rm_scores` over the scene as given."""

    cam = axial_cam(0.0, 0.0, 0.0)

    def rm(self, scene, target, **kw):
        scores = rm_from(self.cam.m, cone_frame(cfg(**kw), self.cam), sphere_array(scene))
        return dict(zip((o.id for o in scene), scores))[target]

    def test_enclosing_sphere_scores_one(self):
        scene = [obj(1, 0, 0, -10, 500.0)]
        assert self.rm(scene, 1, k=1, n=16) == 1.0

    def test_full_cover_multi_layer(self):
        scene = [obj(1, 0, 0, -10, 500.0)]
        assert self.rm(scene, 1, k=3, n=10) == pytest.approx(1.0, abs=1e-9)

    def test_miss_scores_zero(self):
        scene = [obj(1, 100, 0, -10, 0.5)]
        assert self.rm(scene, 1, k=2, n=8) == 0.0

    def test_layer_occlusion_split(self):
        # sphere A swallows layer 1 (polar 10 deg) but not layer 2 (20 deg);
        # sphere B covers the whole cone from behind. Weight taper for k=2
        # gives A 2/3 and B 1/3.
        a = obj(1, 0, 0, -5, 1.2)
        b = obj(2, 0, 0, -12, 5.0)
        rm_a = self.rm([a, b], 1, k=2, n=16, half_deg=20.0)
        rm_b = self.rm([a, b], 2, k=2, n=16, half_deg=20.0)
        assert rm_a == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rm_b == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rm_a + rm_b == pytest.approx(1.0, abs=1e-12)

    def test_scene_order_does_not_matter(self):
        a = obj(1, 0, 0, -5, 1.2)
        b = obj(2, 0, 0, -12, 5.0)
        kw = dict(k=2, n=16, half_deg=20.0)
        assert self.rm([a, b], 2, **kw) == self.rm([b, a], 2, **kw)

    def test_matches_enumeration_oracle_bitwise(self):
        rng = random.Random(31415)
        for trial in range(30):
            k = rng.randint(1, 4)
            n = rng.randint(1, 24)
            half = math.radians(rng.uniform(5.0, 40.0))
            cam = axial_cam(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            config = RayConfig(k=k, n=n, half_angle=half)
            scene = [
                obj(
                    oid,
                    cam.m.x + rng.uniform(-6, 6),
                    cam.m.y + rng.uniform(-6, 6),
                    cam.m.z + rng.uniform(-25, 2),
                    rng.uniform(0.2, 4.0),
                )
                for oid in range(1, rng.randint(2, 9))
            ]
            want = rm_by_enumeration(cam, ray_bundle(config, cam), scene)
            got = rm_from(cam.m, cone_frame(config, cam), sphere_array(scene))  # built in ascending id order
            for o, score in zip(scene, got):
                assert score == want[o.id], f"trial {trial} target {o.id}"


class TestRmScoresBundleForm:
    def test_scores_align_with_object_order(self):
        cam = axial_cam(0.0, 0.0, 0.0)
        scene = [obj(1, 0, 0, -5, 1.2), obj(2, 0, 0, -12, 5.0)]
        scores = rm_from(cam.m, cone_frame(cfg(k=2, n=16, half_deg=20.0), cam), sphere_array(scene))
        assert scores[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert scores[1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def _tilted_cam(rng):
    yaw = rng.uniform(-math.pi, math.pi)
    pitch = rng.uniform(-1.2, 1.2)
    fwd = Vec3(math.cos(pitch) * math.sin(yaw), math.sin(pitch), -math.cos(pitch) * math.cos(yaw))
    up = Vec3(-math.sin(pitch) * math.sin(yaw), math.cos(pitch), math.sin(pitch) * math.cos(yaw))
    return MidCamera(m=Vec3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)), forward=fwd, up=up)


def _oracle_hits(cam, bundle, sphere):
    """Per ray, whether the scalar reference hits `sphere` (x, y, z, r)."""
    cx, cy, cz, r = sphere
    center = Vec3(cx, cy, cz)
    return [ray_sphere_t(cam.m, Vec3(*d), center, r) is not None for d in bundle.directions.tolist()]


class TestDirectionsBitForBit:
    """Every direction of the cone comes from one expression: each frame of
    `ray_bundle` over `CameraRows` is the one-camera bundle of that camera,
    and the one-frame kernel's direction of a kept pair, from the cached rows
    at its ray and the `ConeFrame`'s frame, is the bundle's, bit for bit, at
    the default cone and at `MAX_RAYS`."""

    @staticmethod
    def cameras(rng, count):
        """Cameras looking anywhere, forward up to 1e-9 off unit length."""
        cams = []
        for _ in range(count):
            cam = _tilted_cam(rng)
            short = rng.choice((0.0, 0.999e-9, -0.999e-9))
            cams.append(MidCamera(m=cam.m, forward=cam.forward * (1.0 + short), up=cam.up))
        return cams

    @pytest.mark.parametrize("k, n, count", [(4, 64, 400), (256, 256, 4)])
    def test_frames_of_camera_rows_are_one_camera_bundles(self, k, n, count):
        config = RayConfig(k=k, n=n, half_angle=0.3)
        cams = self.cameras(random.Random(k * n), count)
        rows = CameraRows(*(np.array([(getattr(c, name).x, getattr(c, name).y, getattr(c, name).z) for c in cams])
                            for name in ("m", "forward", "up")))
        bundle = ray_bundle(config, rows)
        assert bundle.directions.shape == (count, k * n, 3)
        for t, cam in enumerate(cams):
            assert bundle.directions[t].tobytes() == ray_bundle(config, cam).directions.tobytes(), t

    @pytest.mark.parametrize("k, n, count", [(4, 64, 400), (256, 256, 4)])
    def test_kept_pair_directions_are_the_bundles(self, k, n, count):
        config = RayConfig(k=k, n=n, half_angle=0.3)
        rng = random.Random(k + n)
        trig = rays._cone(config)[2]
        for cam in self.cameras(rng, count):
            picked = np.array([rng.randrange(k * n) for _ in range(rng.randint(1, 300))])
            d = rays._directions(trig.take(picked, axis=1), cone_frame(config, cam).frame)
            assert d.T.tobytes() == ray_bundle(config, cam).directions[picked].tobytes()


class TestRayConeCull:
    """Spheres that touch the ray cone's outermost rays: the pair prefilter of
    `nearest_hit_indices` keeps every pair the exact test hits, and
    `rm_scores` over all of them matches the scalar oracle."""

    def test_spheres_grazing_the_outer_layer_are_kept_when_hit(self):
        # Each sphere touches one outermost ray from outside the cone, its
        # offset jittered by the kernel's rounding at that reach and radius,
        # so the reference hit test falls on both sides of the boundary.
        rng = random.Random(1618)
        hits = misses = 0
        for _ in range(60):
            cam = _tilted_cam(rng)
            k = rng.randint(1, 4)
            config = RayConfig(k=k, n=rng.randint(4, 24), half_angle=math.radians(rng.uniform(2.0, 60.0)))
            bundle, cone = ray_bundle(config, cam), cone_frame(config, cam)
            rows = grazing_spheres(rng, cam.m, cam.forward, bundle)
            spheres = np.array(rows)
            for col, sphere in enumerate(spheres.tolist()):
                want = _oracle_hits(cam, bundle, sphere)
                hits += any(want)
                misses += not any(want)
                # the pair prefilter keeps every ray the exact test hits
                got = nearest_from(cam.m, cone, spheres[col:col + 1])
                assert (got == 0).tolist() == want, (col, sphere)
            scene = [obj(col, *row) for col, row in enumerate(rows)]
            scores = rm_by_enumeration(cam, bundle, scene)
            assert rm_from(cam.m, cone, spheres).tolist() == [scores[o.id] for o in scene]
        assert hits >= 500 and misses >= 500


class TestSparseTailTies:
    """Equal hit distances go to the lowest column, as a scan with strict < gives."""

    def test_duplicate_spheres_go_to_the_first_column(self):
        rng = random.Random(4242)
        cam = axial_cam(0.0, 0.0, 0.0)
        bundle, cone = ray_bundle(cfg(k=3, n=24, half_deg=25.0), cam), cone_frame(cfg(k=3, n=24, half_deg=25.0), cam)
        ties = 0
        for _ in range(40):
            base = [
                (rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-30, -2), rng.uniform(0.5, 4.0))
                for _ in range(rng.randint(1, 5))
            ]
            base.append((0.0, 0.0, rng.uniform(-1.0, 1.0), 1.5))  # encloses the camera: hits at t = 0
            rows = [rng.choice(base) for _ in range(rng.randint(4, 14))]
            spheres = np.array(rows)
            got = nearest_from(cam.m, cone, spheres).tolist()
            for j, d in enumerate(bundle.directions.tolist()):
                best, best_t = -1, math.inf
                for col, (cx, cy, cz, r) in enumerate(rows):
                    t = ray_sphere_t(cam.m, Vec3(*d), Vec3(cx, cy, cz), r)
                    if t is not None and t < best_t:
                        best, best_t = col, t
                ties += best >= 0 and rows.count(rows[best]) > 1
                assert got[j] == best, (j, rows)
        assert ties >= 1000

    def test_duplicate_takes_the_whole_weight(self):
        cam = axial_cam(0.0, 0.0, 0.0)
        twin = (0.0, 0.0, -10.0, 500.0)
        scores = rm_from(cam.m, cone_frame(cfg(k=1, n=16, half_deg=20.0), cam), np.array([twin, twin, twin]))
        assert scores.tolist() == [1.0, 0.0, 0.0]


def _strict_scan(cam, directions, rows):
    """Per ray, the first row with the smallest reference hit distance (-1
    on a miss) and how many rows share that distance."""
    nearest = []
    for d in directions.tolist():
        best, best_t, sharing = -1, math.inf, 0
        for col, (cx, cy, cz, r) in enumerate(rows):
            t = ray_sphere_t(cam.m, Vec3(*d), Vec3(cx, cy, cz), r)
            if t is not None and t < best_t:
                best, best_t, sharing = col, t, 1
            elif t == best_t:
                sharing += 1
        nearest.append((best, sharing))
    return nearest


class TestNearestHitScan:
    """`nearest_hit_indices` against a strict-< scalar scan over scenes of
    a few hundred spheres: open space, spheres holding the origin or
    touching it, near-tangent spheres and duplicates."""

    def test_matches_strict_scan(self):
        rng = random.Random(2718)
        from_inside = tangent_hits = tangent_misses = tied = 0
        for scene in range(4):
            cam = _tilted_cam(rng)
            config = RayConfig(k=4, n=16, half_angle=math.radians(rng.uniform(10.0, 40.0)))
            bundle = ray_bundle(config, cam)
            directions = bundle.directions.tolist()
            rows, kinds = [], []

            def add(center, r, kind):
                rows.append((center.x, center.y, center.z, r))
                kinds.append(kind)

            for _ in range(150):  # around the cone, in front and behind
                d = Vec3(*rng.choice(directions))
                jitter = Vec3(rng.gauss(0, 0.3), rng.gauss(0, 0.3), rng.gauss(0, 0.3))
                dist = 10.0 ** rng.uniform(0.5, 2.0)
                add(cam.m + (d + jitter) * (rng.choice((1.0, -0.3)) * dist), dist * rng.uniform(0.005, 0.05), ("open", None))
            for _ in range(30):  # touching one ray, within the kernel's rounding
                j = rng.randrange(len(directions))
                d = Vec3(*directions[j])
                side = d.cross(Vec3(rng.random(), rng.random(), rng.random())).normalized()
                reach = 10.0 ** rng.uniform(0.0, 2.0)
                r = reach * rng.uniform(0.01, 0.3)
                offset = r * (1.0 + rng.uniform(-1.0, 1.0) * 1.6e-15 * (reach / r) ** 2)
                add(cam.m + d * reach + side * offset, r, ("tangent", d))
            if scene == 0:
                # The origin on the surface, within rounding, behind the camera
                # and ahead of it, and held inside: every ray hits one of them
                # at t = 0, so this scene is all ties at t = 0.
                for away in [cam.forward * -1.0] * 8 + [cam.forward]:
                    u = (away + Vec3(rng.gauss(0, 0.3), rng.gauss(0, 0.3), rng.gauss(0, 0.3))).normalized()
                    dist = rng.uniform(0.5, 20.0)
                    add(cam.m + u * dist, dist * (1.0 + rng.randint(-2, 2) * 1e-16), ("origin", None))
                add(cam.m + cam.forward * 2.0, 3.0, ("origin", None))
            for _ in range(40):  # exact duplicates at later columns
                i = rng.randrange(len(rows))
                j = rng.randrange(i + 1, len(rows) + 1)
                rows.insert(j, rows[i])
                kinds.insert(j, kinds[i])
            assert len(rows) >= 200
            got = nearest_from(cam.m, cone_frame(config, cam), np.array(rows)).tolist()
            scan = _strict_scan(cam, bundle.directions, rows)
            want = [best for best, _ in scan]
            assert got == want
            from_inside += sum(w >= 0 and kinds[w][0] == "origin" for w in want)
            tied += sum(sharing > 1 for _, sharing in scan)
            for (cx, cy, cz, r), (kind, touched) in zip(rows, kinds):
                if kind == "tangent":
                    hit = ray_sphere_t(cam.m, touched, Vec3(cx, cy, cz), r) is not None
                    tangent_hits += hit
                    tangent_misses += not hit
        # exercised: rays won from inside, ties, and both sides of tangency
        assert from_inside >= 20 and tied >= 50
        assert tangent_hits >= 20 and tangent_misses >= 20


def _cone_scene(rng: random.Random, cam: MidCamera, bundle, scale: float) -> list[tuple]:
    """Spheres, as (x, y, z, r), about a cone cast from `cam`, distances
    `scale` times 0.1 to 100: spheres holding the camera, with it on their
    surface within a few ulps, or within the prefilter's 1e-6 margin of
    holding it; centers on the cone's axis ahead and behind; `grazing_spheres`
    on the outermost rays; spheres near random rays ahead and behind; and
    bit-identical twins of some of them."""
    m, axis = cam.m, cam.forward.normalized()
    rows = []
    for _ in range(rng.randint(1, 3)):  # the camera on or near the surface, or inside
        u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)).normalized()
        dist = scale * 10.0 ** rng.uniform(-1.0, 2.0)
        off = rng.choice((0.0, rng.randint(-3, 3) * 1e-16, rng.uniform(-1.0, 1.0) * 1e-12, rng.uniform(0.1, 2.0)))
        c = m + u * dist
        rows.append((c.x, c.y, c.z, c.distance_to(m) * (1.0 + off)))
    for _ in range(rng.randint(1, 3)):  # on the cone's axis
        c = m + axis * (rng.choice((1.0, -1.0)) * scale * 10.0 ** rng.uniform(-1.0, 2.0))
        rows.append((c.x, c.y, c.z, c.distance_to(m) * 10.0 ** rng.uniform(-4.0, -0.2)))
    rows += grazing_spheres(rng, m, axis, bundle, per_ray=1)[:rng.randint(0, 6)]
    directions = bundle.directions.tolist()
    for _ in range(rng.randint(0, 12)):  # near a ray, ahead or behind
        d = Vec3(*rng.choice(directions)) * rng.choice((1.0, 1.0, -1.0))
        jitter = Vec3(rng.gauss(0, 0.05), rng.gauss(0, 0.05), rng.gauss(0, 0.05))
        dist = scale * 10.0 ** rng.uniform(-1.0, 2.0)
        c = m + (d + jitter) * dist
        rows.append((c.x, c.y, c.z, dist * 10.0 ** rng.uniform(-3.0, -0.5)))
    for _ in range(rng.randint(0, 3)):  # twins at later rows
        i = rng.randrange(len(rows))
        rows.insert(rng.randrange(i + 1, len(rows) + 1), rows[i])
    return rows


class TestConeFrameForm:
    """`nearest_hit_indices` and `rm_scores` on one camera's `ConeFrame`,
    prefiltered in the camera's frame in blocks of rows, against
    `nearest_hits_world` over `ray_bundle`'s directions: nearest rows and rm
    bit for bit; and, a sphere at a time, the kernel hits a ray exactly where
    the scalar reference's exact test does, so that its kept pairs hold every
    pair that test hits."""

    KERNEL = profile("kernel")

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(1, 40),
           half=st.floats(0.01, 1.5), scale=st.sampled_from((1.0, 1e-3, 1e3, 1e97)),
           short=st.sampled_from((0.0, 0.999e-9, -0.999e-9)), group=st.sampled_from((1, 7, 500, GROUP_PAIRS)))
    @settings(KERNEL)
    def test_matches_the_world_frame_reference(self, seed, k, n, half, scale, short, group):
        """Cameras anywhere (coordinates up to about 1.5e99 at the largest
        scale, near `MAX_COORD_M`), looking anywhere, forward up to 1e-9 off
        unit length; a product per row, several blocks of rows, or one."""
        rng = random.Random(seed)
        tilted = _tilted_cam(rng)
        cam = MidCamera(m=tilted.m * scale, forward=tilted.forward * (1.0 + short), up=tilted.up)
        assert cam.forward.is_unit() and (abs(cam.forward.norm() - 1.0) > 9e-10) == (short != 0.0)
        config = RayConfig(k=k, n=n, half_angle=half)
        bundle, cone = ray_bundle(config, cam), cone_frame(config, cam)
        spheres = np.array(_cone_scene(rng, cam, bundle, scale))
        assert np.abs(spheres).max() <= MAX_COORD_M
        oc = np.subtract((cam.m.x, cam.m.y, cam.m.z), spheres[:, :3])
        ococ = dot_rows(oc, oc)
        saved, rays.GROUP_PAIRS = rays.GROUP_PAIRS, group
        try:
            got = nearest_hit_indices(oc, cone, spheres, ococ)
            rm = rm_scores(oc, cone, spheres, ococ)
            alone = [nearest_hit_indices(oc[j:j + 1], cone, spheres[j:j + 1], ococ[j:j + 1])
                     for j in range(len(spheres))]
        finally:
            rays.GROUP_PAIRS = saved
        want = nearest_hits_world(oc, bundle.directions, spheres, ococ)
        assert got.tolist() == want.tolist()
        assert rm.tobytes() == np.bincount(want + 1, weights=bundle.weights, minlength=len(spheres) + 1)[1:].tobytes()
        for j, (cx, cy, cz, r) in enumerate(spheres.tolist()):
            hit = [ray_sphere_t(cam.m, Vec3(*d), Vec3(cx, cy, cz), r) is not None for d in bundle.directions.tolist()]
            assert (alone[j] == 0).tolist() == hit, j

    @pytest.mark.parametrize("rows", [64, 2000])
    def test_memory_of_a_frame_is_one_group(self, rows):
        """`MAX_RAYS` rays against 64 and 2,000 candidates ahead, each within
        0.6 rad of the axis of a 0.3 rad cone: the traced peak stays within
        1.5 times a product of GROUP_PAIRS pairs (a float64 and a bool each),
        while one product over all pairs would hold 11 and 333 times that."""
        rng = np.random.default_rng(rows)
        config = RayConfig(k=256, n=256, half_angle=0.3)
        cam = axial_cam(1.0, 2.0, 3.0)
        polar, azimuth, dist = rng.uniform(0.0, 0.6, rows), rng.uniform(0.0, TWO_PI, rows), rng.uniform(2.0, 50.0, rows)
        ahead = np.column_stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), -np.cos(polar)])
        spheres = np.column_stack([(cam.m.x, cam.m.y, cam.m.z) + ahead * dist[:, None], dist * 2e-4])
        oc = np.subtract((cam.m.x, cam.m.y, cam.m.z), spheres[:, :3])
        args = oc, cone_frame(config, cam), spheres, dot_rows(oc, oc)
        nearest_hit_indices(*args)  # the cone's trig and table are cached on the first call
        tracemalloc.start()
        try:
            nearest = nearest_hit_indices(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nearest.shape == (MAX_RAYS,) and (nearest >= 0).any()
        assert MAX_RAYS * rows * 9 > 1.5 * GROUP_PAIRS * 9 >= peak, peak


def _frames(rng: np.random.Generator, widths, k=2, n=8, dup=False, ahead=0.75, size=(0.02, 1.2)):
    """Arguments of `nearest_hit_indices`' frames form: one cone per frame,
    cast from a camera of its own, and the frames' rows back to back, the
    spheres about each frame's camera, a share `ahead` of them near its rays
    and the rest behind it, their radii `size` times their distance (above 1,
    holding the camera), and, with `dup`, repeated within the frame (ties)."""
    t_n = len(widths)
    yaw, pitch = rng.uniform(-math.pi, math.pi, t_n), rng.uniform(-1.2, 1.2, t_n)
    fwd = np.stack([np.cos(pitch) * np.sin(yaw), np.sin(pitch), -np.cos(pitch) * np.cos(yaw)], axis=1)
    up = np.stack([-np.sin(pitch) * np.sin(yaw), np.cos(pitch), np.sin(pitch) * np.cos(yaw)], axis=1)
    m = rng.uniform(-20.0, 20.0, (t_n, 3))
    bundle = ray_bundle(RayConfig(k=k, n=n, half_angle=float(rng.uniform(0.05, 0.6))), CameraRows(m, fwd, up))
    rows = []
    for t, w in enumerate(widths):
        dist = rng.uniform(0.5, 30.0, w)
        aim = bundle.directions[t][rng.integers(0, k * n, w)] * np.where(rng.random((w, 1)) < ahead, 1.0, -1.0)
        c = m[t] + (aim + rng.normal(0.0, 0.1, (w, 3))) * dist[:, None]
        block = np.column_stack([c, dist * rng.uniform(*size, w)])
        if dup and w > 1:
            block[1::2] = block[rng.integers(0, w, w // 2) // 2 * 2]
        rows.append(block)
    spheres = np.concatenate(rows).reshape(-1, 4)
    starts = np.concatenate([[0], np.cumsum(widths)]).tolist()
    oc = np.repeat(m, widths, axis=0) - spheres[:, :3]
    return oc, bundle.directions, spheres, dot_rows(oc, oc), starts


def _per_frame(oc, directions, spheres, ococ, starts):
    """The world-frame reference per frame on its own rows, offset by its start."""
    out = []
    for t, (a, b) in enumerate(zip(starts, starts[1:])):
        near = nearest_hits_world(oc[a:b], directions[t], spheres[a:b], ococ[a:b])
        out.append(np.where(near >= 0, near + a, -1))
    return np.concatenate(out)


# the six axis directions, exact unit vectors
_AXES = np.concatenate([np.eye(3), -np.eye(3)])


def _tied_frames(rng: np.random.Generator, t_n, k, n):
    """Arguments of the frames form in which every frame holds exact ties,
    and each frame's expected winner of its six axis rays.

    Each frame casts the six axis rays, then a cone of k x n rays, from a
    camera on the integer lattice. Along each axis it holds up to four
    spheres of dyadic radii tangent to one plane across the axis at a
    dyadic distance (four along one axis), so that the axis ray hits each
    at exactly that distance, and a bit-identical duplicate of one of
    them; its rows are shuffled. An axis ray's winner is the lowest of its
    spheres' rows, -1 if the axis has none."""
    yaw, pitch = rng.uniform(-math.pi, math.pi, t_n), rng.uniform(-1.2, 1.2, t_n)
    fwd = np.stack([np.cos(pitch) * np.sin(yaw), np.sin(pitch), -np.cos(pitch) * np.cos(yaw)], axis=1)
    up = np.stack([-np.sin(pitch) * np.sin(yaw), np.cos(pitch), np.sin(pitch) * np.cos(yaw)], axis=1)
    m = rng.integers(-8, 9, (t_n, 3)).astype(np.float64)
    cone = ray_bundle(RayConfig(k=k, n=n, half_angle=float(rng.uniform(0.05, 0.6))), CameraRows(m, fwd, up))
    blocks, want, starts = [], [], [0]
    for t in range(t_n):
        counts = rng.integers(0, 5, len(_AXES))
        counts[rng.integers(len(_AXES))] = 4
        axis = np.repeat(np.arange(len(_AXES)), counts)
        radius = np.concatenate([rng.choice((0.5, 1.0, 2.0, 4.0), c, replace=False) for c in counts])
        dist = rng.choice((2.0, 4.0, 8.0), len(_AXES))[axis]
        block = np.column_stack([m[t] + _AXES[axis] * (dist + radius)[:, None], radius])
        twin = rng.integers(len(block))
        order = rng.permutation(len(block) + 1)
        block, axis = np.vstack([block, block[twin]])[order], np.append(axis, axis[twin])[order]
        want.append([starts[-1] + int(np.flatnonzero(axis == a)[0]) if (axis == a).any() else -1
                     for a in range(len(_AXES))])
        blocks.append(block)
        starts.append(starts[-1] + len(block))
    spheres = np.concatenate(blocks)
    oc = np.repeat(m, np.diff(starts), axis=0) - spheres[:, :3]
    directions = np.concatenate([np.broadcast_to(_AXES, (t_n, *_AXES.shape)), cone.directions], axis=1)
    return (oc, directions, spheres, dot_rows(oc, oc), starts), want


class TestFramesForm:
    """`nearest_hit_indices` with (T, R, 3) directions, frames grouped into
    products of at most GROUP_PAIRS pairs of a ray and a row padded to the
    widest frame, against the world-frame reference per frame."""

    KERNEL = profile("kernel")

    def check(self, args):
        got = nearest_hit_indices(*args)
        assert got.tolist() == _per_frame(*args).tolist()
        return got

    @pytest.mark.parametrize("widths", [[0, 5, 0, 3, 0], [0, 0, 40, 0], [40], [1, 300, 2, 0, 1], [0], [0, 0, 0]])
    def test_empty_full_and_uneven_frames(self, widths):
        got = self.check(_frames(np.random.default_rng(sum(widths) + len(widths)), widths, dup=True))
        assert (got >= 0).any() == (sum(widths) > 0)

    def test_duplicate_spheres_go_to_the_first_row_of_their_frame(self):
        twin = [0.0, 0.0, -10.0, 500.0]
        oc, directions, _, _, starts = _frames(np.random.default_rng(5), [3, 0, 3])
        spheres = np.array([twin] * 6)
        oc = np.subtract([0.0, 0.0, 0.0], spheres[:, :3])
        got = self.check((oc, directions, spheres, dot_rows(oc, oc), starts))
        assert got.tolist() == [0] * 16 + [-1] * 16 + [3] * 16

    @pytest.mark.parametrize("ticks, k, n", [(CHUNK_TICKS, 2, 8), (2 * CHUNK_TICKS + 5, 4, 64)])
    def test_ties_go_to_the_lowest_row_of_their_frame(self, ticks, k, n):
        """A ray's pairs come frame by frame, row by row, so that they are not
        in ray order: of the pairs at a ray's least distance the lowest row
        wins. A chunk in one product, and one whose T * R * W exceeds
        GROUP_PAIRS."""
        args, want = _tied_frames(np.random.default_rng(ticks), ticks, k, n)
        oc, directions, spheres, _, starts = args
        width = max(np.diff(starts))
        assert (ticks * directions.shape[1] * width > GROUP_PAIRS) == (k * n > 16)
        for t, rows in enumerate(want):  # each axis ray hits its spheres, and only them, at one distance
            origin = Vec3(*oc[starts[t]] + spheres[starts[t], :3])
            for a, row in enumerate(rows):
                hits = {j: ray_sphere_t(origin, Vec3(*_AXES[a]), Vec3(*spheres[j, :3]), spheres[j, 3])
                        for j in range(starts[t], starts[t + 1])}
                hits = {j: h for j, h in hits.items() if h is not None}
                assert (row, len(set(hits.values()))) == ((min(hits), 1) if hits else (-1, 0))
        got = self.check(args).reshape(ticks, -1)
        assert got[:, :len(_AXES)].tolist() == want

    @pytest.mark.parametrize("k, n, widths", [(3, 500, [30, 0, 12, 30, 5, 30, 30]), (5, 1000, [30, 29]), (4, 1025, [70])])
    def test_chunks_beyond_one_product(self, k, n, widths):
        """k * n * T times the widest frame above GROUP_PAIRS: several products
        of whole frames, or one frame each when a frame holds more pairs than
        a group."""
        assert k * n * len(widths) * max(widths) > GROUP_PAIRS
        self.check(_frames(np.random.default_rng(k * n), widths, k=k, n=n, dup=True))

    @given(seed=st.integers(0, 2**32 - 1), widths=st.lists(st.sampled_from((0, 0, 1, 2, 7, 30, 90)), min_size=1, max_size=20),
           k=st.integers(1, 4), n=st.integers(1, 40), group=st.sampled_from((1, 500, 20_000, GROUP_PAIRS)))
    @settings(KERNEL)
    def test_matches_calls_per_frame(self, seed, widths, k, n, group):
        """Any group size gives the per-frame result: a product per frame,
        several frames per product, or all of them in one."""
        args = _frames(np.random.default_rng(seed), widths, k=k, n=n, dup=seed % 2 == 0)
        saved, rays.GROUP_PAIRS = rays.GROUP_PAIRS, group
        try:
            self.check(args)
        finally:
            rays.GROUP_PAIRS = saved

    @pytest.mark.parametrize("k, n, widths", [(256, 256, [40, 0, 25, 40]),
                                              (4, 64, [2000, 1900, 0] + [2000] * (CHUNK_TICKS - 3))])
    def test_memory_of_a_chunk_is_one_frames_product(self, k, n, widths):
        """A chunk of 4 frames of MAX_RAYS rays each, and the replay's chunk of
        CHUNK_TICKS frames of 4 x 64 rays each reaching some 2,000 rows: the
        traced peak stays within 1.5 times one frame's product over the
        widest frame (a float64 and a bool per pair), so padding cannot grow
        it with the frame count."""
        args = _frames(np.random.default_rng(11), widths, k=k, n=n, ahead=0.1, size=(0.01, 0.05))
        nearest_hit_indices(*args)
        tracemalloc.start()
        try:
            nearest_hit_indices(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * k * n * max(widths) * 9, peak
