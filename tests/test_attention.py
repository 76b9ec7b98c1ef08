import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusray import (
    Candidates,
    FocusCandidate,
    HeuristicWeights,
    PreparedScene,
    RayConfig,
    Roi,
    SceneObject,
    StereoRig,
    ValidationError,
    Vec3,
    derive_mid_camera,
    prepare_scene,
    rig_from_pose,
    ray_bundle,
    roi_mask,
    select_focus,
)
import focusray.attention
import focusray.geometry
from builders import axial_rig, chunk_rows, culled, grazing_spheres, profile, sample
from focusray.simulate import CHUNK_TICKS
from oracles import point_cone_distance, rm_by_enumeration, roi_contains, select_by_enumeration

RIG = axial_rig(0.0, 0.0, 0.0)
ROI = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(30.0), z_far=100.0)
RAYS = RayConfig(k=2, n=16, half_angle=math.radians(20.0))
DEFAULT_W = HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.2)


def obj(oid, cx, cy, cz, r=1.0, value=0.5):
    return SceneObject(id=oid, center=Vec3(cx, cy, cz), radius=r, value=value)


class TestHeuristicWeights:
    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            HeuristicWeights(p_rm=1.2, p_d=-0.2, p_v=0.0)

    def test_tolerant_of_rounding(self):
        HeuristicWeights(p_rm=0.1, p_d=0.2, p_v=0.7)  # float sum 0.9999...

    def test_degenerate_corners_allowed(self):
        HeuristicWeights(p_rm=1.0, p_d=0.0, p_v=0.0)
        HeuristicWeights(p_rm=0.0, p_d=0.0, p_v=1.0)


class TestDepthMetric:
    """The proximity signal d of a lone candidate, as `select_focus` scores it."""

    def depth(self, o):
        _, ranked = select_focus([o], RIG, ROI, RAYS, DEFAULT_W)
        assert [c.object_id for c in ranked] == [o.id]
        return ranked[0].d

    def test_at_camera_scores_one(self):
        assert self.depth(obj(1, 0, 0, 0)) == 1.0

    def test_linear_falloff(self):
        assert self.depth(obj(1, 0, 0, -25)) == 0.75
        assert self.depth(obj(1, 0, 0, -50)) == 0.5

    def test_clamps_at_far_limit(self):
        assert self.depth(obj(1, 0, 0, -100)) == 0.0
        # a sphere big enough to reach back inside z_far, centered far beyond it
        assert self.depth(obj(1, 0, 0, -400, r=350.0)) == 0.0

    def test_uses_euclidean_distance(self):
        assert self.depth(obj(1, 3, 0, -4)) == pytest.approx(0.95, abs=1e-12)

    def test_invalid_far_limit(self):
        # the far limit of d is the ROI's z_far, which must be positive
        with pytest.raises(ValidationError):
            Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(30.0), z_far=0.0)


class TestImportance:
    def test_weighted_sum(self):
        w = HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.2)
        _, ranked = select_focus([obj(1, 0, 0, -5, r=1.2, value=0.2), obj(2, 0, 0, -12, r=5.0, value=1.0)],
                                 RIG, ROI, RAYS, w)
        assert len(ranked) == 2
        for c in ranked:
            assert c.importance == 0.5 * c.rm + 0.3 * c.d + 0.2 * c.v

    def test_bounds(self):
        rng = random.Random(5)
        for _ in range(40):
            scene = [
                obj(oid, rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-60, 2), rng.uniform(0.3, 4.0), rng.random())
                for oid in range(1, 9)
            ]
            _, ranked = select_focus(scene, RIG, ROI, RAYS, DEFAULT_W)
            for c in ranked:
                assert 0.0 <= c.importance <= 1.0 + 1e-12


class TestSelectFocusFixture:
    """Two-sphere scene with a layered occlusion split.

    Sphere 1 swallows the inner ray layer (rm 2/3), sphere 2 takes the rest
    (rm 1/3). With proximity-leaning weights sphere 1 wins; with value-heavy
    weights sphere 2 overtakes it. Expected numbers are frozen from an
    independent per-ray enumeration.
    """

    a = obj(1, 0.0, 0.0, -5.0, r=1.2, value=0.2)
    b = obj(2, 0.0, 0.0, -12.0, r=5.0, value=1.0)

    def test_default_weights_pick_near_sphere(self):
        best, ranked = select_focus([self.a, self.b], RIG, ROI, RAYS, DEFAULT_W)
        assert best is not None
        assert best.object_id == 1
        assert [c.object_id for c in ranked] == [1, 2]
        c1, c2 = ranked
        assert c1.rm == pytest.approx(0.6666666666666665, abs=1e-12)
        assert c2.rm == pytest.approx(0.33333333333333326, abs=1e-12)
        assert c1.d == pytest.approx(0.95, abs=1e-12)
        assert c2.d == pytest.approx(0.88, abs=1e-12)
        assert c1.importance == pytest.approx(0.6583333333333332, abs=1e-12)
        assert c2.importance == pytest.approx(0.6306666666666667, abs=1e-12)

    def test_value_heavy_weights_flip_the_winner(self):
        w = HeuristicWeights(p_rm=0.2, p_d=0.2, p_v=0.6)
        best, ranked = select_focus([self.a, self.b], RIG, ROI, RAYS, w)
        assert best is not None
        assert best.object_id == 2
        imps = {c.object_id: c.importance for c in ranked}
        assert imps[1] == pytest.approx(0.4433333333333333, abs=1e-12)
        assert imps[2] == pytest.approx(0.8426666666666667, abs=1e-12)


class TestSelectFocusCulling:
    def test_behind_camera_never_wins(self):
        front = obj(1, 0, 0, -10, r=1.0, value=0.0)
        behind = obj(2, 0, 0, 10, r=1.0, value=1.0)
        best, ranked = select_focus([front, behind], RIG, ROI, RAYS, DEFAULT_W)
        assert best.object_id == 1
        assert [c.object_id for c in ranked] == [1]

    def test_outside_half_angle_excluded(self):
        axial = obj(1, 0, 0, -10, r=1.0, value=0.0)
        wide = obj(2, 40, 0, -10, r=1.0, value=1.0)
        best, ranked = select_focus([axial, wide], RIG, ROI, RAYS, DEFAULT_W)
        assert best.object_id == 1
        assert [c.object_id for c in ranked] == [1]

    def test_beyond_far_limit_excluded(self):
        near = obj(1, 0, 0, -10, r=1.0, value=0.0)
        far = obj(2, 0, 0, -150, r=2.0, value=1.0)
        best, ranked = select_focus([near, far], RIG, ROI, RAYS, DEFAULT_W)
        assert best.object_id == 1
        assert [c.object_id for c in ranked] == [1]

    def test_empty_scene(self):
        best, ranked = select_focus([], RIG, ROI, RAYS, DEFAULT_W)
        assert (best, list(ranked)) == (None, [])

    def test_everything_culled(self):
        best, ranked = select_focus([obj(1, 0, 0, 50)], RIG, ROI, RAYS, DEFAULT_W)
        assert best is None
        assert list(ranked) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            select_focus([obj(1, 0, 0, -5), obj(1, 0, 0, -9)], RIG, ROI, RAYS, DEFAULT_W)

    def test_duplicate_ids_rejected_on_every_call(self):
        scene = [obj(1, 0, 0, -5), obj(2, 0, 0, -9)]
        assert select_focus(scene, RIG, ROI, RAYS, DEFAULT_W)[0] is not None
        scene[1] = obj(1, 0, 0, -9)  # in place: a duplicate id appears
        for _ in range(3):
            with pytest.raises(ValidationError):
                select_focus(scene, RIG, ROI, RAYS, DEFAULT_W)


class TestSelectFocusOrdering:
    def test_input_permutation_invariance(self):
        rng = random.Random(808)
        scene = [
            obj(oid, rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-40, -2), rng.uniform(0.5, 3.0), rng.random())
            for oid in range(1, 13)
        ]
        baseline_best, baseline_ranked = select_focus(scene, RIG, ROI, RAYS, DEFAULT_W)
        for _ in range(20):
            shuffled = scene[:]
            rng.shuffle(shuffled)
            best, ranked = select_focus(shuffled, RIG, ROI, RAYS, DEFAULT_W)
            assert best == baseline_best
            assert list(ranked) == list(baseline_ranked)

    def test_candidates_ascend_by_id(self):
        scene = [obj(9, 2, 0, -9), obj(3, -2, 0, -9), obj(5, 0, 2, -9)]
        _, ranked = select_focus(scene, RIG, ROI, RAYS, DEFAULT_W)
        assert [c.object_id for c in ranked] == [3, 5, 9]

    def test_higher_value_wins_symmetric_pair(self):
        # mirror images across the axis: identical rm and d, value decides
        lo = obj(1, 4.0, 0.0, -10.0, r=1.0, value=0.2)
        hi = obj(2, -4.0, 0.0, -10.0, r=1.0, value=0.9)
        best, _ = select_focus([lo, hi], RIG, ROI, RAYS, DEFAULT_W)
        assert best.object_id == 2

    def test_importance_tie_breaks_on_proximity(self):
        w = HeuristicWeights(p_rm=0.0, p_d=0.0, p_v=1.0)
        far = obj(1, 3.0, 0.0, -20.0, r=1.0, value=0.7)
        near = obj(2, 3.0, 0.0, -8.0, r=1.0, value=0.7)
        best, _ = select_focus([far, near], RIG, ROI, RAYS, w)
        assert best.object_id == 2  # same importance, higher d

    def test_full_tie_breaks_on_lower_id(self):
        w = HeuristicWeights(p_rm=0.0, p_d=0.0, p_v=1.0)
        left = obj(9, -4.0, 0.0, -10.0, r=1.0, value=0.7)
        right = obj(3, 4.0, 0.0, -10.0, r=1.0, value=0.7)
        best, _ = select_focus([left, right], RIG, ROI, RAYS, w)
        assert best.object_id == 3


class TestRoiMaskMirror:
    def test_matches_scalar_membership_exactly(self):
        rng = random.Random(1202)
        roi = Roi(apex=Vec3(0.5, -0.25, 1.0), axis=Vec3(0.2, -0.3, -1.0).normalized(),
                  half_angle=math.radians(35.0), z_far=30.0)
        objects = [
            obj(i, rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-40, 10), rng.uniform(0.1, 5.0))
            for i in range(1, 400)
        ]
        mask = roi_mask(roi, objects)
        for o, keep in zip(objects, mask.tolist()):
            assert keep == roi_contains(roi, o)


def _tie_scene(rng: random.Random) -> tuple[StereoRig, list[SceneObject]]:
    """Axis-aligned rig and objects on a 1/8 m grid, so distances are exact.

    About half the objects copy an earlier offset with one coordinate
    mirrored or swapped (an exact distance tie); values come from a short
    list (value ties). The forward axis is any of the six axis directions.
    """
    m = Vec3(*(rng.randint(-16, 16) / 8 for _ in range(3)))
    axes = [Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)]
    fwd_i = rng.randrange(3)
    forward = axes[fwd_i] * rng.choice((-1.0, 1.0))
    up = axes[(fwd_i + 1) % 3]
    right = forward.cross(up)
    half = right * 0.03125
    rig = StereoRig(ol=m - half, or_=m + half, up=up, forward=forward)
    offsets: list[tuple[float, float, float]] = []
    scene = []
    for oid in rng.sample(range(1, 100), rng.randint(1, 14)):
        if offsets and rng.random() < 0.5:
            a, b, depth = rng.choice(offsets)
            a, b = rng.choice(((-a, b), (a, -b), (b, a)))
        else:
            a, b, depth = rng.randint(-48, 48) / 8, rng.randint(-48, 48) / 8, rng.randint(0, 320) / 8
            offsets.append((a, b, depth))
        center = m + right * a + up * b + forward * depth
        value = rng.choice((0.0, 0.25, 0.5, 1.0))
        scene.append(SceneObject(id=oid, center=center, radius=rng.choice((0.5, 1.0, 2.0)), value=value))
    return rig, scene


class TestSelectFocusOracle:
    """`select_focus` against the scalar one-object-at-a-time reference."""

    WEIGHTS = (
        HeuristicWeights(p_rm=0.0, p_d=0.0, p_v=1.0),
        HeuristicWeights(p_rm=0.0, p_d=0.5, p_v=0.5),
        HeuristicWeights(p_rm=0.0, p_d=1.0, p_v=0.0),
        HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.2),
        HeuristicWeights(p_rm=1.0, p_d=0.0, p_v=0.0),
    )

    def test_winner_and_candidates_match_enumeration(self):
        rng = random.Random(6021)
        importance_ties = distance_ties = 0
        for case in range(320):
            rig, scene = _tie_scene(rng)
            roi = Roi(apex=derive_mid_camera(rig).m, axis=rig.forward, half_angle=math.radians(rng.uniform(15.0, 60.0)),
                      z_far=rng.randint(80, 400) / 8)  # on the grid: spheres can touch z_far exactly
            ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(1, 24), half_angle=math.radians(rng.uniform(5.0, 30.0)))
            weights = rng.choice(self.WEIGHTS)
            best, ranked = select_focus(scene, rig, roi, ray_cfg, weights)
            assert (best, list(ranked)) == select_by_enumeration(scene, rig, roi, ray_cfg, weights), case
            if best is not None:
                tied = [c for c in ranked if c.importance == best.importance]
                importance_ties += len(tied) > 1
                distance_ties += sum(c.d == best.d for c in tied) > 1
        # the tie rule must actually have been exercised at both levels
        assert importance_ties >= 50
        assert distance_ties >= 30

        # dense scenes at the default cone size
        rig = axial_rig(0.0, 0.0, 0.0)
        roi = Roi(apex=Vec3(0, 0, 0), axis=Vec3(0, 0, -1), half_angle=math.radians(30.0), z_far=100.0)
        ray_cfg = RayConfig(k=4, n=64, half_angle=math.radians(20.0))
        for _ in range(5):
            scene = []
            for oid in range(1, 201):
                theta = rng.uniform(0.0, 0.45)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                dist = rng.uniform(3.0, 110.0)
                center = Vec3(dist * math.sin(theta) * math.cos(phi), dist * math.sin(theta) * math.sin(phi),
                              -dist * math.cos(theta))
                scene.append(SceneObject(id=oid, center=center, radius=rng.uniform(0.3, 3.0), value=rng.random()))
            best, ranked = select_focus(scene, rig, roi, ray_cfg, DEFAULT_W)
            assert len(ranked) >= 150
            assert (best, list(ranked)) == select_by_enumeration(scene, rig, roi, ray_cfg, DEFAULT_W)


    def test_apex_off_the_camera_matches_enumeration(self):
        """An ROI whose apex is not the mid camera: the cull's vectors from
        the apex are not the camera's, on a slab of every row or of some."""
        rng = random.Random(7117)
        paths = {"every row": 0, "slab": 0}
        for case in range(120):
            rig, scene = _tie_scene(rng)
            m = derive_mid_camera(rig).m
            offset = Vec3(*(rng.randint(-16, 16) / 8 for _ in range(3)))
            roi = Roi(apex=m + offset, axis=rig.forward, half_angle=math.radians(rng.uniform(15.0, 60.0)),
                      z_far=rng.randint(80, 400) / 8)
            ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(1, 24), half_angle=math.radians(rng.uniform(5.0, 30.0)))
            weights = rng.choice(self.WEIGHTS)
            best, ranked = select_focus(scene, rig, roi, ray_cfg, weights)
            assert (best, list(ranked)) == select_by_enumeration(scene, rig, roi, ray_cfg, weights), case
            if roi.apex != m and ranked:
                paths["every row" if culled(prepare_scene(scene), roi)[1] == len(scene) else "slab"] += 1

        world = _disc_world(rng, 1500)
        prepared = prepare_scene(world)
        rays = RayConfig(k=2, n=16, half_angle=math.radians(15.0))
        for _ in range(12):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            yaw = math.pi - ang + rng.uniform(-1.0, 1.0)
            forward = Vec3(math.sin(yaw), 0.0, -math.cos(yaw))
            rig = rig_from_pose(sample(0.0, Vec3(60.0 * math.cos(ang), 1.6, 60.0 * math.sin(ang)), forward=forward), 0.064)
            apex = derive_mid_camera(rig).m + forward * rng.uniform(-4.0, 4.0) + Vec3(0.0, rng.uniform(-1.0, 1.0), 0.0)
            roi = Roi(apex=apex, axis=forward, half_angle=math.radians(30.0), z_far=40.0)
            best, ranked = select_focus(prepared, rig, roi, rays, DEFAULT_W)
            assert (best, list(ranked)) == select_by_enumeration(world, rig, roi, rays, DEFAULT_W)
            if ranked:
                paths["every row" if culled(prepared, roi)[1] == len(prepared) else "slab"] += 1
        assert min(paths.values()) >= 10, paths


class TestPreparedScene:
    """A `PreparedScene` is built once and holds the fields of the objects it
    was given; a plain sequence is prepared afresh on every `select_focus`
    call, so any change to it shows at once. No state survives between calls."""

    def scene(self):
        return [obj(oid, 0.4 * oid - 2.0, 0.0, -3.0 - oid, r=0.8, value=0.1 * oid) for oid in range(1, 9)]

    def check(self, scene):
        best, ranked = select_focus(scene, RIG, ROI, RAYS, DEFAULT_W)
        assert (best, list(ranked)) == select_by_enumeration(list(scene), RIG, ROI, RAYS, DEFAULT_W)
        return best

    def test_same_objects_reuse_the_preparation(self):
        scene = self.scene()
        prepared = prepare_scene(scene)
        assert prepare_scene(prepared) is prepared
        assert prepare_scene(scene) is not prepared  # a plain list is prepared again
        assert self.check(prepared) == self.check(scene)

    @staticmethod
    def same_fields(a, b):
        """Equal, label included, of the same type, and built anew from plain Python values."""
        assert type(a) is type(b) is SceneObject and a == b and a.label == b.label and a is not b
        assert [type(x) for x in (a.id, a.center.x, a.radius, a.value)] == [int, float, float, float]

    def test_sequence_in_callers_order(self):
        scene = [SceneObject(o.id, o.center, o.radius, o.value, f"thing {o.id}") for o in self.scene()]
        random.Random(3).shuffle(scene)
        prepared = PreparedScene(iter(scene))
        assert len(prepared) == len(scene) and list(prepared) == scene
        for a, b in zip(prepared, scene):
            self.same_fields(a, b)
        self.same_fields(prepared[0], scene[0])
        self.same_fields(prepared[-1], scene[-1])
        for bad in (len(scene), -len(scene) - 1):
            with pytest.raises(IndexError):
                prepared[bad]
        # one row per object, in sweep order: along z, where the centers spread widest and ids descend
        assert prepared.sweep_axis == 2 and prepared.spheres.flags.f_contiguous
        rows = sorted(scene, key=lambda o: o.center.z)
        assert prepared.ids.tolist() == list(range(8, 0, -1)) == [o.id for o in rows]
        assert prepared.spheres.tolist() == [[o.center.x, o.center.y, o.center.z, o.radius] for o in rows]
        assert prepared.values.tolist() == [o.value for o in rows]

    def test_duplicate_ids_rejected(self):
        scene = self.scene() + [obj(3, 9.0, 9.0, 9.0)]
        with pytest.raises(ValidationError, match="duplicate object ids"):
            prepare_scene(scene)

    def test_no_array_keeps_a_larger_one_alive(self):
        scene = _disc_world(random.Random(3), 4000)
        prepared = prepare_scene(scene)
        assert prepared.values.base is None and prepared.values.flags.owndata
        value_of = {o.id: o.value for o in scene}
        assert prepared.values.tolist() == [value_of[i] for i in prepared.ids.tolist()]
        for name in ("spheres", "ids", "values"):
            array = getattr(prepared, name)
            assert array.base is None or array.base.nbytes == array.nbytes, name

    def test_read_only(self):
        prepared = prepare_scene(self.scene())
        for name in ("spheres", "ids", "values"):
            with pytest.raises(ValueError):
                getattr(prepared, name)[0] = 0
        with pytest.raises(AttributeError):
            prepared.objects = ()
        with pytest.raises(TypeError):
            prepared[0] = prepared[1]

    def test_element_replaced_in_place(self):
        scene = self.scene()
        prepared = prepare_scene(scene)
        winner = self.check(scene).object_id
        i = [o.id for o in scene].index(winner)
        o = scene[i]
        scene[i] = SceneObject(o.id, Vec3(40.0, 0.0, -3.0), o.radius, 0.0, o.label)  # now outside the ROI
        assert self.check(scene).object_id != winner
        assert self.check(prepared).object_id == winner  # prepared before the change

    def test_append(self):
        scene = self.scene()
        prepared = prepare_scene(scene)
        scene.append(obj(99, 0.0, 0.0, -2.0, r=1.5, value=1.0))
        assert self.check(scene).object_id == 99
        assert self.check(prepared).object_id != 99

    def test_reorder(self):
        scene = self.scene()
        best = self.check(scene)
        scene.reverse()
        assert self.check(scene) == best == self.check(prepare_scene(scene))

    def test_equal_but_new_objects(self):
        scene = self.scene()
        copies = [SceneObject(o.id, o.center, o.radius, o.value, o.label) for o in scene]
        assert copies == scene
        prepared = prepare_scene(copies)
        for a, b in zip(prepared, copies):
            self.same_fields(a, b)
        assert self.check(prepared) == self.check(scene)


def _disc_world(rng: random.Random, n: int) -> list[SceneObject]:
    """n objects on a 300 m disc at 0.3-3 m height, as a large open world."""
    scene = []
    for oid in rng.sample(range(1, 10 * n), n):
        r, phi = 300.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
        center = Vec3(r * math.cos(phi), rng.uniform(0.3, 3.0), r * math.sin(phi))
        scene.append(SceneObject(id=oid, center=center, radius=rng.uniform(0.3, 1.5), value=rng.random()))
    return scene


class TestSelectFocusAtScale:
    """Selection through the slab cull on a large world, bit for bit against
    the scalar reference, with the scene prepared once or per call."""

    def test_disc_world_matches_enumeration(self):
        rng = random.Random(4000)
        scene = _disc_world(rng, 4000)
        prepared = prepare_scene(scene)
        assert prepared.sweep_axis != 1  # the disc is flat in y
        rays = RayConfig(k=2, n=32, half_angle=math.radians(15.0))
        gathered = kept = 0
        for _ in range(100):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pos = Vec3(60.0 * math.cos(ang), 1.6, 60.0 * math.sin(ang))
            yaw, pitch = math.pi - ang + rng.uniform(-1.2, 1.2), rng.uniform(-0.15, 0.05)
            forward = Vec3(math.cos(pitch) * math.sin(yaw), math.sin(pitch), -math.cos(pitch) * math.cos(yaw))
            up = Vec3(-math.sin(pitch) * math.sin(yaw), math.cos(pitch), math.sin(pitch) * math.cos(yaw))
            rig = rig_from_pose(sample(0.0, pos, forward=forward, up=up), 0.064)
            roi = Roi(apex=derive_mid_camera(rig).m, axis=forward, half_angle=math.radians(30.0), z_far=45.0)
            best, ranked = select_focus(prepared, rig, roi, rays, DEFAULT_W)
            assert (best, list(ranked)) == select_by_enumeration(scene, rig, roi, rays, DEFAULT_W)
            plain_best, plain = select_focus(scene, rig, roi, rays, DEFAULT_W)
            assert repr(plain_best) == repr(best) and [repr(c) for c in plain] == [repr(c) for c in ranked]
            gathered += culled(prepared, roi)[1] < len(prepared)
            kept += len(ranked)
        assert gathered == 100  # every call took the slab path
        assert 500 <= kept <= 5000


class TestCandidates:
    """The candidate sequence `select_focus` returns: arrays, with each
    `FocusCandidate` built on access."""

    def scene(self, rng):
        scene = []
        for oid in rng.sample(range(1, 1000), 150):
            theta, phi, dist = rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(2.0, 120.0)
            center = Vec3(dist * math.sin(theta) * math.cos(phi), dist * math.sin(theta) * math.sin(phi), -dist * math.cos(theta))
            scene.append(SceneObject(id=oid, center=center, radius=rng.uniform(0.3, 3.0), value=rng.random()))
        return scene

    def test_sequence_matches_enumeration_exactly(self):
        rng = random.Random(77)
        rays = RayConfig(k=4, n=64, half_angle=math.radians(20.0))
        for _ in range(3):
            scene = self.scene(rng)
            best, cands = select_focus(scene, RIG, ROI, rays, DEFAULT_W)
            want_best, want = select_by_enumeration(scene, RIG, ROI, rays, DEFAULT_W)
            assert isinstance(cands, Candidates)
            assert len(cands) == len(want) >= 100
            # iteration order and float identity: repr shows every bit, and the type
            assert [repr(c) for c in cands] == [repr(w) for w in want]
            for i, w in enumerate(want):
                got = cands[i]
                assert type(got) is FocusCandidate and repr(got) == repr(w)
                assert all(type(getattr(got, f)) is type(getattr(w, f)) for f in ("object_id", "rm", "d", "v", "importance"))
                assert repr(cands[i - len(want)]) == repr(w)
            assert repr(best) == repr(want_best)
            assert best == cands[int(np.flatnonzero(cands.ids == best.object_id)[0])]
            assert cands.ids.tolist() == [w.object_id for w in want]
            assert cands.ids.dtype == np.int64 and cands.importance.dtype == np.float64
            with pytest.raises(IndexError):
                cands[len(want)]
            with pytest.raises(TypeError):
                cands[0:2]

    def test_read_only(self):
        _, cands = select_focus([obj(1, 0, 0, -5), obj(2, 1, 0, -9)], RIG, ROI, RAYS, DEFAULT_W)
        with pytest.raises(TypeError):
            cands[0] = cands[1]
        with pytest.raises(AttributeError):
            cands.rm = cands.d

    def test_empty(self):
        best, cands = select_focus([obj(1, 0, 0, 50)], RIG, ROI, RAYS, DEFAULT_W)
        assert best is None and len(cands) == 0 and list(cands) == []
        with pytest.raises(IndexError):
            cands[0]



def _bits(cands: Candidates) -> list[tuple[str, bytes]]:
    """Every candidate array as its dtype and bytes."""
    return [(a.dtype.str, a.tobytes()) for a in (cands.ids, cands.rm, cands.d, cands.v, cands.importance)]


def select_chunk(scene, rigs, rois, ray_cfg, weights) -> tuple[list, list[Candidates]]:
    """`select_focus` over the rows of a chunk against one call per tick: the
    chunk's candidates are the ticks' sets back to back, bit for bit, and each
    winner position lies in its tick's run and names that tick's winner (-1
    for none). Returns the per-tick calls' winners and candidate sets."""
    win, chunk = select_focus(scene, *chunk_rows(rigs, rois), ray_cfg, weights)
    calls = [select_focus(scene, rig, roi, ray_cfg, weights) for rig, roi in zip(rigs, rois)]
    winners, ticks = [w for w, _ in calls], [c for _, c in calls]
    assert isinstance(chunk, Candidates) and win.dtype == np.int64 and win.shape == (len(rigs),)
    want = [_bits(cands) for cands in ticks]
    for k, (dtype, data) in enumerate(_bits(chunk)):
        assert all(w[k][0] == dtype for w in want) and data == b"".join(w[k][1] for w in want), k
    starts = np.cumsum([0, *map(len, ticks)]).tolist()
    for t, (w, winner) in enumerate(zip(win.tolist(), winners)):
        assert w == -1 if winner is None else starts[t] <= w < starts[t + 1] and repr(chunk[w]) == repr(winner), t
    return winners, ticks


class TestSelectFocusChunk:
    """`select_focus` over a chunk of ticks against one call per tick: each
    tick's winner and candidate arrays bit for bit, for chunks of 1 to more
    than twice the replay's chunk size."""

    def test_lattice_chunks_match_calls_per_tick(self):
        """Ties, occluders, ticks that look away from every object, ROI apexes
        off the camera, and chunks where no tick has a candidate."""
        rng = random.Random(1616)
        seen = dict.fromkeys(("ties", "empty mid-chunk", "empty chunk", "apex off camera"), 0)
        axes = [Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)]
        for case in range(60):
            rig0, scene = _tie_scene(rng)
            ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(1, 24), half_angle=math.radians(rng.uniform(5.0, 30.0)))
            weights = rng.choice(TestSelectFocusOracle.WEIGHTS)
            size = rng.choice((1, 2, 3, CHUNK_TICKS - 1, CHUNK_TICKS, CHUNK_TICKS + 1, 2 * CHUNK_TICKS + 3))
            away = rng.random() < 0.15  # every tick looks away from the scene
            rigs, rois = [], []
            for _ in range(size):
                rig = rig0
                if away or rng.random() < 0.4:  # another axis, from another lattice point
                    i = rng.randrange(3)
                    forward = rig0.forward * -1.0 if away else axes[i] * rng.choice((-1.0, 1.0))
                    up = rig0.up if away else axes[(i + 1) % 3]
                    m = derive_mid_camera(rig0).m + Vec3(*(rng.randint(-8, 8) / 8 for _ in range(3))) * (not away)
                    half = forward.cross(up) * 0.03125
                    rig = StereoRig(ol=m - half, or_=m + half, up=up, forward=forward)
                apex = derive_mid_camera(rig).m
                if rng.random() < 0.1:
                    apex = apex + Vec3(*(rng.randint(-8, 8) / 8 for _ in range(3)))
                rigs.append(rig)
                rois.append(Roi(apex=apex, axis=rig.forward, half_angle=math.radians(rng.uniform(15.0, 60.0)),
                                z_far=rng.randint(80, 400) / 8))
            scene = scene if rng.random() < 0.5 else prepare_scene(scene)
            winners, chunk = select_chunk(scene, rigs, rois, ray_cfg, weights)
            seen["ties"] += sum(sum(c.importance == w.importance for c in cands) > 1
                                for w, cands in zip(winners, chunk) if w is not None)
            seen["empty mid-chunk"] += any(not cands for cands in chunk[1:-1]) and any(chunk)
            seen["empty chunk"] += not any(chunk)
            seen["apex off camera"] += any(roi.apex != derive_mid_camera(rig).m for rig, roi in zip(rigs, rois))
        assert min(seen.values()) >= 5, seen

    def test_walk_through_a_large_world(self):
        """Consecutive poses of a walk through a 1,500-object world, each
        tick's cull on its own slab of the chunk's union."""
        rng = random.Random(2929)
        world = _disc_world(rng, 1500)
        prepared = prepare_scene(world)
        rays = RayConfig(k=4, n=32, half_angle=math.radians(15.0))
        ticks = kept = won = 0
        for size in (1, 5, CHUNK_TICKS, CHUNK_TICKS + 2, 3 * CHUNK_TICKS):
            rigs, rois = [], []
            ang = rng.uniform(0.0, 2.0 * math.pi)
            for i in range(size):
                yaw = math.pi - ang + 0.8 * math.sin(0.3 * i) + rng.uniform(-0.05, 0.05)
                forward = Vec3(math.sin(yaw), 0.0, -math.cos(yaw))
                pos = Vec3(60.0 * math.cos(ang) + 0.7 * i * forward.x, 1.6, 60.0 * math.sin(ang) + 0.7 * i * forward.z)
                rig = rig_from_pose(sample(16.0 * i, pos, forward=forward), 0.064)
                rigs.append(rig)
                rois.append(Roi(apex=derive_mid_camera(rig).m, axis=forward, half_angle=math.radians(30.0), z_far=45.0))
            winners, chunk = select_chunk(prepared, rigs, rois, rays, DEFAULT_W)
            ticks, kept, won = ticks + size, kept + sum(map(len, chunk)), won + sum(w is not None for w in winners)
        assert kept >= 3 * ticks and won >= ticks // 2, (ticks, kept, won)

    def test_boxes_that_are_not_finite(self):
        """ROIs reaching to infinity or opening to nearly a half-space, with
        axes square to the sweep axis, whose array boxes see a NaN far edge:
        each such box spans every row, and the chunk still selects as its
        ticks do one at a time."""
        rng = random.Random(3131)
        prepared = prepare_scene(_disc_world(rng, 600))
        e = prepared.sweep_axis
        square = [Vec3(*(1.0 if i == (e + 1) % 3 else 0.0 for i in range(3))),
                  Vec3(*(-1.0 if i == (e + 2) % 3 else 0.0 for i in range(3)))]
        rays = RayConfig(k=2, n=8, half_angle=math.radians(10.0))
        for z_far, half_angle in ((math.inf, 0.3), (1e300, 0.3), (math.inf, math.nextafter(math.pi / 2, 0.0)), (45.0, 0.3)):
            rigs, rois = [], []
            for i in range(CHUNK_TICKS + 3):
                axis = square[i % 2] if i % 3 else Vec3(*(rng.uniform(-1.0, 1.0) for _ in range(3))).normalized()
                up = next(u for u in (Vec3(0, 1, 0), Vec3(1, 0, 0)) if abs(u.dot(axis)) < 0.9)
                pos = Vec3(rng.uniform(-60.0, 60.0), 1.6, rng.uniform(-60.0, 60.0))
                rig = rig_from_pose(sample(16.0 * i, pos, forward=axis, up=up), 0.064)
                rigs.append(rig)
                far = z_far if i % 4 == 1 else 30.0  # one tick in four has the unbounded ROI
                rois.append(Roi(apex=derive_mid_camera(rig).m, axis=axis, half_angle=half_angle if i % 4 == 1 else 0.4,
                                z_far=far))
            real, slabs = focusray.geometry.cone_mask, []

            def spy(roi, spheres):
                slabs.append(len(spheres))
                return real(roi, spheres)

            focusray.geometry.cone_mask = spy
            try:
                winners, chunk = select_chunk(prepared, rigs, rois, rays, DEFAULT_W)
            finally:
                focusray.geometry.cone_mask = real
            assert sum(map(len, chunk)) > 0 and sum(w is not None for w in winners) > 0
            # the chunk's call comes first; with a box that is not finite, its slab is every row
            assert (slabs[0] == len(prepared)) == (z_far > 1e6)

    def test_chunk_of_one_and_empty_scene(self):
        win, chunk = select_focus([], *chunk_rows([RIG], [ROI]), RAYS, DEFAULT_W)
        assert win.tolist() == [-1] and len(chunk) == 0
        win, chunk = select_focus([], *chunk_rows([RIG] * 3, [ROI] * 3), RAYS, DEFAULT_W)
        assert win.tolist() == [-1] * 3 and len(chunk) == 0
        assert chunk.ids.dtype == np.int64 and chunk.rm.dtype == np.float64
        scene = [obj(1, 0, 0, -5), obj(2, 1, 0, -9)]
        winners, _ = select_chunk(scene, [RIG], [ROI], RAYS, DEFAULT_W)
        assert winners[0].object_id == 1
        win, chunk = select_focus(scene, *chunk_rows([], []), RAYS, DEFAULT_W)
        assert win.tolist() == [] and len(chunk) == 0

    def test_refused_pairings(self):
        """One rig with one ROI, or camera rows with as many ROI rows, each
        field holding one row per tick: any other pairing is refused, whether
        the chunk has candidates or none. A one-row axis is not broadcast,
        nor a one-row z_far or forward left to numpy."""
        cams, rois = chunk_rows([RIG] * 2, [ROI] * 2)
        unequal = [chunk_rows([RIG] * n_cams, [ROI] * n_rois) for n_cams, n_rois in ((2, 3), (3, 2), (0, 1), (1, 0))]
        short = [(cams, rois._replace(axis=rois.axis[:1])), (cams, rois._replace(z_far=rois.z_far[:1])),
                 (cams._replace(forward=cams.forward[:1]), rois), (cams, rois._replace(apex=rois.apex[:, :2]))]
        pairs = [([RIG, RIG], [ROI, ROI]), ((RIG,), (ROI,)), (RIG, rois), (cams, ROI), (rois, cams),
                 (tuple(cams), tuple(rois)), (RIG, None), *unequal, *short]
        for scene in ([obj(1, 0, 0, -5)], []):
            for rig, roi in pairs:
                with pytest.raises(ValidationError, match=f"CameraRows and RoiRows of equal length, got "
                                                          f"{type(rig).__name__} and {type(roi).__name__}$"):
                    select_focus(scene, rig, roi, RAYS, DEFAULT_W)


def _pose(rng: random.Random, short: float = 0.0) -> StereoRig:
    """The rig of a head pose anywhere, looking anywhere short of straight up
    or down, its forward `short` below unit length."""
    yaw, pitch = rng.uniform(-math.pi, math.pi), rng.uniform(-1.2, 1.2)
    fwd = Vec3(math.cos(pitch) * math.sin(yaw), math.sin(pitch), -math.cos(pitch) * math.cos(yaw))
    up = Vec3(-math.sin(pitch) * math.sin(yaw), math.cos(pitch), math.sin(pitch) * math.cos(yaw))
    pos = Vec3(*(rng.uniform(-50.0, 50.0) for _ in range(3)))
    return rig_from_pose(sample(0.0, pos, forward=fwd * (1.0 - short), up=up), 0.064)


def _beside(rng: random.Random, rig: StereoRig, polar: float) -> tuple:
    """A small sphere, as (x, y, z, r), whose center lies `polar` radians off
    the rig's forward, seen from its mid camera."""
    m, f = derive_mid_camera(rig).m, rig.forward.normalized()
    side = (rig.or_ - rig.ol).normalized()
    c = m + (f * math.cos(polar) + side * math.sin(polar)) * rng.uniform(5.0, 50.0)
    return (c.x, c.y, c.z, 0.01 * c.distance_to(m))


class TestRayReach:
    """The reach cut of `select_focus`'s chunk form: only the candidates the
    solid ray cone can reach go to the ray kernel, wherever the ROI's apex and
    axis lie. Each chunk must select as its ticks do one at a time (the chunk
    of one cuts nothing), bit for bit,
    with each rm as `rm_by_enumeration` gives it; and the cut must keep every
    candidate within a radius of the ray cone and drop those clearly beyond
    it (the reference distance about the bundle's unit axis)."""

    KERNEL = profile("kernel")

    def check(self, rows, rigs, rois, ray_cfg):
        """Select over the chunk of `rigs` and `rois` in a scene of spheres
        `rows`; returns how many candidates the chunk has and how many the ray
        kernel saw."""
        scene = [SceneObject(id=3 * i + 1, center=Vec3(*row[:3]), radius=row[3], value=(i % 5) / 4)
                 for i, row in enumerate(rows)]
        real, seen = focusray.attention.rm_scores, []

        def spy(oc, bundle, spheres, ococ, starts):
            seen.append((spheres, starts))
            return real(oc, bundle, spheres, ococ, starts)

        focusray.attention.rm_scores = spy
        try:  # the chunk's call comes first, and calls the kernel when the chunk has candidates
            _, chunk = select_chunk(scene, rigs, rois, ray_cfg, DEFAULT_W)
        finally:
            focusray.attention.rm_scores = real
        by_id = {o.id: o for o in scene}
        spheres, starts = seen[0] if seen else (np.empty((0, 4)), [0] * (len(rigs) + 1))
        for t, (rig, cands) in enumerate(zip(rigs, chunk)):
            objects = [by_id[i] for i in cands.ids.tolist()]
            cam = derive_mid_camera(rig)
            rm = rm_by_enumeration(cam, ray_bundle(ray_cfg, rig), objects)
            assert cands.rm.tolist() == [rm[o.id] for o in objects], t
            passed = spheres[starts[t]:starts[t + 1]].tolist()
            for o in objects:
                row = [o.center.x, o.center.y, o.center.z, o.radius]
                gap = point_cone_distance(o.center, cam.m, cam.forward.normalized(), ray_cfg.half_angle) - o.radius
                if gap <= 0.0:
                    assert row in passed, (t, o)
                elif gap > 1e-3 * (o.center.distance_to(cam.m) + o.radius):
                    assert row not in passed, (t, o)
        return sum(map(len, chunk)), len(spheres)

    @given(rng=st.randoms(use_true_random=False), ticks=st.integers(1, CHUNK_TICKS + 2))
    @settings(KERNEL)
    def test_grazing_the_outer_layer(self, rng, ticks):
        """`TestRayConeCull`'s spheres, each touching an outermost ray, and one
        sphere a tick between the ray cone and the ROI's edge."""
        half = math.radians(rng.uniform(2.0, 50.0))
        ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(4, 12), half_angle=half)
        rows, rigs, rois = [], [], []
        for _ in range(ticks):
            rig = _pose(rng)
            cam = derive_mid_camera(rig)
            rows += grazing_spheres(rng, cam.m, cam.forward.normalized(), ray_bundle(ray_cfg, rig), per_ray=1)
            rows.append(_beside(rng, rig, half + math.radians(10.0)))
            rigs.append(rig)
            rois.append(Roi(apex=cam.m, axis=rig.forward, half_angle=half + math.radians(20.0), z_far=1e3))
        candidates, passed = self.check(rows, rigs, rois, ray_cfg)
        assert passed <= candidates - ticks

    @given(rng=st.randoms(use_true_random=False), ticks=st.integers(1, CHUNK_TICKS + 2))
    @settings(KERNEL)
    def test_camera_inside_or_at_a_centre(self, rng, ticks):
        """Spheres centred on the mid camera, holding it, or with the camera
        on their surface within rounding, ahead or behind: the ray kernel hits
        them at t = 0, and reach takes no quotient that could warn."""
        ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(1, 12), half_angle=math.radians(rng.uniform(1.0, 30.0)))
        rows, rigs, rois = [], [], []
        for _ in range(ticks):
            rig = _pose(rng)
            m = derive_mid_camera(rig).m
            rows.append((m.x, m.y, m.z, rng.choice((0.25, 1.0, 4.0))))
            for _ in range(3):
                z, phi = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
                u = Vec3(math.sqrt(1.0 - z * z) * math.cos(phi), math.sqrt(1.0 - z * z) * math.sin(phi), z)
                dist = rng.uniform(0.5, 20.0)
                c = m + u * dist
                rows.append((c.x, c.y, c.z, dist * rng.choice((1.0 + 1e-16, 1.0, 1.0 - 1e-16, 1.5))))
            rows.append(_beside(rng, rig, ray_cfg.half_angle + math.radians(15.0)))
            rigs.append(rig)
            rois.append(Roi(apex=m, axis=rig.forward, half_angle=ray_cfg.half_angle + math.radians(25.0), z_far=100.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            candidates, passed = self.check(rows, rigs, rois, ray_cfg)
        assert passed <= candidates - ticks

    @given(rng=st.randoms(use_true_random=False), ticks=st.integers(1, CHUNK_TICKS + 2))
    @settings(KERNEL)
    def test_forward_short_of_unit_in_a_narrow_cone(self, rng, ticks):
        """Forward 0.9e-9 short of unit and a 1e-4 rad ray cone: about the raw
        axis, reach near the cone's edge would be off by about 1e-9 D cot(h),
        some 10 times the inflation."""
        ray_cfg = RayConfig(k=rng.randint(1, 3), n=rng.randint(4, 12), half_angle=1e-4)
        rows, rigs, rois = [], [], []
        for _ in range(ticks):
            rig = _pose(rng, short=0.9e-9)
            cam = derive_mid_camera(rig)
            assert cam.forward.norm() < 1.0 - 0.8e-9
            rows += grazing_spheres(rng, cam.m, cam.forward.normalized(), ray_bundle(ray_cfg, rig), per_ray=2)
            rows.append(_beside(rng, rig, 0.05))
            rigs.append(rig)
            rois.append(Roi(apex=cam.m, axis=rig.forward, half_angle=0.2, z_far=1e3))
        candidates, passed = self.check(rows, rigs, rois, ray_cfg)
        assert passed <= candidates - ticks

    @given(rng=st.randoms(use_true_random=False), ticks=st.integers(1, CHUNK_TICKS + 2))
    @settings(KERNEL)
    def test_ray_cone_wider_than_the_roi(self, rng, ticks):
        """Every candidate overlaps the ROI, so it is within reach: none is cut."""
        ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(1, 12), half_angle=math.radians(rng.uniform(30.0, 60.0)))
        rows, rigs, rois = [], [], []
        for _ in range(ticks):
            rig = _pose(rng)
            roi_half = ray_cfg.half_angle - math.radians(rng.uniform(1.0, 25.0))
            rows += [_beside(rng, rig, roi_half + rng.uniform(-0.05, 0.05)) for _ in range(4)]
            rigs.append(rig)
            rois.append(Roi(apex=derive_mid_camera(rig).m, axis=rig.forward, half_angle=roi_half, z_far=60.0))
        candidates, passed = self.check(rows, rigs, rois, ray_cfg)
        assert passed == candidates

    @given(rng=st.randoms(use_true_random=False), ticks=st.integers(1, CHUNK_TICKS + 2), off=st.sampled_from(("apex", "axis", "both")))
    @settings(KERNEL)
    def test_apex_or_axis_off_the_camera(self, rng, ticks, off):
        """One tick whose ROI apex is off its mid camera, or whose axis is not
        its forward (by an ulp, or turned), among spheres grazing the ray
        cone: the cut is still measured about the camera and the bundle's
        axis, and each tick keeps its bits."""
        ray_cfg = RayConfig(k=rng.randint(1, 4), n=rng.randint(1, 12), half_angle=math.radians(rng.uniform(5.0, 20.0)))
        rows, rigs, rois = [], [], []
        odd = rng.randrange(ticks)
        for t in range(ticks):
            rig = _pose(rng, short=rng.choice((0.0, 0.5e-9)))
            apex, axis = derive_mid_camera(rig).m, rig.forward
            rows += grazing_spheres(rng, apex, axis.normalized(), ray_bundle(ray_cfg, rig), per_ray=1, reach_exp=(0.5, 1.5))
            if t == odd and off in ("apex", "both"):
                apex = apex + Vec3(rng.choice((-1.0, 1.0)) * rng.uniform(1e-6, 1.0), rng.uniform(-1.0, 1.0), 0.0)
            if t == odd and off in ("axis", "both"):
                turned = (rig.forward + rig.up * rng.choice((0.0, 0.1))).normalized()
                axis = turned if turned != rig.forward else Vec3(axis.x, axis.y, math.nextafter(axis.z, 0.0))
            rows += [_beside(rng, rig, rng.uniform(0.0, 0.7)) for _ in range(5)]
            rigs.append(rig)
            rois.append(Roi(apex=apex, axis=axis, half_angle=0.7, z_far=60.0))
        self.check(rows, rigs, rois, ray_cfg)


EIGHTHS = st.integers(-16, 16).map(lambda i: i / 8)  # on a 1/8 m grid, so distances tie exactly
# (forward, up) pairs: along the axes, on 3-4-5 triangles, or anywhere short of straight up or down
_AXES = [Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)]
FRAMES = st.one_of(
    st.sampled_from([(_AXES[i] * s, _AXES[(i + 1) % 3]) for i in range(3) for s in (-1.0, 1.0)]
                    + [(Vec3(0.6, 0, -0.8), Vec3(0, 1, 0)), (Vec3(0, 0.8, -0.6), Vec3(0, 0.6, 0.8))]),
    st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.2, 1.2)).map(lambda yp: (
        Vec3(math.cos(yp[1]) * math.sin(yp[0]), math.sin(yp[1]), -math.cos(yp[1]) * math.cos(yp[0])),
        Vec3(-math.sin(yp[1]) * math.sin(yp[0]), math.cos(yp[1]), math.sin(yp[1]) * math.cos(yp[0])))),
)

GRID_AXES = st.tuples(EIGHTHS, EIGHTHS, EIGHTHS).filter(any).map(lambda v: Vec3(*v).normalized())


@st.composite
def rows_chunk(draw) -> tuple:
    """A scene on a 1/4 m grid and a chunk of 1 to more than the replay's chunk
    size of rigs with their ROIs. Every ROI is drawn off its tick's camera:
    an apex at the camera or a grid step or more away (in some chunks every
    apex at its camera), an axis along forward, along a grid vector or any
    frame's forward, and a half-angle and z_far of its own."""
    ids = draw(st.lists(st.integers(1, 999), unique=True, max_size=20))
    scene = [SceneObject(id=i, center=Vec3(*(2.0 * draw(EIGHTHS) for _ in range(3))),
                         radius=draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))),
                         value=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))) for i in ids]
    ray_cfg = RayConfig(k=draw(st.integers(1, 4)), n=draw(st.integers(1, 16)),
                        half_angle=math.radians(draw(st.floats(1.0, 40.0))))
    on_camera = draw(st.booleans())
    rigs, rois = [], []
    for _ in range(draw(st.integers(1, CHUNK_TICKS + 2))):
        forward, up = draw(FRAMES)
        rig = rig_from_pose(sample(0.0, Vec3(*(draw(EIGHTHS) for _ in range(3))), forward=forward, up=up), 0.064)
        apex = derive_mid_camera(rig).m
        if not on_camera and draw(st.booleans()):
            apex = apex + Vec3(*(draw(EIGHTHS) for _ in range(3)))
        axis = draw(st.one_of(st.just(rig.forward), GRID_AXES, FRAMES.map(lambda frame: frame[0])))
        z_far = draw(st.one_of(st.integers(1, 400).map(lambda i: i / 8), st.floats(0.1, 1e3)))
        rois.append(Roi(apex=apex, axis=axis, half_angle=math.radians(draw(st.floats(1.0, 80.0))), z_far=z_far))
        rigs.append(rig)
    return scene, rigs, rois, ray_cfg, draw(st.sampled_from(TestSelectFocusOracle.WEIGHTS))


class TestRowsFuzz:
    """`select_focus`'s rows form against `select_by_enumeration`, tick by
    tick: each tick's run of the chunk's candidates, and its winner, must be
    the oracle's for that tick's rig and ROI exactly."""

    @given(chunk=rows_chunk())
    @settings(profile("kernel"))
    def test_ticks_match_enumeration(self, chunk):
        scene, rigs, rois, ray_cfg, weights = chunk
        win, candidates = select_focus(scene, *chunk_rows(rigs, rois), ray_cfg, weights)
        start = 0
        for t, (rig, roi) in enumerate(zip(rigs, rois)):
            best, scored = select_by_enumeration(scene, rig, roi, ray_cfg, weights)
            end = start + len(scored)
            assert [candidates[i] for i in range(start, min(end, len(candidates)))] == scored, t
            w = int(win[t])
            assert w == -1 if best is None else start <= w < end and candidates[w] == best, t
            start = end
        assert start == len(candidates)
