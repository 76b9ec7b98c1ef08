"""Acceptance gate: one test per shipped guarantee.

Each test wraps its body in the `criterion` fixture so the run prints a
single PASS/FAIL line per guarantee. Tolerances are pinned here and are
part of the contract; loosening one is an interface change, not a test fix.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import focusray
from focusray import (
    ComfortRule,
    DynamicsConfig,
    FocusSelection,
    FocusState,
    HeuristicWeights,
    MidCamera,
    RayConfig,
    Roi,
    SceneObject,
    SsqResponse,
    StereoRig,
    TrajectorySample,
    Vec3,
    analyze_trajectory,
    cone_frame,
    derive_mid_camera,
    layer_weight,
    level_for_score,
    ray_bundle,
    roi_mask,
    score_questionnaire,
    select_focus,
    step,
)

from focusray.geometry import sphere_array
from builders import rm_from
from oracles import rm_by_enumeration, roi_contains, ssq_scores_by_matrix

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
# Directory holding the imported package, so CLI children run the code under test.
PACKAGE_ROOT = str(Path(focusray.__file__).resolve().parent.parent)

FORWARD = Vec3(0.0, 0.0, -1.0)
UP = Vec3(0.0, 1.0, 0.0)


def _random_camera(rng: random.Random) -> MidCamera:
    """Random position with a random orthonormal (forward, up) frame."""
    pos = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    costh = rng.uniform(-1.0, 1.0)
    sinth = math.sqrt(1.0 - costh * costh)
    f = Vec3(sinth * math.cos(phi), sinth * math.sin(phi), costh)
    helper = UP if abs(f.y) < 0.9 else Vec3(1.0, 0.0, 0.0)
    r0 = f.cross(helper).normalized()
    u0 = r0.cross(f)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    up = u0 * math.cos(psi) + r0 * math.sin(psi)
    return MidCamera(m=pos, forward=f, up=up.normalized())


def _pose_sample(t_ms: float, x: float) -> TrajectorySample:
    return TrajectorySample(
        t_ms=t_ms,
        position=Vec3(x, 0.0, 0.0),
        forward=FORWARD,
        up=UP,
        fov_deg=90.0,
        user_initiated=True,
        frame_time_ms=11.1,
    )


def _benchmark_scene(rng: random.Random, count: int) -> list[SceneObject]:
    """Objects clustered ahead of the camera so nearly all survive ROI culling."""
    objs = []
    for i in range(1, count + 1):
        theta = rng.uniform(0.0, 0.4)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(3.0, 80.0)
        center = Vec3(
            dist * math.sin(theta) * math.cos(phi),
            dist * math.sin(theta) * math.sin(phi),
            -dist * math.cos(theta),
        )
        objs.append(SceneObject(id=i, center=center, radius=rng.uniform(0.3, 3.0), value=rng.uniform(0.0, 1.0)))
    return objs


def test_criterion_1_ssq_exactness(criterion):
    with criterion(1, "ssq scores match the clinical weighting"):
        start = time.perf_counter()

        score = score_questionnaire(SsqResponse(ratings=(3,) * 16))
        assert abs(score.nausea - 200.34) <= 0.01
        assert abs(score.oculomotor - 159.18) <= 0.01
        assert abs(score.disorientation - 292.32) <= 0.01
        assert abs(score.total - 235.62) <= 0.01

        rng = random.Random(1701)
        for _ in range(50):
            ratings = tuple(rng.randint(0, 3) for _ in range(16))
            got = score_questionnaire(SsqResponse(ratings=ratings))
            n, o, d, t = ssq_scores_by_matrix(ratings)
            assert abs(got.nausea - n) <= 1e-9
            assert abs(got.oculomotor - o) <= 1e-9
            assert abs(got.disorientation - d) <= 1e-9
            assert abs(got.total - t) <= 1e-9

        assert time.perf_counter() - start < 1.0


def test_criterion_2_rm_matches_enumeration_bitwise(criterion):
    with criterion(2, "rm scores equal brute-force ray enumeration bitwise"):
        start = time.perf_counter()
        rng = random.Random(8093)
        for _ in range(110):
            cfg = RayConfig(
                k=rng.randint(1, 4),
                n=rng.randint(1, 64),
                half_angle=math.radians(rng.uniform(5.0, 40.0)),
            )
            cam = _random_camera(rng)
            ids = rng.sample(range(1, 51), rng.randint(1, 10))
            scene = [
                SceneObject(
                    id=oid,
                    center=Vec3(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-40, 5)),
                    radius=rng.uniform(0.2, 5.0),
                    value=rng.uniform(0.0, 1.0),
                )
                for oid in ids
            ]
            bundle = ray_bundle(cfg, cam)
            want = rm_by_enumeration(cam, bundle, scene)
            ordered = sorted(scene, key=lambda o: o.id)
            scores = dict(zip((o.id for o in ordered), rm_from(cam.m, cone_frame(cfg, cam), sphere_array(ordered))))
            for oid in ids:
                got = scores[oid]
                assert got == want[oid], (oid, got, want[oid])
        assert time.perf_counter() - start < 10.0


def test_criterion_3_ray_cone_contract(criterion):
    with criterion(3, "ray cone emits k*n unit-weight rays, alpha decreasing"):
        cam = MidCamera(m=Vec3(0.0, 0.0, 0.0), forward=FORWARD, up=UP)
        for k in (1, 2, 3, 4, 5, 6):
            for n in (1, 2, 7, 16, 33, 64):
                bundle = ray_bundle(RayConfig(k=k, n=n, half_angle=math.radians(18.0)), cam)
                assert bundle.directions.shape == (k * n, 3)
                assert abs(math.fsum(bundle.weights.tolist()) - 1.0) <= 1e-12
            alphas = [layer_weight(i, k) for i in range(1, k + 1)]
            assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_criterion_4_selection_properties(criterion):
    with criterion(4, "selection permutation-invariant, roi-culled, convex-bounded"):
        roi = Roi(apex=Vec3(0.0, 0.0, 0.0), axis=FORWARD, half_angle=math.radians(30.0), z_far=100.0)
        rig = StereoRig(ol=Vec3(-0.032, 0.0, 0.0), or_=Vec3(0.032, 0.0, 0.0), up=UP, forward=FORWARD)
        ray_cfg = RayConfig(k=3, n=32, half_angle=math.radians(18.0))
        weights = HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.2)

        def check_bounds(scored):
            for cand in scored:
                assert -1e-9 <= cand.rm <= 1.0 + 1e-9
                assert 0.0 <= cand.d <= 1.0
                assert 0.0 <= cand.v <= 1.0
                lo = min(cand.rm, cand.d, cand.v)
                hi = max(cand.rm, cand.d, cand.v)
                assert lo - 1e-9 <= cand.importance <= hi + 1e-9

        rng = random.Random(41)
        inside = []
        for i in range(1, 19):
            theta = rng.uniform(0.0, 0.35)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(3.0, 80.0)
            center = Vec3(
                dist * math.sin(theta) * math.cos(phi),
                dist * math.sin(theta) * math.sin(phi),
                -dist * math.cos(theta),
            )
            inside.append(SceneObject(id=i, center=center, radius=rng.uniform(0.3, 3.0), value=rng.uniform(0.0, 1.0)))
        outside = [
            SceneObject(id=19, center=Vec3(0.0, 0.0, 30.0), radius=2.0, value=1.0),
            SceneObject(id=20, center=Vec3(60.0, 0.0, -20.0), radius=2.0, value=1.0),
            SceneObject(id=21, center=Vec3(0.0, -50.0, -30.0), radius=1.0, value=1.0),
            SceneObject(id=22, center=Vec3(0.0, 0.0, -150.0), radius=3.0, value=1.0),
        ]
        scene = inside + outside
        in_roi_ids = {o.id for o in scene if roi_contains(roi, o)}
        assert roi_mask(roi, scene).tolist() == [o.id in in_roi_ids for o in scene]
        assert in_roi_ids and all(o.id not in in_roi_ids for o in outside)

        best0, scored0 = select_focus(scene, rig, roi, ray_cfg, weights)
        assert best0 is not None and best0.object_id in in_roi_ids
        check_bounds(scored0)

        discrepancies = 0
        shuffled = list(scene)
        for _ in range(1000):
            rng.shuffle(shuffled)
            best, scored = select_focus(shuffled, rig, roi, ray_cfg, weights)
            if best != best0 or list(scored) != list(scored0):
                discrepancies += 1
            assert best is not None and best.object_id in in_roi_ids
            check_bounds(scored)
        assert discrepancies == 0

        # fresh random scenes: the winner must always sit inside the cone
        for _ in range(60):
            objs = _benchmark_scene(rng, rng.randint(1, 12))
            spread = [
                SceneObject(id=o.id, center=Vec3(o.center.x * 3.0, o.center.y * 3.0, o.center.z), radius=o.radius, value=o.value)
                for o in objs
            ]
            best, scored = select_focus(spread, rig, roi, ray_cfg, weights)
            kept = {o.id for o in spread if roi_contains(roi, o)}
            assert roi_mask(roi, spread).tolist() == [o.id in kept for o in spread]
            assert {c.object_id for c in scored} == kept
            if best is not None:
                assert best.object_id in kept
            check_bounds(scored)


def test_criterion_5_focus_dynamics(criterion):
    with criterion(5, "refocus lands at 500 ms, moves continuously, holds 300 ms"):
        cfg = DynamicsConfig(refocus_ms=500.0, persistence_hold_ms=300.0)
        rng = random.Random(77)
        pairs = []
        while len(pairs) < 20:
            a, b = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
            if abs(a - b) >= 1.0:
                pairs.append((a, b))

        for from_d, to_d in pairs:
            for dt in (4.0, 16.0, 33.0):
                state = FocusState(current_target=None, focal_distance=from_d)
                sel = FocusSelection(object_id=1, distance=to_d)
                bound = abs(to_d - from_d) * (dt / 500.0) + 1e-9
                ticks_to_reach = None
                prev = state.focal_distance
                for tick in range(1, math.ceil(500.0 / dt) + 3):
                    state = step(state, sel, dt, cfg)
                    assert abs(state.focal_distance - prev) <= bound
                    prev = state.focal_distance
                    if ticks_to_reach is None and state.focal_distance == to_d:
                        ticks_to_reach = tick
                assert ticks_to_reach is not None
                assert abs(ticks_to_reach * dt - 500.0) <= dt

        # persistence: a 299 ms gap keeps the target, 301 ms drops it
        held = FocusState(current_target=9, focal_distance=12.0)
        assert step(held, None, 299.0, cfg).current_target == 9
        dropped = step(held, None, 301.0, cfg)
        assert dropped.current_target is None
        assert dropped.focal_distance == 12.0
        staged = held
        for gap in (100.0, 100.0, 99.0):
            staged = step(staged, None, gap, cfg)
        assert staged.current_target == 9
        assert step(staged, None, 2.0, cfg).current_target is None


def test_criterion_6_comfort_analyzer(criterion):
    with criterion(6, "comfort analyzer flags ramps and marathon sessions only"):
        # constant velocity: no acceleration, walking bout exactly at the budget
        steady = [_pose_sample(i * 50.0, 1.2 * i * 0.05) for i in range(41)]
        assert analyze_trajectory(steady).findings == ()

        # 3 m/s^2 ramp between 1 s and 3 s: one episode, two seconds severe
        def ramp_x(t_s: float) -> float:
            if t_s <= 1.0:
                return 0.0
            if t_s <= 3.0:
                return 1.5 * (t_s - 1.0) ** 2
            return 6.0 + 6.0 * (t_s - 3.0)

        ramp = [_pose_sample(i * 50.0, ramp_x(i * 0.05)) for i in range(81)]
        episodes = [f for f in analyze_trajectory(ramp).findings if f.rule is ComfortRule.AccelerationRamp]
        assert len(episodes) == 1
        assert abs(episodes[0].severity - 2.0) <= 0.1

        # instantaneous velocity step: too short to count as a ramp
        spike = [_pose_sample(i * 50.0, max(0.0, i * 0.05 - 2.0)) for i in range(79)]
        assert analyze_trajectory(spike).findings == ()

        # 35-minute session: exactly one finding, the duration one
        marathon = [_pose_sample(t, 0.0) for t in (0.0, 1_050_000.0, 2_100_000.0)]
        report = analyze_trajectory(marathon)
        assert len(report.findings) == 1
        assert report.findings[0].rule is ComfortRule.SessionDuration


def test_criterion_7_level_boundaries(criterion):
    with criterion(7, "score-to-level boundaries map exactly"):
        expected = {499: 1, 500: 2, 1000: 2, 1001: 3, 2000: 3, 2001: 4, 3000: 4, 3001: 5, 5000: 5, 5001: 6}
        assert {s: level_for_score(s) for s in expected} == expected


def test_criterion_8_golden_scenario_byte_stable(criterion, tmp_path):
    with criterion(8, "golden scenario output is byte-identical run to run"):
        frozen = (GOLDEN_DIR / "expected_output.txt").read_bytes()
        outputs = []
        for i in range(3):
            out = tmp_path / f"run{i}.txt"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "focusray.cli", "run",
                    "--scene", str(GOLDEN_DIR / "scene.txt"),
                    "--trajectory", str(GOLDEN_DIR / "trajectory.txt"),
                    "--config", str(GOLDEN_DIR / "config.txt"),
                    "--out", str(out),
                ],
                capture_output=True,
                env={"PYTHONHASHSEED": str(i), "PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == frozen


def test_criterion_9_selection_throughput(criterion):
    with criterion(9, "select_focus sustains 1000 evaluations per second"):
        scene = _benchmark_scene(random.Random(9), 100)
        rig = StereoRig(ol=Vec3(-0.032, 0.0, 0.0), or_=Vec3(0.032, 0.0, 0.0), up=UP, forward=FORWARD)
        roi = Roi(apex=Vec3(0.0, 0.0, 0.0), axis=FORWARD, half_angle=math.radians(30.0), z_far=100.0)
        ray_cfg = RayConfig(k=4, n=64, half_angle=math.radians(20.0))
        weights = HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.2)

        best, scored = select_focus(scene, rig, roi, ray_cfg, weights)
        assert best is not None and len(scored) >= 90

        start = time.perf_counter()
        count = 0
        while time.perf_counter() - start < 0.5:
            select_focus(scene, rig, roi, ray_cfg, weights)
            count += 1
        elapsed = time.perf_counter() - start
        assert count / elapsed >= 1000.0, f"{count / elapsed:.0f} evaluations/second"
