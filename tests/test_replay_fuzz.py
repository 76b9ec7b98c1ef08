"""Differential replay fuzz: Hypothesis draws small whole scenarios, and each
runs through `run_scenario` and through `oracles.replay_by_rows`, one tick
and one object at a time. The report must match byte for byte, and each
tick's mid camera, ROI and winner, and `replay_focus`'s eight columns
(the winner's scores, the focal distance, the transition flag and the
dynamics' event), exactly.

Scenarios hold up to 30 objects on a 1/8 m lattice, with coincident twins,
mirrored offsets and a short list of values (distance and importance ties),
a sphere holding the camera, and 1 to 40 ticks, so that the replay's chunk
edges fall at 16 and 32. Headings turn by 45 or 90 degrees between samples
and ticks fall between samples, so rigs and ROIs are not all on the lattice.
Off the lattice, seen from the first tick's mid camera: spheres touching the
ray cone's outermost rays from outside, within the kernel's rounding (the
edge of the ray kernel's reach cut), and a chain of occluders along one ray.

The example count comes from the `replay-fuzz` settings profile, kept within
a few seconds of Tier-1; CI runs `--hypothesis-profile=replay-fuzz-long`
(both registered in conftest.py).
"""

import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from builders import camera_row, grazing_spheres, profile, roi_row, sample
from focusray import RayConfig, Vec3, ray_bundle, rig_from_pose, simulate
from oracles import focus_columns, replay_by_rows

_PROFILE = profile("replay-fuzz")

# headings in the horizontal plane, 45 degrees apart; up is +y throughout
_HEADINGS = [(round(math.sin(k * math.pi / 4), 12), 0.0, -round(math.cos(k * math.pi / 4), 12)) for k in range(8)]
# p_rm, p_d, p_v: without rm or without d, importance ties on the lattice
_WEIGHTS = ("0.5 0.3 0.2", "0.0 0.5 0.5", "0.0 0.0 1.0", "0.0 1.0 0.0", "1.0 0.0 0.0")
_HEADER = "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms"


def _lattice(lo: int, hi: int):
    """A multiple of 1/8 m between lo/8 and hi/8."""
    return st.integers(lo, hi).map(lambda i: i / 8)


@st.composite
def scenarios(draw):
    """Scene, trajectory and config text of one small replay."""
    tick_ms = draw(st.sampled_from((20, 30, 40)))
    n_ticks = draw(st.integers(1, 40))
    end = (n_ticks - 1) * tick_ms if n_ticks > 1 else tick_ms // 2  # one tick when the span is below tick_ms
    # sample times: both ends and lattice points of a random spacing, at least three
    gap = draw(st.sampled_from((10, 20, 40, 60, 80)))
    times = sorted({0, end, end // 2, *range(0, end, gap)})
    heading = draw(st.integers(0, 7))
    camera = (0.0, 1.5, 0.0)
    rows = []
    for t in times:
        heading = (heading + draw(st.sampled_from((0, 0, 1, -1, 2, -2)))) % 8  # never a half turn
        if draw(st.booleans()):
            camera = (draw(_lattice(-8, 8)), 1.5 + draw(_lattice(-4, 4)), draw(_lattice(-8, 8)))
        rows.append(" ".join(map(repr, (float(t), *camera, *_HEADINGS[heading], 0.0, 1.0, 0.0, 90.0))) + " 1 11.1")

    objects, offsets = [], []
    for _ in range(draw(st.integers(0, 24))):
        if offsets and draw(st.booleans()):  # a mirror of an earlier offset, at the same distance
            x, y, z = draw(st.sampled_from(offsets))
            x, z = draw(st.sampled_from(((-x, z), (x, -z), (z, x), (-z, -x))))
        else:
            x, y, z = draw(_lattice(-64, 64)), draw(_lattice(-16, 16)), draw(_lattice(-160, 160))
            offsets.append((x, y, z))
        sphere = (x, 1.5 + y, z, draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))), draw(st.sampled_from((0.0, 0.5, 1.0))))
        objects += [sphere] * draw(st.sampled_from((1, 1, 1, 2)))  # a coincident twin takes the next id
    if draw(st.booleans()):  # a sphere that holds the camera of the first sample
        objects.append((0.0, 1.5, 0.0, 2.0, draw(st.sampled_from((0.0, 1.0)))))
    # the ray cone of the first tick, which is the first sample's pose
    k, n, ray_half = draw(st.integers(1, 3)), draw(st.integers(3, 12)), draw(st.integers(5, 25))
    first = rows[0].split()
    rig = rig_from_pose(sample(0.0, Vec3(*map(float, first[1:4])), forward=Vec3(*map(float, first[4:7]))), 0.064)
    m, axis = Vec3(*rig.midpoint()), rig.forward.normalized()
    bundle = ray_bundle(RayConfig(k=k, n=n, half_angle=math.radians(ray_half)), rig)
    if draw(st.booleans()):  # touching the outermost rays
        rng = draw(st.randoms(use_true_random=False))
        objects += [(*c, draw(st.sampled_from((0.0, 0.5, 1.0)))) for c in
                    rng.sample(grazing_spheres(rng, m, axis, bundle, per_ray=1, reach_exp=(-0.5, 1.3)), k=min(n, 6))]
    if draw(st.booleans()):  # occluders along one ray, each nearer one smaller or larger
        d = Vec3(*bundle.directions[draw(st.integers(0, k * n - 1))].tolist())
        for dist in sorted(draw(st.lists(_lattice(4, 200), min_size=2, max_size=4, unique=True))):
            c = m + d * dist
            objects.append((c.x, c.y, c.z, draw(st.sampled_from((0.25, 0.5, 1.0, 2.0))), draw(st.sampled_from((0.0, 0.5, 1.0)))))
    ids = draw(st.lists(st.integers(1, 10_000), min_size=len(objects), max_size=len(objects), unique=True))
    scene = "".join(f"{oid} {' '.join(map(repr, obj))}\n" for oid, obj in zip(sorted(ids), objects))

    weights = draw(st.sampled_from(_WEIGHTS)).split()
    config = (f"tick_ms = {tick_ms}\nray_k = {k}\nray_n = {n}\n"
              f"ray_half_angle_deg = {ray_half}\nroi_half_angle_deg = {draw(st.integers(20, 60))}\n"
              f"roi_z_far_m = {draw(_lattice(40, 240))}\nrefocus_ms = {draw(st.sampled_from((100, 500)))}\n"
              f"persistence_hold_ms = {draw(st.sampled_from((0, 50, 300)))}\n"
              + "".join(f"{key} = {w}\n" for key, w in zip(("p_rm", "p_d", "p_v"), weights)))
    return scene, "\n".join([_HEADER, *rows]) + "\n", config, n_ticks


@given(scenario=scenarios())
@settings(_PROFILE)
def test_replays_match_the_reference(scenario):
    scene_text, traj_text, config_text, n_ticks = scenario
    select, seen = simulate.select_focus, []
    replay, replays = simulate.replay_focus, []

    def select_spy(scene, cams, rois, *args):
        win, candidates = select(scene, cams, rois, *args)
        winners = [candidates[w] if w >= 0 else None for w in win.tolist()]
        seen.extend(zip(zip(*(c.tolist() for c in cams)), zip(*(r.tolist() for r in rois)), winners, strict=True))
        return win, candidates

    def replay_spy(*args):
        replays.append(replay(*args))
        return replays[-1]

    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / f"{name}.txt") for name in ("scene", "traj", "config", "out")}
        for name, text in (("scene", scene_text), ("traj", traj_text), ("config", config_text)):
            Path(paths[name]).write_text(text, encoding="utf-8")
        simulate.select_focus, simulate.replay_focus = select_spy, replay_spy
        try:
            simulate.run_scenario(paths["scene"], paths["traj"], paths["config"], paths["out"])
        finally:
            simulate.select_focus, simulate.replay_focus = select, replay
        want = replay_by_rows(paths["scene"], paths["traj"], paths["config"])
        assert len(want.ticks) == n_ticks
        assert [winner for *_, winner in seen] == [tick.winner for tick in want.ticks]
        assert seen == [(camera_row(tick.rig), roi_row(tick.roi), tick.winner) for tick in want.ticks]
        assert replays == [focus_columns(want.ticks)]
        assert Path(paths["out"]).read_text(encoding="utf-8") == want.document
