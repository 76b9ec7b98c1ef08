"""Child processes of the benchmark; each mode runs in a fresh interpreter.

    worker.py live  WORKDIR OUT [--trace]
        The frame loop a renderer runs: parse scene.txt, frames.txt and config.txt, then
        per frame rig_from_pose -> derive_mid_camera -> select_focus -> step,
        timing each frame. Writes latencies, the moment set-up finished and a
        digest of the winner sequence to OUT as JSON.
    worker.py cli   OUT -- ARGS...
        `focusray` ARGS in process with the tracer installed; writes the
        tracer dump to OUT and exits with the CLI's code.
    worker.py c9
        The selection micro-benchmark of acceptance criterion 9; prints evals/s.

Only the package-level API is used, looked up at call time, so the tracer's
wrappers are seen when they are installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time


def live(workdir: str, out: str, traced: bool) -> int:
    import focusray as fr

    tracer = None
    if traced:
        import spans

        tracer = spans.install()
    scene = fr.parse_scene(f"{workdir}/scene.txt")
    poses = fr.parse_trajectory(f"{workdir}/frames.txt")
    cfg = fr.parse_config(f"{workdir}/config.txt")
    ready_ns = time.monotonic_ns()
    result: dict = {"ready_ns": ready_ns}
    ray_cfg, weights, dyn_cfg = cfg.ray_config(), cfg.heuristic_weights(), cfg.dynamics_config()
    roi_half = math.radians(cfg.roi_half_angle_deg)
    center_of = {obj.id: obj.center for obj in scene}
    state = fr.FocusState.initial()
    latencies = []
    winners = []
    clock = time.perf_counter_ns
    for pose in poses:
        start = clock()
        rig = fr.rig_from_pose(pose, cfg.ipd_m)
        cam = fr.derive_mid_camera(rig)
        roi = fr.Roi(apex=cam.m, axis=cam.forward, half_angle=roi_half, z_far=cfg.roi_z_far_m)
        winner, _ = fr.select_focus(scene, rig, roi, ray_cfg, weights)
        selection = None
        if winner is not None:
            selection = fr.FocusSelection(winner.object_id, center_of[winner.object_id].distance_to(cam.m))
        state = fr.step(state, selection, cfg.tick_ms, dyn_cfg)
        latencies.append(clock() - start)
        winners.append(f"{winner.object_id if winner else ''},{state.focal_distance!r}")
    result["latency_ns"] = latencies
    result["winners_sha256"] = hashlib.sha256("\n".join(winners).encode()).hexdigest()
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.dump()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def cli(out: str, argv: list[str]) -> int:
    import spans

    tracer = spans.install()
    import focusray.cli

    rc = focusray.cli.main(argv)
    tracer.restore()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return rc


def c9(window_s: float = 1.5) -> int:
    """Rebuilt as in the criterion: 100 objects from random.Random(9), k=4, n=64."""
    import random

    import focusray as fr

    rng = random.Random(9)
    scene = []
    for i in range(1, 101):
        theta = rng.uniform(0.0, 0.4)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(3.0, 80.0)
        center = fr.Vec3(dist * math.sin(theta) * math.cos(phi), dist * math.sin(theta) * math.sin(phi),
                         -dist * math.cos(theta))
        scene.append(fr.SceneObject(id=i, center=center, radius=rng.uniform(0.3, 3.0), value=rng.uniform(0.0, 1.0)))
    forward, up = fr.Vec3(0.0, 0.0, -1.0), fr.Vec3(0.0, 1.0, 0.0)
    rig = fr.StereoRig(ol=fr.Vec3(-0.032, 0.0, 0.0), or_=fr.Vec3(0.032, 0.0, 0.0), up=up, forward=forward)
    roi = fr.Roi(apex=fr.Vec3(0.0, 0.0, 0.0), axis=forward, half_angle=math.radians(30.0), z_far=100.0)
    ray_cfg = fr.RayConfig(k=4, n=64, half_angle=math.radians(20.0))
    weights = fr.HeuristicWeights(p_rm=0.5, p_d=0.3, p_v=0.2)
    fr.select_focus(scene, rig, roi, ray_cfg, weights)
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < window_s:
        fr.select_focus(scene, rig, roi, ray_cfg, weights)
        count += 1
    print(count / (time.perf_counter() - start))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "live":
        flags = {a for a in rest if a.startswith("--")}
        workdir, out = (a for a in rest if not a.startswith("--"))
        return live(workdir, out, "--trace" in flags)
    if mode == "cli":
        return cli(rest[0], rest[2:])
    if mode == "c9":
        return c9()
    print(f"worker: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
