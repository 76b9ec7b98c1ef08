"""The public surface of the package, pinned: a name added to or removed
from `focusray` changes this list in the same diff."""

import focusray

PUBLIC = (
    "BlurConfig", "CameraRows", "Candidates", "ComfortConfig", "ComfortFinding", "ComfortReport", "ComfortRule",
    "DISORIENTATION_SYMPTOMS", "DynamicsConfig", "FocusCandidate", "FocusSelection", "FocusState", "FocusrayError",
    "GOLDEN_ANGLE", "GeometryError", "HeuristicWeights", "MidCamera", "NAUSEA_SYMPTOMS", "OCULOMOTOR_SYMPTOMS",
    "OutputError", "ParseError", "PreparedScene", "Profile", "ProtocolReport", "RayBundle",
    "RayConfig", "Roi", "RoiRows", "SYMPTOM_NAMES", "SceneObject", "SimConfig", "SsqResponse", "SsqScore",
    "StereoRig", "Trajectory", "TrajectorySample", "Transition", "ValidationError", "Vec3", "advance",
    "analyze_trajectory", "apply_selection", "blur_amount", "derive_mid_camera", "format_real", "layer_weight",
    "level_for_score", "parse_config", "parse_profile", "parse_scene", "parse_ssq_response", "parse_trajectory",
    "prepare_scene", "protocol_report", "ray_bundle", "render_comfort_section", "render_config_section",
    "render_document", "render_ssq_section", "render_timeline_section", "resample", "rig_from_pose", "roi_mask",
    "run_scenario", "scan_focus", "score_questionnaire", "score_ssq_files", "select_focus", "step", "write_document",
)


def test_public_names_are_pinned():
    assert tuple(focusray.__all__) == PUBLIC
