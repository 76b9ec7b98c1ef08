"""focusray: deterministic dynamic-focus selection for stereo HMD rigs.

A headless, engine-agnostic library plus CLI covering four jobs: selecting
the focus object in a 3D scene via a weighted metric-ray cone and an
importance heuristic, smoothing per-tick selections into a continuous
focal-distance signal, auditing recorded camera trajectories against
comfort guidelines, and scoring simulator sickness questionnaires.
"""

from types import ModuleType as _ModuleType

from .attention import Candidates, FocusCandidate, HeuristicWeights, select_focus
from .comfort import (
    ComfortConfig,
    ComfortFinding,
    ComfortReport,
    ComfortRule,
    Trajectory,
    TrajectorySample,
    analyze_trajectory,
)
from .config import SimConfig
from .dynamics import (
    BlurConfig,
    DynamicsConfig,
    FocusSelection,
    FocusState,
    Transition,
    advance,
    apply_selection,
    blur_amount,
    scan_focus,
    step,
)
from .errors import FocusrayError, GeometryError, OutputError, ParseError, ValidationError
from .io_formats import (
    format_real,
    parse_config,
    parse_profile,
    parse_scene,
    parse_ssq_response,
    parse_trajectory,
    render_comfort_section,
    render_config_section,
    render_document,
    render_ssq_section,
    render_timeline_section,
    write_document,
)
from .geometry import (
    CameraRows,
    MidCamera,
    PreparedScene,
    Roi,
    RoiRows,
    SceneObject,
    StereoRig,
    Vec3,
    derive_mid_camera,
    prepare_scene,
    roi_mask,
)
from .rays import (
    GOLDEN_ANGLE,
    RayBundle,
    RayConfig,
    layer_weight,
    ray_bundle,
)
from .simulate import level_for_score, resample, rig_from_pose, run_scenario, score_ssq_files
from .ssq import (
    DISORIENTATION_SYMPTOMS,
    NAUSEA_SYMPTOMS,
    OCULOMOTOR_SYMPTOMS,
    Profile,
    ProtocolReport,
    SsqResponse,
    SsqScore,
    SYMPTOM_NAMES,
    protocol_report,
    score_questionnaire,
)

__version__ = "0.1.0"

# every name imported above; the submodules themselves are not part of the API
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
