"""speedstudy: calibrated vehicle speeds and before/after intervention
reports from fixed-camera multi-object-tracker output."""

from .analytics import (
    ComparisonRow,
    Phase,
    PhaseSummary,
    build_phase_summary,
    compare_phases,
    delta_mismatches,
    histogram,
    mean_speed,
    percent_change,
    percentile_85,
)
from .behavior import (
    MANEUVERS,
    ManeuverClass,
    ManeuverTable,
    approach_speeds,
    classify_maneuvers,
)
from .geometry import (
    Correspondence,
    Homography,
    ImagePoint,
    WorldPoint,
    reprojection_rmse,
    solve_homography,
)
from .ingest import (
    ClassLabel,
    Detection,
    DetectionTable,
    TrackTable,
    anchor_points,
    assemble_tracks,
    clip_to_aoi,
    filter_direction,
    filter_following,
    filter_stationary,
    filter_vehicle_type,
    parse_track_file,
    run_filter_cascade,
    serialize_detections,
)
from .kinematics import (
    MPS_TO_MPH,
    KinematicsTable,
    to_world_track,
    track_kinematics,
)

__version__ = "0.1.0"

# The simulator serves `simulate` and the tests, not analysis, so it is
# imported on first use of one of these names (PEP 562).
_SIMULATOR_NAMES = frozenset({
    "Constant",
    "GroundTruth",
    "PiecewiseLinear",
    "SyntheticVehicle",
    "TrapezoidStop",
    "example_roadside_homography",
    "render_scene",
})


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def backend_name() -> str:
    """The numeric backend the kernels run on."""
    return "numpy"
