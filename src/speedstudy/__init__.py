"""speedstudy: calibrated vehicle speeds and before/after intervention
reports from fixed-camera multi-object-tracker output."""

import importlib

from .analytics import (
    Phase,
    PhaseSummary,
    build_phase_summary,
    histogram,
    mean_speed,
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
)
from .kinematics import (
    MPS_TO_MPH,
    KinematicsTable,
    to_world_track,
    track_kinematics,
)

__version__ = "0.1.0"

# Modules that only some commands need are imported on first use of one of
# their names here (PEP 562): the simulator serves `simulate` and the tests,
# the before/after comparison serves `compare`.
_LAZY_NAMES = {
    **dict.fromkeys((
        "Constant",
        "Detection",
        "GroundTruth",
        "PiecewiseLinear",
        "SyntheticVehicle",
        "TrapezoidStop",
        "example_roadside_homography",
        "render_scene",
        "serialize_detections",
    ), "simulator"),
    **dict.fromkeys(("ComparisonRow", "compare_phases", "delta_mismatches", "percent_change"), "compare"),
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def backend_name() -> str:
    """The numeric backend the kernels run on."""
    return "numpy"
