"""Synthetic scenes with known trajectories, rendered through a known
homography into detection CSV rows, and the simulation config that
describes them.

Every profile reduces to a piecewise-linear speed curve, so distances come
from exact closed-form integration (quadratic within each segment). Rendering
projects the true road position into the image, adds optional Gaussian anchor
jitter, and wraps a bounding box around the anchor so the bottom center lands
on it exactly. Fixed seeds give byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .behavior import MANEUVERS, ManeuverClass, classify_maneuvers
from .config import (
    _at_least_zero, _class_map, _get, _known, _label, _number, _point, _polygon, _shaped, read_json
)
from .errors import AtInfinity, ConfigError, DegenerateConfiguration
from .geometry import (
    INFINITY_TOL,
    Correspondence,
    Homography,
    ImagePoint,
    WorldPoint,
    project_points,
    solve_homography,
)
from .ingest import ClassLabel
from .kinematics import MPS_TO_MPH

DEFAULT_CLASS_MAP = {
    1: ClassLabel.CAR,
    2: ClassLabel.BUS,
    3: ClassLabel.TRUCK,
    4: ClassLabel.MOTORCYCLE,
    5: ClassLabel.BICYCLE,
    6: ClassLabel.PEDESTRIAN,
    7: ClassLabel.OTHER,
}
_RENDER_CONF = 0.9


@dataclass(frozen=True)
class Constant:
    v_mph: float

    def __post_init__(self):
        if self.v_mph < 0:
            raise ValueError(f"speed must be >= 0, got {self.v_mph}")


@dataclass(frozen=True)
class TrapezoidStop:
    """Brake from free-flow to a complete stop, dwell, then accelerate back.

    Braking starts at the profile's t=0; the stop point therefore sits
    v_free^2 / (2 * decel) meters past the path start.
    """

    v_free_mph: float
    decel_ms2: float
    dwell_s: float
    accel_ms2: float

    def __post_init__(self):
        if self.v_free_mph <= 0:
            raise ValueError(f"free-flow speed must be > 0, got {self.v_free_mph}")
        if self.decel_ms2 <= 0 or self.accel_ms2 <= 0:
            raise ValueError("decel and accel must be > 0")
        if self.dwell_s < 0:
            raise ValueError(f"dwell must be >= 0, got {self.dwell_s}")


@dataclass(frozen=True)
class PiecewiseLinear:
    """Speed ramps linearly between (time s, speed mph) knots and holds flat
    outside them."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.knots:
            raise ValueError("need at least one knot")
        times = [t for t, _ in self.knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")
        if any(v < 0 for _, v in self.knots):
            raise ValueError("speeds must be >= 0")


SpeedProfile = Constant | TrapezoidStop | PiecewiseLinear


def _profile_knots(profile: SpeedProfile) -> tuple[np.ndarray, np.ndarray]:
    """(times s, speeds m/s) knot arrays; speed holds flat beyond the ends."""
    if isinstance(profile, Constant):
        return np.array([0.0]), np.array([profile.v_mph / MPS_TO_MPH])
    if isinstance(profile, TrapezoidStop):
        v = profile.v_free_mph / MPS_TO_MPH
        t_stop = v / profile.decel_ms2
        t_go = t_stop + profile.dwell_s
        t_free = t_go + v / profile.accel_ms2
        if profile.dwell_s == 0:
            return np.array([0.0, t_stop, t_free]), np.array([v, 0.0, v])
        return np.array([0.0, t_stop, t_go, t_free]), np.array([v, 0.0, 0.0, v])
    if isinstance(profile, PiecewiseLinear):
        times = np.array([t for t, _ in profile.knots], dtype=np.float64)
        speeds = np.array([v / MPS_TO_MPH for _, v in profile.knots], dtype=np.float64)
        return times, speeds
    raise TypeError(f"unknown profile type {type(profile).__name__}")


def profile_motion(profile: SpeedProfile, times) -> tuple[np.ndarray, np.ndarray]:
    """Exact (distance m, speed m/s) at each queried time (t >= 0).

    The speed curve holds flat before the first knot and after the last, and
    distance integrates from t = 0.
    """
    t = np.maximum(np.asarray(times, dtype=np.float64), 0.0)
    kt, kv = _profile_knots(profile)
    speeds = np.interp(t, kt, kv)
    if len(kt) == 1:
        return kv[0] * t, speeds
    seg = np.diff(kt)
    slopes = np.diff(kv) / seg
    # cumulative distance at each knot; trapezoid areas are exact because the
    # speed curve is piecewise linear by construction
    knot_dist = kv[0] * kt[0] + np.concatenate(
        ([0.0], np.cumsum(0.5 * (kv[:-1] + kv[1:]) * seg))
    )
    idx = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, len(kt) - 2)
    dt = t - kt[idx]
    dist = knot_dist[idx] + kv[idx] * dt + 0.5 * slopes[idx] * dt * dt
    before = t <= kt[0]
    dist = np.where(before, kv[0] * t, dist)
    after = t >= kt[-1]
    dist = np.where(after, knot_dist[-1] + kv[-1] * (t - kt[-1]), dist)
    return dist, speeds


@dataclass(frozen=True)
class SyntheticVehicle:
    vehicle_id: int
    entry_time_s: float
    start: WorldPoint
    direction: tuple[float, float]  # unit vector, world frame
    profile: SpeedProfile
    bbox_px: tuple[float, float]  # width, height
    class_label: ClassLabel = ClassLabel.CAR
    max_distance_m: float | None = None  # stop rendering past this distance

    def __post_init__(self):
        norm = math.hypot(*self.direction)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")
        if self.bbox_px[0] <= 0 or self.bbox_px[1] <= 0:
            raise ValueError("bbox size must be positive")
        if self.entry_time_s < 0:
            raise ValueError("entry time must be >= 0")


@dataclass(frozen=True)
class VehicleTruth:
    vehicle_id: int
    frames: np.ndarray
    positions: np.ndarray  # (N, 2) world meters
    speeds_mph: np.ndarray
    maneuver: ManeuverClass


@dataclass(frozen=True)
class GroundTruth:
    vehicles: tuple[VehicleTruth, ...]

    def by_id(self) -> dict[int, VehicleTruth]:
        return {v.vehicle_id: v for v in self.vehicles}


@dataclass(frozen=True)
class Detection:
    """One tracker row; the simulator's output type (see ingest.DetectionTable)."""

    frame: int
    track_id: int
    bbox: tuple[float, float, float, float]  # left, top, width, height (px)
    confidence: float
    class_label: ClassLabel


def _true_maneuver(truth_speeds, positions, approach_zone) -> ManeuverClass:
    speeds = np.asarray(truth_speeds)
    if approach_zone is not None:
        inside = _kernels.points_in_polygon(positions, approach_zone)
        if inside.any():
            speeds = speeds[inside]
    return MANEUVERS[classify_maneuvers(speeds.min())]


def render_scene(
    vehicles,
    h_true: Homography,
    fps: float,
    duration: float,
    noise_sigma_px: float = 0.0,
    seed: int = 0,
    approach_zone=None,
) -> tuple[list[Detection], GroundTruth]:
    """Render vehicles into detections plus per-frame ground truth.

    Anchors get independent Gaussian jitter per axis; bounding boxes are laid
    out so their bottom center reproduces the jittered anchor exactly.
    Raises AtInfinity when a vehicle's true position leaves the valid
    projective region; constrain max_distance_m to stay inside it.
    """
    if noise_sigma_px < 0:
        raise ValueError("noise sigma must be >= 0")
    rng = np.random.default_rng(seed)
    h_mat = h_true.matrix
    last_frame = int(math.floor(duration * fps + 1e-9))
    detections: list[Detection] = []
    truths: list[VehicleTruth] = []
    for veh in sorted(vehicles, key=lambda v: v.vehicle_id):
        k0 = int(math.ceil(veh.entry_time_s * fps - 1e-9))
        frames = np.arange(k0, last_frame + 1, dtype=np.int64)
        if len(frames) == 0:
            continue
        dist, speed_ms = profile_motion(veh.profile, frames / fps - veh.entry_time_s)
        if veh.max_distance_m is not None:
            keep = dist <= veh.max_distance_m
            frames, dist, speed_ms = frames[keep], dist[keep], speed_ms[keep]
            if len(frames) == 0:
                continue
        direction = np.array(veh.direction, dtype=np.float64)
        positions = np.array([veh.start.x, veh.start.y]) + dist[:, np.newaxis] * direction
        den = h_mat[2, 0] * positions[:, 0] + h_mat[2, 1] * positions[:, 1] + h_mat[2, 2]
        # crossing the horizon flips the denominator's sign; a path is only
        # valid while it stays on one side of it
        if np.any(np.abs(den) < INFINITY_TOL) or (np.any(den > 0) and np.any(den < 0)):
            raise AtInfinity(
                f"vehicle {veh.vehicle_id} crosses the projective horizon; "
                "shorten max_distance_m or move its path"
            )
        anchors, _ = project_points(h_mat, positions)
        if noise_sigma_px > 0:
            anchors = anchors + rng.normal(0.0, noise_sigma_px, anchors.shape)
        bw, bh = veh.bbox_px
        for i, frame in enumerate(frames):
            u = float(anchors[i, 0])
            v = float(anchors[i, 1])
            detections.append(
                Detection(
                    frame=int(frame),
                    track_id=veh.vehicle_id,
                    bbox=(u - bw / 2.0, v - bh, bw, bh),
                    confidence=_RENDER_CONF,
                    class_label=veh.class_label,
                )
            )
        truths.append(
            VehicleTruth(
                vehicle_id=veh.vehicle_id,
                frames=frames,
                positions=positions,
                speeds_mph=speed_ms * MPS_TO_MPH,
                maneuver=_true_maneuver(speed_ms * MPS_TO_MPH, positions, approach_zone),
            )
        )
    detections.sort(key=lambda d: (d.frame, d.track_id))
    return detections, GroundTruth(tuple(truths))


def serialize_detections(detections, class_map: dict[int, ClassLabel]) -> str:
    """Inverse of ingest.parse_track_file; floats use repr so round trips are lossless."""
    reverse: dict[ClassLabel, int] = {}
    for class_id, label in class_map.items():
        reverse.setdefault(label, class_id)
    lines = []
    for d in detections:
        class_id = reverse[d.class_label]
        left, top, width, height = (float(v) for v in d.bbox)
        lines.append(
            f"{d.frame},{d.track_id},{left!r},{top!r},{width!r},{height!r},"
            f"{float(d.confidence)!r},{class_id}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def ground_truth_csv(truth: GroundTruth) -> str:
    """`id,frame,world_x_m,world_y_m,speed_mph,maneuver` rows, sorted by id."""
    lines = ["id,frame,world_x_m,world_y_m,speed_mph,maneuver"]
    for veh in truth.vehicles:
        for frame, pos, speed in zip(veh.frames, veh.positions, veh.speeds_mph):
            lines.append(
                f"{veh.vehicle_id},{int(frame)},{float(pos[0])!r},{float(pos[1])!r},"
                f"{float(speed)!r},{veh.maneuver.value}"
            )
    return "\n".join(lines) + "\n"


def example_roadside_homography() -> Homography:
    """A realistic elevated-camera view of a 60 m corridor, 10 m wide.

    Near-edge scale is roughly 90 px/m shrinking to about 20 px/m at the far
    end; the horizon sits well beyond x = 120 m, so paths within the corridor
    stay clear of the projective boundary.
    """
    corners = [
        ((0.0, -5.0), (500.0, 950.0)),
        ((0.0, 5.0), (1420.0, 950.0)),
        ((60.0, -5.0), (860.0, 340.0)),
        ((60.0, 5.0), (1060.0, 340.0)),
    ]
    return solve_homography(
        Correspondence(WorldPoint(*w), ImagePoint(*i)) for w, i in corners
    )


@dataclass(frozen=True)
class SimConfig:
    """What `simulate` renders: the true camera, the time span, the anchor
    noise and the vehicles."""

    homography: Homography
    fps: float
    duration_s: float
    noise_sigma_px: float
    approach_zone: np.ndarray | None  # world meters; None: no zone
    class_map: dict[int, ClassLabel]
    vehicles: tuple[SyntheticVehicle, ...]


# each profile kind's keys beside "kind"
_PROFILE_KEYS = {
    "constant": ("v_mph",),
    "trapezoid_stop": ("v_free_mph", "decel_ms2", "dwell_s", "accel_ms2"),
    "piecewise": ("knots",),
}
_VEHICLE_KEYS = (
    "id", "entry_time_s", "start", "direction", "profile", "bbox_px", "class_label", "max_distance_m"
)
_SIM_KEYS = (
    "homography_matrix", "fps", "duration_s", "noise_sigma_px", "approach_zone", "class_map", "vehicles"
)


def profile_from_dict(data, path: str) -> SpeedProfile:
    """A simulated vehicle's speed profile from its JSON form."""
    kind = _shaped(data, dict, path).get("kind")
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ConfigError(f"{path}.kind: expected {'|'.join(_PROFILE_KEYS)}, got {kind!r}")
    _known(data, ("kind", *_PROFILE_KEYS[kind]), path)

    def number(key: str) -> float:
        return _number(_get(data, key, path), f"{path}.{key}", positive=False)

    try:
        if kind == "constant":
            return Constant(number("v_mph"))
        if kind == "trapezoid_stop":
            return TrapezoidStop(
                number("v_free_mph"), number("decel_ms2"), number("dwell_s"), number("accel_ms2")
            )
        knots = _shaped(_get(data, "knots", path), list, f"{path}.knots")  # piecewise
        return PiecewiseLinear(
            tuple(_point(knot, f"{path}.knots[{i}]") for i, knot in enumerate(knots))
        )
    except ValueError as exc:  # the profile's own range checks
        raise ConfigError(f"{path}: {exc}") from None


def _vehicle(data, path: str, fps: float) -> SyntheticVehicle:
    _known(data, _VEHICLE_KEYS, path)
    dx, dy = _point(_get(data, "direction", path), f"{path}.direction")
    norm = float(np.hypot(dx, dy))
    if norm == 0:
        raise ConfigError(f"{path}.direction: must be nonzero")
    entry_time_s = _number(data.get("entry_time_s", 0.0), f"{path}.entry_time_s", positive=False)
    if not math.isfinite(entry_time_s * fps):
        raise ConfigError(f"{path}.entry_time_s: fps x entry_time_s is not finite")
    max_distance_m = data.get("max_distance_m")
    try:
        return SyntheticVehicle(
            vehicle_id=_number(_get(data, "id", path), f"{path}.id", kind=int),
            entry_time_s=entry_time_s,
            start=WorldPoint(*_point(_get(data, "start", path), f"{path}.start")),
            direction=(dx / norm, dy / norm),
            profile=profile_from_dict(_get(data, "profile", path), f"{path}.profile"),
            bbox_px=_point(_get(data, "bbox_px", path), f"{path}.bbox_px"),
            class_label=_label(data.get("class_label", "car"), f"{path}.class_label"),
            max_distance_m=(
                None if max_distance_m is None
                else _number(max_distance_m, f"{path}.max_distance_m")
            ),
        )
    except ValueError as exc:  # the vehicle's own range checks
        raise ConfigError(f"{path}: {exc}") from None


def sim_config_from_dict(data: dict, path: str) -> SimConfig:
    _known(data, _SIM_KEYS, path)
    matrix_path = f"{path}.homography_matrix"
    rows = _shaped(_get(data, "homography_matrix", path), list, matrix_path)
    if len(rows) != 3 or any(len(_shaped(r, list, f"{matrix_path}[{i}]")) != 3
                             for i, r in enumerate(rows)):
        raise ConfigError(f"{matrix_path}: expected 3 rows of 3 numbers")
    matrix = [
        [_number(v, f"{matrix_path}[{i}][{j}]", positive=False) for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]

    fps = _number(data.get("fps", 10.0), f"{path}.fps")
    duration_s = _number(_get(data, "duration_s", path), f"{path}.duration_s")
    if not math.isfinite(fps * duration_s):
        raise ConfigError(f"{path}.duration_s: fps x duration_s is not finite")
    sigma = _at_least_zero(data.get("noise_sigma_px", 0.0), f"{path}.noise_sigma_px")
    try:
        homography = Homography(np.array(matrix))
    except DegenerateConfiguration as exc:
        raise ConfigError(f"{matrix_path}: {exc}") from None
    zone = data.get("approach_zone")
    raw_map = data.get("class_map")
    class_map = DEFAULT_CLASS_MAP if raw_map is None else _class_map(raw_map, f"{path}.class_map")
    vehicles = _shaped(data.get("vehicles", []), list, f"{path}.vehicles")
    if not vehicles:
        raise ConfigError(f"{path}.vehicles: need at least one vehicle")
    vehicles = tuple(_vehicle(v, f"{path}.vehicles[{i}]", fps) for i, v in enumerate(vehicles))
    first_use: dict[int, int] = {}
    for i, v in enumerate(vehicles):
        # each id is one track of the detection CSV
        j = first_use.setdefault(v.vehicle_id, i)
        if j != i:
            raise ConfigError(
                f"{path}.vehicles[{i}].id: {v.vehicle_id} is already used by vehicles[{j}]"
            )
        # the detection CSV writes each label as a class id
        if v.class_label not in class_map.values():
            raise ConfigError(
                f"{path}.vehicles[{i}].class_label: {v.class_label.value!r} has no id in class_map"
            )
    return SimConfig(
        homography=homography,
        fps=fps,
        duration_s=duration_s,
        noise_sigma_px=sigma,
        approach_zone=None if zone is None else _polygon(zone, f"{path}.approach_zone"),
        class_map=class_map,
        vehicles=vehicles,
    )


def load_sim_config(path) -> SimConfig:
    path = Path(path)
    return sim_config_from_dict(read_json(path, "sim config"), path.name)
