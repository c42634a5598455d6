"""Scene configuration, run manifest and phase summary loading.

A scene config JSON pins everything site-specific: calibration
correspondences, area-of-interest polygon (image px), approach zone (world
meters), travel direction, tracker class ids, and all analysis thresholds. A
run manifest points a scene at one detection CSV set + recorded hours per
phase. A phase summary is the JSON `analyze` writes and `compare` reads.
Every number in them is read by `_number`, and every fault is a ConfigError
naming the file and the field. The simulation config is read in
`simulator`, with these field readers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import behavior, ingest, kinematics
from .analytics import Phase, PhaseSummary
from .behavior import MANEUVERS
from .errors import ConfigError
from .geometry import Correspondence, ImagePoint, WorldPoint
from .ingest import ClassLabel


@dataclass(frozen=True)
class Thresholds:
    """The analysis thresholds; each default is the one its stage declares."""

    stationary_m: float = ingest.DEFAULT_STATIONARY_M
    following_px: float = ingest.DEFAULT_FOLLOWING_PX
    following_frac: float = ingest.DEFAULT_FOLLOWING_FRAC
    direction_deg: float = ingest.DEFAULT_DIRECTION_DEG
    stopgo_mph: float = behavior.STOP_AND_GO_MPH
    slowdown_mph: float = behavior.SLOW_DOWN_MPH
    min_track_s: float = kinematics.DEFAULT_MIN_TRACK_S


@dataclass(frozen=True)
class SceneConfig:
    location_id: int
    name: str
    fps: float
    correspondences: tuple[Correspondence, ...]
    aoi_polygon: np.ndarray
    approach_zone: np.ndarray
    travel_direction: np.ndarray
    class_map: dict[int, ClassLabel]
    thresholds: Thresholds = field(default_factory=Thresholds)
    percentile_method: str = "interpolate"
    representative: str = "per_vehicle"
    v_mean_reduction: str = "min"
    intersection_type: str = "unsignalized"
    histogram_bin_mph: float = 1.0


@dataclass(frozen=True)
class PhaseInput:
    phase: Phase
    detection_paths: tuple[Path, ...]
    hours: float


@dataclass(frozen=True)
class RunManifest:
    scene_config_path: Path
    phases: tuple[PhaseInput, ...]


_JSON_KINDS = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _shaped(value, shape: type, path: str):
    """value itself when it is a JSON object, list or string as shape says."""
    if not isinstance(value, shape):
        raise ConfigError(f"{path}: expected {_JSON_KINDS[shape]}, got {_kind(value)}")
    return value


def _get(data: dict, key: str, path: str):
    if key not in _shaped(data, dict, path):
        raise ConfigError(f"{path}.{key}: missing")
    return data[key]


def _number(value, path: str, kind: type = float, positive: bool = True):
    """A JSON number read with kind (float, or int within the signed 64-bit
    range): finite, and above zero when positive. A numeric string is read
    like the number it spells; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected a number, got {_kind(value)}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{path}: expected a number, got {_short(repr(value))}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: {_short(repr(value))} is not a finite number")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{path}: expected an integer, got {_short(repr(value))}")
        try:
            number = int(value)  # exact for a JSON integer or an integer string
        except ValueError:  # a string such as "2.0" or "1e3"
            number = int(number)
        if not -(2**63) <= number < 2**63:
            raise ConfigError(f"{path}: {_short(repr(value))} is outside the 64-bit integer range")
    if positive and number <= 0:
        raise ConfigError(f"{path}: must be positive")
    return number


def _at_least_zero(value, path: str, kind: type = float):
    number = _number(value, path, kind, positive=False)
    if number < 0:
        raise ConfigError(f"{path}: must be >= 0")
    return number


def _short(text: str) -> str:
    return text if len(text) <= 24 else f"{text[:21]}..."


def _point(value, path: str) -> tuple[float, float]:
    pair = _shaped(value, list, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: expected [x, y], got {len(pair)} values")
    return tuple(_number(v, f"{path}[{i}]", positive=False) for i, v in enumerate(pair))


def _orient(a, b, c) -> np.ndarray:
    """Turn a -> b -> c of points (2,) or (m, 2): 1 left, -1 right, 0 within 1e-12."""
    (ax, ay), (bx, by), (cx, cy) = a.T, b.T, c.T
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.where(np.abs(v) < 1e-12, 0, np.where(v > 0, 1, -1))


def _is_simple_polygon(poly: np.ndarray) -> bool:
    """No two non-adjacent edges properly cross: each edge's endpoints lie
    strictly on opposite sides of the other (a zero orientation, touching or
    collinear, does not count). Each edge is tested against all later
    non-adjacent edges at once."""
    n = len(poly)
    heads = np.roll(poly, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2):
            later = slice(i + 2, n - 1 if i == 0 else n)  # edges 0 and n-1 share a vertex
            p1, p2, p3, p4 = poly[i], heads[i], poly[later], heads[later]
            straddles = _orient(p1, p2, p3) * _orient(p1, p2, p4) < 0
            if (straddles & (_orient(p3, p4, p1) * _orient(p3, p4, p2) < 0)).any():
                return False
    return True


def _polygon(data, path: str) -> np.ndarray:
    try:
        arr = np.array(_shaped(data, list, path), dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a list of [x, y] pairs") from None
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ConfigError(f"{path}: expected at least 3 [x, y] pairs")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: coordinates must be finite numbers")
    if not _is_simple_polygon(arr):
        raise ConfigError(f"{path}: polygon is self-intersecting")
    return arr


def _label(value, path: str) -> ClassLabel:
    try:
        return ClassLabel(value)
    except ValueError:
        raise ConfigError(f"{path}: unknown label {value!r}") from None


def _class_map(data, path: str) -> dict[int, ClassLabel]:
    class_map = {}
    for key, value in _shaped(data, dict, path).items():
        try:
            class_id = int(key)
        except ValueError:
            raise ConfigError(f"{path}.{key}: class id must be an integer") from None
        class_map[class_id] = _label(value, f"{path}.{key}")
    return class_map


def scene_config_from_dict(data: dict, path: str = "scene") -> SceneConfig:
    corr_raw = _get(data, "calibration", path)
    corr_path = f"{path}.calibration.correspondences"
    corr_list = _shaped(_get(corr_raw, "correspondences", f"{path}.calibration"), list, corr_path)
    corrs = []
    for i, c in enumerate(corr_list):
        cp = f"{corr_path}[{i}]"
        wx, wy = _point(_get(c, "world", cp), f"{cp}.world")
        iu, iv = _point(_get(c, "image", cp), f"{cp}.image")
        corrs.append(Correspondence(WorldPoint(wx, wy), ImagePoint(iu, iv)))
    if len(corrs) < 4:
        raise ConfigError(f"{corr_path}: need at least 4, got {len(corrs)}")

    fps = _number(_get(data, "fps", path), f"{path}.fps")

    direction = np.array(_point(_get(data, "travel_direction", path), f"{path}.travel_direction"))
    norm = float(np.hypot(direction[0], direction[1]))
    if norm == 0:
        raise ConfigError(f"{path}.travel_direction: must be nonzero")
    direction = direction / norm

    class_map = _class_map(_get(data, "class_map", path), f"{path}.class_map")

    raw = _shaped(data.get("thresholds", {}), dict, f"{path}.thresholds")
    unknown = set(raw) - set(Thresholds.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"{path}.thresholds: unknown keys {sorted(unknown)}")
    thresholds = Thresholds(**{k: _number(v, f"{path}.thresholds.{k}") for k, v in raw.items()})
    # the warm-up length ceil(fps * min_track_s) must be an integer
    if not math.isfinite(fps * thresholds.min_track_s):
        raise ConfigError(f"{path}.thresholds.min_track_s: fps x min_track_s is not finite")

    def _choice(key: str, options: tuple[str, ...], default: str) -> str:
        value = data.get(key, default)
        if value not in options:
            raise ConfigError(f"{path}.{key}: expected one of {options}, got {value!r}")
        return value

    return SceneConfig(
        location_id=_number(
            _get(data, "location_id", path), f"{path}.location_id", kind=int, positive=False
        ),
        name=_shaped(data.get("name", ""), str, f"{path}.name"),
        fps=fps,
        correspondences=tuple(corrs),
        aoi_polygon=_polygon(_get(data, "aoi_polygon", path), f"{path}.aoi_polygon"),
        approach_zone=_polygon(_get(data, "approach_zone", path), f"{path}.approach_zone"),
        travel_direction=direction,
        class_map=class_map,
        thresholds=thresholds,
        percentile_method=_choice("percentile_method", ("interpolate", "nearest_rank"), "interpolate"),
        representative=_choice("representative", ("per_vehicle", "per_sample"), "per_vehicle"),
        v_mean_reduction=_choice("v_mean_reduction", ("min", "mean"), "min"),
        intersection_type=_choice("intersection_type", ("unsignalized", "signalized"), "unsignalized"),
        histogram_bin_mph=_number(data.get("histogram_bin_mph", 1.0), f"{path}.histogram_bin_mph"),
    )


class _NonFinite(ValueError):
    pass


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals raise."""
    value = float(text)
    if not math.isfinite(value):
        raise _NonFinite(text)
    return value


def _float_sized_int(text: str) -> int:
    """JSON integer hook: a literal too large for a float raises, so every
    later float() of a config value is finite."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):  # ValueError: more digits than int() reads
        raise _NonFinite(text) from None
    return value


def read_json(path, what: str):
    """Parse a JSON input file. A missing file, text that is not UTF-8,
    invalid JSON, or a number that is not finite (NaN, Infinity, or a
    literal that overflows a float) raises ConfigError; what names the file
    in the not-found message."""
    path = Path(path)
    try:
        return json.loads(
            path.read_text(encoding="utf-8"),
            parse_constant=_finite_float,
            parse_float=_finite_float,
            parse_int=_float_sized_int,
        )
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    except _NonFinite as exc:
        raise ConfigError(f"{path}: {_short(str(exc))} is not a finite number") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_scene_config(path) -> SceneConfig:
    path = Path(path)
    return scene_config_from_dict(read_json(path, "scene config"), path.name)



def load_manifest(path) -> RunManifest:
    path = Path(path)
    data = read_json(path, "manifest")
    base = path.parent
    p = path.name
    scene_path = base / _shaped(_get(data, "scene_config", p), str, f"{p}.scene_config")
    phases_raw = _shaped(_get(data, "phases", p), list, f"{p}.phases")
    if not phases_raw:
        raise ConfigError(f"{p}.phases: need at least one phase")
    phases = []
    for i, entry in enumerate(phases_raw):
        pp = f"{p}.phases[{i}]"
        try:
            phase = Phase(_get(entry, "phase", pp))
        except ValueError:
            raise ConfigError(
                f"{pp}.phase: expected one of {[p.value for p in Phase]}"
            ) from None
        if any(p.phase is phase for p in phases):
            raise ConfigError(f"{pp}.phase: {phase.value} is listed twice")
        hours = _number(_get(entry, "hours", pp), f"{pp}.hours")
        detections = _shaped(_get(entry, "detections", pp), list, f"{pp}.detections")
        paths = []
        for j, name in enumerate(detections):
            csv = base / _shaped(name, str, f"{pp}.detections[{j}]")
            # checked here, so a missing file stops analyze before any report is written
            if not csv.is_file():
                raise ConfigError(f"{pp}.detections[{j}]: {csv} is not an existing file")
            paths.append(csv)
        if not paths:
            raise ConfigError(f"{pp}.detections: need at least one CSV path")
        phases.append(PhaseInput(phase, tuple(paths), hours))
    return RunManifest(scene_path, tuple(phases))


def load_summary(path, phase: Phase) -> PhaseSummary:
    """A phase summary JSON (PhaseSummary.to_json_dict's schema) read for
    phase's slot. The histogram, when given, sums to sample_count, and the
    maneuver shares, when given, hold each class once and sum to 100."""
    path = Path(path)
    data = read_json(path, "summary")
    p = path.name
    found = _get(data, "phase", p)
    if found != phase.value:
        raise ConfigError(f"{p}.phase: expected {phase.value!r}, got {_short(repr(found))}")
    location = _number(_get(data, "location_id", p), f"{p}.location_id", kind=int, positive=False)
    count = _at_least_zero(_get(data, "sample_count", p), f"{p}.sample_count", kind=int)
    hours = _number(_get(data, "hours", p), f"{p}.hours")

    def speed(key: str) -> float | None:
        value = _get(data, key, p)
        return None if value is None else _at_least_zero(value, f"{p}.{key}")

    histogram = None
    if "histogram" in data:
        hp = f"{p}.histogram"
        histogram = tuple(
            (_number(_get(b, "bin_lo", f"{hp}[{i}]"), f"{hp}[{i}].bin_lo", positive=False),
             _at_least_zero(_get(b, "count", f"{hp}[{i}]"), f"{hp}[{i}].count", kind=int))
            for i, b in enumerate(_shaped(data["histogram"], list, hp))
        )
        total = sum(c for _, c in histogram)
        if total != count:
            raise ConfigError(f"{hp}: counts sum to {total}, sample_count is {count}")
    shares = None
    if "maneuvers" in data:
        mp = f"{p}.maneuvers"
        names = sorted(m.value for m in MANEUVERS)
        if sorted(_shaped(data["maneuvers"], dict, mp)) != names:
            raise ConfigError(f"{mp}: expected the keys {names}, got {sorted(data['maneuvers'])}")
        shares = {k: _at_least_zero(data["maneuvers"][k], f"{mp}.{k}") for k in names}
        for k in names:
            if shares[k] > 100:
                raise ConfigError(f"{mp}.{k}: must be <= 100")
        if abs(sum(shares.values()) - 100) > 1e-6:
            raise ConfigError(f"{mp}: shares sum to {sum(shares.values())!r}, not 100")
    return PhaseSummary(
        location, phase, count, hours, speed("mean_mph"), speed("p85_mph"), histogram, shares
    )
