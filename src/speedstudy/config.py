"""Scene configuration and run manifest loading, and the JSON field readers.

A scene config JSON pins everything site-specific: calibration
correspondences, area-of-interest polygon (image px), approach zone (world
meters), travel direction, tracker class ids, and the filter thresholds,
read into the cascade's own record `ingest.Thresholds`, which holds their
defaults. A run manifest points a scene at one detection CSV set + recorded
hours per phase. Every number in the two is read by `_number`, and every
fault is a ConfigError naming the file and the field. Two other inputs are
read with these field readers where they are used: the phase summary that
`analyze` writes and `compare` reads (`compare.load_summary`), and the
simulation config (`simulator`). The records read here are NamedTuples:
immutable, compared by value, and cheaper to define than dataclasses.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analytics import Phase
from .errors import ConfigError
from .geometry import Correspondence, ImagePoint, WorldPoint
from .ingest import ClassLabel, Thresholds

# the scene's intersection_type values; the first is the default
INTERSECTION_TYPES = ("unsignalized", "signalized")


class SceneConfig(NamedTuple):
    location_id: int
    name: str
    fps: float
    correspondences: tuple[Correspondence, ...]
    aoi_polygon: np.ndarray
    approach_zone: np.ndarray
    travel_direction: np.ndarray
    class_map: dict[int, ClassLabel]
    thresholds: Thresholds = Thresholds()
    intersection_type: str = INTERSECTION_TYPES[0]


class PhaseInput(NamedTuple):
    phase: Phase
    detection_paths: tuple[Path, ...]
    hours: float


class RunManifest(NamedTuple):
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


def _known(data, keys, path: str) -> dict:
    """data itself when it is a JSON object holding no key outside keys."""
    unknown = set(_shaped(data, dict, path)) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return data


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
    """Class id -> label; two keys naming one id (such as "1" and "01") are refused."""
    class_map, keys = {}, {}
    for key, value in _shaped(data, dict, path).items():
        try:
            class_id = int(key)
        except ValueError:
            raise ConfigError(f"{path}.{key}: class id must be an integer") from None
        if class_id in keys:
            raise ConfigError(
                f"{path}: keys {keys[class_id]!r} and {key!r} both name class id {class_id}"
            )
        keys[class_id] = key
        class_map[class_id] = _label(value, f"{path}.{key}")
    return class_map


# the scene JSON's keys: SceneConfig's fields, with the correspondences under calibration
_SCENE_KEYS = ("calibration", *(f for f in SceneConfig._fields if f != "correspondences"))


def scene_config_from_dict(data: dict, path: str = "scene") -> SceneConfig:
    _known(data, _SCENE_KEYS, path)
    corr_raw = _known(_get(data, "calibration", path), ("correspondences",), f"{path}.calibration")
    corr_path = f"{path}.calibration.correspondences"
    corr_list = _shaped(_get(corr_raw, "correspondences", f"{path}.calibration"), list, corr_path)
    corrs = []
    for i, c in enumerate(corr_list):
        cp = f"{corr_path}[{i}]"
        _known(c, ("world", "image"), cp)
        wx, wy = _point(_get(c, "world", cp), f"{cp}.world")
        iu, iv = _point(_get(c, "image", cp), f"{cp}.image")
        corrs.append(Correspondence(WorldPoint(wx, wy), ImagePoint(iu, iv)))
    if len(corrs) < 4:
        raise ConfigError(f"{corr_path}: need at least 4, got {len(corrs)}")

    fps = _number(_get(data, "fps", path), f"{path}.fps")

    direction = np.array(_point(_get(data, "travel_direction", path), f"{path}.travel_direction"))
    if not direction.any():
        raise ConfigError(f"{path}.travel_direction: must be nonzero")
    # scaled exactly, by a power of two, to below 1 so that hypot cannot overflow
    direction = np.ldexp(direction, -np.frexp(np.abs(direction).max())[1])
    direction = direction / np.hypot(*direction)

    class_map = _class_map(_get(data, "class_map", path), f"{path}.class_map")

    raw = _known(data.get("thresholds", {}), Thresholds._fields, f"{path}.thresholds")
    thresholds = Thresholds(**{k: _number(v, f"{path}.thresholds.{k}") for k, v in raw.items()})

    kind = data.get("intersection_type", INTERSECTION_TYPES[0])
    if kind not in INTERSECTION_TYPES:
        raise ConfigError(f"{path}.intersection_type: expected one of {INTERSECTION_TYPES}, got {kind!r}")

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
        intersection_type=kind,
    )


class _Refused(ValueError):
    """A JSON hook's refusal; its text follows the file name in the message."""


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals raise."""
    value = float(text)
    if not math.isfinite(value):
        raise _Refused(f"{_short(text)} is not a finite number")
    return value


def _float_sized_int(text: str) -> int:
    """JSON integer hook: a literal too large for a float raises, so every
    later float() of a config value is finite."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):  # ValueError: more digits than int() reads
        raise _Refused(f"{_short(text)} is not a finite number") from None
    return value


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a key given twice in one object raises (json.loads keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise _Refused(f"key {_short(repr(key))} is given twice in one object")
        data[key] = value
    return data


def read_json(path, what: str):
    """Parse a JSON input file. A missing file, text that is not UTF-8,
    invalid JSON, a key given twice in one object, or a number that is not
    finite (NaN, Infinity, or a literal that overflows a float) raises
    ConfigError; what names the file in the not-found message."""
    path = Path(path)
    try:
        return json.loads(
            path.read_text(encoding="utf-8"),
            object_pairs_hook=_unique_keys,
            parse_constant=_finite_float,
            parse_float=_finite_float,
            parse_int=_float_sized_int,
        )
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    except _Refused as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_scene_config(path) -> SceneConfig:
    path = Path(path)
    return scene_config_from_dict(read_json(path, "scene config"), path.name)


def load_manifest(path) -> RunManifest:
    path = Path(path)
    p = path.name
    data = _known(read_json(path, "manifest"), ("scene_config", "phases"), p)
    base = path.parent
    scene_path = base / _shaped(_get(data, "scene_config", p), str, f"{p}.scene_config")
    phases_raw = _shaped(_get(data, "phases", p), list, f"{p}.phases")
    if not phases_raw:
        raise ConfigError(f"{p}.phases: need at least one phase")
    phases = []
    for i, entry in enumerate(phases_raw):
        pp = f"{p}.phases[{i}]"
        _known(entry, ("phase", "hours", "detections"), pp)
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
        paths, first = [], {}
        for j, name in enumerate(detections):
            csv = base / _shaped(name, str, f"{pp}.detections[{j}]")
            # checked here, so a missing or repeated file stops analyze before any report is written
            if not csv.is_file():
                raise ConfigError(f"{pp}.detections[{j}]: {csv} is not an existing file")
            k = first.setdefault(csv.resolve(), j)
            if k != j:
                raise ConfigError(f"{pp}.detections[{j}]: {csv} repeats detections[{k}]")
            paths.append(csv)
        if not paths:
            raise ConfigError(f"{pp}.detections: need at least one CSV path")
        phases.append(PhaseInput(phase, tuple(paths), hours))
    return RunManifest(scene_path, tuple(phases))
