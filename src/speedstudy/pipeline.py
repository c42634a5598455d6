"""End-to-end per-recording and per-phase processing.

One recording (a single detection CSV) runs parse -> assemble -> filter
cascade -> world-plane kinematics -> maneuver classification. A phase is a
plain stream of its recordings' results, one at a time (process_phase);
summarize_phase pools the per-vehicle speeds and maneuver codes its caller
kept from them into one PhaseSummary. Track ids are only unique within a
recording, which is why recordings are processed independently and
exported separately.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .analytics import PhaseSummary, build_phase_summary
from .behavior import MANEUVERS, ManeuverTable, observe_maneuvers
from .config import PhaseInput, SceneConfig
from .geometry import Homography
from .ingest import (
    CASCADE_STAGES, DetectionTable, assemble_tracks, parse_track_file, run_filter_cascade, surviving,
)
from .kinematics import KinematicsTable, to_world_track, track_kinematics

log = logging.getLogger(__name__)

FATES = ("kept", *CASCADE_STAGES, "unprojectable", "no_kinematics")  # fate code -> name

# the report CSVs' speeds: each within 5e-12 (relative) of its float64, far
# finer than the ~0.6% a pixel of calibration error moves a speed, and about
# a third of the time `%r` takes. The summary JSON keeps full `repr`.
SPEED_FORMAT = "%.12g"


class RecordingResult(NamedTuple):
    source: str
    raw_rows: int
    kinematics: KinematicsTable
    maneuvers: ManeuverTable | None
    fates: np.ndarray  # (T,) int8 code into FATES per assembled track, read-only


def process_detections(
    detections: DetectionTable, cfg: SceneConfig, h: Homography, source: str = "<memory>"
) -> RecordingResult:
    """Run the full analysis over one recording's parsed detections.

    Each table is handed on through `held`, with no name bound to it, so
    the parsed rows are freed during assembly and the assembled tracks once
    the cascade's first stage has its output. (CPython 3.11 and later hand
    a call's arguments over to the callee; older versions keep them on the
    caller's stack until the call returns.)
    """
    raw_rows = len(detections)
    held = [detections]
    del detections
    held.append(assemble_tracks(held.pop(), h))
    survivors, fates = run_filter_cascade(
        held.pop(), cfg.aoi_polygon, cfg.travel_direction, h, cfg.thresholds
    )

    world = to_world_track(survivors)
    kins = track_kinematics(world, cfg.fps)
    # a survivor missing from world is unprojectable, else from kins no_kinematics
    lost = [~surviving(survivors.track_ids, t.track_ids) for t in (world, kins)]
    codes = [FATES.index("unprojectable"), FATES.index("no_kinematics")]
    fates[fates == 0] = np.select(lost, codes)
    fates.setflags(write=False)

    maneuvers = None
    if cfg.intersection_type == "unsignalized":
        maneuvers = observe_maneuvers(kins, cfg.approach_zone)
    return RecordingResult(source, raw_rows, kins, maneuvers, fates)


def process_recording(path, cfg: SceneConfig, h: Homography) -> RecordingResult:
    # unnamed, so process_detections can free the parsed rows (see there)
    return process_detections(parse_track_file(path, cfg.class_map), cfg, h, source=str(path))


def process_phase(
    phase_input: PhaseInput, cfg: SceneConfig, h: Homography
) -> Iterator[RecordingResult]:
    """Yield each of a phase's recordings' results as soon as it exists. A
    caller that lets go of each result before asking for the next holds one
    recording's tables at a time."""
    for path in phase_input.detection_paths:
        yield process_recording(path, cfg, h)


def summarize_phase(
    phase_input: PhaseInput, cfg: SceneConfig, speeds, maneuvers, raw_rows: int
) -> PhaseSummary:
    """The phase's summary from its recordings' representative speeds and
    maneuver codes (one array per recording; no maneuver arrays at a
    signalized site) and its raw detection row count, which is logged."""
    summary = build_phase_summary(
        cfg.location_id,
        phase_input.phase,
        np.concatenate(speeds),
        phase_input.hours,
        maneuvers=np.concatenate(maneuvers) if maneuvers else None,
    )
    if not summary.sample_count:
        log.warning("phase %s: no vehicles survived; writing empty report", phase_input.phase.value)
    log.info(
        "phase %s: %d raw rows, %d vehicles in summary",
        phase_input.phase.value,
        raw_rows,
        summary.sample_count,
    )
    return summary


def filter_counts(fates: np.ndarray) -> dict[str, int]:
    """The filter_counts.json object of one recording's fate codes."""
    counts = dict(zip(FATES, np.bincount(fates, minlength=len(FATES)).tolist()))
    lost = {fate: counts.pop(fate) for fate in ("unprojectable", "no_kinematics")}
    surviving = counts.pop("kept") + sum(lost.values())
    return {"input": len(fates), **counts, "surviving": surviving, **lost}


def kinematics_csv(kins: KinematicsTable) -> str:
    """Sample rows plus one `track_id,summary,<mean mph>,<n samples>` row per
    track (the literal 'summary' sits in the frame column). Speeds are
    written to 12 significant digits (SPEED_FORMAT). Whole tracks are
    written up to _BLOCK_ROWS rows at a time (a longer track is a block of
    its own), so the working set stays a fraction of the text."""
    chunks = ["track_id,frame,speed_mph,window_frames\n"]
    offsets = kins.offsets.tolist()
    lengths = np.diff(kins.offsets)
    row_ends = kins.offsets[1:] + np.arange(1, len(lengths) + 1)  # one past each summary row
    a = 0
    while a < len(lengths):
        b = max(a + 1, int(np.searchsorted(row_ends, offsets[a] + a + _BLOCK_ROWS, side="right")))
        s, t = offsets[a], offsets[b]
        ends = kins.offsets[a + 1:b + 1] - s  # each track's summary row goes after its samples
        chunks.append(_lines(t - s + b - a, [
            _int_field(np.repeat(kins.track_ids[a:b], lengths[a:b] + 1)),
            _with_text(_int_field(np.insert(kins.frames[s:t], ends, 0)), ends + np.arange(b - a),
                       ["summary"]),
            _speed_field(np.insert(kins.speeds_mph[s:t], ends, kins.representative_mph[a:b])),
            _int_field(np.insert(kins.window_frames[s:t], ends, lengths[a:b])),
        ]))
        a = b
    return "".join(chunks)


def maneuvers_csv(maneuvers: ManeuverTable) -> str:
    chunks = ["track_id,v_mean_mph,class\n"]
    for a in range(0, len(maneuvers.track_ids), _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        names = _CLASS_NAMES.take(maneuvers.classes[rows], axis=0)
        chunks.append(_lines(len(names), [
            _int_field(maneuvers.track_ids[rows]),
            _speed_field(maneuvers.v_mean_mph[rows]),
            (names.shape[1], lambda dst: np.copyto(dst, names)),
        ]))
    return "".join(chunks)


# The report CSVs are built a block of rows at a time as one uint8 matrix,
# each field a fixed-width column of ASCII padded with NUL bytes, which
# _lines drops. A field is (width, write): write(dst) fills an (n, width)
# view. Digits are written two at a time, through a uint16 view, from a
# table of the 100 digit pairs followed by forms of them with the zeros
# `%` would not print blank (NUL; a space in the tables' source).
_BLOCK_ROWS = 1 << 14
_PAIRS = [f"{r:02d}" for r in range(100)]


def _pair_table(pairs) -> np.ndarray:
    return np.frombuffer("".join(pairs).replace(" ", "\0").encode(), dtype=np.uint16)


# + 100 where an integer's rest is below 10, its leading pair: " d" (a lone
# 0 stays " 0"); _ABOVE, for the pairs left of the units, also blanks a 0
_LEADING = _pair_table(_PAIRS + [f"{r:2d}" for r in range(100)])
_ABOVE = _pair_table(_PAIRS + ["  "] + [f"{r:2d}" for r in range(1, 100)])
# + 100 where no digit right of a fraction's pair is printed: its trailing
# zeros blank
_TRAILING = _pair_table(_PAIRS + [f"{p.rstrip('0'):2s}" for p in _PAIRS])
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_SCALE = _POW10[:16].astype(np.float64)  # exact
_CLASS_NAMES = np.array([cls.value for cls in MANEUVERS], dtype=bytes)[:, None].view(np.uint8)


def _lines(n, fields) -> str:
    """n rows of the fields, comma-separated, one line each, with the NUL
    padding dropped."""
    line = sum(width + 1 for width, _ in fields)
    text = bytearray(n * line)  # all NUL; numpy writes into it, so it is not copied to bytes
    out = np.frombuffer(text, dtype=np.uint8).reshape(n, line)
    start = 0
    for width, write in fields:
        write(out[:, start:start + width])
        out[:, start + width] = ord(",")
        start += width + 1
    out[:, -1] = ord("\n")
    return text.translate(None, b"\0").decode("ascii")


def _with_text(field, rows, texts):
    """field with the given rows replaced by texts (one, or one per row),
    widened to the longest."""
    if not len(rows):
        return field
    width, write = field
    text = np.array(texts, dtype=bytes)

    def write_text(dst):
        write(dst[:, :width])
        dst[rows] = text.astype(f"S{dst.shape[1]}")[:, None].view(np.uint8)
    return max(width, text.itemsize), write_text


def _even_width(digits: int) -> int:
    return digits + digits % 2


def _int_field(values):
    """Each of values, int64 and all >= 0, in decimal; the width is the
    digits of the largest, made even."""
    return _even_width(len(str(int(values.max(initial=0))))), lambda dst: _write_int(dst, values)


def _write_int(dst, values) -> None:
    """values, int64 in [0, 100**k), into dst, (n, 2k) uint8, leading zeros
    NUL."""
    pairs = dst.view(np.uint16)
    rest, table = values, _LEADING
    for j in range(pairs.shape[1] - 1, -1, -1):
        quotient = rest // 100
        index = rest - 100 * quotient
        index += 100 * (rest < 10)
        pairs[:, j] = table.take(index)
        rest, table = quotient, _ABOVE


def _write_fraction(dst, fraction) -> None:
    """fraction, int64 in [0, 10**width), as width digits after the point,
    trailing zeros NUL."""
    pairs = dst.view(np.uint16)
    rest, zeros = fraction, True
    for j in range(pairs.shape[1] - 1, -1, -1):
        quotient = rest // 100
        pair = rest - 100 * quotient
        pairs[:, j] = _TRAILING.take(pair + 100 * zeros)
        rest, zeros = quotient, zeros & (pair == 0)


def _speed_field(v):
    """SPEED_FORMAT % each of v.

    A finite v in [1e-4, 1e11) with decimal exponent e has 12 significant
    digits rint(y), y = v * 10**(11 - e) in [1e11, 1e12). The scale is
    exact, so y carries one rounding, of at most 2**-14 as y < 2**40, and
    rint(y) is the correctly rounded mantissa `%` prints unless y lies
    within that rounding of a tie (Clinger's fast path). Values within
    2**-13 of a tie, outside that domain, or whose log10 misjudged e are
    formatted one at a time.
    """
    x = np.where((v >= 1e-4) & (v < 1e11), v, 0.0)
    e = np.floor(np.log10(x, out=np.zeros_like(x), where=x > 0)).astype(np.int64)
    y = x * _SCALE.take(np.clip(11 - e, 0, 15))
    slow = ~((y >= 1e11) & (y < 1e12)) | (np.abs(y - np.floor(y) - 0.5) <= 2**-13)
    mantissa = np.where(slow, 1e11, np.rint(y)).astype(np.int64)
    carry = mantissa == 10**12  # 999999999999.5 and up round to 10**(e + 1)
    mantissa[carry] = 10**11
    # the digits `%` prints after the point before it drops trailing zeros
    fraction_digits = 11 - np.where(slow, 0, e + carry)
    unit = _POW10.take(fraction_digits)
    whole = mantissa // unit
    fraction = mantissa - whole * unit
    whole_width, write_whole = _int_field(whole)
    fraction_width = _even_width(int(fraction_digits.max(initial=0)))
    fraction *= _POW10.take(fraction_width - fraction_digits)

    def write(dst):
        write_whole(dst[:, :whole_width])
        dst[:, whole_width] = np.where(fraction > 0, ord("."), 0)
        _write_fraction(dst[:, whole_width + 1:], fraction)
    rows = np.flatnonzero(slow)
    return _with_text((whole_width + 1 + fraction_width, write), rows,
                      [SPEED_FORMAT % value for value in v[rows].tolist()])
