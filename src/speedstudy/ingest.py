"""Tracker-output parsing, track assembly, and the track filter cascade.

Input format (one detection per line, no header, ``#`` lines ignored)::

    frame,id,bb_left,bb_top,bb_width,bb_height,conf,class_id

A file is read into one ``DetectionTable`` (a column per field) and tracks
are cut from it with a single sort into one ``TrackTable`` (columns plus
per-track offsets), so no per-row or per-track objects are built. Assembly
also maps every anchor onto the road plane, the recording's one inverse
projection; later stages read those positions from the table. The CSV
writer and its per-row ``Detection`` belong to ``simulator``.

The cascade runs in a fixed order -- area-of-interest clipping, vehicle-type
majority vote, stationary removal, close-follower removal, direction gating --
and every stage is one row mask over its input table (``TrackTable.subset``).
Its four settings, and their defaults, are defined once, in ``Thresholds``;
the stages that use them take the whole record.
"""

from __future__ import annotations

import io
import itertools
import logging
import math
import os
import re
import urllib.parse
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InvariantViolation, MalformedRow
from .geometry import Homography, project_points

log = logging.getLogger(__name__)

CASCADE_STAGES = ("aoi", "vehicle_type", "stationary", "following", "direction")


class Thresholds(NamedTuple):
    """The filter cascade's settings, which adapt it to a camera and a road:
    a scene config's ``thresholds``, each of which must be positive."""

    stationary_m: float = 2.0  # least net road-plane displacement of a kept track
    following_px: float = 40.0  # image distance under which a leader is close
    following_frac: float = 0.5  # least share of shared frames spent close
    direction_deg: float = 45.0  # widest angle between a track and the travel direction


class ClassLabel(Enum):
    CAR = "car"
    BUS = "bus"
    TRUCK = "truck"
    MOTORCYCLE = "motorcycle"
    BICYCLE = "bicycle"
    PEDESTRIAN = "pedestrian"
    OTHER = "other"


VEHICLE_LABELS = frozenset({ClassLabel.CAR, ClassLabel.BUS, ClassLabel.TRUCK})

# label code (as stored in tables and tracks) -> label
LABELS = tuple(ClassLabel)
_LABEL_CODE = {label: code for code, label in enumerate(LABELS)}
_VEHICLE_CODES = np.array([label in VEHICLE_LABELS for label in LABELS])


def anchor_points(bbox: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """(N, 2) bottom centers of (N, 4) boxes, or of the boxes at the indices
    rows: the vehicles' ground-contact points, column-major (see
    TrackTable). Each bbox column is gathered on its own by fancy indexing,
    which reads only the rows asked for, and summed into the output in
    place, so besides the output one gathered column is held at a time."""
    n = len(bbox) if rows is None else len(rows)
    out = np.empty((2, n), dtype=np.float64)

    def column(k: int) -> np.ndarray:
        return bbox[:, k] if rows is None else bbox[:, k][rows]

    # u = left + width / 2, v = top + height
    u, v = out
    np.divide(column(2), 2.0, out=u)
    u += column(0)
    v[...] = column(1)
    v += column(3)
    return out.T


def _range_faults(rows: np.ndarray):
    """For each range check every parsed row must pass: the rows failing it,
    and why. A generator, so one check's mask is made at a time; each mask
    is built from the bbox columns one at a time."""
    frame, track_id, confidence = rows["frame"], rows["track_id"], rows["confidence"]
    left, top, width, height = (rows["bbox"][:, k] for k in range(4))
    finite = np.isfinite(confidence)
    for column in (left, top, width, height):
        finite &= np.isfinite(column)
    yield ~finite, "a bbox or confidence value is not a finite number"
    del finite
    yield frame < 0, "frame must be >= 0"
    yield track_id <= 0, "track id must be positive"
    yield ~((width > 0.0) & (height > 0.0)), "bbox width and height must be positive"
    yield ~((confidence >= 0.0) & (confidence <= 1.0)), "confidence must be in [0, 1]"
    with np.errstate(over="ignore", invalid="ignore"):
        anchors = anchor_points(rows["bbox"])
        # a coordinate minus itself is 0 where it is finite and NaN where
        # not, so u - u == v - v only where both are; taken in place, so
        # one mask is made beside the anchors
        anchors -= anchors
        finite = anchors[:, 0] == anchors[:, 1]
        del anchors
    yield ~finite, "bbox bottom-center point is not finite"


def _first_bad_row(rows: np.ndarray) -> int | None:
    """Index of the first of the parsed rows failing a range check, or None."""
    bad = np.zeros(len(rows), dtype=bool)
    for failing, _ in _range_faults(rows):
        bad |= failing
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detection rows as columns, in input order."""

    frame: np.ndarray  # (N,) int64
    track_id: np.ndarray  # (N,) int64
    bbox: np.ndarray  # (N, 4) float64: left, top, width, height (px)
    confidence: np.ndarray  # (N,) float64
    label: np.ndarray  # (N,) int8 code into LABELS

    def __len__(self):
        return len(self.frame)


def row_subset(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a table whose track k holds rows offsets[k]:offsets[k + 1] and a
    mask over its rows: a mask of the tracks that keep at least one row, and
    the offsets of those tracks into the kept rows."""
    ends = np.concatenate(([0], np.cumsum(rows, dtype=np.int64)))[offsets]
    kept = ends[1:] > ends[:-1]
    return kept, np.append(ends[:-1][kept], ends[-1])


def take_rows(pairs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows idx of an (N, 2) array, column-major (see TrackTable)."""
    return pairs.T.take(idx, axis=1).T


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """A table whose every field is a numpy column, made read-only on
    construction."""

    def __post_init__(self):
        for column in fields(self):
            getattr(self, column.name).setflags(write=False)


@dataclass(frozen=True, eq=False)
class TrackTable(ColumnTable):
    """One recording's tracks as read-only columns: track k, with id
    track_ids[k], holds rows offsets[k]:offsets[k + 1], at least one, in
    frame order.

    The coordinate pairs (anchors, world) are column-major: each is the .T
    of a C-ordered (2, N) array, so a[:, 0] and a[:, 1] are contiguous. The
    kernels read one coordinate at a time and subset gathers rows by index,
    both from contiguous columns, where row-major (N, 2) arrays would need
    strided reads and numpy's slower boolean-mask gathers."""

    track_ids: np.ndarray  # (T,) int64
    offsets: np.ndarray  # (T + 1,) int64, from 0 to the row count
    frames: np.ndarray  # (N,) int64, strictly increasing within a track
    anchors: np.ndarray  # (N, 2) float64, bottom-center per detection
    labels: np.ndarray  # (N,) int8 code into LABELS
    world: np.ndarray  # (N, 2) float64, anchor on the road plane (m); 0 if not projectable
    projectable: np.ndarray  # (N,) bool, the anchor maps onto the road plane

    def __len__(self):
        return len(self.track_ids)

    def per_row(self, values: np.ndarray) -> np.ndarray:
        """A per-track array repeated over each track's rows."""
        return np.repeat(values, np.diff(self.offsets), axis=0)

    def subset(self, rows: np.ndarray) -> "TrackTable":
        """The masked rows; tracks left without a row are dropped. Every
        column is gathered with the indices of the mask's true rows."""
        if rows.all():
            return self
        kept, offsets = row_subset(self.offsets, rows)
        idx = np.flatnonzero(rows)
        return TrackTable(
            self.track_ids[kept], offsets, self.frames.take(idx), take_rows(self.anchors, idx),
            self.labels.take(idx), take_rows(self.world, idx), self.projectable.take(idx),
        )


# One CSV row as loadtxt reads it; bbox is left, top, width, height.
_ROW_DTYPE = np.dtype(
    [
        ("frame", np.int64),
        ("track_id", np.int64),
        ("bbox", np.float64, (4,)),
        ("confidence", np.float64),
        ("class_id", np.int64),
    ]
)


def parse_track_file(path, class_map: dict[int, ClassLabel]) -> DetectionTable:
    """Read the detection CSV at path into a DetectionTable, in row order.

    An existing regular file with a plain suffix goes by name to np.loadtxt,
    which reads it in chunks with numpy's own reader, in one pass, and is
    checked with column masks (_load_rows). Any other path, and any file
    that read or the checks reject, takes one chunked walk over its lines
    (_diagnose): it names the first bad row, MalformedRow carrying its
    1-based line number, or returns the rows when there is none (a file
    with comment or whitespace-only lines). Lines break at LF, CRLF or CR. A
    file that is not valid UTF-8 is malformed at the first line holding a
    bad byte. Unknown class ids map to OTHER with a warning (once per id).
    """
    name = os.fsdecode(path)
    rows = _load_rows(name)
    if rows is None or _first_bad_row(rows) is not None:
        # bytes that are not UTF-8 decode to lone surrogates, which _diagnose names
        with open(name, encoding="utf-8", errors="surrogateescape") as lines:
            rows = _diagnose(lines, name)
    return DetectionTable(
        frame=rows["frame"],
        track_id=rows["track_id"],
        bbox=rows["bbox"],
        confidence=rows["confidence"],
        label=_label_codes(rows["class_id"], class_map),
    )


# What errors="surrogateescape" decodes a byte that is not UTF-8 to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")

# Lines _diagnose takes at once: a bounded parse buffer, and at most this
# many one-line checks for the chunk holding the first fault.
_CHUNK_LINES = 4096

# Suffixes np.loadtxt decompresses a named file by (numpy's _datasource).
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _is_data(line: str) -> bool:
    """A data line's first non-blank character is not '#'."""
    return line.lstrip()[:1] not in ("", "#")


def _loadtxt(source) -> np.ndarray:
    """A file name's text, or a list of lines, as one structured array.
    Raises ValueError, or the DeprecationWarning of numpy versions that
    still read '1.0' or '1e3' into an integer column, so that every numpy
    rejects the same rows."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(
            source, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1, encoding="utf-8"
        )


def _load_rows(name: str) -> np.ndarray | None:
    """All data lines of the file called name as one structured array, read
    by name; None when a line does not parse, the text is not UTF-8
    (UnicodeDecodeError is a ValueError), or name is not an existing
    regular file with a plain suffix.

    numpy opens a name itself: it decompresses by suffix, reads a sibling
    such as <name>.gz when the name does not exist, and fetches a URL, so
    only a name it opens as the plain file is handed to it. loadtxt skips
    empty lines and rejects every other line _is_data drops: a
    whitespace-only line is one field where eight are needed, and no
    integer parses from a field starting with '#'. So a read that succeeds
    has kept exactly the lines _is_data keeps.

    Keep handing over the name: loadtxt sends a str name through its
    chunked file reader, and iterates any other object, an open handle
    included, line by line (numpy/lib/_npyio_impl.py, _read). On the
    clutter_noisy benchmark's two CSVs (numpy 2.4, 2-vCPU x86-64) the read
    by name took 5-9% less time than through a handle, and opening each
    file once for both this read and the line walk was 5-8% slower.
    """
    scheme, netloc = urllib.parse.urlparse(name)[:2]
    plain = not (scheme and netloc) and not name.lower().endswith(_COMPRESSED_SUFFIXES)
    if not (plain and os.path.isfile(name)):
        return None
    try:
        return _loadtxt(name)
    except (ValueError, DeprecationWarning):
        return None


def _diagnose(lines, name: str) -> np.ndarray:
    """Raise MalformedRow for the first line holding a byte that is not
    UTF-8 or the first data line that loadtxt or the range checks reject;
    return the data lines' rows when every line passes. lines were decoded
    with errors="surrogateescape" and break at LF only.

    Lines are taken in chunks of _CHUNK_LINES, and a chunk's data lines are
    parsed in one loadtxt call into an array sized to the line count, so
    the rows are held once. A bad byte ends the walk once the data lines
    before it are checked, so the earliest fault in the file wins.
    """
    if not lines.seekable():  # a pipe: its text is kept, to be read twice
        lines = io.StringIO(lines.read())
    rows = np.empty(sum(1 for _ in lines), dtype=_ROW_DTYPE)
    lines.seek(0)
    filled = 0
    first = 1  # line number of the chunk's first line
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        text = "".join(chunk)
        bad_byte = None if text.isascii() else _ESCAPED_BYTE.search(text)
        if bad_byte:
            at = text.count("\n", 0, bad_byte.start())
            _check_chunk(chunk[:at], first, name)
            byte = ord(bad_byte[0]) - 0xDC00
            raise MalformedRow(first + at, f"byte 0x{byte:02X} is not valid UTF-8", name)
        part = _check_chunk(chunk, first, name)
        rows[filled:filled + len(part)] = part
        filled += len(part)
        first += len(chunk)
    return rows[:filled]


def _check_chunk(chunk: list[str], first: int, name: str) -> np.ndarray:
    """The rows of the data lines among the lines numbered from first, or
    MalformedRow for the first of them that is rejected. The data lines are
    parsed in one loadtxt call; only a rejected chunk is checked line by
    line, from the first row the range checks flag, or from its start when
    it does not parse."""
    start = 0
    try:
        rows = _loadtxt([line for line in chunk if _is_data(line)])
    except (ValueError, DeprecationWarning):
        pass
    else:
        start = _first_bad_row(rows)
        if start is None:
            return rows
    numbered = [(line_no, line) for line_no, line in enumerate(chunk, first) if _is_data(line)]
    for line_no, line in numbered[start:]:
        fault = _row_fault(line)
        if fault is not None:
            raise MalformedRow(line_no, fault, name)
    raise InvariantViolation(f"{name}: lines {first}-{first + len(chunk) - 1} rejected, none alone")


def _row_fault(line: str) -> str | None:
    """Why one data line is rejected, or None: the loader's own error, or the
    first range check the row fails."""
    try:
        row = _loadtxt([line])
    except (ValueError, DeprecationWarning) as exc:
        # loadtxt counts rows of its own one-line input; drop that position
        return re.sub(r" at row \d+", "", str(exc)).split(";")[0]
    for bad, reason in _range_faults(row):
        if bad.any():
            return reason
    return None


def _label_codes(class_ids: np.ndarray, class_map: dict[int, ClassLabel]) -> np.ndarray:
    """Label code per row, looked up through one searchsorted over the
    sorted class_map ids (an id outside int64 matches no row); unknown ids
    become OTHER, warned once each in order of first appearance."""
    ids = sorted(k for k in class_map if -(2**63) <= k < 2**63)
    # lookup[i] is the code of ids[i]; the last entry, OTHER, is for rows no id matches
    lookup = np.full(len(ids) + 1, _LABEL_CODE[ClassLabel.OTHER], dtype=np.int8)
    lookup[:-1] = [_LABEL_CODE[class_map[k]] for k in ids]
    keys = np.array(ids, dtype=np.int64)
    slot = np.searchsorted(keys, class_ids)
    known = keys.take(slot, mode="clip") == class_ids if ids else np.zeros(len(slot), dtype=bool)
    slot[~known] = len(ids)
    codes = lookup[slot]
    unknown, first = np.unique(class_ids[~known], return_index=True)
    for class_id in unknown[np.argsort(first)].tolist():
        log.warning("unknown class id %d mapped to 'other'", class_id)
    return codes


def assemble_tracks(table: DetectionTable, h: Homography) -> TrackTable:
    """Group detections by id, sort by frame, and resolve duplicate frames.

    A duplicate (id, frame) pair keeps the higher-confidence detection (first
    seen wins ties). Tracks are ordered by id. Every kept anchor is mapped
    onto the road plane through h's inverse in one projection.

    The table is let go of once its kept rows are gathered, so when the
    caller holds no other reference to it, its rows are freed before the
    projection; each row-length temporary here is let go of once used.
    """
    # lexsort is stable, so rows tied on (id, frame, confidence) keep input order
    order = np.lexsort((-table.confidence, table.frame, table.track_id))
    ids = table.track_id[order]
    frames = table.frame[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (frames[1:] != frames[:-1])
    keep = order[first]
    del order, ids, frames, first
    anchors = anchor_points(table.bbox, keep)
    ids, frames, labels = table.track_id[keep], table.frame[keep], table.label[keep]
    del table, keep
    new_track = np.ones(len(ids), dtype=bool)
    new_track[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new_track)
    world, projectable = project_points(h.inverse().matrix, anchors)
    return TrackTable(
        ids[starts],
        np.append(starts, len(ids)),
        frames,
        anchors,
        labels,
        world,
        projectable,
    )


def clip_to_aoi(tracks: TrackTable, aoi_polygon) -> TrackTable:
    """Keep each track's longest contiguous run of detections anchored
    inside the AoI.

    Boundary points count as inside; equal-length runs keep the earliest. A
    track with no detection inside is dropped. Every anchor is tested in one
    points_in_polygon call.
    """
    inside = _kernels.points_in_polygon(tracks.anchors, aoi_polygon)
    # a row continues a run when it and the row before are inside one track
    continues = np.zeros(len(inside) + 1, dtype=bool)
    continues[1:-1] = inside[1:] & inside[:-1]
    continues[tracks.offsets[:-1]] = False
    starts = np.flatnonzero(inside & ~continues[:-1])
    stops = np.flatnonzero(inside & ~continues[1:]) + 1
    run_owner = np.searchsorted(tracks.offsets, starts, side="right") - 1
    # per track, the longest run first and among those the earliest
    order = np.lexsort((starts, starts - stops, run_owner))
    first = np.ones(len(order), dtype=bool)
    first[1:] = run_owner[order[1:]] != run_owner[order[:-1]]
    best = order[first]
    # +1 where a kept run starts and -1 where it stops: the runs are disjoint
    edges = np.zeros(len(inside) + 1, dtype=np.int64)
    edges[starts[best]] = 1
    edges[stops[best]] -= 1
    return tracks.subset(np.cumsum(edges[:-1]) > 0)


def filter_vehicle_type(tracks: TrackTable) -> TrackTable:
    """Keep tracks whose majority class is car, bus, or truck.

    Majority is the modal label over the track's detections; ties are broken
    toward retention if any tied label is a vehicle. One bincount over
    (track, label) codes counts the labels of every track.
    """
    codes = tracks.per_row(np.arange(len(tracks)) * len(LABELS)) + tracks.labels
    counts = np.bincount(codes, minlength=len(tracks) * len(LABELS)).reshape(-1, len(LABELS))
    modal = counts == counts.max(axis=1, keepdims=True)
    return tracks.subset(tracks.per_row((modal & _VEHICLE_CODES).any(axis=1)))


def _endpoint_displacements(tracks: TrackTable) -> tuple[np.ndarray, np.ndarray]:
    """Net world displacement first->last anchor of each track, (T, 2), and
    a mask of the tracks whose two endpoints both project."""
    first, last = tracks.offsets[:-1], tracks.offsets[1:] - 1
    return (
        tracks.world[last] - tracks.world[first],
        tracks.projectable[first] & tracks.projectable[last],
    )


def filter_stationary(tracks: TrackTable, thresholds: Thresholds = Thresholds()) -> TrackTable:
    """Drop tracks whose net world displacement stays under thresholds.stationary_m."""
    disp, valid = _endpoint_displacements(tracks)
    still = valid & (np.hypot(disp[:, 0], disp[:, 1]) < thresholds.stationary_m)
    return tracks.subset(tracks.per_row(~still))


def _image_headings(tracks: TrackTable, h: Homography, travel_direction) -> np.ndarray:
    """Unit image-space vector of a 1 m world step along travel_direction at
    each anchor; zero where the anchor or the step does not project. (A
    function of its own so its temporaries are freed before the pair scan.)"""
    direction = np.asarray(travel_direction, dtype=np.float64)
    dirs, ahead_valid = project_points(h.matrix, tracks.world + direction)
    dirs -= tracks.anchors
    norms = np.hypot(dirs[:, 0], dirs[:, 1])
    ok = tracks.projectable & ahead_valid & (norms > 0)
    np.divide(dirs, norms[:, np.newaxis], out=dirs, where=ok[:, np.newaxis])
    dirs[np.flatnonzero(~ok)] = 0.0
    return dirs


def filter_following(
    tracks: TrackTable, h: Homography, travel_direction, thresholds: Thresholds = Thresholds()
) -> TrackTable:
    """Drop tracks trailing another vehicle too closely for too long.

    A track goes when some other input track sits ahead of it (positive
    component along the travel direction projected into image space at the
    follower's anchor) and within thresholds.following_px, for at least
    thresholds.following_frac of the frames the two coexist. Both fields
    must be positive. Memory is linear in the tracks' rows.
    """
    if len(tracks) < 2:
        return tracks
    anchors = tracks.anchors
    dirs = _image_headings(tracks, h, travel_direction)
    follower, _, close, coexist = _kernels.close_pair_counts(
        tracks.frames, tracks.per_row(np.arange(len(tracks))), anchors[:, 0], anchors[:, 1],
        dirs[:, 0], dirs[:, 1], thresholds.following_px, len(tracks),
    )
    has_leader = np.zeros(len(tracks), dtype=bool)
    has_leader[follower[close >= thresholds.following_frac * coexist]] = True
    return tracks.subset(tracks.per_row(~has_leader))


# The vectorized gate's angle is within _DIRECTION_BAND_DEG of the
# per-track expression's (_direction_kept), for a unit travel direction and a
# displacement of norm at least _DIRECTION_MIN_NORM. With u = 2**-53, each
# expression's cosine is within 5u of the exact one: its dot product is within
# 2u|disp| (two products and a sum, or a fused multiply-add), its norm within
# 2u|disp| (np.hypot, under an ulp), and the division adds u. So the two differ
# by at most 10u, and 16u is taken. acos turns a cosine error e into an angle
# error of at most acos(1 - e), the steepest case being at 0 and 180 degrees;
# 1e-12 covers the rounding of acos and of the conversion to degrees in either
# expression.
_DIRECTION_BAND_DEG = math.degrees(math.acos(1.0 - 16 * 2.0**-53)) + 1e-12
# Below this norm the dot products may underflow, which the band does not cover.
_DIRECTION_MIN_NORM = 2.0**-1000


def _direction_kept(disp: np.ndarray, direction: np.ndarray, gate_deg: float) -> bool:
    """The direction gate of one track, as a per-track loop computes it."""
    cos_angle = float(np.dot(disp, direction)) / float(np.hypot(disp[0], disp[1]))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_angle)))) <= gate_deg


def filter_direction(
    tracks: TrackTable, travel_direction, thresholds: Thresholds = Thresholds()
) -> TrackTable:
    """Keep tracks whose net world displacement stays within
    thresholds.direction_deg of the travel direction, a unit vector. Zero or
    unprojectable displacement is dropped.

    Every track is gated in one vectorized pass. Its products and arccos
    round differently in the last place from np.dot and math.acos, which can
    flip a track lying on the boundary, so the tracks whose angle lies
    within _DIRECTION_BAND_DEG of the gate are decided again with the
    per-track expression (_direction_kept)."""
    direction = np.asarray(travel_direction, dtype=np.float64)
    gate = thresholds.direction_deg + 1e-9
    displacements, valid = _endpoint_displacements(tracks)
    dx, dy = displacements[:, 0], displacements[:, 1]
    norms = np.hypot(dx, dy)
    gated = np.flatnonzero(valid & (norms > 0.0))
    norms = norms[gated]
    cos_angle = (dx[gated] * direction[0] + dy[gated] * direction[1]) / norms
    angles = np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0)))
    keep = np.zeros(len(tracks), dtype=bool)
    keep[gated] = angles <= gate
    # NaN, from an overflow, is never more than the band away
    unsure = ~(np.abs(angles - gate) > _DIRECTION_BAND_DEG) | (norms < _DIRECTION_MIN_NORM)
    for k in gated[unsure].tolist():
        keep[k] = _direction_kept(displacements[k], direction, gate)
    return tracks.subset(tracks.per_row(keep))


def surviving(ids: np.ndarray, kept_ids: np.ndarray) -> np.ndarray:
    """Mask over ids, ascending and unique as assemble_tracks makes them, of
    the ids in kept_ids, a subset of them."""
    kept = np.zeros(len(ids), dtype=bool)
    kept[np.searchsorted(ids, kept_ids)] = True
    return kept


def run_filter_cascade(
    tracks: TrackTable, aoi_polygon, travel_direction, h: Homography,
    thresholds: Thresholds = Thresholds(),
) -> tuple[TrackTable, np.ndarray]:
    """The five stages in their fixed order: the surviving tracks and an int8
    fate code per input track, 0 for a survivor and k when CASCADE_STAGES[k - 1]
    removed it. Each stage's input is released once its output exists."""
    stages = (
        lambda t: clip_to_aoi(t, aoi_polygon),
        filter_vehicle_type,
        lambda t: filter_stationary(t, thresholds),
        lambda t: filter_following(t, h, travel_direction, thresholds),
        lambda t: filter_direction(t, travel_direction, thresholds),
    )
    fates = np.zeros(len(tracks), dtype=np.int8)
    for code, (stage, apply) in enumerate(zip(CASCADE_STAGES, stages), start=1):
        ids = tracks.track_ids
        tracks = apply(tracks)
        # the tracks still at fate 0 are ids, in order
        fates[fates == 0] = np.where(surviving(ids, tracks.track_ids), 0, code)
        log.info("filter %s removed %d tracks", stage, len(ids) - len(tracks))
    return tracks, fates
