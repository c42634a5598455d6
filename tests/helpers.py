"""Independent oracles and small builders shared by the test modules.

Most of this is written directly from first principles (plain Python, no
package kernels) so tests compare the implementation against a second path.
The kinematics oracles are instead the per-track path that the
recording-level tables replaced: one projection and one window_speeds call
per track. The `*_reference` functions keep the whole-array expressions,
the per-id label masks, the boolean-mask row selection and the
row-at-a-time writers that in-place, column-wise, index or lookup code
replaced, for tests that require bit-identical results, and the filter
accounting by table lengths that the per-track fate codes replaced.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from speedstudy import (
    MANEUVERS,
    Correspondence,
    Detection,
    DetectionTable,
    Homography,
    ImagePoint,
    ManeuverClass,
    TrackTable,
    WorldPoint,
    _kernels,
    assemble_tracks,
    clip_to_aoi,
    filter_direction,
    filter_following,
    filter_stationary,
    filter_vehicle_type,
    parse_track_file,
    serialize_detections,
    to_world_track,
    track_kinematics,
)
from speedstudy.geometry import INFINITY_TOL, project_points
from speedstudy.ingest import CASCADE_STAGES, LABELS, ClassLabel, row_subset
from speedstudy.kinematics import window_params
from speedstudy.simulator import DEFAULT_CLASS_MAP

MPS_TO_MPH = 2.2369362920544
IDENTITY = Homography(np.eye(3))


def apply_h(matrix, x, y):
    """Hand 3x3 multiply plus homogeneous divide."""
    num_u = matrix[0][0] * x + matrix[0][1] * y + matrix[0][2]
    num_v = matrix[1][0] * x + matrix[1][1] * y + matrix[1][2]
    den = matrix[2][0] * x + matrix[2][1] * y + matrix[2][2]
    return num_u / den, num_v / den


def project_points_reference(matrix, points):
    """project_points as whole-array expressions: the sums the in-place
    version must reproduce bit for bit."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    den = matrix[2, 0] * pts[:, 0] + matrix[2, 1] * pts[:, 1] + matrix[2, 2]
    valid = np.abs(den) >= INFINITY_TOL
    safe = np.where(valid, den, 1.0)
    out = np.empty_like(pts)
    out[:, 0] = (matrix[0, 0] * pts[:, 0] + matrix[0, 1] * pts[:, 1] + matrix[0, 2]) / safe
    out[:, 1] = (matrix[1, 0] * pts[:, 0] + matrix[1, 1] * pts[:, 1] + matrix[1, 2]) / safe
    out[~valid] = 0.0
    return out, valid


def anchor_points_reference(bbox):
    """(N, 2) bottom centers of (N, 4) boxes as whole-array expressions."""
    bbox = np.asarray(bbox, dtype=np.float64).reshape(-1, 4)
    out = np.empty((len(bbox), 2), dtype=np.float64)
    out[:, 0] = bbox[:, 0] + bbox[:, 2] / 2.0
    out[:, 1] = bbox[:, 1] + bbox[:, 3]
    return out


def subset_reference(table, rows):
    """TrackTable.subset as boolean-mask gathers of every column: the rows
    the index gathers must reproduce bit for bit."""
    if rows.all():
        return table
    kept, offsets = row_subset(table.offsets, rows)
    return TrackTable(
        table.track_ids[kept], offsets, table.frames[rows], table.anchors[rows],
        table.labels[rows], table.world[rows], table.projectable[rows],
    )


def is_column_major(pairs) -> bool:
    """An (N, 2) array whose two columns are each contiguous."""
    return pairs.shape[1:] == (2,) and pairs.T.flags.c_contiguous


def points_in_polygon_reference(points, polygon, tol=1e-9):
    """The even-odd pass with one fresh temporary per operation: the
    expressions the in-place kernel must reproduce bit for bit."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    poly = np.asarray(polygon, dtype=np.float64)
    x = pts[:, 0]
    y = pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    on_edge = np.zeros(len(pts), dtype=bool)
    tol2 = tol * tol
    for i in range(len(poly)):
        xi, yi = poly[i]
        xj, yj = poly[i - 1]
        ex = xj - xi
        ey = yj - yi
        seg2 = ex * ex + ey * ey
        if seg2 > 0.0:
            t = np.clip(((x - xi) * ex + (y - yi) * ey) / seg2, 0.0, 1.0)
            cx = xi + t * ex - x
            cy = yi + t * ey - y
        else:
            cx = xi - x
            cy = yi - y
        on_edge |= cx * cx + cy * cy <= tol2
        crosses = (yi > y) != (yj > y)
        dy = yj - yi
        safe_dy = np.where(dy == 0.0, 1.0, dy)
        x_cross = xi + (y - yi) * (xj - xi) / safe_dy
        inside ^= crosses & (x < x_cross)
    return inside | on_edge


def range_faults_reference(rows) -> list:
    """The parser's six (failing-row mask, reason) range checks, the bbox and
    anchor masks made by .all(axis=1) over whole rows."""
    frame, track_id, confidence = rows["frame"], rows["track_id"], rows["confidence"]
    bbox = rows["bbox"]
    with np.errstate(over="ignore", invalid="ignore"):
        anchors = anchor_points_reference(bbox)
    return [
        (~(np.isfinite(bbox).all(axis=1) & np.isfinite(confidence)),
         "a bbox or confidence value is not a finite number"),
        (frame < 0, "frame must be >= 0"),
        (track_id <= 0, "track id must be positive"),
        (~(bbox[:, 2:] > 0.0).all(axis=1), "bbox width and height must be positive"),
        (~((confidence >= 0.0) & (confidence <= 1.0)), "confidence must be in [0, 1]"),
        (~np.isfinite(anchors).all(axis=1), "bbox bottom-center point is not finite"),
    ]


def label_codes_reference(class_ids, class_map) -> tuple[np.ndarray, list[int]]:
    """Label code per row, set through one mask per class_map id (an id
    outside int64 matches no row), and the ids no key matched, in order of
    first appearance."""
    codes = np.full(len(class_ids), LABELS.index(ClassLabel.OTHER), dtype=np.int8)
    known = np.zeros(len(class_ids), dtype=bool)
    for class_id, label in class_map.items():
        if -(2**63) <= class_id < 2**63:
            rows = class_ids == class_id
            codes[rows] = LABELS.index(label)
            known |= rows
    unknown, first = np.unique(class_ids[~known], return_index=True)
    return codes, unknown[np.argsort(first)].tolist()


def kinematics_csv_reference(kins) -> str:
    """The kinematics report built one f-string per sample row, speeds to
    12 significant digits."""
    lines = ["track_id,frame,speed_mph,window_frames"]
    offsets = kins.offsets.tolist()
    for track_id, mean, a, b in zip(
        kins.track_ids.tolist(), kins.representative_mph.tolist(), offsets, offsets[1:]
    ):
        columns = (kins.frames[a:b], kins.speeds_mph[a:b], kins.window_frames[a:b])
        lines += [f"{track_id},{f},{s:.12g},{w}" for f, s, w in zip(*(c.tolist() for c in columns))]
        lines.append(f"{track_id},summary,{mean:.12g},{b - a}")
    return "\n".join(lines) + "\n"


def maneuvers_csv_reference(maneuvers) -> str:
    """The maneuvers report built one f-string per row, speeds to 12
    significant digits."""
    names = [cls.value for cls in MANEUVERS]
    columns = (maneuvers.track_ids, maneuvers.v_mean_mph, maneuvers.classes)
    lines = ["track_id,v_mean_mph,class"]
    lines += [f"{t},{v:.12g},{names[code]}" for t, v, code in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def filter_counts_reference(tracks, cfg, h) -> tuple[dict[str, int], dict[int, str]]:
    """One recording's filter counts taken as the differences between the
    table lengths before and after each cascade stage, the projection onto
    the road plane and the speed windows; and each track id's fate, the
    step whose output left it out ("kept" when none did)."""
    steps = (
        lambda t: clip_to_aoi(t, cfg.aoi_polygon),
        filter_vehicle_type,
        lambda t: filter_stationary(t, cfg.thresholds),
        lambda t: filter_following(t, h, cfg.travel_direction, cfg.thresholds),
        lambda t: filter_direction(t, cfg.travel_direction, cfg.thresholds),
        to_world_track,
        lambda t: track_kinematics(t, cfg.fps),
    )
    names = (*CASCADE_STAGES, "unprojectable", "no_kinematics")
    counts = {"input": len(tracks)}
    fates = dict.fromkeys(tracks.track_ids.tolist(), "kept")
    for name, step in zip(names, steps):
        before = tracks.track_ids.tolist()
        tracks = step(tracks)
        counts[name] = len(before) - len(tracks.track_ids)
        fates.update(dict.fromkeys(set(before) - set(tracks.track_ids.tolist()), name))
        if name == CASCADE_STAGES[-1]:
            counts["surviving"] = len(tracks)
    return counts, fates


def make_correspondences(matrix, world_pts) -> list[Correspondence]:
    """Exact correspondences generated by pushing world points through matrix."""
    corrs = []
    for x, y in world_pts:
        u, v = apply_h(matrix, x, y)
        corrs.append(Correspondence(WorldPoint(x, y), ImagePoint(u, v)))
    return corrs


def random_projective_matrix(rng) -> np.ndarray:
    """A well-conditioned projective map over roughly [0, 100]^2."""
    return np.array(
        [
            [rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(-50, 50)],
            [rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0), rng.uniform(-50, 50)],
            [rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 1.0],
        ]
    )


def point_in_polygon_oracle(x, y, polygon, tol=1e-9) -> bool:
    """Even-odd ray casting with boundary inclusion, scalar and literal."""
    n = len(polygon)
    inside = False
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        # boundary check against the segment
        ex, ey = x2 - x1, y2 - y1
        seg2 = ex * ex + ey * ey
        if seg2 > 0:
            t = max(0.0, min(1.0, ((x - x1) * ex + (y - y1) * ey) / seg2))
            if math.hypot(x1 + t * ex - x, y1 + t * ey - y) <= tol:
                return True
        elif math.hypot(x1 - x, y1 - y) <= tol:
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def clip_to_aoi_oracle(anchors, polygon):
    """One track's longest run of anchors inside polygon (the earliest of
    equal runs) as (start, stop), or None when no anchor is inside."""
    inside = [point_in_polygon_oracle(u, v, polygon) for u, v in np.asarray(anchors).tolist()]
    best = (0, 0)
    start = None
    for i, flag in enumerate(inside + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    return None if best[1] == best[0] else best


def direction_angle_oracle(disp, travel_direction) -> float:
    """Angle in degrees between a nonzero displacement and the travel
    direction, as the per-track loop the table stage was ported from
    computes it."""
    cos_angle = float(np.dot(disp, travel_direction)) / float(np.hypot(disp[0], disp[1]))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))


def direction_kept_oracle(displacements, valid, travel_direction, max_deg=45.0):
    """Per track, whether the direction gate keeps its net world
    displacement: the per-track loop the table stage was ported from."""
    direction = np.asarray(travel_direction, dtype=np.float64)
    return [
        bool(ok) and float(np.hypot(disp[0], disp[1])) != 0.0
        and direction_angle_oracle(disp, direction) <= max_deg + 1e-9
        for disp, ok in zip(displacements, valid)
    ]


# The vectorized gate's angle is within _DIRECTION_BAND_DEG of the per-track
# expression's (direction_angle_oracle), for a unit travel direction and a
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


def near_direction_gate(disp, travel_direction, max_deg) -> bool:
    """Whether the vectorized direction gate may decide a valid displacement
    otherwise than the per-track loop: a nonzero norm under
    _DIRECTION_MIN_NORM, or an angle within _DIRECTION_BAND_DEG of the gate."""
    norm = float(np.hypot(disp[0], disp[1]))
    if norm == 0.0:
        return False
    if norm < _DIRECTION_MIN_NORM:
        return True
    angle = direction_angle_oracle(disp, np.asarray(travel_direction, dtype=np.float64))
    return abs(angle - (max_deg + 1e-9)) <= _DIRECTION_BAND_DEG


def is_simple_polygon_oracle(poly) -> bool:
    """No two non-adjacent edges cross, edge pair by edge pair (touching and
    collinear contacts within the 1e-12 orientation tolerance do not count)."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    def cross(p1, p2, p3, p4):
        o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
        o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
        return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)

    n = len(poly)
    edges = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex
            if cross(*edges[i], *edges[j]):
                return False
    return True


def approach_speed_oracle(samples, polygon):
    """One vehicle's minimum in-zone speed over its ((x, y), speed)
    samples, or None without an in-zone sample."""
    in_zone = np.array(
        [s for (x, y), s in samples if point_in_polygon_oracle(x, y, polygon)], dtype=np.float64
    )
    if not len(in_zone):
        return None
    return float(in_zone.min())


def classify_maneuver_oracle(v_mph) -> ManeuverClass:
    """The scalar maneuver rule: stop-and-go below 5 mph, slow-down below 10."""
    if v_mph < 0:
        raise ValueError(f"speed must be non-negative, got {v_mph}")
    if v_mph < 5.0:
        return ManeuverClass.STOP_AND_GO
    if v_mph < 10.0:
        return ManeuverClass.SLOW_DOWN
    return ManeuverClass.PASS_THROUGH


def brute_speed_series(frames, points, fps):
    """Sliding-window speeds straight from the definition.

    Window reaches back min(history, round(fps)) positions; speed is endpoint
    displacement over endpoint frame gap; reporting starts at
    ceil(fps * 0.5) frames of history (at least 2).
    """
    wmax = max(int(math.floor(fps + 0.5)), 2)
    warm = max(math.ceil(fps * 0.5), 2)
    out = []
    for i in range(len(frames)):
        history = i + 1
        if history < warm:
            continue
        w = min(history, wmax)
        j = i - w + 1
        d = math.dist(points[i], points[j])
        dt = (frames[i] - frames[j]) / fps
        out.append((int(frames[i]), d / dt * MPS_TO_MPH, w))
    return out


def world_table(paths) -> TrackTable:
    """The TrackTable of (frames, points) pairs, one per track, ids 1, 2, ...,
    assembled under the identity map: its world column holds the points, each
    within an ulp (the canonical identity matrix is I / sqrt(3))."""
    return track_table([(f, p, None) for f, p in paths])


def world_track_oracle(track_id, frames, anchors, h, warnings):
    """One track on the road plane, one projection per track: (frames,
    points) of its projectable anchors, or None when more than 10% of them
    are lost. Appends the warnings the pipeline logs for it to warnings."""
    world, valid = project_points(h.inverse().matrix, anchors)
    n_bad = int((~valid).sum())
    if n_bad:
        warnings.append(f"track {track_id}: dropped {n_bad} unprojectable points")
        if n_bad > 0.10 * len(frames):
            warnings.append(f"track {track_id} dropped entirely")
            return None
    return frames[valid], world[valid].copy()


def track_kinematics_oracle(frames, points, fps):
    """One track's speed samples from one single-segment window_speeds call:
    (frames, speeds_mph, window_frames, points, mean mph), or None when the
    track is too short for a sample."""
    wmax, first_hist = window_params(fps)
    speeds_ms, wlens = _kernels.window_speeds(
        frames, points[:, 0], points[:, 1], wmax, first_hist, fps
    )
    idx = np.flatnonzero(speeds_ms >= 0.0)
    if len(idx) == 0:
        return None
    speeds = speeds_ms[idx] * MPS_TO_MPH
    return frames[idx], speeds, wlens[idx], points[idx], float(np.mean(speeds))


def close_pair_counts_oracle(frames, track_idx, us, vs, dus, dvs, max_px, n_tracks):
    """Dense (coexist, close) n_tracks x n_tracks frame counts, frame by frame.

    Every ordered pair of rows in a frame adds one to coexist[t, l]; it adds
    one to close[t, l] when l's point is within max_px of t's (strictly) and
    ahead along t's heading, with the same float expressions as the kernel.
    """
    order = np.argsort(frames, kind="stable")
    frames, track_idx = frames[order], track_idx[order]
    us, vs, dus, dvs = us[order], vs[order], dus[order], dvs[order]
    bounds = np.flatnonzero(np.diff(frames)) + 1
    coexist = np.zeros((n_tracks, n_tracks), dtype=np.int64)
    close = np.zeros((n_tracks, n_tracks), dtype=np.int64)
    r2 = max_px * max_px
    for s, e in zip(np.concatenate(([0], bounds)), np.concatenate((bounds, [len(frames)]))):
        if e - s < 2:
            continue
        idx = track_idx[s:e]
        u = us[s:e]
        v = vs[s:e]
        dx = u[np.newaxis, :] - u[:, np.newaxis]
        dy = v[np.newaxis, :] - v[:, np.newaxis]
        off_diag = ~np.eye(e - s, dtype=bool)
        pairs = (idx[:, np.newaxis], idx[np.newaxis, :])
        np.add.at(coexist, pairs, off_diag.astype(np.int64))
        near = (dx * dx + dy * dy < r2) & off_diag
        ahead = dx * dus[s:e, np.newaxis] + dy * dvs[s:e, np.newaxis] > 0.0
        np.add.at(close, pairs, (near & ahead).astype(np.int64))
    return coexist, close


def close_pairs_of_oracle(*args):
    """The oracle's nonzero close entries as the kernel's sparse
    (follower, leader, close, coexist), sorted by (follower, leader)."""
    coexist, close = close_pair_counts_oracle(*args)
    follower, leader = np.nonzero(close)
    return follower, leader, close[follower, leader], coexist[follower, leader]


def synthesize_bulk_csv(n_tracks=500, frames_per_track=200):
    """Straight constant-speed tracks on an identity-mapped scene; >=100k rows."""
    lines = []
    for tid in range(1, n_tracks + 1):
        lane_y = 100.0 + (tid % 25) * 60.0
        first = (tid * 7) % 1800
        u0 = 50.0 + (tid % 13) * 5.0
        for k in range(frames_per_track):
            u = u0 + 4.0 * k
            lines.append(f"{first + k},{tid},{u - 20.0},{lane_y - 40.0},40.0,40.0,0.9,1")
    return "\n".join(lines) + "\n", n_tracks * frames_per_track


# The identity-calibrated scene synthesize_bulk_csv's tracks cross.
BULK_SCENE = {
    "location_id": 77,
    "name": "throughput",
    "fps": 10.0,
    "calibration": {
        "correspondences": [
            {"world": [0.0, 0.0], "image": [0.0, 0.0]},
            {"world": [100.0, 0.0], "image": [100.0, 0.0]},
            {"world": [100.0, 100.0], "image": [100.0, 100.0]},
            {"world": [0.0, 100.0], "image": [0.0, 100.0]},
        ]
    },
    "aoi_polygon": [[0, 0], [5000, 0], [5000, 5000], [0, 5000]],
    "approach_zone": [[300, 0], [600, 0], [600, 5000], [300, 5000]],
    "travel_direction": [1.0, 0.0],
    "class_map": {"1": "car"},
}


CORRIDOR_CORNERS = [
    ((0.0, -5.0), (500.0, 950.0)),
    ((0.0, 5.0), (1420.0, 950.0)),
    ((60.0, -5.0), (860.0, 340.0)),
    ((60.0, 5.0), (1060.0, 340.0)),
]


def scene_config_dict(h, location_id=1, fps=10.0, **overrides) -> dict:
    """Scene config JSON body for the demo corridor camera."""
    aoi_world = [(-5.0, -6.0), (65.0, -6.0), (65.0, 6.0), (-5.0, 6.0)]
    aoi = project_points(h.matrix, np.array(aoi_world))[0].tolist()
    cfg = {
        "location_id": location_id,
        "name": "demo corridor",
        "fps": fps,
        "calibration": {
            "correspondences": [
                {"world": list(w), "image": list(i)} for w, i in CORRIDOR_CORNERS
            ]
        },
        "aoi_polygon": aoi,
        "approach_zone": [[20.0, -6.0], [35.0, -6.0], [35.0, 6.0], [20.0, 6.0]],
        "travel_direction": [1.0, 0.0],
        "class_map": {
            "1": "car", "2": "bus", "3": "truck",
            "4": "motorcycle", "5": "bicycle", "6": "pedestrian", "7": "other",
        },
    }
    cfg.update(overrides)
    return cfg


def assert_same_bits(got, want):
    """Same dtype, shape and bytes: equal bit for bit."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_tables_equal(a, b):
    """The same tracks with the same value in every per-detection column."""
    for column in ("track_ids", "offsets", "frames", "anchors", "labels", "world", "projectable"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def assert_table_matches_rows(table, rows):
    """A DetectionTable holds exactly these Detection rows, in order."""
    assert len(table) == len(rows)
    assert table.frame.tolist() == [d.frame for d in rows]
    assert table.track_id.tolist() == [d.track_id for d in rows]
    assert [tuple(b) for b in table.bbox.tolist()] == [tuple(d.bbox) for d in rows]
    assert table.confidence.tolist() == [d.confidence for d in rows]
    assert [LABELS[code] for code in table.label] == [d.class_label for d in rows]


def parse_text(text: str, class_map=DEFAULT_CLASS_MAP) -> DetectionTable:
    """parse_track_file of a CSV file holding text as UTF-8, its line
    breaks as given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "detections.csv"
        path.write_bytes(text.encode())
        return parse_track_file(path, class_map)


def table_of(rows):
    """A DetectionTable of Detection rows, read as the CLI reads a CSV."""
    return parse_text(serialize_detections(rows, DEFAULT_CLASS_MAP))


def tracks_of(rows, h=IDENTITY) -> TrackTable:
    """The TrackTable assembled from Detection rows under h."""
    return assemble_tracks(table_of(rows), h)


def assembled(frames, track_ids, anchors, labels, h=IDENTITY) -> TrackTable:
    """The TrackTable assemble_tracks makes of these rows under h; each box
    has zero size, so its bottom center is exactly its anchor."""
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 2)
    bbox = np.zeros((len(anchors), 4))
    bbox[:, :2] = anchors
    table = DetectionTable(
        np.asarray(frames, dtype=np.int64), np.asarray(track_ids, dtype=np.int64), bbox,
        np.ones(len(anchors)), np.asarray(labels, dtype=np.int8),
    )
    return assemble_tracks(table, h)


def with_anchors(tracks, anchors, h) -> TrackTable:
    """The same tracks with other anchors, assembled under h."""
    return assembled(tracks.frames, tracks.per_row(tracks.track_ids), anchors, tracks.labels, h)


def track_table(columns, track_ids=None, h=IDENTITY) -> TrackTable:
    """A TrackTable of per-track (frames, anchors, labels), ids 1, 2, ...
    unless given (in increasing order), assembled under h; labels may be
    None (all cars)."""
    frames = [np.asarray(f, dtype=np.int64) for f, _, _ in columns]
    anchors = [np.asarray(a, dtype=np.float64).reshape(-1, 2) for _, a, _ in columns]
    labels = [
        np.zeros(len(f), np.int8) if lab is None else np.asarray(lab, dtype=np.int8)
        for f, (_, _, lab) in zip(frames, columns)
    ]
    if track_ids is None:
        track_ids = np.arange(1, len(columns) + 1)
    return assembled(
        np.concatenate(frames or [np.zeros(0, dtype=np.int64)]),
        np.repeat(np.asarray(track_ids, dtype=np.int64), [len(f) for f in frames]),
        np.concatenate(anchors or [np.zeros((0, 2))]),
        np.concatenate(labels or [np.zeros(0, dtype=np.int8)]),
        h,
    )


def track_rows(table, k) -> slice:
    """The rows of a table's k-th track."""
    return slice(int(table.offsets[k]), int(table.offsets[k + 1]))


def only_track(table, k) -> TrackTable:
    """The table holding only its k-th track."""
    return table.subset(table.per_row(np.arange(len(table)) == k))


def det(frame, track_id, bbox=(0.0, 0.0, 10.0, 20.0), conf=0.9, label=ClassLabel.CAR):
    return Detection(frame, track_id, bbox, conf, label)


def straight_track_detections(
    track_id,
    n_frames,
    start_uv,
    step_uv,
    first_frame=0,
    bbox_size=(10.0, 20.0),
    label=ClassLabel.CAR,
):
    """Detections whose anchors move linearly in image space."""
    out = []
    w, h = bbox_size
    for k in range(n_frames):
        u = start_uv[0] + k * step_uv[0]
        v = start_uv[1] + k * step_uv[1]
        out.append(
            Detection(first_frame + k, track_id, (u - w / 2, v - h, w, h), 0.9, label)
        )
    return out
