"""Seeded study inputs for the benchmark: detection CSVs, a run manifest, a
scene config and the simulator's ground truth, with every track's designed
filter fate.

Vehicles are rendered with ``speedstudy.render_scene`` and written with
``speedstudy.serialize_detections``, so the program reads exactly what its
own simulator produces. The corridor workloads use the simulator's example
camera, whose image scale along the road falls from 44 to 2 px/m; the queue
uses a higher camera with milder perspective (21 to 9 px/m), so that its
close-follower fates hold anywhere along the approach.

A track's *fate* is the cascade stage that must remove it, or ``kept``. The
generator fixes fates by construction: paths never leave their lane, lanes
sit 3 m apart (at least 56 px apart in either image, over the 40 px
close-follower radius), lanes outside the queue carry one vehicle at a time,
and only the queue's designed followers trail another vehicle closely.
Fates that construction cannot pin down (queue vehicles not seen crossing
the whole area of interest, or pairs whose close fraction sits near the
threshold) are recorded as ``FATE_UNFIXED`` and left out of the filter
oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from speedstudy import (
    MPS_TO_MPH,
    Constant,
    Correspondence,
    ImagePoint,
    PiecewiseLinear,
    SyntheticVehicle,
    TrapezoidStop,
    WorldPoint,
    example_roadside_homography,
    render_scene,
    serialize_detections,
    solve_homography,
)
from speedstudy.geometry import project_points
from speedstudy.ingest import ClassLabel
from speedstudy.simulator import DEFAULT_CLASS_MAP, profile_motion

FPS = 10.0
NOISE_PX = 0.75
LANES = (-6.0, -3.0, 0.0, 3.0, 6.0)
PATH_START_X = -3.0  # paths begin before the area of interest ...
PATH_END_X = 66.0  # ... and end beyond its far edge
AOI_X = (0.0, 62.0)
AOI_Y = (-8.0, 8.0)
ZONE = [[20.0, -8.0], [35.0, -8.0], [35.0, 8.0], [20.0, 8.0]]
FOLLOWING_PX = 40.0

FATES = ("kept", "aoi", "vehicle_type", "stationary", "following", "direction")
FATE_UNFIXED = -1
MANEUVERS = ("pass_through", "slow_down", "stop_and_go")

# (phase, base cruise mph): post-intervention phases drive slower
STUDY_PHASES = (("pre", 30.0), ("post_w1", 26.0), ("post_w2", 25.0))
STUDY_VEHICLES = 1200
STUDY_RECORDINGS_PER_PHASE = 3

QUEUE_DURATION_S = 150.0
QUEUE_FOLLOWER_GAP_M = 1.5  # bumper gap behind a designed close follower's leader
QUEUE_LEADER_GAP_M = 6.0  # gap in front of a leader: nothing close

CLUTTER_GROUPS = 170  # per recording, six tracks each
CLUTTER_RECORDINGS = 2
CLUTTER_DUP_SHARE = 0.08


@dataclass
class Recording:
    phase: str
    duration_s: float
    vehicles: list = field(default_factory=list)
    fates: dict = field(default_factory=dict)  # vehicle id -> index into FATES
    queue_lanes: list | None = None  # vehicle ids per rigid lane, front first
    dup_share: float = 0.0  # share of rows repeated at lower confidence

    def add(self, vehicle: SyntheticVehicle, fate: str):
        self.vehicles.append(vehicle)
        self.fates[vehicle.vehicle_id] = FATES.index(fate)

    @property
    def next_id(self) -> int:
        return len(self.vehicles) + 1


def scene_config(h) -> dict:
    """Scene config JSON for camera h, thresholds at their defaults."""
    corners = [(AOI_X[0], AOI_Y[0]), (AOI_X[1], AOI_Y[0]), (AOI_X[1], AOI_Y[1]), (AOI_X[0], AOI_Y[1])]
    aoi, _ = project_points(h.matrix, np.array(corners))
    calib_world = [(0.0, -5.0), (0.0, 5.0), (60.0, -5.0), (60.0, 5.0), (30.0, 0.0)]
    calib_image, _ = project_points(h.matrix, np.array(calib_world))
    return {
        "location_id": 1,
        "name": "benchmark corridor",
        "fps": FPS,
        "calibration": {
            "correspondences": [
                {"world": list(w), "image": [float(u), float(v)]}
                for w, (u, v) in zip(calib_world, calib_image)
            ]
        },
        "aoi_polygon": aoi.tolist(),
        "approach_zone": ZONE,
        "travel_direction": [1.0, 0.0],
        "class_map": {str(k): v.value for k, v in DEFAULT_CLASS_MAP.items()},
        "intersection_type": "unsignalized",
    }


# ---------------------------------------------------------------------------
# vehicles


def _traverse_time(profile, distance: float) -> float:
    """Seconds a profile needs to cover distance meters."""
    t = np.arange(0.0, 600.0, 0.05)
    dist, _ = profile_motion(profile, t)
    k = int(np.searchsorted(dist, distance))
    if k == len(t):
        raise ValueError("profile never covers the path")
    return float(t[k])


def _corridor_entries(rng, n: int, cruise_mph: float) -> list:
    """n corridor vehicles as (profile, start x, direction) entries: three in
    five pass through, one slows down and one stops inside the approach
    zone, in exactly those shares so that seeds differ only in the details."""
    kinds = rng.permutation(np.resize([0, 0, 0, 1, 2], n))
    return [(*_corridor_profile(rng, kind, cruise_mph), 1.0) for kind in kinds]


def _corridor_profile(rng, kind: int, cruise_mph: float):
    """A pass-through (kind 0), slow-down (1) or stop-and-go (2) vehicle
    whose slowest moment falls inside the approach zone (x 20-35 m).
    Returns (profile, start x)."""
    if kind == 0:
        return Constant(float(rng.uniform(cruise_mph - 6.0, cruise_mph + 6.0))), PATH_START_X
    v0 = float(rng.uniform(cruise_mph - 3.0, cruise_mph + 3.0))
    v0_ms = v0 / MPS_TO_MPH
    if kind == 1:
        vmin = float(rng.uniform(6.5, 8.5))
        vmin_ms = vmin / MPS_TO_MPH
        t1 = (14.0 - PATH_START_X) / v0_ms  # cruise to x = 14 m
        t2 = t1 + 2.0 * 10.0 / (v0_ms + vmin_ms)  # slowest at x = 24 m for 1 s
        t4 = t2 + 1.0 + 2.0 * 12.0 / (v0_ms + vmin_ms)
        knots = ((0.0, v0), (t1, v0), (t2, vmin), (t2 + 1.0, vmin), (t4, v0))
        return PiecewiseLinear(knots), PATH_START_X
    stop_x = float(rng.uniform(24.0, 31.0))
    decel = max(float(rng.uniform(2.0, 3.0)), v0_ms**2 / (2.0 * (stop_x - PATH_START_X)))
    profile = TrapezoidStop(v0, decel, float(rng.uniform(1.0, 4.0)), 2.0)
    return profile, stop_x - v0_ms**2 / (2.0 * decel)


def _path_length(x0: float, direction: float) -> float:
    return PATH_END_X - x0 if direction > 0 else x0 - PATH_START_X


def _schedule(rng, entries):
    """Back-to-back entry times for one lane's (profile, start x, direction)
    entries, one vehicle in the lane at a time. Yields (entry s, exit s,
    entry)."""
    t = float(rng.uniform(0.0, 2.0))
    for entry in entries:
        profile, x0, direction = entry
        dt = _traverse_time(profile, _path_length(x0, direction))
        yield t, t + dt, entry
        t += dt + float(rng.uniform(0.5, 3.0))


def _vehicle(rng, vid, entry_s, x0, lane_y, direction, profile, label=None, max_distance=None):
    return SyntheticVehicle(
        vehicle_id=vid,
        entry_time_s=entry_s,
        start=WorldPoint(x0, lane_y),
        direction=(direction, 0.0),
        profile=profile,
        bbox_px=(float(rng.uniform(40.0, 80.0)), float(rng.uniform(40.0, 70.0))),
        class_label=label or (ClassLabel.CAR, ClassLabel.BUS, ClassLabel.TRUCK)[
            rng.choice(3, p=(0.85, 0.05, 0.1))
        ],
        max_distance_m=_path_length(x0, direction) if max_distance is None else max_distance,
    )


def _one_per_lane(rng, rec: Recording, lanes, entries, fate: str) -> float:
    """Spread entries over lanes at random and schedule each lane; returns
    the last exit time."""
    by_lane = [[] for _ in lanes]
    for e in entries:
        by_lane[int(rng.integers(len(lanes)))].append(e)
    end = 0.0
    for lane_y, lane_entries in zip(lanes, by_lane):
        for t0, t1, (profile, x0, d) in _schedule(rng, lane_entries):
            rec.add(_vehicle(rng, rec.next_id, t0, x0, lane_y, d, profile), fate)
            end = max(end, t1)
    return end


# ---------------------------------------------------------------------------
# workloads


def study_free_flow(rng) -> list[Recording]:
    """Before/after corridor study: all vehicles genuine and kept."""
    recordings = []
    per_rec = STUDY_VEHICLES // (len(STUDY_PHASES) * STUDY_RECORDINGS_PER_PHASE)
    for phase, cruise in STUDY_PHASES:
        for _ in range(STUDY_RECORDINGS_PER_PHASE):
            rec = Recording(phase, 0.0)
            entries = _corridor_entries(rng, per_rec, cruise)
            rec.duration_s = _one_per_lane(rng, rec, LANES, entries, "kept") + 1.0
            recordings.append(rec)
    return recordings


def _lane_cycle(rng, duration_s: float) -> np.ndarray:
    """(time s, mph) knots of one lane's crawl: short trapezoid stops (brake,
    dwell, pull away) at most 9.3 m apart, so that every vehicle crossing
    the 15 m approach zone halts inside it, for longer than the 1 s speed
    window."""
    v = float(rng.uniform(5.5, 7.0))
    v_ms = v / MPS_TO_MPH
    t = float(rng.uniform(0.0, 1.0))
    knots = [(-1.0, v)]
    while t < duration_s + 1.0:
        stop = TrapezoidStop(v, float(rng.uniform(2.0, 3.0)), float(rng.uniform(1.5, 2.5)), 2.0)
        t_stop = t + v_ms / stop.decel_ms2
        t_go = t_stop + stop.dwell_s
        t_free = t_go + v_ms / stop.accel_ms2
        knots += [(t, v), (t_stop, 0.0), (t_go, 0.0), (t_free, v)]
        t = t_free + float(rng.uniform(0.0, 1.4))
    return np.array(knots)


def _shifted_profile(knots: np.ndarray, t_entry: float) -> PiecewiseLinear:
    """The lane cycle as seen by a vehicle entering at t_entry."""
    v0 = float(np.interp(t_entry, knots[:, 0], knots[:, 1]))
    later = knots[(knots[:, 0] > t_entry + 1e-6) & (knots[:, 0] < t_entry + 300.0)]
    return PiecewiseLinear(((0.0, v0),) + tuple((float(t - t_entry), float(s)) for t, s in later))


def queue_dense(rng) -> list[Recording]:
    """Five rigid stop-and-go lanes, full from the first frame: every vehicle
    of a lane moves with the lane's cycle, so gaps never change. Front to
    back, vehicles alternate leader (QUEUE_LEADER_GAP_M behind the vehicle
    ahead, nothing close) and close follower (QUEUE_FOLLOWER_GAP_M behind its
    leader)."""
    rec = Recording("pre", QUEUE_DURATION_S, queue_lanes=[])
    grid = np.arange(0.0, QUEUE_DURATION_S, 0.02)
    for lane_y in LANES:
        knots = _lane_cycle(rng, QUEUE_DURATION_S)
        cycle = _shifted_profile(knots, 0.0)
        lane_dist, _ = profile_motion(cycle, grid)
        members = []
        # vehicles already queued at the first frame, front first ...
        x = PATH_END_X - float(rng.uniform(0.0, QUEUE_LEADER_GAP_M))
        while x >= PATH_START_X:
            follower = len(members) % 2 == 1
            rec.add(_vehicle(rng, rec.next_id, 0.0, x, lane_y, 1.0, cycle),
                    "following" if follower else "kept")
            members.append(rec.vehicles[-1].vehicle_id)
            x -= QUEUE_LEADER_GAP_M if follower else QUEUE_FOLLOWER_GAP_M
        # ... then arrivals at the path start as the lane advances
        target = PATH_START_X - x
        while (k := int(np.searchsorted(lane_dist, target))) < len(grid):
            t_entry = float(grid[k])
            follower = len(members) % 2 == 1
            profile = _shifted_profile(knots, t_entry)
            rec.add(_vehicle(rng, rec.next_id, t_entry, PATH_START_X, lane_y, 1.0, profile),
                    "following" if follower else "kept")
            members.append(rec.vehicles[-1].vehicle_id)
            target += QUEUE_LEADER_GAP_M if follower else QUEUE_FOLLOWER_GAP_M
        rec.queue_lanes.append(members)
    return [rec]


def clutter_noisy(rng) -> list[Recording]:
    """Raw tracker junk. Per group of six tracks: one genuine survivor, one
    oncoming car (direction), one near-parked car (stationary), one car on
    the service road outside the area of interest (aoi) and two pedestrians
    or bicycles (vehicle type)."""
    out = []
    for _ in range(CLUTTER_RECORDINGS):
        rec = Recording("pre", 0.0, dup_share=CLUTTER_DUP_SHARE)
        genuine = _corridor_entries(rng, CLUTTER_GROUPS, 27.0)
        oncoming = [(Constant(float(rng.uniform(20.0, 32.0))), PATH_END_X, -1.0) for _ in range(CLUTTER_GROUPS)]
        span = max(
            _one_per_lane(rng, rec, (0.0, 3.0), genuine, "kept"),
            _one_per_lane(rng, rec, (-3.0, -6.0), oncoming, "direction"),
        )
        for _ in range(CLUTTER_GROUPS):
            # parked at the curb, creeping under half a meter in all
            creep = Constant(float(rng.uniform(0.05, 0.2)))
            rec.add(_vehicle(rng, rec.next_id, float(rng.uniform(0.0, span - 12.0)),
                             float(rng.uniform(5.0, 55.0)), float(rng.choice((-7.5, 7.5))), 1.0,
                             creep, ClassLabel.CAR, float(rng.uniform(0.2, 0.45))), "stationary")
            service = Constant(float(rng.uniform(15.0, 30.0)))
            rec.add(_vehicle(rng, rec.next_id, float(rng.uniform(0.0, span - 8.0)), PATH_START_X,
                             float(rng.uniform(10.5, 14.0)), 1.0, service, ClassLabel.CAR), "aoi")
            for _ in range(2):
                if rng.random() < 0.5:
                    label, speed, length = ClassLabel.PEDESTRIAN, rng.uniform(2.5, 3.5), rng.uniform(6.0, 12.0)
                else:
                    label, speed, length = ClassLabel.BICYCLE, rng.uniform(9.0, 14.0), rng.uniform(25.0, 50.0)
                d = float(rng.choice((-1.0, 1.0)))
                x0 = float(rng.uniform(50.0, 60.0)) if d < 0 else float(rng.uniform(0.0, 10.0))
                rec.add(_vehicle(rng, rec.next_id, float(rng.uniform(0.0, span - 20.0)), x0,
                                 float(rng.choice((-7.0, 7.0))), d, Constant(float(speed)), label,
                                 float(length)), "vehicle_type")
        rec.duration_s = span + 1.0
        out.append(rec)
    return out


# (world, image) calibration corners of the queue camera
QUEUE_CAMERA = (
    ((0.0, -8.0), (560.0, 1000.0)),
    ((0.0, 8.0), (1360.0, 1000.0)),
    ((62.0, -8.0), (690.0, 160.0)),
    ((62.0, 8.0), (1230.0, 160.0)),
)


def camera(workload: str):
    """The workload's true world->image homography."""
    if workload != "queue_dense":
        return example_roadside_homography()
    return solve_homography(Correspondence(WorldPoint(*w), ImagePoint(*i)) for w, i in QUEUE_CAMERA)


WORKLOADS = {
    "study_free_flow": study_free_flow,
    "queue_dense": queue_dense,
    "clutter_noisy": clutter_noisy,
}


# ---------------------------------------------------------------------------
# post-processing and fate checks


def _add_clutter_rows(detections, rec: Recording, rng):
    """Flicker a minority of each track's class labels and repeat some
    (id, frame) rows at lower confidence, which dedup must drop."""
    junk, kept = FATES.index("vehicle_type"), FATES.index("kept")
    out = []
    for d in detections:
        fate = rec.fates[d.track_id]
        if fate == junk and rng.random() < 0.15:
            d = replace(d, class_label=ClassLabel.CAR)
        elif fate == kept and rng.random() < 0.1:
            d = replace(d, class_label=ClassLabel.OTHER)
        out.append(d)
        if rng.random() < rec.dup_share:
            left, top, w, hgt = d.bbox
            out.append(replace(d, bbox=(left + 3.0, top, w, hgt), confidence=0.5))
    return out


def _in_aoi(p: np.ndarray) -> np.ndarray:
    return (p[:, 0] >= AOI_X[0]) & (p[:, 0] <= AOI_X[1]) & (p[:, 1] >= AOI_Y[0]) & (p[:, 1] <= AOI_Y[1])


def _close_fraction(h, follower, leader, radius: float) -> float:
    """Share of two vehicles' common in-AoI frames in which their true image
    anchors lie within radius px."""
    _, fi, li = np.intersect1d(follower.frames, leader.frames, return_indices=True)
    pf, pl = follower.positions[fi], leader.positions[li]
    inside = _in_aoi(pf) & _in_aoi(pl)
    if not inside.any():
        return 0.0
    af, _ = project_points(h.matrix, pf[inside])
    al, _ = project_points(h.matrix, pl[inside])
    return float((np.hypot(*(al - af).T) < radius).mean())


def _pin_queue_fates(rec: Recording, truth, h):
    """Keep fixed only the queue fates that hold with margin: a follower must
    be close at 0.85x the radius in 60% of frames, and no vehicle up to three
    ahead of a leader may be close at 1.15x the radius in 40%. Vehicles the
    recording does not show crossing the whole area of interest are
    unfixed."""
    by_id = truth.by_id()
    for members in rec.queue_lanes:
        for pos, vid in enumerate(members):
            t = by_id.get(vid)
            if t is None or t.positions[0, 0] > AOI_X[0] or t.positions[-1, 0] < AOI_X[1]:
                rec.fates[vid] = FATE_UNFIXED
                continue
            ahead = [by_id[m] for m in members[max(0, pos - 3):pos]]
            if rec.fates[vid] == FATES.index("following"):
                ok = _close_fraction(h, t, ahead[-1], 0.85 * FOLLOWING_PX) >= 0.6
            else:
                ok = all(_close_fraction(h, t, a, 1.15 * FOLLOWING_PX) <= 0.4 for a in ahead)
            if not ok:
                rec.fates[vid] = FATE_UNFIXED


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write scene.json, manifest.json, one CSV per recording, truth.npz and
    meta.json into out_dir; return the metadata."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    h = camera(workload)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "scene.json").write_text(json.dumps(scene_config(h), indent=2) + "\n")

    phases: dict[str, list] = {}
    cols = {k: [] for k in ("row_rec", "row_vid", "row_frame", "row_speed",
                            "veh_rec", "veh_vid", "veh_maneuver", "veh_fate")}
    for rec_idx, rec in enumerate(WORKLOADS[workload](rng)):
        dets, truth = render_scene(
            rec.vehicles, h, FPS, rec.duration_s, NOISE_PX,
            seed=int(rng.integers(2**31)), approach_zone=ZONE,
        )
        if rec.dup_share:
            dets = _add_clutter_rows(dets, rec, rng)
        if rec.queue_lanes is not None:
            _pin_queue_fates(rec, truth, h)
        name = f"{rec.phase}_rec{rec_idx:02d}.csv"
        (out_dir / name).write_text(serialize_detections(dets, DEFAULT_CLASS_MAP))
        phases.setdefault(rec.phase, []).append(
            {"rec": rec_idx, "file": name, "rows": len(dets), "duration_s": rec.duration_s}
        )
        for v in truth.vehicles:
            n = len(v.frames)
            cols["row_rec"].append(np.full(n, rec_idx))
            cols["row_vid"].append(np.full(n, v.vehicle_id))
            cols["row_frame"].append(v.frames)
            cols["row_speed"].append(v.speeds_mph)
            cols["veh_rec"].append([rec_idx])
            cols["veh_vid"].append([v.vehicle_id])
            cols["veh_maneuver"].append([MANEUVERS.index(v.maneuver.value)])
            cols["veh_fate"].append([rec.fates[v.vehicle_id]])
    np.savez(out_dir / "truth.npz", **{k: np.concatenate(v) for k, v in cols.items()})

    manifest = {
        "scene_config": "scene.json",
        "phases": [
            {
                "phase": p,
                "hours": sum(r["duration_s"] for r in recs) / 3600.0,
                "detections": [r["file"] for r in recs],
            }
            for p, recs in phases.items()
        ],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    meta = {
        "workload": workload,
        "seed": seed,
        "rows": sum(r["rows"] for recs in phases.values() for r in recs),
        "recordings": phases,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return meta
