"""World-frame trajectories and sliding-window speed estimation.

Speed at a frame is the Euclidean displacement between the oldest and newest
positions retained in a window of up to round(fps) frames, divided by the
frame-index gap over fps. Reporting starts once the history holds at least
ceil(fps * MIN_TRACK_S) frames (and at least 2): a half-second warm-up that
every scene shares, so sub-half-second tracks yield nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
# unused here: the benchmark's tracer (perfbench/tracing.py) wraps kinematics.project_points
from .geometry import project_points  # noqa: F401
from .ingest import ColumnTable, TrackTable, row_subset, take_rows

log = logging.getLogger(__name__)

MPS_TO_MPH = 2.2369362920544
MIN_TRACK_S = 0.5
_MAX_DROP_FRAC = 0.10


@dataclass(frozen=True, eq=False)
class KinematicsTable(ColumnTable):
    """One recording's sliding-window speed samples, one row per sample:
    track k, with id track_ids[k], holds rows offsets[k]:offsets[k + 1];
    frames and points are the frame each sample ends at and the world
    position there. Every track has at least one sample. points is
    column-major, like TrackTable's coordinate pairs, so the approach-zone
    test reads two contiguous columns."""

    track_ids: np.ndarray  # (T,) int64
    offsets: np.ndarray  # (T + 1,) int64, from 0 to the row count
    frames: np.ndarray  # (N,) int64, strictly increasing within a track
    points: np.ndarray  # (N, 2) float64, meters
    speeds_mph: np.ndarray  # (N,) float64
    window_frames: np.ndarray  # (N,) int64, positions spanned by each window
    representative_mph: np.ndarray  # (T,) float64, mean of each track's speeds


def window_params(fps: float) -> tuple[int, int]:
    """(max window frames, first reportable history length) for a frame rate."""
    wmax = max(int(math.floor(fps + 0.5)), 2)
    first_hist = max(int(math.ceil(fps * MIN_TRACK_S)), 2)
    return wmax, first_hist


def to_world_track(tracks: TrackTable) -> TrackTable:
    """The tracks on the road plane: their rows whose anchor projects (see
    assemble_tracks).

    Unprojectable anchors are dropped with a warning; a whole track is
    dropped when more than 10% of its points are lost.
    """
    owner = tracks.per_row(np.arange(len(tracks)))
    n_bad = np.bincount(owner[~tracks.projectable], minlength=len(tracks))
    dropped = n_bad > _MAX_DROP_FRAC * np.diff(tracks.offsets)
    for k in np.flatnonzero(n_bad).tolist():
        log.warning("track %d: dropped %d unprojectable points", tracks.track_ids[k], n_bad[k])
        if dropped[k]:
            log.warning("track %d dropped entirely", tracks.track_ids[k])
    return tracks.subset(tracks.projectable & ~dropped[owner])


def track_kinematics(tracks: TrackTable, fps: float) -> KinematicsTable:
    """Every track's speed samples, from one window pass over the road-plane
    positions of to_world_track's tracks, plus each track's mean; tracks too
    short for a sample are left out."""
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    wmax, first_hist = window_params(fps)
    speeds_ms, wlens = _kernels.window_speeds(
        tracks.frames, tracks.world[:, 0], tracks.world[:, 1], wmax, first_hist, fps,
        tracks.per_row(tracks.offsets[:-1]),
    )
    emitted = speeds_ms >= 0.0
    sampled, offsets = row_subset(tracks.offsets, emitted)
    rows = np.flatnonzero(emitted)
    speeds = speeds_ms.take(rows) * MPS_TO_MPH
    # one mean per track, so each is the value np.mean of its samples gives
    # (np.mean is this sum then divide); a segmented sum would add in another order
    means = [
        np.add.reduce(speeds[a:b]) / (b - a)
        for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]
    return KinematicsTable(
        tracks.track_ids[sampled],
        offsets,
        tracks.frames.take(rows),
        take_rows(tracks.world, rows),
        speeds,
        wlens.take(rows),
        np.array(means, dtype=np.float64),
    )
