"""World-frame trajectories and sliding-window speed estimation.

Speed at a frame is the Euclidean displacement between the oldest and newest
positions retained in a window of up to round(fps) frames, divided by the
frame-index gap over fps. Reporting starts once the history holds at least
ceil(fps * min_track_s) frames, so sub-half-second tracks yield nothing at
the default minimum length.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .geometry import Homography, project_points
from .ingest import Track

log = logging.getLogger(__name__)

MPS_TO_MPH = 2.2369362920544
DEFAULT_MIN_TRACK_S = 0.5
_MAX_DROP_FRAC = 0.10


@dataclass(frozen=True)
class WorldTrack:
    track_id: int
    frames: np.ndarray  # (N,) int64, strictly increasing
    points: np.ndarray  # (N, 2) float64, meters

    def __post_init__(self):
        self.frames.setflags(write=False)
        self.points.setflags(write=False)

    def __len__(self):
        return len(self.frames)


@dataclass(frozen=True)
class TrackKinematics:
    """One vehicle's sliding-window speed samples, one array row per sample."""

    track_id: int
    frames: np.ndarray  # (N,) int64, the frame each sample ends at
    speeds_mph: np.ndarray  # (N,) float64
    window_frames: np.ndarray  # (N,) int64, positions spanned by each window
    points: np.ndarray  # (N, 2) float64, world position at each sample frame
    representative_mph: float  # arithmetic mean of speeds_mph

    def __post_init__(self):
        for column in (self.frames, self.speeds_mph, self.window_frames, self.points):
            column.setflags(write=False)

    def __len__(self):
        return len(self.frames)


def window_params(fps: float, min_track_s: float = DEFAULT_MIN_TRACK_S) -> tuple[int, int]:
    """(max window frames, first reportable history length) for a frame rate."""
    wmax = max(int(math.floor(fps + 0.5)), 2)
    first_hist = max(int(math.ceil(fps * min_track_s)), 2)
    return wmax, first_hist


def to_world_track(track: Track, h: Homography) -> WorldTrack | None:
    """Map a track's anchors onto the road plane via the inverse homography.

    Unprojectable anchors are dropped with a warning; the whole track is
    dropped (None) when more than 10% of its points are lost.
    """
    world, valid = project_points(h.inverse().matrix, track.anchors)
    n_bad = int((~valid).sum())
    if n_bad:
        log.warning("track %d: dropped %d unprojectable points", track.track_id, n_bad)
        if n_bad > _MAX_DROP_FRAC * len(track):
            log.warning("track %d dropped entirely", track.track_id)
            return None
    frames = track.frames[valid]
    return WorldTrack(track.track_id, frames, world[valid].copy())


def track_kinematics(
    world_track: WorldTrack, fps: float, min_track_s: float = DEFAULT_MIN_TRACK_S
) -> TrackKinematics | None:
    """Per-track speed samples plus their mean; None for too-short tracks."""
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    wmax, first_hist = window_params(fps, min_track_s)
    speeds_ms, wlens = _kernels.window_speeds(
        world_track.frames, world_track.points[:, 0], world_track.points[:, 1],
        wmax, first_hist, fps,
    )
    idx = np.flatnonzero(speeds_ms >= 0.0)
    if len(idx) == 0:
        return None
    speeds = speeds_ms[idx] * MPS_TO_MPH
    return TrackKinematics(
        world_track.track_id,
        world_track.frames[idx],
        speeds,
        wlens[idx],
        world_track.points[idx],
        float(np.mean(speeds)),
    )
