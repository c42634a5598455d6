"""Maneuver classification near the crossing.

A vehicle's approach statistic is the minimum windowed speed observed while
its road-plane position lies inside the approach zone. The class bounds are
fixed for every scene: below 5 mph is stop-and-go, 5 to under 10 mph is a
slow-down, and 10 mph or more is a pass-through.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .ingest import ColumnTable

STOP_AND_GO_MPH = 5.0
SLOW_DOWN_MPH = 10.0


class ManeuverClass(Enum):
    PASS_THROUGH = "pass_through"
    SLOW_DOWN = "slow_down"
    STOP_AND_GO = "stop_and_go"


# maneuver code (as stored in ManeuverTable.classes) -> class
MANEUVERS = tuple(ManeuverClass)


@dataclass(frozen=True, eq=False)
class ManeuverTable(ColumnTable):
    """One recording's classified tracks as read-only columns, one row per
    track sampled inside the approach zone, in KinematicsTable order.
    v_mean_mph holds each track's minimum speed inside the zone; it keeps
    the name of the maneuvers report's column."""

    track_ids: np.ndarray  # (M,) int64
    v_mean_mph: np.ndarray  # (M,) float64, the approach-zone minimum
    classes: np.ndarray  # (M,) int8 code into MANEUVERS


def classify_maneuvers(v_mph) -> np.ndarray:
    """int8 codes into MANEUVERS: stop-and-go below STOP_AND_GO_MPH, else
    slow-down below SLOW_DOWN_MPH, else pass-through."""
    v = np.asarray(v_mph, dtype=np.float64)
    if (v < 0).any():
        raise ValueError(f"speed must be non-negative, got {v[v < 0][0]}")
    code = MANEUVERS.index
    return np.where(
        v < STOP_AND_GO_MPH,
        code(ManeuverClass.STOP_AND_GO),
        np.where(v < SLOW_DOWN_MPH, code(ManeuverClass.SLOW_DOWN), code(ManeuverClass.PASS_THROUGH)),
    ).astype(np.int8)


def approach_speeds(kinematics, approach_zone) -> np.ndarray:
    """Approach-zone speed statistic per track of a KinematicsTable, in its
    order: the minimum of the track's speeds sampled inside the zone, NaN
    where none is. Every sample is tested in one points_in_polygon call."""
    out = np.full(len(kinematics.track_ids), np.nan)
    inside = _kernels.points_in_polygon(kinematics.points, approach_zone)
    starts = kinematics.offsets[:-1]  # strictly increasing: no track is empty
    hit = np.add.reduceat(inside, starts, dtype=np.int64) > 0
    out[hit] = np.minimum.reduceat(np.where(inside, kinematics.speeds_mph, np.inf), starts)[hit]
    return out


def observe_maneuvers(kinematics, approach_zone) -> ManeuverTable:
    """Classify each track of a KinematicsTable by its approach-zone
    statistic; tracks never sampled inside the zone are skipped."""
    speeds = approach_speeds(kinematics, approach_zone)
    seen = ~np.isnan(speeds)
    return ManeuverTable(
        kinematics.track_ids[seen],
        speeds[seen],
        classify_maneuvers(speeds[seen]),
    )
