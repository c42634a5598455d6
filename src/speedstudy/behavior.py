"""Maneuver classification near the crossing.

A vehicle's approach statistic is the minimum (configurable: mean) windowed
speed observed while its road-plane position lies inside the approach zone.
Thresholds: below 5 mph is stop-and-go, 5 to under 10 mph is a slow-down, and
10 mph or more is a pass-through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import EmptyInput

STOP_AND_GO_MPH = 5.0
SLOW_DOWN_MPH = 10.0


class ManeuverClass(Enum):
    PASS_THROUGH = "pass_through"
    SLOW_DOWN = "slow_down"
    STOP_AND_GO = "stop_and_go"


@dataclass(frozen=True)
class ManeuverObservation:
    track_id: int
    v_mean_mph: float
    maneuver: ManeuverClass


@dataclass(frozen=True)
class ManeuverDistribution:
    counts: dict[ManeuverClass, int]
    shares_pct: dict[ManeuverClass, float]


def classify_maneuver(
    v_mean_mph: float,
    stopgo_mph: float = STOP_AND_GO_MPH,
    slowdown_mph: float = SLOW_DOWN_MPH,
) -> ManeuverClass:
    if v_mean_mph < 0:
        raise ValueError(f"speed must be non-negative, got {v_mean_mph}")
    if v_mean_mph < stopgo_mph:
        return ManeuverClass.STOP_AND_GO
    if v_mean_mph < slowdown_mph:
        return ManeuverClass.SLOW_DOWN
    return ManeuverClass.PASS_THROUGH


def approach_speeds(kinematics, approach_zone, reduction: str = "min") -> np.ndarray:
    """Approach-zone speed statistic per track of a KinematicsTable, in its
    order: the min or mean of the track's speeds sampled inside the zone,
    NaN where none is. Every sample is tested in one points_in_polygon call."""
    if reduction not in ("min", "mean"):
        raise ValueError(f"reduction must be 'min' or 'mean', got {reduction!r}")
    out = np.full(len(kinematics.track_ids), np.nan)
    inside = _kernels.points_in_polygon(kinematics.points, approach_zone)
    speeds = kinematics.speeds_mph
    starts = kinematics.offsets[:-1]  # strictly increasing: no track is empty
    counts = np.add.reduceat(inside, starts, dtype=np.int64)
    hit = counts > 0
    if reduction == "min":
        out[hit] = np.minimum.reduceat(np.where(inside, speeds, np.inf), starts)[hit]
    else:
        # one mean per track, so each is the value speeds_mph[inside].mean()
        # gives; a segmented sum would add in another order
        zone_speeds = np.split(speeds[inside], np.cumsum(counts)[:-1])
        out[hit] = [z.mean() for z in zone_speeds if len(z)]
    return out


def maneuver_distribution(observations) -> ManeuverDistribution:
    """Counts and percentage shares per maneuver class (shares sum to 100)."""
    obs = list(observations)
    if not obs:
        raise EmptyInput("no maneuver observations")
    counts = {cls: 0 for cls in ManeuverClass}
    for o in obs:
        counts[o.maneuver] += 1
    total = len(obs)
    shares = {cls: 100.0 * c / total for cls, c in counts.items()}
    return ManeuverDistribution(counts, shares)


def observe_maneuvers(
    kinematics,
    approach_zone,
    reduction: str = "min",
    stopgo_mph: float = STOP_AND_GO_MPH,
    slowdown_mph: float = SLOW_DOWN_MPH,
) -> list[ManeuverObservation]:
    """Classify each track of a KinematicsTable by its approach-zone
    statistic; tracks never sampled inside the zone are skipped."""
    speeds = approach_speeds(kinematics, approach_zone, reduction)
    return [
        ManeuverObservation(track_id, v, classify_maneuver(v, stopgo_mph, slowdown_mph))
        for track_id, v in zip(kinematics.track_ids.tolist(), speeds.tolist())
        if not math.isnan(v)
    ]
