"""Maneuver classification near the crossing.

A vehicle's approach statistic is the minimum (configurable: mean) windowed
speed observed while its road-plane position lies inside the approach zone.
Thresholds: below 5 mph is stop-and-go, 5 to under 10 mph is a slow-down, and
10 mph or more is a pass-through.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import _kernels
from .errors import EmptyInput
from .kinematics import TrackKinematics

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


def approach_speed(kin: TrackKinematics, approach_zone, reduction: str = "min") -> float | None:
    """Approach-zone speed statistic for one vehicle, or None if none of its
    samples lies inside the zone."""
    if reduction not in ("min", "mean"):
        raise ValueError(f"reduction must be 'min' or 'mean', got {reduction!r}")
    inside = _kernels.points_in_polygon(kin.points, approach_zone)
    if not inside.any():
        return None
    in_zone = kin.speeds_mph[inside]
    return float(in_zone.min() if reduction == "min" else in_zone.mean())


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
    kinematics_list,
    approach_zone,
    reduction: str = "min",
    stopgo_mph: float = STOP_AND_GO_MPH,
    slowdown_mph: float = SLOW_DOWN_MPH,
) -> list[ManeuverObservation]:
    """Classify each track by its approach-zone statistic; tracks never
    sampled inside the zone are skipped."""
    observations = []
    for kin in kinematics_list:
        v = approach_speed(kin, approach_zone, reduction)
        if v is None:
            continue
        observations.append(
            ManeuverObservation(kin.track_id, v, classify_maneuver(v, stopgo_mph, slowdown_mph))
        )
    return observations
