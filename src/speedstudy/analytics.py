"""Phase-level aggregation.

A phase summary carries the per-vehicle speed distribution statistics (mean,
85th percentile, 1-mph histogram) plus optional maneuver shares for one
site-phase; `analyze` writes one per phase. The before/after comparison of
three summaries is in `compare`, which only the `compare` command loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .behavior import MANEUVERS
from .errors import ConfigError, EmptyInput, InvariantViolation

# Histograms wider than this are refused: each bin is a report row.
MAX_HISTOGRAM_BINS = 100_000


class Phase(Enum):
    PRE = "pre"
    POST_W1 = "post_w1"
    POST_W2 = "post_w2"


@dataclass(frozen=True)
class PhaseSummary:
    location_id: int
    phase: Phase
    sample_count: int
    hours: float
    mean_mph: float | None
    p85_mph: float | None
    histogram: tuple[tuple[float, int], ...] | None = None  # (bin lower edge, count)
    maneuver_shares: dict[str, float] | None = None

    def __post_init__(self):
        if self.histogram is not None:
            total = sum(c for _, c in self.histogram)
            if total != self.sample_count:
                raise InvariantViolation(
                    f"histogram total {total} != sample count {self.sample_count}"
                )

    def to_json_dict(self) -> dict:
        out = {
            "location_id": self.location_id,
            "phase": self.phase.value,
            "sample_count": self.sample_count,
            "hours": self.hours,
            "mean_mph": self.mean_mph,
            "p85_mph": self.p85_mph,
        }
        if self.histogram is not None:
            out["histogram"] = [{"bin_lo": lo, "count": c} for lo, c in self.histogram]
        if self.maneuver_shares is not None:
            out["maneuvers"] = dict(self.maneuver_shares)
        return out


def mean_speed(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("mean of zero values")
    return float(arr.mean())


def percentile_85(values, method: str = "interpolate") -> float:
    """85th percentile of a speed sample.

    'interpolate' places the rank at 0.85*(n-1) and interpolates linearly
    between the flanking order statistics; 'nearest_rank' takes the smallest
    value whose cumulative share reaches 85%.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise EmptyInput("percentile of zero values")
    if method == "interpolate":
        rank = 0.85 * (n - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        v_lo = float(arr[lo])
        v_hi = float(arr[hi])
        if lo == hi:
            return v_lo
        # clamped so rounding can never push the result outside [v_lo, v_hi]
        return min(max(v_lo + (rank - lo) * (v_hi - v_lo), v_lo), v_hi)
    if method == "nearest_rank":
        return float(arr[max(math.ceil(0.85 * n), 1) - 1])
    raise ValueError(f"unknown percentile method {method!r}")


def histogram(values, bin_width: float = 1.0) -> tuple[tuple[float, int], ...]:
    """Half-open [k*w, (k+1)*w) bins covering the data range contiguously.

    ConfigError when that takes more than MAX_HISTOGRAM_BINS bins, or bins
    beyond the int64 range (values not finite included)."""
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return ()
    idx = np.floor(arr / bin_width)
    lo, hi = idx.min(), idx.max()
    if not (-(2.0**62) < lo and hi < 2.0**62 and hi - lo < MAX_HISTOGRAM_BINS):
        raise ConfigError(
            f"histogram_bin_mph: bins of {bin_width!r} mph over speeds {float(arr.min())!r} "
            f"to {float(arr.max())!r} mph would exceed {MAX_HISTOGRAM_BINS} bins"
        )
    lo, hi = int(lo), int(hi)
    counts = np.bincount(idx.astype(np.int64) - lo, minlength=hi - lo + 1)
    return tuple((k * bin_width, int(c)) for k, c in zip(range(lo, hi + 1), counts))


def build_phase_summary(
    location_id: int,
    phase: Phase,
    speeds_mph,
    hours: float,
    maneuvers=None,
    bin_width_mph: float = 1.0,
    percentile_method: str = "interpolate",
) -> PhaseSummary:
    """Assemble one site-phase record from per-vehicle speeds and maneuver
    codes (into MANEUVERS). A phase without speeds has no mean, p85 or
    histogram bins, and one without maneuver codes no shares."""
    if hours <= 0:
        raise ValueError(f"recording hours must be positive, got {hours}")
    values = np.asarray(speeds_mph, dtype=np.float64)
    shares = None
    if maneuvers is not None and len(maneuvers):
        counts = np.bincount(maneuvers, minlength=len(MANEUVERS)).tolist()
        shares = {cls.value: 100.0 * c / len(maneuvers) for cls, c in zip(MANEUVERS, counts)}
    empty = not len(values)
    return PhaseSummary(
        location_id=location_id,
        phase=phase,
        sample_count=len(values),
        hours=hours,
        mean_mph=None if empty else mean_speed(values),
        p85_mph=None if empty else percentile_85(values, percentile_method),
        histogram=histogram(values, bin_width_mph),
        maneuver_shares=shares,
    )
