"""Phase-level aggregation.

A phase summary carries the per-vehicle speed distribution statistics (mean
from math.fsum's correctly rounded sum, so independent of the vehicles'
order; 85th percentile interpolated at rank 0.85*(n-1); histogram of 1-mph
bins) plus optional maneuver shares for one site-phase; `analyze` writes one
per phase. The before/after comparison of three summaries is in `compare`,
which only the `compare` command loads.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .behavior import MANEUVERS
from .errors import ConfigError, EmptyInput

# Histograms wider than this are refused: each bin is a report row.
MAX_HISTOGRAM_BINS = 100_000


class Phase(Enum):
    PRE = "pre"
    POST_W1 = "post_w1"
    POST_W2 = "post_w2"


class PhaseSummary(NamedTuple):
    location_id: int
    phase: Phase
    sample_count: int
    hours: float
    mean_mph: float | None
    p85_mph: float | None
    histogram: tuple[tuple[float, int], ...] | None = None  # (bin lower edge, count)
    maneuver_shares: dict[str, float] | None = None

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
    speeds = np.asarray(values, dtype=np.float64).tolist()
    if not speeds:
        raise EmptyInput("mean of zero values")
    return math.fsum(speeds) / len(speeds)


def percentile_85(values) -> float:
    """85th percentile of a speed sample: the rank 0.85*(n-1), interpolated
    linearly between the flanking order statistics."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise EmptyInput("percentile of zero values")
    rank = 0.85 * (n - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    v_lo = float(arr[lo])
    v_hi = float(arr[hi])
    if lo == hi:
        return v_lo
    # clamped so rounding can never push the result outside [v_lo, v_hi]
    return min(max(v_lo + (rank - lo) * (v_hi - v_lo), v_lo), v_hi)


def histogram(values) -> tuple[tuple[float, int], ...]:
    """Half-open 1-mph bins [k, k+1) covering the data range contiguously.

    ConfigError when that takes more than MAX_HISTOGRAM_BINS bins, or bins
    beyond the int64 range (values not finite included)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return ()
    idx = np.floor(arr)
    lo, hi = idx.min(), idx.max()
    if not (-(2.0**62) < lo and hi < 2.0**62 and hi - lo < MAX_HISTOGRAM_BINS):
        raise ConfigError(
            f"histogram: speeds {float(arr.min())!r} to {float(arr.max())!r} mph need "
            f"more than {MAX_HISTOGRAM_BINS:,} one-mph bins"
        )
    lo, hi = int(lo), int(hi)
    counts = np.bincount(idx.astype(np.int64) - lo, minlength=hi - lo + 1)
    return tuple((float(k), int(c)) for k, c in zip(range(lo, hi + 1), counts))


def build_phase_summary(
    location_id: int,
    phase: Phase,
    speeds_mph,
    hours: float,
    maneuvers=None,
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
        p85_mph=None if empty else percentile_85(values),
        histogram=histogram(values),
        maneuver_shares=shares,
    )
