"""Phase-level aggregation and before/after comparison.

A phase summary carries the per-vehicle speed distribution statistics (mean,
85th percentile, 1-mph histogram) plus optional maneuver shares for one
site-phase. Comparison rows report post-minus-pre deltas rounded half away
from zero to one decimal, matching how such results are conventionally
published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

import numpy as np

from .behavior import MANEUVERS
from .errors import ConfigError, EmptyInput, InvariantViolation, LocationMismatch, NonPositiveBaseline

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


@dataclass(frozen=True)
class ComparisonRow:
    location_id: int
    metric: str  # "mean" | "p85"
    pre: float
    post_w1: float
    post_w2: float
    delta_w1: float = field(init=False)
    delta_w2: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "delta_w1", round1(self.post_w1 - self.pre))
        object.__setattr__(self, "delta_w2", round1(self.post_w2 - self.pre))


def round1(value: float) -> float:
    """Round to one decimal, ties away from zero. A float of magnitude 2**52
    or more is a whole number already."""
    if abs(value) >= 2.0**52:
        return value
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


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


def percent_change(pre: float, post: float) -> float:
    """Relative change in percent; requires a positive baseline, and one
    large enough against post that the change is a finite float."""
    if pre <= 0:
        raise NonPositiveBaseline(f"baseline must be positive, got {pre}")
    change = 100.0 * (post - pre) / pre
    if not math.isfinite(change):
        raise NonPositiveBaseline(f"percent change from {pre!r} to {post!r} overflows a float")
    return change


def compare_phases(
    pre: PhaseSummary, w1: PhaseSummary, w2: PhaseSummary, names=None
) -> tuple[ComparisonRow, ComparisonRow]:
    """(mean row, 85th-percentile row) comparing one location across phases.
    names label the three summaries in errors, by default with their phases."""
    ids = {pre.location_id, w1.location_id, w2.location_id}
    if len(ids) != 1:
        raise LocationMismatch(f"summaries span locations {sorted(ids)}")
    summaries = (pre, w1, w2)
    for s, name in zip(summaries, names or [s.phase.value for s in summaries]):
        for field in ("mean_mph", "p85_mph"):
            if getattr(s, field) is None:
                raise EmptyInput(f"{name}.{field}: null; compare needs speed statistics")
    mean_row = ComparisonRow(pre.location_id, "mean", pre.mean_mph, w1.mean_mph, w2.mean_mph)
    p85_row = ComparisonRow(pre.location_id, "p85", pre.p85_mph, w1.p85_mph, w2.p85_mph)
    return mean_row, p85_row


def delta_mismatches(
    row: ComparisonRow, reported_w1: float, reported_w2: float
) -> list[str]:
    """Flag externally reported deltas that disagree with the computed ones.

    Published before/after tables occasionally carry rounding or transcription
    slips; this compares them against deltas recomputed from the printed phase
    values and describes every cell that differs.
    """
    issues = []
    for week, computed, reported in (
        ("W1", row.delta_w1, reported_w1),
        ("W2", row.delta_w2, reported_w2),
    ):
        if abs(computed - reported) > 1e-9:
            issues.append(
                f"loc {row.location_id} {row.metric} delta {week}: "
                f"computed {computed:+.1f} but reported {reported:+.1f}"
            )
    return issues


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
