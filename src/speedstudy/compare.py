"""Before/after comparison of one location's three phase summaries.

`compare` reads the summaries `analyze` wrote (load_summary) and reports
post-minus-pre deltas, rounded half away from zero to one decimal as such
results are conventionally published, plus percent changes. Only `compare`
needs this module, so `analyze` and `calibrate` never load it (or decimal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .analytics import Phase, PhaseSummary
from .behavior import MANEUVERS
from .config import _at_least_zero, _get, _number, _shaped, _short, read_json
from .errors import ConfigError, EmptyInput, LocationMismatch, NonPositiveBaseline


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


def load_summary(path, phase: Phase) -> PhaseSummary:
    """A phase summary JSON (PhaseSummary.to_json_dict's schema) read for
    phase's slot with config's field readers. The histogram, when given,
    sums to sample_count, and the maneuver shares, when given, hold each
    class once and sum to 100."""
    path = Path(path)
    data = read_json(path, "summary")
    p = path.name
    found = _get(data, "phase", p)
    if found != phase.value:
        raise ConfigError(f"{p}.phase: expected {phase.value!r}, got {_short(repr(found))}")
    location = _number(_get(data, "location_id", p), f"{p}.location_id", kind=int, positive=False)
    count = _at_least_zero(_get(data, "sample_count", p), f"{p}.sample_count", kind=int)
    hours = _number(_get(data, "hours", p), f"{p}.hours")

    def speed(key: str) -> float | None:
        value = _get(data, key, p)
        return None if value is None else _at_least_zero(value, f"{p}.{key}")

    histogram = None
    if "histogram" in data:
        hp = f"{p}.histogram"
        histogram = tuple(
            (_number(_get(b, "bin_lo", f"{hp}[{i}]"), f"{hp}[{i}].bin_lo", positive=False),
             _at_least_zero(_get(b, "count", f"{hp}[{i}]"), f"{hp}[{i}].count", kind=int))
            for i, b in enumerate(_shaped(data["histogram"], list, hp))
        )
        total = sum(c for _, c in histogram)
        if total != count:
            raise ConfigError(f"{hp}: counts sum to {total}, sample_count is {count}")
    shares = None
    if "maneuvers" in data:
        mp = f"{p}.maneuvers"
        names = sorted(m.value for m in MANEUVERS)
        if sorted(_shaped(data["maneuvers"], dict, mp)) != names:
            raise ConfigError(f"{mp}: expected the keys {names}, got {sorted(data['maneuvers'])}")
        shares = {k: _at_least_zero(data["maneuvers"][k], f"{mp}.{k}") for k in names}
        for k in names:
            if shares[k] > 100:
                raise ConfigError(f"{mp}.{k}: must be <= 100")
        if abs(sum(shares.values()) - 100) > 1e-6:
            raise ConfigError(f"{mp}: shares sum to {sum(shares.values())!r}, not 100")
    return PhaseSummary(
        location, phase, count, hours, speed("mean_mph"), speed("p85_mph"), histogram, shares
    )
