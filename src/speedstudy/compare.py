"""Before/after comparison of one location's three phase summaries.

`compare` reads the summaries `analyze` wrote (load_summary) and reports
post-minus-pre deltas plus percent changes. Every figure is printed
rounded half away from zero to one decimal, as such results are
conventionally published, and each delta is the difference of the printed
values, so a table reader can check it. This module builds every row and
renders every output, so the CLI only writes them. Only `compare` needs it, so
`analyze` and `calibrate` never load it (or decimal).
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import NamedTuple

from .analytics import Phase, PhaseSummary
from .behavior import MANEUVERS
from .config import _at_least_zero, _get, _number, _shaped, _short, read_json
from .errors import ConfigError, EmptyInput, LocationMismatch, NonPositiveBaseline


class ComparisonRow(NamedTuple):
    """One metric's values as read, the deltas of their printed values, and percent changes."""

    location_id: int
    metric: str  # "mean" | "p85"
    pre: float
    post_w1: float
    post_w2: float
    delta_w1: float
    delta_w2: float
    pct_w1: float
    pct_w2: float


def round1(value: float) -> float:
    """Round to one decimal, ties away from zero. A float of magnitude 2**52
    or more is a whole number already. A zero is +0.0, which never prints
    as -0.0."""
    if abs(value) >= 2.0**52:
        return value
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)) + 0.0


def percent_change(pre: float, post: float, where: str = "pre") -> float:
    """Relative change in percent from a positive baseline, named where in
    errors, and one large enough against post that the change is a finite float."""
    if pre <= 0:
        raise NonPositiveBaseline(f"{where}: {pre!r} is not a positive baseline for a percent change")
    change = 100.0 * (post - pre) / pre
    if not math.isfinite(change):
        raise NonPositiveBaseline(f"{where}: percent change from {pre!r} to {post!r} overflows a float")
    return change


def compare_phases(
    pre: PhaseSummary, w1: PhaseSummary, w2: PhaseSummary, names=None
) -> tuple[ComparisonRow, ComparisonRow]:
    """(mean row, 85th-percentile row) comparing one location across phases.
    names label the three summaries in errors, by default with their phases."""
    summaries = (pre, w1, w2)
    names = names or [s.phase.value for s in summaries]
    for s, name in zip(summaries[1:], names[1:]):
        if s.location_id != pre.location_id:
            raise LocationMismatch(
                f"{name}.location_id: {s.location_id}, but {names[0]} has {pre.location_id}"
            )
    for s, name in zip(summaries, names):
        for field in ("mean_mph", "p85_mph"):
            if getattr(s, field) is None:
                raise EmptyInput(f"{name}.{field}: null; compare needs speed statistics")

    def row(metric: str) -> ComparisonRow:
        base, *posts = (getattr(s, f"{metric}_mph") for s in summaries)
        deltas = (round1(round1(v) - round1(base)) for v in posts)
        pcts = (percent_change(base, v, f"{names[0]}.{metric}_mph") for v in posts)
        return ComparisonRow(pre.location_id, metric, base, *posts, *deltas, *pcts)

    return row("mean"), row("p85")


def render(rows) -> tuple[str, dict, list[str]]:
    """comparison.csv's text, percent_change.json's object (the values as
    read) and the stdout lines. Every printed figure is a round1 value."""
    table = ["loc_id,metric,pre,post_w1,delta_w1,post_w2,delta_w2"]
    report = {"location_id": rows[0].location_id}
    lines = []
    for r in rows:
        pre, w1, w2 = (f"{round1(v):.1f}" for v in (r.pre, r.post_w1, r.post_w2))
        table.append(f"{r.location_id},{r.metric},{pre},{w1},{r.delta_w1:.1f},{w2},{r.delta_w2:.1f}")
        report[r.metric] = dict(zip(r._fields[2:], r[2:]))
        lines.append(
            f"loc {r.location_id} {r.metric}: pre {pre} -> "
            f"W1 {w1} ({r.delta_w1:+.1f}), W2 {w2} ({r.delta_w2:+.1f})"
        )
    return "\n".join(table) + "\n", report, lines


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
