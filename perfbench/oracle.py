"""Checks one report directory against the simulator's truth.

Accuracy figures (each repeats exactly for a given seed):
  speed_mae_mph       mean |reported per-vehicle mph - truth mean speed over
                      the same frames|, over surviving genuine vehicles
  maneuver_agreement  share of observed vehicles whose class matches truth
  filter_agreement    share of fixed-fate tracks whose cascade fate matches
                      the design (per recording: designed-kept tracks found
                      in the report, plus per stage the designed removals up
                      to the stage's reported count)

Everything else here is a consistency check on the reports themselves. A
failed check is a miss; any miss fails the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import FATE_UNFIXED, FATES, MANEUVERS

SPEED_MAE_MAX_MPH = 0.25  # over three times what 0.75 px anchor noise gives here
MANEUVER_AGREEMENT_MIN = 0.95  # criterion 4's floor at 1 px noise
DELTA_TOL_MPH = 0.3  # compare's rounded delta vs the truth delta
_VID_SPAN = 10**7
_FRAME_SPAN = 10**6


class Truth:
    def __init__(self, inputs_dir: Path):
        z = np.load(inputs_dir / "truth.npz")
        keys = (z["row_rec"] * _VID_SPAN + z["row_vid"]) * _FRAME_SPAN + z["row_frame"]
        order = np.argsort(keys, kind="stable")
        self.row_keys = keys[order]
        self.row_speed = z["row_speed"][order]
        vkeys = z["veh_rec"] * _VID_SPAN + z["veh_vid"]
        vorder = np.argsort(vkeys)
        self.veh_keys = vkeys[vorder]
        self.veh_maneuver = z["veh_maneuver"][vorder]
        self.veh_fate = z["veh_fate"][vorder]
        self.veh_rec = z["veh_rec"][vorder]

    def vehicle_index(self, rec: int, vids: np.ndarray) -> np.ndarray:
        keys = rec * _VID_SPAN + np.asarray(vids, dtype=np.int64)
        idx = np.searchsorted(self.veh_keys, keys)
        idx = np.minimum(idx, len(self.veh_keys) - 1)
        if not np.array_equal(self.veh_keys[idx], keys):
            raise KeyError("reported track ids missing from the truth")
        return idx

    def speeds_at(self, rec: int, vids: np.ndarray, frames: np.ndarray) -> np.ndarray:
        keys = (rec * _VID_SPAN + vids) * _FRAME_SPAN + frames
        idx = np.minimum(np.searchsorted(self.row_keys, keys), len(self.row_keys) - 1)
        if not np.array_equal(self.row_keys[idx], keys):
            raise KeyError("reported sample frames missing from the truth")
        return self.row_speed[idx]


def _read_kinematics(path: Path):
    """(sample track ids, frames, mph) arrays and {track id: (mean, n)}."""
    tids, frames, speeds, summary = [], [], [], {}
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            tid, frame, speed, n = line.rstrip("\n").split(",")
            if frame == "summary":
                summary[int(tid)] = (float(speed), int(n))
            else:
                tids.append(int(tid))
                frames.append(int(frame))
                speeds.append(float(speed))
    return (np.array(tids, dtype=np.int64), np.array(frames, dtype=np.int64),
            np.array(speeds), summary)


def _read_maneuvers(path: Path) -> dict[int, str]:
    with open(path, encoding="utf-8") as f:
        next(f)
        return {int(t): c for t, _, c in (line.rstrip("\n").split(",") for line in f)}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@dataclass
class Tally:
    """Running sums over the recordings of one report directory."""

    abs_err: list = field(default_factory=list)  # per surviving genuine vehicle
    observed: int = 0
    agree: int = 0
    filter_total: int = 0
    filter_match: int = 0
    samples: int = 0


def _check_recording(report_dir: Path, tag: str, rec: dict, rec_counts: dict, truth: Truth, tally: Tally):
    """Checks one recording's reports; returns (representative speeds,
    truth means of the genuine ones, maneuver class counts, misses)."""
    misses = []
    if rec_counts["raw_rows"] != rec["rows"]:
        misses.append(f"{tag}: raw_rows {rec_counts['raw_rows']} != {rec['rows']}")
    tids, frames, speeds, summ = _read_kinematics(report_dir / f"{tag}_kinematics.csv")
    tally.samples += len(tids)
    kept_ids = np.array(sorted(summ), dtype=np.int64)
    uniq, inv = np.unique(tids, return_inverse=True)
    if not np.array_equal(uniq, kept_ids):
        return [], [], {}, misses + [f"{tag}: sample rows and summary rows name different tracks"]
    reps = np.array([summ[int(t)][0] for t in kept_ids])
    n = np.bincount(inv, minlength=len(uniq))
    sample_mean = np.bincount(inv, weights=speeds, minlength=len(uniq)) / np.maximum(n, 1)
    if any(summ[int(t)][1] != n[i] or not _close(reps[i], sample_mean[i]) for i, t in enumerate(kept_ids)):
        misses.append(f"{tag}: a summary row disagrees with its track's samples")
    truth_mean = np.bincount(inv, weights=truth.speeds_at(rec["rec"], tids, frames),
                             minlength=len(uniq)) / np.maximum(n, 1)
    genuine = truth.veh_fate[truth.vehicle_index(rec["rec"], kept_ids)] == FATES.index("kept")
    tally.abs_err.extend(np.abs(reps - truth_mean)[genuine])

    maneuvers = _read_maneuvers(report_dir / f"{tag}_maneuvers.csv")
    m_ids = np.array(sorted(maneuvers), dtype=np.int64)
    truth_cls = truth.veh_maneuver[truth.vehicle_index(rec["rec"], m_ids)]
    classes = dict.fromkeys(MANEUVERS, 0)
    for tid, cls in zip(m_ids, truth_cls):
        tally.observed += 1
        tally.agree += maneuvers[int(tid)] == MANEUVERS[cls]
        classes[maneuvers[int(tid)]] += 1

    in_rec = truth.veh_rec == rec["rec"]
    fates = truth.veh_fate[in_rec]
    reported_kept = np.isin(truth.veh_keys[in_rec] - rec["rec"] * _VID_SPAN, kept_ids)
    if rec_counts["counts"]["input"] != len(fates):
        misses.append(f"{tag}: {rec_counts['counts']['input']} tracks in, {len(fates)} rendered")
    tally.filter_total += int((fates != FATE_UNFIXED).sum())
    tally.filter_match += int((reported_kept & (fates == FATES.index("kept"))).sum())
    for s, stage in enumerate(FATES[1:], start=1):
        designed_gone = int(((fates == s) & ~reported_kept).sum())
        tally.filter_match += min(designed_gone, rec_counts["counts"][stage])
    return list(reps), list(truth_mean[genuine]), classes, misses


def check_reports(report_dir: Path, meta: dict, truth: Truth):
    """Returns (figures, counts, phase truth means, misses): accuracy figures
    (None where nothing was observed), per-layer counts read from the
    reports, each phase's mean truth speed over its reported genuine
    vehicles, and the failed checks."""
    misses: list[str] = []
    tally = Tally()
    phase_truth_mean: dict[str, float] = {}
    totals: dict[str, int] = {}
    for phase, recs in meta["recordings"].items():
        try:
            counts = json.loads((report_dir / f"{phase}_filter_counts.json").read_text())
            summary = json.loads((report_dir / f"{phase}_summary.json").read_text())
            for key, value in counts["totals"].items():
                totals[key] = totals.get(key, 0) + value
            reps, truth_means, classes = [], [], dict.fromkeys(MANEUVERS, 0)
            for j, rec in enumerate(recs):
                r, t, c, found = _check_recording(
                    report_dir, f"{phase}_rec{j:02d}", rec, counts["recordings"][j], truth, tally
                )
                reps += r
                truth_means += t
                classes = {k: classes[k] + c.get(k, 0) for k in classes}
                misses += found
            misses += _check_summary(phase, summary, reps, classes)
            if truth_means:
                phase_truth_mean[phase] = float(np.mean(truth_means))
        except (KeyError, IndexError, OSError, ValueError) as exc:
            # missing files, unknown track ids or frames, malformed rows
            misses.append(f"{phase}: reports do not match the inputs ({exc!r})")

    figures = {
        "speed_mae_mph": float(np.mean(tally.abs_err)) if tally.abs_err else None,
        "maneuver_agreement": tally.agree / tally.observed if tally.observed else None,
        "filter_agreement": tally.filter_match / tally.filter_total if tally.filter_total else None,
    }
    if figures["speed_mae_mph"] is None or figures["speed_mae_mph"] > SPEED_MAE_MAX_MPH:
        misses.append(f"speed MAE {figures['speed_mae_mph']} mph, at most {SPEED_MAE_MAX_MPH} expected")
    if figures["maneuver_agreement"] is None or figures["maneuver_agreement"] < MANEUVER_AGREEMENT_MIN:
        misses.append(f"maneuver agreement {figures['maneuver_agreement']}, at least {MANEUVER_AGREEMENT_MIN} expected")
    if figures["filter_agreement"] != 1.0:
        misses.append(f"filter agreement {figures['filter_agreement']}, 1 expected")

    layer_counts = {
        "ingest.rows": totals.get("raw_detections", 0),
        "ingest.tracks": totals.get("input", 0),
        **{f"ingest.{s}_removed": totals.get(s, 0) for s in FATES[1:]},
        "ingest.survival_ratio": totals.get("surviving", 0) / max(totals.get("input", 0), 1),
        "kinematics.samples": tally.samples,
        "kinematics.unprojectable": totals.get("unprojectable", 0),
        "kinematics.no_kinematics": totals.get("no_kinematics", 0),
        "behavior.observations": tally.observed,
        "pipeline.report_bytes": sum(p.stat().st_size for p in report_dir.iterdir()),
    }
    return figures, layer_counts, phase_truth_mean, misses


def _check_summary(phase: str, summary: dict, reps: list, maneuver_counts: dict) -> list[str]:
    misses = []
    if summary["sample_count"] != len(reps):
        return [f"{phase}: summary counts {summary['sample_count']} vehicles, reports list {len(reps)}"]
    if not reps:
        return misses
    if not _close(summary["mean_mph"], float(np.mean(reps))):
        misses.append(f"{phase}: summary mean {summary['mean_mph']} != mean of vehicles")
    if not _close(summary["p85_mph"], float(np.percentile(reps, 85))):
        misses.append(f"{phase}: summary p85 {summary['p85_mph']} != 85th percentile of vehicles")
    if sum(b["count"] for b in summary["histogram"]) != len(reps):
        misses.append(f"{phase}: histogram does not sum to the sample count")
    total = sum(maneuver_counts.values())
    for cls, share in summary.get("maneuvers", {}).items():
        if total and not _close(share, 100.0 * maneuver_counts[cls] / total):
            misses.append(f"{phase}: {cls} share {share} != {maneuver_counts[cls]} of {total}")
    return misses


def check_compare(cmp_dir: Path, phase_truth_mean: dict[str, float]) -> list[str]:
    """compare must reproduce the simulated pre->post mean deltas."""
    report = json.loads((cmp_dir / "percent_change.json").read_text())["mean"]
    if not {"pre", "post_w1", "post_w2"} <= set(phase_truth_mean):
        return ["compare: a phase has no genuine vehicles to compare"]
    misses = []
    for week, phase in (("w1", "post_w1"), ("w2", "post_w2")):
        want = phase_truth_mean[phase] - phase_truth_mean["pre"]
        got = report[f"delta_{week}"]
        if abs(got - want) > DELTA_TOL_MPH:
            misses.append(f"compare delta_{week} {got:+.1f} mph, simulated {want:+.2f}")
    return misses
