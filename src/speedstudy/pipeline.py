"""End-to-end per-recording and per-phase processing.

One recording (a single detection CSV) runs parse -> assemble -> filter
cascade -> world-plane kinematics -> maneuver classification. A phase is a
plain stream of its recordings' results, one at a time (process_phase);
summarize_phase pools the per-vehicle speeds and maneuver codes its caller
kept from them into one PhaseSummary. Track ids are only unique within a
recording, which is why recordings are processed independently and
exported separately.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from itertools import chain
from typing import NamedTuple

import numpy as np

from .analytics import PhaseSummary, build_phase_summary
from .behavior import MANEUVERS, ManeuverTable, observe_maneuvers
from .config import PhaseInput, SceneConfig
from .geometry import Homography
from .ingest import (
    CASCADE_STAGES, DetectionTable, assemble_tracks, parse_track_file, run_filter_cascade, surviving,
)
from .kinematics import KinematicsTable, to_world_track, track_kinematics

log = logging.getLogger(__name__)

FATES = ("kept", *CASCADE_STAGES, "unprojectable", "no_kinematics")  # fate code -> name

# the report CSVs' speeds: each within 5e-12 (relative) of its float64, far
# finer than the ~0.6% a pixel of calibration error moves a speed, and about
# a third of the time `%r` takes. The summary JSON keeps full `repr`.
SPEED_FORMAT = "%.12g"


class RecordingResult(NamedTuple):
    source: str
    raw_rows: int
    kinematics: KinematicsTable
    maneuvers: ManeuverTable | None
    fates: np.ndarray  # (T,) int8 code into FATES per assembled track, read-only


def process_detections(
    detections: DetectionTable, cfg: SceneConfig, h: Homography, source: str = "<memory>"
) -> RecordingResult:
    """Run the full analysis over one recording's parsed detections.

    Each table is handed on through `held`, with no name bound to it, so
    the parsed rows are freed during assembly and the assembled tracks once
    the cascade's first stage has its output. (CPython 3.11 and later hand
    a call's arguments over to the callee; older versions keep them on the
    caller's stack until the call returns.)
    """
    raw_rows = len(detections)
    held = [detections]
    del detections
    held.append(assemble_tracks(held.pop(), h))
    survivors, fates = run_filter_cascade(
        held.pop(), cfg.aoi_polygon, cfg.travel_direction, h, cfg.thresholds
    )

    world = to_world_track(survivors)
    kins = track_kinematics(world, cfg.fps)
    # a survivor missing from world is unprojectable, else from kins no_kinematics
    lost = [~surviving(survivors.track_ids, t.track_ids) for t in (world, kins)]
    codes = [FATES.index("unprojectable"), FATES.index("no_kinematics")]
    fates[fates == 0] = np.select(lost, codes)
    fates.setflags(write=False)

    maneuvers = None
    if cfg.intersection_type == "unsignalized":
        maneuvers = observe_maneuvers(kins, cfg.approach_zone)
    return RecordingResult(source, raw_rows, kins, maneuvers, fates)


def process_recording(path, cfg: SceneConfig, h: Homography) -> RecordingResult:
    # unnamed, so process_detections can free the parsed rows (see there)
    return process_detections(parse_track_file(path, cfg.class_map), cfg, h, source=str(path))


def process_phase(
    phase_input: PhaseInput, cfg: SceneConfig, h: Homography
) -> Iterator[RecordingResult]:
    """Yield each of a phase's recordings' results as soon as it exists. A
    caller that lets go of each result before asking for the next holds one
    recording's tables at a time."""
    for path in phase_input.detection_paths:
        yield process_recording(path, cfg, h)


def summarize_phase(
    phase_input: PhaseInput, cfg: SceneConfig, speeds, maneuvers, raw_rows: int
) -> PhaseSummary:
    """The phase's summary from its recordings' representative speeds and
    maneuver codes (one array per recording; no maneuver arrays at a
    signalized site) and its raw detection row count, which is logged."""
    summary = build_phase_summary(
        cfg.location_id,
        phase_input.phase,
        np.concatenate(speeds),
        phase_input.hours,
        maneuvers=np.concatenate(maneuvers) if maneuvers else None,
    )
    if not summary.sample_count:
        log.warning("phase %s: no vehicles survived; writing empty report", phase_input.phase.value)
    log.info(
        "phase %s: %d raw rows, %d vehicles in summary",
        phase_input.phase.value,
        raw_rows,
        summary.sample_count,
    )
    return summary


def filter_counts(fates: np.ndarray) -> dict[str, int]:
    """The filter_counts.json object of one recording's fate codes."""
    counts = dict(zip(FATES, np.bincount(fates, minlength=len(FATES)).tolist()))
    lost = {fate: counts.pop(fate) for fate in ("unprojectable", "no_kinematics")}
    surviving = counts.pop("kept") + sum(lost.values())
    return {"input": len(fates), **counts, "surviving": surviving, **lost}


def kinematics_csv(kins: KinematicsTable) -> str:
    """Sample rows plus one `track_id,summary,<mean mph>,<n samples>` row per
    track (the literal 'summary' sits in the frame column). Speeds are
    written to 12 significant digits (SPEED_FORMAT)."""
    chunks = ["track_id,frame,speed_mph,window_frames\n"]
    offsets = kins.offsets.tolist()
    for track_id, mean, a, b in zip(
        kins.track_ids.tolist(), kins.representative_mph.tolist(), offsets, offsets[1:]
    ):
        # one format per track: a str per sample row, or every sample of the
        # recording as Python objects at once, would raise peak memory
        columns = (kins.frames[a:b], kins.speeds_mph[a:b], kins.window_frames[a:b])
        values = tuple(chain.from_iterable(zip(*(c.tolist() for c in columns))))
        chunks.append((f"{track_id},%d,{SPEED_FORMAT},%d\n" * (b - a)) % values)
        chunks.append(f"{track_id},summary,{SPEED_FORMAT % mean},{b - a}\n")
    return "".join(chunks)


def maneuvers_csv(maneuvers: ManeuverTable) -> str:
    names = [cls.value for cls in MANEUVERS]
    columns = (
        maneuvers.track_ids.tolist(),
        maneuvers.v_mean_mph.tolist(),
        [names[code] for code in maneuvers.classes.tolist()],
    )
    values = tuple(chain.from_iterable(zip(*columns)))
    row = f"%d,{SPEED_FORMAT},%s\n"
    return "track_id,v_mean_mph,class\n" + (row * len(maneuvers.track_ids)) % values
