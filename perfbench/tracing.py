"""In-memory spans around the program's layer boundaries.

``Tracer.install`` replaces the module attributes the pipeline calls
through with wrappers that record one span per call: name, start, end and
the enclosing span. Nothing inside ``src/`` changes; the wrappers sit on the
names the callers look up at call time (``pipeline.assemble_tracks`` rather
than ``ingest.assemble_tracks``, since ``pipeline`` imported the name).
Spans stay in memory until ``write`` dumps them at the end of a run, so a
layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# (module, attribute, span name); the span name plus "_s" is the layer metric.
# A boundary that is missing from the program is reported by install() and
# fails the traced run: a refactor that moves one must update this table.
BOUNDARIES = (
    ("cli", "load_manifest", "config.load"),
    ("cli", "load_scene_config", "config.load"),
    ("cli", "_solve_scene", "geometry.calibrate"),
    ("cli", "process_phase", "pipeline.phase"),
    ("cli", "kinematics_csv", "pipeline.csv"),
    ("cli", "maneuvers_csv", "pipeline.csv"),
    ("cli", "write_atomic", "pipeline.write"),
    ("pipeline", "process_recording", "pipeline.recording"),
    ("pipeline", "process_detections", "pipeline.process_detections"),
    ("pipeline", "parse_track_file", "ingest.parse"),
    ("pipeline", "assemble_tracks", "ingest.assemble"),
    ("pipeline", "run_filter_cascade", "ingest.cascade"),
    ("pipeline", "to_world_track", "kinematics.world"),
    ("pipeline", "track_kinematics", "kinematics.speeds"),
    ("pipeline", "observe_maneuvers", "behavior.maneuvers"),
    ("pipeline", "build_phase_summary", "analytics.summary"),
    ("ingest", "clip_to_aoi", "ingest.aoi"),
    ("ingest", "filter_vehicle_type", "ingest.vehicle_type"),
    ("ingest", "filter_stationary", "ingest.stationary"),
    ("ingest", "filter_following", "ingest.following"),
    ("ingest", "filter_direction", "ingest.direction"),
    ("ingest", "project_points", "geometry.project"),
    ("kinematics", "project_points", "geometry.project"),
    ("geometry", "project_points", "geometry.project"),
    ("geometry.Homography", "inverse", "geometry.inverse"),
    ("_kernels", "points_in_polygon", "kernels.points_in_polygon"),
    ("_kernels", "close_pair_counts", "kernels.close_pair_counts"),
    ("_kernels", "window_speeds", "kernels.window_speeds"),
)

# close_pair_counts(frames, track_idx, us, vs, dus, dvs, max_px, n_tracks):
# the frame column and track count give the pair work and matrix size
KEEP = {"kernels.close_pair_counts": lambda args: (args[0], args[7])}

NO_PARENT = -1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index)
        self._stack = [NO_PARENT]
        self.kept: dict[str, list] = {}  # span name -> what keep() took from each call

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self._stack[-1])

    def wrap(self, owner, attr: str, name: str, keep=None) -> bool:
        """Replace owner.attr with a spanning wrapper. keep(args), when given,
        picks what to retain from each call's arguments, for counts that are
        computed after the run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.kept.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1])
                if kept is not None:
                    kept.append(keep(args))

        setattr(owner, attr, traced)
        return True

    def install(self, package) -> list[str]:
        """Wrap every boundary found in the imported package; returns the
        boundaries that were missing."""
        missing = []
        for owner_path, attr, name in BOUNDARIES:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            keep = KEEP.get(name)
            if owner is None or not self.wrap(owner, attr, name, keep):
                missing.append(f"{owner_path}.{attr}")
        return missing

    def write(self, path, counters: dict):
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": counters,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def layer_times(spans, root: str) -> dict[str, dict]:
    """Per span name within the subtree of the span named root: call count,
    total seconds and self seconds (total minus the time covered by direct
    children). Self times of the subtree sum to the root's duration."""
    inside = [False] * len(spans)
    child = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        # a parent is always recorded before its children
        inside[i] = name == root or (parent != NO_PARENT and inside[parent])
        if inside[i] and parent != NO_PARENT:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        if inside[i]:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
    return out
