"""Command-line interface.

Subcommands:
  calibrate --config scene.json [--max-rmse-px 2.0]
  analyze   --manifest run.json --out dir/
  compare   --pre a.json --w1 b.json --w2 c.json --out dir/
            (each a summary JSON of its slot's phase, as analyze writes it)
  simulate  --config sim.json --seed N --out dir/

Exit codes: 0 success, 2 input error (a detection CSV, or a scene config,
manifest, simulation config or phase summary JSON; the message names the
file and the field), 3 calibration gate failure, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

from .analytics import compare_phases, percent_change, Phase
from .config import load_manifest, load_scene_config, load_summary, SceneConfig
from .errors import InvariantViolation, SpeedStudyError
from .geometry import Homography, reprojection_rmse, solve_homography
from .pipeline import kinematics_csv, maneuvers_csv, process_phase

log = logging.getLogger("speedstudy")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GATE = 3
EXIT_INVARIANT = 4


def write_atomic(path: Path, text: str):
    """Write via a temp file in the same directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvariantViolation(f"report holds a number JSON cannot carry ({exc})") from None


def _solve_scene(cfg: SceneConfig) -> tuple[Homography, float]:
    h = solve_homography(cfg.correspondences)
    return h, reprojection_rmse(h, cfg.correspondences)


def cmd_calibrate(args) -> int:
    cfg = load_scene_config(args.config)
    h, rmse = _solve_scene(cfg)
    print(f"location {cfg.location_id} ({cfg.name})")
    print("canonical homography (world -> image):")
    for row in h.matrix:
        print("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    print(f"reprojection RMSE: {rmse:.6g} px (gate: {args.max_rmse_px} px)")
    if rmse > args.max_rmse_px:
        log.error("calibration gate failed: RMSE %.6g px > %.6g px", rmse, args.max_rmse_px)
        return EXIT_GATE
    return EXIT_OK


def cmd_analyze(args) -> int:
    manifest = load_manifest(args.manifest)
    cfg = load_scene_config(manifest.scene_config_path)
    h, rmse = _solve_scene(cfg)
    if rmse > args.max_rmse_px:
        log.error("calibration gate failed: RMSE %.6g px > %.6g px", rmse, args.max_rmse_px)
        return EXIT_GATE
    out = Path(args.out)
    for phase_input in manifest.phases:
        result = process_phase(phase_input, cfg, h)
        tag = phase_input.phase.value
        write_atomic(out / f"{tag}_summary.json", _json_text(result.summary.to_json_dict()))
        counts = {
            "phase": tag,
            "totals": result.filter_totals,
            "recordings": [
                {"source": r.source, "raw_rows": r.raw_rows, "counts": r.filter_counts}
                for r in result.recordings
            ],
        }
        write_atomic(out / f"{tag}_filter_counts.json", _json_text(counts))
        for i, rec in enumerate(result.recordings):
            write_atomic(out / f"{tag}_rec{i:02d}_kinematics.csv", kinematics_csv(rec.kinematics))
            if rec.maneuvers is not None:
                write_atomic(out / f"{tag}_rec{i:02d}_maneuvers.csv", maneuvers_csv(rec.maneuvers))
        print(
            f"phase {tag}: {result.summary.sample_count} vehicles, "
            f"mean {result.summary.mean_mph}, p85 {result.summary.p85_mph}"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    paths = [Path(p) for p in (args.pre, args.w1, args.w2)]
    pre, w1, w2 = (load_summary(p, phase) for p, phase in zip(paths, Phase))
    mean_row, p85_row = compare_phases(pre, w1, w2, names=[p.name for p in paths])

    lines = ["loc_id,metric,pre,post_w1,delta_w1,post_w2,delta_w2"]
    for row in (mean_row, p85_row):
        lines.append(
            f"{row.location_id},{row.metric},{row.pre:.1f},{row.post_w1:.1f},"
            f"{row.delta_w1:.1f},{row.post_w2:.1f},{row.delta_w2:.1f}"
        )
    out = Path(args.out)
    write_atomic(out / "comparison.csv", "\n".join(lines) + "\n")

    report = {"location_id": pre.location_id}
    for row in (mean_row, p85_row):
        report[row.metric] = {
            "pre": row.pre,
            "post_w1": row.post_w1,
            "post_w2": row.post_w2,
            "delta_w1": row.delta_w1,
            "delta_w2": row.delta_w2,
            "pct_w1": percent_change(row.pre, row.post_w1),
            "pct_w2": percent_change(row.pre, row.post_w2),
        }
    write_atomic(out / "percent_change.json", _json_text(report))
    for row in (mean_row, p85_row):
        print(
            f"loc {row.location_id} {row.metric}: pre {row.pre:.1f} -> "
            f"W1 {row.post_w1:.1f} ({row.delta_w1:+.1f}), "
            f"W2 {row.post_w2:.1f} ({row.delta_w2:+.1f})"
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulator import ground_truth_csv, load_sim_config, render_scene, serialize_detections

    sim = load_sim_config(args.config)
    detections, truth = render_scene(
        sim.vehicles,
        sim.homography,
        sim.fps,
        sim.duration_s,
        sim.noise_sigma_px,
        seed=args.seed,
        approach_zone=sim.approach_zone,
    )
    out = Path(args.out)
    write_atomic(out / "detections.csv", serialize_detections(detections, sim.class_map))
    write_atomic(out / "ground_truth.csv", ground_truth_csv(truth))

    speeds = [float(v.speeds_mph.max()) for v in truth.vehicles]
    # empty when no vehicle falls inside the time window
    peaks = f"peak speeds {min(speeds):.1f}-{max(speeds):.1f} mph, " if speeds else ""
    print(
        f"rendered {len(truth.vehicles)} vehicles, {len(detections)} detections, "
        f"{peaks}seed {args.seed}"
    )
    return EXIT_OK


def _non_negative(kind: type):
    """An argparse type: a kind (int or float) value >= 0. NaN fails too, so
    a --max-rmse-px of nan cannot turn the gate off, and a --seed is one
    numpy's random generators take."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speedstudy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve and gate the scene homography")
    p.add_argument("--config", required=True, help="scene config JSON")
    p.add_argument("--max-rmse-px", type=_non_negative(float), default=2.0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("analyze", help="run the full pipeline over a manifest")
    p.add_argument("--manifest", required=True, help="run manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-rmse-px", type=_non_negative(float), default=2.0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="before/after comparison of three summaries")
    p.add_argument("--pre", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="render a synthetic scene to CSV")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=_non_negative(int), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        log.error("internal invariant violated: %s", exc)
        return EXIT_INVARIANT
    except (SpeedStudyError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
