"""Command-line interface.

Subcommands:
  calibrate --config scene.json [--max-rmse-px 2.0]
  analyze   --manifest run.json --out new_dir/
  compare   --pre a.json --w1 b.json --w2 c.json --out new_dir/
            (each a summary JSON of its slot's phase, as analyze writes it)
  simulate  --config sim.json --seed N --out new_dir/

Exit codes: 0 success, 2 input error (a detection CSV, or a scene config,
manifest, simulation config or phase summary JSON, named with the field;
or an --out that exists or cannot be written), 3 calibration gate failure,
4 internal invariant violation. Only a run that exits 0 leaves an --out.

analyze builds its reports in one loop per phase: each recording's CSVs as
soon as it is analysed, then the phase's summary and filter-count JSONs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .analytics import Phase
from .config import load_manifest, load_scene_config, SceneConfig
from .errors import InvariantViolation, SpeedStudyError
from .geometry import Homography, reprojection_rmse, solve_homography
from .pipeline import filter_counts, kinematics_csv, maneuvers_csv, process_phase, summarize_phase

log = logging.getLogger("speedstudy")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GATE = 3
EXIT_INVARIANT = 4

MAX_RMSE_PX = 2.0  # the calibration gate's default, for calibrate and analyze alike


@contextmanager
def _writing(out: Path):
    """Report an OSError as a failure to write out, not as one of a private path."""
    try:
        yield
    except OSError as exc:
        raise SpeedStudyError(f"{out}: cannot write the reports ({exc.strerror or exc})") from None


def write_atomic(out: Path, reports):
    """Write reports, (file name, text) pairs, into a private sibling directory
    of out, give it the mode a plain mkdir would and rename it to out. Any
    exception, KeyboardInterrupt included, removes it, so out gets all or none."""
    if os.path.lexists(out):  # a rename would replace an empty directory
        raise SpeedStudyError(f"{out}: already exists; reports go to a new --out directory")
    with _writing(out):
        tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        for name, text in reports:
            with _writing(out):
                (tmp / name).write_text(text, encoding="utf-8")
            del text  # not held while the next one is built
        umask = os.umask(0)
        os.umask(umask)
        with _writing(out):
            tmp.chmod(0o777 & ~umask)
            tmp.rename(out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
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
    lines: list[str] = []
    write_atomic(Path(args.out), _analyze_reports(manifest, cfg, h, lines))
    print("\n".join(lines))
    return EXIT_OK


def _analyze_reports(manifest, cfg, h, lines: list[str]):
    """Each phase's reports in one loop: each recording's CSVs as soon as
    process_phase yields it, then the phase's summary and filter counts;
    the phase's line goes to lines after its last report.

    A recording's tables are let go once its CSVs are built, before the next
    recording is parsed; only its source, row count, filter counts,
    representative speeds and maneuver codes stay."""
    for phase_input in manifest.phases:
        tag = phase_input.phase.value
        recordings, speeds, maneuvers = [], [], []
        for rec in process_phase(phase_input, cfg, h):
            i = len(recordings)
            yield f"{tag}_rec{i:02d}_kinematics.csv", kinematics_csv(rec.kinematics)
            if rec.maneuvers is not None:
                yield f"{tag}_rec{i:02d}_maneuvers.csv", maneuvers_csv(rec.maneuvers)
                maneuvers.append(rec.maneuvers.classes)
            speeds.append(rec.kinematics.representative_mph)
            recordings.append(
                {"source": rec.source, "raw_rows": rec.raw_rows, "counts": filter_counts(rec.fates)}
            )
            del rec  # not held while the next recording is parsed
        raw_rows = sum(r["raw_rows"] for r in recordings)
        summary = summarize_phase(phase_input, cfg, speeds, maneuvers, raw_rows)
        yield f"{tag}_summary.json", _json_text(summary.to_json_dict())
        totals = {name: sum(r["counts"][name] for r in recordings) for name in recordings[0]["counts"]}
        totals["raw_detections"] = raw_rows
        counts = {"phase": tag, "totals": totals, "recordings": recordings}
        yield f"{tag}_filter_counts.json", _json_text(counts)
        lines.append(
            f"phase {tag}: {summary.sample_count} vehicles, "
            f"mean {summary.mean_mph}, p85 {summary.p85_mph}"
        )


def cmd_compare(args) -> int:
    from .compare import compare_phases, load_summary, render

    paths = [Path(p) for p in (args.pre, args.w1, args.w2)]
    summaries = (load_summary(p, phase) for p, phase in zip(paths, Phase))
    table, report, lines = render(compare_phases(*summaries, names=[p.name for p in paths]))
    write_atomic(Path(args.out), [("comparison.csv", table), ("percent_change.json", _json_text(report))])
    print("\n".join(lines))
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
    write_atomic(Path(args.out), [
        ("detections.csv", serialize_detections(detections, sim.class_map)),
        ("ground_truth.csv", ground_truth_csv(truth)),
    ])

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
    p.add_argument("--max-rmse-px", type=_non_negative(float), default=MAX_RMSE_PX)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("analyze", help="run the full pipeline over a manifest")
    p.add_argument("--manifest", required=True, help="run manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-rmse-px", type=_non_negative(float), default=MAX_RMSE_PX)
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
