"""One fresh benchmark process.

  worker.py analyze --manifest M --out DIR --result FILE [--trace FILE --run-id ID]
      Set up (import speedstudy, load manifest and scene config, solve and
      gate the homography), then run `speedstudy analyze` once in-process.
      With --trace, every layer boundary records spans, written to FILE.
  worker.py kernels --seed N --result FILE
      Time the three numeric kernels at fixed sizes, KERNEL_REPS times each.

Results go to --result as JSON. The source tree to import comes from
PYTHONPATH, which the caller sets.
"""

import time

_STARTED = time.perf_counter()  # before speedstudy or numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_RMSE_PX = 2.0  # the CLI's default calibration gate
KERNEL_REPS = 5


def cmd_analyze(args) -> dict:
    import speedstudy
    from speedstudy import cli, config, geometry

    tracer, missing = None, []
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        missing = tracer.install(speedstudy)
    span = tracer.span if tracer else lambda name: nullcontext()

    with span("setup"):
        manifest = config.load_manifest(args.manifest)
        cfg = config.load_scene_config(manifest.scene_config_path)
        with span("geometry.calibrate"):
            h = geometry.solve_homography(cfg.correspondences)
            rmse = geometry.reprojection_rmse(h, cfg.correspondences)
    if rmse > MAX_RMSE_PX:
        raise SystemExit(f"calibration gate failed: {rmse} px")
    setup_s = time.perf_counter() - _STARTED

    start = time.perf_counter()
    with span("analyze"):
        code = cli.main(["analyze", "--manifest", args.manifest, "--out", args.out])
    analyze_s = time.perf_counter() - start
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "analyze_s": analyze_s,
        "peak_rss_mb": peak_rss_mb(),
        "backend": speedstudy.backend_name(),
        "untraced_boundaries": missing,
    }
    if tracer:
        tracer.write(args.trace, following_counts(tracer.kept.get("kernels.close_pair_counts", [])))
    return result


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM). Not ru_maxrss: Linux
    carries the parent's resident set at spawn into a child's ru_maxrss."""
    with open("/proc/self/status", encoding="ascii") as f:
        kib = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    return int(kib) / 1024.0


def following_counts(calls) -> dict:
    """Ordered track pairs the close-follower scan visits (sum of k(k-1) over
    frames holding k tracks) and the largest pair-matrix allocation (two
    int64 n x n matrices), over all calls."""
    import numpy as np

    pairs, matrix_bytes = 0, 0
    for frames, n_tracks in calls:
        _, k = np.unique(frames, return_counts=True)
        pairs += int((k * (k - 1)).sum())
        matrix_bytes = max(matrix_bytes, 2 * 8 * int(n_tracks) ** 2)
    return {"ingest.following_pairs": pairs, "ingest.following_matrix_bytes": matrix_bytes}


# kernel microbenchmarks at fixed sizes: (metric stem, function making the timed job)
def _points_in_polygon(rng, kernels):
    pts = rng.uniform(-10, 110, size=(1_000_000, 2))
    poly = [[0, 0], [100, 5], [110, 60], [50, 105], [-5, 55]]
    return lambda: kernels.points_in_polygon(pts, poly)


def _window_speeds(rng, kernels):
    import numpy as np

    frames = np.arange(300, dtype=np.int64)
    tracks = [(np.cumsum(rng.normal(0, 0.5, 300)), np.cumsum(rng.normal(0, 0.5, 300))) for _ in range(2000)]

    def run():
        for xs, ys in tracks:
            kernels.window_speeds(frames, xs, ys, 10, 5, 10.0)

    return run


def _close_pair_counts(rng, kernels):
    import numpy as np

    n_tracks, n_frames = 400, 250
    rows = n_tracks * n_frames
    frames = np.repeat(np.arange(n_frames), n_tracks).astype(np.int64)
    track_idx = np.tile(np.arange(n_tracks), n_frames).astype(np.int64)
    us, vs = rng.uniform(0, 2000, rows), rng.uniform(0, 1100, rows)
    ang = rng.uniform(0, 2 * np.pi, rows)
    dus, dvs = np.cos(ang), np.sin(ang)
    return lambda: kernels.close_pair_counts(frames, track_idx, us, vs, dus, dvs, 40.0, n_tracks)


KERNEL_BENCHES = (
    ("kernels.bench.points_in_polygon_1m", _points_in_polygon),
    ("kernels.bench.window_speeds_2000x300", _window_speeds),
    ("kernels.bench.close_pair_counts_400x250", _close_pair_counts),
)


def cmd_kernels(args) -> dict:
    import numpy as np

    import speedstudy
    from speedstudy import _kernels

    rng = np.random.default_rng(args.seed)
    times = {}
    for stem, build in KERNEL_BENCHES:
        job = build(rng, _kernels)
        job()  # warm-up: first-call compilation or allocation is not timed
        samples = []
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            job()
            samples.append(time.perf_counter() - start)
        times[stem] = samples
    return {"backend": speedstudy.backend_name(), "times": times}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("analyze")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace")
    p.add_argument("--run-id", default="")
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("kernels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_kernels)
    args = parser.parse_args()
    result = args.func(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
