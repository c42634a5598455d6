"""End-to-end benchmark of `speedstudy analyze` on seeded study inputs.

Usage (from the repository root):

  python3 perfbench/run.py --workload study_free_flow --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json. For a (workload,
seed) the simulator renders the detection CSVs, manifest, scene config and
ground truth once, cached under perfbench/.work/inputs, outside every timed
region. Each repetition then starts a fresh worker process (worker.py) that
sets up and runs `speedstudy analyze` over the manifest, one process per
repetition, until --seconds have passed. Every repetition's report
directory must hash the same, and the first one is checked against the
simulator's truth (oracle.py).

--trace 0 prints the end-to-end metrics. On a shared machine the host's
speed drifts by tens of percent over seconds to minutes, so this process
and its workers share one CPU, a fixed probe (HostProbe) runs on it before
the first repetition and after each one, and analyze_s and setup_s are the
mean repetition time scaled by PROBE_REF_S / mean probe time: seconds on a
host where the probe takes PROBE_REF_S. Means rather than medians, because
the host's speed jumps between states and a median of ten jumps with it.
Raw times and probe times are kept in result.json; peak_rss_mb and the
accuracy figures are medians.
--trace 1 alternates untraced and traced repetitions over --seconds; the
traced ones' spans (tracing.py) give the per-layer metrics. It then times the
three numeric kernels at fixed sizes. Traced reports must be byte-identical
to untraced ones, and every layer boundary in tracing.BOUNDARIES must be
found in the program.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
repetition ran and matched the oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKER_TIMEOUT_S = 150
MIN_REPS = 3  # per mode (untraced, traced)
MAX_REPS = 100
PROBE_CHUNKS = 60  # about 0.25 s
PROBE_REF_S = 0.004  # seconds per probe chunk on a 2-vCPU x86-64 VM
CACHED_INPUT_SETS = 3  # per workload; older seeds' inputs are deleted


def source_key() -> str:
    """Digest of the program and benchmark sources; cached inputs and the
    expected report hash are only reused under the same key."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD commit read from .git without running git; "none" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def ensure_inputs(workload: str, seed: int, key: str) -> Path:
    import workloads

    base = WORK / "inputs"
    target = base / f"{workload}-s{seed}-{key}"
    if not (target / "meta.json").is_file():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        workloads.generate(workload, seed, tmp)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    target.touch()
    stale = sorted(
        (p for p in base.glob(f"{workload}-s*") if p != target and not p.name.endswith(".tmp")),
        key=lambda p: p.stat().st_mtime,
    )
    for old in stale[: max(0, len(stale) - (CACHED_INPUT_SETS - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one worker, one thread
    return env


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


class HostProbe:
    """A fixed mix of the work the pipeline does (splitting CSV text,
    parsing floats, grouping rows in a dict, a numpy sort), timed in this
    process. Nothing of the program under test runs in it, so its time
    follows the host's speed alone."""

    def __init__(self):
        import numpy as np

        self.text = "\n".join(f"{i},{i % 97},{i * 0.37:.3f},{i * 1.91:.3f},car,0.9" for i in range(4000))
        self.array = np.random.default_rng(0).random(50_000)
        self.sort = np.sort

    def _chunk(self):
        groups: dict = {}
        for fields in (line.split(",") for line in self.text.split("\n")):
            groups.setdefault(fields[1], []).append(float(fields[2]) + float(fields[3]))
        self.sort(self.array)

    def __call__(self) -> float:
        """Seconds per chunk, over PROBE_CHUNKS chunks."""
        start = time.perf_counter()
        for _ in range(PROBE_CHUNKS):
            self._chunk()
        return (time.perf_counter() - start) / PROBE_CHUNKS


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, runs_dir: Path, manifest: Path, run_id: str):
        self.runs_dir = runs_dir
        self.manifest = manifest
        self.run_id = run_id
        self.env = worker_env()
        self.count = 0
        self.reference: Path | None = None  # first report kept for the oracle

    def _worker(self, name: str, args: list[str]) -> dict | None:
        result = self.runs_dir / f"{name}.json"
        with open(self.runs_dir / f"{name}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), *args, "--result", rel(result)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=WORKER_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result.is_file():
            return None
        return json.loads(result.read_text())

    def analyze(self, traced: bool) -> dict | None:
        """One repetition: returns the worker's timings plus the report
        hash, or None when the worker or `analyze` failed."""
        self.count += 1
        name = f"rep{self.count:03d}"
        out = self.runs_dir / name
        args = ["analyze", "--manifest", rel(self.manifest), "--out", rel(out)]
        if traced:
            args += ["--trace", rel(self.runs_dir / f"{name}.trace.json"), "--run-id", f"{self.run_id}-{name}"]
        r = self._worker(name, args)
        if r is None or r["exit_code"] != 0:
            return None
        r["report_dir"] = out
        r["hash"] = tree_hash(out)
        if self.reference is None:
            self.reference = out
        else:
            shutil.rmtree(out)
        if traced:
            r["trace"] = self.runs_dir / f"{name}.trace.json"
        return r

    def kernels(self, seed: int) -> dict | None:
        return self._worker("kernels", ["kernels", "--seed", str(seed)])

    def compare(self, report_dir: Path, out: Path) -> bool:
        cmd = [sys.executable, "-m", "speedstudy", "compare", "--out", rel(out)]
        for flag, phase in (("--pre", "pre"), ("--w1", "post_w1"), ("--w2", "post_w2")):
            cmd += [flag, rel(report_dir / f"{phase}_summary.json")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return proc.returncode == 0


def repeat(runner: Runner, seconds: float, modes: tuple) -> dict:
    """Repetitions cycling through modes (traced or not) until seconds have
    passed, so that every mode samples the same stretch of time. Each
    repetition gets the mean probe time from just before and just after it."""
    probe = HostProbe()
    reps = {mode: [] for mode in modes}
    start = time.monotonic()
    before = probe()
    done = 0
    while done < MAX_REPS and (done < MIN_REPS * len(modes) or time.monotonic() - start < seconds):
        mode = modes[done % len(modes)]
        rep = runner.analyze(mode)
        after = probe()
        if rep is not None:
            rep["probe_s"] = (before + after) / 2
        reps[mode].append(rep)
        before = after
        done += 1
    return reps


def host_scaled(reps: list, key: str) -> float:
    """Mean of reps[key], in seconds on a host where the probe takes PROBE_REF_S."""
    return sum(r[key] for r in reps) / sum(r["probe_s"] for r in reps) * PROBE_REF_S


def traced_metrics(rep: dict) -> dict:
    """Per-layer metrics from one traced repetition: each layer's self time
    and call count inside the `analyze` span, plus the worker's counters."""
    from tracing import BOUNDARIES, layer_times

    doc = json.loads(rep["trace"].read_text())
    layers = layer_times(doc["spans"], "analyze")
    out = dict(doc["counters"])
    for owner, attr, name in BOUNDARIES:
        if f"{owner}.{attr}" not in rep["untraced_boundaries"]:
            row = layers.get(name, {"calls": 0, "self_s": 0.0})  # wrapped, never called
            out[f"{name}_s"] = row["self_s"]
            out[f"{name}_calls"] = row["calls"]
    out["trace.analyze_s"] = layers["analyze"]["total_s"]
    out["trace.unattributed_s"] = layers["analyze"]["self_s"]
    out["trace.spans"] = len(doc["spans"])
    print(f"trace accounting {rep['trace'].name}: layer self times "
          f"{sum(row['self_s'] for name, row in layers.items() if name != 'analyze'):.6f} s + unattributed "
          f"{out['trace.unattributed_s']:.6f} s = traced analyze {out['trace.analyze_s']:.6f} s")
    return out


def median_by_key(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows if k in r) for k in set().union(*rows)}


def check_outputs(runner: Runner, good: list, inputs: Path, meta: dict):
    """Oracle over the first report, compare on study manifests, and hash
    equality across repetitions and with earlier runs on the same inputs.
    Returns (accuracy figures, per-layer counts, misses)."""
    import oracle

    first = good[0]
    figures, counts, phase_means, misses = oracle.check_reports(first["report_dir"], meta, oracle.Truth(inputs))
    if "post_w2" in meta["recordings"]:
        cmp_dir = runner.runs_dir / "compare"
        if runner.compare(first["report_dir"], cmp_dir):
            misses += oracle.check_compare(cmp_dir, phase_means)
        else:
            misses.append("compare exited nonzero")
    hashes = {r["hash"] for r in good}
    if len(hashes) > 1:
        misses.append(f"reports differ across repetitions ({len(hashes)} distinct, traced included)")
    expected = inputs / "report.sha256"
    if expected.is_file() and expected.read_text() != first["hash"]:
        misses.append("reports differ from an earlier run on the same inputs and sources")
    elif not misses:
        expected.write_text(first["hash"])
    return figures, counts, misses


def layer_metrics(plain: list, traced: list, counts: dict, kernel_times: dict) -> dict:
    layer = median_by_key([traced_metrics(r) for r in traced])
    layer.update(counts)
    # both modes ran interleaved, so host speed drifts alike in either
    layer["trace.overhead_s"] = host_scaled(traced, "analyze_s") - host_scaled(plain, "analyze_s")
    for stem, samples in kernel_times.items():
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        layer.update({f"{stem}.p25_s": q1, f"{stem}.median_s": q2, f"{stem}.p75_s": q3})
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "speedstudy" / "__init__.py").is_file():
        print(f"no speedstudy sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy

    import speedstudy

    if Path(speedstudy.__file__).resolve().parent != SRC / "speedstudy":
        print(f"imported speedstudy from {speedstudy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    key = source_key()
    inputs = ensure_inputs(args.workload, args.seed, key)
    meta = json.loads((inputs / "meta.json").read_text())
    runs_dir = WORK / "runs" / f"{args.workload}-t{args.trace}"
    shutil.rmtree(runs_dir, ignore_errors=True)
    runs_dir.mkdir(parents=True)
    if hasattr(os, "sched_setaffinity"):
        # workers inherit the CPU: the CPUs of a shared host can run at
        # different speeds, and the probe must read the one the workers use
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(runs_dir, inputs / "manifest.json", f"{args.workload}-s{args.seed}")
    # compile the package's bytecode outside the timed repetitions
    subprocess.run([sys.executable, "-c", "import speedstudy.cli"], env=runner.env, cwd=ROOT)

    by_mode = repeat(runner, args.seconds, (False, True) if args.trace else (False,))
    plain, traced = by_mode[False], by_mode.get(True, [])
    kernel_result = runner.kernels(args.seed) if args.trace else None
    reps = plain + traced
    good = [r for r in reps if r is not None]

    figures, counts, misses = check_outputs(runner, good, inputs, meta) if good else ({}, {}, [])
    # a miss in the reports fails every repetition, since all must be identical
    failed = len(reps) if misses else len(reps) - len(good)
    if failed and not misses:
        misses.append(f"{failed} repetition(s) exited nonzero or timed out; logs in {rel(runs_dir)}")

    ok_plain = [r for r in plain if r is not None]
    ok_traced = [r for r in traced if r is not None]
    values: dict = {}
    declared = spec["end_to_end"]
    if args.trace:
        declared = spec["per_layer"]
        if ok_plain and ok_traced and kernel_result:
            values = layer_metrics(ok_plain, ok_traced, counts, kernel_result["times"])
            untraced = sorted({b for r in ok_traced for b in r["untraced_boundaries"]})
            if untraced:
                misses.append(f"layer boundaries not found in the program: {', '.join(untraced)}")
    elif ok_plain:
        values = {
            "setup_s": host_scaled(ok_plain, "setup_s"),
            "analyze_s": host_scaled(ok_plain, "analyze_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_plain),
            **figures,
        }
        values["rows_per_s"] = meta["rows"] / values["analyze_s"]
    metrics = {m["name"]: values[m["name"]] for m in declared if values.get(m["name"]) is not None}
    unmeasured = [m["name"] for m in declared if m["name"] not in metrics]
    if unmeasured:
        misses.append(f"not measured: {', '.join(unmeasured)}")

    units = {m["name"]: m["unit"] for m in declared}
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_key": key,
        "backend": speedstudy.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "rows": meta["rows"],
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for miss in misses:
        print(f"ORACLE MISS: {miss}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    samples = {k: [r[k] for r in ok_plain] for k in ("setup_s", "analyze_s", "probe_s", "peak_rss_mb")}
    (runs_dir / "result.json").write_text(
        json.dumps({"stamp": stamp, "misses": misses, "metrics": metrics, "untraced_samples": samples}, indent=2)
    )
    if runner.reference:
        shutil.rmtree(runner.reference, ignore_errors=True)

    correct = not misses
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
