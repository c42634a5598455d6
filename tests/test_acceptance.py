"""Acceptance suite: one test per release criterion, each printing a
PASS line on success (pytest marks failures).

Published-study fixtures: the four before/after speed tables (mean and 85th
percentile, three unsignalized and six signalized locations) with their
printed deltas, plus the per-location sample counts and recording hours.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    BULK_SCENE,
    synthesize_bulk_csv,
    make_correspondences,
    parse_text,
    random_projective_matrix,
    scene_config_dict,
    assert_tables_equal,
    straight_track_detections,
    table_of,
    tracks_of,
)
from speedstudy import (
    MANEUVERS,
    Constant,
    Homography,
    ManeuverClass,
    Phase,
    PhaseSummary,
    PiecewiseLinear,
    SyntheticVehicle,
    TrapezoidStop,
    WorldPoint,
    build_phase_summary,
    compare_phases,
    delta_mismatches,
    parse_track_file,
    percent_change,
    percentile_85,
    render_scene,
    solve_homography,
)
from speedstudy.cli import main
from speedstudy.config import scene_config_from_dict
from speedstudy.geometry import project_points
from speedstudy.ingest import ClassLabel, run_filter_cascade
from speedstudy.pipeline import filter_counts, process_detections

# (pre, post_w1, printed_delta_w1, post_w2, printed_delta_w2) per location id
MEAN_TABLE = {
    1: (25.6, 20.9, -4.7, 20.8, -4.8),
    2: (27.4, 22.4, -5.0, 25.2, -2.2),
    3: (25.7, 23.0, -2.7, 22.9, -2.8),
    4: (13.7, 11.1, -2.6, 11.8, -1.9),
    5: (17.0, 13.9, -3.1, 14.6, -2.4),
    6: (13.9, 12.1, -1.8, 15.7, +3.6),
    7: (14.8, 15.5, +0.7, 13.7, -1.1),
    8: (24.6, 21.4, -3.2, 21.3, -3.3),
    9: (21.5, 19.4, -2.1, 17.2, -4.3),
}
P85_TABLE = {
    1: (29.2, 25.8, -3.4, 25.9, -3.3),
    2: (32.6, 27.2, -5.4, 29.2, -3.4),
    3: (29.2, 27.2, -2.0, 27.2, -2.0),
    4: (21.8, 19.7, -2.1, 20.4, -1.4),
    5: (25.2, 21.1, -4.1, 22.5, -2.7),
    6: (20.4, 18.5, -1.7, 24.6, +4.2),
    7: (19.8, 19.5, -0.3, 18.0, -1.8),
    8: (32.0, 26.5, -5.5, 26.5, -5.5),
    9: (28.6, 26.5, -2.1, 25.8, -2.8),
}
# (smp_pre, hr_pre, smp_w1, hr_w1, smp_w2, hr_w2) per location id
SAMPLE_TABLE = {
    1: (13031, 81.5, 11659, 81.0, 11539, 73.5),
    2: (11802, 60.0, 11395, 60.0, 14026, 73.25),
    3: (21450, 92.0, 13784, 73.5, 2512, 55.7),
    4: (1673, 17.0, 6604, 72.0, 3820, 42.0),
    5: (11267, 79.0, 3966, 42.5, 1646, 23.0),
    6: (12020, 89.0, 7935, 72.0, 10648, 72.0),
    7: (21477, 92.0, 9173, 71.0, 6918, 52.5),
    8: (15585, 68.25, 12285, 44.6, 7371, 31.1),
    9: (22469, 89.25, 15863, 37.5, 8915, 34.0),
}
# printed delta cells that are inconsistent with their own pre/post values
INCONSISTENT_CELLS = {
    ("p85", 6, "W1"): (-1.7, -1.9),  # printed vs computed from 20.4 -> 18.5
    ("mean", 6, "W2"): (+3.6, +1.8),  # printed vs computed from 13.9 -> 15.7
}

ZONE = [[20.0, -6.0], [35.0, -6.0], [35.0, 6.0], [20.0, 6.0]]
LANES = (-4.8, -2.4, 0.0, 2.4, 4.8)


def location_summaries(loc):
    mean = MEAN_TABLE[loc]
    p85 = P85_TABLE[loc]
    smp = SAMPLE_TABLE[loc]
    phases = (Phase.PRE, Phase.POST_W1, Phase.POST_W2)
    out = []
    for i, phase in enumerate(phases):
        out.append(
            PhaseSummary(
                location_id=loc,
                phase=phase,
                sample_count=smp[2 * i],
                hours=smp[2 * i + 1],
                mean_mph=mean[(0, 1, 3)[i]],
                p85_mph=p85[(0, 1, 3)[i]],
            )
        )
    return out


def test_criterion_1_table_delta_reproduction():
    start = time.perf_counter()
    checked = 0
    flagged = []
    for loc in sorted(MEAN_TABLE):
        pre, w1, w2 = location_summaries(loc)
        mean_row, p85_row = compare_phases(pre, w1, w2)
        for row, table in ((mean_row, MEAN_TABLE), (p85_row, P85_TABLE)):
            printed_w1, printed_w2 = table[loc][2], table[loc][4]
            issues = delta_mismatches(row, printed_w1, printed_w2)
            for week, computed, printed in (
                ("W1", row.delta_w1, printed_w1),
                ("W2", row.delta_w2, printed_w2),
            ):
                checked += 1
                key = (row.metric, loc, week)
                if key in INCONSISTENT_CELLS:
                    exp_printed, exp_computed = INCONSISTENT_CELLS[key]
                    assert printed == exp_printed
                    assert computed == exp_computed
                    assert any(f"{week}" in msg for msg in issues), key
                    flagged.append((key, issues))
                else:
                    assert computed == printed, f"loc {loc} {row.metric} {week}"
            assert len(issues) == sum(
                1 for (m, l, w) in INCONSISTENT_CELLS if m == row.metric and l == loc
            )
    elapsed = time.perf_counter() - start
    assert checked == 36  # 18 locations-metrics x 2 weeks
    assert len(flagged) == 2
    assert elapsed < 1.0
    for key, issues in flagged:
        print(f"  published-table inconsistency detected at {key}: {issues}")
    print("ACCEPTANCE 1 (table delta reproduction + discrepancy flags): PASS")


def test_criterion_2_abstract_percent_figures():
    cases = [
        (25.6, 20.8, -18.75),  # largest unsignalized mean reduction
        (32.6, 27.2, -16.56),  # largest unsignalized 85th-percentile reduction
        (21.5, 17.2, -20.0),  # largest signalized mean reduction
        (32.0, 26.5, -17.19),  # largest signalized 85th-percentile reduction
    ]
    for pre, post, expected in cases:
        assert percent_change(pre, post) == pytest.approx(expected, abs=0.01)
    print("ACCEPTANCE 2 (headline percent reductions): PASS")


def constant_fleet(n=50, lo=10.0, hi=40.0):
    """n constant-speed vehicles on five lanes, fastest first per lane so
    gaps only grow; entries staggered to keep followers far apart."""
    speeds = np.linspace(hi, lo, n)
    vehicles = []
    for i, v in enumerate(speeds):
        lane = i % len(LANES)
        slot = i // len(LANES)
        vehicles.append(
            SyntheticVehicle(
                vehicle_id=i + 1,
                entry_time_s=slot * 2.5 + lane * 0.5,
                start=WorldPoint(-8.0, LANES[lane]),
                direction=(1.0, 0.0),
                profile=Constant(float(v)),
                bbox_px=(40.0, 60.0),
                class_label=ClassLabel.CAR,
                max_distance_m=95.0,
            )
        )
    return vehicles


def analyze_fleet(vehicles, h, sigma, seed, duration=60.0, fps=10.0):
    dets, truth = render_scene(
        vehicles, h, fps, duration, noise_sigma_px=sigma, seed=seed,
        approach_zone=np.array(ZONE),
    )
    cfg = scene_config_from_dict(scene_config_dict(h, fps=fps))
    result = process_detections(table_of(dets), cfg, h)
    return result, truth


def test_criterion_3_end_to_end_speed_recovery(demo_h):
    start = time.perf_counter()
    vehicles = constant_fleet()
    truth_speed = {v.vehicle_id: v.profile.v_mph for v in vehicles}

    result, _ = analyze_fleet(vehicles, demo_h, sigma=0.0, seed=0)
    kins = result.kinematics
    assert len(kins.track_ids) == 50, filter_counts(result.fates)
    for track_id, mph in zip(kins.track_ids.tolist(), kins.representative_mph.tolist()):
        assert abs(mph - truth_speed[track_id]) <= 0.1

    noisy, _ = analyze_fleet(vehicles, demo_h, sigma=1.0, seed=11)
    kins = noisy.kinematics
    assert len(kins.track_ids) == 50, filter_counts(noisy.fates)
    errors = [
        abs(mph - truth_speed[track_id])
        for track_id, mph in zip(kins.track_ids.tolist(), kins.representative_mph.tolist())
    ]
    mae = float(np.mean(errors))
    assert mae <= 1.5, f"MAE {mae:.3f} mph"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 3 (speed recovery; noiseless <=0.1 mph, noisy MAE {mae:.3f} mph): PASS"
    )


def mixed_fleet():
    """20 pass-through, 10 slow-down, 10 stop-and-go on five lanes; per lane:
    pass-through (fastest first), then slow-down, then stop-and-go."""
    pt_speeds = np.linspace(24.0, 12.0, 20)
    vehicles = []
    vid = 0
    for lane_idx, lane_y in enumerate(LANES):
        lane_members = []
        for j in range(4):  # pass-through
            v = float(pt_speeds[lane_idx * 4 + j])
            lane_members.append((Constant(v), -8.0))
        for _ in range(2):  # slow-down: trough 7 mph held 1.5 s inside the zone
            profile = PiecewiseLinear(
                knots=((0.0, 16.0), (2.0, 16.0), (4.0, 7.0), (5.5, 7.0), (7.5, 16.0))
            )
            lane_members.append((profile, 0.0))
        for _ in range(2):  # stop-and-go: halts ~8.5 m past entry, inside the zone
            lane_members.append((TrapezoidStop(16.0, 3.0, 1.5, 2.5), 16.0))
        for slot, (profile, x0) in enumerate(lane_members):
            vid += 1
            vehicles.append(
                SyntheticVehicle(
                    vehicle_id=vid,
                    entry_time_s=slot * 6.0 + lane_idx * 0.7,
                    start=WorldPoint(x0, lane_y),
                    direction=(1.0, 0.0),
                    profile=profile,
                    bbox_px=(40.0, 60.0),
                    class_label=ClassLabel.CAR,
                    max_distance_m=95.0,
                )
            )
    return vehicles


def observed_classes(maneuvers) -> dict:
    """track id -> ManeuverClass over a ManeuverTable."""
    codes = maneuvers.classes.tolist()
    return {t: MANEUVERS[c] for t, c in zip(maneuvers.track_ids.tolist(), codes)}


def test_criterion_4_maneuver_classification_oracle(demo_h):
    vehicles = mixed_fleet()
    result, truth = analyze_fleet(vehicles, demo_h, sigma=0.0, seed=0, duration=75.0)
    truth_labels = {v.vehicle_id: v.maneuver for v in truth.vehicles}
    want_counts = {
        ManeuverClass.PASS_THROUGH: 20,
        ManeuverClass.SLOW_DOWN: 10,
        ManeuverClass.STOP_AND_GO: 10,
    }
    got_truth_counts = {cls: 0 for cls in ManeuverClass}
    for label in truth_labels.values():
        got_truth_counts[label] += 1
    assert got_truth_counts == want_counts  # the fleet realizes its design

    observed = observed_classes(result.maneuvers)
    assert len(observed) == 40, filter_counts(result.fates)
    got_counts = {cls: 0 for cls in ManeuverClass}
    for label in observed.values():
        got_counts[label] += 1
    assert got_counts == want_counts  # shares match exactly at sigma = 0
    assert observed == truth_labels

    noisy, truth_n = analyze_fleet(vehicles, demo_h, sigma=1.0, seed=5, duration=75.0)
    truth_labels_n = {v.vehicle_id: v.maneuver for v in truth_n.vehicles}
    observed_n = observed_classes(noisy.maneuvers)
    agree = sum(
        1 for vid, label in observed_n.items() if truth_labels_n[vid] == label
    )
    agreement = agree / 40.0
    assert agreement >= 0.95, f"agreement {agreement:.2%}"
    print(
        f"ACCEPTANCE 4 (maneuver oracle; exact at sigma=0, {agreement:.0%} at 1 px): PASS"
    )


def test_criterion_5_homography_suite(demo_h):
    # 4-point exact recovery
    rng = np.random.default_rng(2024)
    from speedstudy import Correspondence, reprojection_rmse

    for _ in range(50):
        m = random_projective_matrix(rng)
        pts = [(0.0, 0.0), (80.0, 5.0), (10.0, 70.0), (90.0, 90.0)]
        corrs = make_correspondences(m, pts)
        h = solve_homography(corrs)
        assert reprojection_rmse(h, corrs) < 1e-8

    # projective scale invariance: exact for lossless (power-of-two) scalings
    m = random_projective_matrix(rng)
    base = Homography(m)
    for lam in (2.0, -8.0, 0.25, 1024.0):
        assert Homography(lam * m) == base

    # inverse round trip
    world = np.array([(rng.uniform(0, 60), rng.uniform(-5, 5)) for _ in range(200)])
    img, valid = project_points(demo_h.matrix, world)
    back, valid_back = project_points(demo_h.inverse().matrix, img)
    assert valid.all() and valid_back.all()
    assert np.hypot(*(back - world).T).max() < 1e-9

    # 1000-case solve/recover property run under 5 s
    start = time.perf_counter()
    for _ in range(1000):
        m = random_projective_matrix(rng)
        pts = rng.uniform(0, 100, size=(8, 2))
        h = solve_homography(make_correspondences(m, pts))
        assert np.allclose(h.matrix, Homography(m).matrix, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"property run took {elapsed:.2f}s"
    print(f"ACCEPTANCE 5 (homography suite; 1000 cases in {elapsed:.2f}s): PASS")


def test_criterion_6_percentile_oracle_equivalence():
    rng = np.random.default_rng(85)
    for case in range(10_000):
        n = int(rng.integers(1, 1001))
        values = rng.uniform(0.0, 80.0, n)
        got = percentile_85(values)
        # brute force: pure-Python sort + clamped interpolation at 0.85*(n-1)
        v = sorted(values.tolist())
        rank = 0.85 * (n - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            want = v[lo]
        else:
            want = min(max(v[lo] + (rank - lo) * (v[hi] - v[lo]), v[lo]), v[hi])
        assert got == want, f"case {case}, n={n}"
        assert v[0] <= got <= v[-1]
    print("ACCEPTANCE 6 (85th percentile == brute-force oracle, 10k lists): PASS")


def test_criterion_7_filter_gates_and_idempotence(rng):
    from speedstudy import filter_direction, filter_following, filter_stationary

    identity = Homography(np.eye(3))
    direction = np.array([1.0, 0.0])

    # 40 px following gate
    lead = straight_track_detections(1, 20, (130, 50), (5, 0))
    tail = straight_track_detections(2, 20, (100, 50), (5, 0))
    assert filter_following(tracks_of(lead + tail), identity, direction).track_ids.tolist() == [1]
    far = straight_track_detections(2, 20, (500, 50), (5, 0))
    assert len(filter_following(tracks_of(lead + far), identity, direction)) == 2

    # 2.0 m stationary gate
    creeper = straight_track_detections(1, 30, (0, 0), (1.5 / 29, 0))
    mover = straight_track_detections(2, 30, (0, 10), (1, 0))
    kept = filter_stationary(tracks_of(creeper + mover))
    assert kept.track_ids.tolist() == [2]

    # +-45 degree direction boundary
    for angle, keep in ((44.0, True), (46.0, False)):
        step = (5 * np.cos(np.radians(angle)), 5 * np.sin(np.radians(angle)))
        t = tracks_of(straight_track_detections(1, 10, (0, 0), step))
        assert bool(len(filter_direction(t, direction))) is keep

    # cascade idempotence over 100 random synthetic scenes
    square = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])
    labels = [ClassLabel.CAR, ClassLabel.BICYCLE, ClassLabel.PEDESTRIAN]
    for _ in range(100):
        dets = []
        for tid in range(1, int(rng.integers(5, 25))):
            dets += straight_track_detections(
                tid,
                int(rng.integers(4, 40)),
                rng.uniform(-20, 120, 2),
                rng.uniform(-4, 4, 2),
                label=labels[int(rng.integers(0, 3))],
            )
        tracks = tracks_of(dets)
        once, _ = run_filter_cascade(tracks, square, direction, identity)
        twice, _ = run_filter_cascade(once, square, direction, identity)
        assert once.track_ids.tolist() == twice.track_ids.tolist()
        assert_tables_equal(once, twice)
    print("ACCEPTANCE 7 (filter gates at 40 px / 2.0 m / 45 deg; idempotent cascade): PASS")


def test_criterion_8_throughput_100k_rows(tmp_path):
    text, n_rows = synthesize_bulk_csv()
    assert n_rows >= 100_000
    path = tmp_path / "bulk.csv"
    path.write_text(text, encoding="utf-8")
    cfg = scene_config_from_dict(BULK_SCENE)
    h = solve_homography(cfg.correspondences)

    # one tiny recording first, so that one-time costs of a first call
    # (numpy's lazy setup) are not billed as processing
    warm = parse_text("0,1,0,0,10,10,0.9,1\n1,1,5,0,10,10,0.9,1\n", cfg.class_map)
    process_detections(warm, cfg, h)

    start = time.perf_counter()
    detections = parse_track_file(path, cfg.class_map)
    result = process_detections(detections, cfg, h)
    speeds = result.kinematics.representative_mph.tolist()
    summary = build_phase_summary(77, Phase.PRE, speeds, hours=1.0)
    elapsed = time.perf_counter() - start

    assert len(detections) == n_rows
    assert summary.sample_count > 0
    assert elapsed < 5.0, f"processing {n_rows} rows took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 8 (throughput: {n_rows} rows in {elapsed:.2f}s, "
        f"{summary.sample_count} vehicles): PASS"
    )


def test_criterion_9_determinism(tmp_path, demo_h):
    sim = {
        "fps": 10.0,
        "duration_s": 25.0,
        "noise_sigma_px": 1.0,
        "homography_matrix": [list(r) for r in demo_h.matrix.tolist()],
        "approach_zone": ZONE,
        "vehicles": [
            {
                "id": i + 1,
                "entry_time_s": 2.0 * i,
                "start": [-5.0, LANES[i % 5]],
                "direction": [1.0, 0.0],
                "profile": {"kind": "constant", "v_mph": 14.0 + 2.0 * i},
                "bbox_px": [40.0, 60.0],
                "class_label": "car",
                "max_distance_m": 92.0,
            }
            for i in range(6)
        ],
    }
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(json.dumps(sim, indent=2, sort_keys=True), encoding="utf-8")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(
        json.dumps(scene_config_dict(demo_h), indent=2, sort_keys=True), encoding="utf-8"
    )

    # identical seeds give byte-identical simulator output
    sim_blobs = []
    for run in ("one", "two"):
        sim_out = tmp_path / f"sim_{run}"
        assert main(["simulate", "--config", str(sim_path), "--seed", "99",
                     "--out", str(sim_out)]) == 0
        sim_blobs.append({p.name: p.read_bytes() for p in sorted(sim_out.iterdir())})
    assert sim_blobs[0] == sim_blobs[1]

    # the same manifest over the same inputs gives byte-identical reports
    manifest = {
        "scene_config": "scene.json",
        "phases": [
            {"phase": "pre", "detections": ["sim_one/detections.csv"], "hours": 3.0}
        ],
    }
    man_path = tmp_path / "run.json"
    man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    report_blobs = []
    for run in ("one", "two"):
        report = tmp_path / f"report_{run}"
        assert main(["analyze", "--manifest", str(man_path), "--out", str(report)]) == 0
        report_blobs.append({p.name: p.read_bytes() for p in sorted(report.iterdir())})
    assert report_blobs[0] == report_blobs[1]
    print("ACCEPTANCE 9 (byte-identical simulate + analyze reruns): PASS")
