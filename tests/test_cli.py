import contextlib
import copy
import importlib
import inspect
import json
import logging
import os
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import speedstudy

from helpers import (
    BULK_SCENE,
    is_simple_polygon_oracle,
    kinematics_csv_reference,
    maneuvers_csv_reference,
    scene_config_dict,
    synthesize_bulk_csv,
)
from speedstudy import (
    MANEUVERS,
    KinematicsTable,
    ManeuverTable,
    Phase,
    behavior,
    build_phase_summary,
    config,
    ingest,
    kinematics,
    pipeline,
    solve_homography,
)
from speedstudy.cli import _json_text, main
from speedstudy.errors import InvariantViolation
from speedstudy.config import Thresholds, load_scene_config, scene_config_from_dict


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sim_config(noise=0.0, n_vehicles=3):
    vehicles = []
    for i in range(n_vehicles):
        vehicles.append(
            {
                "id": i + 1,
                "entry_time_s": 2.0 * i,
                "start": [0.0, -3.0 + 2.0 * i],
                "direction": [1.0, 0.0],
                "profile": {"kind": "constant", "v_mph": 15.0 + 3.0 * i},
                "bbox_px": [40.0, 60.0],
                "class_label": "car",
                "max_distance_m": 90.0,
            }
        )
    return {
        "fps": 10.0,
        "duration_s": 18.0,
        "noise_sigma_px": noise,
        "approach_zone": [[20.0, -6.0], [35.0, -6.0], [35.0, 6.0], [20.0, 6.0]],
        "vehicles": vehicles,
    }


@pytest.fixture()
def scene_path(tmp_path, demo_h):
    p = tmp_path / "scene.json"
    write_json(p, scene_config_dict(demo_h))
    return p


@pytest.fixture()
def sim_homography(demo_h):
    return [list(row) for row in demo_h.matrix.tolist()]


class TestCalibrate:
    def test_exact_correspondences_pass_gate(self, scene_path, capsys):
        assert main(["calibrate", "--config", str(scene_path)]) == 0
        out = capsys.readouterr().out
        assert "RMSE" in out and "homography" in out

    def test_three_correspondences_fail(self, tmp_path, demo_h):
        cfg = scene_config_dict(demo_h)
        cfg["calibration"]["correspondences"] = cfg["calibration"]["correspondences"][:3]
        p = tmp_path / "scene.json"
        write_json(p, cfg)
        assert main(["calibrate", "--config", str(p)]) == 2

    def test_degenerate_correspondences(self, tmp_path, demo_h):
        cfg = scene_config_dict(demo_h)
        cfg["calibration"]["correspondences"] = [
            {"world": [float(i), float(i)], "image": [float(i), 2.0 * i]} for i in range(4)
        ]
        p = tmp_path / "scene.json"
        write_json(p, cfg)
        assert main(["calibrate", "--config", str(p)]) == 2

    def test_noisy_correspondences_within_gate(self, tmp_path, demo_h, rng):
        cfg = scene_config_dict(demo_h)
        for c in cfg["calibration"]["correspondences"]:
            c["image"][0] += rng.normal(0, 0.5)
            c["image"][1] += rng.normal(0, 0.5)
        # four extra exact points keep the solve well determined
        from speedstudy.geometry import project_points

        for x, y in ((15.0, -4.0), (30.0, 4.0), (45.0, -2.0), (20.0, 0.0)):
            u, v = project_points(demo_h.matrix, [(x, y)])[0][0].tolist()
            cfg["calibration"]["correspondences"].append(
                {"world": [x, y], "image": [u + rng.normal(0, 0.5), v + rng.normal(0, 0.5)]}
            )
        path = tmp_path / "scene.json"
        write_json(path, cfg)
        assert main(["calibrate", "--config", str(path)]) == 0

    def test_tight_gate_fails(self, tmp_path, demo_h, rng):
        cfg = scene_config_dict(demo_h)
        from speedstudy.geometry import project_points

        for x, y in ((15.0, -4.0), (30.0, 4.0), (45.0, -2.0), (20.0, 0.0)):
            u, v = project_points(demo_h.matrix, [(x, y)])[0][0].tolist()
            cfg["calibration"]["correspondences"].append(
                {"world": [x, y], "image": [u + rng.normal(0, 3.0), v + rng.normal(0, 3.0)]}
            )
        path = tmp_path / "scene.json"
        write_json(path, cfg)
        assert main(["calibrate", "--config", str(path), "--max-rmse-px", "1e-6"]) == 3

    def test_world_point_too_large_to_normalize(self, tmp_path, demo_h, caplog):
        cfg = scene_config_dict(demo_h)
        cfg["calibration"]["correspondences"][2]["world"] = [1e200, 0.0]
        path = tmp_path / "scene.json"
        write_json(path, cfg)
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(path)]) == 2
        assert "coordinates are too large to normalize" in caplog.text


class TestFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--config", "sim.json", "--out", "o", "--seed", "-1"], "--seed"),
            (["simulate", "--config", "sim.json", "--out", "o", "--seed", "1.5"], "--seed"),
            (["calibrate", "--config", "scene.json", "--max-rmse-px", "nan"], "--max-rmse-px"),
            (["calibrate", "--config", "scene.json", "--max-rmse-px", "-1"], "--max-rmse-px"),
            (["analyze", "--manifest", "run.json", "--out", "o", "--max-rmse-px", "NaN"],
             "--max-rmse-px"),
            (["analyze", "--manifest", "run.json", "--out", "o", "--max-rmse-px", "-0.5"],
             "--max-rmse-px"),
        ],
    )
    def test_bad_value_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


class TestSimulate:
    def test_writes_outputs_and_stats(self, tmp_path, sim_homography, capsys):
        cfg = dict(sim_config(), homography_matrix=sim_homography)
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(p), "--seed", "42", "--out", str(out)]) == 0
        assert (out / "detections.csv").exists()
        gt = (out / "ground_truth.csv").read_text().splitlines()
        assert gt[0] == "id,frame,world_x_m,world_y_m,speed_mph,maneuver"
        ids = {line.split(",")[0] for line in gt[1:]}
        assert ids == {"1", "2", "3"}
        assert "rendered 3 vehicles" in capsys.readouterr().out

    def test_no_vehicle_in_the_window(self, tmp_path, sim_homography, scene_path, capsys):
        cfg = dict(sim_config(n_vehicles=1), homography_matrix=sim_homography)
        cfg["vehicles"][0]["entry_time_s"] = cfg["duration_s"] + 1.0
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(p), "--seed", "42", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "rendered 0 vehicles, 0 detections, seed 42\n"
        assert (out / "detections.csv").read_text() == ""
        # the empty recording is one analyze reads
        manifest = tmp_path / "run.json"
        write_json(manifest, {"scene_config": scene_path.name, "phases": [
            {"phase": "pre", "detections": ["out/detections.csv"], "hours": 1.0}]})
        assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r")]) == 0
        assert "phase pre: 0 vehicles" in capsys.readouterr().out

    def test_seed_determinism(self, tmp_path, sim_homography):
        cfg = dict(sim_config(noise=1.0), homography_matrix=sim_homography)
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(p), "--seed", "7", "--out", str(out)]) == 0
            outs.append(
                (
                    (out / "detections.csv").read_bytes(),
                    (out / "ground_truth.csv").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_invalid_profile_field_path(self, tmp_path, sim_homography, caplog):
        cfg = dict(sim_config(), homography_matrix=sim_homography)
        cfg["vehicles"][1]["profile"] = {"kind": "trapezoid_stop", "v_free_mph": 20.0,
                                         "decel_ms2": -3.0, "dwell_s": 1.0, "accel_ms2": 2.0}
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        with caplog.at_level("ERROR"):
            assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "vehicles[1].profile" in caplog.text

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("fps",), [10], "sim.json.fps: expected a number, got a list"),
            (("duration_s",), "nan", "sim.json.duration_s: 'nan' is not a finite number"),
            (("noise_sigma_px",), "nan", "sim.json.noise_sigma_px: 'nan' is not a finite number"),
            (("duration_s",), 1e308, "sim.json.duration_s: fps x duration_s is not finite"),
            (("vehicles", 0, "entry_time_s"), 1e308, "vehicles[0].entry_time_s: fps x entry_time_s"),
            (("vehicles", 1, "start"), [0.0, "nan"], "vehicles[1].start[1]: 'nan' is not a finite"),
            (("vehicles", 2, "id"), 0, "vehicles[2].id: must be positive"),
            (("vehicles", 0, "profile", "v_mph"), [25], "vehicles[0].profile.v_mph: expected a number"),
            (("vehicles", 0, "profile"), {"kind": "piecewise", "knots": [[0, 5, 1]]},
             "vehicles[0].profile.knots[0]: expected [x, y], got 3 values"),
            (("homography_matrix",), [[1, 0, 0], [0, 1, 0]], "homography_matrix: expected 3 rows"),
            (("homography_matrix", 2, 2), "inf", "homography_matrix[2][2]: 'inf' is not a finite"),
            (("class_map",), {"1.5": "car"}, "class_map.1.5: class id must be an integer"),
            (("class_map",), {"1": "bus"}, "vehicles[0].class_label: 'car' has no id in class_map"),
            (("vehicles", 1, "id"), 1, "sim.json.vehicles[1].id: 1 is already used by vehicles[0]"),
            (("vehicles", 1, "id"), 2.7, "vehicles[1].id: expected an integer, got 2.7"),
            (("vehicles", 0, "id"), 2**63,
             "sim.json.vehicles[0].id: 9223372036854775808 is outside the 64-bit integer range"),
        ],
    )
    def test_invalid_field_exits_2(self, tmp_path, sim_homography, caplog, path, value, message):
        cfg = with_field(dict(sim_config(), homography_matrix=sim_homography), path, value)
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        with caplog.at_level("ERROR"):
            assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in caplog.text

    def test_integral_float_id_is_read(self, tmp_path, sim_homography):
        cfg = dict(sim_config(), homography_matrix=sim_homography)
        cfg = with_field(cfg, ("vehicles", 1, "id"), 2.0)
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        gt = (out / "ground_truth.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in gt[1:]} == {"1", "2", "3"}


def run_simulate(tmp_path, sim_homography, name="sim_out", noise=0.0, seed=42):
    cfg = dict(sim_config(noise=noise), homography_matrix=sim_homography)
    p = tmp_path / "sim.json"
    write_json(p, cfg)
    out = tmp_path / name
    assert main(["simulate", "--config", str(p), "--seed", str(seed), "--out", str(out)]) == 0
    return out / "detections.csv"


class TestAnalyze:
    def make_manifest(self, tmp_path, scene_path, detections_path, hours=2.5):
        manifest = {
            "scene_config": scene_path.name,
            "phases": [
                {"phase": "pre", "detections": [str(detections_path.relative_to(tmp_path))],
                 "hours": hours},
            ],
        }
        p = tmp_path / "run.json"
        write_json(p, manifest)
        return p

    def test_full_pipeline_summary(self, tmp_path, scene_path, sim_homography):
        dets = run_simulate(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        out = tmp_path / "report"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "pre_summary.json").read_text())
        assert summary["location_id"] == 1
        assert summary["sample_count"] == 3
        assert summary["hours"] == 2.5
        # constant fleet at 15/18/21 mph
        assert summary["mean_mph"] == pytest.approx(18.0, abs=0.1)
        assert sum(b["count"] for b in summary["histogram"]) == 3
        assert summary["maneuvers"]["pass_through"] == pytest.approx(100.0)
        counts = json.loads((out / "pre_filter_counts.json").read_text())
        totals = counts["totals"]
        stage_sum = sum(totals[s] for s in ("aoi", "vehicle_type", "stationary", "following", "direction"))
        assert totals["input"] - stage_sum == totals["surviving"]
        kin_lines = (out / "pre_rec00_kinematics.csv").read_text().splitlines()
        assert kin_lines[0] == "track_id,frame,speed_mph,window_frames"
        assert sum(1 for line in kin_lines if ",summary," in line) == 3
        man_lines = (out / "pre_rec00_maneuvers.csv").read_text().splitlines()
        assert man_lines[0] == "track_id,v_mean_mph,class"
        assert len(man_lines) == 4

    def test_empty_phase_reports_and_exit_zero(self, tmp_path, scene_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        manifest = self.make_manifest(tmp_path, scene_path, empty)
        out = tmp_path / "report"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "pre_summary.json").read_text())
        assert summary["sample_count"] == 0
        assert summary["mean_mph"] is None
        assert summary["histogram"] == []

    def test_malformed_row_exit_code_and_message(self, tmp_path, scene_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,1,0,0,10,10,0.9,1\nnot,a,row\n")
        manifest = self.make_manifest(tmp_path, scene_path, bad)
        with caplog.at_level("ERROR"):
            code = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "bad.csv" in caplog.text and "2" in caplog.text

    def test_csv_not_utf8_exits_2(self, tmp_path, scene_path, caplog):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,1,500,300,40,60,0.9,1\n0,2,5\xff0,300,40,60,0.9,1\n")
        manifest = self.make_manifest(tmp_path, scene_path, bad)
        with caplog.at_level("ERROR"):
            code = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "bad.csv:2" in caplog.text and "0xFF is not valid UTF-8" in caplog.text

    @pytest.mark.parametrize(
        "row",
        ["0,1,nan,300,40,60,0.9,1", "0,1,500,inf,40,60,0.9,1", "0,1,500,300,1e999,60,0.9,1"],
    )
    def test_non_finite_csv_value_exits_2(self, tmp_path, scene_path, caplog, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("# tracker export\n0,1,500,300,40,60,0.9,1\n" + row + "\n")
        manifest = self.make_manifest(tmp_path, scene_path, bad)
        with caplog.at_level("ERROR"):
            code = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "bad.csv:3" in caplog.text and "not a finite number" in caplog.text

    def test_duplicate_phase_exits_2(self, tmp_path, scene_path, sim_homography, caplog):
        dets = str(run_simulate(tmp_path, sim_homography).relative_to(tmp_path))
        manifest = tmp_path / "run.json"
        write_json(manifest, {
            "scene_config": scene_path.name,
            "phases": [
                {"phase": "pre", "detections": [dets], "hours": 1.0},
                {"phase": "pre", "detections": [dets], "hours": 2.0},
            ],
        })
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "phases[1].phase" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["gone.csv", "sim_out"], ids=["no-file", "directory"])
    def test_missing_detection_file_exits_2_before_any_report(
        self, tmp_path, scene_path, sim_homography, caplog, missing
    ):
        dets = str(run_simulate(tmp_path, sim_homography).relative_to(tmp_path))
        manifest = tmp_path / "run.json"
        write_json(manifest, {
            "scene_config": scene_path.name,
            "phases": [
                {"phase": "pre", "detections": [dets], "hours": 1.0},
                {"phase": "post_w1", "detections": [dets], "hours": 1.0},
                {"phase": "post_w2", "detections": [missing, dets], "hours": 1.0},
            ],
        })
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"run.json.phases[2].detections[0]: {tmp_path / missing} is not an existing file" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "literal",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e999",
            pytest.param("1" + "0" * 400, id="int-beyond-float"),
            pytest.param("1" * 5000, id="int-beyond-int-digit-limit"),
        ],
    )
    def test_non_finite_manifest_number_exits_2(
        self, tmp_path, scene_path, sim_homography, caplog, literal
    ):
        dets = run_simulate(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        text = manifest.read_text()
        manifest.write_text(text.replace('"hours": 2.5', f'"hours": {literal}'))
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "not a finite number" in caplog.text
        assert not out.exists()

    def test_signalized_site_omits_maneuvers(self, tmp_path, demo_h, sim_homography):
        scene = tmp_path / "scene.json"
        write_json(scene, scene_config_dict(demo_h, intersection_type="signalized"))
        dets = run_simulate(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene, dets)
        out = tmp_path / "report"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "pre_summary.json").read_text())
        assert "maneuvers" not in summary
        assert not (out / "pre_rec00_maneuvers.csv").exists()

    def test_per_sample_representative_option(self, tmp_path, demo_h, sim_homography):
        scene = tmp_path / "scene.json"
        write_json(scene, scene_config_dict(demo_h, representative="per_sample"))
        dets = run_simulate(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene, dets)
        out = tmp_path / "report"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "pre_summary.json").read_text())
        # pooled samples, not vehicles: far more than the 3 tracks
        assert summary["sample_count"] > 100

    def test_v_mean_mean_reduction_option(self, tmp_path, demo_h, sim_homography):
        scene = tmp_path / "scene.json"
        write_json(scene, scene_config_dict(demo_h, v_mean_reduction="mean"))
        dets = run_simulate(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene, dets)
        out = tmp_path / "report"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "pre_summary.json").read_text())
        assert summary["maneuvers"]["pass_through"] == pytest.approx(100.0)

    def test_determinism_byte_identical_reports(self, tmp_path, scene_path, sim_homography):
        dets = run_simulate(tmp_path, sim_homography, noise=1.0)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]

    def test_shuffled_rows_give_byte_identical_reports(self, tmp_path, scene_path, sim_homography):
        # every cascade stage removes a vehicle of this scene: one parked,
        # a bicycle, one driving against the travel direction, a close follower
        cfg = dict(sim_config(noise=1.0, n_vehicles=4), homography_matrix=sim_homography)
        car = cfg["vehicles"][0]
        cfg["vehicles"] += [
            dict(car, id=5, start=[30.0, 3.0], profile={"kind": "constant", "v_mph": 0.0}),
            dict(car, id=6, start=[0.0, 4.0], class_label="bicycle"),
            dict(car, id=7, start=[60.0, 1.0], direction=[-1.0, 0.0], max_distance_m=60.0),
            dict(car, id=8, entry_time_s=0.3),
        ]
        write_json(tmp_path / "sim.json", cfg)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--seed", "5",
                     "--out", str(sim)]) == 0
        manifest = self.make_manifest(tmp_path, scene_path, sim / "detections.csv")
        blobs = []
        for name in ("in_order", "shuffled"):
            if name == "shuffled":
                # the same path, since the filter counts name their source file
                lines = (sim / "detections.csv").read_text().splitlines(keepends=True)
                order = np.random.default_rng(11).permutation(len(lines))
                (sim / "detections.csv").write_text("".join(lines[i] for i in order))
            out = tmp_path / name
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        counts = json.loads(blobs[0]["pre_filter_counts.json"])["totals"]
        assert all(counts[stage] for stage in ("vehicle_type", "stationary", "following", "direction"))
        assert blobs[0] == blobs[1]


def run_compare(paths, out) -> int:
    pre, w1, w2 = paths
    return main(["compare", "--pre", str(pre), "--w1", str(w1), "--w2", str(w2), "--out", str(out)])


INT64_MAX = 2**63 - 1
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def kinematics_tables(draw):
    """A KinematicsTable of tracks with 1 to 4 samples each, any int64 ids,
    frames and window lengths, and any float speeds."""
    lengths = draw(st.lists(st.integers(1, 4), max_size=5))
    ids = sorted(draw(st.lists(
        st.integers(1, INT64_MAX), min_size=len(lengths), max_size=len(lengths), unique=True
    )))
    n = sum(lengths)
    int_column = st.lists(st.integers(0, INT64_MAX), min_size=n, max_size=n)
    return KinematicsTable(
        np.array(ids, dtype=np.int64),
        np.cumsum([0, *lengths]).astype(np.int64),
        np.array(draw(int_column), dtype=np.int64),
        np.zeros((n, 2)),
        np.array(draw(st.lists(ANY_FLOAT, min_size=n, max_size=n)), dtype=np.float64),
        np.array(draw(int_column), dtype=np.int64),
        np.array(draw(st.lists(ANY_FLOAT, min_size=len(lengths), max_size=len(lengths))),
                 dtype=np.float64),
    )


def _kinematics_table(track_ids, lengths):
    n = sum(lengths)
    return KinematicsTable(
        np.array(track_ids, dtype=np.int64), np.cumsum([0, *lengths]).astype(np.int64),
        np.arange(n, dtype=np.int64), np.zeros((n, 2)), np.linspace(0.1, 30.3, n),
        np.full(n, 7, dtype=np.int64), np.linspace(1.5, 2.5, len(lengths)),
    )


class TestReportWriters:
    """The report writers against the one-f-string-per-row writers, string
    for string."""

    @given(kinematics_tables())
    @example(_kinematics_table([], []))
    @example(_kinematics_table([1, INT64_MAX], [1, 1]))
    def test_kinematics_csv(self, kins):
        assert pipeline.kinematics_csv(kins) == kinematics_csv_reference(kins)

    @given(st.lists(st.tuples(st.integers(1, INT64_MAX), ANY_FLOAT,
                              st.integers(0, len(MANEUVERS) - 1)), max_size=8))
    @example([])
    @example([(INT64_MAX, 4.999999999999999, 2)])
    def test_maneuvers_csv(self, rows):
        maneuvers = ManeuverTable(
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.float64),
            np.array([r[2] for r in rows], dtype=np.int8),
        )
        assert pipeline.maneuvers_csv(maneuvers) == maneuvers_csv_reference(maneuvers)


# CPython 3.11 hands a call's arguments over to the callee; older versions
# keep them on the caller's stack until the call returns, which keeps each
# table alive through the call it was passed to.
HANDS_OVER_ARGUMENTS = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the caller's stack holds call arguments before 3.11"
)


class TestWorkingSet:
    """What a recording's processing holds at once."""

    @HANDS_OVER_ARGUMENTS
    def test_parsed_and_assembled_tables_freed_before_the_second_stage(
        self, tmp_path, monkeypatch, scene_path, sim_homography, demo_h
    ):
        # the simulated vehicles drive on past the AoI, so the clip drops rows
        detections = run_simulate(tmp_path, sim_homography)
        cfg = load_scene_config(scene_path)
        refs = {}
        assembled_rows = []
        seen = []
        real_parse, real_assemble = pipeline.parse_track_file, pipeline.assemble_tracks
        real_vehicle_type = ingest.filter_vehicle_type

        def parse(*args, **kwargs):
            table = real_parse(*args, **kwargs)
            refs["parsed"] = weakref.ref(table)
            refs["loadtxt buffer"] = weakref.ref(table.frame.base)
            return table

        def assemble(*args, **kwargs):
            tracks = real_assemble(*args, **kwargs)
            refs["assembled"] = weakref.ref(tracks)
            assembled_rows.append(len(tracks.frames))
            return tracks

        def vehicle_type(tracks):
            seen.append((len(tracks.frames), {name: ref() is None for name, ref in refs.items()}))
            return real_vehicle_type(tracks)

        monkeypatch.setattr(pipeline, "parse_track_file", parse)
        monkeypatch.setattr(pipeline, "assemble_tracks", assemble)
        monkeypatch.setattr(ingest, "filter_vehicle_type", vehicle_type)
        pipeline.process_recording(detections, cfg, demo_h)

        [(clipped_rows, freed)] = seen
        assert clipped_rows < assembled_rows[0]
        assert freed == {"parsed": True, "loadtxt buffer": True, "assembled": True}

    @pytest.fixture(scope="class")
    def bulk(self, tmp_path_factory):
        """The acceptance throughput CSV (criterion 8) on disk, its row count,
        scene and calibration."""
        text, n_rows = synthesize_bulk_csv()
        path = tmp_path_factory.mktemp("bulk") / "bulk.csv"
        path.write_text(text, encoding="utf-8")
        cfg = scene_config_from_dict(BULK_SCENE)
        return path, n_rows, cfg, solve_homography(cfg.correspondences)

    @staticmethod
    def traced_peak(fn, *args):
        """fn's result and the peak bytes it allocated (tracemalloc)."""
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @HANDS_OVER_ARGUMENTS
    def test_recording_peak_bytes_per_row(self, bulk):
        path, n_rows, cfg, h = bulk
        pipeline.process_recording(path, cfg, h)  # numpy's lazy set-up is not billed
        _, peak = self.traced_peak(pipeline.process_recording, path, cfg, h)
        assert peak <= 160 * n_rows, f"{peak / n_rows:.1f} B/row"

    def test_kinematics_csv_peak_within_its_output(self, bulk):
        path, _, cfg, h = bulk
        kins = pipeline.process_recording(path, cfg, h).kinematics
        text, peak = self.traced_peak(pipeline.kinematics_csv, kins)
        assert peak <= 2.5 * len(text), f"{peak / len(text):.2f} x output"


class TestCompare:
    def write_summaries(self, tmp_path, stats):
        paths = []
        for phase, speeds in zip((Phase.PRE, Phase.POST_W1, Phase.POST_W2), stats):
            s = build_phase_summary(1, phase, speeds, hours=5.0)
            p = tmp_path / f"{phase.value}.json"
            write_json(p, s.to_json_dict())
            paths.append(p)
        return paths

    def test_comparison_csv_contents(self, tmp_path):
        # three one-vehicle phases make mean == p85 == the single speed
        paths = self.write_summaries(tmp_path, ([25.6], [20.9], [20.8]))
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--pre", str(paths[0]), "--w1", str(paths[1]),
             "--w2", str(paths[2]), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "loc_id,metric,pre,post_w1,delta_w1,post_w2,delta_w2"
        assert lines[1] == "1,mean,25.6,20.9,-4.7,20.8,-4.8"
        assert lines[2] == "1,p85,25.6,20.9,-4.7,20.8,-4.8"
        report = json.loads((out / "percent_change.json").read_text())
        assert report["mean"]["pct_w2"] == pytest.approx(-18.75, abs=0.01)

    def test_identical_summaries_zero_deltas(self, tmp_path):
        paths = self.write_summaries(tmp_path, ([20.0], [20.0], [20.0]))
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--pre", str(paths[0]), "--w1", str(paths[1]),
             "--w2", str(paths[2]), "--out", str(out)]
        ) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[1].endswith("0.0,20.0,0.0")

    def test_location_mismatch(self, tmp_path):
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        other = build_phase_summary(9, Phase.POST_W2, [22.0], hours=5.0)
        p9 = tmp_path / "other.json"
        write_json(p9, other.to_json_dict())
        assert main(
            ["compare", "--pre", str(paths[0]), "--w1", str(paths[1]),
             "--w2", str(p9), "--out", str(tmp_path / "cmp")]
        ) == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mean_mph", True, "post_w2.json.mean_mph: expected a number, got a boolean"),
            ("location_id", 1.5, "post_w2.json.location_id: expected an integer, got 1.5"),
            ("hours", -3, "post_w2.json.hours: must be positive"),
            ("maneuvers", [1, 2], "post_w2.json.maneuvers: expected an object, got a list"),
            ("sample_count", 2, "post_w2.json.histogram: counts sum to 1, sample_count is 2"),
            ("sample_count", -1, "post_w2.json.sample_count: must be >= 0"),
            ("maneuvers", {"pass_through": 60, "slow_down": 30},
             "post_w2.json.maneuvers: expected the keys ['pass_through', 'slow_down', 'stop_and_go']"),
            ("maneuvers", {"pass_through": 60, "slow_down": 30, "stop_and_go": 0},
             "post_w2.json.maneuvers: shares sum to 90.0, not 100"),
            ("maneuvers", {"pass_through": 100.0000005, "slow_down": 0, "stop_and_go": 0},
             "post_w2.json.maneuvers.pass_through: must be <= 100"),
            ("histogram", [{"bin_lo": 23.0, "count": 0.5}],
             "post_w2.json.histogram[0].count: expected an integer, got 0.5"),
        ],
    )
    def test_loose_summary_field_exits_2(self, tmp_path, caplog, field, value, message):
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        write_json(paths[2], dict(json.loads(paths[2].read_text()), **{field: value}))
        with caplog.at_level("ERROR"):
            assert run_compare(paths, tmp_path / "cmp") == 2
        assert message in caplog.text
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("field", ["mean_mph", "p85_mph"])
    def test_null_speed_statistic_exits_2_naming_file_and_field(self, tmp_path, caplog, field):
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        write_json(paths[1], dict(json.loads(paths[1].read_text()), **{field: None}))
        with caplog.at_level("ERROR"):
            assert run_compare(paths, tmp_path / "cmp") == 2
        assert f"post_w1.json.{field}: null; compare needs speed statistics" in caplog.text
        assert not (tmp_path / "cmp").exists()

    def test_summary_of_another_phase_exits_2(self, tmp_path, caplog):
        pre, w1, _ = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        with caplog.at_level("ERROR"):
            assert run_compare((pre, w1, pre), tmp_path / "cmp") == 2
        assert "pre.json.phase: expected 'post_w2', got 'pre'" in caplog.text

    def test_numeric_string_speed_is_read(self, tmp_path):
        paths = self.write_summaries(tmp_path, ([25.6], [20.9], [20.8]))
        write_json(paths[2], dict(json.loads(paths[2].read_text()), p85_mph="29"))
        out = tmp_path / "cmp"
        assert run_compare(paths, out) == 0
        assert (out / "comparison.csv").read_text().splitlines()[2] == "1,p85,25.6,20.9,-4.7,29.0,3.4"

    @pytest.mark.parametrize(
        "pre_mean, w1_mean, code",
        [(1e-310, 20.0, 2), (25.0, 1e30, 0)],
        ids=["percent-change-overflows", "delta-beyond-decimal-precision"],
    )
    def test_extreme_speeds_exit_0_or_2(self, tmp_path, pre_mean, w1_mean, code):
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        for path, mean in zip(paths, (pre_mean, w1_mean)):
            write_json(path, dict(json.loads(path.read_text()), mean_mph=mean))
        assert run_compare(paths, tmp_path / "cmp") == code


class TestJson:
    def test_non_finite_scene_number_exits_2(self, scene_path, caplog):
        scene_path.write_text(scene_path.read_text().replace('"fps": 10.0', '"fps": NaN'))
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(scene_path)]) == 2
        assert "NaN is not a finite number" in caplog.text

    def test_scene_integer_beyond_float_exits_2(self, scene_path, caplog):
        big = "1" + "0" * 400
        scene_path.write_text(scene_path.read_text().replace('"fps": 10.0', f'"fps": {big}'))
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(scene_path)]) == 2
        assert "is not a finite number" in caplog.text

    def test_config_not_utf8_exits_2(self, scene_path, caplog):
        scene_path.write_bytes(scene_path.read_bytes().replace(b"demo corridor", b"demo \xff"))
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(scene_path)]) == 2
        assert "not valid UTF-8" in caplog.text

    def test_report_with_non_finite_number_is_an_invariant_violation(self):
        with pytest.raises(InvariantViolation):
            _json_text({"hours": float("nan")})


@pytest.fixture(scope="module")
def analyze_inputs(tmp_path_factory, demo_h):
    """A valid scene config and manifest body over a simulated detection CSV."""
    base = tmp_path_factory.mktemp("inputs")
    dets = run_simulate(base, [list(row) for row in demo_h.matrix.tolist()])
    manifest = {
        "scene_config": "scene.json",
        "phases": [{"phase": "pre", "detections": [str(dets)], "hours": 2.5}],
    }
    return base, scene_config_dict(demo_h), manifest


def with_field(doc, path, value):
    """A copy of doc with the field at path (keys and list indices) set to value."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[path[-1]] = value
    return doc


@contextlib.contextmanager
def logged_errors():
    """The messages of the records the CLI logs at ERROR within the block."""
    messages = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("speedstudy")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def analyze_with_field(inputs, target, path, value) -> int:
    """Exit code of analyze with one scene ("scene") or manifest field replaced."""
    base, scene, manifest = inputs
    if target == "scene":
        scene = with_field(scene, path, value)
    else:
        manifest = with_field(manifest, path, value)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        tmp = Path(tmp)
        write_json(tmp / "scene.json", scene)
        write_json(tmp / "run.json", manifest)
        return main(["analyze", "--manifest", str(tmp / "run.json"), "--out", str(tmp / "report")])


THRESHOLD_FIELDS = tuple(Thresholds.__dataclass_fields__)
CONFIG_FIELDS = (
    *(("scene", (key,)) for key in (
        "location_id", "name", "fps", "calibration", "aoi_polygon", "approach_zone",
        "travel_direction", "class_map", "thresholds", "percentile_method",
        "representative", "v_mean_reduction", "intersection_type", "histogram_bin_mph",
    )),
    ("scene", ("calibration", "correspondences")),
    ("scene", ("calibration", "correspondences", 0, "world")),
    *(("scene", ("thresholds", key)) for key in THRESHOLD_FIELDS),
    ("manifest", ("scene_config",)),
    ("manifest", ("phases",)),
    *(("manifest", ("phases", 0, key)) for key in ("phase", "hours", "detections")),
)
JSON_LEAVES = st.one_of(
    st.sampled_from(["nan", "inf", "abc", None, True, False]),
    st.integers(min_value=2**31),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


class TestConfigFields:
    @pytest.mark.parametrize(
        "target, path, value, message",
        [
            ("scene", ("travel_direction",), [1], "travel_direction: expected [x, y]"),
            ("scene", ("travel_direction",), [1, 0, 5], "travel_direction: expected [x, y]"),
            ("scene", ("fps",), [10], "fps: expected a number, got a list"),
            ("scene", ("location_id",), [1], "location_id: expected a number, got a list"),
            ("scene", ("class_map",), [1], "class_map: expected an object, got a list"),
            ("scene", ("class_map",), {"x": "car"}, "class_map.x: class id must be an integer"),
            ("scene", ("fps",), "nan", "fps: 'nan' is not a finite number"),
            ("scene", ("fps",), 0, "fps: must be positive"),
            ("scene", ("thresholds", "stationary_m"), 0.0, "stationary_m: must be positive"),
            ("manifest", ("phases", 0, "hours"), 0, "hours: must be positive"),
            ("scene", ("histogram_bin_mph",), "nan", "histogram_bin_mph: 'nan' is not a finite"),
            *(
                ("scene", ("thresholds", key), "nan", f"thresholds.{key}: 'nan' is not a finite")
                for key in THRESHOLD_FIELDS
            ),
            ("manifest", ("phases", 0, "hours"), "nan", "hours: 'nan' is not a finite number"),
            ("manifest", ("phases", 0, "hours"), [1], "hours: expected a number, got a list"),
            ("manifest", ("phases",), 5, "run.json.phases: expected a list, got a number"),
            ("manifest", ("phases", 0, "detections"), 5, "detections: expected a list"),
            ("manifest", ("phases", 0, "detections"), [5], "detections[0]: expected a string"),
            ("manifest", ("scene_config",), 5, "scene_config: expected a string, got a number"),
            ("scene", ("travel_direction",), [0, 0], "travel_direction: must be nonzero"),
            ("scene", ("location_id",), 1.5, "location_id: expected an integer, got 1.5"),
            ("scene", ("location_id",), "2.5", "location_id: expected an integer, got '2.5'"),
            ("scene", ("location_id",), 2**63,
             "location_id: 9223372036854775808 is outside the 64-bit integer range"),
            ("scene", ("location_id",), 1e300, "location_id: 1e+300 is outside the 64-bit integer"),
            ("scene", ("location_id",), "1e300", "location_id: '1e300' is outside the 64-bit integer"),
        ],
    )
    def test_wrongly_typed_field_exits_2(self, analyze_inputs, caplog, target, path, value, message):
        with caplog.at_level("ERROR"):
            assert analyze_with_field(analyze_inputs, target, path, value) == 2
        assert message in caplog.text

    def test_integral_float_location_id_is_read(self, analyze_inputs):
        assert analyze_with_field(analyze_inputs, "scene", ("location_id",), 3.0) == 0

    @pytest.mark.parametrize(
        "value, expected",
        [("2.0", 2), (" 7 ", 7), ("1e3", 1000), (2**63 - 1, 2**63 - 1),
         ("9223372036854775807", 2**63 - 1), (-(2**63), -(2**63)), (2**53 + 1, 2**53 + 1)],
    )
    def test_integer_is_read_exactly(self, value, expected):
        number = config._number(value, "x", kind=int, positive=False)
        assert (type(number), number) == (int, expected)

    @pytest.mark.parametrize("field", ["aoi_polygon", "approach_zone"])
    def test_self_intersecting_polygon_exits_2(self, analyze_inputs, caplog, field):
        bowtie = [[0, 0], [10, 10], [10, 0], [0, 10]]
        with caplog.at_level("ERROR"):
            assert analyze_with_field(analyze_inputs, "scene", (field,), bowtie) == 2
        assert f"scene.json.{field}: polygon is self-intersecting" in caplog.text

    @pytest.mark.parametrize(
        "target, path, value",
        [
            pytest.param("scene", ("fps",), 2**63, id="fps-2**63"),
            pytest.param("scene", ("fps",), 10**300, id="fps-1e300"),
            pytest.param("scene", ("thresholds", "min_track_s"), 10**308, id="min_track_s-1e308"),
            pytest.param("scene", ("histogram_bin_mph",), 1e-300, id="histogram_bin_mph-1e-300"),
            pytest.param("scene", ("histogram_bin_mph",), 1e-6, id="histogram_bin_mph-1e-6"),
        ],
    )
    def test_extreme_number_exits_0_or_2(self, analyze_inputs, target, path, value):
        assert analyze_with_field(analyze_inputs, target, path, value) in (0, 2)

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
    # a finite world point far off the others: the homography solves, with
    # a reprojection RMSE over the 2 px gate
    @example(field=("scene", ("calibration", "correspondences", 0, "world")),
             value=[2147483648, -26])
    def test_any_field_value_exits_0_or_2(self, analyze_inputs, field, value):
        """Any value exits 0 or 2; a field under calibration may also fail
        the calibration gate (exit 3), and then the gate says so."""
        target, path = field
        with logged_errors() as errors:
            code = analyze_with_field(analyze_inputs, target, path, value)
        if code == 3 and target == "scene" and path[0] == "calibration":
            assert any("calibration gate failed" in message for message in errors)
        else:
            assert code in (0, 2)


SUMMARY_FIELDS = (
    *((key,) for key in (
        "location_id", "phase", "sample_count", "hours", "mean_mph", "p85_mph", "histogram",
        "maneuvers",
    )),
    ("histogram", 0),
    ("histogram", 0, "bin_lo"),
    ("histogram", 0, "count"),
    ("maneuvers", "slow_down"),
)


@pytest.fixture(scope="module")
def summary_docs():
    """The three phase summaries of one site, with histograms and maneuver shares."""
    codes = np.array([0, 1, 2, 0], dtype=np.int8)
    return [
        build_phase_summary(4, phase, speeds, hours=2.0, maneuvers=codes).to_json_dict()
        for phase, speeds in zip(Phase, ([25.0, 31.5], [22.0, 28.0], [21.0, 26.5]))
    ]


class TestSummaryFields:
    @settings(max_examples=150, deadline=None)
    @given(slot=st.integers(0, 2), field=st.sampled_from(SUMMARY_FIELDS), value=JSON_VALUES)
    def test_any_field_value_exits_0_or_2(self, summary_docs, slot, field, value):
        docs = list(summary_docs)
        docs[slot] = with_field(docs[slot], field, value)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"{phase.value}.json" for phase in Phase]
            for path, doc in zip(paths, docs):
                write_json(path, doc)
            assert run_compare(paths, Path(tmp) / "cmp") in (0, 2)


class TestReadme:
    def test_config_examples_run(self, tmp_path, demo_h):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

        def example(heading: str) -> Path:
            """The JSON block under heading, written to a file."""
            block = text.split(f"### {heading}\n", 1)[1].split("```json\n", 1)[1]
            path = tmp_path / f"{heading.split()[0].lower()}.json"
            path.write_text(block.split("```", 1)[0], encoding="utf-8")
            return path

        assert load_scene_config(example("Scene config")).location_id == 1
        sim = example("Simulation config")
        # the example camera, so the simulated scene is the scene config's
        assert json.loads(sim.read_text())["homography_matrix"] == demo_h.matrix.tolist()
        assert main(["simulate", "--config", str(sim), "--seed", "42",
                     "--out", str(tmp_path / "sim")]) == 0


class TestPackage:
    def test_every_submodule_imports(self):
        names = [m.name for m in pkgutil.iter_modules(speedstudy.__path__)]
        assert "cli" in names and "_kernels" in names
        for name in names:
            importlib.import_module(f"speedstudy.{name}")
        assert "numba" not in sys.modules

    def test_cli_import_leaves_the_simulator_unloaded(self):
        # in a fresh process per module, since the tests themselves load the
        # simulator; config and ingest read and parse for analyze, so they
        # must not load it either
        env = dict(os.environ, PYTHONPATH=str(Path(speedstudy.__file__).parents[1]))
        for module in ("cli", "config", "ingest", "pipeline"):
            code = (
                f"import sys, speedstudy.{module}\n"
                "assert 'speedstudy.simulator' not in sys.modules\n"
                "from speedstudy import Detection, render_scene, serialize_detections\n"
                "import speedstudy\n"
                "assert render_scene is speedstudy.simulator.render_scene\n"
                "assert Detection is speedstudy.simulator.Detection\n"
                "assert serialize_detections is speedstudy.simulator.serialize_detections\n"
            )
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=60)
            assert out.returncode == 0, (module, out.stderr)

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'render_scenes'"):
            speedstudy.render_scenes

    def test_module_help_runs(self):
        env = dict(os.environ, PYTHONPATH=str(Path(speedstudy.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "speedstudy", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "analyze" in out.stdout


class TestDefaults:
    def test_thresholds_match_published_constants(self):
        t = Thresholds()
        assert t.following_px == 40.0
        assert t.min_track_s == 0.5
        assert t.stopgo_mph == 5.0
        assert t.slowdown_mph == 10.0
        assert t.stationary_m == 2.0
        assert t.following_frac == 0.5
        assert t.direction_deg == 45.0

    # Each threshold and the stage parameters whose default it must equal.
    STAGE_DEFAULTS = {
        "stationary_m": [(ingest.filter_stationary, "min_net_m"),
                         (ingest.run_filter_cascade, "stationary_m")],
        "following_px": [(ingest.filter_following, "max_px"),
                         (ingest.run_filter_cascade, "following_px")],
        "following_frac": [(ingest.filter_following, "min_frac"),
                           (ingest.run_filter_cascade, "following_frac")],
        "direction_deg": [(ingest.filter_direction, "max_deg"),
                          (ingest.run_filter_cascade, "direction_deg")],
        "stopgo_mph": [(behavior.classify_maneuvers, "stopgo_mph"),
                       (behavior.observe_maneuvers, "stopgo_mph")],
        "slowdown_mph": [(behavior.classify_maneuvers, "slowdown_mph"),
                         (behavior.observe_maneuvers, "slowdown_mph")],
        "min_track_s": [(kinematics.window_params, "min_track_s"),
                        (kinematics.track_kinematics, "min_track_s")],
    }

    def test_thresholds_are_the_stage_signature_defaults(self):
        t = Thresholds()
        assert set(self.STAGE_DEFAULTS) == set(THRESHOLD_FIELDS)
        for name, params in self.STAGE_DEFAULTS.items():
            for fn, param in params:
                default = inspect.signature(fn).parameters[param].default
                assert getattr(t, name) == default, (name, fn.__name__, param)

    def test_travel_direction_is_normalised(self, tmp_path, demo_h):
        path = tmp_path / "scene.json"
        write_json(path, scene_config_dict(demo_h, travel_direction=[3, -4]))
        assert load_scene_config(path).travel_direction.tolist() == [0.6, -0.8]

    def test_scene_defaults(self, scene_path):
        cfg = load_scene_config(scene_path)
        assert cfg.histogram_bin_mph == 1.0
        assert cfg.percentile_method == "interpolate"
        assert cfg.representative == "per_vehicle"
        assert cfg.v_mean_reduction == "min"
        assert cfg.intersection_type == "unsignalized"


# small-grid vertices make collinear edges and touching contacts common; the
# scales put some orientation values under the 1e-12 tolerance
GRID_POLYGON = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=12)
COLLINEAR_POLYGON = st.lists(st.integers(-3, 3), min_size=3, max_size=8).map(
    lambda xs: [(x, 2 * x + 1) for x in xs]
)
RANDOM_POLYGON = st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=16
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(GRID_POLYGON, COLLINEAR_POLYGON, RANDOM_POLYGON),
    st.sampled_from([1.0, 0.1, 3.7, 1e-6, 5e-7, 3e-7, 1e-7]),
)
def test_simple_polygon_check_matches_edge_pair_loop(vertices, scale):
    poly = np.array(vertices, dtype=np.float64) * scale
    assert config._is_simple_polygon(poly) == is_simple_polygon_oracle(poly)


@pytest.mark.parametrize(
    "vertices, simple",
    [
        ([[0, 0], [10, 10], [10, 0], [0, 10]], False),  # bowtie
        ([[0, 0], [4, 0], [4, 4], [2, 0], [0, 4]], True),  # vertex touching an edge
        ([[0, 0], [2, 0], [4, 0], [4, 4]], True),  # collinear run
        ([[0, 0], [4, 0], [4, 4], [0, 4], [2, -2]], False),  # an edge crossing the first
    ],
)
def test_simple_polygon_check_examples(vertices, simple):
    poly = np.array(vertices, dtype=np.float64)
    assert config._is_simple_polygon(poly) is simple
    assert is_simple_polygon_oracle(poly) is simple
