import ast
import contextlib
import copy
import dataclasses
import errno
import hashlib
import importlib
import io
import json
import logging
import os
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
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
    ManeuverClass,
    ManeuverTable,
    Phase,
    PhaseSummary,
    build_phase_summary,
    config,
    geometry,
    ingest,
    pipeline,
    simulator,
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

    def test_world_point_far_from_the_others(self, tmp_path, demo_h, caplog):
        cfg = scene_config_dict(demo_h)
        cfg["calibration"]["correspondences"].append({"world": [1e100, 0.0], "image": [300.0, 350.0]})
        path = tmp_path / "scene.json"
        write_json(path, cfg)
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(path)]) == 2
        assert "coordinates span too wide a range to solve" in caplog.text

    def test_unknown_threshold_key_exits_2(self, tmp_path, demo_h, caplog):
        path = tmp_path / "scene.json"
        write_json(path, scene_config_dict(demo_h, thresholds={"following_px": 30.0, "speed_mph": 1}))
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(path)]) == 2
        assert "scene.json.thresholds: unknown keys ['speed_mph']" in caplog.text


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

    @pytest.mark.parametrize("scale", [2.0, 0.5, -4.0])
    def test_scaled_homography_writes_identical_csvs(self, tmp_path, sim_homography, scale):
        """A nonzero multiple of a homography is the same map, and Homography
        keeps one canonical form of it, so the CSVs match byte for byte."""
        outs = []
        for name, factor in (("unscaled", 1.0), ("scaled", scale)):
            matrix = [[factor * value for value in row] for row in sim_homography]
            write_json(tmp_path / f"{name}.json", dict(sim_config(noise=1.0), homography_matrix=matrix))
            assert main(["simulate", "--config", str(tmp_path / f"{name}.json"), "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
            outs.append(snapshot(tmp_path / name))
        assert outs[0].keys() == {"detections.csv", "ground_truth.csv"}
        assert outs[1] == outs[0]

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
            (("class_map",), {"1": "car", "10": "bus", "1_0": "truck"},
             "sim.json.class_map: keys '10' and '1_0' both name class id 10"),
        ],
    )
    def test_invalid_field_exits_2(self, tmp_path, sim_homography, caplog, path, value, message):
        cfg = with_field(dict(sim_config(), homography_matrix=sim_homography), path, value)
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        with caplog.at_level("ERROR"):
            assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in caplog.text

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("noise_sigma",), 2.0, "sim.json: unknown keys ['noise_sigma']"),
            (("vehicles", 0, "speed_mph"), 25, "sim.json.vehicles[0]: unknown keys ['speed_mph']"),
            # a key of another profile kind
            (("vehicles", 2, "profile", "dwell_s"), 1.0,
             "sim.json.vehicles[2].profile: unknown keys ['dwell_s']"),
        ],
        ids=["top-level", "vehicle", "profile"],
    )
    def test_unknown_key_exits_2_naming_it(self, tmp_path, sim_homography, caplog, path, value,
                                           message):
        cfg = with_field(dict(sim_config(), homography_matrix=sim_homography), path, value)
        p = tmp_path / "sim.json"
        write_json(p, cfg)
        with caplog.at_level("ERROR"):
            assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in caplog.text
        assert not (tmp_path / "o").exists()

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

    def test_report_bytes_are_pinned(self, tmp_path, monkeypatch, scene_path, sim_homography):
        # criterion 9 compares reruns of one build; these digests catch a
        # report whose bytes change between commits. A deliberate change to
        # a report's format or figures updates them. The manifest is named
        # relative to tmp_path, so the sources in the filter counts are too
        monkeypatch.chdir(tmp_path)
        phases = []
        for k, phase in enumerate(Phase):
            dets = [
                run_simulate(tmp_path, sim_homography, name=f"sim{seed}", noise=1.0, seed=seed)
                for seed in (2 * k, 2 * k + 1)
            ]
            phases.append({"phase": phase.value, "hours": 1.5,
                           "detections": [str(p.relative_to(tmp_path)) for p in dets]})
        write_json(tmp_path / "run.json", {"scene_config": scene_path.name, "phases": phases})
        assert main(["analyze", "--manifest", "run.json", "--out", "report"]) == 0
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in snapshot(tmp_path / "report").items()}
        assert digests == {
            "post_w1_filter_counts.json":
                "db7c6bedc10c6edde168163c5878acb925f26f0e15223e3679e841d789c12e3e",
            "post_w1_rec00_kinematics.csv":
                "e8ad3d5d91684596f75f962543fd4bbb711f6abed6904c5e36606d3f31023db5",
            "post_w1_rec00_maneuvers.csv":
                "7be7ef93d0fe533d565c54b30a211bcac68587f9e6d929f6e39a689e79c89f26",
            "post_w1_rec01_kinematics.csv":
                "3d5bc52c72274cf3766f58bbc54864b707847dbf906f9e1a585702183594adaf",
            "post_w1_rec01_maneuvers.csv":
                "598395a5b901e8b6ff0b7bb332b8e0cc9a86db00c24033def2d8a5795f96dcc3",
            "post_w1_summary.json":
                "69f7a37c95942fa049b5217bb2a8bef7c3ca5bb8540bad8e02d229421c4f574a",
            "post_w2_filter_counts.json":
                "fcf5c2fe0675f55d0636ff09890d724c0fa61c5895fa72c0cde0d9adc4c662fe",
            "post_w2_rec00_kinematics.csv":
                "80060ffe772dd9ab54742c24aa564ffec3b871c2b41af2d2f1226071a29e15ae",
            "post_w2_rec00_maneuvers.csv":
                "37ad4f2a843b1e49130e7041c194132caeb86ce2bafc0d9afb4384331119e25d",
            "post_w2_rec01_kinematics.csv":
                "ae3c186178f517b913107c8fd3211139864cd74b0773630bed40e23ae9d785ad",
            "post_w2_rec01_maneuvers.csv":
                "4e5239c8ab0edea07e9208e992d95c290b02fb95e48ecffebbdb11048aedaa4e",
            "post_w2_summary.json":
                "6454a5893cd201436990f08d23bbb9c167c9d58842edbd2faa7d17b22b0cd577",
            "pre_filter_counts.json":
                "cb65288898ba8f1920760e40beadb9d0c1db2d59dd46f9afb8915f0aa5478a64",
            "pre_rec00_kinematics.csv":
                "43740229e4cdfb4411d76be6fb4f11797c9eab0aa9f5e27cc00ddfea07f38e70",
            "pre_rec00_maneuvers.csv":
                "56e80edbf22513db57337decfdb0494e1bd27ba1aca593b570e46d9db7fa1198",
            "pre_rec01_kinematics.csv":
                "0670a19c6c5ecbdc577f9e0f9e8c53702fbdf0d9bc22ac74c8102f08347383e2",
            "pre_rec01_maneuvers.csv":
                "034c0937391c3c8d996e4c25ec4c1f8878bd7f86c55f5568163027a02c4e180f",
            "pre_summary.json":
                "fc97ccd33c966dad0d099d3f368cbc19ca75c8220275c4cbda5e344f9897277d",
        }

    @staticmethod
    def phase_log(caplog):
        return [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "speedstudy.pipeline"]

    def test_phase_log_line_counts_the_raw_rows(self, tmp_path, scene_path, sim_homography, caplog):
        dets = [run_simulate(tmp_path, sim_homography, name=f"sim{seed}", seed=seed) for seed in (1, 2)]
        manifest = tmp_path / "run.json"
        write_json(manifest, {"scene_config": scene_path.name, "phases": [{
            "phase": "post_w1", "hours": 1.0,
            "detections": [str(p.relative_to(tmp_path)) for p in dets],
        }]})
        out = tmp_path / "report"
        with caplog.at_level("INFO", logger="speedstudy.pipeline"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        raw_rows = json.loads((out / "post_w1_filter_counts.json").read_text())["totals"]["raw_detections"]
        assert raw_rows == sum(len(p.read_text().splitlines()) for p in dets)
        assert json.loads((out / "post_w1_summary.json").read_text())["sample_count"] == 6
        assert self.phase_log(caplog) == [
            ("INFO", f"phase post_w1: {raw_rows} raw rows, 6 vehicles in summary"),
        ]

    def test_empty_phase_reports_and_exit_zero(self, tmp_path, scene_path, caplog):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        manifest = self.make_manifest(tmp_path, scene_path, empty)
        out = tmp_path / "report"
        with caplog.at_level("INFO", logger="speedstudy.pipeline"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        summary = json.loads((out / "pre_summary.json").read_text())
        assert summary["sample_count"] == 0
        assert summary["mean_mph"] is None
        assert summary["histogram"] == []
        raw_rows = json.loads((out / "pre_filter_counts.json").read_text())["totals"]["raw_detections"]
        assert self.phase_log(caplog) == [
            ("WARNING", "phase pre: no vehicles survived; writing empty report"),
            ("INFO", f"phase pre: {raw_rows} raw rows, 0 vehicles in summary"),
        ]

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

    def test_detection_file_listed_twice_in_a_phase_exits_2_before_any_report(
        self, tmp_path, scene_path, sim_homography, caplog
    ):
        dets = str(run_simulate(tmp_path, sim_homography).relative_to(tmp_path))
        manifest = tmp_path / "run.json"
        write_json(manifest, {
            "scene_config": scene_path.name,
            "phases": [{"phase": "pre", "detections": [dets, f"./{dets}"], "hours": 1.0}],
        })
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"run.json.phases[0].detections[1]: {tmp_path / dets} repeats detections[0]" in caplog.text
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

    def test_representative_key_exits_2_naming_the_field(self, tmp_path, demo_h, caplog):
        # a phase's speeds are per vehicle only: the per-sample option is gone
        scene = tmp_path / "scene.json"
        write_json(scene, scene_config_dict(demo_h, representative="per_sample"))
        dets = tmp_path / "dets.csv"
        dets.write_text("")
        manifest = self.make_manifest(tmp_path, scene, dets)
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "scene.json: unknown keys ['representative']" in caplog.text
        assert not out.exists()

    def test_speeds_beyond_the_histogram_exit_2_naming_them(self, tmp_path, demo_h, caplog):
        # an AoI drawn up to the horizon: a car there, 10 to 105 km down the
        # road, moves 5 km a frame, 111,847 mph beside another's 22.4 mph
        from speedstudy.geometry import project_points

        far = [(-5.0, -6.0), (1e6, -6.0), (1e6, 6.0), (-5.0, 6.0)]
        scene = tmp_path / "scene.json"
        write_json(scene, scene_config_dict(
            demo_h, aoi_polygon=project_points(demo_h.matrix, np.array(far))[0].tolist()
        ))
        frames = np.arange(20)
        rows = []
        for track_id, x in ((1, 10.0 + frames), (2, 1e4 + 5e3 * frames)):
            anchors = project_points(demo_h.matrix, np.column_stack([x, np.zeros(20)]))[0]
            rows += [(f, track_id, u, v) for f, (u, v) in zip(frames.tolist(), anchors.tolist())]
        dets = tmp_path / "dets.csv"
        dets.write_text("".join(
            f"{f},{t},{u - 2.0!r},{v - 2.0!r},4.0,2.0,0.9,1\n" for f, t, u, v in sorted(rows)
        ))
        manifest = self.make_manifest(tmp_path, scene, dets)
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "histogram: speeds 22.369" in caplog.text
        assert "111846.8" in caplog.text
        assert "mph need more than 100,000 one-mph bins" in caplog.text
        assert not out.exists()

    def test_determinism_byte_identical_reports(self, tmp_path, scene_path, sim_homography):
        dets = run_simulate(tmp_path, sim_homography, noise=1.0)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]

    @staticmethod
    def simulate_every_stage(tmp_path, sim_homography):
        """Detections in which every cascade stage removes a vehicle: one
        parked, a bicycle, one driving against the travel direction, a close
        follower."""
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
        return sim / "detections.csv"

    def analyze_reports(self, tmp_path, manifest, name) -> dict[str, bytes]:
        out = tmp_path / name
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def assert_every_stage_removed_some(self, reports):
        counts = json.loads(reports["pre_filter_counts.json"])["totals"]
        assert all(counts[stage] for stage in ("vehicle_type", "stationary", "following", "direction"))

    def test_shuffled_rows_give_byte_identical_reports(self, tmp_path, scene_path, sim_homography):
        dets = self.simulate_every_stage(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        blobs = [self.analyze_reports(tmp_path, manifest, "in_order")]
        # the same path, since the filter counts name their source file
        lines = dets.read_text().splitlines(keepends=True)
        order = np.random.default_rng(11).permutation(len(lines))
        dets.write_text("".join(lines[i] for i in order))
        blobs.append(self.analyze_reports(tmp_path, manifest, "shuffled"))
        self.assert_every_stage_removed_some(blobs[0])
        assert blobs[0] == blobs[1]

    @staticmethod
    def relabel(dets, new_id):
        """Rewrite the detection CSV's track ids through new_id; returns the
        ids it held."""
        rows = [line.split(",", 2) for line in dets.read_text().splitlines(keepends=True)]
        dets.write_text("".join(f"{frame},{new_id(int(tid))},{rest}" for frame, tid, rest in rows))
        return sorted({int(tid) for _, tid, _ in rows})

    @staticmethod
    def ids_mapped(reports, old_id):
        """The reports, each CSV row's track id (its first field) mapped
        through old_id."""
        out = dict(reports)
        for name, blob in reports.items():
            if name.endswith(".csv"):
                header, *rows = blob.decode().splitlines(keepends=True)
                rows = (row.split(",", 1) for row in rows)
                out[name] = (header + "".join(f"{old_id(int(t))},{rest}" for t, rest in rows)).encode()
        return out

    def test_order_preserving_id_relabelling_gives_identical_reports(
        self, tmp_path, scene_path, sim_homography
    ):
        """Ids moved to the top of the int64 range, in the same order, give
        the same reports once mapped back."""
        dets = self.simulate_every_stage(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        before = self.analyze_reports(tmp_path, manifest, "as_simulated")
        step = 1_000_003
        top = self.relabel(dets, lambda i: INT64_MAX - step * (8 - i))[-1]
        assert top == 8  # so the largest id becomes INT64_MAX
        after = self.analyze_reports(tmp_path, manifest, "relabelled")
        assert after != before
        self.assert_every_stage_removed_some(before)
        assert self.ids_mapped(after, lambda i: 8 - (INT64_MAX - i) // step) == before

    def test_reversed_ids_give_the_same_rows_and_counts(self, tmp_path, scene_path, sim_homography):
        """Reversing the ids reorders the per-track rows and nothing else:
        the phase mean's sum is correctly rounded, so the summary is equal."""
        dets = self.simulate_every_stage(tmp_path, sim_homography)
        manifest = self.make_manifest(tmp_path, scene_path, dets)
        before = self.analyze_reports(tmp_path, manifest, "as_simulated")
        ids = self.relabel(dets, lambda i: 9 - i)
        assert ids == list(range(1, 9))
        after = self.ids_mapped(self.analyze_reports(tmp_path, manifest, "reversed"), lambda i: 9 - i)
        self.assert_every_stage_removed_some(before)
        assert after.keys() == before.keys()
        for name in before:
            if name.endswith(".csv"):
                assert sorted(after[name].splitlines()) == sorted(before[name].splitlines()), name
        for name in ("pre_filter_counts.json", "pre_summary.json"):
            assert after[name] == before[name], name

    def test_thresholds_left_out_read_as_the_published_defaults(
        self, tmp_path, demo_h, sim_homography
    ):
        """A scene with no thresholds key gives the reports of one that
        writes out the published defaults."""
        dets = self.simulate_every_stage(tmp_path, sim_homography)
        defaults = {"stationary_m": 2.0, "following_px": 40, "following_frac": 0.5,
                    "direction_deg": 45}
        blobs = []
        for name, keys in (("left_out", {}), ("written", {"thresholds": defaults})):
            scene_path = tmp_path / "scene.json"
            write_json(scene_path, scene_config_dict(demo_h, **keys))
            manifest = self.make_manifest(tmp_path, scene_path, dets)
            blobs.append(self.analyze_reports(tmp_path, manifest, name))
        self.assert_every_stage_removed_some(blobs[0])
        assert blobs[0] == blobs[1]

    def test_rigid_motion_of_the_world_frame_keeps_speeds_and_classes(
        self, tmp_path, demo_h, sim_homography
    ):
        """Rotating and shifting the world frame, the calibration's world
        points, approach zone and travel direction together, moves every
        road-plane position rigidly. Distances are kept, so every speed
        agrees within 1e-9 relative, and no track lies near a gate or a
        class bound, so fates and maneuver classes are equal."""
        dets = self.simulate_every_stage(tmp_path, sim_homography)
        angle, shift = 2.5, np.array([130.0, -45.0])
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

        def moved(points):
            return (np.asarray(points, dtype=np.float64) @ rotation.T + shift).tolist()

        scene = scene_config_dict(demo_h)
        calibration = copy.deepcopy(scene["calibration"])
        for pair in calibration["correspondences"]:
            pair["world"] = moved(pair["world"])
        moved_scene = dict(
            scene, calibration=calibration, approach_zone=moved(scene["approach_zone"]),
            travel_direction=(rotation @ scene["travel_direction"]).tolist(),
        )
        before, after = (
            pipeline.process_recording(dets, cfg, solve_homography(cfg.correspondences))
            for cfg in map(scene_config_from_dict, (scene, moved_scene))
        )
        assert set(before.fates.tolist()) == {0, 2, 3, 4, 5}  # kept, or removed past the AoI clip
        assert np.array_equal(after.fates, before.fates)
        k0, k1 = before.kinematics, after.kinematics
        for column in ("track_ids", "offsets", "frames", "window_frames"):
            assert np.array_equal(getattr(k1, column), getattr(k0, column)), column
        assert not np.allclose(k1.points, k0.points)
        np.testing.assert_allclose(k1.speeds_mph, k0.speeds_mph, rtol=1e-9, atol=0)
        np.testing.assert_allclose(k1.representative_mph, k0.representative_mph, rtol=1e-9, atol=0)
        m0, m1 = before.maneuvers, after.maneuvers
        assert len(m0.track_ids) and np.array_equal(m1.track_ids, m0.track_ids)
        assert np.array_equal(m1.classes, m0.classes)
        np.testing.assert_allclose(m1.v_mean_mph, m0.v_mean_mph, rtol=1e-9, atol=0)

    def test_recording_split_where_no_track_spans_keeps_the_phase_figures(
        self, tmp_path, scene_path, sim_homography
    ):
        """One recording cut into two CSVs at a frame that no track spans
        gives the same filter totals and phase summary, the mean included:
        its sum is correctly rounded, whatever the vehicles' order."""
        cfg = dict(sim_config(noise=1.0, n_vehicles=6), duration_s=40.0,
                   homography_matrix=sim_homography)
        for i, vehicle in enumerate(cfg["vehicles"]):  # three vehicles, then three more
            vehicle.update(entry_time_s=2.0 * i + (14.0 if i >= 3 else 0.0),
                           start=[0.0, -3.0 + 2.0 * (i % 3)])
        cfg["vehicles"][4]["class_label"] = "bicycle"
        write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--seed", "9",
                     "--out", str(tmp_path / "sim")]) == 0
        lines = (tmp_path / "sim" / "detections.csv").read_text().splitlines(keepends=True)
        keys = [tuple(map(int, line.split(",", 2)[:2])) for line in lines]  # (frame, track id)
        cut = min(frame for frame, track_id in keys if track_id > 3)
        assert max(frame for frame, track_id in keys if track_id <= 3) < cut
        for name, part in (("first", lambda frame: frame < cut), ("second", lambda frame: frame >= cut)):
            (tmp_path / f"{name}.csv").write_text(
                "".join(line for line, (frame, _) in zip(lines, keys) if part(frame))
            )
        reports = []
        for name, detections in (("whole", ["sim/detections.csv"]),
                                 ("split", ["first.csv", "second.csv"])):
            write_json(tmp_path / f"{name}.json", {"scene_config": scene_path.name, "phases": [
                {"phase": "pre", "detections": detections, "hours": 2.0}]})
            reports.append(self.analyze_reports(tmp_path, tmp_path / f"{name}.json", name))
        totals = [json.loads(r["pre_filter_counts.json"])["totals"] for r in reports]
        assert totals[1] == totals[0]
        assert (totals[0]["vehicle_type"], totals[0]["surviving"]) == (1, 5)
        summaries = [json.loads(r["pre_summary.json"]) for r in reports]
        assert summaries[0]["sample_count"] == 5
        assert summaries[1] == summaries[0]


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


class TestReportPrecision:
    """The report CSVs print speeds to 12 significant digits: every figure
    recomputed from the printed values matches the one the program computed
    from its float64 speeds, far inside what a reader checking the reports
    (or the benchmark's oracle, at 1e-9) allows."""

    def test_printed_speeds_reproduce_the_figures(self, tmp_path, demo_h, sim_homography):
        write_json(tmp_path / "sim.json",
                   dict(sim_config(noise=1.0, n_vehicles=4), homography_matrix=sim_homography))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--seed", "3",
                     "--out", str(tmp_path / "sim")]) == 0
        write_json(tmp_path / "scene.json", scene_config_dict(demo_h))
        write_json(tmp_path / "run.json", {"scene_config": "scene.json", "phases": [
            {"phase": "pre", "detections": ["sim/detections.csv"], "hours": 1.0}]})
        out = tmp_path / "report"
        assert main(["analyze", "--manifest", str(tmp_path / "run.json"), "--out", str(out)]) == 0

        rows = [line.split(",") for line in
                (out / "pre_rec00_kinematics.csv").read_text().splitlines()[1:]]
        samples, means, track = [], [], []
        for _, frame, speed, n in rows:
            if frame == "summary":
                assert len(track) == int(n)
                assert float(speed) == pytest.approx(np.mean(track), rel=1e-10, abs=0)
                means.append(float(speed))
                track = []
            else:
                track.append(float(speed))
                samples.append(float(speed))
        summary = json.loads((out / "pre_summary.json").read_text())
        assert summary["sample_count"] == len(means) == 4
        assert summary["mean_mph"] == pytest.approx(np.mean(means), rel=1e-10, abs=0)
        p85 = speedstudy.analytics.percentile_85(means)
        assert summary["p85_mph"] == pytest.approx(p85, rel=1e-10, abs=0)

        cfg = load_scene_config(tmp_path / "scene.json")
        rec = pipeline.process_recording(
            tmp_path / "sim" / "detections.csv", cfg, solve_homography(cfg.correspondences)
        )
        kins = rec.kinematics
        assert len(samples) == len(kins.speeds_mph)
        printed = {
            "speed_mph": (samples, kins.speeds_mph),
            "summary mean": (means, kins.representative_mph),
            "v_mean_mph": ([float(line.split(",")[1]) for line in
                            (out / "pre_rec00_maneuvers.csv").read_text().splitlines()[1:]],
                           rec.maneuvers.v_mean_mph),
        }
        for column, (got, want) in printed.items():
            err = np.abs(np.array(got) - want) / want
            assert err.max() <= 5e-12, column
            # 12 digits, not repr's 17: the format is not silently widened back
            assert not np.array_equal(got, want), column


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

    def test_each_recordings_tables_freed_before_the_next_is_parsed(
        self, tmp_path, monkeypatch, scene_path, sim_homography
    ):
        dets = [
            str(run_simulate(tmp_path, sim_homography, name=f"sim{seed}", seed=seed)
                .relative_to(tmp_path))
            for seed in (1, 2)
        ]
        manifest = tmp_path / "run.json"
        write_json(manifest, {
            "scene_config": scene_path.name,
            "phases": [{"phase": phase.value, "detections": dets, "hours": 1.0} for phase in Phase],
        })
        refs = []
        alive = []  # at each parse, how many of the earlier recordings' tables live
        real_parse, real_process_recording = pipeline.parse_track_file, pipeline.process_recording

        def parse(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return real_parse(*args)

        def process_recording(*args):
            rec = real_process_recording(*args)
            refs.extend(weakref.ref(t) for t in (rec.kinematics, rec.maneuvers, rec.fates))
            return rec

        monkeypatch.setattr(pipeline, "parse_track_file", parse)
        monkeypatch.setattr(pipeline, "process_recording", process_recording)
        assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
        assert len(refs) == 18
        assert alive == [0] * 6

    def test_phase_peak_does_not_grow_with_its_recordings(
        self, tmp_path, scene_path, sim_homography
    ):
        sim = dict(sim_config(noise=1.0, n_vehicles=80), duration_s=90.0)
        for i, vehicle in enumerate(sim["vehicles"]):  # four lanes, one entry a second
            vehicle.update(entry_time_s=1.0 * i, start=[0.0, -3.0 + 2.0 * (i % 4)],
                           profile={"kind": "constant", "v_mph": 15.0 + 3.0 * (i % 5)})
        write_json(tmp_path / "sim.json", dict(sim, homography_matrix=sim_homography))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--seed", "5",
                     "--out", str(tmp_path / "sim")]) == 0
        text = (tmp_path / "sim" / "detections.csv").read_text(encoding="utf-8")
        for i in range(4):  # a recording may be listed once per phase, so copies
            (tmp_path / f"copy{i}.csv").write_text(text, encoding="utf-8")

        def analyze(copies: int, out: str) -> int:
            manifest = tmp_path / f"{out}.json"
            write_json(manifest, {"scene_config": scene_path.name, "phases": [{
                "phase": "pre", "hours": 1.0,
                "detections": [f"copy{i}.csv" for i in range(copies)],
            }]})
            return main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / out)])

        analyze(1, "warm-up")  # numpy's lazy set-up is not billed
        peaks = []
        for copies in (1, 4):
            code, peak = self.traced_peak(analyze, copies, f"copies{copies}")
            assert code == 0
            peaks.append(peak)
        one, four = peaks
        summary = json.loads((tmp_path / "copies4" / "pre_summary.json").read_text())
        assert summary["sample_count"] == 4 * 80
        assert four <= 1.1 * one, f"{four / 1024:.0f} vs {one / 1024:.0f} KiB"

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
        assert peak <= 135 * n_rows, f"{peak / n_rows:.1f} B/row"

    @HANDS_OVER_ARGUMENTS
    def test_assembly_peak_bytes_per_row(self, bulk):
        """assemble_tracks, handed the parsed table as the pipeline hands it,
        allocates its 42 B/row of tracks and the sort's temporaries."""
        path, n_rows, cfg, h = bulk
        ingest.assemble_tracks(ingest.parse_track_file(path, cfg.class_map), h)  # lazy set-up
        held = [ingest.parse_track_file(path, cfg.class_map)]
        _, peak = self.traced_peak(lambda: ingest.assemble_tracks(held.pop(), h))
        assert peak <= 62 * n_rows, f"{peak / n_rows:.1f} B/row"

    def test_line_walk_peak_within_the_read_by_name(self, bulk, tmp_path):
        """A '#' line sends the file down the line walk, which holds the
        rows about as the read by name does."""
        path, n_rows, cfg, _ = bulk
        commented = tmp_path / "commented.csv"
        commented.write_text("# tracker export\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        peaks = []
        for csv in (path, commented):
            ingest.parse_track_file(csv, cfg.class_map)  # numpy's lazy set-up is not billed
            table, peak = self.traced_peak(ingest.parse_track_file, csv, cfg.class_map)
            assert len(table) == n_rows
            peaks.append(peak)
        by_name, walked = peaks
        assert walked <= 1.1 * by_name, f"{walked / n_rows:.1f} vs {by_name / n_rows:.1f} B/row"

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

    def run_means(self, tmp_path, means):
        """compare over one-vehicle phases (mean == p85) of the given speeds;
        the exit code and comparison.csv's mean row and stdout lines."""
        paths = self.write_summaries(tmp_path, [[m] for m in means])
        out = tmp_path / "cmp"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = run_compare(paths, out)
        row = (out / "comparison.csv").read_text().splitlines()[1] if code == 0 else None
        return code, row, stdout.getvalue().splitlines()

    @given(st.lists(st.floats(0.05, 200.0), min_size=6, max_size=6))
    @example([25.26, 25.04, 25.01, 25.25, 25.0, 25.3])
    @settings(deadline=None, max_examples=30)
    def test_deltas_are_differences_of_the_printed_values(self, speeds):
        # full-precision phase values: the table must pass its own delta check
        from speedstudy.compare import compare_phases, delta_mismatches

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for phase, mean, p85 in zip(Phase, speeds[:3], speeds[3:]):
                write_json(tmp / f"{phase.value}.json", {
                    "location_id": 1, "phase": phase.value, "sample_count": 0,
                    "hours": 1.0, "mean_mph": mean, "p85_mph": p85,
                })
            paths = [tmp / f"{phase.value}.json" for phase in Phase]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert run_compare(paths, tmp / "cmp") == 0
            rows = (tmp / "cmp" / "comparison.csv").read_text().splitlines()[1:]
        expected_stdout = []
        for row in rows:
            loc, metric, pre, w1, d1, w2, d2 = row.split(",")
            printed = [PhaseSummary(1, phase, 0, 1.0, float(v), float(v)) for phase, v in zip(Phase, (pre, w1, w2))]
            recomputed = compare_phases(*printed)[0]._replace(metric=metric)
            assert delta_mismatches(recomputed, float(d1), float(d2)) == [], row
            assert "-0.0" not in (d1, d2), row
            expected_stdout.append(
                f"loc {loc} {metric}: pre {pre} -> W1 {w1} ({float(d1):+.1f}), W2 {w2} ({float(d2):+.1f})"
            )
        assert stdout.getvalue().splitlines() == expected_stdout

    def test_half_way_value_prints_rounded_away_from_zero(self, tmp_path):
        code, row, stdout = self.run_means(tmp_path, (25.25, 25.0, 25.3))
        assert code == 0
        assert row == "1,mean,25.3,25.0,-0.3,25.3,0.0"
        assert stdout[0] == "loc 1 mean: pre 25.3 -> W1 25.0 (-0.3), W2 25.3 (+0.0)"

    def test_no_negative_zero_delta(self, tmp_path):
        code, row, stdout = self.run_means(tmp_path, (25.04, 25.01, 25.01))
        assert code == 0
        assert row == "1,mean,25.0,25.0,0.0,25.0,0.0"
        assert stdout[0] == "loc 1 mean: pre 25.0 -> W1 25.0 (+0.0), W2 25.0 (+0.0)"

    @pytest.mark.parametrize(
        "pre_mean, message",
        [
            (0.0, "pre.json.mean_mph: 0.0 is not a positive baseline for a percent change"),
            (1e-310, "pre.json.mean_mph: percent change from 1e-310 to 24.0 overflows a float"),
        ],
    )
    def test_baseline_fault_names_file_and_field_and_writes_nothing(
        self, tmp_path, caplog, pre_mean, message
    ):
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        write_json(paths[0], dict(json.loads(paths[0].read_text()), mean_mph=pre_mean))
        with caplog.at_level("ERROR"):
            assert run_compare(paths, tmp_path / "cmp") == 2
        assert message in caplog.text
        assert not (tmp_path / "cmp").exists()

    def test_location_mismatch_names_file_and_field(self, tmp_path, caplog):
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        write_json(paths[2], dict(json.loads(paths[2].read_text()), location_id=9))
        with caplog.at_level("ERROR"):
            assert run_compare(paths, tmp_path / "cmp") == 2
        assert "post_w2.json.location_id: 9, but pre.json has 1" in caplog.text
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_report_files_follow_the_umask(self, tmp_path, scene_path, sim_homography, umask):
        # every command's --out, and each report in it, gets the mode a plain
        # mkdir and a plain open give under the umask
        paths = self.write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
        old = os.umask(umask)
        try:
            dets = run_simulate(tmp_path, sim_homography)
            manifest = TestAnalyze().make_manifest(tmp_path, scene_path, dets)
            assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "report")]) == 0
            assert run_compare(paths, tmp_path / "cmp") == 0
            os.mkdir(tmp_path / "plain")
            with open(tmp_path / "plain" / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        dir_mode = (tmp_path / "plain").stat().st_mode
        file_mode = (tmp_path / "plain" / "plain.txt").stat().st_mode
        assert dir_mode & 0o777 == 0o777 & ~umask
        assert file_mode & 0o777 == 0o666 & ~umask
        for out, count in (("sim_out", 2), ("report", 4), ("cmp", 2)):
            assert (tmp_path / out).stat().st_mode == dir_mode, out
            reports = sorted((tmp_path / out).iterdir())
            assert len(reports) == count, out
            for report in reports:
                assert report.stat().st_mode == file_mode, report


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestReportDirectory:
    """Every command writes all its reports into a new --out, or leaves none."""

    @pytest.fixture()
    def study(self, tmp_path, scene_path, sim_homography):
        """A three-phase manifest over one simulated recording per phase."""
        dets = str(run_simulate(tmp_path, sim_homography).relative_to(tmp_path))
        manifest = tmp_path / "run.json"
        write_json(manifest, {
            "scene_config": scene_path.name,
            "phases": [{"phase": phase.value, "detections": [dets], "hours": 1.0} for phase in Phase],
        })
        return manifest

    def analyze(self, manifest, out) -> int:
        return main(["analyze", "--manifest", str(manifest), "--out", str(out)])

    def argv(self, command, tmp_path, sim_homography):
        """A compare or simulate command line over valid inputs, less --out."""
        if command == "compare":
            paths = TestCompare().write_summaries(tmp_path, ([25.0], [24.0], [23.0]))
            return ["compare", "--pre", str(paths[0]), "--w1", str(paths[1]), "--w2", str(paths[2])]
        write_json(tmp_path / "sim.json", dict(sim_config(), homography_matrix=sim_homography))
        return ["simulate", "--config", str(tmp_path / "sim.json")]

    @staticmethod
    def assert_nothing_left(out):
        assert not out.exists()
        assert [p.name for p in out.parent.iterdir() if p.name.startswith(f".{out.name}.")] == []

    def test_rerun_into_a_used_out_exits_2_and_leaves_it_as_it_was(
        self, tmp_path, study, monkeypatch, caplog, capsys
    ):
        out = tmp_path / "report"
        assert self.analyze(study, out) == 0
        before = snapshot(out)
        capsys.readouterr()
        # a rerun over fewer recordings no longer mixes two runs' files
        doc = json.loads(study.read_text())
        doc["phases"] = doc["phases"][:1]
        write_json(study, doc)

        def no_phase(*args):
            raise AssertionError("a phase ran before --out was checked")
            yield  # a generator, as process_phase is: it runs once advanced

        monkeypatch.setattr(speedstudy.cli, "process_phase", no_phase)
        with caplog.at_level("ERROR"):
            assert self.analyze(study, out) == 2
        assert f"{out}: already exists" in caplog.text
        assert capsys.readouterr().out == ""
        assert snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".report.")] == []

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    def test_used_out_of_compare_and_simulate_exits_2(
        self, tmp_path, sim_homography, caplog, command
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        argv = self.argv(command, tmp_path, sim_homography)
        with caplog.at_level("ERROR"):
            assert main([*argv, "--out", str(out)]) == 2
        assert f"{out}: already exists" in caplog.text
        assert snapshot(out) == {"keep.txt": b"kept"}

    def test_empty_out_directory_is_refused(self, tmp_path, study, caplog):
        # a rename onto an empty directory would replace it
        out = tmp_path / "report"
        out.mkdir()
        with caplog.at_level("ERROR"):
            assert self.analyze(study, out) == 2
        assert f"{out}: already exists" in caplog.text
        assert list(out.iterdir()) == []

    def test_malformed_post_w2_csv_leaves_nothing(self, tmp_path, study, caplog, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,1,0,0,10,10,0.9,1\n2,1,0\n")
        doc = json.loads(study.read_text())
        doc["phases"][2]["detections"] = ["bad.csv"]
        write_json(study, doc)
        out = tmp_path / "report"
        with caplog.at_level("ERROR"):
            assert self.analyze(study, out) == 2
        assert "bad.csv:2" in caplog.text
        # no phase line for reports that were never written
        assert capsys.readouterr().out == ""
        self.assert_nothing_left(out)

    def test_exception_in_a_report_writer_leaves_nothing(self, tmp_path, study, monkeypatch):
        calls = []

        def failing_csv(kinematics):
            calls.append(kinematics)
            if len(calls) == 2:  # the second phase's first report, after all the first one's
                raise RuntimeError("injected")
            return pipeline.kinematics_csv(kinematics)

        monkeypatch.setattr(speedstudy.cli, "kinematics_csv", failing_csv)
        out = tmp_path / "report"
        with pytest.raises(RuntimeError, match="injected"):
            self.analyze(study, out)
        self.assert_nothing_left(out)

    def test_keyboard_interrupt_in_a_phase_is_reraised_and_leaves_nothing(
        self, tmp_path, study, monkeypatch, capsys
    ):
        phases = []

        def interrupted(*args):
            # a generator, as process_phase is, so it is interrupted while the
            # third phase runs, after the first two phases' reports
            phases.append(args)
            if len(phases) == 3:
                raise KeyboardInterrupt
            return (yield from pipeline.process_phase(*args))

        monkeypatch.setattr(speedstudy.cli, "process_phase", interrupted)
        out = tmp_path / "report"
        with pytest.raises(KeyboardInterrupt):
            self.analyze(study, out)
        assert capsys.readouterr().out == ""
        self.assert_nothing_left(out)

    @pytest.mark.parametrize(
        "command, second", [("compare", "percent_change.json"), ("simulate", "ground_truth.csv")]
    )
    def test_failing_second_write_exits_2_naming_out_and_leaves_nothing(
        self, tmp_path, sim_homography, monkeypatch, caplog, capsys, command, second
    ):
        write_text = Path.write_text

        def full_disk(path, text, *args, **kwargs):
            if path.name == second:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return write_text(path, text, *args, **kwargs)

        argv = self.argv(command, tmp_path, sim_homography)
        monkeypatch.setattr(Path, "write_text", full_disk)
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            assert main([*argv, "--out", str(out)]) == 2
        assert f"{out}: cannot write the reports (No space left on device)" in caplog.text
        assert ".out." not in caplog.text and second not in caplog.text
        assert capsys.readouterr().out == ""
        self.assert_nothing_left(out)

    def test_out_in_a_missing_directory_exits_2_naming_it(self, tmp_path, study, caplog):
        out = tmp_path / "missing" / "report"
        with caplog.at_level("ERROR"):
            assert self.analyze(study, out) == 2
        assert f"{out}: cannot write the reports (No such file or directory)" in caplog.text
        assert not out.parent.exists()


class TestJson:
    def test_non_finite_scene_number_exits_2(self, scene_path, caplog):
        scene_path.write_text(scene_path.read_text().replace('"fps": 10.0', '"fps": NaN'))
        with caplog.at_level("ERROR"):
            assert main(["calibrate", "--config", str(scene_path)]) == 2
        assert "NaN is not a finite number" in caplog.text

    @pytest.mark.parametrize(
        "reader, key",
        [("scene", "fps"), ("scene", "1"), ("manifest", "scene_config"), ("manifest", "hours"),
         ("sim", "fps"), ("summary", "mean_mph")],
        ids=["scene", "scene-class_map", "manifest", "manifest-phase", "sim", "summary"],
    )
    def test_key_given_twice_exits_2_naming_it(
        self, tmp_path, scene_path, sim_homography, summary_docs, caplog, reader, key
    ):
        """A repeated key is refused even with the same value: json.loads
        would keep the last of the two silently."""
        if reader == "sim":
            target = tmp_path / "sim.json"
            write_json(target, dict(sim_config(), homography_matrix=sim_homography))
            argv = ["simulate", "--config", str(target), "--seed", "1"]
        elif reader == "summary":
            paths = [tmp_path / f"{phase.value}.json" for phase in Phase]
            for path, doc in zip(paths, summary_docs):
                write_json(path, doc)
            target, (pre, w1, w2) = paths[0], paths
            argv = ["compare", "--pre", str(pre), "--w1", str(w1), "--w2", str(w2)]
        else:
            dets = str(run_simulate(tmp_path, sim_homography).relative_to(tmp_path))
            manifest = tmp_path / "run.json"
            write_json(manifest, {"scene_config": scene_path.name,
                                  "phases": [{"phase": "pre", "detections": [dets], "hours": 1.0}]})
            target = scene_path if reader == "scene" else manifest
            argv = ["analyze", "--manifest", str(manifest)]
        lines = target.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.lstrip().startswith(f'"{key}": '))
        lines.insert(i, lines[i].rstrip(",") + ",")
        target.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            assert main([*argv, "--out", str(out)]) == 2
        assert f"{target}: key {key!r} is given twice in one object" in caplog.text
        assert not out.exists()

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
        code = main(["analyze", "--manifest", str(tmp / "run.json"), "--out", str(tmp / "report")])
        # a run that fails writes no report directory
        assert code == 0 or not (tmp / "report").exists()
        return code


THRESHOLD_FIELDS = Thresholds._fields
# no longer scene keys: the speed warm-up and the maneuver bounds are the method's constants
DELETED_THRESHOLDS = ("stopgo_mph", "slowdown_mph", "min_track_s")
CONFIG_FIELDS = (
    *(("scene", (key,)) for key in (
        "location_id", "name", "fps", "calibration", "aoi_polygon", "approach_zone",
        "travel_direction", "class_map", "thresholds", "intersection_type",
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
            ("scene", ("class_map",), {"1": "car", "01": "bicycle"},
             "scene.json.class_map: keys '01' and '1' both name class id 1"),
            *(
                ("scene", ("thresholds", key), "nan", f"thresholds.{key}: 'nan' is not a finite")
                for key in THRESHOLD_FIELDS
            ),
            # the deleted keys, in their old slots so that later case ids keep their index
            *(
                ("scene", ("thresholds", key), "nan", f"scene.json.thresholds: unknown keys ['{key}']")
                for key in DELETED_THRESHOLDS
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

    @pytest.mark.parametrize(
        "target, path, value, message",
        [
            ("scene", ("percentile_methd",), "nearest_rank",
             "scene.json: unknown keys ['percentile_methd']"),
            # the three analysis choices are fixed: setting one, even to its
            # old default, names it
            ("scene", ("percentile_method",), "interpolate",
             "scene.json: unknown keys ['percentile_method']"),
            ("scene", ("v_mean_reduction",), "mean", "scene.json: unknown keys ['v_mean_reduction']"),
            ("scene", ("histogram_bin_mph",), 1.0, "scene.json: unknown keys ['histogram_bin_mph']"),
            *(
                ("scene", ("thresholds", key), value, f"scene.json.thresholds: unknown keys ['{key}']")
                for key, value in zip(DELETED_THRESHOLDS, (5.0, 10.0, 0.5))
            ),
            ("scene", ("Thresholds",), {"stationary_m": 99},
             "scene.json: unknown keys ['Thresholds']"),
            ("scene", ("calibration", "weights"), [1, 2],
             "scene.json.calibration: unknown keys ['weights']"),
            ("scene", ("calibration", "correspondences", 1, "weight"), 5,
             "scene.json.calibration.correspondences[1]: unknown keys ['weight']"),
            ("manifest", ("scene",), "scene.json", "run.json: unknown keys ['scene']"),
            ("manifest", ("phases", 0, "hour"), 2.5, "run.json.phases[0]: unknown keys ['hour']"),
        ],
        ids=["scene", "percentile_method", "v_mean_reduction", "histogram_bin_mph",
             *(f"thresholds.{key}" for key in DELETED_THRESHOLDS),
             "scene-thresholds-capitalised", "calibration", "correspondence", "manifest",
             "manifest-phase"],
    )
    def test_unknown_key_exits_2_naming_it(self, analyze_inputs, caplog, target, path, value, message):
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


@pytest.fixture(scope="module")
def small_csv_inputs(tmp_path_factory, demo_h):
    """A scene config and the first 40 rows of a simulated detection CSV:
    its first 3 s, two cars that the cascade keeps."""
    base = tmp_path_factory.mktemp("small_csv")
    dets = run_simulate(base, [list(row) for row in demo_h.matrix.tolist()], noise=1.0)
    rows = dets.read_bytes().splitlines(keepends=True)[:40]
    return base, scene_config_dict(demo_h), b"".join(rows)


class TestDetectionBytes:
    @staticmethod
    def analyze(inputs, csv: bytes) -> tuple[int, bool, str]:
        """analyze's exit code on csv as a one-phase manifest's recording,
        whether its --out exists, and what it printed to stderr."""
        base, scene, _ = inputs
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory(dir=base) as tmp, contextlib.redirect_stderr(stderr):
            tmp = Path(tmp)
            write_json(tmp / "scene.json", scene)
            write_json(tmp / "run.json", {"scene_config": "scene.json", "phases": [
                {"phase": "pre", "detections": ["dets.csv"], "hours": 1.0}]})
            (tmp / "dets.csv").write_bytes(csv)
            code = main(["analyze", "--manifest", str(tmp / "run.json"), "--out", str(tmp / "report")])
            return code, (tmp / "report").exists(), stderr.getvalue()

    def test_unmutated_csv_keeps_its_cars(self, small_csv_inputs, tmp_path):
        _, scene, csv = small_csv_inputs
        (tmp_path / "dets.csv").write_bytes(csv)
        cfg = scene_config_from_dict(scene)
        rec = pipeline.process_recording(tmp_path / "dets.csv", cfg, solve_homography(cfg.correspondences))
        assert rec.kinematics.track_ids.tolist() == [1, 2]
        assert self.analyze(small_csv_inputs, csv)[:2] == (0, True)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_byte_mutations_exit_0_or_2(self, small_csv_inputs, data):
        """Bytes flipped, inserted or deleted, or the file cut short: analyze
        reports the recording or rejects it, with no traceback and no report
        directory left behind."""
        csv = bytearray(small_csv_inputs[2])
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(("flip", "insert", "delete", "truncate")))
            at = data.draw(st.integers(0, len(csv)))
            if kind == "flip" and at < len(csv):
                csv[at] ^= 1 << data.draw(st.integers(0, 7))
            elif kind == "insert":
                csv[at:at] = data.draw(st.binary(min_size=1, max_size=8))
            elif kind == "delete":
                del csv[at:at + data.draw(st.integers(1, 16))]
            elif kind == "truncate":
                del csv[at:]
        code, written, stderr = self.analyze(small_csv_inputs, bytes(csv))
        assert code in (0, 2)
        assert "Traceback" not in stderr
        assert written == (code == 0)


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
        # the simulator writes the benchmark's inputs with `repr` floats, so a
        # change to the report formats cannot change them too; a deliberate
        # change to the simulator's output updates these digests
        digests = {name: hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest()
                   for name in ("detections.csv", "ground_truth.csv")}
        assert digests == {
            "detections.csv": "1f09ba43902b11542b64db0466c685d098ff22527d93857f7a6158ad837f436d",
            "ground_truth.csv": "eeb69362c13dbb0e9675ab514a7a461358cf42e1973a90b92ee0baea5a4c2cf5",
        }


class TestPackage:
    def test_every_submodule_imports(self):
        names = [m.name for m in pkgutil.iter_modules(speedstudy.__path__)]
        assert "cli" in names and "_kernels" in names
        for name in names:
            importlib.import_module(f"speedstudy.{name}")
        assert "numba" not in sys.modules

    # module-level imports that their module never reads, and why each stays
    UNUSED_IMPORTS = {
        ("kinematics", "project_points"): "perfbench/tracing.py times projections by wrapping it",
    }

    def test_every_module_level_import_is_used(self):
        """Each name a submodule imports at module level is read in it; the
        package's __init__ imports names to re-export them and is left out."""
        unused = set()
        for module in pkgutil.iter_modules(speedstudy.__path__):
            tree = ast.parse(Path(speedstudy.__file__).with_name(f"{module.name}.py").read_text())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unused |= {(module.name, name) for name in bound if name not in read}
        assert unused == set(self.UNUSED_IMPORTS)

    def test_cli_import_leaves_the_simulator_unloaded(self):
        # in a fresh process per module, since the tests themselves load the
        # simulator and the comparison; config and ingest read and parse for
        # analyze, so they must not load either (nor decimal, which only the
        # comparison uses)
        env = dict(os.environ, PYTHONPATH=str(Path(speedstudy.__file__).parents[1]))
        for module in ("cli", "config", "ingest", "pipeline"):
            code = (
                f"import sys, speedstudy.{module}\n"
                "for lazy in ('speedstudy.simulator', 'speedstudy.compare', 'decimal'):\n"
                "    assert lazy not in sys.modules, lazy\n"
                "from speedstudy import Detection, render_scene, serialize_detections\n"
                "import speedstudy\n"
                "assert render_scene is speedstudy.simulator.render_scene\n"
                "assert Detection is speedstudy.simulator.Detection\n"
                "assert serialize_detections is speedstudy.simulator.serialize_detections\n"
                "assert 'speedstudy.compare' not in sys.modules\n"
            )
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=60)
            assert out.returncode == 0, (module, out.stderr)

    def test_comparison_names_come_from_compare(self):
        from speedstudy import ComparisonRow, compare_phases, delta_mismatches, percent_change
        from speedstudy import compare

        assert (ComparisonRow, compare_phases, delta_mismatches, percent_change) == (
            compare.ComparisonRow, compare.compare_phases, compare.delta_mismatches,
            compare.percent_change,
        )

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


class TestTracedBoundaries:
    def test_analyze_enters_every_traced_boundary(self, tmp_path, scene_path, sim_homography):
        """The benchmark's tracer (perfbench/tracing.py) finds every layer
        boundary and an analyze run enters each, so a refactor that calls
        around a traced name fails here, on every Python."""
        phases = [
            {"phase": phase.value, "hours": 1.0, "detections": [str(
                run_simulate(tmp_path, sim_homography, name=f"sim{k}", noise=1.0, seed=k)
                .relative_to(tmp_path))]}
            for k, phase in enumerate(Phase)
        ]
        write_json(tmp_path / "run.json", {"scene_config": scene_path.name, "phases": phases})
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(perfbench)!r})\n"
            "import speedstudy\n"
            "from speedstudy import cli\n"
            "from tracing import BOUNDARIES, Tracer\n"
            "tracer = Tracer('test')\n"
            "missing = tracer.install(speedstudy)\n"
            "code = cli.main(['analyze', '--manifest', 'run.json', '--out', 'report'])\n"
            "entered = {span[0] for span in tracer.spans}\n"
            "print(json.dumps({'code': code, 'missing': missing,\n"
            "                  'not_entered': sorted({b[2] for b in BOUNDARIES} - entered)}))\n"
        )
        # no bytecode is written beside the tracer, so the checkout stays clean
        env = dict(os.environ, PYTHONPATH=str(Path(speedstudy.__file__).parents[1]),
                   PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=tmp_path, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == {"code": 0, "missing": [], "not_entered": []}


# array and table fields compare by identity, so the records share these
RECORD_AOI = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
RECORD_DIRECTION = np.array([1.0, 0.0])
RECORD_KINS = KinematicsTable(*(np.zeros(n) for n in (0, 1, 0, (0, 2), 0, 0, 0)))
RECORD_FATES = np.zeros(3, dtype=np.int8)
RECORD_H = geometry.Homography(np.eye(3))
RECORD_VEHICLE = simulator.SyntheticVehicle(
    1, 0.0, geometry.WorldPoint(0.0, 0.0), (1.0, 0.0), simulator.Constant(20.0), (40.0, 60.0)
)


def plain_records():
    """One of each record type the package defines as a NamedTuple, built
    afresh from equal values."""
    corr = geometry.Correspondence(geometry.WorldPoint(0.0, 1.0), geometry.ImagePoint(2.0, 3.0))
    phase = config.PhaseInput(Phase.PRE, (Path("pre.csv"),), 2.5)
    truth = simulator.VehicleTruth(1, RECORD_FATES, RECORD_AOI, RECORD_DIRECTION,
                                   ManeuverClass.PASS_THROUGH)
    return [
        config.Thresholds(following_px=30.0),
        config.SceneConfig(1, "site", 10.0, (corr,), RECORD_AOI, RECORD_AOI, RECORD_DIRECTION,
                           {1: ingest.ClassLabel.CAR}),
        phase,
        config.RunManifest(Path("scene.json"), (phase,)),
        corr,
        pipeline.RecordingResult("pre.csv", 3, RECORD_KINS, None, RECORD_FATES),
        PhaseSummary(1, Phase.PRE, 1, 2.5, 20.0, 20.0, ((20.0, 1),), {"pass_through": 100.0}),
        simulator.SimConfig(RECORD_H, 10.0, 18.0, 0.0, RECORD_AOI, simulator.DEFAULT_CLASS_MAP,
                            (RECORD_VEHICLE,)),
        simulator.GroundTruth((truth,)),
        truth,
    ]


class TestRecords:
    @pytest.mark.parametrize(
        "index", range(len(plain_records())), ids=lambda i: type(plain_records()[i]).__name__
    )
    def test_immutable_compared_by_value_and_not_a_dataclass(self, index):
        record, twin = plain_records()[index], plain_records()[index]
        assert record == twin and record is not twin
        assert record != record._replace(**{record._fields[0]: None})
        assert not dataclasses.is_dataclass(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    # dataclasses that check nothing on construction, and why each stays one
    UNCHECKED_DATACLASSES = {
        "DetectionTable": "its __len__ is the row count, where a tuple's would be its field count",
        "Detection": "perfbench's clutter rows edit it with dataclasses.replace",
    }

    def test_a_dataclass_checks_its_fields_or_states_why_it_is_one(self):
        """A record that checks nothing on construction is a NamedTuple."""
        found = []
        for module in pkgutil.iter_modules(speedstudy.__path__):
            loaded = importlib.import_module(f"speedstudy.{module.name}")
            found += [cls for cls in vars(loaded).values()
                      if isinstance(cls, type) and cls.__module__ == loaded.__name__
                      and dataclasses.is_dataclass(cls)]
        assert {cls.__name__ for cls in found} >= {"SyntheticVehicle", "TrackTable"}
        unchecked = {cls.__name__ for cls in found if not hasattr(cls, "__post_init__")}
        assert unchecked == set(self.UNCHECKED_DATACLASSES)


class TestDefaults:
    def test_thresholds_match_published_constants(self):
        t = Thresholds()
        assert t.following_px == 40.0
        assert t.stationary_m == 2.0
        assert t.following_frac == 0.5
        assert t.direction_deg == 45.0

    def test_travel_direction_is_normalised(self, tmp_path, demo_h):
        path = tmp_path / "scene.json"
        write_json(path, scene_config_dict(demo_h, travel_direction=[3, -4]))
        assert load_scene_config(path).travel_direction.tolist() == [0.6, -0.8]

    def test_travel_direction_near_the_float_limit_is_normalised(self, tmp_path, demo_h):
        # its length overflows a float, so it is scaled down before the norm
        path = tmp_path / "scene.json"
        write_json(path, scene_config_dict(demo_h, travel_direction=[-1.3e308, -1.3e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direction = load_scene_config(path).travel_direction
        assert direction.tolist() == pytest.approx([-(0.5**0.5), -(0.5**0.5)])

    def test_scene_defaults(self, scene_path):
        cfg = load_scene_config(scene_path)
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
