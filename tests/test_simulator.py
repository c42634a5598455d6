import numpy as np
import pytest

from helpers import MPS_TO_MPH, brute_speed_series, tracks_of
from speedstudy import (
    Constant,
    ManeuverClass,
    PiecewiseLinear,
    SyntheticVehicle,
    TrapezoidStop,
    WorldPoint,
    render_scene,
    serialize_detections,
    to_world_track,
)
from speedstudy.errors import AtInfinity, ConfigError
from speedstudy.ingest import ClassLabel, anchor_points
from speedstudy.simulator import (
    DEFAULT_CLASS_MAP,
    ground_truth_csv,
    profile_from_dict,
    profile_motion,
)

ZONE = np.array([[20.0, -6.0], [35.0, -6.0], [35.0, 6.0], [20.0, 6.0]])


def vehicle(vid=1, profile=None, start=(0.0, 0.0), entry=0.0, max_dist=90.0, label=ClassLabel.CAR):
    return SyntheticVehicle(
        vehicle_id=vid,
        entry_time_s=entry,
        start=WorldPoint(*start),
        direction=(1.0, 0.0),
        profile=profile or Constant(22.369362920544),
        bbox_px=(40.0, 60.0),
        class_label=label,
        max_distance_m=max_dist,
    )


class TestProfiles:
    def test_constant_closed_form(self):
        frames = np.arange(21)  # every frame of 2 s at 10 fps
        dist, speed_ms = profile_motion(Constant(10.0 * MPS_TO_MPH), frames / 10.0)
        assert len(dist) == len(speed_ms) == 21
        for k, d, speed in zip(frames, dist, speed_ms * MPS_TO_MPH):
            assert d == pytest.approx(k * 1.0, abs=1e-12)
            assert speed == pytest.approx(10.0 * MPS_TO_MPH, abs=1e-12)

    def test_trapezoid_dwell_zero_speed(self):
        profile = TrapezoidStop(v_free_mph=10.0 * MPS_TO_MPH, decel_ms2=5.0, dwell_s=1.0, accel_ms2=5.0)
        frames = np.arange(61)  # every frame of 6 s at 10 fps
        _, speed_ms = profile_motion(profile, frames / 10.0)
        zero_frames = frames[speed_ms * MPS_TO_MPH == 0.0].tolist()
        # braking takes 2 s; dwell covers t in [2, 3] -> 11 sampled frames
        assert len(zero_frames) >= 10
        assert zero_frames == list(range(min(zero_frames), max(zero_frames) + 1))

    def test_piecewise_ramp_half_a_t_squared(self):
        profile = PiecewiseLinear(knots=((0.0, 0.0), (2.0, 10.0 * MPS_TO_MPH)))
        dist, speed = profile_motion(profile, [2.0])
        # 0 -> 10 m/s over 2 s is a = 5 m/s^2; d = a t^2 / 2 = 10 m
        assert dist[0] == pytest.approx(10.0, abs=1e-12)
        assert speed[0] == pytest.approx(10.0, abs=1e-12)

    def test_piecewise_holds_flat_outside_knots(self):
        profile = PiecewiseLinear(knots=((1.0, 10.0 * MPS_TO_MPH), (2.0, 10.0 * MPS_TO_MPH)))
        dist, speed = profile_motion(profile, [0.0, 0.5, 3.0])
        assert speed == pytest.approx([10.0, 10.0, 10.0])
        assert dist == pytest.approx([0.0, 5.0, 30.0])

    def test_distance_non_decreasing(self, rng):
        knots = tuple(
            (float(t), float(v)) for t, v in zip(np.sort(rng.uniform(0, 10, 6)), rng.uniform(0, 30, 6))
        )
        profile = PiecewiseLinear(knots=knots)
        dist, _ = profile_motion(profile, np.linspace(0, 12, 500))
        assert np.all(np.diff(dist) >= -1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Constant(-1.0)
        with pytest.raises(ValueError):
            TrapezoidStop(20.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PiecewiseLinear(knots=((0.0, 5.0), (0.0, 6.0)))

    def test_profile_from_dict_error_paths(self):
        with pytest.raises(ConfigError, match=r"vehicles\[3\]\.profile\.kind"):
            profile_from_dict({"kind": "warp"}, "vehicles[3].profile")
        with pytest.raises(ConfigError, match=r"vehicles\[0\]\.profile\.v_mph"):
            profile_from_dict({"kind": "constant"}, "vehicles[0].profile")
        with pytest.raises(ConfigError, match="decel and accel"):
            profile_from_dict(
                {"kind": "trapezoid_stop", "v_free_mph": 20, "decel_ms2": -1,
                 "dwell_s": 1, "accel_ms2": 1},
                "vehicles[0].profile",
            )


class TestRender:
    def test_noiseless_round_trip_recovers_world_path(self, demo_h):
        dets, truth = render_scene([vehicle()], demo_h, fps=10.0, duration=8.0)
        tracks = tracks_of(dets, demo_h)
        assert len(tracks) == 1
        wt = to_world_track(tracks)
        gt = truth.vehicles[0]
        assert np.array_equal(wt.frames, gt.frames)
        assert np.allclose(wt.world, gt.positions, atol=1e-6)

    def test_noiseless_speeds_recovered_everywhere(self, demo_h):
        profile = TrapezoidStop(16.0, 3.0, 1.5, 2.5)
        dets, truth = render_scene([vehicle(profile=profile, start=(10.0, 0.0))],
                                   demo_h, fps=10.0, duration=20.0)
        tracks = tracks_of(dets, demo_h)
        assert len(tracks) == 1
        wt = to_world_track(tracks)
        gt = truth.vehicles[0]
        # windowed speeds computed from true positions vs recovered positions
        want = brute_speed_series(gt.frames, gt.positions, 10.0)
        got = brute_speed_series(wt.frames, wt.world, 10.0)
        for (gf, gs, _), (wf, ws, _) in zip(got, want):
            assert gf == wf
            assert gs == pytest.approx(ws, rel=1e-6, abs=1e-9)

    def test_bbox_bottom_center_equals_noisy_anchor(self, demo_h, rng):
        dets, _ = render_scene([vehicle()], demo_h, fps=10.0, duration=3.0,
                               noise_sigma_px=2.0, seed=7)
        clean, _ = render_scene([vehicle()], demo_h, fps=10.0, duration=3.0)
        a = anchor_points(np.array([d.bbox for d in dets]))
        b = anchor_points(np.array([c.bbox for c in clean]))
        moved = int((a != b).any(axis=1).sum())
        assert moved > len(dets) * 0.9  # noise actually landed on the anchors

    def test_seed_determinism_byte_identical(self, demo_h):
        out = []
        for _ in range(2):
            dets, truth = render_scene(
                [vehicle(vid=i, entry=0.3 * i, start=(0, -3.0 + i)) for i in range(4)],
                demo_h, fps=10.0, duration=10.0, noise_sigma_px=1.0, seed=42,
            )
            out.append(
                (serialize_detections(dets, DEFAULT_CLASS_MAP), ground_truth_csv(truth))
            )
        assert out[0] == out[1]

    def test_different_seed_changes_noise(self, demo_h):
        a, _ = render_scene([vehicle()], demo_h, 10.0, 5.0, noise_sigma_px=1.0, seed=1)
        b, _ = render_scene([vehicle()], demo_h, 10.0, 5.0, noise_sigma_px=1.0, seed=2)
        assert serialize_detections(a, DEFAULT_CLASS_MAP) != serialize_detections(b, DEFAULT_CLASS_MAP)

    def test_at_infinity_raised_past_horizon(self, demo_h):
        # the demo camera's horizon sits at negative world x
        v = SyntheticVehicle(
            vehicle_id=1,
            entry_time_s=0.0,
            start=WorldPoint(-10.0, 0.0),
            direction=(-1.0, 0.0),
            profile=Constant(25.0),
            bbox_px=(40.0, 60.0),
        )
        with pytest.raises(AtInfinity):
            render_scene([v], demo_h, fps=10.0, duration=10.0)

    def test_rows_sorted_by_frame_then_id(self, demo_h):
        dets, _ = render_scene(
            [vehicle(vid=i, start=(0.0, -4.0 + 2 * i)) for i in range(1, 5)],
            demo_h, fps=10.0, duration=5.0,
        )
        keys = [(d.frame, d.track_id) for d in dets]
        assert keys == sorted(keys)


class TestGroundTruthManeuvers:
    def test_trapezoid_stop_labeled_stop_and_go(self, demo_h):
        profile = TrapezoidStop(16.0, 3.0, 1.5, 2.5)  # stops ~8.5 m past start
        _, truth = render_scene(
            [vehicle(profile=profile, start=(14.0, 0.0))],
            demo_h, 10.0, 20.0, approach_zone=ZONE,
        )
        assert truth.vehicles[0].maneuver is ManeuverClass.STOP_AND_GO

    def test_constant_fast_labeled_pass_through(self, demo_h):
        _, truth = render_scene(
            [vehicle(profile=Constant(18.0))], demo_h, 10.0, 12.0, approach_zone=ZONE
        )
        assert truth.vehicles[0].maneuver is ManeuverClass.PASS_THROUGH

    def test_slow_down_trough_in_zone(self, demo_h):
        profile = PiecewiseLinear(
            knots=((0.0, 16.0), (2.0, 16.0), (4.0, 7.0), (5.5, 7.0), (7.5, 16.0))
        )
        _, truth = render_scene(
            [vehicle(profile=profile, start=(0.0, 0.0))],
            demo_h, 10.0, 16.0, approach_zone=ZONE,
        )
        assert truth.vehicles[0].maneuver is ManeuverClass.SLOW_DOWN
