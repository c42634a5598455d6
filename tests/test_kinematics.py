import dataclasses

import numpy as np
import pytest

from helpers import (
    MPS_TO_MPH,
    brute_speed_series,
    make_correspondences,
    straight_track_detections,
    tracks_of,
)
from speedstudy import (
    Homography,
    WorldTrack,
    solve_homography,
    to_world_track,
    track_kinematics,
)
from speedstudy.kinematics import window_params

IDENTITY = Homography(np.eye(3))


def world_track(frames, points, track_id=1) -> WorldTrack:
    return WorldTrack(
        track_id,
        np.asarray(frames, dtype=np.int64),
        np.asarray(points, dtype=np.float64),
    )


def constant_track(n, fps, speed_ms, dt_axis=(1.0, 0.0)):
    frames = np.arange(n)
    step = speed_ms / fps
    pts = np.outer(frames * step, np.asarray(dt_axis))
    return world_track(frames, pts)


class TestToWorldTrack:
    def test_identity_equals_anchors(self):
        t = tracks_of(straight_track_detections(1, 10, (5, 5), (2, 1)))[0]
        wt = to_world_track(t, IDENTITY)
        assert np.allclose(wt.points, t.anchors, atol=1e-9)
        assert np.array_equal(wt.frames, t.frames)

    def test_single_detection(self):
        t = tracks_of(straight_track_detections(1, 1, (5, 5), (0, 0)))[0]
        wt = to_world_track(t, IDENTITY)
        assert len(wt) == 1

    def test_unprojectable_points_dropped(self, caplog):
        h = Homography([[1, 0, 0], [0, 1, 0], [1, 0, 1]])  # image u = -1 is at infinity
        # h maps world->image; inverse has its own singular line: u + v... build
        # a track with one anchor exactly on the inverse's vanishing line
        inv = h.inverse().matrix
        # find an anchor with zero denominator under inv: den = r31 u + r32 v + r33
        r31, r32, r33 = inv[2]
        if abs(r32) > 1e-12:
            u = 5.0
            v = (-r33 - r31 * u) / r32
        else:
            u, v = -r33 / r31, 5.0
        dets = straight_track_detections(1, 30, (50, 50), (3, 0))
        t = tracks_of(dets)[0]
        anchors = t.anchors.copy()
        anchors[4] = (u, v)
        t = dataclasses.replace(t, anchors=anchors)
        with caplog.at_level("WARNING"):
            wt = to_world_track(t, h)
        assert wt is not None
        assert len(wt) == 29

    def test_track_dropped_when_too_many_points_lost(self, caplog):
        h = Homography([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        inv = h.inverse().matrix
        r31, r32, r33 = inv[2]
        dets = straight_track_detections(1, 5, (50, 50), (3, 0))
        t = tracks_of(dets)[0]
        anchors = t.anchors.copy()
        for i in range(2):
            if abs(r32) > 1e-12:
                u = 5.0 + i
                anchors[i] = (u, (-r33 - r31 * u) / r32)
            else:
                anchors[i] = (-r33 / r31, 5.0 + i)
        t = dataclasses.replace(t, anchors=anchors)
        with caplog.at_level("WARNING"):
            assert to_world_track(t, h) is None


class TestSpeedSeries:
    def test_stationary_all_zero(self):
        wt = world_track(np.arange(30), np.tile([7.0, 3.0], (30, 1)))
        k = track_kinematics(wt, fps=10.0)
        assert len(k) == 26
        assert all(s == 0.0 for s in k.speeds_mph)

    def test_constant_10ms_matches_closed_form(self):
        wt = constant_track(30, 10.0, 10.0)
        k = track_kinematics(wt, fps=10.0)
        assert len(k) == 26  # emission starts at 5 frames of history
        for speed, window in zip(k.speeds_mph, k.window_frames):
            assert speed == pytest.approx(10.0 * MPS_TO_MPH, abs=1e-6)
            assert 2 <= window <= 10

    def test_short_track_empty(self):
        wt = constant_track(4, 10.0, 10.0)
        assert track_kinematics(wt, fps=10.0) is None

    def test_first_sample_at_warmup(self):
        wt = constant_track(5, 10.0, 10.0)
        k = track_kinematics(wt, fps=10.0)
        assert len(k) == 1
        assert k.frames[0] == 4
        assert k.window_frames[0] == 5

    def test_window_parameters_non_integer_fps(self):
        assert window_params(12.5) == (13, 7)
        assert window_params(10.0) == (10, 5)
        assert window_params(25.0) == (25, 13)

    def test_matches_brute_force_on_random_walks(self, rng):
        for fps in (10.0, 12.5, 25.0):
            n = 50
            frames = np.sort(rng.choice(np.arange(150), size=n, replace=False))
            pts = np.cumsum(rng.normal(0, 0.4, (n, 2)), axis=0)
            wt = world_track(frames, pts)
            k = track_kinematics(wt, fps)
            got = list(zip(k.frames.tolist(), k.speeds_mph.tolist(), k.window_frames.tolist()))
            want = brute_speed_series(frames, pts, fps)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[0] == w[0] and g[2] == w[2]
                assert g[1] == pytest.approx(w[1], rel=1e-12)

    def test_frame_gaps_widen_dt(self):
        # 10 m/s but every other frame missing: same speed, longer dt
        frames = np.arange(0, 60, 2)
        pts = np.column_stack([frames * 1.0, np.zeros(30)])
        wt = world_track(frames, pts)
        for speed in track_kinematics(wt, fps=10.0).speeds_mph:
            assert speed == pytest.approx(10.0 * MPS_TO_MPH, rel=1e-12)


class TestInvariants:
    def test_speed_invariant_under_world_rotation_translation(self, rng):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([40.0, -20.0])
        base = np.array(
            [[0.0, -5.0], [0.0, 5.0], [60.0, -5.0], [60.0, 5.0], [30.0, 0.0]]
        )
        m = np.array([[20.0, 2.0, 500.0], [1.0, 15.0, 300.0], [1e-3, 2e-4, 1.0]])
        corrs_a = make_correspondences(m, base)
        h_a = solve_homography(corrs_a)
        # same camera, world frame rotated+translated
        corrs_b = [
            type(c)(
                type(c.world)(*(rot @ np.array([c.world.x, c.world.y]) + shift)),
                c.image,
            )
            for c in corrs_a
        ]
        h_b = solve_homography(corrs_b)

        t = tracks_of(
            straight_track_detections(1, 40, (520.0, 320.0), (3.0, 1.0))
        )[0]
        sa = track_kinematics(to_world_track(t, h_a), 10.0)
        sb = track_kinematics(to_world_track(t, h_b), 10.0)
        assert len(sa) == len(sb)
        for x, y in zip(sa.speeds_mph, sb.speeds_mph):
            assert x == pytest.approx(y, abs=1e-6)

    def test_speed_invariant_under_canonical_rescale_exact(self, rng):
        m = np.array([[20.0, 2.0, 500.0], [1.0, 15.0, 300.0], [1e-3, 2e-4, 1.0]])
        t = tracks_of(straight_track_detections(1, 40, (520.0, 320.0), (3.0, 1.0)))[0]
        for lam in (2.0, -8.0, 0.25):
            a = track_kinematics(to_world_track(t, Homography(m)), 10.0)
            b = track_kinematics(to_world_track(t, Homography(lam * m)), 10.0)
            assert list(zip(a.frames.tolist(), a.speeds_mph.tolist())) == list(
                zip(b.frames.tolist(), b.speeds_mph.tolist())
            )

    def test_time_reversal_full_windows_symmetric(self, rng):
        # full-width windows mirror exactly under time reversal; warm-up
        # windows are anchored to the track start and are checked separately
        n, fps = 40, 10.0
        frames = np.arange(n)
        pts = np.cumsum(rng.normal(0, 0.4, (n, 2)), axis=0)
        fwd = track_kinematics(world_track(frames, pts), fps)
        rev = track_kinematics(
            world_track(frames.max() - frames[::-1], pts[::-1].copy()), fps
        )
        wmax, _ = window_params(fps)
        full_fwd = sorted(round(s, 9) for s in fwd.speeds_mph[fwd.window_frames == wmax].tolist())
        full_rev = sorted(round(s, 9) for s in rev.speeds_mph[rev.window_frames == wmax].tolist())
        assert full_fwd == full_rev

    def test_time_reversal_constant_track_exact(self):
        wt = constant_track(30, 10.0, 7.0)
        fwd = track_kinematics(wt, 10.0)
        rev = track_kinematics(
            world_track(
                wt.frames.max() - wt.frames[::-1], wt.points[::-1].copy()
            ),
            10.0,
        )
        fwd_m = sorted(fwd.speeds_mph.tolist())
        rev_m = sorted(rev.speeds_mph.tolist())
        assert fwd_m == pytest.approx(rev_m, abs=1e-9)

    def test_no_sample_before_warmup_window_capped(self, rng):
        for fps in (10.0, 17.3, 24.0):
            wmax, first = window_params(fps)
            wt = world_track(np.arange(60), np.cumsum(rng.normal(0, 1, (60, 2)), axis=0))
            k = track_kinematics(wt, fps)
            assert k.frames[0] == first - 1  # 0-based frame of first emission
            assert max(k.window_frames) <= wmax


class TestTrackKinematics:
    def test_constant_series_representative(self):
        wt = constant_track(30, 10.0, 10.0)
        k = track_kinematics(wt, 10.0)
        assert k.representative_mph == pytest.approx(10.0 * MPS_TO_MPH, abs=1e-6)

    def test_mean_of_two_sample_speeds(self):
        # construct directly: representative is the arithmetic mean
        wt = constant_track(30, 10.0, 10.0)
        k = track_kinematics(wt, 10.0)
        assert k.representative_mph == pytest.approx(
            np.mean(k.speeds_mph), abs=0
        )

    def test_points_are_the_world_positions_at_sample_frames(self, rng):
        frames = np.sort(rng.choice(np.arange(100), size=40, replace=False))
        pts = np.cumsum(rng.normal(0, 0.4, (40, 2)), axis=0)
        k = track_kinematics(world_track(frames, pts), 10.0)
        row = np.searchsorted(frames, k.frames)
        assert np.array_equal(frames[row], k.frames)
        assert np.array_equal(k.points, pts[row])
        assert k.frames.dtype == np.int64 and k.window_frames.dtype == np.int64
        for column in (k.frames, k.speeds_mph, k.window_frames, k.points):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_too_short_returns_none(self):
        wt = constant_track(3, 10.0, 10.0)
        assert track_kinematics(wt, 10.0) is None

    def test_decelerating_track_matches_oracle_mean(self, rng):
        # linearly decelerating vehicle; oracle = brute-force series mean
        fps = 10.0
        n = 50
        frames = np.arange(n)
        v0, a = 15.0, -0.25
        t = frames / fps
        dist = v0 * t + 0.5 * a * t * t
        pts = np.column_stack([dist, np.zeros(n)])
        wt = world_track(frames, pts)
        k = track_kinematics(wt, fps)
        oracle = np.mean([s for _, s, _ in brute_speed_series(frames, pts, fps)])
        assert k.representative_mph == pytest.approx(oracle, abs=1e-6)
