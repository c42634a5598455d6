import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import (
    IDENTITY,
    MPS_TO_MPH,
    assert_same_bits,
    brute_speed_series,
    make_correspondences,
    straight_track_detections,
    track_kinematics_oracle,
    track_table,
    tracks_of,
    with_anchors,
    world_table,
    world_track_oracle,
)
from speedstudy import (
    Homography,
    TrackTable,
    _kernels,
    approach_speeds,
    example_roadside_homography,
    solve_homography,
    to_world_track,
    track_kinematics,
)
from speedstudy.geometry import project_points
from speedstudy.kinematics import window_params



def world_track(frames, points) -> TrackTable:
    """A one-track table on the road plane (track id 1)."""
    return world_table([(frames, points)])


def constant_track(n, fps, speed_ms, dt_axis=(1.0, 0.0)):
    frames = np.arange(n)
    step = speed_ms / fps
    pts = np.outer(frames * step, np.asarray(dt_axis))
    return world_track(frames, pts)


class TestToWorldTrack:
    def test_identity_equals_anchors(self):
        t = tracks_of(straight_track_detections(1, 10, (5, 5), (2, 1)), IDENTITY)
        wt = to_world_track(t)
        assert wt.track_ids.tolist() == [1] and wt.offsets.tolist() == [0, 10]
        assert np.allclose(wt.world, t.anchors, atol=1e-9)
        assert np.array_equal(wt.frames, t.frames)

    def test_single_detection(self):
        t = tracks_of(straight_track_detections(1, 1, (5, 5), (0, 0)), IDENTITY)
        wt = to_world_track(t)
        assert len(wt.frames) == 1

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
        t = tracks_of(dets)
        anchors = t.anchors.copy()
        anchors[4] = (u, v)
        t = with_anchors(t, anchors, h)
        with caplog.at_level("WARNING"):
            wt = to_world_track(t)
        assert wt.track_ids.tolist() == [1]
        assert len(wt.frames) == 29 and wt.offsets.tolist() == [0, 29]

    def test_track_dropped_when_too_many_points_lost(self, caplog):
        h = Homography([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        inv = h.inverse().matrix
        r31, r32, r33 = inv[2]
        dets = straight_track_detections(1, 5, (50, 50), (3, 0))
        t = tracks_of(dets)
        anchors = t.anchors.copy()
        for i in range(2):
            if abs(r32) > 1e-12:
                u = 5.0 + i
                anchors[i] = (u, (-r33 - r31 * u) / r32)
            else:
                anchors[i] = (-r33 / r31, 5.0 + i)
        t = with_anchors(t, anchors, h)
        with caplog.at_level("WARNING"):
            wt = to_world_track(t)
        assert len(wt.track_ids) == 0 and len(wt.frames) == 0


class TestSpeedSeries:
    def test_stationary_all_zero(self):
        wt = world_track(np.arange(30), np.tile([7.0, 3.0], (30, 1)))
        k = track_kinematics(wt, fps=10.0)
        assert len(k.frames) == 26
        assert all(s == 0.0 for s in k.speeds_mph)

    def test_constant_10ms_matches_closed_form(self):
        wt = constant_track(30, 10.0, 10.0)
        k = track_kinematics(wt, fps=10.0)
        assert len(k.frames) == 26  # emission starts at 5 frames of history
        for speed, window in zip(k.speeds_mph, k.window_frames):
            assert speed == pytest.approx(10.0 * MPS_TO_MPH, abs=1e-6)
            assert 2 <= window <= 10

    def test_short_track_empty(self):
        wt = constant_track(4, 10.0, 10.0)
        k = track_kinematics(wt, fps=10.0)
        assert len(k.track_ids) == 0 and len(k.frames) == 0

    def test_first_sample_at_warmup(self):
        wt = constant_track(5, 10.0, 10.0)
        k = track_kinematics(wt, fps=10.0)
        assert len(k.frames) == 1
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

        dets = straight_track_detections(1, 40, (520.0, 320.0), (3.0, 1.0))
        sa = track_kinematics(to_world_track(tracks_of(dets, h_a)), 10.0)
        sb = track_kinematics(to_world_track(tracks_of(dets, h_b)), 10.0)
        assert len(sa.frames) == len(sb.frames)
        for x, y in zip(sa.speeds_mph, sb.speeds_mph):
            assert x == pytest.approx(y, abs=1e-6)

    def test_speed_invariant_under_canonical_rescale_exact(self, rng):
        m = np.array([[20.0, 2.0, 500.0], [1.0, 15.0, 300.0], [1e-3, 2e-4, 1.0]])
        dets = straight_track_detections(1, 40, (520.0, 320.0), (3.0, 1.0))
        for lam in (2.0, -8.0, 0.25):
            a = track_kinematics(to_world_track(tracks_of(dets, Homography(m))), 10.0)
            b = track_kinematics(to_world_track(tracks_of(dets, Homography(lam * m))), 10.0)
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
                wt.frames.max() - wt.frames[::-1], wt.world[::-1].copy()
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
        assert k.representative_mph.tolist() == pytest.approx([10.0 * MPS_TO_MPH], abs=1e-6)

    def test_mean_of_two_sample_speeds(self):
        # construct directly: representative is the arithmetic mean
        wt = constant_track(30, 10.0, 10.0)
        k = track_kinematics(wt, 10.0)
        assert k.representative_mph.tolist() == pytest.approx(
            [np.mean(k.speeds_mph)], abs=0
        )

    def test_points_are_the_world_positions_at_sample_frames(self, rng):
        frames = np.sort(rng.choice(np.arange(100), size=40, replace=False))
        pts = np.cumsum(rng.normal(0, 0.4, (40, 2)), axis=0)
        wt = world_track(frames, pts)
        k = track_kinematics(wt, 10.0)
        row = np.searchsorted(frames, k.frames)
        assert np.array_equal(frames[row], k.frames)
        assert np.array_equal(k.points, wt.world[row])
        assert k.frames.dtype == np.int64 and k.window_frames.dtype == np.int64
        assert k.track_ids.dtype == np.int64 and k.offsets.dtype == np.int64
        for column in (k.frames, k.speeds_mph, k.window_frames, k.points,
                       k.track_ids, k.offsets, k.representative_mph):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_too_short_returns_none(self):
        wt = constant_track(3, 10.0, 10.0)
        k = track_kinematics(wt, 10.0)
        assert len(k.track_ids) == 0 and len(k.representative_mph) == 0

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
        assert k.representative_mph.tolist() == pytest.approx([oracle], abs=1e-6)


    # np.add.reduce sums in blocks of 8 and halves runs of more than 128, so
    # these sample counts sit on each side of its block edges
    @given(
        st.lists(st.sampled_from([1, 7, 8, 9, 128, 129, 1000]), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None)
    def test_means_are_np_mean_of_each_tracks_samples(self, sample_counts, seed):
        rng = np.random.default_rng(seed)
        fps = 10.0
        warm_up = window_params(fps)[1] - 1  # rows before a track's first sample
        paths = [
            (np.arange(n + warm_up), np.cumsum(rng.normal(0, 0.8, (n + warm_up, 2)), axis=0))
            for n in sample_counts
        ]
        k = track_kinematics(world_table(paths), fps)
        assert np.diff(k.offsets).tolist() == sample_counts
        want = [np.mean(k.speeds_mph[a:b]) for a, b in zip(k.offsets[:-1], k.offsets[1:])]
        assert_same_bits(k.representative_mph, np.array(want, dtype=np.float64))


DEMO_H = example_roadside_homography()
ZONE = np.array([[20.0, -6.0], [35.0, -6.0], [35.0, 6.0], [20.0, 6.0]])
# (detections, unprojectable among them, seed): a wandering path inside the
# demo camera's view, with that many anchors moved onto its horizon
TRACK_SPEC = st.tuples(st.integers(1, 40), st.integers(0, 5), st.integers(0, 2**32 - 1))


def recording_tracks(specs) -> list[tuple]:
    """Per-track (frames, anchors, None) columns, ids 1, 2, ..."""
    r31, r32, r33 = DEMO_H.inverse().matrix[2]
    tracks = []
    for n, n_bad, seed in specs:
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(0, 100)) + np.cumsum(rng.integers(1, 4, n))
        start = rng.uniform([500, 400], [1400, 900])
        anchors = start + np.cumsum(rng.normal(0, 6, (n, 2)), axis=0)
        bad = rng.choice(n, size=min(n_bad, n), replace=False)
        us = rng.uniform(500, 1400, len(bad))
        anchors[bad] = np.column_stack([us, (-r33 - r31 * us) / r32])  # den = 0
        tracks.append((frames, anchors, None))
    return tracks


def _cat(arrays, empty):
    return np.concatenate([*arrays, empty])


class TestRecordingTables:
    """One projection and one window pass per recording against the
    per-track path they replaced, bit for bit."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(TRACK_SPEC, max_size=7), st.sampled_from([10.0, 12.5, 25.0, 7.0]))
    @example([], 10.0)
    # unprojectable at exactly 10% (kept) and one more (dropped)
    @example([(10, 1, 1), (10, 2, 2), (20, 2, 3), (20, 3, 4), (30, 3, 5), (30, 4, 6)], 10.0)
    @example([(1, 0, 7), (3, 0, 8), (4, 0, 9), (5, 1, 10), (40, 0, 11)], 10.0)
    def test_matches_per_track_oracle(self, caplog, specs, fps):
        columns = recording_tracks(specs)
        inv = DEMO_H.inverse().matrix
        n_bad = [int((~project_points(inv, a)[1]).sum()) for _, a, _ in columns]
        assert n_bad == [min(bad, n) for n, bad, _ in specs]

        warnings = []
        paths = [world_track_oracle(tid, f, a, DEMO_H, warnings)
                 for tid, (f, a, _) in enumerate(columns, start=1)]
        caplog.clear()
        with caplog.at_level("WARNING", logger="speedstudy.kinematics"):
            on_plane = to_world_track(track_table(columns, h=DEMO_H))
        logged = [r.getMessage() for r in caplog.records if r.name == "speedstudy.kinematics"]
        assert logged == warnings
        kept = [(tid, p) for tid, p in enumerate(paths, start=1) if p is not None]
        assert on_plane.track_ids.tolist() == [tid for tid, _ in kept]
        assert on_plane.offsets.tolist() == np.cumsum([0] + [len(f) for _, (f, _) in kept]).tolist()
        assert_same_bits(on_plane.frames, _cat([f for _, (f, _) in kept], np.zeros(0, np.int64)))
        assert_same_bits(on_plane.world, _cat([p for _, (_, p) in kept], np.zeros((0, 2))))

        kin = track_kinematics(on_plane, fps)
        sampled = [(tid, track_kinematics_oracle(f, p, fps)) for tid, (f, p) in kept]
        sampled = [(tid, s) for tid, s in sampled if s is not None]
        assert kin.track_ids.tolist() == [tid for tid, _ in sampled]
        assert kin.offsets.tolist() == np.cumsum([0] + [len(s[0]) for _, s in sampled]).tolist()
        empties = (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64), np.zeros((0, 2)))
        for i, (column, empty) in enumerate(zip(
            (kin.frames, kin.speeds_mph, kin.window_frames, kin.points), empties
        )):
            assert_same_bits(column, _cat([s[i] for _, s in sampled], empty))
        assert_same_bits(kin.representative_mph, np.array([s[4] for _, s in sampled]))

        zone_speeds = [s[1][_kernels.points_in_polygon(s[3], ZONE)] for _, s in sampled]
        want = [z.min() if len(z) else np.nan for z in zone_speeds]
        assert_same_bits(approach_speeds(kin, ZONE), np.array(want, dtype=float))

    def test_drop_rule_at_ten_percent(self, caplog):
        # 1 of 10 and 2 of 20 unprojectable stay; 2 of 10 and 3 of 20 go
        tracks = track_table(
            recording_tracks([(10, 1, 1), (10, 2, 2), (20, 2, 3), (20, 3, 4)]), h=DEMO_H
        )
        with caplog.at_level("WARNING", logger="speedstudy.kinematics"):
            on_plane = to_world_track(tracks)
        assert on_plane.track_ids.tolist() == [1, 3]
        assert on_plane.offsets.tolist() == [0, 9, 27]
        assert [r.getMessage() for r in caplog.records] == [
            "track 1: dropped 1 unprojectable points",
            "track 2: dropped 2 unprojectable points",
            "track 2 dropped entirely",
            "track 3: dropped 2 unprojectable points",
            "track 4: dropped 3 unprojectable points",
            "track 4 dropped entirely",
        ]
