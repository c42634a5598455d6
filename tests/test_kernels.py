import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import speedstudy
from helpers import (
    assert_same_bits,
    brute_speed_series,
    close_pairs_of_oracle,
    point_in_polygon_oracle,
    points_in_polygon_reference,
)
from speedstudy import _kernels

CONCAVE = np.array([[0, 0], [10, 0], [10, 10], [5, 5], [0, 10]], dtype=float)


class TestPointsInPolygon:
    def test_square_interior_exterior(self):
        square = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        pts = np.array([[5, 5], [10.5, 5], [-0.1, 0], [9.999, 9.999]])
        got = _kernels.points_in_polygon(pts, square)
        assert got.tolist() == [True, False, False, True]

    def test_boundary_counts_as_inside(self):
        square = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        pts = np.array([[0, 5], [10, 10], [5, 0], [5, 10 + 5e-10]])
        assert _kernels.points_in_polygon(pts, square).all()

    def test_concave_polygon(self):
        pts = np.array([[5, 7], [5, 4], [2, 6], [8, 6]])
        got = _kernels.points_in_polygon(pts, CONCAVE)
        assert got.tolist() == [False, True, True, True]

    def test_matches_scalar_oracle(self, rng):
        pts = rng.uniform(-2, 12, size=(500, 2))
        got = _kernels.points_in_polygon(pts, CONCAVE)
        want = [point_in_polygon_oracle(x, y, CONCAVE) for x, y in pts]
        assert got.tolist() == want


    @given(
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=7),
        st.lists(st.tuples(st.floats(-60, 60), st.floats(-60, 60)), max_size=20),
        st.lists(st.floats(0.0, 1.0), max_size=10),
        st.sampled_from([0.0, 1e-9, -1e-9, 2e-9]),
        st.sampled_from([1.0, 3e9]),
    )
    @example([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 0.0)], [(5.0, 0.0)], [0.5], 1e-9, 1.0)
    def test_matches_whole_array_expressions(self, polygon, points, ts, offset, scale):
        # the points, every vertex, and points on (or offset from) each edge;
        # scaled up, an ulp of a coordinate exceeds the boundary tolerance, so
        # the crossing test itself decides the points near an edge
        poly = np.array(polygon) * scale
        edge_points = [
            poly[i] + t * (poly[i - 1] - poly[i]) + offset for i in range(len(poly)) for t in ts
        ]
        points = np.array(points).reshape(-1, 2) * scale
        pts = np.array([*points, *poly, *edge_points], dtype=np.float64).reshape(-1, 2)
        # a nearly level edge's crossing can overflow to infinity, in both
        with np.errstate(over="ignore", invalid="ignore"):
            got = _kernels.points_in_polygon(pts, poly)
            want = points_in_polygon_reference(pts, poly)
            column_major = _kernels.points_in_polygon(np.asfortranarray(pts), poly)
        assert_same_bits(got, want)
        assert_same_bits(column_major, got)


class TestWindowSpeeds:
    def test_matches_brute_force_random_walk(self, rng):
        for fps in (10.0, 12.5, 25.0):
            frames = np.sort(rng.choice(np.arange(200), size=60, replace=False)).astype(np.int64)
            xs = np.cumsum(rng.normal(0, 1, 60))
            ys = np.cumsum(rng.normal(0, 1, 60))
            wmax = max(int(np.floor(fps + 0.5)), 2)
            warm = max(int(np.ceil(fps / 2)), 2)
            speeds, wlens = _kernels.window_speeds(frames, xs, ys, wmax, warm, fps)
            emitted = speeds >= 0
            got = [
                (int(f), s * 2.2369362920544, int(w))
                for f, s, w in zip(frames[emitted], speeds[emitted], wlens[emitted])
            ]
            want = brute_speed_series(frames, np.column_stack([xs, ys]), fps)
            assert len(got) == len(want)
            for (gf, gs, gw), (wf, ws, ww) in zip(got, want):
                assert gf == wf and gw == ww
                assert gs == pytest.approx(ws, rel=1e-12)

    def test_window_never_exceeds_wmax(self, rng):
        frames = np.arange(100, dtype=np.int64)
        xs = rng.normal(0, 1, 100)
        ys = rng.normal(0, 1, 100)
        _, wlens = _kernels.window_speeds(frames, xs, ys, 10, 5, 10.0)
        assert wlens.max() == 10
        assert set(wlens[:4]) == {0}  # no sample before 5 frames of history

    def test_window_lengths_beyond_int64(self, rng):
        frames = np.arange(30, dtype=np.int64)
        xs = rng.normal(0, 1, 30)
        ys = rng.normal(0, 1, 30)
        # a window as long as the track reaches its first sample from every position
        got = _kernels.window_speeds(frames, xs, ys, 2**63, 5, 10.0)
        want = _kernels.window_speeds(frames, xs, ys, 30, 5, 10.0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        speeds, wlens = _kernels.window_speeds(frames, xs, ys, 10, 10**300, 10.0)
        assert (speeds == -1.0).all() and (wlens == 0).all()
        speeds, _ = _kernels.window_speeds(frames, xs, ys, 10, 30, 10.0)
        assert (speeds[:-1] == -1.0).all() and speeds[-1] >= 0.0

    # a segment: (first frame, rows of (frame step, x, y)); steps above 1 are gaps
    COORD = st.floats(-500.0, 500.0)
    SEGMENT = st.tuples(
        st.integers(0, 50), st.lists(st.tuples(st.integers(1, 4), COORD, COORD), max_size=25)
    )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(SEGMENT, max_size=6),
        st.one_of(st.integers(0, 30), st.just(2**63)),
        st.one_of(st.integers(0, 30), st.just(10**300)),
        st.sampled_from([10.0, 12.5, 25.0, 7.0, 29.97]),
    )
    @example([], 10, 5, 10.0)
    @example([(0, [])] * 2 + [(3, [(1, 0.0, 0.0)] * k) for k in (1, 2, 3, 12)], 10, 5, 10.0)
    @example([(5, [(2, 1.0, 0.0)] * 3), (0, [(1, 0.0, 1.0)] * 20)], 10, 4, 10.0)
    def test_segments_match_one_call_per_segment(self, segments, wmax, first_hist, fps):
        columns = [
            (start + np.cumsum([r[0] for r in rows], dtype=np.int64),
             np.array([r[1] for r in rows], dtype=np.float64),
             np.array([r[2] for r in rows], dtype=np.float64))
            for start, rows in segments
        ]
        sizes = np.array([len(c[0]) for c in columns], dtype=np.int64)
        seg_start = np.repeat(np.cumsum(sizes) - sizes, sizes)
        frames, xs, ys = (
            np.concatenate([c[k] for c in columns] + [np.zeros(0, dtype=dtype)])
            for k, dtype in enumerate((np.int64, np.float64, np.float64))
        )
        speeds, wlens = _kernels.window_speeds(frames, xs, ys, wmax, first_hist, fps, seg_start)
        per_segment = [_kernels.window_speeds(*c, wmax, first_hist, fps) for c in columns]
        want_speeds = np.concatenate([s for s, _ in per_segment] + [np.zeros(0)])
        want_wlens = np.concatenate([w for _, w in per_segment] + [np.zeros(0, dtype=np.int64)])
        assert_same_bits(speeds, want_speeds)
        assert_same_bits(wlens, want_wlens)


def _columns(rows):
    """(frames, track_idx, us, vs, dus, dvs) from (frame, track, u, v, du, dv) rows."""
    frames = np.array([r[0] for r in rows], dtype=np.int64)
    track_idx = np.array([r[1] for r in rows], dtype=np.int64)
    floats = np.array([r[2:] for r in rows], dtype=np.float64).reshape(-1, 4)
    return (frames, track_idx, *floats.T)


# unit and zero headings, and others of any length, as the follower scan gets them
HEADINGS = (
    (1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.6, 0.8), (-0.6, -0.8),
    (3.0, 0.0), (-0.15, 0.2), (0.0, 1e-3),
)


@st.composite
def close_pair_cases(draw):
    """Rows of a few tracks with frame gaps, at coordinates that include
    multiples of max_px (cell edges, pair distances of exactly max_px) and
    negative values, in shuffled order; frames dense, sparse, or spread
    over most of the int64 range. Frames hold 1 to 7 rows, so recordings
    fall on both sides of the scan's density rule (0 to 3 same-frame pairs
    per row)."""
    max_px = draw(st.sampled_from([1.0, 2.5, 40.0, 0.1]))
    n_tracks = draw(st.integers(1, 7))
    n_frames = draw(st.integers(1, 10))
    frame_step = draw(st.sampled_from([1, 3, 1000, 2**59]))
    first_frame = draw(st.sampled_from([0, -5, 10**12]))
    coord = st.one_of(
        st.integers(-4, 4).map(lambda k: k * max_px),
        st.integers(-8, 8).map(lambda k: k * max_px / 2),
        st.floats(-3 * max_px, 3 * max_px),
    )
    rows = []
    for t in range(n_tracks):
        for f in sorted(draw(st.sets(st.integers(0, n_frames - 1)))):
            heading = draw(st.sampled_from(HEADINGS))
            rows.append((first_frame + f * frame_step, t, draw(coord), draw(coord), *heading))
    return draw(st.permutations(rows)), max_px, n_tracks


def _assert_matches_oracle(rows, max_px, n_tracks):
    cols = _columns(rows)
    got = _kernels.close_pair_counts(*cols, max_px, n_tracks)
    want = close_pairs_of_oracle(*cols, max_px, n_tracks)
    for name, g, w in zip(("follower", "leader", "close", "coexist"), got, want):
        assert g.dtype == np.int64, name
        assert g.tolist() == w.tolist(), name


class TestClosePairCounts:
    def _toy(self):
        # two tracks side by side for 10 frames: track 1 trails 30 px behind
        frames = np.repeat(np.arange(10), 2).astype(np.int64)
        track_idx = np.tile([0, 1], 10).astype(np.int64)
        us = np.where(track_idx == 0, 100.0, 70.0) + np.repeat(np.arange(10), 2) * 5.0
        vs = np.full(20, 50.0)
        dus = np.ones(20)
        dvs = np.zeros(20)
        return frames, track_idx, us, vs, dus, dvs

    def test_trailing_pair(self):
        frames, track_idx, us, vs, dus, dvs = self._toy()
        follower, leader, close, coexist = _kernels.close_pair_counts(
            frames, track_idx, us, vs, dus, dvs, 40.0, 2
        )
        # leader (track 0) is ahead of track 1 within 40 px in all 10 shared
        # frames; nothing is ahead of the leader, so (0, 1) is absent
        assert list(zip(follower.tolist(), leader.tolist())) == [(1, 0)]
        assert close.tolist() == [10]
        assert coexist.tolist() == [10]

    @settings(max_examples=300, deadline=None)
    @given(close_pair_cases())
    @example(([], 40.0, 1))
    @example(([(0, 0, 5.0, 5.0, 1.0, 0.0)], 40.0, 1))
    # one frame; distance exactly max_px (not close) next to just under it
    @example((
        [(0, 0, 0.0, 0.0, 1.0, 0.0), (0, 1, 40.0, 0.0, 1.0, 0.0), (0, 2, -39.5, 0.0, 1.0, 0.0)],
        40.0, 3,
    ))
    # points on cell edges, negative coordinates, a zero heading, frame gaps
    @example((
        [
            (0, 0, -40.0, -40.0, 0.0, 0.0), (0, 1, -40.0, -80.0, 0.0, -1.0),
            (2, 0, 0.0, 0.0, 1.0, 0.0), (2, 1, 20.0, 20.0, -0.6, -0.8),
            (3, 1, 40.0, 40.0, -0.6, -0.8), (5, 0, 40.0, 0.0, 1.0, 0.0),
            (5, 1, 79.0, 0.0, 1.0, 0.0), (5, 2, 80.0, 39.0, -0.6, -0.8),
        ],
        40.0, 3,
    ))
    # frames of five rows: two same-frame pairs per row, exactly at the rule
    @example((
        [(f, t, 10.0 * t, 5.0 * f, *HEADINGS[(t + f) % 5]) for f in range(2) for t in range(5)],
        40.0, 5,
    ))
    def test_matches_dense_oracle(self, case):
        _assert_matches_oracle(*case)

    @staticmethod
    def _frames_of(rng, sizes):
        """Rows in frames of the given sizes: track t in frame f is row t of
        the frame, in a 60 px square with a random heading."""
        rows = []
        for f, size in enumerate(sizes):
            us, vs = rng.uniform(0, 60, size=(2, size))
            ang = rng.uniform(0, 2 * np.pi, size)
            rows += zip([f] * size, range(size), us, vs, np.cos(ang), np.sin(ang))
        return rows, max(sizes)

    @pytest.mark.parametrize("sizes,scan", [
        ((3, 4) * 20, "_same_frame_scan"),  # study_free_flow-like: 1.29 pairs per row
        ((2 * _kernels._SAME_FRAME_PAIRS_PER_ROW + 1,) * 20, "_same_frame_scan"),  # at the rule
        ((2 * _kernels._SAME_FRAME_PAIRS_PER_ROW + 2,) * 20, "_grid_scan"),  # just past it
        ((82,) * 6, "_grid_scan"),  # queue_dense-like: 40.5 pairs per row
    ])
    def test_scan_mode_follows_the_density_rule(self, rng, monkeypatch, sizes, scan):
        chosen = []
        for name in ("_same_frame_scan", "_grid_scan"):
            real = getattr(_kernels, name)
            monkeypatch.setattr(
                _kernels, name, lambda *args, name=name, real=real: chosen.append(name) or real(*args)
            )
        rows, n_tracks = self._frames_of(rng, sizes)
        _assert_matches_oracle(rows, 40.0, n_tracks)
        assert chosen == [scan]

    def test_crowded_cell_matches_dense_oracle(self, rng):
        # 300 tracks inside one cell: more candidate pairs than one block
        # expands, and more hits than rows
        n_tracks, n_frames = 300, 3
        frames = np.repeat(np.arange(n_frames), n_tracks).astype(np.int64)
        track_idx = np.tile(np.arange(n_tracks), n_frames).astype(np.int64)
        us, vs = rng.uniform(0, 30, size=(2, len(frames)))
        ang = rng.uniform(0, 2 * np.pi, len(frames))
        rows = list(zip(frames, track_idx, us, vs, np.cos(ang), np.sin(ang)))
        _assert_matches_oracle(rows, 40.0, n_tracks)

    def test_tiny_radius_at_large_coordinates(self):
        # following_px = 1e-6 over a 2e6 px extent: 2e12 cells per axis of
        # that size would overflow an int64 (frame, row, column) key
        rows = []
        for f in range(3):
            shift = f * 1e-5
            rows += [
                (f, 0, 1e6 + shift, 1e6, 1.0, 0.0),
                (f, 1, 1e6 + shift + 5e-7, 1e6, 1.0, 0.0),
                (f, 2, 1e6 + shift + 2e-6, 1e6, 1.0, 0.0),
                (f, 3, -1e6, -1e6 + shift, 0.0, 1.0),
                (f, 4, -1e6, -1e6 + shift + 9e-7, 0.0, 1.0),
            ]
        follower, leader, close, coexist = _kernels.close_pair_counts(*_columns(rows), 1e-6, 5)
        assert list(zip(follower.tolist(), leader.tolist())) == [(0, 1), (3, 4)]
        assert close.tolist() == coexist.tolist() == [3, 3]
        _assert_matches_oracle(rows, 1e-6, 5)

    def test_20k_tracks_in_small_memory(self):
        # dense n_tracks x n_tracks counts would take 2 x 3.2 GB here
        rng = np.random.default_rng(20_000)
        n_tracks, n_frames = 20_000, 3
        frames = np.repeat(np.arange(n_frames), n_tracks).astype(np.int64)
        track_idx = np.tile(np.arange(n_tracks), n_frames).astype(np.int64)
        us, vs = rng.uniform(0, 20_000, size=(2, len(frames)))
        ang = rng.uniform(0, 2 * np.pi, len(frames))
        dus, dvs = np.cos(ang), np.sin(ang)
        tracemalloc.start()
        try:
            follower, leader, close, coexist = _kernels.close_pair_counts(
                frames, track_idx, us, vs, dus, dvs, 40.0, n_tracks
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(follower) > 0
        assert (follower != leader).all()
        assert ((1 <= close) & (close <= coexist) & (coexist == n_frames)).all()


    def test_crowded_frame_in_small_memory(self, rng):
        # 2000 tracks in one cell: 2M candidate pairs, expanded a block at a
        # time; zero headings, so no pair is close
        n = 2000
        frames = np.zeros(n, dtype=np.int64)
        us, vs = rng.uniform(0, 30, size=(2, n))
        zeros = np.zeros(n)
        tracemalloc.start()
        try:
            result = _kernels.close_pair_counts(frames, np.arange(n), us, vs, zeros, zeros, 40.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert all(len(column) == 0 for column in result)

    def test_long_sparse_recording_in_small_memory(self, rng):
        # 100k rows in frames of four: 150k same-frame pairs, expanded a block
        # at a time (all at once they take about 15 MiB here); zero
        # headings, so no pair is close. Beside eight row-length int64
        # arrays, the scan holds under 64 bytes for each of the 2**15
        # candidates of a block.
        n_frames, per_frame = 25_000, 4
        n = n_frames * per_frame
        frames = np.repeat(np.arange(n_frames), per_frame).astype(np.int64)
        track_idx = np.arange(n) % 200  # each track in every 50th frame
        order = np.lexsort((frames, track_idx))  # track by track, as assembly orders rows
        frames, track_idx = frames[order], track_idx[order]
        us, vs = rng.uniform(0, 30, size=(2, n))
        zeros = np.zeros(n)
        tracemalloc.start()
        try:
            result = _kernels.close_pair_counts(frames, track_idx, us, vs, zeros, zeros, 40.0, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * n + 64 * 2**15
        assert all(len(column) == 0 for column in result)


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert speedstudy.backend_name() == "numpy"
