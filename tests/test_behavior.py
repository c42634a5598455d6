import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    approach_speed_oracle,
    brute_speed_series,
    classify_maneuver_oracle,
    point_in_polygon_oracle,
    scene_config_dict,
    table_of,
    world_table,
)
from speedstudy import (
    MANEUVERS,
    ClassLabel,
    Constant,
    ManeuverClass,
    Phase,
    PiecewiseLinear,
    SyntheticVehicle,
    TrapezoidStop,
    WorldPoint,
    _kernels,
    approach_speeds,
    build_phase_summary,
    classify_maneuvers,
    geometry,
    ingest,
    kinematics,
    pipeline,
    render_scene,
)
from speedstudy.config import scene_config_from_dict
from speedstudy.kinematics import KinematicsTable, track_kinematics

ZONE = np.array([[20.0, -5.0], [35.0, -5.0], [35.0, 5.0], [20.0, 5.0]])


def world_track(frames, points):
    return world_table([(frames, points)])


def classify(v_mph) -> ManeuverClass:
    """The class classify_maneuvers gives one speed."""
    (code,) = classify_maneuvers([v_mph])
    return MANEUVERS[code]


class TestClassify:
    def test_stop_and_go(self):
        assert classify(3.0) is ManeuverClass.STOP_AND_GO

    def test_slow_down(self):
        assert classify(7.0) is ManeuverClass.SLOW_DOWN

    def test_pass_through(self):
        assert classify(10.0) is ManeuverClass.PASS_THROUGH

    def test_boundaries(self):
        assert classify(5.0) is ManeuverClass.SLOW_DOWN
        assert classify(4.999999) is ManeuverClass.STOP_AND_GO
        assert classify(9.999999) is ManeuverClass.SLOW_DOWN
        assert classify(0.0) is ManeuverClass.STOP_AND_GO

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="-0.1"):
            classify_maneuvers([3.0, -0.1, 12.0])

    @given(st.floats(0, 200), st.floats(0, 200))
    def test_monotone_step_function(self, a, b):
        order = [ManeuverClass.STOP_AND_GO, ManeuverClass.SLOW_DOWN, ManeuverClass.PASS_THROUGH]
        lo, hi = min(a, b), max(a, b)
        assert order.index(classify(hi)) >= order.index(classify(lo))

    @given(st.lists(st.floats(0, 60), max_size=20))
    @example([])
    def test_matches_scalar_rule(self, speeds):
        # each bound, 5 and 10 mph, and one float either side of it
        edges = [float(e) for t in (5.0, 10.0) for e in (np.nextafter(t, 0), t, np.nextafter(t, 60))]
        v = np.array(edges + speeds, dtype=np.float64)
        got = classify_maneuvers(v)
        assert got.dtype == np.int8 and got.shape == v.shape
        want = [classify_maneuver_oracle(x) for x in v.tolist()]
        assert [MANEUVERS[c] for c in got.tolist()] == want


class TestApproachSpeed:
    def steady_track(self, speed_ms, fps=10.0, n=60, x0=0.0):
        frames = np.arange(n)
        xs = x0 + frames * speed_ms / fps
        return world_track(frames, np.column_stack([xs, np.zeros(n)]))

    def test_constant_speed_inside_zone(self):
        wt = self.steady_track(11.18)  # ~25 mph
        kin = track_kinematics(wt, 10.0)
        (got,) = approach_speeds(kin, ZONE)
        assert got == pytest.approx(25.0, abs=0.05)

    def test_dip_inside_zone_uses_min(self):
        # fast outside the zone, crawling inside it
        fps = 10.0
        frames = np.arange(120)
        speed = np.full(120, 11.0)
        xs = np.zeros(120)
        for i in range(1, 120):
            xs[i] = xs[i - 1] + speed[i - 1] / fps
            if 20.0 <= xs[i] <= 35.0:
                speed[i] = 1.3  # ~3 mph
            else:
                speed[i] = 11.0
        pts = np.column_stack([xs, np.zeros(120)])
        wt = world_track(frames, pts)
        kin = track_kinematics(wt, fps)
        (got,) = approach_speeds(kin, ZONE)
        # oracle: brute-force series filtered by an independent in-zone test
        brute = brute_speed_series(frames, pts, fps)
        in_zone = [
            s for (f, s, _) in brute
            if point_in_polygon_oracle(pts[f][0], pts[f][1], ZONE)
        ]
        assert got == pytest.approx(min(in_zone), abs=1e-9)
        assert got < 5.0

    def test_never_enters_zone(self):
        wt = self.steady_track(11.18, x0=100.0)
        kin = track_kinematics(wt, 10.0)
        assert np.isnan(approach_speeds(kin, ZONE)).tolist() == [True]

    # grid points, some on the zone's edges, so the kernel and the scalar
    # oracle decide every point exactly alike
    POINT = st.one_of(
        st.tuples(st.integers(10, 45), st.integers(-10, 10)),
        st.sampled_from([(20, 0), (35, -5), (27, 5), (35, 5), (20, -5)]),
    )
    SAMPLE = st.tuples(POINT, st.floats(0.0, 200.0))

    @staticmethod
    def kinematics_of(sample_lists):
        """A KinematicsTable with one track per (nonempty) list of samples."""
        sizes = [len(samples) for samples in sample_lists]
        n = sum(sizes)
        offsets = np.cumsum([0] + sizes, dtype=np.int64)
        speeds = np.array([s for samples in sample_lists for _, s in samples], dtype=np.float64)
        return KinematicsTable(
            track_ids=np.arange(1, len(sizes) + 1, dtype=np.int64),
            offsets=offsets,
            frames=np.arange(n, dtype=np.int64),
            points=np.array(
                [p for samples in sample_lists for p, _ in samples], dtype=np.float64
            ).reshape(-1, 2),
            speeds_mph=speeds,
            window_frames=np.full(n, 2, dtype=np.int64),
            representative_mph=np.array([speeds[a:b].mean() for a, b in zip(offsets, offsets[1:])]),
        )

    @given(st.lists(st.lists(SAMPLE, min_size=1, max_size=40), max_size=8))
    @example([])
    @example([[((27, 0), 3.0)], [((50, 0), 4.0)], [((20, 0), 5.0)]])
    @example([[((27, 0), 0.1)] * 9 + [((50, 0), 1.0)] + [((27, 1), 0.7)] * 10])
    def test_matches_per_track_oracle(self, sample_lists):
        kins = self.kinematics_of(sample_lists)
        got = approach_speeds(kins, ZONE)
        want = [approach_speed_oracle(samples, ZONE) for samples in sample_lists]
        # NaN exactly where the oracle has no in-zone sample, bit for bit elsewhere
        assert np.isnan(got).tolist() == [w is None for w in want]
        assert got[~np.isnan(got)].tolist() == [w for w in want if w is not None]


def classes(n_pt, n_sd, n_sg):
    """A classes column of n_pt pass-through, n_sd slow-down and n_sg
    stop-and-go codes."""
    codes = [
        MANEUVERS.index(cls)
        for cls in (ManeuverClass.PASS_THROUGH, ManeuverClass.SLOW_DOWN, ManeuverClass.STOP_AND_GO)
    ]
    return np.repeat(np.array(codes, dtype=np.int8), [n_pt, n_sd, n_sg])


def shares_of(codes):
    """The maneuver shares of a phase summary over one classes column."""
    speeds = np.full(len(codes), 20.0)
    return build_phase_summary(1, Phase.PRE, speeds, 1.0, maneuvers=codes).maneuver_shares


class TestDistribution:
    def test_nine_pass_one_slow(self):
        shares = shares_of(classes(9, 1, 0))
        assert shares["pass_through"] == pytest.approx(90.0)
        assert shares["slow_down"] == pytest.approx(10.0)
        assert shares["stop_and_go"] == 0.0

    def test_all_stop_and_go(self):
        shares = shares_of(classes(0, 0, 7))
        assert shares["stop_and_go"] == pytest.approx(100.0)
        assert shares["pass_through"] == shares["slow_down"] == 0.0

    def test_empty_input(self):
        assert shares_of(classes(0, 0, 0)) is None
        assert build_phase_summary(1, Phase.PRE, [20.0], 1.0).maneuver_shares is None

    def test_counting_oracle_and_permutation_invariance(self, rng):
        fleet = classes(13, 5, 7)
        shares = shares_of(fleet)
        assert shares["pass_through"] == 100.0 * 13 / 25
        assert shares["slow_down"] == 100.0 * 5 / 25
        assert shares["stop_and_go"] == 100.0 * 7 / 25
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
        shuffled = fleet.copy()
        rng.shuffle(shuffled)
        assert shares_of(shuffled) == shares

    @given(st.lists(st.integers(0, len(MANEUVERS) - 1), min_size=1, max_size=300))
    def test_shares_equal_a_per_vehicle_count(self, codes):
        shares = shares_of(np.array(codes, dtype=np.int8))
        counts = dict.fromkeys(MANEUVERS, 0)
        for code in codes:
            counts[MANEUVERS[code]] += 1
        assert shares == {cls.value: 100.0 * n / len(codes) for cls, n in counts.items()}


class TestObserveManeuvers:
    PROFILES = (
        Constant(22.0),
        PiecewiseLinear(knots=((0.0, 16.0), (2.0, 16.0), (4.0, 7.0), (5.5, 7.0), (7.5, 16.0))),
        TrapezoidStop(16.0, 3.0, 1.5, 2.5),
        Constant(12.0),
    )

    def recording(self, demo_h):
        vehicles = [
            SyntheticVehicle(i + 1, 3.0 * i, WorldPoint(0.0, -4.8 + 2.4 * i), (1.0, 0.0),
                             profile, (40.0, 60.0), ClassLabel.CAR, 95.0)
            for i, profile in enumerate(self.PROFILES)
        ]
        dets, _ = render_scene(vehicles, demo_h, 10.0, 30.0, noise_sigma_px=0.5, seed=3,
                               approach_zone=ZONE)
        return table_of(dets)

    def test_one_polygon_pass_per_recording(self, monkeypatch, demo_h):
        table = self.recording(demo_h)
        cfg = scene_config_from_dict(scene_config_dict(demo_h))
        polygon_calls = []
        calls_in = {}

        def count_polygon_calls(points, polygon):
            polygon_calls.append(len(points))
            return real_polygon(points, polygon)

        def calls_during(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                before = len(polygon_calls)
                result = real(*args, **kwargs)
                calls_in[name] = len(polygon_calls) - before
                return result

            monkeypatch.setattr(pipeline, name, wrapper)

        real_polygon = _kernels.points_in_polygon
        monkeypatch.setattr(_kernels, "points_in_polygon", count_polygon_calls)
        calls_during("run_filter_cascade")
        calls_during("observe_maneuvers")
        result = pipeline.process_detections(table, cfg, demo_h)

        assert len(result.maneuvers.track_ids) == len(self.PROFILES)
        assert calls_in == {"run_filter_cascade": 1, "observe_maneuvers": 1}
        assert polygon_calls == [len(table), len(result.kinematics.frames)]

    def test_one_projection_and_window_pass_per_recording(self, monkeypatch, demo_h):
        table = self.recording(demo_h)
        cfg = scene_config_from_dict(scene_config_dict(demo_h))
        calls = {"window_speeds": 0}
        stages = ["process_detections"]  # the innermost running stage is last
        projections = []  # (stage, which matrix, point count) per call
        following_rows = []
        matrices = {"inverse": demo_h.inverse().matrix, "forward": demo_h.matrix}

        def counting_windows(*args):
            calls["window_speeds"] += 1
            return real_windows(*args)

        def counting_projections(matrix, points):
            which = [name for name, m in matrices.items() if np.array_equal(m, matrix)]
            projections.append((stages[-1], *which, len(points)))
            return real_project(matrix, points)

        def stage(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                if name == "filter_following":
                    following_rows.append(len(args[0].frames))
                stages.append(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    stages.pop()

            monkeypatch.setattr(module, name, wrapper)

        real_windows = _kernels.window_speeds
        real_project = geometry.project_points
        monkeypatch.setattr(_kernels, "window_speeds", counting_windows)
        for module in (geometry, ingest, kinematics):
            monkeypatch.setattr(module, "project_points", counting_projections)
        for name in ("assemble_tracks", "to_world_track", "track_kinematics"):
            stage(pipeline, name)
        stage(ingest, "filter_following")
        result = pipeline.process_detections(table, cfg, demo_h)

        kins = result.kinematics
        assert kins.track_ids.tolist() == [1, 2, 3, 4]
        assert calls["window_speeds"] == 1
        # one inverse projection of every assembled row, one forward
        # projection for the follower headings, none in to_world_track
        assert projections == [
            ("assemble_tracks", "inverse", len(table)),
            ("filter_following", "forward", following_rows[0]),
        ]
        maneuvers = result.maneuvers
        assert len(maneuvers.track_ids) == len(self.PROFILES)
        assert not maneuvers.classes.flags.writeable
        for track_id, v_mean, code in zip(
            maneuvers.track_ids.tolist(), maneuvers.v_mean_mph.tolist(), maneuvers.classes.tolist()
        ):
            k = kins.track_ids.tolist().index(track_id)
            rows = slice(kins.offsets[k], kins.offsets[k + 1])
            inside = [point_in_polygon_oracle(x, y, ZONE) for x, y in kins.points[rows]]
            zone_speeds = kins.speeds_mph[rows][inside]
            assert v_mean == float(zone_speeds.min())
            assert MANEUVERS[code] is classify_maneuver_oracle(v_mean)
