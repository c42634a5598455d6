import math
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    apply_h,
    assert_same_bits,
    is_column_major,
    make_correspondences,
    project_points_reference,
    random_projective_matrix,
)
from speedstudy import (
    Correspondence,
    Homography,
    ImagePoint,
    WorldPoint,
    reprojection_rmse,
    solve_homography,
)
from speedstudy.errors import DegenerateConfiguration, TooFewPoints
from speedstudy.geometry import INFINITY_TOL, project_points

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def project_one(matrix, x, y) -> tuple[float, float]:
    """One point through project_points, which must find it projectable."""
    out, valid = project_points(matrix, [(x, y)])
    assert valid.tolist() == [True]
    return tuple(out[0].tolist())


def square_corrs(offset=(0.0, 0.0)):
    return [
        Correspondence(WorldPoint(x, y), ImagePoint(x + offset[0], y + offset[1]))
        for x, y in UNIT_SQUARE
    ]


class TestSolve:
    def test_identity_case(self):
        h = solve_homography(square_corrs())
        assert np.allclose(h.matrix, Homography(np.eye(3)).matrix, atol=1e-12)

    def test_pure_translation(self):
        h = solve_homography(square_corrs(offset=(10.0, 5.0)))
        u, v = project_one(h.matrix, 0.0, 0.0)
        assert u == pytest.approx(10.0, abs=1e-9)
        assert v == pytest.approx(5.0, abs=1e-9)

    def test_recovers_random_well_conditioned_map(self, rng):
        for _ in range(20):
            m = random_projective_matrix(rng)
            pts = rng.uniform(0, 100, size=(8, 2))
            h = solve_homography(make_correspondences(m, pts))
            expected = Homography(m)
            assert np.allclose(h.matrix, expected.matrix, atol=1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            solve_homography(square_corrs()[:3])

    def test_collinear_world_points_degenerate(self):
        corrs = [
            Correspondence(WorldPoint(float(i), float(i)), ImagePoint(float(i), 2.0 * i))
            for i in range(4)
        ]
        with pytest.raises(DegenerateConfiguration):
            solve_homography(corrs)

    def test_duplicate_points_degenerate(self):
        corrs = square_corrs()
        corrs[3] = corrs[0]
        with pytest.raises(DegenerateConfiguration):
            solve_homography(corrs)

    def test_three_collinear_among_four(self):
        corrs = [
            Correspondence(WorldPoint(0, 0), ImagePoint(0, 0)),
            Correspondence(WorldPoint(1, 1), ImagePoint(1, 1)),
            Correspondence(WorldPoint(2, 2), ImagePoint(2, 2)),
            Correspondence(WorldPoint(0, 1), ImagePoint(0, 1)),
        ]
        with pytest.raises(DegenerateConfiguration):
            solve_homography(corrs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["world", "image"])
    @pytest.mark.parametrize("point", [(1e200, 0.0), (1.7e308, 1.0), (-1e300, 1e300)])
    def test_coordinates_too_large_to_normalize(self, side, point):
        # finite, but their squares overflow: named as such, with no numpy warning
        corrs = square_corrs()
        world, image = corrs[2].world, corrs[2].image
        if side == "world":
            world = WorldPoint(*point)
        else:
            image = ImagePoint(*point)
        corrs[2] = Correspondence(world, image)
        with pytest.raises(DegenerateConfiguration, match="too large to normalize"):
            solve_homography(corrs)


class TestProjection:
    def test_identity_world_to_image(self):
        h = Homography(np.eye(3))
        u, v = project_one(h.matrix, 3.0, 4.0)
        assert u == pytest.approx(3.0, abs=1e-12)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_scale_invariance_power_of_two_is_bit_exact(self, rng):
        m = random_projective_matrix(rng)
        base = Homography(m)
        for lam in (2.0, 0.5, -4.0, 1024.0, -0.03125):
            scaled = Homography(lam * m)
            assert np.array_equal(base.matrix, scaled.matrix)
            assert base == scaled

    def test_scale_invariance_arbitrary_lambda(self, rng):
        m = random_projective_matrix(rng)
        base = Homography(m)
        for lam in (3.7, -0.21, 1e6, -123.456):
            scaled = Homography(lam * m)
            assert np.allclose(base.matrix, scaled.matrix, rtol=0, atol=1e-15)
            u0, v0 = project_one(base.matrix, 12.0, 7.0)
            u1, v1 = project_one(scaled.matrix, 12.0, 7.0)
            assert u0 == pytest.approx(u1, rel=1e-12)
            assert v0 == pytest.approx(v1, rel=1e-12)

    def test_translation_against_hand_multiply(self):
        h = solve_homography(square_corrs(offset=(10.0, 5.0)))
        u, v = apply_h(h.matrix, 0.0, 0.0)
        assert project_one(h.matrix, 0.0, 0.0) == (u, v)
        assert u == pytest.approx(10.0, abs=1e-9)

    def test_at_infinity(self):
        h = Homography([[1, 0, 0], [0, 1, 0], [1, 0, 1]])  # den = x + 1
        out, valid = project_points(h.matrix, [(-1.0, 5.0), (0.0, 5.0)])
        assert valid.tolist() == [False, True]
        assert out[0].tolist() == [0.0, 0.0]

    def test_identity_image_to_world(self):
        h = Homography(np.eye(3))
        x, y = project_one(h.inverse().matrix, 7.0, 2.0)
        assert x == pytest.approx(7.0, abs=1e-12)
        assert y == pytest.approx(2.0, abs=1e-12)

    def test_round_trip_random_points(self, rng):
        m = random_projective_matrix(rng)
        h = Homography(m)
        for _ in range(100):
            x, y = rng.uniform(0, 100, size=2)
            back = project_one(h.inverse().matrix, *project_one(h.matrix, x, y))
            assert back == pytest.approx((x, y), abs=1e-9)

    def test_simulator_h_round_trip(self, demo_h):
        back = project_one(demo_h.inverse().matrix, *project_one(demo_h.matrix, 12.0, 3.5))
        assert back == pytest.approx((12.0, 3.5), abs=1e-9)


COORD = st.floats(-1e4, 1e4, allow_nan=False)
ENTRY = st.floats(-1e3, 1e3, allow_nan=False)
# a denominator entry at, just below and just above the infinity tolerance
TOL_EDGES = (INFINITY_TOL, np.nextafter(INFINITY_TOL, 0.0), np.nextafter(INFINITY_TOL, 1.0))


class TestProjectionBits:
    """project_points against its whole-array expressions, bit for bit."""

    @given(
        st.lists(ENTRY, min_size=9, max_size=9),
        st.lists(st.tuples(COORD, COORD), min_size=1, max_size=30),
    )
    @example([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, INFINITY_TOL], [(3.0, 4.0)])
    @example([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 0.0, -1.0], [(1.0, 7.0), (1.0 + 1e-12, 7.0)])
    def test_matches_whole_array_expressions(self, entries, points):
        matrix = np.array(entries).reshape(3, 3)
        got, valid = project_points(matrix, np.array(points))
        want, want_valid = project_points_reference(matrix, np.array(points))
        assert_same_bits(got, want)
        assert_same_bits(valid, want_valid)
        # column-major in and out: the same bits from contiguous columns
        assert is_column_major(got)
        got_f, valid_f = project_points(matrix, np.asfortranarray(points))
        assert_same_bits(got_f, got)
        assert_same_bits(valid_f, valid)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_denominator_at_and_below_the_tolerance(self, sign):
        # den = m22 exactly, since the points' terms are multiplied by zero
        points = np.array([[3.0, -4.0]] * len(TOL_EDGES))
        for den, projectable in zip(TOL_EDGES, (True, False, True)):
            matrix = np.array([[2.0, 1.0, 5.0], [0.5, 3.0, -1.0], [0.0, 0.0, sign * den]])
            got, valid = project_points(matrix, points)
            want, want_valid = project_points_reference(matrix, points)
            assert valid.tolist() == [projectable] * len(points)
            assert_same_bits(got, want)
            assert_same_bits(valid, want_valid)

    @given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=30), st.sampled_from(TOL_EDGES))
    def test_denominator_near_the_tolerance_from_the_points(self, points, target):
        # m22 puts the first point's denominator at (or within rounding of) target
        x, y = points[0]
        matrix = np.array([[1.5, -0.5, 2.0], [0.25, 1.0, -3.0], [1e-3, -2e-3, 0.0]])
        matrix[2, 2] = target - (matrix[2, 0] * x + matrix[2, 1] * y)
        got, valid = project_points(matrix, np.array(points))
        want, want_valid = project_points_reference(matrix, np.array(points))
        assert_same_bits(got, want)
        assert_same_bits(valid, want_valid)


class TestReprojectionRmse:
    def test_exact_correspondences(self, rng):
        m = random_projective_matrix(rng)
        corrs = make_correspondences(m, rng.uniform(0, 100, size=(8, 2)))
        assert reprojection_rmse(solve_homography(corrs), corrs) < 1e-8

    def test_single_offset_correspondence(self):
        h = Homography(np.eye(3))
        corr = Correspondence(WorldPoint(5.0, 5.0), ImagePoint(8.0, 5.0))  # 3 px off in u
        assert reprojection_rmse(h, [corr]) == pytest.approx(3.0, abs=1e-12)

    def test_noisy_correspondences_median_rmse(self):
        rmses = []
        for seed in range(100):
            r = np.random.default_rng(seed)
            m = random_projective_matrix(r)
            pts = r.uniform(0, 100, size=(8, 2))
            corrs = make_correspondences(m, pts)
            noisy = [
                Correspondence(
                    c.world,
                    ImagePoint(c.image.u + r.normal(0, 0.5), c.image.v + r.normal(0, 0.5)),
                )
                for c in corrs
            ]
            h = solve_homography(noisy)
            rmses.append(reprojection_rmse(h, noisy))
        assert np.median(rmses) <= 1.0

    def test_over_determined_consistency(self, rng):
        m = random_projective_matrix(rng)
        corrs = make_correspondences(m, rng.uniform(0, 100, size=(12, 2)))
        for n in (4, 6, 8, 12):
            h = solve_homography(corrs[:n])
            assert reprojection_rmse(h, corrs[:n]) < 1e-8


class TestCanonicalForm:
    def test_frobenius_norm_one_h33_nonnegative(self, rng):
        for _ in range(50):
            h = Homography(random_projective_matrix(rng))
            assert np.linalg.norm(h.matrix) == pytest.approx(1.0, abs=1e-12)
            assert h.matrix[2, 2] >= 0

    def test_negative_scale_flips_back(self):
        h1 = Homography(np.eye(3))
        h2 = Homography(-np.eye(3))
        assert h1 == h2

    def test_zero_h33_uses_first_large_entry(self):
        m = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [0.5, 0.25, 0.0]])
        h = Homography(m)
        flat = h.matrix.ravel()
        first = flat[np.flatnonzero(np.abs(flat) >= 1e-12)[0]]
        assert first > 0

    def test_singular_matrix_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            Homography([[1, 0, 0], [0, 1, 0], [1, 0, 0]])

    def test_inverse_round_trip_matrix(self, demo_h):
        ident = demo_h.matrix @ demo_h.inverse().matrix
        ident /= ident[2, 2]
        assert np.allclose(ident, np.eye(3), atol=1e-12)

    def test_inverse_is_the_canonical_matrix_inverse(self, rng):
        h = Homography(random_projective_matrix(rng))
        first = h.inverse()
        assert np.array_equal(h.inverse().matrix, first.matrix)
        assert np.array_equal(first.matrix, Homography(np.linalg.inv(h.matrix)).matrix)


def test_property_run_1000_cases_under_5s():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    for _ in range(1000):
        m = random_projective_matrix(rng)
        pts = rng.uniform(0, 100, size=(8, 2))
        h = solve_homography(make_correspondences(m, pts))
        assert np.allclose(h.matrix, Homography(m).matrix, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"property run took {elapsed:.2f}s"


def test_world_point_rejects_nan():
    with pytest.raises(ValueError):
        WorldPoint(math.nan, 0.0)
    with pytest.raises(ValueError):
        ImagePoint(0.0, math.inf)
