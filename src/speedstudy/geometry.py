"""Planar image<->world projective mapping used for all metric measurements.

The world frame is a flat, right-handed plane in meters whose origin and
orientation come from the scene calibration; the image frame is pixels with u
along columns and v along rows. A single 3x3 homography maps world to image;
its inverse maps detections back onto the road plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfiguration, TooFewPoints

INFINITY_TOL = 1e-12
_SIGN_TOL = 1e-12
_RANK_TOL = 1e-9
_COND_LIMIT = 1e12
# Distinct points closer than this once normalized count as merged: the DLT
# rows they give differ by about as much, so the solve sees one point there.
_MERGE_TOL = 1e-6


@dataclass(frozen=True)
class WorldPoint:
    """Position on the road plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"world point must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class ImagePoint:
    """Pixel position; may lie outside the frame bounds."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"image point must be finite, got ({self.u}, {self.v})")


class Correspondence(NamedTuple):
    world: WorldPoint
    image: ImagePoint


class Homography:
    """Invertible 3x3 world->image map stored as its canonical representative.

    Canonical form: Frobenius norm 1 with h33 >= 0 (sign taken from the first
    entry above 1e-12 when h33 is smaller than that). Scalar multiples of the
    same matrix therefore construct identical objects, which makes equality
    and projection results directly comparable.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(3, 3)
        if not np.all(np.isfinite(m)):
            raise DegenerateConfiguration("homography entries must be finite")
        norm = np.linalg.norm(m)
        if norm == 0.0:
            raise DegenerateConfiguration("homography matrix is zero")
        m = m / norm
        anchor = m[2, 2]
        if abs(anchor) < _SIGN_TOL:
            flat = m.ravel()
            big = np.flatnonzero(np.abs(flat) >= _SIGN_TOL)
            anchor = flat[big[0]] if len(big) else 1.0
        if anchor < 0.0:
            m = -m
        if np.linalg.cond(m) > _COND_LIMIT:
            raise DegenerateConfiguration("homography matrix is singular or near-singular")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """Canonical 3x3 matrix (read-only view)."""
        return self._m

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self._m))

    def __eq__(self, other):
        if not isinstance(other, Homography):
            return NotImplemented
        return np.array_equal(self._m, other._m)

    def __hash__(self):
        return hash(self._m.tobytes())

    def __repr__(self):
        rows = "; ".join(" ".join(f"{v:.6g}" for v in row) for row in self._m)
        return f"Homography([{rows}])"


def _hartley_transform(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate centroid to origin and scale mean distance to sqrt(2)."""
    # finite coordinates near the float limit overflow the squares (or the
    # centroid's sum); that is reported below, so numpy need not warn
    with np.errstate(over="ignore"):
        centroid = points.mean(axis=0)
        shifted = points - centroid
        mean_dist = np.sqrt((shifted**2).sum(axis=1)).mean()
    if not math.isfinite(mean_dist):
        raise DegenerateConfiguration("correspondence coordinates are too large to normalize")
    if mean_dist < 1e-12:
        raise DegenerateConfiguration("correspondence points are coincident")
    s = math.sqrt(2.0) / mean_dist
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return T, shifted * s


def _merged(points: np.ndarray, normalized: np.ndarray) -> bool:
    """Whether two distinct points lie within _MERGE_TOL of each other once
    normalized (to a mean distance of sqrt(2) from their centroid)."""
    i, j = np.triu_indices(len(points), 1)
    distinct = (points[i] != points[j]).any(axis=1)
    return bool((distinct & (np.hypot(*(normalized[i] - normalized[j]).T) < _MERGE_TOL)).any())


def solve_homography(correspondences) -> Homography:
    """Recover the world->image homography from >=4 point correspondences.

    Least-squares DLT on Hartley-normalized coordinates; the solution is the
    singular vector of the stacked 2n x 9 system with the smallest singular
    value. Exact non-degenerate inputs are recovered to machine precision.
    """
    corrs = list(correspondences)
    n = len(corrs)
    if n < 4:
        raise TooFewPoints(f"need at least 4 correspondences, got {n}")
    world = np.array([[c.world.x, c.world.y] for c in corrs], dtype=np.float64)
    image = np.array([[c.image.u, c.image.v] for c in corrs], dtype=np.float64)
    t_world, wn = _hartley_transform(world)
    t_image, im = _hartley_transform(image)

    a = np.zeros((2 * n, 9))
    a[0::2, 0] = wn[:, 0]
    a[0::2, 1] = wn[:, 1]
    a[0::2, 2] = 1.0
    a[0::2, 6] = -im[:, 0] * wn[:, 0]
    a[0::2, 7] = -im[:, 0] * wn[:, 1]
    a[0::2, 8] = -im[:, 0]
    a[1::2, 3] = wn[:, 0]
    a[1::2, 4] = wn[:, 1]
    a[1::2, 5] = 1.0
    a[1::2, 6] = -im[:, 1] * wn[:, 0]
    a[1::2, 7] = -im[:, 1] * wn[:, 1]
    a[1::2, 8] = -im[:, 1]

    _, sv, vt = np.linalg.svd(a)
    # Null space must be one-dimensional: with the smallest singular value
    # belonging to the solution, the 8th (index 7) must stay well away from 0.
    if sv[7] <= sv[0] * _RANK_TOL:
        # one point far from the others scales the rest onto each other
        if _merged(world, wn) or _merged(image, im):
            raise DegenerateConfiguration(
                "correspondence coordinates span too wide a range to solve: "
                "distinct points coincide once normalized"
            )
        raise DegenerateConfiguration(
            "correspondences are collinear or duplicated; homography is not unique"
        )
    h_norm = vt[-1].reshape(3, 3)
    return Homography(np.linalg.inv(t_image) @ h_norm @ t_world)


def project_points(matrix: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply a 3x3 projective matrix to an (N, 2) array of points.

    Returns the projected (N, 2) array, column-major (the .T of a (2, N)
    array), plus a validity mask; rows whose homogeneous denominator falls
    below the infinity tolerance are invalid and hold zeros. Column-major
    points are read one contiguous column at a time.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x, y = pts[:, 0], pts[:, 1]
    # row i of matrix gives (m[i, 0] * x + m[i, 1] * y) + m[i, 2], summed in
    # place, so each projection holds one row-length temporary at a time
    den = matrix[2, 0] * x
    den += matrix[2, 1] * y
    den += matrix[2, 2]
    valid = np.abs(den) >= INFINITY_TOL
    den[~valid] = 1.0
    out = np.empty((2, len(pts)), dtype=np.float64)
    for i, column in enumerate(out):
        np.multiply(matrix[i, 0], x, out=column)
        column += matrix[i, 1] * y
        column += matrix[i, 2]
        column /= den
    np.copyto(out, 0.0, where=~valid)
    return out.T, valid


def reprojection_rmse(h: Homography, correspondences) -> float:
    """Root-mean-square pixel error of projecting each world point.

    Infinite if any world point projects to infinity under h (a calibration
    this bad should never pass a quality gate).
    """
    corrs = list(correspondences)
    if not corrs:
        raise ValueError("need at least one correspondence")
    world = np.array([[c.world.x, c.world.y] for c in corrs], dtype=np.float64)
    image = np.array([[c.image.u, c.image.v] for c in corrs], dtype=np.float64)
    projected, valid = project_points(h.matrix, world)
    if not np.all(valid):
        return float("inf")
    sq = ((projected - image) ** 2).sum(axis=1)
    return float(np.sqrt(sq.mean()))
