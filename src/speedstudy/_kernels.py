"""Hot numeric kernels, vectorized with numpy.

``points_in_polygon``, ``window_speeds`` and ``close_pair_counts`` are the
three loops the pipeline spends its numeric time in.
"""

from __future__ import annotations

import math

import numpy as np

BOUNDARY_TOL = 1e-9


# ---------------------------------------------------------------------------
# point-in-polygon (even-odd rule, boundary counts as inside)


def points_in_polygon(points, polygon):
    """Boolean mask of points inside (or within BOUNDARY_TOL of) a simple polygon.

    Loops over the polygon's edges and broadcasts over the points. Each
    edge's sums are taken in place in two row-length buffers, in the order
    the comments give, so the pass holds no other float temporary. Every
    pass reads the points one coordinate at a time: column-major points are
    read in place, and row-major ones are first copied into two contiguous
    columns.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    poly = np.asarray(polygon, dtype=np.float64)
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    inside = np.zeros(len(pts), dtype=bool)
    on_edge = np.zeros(len(pts), dtype=bool)
    a = np.empty(len(pts))
    b = np.empty(len(pts))
    tol2 = BOUNDARY_TOL * BOUNDARY_TOL
    m = len(poly)
    for i in range(m):
        xi, yi = poly[i]
        xj, yj = poly[i - 1]
        ex = xj - xi
        ey = yj - yi
        seg2 = ex * ex + ey * ey
        if seg2 > 0.0:
            # t = clip(((x - xi) * ex + (y - yi) * ey) / seg2, 0, 1)
            t = np.subtract(x, xi, out=a)
            t *= ex
            np.subtract(y, yi, out=b)
            b *= ey
            t += b
            t /= seg2
            np.clip(t, 0.0, 1.0, out=t)
            # cx = xi + t * ex - x, then cy = yi + t * ey - y
            cx = np.multiply(t, ex, out=b)
            cx += xi
            cx -= x
            cy = t
            cy *= ey
            cy += yi
            cy -= y
        else:
            cx = np.subtract(xi, x, out=b)
            cy = np.subtract(yi, y, out=a)
        # on_edge |= cx * cx + cy * cy <= tol2
        cx *= cx
        cy *= cy
        cx += cy
        on_edge |= cx <= tol2
        crosses = (yi > y) != (yj > y)
        dy = yj - yi
        safe_dy = np.where(dy == 0.0, 1.0, dy)
        # x_cross = xi + (y - yi) * (xj - xi) / safe_dy
        x_cross = np.subtract(y, yi, out=a)
        x_cross *= xj - xi
        x_cross /= safe_dy
        x_cross += xi
        crosses &= x < x_cross
        inside ^= crosses
    return inside | on_edge


# ---------------------------------------------------------------------------
# sliding-window speeds
#
# The rows are cut into segments (one per track), and a window never reaches
# before its row's segment start s. For row i the window reaches back
# w = min(i - s + 1, wmax) rows; speed is endpoint displacement over endpoint
# frame gap. Samples are emitted once the segment's history holds at least
# first_hist rows (and always at least 2, so the window spans a positive time).


def window_speeds(frames, xs, ys, wmax, first_hist, fps, seg_start=0):
    """Per-row window speed (m/s) and window length; -1 marks no sample.

    seg_start is each row's segment start (int64, seg_start[i] <= i), or 0
    for one segment. first_hist is clamped to 2 so every emitted window
    spans >= 2 rows. Both are capped at len(frames) + 1, which changes no
    result.
    """
    frames = np.asarray(frames, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(frames)
    wmax = max(min(int(wmax), n + 1), 2)
    first_hist = max(min(int(first_hist), n + 1), 2)
    i = np.arange(n)
    j = np.maximum(seg_start, i - wmax + 1)
    emit = (i - seg_start + 1 >= first_hist) & (i > seg_start)
    dt = (frames - frames[j]) / fps
    safe_dt = np.where(emit, dt, 1.0)
    dx = xs - xs[j]
    dy = ys - ys[j]
    speeds = np.where(emit, np.sqrt(dx * dx + dy * dy) / safe_dt, -1.0)
    wlens = np.where(emit, i - j + 1, 0)
    return speeds, wlens.astype(np.int64)


# ---------------------------------------------------------------------------
# close-leader scan for the following filter
#
# A pair of rows is a hit when the rows share a frame and lie closer than
# max_px. The rows are sorted once and scanned in blocks, and each candidate
# pair, one that can be a hit, is tested once, from the row that sorts
# first. Which pairs are candidates depends on how crowded the frames are:
# - same-frame mode, for frames of a few rows: every same-frame pair. The
#   rows are sorted by frame, and a row's candidates are the rest of its
#   frame.
# - grid mode: fixed-radius near neighbours on a uniform grid (Bentley,
#   Stanat & Williams 1977, "The complexity of finding fixed-radius near
#   neighbors"). Every row is bucketed into a square cell keyed by (frame,
#   cell row, cell column), and the rows are sorted by that key. Two rows
#   closer than max_px sit in the same or in neighbouring cells of one
#   frame. A row's candidates are the rest of its own cell and the cell to
#   its right, which follow it in key order, and the three cells of the next
#   cell row, one more key range.
# Every hit is a candidate in both modes, and both test a candidate with the
# same float expressions, so they find the same hits. Work and memory are
# linear in the rows plus the candidate pairs; nothing is sized by the track
# count squared.

# Cells per axis are capped so that (frame, row, column) keys fit in int64.
_MAX_CELLS_PER_AXIS = 1 << 20
_KEY_LIMIT = 1 << 62
# Cells are this much wider than max_px, so that rounding in the cell
# coordinate (at most ~2**-32 cells) never puts a pair that passes the
# distance test two cells apart.
_CELL_MARGIN = 1.0 + 2.0**-20
# Rows scanned, and candidate pairs expanded, at once: bounds the scan's
# working memory beside its row-length arrays (frame key, cell key or frame
# end, sort order) and the hits it finds.
_BLOCK_ROWS = 4096
_BLOCK_CANDIDATES = 1 << 15
# Same-frame mode is chosen while the same-frame pairs, the sum of k(k-1)/2
# over frames of k rows, are at most this many per row. A grid row costs
# three binary searches and a same-frame pair one distance test. Measured on
# one x86-64 core (numpy 2.4), same-frame mode took 0.5-0.65x the grid's
# time at 1-2 pairs per row and broke even at 2.5-3 pairs per row on
# thinned queue_dense recordings (tight lanes), and at 5-6 on overlaid
# study_free_flow recordings (spread traffic); the lower crossover is kept.
_SAME_FRAME_PAIRS_PER_ROW = 2


def _frame_keys(frames):
    """Frames renumbered 0..n_keys-1, keeping order and keeping frames that
    follow each other in the recording next to each other in key space."""
    first, last = int(frames.min()), int(frames.max())
    if last - first < len(frames):
        return frames - first, last - first + 1
    present, keys = np.unique(frames, return_inverse=True)
    return keys.reshape(-1), len(present)


def _grid_keys(frame_key, n_keys, us, vs, max_px):
    """Cell key of every row, and the key distance between cell rows.

    Each cell row ends in an empty column and each frame in an empty row,
    so the three cells x-1..x+1 of the next cell row are one contiguous key
    range that never reaches into another row or frame.
    """
    u0, v0 = us.min(), vs.min()
    extent = max(us.max() - u0, vs.max() - v0)
    per_axis = max(1, min(_MAX_CELLS_PER_AXIS, math.isqrt(_KEY_LIMIT // n_keys) - 3))
    cell = max(max_px * _CELL_MARGIN, extent / per_axis)
    cx = np.floor((us - u0) / cell).astype(np.int64)
    cy = np.floor((vs - v0) / cell).astype(np.int64)
    row_stride = int(cx.max()) + 2
    frame_stride = row_stride * (int(cy.max()) + 2)
    return frame_key * frame_stride + cy * row_stride + cx, row_stride


def _same_frame_scan(frame_key, per_frame):
    """Sort order of the rows (by frame), and a function giving the
    candidate ranges (first rows, row counts) of sorted rows: the rest of
    each row's frame."""
    # the rows come in runs of rising frames, one per track, which a stable
    # sort merges
    order = np.argsort(frame_key, kind="stable")
    frame_end = np.cumsum(per_frame)[frame_key[order]]  # one past each sorted row's frame

    def candidates(rows):
        return (rows + 1,), (frame_end[rows] - rows - 1,)

    return order, candidates


def _grid_scan(frame_key, n_keys, us, vs, max_px):
    """Sort order of the rows (by cell key), and a function giving the
    candidate ranges (first rows, row counts) of sorted rows: the rest of
    each row's cell and the cell to its right, then the three cells of the
    next cell row."""
    keys, row_stride = _grid_keys(frame_key, n_keys, us, vs, max_px)
    order = np.argsort(keys)
    keys = keys[order]

    def candidates(rows):
        own = keys[rows]
        next_lo = np.searchsorted(keys, own + (row_stride - 1), side="left")
        counts = (
            np.searchsorted(keys, own + 1, side="right") - rows - 1,
            np.searchsorted(keys, own + (row_stride + 1), side="right") - next_lo,
        )
        return (rows + 1, next_lo), counts

    return order, candidates


def _expand(starts, counts):
    """Concatenation of arange(s, s + c) over (starts, counts)."""
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(len(offsets))


def _sparse_frame_counts(frame_key, n_keys):
    """Rows per frame key when the same-frame pairs, the sum of k(k-1)/2 over
    frames of k rows, are at most _SAME_FRAME_PAIRS_PER_ROW per row; else
    None."""
    per_frame = np.bincount(frame_key, minlength=n_keys)
    limit = _SAME_FRAME_PAIRS_PER_ROW * len(frame_key)
    return per_frame if int(per_frame @ (per_frame - 1)) <= 2 * limit else None


def _close_codes(frame_key, n_keys, track_idx, us, vs, dus, dvs, max_px, n_tracks):
    """follower * n_tracks + leader, once per frame in which the leader is
    within max_px of the follower and ahead of it."""
    per_frame = _sparse_frame_counts(frame_key, n_keys)
    if per_frame is not None:
        order, candidates = _same_frame_scan(frame_key, per_frame)
    else:
        order, candidates = _grid_scan(frame_key, n_keys, us, vs, max_px)
    del per_frame
    n = len(order)
    r2 = max_px * max_px
    # One growing buffer for the hits: small result arrays kept alive between
    # the block temporaries would fragment the heap and keep it resident.
    codes = np.empty(n, dtype=np.int64)
    filled = 0
    start = 0
    while start < n:
        rows = np.arange(start, min(start + _BLOCK_ROWS, n))
        firsts, counts = candidates(rows)
        fits = np.count_nonzero(np.cumsum(sum(counts)) <= _BLOCK_CANDIDATES)
        take = slice(0, max(fits, 1))
        rows = rows[take]
        counts = np.concatenate([c[take] for c in counts])
        a = order[np.concatenate([rows] * len(firsts)).repeat(counts)]
        b = order[_expand(np.concatenate([f[take] for f in firsts]), counts)]
        dx = us[b] - us[a]
        dy = vs[b] - vs[a]
        near = dx * dx + dy * dy < r2
        a, b, dx, dy = a[near], b[near], dx[near], dy[near]
        ahead_of_a = dx * dus[a] + dy * dvs[a] > 0.0
        ahead_of_b = (-dx) * dus[b] + (-dy) * dvs[b] > 0.0
        ta, tb = track_idx[a], track_idx[b]
        hits = np.concatenate(
            (ta[ahead_of_a] * n_tracks + tb[ahead_of_a], tb[ahead_of_b] * n_tracks + ta[ahead_of_b])
        )
        if filled + len(hits) > len(codes):
            codes = np.concatenate((codes[:filled], np.empty(max(len(codes), len(hits)), dtype=np.int64)))
        codes[filled:filled + len(hits)] = hits
        filled += len(hits)
        start += len(rows)
    return codes[:filled]


def _coexist_counts(follower, leader, track_idx, frame_key, n_keys):
    """Frames in which both tracks of each (follower, leader) pair appear.

    Each leader's frames are split into runs of consecutive frame keys; the
    follower's frames inside a run are counted with two searchsorted calls.
    """
    stride = n_keys + 1  # one unused key between tracks ends every run
    tf = track_idx * stride
    tf += frame_key
    # stable int64 sorting is timsort, linear on the one ascending run that
    # rows given track by track in rising frames make
    tf.sort(kind="stable")
    breaks = np.flatnonzero(np.diff(tf) != 1) + 1
    run_lo = tf[np.concatenate(([0], breaks))]
    run_hi = tf[np.concatenate((breaks, [len(tf)])) - 1]
    run_track = run_lo // stride
    first = np.searchsorted(run_track, leader, side="left")
    n_runs = np.searchsorted(run_track, leader, side="right") - first
    run = _expand(first, n_runs)
    shift = np.repeat((follower - leader) * stride, n_runs)
    inside = np.searchsorted(tf, run_hi[run] + shift, side="right") - np.searchsorted(
        tf, run_lo[run] + shift, side="left"
    )
    return np.add.reduceat(inside, np.cumsum(n_runs) - n_runs)


def close_pair_counts(frames, track_idx, us, vs, dus, dvs, max_px, n_tracks):
    """Close-ahead and coexistence frame counts for the ordered track pairs
    that are ever close.

    Row k says track track_idx[k] is at (us[k], vs[k]) in frame frames[k],
    heading along (dus[k], dvs[k]), a vector of any length. Track l is close
    ahead of track t in a frame when l's point lies within max_px of t's
    (strictly) and has a positive component along t's heading. Returns int64 arrays
    (follower, leader, close, coexist), sorted by (follower, leader), over
    the pairs with close > 0: close counts the frames with l close ahead of
    t, coexist the frames in which both tracks appear.

    Preconditions: at most one row per (track, frame), as assemble_tracks
    guarantees; 0 <= track_idx < n_tracks; max_px > 0. Rows need not be
    sorted.
    """
    frames = np.asarray(frames, dtype=np.int64)
    track_idx = np.asarray(track_idx, dtype=np.int64)
    us, vs, dus, dvs = (np.asarray(a, dtype=np.float64) for a in (us, vs, dus, dvs))
    if len(frames) < 2:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    frame_key, n_keys = _frame_keys(frames)
    codes = _close_codes(frame_key, n_keys, track_idx, us, vs, dus, dvs, max_px, n_tracks)
    pairs, close = np.unique(codes, return_counts=True)
    follower, leader = np.divmod(pairs, n_tracks)
    coexist = _coexist_counts(follower, leader, track_idx, frame_key, n_keys)
    return follower, leader, close, coexist
