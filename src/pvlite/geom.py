"""Oriented 3D box geometry: rotated IoU, containment tests, NMS, RoI grids.

Boxes are yaw-only (rotation about the vertical Z axis). All functions are
pure and operate on plain floats / numpy arrays, so they are safe to call
from parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GRID_RESOLUTION

TWO_PI = 2.0 * math.pi

# Collinearity tolerance for convex polygon clipping, in meters.
CLIP_TOL = 1e-9

# Ranked rows NMS visits per overlap-mask block.
NMS_BLOCK = 128


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Wrap angles to [-pi, pi); a wrapped angle comes back unchanged."""
    t = np.mod(theta + math.pi, TWO_PI) - math.pi
    return np.where(t >= math.pi, t - TWO_PI, t)  # fp rounding in the modulo


BOX_FIELDS = ("cx", "cy", "cz", "l", "w", "h", "theta")


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center, dimensions, yaw.

    l is the extent along the heading direction, w across it, h vertical.
    theta is normalized to [-pi, pi) on construction; dimensions must be
    strictly positive.
    """

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        for name in BOX_FIELDS:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Box3D.{name} must be finite, got {v!r}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"Box3D dimensions must be positive, got l={self.l} w={self.w} h={self.h}"
            )
        object.__setattr__(self, "theta", float(wrap_angles(self.theta)))

    def corners_bev(self) -> np.ndarray:
        """Ground-plane footprint corners, counter-clockwise, shape (4, 2)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        hl, hw = 0.5 * self.l, 0.5 * self.w
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz, self.l, self.w, self.h, self.theta])


def box_from_array(arr) -> Box3D:
    cx, cy, cz, l, w, h, theta = (float(v) for v in arr)
    return Box3D(cx, cy, cz, l, w, h, theta)


@dataclass(frozen=True)
class Detection:
    """A scored box prediction."""

    box: Box3D
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"Detection score must be in [0, 1], got {self.score!r}")
        if self.class_id < 0:
            raise ValueError(f"Detection class id must be >= 0, got {self.class_id}")


def check_boxes(rows: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first of the (N, 7) box rows ("{what} i")
    with a non-finite field or a non-positive size: the rule Box3D enforces,
    applied without building a box."""
    nonfinite = ~np.isfinite(rows)
    nonpositive = rows[:, 3:6] <= 0.0
    bad = nonfinite.any(axis=1) | nonpositive.any(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if nonfinite[i].any():
        j = int(np.argmax(nonfinite[i]))
        raise ValueError(f"{what} {i}: {BOX_FIELDS[j]} must be finite, "
                         f"got {float(rows[i, j])!r}")
    j = 3 + int(np.argmax(nonpositive[i]))
    raise ValueError(f"{what} {i}: {BOX_FIELDS[j]} must be positive, "
                     f"got {float(rows[i, j])!r}")


def _shoelace(x: np.ndarray, y: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Areas of padded polygons, the first count[p] vertices of row p, summed
    in vertex order so that equal polygons give equal areas at any padding."""
    k = np.arange(x.shape[1])
    nxt = np.where(k + 1 < count[:, None], k + 1, 0)
    terms = x * np.take_along_axis(y, nxt, 1) - np.take_along_axis(x, nxt, 1) * y
    total = np.zeros(x.shape[0])
    for col in np.where(k < count[:, None], terms, 0.0).T:
        total += col
    return 0.5 * np.abs(total)


def _footprint_overlap(a: np.ndarray, b: np.ndarray):
    """(intersection, area of a, area of b) of the footprints of row pairs.

    Sutherland-Hodgman on every pair at once, in a frame centred on a so that
    far-off coordinates lose no digits: a's corners, held as padded vertex
    rows plus a count, are clipped by each edge of b's in turn. A vertex
    within CLIP_TOL of an edge counts as inside, and a polygon left with
    fewer than 3 vertices is empty. All three areas come from the same
    shoelace sum, so identical boxes give intersection == area.
    """
    rows = np.concatenate([a, b])
    theta = wrap_angles(rows[:, 6])[:, None]
    c, s = np.cos(theta), np.sin(theta)
    # Counter-clockwise corners in half lengths and half widths, as corners_bev.
    lx, ly = 0.5 * rows[:, 3:4] * [1, -1, -1, 1], 0.5 * rows[:, 4:5] * [1, 1, -1, -1]
    shift = np.concatenate([np.zeros((len(a), 2)), b[:, :2] - a[:, :2]])
    x, y = lx * c + ly * -s + shift[:, :1], lx * s + ly * c + shift[:, 1:]
    area = _shoelace(x, y, np.full(len(rows), 4))
    (px, bx), (py, by) = np.split(x, 2), np.split(y, 2)
    count = np.full(len(a), 4)
    for e in range(4):
        x0, y0 = bx[:, e, None], by[:, e, None]
        ex, ey = bx[:, (e + 1) % 4, None] - x0, by[:, (e + 1) % 4, None] - y0
        k = np.arange(px.shape[1])
        valid = k < count[:, None]
        prev = np.where(k > 0, k - 1, count[:, None] - 1)
        side = ex * (py - y0) - ey * (px - x0)
        s_prev = np.take_along_axis(side, prev, 1)
        qx, qy = np.take_along_axis(px, prev, 1), np.take_along_axis(py, prev, 1)
        inside = side >= -CLIP_TOL
        cross = valid & (inside != (s_prev >= -CLIP_TOL))
        t = s_prev / np.where(cross, s_prev - side, 1.0)
        # Each vertex emits the edge crossing into it, then itself if inside.
        flat = (len(px), 2 * px.shape[1])
        emit = np.stack([cross, valid & inside], axis=2).reshape(flat)
        vx = np.stack([qx + t * (px - qx), px], axis=2).reshape(flat)
        vy = np.stack([qy + t * (py - qy), py], axis=2).reshape(flat)
        count = emit.sum(axis=1)
        pair, slot = np.nonzero(emit)
        col = np.cumsum(emit, axis=1)[pair, slot] - 1
        px, py = np.zeros((2, len(px), count.max(initial=0)))
        px[pair, col], py[pair, col] = vx[pair, slot], vy[pair, slot]
        count[count < 3] = 0
    area_a, area_b = np.split(area, 2)
    # Clipping noise can overshoot the smaller footprint by ~ulp.
    inter = np.minimum(_shoelace(px, py, count), np.minimum(area_a, area_b))
    return inter, area_a, area_b


def circles_meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the box-row pairs whose bounding circles (radius
    0.5 * hypot(l, w) about the centre) meet, the only pairs whose footprints
    can overlap; a and b broadcast, so a[:, None] and b[None] give a table."""
    reach = 0.5 * np.hypot(a[..., 3], a[..., 4]) + 0.5 * np.hypot(b[..., 3], b[..., 4])
    return (a[..., 0] - b[..., 0]) ** 2 + (a[..., 1] - b[..., 1]) ** 2 <= reach * reach


def _iou(a, b, vertical: bool) -> np.ndarray:
    """IoU of paired box rows; a and b broadcast over their leading axes.

    A pair whose bounding circles are apart, or whose z extents do not
    overlap in 3D, is 0 without clipping; a pair of equal rows is exactly 1.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape[-1:] != (7,):
        raise ValueError(f"IoU needs (..., 7) box rows, got {a.shape} and {b.shape}")
    a, b = (np.broadcast_to(v, shape).reshape(-1, 7) for v in (a, b))
    live = circles_meet(a, b)
    if vertical:
        dz = (np.minimum(a[:, 2] + 0.5 * a[:, 5], b[:, 2] + 0.5 * b[:, 5])
              - np.maximum(a[:, 2] - 0.5 * a[:, 5], b[:, 2] - 0.5 * b[:, 5]))
        live &= dz > 0.0
    idx = np.flatnonzero(live)
    inter, area_a, area_b = _footprint_overlap(a[idx], b[idx])
    if vertical:
        inter, area_a, area_b = inter * dz[idx], area_a * a[idx, 5], area_b * b[idx, 5]
    out = np.zeros(a.shape[0])
    out[idx] = np.clip(inter / np.where(inter > 0.0, area_a + area_b - inter, 1.0), 0.0, 1.0)
    out[(a == b).all(axis=1)] = 1.0
    return out.reshape(shape[:-1])


def bev_iou(a, b) -> np.ndarray:
    """Rotated IoU of the ground-plane footprints of paired (P, 7) box rows
    (cx, cy, cz, l, w, h, theta), by convex polygon clipping; (P,) values.

    Row i of a pairs with row i of b; the two broadcast, so one row against
    many, or (N, 1, 7) against (1, G, 7) for an (N, G) table, also works.
    """
    return _iou(a, b, vertical=False)


def iou_3d(a, b) -> np.ndarray:
    """3D IoU of paired box rows: footprint intersection times vertical
    overlap, over the volume union. Pairs and broadcasts like bev_iou."""
    return _iou(a, b, vertical=True)


def points_in_box(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside (closed) box rows.

    A point is inside iff its coordinates in the box frame lie within
    [-l/2, l/2] x [-w/2, w/2] x [-h/2, h/2]; the boundary counts as inside.
    The yaw is wrapped as Box3D wraps it.

    Args:
        points: (N, 3) array of positions (extra columns are ignored).
        boxes: one (7,) box row, or (G, 7) rows.

    Returns:
        (N,) mask for one row, (N, G) for G rows.
    """
    pts = np.asarray(points, dtype=float)
    rows = np.asarray(boxes, dtype=float)
    if pts.ndim != 2 or rows.ndim not in (1, 2) or rows.shape[-1] != 7:
        raise ValueError(f"points_in_box needs (N, >=3) points and (7,) or (G, 7) "
                         f"boxes, got {pts.shape} and {rows.shape}")
    b = rows.reshape(-1, 7)
    dx, dy, dz = (pts[:, k, None] - b[:, k] for k in range(3))
    theta = wrap_angles(b[:, 6])
    c, s = np.cos(theta), np.sin(theta)
    qx = c * dx + s * dy
    qy = -s * dx + c * dy
    inside = ((np.abs(qx) <= 0.5 * b[:, 3]) & (np.abs(qy) <= 0.5 * b[:, 4])
              & (np.abs(dz) <= 0.5 * b[:, 5]))
    return inside if rows.ndim == 2 else inside[:, 0]


def nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float,
    max_keep: int | None = None,
) -> list[int]:
    """Greedy non-maximum suppression over box rows by 3D IoU.

    Args:
        boxes: (N, 7) valid rows of (cx, cy, cz, l, w, h, theta).
        scores: (N,) finite scores.
        iou_threshold: a row is suppressed iff its IoU with an already-kept
            row exceeds this.
        max_keep: stop once this many are kept, which is exactly equivalent
            to truncating the full result.

    Rows are visited in descending score order, ties broken by ascending
    index, NMS_BLOCK ranked rows at a time. For each block one iou_3d call
    covers the pairs whose bounding circles meet: block rows against the
    kept rows and against the earlier rows of the block. A greedy pass over
    that overlap mask keeps a row iff it overlaps no kept row. Returns kept
    indices in visit order.
    """
    rows = np.asarray(boxes, dtype=float)
    s = np.asarray(scores, dtype=float)
    n = s.shape[0] if s.ndim == 1 else -1
    if rows.shape != (n, 7):
        raise ValueError(
            f"nms needs (N, 7) boxes and (N,) scores, got {rows.shape} and {s.shape}"
        )
    if not np.isfinite(s).all():
        raise ValueError(f"nms score {float(s[~np.isfinite(s)][0])!r} is not finite")
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be >= 0, got {max_keep}")
    limit = n if max_keep is None else min(max_keep, n)
    order = np.argsort(-s, kind="stable")
    kept: list[int] = []
    for start in range(0, n, NMS_BLOCK):
        if len(kept) == limit:
            break
        block = order[start:start + NMS_BLOCK]
        # Columns: the kept rows, then the block's rows.
        m = len(kept)
        cand = rows[np.concatenate([np.array(kept, dtype=np.int64), block])]
        near = circles_meet(cand[m:, None], cand[None])
        near &= np.arange(len(cand)) < m + np.arange(len(block))[:, None]
        pj, pk = np.nonzero(near)
        over = np.zeros(near.shape, dtype=bool)
        over[pj, pk] = iou_3d(cand[m + pj], cand[pk]) > iou_threshold
        alive = np.arange(len(cand)) < m
        for r in range(len(block)):
            if len(kept) == limit:
                break
            if not (over[r] & alive).any():
                alive[m + r] = True
                kept.append(int(block[r]))
    return kept


def roi_grid_points(boxes: np.ndarray) -> np.ndarray:
    """(..., GRID_RESOLUTION**3, 3) uniform grids of cell-center points in
    (..., 7) box rows.

    Local offsets per axis are ((i + 0.5) / GRID_RESOLUTION - 0.5) * dim,
    rotated by the wrapped box yaw and translated to the center. Points are
    ordered lexicographically by (i, j, k).
    """
    rows = np.asarray(boxes, dtype=float)
    if rows.shape[-1:] != (7,):
        raise ValueError(f"roi_grid_points needs (..., 7) box rows, got {rows.shape}")
    u = (np.arange(GRID_RESOLUTION) + 0.5) / GRID_RESOLUTION - 0.5
    gi, gj, gk = (g.ravel() for g in np.meshgrid(u, u, u, indexing="ij"))
    b = rows[..., None, :]
    lx, ly, lz = gi * b[..., 3], gj * b[..., 4], gk * b[..., 5]
    theta = wrap_angles(b[..., 6])
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * lx - s * ly + b[..., 0], s * lx + c * ly + b[..., 1],
                     lz + b[..., 2]], axis=-1)
