"""Oriented 3D box geometry: rotated IoU, containment tests, NMS, RoI grids.

Boxes are yaw-only (rotation about the vertical Z axis). All functions are
pure and operate on plain floats / numpy arrays, so they are safe to call
from parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Collinearity tolerance for convex polygon clipping, in meters.
CLIP_TOL = 1e-9


def wrap_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    t = (theta + math.pi) % TWO_PI - math.pi
    if t >= math.pi:  # guard against fp rounding in the modulo
        t -= TWO_PI
    return t


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap to [-pi, pi)."""
    t = np.mod(theta + math.pi, TWO_PI) - math.pi
    return np.where(t >= math.pi, t - TWO_PI, t)


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
        for name in ("cx", "cy", "cz", "l", "w", "h", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Box3D.{name} must be finite, got {v!r}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"Box3D dimensions must be positive, got l={self.l} w={self.w} h={self.h}"
            )
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz])

    @property
    def bev_area(self) -> float:
        return self.l * self.w

    @property
    def z_min(self) -> float:
        return self.cz - 0.5 * self.h

    @property
    def z_max(self) -> float:
        return self.cz + 0.5 * self.h

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


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as (K, 2) vertices."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    s = float(x[:-1] @ y[1:] - x[1:] @ y[:-1]) + float(x[-1] * y[0] - x[0] * y[-1])
    return 0.5 * abs(s)


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject polygon by a convex
    CCW clip polygon. Vertices within CLIP_TOL of an edge count as inside."""
    output = [subject[i] for i in range(len(subject))]
    nclip = len(clip)
    for e in range(nclip):
        if len(output) < 3:
            return np.empty((0, 2))
        a = clip[e]
        b = clip[(e + 1) % nclip]
        ex, ey = b[0] - a[0], b[1] - a[1]
        pts = output
        output = []
        sides = [ex * (p[1] - a[1]) - ey * (p[0] - a[0]) for p in pts]
        for i in range(len(pts)):
            cur, prev = pts[i], pts[i - 1]
            s_cur, s_prev = sides[i], sides[i - 1]
            cur_in, prev_in = s_cur >= -CLIP_TOL, s_prev >= -CLIP_TOL
            if cur_in != prev_in:
                t = s_prev / (s_prev - s_cur)
                output.append(prev + t * (cur - prev))
            if cur_in:
                output.append(cur)
    if len(output) < 3:
        return np.empty((0, 2))
    return np.array(output)


def _bev_overlap(a: Box3D, b: Box3D):
    """(intersection area, footprint area of a, footprint area of b).

    On overlap all three come from the shoelace formula on corner polygons
    so that identical boxes yield intersection == area exactly. When the
    bounding circles are disjoint the footprint areas are the closed-form
    products (callers short-circuit on a zero intersection).
    """
    r = 0.5 * math.hypot(a.l, a.w) + 0.5 * math.hypot(b.l, b.w)
    if (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 > r * r:
        return 0.0, a.bev_area, b.bev_area
    ca = a.corners_bev()
    cb = b.corners_bev()
    area_a = _polygon_area(ca)
    area_b = _polygon_area(cb)
    inter = _polygon_area(_clip_convex(ca, cb))
    # Clipping noise can overshoot the smaller footprint by ~ulp.
    return min(inter, area_a, area_b), area_a, area_b


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Rotated IoU of the ground-plane footprints, by convex polygon clipping."""
    inter, area_a, area_b = _bev_overlap(a, b)
    if inter == 0.0:
        return 0.0
    union = area_a + area_b - inter
    return min(max(inter / union, 0.0), 1.0)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU: BEV intersection area times vertical overlap, over volume union."""
    dz = min(a.z_max, b.z_max) - max(a.z_min, b.z_min)
    if dz <= 0.0:
        return 0.0
    inter2d, area_a, area_b = _bev_overlap(a, b)
    if inter2d == 0.0:
        return 0.0
    inter = inter2d * dz
    union = area_a * a.h + area_b * b.h - inter
    return min(max(inter / union, 0.0), 1.0)


def points_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Boolean mask of points inside the (closed) box.

    A point is inside iff its coordinates in the box frame lie within
    [-l/2, l/2] x [-w/2, w/2] x [-h/2, h/2]; the boundary counts as inside.

    Args:
        points: (N, 3) array of positions (extra columns are ignored).
        box: the oriented box.

    Returns:
        (N,) boolean mask.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be (N, >=3), got shape {pts.shape}")
    dx = pts[:, 0] - box.cx
    dy = pts[:, 1] - box.cy
    dz = pts[:, 2] - box.cz
    c, s = math.cos(box.theta), math.sin(box.theta)
    qx = c * dx + s * dy
    qy = -s * dx + c * dy
    return (
        (np.abs(qx) <= 0.5 * box.l)
        & (np.abs(qy) <= 0.5 * box.w)
        & (np.abs(dz) <= 0.5 * box.h)
    )


def nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float,
    max_keep: int | None = None,
) -> list[int]:
    """Greedy non-maximum suppression over box rows by 3D IoU.

    Args:
        boxes: (N, 7) rows of (cx, cy, cz, l, w, h, theta).
        scores: (N,) finite scores.
        iou_threshold: a row is suppressed iff its IoU with an already-kept
            row exceeds this.
        max_keep: stop once this many are kept, which is exactly equivalent
            to truncating the full result.

    Rows are visited in descending score order, ties broken by ascending
    index. A Box3D is built only for each visited row, so ranking N rows
    to keep a few costs one sort and no per-row objects. Box3D's checks
    therefore run on visited rows only: a caller that must reject any bad
    row validates the arrays first, as rpn.extract_proposals does.

    Each visited row is tested against all kept rows at once with the
    bounding-circle prefilter (cx_i - cx_k)^2 + (cy_i - cy_k)^2 >
    (r_i + r_k)^2, with r = 0.5 * hypot(l, w); the IoU is computed only for
    the kept rows that pass it, in kept order, up to the first suppression.
    Returns kept indices in visit order.
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
    kept: list[int] = []
    kept_boxes: list[Box3D] = []
    # Bounding-circle prefilter data of the kept rows, in kept order.
    kcx, kcy, krad = np.empty(limit), np.empty(limit), np.empty(limit)
    for i in np.argsort(-s, kind="stable").tolist():
        m = len(kept)
        if m == limit:
            break
        box = box_from_array(rows[i])
        rad = 0.5 * math.hypot(box.l, box.w)
        apart = ((box.cx - kcx[:m]) ** 2 + (box.cy - kcy[:m]) ** 2
                 > (rad + krad[:m]) ** 2)
        if any(iou_3d(box, kept_boxes[k]) > iou_threshold
               for k in np.flatnonzero(~apart).tolist()):
            continue
        kept.append(i)
        kept_boxes.append(box)
        kcx[m], kcy[m], krad[m] = box.cx, box.cy, rad
    return kept


def roi_grid_points(box: Box3D, resolution: int = 6) -> np.ndarray:
    """Uniform grid of cell-center points inside a box.

    Local offsets per axis are ((i + 0.5) / resolution - 0.5) * dim, rotated
    by the box yaw and translated to the center. Points are ordered
    lexicographically by (i, j, k). Shape (resolution**3, 3).
    """
    u = (np.arange(resolution) + 0.5) / resolution - 0.5
    gi, gj, gk = np.meshgrid(u * box.l, u * box.w, u * box.h, indexing="ij")
    local = np.stack([gi.ravel(), gj.ravel(), gk.ravel()], axis=1)
    c, s = math.cos(box.theta), math.sin(box.theta)
    pts = np.empty_like(local)
    pts[:, 0] = c * local[:, 0] - s * local[:, 1] + box.cx
    pts[:, 1] = s * local[:, 0] + c * local[:, 1] + box.cy
    pts[:, 2] = local[:, 2] + box.cz
    return pts
