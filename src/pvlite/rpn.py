"""Anchor-based proposal generation: anchor lattices, the residual box
codec, target assignment, focal / smooth-L1 losses, validated decoding of
every anchor, and proposal extraction with NMS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .config import FOCAL_ALPHA, FOCAL_GAMMA, PROPOSAL_NMS_IOU, ClassSpec


@dataclass(frozen=True)
class BevGrid:
    """Geometry of the BEV lattice the anchors live on."""

    origin: tuple[float, float]
    cell_size: tuple[float, float]
    nx: int
    ny: int

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny


ANCHOR_YAWS = (0.0, math.pi / 2)


@dataclass(frozen=True)
class AnchorSet:
    """Anchors laid on the BEV lattice, two yaw hypotheses per cell per class.

    Ordering is cell-major: (i, j, class, yaw). boxes is (A, 7) rows of
    (cx, cy, cz, l, w, h, theta).
    """

    boxes: np.ndarray
    class_ids: np.ndarray
    grid: BevGrid
    num_classes: int

    def __post_init__(self):
        boxes = np.asarray(self.boxes, dtype=float)
        cids = np.asarray(self.class_ids, dtype=np.int64)
        expect = 2 * self.num_classes * self.grid.num_cells
        if boxes.shape != (expect, 7) or cids.shape != (expect,):
            raise ValueError(
                f"anchor arrays must be ({expect}, 7) and ({expect},), "
                f"got {boxes.shape} and {cids.shape}"
            )
        boxes.flags.writeable = False
        cids.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "class_ids", cids)

    def __len__(self) -> int:
        return self.boxes.shape[0]


def generate_anchors(classes: tuple[ClassSpec, ...], grid: BevGrid) -> AnchorSet:
    """Anchors at BEV cell centers with class mean sizes and yaws {0, pi/2}."""
    n_cls = len(classes)
    per_cell = 2 * n_cls
    total = per_cell * grid.num_cells
    boxes = np.empty((total, 7))
    class_ids = np.empty(total, dtype=np.int64)
    xs = grid.origin[0] + (np.arange(grid.nx) + 0.5) * grid.cell_size[0]
    ys = grid.origin[1] + (np.arange(grid.ny) + 0.5) * grid.cell_size[1]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    boxes[:, 0] = np.repeat(centers[:, 0], per_cell)
    boxes[:, 1] = np.repeat(centers[:, 1], per_cell)
    for c, spec in enumerate(classes):
        for y, yaw in enumerate(ANCHOR_YAWS):
            sl = slice(2 * c + y, None, per_cell)
            boxes[sl, 2] = spec.z_center
            boxes[sl, 3:6] = spec.size
            boxes[sl, 6] = yaw
            class_ids[sl] = c
    return AnchorSet(boxes, class_ids, grid, n_cls)


# ---------------------------------------------------------------------------
# Residual box codec
# ---------------------------------------------------------------------------

def encode_residuals(gt: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Vectorized residual encoding of (N, 7) gt rows against anchors.

    With d = sqrt(l_a^2 + w_a^2): centers are offset-normalized by (d, d, h_a),
    dims are log ratios, and the yaw difference is wrapped to [-pi, pi).
    """
    gt = np.asarray(gt, dtype=float).reshape(-1, 7)
    an = np.asarray(anchor, dtype=float).reshape(-1, 7)
    d = np.hypot(an[:, 3], an[:, 4])
    out = np.empty_like(gt)
    out[:, 0] = (gt[:, 0] - an[:, 0]) / d
    out[:, 1] = (gt[:, 1] - an[:, 1]) / d
    out[:, 2] = (gt[:, 2] - an[:, 2]) / an[:, 5]
    out[:, 3:6] = np.log(gt[:, 3:6] / an[:, 3:6])
    out[:, 6] = geom.wrap_angles(gt[:, 6] - an[:, 6])
    return out


def decode_residuals(residual: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Exact inverse of encode_residuals, returning (N, 7) box rows."""
    dr = np.asarray(residual, dtype=float).reshape(-1, 7)
    an = np.asarray(anchor, dtype=float).reshape(-1, 7)
    d = np.hypot(an[:, 3], an[:, 4])
    out = np.empty_like(dr)
    out[:, 0] = dr[:, 0] * d + an[:, 0]
    out[:, 1] = dr[:, 1] * d + an[:, 1]
    out[:, 2] = dr[:, 2] * an[:, 5] + an[:, 2]
    out[:, 3:6] = np.exp(dr[:, 3:6]) * an[:, 3:6]
    out[:, 6] = geom.wrap_angles(dr[:, 6] + an[:, 6])
    return out


# ---------------------------------------------------------------------------
# Target assignment
# ---------------------------------------------------------------------------

POSITIVE, NEGATIVE, IGNORE = 1, 0, -1


@dataclass(frozen=True)
class RpnTargets:
    """Per-anchor labels and, for positives, residuals to the matched gt."""

    labels: np.ndarray  # (A,) in {POSITIVE, NEGATIVE, IGNORE}
    residuals: np.ndarray  # (A, 7), valid rows only where positive
    matched_gt: np.ndarray  # (A,) gt index, -1 where unmatched


def assign_targets(
    anchors: AnchorSet,
    gt_boxes: np.ndarray,
    gt_classes=None,
    pos_iou: float = 0.6,
    neg_iou: float = 0.45,
) -> RpnTargets:
    """Label anchors by BEV IoU against the (G, 7) ground-truth rows.

    An anchor is positive when its IoU with some same-class gt reaches
    pos_iou, or when it is that gt's best (highest-IoU, overlapping) match;
    negative when its max IoU is below neg_iou; ignored otherwise. Positives
    carry residuals to their best gt.
    """
    n = len(anchors)
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    residuals = np.zeros((n, 7))
    matched = np.full(n, -1, dtype=np.int64)
    gt = np.asarray(gt_boxes, dtype=float).reshape(-1, 7)
    if not len(gt):
        return RpnTargets(labels, residuals, matched)
    if gt_classes is None:
        gt_classes = [0] * len(gt)

    best_iou = np.zeros(n)
    best_gt = np.full(n, -1, dtype=np.int64)
    for g, (box, cls) in enumerate(zip(gt, gt_classes)):
        iou = geom.bev_iou(anchors.boxes, box)
        iou[anchors.class_ids != cls] = 0.0
        better = iou > best_iou
        best_iou[better] = iou[better]
        best_gt[better] = g
        # Promote the gt's single best overlapping anchor.
        top = float(iou.max(initial=0.0))
        if top > 0.0:
            a_idx = int(np.argmax(iou))
            labels[a_idx] = POSITIVE
            if iou[a_idx] >= best_iou[a_idx]:
                best_iou[a_idx] = iou[a_idx]
                best_gt[a_idx] = g

    labels[best_iou >= pos_iou] = POSITIVE
    ignore = (labels != POSITIVE) & (best_iou >= neg_iou)
    labels[ignore] = IGNORE

    pos = labels == POSITIVE
    if pos.any():
        matched[pos] = best_gt[pos]
        residuals[pos] = encode_residuals(gt[best_gt[pos]], anchors.boxes[pos])
    return RpnTargets(labels, residuals, matched)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

PROB_EPS = 1e-7


def focal_loss(pred_prob: np.ndarray, target: np.ndarray) -> float:
    """Focal loss (FOCAL_ALPHA, FOCAL_GAMMA) summed over elements, divided
    by max(1, #positives); predictions are clamped to [1e-7, 1 - 1e-7]
    before the logs."""
    alpha, gamma = FOCAL_ALPHA, FOCAL_GAMMA
    p = np.clip(np.asarray(pred_prob, dtype=float), PROB_EPS, 1.0 - PROB_EPS)
    t = np.asarray(target)
    pos = t == 1
    per = np.where(
        pos,
        -alpha * (1.0 - p) ** gamma * np.log(p),
        -(1.0 - alpha) * p**gamma * np.log(1.0 - p),
    )
    return float(per.sum()) / max(1, int(pos.sum()))


def focal_loss_grad(pred_prob: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d focal_loss / d pred_prob (zero where the clamp is active)."""
    alpha, gamma = FOCAL_ALPHA, FOCAL_GAMMA
    raw = np.asarray(pred_prob, dtype=float)
    p = np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)
    t = np.asarray(target)
    pos = t == 1
    g_pos = -alpha * (
        -gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) + (1.0 - p) ** gamma / p
    )
    g_neg = -(1.0 - alpha) * (
        gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p)
    )
    grad = np.where(pos, g_pos, g_neg)
    grad = np.where((raw > PROB_EPS) & (raw < 1.0 - PROB_EPS), grad, 0.0)
    return grad / max(1, int(pos.sum()))


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> float:
    """Huber-style loss summed over residual coordinates, averaged over rows."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.size == 0:
        return 0.0
    d = pred.reshape(-1, pred.shape[-1]) - target.reshape(-1, pred.shape[-1])
    per = np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
    return float(per.sum(axis=1).mean())


def smooth_l1_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d smooth_l1 / d pred, matching pred's shape."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.size == 0:
        return np.zeros_like(pred)
    rows = pred.reshape(-1, pred.shape[-1]).shape[0]
    d = pred - target
    return np.where(np.abs(d) < 1.0, d, np.sign(d)) / rows


# ---------------------------------------------------------------------------
# Proposal extraction
# ---------------------------------------------------------------------------

def check_decoded(rows: np.ndarray, scores: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row ("{what} i") that geom.check_boxes
    rejects or whose score is outside [0, 1] (Detection's rule)."""
    bad = ~((scores >= 0.0) & (scores <= 1.0))
    i = int(np.argmax(bad)) if bad.any() else len(rows)
    geom.check_boxes(rows[:i + 1], what)
    if i < len(rows):
        raise ValueError(f"{what} {i}: score must be in [0, 1], got {float(scores[i])!r}")


def decode_anchors(
    cls_map: np.ndarray, reg_map: np.ndarray, anchors: AnchorSet
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and decoded (A, 7) box rows of every anchor, validated by
    check_decoded. Raises ValueError when the maps do not cover the anchors.
    """
    scores = np.asarray(cls_map, dtype=float).reshape(-1)
    reg = np.asarray(reg_map, dtype=float).reshape(-1, 7)
    if scores.shape[0] != len(anchors) or reg.shape[0] != len(anchors):
        raise ValueError(
            f"maps cover {scores.shape[0]}/{reg.shape[0]} anchors, "
            f"expected {len(anchors)}"
        )
    decoded = decode_residuals(reg, anchors.boxes)
    check_decoded(decoded, scores, "anchor")
    return scores, decoded


@dataclass(frozen=True)
class Proposals:
    """Kept proposals in descending score order, as rows: (K, 7) decoded
    boxes, (K,) scores and (K,) class ids."""

    rows: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)


def extract_proposals(cls_map: np.ndarray, reg_map: np.ndarray, anchors: AnchorSet,
                      top_k: int) -> Proposals:
    """Decode every anchor, rank by score, NMS at PROPOSAL_NMS_IOU, keep top_k.

    Every decoded box and score is validated up front (decode_anchors);
    ranking and suppression run on the arrays in geom.nms, and the kept rows
    are the decoded rows, whose yaws decode_residuals has wrapped.

    Args:
        cls_map: (A,) per-anchor scores in [0, 1].
        reg_map: (A, 7) per-anchor residual predictions.
        anchors: the anchor set.

    Returns:
        The kept proposals in descending score order (at most top_k).
    """
    scores, decoded = decode_anchors(cls_map, reg_map, anchors)
    keep = geom.nms(decoded, scores, PROPOSAL_NMS_IOU, max_keep=top_k)
    return Proposals(decoded[keep], scores[keep], anchors.class_ids[keep])
