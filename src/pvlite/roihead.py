"""Proposal refinement: keypoint-to-grid RoI feature pooling, IoU-guided
confidence targets, proposal sampling, the refinement head and the final
NMS, plus the average-pooling ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, geom, nn, rpn
from .vsa import aggregate, radius_query

GRID_POINTS = config.GRID_RESOLUTION**3


def roi_grid_pool(
    rois: np.ndarray,
    keypoints: np.ndarray,
    branch_mlps: list[nn.MlpParams],
    pool_mlp: nn.MlpParams,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate weighted keypoint features onto each proposal's grid points.

    Each grid point runs set abstraction over the keypoints inside each of
    the two radii (receptive fields extend beyond the RoI boundary); the two
    branch outputs are concatenated per grid point, all 216 grid features
    are vectorized, and a two-layer MLP maps them to the pooled RoI feature.
    rois are (R, 7) box rows; keypoints is the (n, d + 3) matrix
    [features | xyz] of the keypoints.

    The grid points of all RoIs share one neighbour search for both
    GRID_RADII. Grid point j of rois[p] keeps at most GRID_CAP neighbours at
    radius index r, drawn from the stream [seed + 31 * p + r, j]; a seed
    with a key outside [0, 2**64 - 1] raises ValueError.

    Then each RoI makes one vsa.aggregate call per radius over its 216
    grid points, and all 2R calls run as one aggregate. The pool MLP runs
    once on the (R, 1, 216 * width) stack, so each RoI's row rounds as a
    one-row call does. Neither output depends on the thread count.

    Returns:
        (grid_features (R, 216, sum of branch widths), roi_features
        (R, pool_mlp.out_width)).
    """
    rows = np.asarray(rois, dtype=float).reshape(-1, 7)
    n_rois = rows.shape[0]
    if not 0 <= seed <= 2**64 - 31 * (n_rois - 1) - len(config.GRID_RADII):
        raise ValueError(f"seed {seed} keys {n_rois} RoIs outside [0, 2**64 - 1]")
    keypoints = np.asarray(keypoints, dtype=float)
    grids = geom.roi_grid_points(rows)
    keys = np.stack([np.repeat(seed + 31 * np.arange(n_rois, dtype=np.uint64), GRID_POINTS),
                     np.tile(np.arange(GRID_POINTS, dtype=np.uint64), n_rois)], axis=1)
    neigh = radius_query(grids.reshape(-1, 3), keypoints[:, -3:],
                         config.GRID_RADII, config.GRID_CAP, seed=keys)
    # Call k = r * R + i is RoI i at radius index r: the k-th 216 lists.
    calls = [(grids[k % n_rois], neigh[k * GRID_POINTS : (k + 1) * GRID_POINTS], keypoints,
              branch_mlps[k // n_rois]) for k in range(len(branch_mlps) * n_rois)]
    cols = np.cumsum([0] + [mlp.out_width for mlp in branch_mlps])
    grid_features = np.empty((n_rois, GRID_POINTS, cols[-1]))
    for k, out in enumerate(aggregate(calls)):
        r, i = divmod(k, n_rois)
        grid_features[i, :, cols[r] : cols[r + 1]] = out
    stack = grid_features.reshape(n_rois, 1, GRID_POINTS * cols[-1])
    return grid_features, nn.mlp_layers(pool_mlp, stack)[-1][:, 0]


def grid_reach(points: np.ndarray, rois: np.ndarray) -> np.ndarray:
    """(N,) mask of the points some grid point of the (R, 7) rois can find
    at a radius of GRID_RADII: those inside a RoI box grown by
    max(GRID_RADII) on every side, plus a rounding pad as radius_query pads
    its cells. Grid points lie inside their box, so this holds every point
    within max(GRID_RADII) of one, and maybe a few more."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    grown = np.asarray(rois, dtype=float).reshape(-1, 7).copy()
    if not grown.size:
        return np.zeros(len(pts), dtype=bool)
    scale = max(np.abs(pts).max(initial=0.0), np.abs(grown[:, :6]).max())
    grown[:, 3:6] += 2 * (max(config.GRID_RADII) * (1.0 + 1e-9) + 1e-12 * scale)
    return geom.points_in_box(pts, grown).any(axis=1)


def average_pool_roi(
    roi: np.ndarray, keypoint_positions: np.ndarray, keypoint_features: np.ndarray
) -> np.ndarray:
    """Baseline pooling: mean of the keypoint features inside the proposal's
    (7,) box row (zero vector when it contains no keypoint). Output width
    equals the keypoint feature width."""
    kp = np.asarray(keypoint_positions, dtype=float).reshape(-1, 3)
    feats = np.asarray(keypoint_features, dtype=float)
    if kp.shape[0] == 0:
        return np.zeros(feats.shape[1] if feats.ndim == 2 else 0)
    inside = geom.points_in_box(kp, roi)
    if not inside.any():
        return np.zeros(feats.shape[1])
    return feats[inside].mean(axis=0)


def confidence_target(iou):
    """Quality-aware confidence target: min(1, max(0, 2*iou - 0.5))."""
    return np.minimum(1.0, np.maximum(0.0, 2.0 * np.asarray(iou, dtype=float) - 0.5))


def iou_bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Binary cross-entropy against soft confidence targets, averaged over
    the sampled RoIs. Predictions are clamped away from {0, 1}."""
    p = np.clip(np.asarray(pred, dtype=float), rpn.PROB_EPS, 1.0 - rpn.PROB_EPS)
    y = np.asarray(target, dtype=float)
    if p.size == 0:
        return 0.0
    per = -y * np.log(p) - (1.0 - y) * np.log(1.0 - p)
    return float(per.mean())


def iou_bce_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d iou_bce_loss / d pred (zero where the clamp is active)."""
    raw = np.asarray(pred, dtype=float)
    p = np.clip(raw, rpn.PROB_EPS, 1.0 - rpn.PROB_EPS)
    y = np.asarray(target, dtype=float)
    if p.size == 0:
        return np.zeros_like(p)
    g = (-y / p + (1.0 - y) / (1.0 - p)) / p.size
    return np.where((raw > rpn.PROB_EPS) & (raw < 1.0 - rpn.PROB_EPS), g, 0.0)


@dataclass(frozen=True)
class RefineTargets:
    """Per-sampled-RoI training targets."""

    y: np.ndarray  # (S,) confidence targets in [0, 1]
    residuals: np.ndarray  # (S, 7), valid rows only where positive
    positive: np.ndarray  # (S,) bool
    matched_gt: np.ndarray  # (S,) gt index, -1 where no overlap


def sample_proposals(
    proposals: np.ndarray,
    gt: np.ndarray,
    seed: int,
    n_sample: int,
):
    """Sample RoIs for refinement training at a 1:1 positive:negative ratio.

    proposals are (N, 7) box rows, such as pipeline.training_proposals
    returns, and gt the scene's (G, 7) rows. A proposal is positive when its
    best 3D IoU with the ground truth reaches ROI_POS_IOU; positives carry
    residuals of their best gt encoded against the proposal row, all in one
    call. Confidence targets follow the piecewise linear IoU mapping for
    every sampled RoI. When one side has fewer than n_sample/2 candidates the
    other side fills the remainder. One iou_3d call covers every (proposal,
    gt) pair whose bounding circles meet; each proposal takes the first gt of
    highest IoU.

    Returns:
        (sampled (S, 7) rows, RefineTargets); empty when there are no
        proposals.
    """
    rows = np.asarray(proposals, dtype=float).reshape(-1, 7)
    gt_rows = np.asarray(gt, dtype=float).reshape(-1, 7)
    pi, pg = np.nonzero(geom.circles_meet(rows[:, None], gt_rows[None]))
    iou = np.zeros((len(rows), len(gt_rows) + 1))  # column 0: no overlap
    iou[pi, pg + 1] = geom.iou_3d(rows[pi], gt_rows[pg])
    best_iou = iou.max(axis=1)
    best_gt = np.argmax(iou, axis=1) - 1

    pos_idx = np.flatnonzero(best_iou >= config.ROI_POS_IOU)
    neg_idx = np.flatnonzero(best_iou < config.ROI_POS_IOU)
    rng = np.random.default_rng(seed)
    half = n_sample // 2
    take_pos = min(half, pos_idx.size)
    take_neg = min(n_sample - take_pos, neg_idx.size)
    take_pos = min(n_sample - take_neg, pos_idx.size)  # short side fills over
    chosen_pos = rng.choice(pos_idx, size=take_pos, replace=False) if take_pos else np.empty(0, np.int64)
    chosen_neg = rng.choice(neg_idx, size=take_neg, replace=False) if take_neg else np.empty(0, np.int64)
    chosen = np.concatenate([np.sort(chosen_pos), np.sort(chosen_neg)]).astype(np.int64)

    y = confidence_target(best_iou[chosen])
    positive = best_iou[chosen] >= config.ROI_POS_IOU
    matched = best_gt[chosen]
    residuals = np.zeros((len(chosen), 7))
    residuals[positive] = rpn.encode_residuals(gt_rows[matched[positive]],
                                               rows[chosen[positive]])
    return rows[chosen], RefineTargets(y, residuals, positive, matched)


@dataclass
class RefineHead:
    """Shared trunk plus confidence and box-refinement branches."""

    shared: nn.MlpParams  # identity output
    confidence: nn.MlpParams  # sigmoid output, width 1
    regression: nn.MlpParams  # identity output, width 7

    def __post_init__(self):
        if self.confidence.out_width != 1 or self.confidence.out_activation != "sigmoid":
            raise nn.ShapeError("confidence branch must be sigmoid with width 1")
        if self.regression.out_width != 7:
            raise nn.ShapeError("regression branch must output 7 residuals")

    def copy(self) -> "RefineHead":
        return RefineHead(self.shared.copy(), self.confidence.copy(),
                          self.regression.copy())

    def forward(self, x: np.ndarray):
        """The (trunk, confidence, regression) layer lists of the head on RoI
        features x, (S, d) rows or an (R, 1, d) stack (nn.mlp_layers)."""
        trunk = nn.mlp_layers(self.shared, x)
        return (trunk, nn.mlp_layers(self.confidence, trunk[-1]),
                nn.mlp_layers(self.regression, trunk[-1]))


def refine(roi_features: np.ndarray, rois: np.ndarray, head: RefineHead):
    """Predict a confidence and a box residual for each RoI.

    roi_features are (R, d) rows pooled from the (R, 7) box rows rois. The
    head runs once on their (R, 1, d) stack, so each RoI rounds as a
    one-row call does.

    Returns:
        (confidences (R,), residuals (R, 7), refined (R, 7) rows): residuals
        decoded against the RoIs and checked by rpn.check_decoded ("RoI i").
    """
    _, conf, res = head.forward(np.asarray(roi_features, dtype=float)[:, None])
    conf, residuals = conf[-1][:, 0, 0], res[-1][:, 0]
    refined = rpn.decode_residuals(residuals, rois)
    rpn.check_decoded(refined, conf, "RoI")
    return conf, residuals, refined


def rcnn_loss(
    confidences: np.ndarray, residual_preds: np.ndarray, targets: RefineTargets
):
    """Confidence BCE plus smooth-L1 box loss over positives, equal weight.

    Returns:
        (total, components) with 'iou' and 'reg' entries.
    """
    iou_term = iou_bce_loss(confidences, targets.y)
    pos = targets.positive
    reg_term = rpn.smooth_l1(
        np.asarray(residual_preds, dtype=float)[pos], targets.residuals[pos]
    )
    return iou_term + reg_term, {"iou": iou_term, "reg": reg_term}


def final_select(boxes: np.ndarray, scores: np.ndarray) -> list[int]:
    """Greedy NMS at FINAL_NMS_IOU over refined (R, 7) box rows and their
    (R,) confidences to drop near-duplicates.

    Returns:
        The kept row indices, by descending score.
    """
    return geom.nms(boxes, scores, config.FINAL_NMS_IOU)
