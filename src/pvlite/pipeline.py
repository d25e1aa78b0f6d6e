"""End-to-end glue: model parameter bundles, the per-scene forward pass,
head-only training loops, and the pooling benchmark.

Backbone and aggregation weights are fixed random (seed-derived) and never
trained; only the keypoint-weighting and refinement heads have training
loops. Every stage is deterministic given (scene, config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, geom, nn, roihead, rpn, vsa
from .config import Config
from .geom import Detection
from .roihead import RefineHead, RefineTargets
from .rpn import AnchorSet, BevGrid, Proposals
from .sparsegrid import (
    BackboneParams, BevMap, SparseTensor, bev_collapse, grid_shape_for,
    in_range, init_backbone, run_backbone, voxelize,
)
from .synth import SceneSample
from .vsa import KeypointSet

POINT_FEATURES = 4  # x, y, z, intensity


def level_grid_shapes(cfg: Config) -> list[tuple[int, int, int]]:
    """Grid shapes of the four backbone levels (each level halves, rounding up)."""
    shape = grid_shape_for(cfg.range_min, cfg.range_max, cfg.voxel_size)
    shapes = [shape]
    for _ in range(3):
        shape = tuple(-(-s // 2) for s in shape)
        shapes.append(shape)
    return shapes


def bev_channels(cfg: Config) -> int:
    return level_grid_shapes(cfg)[3][2] * config.BACKBONE_WIDTHS[3]


def keypoint_feature_width(cfg: Config) -> int:
    pv = 2 * len(config.VSA_RADII) * config.VSA_BRANCH_WIDTH
    raw = 2 * config.RAW_BRANCH_WIDTH
    return pv + raw + bev_channels(cfg)


def bev_grid(cfg: Config) -> BevGrid:
    nx, ny, _ = level_grid_shapes(cfg)[3]
    return BevGrid(
        origin=(cfg.range_min[0], cfg.range_min[1]),
        cell_size=(cfg.voxel_size[0] * 8, cfg.voxel_size[1] * 8),
        nx=nx,
        ny=ny,
    )


@dataclass
class ModelParams:
    """All network parameters of the pipeline."""

    backbone: BackboneParams
    rpn_head: nn.MlpParams
    vsa_mlps: list[list[nn.MlpParams]]
    raw_mlps: list[nn.MlpParams]
    pkw: nn.MlpParams
    grid_mlps: list[nn.MlpParams]
    pool_mlp: nn.MlpParams
    refine: RefineHead


# Final-layer damping for the proposal head: keeps untrained residual
# predictions near zero so initial proposals stay close to their anchors.
RPN_HEAD_OUT_SCALE = 0.01


def build_model(cfg: Config, seed: int) -> ModelParams:
    """Deterministic seed-derived parameters sized from the config."""
    widths = config.BACKBONE_WIDTHS
    backbone = init_backbone(POINT_FEATURES, widths, seed=[seed, 0])
    per_cell = 2 * len(cfg.classes)
    rpn_head = nn.init_params(
        (bev_channels(cfg), config.RPN_HIDDEN, per_cell * 8), seed=[seed, 1]
    )
    rpn_head.weights[-1] *= RPN_HEAD_OUT_SCALE
    rpn_head.biases[-1] *= RPN_HEAD_OUT_SCALE
    vsa_mlps = [
        [
            nn.init_params(
                (widths[k] + 3, config.VSA_BRANCH_WIDTH, config.VSA_BRANCH_WIDTH),
                seed=[seed, 2, k, r],
            )
            for r in range(2)
        ]
        for k in range(4)
    ]
    raw_mlps = [
        nn.init_params((1 + 3, config.RAW_BRANCH_WIDTH, config.RAW_BRANCH_WIDTH),
                       seed=[seed, 3, r])
        for r in range(2)
    ]
    d = keypoint_feature_width(cfg)
    pkw = nn.init_params((d, *config.PKW_HIDDEN, 1), seed=[seed, 4],
                         out_activation="sigmoid")
    grid_mlps = [
        nn.init_params((d + 3, config.GRID_BRANCH_WIDTH, config.GRID_BRANCH_WIDTH),
                       seed=[seed, 5, r])
        for r in range(2)
    ]
    pool_in = roihead.GRID_POINTS * 2 * config.GRID_BRANCH_WIDTH
    pool_mlp = nn.init_params(
        (pool_in, config.ROI_FEATURE_WIDTH, config.ROI_FEATURE_WIDTH), seed=[seed, 6]
    )
    refine = RefineHead(
        shared=nn.init_params(
            (config.ROI_FEATURE_WIDTH, config.REFINE_HIDDEN, config.REFINE_HIDDEN),
            seed=[seed, 7],
        ),
        confidence=nn.init_params((config.REFINE_HIDDEN, 1), seed=[seed, 8],
                                  out_activation="sigmoid"),
        regression=nn.init_params((config.REFINE_HIDDEN, 7), seed=[seed, 9]),
    )
    return ModelParams(backbone, rpn_head, vsa_mlps, raw_mlps, pkw, grid_mlps,
                       pool_mlp, refine)


def apply_param_sections(model: ModelParams, sections: dict[str, nn.MlpParams]) -> None:
    """Replace trainable heads with loaded sections. Each section must have
    the layer dims and output activation of the head it replaces."""
    heads = {"pkw": (model, "pkw"), "refine_shared": (model.refine, "shared"),
             "refine_confidence": (model.refine, "confidence"),
             "refine_regression": (model.refine, "regression")}
    for name, params in sections.items():
        if name not in heads:
            raise nn.ParamFileError(f"unknown parameter section {name!r}")
        owner, attr = heads[name]
        have = getattr(owner, attr)
        if (params.layer_dims, params.out_activation) != (have.layer_dims,
                                                          have.out_activation):
            raise nn.ShapeError(
                f"{name} dims {params.layer_dims} out={params.out_activation} "
                f"!= model {have.layer_dims} out={have.out_activation}")
        setattr(owner, attr, params)


def rpn_head_outputs(model: ModelParams, bev: BevMap, num_classes: int):
    """Per-anchor classification probabilities and residual predictions.

    The head runs on the occupied rows and each cell takes its row's output:
    a dense pass's bits wherever BLAS rounds a row alike at both row counts
    (OpenBLAS 0.3.31 does at these widths for any count above one).
    """
    out = nn.mlp_forward(model.rpn_head, bev.rows)[bev.index.ravel()]
    per_cell = 2 * num_classes
    logits = out[:, :per_cell]
    res = out[:, per_cell:].reshape(-1, per_cell, 7)
    cls_probs = nn.sigmoid(logits).reshape(-1)
    reg = res.reshape(-1, 7)
    return cls_probs, reg


def build_keypoints(
    scene: SceneSample,
    tensors: list[SparseTensor],
    bev: BevMap,
    cfg: Config,
    model: ModelParams,
    seed: int,
    rois: np.ndarray | None,
) -> KeypointSet:
    """Sample keypoints by FPS and attach multi-source features plus
    foreground weighting. Only in-range points (those voxelize keeps) are
    sampled and aggregated; KeypointSet.indices index the whole raw cloud.

    Given (R, 7) rows rois, only the keypoints that RoI-grid pooling over
    them can reach (roihead.grid_reach) are kept, in FPS order; None keeps
    all cfg.num_keypoints. Keypoint i of the FPS order draws its neighbour
    caps as i, so a kept keypoint's rows equal its rows in the full set
    (in every subset of 21 or more measured; see vsa.PKW_ROW_GROUP)."""
    pts = scene.points_f64()
    kept = np.flatnonzero(in_range(pts[:, :3], cfg.range_min, cfg.range_max))
    idx = kept[vsa.fps(pts[kept, :3], cfg.num_keypoints)]
    ids = np.arange(idx.size)
    if rois is not None:
        ids = np.flatnonzero(roihead.grid_reach(pts[idx, :3], rois))
    idx = idx[ids]
    positions = pts[idx, :3]
    f_pv = vsa.vsa_multi_level(positions, tensors, model.vsa_mlps, seed, ids=ids)
    f_p = vsa.extended_vsa(positions, f_pv, pts[kept], bev, model.raw_mlps, seed, ids=ids)
    weighted, scores, labels = vsa.pkw(positions, f_p, scene.gt_boxes, model.pkw)
    return KeypointSet(positions, idx, f_p, np.hstack([weighted, positions]),
                       scores, labels)


def _scene_front(cfg: Config, model: ModelParams,
                 scene: SceneSample) -> tuple[list[SparseTensor], BevMap] | None:
    """Voxelize, backbone and BEV collapse of one scene, the front end that
    run_scene and both batch builders share: (backbone levels, BEV map), or
    None for a scene with no in-range point. Each caller passes the levels
    to build_keypoints once it knows the RoIs the keypoints serve."""
    level1 = voxelize(scene.points_f64(), cfg.range_min, cfg.range_max,
                      cfg.voxel_size)
    if level1.num_voxels == 0:
        return None
    tensors = run_backbone(level1, model.backbone)
    return tensors, bev_collapse(tensors[3])


@dataclass
class PipelineResult:
    """Everything a command might need from one scene's forward pass."""

    detections: list[Detection]
    proposals: Proposals
    keypoints: KeypointSet | None


def run_scene(
    scene: SceneSample, model: ModelParams, cfg: Config, anchors: AnchorSet,
    seed: int,
) -> PipelineResult:
    """Full forward pipeline on one scene: the shared front end, proposals
    from the BEV map, the keypoints those proposals can pool, RoI-grid
    pooling, refinement and final NMS.

    A scene with no in-range points yields empty outputs at every stage.
    """
    front = _scene_front(cfg, model, scene)
    if front is None:
        return PipelineResult([], Proposals(np.empty((0, 7)), np.empty(0),
                                            np.empty(0, dtype=np.int64)), None)
    cls_probs, reg = rpn_head_outputs(model, front[1], len(cfg.classes))
    proposals = rpn.extract_proposals(cls_probs, reg, anchors,
                                      top_k=cfg.top_proposals)
    keypoints = build_keypoints(scene, *front, cfg, model, seed, proposals.rows)
    del front  # frees the backbone levels before pooling
    _, roi_features = roihead.roi_grid_pool(proposals.rows, keypoints.weighted_xyz,
                                            model.grid_mlps, model.pool_mlp, seed)
    conf, _, refined = roihead.refine(roi_features, proposals.rows, model.refine)
    detections = [Detection(geom.box_from_array(refined[i]), float(conf[i]),
                            int(proposals.class_ids[i]))
                  for i in roihead.final_select(refined, conf)]
    return PipelineResult(detections, proposals, keypoints)


# ---------------------------------------------------------------------------
# Head-only training
# ---------------------------------------------------------------------------

def _check_loss(head: str, losses: list[float], lr: float) -> None:
    if not np.isfinite(losses[-1]):
        raise FloatingPointError(f"{head} training diverged: loss {losses[-1]} at "
                                 f"iteration {len(losses) - 1} with lr {lr}")


def _sgd_step(params: nn.MlpParams, w_grads, b_grads, lr: float) -> None:
    for w, b, gw, gb in zip(params.weights, params.biases, w_grads, b_grads):
        w -= lr * gw
        b -= lr * gb


@dataclass
class PkwBatch:
    """Cached keypoint features and segmentation labels."""

    features: np.ndarray  # (n, D)
    labels: np.ndarray  # (n,)


def build_pkw_batch(cfg: Config, model: ModelParams, scenes: list[SceneSample],
                    seed: int) -> PkwBatch:
    """Keypoint features and labels of every scene; scene s draws from
    seed + 101 * s. With no keypoints at all the batch has 0 rows."""
    feats = [np.empty((0, keypoint_feature_width(cfg)))]
    labels = [np.empty(0, dtype=np.int64)]
    for s_idx, scene in enumerate(scenes):
        front = _scene_front(cfg, model, scene)
        if front is None:
            continue
        kp = build_keypoints(scene, *front, cfg, model, seed + 101 * s_idx, None)
        del front  # frees the backbone levels before the next scene's
        feats.append(kp.f_p)
        labels.append(kp.labels)
    return PkwBatch(np.concatenate(feats, axis=0), np.concatenate(labels))


def train_pkw(
    head: nn.MlpParams, batch: PkwBatch, iters: int, lr: float
):
    """Full-batch SGD on the focal segmentation loss.

    Returns:
        (trained_params, per-iteration losses, final accuracy at 0.5).
    """
    params = head.copy()
    losses = []
    for _ in range(iters):
        layers = nn.mlp_layers(params, batch.features)
        scores = layers[-1][:, 0]
        losses.append(vsa.seg_loss(scores, batch.labels))
        _check_loss("pkw", losses, lr)
        up = rpn.focal_loss_grad(scores, batch.labels)[:, None]
        w_g, b_g, _ = nn.mlp_backward(params, batch.features, layers, up,
                                      input_grad=False)
        _sgd_step(params, w_g, b_g, lr)
    scores = nn.mlp_forward(params, batch.features)[:, 0]
    acc = float(((scores > 0.5).astype(int) == batch.labels).mean())
    return params, losses, acc


@dataclass
class RefineBatch:
    """Cached pooled RoI features with refinement targets."""

    features: np.ndarray  # (S, roi_feature_width)
    rois: np.ndarray  # (S, 7) sampled box rows
    targets: RefineTargets
    matched_boxes: np.ndarray  # (S, 7) matched gt rows, NaN where matched_gt is -1


def training_proposals(
    model: ModelParams, cfg: Config, anchors: AnchorSet, bev: BevMap
) -> np.ndarray:
    """Every anchor decoded through the regression head, as (A, 7) box rows
    validated as in rpn.extract_proposals. No ranking, NMS or truncation:
    the classification scores are untrained at desk scale, so refinement
    training samples from the full decoded set."""
    cls_probs, reg = rpn_head_outputs(model, bev, len(cfg.classes))
    return rpn.decode_anchors(cls_probs, reg, anchors)[1]


def build_refine_batch(
    cfg: Config, model: ModelParams, scenes: list[SceneSample],
    anchors: AnchorSet, seed: int,
) -> RefineBatch:
    feats = [np.empty((0, config.ROI_FEATURE_WIDTH))]
    rois, matched = [np.empty((0, 7))], [np.empty((0, 7))]
    parts = [RefineTargets(np.empty(0), np.empty((0, 7)), np.empty(0, dtype=bool),
                           np.empty(0, dtype=np.int64))]
    for s_idx, scene in enumerate(scenes):
        front = _scene_front(cfg, model, scene)
        if front is None:
            continue
        sampled, targets = roihead.sample_proposals(
            training_proposals(model, cfg, anchors, front[1]),
            scene.gt_boxes, seed + 977 * s_idx, n_sample=cfg.roi_samples,
        )
        kp = build_keypoints(scene, *front, cfg, model, seed + 101 * s_idx, sampled)
        del front  # frees the backbone levels before pooling
        feats.append(roihead.roi_grid_pool(sampled, kp.weighted_xyz, model.grid_mlps,
                                           model.pool_mlp, seed + 7919 * s_idx)[1])
        rois.append(sampled)
        matched.append(np.vstack([scene.gt_boxes, np.full(7, np.nan)])[targets.matched_gt])
        parts.append(targets)
    combined = RefineTargets(*(np.concatenate([getattr(t, f) for t in parts])
                               for f in ("y", "residuals", "positive", "matched_gt")))
    return RefineBatch(np.concatenate(feats), np.concatenate(rois), combined,
                       np.concatenate(matched))


def train_refine(head: RefineHead, batch: RefineBatch, iters: int, lr: float):
    """Full-batch SGD on the confidence + box refinement loss.

    Returns:
        (trained_head, per-iteration losses).
    """
    h = head.copy()
    losses = []
    pos = batch.targets.positive
    for _ in range(iters):
        shared, confidence, regression = h.forward(batch.features)
        trunk = shared[-1]
        conf, res = confidence[-1][:, 0], regression[-1]
        total, _parts = roihead.rcnn_loss(conf, res, batch.targets)
        losses.append(total)
        _check_loss("refine", losses, lr)

        up_conf = roihead.iou_bce_grad(conf, batch.targets.y)[:, None]
        cw, cb, d_trunk_conf = nn.mlp_backward(h.confidence, trunk, confidence, up_conf)
        up_res = np.zeros_like(res)
        up_res[pos] = rpn.smooth_l1_grad(res[pos], batch.targets.residuals[pos])
        rw, rb, d_trunk_res = nn.mlp_backward(h.regression, trunk, regression, up_res)
        sw, sb, _ = nn.mlp_backward(h.shared, batch.features, shared,
                                    d_trunk_conf + d_trunk_res, input_grad=False)
        _sgd_step(h.confidence, cw, cb, lr)
        _sgd_step(h.regression, rw, rb, lr)
        _sgd_step(h.shared, sw, sb, lr)
    return h, losses


def matched_iou_stats(head: RefineHead, batch: RefineBatch):
    """Mean 3D IoU against the matched gt for raw vs refined positive RoIs.
    The batch's rois and matched_boxes may also be lists of (7,) rows. A
    refined row that geom.check_boxes rejects raises ValueError naming it
    ("refined RoI i", counting the positives).

    Returns:
        (mean_raw, mean_refined); (nan, nan) when there are no positives.
    """
    pos = np.flatnonzero(batch.targets.positive)
    if pos.size == 0:
        return float("nan"), float("nan")
    res = head.forward(batch.features)[-1][-1]  # the regression branch's output
    rois = np.asarray(batch.rois, dtype=float).reshape(-1, 7)[pos]
    gts = np.asarray(batch.matched_boxes, dtype=float).reshape(-1, 7)[pos]
    refined = rpn.decode_residuals(res[pos], rois)
    geom.check_boxes(refined, "refined RoI")
    return (float(np.mean(geom.iou_3d(rois, gts))),
            float(np.mean(geom.iou_3d(refined, gts))))


# ---------------------------------------------------------------------------
# Pooling benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    strategy: str
    rois: int
    nonzero_fraction: float
    feature_width: int


def bench_pooling(
    model: ModelParams, keypoints: KeypointSet, rois: np.ndarray,
    strategy: str, seed: int,
) -> BenchReport:
    """Run one pooling strategy over the (R, 7) proposal rows rois.

    The roi_grid strategy reports the fraction of (RoI, grid point) rows
    with a nonzero aggregated feature; the averaging baseline reports the
    fraction of RoIs whose pooled vector is nonzero.
    """
    if strategy == "roi_grid":
        width = 2 * config.GRID_BRANCH_WIDTH
        grid_features, _ = roihead.roi_grid_pool(rois, keypoints.weighted_xyz,
                                                 model.grid_mlps, model.pool_mlp, seed)
        rows = grid_features.reshape(-1, width)
    elif strategy == "average_pool":
        width = keypoints.feature_width
        rows = np.array([roihead.average_pool_roi(roi, keypoints.positions,
                                                  keypoints.weighted)
                         for roi in rois]).reshape(-1, width)
    else:
        raise ValueError(f"unknown pooling strategy {strategy!r}")
    nonzero = int((rows != 0.0).any(axis=1).sum())
    frac = nonzero / len(rows) if len(rows) else 0.0
    return BenchReport(strategy, len(rois), frac, width)
