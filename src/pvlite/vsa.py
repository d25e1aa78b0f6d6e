"""Keypoint sampling and voxel set abstraction.

Farthest point sampling picks scene keypoints; set abstraction aggregates
neighboring voxel / point features through a small MLP followed by a
channel-wise max. Multi-level aggregation concatenates per-(level, radius)
branches, then raw-point and BEV features; predicted keypoint weighting
rescales each keypoint row by a learned foreground score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom, nn, rpn
from .geom import Box3D
from .sparsegrid import BevMap, SparseTensor, bilinear_sample, voxel_centers


def fps(points: np.ndarray, n: int) -> np.ndarray:
    """Greedy farthest point sampling.

    Repeatedly selects the point maximizing distance to the selected set,
    starting at index 0, breaking ties by lowest index. When the cloud
    has fewer than n points the selected order repeats cyclically.

    Args:
        points: (N, 3) positions, N >= 1.
        n: number of indices to return.

    Returns:
        (n,) int array of indices into points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    num = pts.shape[0]
    if num == 0:
        raise ValueError("fps requires at least one point")
    distinct = min(n, num)
    sel = np.empty(distinct, dtype=np.int64)
    sel[0] = 0
    best = ((pts - pts[0]) ** 2).sum(axis=1)
    for s in range(1, distinct):
        nxt = int(np.argmax(best))  # argmax takes the lowest index on ties
        sel[s] = nxt
        np.minimum(best, ((pts - pts[nxt]) ** 2).sum(axis=1), out=best)
    if n <= distinct:
        return sel[:n]
    reps = np.arange(n) % distinct
    return sel[reps]


# Most candidate (query, point) pairs radius_query holds at once (~6 MB).
QUERY_CHUNK_PAIRS = 60_000


def radius_query(
    queries: np.ndarray,
    points: np.ndarray,
    radius: float,
    cap: int,
    seed: int | np.ndarray,
) -> list[np.ndarray]:
    """Neighbors of each query strictly within a radius, capped by subsampling.

    A cell-list search: points are sorted into cubic cells at least `radius`
    wide and each query tests the points of its 27 surrounding cells for
    squared distance < radius**2. A point or query with a non-finite
    coordinate has no neighbors. When a query has more than `cap` neighbors
    a seeded uniform subsample of exactly `cap` is kept.

    Args:
        queries: (M, 3).
        points: (N, 3).
        radius: meters, > 0.
        cap: max neighbors per query.
        seed: an int, where query i subsamples from the stream [seed, i], or
            an (M, 2) int array whose row i is query i's stream key.

    Returns:
        List of M int arrays of neighbor indices (ascending).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    q = np.asarray(queries, dtype=float).reshape(-1, 3)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    m, n = q.shape[0], p.shape[0]
    per_query = np.ndim(seed) > 0
    if per_query and np.shape(seed) != (m, 2):
        raise ValueError(f"per-query seeds must have shape ({m}, 2), "
                         f"got {np.shape(seed)}")
    ok_p, ok_q = (np.flatnonzero(np.isfinite(a).all(axis=1)) for a in (p, q))
    if ok_p.size == 0 or ok_q.size == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(m)]
    # Cells at least `radius` wide, padded so that rounding in the division
    # and the floor never puts a pair that passes the test two cells apart.
    scale = max(np.abs(p[ok_p]).max(), np.abs(q[ok_q]).max())
    width = radius * (1.0 + 1e-9) + 1e-12 * scale
    pcell = np.floor(p[ok_p] / width).astype(np.int64)
    qcell = np.floor(q[ok_q] / width).astype(np.int64)
    # Keys of a cell and of the 27 around each query: mixed radix of per-axis
    # ranks among occupied coordinates, below (N + 1)**3 however far apart
    # the points are. A coordinate no point has ranks vals.size: no match.
    pkey = np.zeros(ok_p.size, dtype=np.int64)
    qkey = np.zeros((ok_q.size, 1), dtype=np.int64)
    for a in range(3):
        vals = np.unique(pcell[:, a])
        near = qcell[:, a, None] + np.arange(-1, 2)
        rank = np.searchsorted(vals, near)
        rank[vals[np.minimum(rank, vals.size - 1)] != near] = vals.size
        radix = vals.size + 1
        pkey = pkey * radix + np.searchsorted(vals, pcell[:, a])
        qkey = (qkey[:, :, None] * radix + rank[:, None]).reshape(ok_q.size, -1)
    order = np.argsort(pkey, kind="stable")
    point_of, pkey = ok_p[order], pkey[order]
    lo = np.searchsorted(pkey, qkey)
    run = np.searchsorted(pkey, qkey, side="right") - lo
    cand = run.sum(axis=1)
    bound = np.concatenate([[0], np.cumsum(cand)])
    pairs, s = [], 0  # query * n + point, sorted
    while s < ok_q.size:  # chunks of at most QUERY_CHUNK_PAIRS candidates
        e = np.searchsorted(bound, bound[s] + QUERY_CHUNK_PAIRS, side="right")
        e = max(int(e) - 1, s + 1)
        lens = run[s:e].ravel()
        pos = np.repeat(lo[s:e].ravel() - np.cumsum(lens) + lens, lens)
        pidx = point_of[pos + np.arange(pos.size)]
        qidx = np.repeat(ok_q[s:e], cand[s:e])
        keep = ((p[pidx] - q[qidx]) ** 2).sum(axis=1) < radius * radius
        pairs.append(np.sort(qidx[keep] * n + pidx[keep]))
        s = e
    pairs = np.concatenate(pairs)
    flat, offsets = pairs % n, np.searchsorted(pairs // n, np.arange(m + 1))
    out = [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    for qi in np.flatnonzero(np.diff(offsets) > cap):
        key = seed[qi] if per_query else (seed, qi)
        rng = np.random.default_rng([int(k) for k in key])
        out[qi] = out[qi][np.sort(rng.choice(len(out[qi]), size=cap, replace=False))]
    return out


def set_abstraction(
    center: np.ndarray,
    neighbor_feats: np.ndarray,
    neighbor_positions: np.ndarray,
    mlp: nn.MlpParams,
) -> np.ndarray:
    """Channel-wise max of the MLP applied to [feature; position - center]
    per neighbor: _aggregate_branch over one query. An empty neighborhood
    yields the zero vector."""
    feats = np.asarray(neighbor_feats, dtype=float)
    pos = np.asarray(neighbor_positions, dtype=float).reshape(-1, 3)
    feats = feats.reshape(pos.shape[0], -1) if feats.size else feats.reshape(0, mlp.in_width - 3)
    if feats.shape[0] == 0:
        return np.zeros(mlp.out_width)
    if feats.shape[1] + 3 != mlp.in_width:
        raise nn.ShapeError(
            f"MLP expects width {mlp.in_width}, got features {feats.shape[1]} + 3"
        )
    query = np.asarray(center, dtype=float).reshape(1, 3)
    return _aggregate_branch(query, [np.arange(pos.shape[0])], pos, feats, mlp)[0]


# Rows _aggregate_branch gathers at a time, so that no full-size temporary
# copy of the gathered neighbour features is held next to the MLP input.
GATHER_CHUNK_ROWS = 8192


def _aggregate_branch(
    queries: np.ndarray,
    neighbor_lists: list[np.ndarray],
    positions: np.ndarray,
    features: np.ndarray,
    mlp: nn.MlpParams,
) -> np.ndarray:
    """set_abstraction for every query at once (one MLP pass, segment max)."""
    m = queries.shape[0]
    out = np.zeros((m, mlp.out_width))
    lens = np.array([len(nl) for nl in neighbor_lists])
    total = int(lens.sum())
    if total == 0:
        return out
    flat = np.concatenate([nl for nl in neighbor_lists if len(nl)])
    rep = np.repeat(np.arange(m), lens)
    rows = np.empty((total, features.shape[1] + 3))
    for s in range(0, total, GATHER_CHUNK_ROWS):
        part = slice(s, s + GATHER_CHUNK_ROWS)
        rows[part, :-3] = features[flat[part]]
        rows[part, -3:] = positions[flat[part]] - queries[rep[part]]
    vals = nn.mlp_forward(mlp, rows)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    nonempty = lens > 0
    seg = np.maximum.reduceat(vals, starts[nonempty], axis=0)
    out[nonempty] = seg
    return out


def vsa_multi_level(
    keypoints: np.ndarray,
    level_tensors: list[SparseTensor],
    radii: tuple[tuple[float, float], ...],
    caps: tuple[int, ...],
    mlps: list[list[nn.MlpParams]],
    seed: int = 0,
) -> np.ndarray:
    """Multi-scale keypoint features from the backbone levels.

    For each level and each of its two radii: query the level's voxel
    centers, aggregate with that branch's MLP, and concatenate everything.

    Args:
        keypoints: (n, 3) positions.
        level_tensors: the four backbone outputs.
        radii: radii[k] is level k's radius pair, meters.
        caps: caps[k] is level k's neighbor cap.
        mlps: mlps[k][r] for level k, radius index r.
        seed: base seed for neighbor-cap subsampling.

    Returns:
        (n, sum of branch widths) feature matrix.
    """
    kp = np.asarray(keypoints, dtype=float).reshape(-1, 3)
    blocks = []
    for k, tensor in enumerate(level_tensors):
        centers = voxel_centers(tensor)
        for r, radius in enumerate(radii[k]):
            neigh = radius_query(
                kp, centers, radius, caps[k], seed=seed + 1000 * k + r
            )
            blocks.append(
                _aggregate_branch(kp, neigh, centers, tensor.features, mlps[k][r])
            )
    return np.concatenate(blocks, axis=1)


def extended_vsa(
    keypoints: np.ndarray,
    f_pv: np.ndarray,
    raw_points: np.ndarray,
    bev: BevMap,
    radii: tuple[float, float],
    cap: int,
    raw_mlps: list[nn.MlpParams],
    seed: int = 0,
) -> np.ndarray:
    """Concatenate [f_pv, f_raw, f_bev] per keypoint.

    f_raw aggregates raw points (intensity as the single feature channel)
    at each radius of the pair (at most `cap` neighbors each); f_bev
    bilinearly samples the BEV map at the keypoint's ground-plane position.
    """
    kp = np.asarray(keypoints, dtype=float).reshape(-1, 3)
    raw = np.asarray(raw_points, dtype=float).reshape(-1, 4)
    blocks = [np.asarray(f_pv, dtype=float)]
    for r, radius in enumerate(radii):
        neigh = radius_query(kp, raw[:, :3], radius, cap, seed=seed + 7000 + r)
        blocks.append(
            _aggregate_branch(kp, neigh, raw[:, :3], raw[:, 3:4], raw_mlps[r])
        )
    blocks.append(bilinear_sample(bev, kp[:, :2]))
    return np.concatenate(blocks, axis=1)


def keypoint_labels(positions: np.ndarray, gt_boxes: list[Box3D]) -> np.ndarray:
    """1 where a keypoint lies inside any ground-truth box, else 0."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    labels = np.zeros(pos.shape[0], dtype=np.int64)
    for box in gt_boxes:
        labels |= geom.points_in_box(pos, box).astype(np.int64)
    return labels


def pkw(
    positions: np.ndarray,
    f_p: np.ndarray,
    gt_boxes: list[Box3D],
    mlp: nn.MlpParams,
):
    """Predicted keypoint weighting.

    Scores each keypoint's foreground confidence with a sigmoid MLP and
    multiplies its feature row by the score. Labels come from containment
    in any ground-truth box (used for the segmentation loss).

    Returns:
        (weighted_features, scores, labels).
    """
    if mlp.out_width != 1 or mlp.out_activation != "sigmoid":
        raise nn.ShapeError("weighting MLP must have sigmoid output of width 1")
    feats = np.asarray(f_p, dtype=float)
    scores = nn.mlp_forward(mlp, feats)[:, 0]
    weighted = scores[:, None] * feats
    return weighted, scores, keypoint_labels(positions, gt_boxes)


def seg_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Focal segmentation loss over keypoints, normalized by positive count."""
    return rpn.focal_loss(scores, labels)


@dataclass
class KeypointSet:
    """Sampled keypoints with their combined features and weighting."""

    positions: np.ndarray  # (n, 3)
    indices: np.ndarray  # (n,) into the raw cloud
    f_p: np.ndarray  # [f_pv, f_raw, f_bev]
    weighted: np.ndarray  # scores[:, None] * f_p
    scores: np.ndarray  # (n,) in (0, 1)
    labels: np.ndarray  # (n,) in {0, 1}

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_width(self) -> int:
        return self.f_p.shape[1]
