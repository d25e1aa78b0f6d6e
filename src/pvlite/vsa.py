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
    # Contiguous x, y, z rows: (dx² + dy²) + dz² in place, bit for bit as before.
    cols = np.ascontiguousarray(pts.T)
    sq = (cols - cols[:, :1]) ** 2
    best, d2 = sq[0] + sq[1] + sq[2], np.empty(num)
    for s in range(1, distinct):
        nxt = int(np.argmax(best))  # argmax takes the lowest index on ties
        sel[s] = nxt
        np.subtract(cols, cols[:, nxt : nxt + 1], out=sq)
        sq *= sq
        np.add(sq[0], sq[1], out=d2)
        d2 += sq[2]
        np.minimum(best, d2, out=best)
    if n <= distinct:
        return sel[:n]
    reps = np.arange(n) % distinct
    return sel[reps]


# Most (query, point) pairs and query-cell keys radius_query holds at once.
QUERY_CHUNK_PAIRS = 60_000


def radius_query(
    queries: np.ndarray,
    points: np.ndarray,
    radii: float | tuple[float, ...],
    cap: int,
    seed: int | np.ndarray,
) -> list[np.ndarray]:
    """Capped neighbor lists of each query strictly within each radius.

    A cell-list search: points are sorted into cubic cells at least the
    largest radius wide, and the points of each query's 27 surrounding cells
    are its candidates at every radius r, kept when their squared distance
    is < r**2. A point or query with a non-finite coordinate has no
    neighbors. A query with more than `cap` neighbors at a radius keeps a
    seeded uniform subsample of exactly `cap`.

    Args:
        queries: (M, 3).
        points: (N, 3).
        radii: a radius or a tuple of radii, meters, each > 0.
        cap: max neighbors per query and radius.
        seed: an int, where query i at radius index r subsamples from the
            stream [seed + r, i], or an (M, 2) int array whose row i keys
            query i's streams as [row[0] + r, row[1]].

    Returns:
        len(radii) * M int arrays of neighbor indices (ascending), radius
        major: entry r * M + i holds query i's neighbors at radii[r].
    """
    radii = np.ravel(radii).astype(float)
    if not (radii > 0).all():
        raise ValueError(f"radius must be positive, got {radii}")
    q = np.asarray(queries, dtype=float).reshape(-1, 3)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    m, n = q.shape[0], p.shape[0]
    per_query = np.ndim(seed) > 0
    if per_query and np.shape(seed) != (m, 2):
        raise ValueError(f"per-query seeds must have shape ({m}, 2), "
                         f"got {np.shape(seed)}")
    ok_p, ok_q = (np.flatnonzero(np.isfinite(a).all(axis=1)) for a in (p, q))
    if ok_p.size == 0 or ok_q.size == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(radii.size * m)]
    # Cells at least the largest radius wide, padded so that rounding in the
    # division and the floor never puts a pair that passes two cells apart.
    scale = max(np.abs(p[ok_p]).max(), np.abs(q[ok_q]).max())
    width = radii.max() * (1.0 + 1e-9) + 1e-12 * scale
    pcell = np.floor(p[ok_p] / width).astype(np.int64)
    # Keys of a cell and of the 27 around each query: mixed radix of per-axis
    # ranks among occupied coordinates, below (N + 1)**3 however far apart
    # the points are. A coordinate no point has ranks vals.size: no match.
    vals = [np.unique(pcell[:, a]) for a in range(3)]
    pkey = np.zeros(ok_p.size, dtype=np.int64)
    for a in range(3):
        pkey = pkey * (vals[a].size + 1) + np.searchsorted(vals[a], pcell[:, a])
    order = np.argsort(pkey, kind="stable")
    point_of, pkey = ok_p[order], pkey[order]
    # Contiguous x, y, z rows: (dx² + dy²) + dz² in place, as in fps.
    pc, qc = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    flats = [[np.empty(0, dtype=np.int64)] for _ in radii]  # capped, query order
    lens = np.zeros((radii.size, m), dtype=np.int64)
    step = QUERY_CHUNK_PAIRS // 27  # queries whose 27 cell keys are held at once
    for b in range(0, ok_q.size, step):
        qb = ok_q[b : b + step]
        qcell = np.floor(q[qb] / width).astype(np.int64)
        qkey = np.zeros((qb.size, 1), dtype=np.int64)
        for a in range(3):
            near = qcell[:, a, None] + np.arange(-1, 2)
            rank = np.searchsorted(vals[a], near)
            rank[vals[a][np.minimum(rank, vals[a].size - 1)] != near] = vals[a].size
            qkey = (qkey[:, :, None] * (vals[a].size + 1)
                    + rank[:, None]).reshape(qb.size, -1)
        lo = np.searchsorted(pkey, qkey)
        run = np.searchsorted(pkey, qkey, side="right") - lo
        cand = run.sum(axis=1)
        bound = np.concatenate([[0], np.cumsum(cand)])
        s = 0
        while s < qb.size:  # chunks of at most QUERY_CHUNK_PAIRS candidates
            e = np.searchsorted(bound, bound[s] + QUERY_CHUNK_PAIRS, side="right")
            e = max(int(e) - 1, s + 1)
            counts = run[s:e].ravel()
            pos = np.repeat(lo[s:e].ravel() - np.cumsum(counts) + counts, counts)
            pidx = point_of[pos + np.arange(pos.size)]
            qidx = np.repeat(qb[s:e], cand[s:e])
            d = pc.take(pidx, axis=1)
            d -= qc.take(qidx, axis=1)
            d *= d
            d2 = d[0] + d[1]
            d2 += d[2]
            for r, radius in enumerate(radii):
                keep = d2 < radius * radius
                part = np.sort(qidx[keep] * n + pidx[keep])  # query * n + point
                first = np.searchsorted(part, qb[s:e] * n)
                found = np.diff(np.append(first, part.size))
                kept = np.ones(part.size, dtype=bool)  # False where a cap drops a pair
                for j in np.flatnonzero(found > cap):
                    qi = qb[s + j]
                    key = np.add(seed[qi], (r, 0)) if per_query else (seed + r, qi)
                    rng = np.random.default_rng([int(k) for k in key])
                    kept[first[j] : first[j] + found[j]] = False
                    kept[first[j] + rng.choice(found[j], size=cap, replace=False)] = True
                flats[r].append(part[kept] % n)
                lens[r, qb[s:e]] = np.minimum(found, cap)
            s = e
    out = []
    for flat, size in zip(flats, lens):  # views of one array per radius
        flat, ends = np.concatenate(flat), np.cumsum(size)
        out += [flat[a:b] for a, b in zip(ends - size, ends)]
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
    return _aggregate_branch(query, [np.arange(pos.shape[0])],
                             np.hstack([feats, pos]), mlp)[0]


def _aggregate_branch(
    queries: np.ndarray,
    neighbor_lists: list[np.ndarray],
    points: np.ndarray,
    mlp: nn.MlpParams,
) -> np.ndarray:
    """set_abstraction for every query at once (one MLP pass, segment max)
    over points, the (n, d + 3) matrix [features | xyz], gathered in one copy."""
    m = queries.shape[0]
    out = np.zeros((m, mlp.out_width))
    lens = np.array([len(nl) for nl in neighbor_lists])
    total = int(lens.sum())
    if total == 0:
        return out
    flat = np.concatenate([nl for nl in neighbor_lists if len(nl)])
    rows = points.take(flat, axis=0)
    rows[:, -3:] -= np.repeat(queries, lens, axis=0)
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

    For each level: query the voxel centers at both radii in one pass,
    aggregate each radius with its branch MLP, and concatenate everything.

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
    m, blocks = kp.shape[0], []
    for k, tensor in enumerate(level_tensors):
        centers = voxel_centers(tensor)
        neigh = radius_query(kp, centers, radii[k], caps[k], seed=seed + 1000 * k)
        points = np.hstack([tensor.features, centers])
        blocks += [_aggregate_branch(kp, neigh[r * m : (r + 1) * m], points, mlp)
                   for r, mlp in enumerate(mlps[k])]
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
    m, points = kp.shape[0], raw[:, [3, 0, 1, 2]]  # [intensity | xyz]
    neigh = radius_query(kp, raw[:, :3], radii, cap, seed=seed + 7000)
    blocks = [np.asarray(f_pv, dtype=float)]
    blocks += [_aggregate_branch(kp, neigh[r * m : (r + 1) * m], points, mlp)
               for r, mlp in enumerate(raw_mlps)]
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
    weighted_xyz: np.ndarray  # [scores[:, None] * f_p | positions]
    scores: np.ndarray  # (n,) in (0, 1)
    labels: np.ndarray  # (n,) in {0, 1}

    @property
    def weighted(self) -> np.ndarray:
        return self.weighted_xyz[:, :-3]

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_width(self) -> int:
        return self.f_p.shape[1]
