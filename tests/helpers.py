"""Independent oracles shared by the test suite.

Each oracle recomputes a result by a different algorithm than the library
path it checks (sampling for areas, one Python polygon clip per box pair
for rotated IoU, dense convolution for sparse, one thread adding the
taps in order for threaded sparse convolution, a dense BEV array for the
occupied-rows map, full recomputation for incremental FPS, a
list-of-Detection loop for NMS, separate feature and offset gathers for
set abstraction, one gather and one MLP pass for row-blocked set
abstraction, one Box3D at a time for containment and RoI grids, a
Detection per kept anchor for proposal rows, the refine head one RoI at
a time and one MLP call per branch), plus an all-zero MLP and a writer of
malformed scene files.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from pvlite import geom, nn, roihead, rpn
from pvlite import sparsegrid as sg
from pvlite.config import GRID_RESOLUTION, PROPOSAL_NMS_IOU
from pvlite.geom import CLIP_TOL, Box3D, Detection
from pvlite.sparsegrid import BevMap


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


def iou_pair(a: Box3D, b: Box3D, vertical: bool = True) -> float:
    """Rotated IoU of one box pair (3D, or of the footprints when vertical is
    False), one Python Sutherland-Hodgman clip at a time.

    The pair is moved into a frame centred on a first. Footprints whose
    bounding circles are apart, or boxes whose z extents do not overlap in
    3D, give 0; otherwise all areas come from the shoelace formula on the
    corner polygons.
    """
    dz = (min(a.cz + 0.5 * a.h, b.cz + 0.5 * b.h)
          - max(a.cz - 0.5 * a.h, b.cz - 0.5 * b.h))
    if vertical and dz <= 0.0:
        return 0.0
    r = 0.5 * math.hypot(a.l, a.w) + 0.5 * math.hypot(b.l, b.w)
    if (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 > r * r:
        return 0.0
    ca = dataclasses.replace(a, cx=0.0, cy=0.0).corners_bev()
    cb = dataclasses.replace(b, cx=b.cx - a.cx, cy=b.cy - a.cy).corners_bev()
    area_a, area_b = _polygon_area(ca), _polygon_area(cb)
    # Clipping noise can overshoot the smaller footprint by ~ulp.
    inter = min(_polygon_area(_clip_convex(ca, cb)), area_a, area_b)
    if inter == 0.0:
        return 0.0
    if vertical:
        inter, area_a, area_b = inter * dz, area_a * a.h, area_b * b.h
    return min(max(inter / (area_a + area_b - inter), 0.0), 1.0)


def mc_bev_iou(a: Box3D, b: Box3D, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo BEV IoU: one jittered uniform sample per cell of a grid
    laid over the bounding region of both footprints.

    The union area uses the exact rectangle areas, so only the intersection
    is estimated.
    """
    corners = np.concatenate([a.corners_bev(), b.corners_bev()], axis=0)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    span = hi - lo
    side = int(round(math.sqrt(n_samples)))
    rng = np.random.default_rng(seed)
    jitter = rng.random((side * side, 2))
    cell = span / side
    gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    base = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = lo + (base + jitter) * cell

    def inside(box: Box3D) -> np.ndarray:
        dx = pts[:, 0] - box.cx
        dy = pts[:, 1] - box.cy
        c, s = math.cos(box.theta), math.sin(box.theta)
        qx = c * dx + s * dy
        qy = -s * dx + c * dy
        return (np.abs(qx) <= box.l / 2) & (np.abs(qy) <= box.w / 2)

    frac = (inside(a) & inside(b)).mean()
    inter = frac * span[0] * span[1]
    union = a.l * a.w + b.l * b.w - inter
    return float(inter / union) if union > 0 else 0.0


def mc_volume_iou(a: Box3D, b: Box3D, n_samples: int = 200_000, seed: int = 0) -> float:
    """Monte-Carlo 3D IoU over the joint bounding volume."""
    def bounds(box):
        c2 = box.corners_bev()
        return (
            np.array([c2[:, 0].min(), c2[:, 1].min(), box.cz - 0.5 * box.h]),
            np.array([c2[:, 0].max(), c2[:, 1].max(), box.cz + 0.5 * box.h]),
        )

    lo_a, hi_a = bounds(a)
    lo_b, hi_b = bounds(b)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))

    def inside(box):
        dx = pts[:, 0] - box.cx
        dy = pts[:, 1] - box.cy
        dz = pts[:, 2] - box.cz
        c, s = math.cos(box.theta), math.sin(box.theta)
        qx = c * dx + s * dy
        qy = -s * dx + c * dy
        return (
            (np.abs(qx) <= box.l / 2)
            & (np.abs(qy) <= box.w / 2)
            & (np.abs(dz) <= box.h / 2)
        )

    vol = float(np.prod(hi - lo))
    inter = (inside(a) & inside(b)).mean() * vol
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter
    return float(inter / union) if union > 0 else 0.0


def dense_conv3d(
    grid: np.ndarray, weights: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Dense 3D convolution with a 3x3x3 kernel and zero padding of one.

    Args:
        grid: (nx, ny, nz, cin) dense input.
        weights: (3, 3, 3, cin, cout).
        stride: 1 or 2.

    Returns:
        (ox, oy, oz, cout) with o = ceil(n / stride).
    """
    nx, ny, nz, cin = grid.shape
    cout = weights.shape[4]
    padded = np.zeros((nx + 2, ny + 2, nz + 2, cin))
    padded[1:-1, 1:-1, 1:-1] = grid
    ox, oy, oz = (-(-n // stride) for n in (nx, ny, nz))
    out = np.zeros((ox, oy, oz, cout))
    for kx in range(3):
        for ky in range(3):
            for kz in range(3):
                sl = padded[
                    kx : kx + stride * (ox - 1) + 1 : stride,
                    ky : ky + stride * (oy - 1) + 1 : stride,
                    kz : kz + stride * (oz - 1) + 1 : stride,
                ]
                out += sl @ weights[kx, ky, kz]
    return out


def rulebook_lookup(inp, stride: int, mode: str):
    """The sparse-conv rulebook built one tap at a time: the output set
    (every in-bounds site whose window holds an input, in strided mode), then
    for each of the 27 taps a binary-search look-up of each output's input
    coordinate. Returns (out_coords, [(out_rows, in_rows)] * 27)."""
    offsets = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    in_shape = np.array(inp.grid_shape)
    out_shape = in_shape if stride == 1 else -(-in_shape // 2)
    coords = inp.coords
    if mode == "submanifold":
        out_coords = coords
    else:
        cands = []
        for off in offsets:
            oc = coords - (off - 1)
            if stride == 2:
                oc = oc[(oc % 2 == 0).all(axis=1)] // 2
            cands.append(oc[((oc >= 0) & (oc < out_shape)).all(axis=1)])
        keys = np.unique(np.ravel_multi_index(np.concatenate(cands).T, out_shape))
        out_coords = np.stack(np.unravel_index(keys, out_shape), axis=1)
    in_keys = np.ravel_multi_index(coords.T, in_shape)
    pairs = []
    for off in offsets:
        in_c = out_coords * stride + (off - 1)
        ok = np.flatnonzero(((in_c >= 0) & (in_c < in_shape)).all(axis=1))
        want = np.ravel_multi_index(in_c[ok].T, in_shape)
        pos = np.minimum(np.searchsorted(in_keys, want), max(in_keys.size - 1, 0))
        hit = in_keys[pos] == want
        pairs.append((ok[hit], pos[hit]))
    return out_coords, pairs


def sparse_conv_lookup(inp, weights, stride: int, mode: str):
    """(coords, features) of sparse_conv from rulebook_lookup, with the same
    per-tap products in the same order."""
    return _tap_loop(inp, weights, *rulebook_lookup(inp, stride, mode))


def sparse_conv_serial(inp, weights, stride: int, mode: str):
    """(coords, features) of sparse_conv from its own rulebook on one
    thread: each tap's product added into the output in tap order."""
    out_shape = tuple(-(-n // stride) for n in inp.grid_shape)
    return _tap_loop(inp, weights, *sg._rulebook(inp, stride, mode, out_shape))


def _tap_loop(inp, weights, out_coords, pairs):
    taps = weights.reshape(27, weights.shape[3], weights.shape[4])
    out = np.zeros((out_coords.shape[0], weights.shape[4]))
    for tap, (out_rows, in_rows) in zip(taps, pairs):
        if out_rows.size:
            out[out_rows] += inp.features[in_rows] @ tap
    return out_coords, out


def sparse_to_dense(t) -> np.ndarray:
    """Expand a SparseTensor into its dense zero-filled grid."""
    dense = np.zeros((*t.grid_shape, t.feature_width))
    if t.num_voxels:
        c = t.coords
        dense[c[:, 0], c[:, 1], c[:, 2]] = t.features
    return dense


def dense_bev(t8) -> np.ndarray:
    """The dense (nx, ny, nz * width) BEV array of a level-4 tensor: channel
    block k of cell (i, j) holds voxel (i, j, k)'s feature, zeros elsewhere."""
    nx, ny, nz = t8.grid_shape
    return sparse_to_dense(t8).reshape(nx, ny, nz * t8.feature_width)


def bev_from_dense(values, origin, cell_size) -> BevMap:
    """The occupied-rows BevMap of a dense (nx, ny, C) array; a cell is
    occupied when any of its values is nonzero."""
    values = np.asarray(values, dtype=float)
    occupied = values.any(axis=2)
    index = np.full(occupied.shape, occupied.sum())
    index[occupied] = np.arange(occupied.sum())
    rows = np.vstack([values[occupied], np.zeros((1, values.shape[2]))])
    return BevMap(rows, index, origin, cell_size)


def bev_to_dense(bev: BevMap) -> np.ndarray:
    """The dense (nx, ny, channels) array a BevMap stands for."""
    return bev.rows[bev.index]


def bilinear_sample_dense(values, origin, cell_size, xy) -> np.ndarray:
    """Zero-padded bilinear interpolation of a dense (nx, ny, C) array at
    (M, 2) metric positions, reading the four surrounding cells of the
    array directly."""
    q = np.asarray(xy, dtype=float).reshape(-1, 2)
    nx, ny, channels = values.shape
    u = (q[:, 0] - origin[0]) / cell_size[0] - 0.5
    v = (q[:, 1] - origin[1]) / cell_size[1] - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    tu = u - i0
    tv = v - j0
    out = np.zeros((q.shape[0], channels))
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ii = i0 + di
        jj = j0 + dj
        wgt = (tu if di else 1.0 - tu) * (tv if dj else 1.0 - tv)
        ok = (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
        if ok.any():
            out[ok] += wgt[ok, None] * values[ii[ok], jj[ok]]
    return out


def fps_bruteforce(points: np.ndarray, n: int, start_index: int = 0) -> np.ndarray:
    """Greedy farthest point sampling recomputing all distances each step."""
    pts = np.asarray(points, dtype=float)
    num = pts.shape[0]
    distinct = min(n, num)
    sel = [start_index]
    for _ in range(1, distinct):
        best_d = np.full(num, np.inf)
        for s in sel:
            best_d = np.minimum(best_d, ((pts - pts[s]) ** 2).sum(axis=1))
        sel.append(int(np.argmax(best_d)))
    return np.array([sel[i % distinct] for i in range(n)], dtype=np.int64)


def random_box(rng: np.random.Generator, center_span: float = 10.0) -> Box3D:
    """A random well-formed box for property tests."""
    return Box3D(
        cx=float(rng.uniform(-center_span, center_span)),
        cy=float(rng.uniform(-center_span, center_span)),
        cz=float(rng.uniform(-2.0, 2.0)),
        l=float(rng.uniform(0.5, 6.0)),
        w=float(rng.uniform(0.5, 4.0)),
        h=float(rng.uniform(0.5, 3.0)),
        theta=float(rng.uniform(-math.pi, math.pi)),
    )


def points_in_box_obj(points: np.ndarray, box: Box3D) -> np.ndarray:
    """(N,) mask of the points inside one closed Box3D, with the box's own
    scalar fields and math.cos/sin of its (already wrapped) yaw."""
    pts = np.asarray(points, dtype=float)
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


def roi_grid_points_obj(box: Box3D) -> np.ndarray:
    """(GRID_RESOLUTION**3, 3) cell-centre grid of one Box3D, built from a
    meshgrid of the scaled offsets and rotated by math.cos/sin."""
    u = (np.arange(GRID_RESOLUTION) + 0.5) / GRID_RESOLUTION - 0.5
    gi, gj, gk = np.meshgrid(u * box.l, u * box.w, u * box.h, indexing="ij")
    local = np.stack([gi.ravel(), gj.ravel(), gk.ravel()], axis=1)
    c, s = math.cos(box.theta), math.sin(box.theta)
    pts = np.empty_like(local)
    pts[:, 0] = c * local[:, 0] - s * local[:, 1] + box.cx
    pts[:, 1] = s * local[:, 0] + c * local[:, 1] + box.cy
    pts[:, 2] = local[:, 2] + box.cz
    return pts


def overlapping_box_pair(rng: np.random.Generator):
    """Two random boxes with nearby centers (usually overlapping)."""
    a = random_box(rng, center_span=3.0)
    b = Box3D(
        cx=a.cx + float(rng.uniform(-2.5, 2.5)),
        cy=a.cy + float(rng.uniform(-2.5, 2.5)),
        cz=a.cz + float(rng.uniform(-1.0, 1.0)),
        l=float(rng.uniform(0.5, 6.0)),
        w=float(rng.uniform(0.5, 4.0)),
        h=float(rng.uniform(0.5, 3.0)),
        theta=float(rng.uniform(-math.pi, math.pi)),
    )
    return a, b


def radius_query_bruteforce(queries, points, radius, cap, seed):
    """Neighbours of each query by testing every point, one query at a time,
    capped by the seeded subsample documented for vsa.radius_query (stream
    [seed, i] for a scalar seed, row i for an (M, 2) key array)."""
    q = np.asarray(queries, dtype=float).reshape(-1, 3)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    per_query = np.ndim(seed) > 0
    out = []
    for qi in range(q.shape[0]):
        idx = np.flatnonzero(((p - q[qi]) ** 2).sum(axis=1) < radius * radius)
        if idx.size > cap:
            key = seed[qi] if per_query else (seed, qi)
            rng = np.random.default_rng([int(k) for k in key])
            idx = idx[np.sort(rng.choice(idx.size, size=cap, replace=False))]
        out.append(idx)
    return out


def csr(neighbor_lists):
    """(flat, offsets) of a sequence of index arrays: list j is
    flat[offsets[j] : offsets[j + 1]], flat int64."""
    lens = [len(nl) for nl in neighbor_lists]
    flat = np.concatenate([np.empty(0, np.int64), *neighbor_lists]).astype(np.int64)
    return flat, np.concatenate([[0], np.cumsum(lens, dtype=np.int64)])


def aggregate_branch_two_gathers(queries, neighbor_lists, positions, features, mlp):
    """Set abstraction of every query from two separate gathers: neighbour
    features from one array and positions minus their query from another,
    joined into [features | offsets] rows for one MLP pass, then a max over
    each query's rows (the zero vector for an empty neighbourhood)."""
    lens = [len(nl) for nl in neighbor_lists]
    out = np.zeros((len(lens), mlp.out_width))
    if sum(lens) == 0:
        return out
    flat = np.concatenate(neighbor_lists).astype(np.int64)
    owner = np.repeat(np.arange(len(lens)), lens)
    vals = nn.mlp_forward(mlp, np.concatenate(
        [features[flat], positions[flat] - queries[owner]], axis=1))
    for i in np.flatnonzero(lens):
        out[i] = vals[owner == i].max(axis=0)
    return out


def aggregate_branch_one_block(queries, neighbor_lists, points, mlp):
    """Set abstraction of every query from one gather of all rows and one MLP
    pass on the calling thread, as one set-abstraction call ran before its
    rows went in blocks: [features | xyz] rows of points with each query
    subtracted from its rows' xyz, then a max over each query's rows."""
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
    out[nonempty] = np.maximum.reduceat(vals, starts[nonempty], axis=0)
    return out


def nms_reference(
    detections: list[Detection],
    iou_threshold: float,
    max_keep: int | None = None,
) -> list[int]:
    """Greedy 3D-IoU NMS over Detection objects, one Python comparison per pair.

    Visits detections by descending score (ties by ascending index) and
    suppresses one iff its IoU with an already-kept detection exceeds the
    threshold by iou_pair, skipping the IoU when the bounding circles are
    apart. Returns kept indices in visit order, truncated to max_keep.
    """
    if max_keep is not None and max_keep <= 0:
        return []
    n = len(detections)
    order = sorted(range(n), key=lambda i: (-detections[i].score, i))
    boxes = [d.box for d in detections]
    cx = np.array([b.cx for b in boxes])
    cy = np.array([b.cy for b in boxes])
    rad = np.array([0.5 * math.hypot(b.l, b.w) for b in boxes])
    kept: list[int] = []
    for i in order:
        suppressed = False
        for k in kept:
            if (cx[i] - cx[k]) ** 2 + (cy[i] - cy[k]) ** 2 > (rad[i] + rad[k]) ** 2:
                continue
            if iou_pair(boxes[i], boxes[k]) > iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
            if max_keep is not None and len(kept) >= max_keep:
                break
    return kept


def proposals_as_detections(cls_map, reg_map, anchors, top_k: int) -> list[Detection]:
    """The kept proposals as Detections, one Box3D per kept anchor: the
    boxes that rpn.extract_proposals' rows must equal bit for bit."""
    scores, decoded = rpn.decode_anchors(cls_map, reg_map, anchors)
    keep = geom.nms(decoded, scores, PROPOSAL_NMS_IOU, max_keep=top_k)
    return [Detection(geom.box_from_array(decoded[i]), float(scores[i]),
                      int(anchors.class_ids[i])) for i in keep]


def refine_per_row(roi_features, rois, head):
    """roihead.refine's (confidences, residuals, refined rows), evaluating
    the head on one RoI's feature row at a time with three mlp_forward calls."""
    feats = np.asarray(roi_features, dtype=float)
    conf = np.empty(len(feats))
    residuals = np.empty((len(feats), 7))
    for i in range(len(feats)):
        trunk = nn.mlp_forward(head.shared, feats[i : i + 1])
        conf[i] = nn.mlp_forward(head.confidence, trunk)[0, 0]
        residuals[i] = nn.mlp_forward(head.regression, trunk)[0]
    return conf, residuals, rpn.decode_residuals(residuals, rois)


def regression_rows(head, features) -> np.ndarray:
    """The refine head's (S, 7) residuals on (S, d) rows: the trunk, then
    the regression branch, as two mlp_forward calls."""
    return nn.mlp_forward(head.regression, nn.mlp_forward(head.shared, features))


def train_refine_branch_calls(head, batch, iters: int, lr: float):
    """pipeline.train_refine with one mlp_layers call per MLP of the head:
    (trained head, per-iteration losses)."""
    h = head.copy()
    losses = []
    pos = batch.targets.positive
    for _ in range(iters):
        shared = nn.mlp_layers(h.shared, batch.features)
        confidence = nn.mlp_layers(h.confidence, shared[-1])
        regression = nn.mlp_layers(h.regression, shared[-1])
        conf, res = confidence[-1][:, 0], regression[-1]
        losses.append(roihead.rcnn_loss(conf, res, batch.targets)[0])
        up_conf = roihead.iou_bce_grad(conf, batch.targets.y)[:, None]
        up_res = np.zeros_like(res)
        if pos.any():
            up_res[pos] = rpn.smooth_l1_grad(res[pos], batch.targets.residuals[pos])
        grads = [nn.mlp_backward(h.confidence, shared[-1], confidence, up_conf),
                 nn.mlp_backward(h.regression, shared[-1], regression, up_res)]
        grads.append(nn.mlp_backward(h.shared, batch.features, shared,
                                     grads[0][2] + grads[1][2], input_grad=False))
        for params, (w_grads, b_grads, _) in zip((h.confidence, h.regression, h.shared),
                                                 grads):
            for w, b, gw, gb in zip(params.weights, params.biases, w_grads, b_grads):
                w -= lr * gw
                b -= lr * gb
    return h, losses


def zero_params(layer_dims, out_activation: str = "identity") -> nn.MlpParams:
    """An MLP whose weights and biases are all zero."""
    dims = tuple(int(d) for d in layer_dims)
    weights = [np.zeros((dout, din)) for din, dout in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(dout) for dout in dims[1:]]
    return nn.MlpParams(dims, weights, biases, out_activation)


def set_box_value(path, box: int, col: int, value: float) -> None:
    """Overwrite one field of a box record of a saved scene file (the last
    32 bytes per box: cx, cy, cz, l, w, h, theta as little-endian float32,
    then the int32 class at col 7), bypassing the checks a SceneSample
    makes."""
    data = bytearray(Path(path).read_bytes())
    header = dict(f.split("=", 1) for f in data[:data.index(b"\n")].decode().split()[1:])
    at = len(data) - 32 * (int(header["boxes"]) - box) + 4 * col
    data[at:at + 4] = np.array([value], dtype="<i4" if col == 7 else "<f4").tobytes()
    Path(path).write_bytes(bytes(data))


def set_point_value(path, row: int, col: int, value: float) -> None:
    """Overwrite one point value of a saved scene file (after the header
    line, each point is 16 bytes: x, y, z, intensity as little-endian
    float32), bypassing the checks a SceneSample makes."""
    data = bytearray(Path(path).read_bytes())
    at = data.index(b"\n") + 1 + 16 * row + 4 * col
    data[at:at + 4] = np.array([value], dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(data))
