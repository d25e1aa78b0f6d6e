"""Named invariant checks behind the `check` command.

Each check is a fast, seeded self-test of one library invariant. The
optional fault injection replaces a kernel with a perturbed version so the
suite's failure reporting can be exercised end to end.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from . import evalkit, geom, nn, parallel, pipeline, roihead, rpn, sparsegrid, synth, vsa
from .config import desk_config
from .geom import Box3D

FAULTS = ("bev-iou",)


def _random_box(rng):
    return Box3D(
        float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
        float(rng.uniform(-1, 1)), float(rng.uniform(0.8, 5.0)),
        float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.8, 2.5)),
        float(rng.uniform(-math.pi, math.pi)),
    )


def _near_pair(rng):
    a = _random_box(rng)
    b = Box3D(a.cx + float(rng.uniform(-2, 2)), a.cy + float(rng.uniform(-2, 2)),
              a.cz, float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.8, 3.0)),
              a.h, float(rng.uniform(-math.pi, math.pi)))
    return a, b


def _mc_bev_iou(a, b, side, seed):
    """Stratified sampling estimate of the footprint IoU."""
    corners = np.concatenate([a.corners_bev(), b.corners_bev()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pts = lo + (np.stack([gx.ravel(), gy.ravel()], 1)
                + rng.random((side * side, 2))) * (hi - lo) / side

    def inside(box):
        dx, dy = pts[:, 0] - box.cx, pts[:, 1] - box.cy
        c, s = math.cos(box.theta), math.sin(box.theta)
        return (np.abs(c * dx + s * dy) <= box.l / 2) & (
            np.abs(-s * dx + c * dy) <= box.w / 2
        )

    inter = (inside(a) & inside(b)).mean() * (hi - lo).prod()
    union = a.l * a.w + b.l * b.w - inter
    return float(inter / union) if union > 0 else 0.0


def check_bev_iou_mc(env):
    bev_iou = env["bev_iou"]
    rng = np.random.default_rng(1000)
    worst = 0.0
    for i in range(12):
        a, b = _near_pair(rng)
        exact = bev_iou(a.to_array(), b.to_array())
        worst = max(worst, abs(exact - _mc_bev_iou(a, b, 400, seed=i)))
    return worst <= 2e-3, f"max |exact - sampled| = {worst:.2e} (tol 2e-3)"


def check_bev_iou_symmetry(env):
    bev_iou = env["bev_iou"]
    rng = np.random.default_rng(1001)
    for _ in range(50):
        a, b = (box.to_array() for box in _near_pair(rng))
        ab, ba = bev_iou(a, b), bev_iou(b, a)
        if not (0.0 <= ab <= 1.0) or abs(ab - ba) > 1e-12:
            return False, f"asymmetry {ab} vs {ba}"
        if bev_iou(a, a) != 1.0:
            return False, "identity is not exactly 1"
    return True, "symmetric, bounded, identity exact on 50 pairs"


def check_nms_permutation(env):
    # Distinct scores; greedy order under ties is input-index defined.
    rng = np.random.default_rng(1002)
    boxes = np.array([_random_box(rng).to_array() for _ in range(24)])
    scores = np.linspace(0.05, 0.95, 24)
    base = set(geom.nms(boxes, scores, 0.3))
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(scores))
        kept = {int(perm[i]) for i in geom.nms(boxes[perm], scores[perm], 0.3)}
        if kept != base:
            return False, f"kept set changed under permutation seed {seed}"
    return True, "kept set stable under 3 permutations"


def check_roi_grid_points(env):
    rng = np.random.default_rng(1003)
    for _ in range(5):
        b = _random_box(rng).to_array()
        pts = geom.roi_grid_points(b)
        if not geom.points_in_box(pts, b).all():
            return False, "grid point escaped its box"
        if np.abs(pts.mean(axis=0) - b[:3]).max() > 1e-9:
            return False, "grid centroid off the box center"
    return True, "216 points inside with centered mean on 5 boxes"


def check_sparse_conv_dense(env):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        shape = (12, 12, 12)
        flat = rng.choice(12**3, size=200, replace=False)
        coords = np.stack(np.unravel_index(flat, shape), 1)
        t = sparsegrid.SparseTensor(1, (0.1,) * 3, (0.0,) * 3, shape, coords,
                                    rng.normal(size=(200, 4)))
        dense = np.zeros((*shape, 4))
        dense[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]] = t.features
        w = rng.normal(size=(3, 3, 3, 4, 3))
        for mode, stride in (("submanifold", 1), ("strided", 1), ("strided", 2)):
            out = sparsegrid.sparse_conv(t, w, stride=stride, mode=mode)
            ref = _dense_conv(dense, w, stride)
            c = out.coords
            err = np.abs(out.features - ref[c[:, 0], c[:, 1], c[:, 2]]).max()
            if err > 1e-6:
                return False, f"{mode}/s{stride} differs from dense by {err:.1e}"
    return True, "all modes within 1e-6 of the dense oracle on 4 seeds"


def _dense_conv(grid, w, stride):
    nx, ny, nz, cin = grid.shape
    padded = np.zeros((nx + 2, ny + 2, nz + 2, cin))
    padded[1:-1, 1:-1, 1:-1] = grid
    ox, oy, oz = (-(-n // stride) for n in (nx, ny, nz))
    out = np.zeros((ox, oy, oz, w.shape[4]))
    for kx in range(3):
        for ky in range(3):
            for kz in range(3):
                sl = padded[kx : kx + stride * (ox - 1) + 1 : stride,
                            ky : ky + stride * (oy - 1) + 1 : stride,
                            kz : kz + stride * (oz - 1) + 1 : stride]
                out += sl @ w[kx, ky, kz]
    return out


def check_threaded_conv(env):
    # A backbone over a dense block of voxels, where outputs sum several
    # taps: each conv on every CPU equals the one-thread loop that adds the
    # taps' products in tap order, bit for bit.
    rng = np.random.default_rng(1016)
    shape = (64, 64, 16)
    flat = rng.choice(np.prod(shape), size=20_000, replace=False)
    x = sparsegrid.SparseTensor(1, (0.1,) * 3, (0.0,) * 3, shape,
                                np.stack(np.unravel_index(flat, shape), 1),
                                rng.uniform(-1.0, 1.0, size=(20_000, 4)))
    params = sparsegrid.init_backbone(4, (16, 32, 64, 64), seed=1017)
    for k, pair in enumerate(params.level_weights):
        for w, stride in zip(pair, (1 if k == 0 else 2, 1)):
            mode = "strided" if stride == 2 else "submanifold"
            out = sparsegrid.sparse_conv(x, w, stride=stride, mode=mode)
            coords, pairs = sparsegrid._rulebook(x, stride, mode, out.grid_shape)
            want = np.zeros_like(out.features)
            for tap, (out_rows, in_rows) in zip(w.reshape(27, *w.shape[3:]), pairs):
                if out_rows.size:
                    want[out_rows] += x.features[in_rows] @ tap
            if not (np.array_equal(out.coords, coords) and np.array_equal(out.features, want)):
                return False, (f"level {k + 1} {mode} conv of {x.num_voxels} voxels differs "
                               "from the one-thread tap loop")
            x = sparsegrid.relu_features(out)
    return True, (f"8 convs from 20,000 voxels equal to the one-thread tap loop bit for "
                  f"bit on {parallel._threads()} threads")


def check_bev_dense(env):
    dense = np.random.default_rng(1012).normal(size=(7, 6, 3, 4)).clip(1.0) - 1.0
    coords = np.argwhere(dense.any(axis=3))  # 10 of the 42 cells stay empty
    t = sparsegrid.SparseTensor(4, (0.5,) * 3, (-1.0, 0.5, 0.0), (7, 6, 3), coords,
                                dense[tuple(coords.T)])
    cells = dense.reshape(42, 12)  # the dense map; cell (i, j) is row 6 * i + j
    bev, head = sparsegrid.bev_collapse(t), nn.init_params((12, 8, 16), seed=1013)
    _, reg = pipeline.rpn_head_outputs(SimpleNamespace(rpn_head=head), bev, 1)
    err = np.abs(reg - nn.mlp_forward(head, cells)[:, 2:].reshape(-1, 7)).max()
    centers = t.origin[:2] + 0.5 * np.argwhere(np.ones((7, 6))) + 0.25
    ok = (np.array_equal(bev.rows[bev.index.ravel()], cells) and err < 1e-12
          and np.array_equal(sparsegrid.bilinear_sample(bev, centers), cells)
          and not sparsegrid.bilinear_sample(bev, centers + 9.0).any())
    return ok, f"cells and samples equal, RPN head within {err:.1e} of the dense map"


def check_voxelize_permutation(env):
    rng = np.random.default_rng(1004)
    pts = np.concatenate([rng.uniform(0, 1.6, (400, 3)), rng.random((400, 1))], 1)
    base = sparsegrid.voxelize(pts, (0, 0, 0), (1.6, 1.6, 1.6), (0.1, 0.1, 0.1))
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(400)
        t = sparsegrid.voxelize(pts[perm], (0, 0, 0), (1.6, 1.6, 1.6),
                                (0.1, 0.1, 0.1))
        if not (np.array_equal(base.coords, t.coords)
                and np.array_equal(base.features, t.features)):
            return False, f"voxelization changed under permutation seed {seed}"
    return True, "bit-identical under 3 permutations"


def check_mlp_gradients(env):
    template = nn.init_params((5, 7, 4, 1), seed=1005)
    rng = np.random.default_rng(1006)
    x = rng.normal(size=(1, 5))

    def f(vec):
        p = nn.params_from_vector(template, vec)
        layers = nn.mlp_layers(p, x)
        y = layers[-1]
        val = 0.5 * float((y * y).sum())
        w_g, b_g, _ = nn.mlp_backward(p, x, layers, y, input_grad=False)
        return val, nn.params_to_vector(nn.MlpParams(p.layer_dims, w_g, b_g,
                                                     p.out_activation))

    err = nn.grad_check(f, nn.params_to_vector(template))
    return err < 1e-4, f"max relative error {err:.2e} (tol 1e-4)"


def check_codec_roundtrip(env):
    rng = np.random.default_rng(1007)
    gt = np.stack([_random_box(rng).to_array() for _ in range(2000)])
    an = np.stack([_random_box(rng).to_array() for _ in range(2000)])
    back = rpn.decode_residuals(rpn.encode_residuals(gt, an), an)
    err = np.abs(back - gt).max()
    return err < 1e-9, f"max round-trip error {err:.1e} (tol 1e-9)"


def check_loss_gradients(env):
    rng = np.random.default_rng(1008)
    p = rng.uniform(0.15, 0.85, size=10)
    t = (rng.random(10) < 0.4).astype(int)

    def f_focal(x):
        return rpn.focal_loss(x, t), rpn.focal_loss_grad(x, t)

    e1 = nn.grad_check(f_focal, p)
    pred = rng.normal(size=(4, 7)) * 1.5
    target = rng.normal(size=(4, 7))

    def f_sl1(v):
        q = v.reshape(4, 7)
        return rpn.smooth_l1(q, target), rpn.smooth_l1_grad(q, target).ravel()

    e2 = nn.grad_check(f_sl1, pred.ravel())
    y = np.linspace(0, 1, 10)
    pb = np.clip(y + np.where(y < 0.5, 0.3, -0.3), 0.02, 0.98)

    def f_bce(x):
        return roihead.iou_bce_loss(x, y), roihead.iou_bce_grad(x, y)

    e3 = nn.grad_check(f_bce, pb)
    worst = max(e1, e2, e3)
    return worst < 1e-4, f"focal {e1:.1e}, smooth-L1 {e2:.1e}, bce {e3:.1e}"


def check_fps_oracle(env):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(96, 3))
        got = vsa.fps(pts, 12)
        sel = [0]
        for _ in range(11):
            d = np.full(96, np.inf)
            for s in sel:
                d = np.minimum(d, ((pts - pts[s]) ** 2).sum(axis=1))
            sel.append(int(np.argmax(d)))
        if not np.array_equal(got, np.array(sel)):
            return False, f"fps deviates from greedy oracle at seed {seed}"
    return True, "matches the brute-force greedy oracle on 20 clouds"


def check_cap_draws(env):
    # The draw follows numpy's internals, which another numpy may change.
    rng = np.random.default_rng(1011)
    keys = rng.integers(0, 2**64, size=(600, 2), dtype=np.uint64)
    keys >>= rng.integers(0, 64, size=(600, 2)).astype(np.uint64)
    keys[:3] = [[0, 2**32 - 1], [2**32, 2**63 - 1], [2**64 - 1, 7]]
    # Near 2**31 Lemire's method rejects about half of its draws.
    found = np.concatenate([[33] * 100, rng.integers(33, 3000, size=300),
                            2**31 + rng.integers(-4000, 4000, size=100),
                            2**32 - rng.integers(0, 40, size=100)])
    for key, n, got in zip(keys.tolist(), found.tolist(), vsa.cap_draws(keys, found, 32)):
        want = np.random.default_rng(key).choice(n, 32, replace=False)
        if set(got.tolist()) != set(want.tolist()):
            return False, f"draw differs from default_rng({key}).choice({n}, 32)"
    return True, f"equal to default_rng(key).choice on 600 rows, numpy {np.__version__}"


def check_set_abstraction(env):
    rng = np.random.default_rng(1009)
    mlp = nn.init_params((4 + 3, 8, 6), seed=1010)
    feats = rng.normal(size=(16, 4))
    pos = rng.normal(size=(16, 3))
    center = rng.normal(size=3)
    base = vsa.set_abstraction(center, feats, pos, mlp)
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(16)
        if not np.array_equal(
            vsa.set_abstraction(center, feats[perm], pos[perm], mlp), base
        ):
            return False, "output changed under neighbor permutation"
    empty = vsa.set_abstraction(center, np.empty((0, 4)), np.empty((0, 3)), mlp)
    if empty.any():
        return False, "empty neighborhood is not the zero vector"
    return True, "bitwise permutation-invariant; empty set maps to zero"


def check_row_blocks(env):
    # The installed BLAS must round each row of a block's product as it does
    # in one product over all rows: at 611 and 67 wide, a kitti-size call,
    # calls either side of the 1-, 2- and 3-block sizes, at 1.4 and 1.6
    # blocks (either side of the cut into two) and one with a list longer
    # than a block, each alone and then all of them in one aggregate.
    rng = np.random.default_rng(1014)
    calls, wants = [], []
    for width, kitti_rows in ((611, 216 * 32), (67, 2048 * 32)):
        per_block = vsa.block_rows(width)
        points = np.hstack([rng.normal(size=(3000, width - 3)),
                            rng.uniform(-40.0, 40.0, size=(3000, 3))])
        mlp = nn.init_params((width, 16, 16), seed=1015)
        totals = (kitti_rows, *(b * per_block + d for b in (1, 2, 3) for d in (-1, 1)),
                  14 * per_block // 10, 16 * per_block // 10)
        for end in [*(np.minimum(np.cumsum(rng.integers(0, 33, size=t // 4 + 1)), t)
                      for t in totals), np.cumsum([3, 3 * per_block + 5, 0, 2])]:
            lists = vsa.NeighborLists(rng.integers(0, 3000, size=end[-1]), np.append(0, end))
            queries = rng.uniform(-40.0, 40.0, size=(len(lists), 3))
            calls.append((queries, lists, points, mlp))
            wants.append(np.zeros((len(lists), 16)))
            vsa._block(wants[-1], queries, lists, 0, len(lists), points, mlp)  # one block
            if not np.array_equal(vsa.aggregate(calls[-1:])[0], wants[-1]):
                return False, f"{width}-wide call of {end[-1]} rows differs from one block"
    for k, got in enumerate(vsa.aggregate(calls)):
        if not np.array_equal(got, wants[k]):
            return False, f"call {k} of {len(calls)} in one aggregate differs from one block"
    return True, (f"{len(calls)} calls equal to one block bit for bit, alone and in one "
                  f"aggregate, on {parallel._threads()} threads")


def check_keypoint_subset(env):
    # The keypoints RoI-grid pooling can reach must get the rows they get
    # among all keypoints: the same cap streams, and products that round
    # alike at the subsets' row counts (every residue mod 4 among them) on
    # the installed BLAS. Subsets of 20 or fewer may not (vsa.PKW_ROW_GROUP).
    cfg = desk_config().replace(num_keypoints=128, synth_ground_points=400, synth_objects=2,
                                synth_points_per_object=200, top_proposals=30)
    model = pipeline.build_model(cfg, seed=3)
    scene = synth.gen_scene(cfg, seed=42)
    tensors, bev = pipeline._scene_front(cfg, model, scene)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    cls_probs, reg = pipeline.rpn_head_outputs(model, bev, len(cfg.classes))
    rois = rpn.extract_proposals(cls_probs, reg, anchors, top_k=cfg.top_proposals).rows
    full = pipeline.build_keypoints(scene, tensors, bev, cfg, model, 1, None)
    sizes = set()
    for k in range(1, len(rois) + 1):  # the first k proposals
        keep = roihead.grid_reach(full.positions, rois[:k])
        if keep.sum() < 21:
            continue
        sub = pipeline.build_keypoints(scene, tensors, bev, cfg, model, 1, rois[:k])
        if not np.array_equal(sub.indices, full.indices[keep]):
            return False, "kept keypoints are not the reachable ones in FPS order"
        for name in ("f_p", "scores", "weighted_xyz"):
            if not np.array_equal(getattr(sub, name), getattr(full, name)[keep]):
                return False, f"{name} of {sub.n} kept keypoints differs from the full run"
        sizes.add(sub.n)
    return True, (f"subsets of {min(sizes)} to {max(sizes)} of {full.n} keypoints equal "
                  f"to the full run bit for bit")


def check_confidence_mapping(env):
    for iou in np.linspace(0, 1, 11):
        expect = min(1.0, max(0.0, 2.0 * iou - 0.5))
        if abs(roihead.confidence_target(float(iou)) - expect) > 1e-15:
            return False, f"mapping wrong at IoU {iou}"
    return True, "exact on the 11-point grid incl. 0.25/0.5/0.75 anchors"


def check_ap_hand_cases(env):
    perfect = evalkit.average_precision(np.array([True] * 3),
                                        np.array([0.9, 0.8, 0.7]), 3, "R40")
    empty = evalkit.average_precision(np.empty(0, bool), np.empty(0), 3, "R40")
    r11 = evalkit.average_precision(np.array([True, False]),
                                    np.array([0.9, 0.8]), 2, "R11")
    r40 = evalkit.average_precision(np.array([True, False]),
                                    np.array([0.9, 0.8]), 2, "R40")
    ok = (perfect == 1.0 and empty == 0.0
          and abs(r11 - 6 / 11) < 1e-12 and abs(r40 - 0.5) < 1e-12)
    return ok, f"perfect {perfect}, empty {empty}, mixed R11 {r11:.4f} R40 {r40:.4f}"


def check_scene_roundtrip(env):
    cfg = desk_config().replace(synth_ground_points=300, synth_objects=2,
                                synth_points_per_object=150)
    a = synth.gen_scene(cfg, seed=99)
    b = synth.gen_scene(cfg, seed=99)
    if not a.equals(b):
        return False, "same seed produced different scenes"
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        p1 = os.path.join(d, "a.pvscn")
        p2 = os.path.join(d, "b.pvscn")
        synth.save_scene(a, p1)
        synth.save_scene(synth.load_scene(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            if f1.read() != f2.read():
                return False, "save/load/save is not byte-identical"
    return True, "deterministic generation and byte-exact file round trip"


CHECKS = [
    ("geom.bev_iou_vs_sampling", check_bev_iou_mc),
    ("geom.bev_iou_symmetry", check_bev_iou_symmetry),
    ("geom.nms_permutation", check_nms_permutation),
    ("geom.roi_grid_points", check_roi_grid_points),
    ("sparse.conv_vs_dense", check_sparse_conv_dense),
    ("sparse.threaded_conv_vs_serial", check_threaded_conv),
    ("sparse.bev_vs_dense", check_bev_dense),
    ("sparse.voxelize_permutation", check_voxelize_permutation),
    ("nn.gradients_vs_fd", check_mlp_gradients),
    ("rpn.codec_roundtrip", check_codec_roundtrip),
    ("losses.gradients_vs_fd", check_loss_gradients),
    ("vsa.fps_vs_oracle", check_fps_oracle),
    ("vsa.cap_draws_vs_numpy", check_cap_draws),
    ("vsa.set_abstraction_invariance", check_set_abstraction),
    ("vsa.row_blocks_vs_whole", check_row_blocks),
    ("vsa.keypoint_subset_vs_all", check_keypoint_subset),
    ("roihead.confidence_mapping", check_confidence_mapping),
    ("evalkit.ap_hand_cases", check_ap_hand_cases),
    ("synth.determinism_roundtrip", check_scene_roundtrip),
]


def run_checks(inject_fault: str | None = None):
    """Run every named check; returns a list of (name, ok, detail)."""
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; options: {FAULTS}")
    env = {"bev_iou": geom.bev_iou}
    if inject_fault == "bev-iou":
        env["bev_iou"] = lambda a, b: np.minimum(1.0, geom.bev_iou(a, b) + 0.004)
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(env)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
