"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Every expected value here is either computed by an independent
oracle in helpers.py, enumerated by hand in the comments, or fixed by the
piecewise formulas under test.
"""

import math
import time

import numpy as np
import pytest

from pvlite import cli, config, evalkit, geom, nn, pipeline, roihead, rpn, synth, vsa
from pvlite.config import desk_config
from pvlite.geom import Box3D

from helpers import (
    dense_conv3d, fps_bruteforce, mc_bev_iou, overlapping_box_pair,
    random_box, sparse_to_dense,
)

# One-sided critical value of Student's t at alpha = 0.05 with 4 dof.
T_CRIT_4DOF = 2.1318


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _kink_free_mlp(dims, n_rows, margin, out_activation="identity"):
    """Params and inputs whose hidden pre-activations all stay at least
    `margin` from the rectifier kink (first seed that satisfies it)."""
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        params = nn.init_params(dims, seed=20_000 + seed,
                                out_activation=out_activation)
        x = rng.normal(size=(n_rows, dims[0]))
        labels = (rng.random(n_rows) < 0.5).astype(int)
        a = x
        ok = True
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = a @ w.T + b
            if i < len(params.weights) - 1:
                if np.abs(z).min() < margin:
                    ok = False
                    break
                a = np.maximum(z, 0.0)
        if ok and labels.any() and not labels.all():
            return params, x, labels
    raise RuntimeError("no kink-free configuration found")


def test_01_bev_iou_matches_monte_carlo():
    """Rotated BEV IoU vs a 1e6-sample Monte-Carlo area oracle, 200 pairs,
    |error| <= 2e-3, total runtime < 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(200):
        a, b = overlapping_box_pair(rng)
        exact = float(geom.bev_iou(a.to_array(), b.to_array()))
        sampled = mc_bev_iou(a, b, n_samples=1_000_000, seed=5000 + i)
        worst = max(worst, abs(exact - sampled))
    elapsed = time.perf_counter() - t0
    assert worst <= 2e-3, f"max deviation {worst:.2e} exceeds 2e-3"
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"
    report(1, f"200 box pairs, max |exact - MC| = {worst:.2e}, {elapsed:.1f}s")


def test_02_sparse_conv_matches_dense_oracle():
    """Sparse convolution equals the dense zero-padded oracle within 1e-6 on
    20 seeded random 16^3 inputs, in both modes at strides 1 and 2."""
    from pvlite import sparsegrid as sg

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        shape = (16, 16, 16)
        n = int(16**3 * 0.1)
        flat = rng.choice(16**3, size=n, replace=False)
        coords = np.stack(np.unravel_index(flat, shape), axis=1)
        t = sg.SparseTensor(1, (0.1,) * 3, (0.0,) * 3, shape, coords,
                            rng.normal(size=(n, 5)))
        w = rng.normal(size=(3, 3, 3, 5, 4))
        for mode, stride in (("submanifold", 1), ("strided", 1), ("strided", 2)):
            out = sg.sparse_conv(t, w, stride=stride, mode=mode)
            ref = dense_conv3d(sparse_to_dense(t), w, stride=stride)
            c = out.coords
            err = np.abs(out.features - ref[c[:, 0], c[:, 1], c[:, 2]]).max()
            worst = max(worst, float(err))
            if mode == "submanifold":
                # Outputs only at input-active sites.
                assert np.array_equal(out.coords, t.coords)
    assert worst <= 1e-6, f"max |sparse - dense| = {worst:.2e}"
    report(2, f"20 seeds x 3 mode/stride combos, max deviation {worst:.2e}")


def test_03_gradient_checks():
    """Finite-difference checks (< 1e-4 relative, eps 1e-3) for the focal
    loss, smooth-L1, the confidence BCE, the keypoint-weighting MLP and
    both refinement branches."""
    errs = {}
    rng = np.random.default_rng(7)

    p0 = rng.uniform(0.15, 0.85, size=16)
    t0 = (rng.random(16) < 0.3).astype(int)
    errs["focal"] = nn.grad_check(
        lambda p: (rpn.focal_loss(p, t0), rpn.focal_loss_grad(p, t0)), p0
    )

    pred = rng.normal(size=(4, 7)) * 1.5
    target = rng.normal(size=(4, 7))
    errs["smooth_l1"] = nn.grad_check(
        lambda v: (rpn.smooth_l1(v.reshape(4, 7), target),
                   rpn.smooth_l1_grad(v.reshape(4, 7), target).ravel()),
        pred.ravel(),
    )

    y = np.linspace(0.0, 1.0, 12)
    pb = np.clip(y + np.where(y < 0.5, 0.3, -0.3), 0.02, 0.98)
    errs["iou_bce"] = nn.grad_check(
        lambda p: (roihead.iou_bce_loss(p, y), roihead.iou_bce_grad(p, y)), pb
    )

    # Keypoint-weighting MLP (three layers, sigmoid) through the focal
    # segmentation loss, reduced widths so every parameter is FD-checked.
    # The evaluation point keeps every rectifier pre-activation away from
    # its kink, where central differences of a piecewise-linear function
    # are meaningless.
    # Margin 0.02 clears the worst-case pre-activation shift of the eps=1e-3
    # parameter perturbations (inputs are O(1), so shifts stay under ~6e-3).
    pkw, feats, labels = _kink_free_mlp(
        (10, 8, 6, 1), n_rows=12, margin=0.02, out_activation="sigmoid"
    )

    def f_pkw(vec):
        p = nn.params_from_vector(pkw, vec)
        layers = nn.mlp_layers(p, feats)
        scores = layers[-1][:, 0]
        val = vsa.seg_loss(scores, labels)
        up = rpn.focal_loss_grad(scores, labels)[:, None]
        w_g, b_g, _ = nn.mlp_backward(p, feats, layers, up)
        return val, nn.params_to_vector(nn.MlpParams(p.layer_dims, w_g, b_g,
                                                     p.out_activation))

    errs["pkw_mlp"] = nn.grad_check(f_pkw, nn.params_to_vector(pkw))

    # Both refinement branches on a fixed trunk, reduced widths.
    trunk_in = rng.normal(size=(10, 12))
    shared = nn.init_params((12, 9, 9), seed=12)
    trunk = nn.mlp_forward(shared, trunk_in)
    conf_branch = nn.init_params((9, 1), seed=13, out_activation="sigmoid")
    yc = np.linspace(0.05, 0.95, 10)

    def f_conf(vec):
        p = nn.params_from_vector(conf_branch, vec)
        layers = nn.mlp_layers(p, trunk)
        conf = layers[-1][:, 0]
        val = roihead.iou_bce_loss(conf, yc)
        up = roihead.iou_bce_grad(conf, yc)[:, None]
        w_g, b_g, _ = nn.mlp_backward(p, trunk, layers, up)
        return val, nn.params_to_vector(nn.MlpParams(p.layer_dims, w_g, b_g,
                                                     p.out_activation))

    errs["refine_confidence"] = nn.grad_check(f_conf,
                                              nn.params_to_vector(conf_branch))

    # Targets keep every residual error inside |d| < 0.7, clear of the
    # smooth-L1 curvature switch at |d| = 1 where central differences lose
    # an order of accuracy.
    reg_branch = nn.init_params((9, 7), seed=14)
    res_target = nn.mlp_forward(reg_branch, trunk) + rng.uniform(
        -0.7, 0.7, size=(10, 7)
    )

    def f_reg(vec):
        p = nn.params_from_vector(reg_branch, vec)
        layers = nn.mlp_layers(p, trunk)
        res = layers[-1]
        val = rpn.smooth_l1(res, res_target)
        up = rpn.smooth_l1_grad(res, res_target)
        w_g, b_g, _ = nn.mlp_backward(p, trunk, layers, up)
        return val, nn.params_to_vector(nn.MlpParams(p.layer_dims, w_g, b_g,
                                                     p.out_activation))

    errs["refine_regression"] = nn.grad_check(f_reg,
                                              nn.params_to_vector(reg_branch))

    for name, err in errs.items():
        assert err < 1e-4, f"{name} gradient error {err:.2e} >= 1e-4"
    summary = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    report(3, f"all gradient checks under 1e-4 ({summary})")


def test_04_confidence_mapping_exact():
    """The IoU-to-confidence mapping is exact on {0, 0.1, ..., 1.0}."""
    expected = {0.0: 0.0, 0.1: 0.0, 0.2: 0.0, 0.25: 0.0, 0.3: 0.1, 0.4: 0.3,
                0.5: 0.5, 0.6: 0.7, 0.7: 0.9, 0.75: 1.0, 0.8: 1.0, 0.9: 1.0,
                1.0: 1.0}
    for iou, want in expected.items():
        got = float(roihead.confidence_target(iou))
        assert got == pytest.approx(want, abs=1e-15), f"IoU {iou}: {got} != {want}"
    report(4, "exact on the 11-point grid plus the 0.25 / 0.5 / 0.75 anchors")


def test_05_fps_matches_bruteforce():
    """FPS equals the brute-force greedy oracle on 100 seeded clouds
    (N <= 256, n <= 32) and its min selected distance never increases."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_points = int(rng.integers(1, 257))
        n_sample = int(rng.integers(1, 33))
        pts = rng.uniform(-10, 10, size=(n_points, 3))
        got = vsa.fps(pts, n_sample)
        want = fps_bruteforce(pts, n_sample)
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
        sel = pts[got[: min(n_sample, n_points)]]
        prev = math.inf
        for s in range(1, len(sel)):
            d = ((sel[:s] - sel[s]) ** 2).sum(axis=1).min()
            assert d <= prev + 1e-12, f"seed {seed}: min distance increased"
            prev = d
    report(5, "100 clouds match the greedy oracle; min distance monotone")


def test_06_residual_codec_roundtrip():
    """encode/decode round-trips 1e4 random pairs within 1e-9, and
    assign-then-decode reproduces the matched gt within 1e-6."""
    rng = np.random.default_rng(99)
    gts = np.stack([random_box(rng).to_array() for _ in range(10_000)])
    anchors_arr = np.stack([random_box(rng).to_array() for _ in range(10_000)])
    back = rpn.decode_residuals(rpn.encode_residuals(gts, anchors_arr),
                                anchors_arr)
    # Wrapped yaw comparisons need the circle metric.
    err_lin = np.abs(back[:, :6] - gts[:, :6]).max()
    dyaw = np.abs(geom.wrap_angles(back[:, 6] - gts[:, 6])).max()
    err = max(float(err_lin), float(dyaw))
    assert err < 1e-9, f"round-trip error {err:.2e}"

    grid = rpn.BevGrid((0.0, -6.4), (0.4, 0.4), 32, 32)
    anchor_set = rpn.generate_anchors(desk_config().classes, grid)
    gt_boxes = [
        Box3D(4.0, -1.0, -0.82, 3.8, 1.7, 1.5, 0.1),
        Box3D(9.0, 2.5, -0.80, 4.1, 1.55, 1.6, math.pi / 2 - 0.06),
        Box3D(7.0, -4.0, -0.85, 3.9, 1.6, 1.5, -0.08),
    ]
    gt_rows = np.array([b.to_array() for b in gt_boxes])
    targets = rpn.assign_targets(anchor_set, gt_rows)
    pos = np.flatnonzero(targets.labels == rpn.POSITIVE)
    assert pos.size > 0
    decoded = rpn.decode_residuals(targets.residuals[pos], anchor_set.boxes[pos])
    matched = gt_rows[targets.matched_gt[pos]]
    worst_assign = float(np.abs(decoded - matched).max())
    assert worst_assign < 1e-6, f"assign-then-decode error {worst_assign:.2e}"
    report(6, f"1e4 round trips <= {err:.1e}; assign-then-decode <= "
              f"{worst_assign:.1e} over {pos.size} positives")


def test_07_set_abstraction_invariances():
    """Set abstraction is bitwise permutation-invariant over 100 seeded
    shuffles, and an empty neighborhood yields the zero vector."""
    rng = np.random.default_rng(123)
    mlp = nn.init_params((6 + 3, 12, 8), seed=5)
    feats = rng.normal(size=(24, 6))
    pos = rng.normal(size=(24, 3))
    center = rng.normal(size=3)
    base = vsa.set_abstraction(center, feats, pos, mlp)
    for seed in range(100):
        perm = np.random.default_rng(seed).permutation(24)
        out = vsa.set_abstraction(center, feats[perm], pos[perm], mlp)
        assert (out == base).all(), f"shuffle seed {seed} changed the output"
    empty = vsa.set_abstraction(center, np.empty((0, 6)), np.empty((0, 3)), mlp)
    assert (empty == 0.0).all()
    report(7, "bitwise stable under 100 shuffles; empty set maps to zeros")


def test_08_pkw_training_reaches_accuracy():
    """Head-only SGD on one synthetic scene reaches >= 95% keypoint
    foreground accuracy within 500 iterations and under 2 minutes."""
    t0 = time.perf_counter()
    cfg = desk_config().replace(num_keypoints=256, synth_ground_points=600,
                                synth_objects=3, synth_points_per_object=250)
    scene = synth.gen_scene(cfg, seed=11)
    model = pipeline.build_model(cfg, seed=11)
    batch = pipeline.build_pkw_batch(cfg, model, [scene], seed=11)
    assert 0 < batch.labels.sum() < len(batch.labels)
    trained, losses, acc = pipeline.train_pkw(model.pkw, batch, iters=500,
                                              lr=0.01)
    elapsed = time.perf_counter() - t0
    assert losses[-1] < losses[0]
    assert acc >= 0.95, f"accuracy {acc:.3f} below 0.95"
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"
    report(8, f"accuracy {acc:.3f} after 500 iterations in {elapsed:.1f}s "
              f"(loss {losses[0]:.3f} -> {losses[-1]:.3f})")


def test_09_refine_training_improves_matched_iou():
    """Refinement head overfit on 10 scenes strictly raises the mean matched
    3D IoU of refined boxes over raw proposals: paired over 5 seeds, mean
    improvement > 0 at one-sided p < 0.05 (t > 2.1318, 4 dof)."""
    cfg = desk_config().replace(num_keypoints=128, synth_ground_points=400,
                                synth_objects=3, synth_points_per_object=220,
                                top_proposals=50)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    improvements = []
    for seed in range(5):
        model = pipeline.build_model(cfg, seed=seed)
        scenes = [synth.gen_scene(cfg, seed=1000 * seed + i) for i in range(10)]
        batch = pipeline.build_refine_batch(cfg, model, scenes, anchors,
                                            seed=seed)
        assert batch.targets.positive.sum() > 0
        head, losses = pipeline.train_refine(model.refine, batch, iters=1500,
                                             lr=0.01)
        assert losses[-1] < losses[0]
        raw, refined = pipeline.matched_iou_stats(head, batch)
        improvements.append(refined - raw)
    imp = np.array(improvements)
    t_stat = imp.mean() / (imp.std(ddof=1) / math.sqrt(len(imp)))
    assert imp.mean() > 0.0, f"mean improvement {imp.mean():.4f} not positive"
    assert t_stat > T_CRIT_4DOF, (
        f"t = {t_stat:.2f} <= {T_CRIT_4DOF} (improvements {imp.round(4)})"
    )
    report(9, f"mean IoU improvement {imp.mean():.4f} over 5 seeds, "
              f"t = {t_stat:.2f} > {T_CRIT_4DOF}")


def test_10_ap_hand_enumerated():
    """AP reproduces hand-enumerated R11/R40 values on the perfect, empty
    and mixed 1-TP/1-FP (2 gts) detection sets."""
    flags_perfect = np.array([True, True, True])
    scores = np.array([0.9, 0.8, 0.7])
    assert evalkit.average_precision(flags_perfect, scores, 3, "R11") == 1.0
    assert evalkit.average_precision(flags_perfect, scores, 3, "R40") == 1.0

    assert evalkit.average_precision(np.empty(0, bool), np.empty(0), 3,
                                     "R11") == 0.0
    assert evalkit.average_precision(np.empty(0, bool), np.empty(0), 3,
                                     "R40") == 0.0

    # 1 TP then 1 FP over 2 gts: recall plateaus at 0.5 with interpolated
    # precision 1 up to 0.5 and 0 beyond. R11 averages six 1.0 samples of
    # eleven (r = 0.0..0.5); R40 averages twenty of forty (r = 1/40..20/40).
    flags_mixed = np.array([True, False])
    scores_mixed = np.array([0.9, 0.8])
    r11 = evalkit.average_precision(flags_mixed, scores_mixed, 2, "R11")
    r40 = evalkit.average_precision(flags_mixed, scores_mixed, 2, "R40")
    assert r11 == pytest.approx(6 / 11, abs=1e-12)
    assert r40 == pytest.approx(0.5, abs=1e-12)
    report(10, f"perfect 1.0/1.0, empty 0.0/0.0, mixed R11 {r11:.6f} == 6/11 "
               f"and R40 {r40:.6f} == 0.5")


def test_11_bench_pooling_direction(tmp_path):
    """On keypoint-sparse scenes the RoI-grid pooling keeps a strictly
    higher nonzero grid-feature fraction than the averaging baseline."""
    cfg = desk_config().replace(num_keypoints=48, synth_ground_points=120,
                                synth_objects=2, synth_points_per_object=120,
                                top_proposals=40)
    cfg_path = tmp_path / "sparse.cfg"
    config.save(cfg, cfg_path)
    scene_dir = tmp_path / "scenes"
    rc = cli.main(["synth", "--config", str(cfg_path), "--out", str(scene_dir),
                   "--count", "3", "--seed", "303"])
    assert rc == 0
    csv_path = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--config", str(cfg_path), "--scenes",
                   str(scene_dir), "--seed", "303", "--out", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().splitlines()
    header = rows[0].split(",")
    fracs = {"roi_grid": [], "average_pool": []}
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        fracs[row["strategy"]].append(float(row["nonzero_fraction"]))
    grid_mean = np.mean(fracs["roi_grid"])
    avg_mean = np.mean(fracs["average_pool"])
    assert grid_mean > avg_mean, (
        f"roi_grid {grid_mean:.4f} not above average_pool {avg_mean:.4f}"
    )
    report(11, f"nonzero fraction roi_grid {grid_mean:.4f} > "
               f"average_pool {avg_mean:.4f} on 3 sparse scenes")
