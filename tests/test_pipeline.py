"""End-to-end pipeline behavior: determinism, empty scenes, parameter file
application, head training loops and the pooling benchmark."""

import io
from collections import Counter

import numpy as np
import pytest

from pvlite import nn, parallel, pipeline, roihead, rpn, synth, vsa
from pvlite.config import default_config, desk_config
from pvlite.roihead import RefineTargets
from pvlite.sparsegrid import (
    bev_collapse, bilinear_sample, in_range, run_backbone, voxelize,
)
from pvlite.synth import SceneSample

from helpers import bilinear_sample_dense, dense_bev

CFG = desk_config().replace(
    num_keypoints=128,
    synth_ground_points=400,
    synth_objects=2,
    synth_points_per_object=200,
    top_proposals=30,
)
EMPTY = SceneSample(np.empty((0, 4), np.float32), (), (), 0, CFG.range_min,
                    CFG.range_max)


@pytest.fixture(scope="module")
def model():
    return pipeline.build_model(CFG, seed=3)


@pytest.fixture(scope="module")
def anchors():
    return rpn.generate_anchors(CFG.classes, pipeline.bev_grid(CFG))


@pytest.fixture(scope="module")
def scene():
    return synth.gen_scene(CFG, seed=42)


class TestDerivedShapes:
    def test_level_shapes_halve(self):
        shapes = pipeline.level_grid_shapes(CFG)
        assert shapes[0] == (384, 384, 40)
        assert shapes[3] == (48, 48, 5)

    def test_kitti_profile_shapes(self):
        from pvlite.config import default_config
        cfg = default_config()
        shapes = pipeline.level_grid_shapes(cfg)
        assert shapes[0] == (1408, 1600, 40)
        assert shapes[3] == (176, 200, 5)
        grid = pipeline.bev_grid(cfg)
        assert (grid.nx, grid.ny) == (176, 200)
        assert pipeline.bev_channels(cfg) == 320

    def test_waymo_profile_shapes(self):
        from pvlite.config import waymo_config
        cfg = waymo_config()
        shapes = pipeline.level_grid_shapes(cfg)
        assert shapes[0] == (1504, 1504, 40)
        assert shapes[3] == (188, 188, 5)
        anchors_per_class = 2 * 188 * 188
        grid = pipeline.bev_grid(cfg)
        assert 2 * grid.num_cells == anchors_per_class

    def test_bev_channels(self):
        assert pipeline.bev_channels(CFG) == 5 * 64

    def test_keypoint_width(self):
        # 4 levels x 2 radii x 32 + 2 x 16 + 320
        assert pipeline.keypoint_feature_width(CFG) == 256 + 32 + 320

    def test_anchor_count(self, anchors):
        assert len(anchors) == 2 * 48 * 48


class TestRunScene:
    def test_empty_scene_empty_outputs(self, model, anchors):
        result = pipeline.run_scene(EMPTY, model, CFG, anchors, seed=0)
        assert result.detections == []
        assert len(result.proposals) == 0
        assert result.proposals.rows.shape == (0, 7)
        assert result.proposals.scores.shape == (0,)
        assert result.proposals.class_ids.shape == (0,)
        assert result.keypoints is None

    def test_deterministic(self, model, anchors, scene):
        a = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        b = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert da.score == db.score
            np.testing.assert_array_equal(da.box.to_array(), db.box.to_array())

    def test_proposal_budget(self, model, anchors, scene):
        result = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        assert 0 < len(result.proposals) <= CFG.top_proposals
        assert len(result.detections) <= len(result.proposals)

    def test_keypoint_count_and_widths(self, model, anchors, scene):
        # run_scene keeps the FPS keypoints its proposals' grids can reach,
        # in FPS order; the PKW batch keeps all of them.
        result = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        kp = result.keypoints
        pts = scene.points_f64()
        kept = np.flatnonzero(in_range(pts[:, :3], CFG.range_min, CFG.range_max))
        fps_order = kept[vsa.fps(pts[kept, :3], CFG.num_keypoints)]
        reach = roihead.grid_reach(pts[fps_order, :3], result.proposals.rows)
        assert 0 < kp.n == reach.sum() < CFG.num_keypoints
        np.testing.assert_array_equal(kp.indices, fps_order[reach])
        assert kp.f_p.shape == (kp.n, pipeline.keypoint_feature_width(CFG))
        assert np.isfinite(kp.f_p).all()
        assert ((kp.scores > 0) & (kp.scores < 1)).all()
        np.testing.assert_array_equal(kp.weighted, kp.scores[:, None] * kp.f_p)
        batch = pipeline.build_pkw_batch(CFG, model, [scene], seed=1)
        assert batch.features.shape == (CFG.num_keypoints,
                                        pipeline.keypoint_feature_width(CFG))

    @pytest.mark.parametrize("near_edge", [False, True])
    def test_out_of_range_point_is_ignored(self, near_edge):
        # Desk scene 7 with point 5 moved out of the range: voxelize drops
        # the point, and keypoints and the raw-point branches must too, so
        # the detections equal those of the scene without point 5. Moved to
        # x = 1e6 m, or to just below x = 0 next to the in-range point of
        # least x (a keypoint, so the point would enter its raw branches).
        cfg = desk_config()
        model = pipeline.build_model(cfg, seed=7)
        anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
        scene = synth.gen_scene(cfg, seed=7)

        def run(points):
            s = SceneSample(points, scene.gt_boxes, scene.gt_classes, scene.seed,
                            scene.range_min, scene.range_max)
            return s, pipeline.run_scene(s, model, cfg, anchors, seed=7)

        far = scene.points.copy()
        far[5, 0] = 1e6
        if near_edge:
            far[5, :3] = far[np.argmin(scene.points[:, 0]), :3]
            far[5, 0] = -0.01
        far_scene, moved = run(far)
        _, dropped = run(np.delete(scene.points, 5, axis=0))
        assert moved.detections == dropped.detections
        kp = moved.keypoints
        np.testing.assert_array_equal(kp.positions, dropped.keypoints.positions)
        np.testing.assert_array_equal(kp.f_p, dropped.keypoints.f_p)
        assert 5 not in kp.indices
        np.testing.assert_array_equal(far_scene.points_f64()[kp.indices, :3],
                                      kp.positions)


class TestKeypointsForRois:
    """Keypoint features only where RoI-grid pooling reads them: the same
    bits as computing every keypoint."""

    @pytest.fixture(scope="class")
    def front(self, model, anchors, scene):
        tensors, bev = pipeline._scene_front(CFG, model, scene)
        cls_probs, reg = pipeline.rpn_head_outputs(model, bev, len(CFG.classes))
        rois = rpn.extract_proposals(cls_probs, reg, anchors, CFG.top_proposals).rows
        full = pipeline.build_keypoints(scene, tensors, bev, CFG, model, 1, None)
        return tensors, bev, rois, full

    def test_kept_rows_equal_the_full_run(self, model, scene, front):
        # The first k proposals for every k. A subset of 20 keypoints or
        # fewer may round differently (vsa.PKW_ROW_GROUP), so those are not
        # compared.
        tensors, bev, rois, full = front
        compared = []
        for k in range(1, len(rois) + 1):
            keep = roihead.grid_reach(full.positions, rois[:k])
            if keep.sum() < 21:
                continue
            sub = pipeline.build_keypoints(scene, tensors, bev, CFG, model, 1, rois[:k])
            assert sub.n == keep.sum() < full.n
            np.testing.assert_array_equal(sub.indices, full.indices[keep])
            np.testing.assert_array_equal(sub.positions, full.positions[keep])
            for name in ("f_p", "scores", "weighted_xyz", "labels"):
                np.testing.assert_array_equal(getattr(sub, name), getattr(full, name)[keep])
            compared.append(sub.n)
        assert min(compared) < 25 and max(compared) > 70

    def test_rois_reaching_every_keypoint_keep_all(self, model, scene, front):
        tensors, bev, _, full = front
        everything = np.array([[9.6, 0.0, -1.0, 30.0, 30.0, 10.0, 0.0]])
        sub = pipeline.build_keypoints(scene, tensors, bev, CFG, model, 1, everything)
        np.testing.assert_array_equal(sub.weighted_xyz, full.weighted_xyz)

    def test_no_proposal_keeps_no_keypoint(self, model, anchors, scene, monkeypatch):
        none = rpn.Proposals(np.empty((0, 7)), np.empty(0), np.empty(0, dtype=np.int64))
        monkeypatch.setattr(rpn, "extract_proposals", lambda *args, **kw: none)
        result = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        assert result.detections == [] and len(result.proposals) == 0
        kp = result.keypoints
        assert kp.n == 0
        assert kp.weighted_xyz.shape == (0, pipeline.keypoint_feature_width(CFG) + 3)

    @staticmethod
    def all_keypoints(monkeypatch):
        build = pipeline.build_keypoints
        monkeypatch.setattr(pipeline, "build_keypoints",
                            lambda *args: build(*args[:-1], None))

    def test_run_scene_equals_all_keypoints(self, model, anchors, scene, monkeypatch):
        some = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        self.all_keypoints(monkeypatch)
        every = pipeline.run_scene(scene, model, CFG, anchors, seed=1)
        assert every.keypoints.n == CFG.num_keypoints > some.keypoints.n
        assert len(some.detections) == len(every.detections) > 0
        for a, b in zip(some.detections, every.detections):
            assert (a.score, a.class_id) == (b.score, b.class_id)
            np.testing.assert_array_equal(a.box.to_array(), b.box.to_array())

    def test_refine_batch_equals_all_keypoints(self, model, anchors, scene, monkeypatch):
        # 8 sampled RoIs per scene reach 51 and 61 of the 128 keypoints.
        cfg = CFG.replace(roi_samples=8)
        scenes = [scene, synth.gen_scene(CFG, seed=43)]
        some = pipeline.build_refine_batch(cfg, model, scenes, anchors, seed=4)
        self.all_keypoints(monkeypatch)
        every = pipeline.build_refine_batch(cfg, model, scenes, anchors, seed=4)
        assert some.features.shape[0] == 16
        np.testing.assert_array_equal(some.features, every.features)
        np.testing.assert_array_equal(some.rois, every.rois)


def _one_then_many_threads(monkeypatch, run):
    """run() with one thread and default blocks, then with four threads and
    MIN_BLOCK_ROWS-row blocks; asserts some branch call was cut in blocks."""
    monkeypatch.setattr(parallel, "_threads", lambda: 1)
    one = run()
    cut, query_cuts = [], vsa._query_cuts

    def spy(*args):
        found = query_cuts(*args)
        cut.append(len(found) > 2)
        return found

    monkeypatch.setattr(parallel, "_threads", lambda: 4)
    monkeypatch.setattr(vsa, "ROW_BLOCK_BYTES", 0)
    monkeypatch.setattr(vsa, "_query_cuts", spy)
    many = run()
    assert any(cut)
    return one, many


class TestThreadCount:
    """Outputs are the same bits at any thread count and block size."""

    def test_run_scene(self, model, anchors, scene, monkeypatch):
        levels, backbone = [], pipeline.run_backbone
        monkeypatch.setattr(pipeline, "run_backbone",
                            lambda *args: levels.append(backbone(*args)) or levels[-1])
        one, many = _one_then_many_threads(
            monkeypatch, lambda: pipeline.run_scene(scene, model, CFG, anchors, seed=1))
        assert len(levels) == 2
        for a, b in zip(*levels):
            assert a.num_voxels > 0
            np.testing.assert_array_equal(a.coords, b.coords)
            np.testing.assert_array_equal(a.features, b.features)
        assert len(one.detections) == len(many.detections) > 0
        for a, b in zip(one.detections, many.detections):
            assert (a.score, a.class_id) == (b.score, b.class_id)
            np.testing.assert_array_equal(a.box.to_array(), b.box.to_array())
        np.testing.assert_array_equal(one.proposals.rows, many.proposals.rows)
        np.testing.assert_array_equal(one.keypoints.weighted_xyz,
                                      many.keypoints.weighted_xyz)

    def test_build_refine_batch(self, model, anchors, scene, monkeypatch):
        scenes = [scene, synth.gen_scene(CFG, seed=43)]
        one, many = _one_then_many_threads(
            monkeypatch,
            lambda: pipeline.build_refine_batch(CFG, model, scenes, anchors, seed=4))
        assert one.features.shape[0] > 0
        np.testing.assert_array_equal(one.features, many.features)
        np.testing.assert_array_equal(one.rois, many.rois)


class TestParamSections:
    def test_apply_pkw(self, model):
        fresh = pipeline.build_model(CFG, seed=9)
        buf = io.BytesIO()
        nn.save_params(fresh.pkw, buf, name="pkw")
        buf.seek(0)
        sections = nn.load_param_sections(buf)
        target = pipeline.build_model(CFG, seed=3)
        pipeline.apply_param_sections(target, sections)
        np.testing.assert_array_equal(target.pkw.weights[0],
                                      fresh.pkw.weights[0])

    def test_dim_mismatch_rejected(self, model):
        bad = nn.init_params((7, 1), seed=0, out_activation="sigmoid")
        with pytest.raises(nn.ShapeError):
            pipeline.apply_param_sections(pipeline.build_model(CFG, seed=3),
                                          {"pkw": bad})

    @pytest.mark.parametrize("section, dims, out", [
        ("refine_shared", (10, 256, 256), "identity"),
        ("refine_confidence", (64, 1), "sigmoid"),
        ("refine_regression", (256, 7), "sigmoid"),
        ("pkw", None, "identity"),
    ])
    def test_section_must_match_head(self, model, section, dims, out):
        target = pipeline.build_model(CFG, seed=3)
        dims = dims or target.pkw.layer_dims
        with pytest.raises(nn.ShapeError, match=f"{section} dims"):
            pipeline.apply_param_sections(
                target, {section: nn.init_params(dims, seed=0, out_activation=out)})

    def test_unknown_section_rejected(self, model):
        with pytest.raises(nn.ParamFileError):
            pipeline.apply_param_sections(
                pipeline.build_model(CFG, seed=3),
                {"mystery": nn.init_params((2, 1), seed=0)},
            )


@pytest.fixture
def mlp_layers_calls(monkeypatch):
    """Counts nn.mlp_layers calls by the layer_dims of the MLP evaluated."""
    calls = Counter()
    layers = nn.mlp_layers

    def counting(p, x):
        calls[p.layer_dims] += 1
        return layers(p, x)

    monkeypatch.setattr(nn, "mlp_layers", counting)
    return calls


class TestOneForwardPerStep:
    def test_train_pkw(self, model, mlp_layers_calls):
        rng = np.random.default_rng(0)
        batch = pipeline.PkwBatch(rng.normal(size=(20, model.pkw.in_width)),
                                  rng.integers(0, 2, 20))
        pipeline.train_pkw(model.pkw, batch, 3, lr=0.01)
        assert mlp_layers_calls == {model.pkw.layer_dims: 3 + 1}

    def test_train_refine(self, model, mlp_layers_calls):
        rng = np.random.default_rng(1)
        head = model.refine
        targets = RefineTargets(rng.uniform(size=12), rng.normal(size=(12, 7)),
                                rng.random(12) < 0.5, np.zeros(12, np.int64))
        batch = pipeline.RefineBatch(rng.normal(size=(12, head.shared.in_width)),
                                     [], targets, [])
        pipeline.train_refine(head, batch, 3, lr=0.01)
        assert mlp_layers_calls == {head.shared.layer_dims: 3,
                                    head.confidence.layer_dims: 3,
                                    head.regression.layer_dims: 3}


class TestEmptySceneInBatch:
    def test_pkw_batch_skips_empty_scene(self, model, scene):
        # Scene s keeps its stream seed + 101 * s: behind an empty scene,
        # the full scene draws from seed 4 + 101.
        for scenes, full_seed in (([scene, EMPTY], 4), ([EMPTY, scene], 4 + 101)):
            full = pipeline.build_pkw_batch(CFG, model, [scene], seed=full_seed)
            mixed = pipeline.build_pkw_batch(CFG, model, scenes, seed=4)
            np.testing.assert_array_equal(mixed.features, full.features)
            np.testing.assert_array_equal(mixed.labels, full.labels)

    def test_pkw_batch_of_empty_scenes_has_no_rows(self, model):
        batch = pipeline.build_pkw_batch(CFG, model, [EMPTY, EMPTY], seed=4)
        assert batch.features.shape == (0, pipeline.keypoint_feature_width(CFG))
        assert batch.labels.shape == (0,)

    def test_refine_batch_skips_empty_scene(self, model, anchors, scene):
        full = pipeline.build_refine_batch(CFG, model, [scene], anchors, seed=4)
        mixed = pipeline.build_refine_batch(CFG, model, [scene, EMPTY], anchors,
                                            seed=4)
        np.testing.assert_array_equal(mixed.features, full.features)
        np.testing.assert_array_equal(mixed.rois, full.rois)
        np.testing.assert_array_equal(mixed.matched_boxes, full.matched_boxes)
        for name in ("y", "residuals", "positive", "matched_gt"):
            np.testing.assert_array_equal(getattr(mixed.targets, name),
                                          getattr(full.targets, name))


@pytest.fixture(scope="module")
def bev(model, scene):
    level1 = voxelize(scene.points_f64(), CFG.range_min, CFG.range_max,
                      CFG.voxel_size)
    return bev_collapse(run_backbone(level1, model.backbone)[3])


class TestTrainingProposals:
    def test_decoded_row_per_anchor(self, model, anchors, bev):
        rows = pipeline.training_proposals(model, CFG, anchors, bev)
        _, reg = pipeline.rpn_head_outputs(model, bev, len(CFG.classes))
        np.testing.assert_array_equal(rows, rpn.decode_residuals(reg, anchors.boxes))

    @pytest.mark.parametrize("score, residual, message", [
        (np.nan, 0.0, "score must be in \\[0, 1\\], got nan"),
        (0.5, np.inf, "w must be finite, got inf"),
    ], ids=["nan score", "infinite width"])
    def test_bad_row_raises_as_in_extract_proposals(self, model, anchors, bev,
                                                    monkeypatch, score, residual,
                                                    message):
        cls, reg = pipeline.rpn_head_outputs(model, bev, len(CFG.classes))
        cls, reg = cls.copy(), reg.copy()
        cls[-1], reg[-1, 4] = score, residual
        monkeypatch.setattr(pipeline, "rpn_head_outputs", lambda *_: (cls, reg))
        match = f"anchor {len(anchors) - 1}: {message}"
        with pytest.raises(ValueError, match=match):
            pipeline.training_proposals(model, CFG, anchors, bev)
        with pytest.raises(ValueError, match=match):
            rpn.extract_proposals(cls, reg, anchors, top_k=CFG.top_proposals)


@pytest.fixture(scope="module", params=[("kitti", 7), ("desk", 11)],
                ids=["kitti", "desk"])
def golden_level4(request):
    """Model, level-4 tensor and keypoint positions of the kitti golden scene
    and of the first desk golden scene (model seed 7)."""
    profile, scene_seed = request.param
    cfg = default_config() if profile == "kitti" else desk_config()
    model = pipeline.build_model(cfg, 7)
    pts = synth.gen_scene(cfg, seed=scene_seed).points_f64()
    level1 = voxelize(pts, cfg.range_min, cfg.range_max, cfg.voxel_size)
    kept = np.flatnonzero(in_range(pts[:, :3], cfg.range_min, cfg.range_max))
    positions = pts[kept[vsa.fps(pts[kept, :3], cfg.num_keypoints)], :3]
    return cfg, model, run_backbone(level1, model.backbone)[3], positions


class TestSparseBevEqualsDense:
    """The occupied-rows map reads bit for bit as the dense BEV array."""

    def test_rpn_head_equals_mlp_over_dense_cells(self, golden_level4):
        cfg, model, t8, _ = golden_level4
        bev = bev_collapse(t8)
        assert 100 < len(bev.rows) < bev.nx * bev.ny  # some cells empty
        cls, reg = pipeline.rpn_head_outputs(model, bev, len(cfg.classes))
        out = nn.mlp_forward(model.rpn_head, dense_bev(t8).reshape(-1, bev.channels))
        per_cell = 2 * len(cfg.classes)
        np.testing.assert_array_equal(cls, nn.sigmoid(out[:, :per_cell]).reshape(-1))
        np.testing.assert_array_equal(reg, out[:, per_cell:].reshape(-1, 7))

    def test_bilinear_sample_equals_dense_interpolation(self, golden_level4):
        _, _, t8, positions = golden_level4
        bev = bev_collapse(t8)
        dense = dense_bev(t8)
        xy = positions[:, :2]
        lo, cell = bev.origin, bev.cell_size
        hi = lo + cell * (bev.nx, bev.ny)
        # Outside the map: half a cell past the low-x and the high-y edge
        # (blends of inside and outside cells), and wholly past the far corner.
        rim_x = np.column_stack([np.full(len(xy), lo[0] - 0.3 * cell[0]), xy[:, 1]])
        rim_y = np.column_stack([xy[:, 0], np.full(len(xy), hi[1] + 0.3 * cell[1])])
        far = xy + (hi - lo)
        for q in (xy, rim_x, rim_y, far):
            np.testing.assert_array_equal(bilinear_sample(bev, q),
                                          bilinear_sample_dense(dense, lo, cell, q))
        assert bilinear_sample(bev, rim_x).any() and not bilinear_sample(bev, far).any()


class TestTrainPkw:
    def test_zero_lr_flat_loss(self, model, scene):
        batch = pipeline.build_pkw_batch(CFG, model, [scene], seed=0)
        _, losses, _ = pipeline.train_pkw(model.pkw, batch, 5, lr=0.0)
        assert len(set(losses)) == 1

    def test_loss_decreases(self, model, scene):
        batch = pipeline.build_pkw_batch(CFG, model, [scene], seed=0)
        trained, losses, acc = pipeline.train_pkw(model.pkw, batch, 60, lr=0.01)
        assert losses[-1] < losses[0]
        # Original params untouched (training works on a copy).
        probe = nn.mlp_forward(model.pkw, batch.features[:1])
        assert np.isfinite(probe).all()


@pytest.mark.parametrize("which", ["pkw", "refine"])
def test_diverging_training_raises(model, anchors, scene, which):
    if which == "pkw":
        head, train = model.pkw, pipeline.train_pkw
        batch = pipeline.build_pkw_batch(CFG, model, [scene], seed=0)
    else:
        head, train = model.refine, pipeline.train_refine
        batch = pipeline.build_refine_batch(CFG, model, [scene], anchors, seed=0)
    assert np.isfinite(train(head, batch, 5, 0.01)[1]).all()
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=rf"^{which} training diverged: loss nan at "
                                      r"iteration [1-4] with lr 1e\+200$"):
        train(head, batch, 5, 1e200)


class TestTrainRefine:
    def test_overfit_improves_matched_iou(self, model, anchors):
        scenes = [synth.gen_scene(CFG, seed=200 + i) for i in range(2)]
        batch = pipeline.build_refine_batch(CFG, model, scenes, anchors, seed=0)
        assert batch.targets.positive.sum() > 0
        head, losses = pipeline.train_refine(model.refine, batch, 150, lr=0.01)
        assert losses[-1] < losses[0]
        raw, refined = pipeline.matched_iou_stats(head, batch)
        assert refined > raw

    def test_targets_shapes(self, model, anchors, scene):
        batch = pipeline.build_refine_batch(CFG, model, [scene], anchors, seed=0)
        s = batch.features.shape[0]
        assert s <= CFG.roi_samples
        assert batch.targets.y.shape == (s,)
        assert batch.targets.residuals.shape == (s, 7)
        assert len(batch.rois) == s


class TestBench:
    def test_roi_grid_beats_average_on_sparse_scene(self, model, anchors):
        sparse_cfg = CFG.replace(synth_ground_points=120, num_keypoints=48,
                                 synth_points_per_object=120)
        scene = synth.gen_scene(sparse_cfg, seed=77)
        result = pipeline.run_scene(scene, model, sparse_cfg, anchors, seed=0)
        grid = pipeline.bench_pooling(model, result.keypoints,
                                      result.proposals.rows, "roi_grid", seed=0)
        avg = pipeline.bench_pooling(model, result.keypoints,
                                     result.proposals.rows, "average_pool", seed=0)
        assert grid.nonzero_fraction > avg.nonzero_fraction
        assert grid.rois == avg.rois

    def test_deterministic_fields(self, model, anchors, scene):
        result = pipeline.run_scene(scene, model, CFG, anchors, seed=0)
        a = pipeline.bench_pooling(model, result.keypoints,
                                   result.proposals.rows, "roi_grid", seed=0)
        b = pipeline.bench_pooling(model, result.keypoints,
                                   result.proposals.rows, "roi_grid", seed=0)
        assert a.nonzero_fraction == b.nonzero_fraction

    def test_unknown_strategy(self, model, anchors, scene):
        result = pipeline.run_scene(scene, model, CFG, anchors, seed=0)
        with pytest.raises(ValueError):
            pipeline.bench_pooling(model, result.keypoints,
                                   result.proposals.rows, "maxpool", seed=0)
