"""RoI-grid pooling, the IoU-to-confidence mapping, proposal sampling,
refinement head gradients and final NMS."""

import math
import re

import numpy as np
import pytest

from pvlite import config, geom, nn, pipeline, roihead, rpn, vsa
from pvlite.config import FINAL_NMS_IOU, GRID_CAP, GRID_RADII, Config
from pvlite.geom import Box3D, Detection

from helpers import (
    csr, nms_reference, radius_query_bruteforce, random_box, refine_per_row,
    regression_rows, train_refine_branch_calls, zero_params,
)


def grid_mlps(feat_width, out=4, seed=0):
    return [nn.init_params((feat_width + 3, 8, out), seed=seed + r)
            for r in range(2)]


def pool_mlp(grid_width, out=16, seed=5):
    return nn.init_params((216 * grid_width, out, out), seed=seed)


def rows(*boxes):
    return np.array([b.to_array() for b in boxes]).reshape(-1, 7)


class TestRoiGridPool:
    def test_no_keypoints_pooled_is_mlp_of_zero(self):
        roi = Box3D(0, 0, 0, 4, 2, 1.5, 0.2)
        gm = grid_mlps(6)
        pm = pool_mlp(8)
        grid_features, roi_features = roihead.roi_grid_pool(
            rows(roi), np.empty((0, 9)), gm, pm, 0)
        assert not grid_features.any()
        np.testing.assert_allclose(
            roi_features, nn.mlp_forward(pm, np.zeros((1, 216 * 8))), atol=1e-12
        )

    def test_single_keypoint_reaches_near_grid_points(self):
        roi = Box3D(0, 0, 0, 1.0, 1.0, 1.0, 0.0)
        kp = np.array([[0.0, 0.0, 0.0]])
        feats = np.array([[1.0, 2.0]])
        gm = grid_mlps(2, seed=3)
        pm = pool_mlp(8, seed=4)
        [g], _ = roihead.roi_grid_pool(rows(roi), np.hstack([feats, kp]), gm, pm, 0)
        # Every grid point of a unit box is within 0.8 m of the center.
        grid = geom.roi_grid_points(roi.to_array())
        d = np.linalg.norm(grid, axis=1)
        assert (d < 0.8).all()
        assert (g != 0).any(axis=1).all()
        # Each grid point aggregates exactly that keypoint.
        for i in range(216):
            expect_a = nn.mlp_forward(gm[0], np.concatenate([feats[0], -grid[i]])[None])
            np.testing.assert_allclose(g[i, :4], expect_a[0], atol=1e-12)

    def test_keypoint_beyond_boundary_contributes(self):
        # Keypoint 0.5 m outside a face still reaches boundary grid points.
        roi = Box3D(0, 0, 0, 2.0, 2.0, 2.0, 0.0)
        kp = np.array([[1.5, 0.0, 0.0]])  # 0.5 m beyond the +x face
        feats = np.ones((1, 3))
        gm = grid_mlps(3, seed=6)
        pm = pool_mlp(8, seed=7)
        [g], _ = roihead.roi_grid_pool(rows(roi), np.hstack([feats, kp]), gm, pm, 0)
        grid = geom.roi_grid_points(roi.to_array())
        near = np.linalg.norm(grid - kp[0], axis=1) < 0.8
        assert near.any()
        assert (g[near] != 0).any(axis=1).all()
        assert not geom.points_in_box(kp, roi.to_array()).any()

    def test_translation_invariance(self):
        # Translating the RoI and keypoints together leaves grid features
        # unchanged: the MLP sees only relative offsets. Enough keypoints
        # that GRID_CAP subsamples near the center.
        rng = np.random.default_rng(30)
        roi = Box3D(1.0, -2.0, 0.5, 3.0, 1.8, 1.5, 0.4)
        kp = rng.normal(size=(200, 3)) * 1.5 + [1.0, -2.0, 0.5]
        feats = rng.normal(size=(200, 4))
        gm = grid_mlps(4, seed=31)
        pm = pool_mlp(8, seed=32)
        a = roihead.roi_grid_pool(rows(roi), np.hstack([feats, kp]), gm, pm, 1)
        shift = np.array([7.0, -3.5, 1.25])
        roi2 = Box3D(roi.cx + shift[0], roi.cy + shift[1], roi.cz + shift[2],
                     roi.l, roi.w, roi.h, roi.theta)
        b = roihead.roi_grid_pool(rows(roi2), np.hstack([feats, kp + shift]),
                                  gm, pm, 1)
        np.testing.assert_allclose(b[0], a[0], atol=1e-9)
        np.testing.assert_allclose(b[1], a[1], atol=1e-9)

    def test_grid_feature_width(self):
        roi = random_box(np.random.default_rng(8))
        rng = np.random.default_rng(9)
        kp = rng.normal(size=(30, 3)) + [roi.cx, roi.cy, roi.cz]
        feats = rng.normal(size=(30, 5))
        gm = grid_mlps(5, out=7, seed=10)
        pm = nn.init_params((216 * 14, 16, 16), seed=11)
        grid_features, roi_features = roihead.roi_grid_pool(
            rows(roi), np.hstack([feats, kp]), gm, pm, 0)
        assert grid_features.shape == (1, 216, 14)
        assert roi_features.shape == (1, 16)

    def test_batch_equals_single_roi_calls(self):
        # 35 RoIs in one call, with keypoints dense enough that GRID_CAP
        # subsamples; the last RoI is far from every keypoint. RoI i of the
        # batch draws as a lone RoI does from seed + 31 * i, and its pooled
        # row is the pool MLP on its grid features as one row.
        rng = np.random.default_rng(33)
        kp = rng.uniform(-4, 4, size=(3000, 3))
        feats = rng.normal(size=(3000, 4))
        gm = grid_mlps(4, seed=34)
        pm = pool_mlp(8, seed=35)
        n = 35
        rois = [random_box(rng, center_span=3.0) for _ in range(n - 1)]
        rois.append(Box3D(100.0, 100.0, 0.0, 2.0, 2.0, 2.0, 0.3))
        seed = int(rng.integers(0, 10_000))
        points = np.hstack([feats, kp])
        grid_features, roi_features = roihead.roi_grid_pool(
            rows(*rois), points, gm, pm, seed)
        assert grid_features.shape == (n, 216, 8)
        assert roi_features.shape == (n, 16)
        for i, roi in enumerate(rois):
            want = roihead.roi_grid_pool(rows(roi), points, gm, pm, seed + 31 * i)
            np.testing.assert_array_equal(grid_features[i], want[0][0])
            np.testing.assert_array_equal(roi_features[i], want[1][0])
            np.testing.assert_array_equal(
                roi_features[i], nn.mlp_forward(pm, grid_features[i].reshape(1, -1))[0])
        assert not grid_features[-1].any()

    def test_radius_streams_follow_seed(self):
        # Grid point j of RoI p at radius index r subsamples from the stream
        # [seed + 31 * p + r, j]: rebuild the grid features from the oracle
        # query, with keypoints dense enough that GRID_CAP binds at both radii.
        rng = np.random.default_rng(36)
        kp = rng.uniform(-2, 2, size=(1200, 3))
        feats = rng.normal(size=(1200, 4))
        gm = grid_mlps(4, seed=37)
        rois = [Box3D(0.2, -0.1, 0.0, 3.0, 2.0, 1.5, 0.4),
                Box3D(-0.3, 0.4, 0.1, 2.5, 1.5, 1.2, -1.1)]
        points = np.hstack([feats, kp])
        g, _ = roihead.roi_grid_pool(rows(*rois), points, gm, pool_mlp(8, seed=38), 40)
        for p, roi in enumerate(rois):
            grid = geom.roi_grid_points(roi.to_array())
            want = vsa.aggregate([
                (grid, vsa.NeighborLists(*csr(radius_query_bruteforce(
                    grid, kp, radius, GRID_CAP, 40 + 31 * p + r))), points, gm[r])
                for r, radius in enumerate(GRID_RADII)])
            np.testing.assert_array_equal(g[p], np.concatenate(want, axis=1))

    def test_seed_keys_up_to_the_top(self):
        # The last RoI's last radius keys seed + 31 * (R - 1) + 1: at
        # 2**64 - 1 it draws that stream, one past it raises.
        rng = np.random.default_rng(39)
        points = np.hstack([rng.normal(size=(400, 4)), rng.uniform(-1, 1, size=(400, 3))])
        rois = rows(Box3D(0, 0, 0, 2, 2, 2, 0.0), Box3D(0.1, 0, 0, 2, 2, 2, 0.5))
        gm, pm = grid_mlps(4, seed=41), pool_mlp(8, seed=42)
        top = 2**64 - 1 - 31 - (len(GRID_RADII) - 1)
        g, _ = roihead.roi_grid_pool(rois, points, gm, pm, top)
        grid = geom.roi_grid_points(rois[1])
        want = vsa.aggregate([
            (grid, vsa.NeighborLists(*csr(radius_query_bruteforce(
                grid, points[:, 4:], radius, GRID_CAP,
                np.array([[top + 31 + r, j] for j in range(len(grid))], dtype=np.uint64)))),
             points, gm[r])
            for r, radius in enumerate(GRID_RADII)])
        np.testing.assert_array_equal(g[1], np.concatenate(want, axis=1))
        for bad in (top + 1, -1):
            with pytest.raises(ValueError, match="seed"):
                roihead.roi_grid_pool(rois, points, gm, pm, bad)

    def test_empty_roi_list(self):
        gm = grid_mlps(4)
        pm = pool_mlp(8)
        kp = np.zeros((5, 3))
        grid_features, roi_features = roihead.roi_grid_pool(
            np.empty((0, 7)), np.hstack([np.ones((5, 4)), kp]), gm, pm, 0)
        assert grid_features.shape == (0, 216, 8)
        assert roi_features.shape == (0, 16)


class TestGridReach:
    """grid_reach holds every point within max(GRID_RADII) of a grid point."""

    BOXES = np.array([[1.0, -2.0, 0.3, 3.9, 1.6, 1.5, 0.0],
                      [4.0, 3.0, -0.5, 4.2, 1.8, 1.6, 0.7],
                      [-3.0, 1.0, 0.0, 0.9, 0.6, 1.7, -2.3]])

    @staticmethod
    def in_radius(points, boxes):
        """Brute force: some grid point lies within max(GRID_RADII)."""
        grids = geom.roi_grid_points(boxes).reshape(-1, 3)
        d2 = ((points[:, None, :] - grids[None]) ** 2).sum(axis=2)
        return (d2 < max(GRID_RADII) ** 2).any(axis=1)

    @staticmethod
    def local_to_world(box, local):
        c, s = math.cos(box[6]), math.sin(box[6])
        x, y, z = local
        return np.array([c * x - s * y + box[0], s * x + c * y + box[1], z + box[2]])

    def test_superset_of_brute_force(self):
        rng = np.random.default_rng(120)
        points = rng.uniform(-7.0, 8.0, size=(4000, 3)) * [1.0, 1.0, 0.4]
        reach = roihead.grid_reach(points, self.BOXES)
        near = self.in_radius(points, self.BOXES)
        assert near.sum() > 300
        assert not (near & ~reach).any()
        assert reach.sum() < len(points)

    def test_a_hair_inside_a_corner_grid_point_radius(self):
        # Straight out of the rotated box from its first (corner) grid point.
        box = self.BOXES[1]
        corner = geom.roi_grid_points(box)[0]
        outward = self.local_to_world(box, -box[3:6]) - box[:3]
        point = corner + outward / np.linalg.norm(outward) * max(GRID_RADII) * (1 - 1e-12)
        assert self.in_radius(point[None], box[None])[0]
        assert roihead.grid_reach(point[None], self.BOXES)[0]

    def test_a_hair_outside_the_grown_box(self):
        box = self.BOXES[1]
        for axis in range(3):
            local = np.zeros(3)
            local[axis] = box[3 + axis] / 2 + max(GRID_RADII) + 1e-6
            point = self.local_to_world(box, local)[None]
            assert not roihead.grid_reach(point, box[None])[0]
            local[axis] -= 2e-6  # a hair inside
            assert roihead.grid_reach(self.local_to_world(box, local)[None], box[None])[0]

    def test_no_roi_reaches_nothing(self):
        points = np.zeros((5, 3))
        np.testing.assert_array_equal(roihead.grid_reach(points, np.empty((0, 7))),
                                      np.zeros(5, dtype=bool))


class TestAveragePool:
    def test_empty_and_outside(self):
        roi = Box3D(0, 0, 0, 2, 2, 2, 0.0).to_array()
        assert not roihead.average_pool_roi(roi, np.empty((0, 3)),
                                            np.empty((0, 4))).any()
        far = np.array([[50.0, 0.0, 0.0]])
        out = roihead.average_pool_roi(roi, far, np.ones((1, 4)))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_mean_of_inside(self):
        roi = Box3D(0, 0, 0, 2, 2, 2, 0.0).to_array()
        kp = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [9.0, 0.0, 0.0]])
        feats = np.array([[1.0], [3.0], [100.0]])
        out = roihead.average_pool_roi(roi, kp, feats)
        assert out[0] == pytest.approx(2.0)


class TestConfidenceTarget:
    def test_paper_anchor_values(self):
        assert roihead.confidence_target(0.25) == 0.0
        assert roihead.confidence_target(0.5) == 0.5
        assert roihead.confidence_target(0.75) == 1.0

    def test_grid_of_values(self):
        for iou in np.linspace(0, 1, 11):
            expect = min(1.0, max(0.0, 2.0 * iou - 0.5))
            assert roihead.confidence_target(iou) == pytest.approx(expect, abs=1e-15)

    def test_monotone_and_saturating(self):
        xs = np.linspace(0, 1, 101)
        ys = roihead.confidence_target(xs)
        assert (np.diff(ys) >= 0).all()
        assert (ys[xs <= 0.25] == 0.0).all()
        assert (ys[xs >= 0.75] == 1.0).all()


class TestIouBce:
    def test_perfect(self):
        assert roihead.iou_bce_loss(np.array([1 - 1e-9]), np.array([1.0])) < 1e-5

    def test_half(self):
        assert roihead.iou_bce_loss(np.array([0.5]), np.array([0.5])) == pytest.approx(
            math.log(2.0)
        )

    def test_gradient_matches_fd(self):
        # Keep |pred - target| bounded away from zero: the gradient crosses
        # zero at pred == target, where relative error is ill-conditioned.
        target = np.linspace(0.0, 1.0, 16)
        pred = np.clip(target + np.where(target < 0.5, 0.3, -0.3), 0.02, 0.98)

        def f(p):
            return roihead.iou_bce_loss(p, target), roihead.iou_bce_grad(p, target)

        assert nn.grad_check(f, pred) < 1e-4


class TestSampleProposals:
    def _props_on(self, gts, extra_far=0):
        """Box rows: one on each gt, then extra_far rows far from all."""
        rows = [b.to_array() for b in gts]
        rng = np.random.default_rng(13)
        for k in range(extra_far):
            rows.append([200 + 5 * k, 200, 0, 4, 2, 1.5, float(rng.uniform(-3, 3))])
        return np.array(rows, dtype=float).reshape(-1, 7)

    def test_all_equal_gt(self):
        gts = [random_box(np.random.default_rng(14)) for _ in range(3)]
        sampled, targets = roihead.sample_proposals(self._props_on(gts), rows(*gts),
                                                    seed=0, n_sample=4)
        assert targets.positive.all()
        np.testing.assert_allclose(targets.y, np.ones(len(sampled)))

    def test_all_far_negative(self):
        gts = [Box3D(0, 0, 0, 4, 2, 1.5, 0.0)]
        props = self._props_on([], extra_far=6)
        sampled, targets = roihead.sample_proposals(props, rows(*gts), seed=0, n_sample=4)
        assert not targets.positive.any()
        np.testing.assert_allclose(targets.y, np.zeros(len(sampled)))

    def test_iou_at_threshold_maps_to_confidence(self):
        gt = Box3D(0, 0, 0, 4, 2, 2.0, 0.0)
        # Same footprint shifted vertically for IoU exactly 0.55:
        # overlap h solves h / (4 - h) = 0.55 -> h = 2*0.55*2/1.55.
        dz = 2.0 - 2 * 0.55 * 2.0 / 1.55
        prop = Box3D(0, 0, dz, 4, 2, 2.0, 0.0)
        assert geom.iou_3d(prop.to_array(), gt.to_array()) == pytest.approx(0.55, abs=1e-12)
        sampled, targets = roihead.sample_proposals(prop.to_array()[None], rows(gt),
                                                    seed=0, n_sample=2)
        assert targets.positive[0]
        assert targets.y[0] == pytest.approx(0.6, abs=1e-9)

    def test_one_to_one_ratio_when_possible(self):
        gts = [Box3D(i * 10.0, 0, 0, 4, 2, 1.5, 0.0) for i in range(8)]
        props = self._props_on(gts, extra_far=20)
        sampled, targets = roihead.sample_proposals(props, rows(*gts), seed=1,
                                                    n_sample=8)
        assert len(sampled) == 8
        assert targets.positive.sum() == 4

    def test_short_side_fill(self):
        gts = [Box3D(0, 0, 0, 4, 2, 1.5, 0.0)]
        props = self._props_on(gts, extra_far=10)
        sampled, targets = roihead.sample_proposals(props, rows(*gts), seed=2,
                                                    n_sample=8)
        assert len(sampled) == 8
        assert targets.positive.sum() == 1

    def test_empty_proposals(self):
        sampled, targets = roihead.sample_proposals(
            np.empty((0, 7)), rows(Box3D(0, 0, 0, 1, 1, 1, 0)), seed=0,
            n_sample=Config().roi_samples)
        assert sampled.shape == (0, 7)
        assert targets.y.size == 0

    def test_residuals_decode_to_gt(self):
        gt = Box3D(5, 3, -0.5, 4.2, 1.8, 1.5, 0.3)
        prop = Box3D(5.3, 2.9, -0.45, 4.0, 1.7, 1.6, 0.25)
        assert geom.iou_3d(prop.to_array(), gt.to_array()) > 0.55
        sampled, targets = roihead.sample_proposals(prop.to_array()[None], rows(gt),
                                                    seed=3, n_sample=2)
        back = rpn.decode_residuals(targets.residuals[:1], rows(prop))
        np.testing.assert_allclose(back[0], gt.to_array(), atol=1e-9)

    def test_sampled_rows_are_input_rows_positives_first(self):
        gts = [Box3D(i * 10.0, 0, 0, 4, 2, 1.5, 0.0) for i in range(8)]
        props = self._props_on(gts, extra_far=20)
        sampled, targets = roihead.sample_proposals(props, rows(*gts), seed=1,
                                                    n_sample=8)
        index = [int(np.flatnonzero((props == row).all(axis=1))[0])
                 for row in sampled]
        assert index == sorted(index[:4]) + sorted(index[4:])
        np.testing.assert_array_equal(targets.positive, [True] * 4 + [False] * 4)
        np.testing.assert_array_equal(targets.matched_gt[:4], index[:4])

    def test_one_iou_call_for_rows_near_gt(self, monkeypatch):
        gts = [Box3D(0, 0, 0, 4, 2, 1.5, 0.0)]
        props = self._props_on(gts, extra_far=10)
        pairs = []
        real = geom.iou_3d
        monkeypatch.setattr(geom, "iou_3d",
                            lambda a, b: pairs.append(a[:, 0].tolist()) or real(a, b))
        roihead.sample_proposals(props, rows(*gts), seed=2, n_sample=8)
        # One call, holding only the row on the gt.
        assert pairs == [[0.0]]


class TestRefine:
    def _head(self, feat=12, hidden=10, seed=20):
        return roihead.RefineHead(
            shared=nn.init_params((feat, hidden, hidden), seed=seed),
            confidence=nn.init_params((hidden, 1), seed=seed + 1,
                                      out_activation="sigmoid"),
            regression=nn.init_params((hidden, 7), seed=seed + 2),
        )

    def test_zero_branches(self):
        head = roihead.RefineHead(
            shared=nn.init_params((6, 5, 5), seed=21),
            confidence=zero_params((5, 1), out_activation="sigmoid"),
            regression=zero_params((5, 7)),
        )
        roi = random_box(np.random.default_rng(22))
        conf, res, refined = roihead.refine(np.ones((1, 6)), rows(roi), head)
        assert conf[0] == pytest.approx(0.5)
        np.testing.assert_array_equal(res, np.zeros((1, 7)))
        np.testing.assert_allclose(refined[0], roi.to_array(), atol=1e-12)

    def test_matches_recomposition(self):
        head = self._head()
        rng = np.random.default_rng(23)
        feat = rng.normal(size=(1, 12))
        roi = random_box(rng)
        conf, res, refined = roihead.refine(feat, rows(roi), head)
        trunk = nn.mlp_forward(head.shared, feat)
        assert conf[0] == pytest.approx(float(nn.mlp_forward(head.confidence, trunk)[0, 0]))
        np.testing.assert_allclose(res, nn.mlp_forward(head.regression, trunk))
        np.testing.assert_allclose(refined, rpn.decode_residuals(res, rows(roi)))

    def test_rows_equal_single_row_calls(self):
        head = self._head(seed=40)
        rng = np.random.default_rng(41)
        feats = rng.normal(size=(9, 12))
        rois = rows(*(random_box(rng) for _ in range(9)))
        conf, res, refined = roihead.refine(feats, rois, head)
        assert conf.shape == (9,) and res.shape == refined.shape == (9, 7)
        for i in range(9):
            one = roihead.refine(feats[i : i + 1], rois[i : i + 1], head)
            np.testing.assert_array_equal(conf[i : i + 1], one[0])
            np.testing.assert_array_equal(res[i : i + 1], one[1])
            np.testing.assert_array_equal(refined[i : i + 1], one[2])

    def test_no_rois(self):
        conf, res, refined = roihead.refine(np.empty((0, 12)), np.empty((0, 7)),
                                            self._head())
        assert conf.shape == (0,) and res.shape == refined.shape == (0, 7)

    @pytest.mark.parametrize("positives", [5, 0], ids=["some positive", "none positive"])
    def test_head_bits_equal_separate_calls(self, positives):
        # At the model's widths, refine equals the head one RoI at a time,
        # train_refine's losses at iterations 0 and 1 and its trained head
        # equal one mlp_layers call per MLP, and matched_iou_stats equals
        # the trunk and regression as two calls.
        head = pipeline.build_model(Config(), 3).refine
        rng = np.random.default_rng(44)
        s = 12
        feats = rng.normal(size=(s, config.ROI_FEATURE_WIDTH))
        rois = rows(*(random_box(rng, center_span=4.0) for _ in range(s)))
        got, want = roihead.refine(feats, rois, head), refine_per_row(feats, rois, head)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

        positive = np.arange(s) < positives
        targets = roihead.RefineTargets(rng.uniform(size=s), rng.normal(size=(s, 7)) * 0.2,
                                        positive, np.where(positive, 0, -1))
        gts = rpn.decode_residuals(targets.residuals, rois)
        batch = pipeline.RefineBatch(feats, rois, targets, gts)
        trained, losses = pipeline.train_refine(head, batch, 2, lr=0.01)
        want_head, want_losses = train_refine_branch_calls(head, batch, 2, lr=0.01)
        assert losses == want_losses
        for a, b in zip((trained.shared, trained.confidence, trained.regression),
                        (want_head.shared, want_head.confidence, want_head.regression)):
            np.testing.assert_array_equal(nn.params_to_vector(a), nn.params_to_vector(b))

        raw, refined = pipeline.matched_iou_stats(trained, batch)
        if not positives:
            assert math.isnan(raw) and math.isnan(refined)
            return
        res = regression_rows(trained, feats)[positive]
        assert raw == float(np.mean(geom.iou_3d(rois[positive], gts[positive])))
        assert refined == float(np.mean(geom.iou_3d(
            rpn.decode_residuals(res, rois[positive]), gts[positive])))

    @pytest.mark.parametrize("bad, message", [
        ([0, 0, 0, -1.0, 1, 1, 0], "RoI 1: l must be positive, got -1.0"),
        ([0, float("nan"), 0, 1, 1, 1, 0], "RoI 1: cy must be finite, got nan"),
    ], ids=["nonpositive-size", "nonfinite-field"])
    def test_invalid_refined_row_raises(self, bad, message):
        # Zero residuals: each refined row is its RoI, and row 1 is invalid.
        head = roihead.RefineHead(
            shared=nn.init_params((6, 5, 5), seed=21),
            confidence=zero_params((5, 1), out_activation="sigmoid"),
            regression=zero_params((5, 7)),
        )
        rois = np.array([Box3D(0, 0, 0, 1, 1, 1, 0).to_array(), bad,
                         Box3D(9, 0, 0, 1, 1, 1, 0).to_array()])
        with pytest.raises(ValueError, match=re.escape(message)):
            roihead.refine(np.ones((3, 6)), rois, head)

    def test_diverged_regression_names_roi(self):
        head = self._head()
        head.regression.weights[-1][:] = 0.0
        head.regression.biases[-1][3] = 1000.0  # exp(1000) overflows l
        rois = rows(*(random_box(np.random.default_rng(24)) for _ in range(2)))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="RoI 0: l must be finite, got inf"):
            roihead.refine(np.ones((2, 12)), rois, head)

    def test_branch_contracts_enforced(self):
        with pytest.raises(nn.ShapeError):
            roihead.RefineHead(
                shared=nn.init_params((6, 5), seed=0),
                confidence=nn.init_params((5, 1), seed=1),  # not sigmoid
                regression=nn.init_params((5, 7), seed=2),
            )

    def test_confidence_branch_gradient(self):
        head = self._head(seed=24)
        rng = np.random.default_rng(25)
        feats = rng.normal(size=(6, 12))
        y = rng.uniform(0, 1, size=6)
        trunk = nn.mlp_forward(head.shared, feats)
        template = head.confidence

        def f(vec):
            p = nn.params_from_vector(template, vec)
            layers = nn.mlp_layers(p, trunk)
            conf = layers[-1][:, 0]
            val = roihead.iou_bce_loss(conf, y)
            up = roihead.iou_bce_grad(conf, y)[:, None]
            w_g, b_g, _ = nn.mlp_backward(p, trunk, layers, up)
            return val, nn.params_to_vector(
                nn.MlpParams(p.layer_dims, w_g, b_g, p.out_activation)
            )

        assert nn.grad_check(f, nn.params_to_vector(template)) < 1e-4

    def test_regression_branch_gradient(self):
        head = self._head(seed=26)
        rng = np.random.default_rng(27)
        feats = rng.normal(size=(6, 12))
        target = rng.normal(size=(6, 7)) * 0.3
        trunk = nn.mlp_forward(head.shared, feats)
        template = head.regression

        def f(vec):
            p = nn.params_from_vector(template, vec)
            layers = nn.mlp_layers(p, trunk)
            res = layers[-1]
            val = rpn.smooth_l1(res, target)
            up = rpn.smooth_l1_grad(res, target)
            w_g, b_g, _ = nn.mlp_backward(p, trunk, layers, up)
            return val, nn.params_to_vector(
                nn.MlpParams(p.layer_dims, w_g, b_g, p.out_activation)
            )

        assert nn.grad_check(f, nn.params_to_vector(template)) < 1e-4


class TestRcnnLoss:
    def test_perfect(self):
        targets = roihead.RefineTargets(
            y=np.array([1.0, 0.0]),
            residuals=np.zeros((2, 7)),
            positive=np.array([True, False]),
            matched_gt=np.array([0, -1]),
        )
        total, parts = roihead.rcnn_loss(
            np.array([1 - 1e-7, 1e-7]), np.zeros((2, 7)), targets
        )
        assert total < 1e-4

    def test_no_positives_zero_reg(self):
        targets = roihead.RefineTargets(
            y=np.array([0.2, 0.0]),
            residuals=np.zeros((2, 7)),
            positive=np.array([False, False]),
            matched_gt=np.array([-1, -1]),
        )
        total, parts = roihead.rcnn_loss(np.array([0.5, 0.5]),
                                         np.ones((2, 7)), targets)
        assert parts["reg"] == 0.0

    def test_recomposes(self):
        rng = np.random.default_rng(28)
        s = 10
        targets = roihead.RefineTargets(
            y=rng.uniform(0, 1, size=s),
            residuals=rng.normal(size=(s, 7)) * 0.2,
            positive=rng.random(s) < 0.5,
            matched_gt=np.zeros(s, dtype=np.int64),
        )
        conf = rng.uniform(0.1, 0.9, size=s)
        res = rng.normal(size=(s, 7)) * 0.3
        total, parts = roihead.rcnn_loss(conf, res, targets)
        pos = targets.positive
        assert total == pytest.approx(
            roihead.iou_bce_loss(conf, targets.y)
            + rpn.smooth_l1(res[pos], targets.residuals[pos])
        )


def select(dets):
    """final_select over Detection objects, returning the kept objects."""
    boxes = rows(*(d.box for d in dets))
    keep = roihead.final_select(boxes, np.array([d.score for d in dets]))
    return [dets[i] for i in keep]


class TestFinalSelect:
    def test_single_kept(self):
        d = Detection(random_box(np.random.default_rng(29)), 0.8)
        assert roihead.final_select(rows(d.box), np.array([0.8])) == [0]

    def test_near_duplicates_collapse(self):
        b = Box3D(3, 1, 0, 4, 2, 1.5, 0.1)
        dets = [
            Detection(b, 0.9),
            Detection(Box3D(3.01, 1.0, 0, 4, 2, 1.5, 0.1), 0.7),
        ]
        kept = select(dets)
        assert [d.score for d in kept] == [0.9]

    def test_disjoint_pass_through(self):
        dets = [
            Detection(Box3D(i * 20.0, 0, 0, 4, 2, 1.5, 0.0), 0.5 + 0.05 * i)
            for i in range(4)
        ]
        kept = select(dets)
        assert len(kept) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert geom.iou_3d(kept[i].box.to_array(),
                                   kept[j].box.to_array()) <= FINAL_NMS_IOU

    def test_matches_reference_and_returns_originals(self):
        rng = np.random.default_rng(31)
        dets = [Detection(random_box(rng, center_span=4.0), float(s))
                for s in rng.choice([0.3, 0.6, 0.9], size=40)]
        kept = select(dets)
        expect = nms_reference(dets, FINAL_NMS_IOU)
        assert len(kept) == len(expect) > 1
        assert all(k is dets[i] for k, i in zip(kept, expect))

    def test_empty(self):
        assert roihead.final_select(np.empty((0, 7)), np.empty(0)) == []
