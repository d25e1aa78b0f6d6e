"""Anchor generation, the residual codec round trip, target assignment,
losses with finite-difference gradient checks, and proposal NMS."""

import math

import numpy as np
import pytest

from pvlite import geom, nn, pipeline, rpn
from pvlite.config import (
    PROPOSAL_NMS_IOU, ClassSpec, Config, default_config, desk_config,
)
from pvlite.geom import Box3D, Detection

from helpers import nms_reference, proposals_as_detections, random_box

CAR = ClassSpec("car", (3.9, 1.6, 1.56), -0.82)
PED = ClassSpec("pedestrian", (0.8, 0.6, 1.73), -0.6)


def small_grid(nx=4, ny=4, cell=0.4):
    return rpn.BevGrid(origin=(0.0, 0.0), cell_size=(cell, cell), nx=nx, ny=ny)


class TestGenerateAnchors:
    def test_count(self):
        anchors = rpn.generate_anchors((CAR,), small_grid())
        assert len(anchors) == 2 * 4 * 4

    def test_sizes_and_yaws(self):
        anchors = rpn.generate_anchors((CAR,), small_grid())
        np.testing.assert_allclose(
            anchors.boxes[:, 3:6], np.tile([3.9, 1.6, 1.56], (len(anchors), 1))
        )
        yaws = anchors.boxes[:, 6].reshape(-1, 2)
        np.testing.assert_allclose(yaws[:, 0], 0.0)
        np.testing.assert_allclose(yaws[:, 1], math.pi / 2)

    def test_centers_on_lattice(self):
        anchors = rpn.generate_anchors((CAR,), small_grid(nx=2, ny=3, cell=1.0))
        assert anchors.boxes[0, 0] == pytest.approx(0.5)
        assert anchors.boxes[0, 1] == pytest.approx(0.5)
        assert anchors.boxes[-1, 0] == pytest.approx(1.5)
        assert anchors.boxes[-1, 1] == pytest.approx(2.5)

    def test_two_classes(self):
        ped = ClassSpec("ped", (0.8, 0.6, 1.73), -0.7)
        anchors = rpn.generate_anchors((CAR, ped), small_grid())
        assert len(anchors) == 4 * 4 * 4
        assert set(np.unique(anchors.class_ids)) == {0, 1}


def encode(gt, anchor):
    return rpn.encode_residuals(gt.to_array()[None], anchor.to_array()[None])[0]


def decode(residual, anchor):
    return rpn.decode_residuals(np.asarray(residual)[None], anchor.to_array()[None])[0]


class TestResidualCodec:
    def test_identical_is_zero(self):
        b = random_box(np.random.default_rng(0))
        np.testing.assert_allclose(encode(b, b), np.zeros(7), atol=1e-12)

    def test_hand_case(self):
        anchor = Box3D(0, 0, 0, 4.0, 2.0, 1.5, 0.0)
        gt = Box3D(1.0, 0, 0, 4.0, 2.0, 1.5, 0.0)
        dr = encode(gt, anchor)
        assert dr[0] == pytest.approx(1.0 / math.sqrt(20.0))
        np.testing.assert_allclose(dr[1:], np.zeros(6), atol=1e-12)

    def test_round_trip_many(self):
        rng = np.random.default_rng(1)
        gts = [random_box(rng) for _ in range(500)]
        anchors = [random_box(rng) for _ in range(500)]
        gt_rows = np.array([b.to_array() for b in gts])
        an_rows = np.array([b.to_array() for b in anchors])
        back = rpn.decode_residuals(rpn.encode_residuals(gt_rows, an_rows), an_rows)
        np.testing.assert_allclose(back, gt_rows, atol=1e-9)

    def test_zero_residual_decodes_to_anchor(self):
        anchor = random_box(np.random.default_rng(2))
        back = decode(np.zeros(7), anchor)
        np.testing.assert_allclose(back, anchor.to_array(), atol=1e-12)

    def test_theta_wrap(self):
        anchor = Box3D(0, 0, 0, 2, 1, 1, 3.0)
        gt = Box3D(0, 0, 0, 2, 1, 1, -3.0)
        dr = encode(gt, anchor)
        assert -math.pi <= dr[6] < math.pi
        back = decode(dr, anchor)
        assert back[6] == pytest.approx(gt.theta, abs=1e-12)


class TestAssignTargets:
    def test_no_gt_all_negative(self):
        anchors = rpn.generate_anchors((CAR,), small_grid())
        t = rpn.assign_targets(anchors, [])
        assert (t.labels == rpn.NEGATIVE).all()
        assert (t.labels == rpn.POSITIVE).sum() == 0

    def test_anchor_equal_to_gt(self):
        anchors = rpn.generate_anchors((CAR,), small_grid(nx=8, ny=8))
        gt = geom.box_from_array(anchors.boxes[10])
        t = rpn.assign_targets(anchors, [gt.to_array()])
        assert t.labels[10] == rpn.POSITIVE
        np.testing.assert_allclose(t.residuals[10], np.zeros(7), atol=1e-12)

    def test_assigned_residuals_decode_to_gt(self):
        grid = rpn.BevGrid((0.0, -6.4), (0.4, 0.4), 32, 32)
        anchors = rpn.generate_anchors((CAR,), grid)
        rng = np.random.default_rng(3)
        gts = [
            Box3D(6.0, -2.0, -0.8, 3.8, 1.7, 1.5, 0.05),
            Box3D(10.0, 3.0, -0.8, 4.0, 1.5, 1.6, math.pi / 2 + 0.04),
        ]
        t = rpn.assign_targets(anchors, np.array([g.to_array() for g in gts]))
        assert (t.labels == rpn.POSITIVE).sum() > 0
        for i in np.flatnonzero(t.labels == rpn.POSITIVE):
            decoded = decode(t.residuals[i], geom.box_from_array(anchors.boxes[i]))
            matched = gts[t.matched_gt[i]]
            np.testing.assert_allclose(decoded, matched.to_array(), atol=1e-6)

    def test_best_match_promotion(self):
        # A gt overlapping weakly still promotes its single best anchor.
        anchors = rpn.generate_anchors((CAR,), small_grid(nx=8, ny=8))
        gt = Box3D(1.0, 1.0, -0.82, 3.9, 1.6, 1.56, 0.3)
        t = rpn.assign_targets(anchors, [gt.to_array()], pos_iou=0.99)
        assert (t.labels == rpn.POSITIVE).sum() == 1

    def test_ignore_band(self):
        anchors = rpn.generate_anchors((CAR,), small_grid(nx=8, ny=8))
        gt = geom.box_from_array(anchors.boxes[10])
        t = rpn.assign_targets(anchors, [gt.to_array()], pos_iou=0.6, neg_iou=0.1)
        assert (t.labels == rpn.IGNORE).sum() > 0


class TestFocalLoss:
    def test_confident_true_positive(self):
        assert rpn.focal_loss(np.array([0.999999]), np.array([1])) < 1e-4

    def test_half_probability_values(self):
        expect_pos = 0.25 * 0.25 * math.log(2.0)
        expect_neg = 0.75 * 0.25 * math.log(2.0)
        assert rpn.focal_loss(np.array([0.5]), np.array([1])) == pytest.approx(expect_pos)
        # All-negative batch divides by max(1, #pos) = 1.
        assert rpn.focal_loss(np.array([0.5]), np.array([0])) == pytest.approx(expect_neg)

    def test_normalized_by_positive_count(self):
        p = np.full(10, 0.5)
        t = np.array([1, 1] + [0] * 8)
        per_pos = 0.25 * 0.25 * math.log(2.0)
        per_neg = 0.75 * 0.25 * math.log(2.0)
        expect = (2 * per_pos + 8 * per_neg) / 2
        assert rpn.focal_loss(p, t) == pytest.approx(expect)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        p0 = rng.uniform(0.1, 0.9, size=12)
        t = (rng.random(12) < 0.3).astype(int)

        def f(p):
            return rpn.focal_loss(p, t), rpn.focal_loss_grad(p, t)

        assert nn.grad_check(f, p0) < 1e-4

    def test_gradient_through_logits(self):
        rng = np.random.default_rng(14)
        z0 = rng.normal(size=10) * 2.0
        t = (rng.random(10) < 0.3).astype(int)

        def f(z):
            p = nn.sigmoid(z)
            grad = rpn.focal_loss_grad(p, t) * p * (1.0 - p)
            return rpn.focal_loss(p, t), grad

        assert nn.grad_check(f, z0) < 1e-4


class TestSmoothL1:
    def test_values(self):
        z = np.zeros((1, 7))
        assert rpn.smooth_l1(z, z) == 0.0
        d = z.copy()
        d[0, 0] = 0.5
        assert rpn.smooth_l1(d, z) == pytest.approx(0.125)
        d[0, 0] = 2.0
        assert rpn.smooth_l1(d, z) == pytest.approx(1.5)

    def test_empty(self):
        assert rpn.smooth_l1(np.empty((0, 7)), np.empty((0, 7))) == 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(3, 7)) * 1.5
        target = rng.normal(size=(3, 7))

        def f(v):
            p = v.reshape(3, 7)
            return rpn.smooth_l1(p, target), rpn.smooth_l1_grad(p, target).ravel()

        assert nn.grad_check(f, pred.ravel()) < 1e-4


class TestExtractProposals:
    def _anchors(self):
        return rpn.generate_anchors((CAR,), small_grid(nx=8, ny=8))

    def test_dominant_anchor_first(self):
        anchors = self._anchors()
        cls = np.full(len(anchors), 0.01)
        cls[37] = 0.95
        props = rpn.extract_proposals(cls, np.zeros((len(anchors), 7)), anchors,
                                      top_k=10)
        assert props.scores[0] == pytest.approx(0.95)
        np.testing.assert_allclose(props.rows[0], anchors.boxes[37], atol=1e-12)

    def test_duplicates_suppressed_and_capped(self):
        # Anchors one 0.4 m cell apart overlap by 0.81 along their length and
        # by 0.6 across it: either side of PROPOSAL_NMS_IOU = 0.7.
        anchors = self._anchors()
        rng = np.random.default_rng(7)
        cls = rng.uniform(0.1, 0.9, size=len(anchors))
        props = rpn.extract_proposals(cls, np.zeros((len(anchors), 7)), anchors,
                                      top_k=20)
        assert len(props) <= 20
        scores = props.scores.tolist()
        assert scores == sorted(scores, reverse=True)
        for i in range(len(props)):
            for j in range(i + 1, len(props)):
                assert geom.iou_3d(props.rows[i],
                                   props.rows[j]) <= PROPOSAL_NMS_IOU + 1e-12

    def test_zero_residuals_decode_to_anchors(self):
        anchors = self._anchors()
        cls = np.linspace(0.9, 0.1, len(anchors))
        props = rpn.extract_proposals(cls, np.zeros((len(anchors), 7)), anchors,
                                      top_k=5)
        for row in props.rows:
            match = np.abs(anchors.boxes - row).sum(axis=1).min()
            assert match < 1e-9

    def test_shape_mismatch_raises(self):
        anchors = self._anchors()
        with pytest.raises(ValueError):
            rpn.extract_proposals(np.zeros(3), np.zeros((3, 7)), anchors,
                                  top_k=Config().top_proposals)

    @pytest.mark.parametrize("field, residual, message", [
        (0, np.inf, "cx must be finite"),
        (3, np.inf, "l must be finite"),
        (6, np.nan, "theta must be finite"),
        (5, -np.inf, "h must be positive"),
    ])
    def test_bad_box_of_last_anchor_raises(self, field, residual, message):
        # The bad anchor ranks last, so NMS with top_k=5 never visits it.
        anchors = self._anchors()
        cls = np.linspace(0.9, 0.1, len(anchors))
        reg = np.zeros((len(anchors), 7))
        reg[-1, field] = residual
        last = len(anchors) - 1
        with pytest.raises(ValueError, match=f"anchor {last}: {message}"):
            rpn.extract_proposals(cls, reg, anchors, top_k=5)

    @pytest.mark.parametrize("score", [np.nan, 1.5, -0.5, np.inf])
    def test_bad_score_of_last_anchor_raises(self, score):
        anchors = self._anchors()
        cls = np.linspace(0.9, 0.1, len(anchors))
        cls[-1] = score
        last = len(anchors) - 1
        with pytest.raises(ValueError, match=f"anchor {last}: score must be in"):
            rpn.extract_proposals(cls, np.zeros((len(anchors), 7)), anchors,
                                  top_k=5)

    def test_first_bad_anchor_is_named(self):
        anchors = self._anchors()
        cls = np.full(len(anchors), 0.5)
        cls[40] = 2.0
        reg = np.zeros((len(anchors), 7))
        reg[70, 4] = np.inf
        with pytest.raises(ValueError, match="anchor 40: score"):
            rpn.extract_proposals(cls, reg, anchors, top_k=Config().top_proposals)


def _reference_proposals(cls, reg, anchors, top_k):
    """Every anchor as a Detection, then the list-based NMS oracle at
    PROPOSAL_NMS_IOU."""
    decoded = rpn.decode_residuals(reg, anchors.boxes)
    dets = [
        Detection(geom.box_from_array(decoded[i]), float(cls[i]),
                  int(anchors.class_ids[i]))
        for i in range(len(anchors))
    ]
    return [dets[i] for i in nms_reference(dets, PROPOSAL_NMS_IOU, max_keep=top_k)]


@pytest.mark.parametrize("seed", range(4))
def test_extract_proposals_matches_reference(seed):
    anchors = rpn.generate_anchors((CAR, PED), small_grid(nx=10, ny=9, cell=0.8))
    rng = np.random.default_rng(300 + seed)
    # Few score levels, so most anchors tie and the index decides the order.
    cls = rng.choice([0.05, 0.3, 0.3001, 0.7, 0.95], size=len(anchors))
    reg = rng.normal(0.0, 0.4, size=(len(anchors), 7))
    top_k = [100, 20, 400, 3][seed]
    expect = _reference_proposals(cls, reg, anchors, top_k)
    got = rpn.extract_proposals(cls, reg, anchors, top_k=top_k)
    assert len(got) == len(expect) <= top_k
    for i, e in enumerate(expect):
        assert got.rows[i].tobytes() == e.box.to_array().tobytes()
        assert (got.scores[i], got.class_ids[i]) == (e.score, e.class_id)


@pytest.mark.parametrize("profile", [desk_config, default_config])
def test_proposal_rows_equal_detection_boxes(profile):
    # Desk- and kitti-sized maps of random scores and residuals: the rows,
    # scores and class ids equal, bit for bit, those of a Detection built
    # for each kept anchor, whose Box3D wraps the decoded yaw once more.
    cfg = profile()
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    rng = np.random.default_rng(17)
    cls = rng.uniform(0.0, 1.0, size=len(anchors))
    reg = rng.normal(0.0, 1.0, size=(len(anchors), 7))
    reg[:, 6] = rng.uniform(-4 * math.pi, 4 * math.pi, size=len(anchors))
    got = rpn.extract_proposals(cls, reg, anchors, top_k=cfg.top_proposals)
    expect = proposals_as_detections(cls, reg, anchors, cfg.top_proposals)
    assert len(got) == len(expect) == cfg.top_proposals
    assert got.rows.shape == (len(got), 7) and got.class_ids.shape == (len(got),)
    assert got.rows.tobytes() == np.array([d.box.to_array() for d in expect]).tobytes()
    assert got.scores.tobytes() == np.array([d.score for d in expect]).tobytes()
    assert got.class_ids.tolist() == [d.class_id for d in expect]

