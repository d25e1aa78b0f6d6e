"""Geometry kernels: rotated IoU against a sampling oracle and a per-pair
clipping oracle, containment, NMS against a list-based oracle, and RoI grid
point placement."""

import math
import re

import numpy as np
import pytest

from pvlite import geom
from pvlite.geom import Box3D, Detection

from helpers import (
    iou_pair, mc_bev_iou, mc_volume_iou, nms_reference, overlapping_box_pair,
    points_in_box_obj, random_box, roi_grid_points_obj,
)


def box(cx=0.0, cy=0.0, cz=0.0, l=2.0, w=2.0, h=2.0, theta=0.0):
    return Box3D(cx, cy, cz, l, w, h, theta)


def bev(a, b) -> float:
    return float(geom.bev_iou(a.to_array(), b.to_array()))


def iou3(a, b) -> float:
    return float(geom.iou_3d(a.to_array(), b.to_array()))


def rows(dets):
    """(N, 7) box rows and (N,) scores of a list of detections."""
    boxes = np.array([d.box.to_array() for d in dets]).reshape(-1, 7)
    return boxes, np.array([d.score for d in dets], dtype=float)


class TestWrapAngle:
    def test_boundaries(self):
        assert geom.wrap_angles(math.pi) == -math.pi
        assert geom.wrap_angles(-math.pi) == -math.pi
        assert geom.wrap_angles(3 * math.pi) == pytest.approx(-math.pi)
        assert geom.wrap_angles(0.0) == 0.0

    def test_idempotent(self):
        # Proposal rows keep the yaws decode_residuals wrapped, and a Box3D
        # built from such a row wraps again, so a wrapped yaw must come back
        # unchanged: the rows then equal the boxes bit for bit.
        rng = np.random.default_rng(1)
        edges = np.array([-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi])
        steps = np.arange(-2_000, 2_001)
        angles = np.concatenate([
            rng.uniform(-20, 20, 20_000), rng.normal(0.0, 1e-6, 2_000),
            [-math.pi, math.pi, -math.pi / 2, math.pi / 2, 0.0, 5e-324],
            *(e + steps * np.spacing(max(abs(e), 1e-300)) for e in edges),
            *(e + np.linspace(-1e-6, 1e-6, 20_001) for e in edges),
            rng.uniform(-20, 20, 1_000_000),
        ])
        once = geom.wrap_angles(angles)
        assert (-math.pi <= once).all() and (once < math.pi).all()
        np.testing.assert_array_equal(geom.wrap_angles(once), once)
        for v in once[:22_006:10].tolist() + once[22_000:22_006].tolist():
            assert Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, v).theta == v


class TestBox3D:
    def test_theta_normalized(self):
        assert box(theta=3 * math.pi).theta == pytest.approx(-math.pi)
        assert box(theta=math.pi).theta == pytest.approx(-math.pi)
        assert -math.pi <= box(theta=123.456).theta < math.pi

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            box(l=0.0)
        with pytest.raises(ValueError):
            box(w=-1.0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, 1, 1, float("nan"))

    def test_detection_score_range(self):
        with pytest.raises(ValueError):
            Detection(box(), 1.5)
        with pytest.raises(ValueError):
            Detection(box(), float("nan"))


class TestBevIou:
    def test_identity(self):
        for seed in range(5):
            b = random_box(np.random.default_rng(seed))
            assert bev(b, b) == 1.0

    def test_disjoint(self):
        a = box(cx=0.0)
        b = box(cx=100.0)
        assert bev(a, b) == 0.0

    def test_unit_overlap_case(self):
        # Two 2x2 squares offset by 1 in x: inter 2, union 6.
        a = box(l=2, w=2)
        b = box(cx=1.0, l=2, w=2)
        expected = 2.0 / 6.0
        assert bev(a, b) == pytest.approx(expected, abs=1e-12)
        assert mc_bev_iou(a, b, 200_000, seed=3) == pytest.approx(expected, abs=2e-3)

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(42)
        for i in range(40):
            a, b = overlapping_box_pair(rng)
            exact = bev(a, b)
            approx = mc_bev_iou(a, b, 250_000, seed=100 + i)
            assert abs(exact - approx) <= 2e-3

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = overlapping_box_pair(rng)
            ab = bev(a, b)
            ba = bev(b, a)
            assert 0.0 <= ab <= 1.0
            assert ab == pytest.approx(ba, abs=1e-12)
            if ab == 1.0:
                assert a.to_array() == pytest.approx(b.to_array())

    def test_rotated_squares(self):
        # Unit square vs itself rotated 45 degrees: octagon intersection,
        # area 2*(sqrt(2)-1), union 2-that.
        a = box(l=1, w=1)
        b = box(l=1, w=1, theta=math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        assert bev(a, b) == pytest.approx(inter / (2 - inter), abs=1e-12)


class TestIou3d:
    def test_identity(self):
        b = box()
        assert iou3(b, b) == 1.0

    def test_disjoint_vertical(self):
        a = box(cz=0.0, h=2.0)
        b = box(cz=5.0, h=2.0)
        assert iou3(a, b) == 0.0

    def test_half_vertical_overlap(self):
        # Same footprint, h=2 each, overlap 1: inter = V/2, IoU = 1/3.
        a = box(cz=0.0, h=2.0)
        b = box(cz=1.0, h=2.0)
        assert iou3(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_volume_oracle(self):
        rng = np.random.default_rng(11)
        for i in range(15):
            a, b = overlapping_box_pair(rng)
            assert iou3(a, b) == pytest.approx(
                mc_volume_iou(a, b, 400_000, seed=i), abs=5e-3
            )

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = overlapping_box_pair(rng)
            assert iou3(a, b) == pytest.approx(iou3(b, a), abs=1e-12)


def _random_rows(rng, n, span=3.0):
    """n random box rows: centres within span, the sizes of random_box."""
    return np.stack([
        rng.uniform(-span, span, n), rng.uniform(-span, span, n),
        rng.uniform(-2.0, 2.0, n), rng.uniform(0.5, 6.0, n),
        rng.uniform(0.5, 4.0, n), rng.uniform(0.5, 3.0, n),
        rng.uniform(-math.pi, math.pi, n),
    ], axis=1)


def _kernel_cases(seed: int = 77):
    """Named (a, b) row arrays of box pairs, 3,100 pairs in all."""
    rng = np.random.default_rng(seed)
    a = _random_rows(rng, 1500)
    near = _random_rows(rng, 1500)
    near[:, :3] = a[:, :3] + rng.uniform(-2.5, 2.5, (1500, 3))
    cases = {"random": (a, near)}
    a = _random_rows(rng, 200)
    cases["identical"] = (a, a.copy())
    far = a.copy()
    far[:, 0] += 20.0
    cases["disjoint"] = (a, far)
    # Same yaw, b shifted by exactly the half lengths along a's heading.
    a = _random_rows(rng, 200)
    b = _random_rows(rng, 200)
    b[:, 6] = a[:, 6]
    step = 0.5 * (a[:, 3] + b[:, 3])
    b[:, 0] = a[:, 0] + step * np.cos(a[:, 6])
    b[:, 1] = a[:, 1] + step * np.sin(a[:, 6])
    cases["edge_touching"] = (a, b)
    # Same yaw, width and centre line: two edges on the same lines.
    b = a.copy()
    b[:, 3] = rng.uniform(0.5, 6.0, 200)
    shift = rng.uniform(-3.0, 3.0, 200)
    b[:, 0] += shift * np.cos(a[:, 6])
    b[:, 1] += shift * np.sin(a[:, 6])
    cases["collinear_edges"] = (a, b)
    inner = a.copy()
    inner[:, 3:6] *= rng.uniform(0.1, 0.9, (200, 3))
    inner[:, 6] += rng.uniform(-0.05, 0.05, 200)
    cases["nested"] = (a, inner)
    thin = _random_rows(rng, 200, span=1.0)
    thin[:, 4] = rng.uniform(0.01, 0.05, 200)
    cases["thin"] = (thin, _random_rows(rng, 200, span=1.0))
    a, b = cases["random"][0][:200].copy(), cases["random"][1][:200].copy()
    a[:, :2] += 1e6
    b[:, :2] += 1e6
    cases["centres_1e6"] = (a, b)
    a, b = cases["random"][0][200:400].copy(), cases["random"][1][200:400].copy()
    scale = 2.46e6 / 6.0
    a[:, :6] *= scale
    b[:, :6] *= scale
    cases["sizes_2.46e6"] = (a, b)
    return cases


class TestIouKernel:
    """The row kernel against the per-pair clipping oracle in helpers."""

    @pytest.mark.parametrize("vertical", [False, True])
    def test_matches_per_pair_oracle(self, vertical):
        fn = geom.iou_3d if vertical else geom.bev_iou
        for name, (a, b) in _kernel_cases().items():
            got = fn(a, b)
            want = [iou_pair(geom.box_from_array(x), geom.box_from_array(y),
                             vertical) for x, y in zip(a, b)]
            assert got.shape == (len(a),)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
            assert (0.0 <= got).all() and (got <= 1.0).all(), name

    @pytest.mark.parametrize("fn", [geom.bev_iou, geom.iou_3d])
    def test_identity_exact_disjoint_zero_symmetric(self, fn):
        cases = _kernel_cases(seed=78)
        for name, (a, b) in cases.items():
            np.testing.assert_array_equal(fn(a, a), 1.0, err_msg=name)
            np.testing.assert_allclose(fn(a, b), fn(b, a), rtol=0, atol=1e-12,
                                       err_msg=name)
        a, far = cases["disjoint"]
        np.testing.assert_array_equal(fn(a, far), 0.0)

    def test_broadcasts_to_a_table(self):
        rng = np.random.default_rng(79)
        a, b = _random_rows(rng, 5), _random_rows(rng, 4)
        table = geom.iou_3d(a[:, None], b[None])
        assert table.shape == (5, 4)
        for i in range(5):
            np.testing.assert_array_equal(table[i], geom.iou_3d(a[i], b))
            assert geom.iou_3d(a[i], b[0]).shape == ()
        assert geom.bev_iou(np.empty((0, 7)), np.empty((0, 7))).shape == (0,)

    def test_rejects_rows_without_seven_fields(self):
        with pytest.raises(ValueError, match="7"):
            geom.iou_3d(np.zeros((3, 6)), np.zeros((3, 6)))


class TestPointsInBox:
    def test_center_inside(self):
        b = box(cx=3, cy=-2, cz=1).to_array()
        assert geom.points_in_box(np.array([[3.0, -2.0, 1.0]]), b).all()

    def test_far_point_outside(self):
        b = box().to_array()
        far = np.array([[100.0, 100.0, 100.0]])
        assert not geom.points_in_box(far, b).any()

    def test_rotated_heading_axis(self):
        # Point on the heading axis at distance 1 <= l/2 for a pi/4 box.
        b = box(l=2, w=1, theta=math.pi / 4).to_array()
        p = np.array([[math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0]])
        assert geom.points_in_box(p, b).all()

    def test_boundary_counts_inside(self):
        b = box(l=2, w=2, h=2).to_array()
        edge = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert geom.points_in_box(edge, b).all()

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-3, 3, size=(200, 3))
        b = random_box(rng)
        before = geom.points_in_box(pts, b.to_array())
        angle, tx, ty, tz = 0.7, 1.5, -2.0, 0.3
        c, s = math.cos(angle), math.sin(angle)
        moved = pts.copy()
        moved[:, 0] = c * pts[:, 0] - s * pts[:, 1] + tx
        moved[:, 1] = s * pts[:, 0] + c * pts[:, 1] + ty
        moved[:, 2] += tz
        b2 = Box3D(
            c * b.cx - s * b.cy + tx, s * b.cx + c * b.cy + ty, b.cz + tz,
            b.l, b.w, b.h, b.theta + angle,
        )
        after = geom.points_in_box(moved, b2.to_array())
        assert (before == after).all()


def far_rows(rng, n):
    """Random box rows: half of them centred up to 1e3 m from the origin
    and half within 1 m of it, crossed with half of the yaws unwrapped at
    or within 1e-9 of +-pi and half in [-4, 4]."""
    k = np.arange(n)
    span = np.where(k // 2 % 2 == 0, 1e3, 1.0)[:, None]
    near_pi = rng.choice([-1.0, 1.0], n) * (math.pi + rng.choice(
        [0.0, 1e-15, -1e-15, 1e-9, -1e-9], n))
    return np.column_stack([
        rng.uniform(-1.0, 1.0, (n, 2)) * span, rng.uniform(-5, 5, n),
        rng.uniform(0.5, 6.0, n), rng.uniform(0.5, 4.0, n), rng.uniform(0.5, 3.0, n),
        np.where(k % 2 == 0, near_pi, rng.uniform(-4.0, 4.0, n)),
    ])


class TestRowsMatchBox3D:
    """The row kernels give the bits of the per-Box3D oracles, which wrap
    the yaw on construction."""

    def test_points_in_box(self):
        rng = np.random.default_rng(40)
        rows = far_rows(rng, 40)
        # Points around the boxes, and on their footprint corners, where
        # the last bits of the rotation decide containment.
        corners = [np.column_stack([Box3D(*row).corners_bev(), np.full(4, row[2])])
                   for row in rows]
        pts = np.concatenate([rows[rng.integers(0, 40, 4000), :3]
                              + rng.uniform(-3.0, 3.0, size=(4000, 3)), *corners])
        table = geom.points_in_box(pts, rows)
        assert table.shape == (4160, 40) and table.dtype == bool
        assert 0 < table.sum() < table.size
        for g, row in enumerate(rows):
            want = points_in_box_obj(pts, Box3D(*row))
            np.testing.assert_array_equal(table[:, g], want)
            np.testing.assert_array_equal(geom.points_in_box(pts, row), want)

    def test_roi_grid_points(self):
        rows = far_rows(np.random.default_rng(41), 30)
        grids = geom.roi_grid_points(rows)
        assert grids.shape == (30, 216, 3)
        for r, row in enumerate(rows):
            want = roi_grid_points_obj(Box3D(*row))
            np.testing.assert_array_equal(grids[r], want)
            np.testing.assert_array_equal(geom.roi_grid_points(row), want)

    def test_empty_inputs(self):
        assert geom.points_in_box(np.empty((0, 3)), far_rows(
            np.random.default_rng(42), 2)).shape == (0, 2)
        assert geom.points_in_box(np.zeros((5, 3)), np.empty((0, 7))).shape == (5, 0)
        assert geom.roi_grid_points(np.empty((0, 7))).shape == (0, 216, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            geom.points_in_box(np.zeros(3), box().to_array())
        with pytest.raises(ValueError):
            geom.points_in_box(np.zeros((2, 3)), np.zeros((2, 6)))
        with pytest.raises(ValueError):
            geom.roi_grid_points(np.zeros(6))


class TestCheckBoxes:
    @pytest.mark.parametrize("col, value, message", [
        (0, np.nan, "box 1: cx must be finite, got nan"),
        (6, -np.inf, "box 1: theta must be finite, got -inf"),
        (5, 0.0, "box 1: h must be positive, got 0.0"),
        (4, -2.0, "box 1: w must be positive, got -2.0"),
    ])
    def test_first_bad_row_and_field_named(self, col, value, message):
        rows = np.tile(box().to_array(), (3, 1))
        rows[1, col] = value
        rows[2, 3] = np.nan
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            geom.check_boxes(rows, "box")

    def test_valid_rows_pass(self):
        geom.check_boxes(far_rows(np.random.default_rng(43), 10), "box")
        geom.check_boxes(np.empty((0, 7)), "box")


class TestNms:
    def test_empty_and_single(self):
        assert geom.nms(*rows([]), 0.5) == []
        assert geom.nms(*rows([Detection(box(), 0.9)]), 0.5) == [0]

    def test_duplicate_suppressed(self):
        dets = [Detection(box(), 0.9), Detection(box(), 0.8)]
        assert geom.nms(*rows(dets), 0.7) == [0]

    def test_greedy_rule(self):
        a = Detection(box(cx=0.0), 0.9)
        b = Detection(box(cx=0.2), 0.85)  # IoU with a is ~0.82
        c = Detection(box(cx=50.0), 0.1)
        assert geom.nms(*rows([a, b, c]), 0.7) == [0, 2]

    def test_tie_break_by_index(self):
        dets = [Detection(box(cx=10.0), 0.5), Detection(box(cx=0.0), 0.5)]
        kept = geom.nms(*rows(dets), 0.9)
        assert kept == [0, 1]

    def test_permutation_invariant(self):
        # Distinct scores: with ties the greedy order is defined by input
        # index, so only the tie-free case is permutation invariant.
        rng = np.random.default_rng(5)
        boxes = [random_box(rng, center_span=4.0) for _ in range(20)]
        scores = np.linspace(0.05, 0.95, 20)
        dets = [Detection(b, float(s)) for b, s in zip(boxes, scores)]
        base = geom.nms(*rows(dets), 0.3)
        kept_boxes = {id(dets[i]) for i in base}
        for trial in range(5):
            perm = rng.permutation(20)
            shuffled = [dets[i] for i in perm]
            kept = geom.nms(*rows(shuffled), 0.3)
            assert {id(shuffled[i]) for i in kept} == kept_boxes

    def test_max_keep_matches_truncation(self):
        rng = np.random.default_rng(9)
        dets = [
            Detection(random_box(rng, center_span=3.0), float(s))
            for s in rng.uniform(0, 1, size=30)
        ]
        full = geom.nms(*rows(dets), 0.4)
        assert geom.nms(*rows(dets), 0.4, max_keep=5) == full[:5]

    def test_max_keep_zero_keeps_nothing(self):
        dets = [Detection(box(cx=20.0 * i), 0.9 - 0.1 * i) for i in range(3)]
        assert geom.nms(*rows(dets), 0.5, max_keep=0) == []
        with pytest.raises(ValueError):
            geom.nms(*rows(dets), 0.5, max_keep=-1)

    def test_rejects_bad_input(self):
        boxes, scores = rows([Detection(box(), 0.9), Detection(box(cx=9.0), 0.8)])
        with pytest.raises(ValueError):
            geom.nms(boxes, scores[:1], 0.5)
        with pytest.raises(ValueError):
            geom.nms(boxes[:, :6], scores, 0.5)
        with pytest.raises(ValueError):
            geom.nms(boxes, np.array([0.9, np.nan]), 0.5)


def _tied_boxes(rng, n):
    """n random boxes packed tightly enough to overlap often, with a few
    exact duplicates, and scores drawn from 5 levels so most tie."""
    boxes = [random_box(rng, center_span=4.0) for _ in range(n)]
    for i in rng.choice(n, size=n // 5, replace=False):
        boxes[i] = boxes[int(rng.integers(n))]
    scores = rng.choice([0.2, 0.4, 0.5, 0.8, 1.0], size=n)
    return [Detection(b, float(s)) for b, s in zip(boxes, scores)]


@pytest.mark.parametrize("seed", range(6))
def test_nms_matches_reference(seed, monkeypatch):
    # Tied scores and duplicates; block sizes that split the 60 rows at
    # many places as well as the default that holds them all.
    rng = np.random.default_rng(100 + seed)
    dets = _tied_boxes(rng, 60)
    threshold = float(rng.uniform(0.05, 0.6))
    for block in (1, 7, geom.NMS_BLOCK):
        monkeypatch.setattr(geom, "NMS_BLOCK", block)
        for max_keep in (None, 0, 1, 3, 10, 100):
            expect = nms_reference(dets, threshold, max_keep)
            assert geom.nms(*rows(dets), threshold, max_keep) == expect


class TestRoiGridPoints:
    def test_count_and_centroid(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            b = random_box(rng).to_array()
            pts = geom.roi_grid_points(b)
            assert pts.shape == (216, 3)
            np.testing.assert_allclose(pts.mean(axis=0), b[:3], atol=1e-9)

    def test_unit_cube_first_point(self):
        pts = geom.roi_grid_points(box(l=1, w=1, h=1).to_array())
        np.testing.assert_allclose(pts[0], [-5 / 12, -5 / 12, -5 / 12], atol=1e-12)

    def test_all_inside(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            b = random_box(rng).to_array()
            pts = geom.roi_grid_points(b)
            assert geom.points_in_box(pts, b).all()

    def test_rotation_equivariance(self):
        b0 = box(cx=1.0, cy=2.0, l=3.0, w=1.5, h=2.0, theta=0.0)
        angle = 0.6
        b1 = Box3D(b0.cx, b0.cy, b0.cz, b0.l, b0.w, b0.h, angle)
        p0 = geom.roi_grid_points(b0.to_array())
        p1 = geom.roi_grid_points(b1.to_array())
        c, s = math.cos(angle), math.sin(angle)
        centre = b0.to_array()[:3]
        rel = p0 - centre
        rot = np.stack(
            [c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1], rel[:, 2]],
            axis=1,
        ) + centre
        np.testing.assert_allclose(p1, rot, atol=1e-12)

    def test_lexicographic_order(self):
        pts = geom.roi_grid_points(box(l=6, w=6, h=6).to_array())
        # k varies fastest, then j, then i.
        assert pts[1][2] > pts[0][2]
        assert pts[6][1] > pts[0][1]
        assert pts[36][0] > pts[0][0]
