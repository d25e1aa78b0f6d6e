"""Matching, interpolated AP at 11/40 recall positions with hand-enumerated
expected values, difficulty buckets, and detection file IO."""

import numpy as np
import pytest

from pvlite import evalkit
from pvlite.geom import Box3D, Detection

from helpers import random_box


def det(b, score, cls=0):
    return Detection(b, score, cls)


def boxes_apart(n, spacing=20.0):
    return [Box3D(i * spacing, 0, 0, 4, 2, 1.5, 0.0) for i in range(n)]


def rows(boxes):
    """(G, 7) rows of Box3D objects."""
    return np.array([b.to_array() for b in boxes]).reshape(-1, 7)


class TestMatchDetections:
    def test_perfect_all_tp(self):
        gts = boxes_apart(3)
        dets = [det(b, 0.9 - 0.1 * i) for i, b in enumerate(gts)]
        flags = evalkit.match_detections(dets, rows(gts), 0.7)
        assert flags.all()

    def test_no_gts_all_fp(self):
        dets = [det(random_box(np.random.default_rng(0)), 0.5)]
        flags = evalkit.match_detections(dets, [], 0.7)
        assert not flags.any()

    def test_two_dets_one_gt(self):
        gt = boxes_apart(1)
        dets = [det(gt[0], 0.9), det(gt[0], 0.8)]
        flags = evalkit.match_detections(dets, rows(gt), 0.7)
        np.testing.assert_array_equal(flags, [True, False])

    def test_greedy_prefers_higher_score(self):
        gt = boxes_apart(1)
        dets = [det(gt[0], 0.2), det(gt[0], 0.9)]
        flags = evalkit.match_detections(dets, rows(gt), 0.7)
        np.testing.assert_array_equal(flags, [False, True])

    def test_highest_iou_unmatched_gt(self):
        a = Box3D(0, 0, 0, 4, 2, 1.5, 0.0)
        b = Box3D(1.0, 0, 0, 4, 2, 1.5, 0.0)
        # One det overlapping both: matches the higher-IoU one (itself).
        dets = [det(a, 0.9), det(a, 0.8)]
        flags = evalkit.match_detections(dets, rows([a, b]), 0.2, iou_kind="bev")
        assert flags[0]
        assert flags[1]  # second det falls back to the remaining gt

    def test_3d_kind(self):
        gt = [Box3D(0, 0, 0, 4, 2, 2.0, 0.0)]
        lifted = Box3D(0, 0, 5.0, 4, 2, 2.0, 0.0)
        flags = evalkit.match_detections([det(lifted, 0.9)], rows(gt), 0.1,
                                         iou_kind="3d")
        assert not flags.any()


class TestAveragePrecision:
    def test_perfect_detector(self):
        flags = np.array([True, True, True])
        scores = np.array([0.9, 0.8, 0.7])
        assert evalkit.average_precision(flags, scores, 3, "R11") == 1.0
        assert evalkit.average_precision(flags, scores, 3, "R40") == 1.0

    def test_empty_detector(self):
        assert evalkit.average_precision(np.empty(0, bool), np.empty(0), 3,
                                         "R11") == 0.0
        assert evalkit.average_precision(np.empty(0, bool), np.empty(0), 3,
                                         "R40") == 0.0

    def test_mixed_hand_enumerated(self):
        # 1 TP then 1 FP over 2 gts: recall plateaus at 0.5 with precision 1.
        # R11: 6 of 11 samples (0..0.5) see precision 1 -> 6/11.
        # R40: 20 of 40 samples (1/40..20/40) see precision 1 -> 0.5.
        flags = np.array([True, False])
        scores = np.array([0.9, 0.8])
        assert evalkit.average_precision(flags, scores, 2, "R11") == pytest.approx(6 / 11)
        assert evalkit.average_precision(flags, scores, 2, "R40") == pytest.approx(0.5)

    def test_monotone_under_added_top_tp(self):
        rng = np.random.default_rng(1)
        for mode in ("R11", "R40"):
            for _ in range(20):
                n = 12
                flags = rng.random(n) < 0.5
                scores = rng.uniform(0.1, 0.8, size=n)
                gt_count = int(flags.sum()) + 3
                base = evalkit.average_precision(flags, scores, gt_count, mode)
                flags2 = np.concatenate([flags, [True]])
                scores2 = np.concatenate([scores, [0.95]])
                better = evalkit.average_precision(flags2, scores2, gt_count, mode)
                assert better >= base - 1e-12

    def test_interpolation_uses_max_to_the_right(self):
        # FP then TP then TP: precision dips then recovers; interpolated
        # precision at low recall is the later (higher) value.
        flags = np.array([False, True, True])
        scores = np.array([0.9, 0.8, 0.7])
        # curve: (0, 0), (0.5, 0.5), (1.0, 2/3); p_interp(r<=1.0) = 2/3.
        expect_r11 = 2 / 3
        got = evalkit.average_precision(flags, scores, 2, "R11")
        assert got == pytest.approx(expect_r11)

    def test_zero_gt(self):
        assert evalkit.average_precision(np.array([False]), np.array([0.5]),
                                         0, "R40") == 0.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            evalkit.average_precision(np.array([True]), np.array([0.5]), 1, "R13")


class TestPrCurve:
    def test_counts(self):
        flags = np.array([True, False, True])
        scores = np.array([0.9, 0.8, 0.7])
        curve = evalkit.pr_curve(flags, scores, 4)
        assert curve.num_tp == 2
        assert curve.num_fp == 1
        assert curve.num_gt == 4
        assert (np.diff(curve.recalls) >= 0).all()
        np.testing.assert_allclose(curve.precisions, [1.0, 0.5, 2 / 3])


class TestDifficultyBuckets:
    def test_thresholds(self):
        gts = boxes_apart(3)
        pts = []
        # 5 points in box 0, 1 point in box 1, none in box 2.
        pts.extend([[0.1 * k, 0, 0] for k in range(5)])
        pts.append([20.0, 0, 0])
        levels = evalkit.difficulty_buckets(rows(gts), np.array(pts))
        assert levels == ["L1", "L2", None]

    def test_empty_points(self):
        gts = boxes_apart(1)
        assert evalkit.difficulty_buckets(rows(gts), np.empty((0, 3))) == [None]


class TestDetectionFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        dets = [det(random_box(rng), float(s), cls)
                for s, cls in zip(rng.uniform(0, 1, 5), [0, 1, 0, 2, 0])]
        path = tmp_path / "dets.txt"
        evalkit.save_detections(dets, path)
        loaded = evalkit.load_detections(path)
        assert len(loaded) == 5
        for a, b in zip(dets, loaded):
            assert a.class_id == b.class_id
            assert a.score == b.score
            np.testing.assert_array_equal(a.box.to_array(), b.box.to_array())

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(evalkit.DetectionFileError):
            evalkit.load_detections(path)

    def test_negative_class_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("0 0 0 0 1 1 1 0 0.5\n-4 0 0 0 1 1 1 0 0.5\n")
        with pytest.raises(evalkit.DetectionFileError) as err:
            evalkit.load_detections(path)
        assert str(err.value) == f"{path}:2: Detection class id must be >= 0, got -4"


class TestReports:
    def test_table_and_csv(self):
        rows = [
            {"class": "car", "mode": "R40", "ap": 0.5},
            {"class": "car", "mode": "R11", "ap": 6 / 11},
        ]
        table = evalkit.format_report(rows)
        assert "class" in table and "0.5000" in table
        csv = evalkit.report_csv(rows)
        assert csv.splitlines()[0] == "class,mode,ap"
        assert len(csv.splitlines()) == 3
