"""Synthetic scene generation: determinism, invariants, augmentation
membership preservation, object pasting, and the scene file round trip."""


import numpy as np
import pytest

from pvlite import geom, synth
from pvlite.config import desk_config
from pvlite.synth import AugmentParams

from helpers import set_point_value

CFG = desk_config()

IDENTITY_AUG = AugmentParams(flip_prob=0.0, scale_range=(1.0, 1.0),
                             rot_range=(0.0, 0.0))
FLIP_ONLY = AugmentParams(flip_prob=1.0, scale_range=(1.0, 1.0),
                          rot_range=(0.0, 0.0))


@pytest.fixture(scope="module")
def scene():
    return synth.gen_scene(CFG, seed=7)


class TestGenScene:
    def test_deterministic(self, scene):
        again = synth.gen_scene(CFG, seed=7)
        assert scene.equals(again)

    def test_different_seed_differs(self, scene):
        other = synth.gen_scene(CFG, seed=8)
        assert not scene.equals(other)

    def test_zero_objects_ground_only(self):
        cfg = CFG.replace(synth_objects=0)
        s = synth.gen_scene(cfg, seed=1)
        assert s.gt_boxes == ()
        assert s.num_points > 0

    def test_points_within_range(self, scene):
        pts = scene.points_f64()
        lo = np.asarray(scene.range_min)
        hi = np.asarray(scene.range_max)
        assert ((pts[:, :3] >= lo) & (pts[:, :3] < hi)).all()

    def test_min_points_inside_each_box(self, scene):
        pts = scene.points_f64()
        for box in scene.gt_boxes:
            count = geom.points_in_box(pts[:, :3], box).sum()
            assert count >= CFG.synth_min_points

    def test_boxes_pairwise_bev_disjoint(self, scene):
        boxes = scene.gt_boxes
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert geom.bev_iou(boxes[i], boxes[j]) == 0.0

    def test_object_count(self, scene):
        assert len(scene.gt_boxes) == CFG.synth_objects


class TestAugment:
    def test_identity(self, scene):
        out = synth.augment(scene, IDENTITY_AUG, seed=0)
        np.testing.assert_array_equal(out.points, scene.points)
        assert out.gt_boxes == scene.gt_boxes

    def test_flip_twice_restores(self, scene):
        once = synth.augment(scene, FLIP_ONLY, seed=0)
        twice = synth.augment(once, FLIP_ONLY, seed=1)
        np.testing.assert_allclose(twice.points, scene.points, atol=1e-12)
        for a, b in zip(twice.gt_boxes, scene.gt_boxes):
            np.testing.assert_allclose(a.to_array(), b.to_array(), atol=1e-12)

    def test_flip_negates_y_and_theta(self, scene):
        out = synth.augment(scene, FLIP_ONLY, seed=0)
        np.testing.assert_allclose(out.points[:, 1], -scene.points[:, 1])
        for a, b in zip(out.gt_boxes, scene.gt_boxes):
            assert a.cy == pytest.approx(-b.cy, abs=1e-6)

    def test_membership_preserved(self, scene):
        params = AugmentParams()  # full flip/scale/rotate ranges
        pts = scene.points_f64()
        before = [geom.points_in_box(pts[:, :3], b) for b in scene.gt_boxes]
        for seed in range(5):
            out = synth.augment(scene, params, seed=seed)
            opts = out.points_f64()
            for box, mask in zip(out.gt_boxes, before):
                after = geom.points_in_box(opts[:, :3], box)
                np.testing.assert_array_equal(after, mask)

    def test_points_stay_in_stored_range(self, scene):
        for seed in range(5):
            out = synth.augment(scene, AugmentParams(), seed=seed)
            pts = out.points_f64()
            lo = np.asarray(out.range_min)
            hi = np.asarray(out.range_max)
            assert ((pts[:, :3] >= lo) & (pts[:, :3] < hi)).all()

    def test_scale_multiplies_dims(self, scene):
        params = AugmentParams(flip_prob=0.0, scale_range=(1.05, 1.05),
                               rot_range=(0.0, 0.0))
        out = synth.augment(scene, params, seed=0)
        for a, b in zip(out.gt_boxes, scene.gt_boxes):
            assert a.l == pytest.approx(1.05 * b.l, rel=1e-6)
            assert a.cx == pytest.approx(1.05 * b.cx, rel=1e-6)


class TestGtPaste:
    def test_count_zero_unchanged(self, scene):
        out = synth.gt_paste(scene, [scene], 0, seed=0)
        assert out.equals(scene)

    def test_paste_preserves_point_counts(self, scene):
        donor = synth.gen_scene(CFG, seed=21)
        donor_counts = sorted(
            int(geom.points_in_box(donor.points_f64()[:, :3], b).sum())
            for b in donor.gt_boxes
        )
        out = synth.gt_paste(scene, [donor], 2, seed=3)
        assert len(out.gt_boxes) == len(scene.gt_boxes) + 2
        opts = out.points_f64()
        for box in out.gt_boxes[len(scene.gt_boxes):]:
            count = int(geom.points_in_box(opts[:, :3], box).sum())
            assert count in donor_counts

    def test_pasted_disjoint(self, scene):
        donor = synth.gen_scene(CFG, seed=22)
        out = synth.gt_paste(scene, [donor], 2, seed=4)
        boxes = out.gt_boxes
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert geom.bev_iou(boxes[i], boxes[j]) == 0.0

    def test_no_donor_objects_raises(self, scene):
        empty = synth.gen_scene(CFG.replace(synth_objects=0), seed=5)
        with pytest.raises(synth.PlacementError):
            synth.gt_paste(scene, [empty], 1, seed=0)


class TestSceneFiles:
    def test_round_trip_identity(self, scene, tmp_path):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        loaded = synth.load_scene(path)
        assert loaded.equals(scene)

    def test_round_trip_bytes(self, scene, tmp_path):
        p1 = tmp_path / "a.pvscn"
        p2 = tmp_path / "b.pvscn"
        synth.save_scene(scene, p1)
        synth.save_scene(synth.load_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_augmented_scene_round_trips(self, scene, tmp_path):
        out = synth.augment(scene, AugmentParams(), seed=9)
        path = tmp_path / "aug.pvscn"
        synth.save_scene(out, path)
        assert synth.load_scene(path).equals(out)

    def test_truncated_raises(self, scene, tmp_path):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        data = path.read_bytes()
        bad = tmp_path / "bad.pvscn"
        bad.write_bytes(data[:-10])
        with pytest.raises(synth.SceneFileError):
            synth.load_scene(bad)

    def test_version_mismatch_raises(self, scene, tmp_path):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        data = path.read_bytes().replace(b"PVSCN1", b"PVSCN9", 1)
        bad = tmp_path / "bad.pvscn"
        bad.write_bytes(data)
        with pytest.raises(synth.SceneFileError) as err:
            synth.load_scene(bad)
        assert "version" in str(err.value)

    @pytest.mark.parametrize("col, field, value", [(0, "x", np.nan),
                                                   (3, "intensity", np.inf)])
    def test_non_finite_point_names_file_row_and_field(self, scene, tmp_path,
                                                       col, field, value):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        set_point_value(path, 5, col, value)
        with pytest.raises(synth.SceneFileError) as err:
            synth.load_scene(path)
        assert str(err.value).startswith(f"{path}: point 5: {field} must be finite")

    def test_rejected_box_record_is_scene_file_error(self, scene, tmp_path):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        data = bytearray(path.read_bytes())
        at = len(data) - 32 + 3 * 4  # l of the last box record
        data[at:at + 4] = np.array([-1.0], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(synth.SceneFileError) as err:
            synth.load_scene(path)
        assert str(path) in str(err.value) and "positive" in str(err.value)


class TestSceneSample:
    def test_nan_point_rejected(self, scene):
        pts = scene.points.copy()
        pts[5, 0] = np.nan
        with pytest.raises(ValueError, match="point 5: x must be finite"):
            synth.SceneSample(pts, scene.gt_boxes, scene.gt_classes, scene.seed,
                              scene.range_min, scene.range_max)
