"""Synthetic scene generation: determinism, invariants, and the scene file
round trip."""


import numpy as np
import pytest

from pvlite import geom, synth
from pvlite.config import SYNTH_MIN_POINTS, SYNTH_SIZE_STD, desk_config

from helpers import set_box_value, set_point_value

CFG = desk_config()


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
        assert s.gt_boxes.shape == (0, 7)
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
            assert count >= SYNTH_MIN_POINTS

    def test_boxes_pairwise_bev_disjoint(self, scene):
        boxes = scene.gt_boxes
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert geom.bev_iou(boxes[i], boxes[j]) == 0.0

    def test_object_count(self, scene):
        assert len(scene.gt_boxes) == CFG.synth_objects

    def test_each_class_placed_at_its_size(self):
        cfg = CFG.replace(class_names=("car", "pedestrian"),
                          class_sizes=((3.9, 1.6, 1.56), (0.8, 0.6, 1.73)),
                          class_z=(-0.82, -0.74), synth_objects=6)
        s = synth.gen_scene(cfg, seed=3)
        assert set(s.gt_classes) == {0, 1}
        for (_, _, cz, l, w, h, _), cls in zip(s.gt_boxes, s.gt_classes):
            log_ratio = np.log(np.array([l, w, h]) / cfg.class_sizes[cls])
            assert (np.abs(log_ratio) < 5 * SYNTH_SIZE_STD).all()
            assert cz - 0.5 * h == pytest.approx(cfg.synth_ground_z, abs=1e-5)


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

    def test_truncated_raises(self, scene, tmp_path):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        data = path.read_bytes()
        bad = tmp_path / "bad.pvscn"
        bad.write_bytes(data[:-10])
        with pytest.raises(synth.SceneFileError):
            synth.load_scene(bad)

    @pytest.mark.parametrize("field, value, message", [
        ("points", "1000000000000", "needs 16000000000000 bytes"),
        ("points", "-3", "is negative"),
        ("boxes", "7", "needs 224 bytes"),
        ("boxes", "-1", "is negative"),
    ])
    def test_header_count_checked_against_file(self, scene, tmp_path, field,
                                               value, message):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        header, body = path.read_bytes().split(b"\n", 1)
        fields = [f"{field}={value}".encode() if f.startswith(f"{field}=".encode())
                  else f for f in header.split()]
        n_points = scene.num_points if field == "boxes" else 0
        path.write_bytes(b" ".join(fields) + b"\n" + body[: n_points * 16 + 8])
        with pytest.raises(synth.SceneFileError) as err:
            synth.load_scene(path)
        assert str(err.value).startswith(f"{path}: {field}={value} {message}")

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

    @pytest.mark.parametrize("box, col, value, message", [
        (2, 0, np.nan, "box 2: cx must be finite, got nan"),
        (1, 4, 0.0, "box 1: w must be positive, got 0.0"),
        (1, 7, -1, "box 1: class id must be >= 0, got -1"),
    ])
    def test_bad_box_names_file_box_and_field(self, scene, tmp_path, box, col,
                                              value, message):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        set_box_value(path, box, col, value)
        with pytest.raises(synth.SceneFileError) as err:
            synth.load_scene(path)
        assert str(err.value) == f"{path}: {message}"

    def test_file_yaw_is_wrapped_on_load(self, scene, tmp_path):
        path = tmp_path / "scene.pvscn"
        synth.save_scene(scene, path)
        set_box_value(path, 0, 6, 4.0)
        loaded = synth.load_scene(path)
        assert loaded.gt_boxes[0, 6] == geom.wrap_angles(4.0)
        np.testing.assert_array_equal(loaded.gt_boxes[1:], scene.gt_boxes[1:])


class TestSceneSample:
    def test_nan_point_rejected(self, scene):
        pts = scene.points.copy()
        pts[5, 0] = np.nan
        with pytest.raises(ValueError, match="point 5: x must be finite"):
            synth.SceneSample(pts, scene.gt_boxes, scene.gt_classes, scene.seed,
                              scene.range_min, scene.range_max)

    @pytest.mark.parametrize("box, col, value, message", [
        (2, 0, np.nan, "box 2: cx must be finite, got nan"),
        (0, 3, 0.0, "box 0: l must be positive, got 0.0"),
    ])
    def test_bad_box_rejected(self, scene, box, col, value, message):
        boxes = scene.gt_boxes.copy()
        boxes[box, col] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            synth.SceneSample(scene.points, boxes, scene.gt_classes, scene.seed,
                              scene.range_min, scene.range_max)

    def test_boxes_are_read_only_wrapped_rows(self, scene):
        boxes = scene.gt_boxes.copy()
        boxes[0, 6] = 4.0
        s = synth.SceneSample(scene.points, list(boxes), scene.gt_classes,
                              scene.seed, scene.range_min, scene.range_max)
        assert s.gt_boxes.dtype == np.float64 and s.gt_boxes.shape == (3, 7)
        assert s.gt_boxes[0, 6] == geom.wrap_angles(4.0)
        with pytest.raises(ValueError):
            s.gt_boxes[0, 0] = 1.0
