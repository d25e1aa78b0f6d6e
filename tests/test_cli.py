"""Command-line behavior: determinism of outputs, exit codes, parameter
plumbing and the invariant check suite."""

import numpy as np
import pytest

from pvlite import cli, config, evalkit, geom, nn, pipeline, synth

from helpers import set_box_value, set_point_value


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "desk.cfg"
    cfg = config.desk_config().replace(
        num_keypoints=96,
        synth_ground_points=300,
        synth_objects=2,
        synth_points_per_object=150,
        top_proposals=20,
    )
    config.save(cfg, path)
    return str(path)


@pytest.fixture(scope="module")
def scene_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    rc = cli.main(["synth", "--config", cfg_path, "--out", str(out),
                   "--count", "2", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def desk7(tmp_path_factory):
    """The full desk config file and desk scene 7."""
    root = tmp_path_factory.mktemp("desk7")
    config.save(config.desk_config(), root / "desk.cfg")
    return str(root / "desk.cfg"), synth.gen_scene(config.desk_config(), seed=7)


class TestSynth:
    def test_writes_deterministic_files(self, cfg_path, scene_dir, tmp_path):
        again = tmp_path / "again"
        rc = cli.main(["synth", "--config", cfg_path, "--out", str(again),
                       "--count", "2", "--seed", "5"])
        assert rc == 0
        for a, b in zip(sorted(scene_dir.glob("*.pvscn")),
                        sorted(again.glob("*.pvscn"))):
            assert a.read_bytes() == b.read_bytes()

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense=1\n")
        rc = cli.main(["synth", "--config", str(bad), "--out",
                       str(tmp_path / "x"), "--count", "1"])
        assert rc == 1

    @pytest.mark.parametrize("line", ["voxel_size=nan,0.05,0.1",
                                      "voxel_size=inf,0.05,0.1",
                                      "range_max=inf,40.0,1.0",
                                      "class_sizes=nan,1.6,1.56",
                                      "class_z=nan"])
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        rc = cli.main(["synth", "--config", str(bad), "--out",
                       str(tmp_path / "x"), "--count", "1"])
        field = line.split("=")[0]
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: {field} must be finite")
        assert not (tmp_path / "x").exists()


class TestRun:
    def test_outputs_and_determinism(self, cfg_path, scene_dir, tmp_path):
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        for out in (out1, out2):
            rc = cli.main(["run", "--config", cfg_path, "--scenes",
                           str(scene_dir), "--out", str(out), "--seed", "5"])
            assert rc == 0
        files1 = sorted(out1.glob("*.txt"))
        assert len(files1) == 2
        for a, b in zip(files1, sorted(out2.glob("*.txt"))):
            assert a.read_bytes() == b.read_bytes()

    def test_detection_budget(self, cfg_path, scene_dir, tmp_path):
        out = tmp_path / "d"
        cli.main(["run", "--config", cfg_path, "--scenes", str(scene_dir),
                  "--out", str(out), "--seed", "5"])
        for f in out.glob("*.txt"):
            assert len(evalkit.load_detections(f)) <= 20

    def test_empty_scene(self, cfg_path, tmp_path):
        cfg = config.load(cfg_path, env={})
        empty = synth.SceneSample(np.empty((0, 4), np.float32), (), (), 0,
                                  cfg.range_min, cfg.range_max)
        scene_path = tmp_path / "empty.pvscn"
        synth.save_scene(empty, scene_path)
        out = tmp_path / "dets"
        rc = cli.main(["run", "--config", cfg_path, "--scenes",
                       str(scene_path), "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert evalkit.load_detections(out / "empty.txt") == []

    @pytest.mark.parametrize("bad, code", [("class", 1), ("run", 2)])
    def test_failed_run_makes_no_directory(self, desk7, tmp_path, monkeypatch,
                                           capsys, bad, code):
        # A scene the loader rejects (exit 1) or one whose run raises (exit
        # 2) leaves no --out directory behind.
        cfg_file, scene = desk7
        path = tmp_path / "scene_7.pvscn"
        classes = scene.gt_classes[:-1] + (5,) if bad == "class" else scene.gt_classes
        synth.save_scene(synth.SceneSample(scene.points, scene.gt_boxes, classes, 7,
                                           scene.range_min, scene.range_max), path)
        if bad == "run":
            monkeypatch.setattr(pipeline, "run_scene", lambda *a, **k: 1 / 0)
        out = tmp_path / "d" / "dets"
        assert cli.main(["run", "--config", cfg_file, "--scenes", str(path),
                         "--out", str(out), "--seed", "7"]) == code
        assert capsys.readouterr().err.startswith(("error: ", "runtime error: ")[code - 1])
        assert not (tmp_path / "d").exists()

    def test_missing_scenes_dir(self, cfg_path, tmp_path):
        rc = cli.main(["run", "--config", cfg_path, "--scenes",
                       str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestTrainHeads:
    def test_pkw_then_run_with_params(self, cfg_path, scene_dir, tmp_path):
        params = tmp_path / "pkw.params"
        scene = sorted(scene_dir.glob("*.pvscn"))[0]
        rc = cli.main(["train-heads", "--config", cfg_path, "--scenes",
                       str(scene), "--which", "pkw", "--iters", "40",
                       "--lr", "0.01", "--seed", "5", "--out", str(params)])
        assert rc == 0
        assert params.is_file()
        loss_csv = tmp_path / "pkw.params.loss.csv"
        assert loss_csv.is_file()
        lines = loss_csv.read_text().splitlines()
        assert lines[0] == "iter,loss"
        assert len(lines) == 41
        out = tmp_path / "dets"
        rc = cli.main(["run", "--config", cfg_path, "--scenes", str(scene),
                       "--out", str(out), "--seed", "5",
                       "--params", str(params)])
        assert rc == 0

    def test_refine_writes_three_sections(self, cfg_path, scene_dir, tmp_path):
        params = tmp_path / "refine.params"
        scene = sorted(scene_dir.glob("*.pvscn"))[0]
        rc = cli.main(["train-heads", "--config", cfg_path, "--scenes",
                       str(scene), "--which", "refine", "--iters", "20",
                       "--lr", "0.01", "--seed", "5", "--out", str(params)])
        assert rc == 0
        from pvlite import nn
        with open(params, "rb") as fh:
            sections = nn.load_param_sections(fh)
        assert set(sections) == {"refine_shared", "refine_confidence",
                                 "refine_regression"}


    @pytest.mark.parametrize("which, message", [
        ("pkw", "no keypoints; nothing to train"),
        ("refine", "no sampled RoIs; nothing to train"),
    ], ids=["pkw", "refine"])
    def test_only_empty_scenes_exit_2(self, cfg_path, tmp_path, capsys, which,
                                      message):
        cfg = config.load(cfg_path, env={})
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name in ("a", "b"):
            synth.save_scene(synth.SceneSample(np.empty((0, 4), np.float32), (),
                                               (), 0, cfg.range_min,
                                               cfg.range_max),
                             scenes / f"{name}.pvscn")
        rc = cli.main(["train-heads", "--config", cfg_path, "--scenes",
                       str(scenes), "--which", which, "--iters", "2", "--out",
                       str(tmp_path / "p")])
        assert rc == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "p").exists()

    def test_default_lr_trains_the_refine_head(self, desk7, tmp_path):
        # Desk scenes 5 and 6: at lr 0.01 the loss goes 12.9 -> 231.7 -> 1.9
        # -> 4.7 -> 0.78; at lr 1.0 it reaches 2.8e18 by iteration 4.
        desk_cfg, _ = desk7
        scenes, out = tmp_path / "scenes", tmp_path / "refine.params"
        assert cli.main(["synth", "--config", desk_cfg, "--seed", "5",
                         "--count", "2", "--out", str(scenes)]) == 0
        rc = cli.main(["train-heads", "--config", desk_cfg, "--scenes",
                       str(scenes), "--which", "refine", "--iters", "5",
                       "--out", str(out)])
        assert rc == 0
        losses = [float(line.split(",")[1]) for line in
                  (tmp_path / "refine.params.loss.csv").read_text().splitlines()[1:]]
        assert len(losses) == 5 and losses[-1] < losses[0]

    @pytest.mark.parametrize("which", ["pkw", "refine"])
    def test_diverging_training_exits_2_and_writes_nothing(
            self, cfg_path, scene_dir, tmp_path, capsys, which):
        out = tmp_path / "p"
        with np.errstate(all="ignore"):
            rc = cli.main(["train-heads", "--config", cfg_path, "--scenes",
                           str(scene_dir), "--which", which, "--iters", "5",
                           "--lr", "1e200", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"runtime error: {scene_dir}: FloatingPointError: {which} training "
            "diverged: loss nan at iteration ")
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_refined_rois_exit_2_and_write_nothing(self, desk7,
                                                               tmp_path, capsys):
        # Desk scenes 5 and 6 at lr 1.0: both losses are finite, but the
        # trained head's residuals decode the first positive RoI to l = inf.
        desk_cfg, _ = desk7
        scenes, out = tmp_path / "scenes", tmp_path / "p" / "refine.params"
        assert cli.main(["synth", "--config", desk_cfg, "--seed", "5",
                         "--count", "2", "--out", str(scenes)]) == 0
        with np.errstate(all="ignore"):
            rc = cli.main(["train-heads", "--config", desk_cfg, "--scenes",
                           str(scenes), "--which", "refine", "--iters", "2",
                           "--lr", "1.0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"runtime error: {scenes}: ValueError: refined RoI 0: l must be "
            "finite, got inf\n")
        assert not out.parent.exists()


class TestEval:
    def test_perfect_detections_ap_one(self, cfg_path, scene_dir, tmp_path):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        for path in scene_dir.glob("*.pvscn"):
            scene = synth.load_scene(path)
            dets = [evalkit.Detection(geom.box_from_array(b), 0.9, c)
                    for b, c in zip(scene.gt_boxes, scene.gt_classes)]
            evalkit.save_detections(dets, det_dir / (path.stem + ".txt"))
        csv_path = tmp_path / "report.csv"
        rc = cli.main(["eval", "--scenes", str(scene_dir), "--detections",
                       str(det_dir), "--mode", "R40", "--iou-thresh", "0.7",
                       "--out", str(csv_path)])
        assert rc == 0
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        all_row = dict(zip(header, rows[1].split(",")))
        assert all_row["bucket"] == "ALL"
        assert float(all_row["ap"]) == 1.0

    def test_missing_detection_file(self, cfg_path, scene_dir, tmp_path):
        rc = cli.main(["eval", "--scenes", str(scene_dir), "--detections",
                       str(tmp_path)])
        assert rc == 1

    def test_negative_detection_class_names_file_and_line(self, scene_dir,
                                                          tmp_path, capsys):
        for path in scene_dir.glob("*.pvscn"):
            (tmp_path / (path.stem + ".txt")).write_text(
                "0 1.0 2.0 -1.0 3.9 1.6 1.56 0.0 0.5\n"
                "-4 1.0 2.0 -1.0 3.9 1.6 1.56 0.0 0.5\n")
        rc = cli.main(["eval", "--scenes", str(scene_dir), "--detections",
                       str(tmp_path)])
        first = tmp_path / (sorted(scene_dir.glob("*.pvscn"))[0].stem + ".txt")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {first}:2: Detection class id must be >= 0, got -4\n")

    def test_negative_gt_class_names_scene_and_box(self, desk7, tmp_path, capsys):
        _, scene = desk7
        path = tmp_path / "scene_7.pvscn"
        synth.save_scene(scene, path)
        set_box_value(path, 1, 7, -1)
        rc = cli.main(["eval", "--scenes", str(path), "--detections",
                       str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: box 1: class id must be >= 0, got -1\n")


class TestBench:
    def test_csv_deterministic(self, cfg_path, scene_dir, tmp_path):
        scene = sorted(scene_dir.glob("*.pvscn"))[0]
        csvs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            rc = cli.main(["bench", "--config", cfg_path, "--scenes",
                           str(scene), "--seed", "5", "--out", str(out)])
            assert rc == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1]
        assert "roi_grid" in csvs[0] and "average_pool" in csvs[0]


class TestCheck:
    def test_clean_suite_passes(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_injected_fault_fails_named_invariant(self, capsys):
        rc = cli.main(["check", "--inject-fault", "bev-iou"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL geom.bev_iou_vs_sampling" in out


class TestInputErrors:
    @pytest.mark.parametrize("col, field, value", [(0, "x", np.nan),
                                                   (3, "intensity", np.inf)])
    def test_non_finite_point_names_scene(self, desk7, tmp_path, capsys,
                                          col, field, value):
        cfg_file, scene = desk7
        path = tmp_path / "scene_7.pvscn"
        synth.save_scene(scene, path)
        set_point_value(path, 5, col, value)
        rc = cli.main(["run", "--config", cfg_file, "--scenes", str(path),
                       "--out", str(tmp_path / "d"), "--seed", "7"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{path}: point 5: {field} must be finite" in err

    @pytest.mark.parametrize("command", [
        ["run", "--out", "{tmp}/d"],
        ["train-heads", "--which", "pkw", "--iters", "1", "--out", "{tmp}/p"],
        ["bench"],
    ])
    def test_class_id_outside_config_names_scene(self, desk7, tmp_path, capsys,
                                                 command):
        cfg_file, scene = desk7
        path = tmp_path / "scene_7.pvscn"
        bad = scene.gt_classes[:-1] + (5,)  # the desk config has one class
        synth.save_scene(synth.SceneSample(scene.points, scene.gt_boxes, bad, 7,
                                           scene.range_min, scene.range_max), path)
        rc = cli.main([command[0], "--config", cfg_file, "--scenes", str(path),
                       "--seed", "7", *(a.format(tmp=tmp_path) for a in command[1:])])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{path}: box {len(bad) - 1}: class id 5" in err

    @pytest.mark.parametrize("exc", [FloatingPointError("overflow in exp"),
                                     IndexError("index 9 is out of bounds"),
                                     ValueError("non-finite BEV values")])
    def test_scene_failure_exits_2_naming_scene(self, cfg_path, scene_dir,
                                                tmp_path, capsys, monkeypatch,
                                                exc):
        def fail(*_args, **_kw):
            raise exc
        monkeypatch.setattr(pipeline, "run_scene", fail)
        rc = cli.main(["run", "--config", cfg_path, "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        first = sorted(scene_dir.glob("*.pvscn"))[0]
        assert rc == 2
        assert err == f"runtime error: {first}: {type(exc).__name__}: {exc}\n"

    def test_training_failure_exits_2_naming_scenes(self, cfg_path, scene_dir,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        def fail(*_args, **_kw):
            raise IndexError("index 9 is out of bounds")
        monkeypatch.setattr(pipeline, "build_pkw_batch", fail)
        rc = cli.main(["train-heads", "--config", cfg_path, "--scenes",
                       str(scene_dir), "--which", "pkw", "--out",
                       str(tmp_path / "p")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"runtime error: {scene_dir}: ")

    @pytest.mark.parametrize("args", [
        ["bench", "--scenes", "{scenes}", "--strategies", "bogus"],
        ["run", "--out", "{tmp}/d"],
        *(["train-heads", "--scenes", "{scenes}", "--which", "pkw", "--out",
           "{tmp}/d/p", flag, value]
          for flag, value in (("--iters", "0"), ("--iters", "-3"),
                              ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
                              ("--lr", "-0.1"))),
        ["synth", "--out", "{tmp}/d", "--count", "-2"],
        ["synth", "--out", "{tmp}/d", "--count", "0"],
        ["synth", "--out", "{tmp}/d", "--seed", "-3"],
        ["run", "--scenes", "{scenes}", "--out", "{tmp}/d", "--seed", "-1"],
        ["synth", "--out", "{tmp}/d", "--seed", str(2**63)],
        *(["eval", "--scenes", "{scenes}", "--detections", "{scenes}",
           "--iou-thresh", value] for value in ("nan", "inf", "1.5", "-1")),
    ], ids=["bench --strategies bogus", "run without --scenes",
            "train-heads --iters 0", "train-heads --iters -3",
            "train-heads --lr nan", "train-heads --lr inf", "train-heads --lr 0",
            "train-heads --lr -0.1", "synth --count -2", "synth --count 0",
            "synth --seed -3", "run --seed -1", "synth --seed 2**63",
            "eval --iou-thresh nan", "eval --iou-thresh inf",
            "eval --iou-thresh 1.5", "eval --iou-thresh -1"])
    def test_usage_error_exits_2(self, scene_dir, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([a.format(scenes=scene_dir, tmp=tmp_path) for a in args])
        assert exit_info.value.code == 2
        assert "usage: pvlite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("value", ["-3", str(2**63)])
    def test_seed_out_of_range_names_line_or_variable(self, scene_dir, tmp_path,
                                                      capsys, monkeypatch, value):
        bad = tmp_path / "seed.cfg"
        bad.write_text(f"num_keypoints=96\nseed={value}\n")
        for command in (["synth", "--config", str(bad), "--out", str(tmp_path / "d")],
                        ["run", "--config", str(bad), "--scenes", str(scene_dir),
                         "--out", str(tmp_path / "d")]):
            assert cli.main(command) == 1
            err = capsys.readouterr().err
            assert f"error: {bad}:2: seed must be in [0, 2**63), got {value}" in err
            assert "Traceback" not in err
        monkeypatch.setenv("PVL_SEED", value)
        assert cli.main(["synth", "--out", str(tmp_path / "d")]) == 1
        assert f"error: PVL_SEED: seed must be in [0, 2**63), got {value}" in \
            capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_bad_config_value_exits_1(self, scene_dir, tmp_path, capsys,
                                      monkeypatch):
        bad = tmp_path / "bad.cfg"
        bad.write_text("# comment\n\nnum_keypoints=0\n")
        rc = cli.main(["run", "--config", str(bad), "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert f"error: {bad}:3: num_keypoints must be >= 1" in capsys.readouterr().err
        monkeypatch.setenv("PVL_ROI_SAMPLES", "0")
        rc = cli.main(["run", "--scenes", str(scene_dir), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error: PVL_ROI_SAMPLES: roi_samples must be >= 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line, field", [("voxel_size=0.1,0.1", "voxel_size"),
                                             ("range_min=0.0,-40.0", "range_min")])
    def test_two_value_geometry_exits_1(self, scene_dir, tmp_path, capsys, line,
                                        field):
        bad = tmp_path / "short.cfg"
        bad.write_text(line + "\n")
        rc = cli.main(["run", "--config", str(bad), "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{field} must hold three values (x, y, z)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_fixed_key_with_other_value_exits_1(self, desk7, scene_dir, tmp_path,
                                                capsys, monkeypatch):
        old = tmp_path / "old.cfg"
        old.write_text("vsa_branch_width=64\n")
        rc = cli.main(["run", "--config", str(old), "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert f"error: {old}:1: vsa_branch_width is fixed at 32" in capsys.readouterr().err
        monkeypatch.setenv("PVL_GRID_CAP", "8")
        rc = cli.main(["run", "--config", desk7[0], "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error: PVL_GRID_CAP: grid_cap is fixed at 32" in capsys.readouterr().err

    def test_mismatched_param_file_names_file(self, cfg_path, scene_dir,
                                              tmp_path, capsys):
        params = tmp_path / "wide.params"
        with open(params, "wb") as fh:
            nn.save_params(nn.init_params((3, 1), seed=0,
                                          out_activation="sigmoid"), fh, name="pkw")
        rc = cli.main(["run", "--config", cfg_path, "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d"), "--params", str(params)])
        assert rc == 1
        assert f"{params}: pkw dims" in capsys.readouterr().err

    @pytest.mark.parametrize("section, dims, out", [
        ("refine_shared", (10, 256, 256), "identity"),
        ("refine_confidence", (64, 1), "sigmoid"),
        ("refine_regression", (256, 7), "sigmoid"),
    ])
    @pytest.mark.parametrize("command", [
        ["run", "--out", "{tmp}/d"],
        ["train-heads", "--which", "refine", "--iters", "1", "--out", "{tmp}/p"],
    ], ids=["run", "train-heads"])
    def test_mismatched_refine_section_names_file_and_section(
            self, cfg_path, scene_dir, tmp_path, capsys, section, dims, out,
            command):
        params = tmp_path / "refine.params"
        with open(params, "wb") as fh:
            nn.save_params(nn.init_params(dims, seed=0, out_activation=out), fh,
                           name=section)
        rc = cli.main([command[0], "--config", cfg_path, "--scenes",
                       str(scene_dir), "--params", str(params),
                       *(a.format(tmp=tmp_path) for a in command[1:])])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {params}: {section} dims {dims}" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("header, field", [
        (b"PVMLP1 name=pkw out=sigmoid dims=100000000,100000000\n", "dims"),
        (b"PVMLP1 name=pkw out=sigmoid dims=0,1\n", "dims"),
    ])
    def test_param_header_beyond_file_exits_1(self, cfg_path, scene_dir,
                                              tmp_path, capsys, header, field):
        params = tmp_path / "big.params"
        params.write_bytes(header + bytes(16))
        rc = cli.main(["run", "--config", cfg_path, "--scenes", str(scene_dir),
                       "--out", str(tmp_path / "d"), "--params", str(params)])
        assert rc == 1
        assert f"error: {params}: section 'pkw': {field}=" in capsys.readouterr().err

    @pytest.mark.parametrize("count, message", [
        ("points=1000000000000", "points=1000000000000 needs 16000000000000 bytes"),
        ("points=-3", "points=-3 is negative"),
    ])
    def test_scene_header_beyond_file_exits_1(self, desk7, tmp_path, capsys,
                                              count, message):
        cfg_file, scene = desk7
        path = tmp_path / "scene_7.pvscn"
        synth.save_scene(scene, path)
        header, body = path.read_bytes().split(b"\n", 1)
        fields = [count.encode() if f.startswith(b"points=") else f
                  for f in header.split()]
        path.write_bytes(b" ".join(fields) + b"\n" + body[:40])
        rc = cli.main(["run", "--config", cfg_file, "--scenes", str(path),
                       "--out", str(tmp_path / "d"), "--seed", "7"])
        assert rc == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
