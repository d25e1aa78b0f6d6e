"""Golden outputs: run_scene on fixed-seed scenes must reproduce the
committed outputs (same count, class ids exact, every box field and score
within 1e-9). The desk fixture holds the detections of three desk scenes;
the kitti fixture holds the proposals and the detections of one kitti
scene, where proposal extraction ranks 70,400 anchors. The refine-batch
fixture holds the build_refine_batch output of one desk scene: the sampled
RoI rows and targets, and the sum and first 8 columns of each feature row
(the positive flags and matched gt indices must match exactly).

Regenerate the fixtures only for an intended change of behaviour, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pvlite import pipeline, rpn, synth
from pvlite.config import default_config, desk_config

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_desk.json"
GOLDEN_KITTI = DATA / "golden_kitti.json"
GOLDEN_REFINE = DATA / "golden_refine_batch.json"
MODEL_SEED = 7
PIPELINE_SEED = 7
SCENE_SEEDS = (11, 12, 13)
KITTI_SCENE_SEED = 7
REFINE_SCENE_SEED = 11
FEATURE_HEAD = 8
TOL = 1e-9


def _rows(dets) -> list[list[float]]:
    """[7 box fields, score, class id] per detection."""
    return [[*map(float, d.box.to_array()), float(d.score), int(d.class_id)]
            for d in dets]


def _run(cfg, scene_seed: int):
    model = pipeline.build_model(cfg, MODEL_SEED)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    scene = synth.gen_scene(cfg, seed=scene_seed)
    return pipeline.run_scene(scene, model, cfg, anchors, seed=PIPELINE_SEED)


def detection_rows(scene_seed: int) -> list[list[float]]:
    """Detection rows of one desk scene."""
    return _rows(_run(desk_config(), scene_seed).detections)


def kitti_rows() -> dict[str, list[list[float]]]:
    """Proposal and detection rows of the kitti golden scene."""
    result = _run(default_config(), KITTI_SCENE_SEED)
    p = result.proposals
    return {"proposals": [[*map(float, row), float(s), int(c)]
                          for row, s, c in zip(p.rows, p.scores, p.class_ids)],
            "detections": _rows(result.detections)}


def refine_batch_parts() -> dict[str, list]:
    """The parts of the golden desk scene's refinement batch that are kept."""
    cfg = desk_config()
    model = pipeline.build_model(cfg, MODEL_SEED)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    scene = synth.gen_scene(cfg, seed=REFINE_SCENE_SEED)
    batch = pipeline.build_refine_batch(cfg, model, [scene], anchors,
                                        seed=PIPELINE_SEED)
    t = batch.targets
    return {
        "rois": batch.rois.tolist(),
        "y": t.y.tolist(),
        "residuals": t.residuals.tolist(),
        "positive": t.positive.tolist(),
        "matched_gt": t.matched_gt.tolist(),
        "feature_sums": batch.features.sum(axis=1).tolist(),
        "feature_head": batch.features[:, :FEATURE_HEAD].tolist(),
    }


def assert_rows_match(got_rows, expect_rows) -> None:
    expect = np.array(expect_rows, dtype=float)
    got = np.array(got_rows, dtype=float)
    assert got.shape == expect.shape
    if expect.size:
        np.testing.assert_array_equal(got[:, 8], expect[:, 8])
        np.testing.assert_allclose(got[:, :8], expect[:, :8], rtol=0, atol=TOL)


@pytest.mark.parametrize("scene_seed", SCENE_SEEDS)
def test_detections_match_golden(scene_seed):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    assert_rows_match(detection_rows(scene_seed), golden["scenes"][str(scene_seed)])


def test_kitti_proposals_and_detections_match_golden():
    golden = json.loads(GOLDEN_KITTI.read_text(encoding="ascii"))
    got = kitti_rows()
    assert len(golden["proposals"]) == default_config().top_proposals
    for key in ("proposals", "detections"):
        assert_rows_match(got[key], golden[key])


def test_refine_batch_matches_golden():
    golden = json.loads(GOLDEN_REFINE.read_text(encoding="ascii"))
    got = refine_batch_parts()
    assert got.keys() == golden.keys() - {"profile", "scene_seed", "model_seed",
                                          "pipeline_seed"}
    assert len(golden["rois"]) == desk_config().roi_samples
    for key in ("positive", "matched_gt"):
        assert got[key] == golden[key]
    for key in ("rois", "y", "residuals", "feature_sums", "feature_head"):
        np.testing.assert_allclose(np.array(got[key], dtype=float),
                                   np.array(golden[key], dtype=float),
                                   rtol=0, atol=TOL, err_msg=key)


def _block(key: str, rows: list) -> str:
    """One JSON member holding rows, one row per line."""
    return f' "{key}": [\n' + ",\n".join(f"  {json.dumps(r)}" for r in rows) + "\n ]"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    scenes = ",\n".join(_block(str(s), detection_rows(s)) for s in SCENE_SEEDS)
    header = json.dumps({"profile": "desk", "model_seed": MODEL_SEED,
                         "pipeline_seed": PIPELINE_SEED})
    GOLDEN.write_text(f'{header[:-1]}, "scenes": {{\n{scenes}\n}}}}\n',
                      encoding="ascii")
    print(f"wrote {GOLDEN}")
    body = ",\n".join(_block(k, rows) for k, rows in kitti_rows().items())
    header = json.dumps({"profile": "kitti", "scene_seed": KITTI_SCENE_SEED,
                         "model_seed": MODEL_SEED, "pipeline_seed": PIPELINE_SEED})
    GOLDEN_KITTI.write_text(f"{header[:-1]}, {body.lstrip()}\n}}\n", encoding="ascii")
    print(f"wrote {GOLDEN_KITTI}")
    body = ",\n".join(_block(k, rows) for k, rows in refine_batch_parts().items())
    header = json.dumps({"profile": "desk", "scene_seed": REFINE_SCENE_SEED,
                         "model_seed": MODEL_SEED, "pipeline_seed": PIPELINE_SEED})
    GOLDEN_REFINE.write_text(f"{header[:-1]}, {body.lstrip()}\n}}\n", encoding="ascii")
    print(f"wrote {GOLDEN_REFINE}")
