"""Golden detections: run_scene on fixed-seed scenes must reproduce the
committed outputs (same count, class ids exact, every box field and score
within 1e-9). The desk fixture holds the detections of three desk scenes;
the kitti fixture holds the proposals and the detections of one kitti
scene, where proposal extraction ranks 70,400 anchors.

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
MODEL_SEED = 7
PIPELINE_SEED = 7
SCENE_SEEDS = (11, 12, 13)
KITTI_SCENE_SEED = 7
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
    return {"proposals": _rows(result.proposals),
            "detections": _rows(result.detections)}


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


def _block(key: str, rows: list[list[float]]) -> str:
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
