"""Golden detections: run_scene on fixed-seed desk scenes must reproduce the
committed detections (same count, every box field and score within 1e-9).

Regenerate the fixture only for an intended change of behaviour, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pvlite import pipeline, rpn, synth
from pvlite.config import desk_config

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_desk.json"
MODEL_SEED = 7
PIPELINE_SEED = 7
SCENE_SEEDS = (11, 12, 13)
TOL = 1e-9


def detection_rows(scene_seed: int) -> list[list[float]]:
    """[7 box fields, score, class id] per detection of one desk scene."""
    cfg = desk_config()
    model = pipeline.build_model(cfg, MODEL_SEED)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    scene = synth.gen_scene(cfg, seed=scene_seed)
    result = pipeline.run_scene(scene, model, cfg, anchors, seed=PIPELINE_SEED)
    return [[*map(float, d.box.to_array()), float(d.score), int(d.class_id)]
            for d in result.detections]


@pytest.mark.parametrize("scene_seed", SCENE_SEEDS)
def test_detections_match_golden(scene_seed):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    expect = np.array(golden["scenes"][str(scene_seed)], dtype=float)
    got = np.array(detection_rows(scene_seed), dtype=float)
    assert got.shape == expect.shape
    if expect.size:
        np.testing.assert_array_equal(got[:, 8], expect[:, 8])
        np.testing.assert_allclose(got[:, :8], expect[:, :8], rtol=0, atol=TOL)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    scenes = ",\n".join(
        f' "{s}": [\n' + ",\n".join(f"  {json.dumps(r)}" for r in detection_rows(s))
        + "\n ]"
        for s in SCENE_SEEDS
    )
    header = json.dumps({"profile": "desk", "model_seed": MODEL_SEED,
                         "pipeline_seed": PIPELINE_SEED})
    GOLDEN.write_text(f'{header[:-1]}, "scenes": {{\n{scenes}\n}}}}\n',
                      encoding="ascii")
    print(f"wrote {GOLDEN}")
