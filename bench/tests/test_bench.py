"""Tests of the benchmark itself: harness smoke runs on a tiny config,
the output checker, trace set-up failures and the metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import report  # noqa: E402
from pvlite import config, pipeline  # noqa: E402
from tracer import Target, Tracer, TraceSetupError  # noqa: E402

TINY = dict(num_keypoints=48, synth_ground_points=200, synth_objects=2,
            synth_points_per_object=120, top_proposals=4, roi_samples=8)


def _tiny_setup(name: str) -> harness.Setup:
    w = harness.WORKLOADS[name]
    cfg = config.PROFILES[w.profile]().replace(**TINY)
    return harness.setup(w, seed=1, cfg=cfg, iters=2, chunk=1)


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_smoke_emits_every_metric(name):
    s = _tiny_setup(name)
    stats = harness.run_untraced(s, seconds=0.0)
    assert (stats.attempted, stats.failed) == (1, 0)
    e2e = report.end_to_end(s.workload, stats, [0.1])
    assert {n for n, _, _ in report.END_TO_END} <= set(e2e)
    assert all(e2e[n][0] > 0 for n, _, _ in report.END_TO_END)

    tracer = Tracer()
    stats = harness.run_traced(s, seconds=0.0, tracer=tracer)
    assert (stats.attempted, stats.failed) == (1, 0)
    layers = report.layer_metrics(s.workload, stats, tracer)
    assert set(layers) == {n for n, _, _ in report.PER_LAYER}
    assert layers["trace.coverage"] >= 0.95
    assert pipeline.run_scene.__name__ == "run_scene"
    assert not hasattr(pipeline.run_scene, "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_checker_flags_perturbed_reference(name):
    with open(harness.reference_path(harness.WORKLOADS[name]),
              encoding="ascii") as fh:
        ref = json.load(fh)["units"][0]
    assert harness.compare(ref, ref) == []
    bumped = json.loads(json.dumps(ref))
    if isinstance(ref, dict):
        bumped["refine_loss"] += 1e-7
        assert harness.compare(bumped, ref)
        bumped["refine_loss"] = ref["refine_loss"] + 1e-12
        assert harness.compare(bumped, ref) == []
    else:
        bumped[0][6] += 1e-7  # yaw of the first detection
        assert harness.compare(bumped, ref)
        bumped[0][6] = ref[0][6] + 1e-12
        assert harness.compare(bumped, ref) == []
        assert harness.compare(ref[:-1], ref)


def test_plausibility_checks_need_no_reference():
    s = _tiny_setup("desk-detect")
    good = [[1.0, 0.0, -1.0, 3.9, 1.6, 1.5, 0.1, 0.5, 0]]
    assert harness.check_plausible(s, good) == []
    assert harness.check_plausible(s, [[float("nan"), *good[0][1:]]])
    assert harness.check_plausible(s, [[*good[0][:7], 1.5, 0]])
    assert harness.check_plausible(s, good * (s.cfg.top_proposals + 1))


def test_missing_trace_target_fails_and_restores():
    original = pipeline.run_scene
    tracer = Tracer(targets=(Target(pipeline, "run_scene", "x"),
                             Target(pipeline, "no_such_stage", "y")))
    with pytest.raises(TraceSetupError, match="no_such_stage"):
        with tracer:
            pass
    assert pipeline.run_scene is original


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = _benchmark_json()
    cmd = spec["command"] + ["--workload", "desk-detect", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
