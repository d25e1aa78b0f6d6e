"""Workloads, timing loops, output checks and metrics of the benchmark.

Every workload runs in one process as a closed loop: one caller, and each
scene (or training job) starts after the previous one finishes. The
program only ever receives scenes generated here from the workload seed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pvlite import config, pipeline, rpn, synth
from pvlite.roihead import RefineTargets

from tracer import Tracer, TraceSetupError

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

MODEL_SEED = 7  # fixed model: only the scenes depend on the workload seed
PIPELINE_SEED = 7
DEFAULT_SEED = 0  # the seed whose outputs are kept in refs/
REF_TOL = 1e-9

# desk-train job: the two `pvlite train-heads` jobs back to back.
SCENES_PER_JOB = 2
ITERS = 100  # per head
ITER_CHUNK = 10  # iterations per timed train_* call
LR = 0.01
CALIBRATION_CALLS = 3  # 0-iteration calls that price a call's fixed cost

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    train: bool
    pool: int  # distinct scenes (detect) or jobs (train) drawn from one seed
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-detect", "desk", False, 8,
            "run_scene on small scenes: RoI-grid pooling is ~60% of a "
            "scene; rpn and backbone are small and every radius query "
            "takes the brute-force path",
        ),
        Workload(
            "kitti-detect", "kitti", False, 4,
            "run_scene at KITTI scale: 70,400 anchors of per-anchor "
            "proposal extraction, keypoint VSA on the dict-grid query "
            "path, and the largest memory footprint",
        ),
        Workload(
            "desk-train", "desk", True, 2,
            "head training: both batch builds (128 sampled RoIs, no NMS, "
            "backbone twice per scene) and the SGD loop in mlp_backward, "
            "which the detect workloads never call",
        ),
    )
}


def scene_seed(seed: int, index: int) -> int:
    """Seed of the index-th scene of a workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Setup:
    workload: Workload
    seed: int
    cfg: config.Config
    model: pipeline.ModelParams
    anchors: rpn.AnchorSet
    units: list  # detect: scenes; train: lists of SCENES_PER_JOB scenes
    iters: int = ITERS
    chunk: int = ITER_CHUNK


def setup(workload: Workload, seed: int, cfg: config.Config | None = None,
          iters: int = ITERS, chunk: int = ITER_CHUNK) -> Setup:
    """Everything before the first timed call: model, anchors and scenes."""
    cfg = cfg or config.PROFILES[workload.profile]()
    model = pipeline.build_model(cfg, MODEL_SEED)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    per_unit = SCENES_PER_JOB if workload.train else 1
    scenes = [synth.gen_scene(cfg, seed=scene_seed(seed, i))
              for i in range(workload.pool * per_unit)]
    if workload.train:
        units = [scenes[i:i + per_unit] for i in range(0, len(scenes), per_unit)]
    else:
        units = scenes
    return Setup(workload, seed, cfg, model, anchors, units, iters, chunk)


# ---------------------------------------------------------------------------
# One unit of work: a detection scene or a training job
# ---------------------------------------------------------------------------

@dataclass
class UnitResult:
    wall: float  # the whole unit
    scene_walls: list[float]  # run_scene, or both batch builds, per scene
    summary: object  # what the output checks compare
    pkw_iter_ms: list[float] = field(default_factory=list)
    refine_iter_ms: list[float] = field(default_factory=list)


def detection_rows(dets) -> list[list[float]]:
    return [[*map(float, d.box.to_array()), float(d.score), int(d.class_id)]
            for d in dets]


def run_detect(s: Setup, scene) -> UnitResult:
    t = clock()
    result = pipeline.run_scene(scene, s.model, s.cfg, s.anchors,
                                seed=PIPELINE_SEED)
    wall = clock() - t
    return UnitResult(wall, [wall], detection_rows(result.detections))


def _timed_sgd(train, head, batch, iters: int, chunk: int):
    """Run `iters` iterations of train(head, batch, n, LR) as consecutive
    calls of `chunk` iterations, which reach the same parameters as one call.

    Returns (last call's result, all losses, per-iteration ms samples); a
    sample is a call's wall time less the median 0-iteration call (the
    parameter copy and any final evaluation), divided by `chunk`.
    """
    fixed = []
    for _ in range(CALIBRATION_CALLS):
        t = clock()
        train(head, batch, 0, LR)
        fixed.append(clock() - t)
    fixed_s = statistics.median(fixed)
    losses, samples, out = [], [], None
    for _ in range(iters // chunk):
        t = clock()
        out = train(head, batch, chunk, LR)
        samples.append(1e3 * (clock() - t - fixed_s) / chunk)
        head = out[0]
        losses.extend(out[1])
    return out, losses, samples


def _merge_refine_batches(batches) -> pipeline.RefineBatch:
    return pipeline.RefineBatch(
        np.concatenate([b.features for b in batches]),
        [r for b in batches for r in b.rois],
        RefineTargets(*(np.concatenate([getattr(b.targets, f) for b in batches])
                        for f in ("y", "residuals", "positive", "matched_gt"))),
        [m for b in batches for m in b.matched_boxes],
    )


def run_job(s: Setup, scenes) -> UnitResult:
    """build_pkw_batch + train_pkw, then build_refine_batch + train_refine,
    one batch build per scene so that each scene is timed on its own."""
    cfg, model = s.cfg, s.model
    t_job = clock()
    walls = [0.0] * len(scenes)
    pkw_parts = []
    for k, scene in enumerate(scenes):
        t = clock()
        pkw_parts.append(pipeline.build_pkw_batch(
            cfg, model, [scene], seed=PIPELINE_SEED + 101 * k))
        walls[k] += clock() - t
    pkw_batch = pipeline.PkwBatch(
        np.concatenate([b.features for b in pkw_parts]),
        np.concatenate([b.labels for b in pkw_parts]))
    (_, _, acc), pkw_losses, pkw_ms = _timed_sgd(
        pipeline.train_pkw, model.pkw, pkw_batch, s.iters, s.chunk)

    refine_parts = []
    for k, scene in enumerate(scenes):
        t = clock()
        refine_parts.append(pipeline.build_refine_batch(
            cfg, model, [scene], s.anchors, seed=PIPELINE_SEED + 101 * k))
        walls[k] += clock() - t
    refine_batch = _merge_refine_batches(refine_parts)
    (head, _), refine_losses, refine_ms = _timed_sgd(
        pipeline.train_refine, model.refine, refine_batch, s.iters, s.chunk)
    raw, refined = pipeline.matched_iou_stats(head, refine_batch)
    summary = {
        "pkw_loss": pkw_losses[-1], "pkw_acc": acc,
        "refine_loss": refine_losses[-1], "matched_iou": [raw, refined],
    }
    return UnitResult(clock() - t_job, walls, summary, pkw_ms, refine_ms)


def run_unit(s: Setup, index: int) -> UnitResult:
    unit = s.units[index % len(s.units)]
    return run_job(s, unit) if s.workload.train else run_detect(s, unit)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _close(a, b, tol: float) -> bool:
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y, tol) for x, y in zip(a, b)))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def check_plausible(s: Setup, summary) -> list[str]:
    """Checks that need no reference."""
    problems = []
    if s.workload.train:
        for key in ("pkw_loss", "refine_loss"):
            if not math.isfinite(summary[key]):
                problems.append(f"{key} is not finite")
        if not 0.0 <= summary["pkw_acc"] <= 1.0:
            problems.append("pkw accuracy outside [0, 1]")
        if any(not (math.isnan(v) or 0.0 <= v <= 1.0)
               for v in summary["matched_iou"]):
            problems.append("matched IoU outside [0, 1]")
        return problems
    if len(summary) > s.cfg.top_proposals:
        problems.append(f"{len(summary)} detections > top_proposals "
                        f"{s.cfg.top_proposals}")
    for i, row in enumerate(summary):
        if not all(math.isfinite(v) for v in row[:7]):
            problems.append(f"detection {i}: non-finite box")
        if not 0.0 <= row[7] <= 1.0:
            problems.append(f"detection {i}: score {row[7]} outside [0, 1]")
    return problems


def compare(summary, reference, tol: float = REF_TOL) -> list[str]:
    """Differences from a reference beyond tol; any count mismatch."""
    if isinstance(summary, dict):
        return [f"{k}: {summary[k]!r} != reference {reference[k]!r}"
                for k in reference if not _close(summary[k], reference[k], tol)]
    if len(summary) != len(reference):
        return [f"{len(summary)} detections != reference {len(reference)}"]
    return [f"detection {i} differs from reference"
            for i, (a, b) in enumerate(zip(summary, reference))
            if not _close(a, b, tol)]


def reference_path(workload: Workload) -> Path:
    return REFS_DIR / f"{workload.name}.json"


def load_reference(s: Setup):
    """Reference summaries of every pool unit, or None off the default seed."""
    if s.seed != DEFAULT_SEED:
        return None
    with open(reference_path(s.workload), encoding="ascii") as fh:
        ref = json.load(fh)
    if ref["seed"] != DEFAULT_SEED or len(ref["units"]) != len(s.units):
        raise ValueError(f"{reference_path(s.workload)} does not match the "
                         "workload's default-seed pool")
    return ref["units"]


# ---------------------------------------------------------------------------
# Timing loops
# ---------------------------------------------------------------------------

@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    units: list[UnitResult] = field(default_factory=list)
    traced: list[UnitResult] = field(default_factory=list)
    traced_peak_mb: float = 0.0  # tracemalloc peak of the first unit


def closed_loop(seconds: float, step) -> LoopStats:
    """Call step(stats, i) for i = 0, 1, ... while the time left exceeds
    half of the last call, so that the loop ends nearest `seconds` on
    average; at least once.

    step returns the problems its output checks found; a unit fails when
    it raises or has a problem.
    """
    stats = LoopStats()
    t0 = clock()
    while True:
        t = clock()
        i = stats.attempted
        try:
            problems = step(stats, i)
        except TraceSetupError:
            raise
        except Exception:  # a failing unit is counted and the loop goes on
            traceback.print_exc()
            problems = ["raised"]
        for p in problems:
            print(f"unit {i}: {p}", file=sys.stderr)
        stats.attempted += 1
        stats.failed += bool(problems)
        last = clock() - t
        if clock() - t0 + last / 2 >= seconds:
            return stats


def _problems(s: Setup, refs, i: int, res: UnitResult) -> list[str]:
    problems = check_plausible(s, res.summary)
    if refs is not None:
        problems += compare(res.summary, refs[i % len(refs)])
    return problems


def run_untraced(s: Setup, seconds: float) -> LoopStats:
    refs = load_reference(s)

    def step(stats: LoopStats, i: int) -> list[str]:
        res = run_unit(s, i)
        stats.units.append(res)
        return _problems(s, refs, i, res)

    return closed_loop(seconds, step)


def _alloc_peak_mb(s: Setup, i: int) -> tuple[float, UnitResult]:
    tracemalloc.start()
    try:
        res = run_unit(s, i)
        return tracemalloc.get_traced_memory()[1] / 2**20, res
    finally:
        tracemalloc.stop()


def run_traced(s: Setup, seconds: float, tracer: Tracer) -> LoopStats:
    """Each unit runs untraced, then traced; the first unit runs once more
    under tracemalloc, which slows allocation too much to share a pass with
    the span timings. Every pass must give the untraced output exactly."""
    refs = load_reference(s)

    def step(stats: LoopStats, i: int) -> list[str]:
        plain = run_unit(s, i)
        with tracer:
            traced = run_unit(s, i)
        stats.units.append(plain)
        stats.traced.append(traced)
        problems = _problems(s, refs, i, plain)
        if compare(traced.summary, plain.summary, tol=0.0):
            problems.append("traced output differs from untraced")
        if i == 0:
            stats.traced_peak_mb, res = _alloc_peak_mb(s, i)
            if compare(res.summary, plain.summary, tol=0.0):
                problems.append("output under tracemalloc differs from untraced")
        return problems

    return closed_loop(seconds, step)
