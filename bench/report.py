"""Metric definitions and their computation from timing-loop results and
trace spans, plus the environment each result records."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from harness import LoopStats, Workload
from tracer import TARGETS, Tracer, TraceSetupError

# (name, unit, better) of the metrics an untraced run reports; BENCHMARK.json
# lists the same ones. Bounds live only there.
END_TO_END = (
    ("scene_s", "s", "lower"),
    ("scenes_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SCENE_ROOTS = ("pipeline.run_scene", "pipeline.build_pkw_batch",
               "pipeline.build_refine_batch")

# Spans directly under a scene root, by pipeline stage.
STAGE_OF = {
    "sparsegrid.voxelize": "voxelize",
    "sparsegrid.run_backbone": "backbone",
    "sparsegrid.bev_collapse": "rpn",
    "rpn.head": "rpn",
    "rpn.extract_proposals": "rpn",
    "pipeline.training_proposals": "rpn",
    "pipeline.build_keypoints": "keypoints",
    "roihead.roi_grid_pool": "refine",
    "roihead.refine": "refine",
    "roihead.final_select": "refine",
    "roihead.sample_proposals": "refine",
}
STAGES = ("voxelize", "backbone", "rpn", "keypoints", "refine")

# Spans that never occur on one kind of workload; every other target must
# produce at least one span, so a call site that stops using a wrapped
# attribute fails the run instead of reporting a zero.
NOT_RUN = {
    False: {"pipeline.build_pkw_batch", "pipeline.build_refine_batch",
            "pipeline.train_pkw", "pipeline.train_refine",
            "pipeline.matched_iou_stats", "pipeline.training_proposals",
            "roihead.sample_proposals", "nn.mlp_backward"},
    True: {"pipeline.run_scene", "rpn.extract_proposals", "geom.nms",
           "roihead.refine", "roihead.final_select"},
}

# Radius queries of vsa are told apart by the function that issued them.
QUERY_BY_PARENT = {"vsa.vsa_multi_level": "vsa.voxel_query",
                   "vsa.extended_vsa": "vsa.raw_query"}
QUERIES = ("vsa.voxel_query", "vsa.raw_query", "roihead.grid_query")

SELF_TIMED = (
    "sparsegrid.voxelize", "sparsegrid.run_backbone", "sparsegrid.sparse_conv",
    "sparsegrid.bev_collapse", "sparsegrid.bilinear_sample",
    "rpn.head", "rpn.extract_proposals", "pipeline.training_proposals",
    "geom.nms", "geom.iou_3d",
    "vsa.fps", "vsa.vsa_multi_level", "vsa.extended_vsa", "vsa.pkw",
    "roihead.roi_grid_pool", "roihead.refine", "roihead.final_select",
    "roihead.sample_proposals", "nn.mlp_forward",
)


def _layer_table():
    t = [(f"pipeline.{st}.s", "s", "lower") for st in STAGES]
    t += [("pipeline.build_pkw_batch.s", "s", "lower"),
          ("pipeline.build_refine_batch.s", "s", "lower"),
          ("pipeline.train_pkw.s", "s", "lower"),
          ("pipeline.train_refine.s", "s", "lower")]
    t += [(f"{name}.s", "s", "lower") for name in SELF_TIMED]
    for q in QUERIES:
        t += [(f"{q}.s", "s", "lower"), (f"{q}.calls", "count", "lower"),
              (f"{q}.queries", "count", "lower"),
              (f"{q}.neighbours", "count", "lower"),
              (f"{q}.empty_frac", "ratio", "lower"),
              (f"{q}.at_cap_frac", "ratio", "lower")]
    t += [(f"{n}.calls", "count", "lower")
          for n in ("sparsegrid.sparse_conv", "geom.nms", "geom.iou_3d",
                    "roihead.roi_grid_pool", "nn.mlp_forward")]
    t += [(f"sparsegrid.voxels.l{k}", "count", "lower") for k in range(1, 5)]
    t += [("rpn.anchors", "count", "lower"), ("rpn.proposals", "count", "lower"),
          ("vsa.keypoints", "count", "lower"),
          ("roihead.detections", "count", "higher"),
          ("nn.mlp_forward.rows", "count", "lower"),
          ("nn.mlp_forward.flops", "flop", "lower"),
          ("nn.mlp_backward.s", "s", "lower"),
          ("nn.mlp_backward.calls", "count", "lower"),
          ("nn.mlp_backward.flops", "flop", "lower"),
          ("trace.coverage", "ratio", "higher"),
          ("trace.overhead", "ratio", "lower"),
          ("mem.traced_peak_mb", "MB", "lower")]
    return tuple(t)


PER_LAYER = _layer_table()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(w: Workload, stats: LoopStats, setup_samples: list[float]):
    """{name: (value, unit, sample count, note)} for every untraced metric.

    Besides END_TO_END this holds fail_frac and, on desk-train,
    pkw_iter_ms and refine_iter_ms. They are printed and saved but not
    gated: they are zero or undefined on some workload, and a gated metric
    must never be zero.
    """
    scene_walls = [x for u in stats.units for x in u.scene_walls]
    out = {
        "scene_s": (statistics.median(scene_walls), "s", len(scene_walls),
                    "p25 %.4g, p75 %.4g" % _quartiles(scene_walls)),
        "scenes_per_s": (len(scene_walls) / sum(u.wall for u in stats.units),
                         "1/s", len(scene_walls), "over every timed unit"),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples),
                    "median of separate set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1, "max RSS of this process"),
        "fail_frac": (stats.failed / stats.attempted, "ratio", stats.attempted,
                      "units failed / attempted"),
    }
    if w.train:
        for key in ("pkw_iter_ms", "refine_iter_ms"):
            samples = [x for u in stats.units for x in getattr(u, key)]
            out[key] = (statistics.median(samples), "ms", len(samples),
                        "per full-batch SGD iteration")
    return out


def layer_metrics(w: Workload, stats: LoopStats, tracer: Tracer):
    """{name: value} for every PER_LAYER metric of a traced run.

    Times are seconds per scene (or per training job for pipeline.train_*
    and nn.mlp_backward, whose spans lie outside the batch builds). Stage
    and pipeline.* times include their callees; every other time is self
    time. Counts are per scene (per job for nn.mlp_backward).
    """
    spans, selfs, roots = tracer.spans, tracer.self_times(), tracer.roots()
    names = [s.name for s in spans]
    missing = {t.span for t in TARGETS} - set(names) - NOT_RUN[w.train]
    if missing:
        raise TraceSetupError("no spans for " + ", ".join(sorted(missing)))

    self_s, incl_s, calls = Counter(), Counter(), Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    stage_s, n_scenes = Counter(), 0
    covered: dict[int, float] = {}  # scene-root span -> time in its stages
    for i, s in enumerate(spans):
        name = names[i]
        if name == "vsa.radius_query":
            name = QUERY_BY_PARENT.get(names[s.parent], name)
        scope = "scene" if names[roots[i]] in SCENE_ROOTS else "job"
        key = name if scope == "scene" or name.startswith("pipeline.") \
            else "job:" + name
        self_s[key] += selfs[i]
        incl_s[key] += s.duration
        calls[key] += 1
        counts[key].update(s.counts)
        if s.parent < 0 and scope == "scene":
            covered[i] = 0.0
            n_scenes += name != "pipeline.build_refine_batch"
        elif s.parent in covered and name in STAGE_OF:
            stage_s[STAGE_OF[name]] += s.duration
            covered[s.parent] += s.duration
    n_jobs = len(stats.traced) if w.train else 0

    def per(x, n):
        return x / n if n else 0.0

    m = {f"pipeline.{st}.s": per(stage_s[st], n_scenes) for st in STAGES}
    for name in ("pipeline.build_pkw_batch", "pipeline.build_refine_batch"):
        m[f"{name}.s"] = per(incl_s[name], n_scenes)
    for name in ("pipeline.train_pkw", "pipeline.train_refine"):
        m[f"{name}.s"] = per(incl_s[name], n_jobs)
    for name in SELF_TIMED:
        m[f"{name}.s"] = per(self_s[name], n_scenes)
    for q in QUERIES:
        c = counts[q]
        m[f"{q}.s"] = per(self_s[q], n_scenes)
        m[f"{q}.calls"] = per(calls[q], n_scenes)
        m[f"{q}.queries"] = per(c["queries"], n_scenes)
        m[f"{q}.neighbours"] = per(c["neighbours"], n_scenes)
        m[f"{q}.empty_frac"] = per(c["empty"], c["queries"])
        m[f"{q}.at_cap_frac"] = per(c["at_cap"], c["queries"])
    for name in ("sparsegrid.sparse_conv", "geom.nms", "geom.iou_3d",
                 "roihead.roi_grid_pool", "nn.mlp_forward"):
        m[f"{name}.calls"] = per(calls[name], n_scenes)
    for k in range(1, 5):
        m[f"sparsegrid.voxels.l{k}"] = per(
            counts["sparsegrid.run_backbone"][f"l{k}"], n_scenes)
    m["rpn.anchors"] = per(counts["rpn.extract_proposals"]["anchors"]
                           + counts["pipeline.training_proposals"]["anchors"],
                           n_scenes)
    m["rpn.proposals"] = per(counts["rpn.extract_proposals"]["proposals"]
                             + counts["pipeline.training_proposals"]["proposals"],
                             n_scenes)
    m["vsa.keypoints"] = per(counts["pipeline.build_keypoints"]["keypoints"],
                             n_scenes)
    m["roihead.detections"] = per(counts["roihead.final_select"]["detections"],
                                  n_scenes)
    m["nn.mlp_forward.rows"] = per(counts["nn.mlp_forward"]["rows"], n_scenes)
    m["nn.mlp_forward.flops"] = per(counts["nn.mlp_forward"]["flops"], n_scenes)
    m["nn.mlp_backward.s"] = per(self_s["job:nn.mlp_backward"], n_jobs)
    m["nn.mlp_backward.calls"] = per(calls["job:nn.mlp_backward"], n_jobs)
    m["nn.mlp_backward.flops"] = per(counts["job:nn.mlp_backward"]["flops"],
                                     n_jobs)
    m["trace.coverage"] = min(per(c, spans[i].duration)
                              for i, c in covered.items())
    traced = [x for u in stats.traced for x in u.scene_walls]
    plain = [x for u in stats.units for x in u.scene_walls]
    m["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    m["mem.traced_peak_mb"] = stats.traced_peak_mb
    return m


def _commit(root: Path) -> str:
    """HEAD of a git checkout at root, read from its files; 'unknown'
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, thread_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((root / "src" / "pvlite").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {v: os.environ.get(v) for v in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "workload_seed": seed,
        "src_pvlite_lines": sum(len(p.read_bytes().splitlines()) for p in src),
    }
