"""Tracing pvlite from outside for the benchmark's per-layer run.

The tracer replaces public pvlite functions with timing wrappers at the
module attribute their callers look them up through, records one span
(name, start, end, parent) per call plus a few counts taken from the
call's arguments and result, and restores the originals on exit. Nothing
under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pvlite import geom, nn, pipeline, roihead, rpn, sparsegrid, vsa


class TraceSetupError(RuntimeError):
    """A function the tracer must wrap is missing, renamed or never ran."""


# Observers turn (bound call arguments, result) into counts kept on the span.

def _query_counts(call: inspect.BoundArguments, result) -> dict[str, int]:
    cap = int(call.arguments["cap"])
    lens = [len(nl) for nl in result]
    return {
        "queries": len(lens),
        "neighbours": sum(lens),
        "empty": sum(1 for n in lens if n == 0),
        "at_cap": sum(1 for n in lens if n == cap),
    }


def _mlp_flops(call: inspect.BoundArguments, _result) -> dict[str, int]:
    p = call.arguments["p"]
    x = call.arguments["x"]
    rows = np.shape(x)[0] if np.ndim(x) == 2 else 1
    dims = p.layer_dims
    per_row = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    return {"rows": rows, "flops": 2 * rows * per_row}


def _voxels(_call, result) -> dict[str, int]:
    return {f"l{k + 1}": t.num_voxels for k, t in enumerate(result)}


def _anchors_and_proposals(call, result) -> dict[str, int]:
    return {"anchors": len(call.arguments["anchors"]), "proposals": len(result)}


def _keypoints(_call, result) -> dict[str, int]:
    return {"keypoints": result.n}


def _detections(_call, result) -> dict[str, int]:
    return {"detections": len(result)}


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    span: str
    observe: Callable | None = None


# Each wrapped attribute is the one the caller resolves at call time: e.g.
# roihead imported radius_query by name, so roihead.radius_query and
# vsa.radius_query are separate entry points, and pipeline imported
# voxelize / run_backbone / bev_collapse from sparsegrid by name.
TARGETS = (
    Target(pipeline, "run_scene", "pipeline.run_scene"),
    Target(pipeline, "build_pkw_batch", "pipeline.build_pkw_batch"),
    Target(pipeline, "build_refine_batch", "pipeline.build_refine_batch"),
    Target(pipeline, "train_pkw", "pipeline.train_pkw"),
    Target(pipeline, "train_refine", "pipeline.train_refine"),
    Target(pipeline, "matched_iou_stats", "pipeline.matched_iou_stats"),
    Target(pipeline, "voxelize", "sparsegrid.voxelize"),
    Target(pipeline, "run_backbone", "sparsegrid.run_backbone", _voxels),
    Target(sparsegrid, "sparse_conv", "sparsegrid.sparse_conv"),
    Target(pipeline, "bev_collapse", "sparsegrid.bev_collapse"),
    Target(vsa, "bilinear_sample", "sparsegrid.bilinear_sample"),
    Target(pipeline, "rpn_head_outputs", "rpn.head"),
    Target(rpn, "extract_proposals", "rpn.extract_proposals",
           _anchors_and_proposals),
    Target(pipeline, "training_proposals", "pipeline.training_proposals",
           _anchors_and_proposals),
    Target(geom, "nms", "geom.nms"),
    Target(geom, "iou_3d", "geom.iou_3d"),
    Target(pipeline, "build_keypoints", "pipeline.build_keypoints", _keypoints),
    Target(vsa, "fps", "vsa.fps"),
    Target(vsa, "vsa_multi_level", "vsa.vsa_multi_level"),
    Target(vsa, "extended_vsa", "vsa.extended_vsa"),
    Target(vsa, "pkw", "vsa.pkw"),
    Target(vsa, "radius_query", "vsa.radius_query", _query_counts),
    Target(roihead, "roi_grid_pool", "roihead.roi_grid_pool"),
    Target(roihead, "radius_query", "roihead.grid_query", _query_counts),
    Target(roihead, "refine", "roihead.refine"),
    Target(roihead, "final_select", "roihead.final_select", _detections),
    Target(roihead, "sample_proposals", "roihead.sample_proposals"),
    Target(nn, "mlp_forward", "nn.mlp_forward", _mlp_flops),
    Target(nn, "mlp_backward", "nn.mlp_backward", _mlp_flops),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps every target while it is active.

    Spans stay in memory in call order (a parent always precedes its
    children) until the caller writes them out.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                original = getattr(t.module, t.attr, None)
                if not callable(original):
                    raise TraceSetupError(
                        f"cannot trace {t.module.__name__}.{t.attr}: "
                        "missing or not callable"
                    )
                self._saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrap(original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, observe = target.span, target.observe
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.counts = observe(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor."""
        out: list[int] = []
        for i, s in enumerate(self.spans):
            out.append(i if s.parent < 0 else out[s.parent])
        return out

    def records(self):
        """Spans as plain dicts, for writing out as JSON lines."""
        for i, s in enumerate(self.spans):
            rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent}
            if s.counts:
                rec["counts"] = s.counts
            yield rec
