"""Detection matching and average precision at 11 / 40 recall positions
with rotated-IoU thresholds, plus detection file IO and report formatting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import Detection

R11_SAMPLES = np.linspace(0.0, 1.0, 11)
R40_SAMPLES = np.arange(1, 41) / 40.0


@dataclass(frozen=True)
class PrCurve:
    """Raw precision/recall samples along the score-ranked detection list."""

    recalls: np.ndarray  # non-decreasing
    precisions: np.ndarray
    num_gt: int
    num_tp: int
    num_fp: int


def match_detections(
    dets: list[Detection],
    gts: np.ndarray,
    iou_thresh: float,
    iou_kind: str = "bev",
) -> np.ndarray:
    """Greedy one-to-one TP/FP assignment of detections to (G, 7) gt rows.

    Detections are processed in descending score order (ties by input
    index); each matches its highest-IoU still-unmatched gt when that IoU
    reaches the threshold, otherwise it is a false positive.

    Returns:
        (N,) boolean TP flags aligned with the input detection order.
    """
    if iou_kind not in ("bev", "3d"):
        raise ValueError(f"iou_kind must be 'bev' or '3d', got {iou_kind!r}")
    iou_fn = geom.bev_iou if iou_kind == "bev" else geom.iou_3d
    flags = np.zeros(len(dets), dtype=bool)
    gt_rows = np.asarray(gts, dtype=float).reshape(1, -1, 7)
    if not dets or not gt_rows.size:
        return flags
    det_rows = np.array([d.box.to_array() for d in dets]).reshape(-1, 1, 7)
    iou = iou_fn(det_rows, gt_rows)  # (N, G)
    free = np.ones(gt_rows.shape[1], dtype=bool)
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
        cand = np.where(free, iou[i], 0.0)
        g = int(np.argmax(cand))
        if cand[g] > 0.0 and cand[g] >= iou_thresh:
            flags[i] = True
            free[g] = False
    return flags


def pr_curve(flags: np.ndarray, scores: np.ndarray, gt_count: int) -> PrCurve:
    """Cumulative precision/recall along the descending-score ranking."""
    flags = np.asarray(flags, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    order = np.lexsort((np.arange(len(scores)), -scores))
    f = flags[order]
    tp = np.cumsum(f)
    fp = np.cumsum(~f)
    denom = max(gt_count, 1)
    recalls = tp / denom
    precisions = tp / np.maximum(tp + fp, 1)
    return PrCurve(recalls, precisions, gt_count, int(tp[-1]) if len(tp) else 0,
                   int(fp[-1]) if len(fp) else 0)


def average_precision(
    flags: np.ndarray, scores: np.ndarray, gt_count: int, mode: str = "R40"
) -> float:
    """Interpolated AP sampled at 11 or 40 recall positions.

    The interpolated precision at recall r is the max precision over the
    curve where recall >= r (zero when never reached). R11 samples
    {0, 0.1, ..., 1}; R40 samples {1/40, ..., 1} (recall 0 excluded).
    """
    if mode == "R11":
        samples = R11_SAMPLES
    elif mode == "R40":
        samples = R40_SAMPLES
    else:
        raise ValueError(f"mode must be 'R11' or 'R40', got {mode!r}")
    if gt_count <= 0 or len(np.asarray(flags)) == 0:
        return 0.0
    curve = pr_curve(flags, scores, gt_count)
    total = 0.0
    for r in samples:
        reach = curve.recalls >= r - 1e-12
        total += float(curve.precisions[reach].max()) if reach.any() else 0.0
    return total / len(samples)


def difficulty_buckets(gts: np.ndarray, points: np.ndarray) -> list[str | None]:
    """'L1' for (G, 7) gt rows with at least 5 inside points, 'L2' for 1..4,
    None for empty boxes (excluded from both levels)."""
    counts = geom.points_in_box(points, np.reshape(gts, (-1, 7))).sum(axis=0)
    return ["L1" if c >= 5 else "L2" if c >= 1 else None for c in counts]


# ---------------------------------------------------------------------------
# Detection files: one detection per line, "class cx cy cz l w h theta score"
# ---------------------------------------------------------------------------

class DetectionFileError(ValueError):
    """Raised on malformed detection files."""


def save_detections(dets: list[Detection], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for d in dets:
            b = d.box
            fh.write(
                f"{d.class_id} {b.cx!r} {b.cy!r} {b.cz!r} {b.l!r} {b.w!r} "
                f"{b.h!r} {b.theta!r} {d.score!r}\n"
            )


def load_detections(path) -> list[Detection]:
    out = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 9:
                raise DetectionFileError(f"{path}:{ln}: expected 9 fields")
            try:  # bad numbers, or a box or score Detection rejects
                vals = [float(v) for v in parts[1:]]
                out.append(Detection(geom.box_from_array(vals[:7]), vals[7],
                                     int(parts[0])))
            except ValueError as exc:
                raise DetectionFileError(f"{path}:{ln}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def format_report(rows: list[dict]) -> str:
    """Aligned text table from result-row dicts (shared keys become columns)."""
    if not rows:
        return "(no results)\n"
    cols = list(rows[0].keys())
    cells = [[str(k) for k in cols]]
    for row in rows:
        cells.append([
            f"{row[c]:.4f}" if isinstance(row[c], float) else str(row[c])
            for c in cols
        ])
    widths = [max(len(r[i]) for r in cells) for i in range(len(cols))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def report_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(
            repr(row[c]) if isinstance(row[c], float) else str(row[c])
            for c in cols
        ))
    return "\n".join(lines) + "\n"
