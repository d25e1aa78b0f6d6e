"""Deterministic synthetic LiDAR-like scenes: a noisy ground plane plus
boxes with surface-sampled points, and a binary scene file format.

Scenes are intentionally minimal (no occlusion ray-casting): they exist to
exercise the pipeline's operators, not to model a sensor. Points and box
parameters are stored in float32 so scene files round-trip byte-exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import config, geom
from .config import Config
from .sparsegrid import in_range

MAGIC = "PVSCN1"
POINT_FIELDS = ("x", "y", "z", "intensity")


class PlacementError(RuntimeError):
    """Raised when an object cannot be placed after bounded retries."""


class SceneFileError(ValueError):
    """Raised on malformed scene files."""


def _f32(x: float) -> float:
    return float(np.float32(x))


# Largest float32 strictly below pi, for yaw boundary safety.
_MAX_F32_YAW = float(np.nextafter(np.float32(math.pi), np.float32(0.0)))


def _f32_box(cx, cy, cz, l, w, h, theta) -> np.ndarray:
    """Box row of float32-representable fields (yaw nudged off the +/-pi
    edge), its yaw wrapped as a SceneSample wraps it."""
    t = min(max(_f32(geom.wrap_angles(float(theta))), -_MAX_F32_YAW), _MAX_F32_YAW)
    return np.array([_f32(cx), _f32(cy), _f32(cz), _f32(l), _f32(w), _f32(h),
                     float(geom.wrap_angles(t))])


@dataclass(frozen=True)
class SceneSample:
    """A point cloud with ground-truth box rows; every point value is finite,
    every box passes geom.check_boxes and its yaw is wrapped to [-pi, pi),
    and every class id is >= 0.

    Points may lie outside the range (the pipeline ignores them); gen_scene
    keeps them inside, every box non-empty and the boxes BEV-disjoint.
    """

    points: np.ndarray  # (N, 4) float32: x, y, z, intensity
    gt_boxes: np.ndarray  # (G, 7) float64: cx, cy, cz, l, w, h, theta
    gt_classes: tuple[int, ...]
    seed: int
    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float32).reshape(-1, 4)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        bad = np.argwhere(~np.isfinite(pts))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"point {row}: {POINT_FIELDS[col]} must be finite, "
                             f"got {pts[row, col]}")
        boxes = np.array(self.gt_boxes, dtype=float).reshape(-1, 7)
        geom.check_boxes(boxes, "box")
        boxes[:, 6] = geom.wrap_angles(boxes[:, 6])
        boxes.flags.writeable = False
        object.__setattr__(self, "gt_boxes", boxes)
        object.__setattr__(self, "gt_classes", tuple(int(c) for c in self.gt_classes))
        if len(self.gt_boxes) != len(self.gt_classes):
            raise ValueError("gt_boxes and gt_classes must align")
        for b, cls in enumerate(self.gt_classes):
            if cls < 0:
                raise ValueError(f"box {b}: class id must be >= 0, got {cls}")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def points_f64(self) -> np.ndarray:
        return self.points.astype(float)

    def equals(self, other: "SceneSample") -> bool:
        return (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.gt_boxes, other.gt_boxes)
            and self.gt_classes == other.gt_classes
            and self.seed == other.seed
            and self.range_min == other.range_min
            and self.range_max == other.range_max
        )


def _sample_box_surface(box: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform area-weighted samples over the six faces of a box row, world frame."""
    cx, cy, cz, l, w, h, theta = box
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    face = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    local = np.empty((count, 3))
    for f in range(6):
        m = face == f
        if not m.any():
            continue
        axis, sign = divmod(f, 2)
        s = 0.5 if sign == 0 else -0.5
        if axis == 0:
            local[m] = np.stack([np.full(m.sum(), s * l), u[m] * w, v[m] * h], axis=1)
        elif axis == 1:
            local[m] = np.stack([u[m] * l, np.full(m.sum(), s * w), v[m] * h], axis=1)
        else:
            local[m] = np.stack([u[m] * l, v[m] * w, np.full(m.sum(), s * h)], axis=1)
    c, s = math.cos(theta), math.sin(theta)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1] + cx
    world[:, 1] = s * local[:, 0] + c * local[:, 1] + cy
    world[:, 2] = local[:, 2] + cz
    return world


def gen_scene(cfg: Config, seed: int) -> SceneSample:
    """Generate one deterministic scene.

    Ground-plane points cover the ranged area; each object is a class-sized
    box with face-sampled points whose density decays with distance from
    the sensor origin and whose positions carry Gaussian noise. Object
    placements are rejected until BEV-disjoint; boxes whose inside-point
    count falls below the configured minimum are resampled. Bounded retries
    exhausted raise PlacementError.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(cfg.range_min, dtype=float)
    hi = np.asarray(cfg.range_max, dtype=float)

    gx = rng.uniform(lo[0], hi[0], size=cfg.synth_ground_points)
    gy = rng.uniform(lo[1], hi[1], size=cfg.synth_ground_points)
    gz = cfg.synth_ground_z + rng.normal(0.0, config.SYNTH_GROUND_NOISE,
                                         size=cfg.synth_ground_points)
    gi = rng.uniform(0.0, 1.0, size=cfg.synth_ground_points)
    ground = np.stack([gx, gy, gz, gi], axis=1).astype(np.float32)
    ground = ground[in_range(ground[:, :3].astype(float), lo, hi)]

    boxes: list[np.ndarray] = []
    classes: list[int] = []
    chunks = [ground]
    for _ in range(cfg.synth_objects):
        cls = int(rng.integers(len(cfg.classes)))
        spec = cfg.classes[cls]
        box = None
        for _attempt in range(100):
            dims = np.asarray(spec.size) * np.exp(
                rng.normal(0.0, config.SYNTH_SIZE_STD, size=3)
            )
            yaw = (rng.integers(2) * math.pi / 2
                   + rng.normal(0.0, config.SYNTH_YAW_JITTER))
            margin = 0.5 * math.hypot(dims[0], dims[1]) + config.SYNTH_MARGIN
            cx = rng.uniform(lo[0] + margin, hi[0] - margin)
            cy = rng.uniform(lo[1] + margin, hi[1] - margin)
            cz = cfg.synth_ground_z + 0.5 * dims[2]
            cand = _f32_box(cx, cy, cz, dims[0], dims[1], dims[2], yaw)
            placed = np.array(boxes).reshape(-1, 7)
            near = placed[geom.circles_meet(placed, cand)]
            if not (len(near) and geom.bev_iou(near, cand).any()):
                box = cand
                break
        if box is None:
            raise PlacementError(
                f"could not place object {len(boxes)} after 100 attempts"
            )
        dist = math.hypot(box[0], box[1])
        count = max(
            config.SYNTH_MIN_POINTS * 2,
            int(cfg.synth_points_per_object / (1.0 + dist / config.SYNTH_RANGE_DECAY)),
        )
        pts = None
        for _attempt in range(20):
            xyz = _sample_box_surface(box, count, rng)
            xyz += rng.normal(0.0, config.SYNTH_SURFACE_NOISE, size=xyz.shape)
            inten = rng.uniform(0.0, 1.0, size=xyz.shape[0])
            cand_pts = np.concatenate([xyz, inten[:, None]], axis=1).astype(np.float32)
            cand_pts = cand_pts[in_range(cand_pts[:, :3].astype(float), lo, hi)]
            inside = geom.points_in_box(cand_pts[:, :3].astype(float), box)
            if inside.sum() >= config.SYNTH_MIN_POINTS:
                pts = cand_pts
                break
        if pts is None:
            raise PlacementError(
                f"object {len(boxes)} kept fewer than {config.SYNTH_MIN_POINTS} points"
            )
        boxes.append(box)
        classes.append(cls)
        chunks.append(pts)

    points = np.concatenate(chunks, axis=0).astype(np.float32)
    return SceneSample(points, boxes, classes, seed,
                       tuple(cfg.range_min), tuple(cfg.range_max))


# ---------------------------------------------------------------------------
# Scene files: one ascii header line, then little-endian float32 point
# records (x, y, z, intensity), then box records (cx, cy, cz, l, w, h,
# theta as float32, class as int32).
# ---------------------------------------------------------------------------

def save_scene(scene: SceneSample, path) -> None:
    rng_txt = ",".join(repr(v) for v in (*scene.range_min, *scene.range_max))
    header = (
        f"{MAGIC} points={scene.num_points} boxes={len(scene.gt_boxes)} "
        f"seed={scene.seed} range={rng_txt}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(scene.points, dtype="<f4").tobytes())
        for box, cls in zip(scene.gt_boxes, scene.gt_classes):
            fh.write(np.asarray(box, dtype="<f4").tobytes())
            fh.write(np.asarray([cls], dtype="<i4").tobytes())


def load_scene(path) -> SceneSample:
    """Read a scene file; malformed content raises SceneFileError naming it."""
    try:
        with open(path, "rb") as fh:
            text = fh.readline().decode("ascii", errors="replace").strip()
            fields = text.split()
            if not fields or fields[0] != MAGIC:
                if fields and fields[0].startswith("PVSCN"):
                    raise SceneFileError(
                        f"unsupported scene format version {fields[0]!r} "
                        f"(expected {MAGIC})"
                    )
                raise SceneFileError(f"bad scene magic: {text[:30]!r}")
            kv = dict(tok.split("=", 1) for tok in fields[1:] if "=" in tok)
            try:
                n_points = int(kv["points"])
                n_boxes = int(kv["boxes"])
                seed = int(kv["seed"])
                rng_vals = [float(v) for v in kv["range"].split(",")]
                if len(rng_vals) != 6:
                    raise ValueError("range must have six values")
            except (KeyError, ValueError) as exc:
                raise SceneFileError(f"malformed scene header: {text!r}") from exc

            left = os.path.getsize(path) - fh.tell()
            for field, count, size in (("points", n_points, 16), ("boxes", n_boxes, 32)):
                if count < 0:
                    raise SceneFileError(f"{field}={count} is negative")
                if count * size > left:
                    raise SceneFileError(f"{field}={count} needs {count * size} "
                                         f"bytes, {left} left in the file")
                left -= count * size
            points = np.frombuffer(fh.read(n_points * 16), dtype="<f4").reshape(n_points, 4)
            boxes = np.frombuffer(fh.read(n_boxes * 32),
                                  dtype=[("box", "<f4", 7), ("cls", "<i4")])
            if fh.read(1):
                raise SceneFileError("trailing bytes after box records")
        return SceneSample(
            points, boxes["box"], boxes["cls"], seed,
            tuple(rng_vals[:3]), tuple(rng_vals[3:]),
        )
    except ValueError as exc:  # SceneFileError, or a SceneSample check
        raise SceneFileError(f"{path}: {exc}") from exc
