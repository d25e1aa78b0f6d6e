"""Pipeline configuration: the settings a profile or run varies, in one
validated flat key=value text format, plus the KITTI-scale, Waymo-scale and
desk-scale profiles. Environment variables prefixed PVL_ override file
values. The paper's fixed hyperparameters, the same on KITTI and on Waymo,
are the module constants below; no file or variable changes them.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

ENV_PREFIX = "PVL_"
SEED_LIMIT = 2**63

# Set-abstraction radii (meters) and neighbour caps: backbone levels, raw, RoI grid
VSA_RADII = ((0.4, 0.8), (0.8, 1.2), (1.2, 2.4), (2.4, 4.8))
VSA_CAPS = (16, 16, 32, 32)
RAW_RADII = (0.4, 0.8)
RAW_CAP = 16
GRID_RADII = (0.8, 1.6)
GRID_CAP = 32
GRID_RESOLUTION = 6  # RoI grid points per box axis

# Network widths
BACKBONE_WIDTHS = (16, 32, 64, 64)
VSA_BRANCH_WIDTH = 32
RAW_BRANCH_WIDTH = 16
GRID_BRANCH_WIDTH = 16
ROI_FEATURE_WIDTH = 256
PKW_HIDDEN = (128, 64)
RPN_HIDDEN = 64
REFINE_HIDDEN = 256

# IoU thresholds: proposal NMS, final NMS, positive RoI in refinement sampling
PROPOSAL_NMS_IOU = 0.7
FINAL_NMS_IOU = 0.01
ROI_POS_IOU = 0.55

FOCAL_ALPHA, FOCAL_GAMMA = 0.25, 2.0  # focal loss weighting (arXiv 1708.02002)

# Synthetic scenes (meters; the size std is of log-size, the yaw jitter radians)
SYNTH_GROUND_NOISE = 0.02
SYNTH_SIZE_STD = 0.06
SYNTH_SURFACE_NOISE = 0.03
SYNTH_YAW_JITTER = 0.15
SYNTH_MIN_POINTS = 20  # fewest points an object keeps inside its box
SYNTH_MARGIN = 1.0
SYNTH_RANGE_DECAY = 40.0


class ConfigError(ValueError):
    """Raised on malformed or inconsistent configuration; key is the field
    at fault when it is one field that load() can trace to a line or variable."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ClassSpec:
    """Per-class mean box size and anchor height."""

    name: str
    size: tuple[float, float, float]  # mean (l, w, h) meters
    z_center: float  # anchor / placement center height, meters


@dataclass(frozen=True)
class Config:
    # Scene geometry
    voxel_size: tuple[float, float, float] = (0.05, 0.05, 0.1)
    range_min: tuple[float, float, float] = (0.0, -40.0, -3.0)
    range_max: tuple[float, float, float] = (70.4, 40.0, 1.0)
    num_keypoints: int = 2048  # FPS keypoints per scene

    # Proposal generation and refinement
    class_names: tuple[str, ...] = ("car",)
    class_sizes: tuple[tuple[float, float, float], ...] = ((3.9, 1.6, 1.56),)
    class_z: tuple[float, ...] = (-0.82,)
    top_proposals: int = 100
    roi_samples: int = 128

    # Synthetic scenes
    synth_ground_points: int = 2048
    synth_ground_z: float = -1.6
    synth_objects: int = 4
    synth_points_per_object: int = 400

    # Determinism
    seed: int = 0

    def __post_init__(self):
        validate(self)

    @property
    def classes(self) -> tuple[ClassSpec, ...]:
        return tuple(
            ClassSpec(n, s, z)
            for n, s, z in zip(self.class_names, self.class_sizes, self.class_z)
        )

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


def _flat(value) -> list:
    return [x for v in value for x in _flat(v)] if isinstance(value, tuple) else [value]


def validate(cfg: Config) -> None:
    def fail(msg, key=None):
        raise ConfigError(msg, key)

    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not all(math.isfinite(x) for x in _flat(value) if isinstance(x, float)):
            fail(f"{f.name} must be finite, got {_fmt(value)}", f.name)
    for name in ("voxel_size", "range_min", "range_max"):
        if len(getattr(cfg, name)) != 3:
            fail(f"{name} must hold three values (x, y, z), "
                 f"got {_fmt(getattr(cfg, name))}", name)
    for lo, hi, vs in zip(cfg.range_min, cfg.range_max, cfg.voxel_size):
        if vs <= 0:
            fail(f"voxel size must be positive, got {vs}", "voxel_size")
        if hi <= lo:
            fail(f"range [{lo}, {hi}] is empty")
        n = (hi - lo) / vs
        if abs(n - round(n)) > 1e-6:
            fail(f"range [{lo}, {hi}] is not a whole number of {vs} m voxels")
    if not (len(cfg.class_names) == len(cfg.class_sizes) == len(cfg.class_z) >= 1):
        fail("class_names, class_sizes and class_z must align and be non-empty")
    for size in cfg.class_sizes:
        if len(size) != 3 or any(d <= 0 for d in size):
            fail(f"class size {size} must be three positive dims", "class_sizes")
    for name in ("num_keypoints", "top_proposals", "roi_samples"):
        if getattr(cfg, name) < 1:
            fail(f"{name} must be >= 1", name)
    for name in ("synth_ground_points", "synth_objects", "synth_points_per_object"):
        if getattr(cfg, name) < 0:
            fail(f"{name} must be non-negative", name)
    if not cfg.range_min[2] <= cfg.synth_ground_z < cfg.range_max[2]:
        fail("synth_ground_z must lie inside the z range", "synth_ground_z")
    if not 0 <= cfg.seed < SEED_LIMIT:  # keeps every derived stream key below 2**64
        fail(f"seed must be in [0, 2**63), got {cfg.seed}", "seed")


def default_config() -> Config:
    """KITTI-scale profile."""
    return Config()


def waymo_config() -> Config:
    """Waymo-scale profile: wider range, coarser voxels, more keypoints."""
    return Config(
        voxel_size=(0.1, 0.1, 0.15),
        range_min=(-75.2, -75.2, -2.0),
        range_max=(75.2, 75.2, 4.0),
        num_keypoints=4096,
        synth_ground_z=-0.4,
        class_z=(0.38,),
    )


def desk_config() -> Config:
    """Small profile for fast runs and tests."""
    return Config(
        range_min=(0.0, -9.6, -3.0),
        range_max=(19.2, 9.6, 1.0),
        num_keypoints=512,
        synth_ground_points=1200,
        synth_objects=3,
        synth_points_per_object=300,
    )


PROFILES = {"kitti": default_config, "waymo": waymo_config, "desk": desk_config}

# Keys that older versions saved but that never had an effect: load() skips them.
RETIRED_KEYS = ("match_pos_iou", "match_neg_iou", "rpn_beta",
                "aug_flip_prob", "aug_scale_range", "aug_rot_range")

# Keys that older versions saved for the fixed values, each holding the
# constant of its upper-case name: load() accepts one only with that value.
FIXED_KEYS = {key: globals()[key.upper()] for key in (
    "vsa_radii", "vsa_caps", "raw_radii", "raw_cap", "grid_radii", "grid_cap",
    "backbone_widths", "vsa_branch_width", "raw_branch_width",
    "grid_branch_width", "roi_feature_width", "pkw_hidden", "rpn_hidden",
    "refine_hidden", "proposal_nms_iou", "final_nms_iou", "roi_pos_iou",
    "synth_ground_noise", "synth_min_points", "synth_size_std",
    "synth_surface_noise", "synth_yaw_jitter", "synth_margin", "synth_range_decay",
)}


# ---------------------------------------------------------------------------
# Flat key=value serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(repr(x) for x in inner) for inner in value)
        if value and isinstance(value[0], str):
            return ",".join(value)
        return ",".join(repr(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def to_text(cfg: Config) -> str:
    lines = [f"{f.name}={_fmt(getattr(cfg, f.name))}"
             for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"


def save(cfg: Config, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(cfg))


def _parse_value(name: str, default, raw: str, where: str):
    """Parse raw as the type of default: a field's default or a fixed value."""
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default[0], tuple):
            return tuple(tuple(float(x) for x in grp.split(","))
                         for grp in raw.split(";"))
        if isinstance(default[0], str):
            return tuple(s for s in raw.split(",") if s)
        return tuple(float(x) for x in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {name}={raw!r}: {exc}") from exc


def load(path=None, env: dict | None = None) -> Config:
    """Build a Config from an optional key=value file plus PVL_ overrides.

    Keys in RETIRED_KEYS are skipped; a key in FIXED_KEYS must hold its
    fixed value; any other unknown key is rejected. Fields are validated.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(Config)}
    values: dict = {}
    source: dict = {}  # key -> the file:line or variable that set it last

    def take(key: str, raw: str, where: str) -> None:
        if key in defaults:
            values[key] = _parse_value(key, defaults[key], raw, where)
            source[key] = where
        elif key in FIXED_KEYS:
            fixed = FIXED_KEYS[key]
            # An int tuple parses as floats, which compare equal to the ints.
            if _parse_value(key, fixed, raw, where) != fixed:
                raise ConfigError(f"{where}: {key} is fixed at {_fmt(fixed)}, got {raw!r}")
        elif key not in RETIRED_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")

    if path is not None:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                key, raw = line.split("=", 1)
                take(key.strip(), raw.strip(), f"{path}:{ln}")
    env = os.environ if env is None else env
    for key in [*defaults, *FIXED_KEYS]:
        var = ENV_PREFIX + key.upper()
        if var in env:
            take(key, env[var], var)
    try:
        return Config(**values)
    except ConfigError as exc:  # name where a single field at fault was set
        raise ConfigError(f"{source[exc.key]}: {exc}") if exc.key in source else exc
