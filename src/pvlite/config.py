"""Pipeline configuration: every hyperparameter in one validated, flat
key=value text format, plus the KITTI-scale, Waymo-scale and desk-scale
profiles. Environment variables prefixed PVL_ override file values.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

ENV_PREFIX = "PVL_"


class ConfigError(ValueError):
    """Raised on malformed or inconsistent configuration."""


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

    # Keypoints and set-abstraction radii (meters) / neighbor caps
    num_keypoints: int = 2048
    vsa_radii: tuple[tuple[float, float], ...] = (
        (0.4, 0.8), (0.8, 1.2), (1.2, 2.4), (2.4, 4.8),
    )
    vsa_caps: tuple[int, int, int, int] = (16, 16, 32, 32)
    raw_radii: tuple[float, float] = (0.4, 0.8)
    raw_cap: int = 16
    grid_radii: tuple[float, float] = (0.8, 1.6)
    grid_cap: int = 32

    # Network widths
    backbone_widths: tuple[int, int, int, int] = (16, 32, 64, 64)
    vsa_branch_width: int = 32
    raw_branch_width: int = 16
    grid_branch_width: int = 16
    roi_feature_width: int = 256
    pkw_hidden: tuple[int, int] = (128, 64)
    rpn_hidden: int = 64
    refine_hidden: int = 256

    # Proposal generation and refinement
    class_names: tuple[str, ...] = ("car",)
    class_sizes: tuple[tuple[float, float, float], ...] = ((3.9, 1.6, 1.56),)
    class_z: tuple[float, ...] = (-0.82,)
    top_proposals: int = 100
    proposal_nms_iou: float = 0.7
    final_nms_iou: float = 0.01
    roi_samples: int = 128
    roi_pos_iou: float = 0.55

    # Synthetic scenes
    synth_ground_points: int = 2048
    synth_ground_z: float = -1.6
    synth_ground_noise: float = 0.02
    synth_objects: int = 4
    synth_points_per_object: int = 400
    synth_min_points: int = 20
    synth_size_std: float = 0.06
    synth_surface_noise: float = 0.03
    synth_yaw_jitter: float = 0.15
    synth_margin: float = 1.0
    synth_range_decay: float = 40.0

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


def validate(cfg: Config) -> None:
    def fail(msg):
        raise ConfigError(msg)

    for lo, hi, vs in zip(cfg.range_min, cfg.range_max, cfg.voxel_size):
        if vs <= 0:
            fail(f"voxel size must be positive, got {vs}")
        if hi <= lo:
            fail(f"range [{lo}, {hi}] is empty")
        n = (hi - lo) / vs
        if abs(n - round(n)) > 1e-6:
            fail(f"range [{lo}, {hi}] is not a whole number of {vs} m voxels")
    if cfg.num_keypoints < 1:
        fail("num_keypoints must be >= 1")
    if len(cfg.vsa_radii) != 4 or len(cfg.vsa_caps) != 4:
        fail("vsa_radii and vsa_caps must have four levels")
    for pair in (*cfg.vsa_radii, cfg.raw_radii, cfg.grid_radii):
        if len(pair) != 2 or pair[0] <= 0 or pair[1] <= pair[0]:
            fail(f"radius pair {pair} must be positive and increasing")
    for cap in (*cfg.vsa_caps, cfg.raw_cap, cfg.grid_cap):
        if cap < 1:
            fail(f"neighbor cap {cap} must be >= 1")
    if len(cfg.backbone_widths) != 4 or any(w < 1 for w in cfg.backbone_widths):
        fail(f"backbone_widths {cfg.backbone_widths} must be four positive ints")
    for w in (cfg.vsa_branch_width, cfg.raw_branch_width, cfg.grid_branch_width,
              cfg.roi_feature_width, cfg.rpn_hidden, cfg.refine_hidden,
              *cfg.pkw_hidden):
        if w < 1:
            fail("network widths must be positive")
    if not (len(cfg.class_names) == len(cfg.class_sizes) == len(cfg.class_z) >= 1):
        fail("class_names, class_sizes and class_z must align and be non-empty")
    for size in cfg.class_sizes:
        if len(size) != 3 or any(d <= 0 for d in size):
            fail(f"class size {size} must be three positive dims")
    for name, prob in (("proposal_nms_iou", cfg.proposal_nms_iou),
                       ("final_nms_iou", cfg.final_nms_iou),
                       ("roi_pos_iou", cfg.roi_pos_iou)):
        if not 0.0 <= prob <= 1.0:
            fail(f"{name} must be in [0, 1], got {prob}")
    if cfg.top_proposals < 1 or cfg.roi_samples < 1:
        fail("top_proposals and roi_samples must be >= 1")
    for name, v in (("synth_ground_points", cfg.synth_ground_points),
                    ("synth_points_per_object", cfg.synth_points_per_object),
                    ("synth_min_points", cfg.synth_min_points)):
        if v < 0:
            fail(f"{name} must be non-negative")
    if cfg.synth_objects < 0:
        fail("synth_objects must be non-negative")
    if not cfg.range_min[2] <= cfg.synth_ground_z < cfg.range_max[2]:
        fail("synth_ground_z must lie inside the z range")


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


def _parse_value(field: dataclasses.Field, raw: str):
    base = field.type
    default = field.default
    try:
        if isinstance(default, bool):
            raise ConfigError(f"unsupported field type for {field.name}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            if default and isinstance(default[0], tuple):
                return tuple(
                    tuple(float(x) for x in grp.split(","))
                    for grp in raw.split(";")
                )
            if default and isinstance(default[0], str):
                return tuple(s for s in raw.split(",") if s)
            if default and isinstance(default[0], int):
                return tuple(int(x) for x in raw.split(","))
            return tuple(float(x) for x in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {field.name}={raw!r}: {exc}") from exc
    raise ConfigError(f"unsupported field type {base!r} for {field.name}")


def load(path=None, env: dict | None = None) -> Config:
    """Build a Config from an optional key=value file plus PVL_ overrides.

    Unknown keys other than RETIRED_KEYS are rejected; fields are validated.
    """
    fields = {f.name: f for f in dataclasses.fields(Config)}
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                key, raw = line.split("=", 1)
                key = key.strip()
                if key in RETIRED_KEYS:
                    continue
                if key not in fields:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
                values[key] = _parse_value(fields[key], raw.strip())
    env = os.environ if env is None else env
    for name, fld in fields.items():
        ev = env.get(ENV_PREFIX + name.upper())
        if ev is not None:
            values[name] = _parse_value(fld, ev)
    return Config(**values)
