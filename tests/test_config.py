"""Config validation, flat-file round trip, env overrides and profiles."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

from pvlite import config
from pvlite.config import Config, ConfigError


class TestValidation:
    def test_default_valid(self):
        cfg = config.default_config()
        assert cfg.num_keypoints == 2048
        assert cfg.voxel_size == (0.05, 0.05, 0.1)
        assert cfg.range_max[0] == 70.4

    def test_waymo_profile(self):
        cfg = config.waymo_config()
        assert cfg.num_keypoints == 4096
        assert cfg.voxel_size == (0.1, 0.1, 0.15)
        assert cfg.range_min[0] == -75.2

    def test_desk_profile(self):
        cfg = config.desk_config()
        assert cfg.range_max[0] < 70.4

    def test_bad_voxel_divisibility(self):
        with pytest.raises(ConfigError):
            Config(range_max=(70.43, 40.0, 1.0))

    @pytest.mark.parametrize("field, value", [
        ("range_min", (0.0, -40.0)),
        ("voxel_size", (0.1, 0.1)),
        ("range_max", (70.4, 40.0, 1.0, 2.0)),
    ])
    def test_geometry_fields_hold_three_values(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must hold three values"):
            Config(**{field: value})

    def test_two_value_range_in_file_rejected(self, tmp_path):
        path = tmp_path / "short.cfg"
        path.write_text("range_min=0.0,-40.0\n")
        with pytest.raises(ConfigError, match="range_min must hold three values"):
            config.load(path, env={})

    def test_bad_class_alignment(self):
        with pytest.raises(ConfigError):
            Config(class_names=("car", "ped"))

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**70])
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be in \[0, 2\*\*63\)"):
            Config(seed=seed)
        assert Config(seed=2**63 - 1).seed == 2**63 - 1

    def test_seed_error_names_line_and_variable(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("num_keypoints=100\nseed=-3\n")
        with pytest.raises(ConfigError, match=f"^{path}:2: seed must be in"):
            config.load(path, env={})
        with pytest.raises(ConfigError, match="^PVL_SEED: seed must be in"):
            config.load(path, env={"PVL_SEED": "-4"})
        assert config.load(path, env={"PVL_SEED": "4"}).seed == 4

    def test_classes_property(self):
        cfg = config.default_config()
        (car,) = cfg.classes
        assert car.name == "car"
        assert car.size == (3.9, 1.6, 1.56)


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        cfg = config.desk_config().replace(num_keypoints=333, top_proposals=50)
        path = tmp_path / "test.cfg"
        config.save(cfg, path)
        loaded = config.load(path, env={})
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob=3\n")
        with pytest.raises(ConfigError) as err:
            config.load(path, env={})
        assert "no_such_knob" in str(err.value)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_keypoints\n")
        with pytest.raises(ConfigError):
            config.load(path, env={})

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_keypoints=lots\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:1: cannot parse")):
            config.load(path, env={})

    def test_comments_and_blanks_ok(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\nnum_keypoints=64\n")
        assert config.load(path, env={}).num_keypoints == 64

    def test_invalid_combination_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("synth_ground_z=5.0\n")  # above the default z range
        with pytest.raises(ConfigError):
            config.load(path, env={})

    def test_retired_keys_load(self, tmp_path):
        # The six keys older versions saved (values as they wrote them).
        retired = ("match_pos_iou=0.6\nmatch_neg_iou=0.45\nrpn_beta=2.0\n"
                   "aug_flip_prob=0.5\naug_scale_range=0.95,1.05\n"
                   "aug_rot_range=-0.7853981633974483,0.7853981633974483\n")
        path = tmp_path / "old.cfg"
        path.write_text(retired + "num_keypoints=64\n")
        assert config.load(path, env={}) == Config(num_keypoints=64)
        path.write_text(retired + "no_such_knob=3\n")
        with pytest.raises(ConfigError, match="no_such_knob"):
            config.load(path, env={})

    @pytest.mark.parametrize("name, profile", [("desk", config.desk_config),
                                               ("kitti", config.default_config)])
    def test_files_with_fixed_keys_load(self, name, profile):
        # Saved by the version whose Config still had the 24 fixed values
        # as fields: every fixed key holds its constant.
        path = TESTS / "data" / f"config_{name}_saved.cfg"
        assert set(config.FIXED_KEYS) < {ln.split("=")[0] for ln in
                                         path.read_text().splitlines()}
        assert config.load(path, env={}) == profile()

    def test_fixed_key_with_other_value_rejected(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("num_keypoints=64\nvsa_branch_width=64\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: vsa_branch_width")):
            config.load(path, env={})
        path.write_text("grid_radii=0.8,wide\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:1: cannot parse grid_radii")):
            config.load(path, env={})
        path.write_text("vsa_branch_width=32\nvsa_caps=16,16,32,32\n")
        assert config.load(path, env={}) == Config()


class TestEnvOverrides:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("num_keypoints=100\n")
        cfg = config.load(path, env={"PVL_NUM_KEYPOINTS": "200"})
        assert cfg.num_keypoints == 200

    def test_env_tuple_value(self):
        cfg = config.load(None, env={"PVL_VOXEL_SIZE": "0.1,0.1,0.2"})
        assert cfg.voxel_size == (0.1, 0.1, 0.2)

    def test_env_bad_value(self):
        with pytest.raises(ConfigError):
            config.load(None, env={"PVL_NUM_KEYPOINTS": "zzz"})

    def test_no_env_uses_defaults(self):
        assert config.load(None, env={}) == config.default_config()

    def test_env_fixed_key(self):
        assert config.load(None, env={"PVL_GRID_CAP": "32"}) == Config()
        with pytest.raises(ConfigError, match="PVL_GRID_CAP: grid_cap"):
            config.load(None, env={"PVL_GRID_CAP": "8"})


SRC = Path(config.__file__).parent
TESTS = Path(__file__).parent


def _attribute_reads(files) -> set[str]:
    """Names read as attributes in the files, not counting config.validate."""
    read = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if path == SRC / "config.py" and getattr(node, "name", "") == "validate":
                node.body = []
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return read


def test_every_field_is_read():
    """Every field of every dataclass in src/pvlite is read as an attribute
    in src/pvlite, tests/ or bench/. A Config field must be read in
    src/pvlite itself, not counting the checks in config.validate."""
    src_reads = _attribute_reads(SRC.glob("*.py"))
    all_reads = src_reads | _attribute_reads(
        [*TESTS.rglob("*.py"), *(TESTS.parent / "bench").rglob("*.py")])
    unread = []
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"pvlite.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                reads = src_reads if cls is Config else all_reads
                unread += [f"{cls.__name__}.{f.name}"
                           for f in dataclasses.fields(cls) if f.name not in reads]
    assert unread == []


def _keywords_passed(tree) -> set[str]:
    """Keywords passed to Config(...) or .replace(...) in a syntax tree; a
    **NAME argument counts the keywords of a top-level NAME = dict(...)."""
    dicts = {node.targets[0].id: {k.arg for k in node.value.keywords}
             for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", "") == "dict"}
    out = set()
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", ""))
                in ("Config", "replace")):
            for k in n.keywords:
                out |= {k.arg} if k.arg else dicts.get(getattr(k.value, "id", ""), set())
    return out


def test_every_field_is_varied():
    """Every Config field is set by name, in Config(...) or .replace(...),
    in src/pvlite, bench/ or a test file other than this one. A field
    nothing sets holds one value: it is a constant, and no test or
    benchmark covers another value of it."""
    files = [*SRC.glob("*.py"), *(TESTS.parent / "bench").rglob("*.py"),
             *(p for p in TESTS.rglob("*.py") if p.name != "test_config.py")]
    varied = set()
    for path in files:
        varied |= _keywords_passed(ast.parse(path.read_text(encoding="utf-8")))
    assert [f.name for f in dataclasses.fields(Config) if f.name not in varied] == []


# Defaults kept though no call in src/pvlite or bench/ passes them.
UNPASSED_DEFAULTS = {
    "config.load.env": "tests substitute the environment through it",
    "rpn.assign_targets.gt_classes": "only acceptance and unit tests call it",
    "rpn.assign_targets.pos_iou": "only acceptance and unit tests call it",
    "rpn.assign_targets.neg_iou": "only acceptance and unit tests call it",
}


def test_every_default_is_overridden():
    """Every parameter default in src/pvlite is passed, by keyword or by
    position, by some call in src/pvlite or bench/, matched by the called
    name (a class name for its __init__). A default no call passes holds
    one value: it is a constant, read where it is used, not a parameter."""
    files = [*SRC.glob("*.py"), *(TESTS.parent / "bench").rglob("*.py")]
    calls = []  # (called name, positional count, keywords, has *args or **kw)
    for path in files:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                kws = {k.arg for k in n.keywords}
                calls.append((getattr(n.func, "id", getattr(n.func, "attr", "")),
                              len(n.args), kws,
                              None in kws or any(isinstance(a, ast.Starred) for a in n.args)))
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name, pos = fn.name, fn.args.posonlyargs + fn.args.args
            if id(fn) in owner:  # a method: self is not passed in the call
                name = owner[id(fn)].name if name == "__init__" else name
                pos = pos[1:]
            params = [(a.arg, i) for i, a in enumerate(pos)][len(pos) - len(fn.args.defaults):]
            params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                                      fn.args.kw_defaults) if d is not None]
            unpassed += [f"{path.stem}.{fn.name}.{arg}" for arg, i in params
                         if not any(c[0] == name and (arg in c[2] or c[3] or (
                             i is not None and c[1] > i)) for c in calls)]
    assert sorted(set(unpassed) - set(UNPASSED_DEFAULTS)) == []


def _names(node) -> Counter:
    """Identifiers a syntax tree names, with their counts: variables,
    attributes, imported names, and string constants (for lookups by name,
    as bench/tracer.py makes)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def test_every_definition_is_used():
    """Every top-level function and class in src/pvlite, and every method
    and property of those classes other than dunder methods, is named
    somewhere in src/pvlite outside its own body, in bench/ or in
    tests/test_acceptance.py. A definition only the unit tests name is code
    no command, benchmark or acceptance criterion runs."""
    named = Counter()
    for path in [*(TESTS.parent / "bench").rglob("*.py"), TESTS / "test_acceptance.py"]:
        named += _names(ast.parse(path.read_text(encoding="utf-8")))
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    assert [qual for qual, node in defined
            if named[node.name] <= _names(node)[node.name]] == []


# The only places a Box3D or a Detection is built, and why.
BOX_OBJECT_SITES = {
    "geom": "defines Box3D, box_from_array and Detection",
    "checks": "_random_box draws the IoU checks' boxes as Box3D objects",
    "pipeline.run_scene": "returns the final detections as Detections",
    "evalkit.load_detections": "reads a detection file into Detections",
}


def test_boxes_are_rows_inside_the_pipeline():
    """Box3D(...), box_from_array(...) and Detection(...) are called only at
    the sites above, and no module but geom and checks names Box3D: from
    scene to training batch, boxes are (N, 7) rows."""
    sites, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "Box3D" in _names(tree) and path.stem not in ("geom", "checks"):
            named.add(path.stem)
        for top in tree.body:
            where = (f"{path.stem}.{top.name}"
                     if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else path.stem)
            sites |= {where for n in ast.walk(top) if isinstance(n, ast.Call)
                      and getattr(n.func, "id", getattr(n.func, "attr", ""))
                      in ("Box3D", "box_from_array", "Detection")}
    assert named == set()
    assert sorted(s for s in sites if s not in BOX_OBJECT_SITES
                  and s.split(".")[0] not in BOX_OBJECT_SITES) == []
    assert [k for k in BOX_OBJECT_SITES
            if not any(s == k or s.startswith(k + ".") for s in sites)] == []
