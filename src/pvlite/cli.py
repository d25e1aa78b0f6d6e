"""Command-line front-end: scene synthesis, pipeline runs, head training,
evaluation, the pooling benchmark and the invariant check suite.

Exit codes: 0 success, 1 validation error (config, file formats), 2 usage
error (argparse rejected the arguments) or runtime failure (naming the
scene file it happened in).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import checks, config, evalkit, nn, pipeline, rpn, synth
from .config import Config
from .evalkit import DetectionFileError
from .synth import SceneFileError

# Raised by the loaders on malformed input: exit 1.
VALIDATION_ERRORS = (config.ConfigError, SceneFileError, DetectionFileError,
                     nn.ParamFileError, FileNotFoundError)


@contextlib.contextmanager
def _processing(scene_name):
    """Report any error raised inside as a runtime error naming the scene."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{scene_name}: {type(exc).__name__}: {exc}") from exc


def _load_config(args) -> Config:
    cfg = config.load(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _scene_paths(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        paths = sorted(p.glob("*.pvscn"))
        if not paths:
            raise SceneFileError(f"no .pvscn files in {p}")
        return paths
    if p.is_file():
        return [p]
    raise SceneFileError(f"no such scene file or directory: {spec}")


def _load_scenes(spec: str, cfg: Config | None = None):
    """(path, scene) pairs; given a config, class ids must index its classes."""
    pairs = [(path, synth.load_scene(path)) for path in _scene_paths(spec)]
    for path, scene in pairs if cfg is not None else ():
        for b, cls in enumerate(scene.gt_classes):
            if cls >= len(cfg.classes):  # a scene rejects negative ids
                raise SceneFileError(f"{path}: box {b}: class id {cls} is not "
                                     f"in range({len(cfg.classes)}) of the config")
    return pairs


def _apply_param_files(model, param_paths):
    for path in param_paths or ():
        try:
            with open(path, "rb") as fh:
                pipeline.apply_param_sections(model, nn.load_param_sections(fh))
        except ValueError as exc:  # a malformed section or one the model can't take
            raise nn.ParamFileError(f"{path}: {exc}") from exc


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        scene = synth.gen_scene(cfg, seed=cfg.seed + i)
        path = out / f"scene_{cfg.seed + i:06d}.pvscn"
        synth.save_scene(scene, path)
        print(f"wrote {path} ({scene.num_points} points, "
              f"{len(scene.gt_boxes)} boxes)")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    model = pipeline.build_model(cfg, cfg.seed)
    _apply_param_files(model, args.params)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    out = Path(args.out)
    for path, scene in _load_scenes(args.scenes, cfg):
        t0 = time.perf_counter()
        with _processing(path):
            result = pipeline.run_scene(scene, model, cfg, anchors, seed=cfg.seed)
        wall = time.perf_counter() - t0
        out.mkdir(parents=True, exist_ok=True)  # here, so a failed run leaves no directory
        evalkit.save_detections(result.detections, out / (path.stem + ".txt"))
        print(f"{path.name}: {len(result.proposals)} proposals -> "
              f"{len(result.detections)} detections in {wall:.3f}s")
    return 0


def cmd_train_heads(args) -> int:
    cfg = _load_config(args)
    model = pipeline.build_model(cfg, cfg.seed)
    _apply_param_files(model, args.params)
    scenes = [s for _, s in _load_scenes(args.scenes, cfg)]
    out = Path(args.out)

    if args.which == "pkw":
        with _processing(args.scenes):
            batch = pipeline.build_pkw_batch(cfg, model, scenes, seed=cfg.seed)
            if batch.features.shape[0] == 0:
                print("no keypoints; nothing to train", file=sys.stderr)
                return 2
            trained, losses, acc = pipeline.train_pkw(model.pkw, batch,
                                                      args.iters, args.lr)
        out.parent.mkdir(parents=True, exist_ok=True)  # here, so a failed run leaves none
        with open(out, "wb") as fh:
            nn.save_params(trained, fh, name="pkw")
        print(f"pkw: {args.iters} iters, loss {losses[0]:.4f} -> "
              f"{losses[-1]:.4f}, foreground accuracy {acc:.3f}")
    else:
        anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
        with _processing(args.scenes):
            batch = pipeline.build_refine_batch(cfg, model, scenes, anchors,
                                                seed=cfg.seed)
            if batch.features.shape[0] == 0:
                print("no sampled RoIs; nothing to train", file=sys.stderr)
                return 2
            trained, losses = pipeline.train_refine(model.refine, batch,
                                                    args.iters, args.lr)
            raw, refined = pipeline.matched_iou_stats(trained, batch)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "wb") as fh:
            nn.save_params(trained.shared, fh, name="refine_shared")
            nn.save_params(trained.confidence, fh, name="refine_confidence")
            nn.save_params(trained.regression, fh, name="refine_regression")
        print(f"refine: {args.iters} iters, loss {losses[0]:.4f} -> "
              f"{losses[-1]:.4f}, matched IoU raw {raw:.3f} -> "
              f"refined {refined:.3f}")
    loss_path = out.with_suffix(out.suffix + ".loss.csv")
    with open(loss_path, "w", encoding="ascii") as fh:
        fh.write("iter,loss\n")
        for i, v in enumerate(losses):
            fh.write(f"{i},{v!r}\n")
    print(f"wrote {out} and {loss_path}")
    return 0


def cmd_eval(args) -> int:
    det_dir = Path(args.detections)
    rows = []
    per_scene = []
    for path, scene in _load_scenes(args.scenes):
        det_path = det_dir / (path.stem + ".txt")
        if not det_path.is_file():
            raise DetectionFileError(f"missing detections for {path.name}: "
                                     f"{det_path}")
        per_scene.append((scene, evalkit.load_detections(det_path)))

    class_ids = sorted({c for scene, _ in per_scene for c in scene.gt_classes}
                       | {d.class_id for _, dets in per_scene for d in dets})
    for cls in class_ids or [0]:
        for bucket in ("ALL", "L1", "L2"):
            flags_all, scores_all, gt_total = [], [], 0
            for scene, dets in per_scene:
                gts = scene.gt_boxes[np.equal(scene.gt_classes, cls)]
                if bucket != "ALL":
                    levels = evalkit.difficulty_buckets(
                        gts, scene.points_f64()[:, :3])
                    gts = gts[[lv == bucket for lv in levels]]
                cdets = [d for d in dets if d.class_id == cls]
                flags = evalkit.match_detections(cdets, gts, args.iou_thresh,
                                                 iou_kind=args.iou_kind)
                flags_all.append(flags)
                scores_all.extend(d.score for d in cdets)
                gt_total += len(gts)
            flags_cat = (np.concatenate(flags_all) if flags_all
                         else np.empty(0, bool))
            ap = evalkit.average_precision(flags_cat, np.array(scores_all),
                                           gt_total, mode=args.mode)
            rows.append({"class": cls, "bucket": bucket, "mode": args.mode,
                         "iou": args.iou_thresh, "gt": gt_total,
                         "dets": len(scores_all), "ap": ap})
    print(evalkit.format_report(rows), end="")
    if args.out:
        Path(args.out).write_text(evalkit.report_csv(rows), encoding="ascii")
        print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    model = pipeline.build_model(cfg, cfg.seed)
    anchors = rpn.generate_anchors(cfg.classes, pipeline.bev_grid(cfg))
    rows = []
    for path, scene in _load_scenes(args.scenes, cfg):
        with _processing(path):
            result = pipeline.run_scene(scene, model, cfg, anchors, seed=cfg.seed)
            if result.keypoints is None:
                print(f"{path.name}: empty scene, skipped")
                continue
            for strat in args.strategies:
                rep = pipeline.bench_pooling(model, result.keypoints,
                                             result.proposals.rows, strat,
                                             seed=cfg.seed)
                rows.append({
                    "scene": path.stem, "strategy": rep.strategy, "rois": rep.rois,
                    "nonzero_fraction": rep.nonzero_fraction,
                    "feature_width": rep.feature_width,
                })
                print(f"{path.name} {rep.strategy}: nonzero "
                      f"{rep.nonzero_fraction:.4f}")
    print(evalkit.format_report(rows), end="")
    if args.out:
        Path(args.out).write_text(evalkit.report_csv(rows), encoding="ascii")
        print(f"wrote {args.out}")
    return 0


def cmd_check(args) -> int:
    results = checks.run_checks(inject_fault=args.inject_fault)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} invariant checks passed")
    return 0 if failed == 0 else 1


def _strategy_list(text: str) -> list[str]:
    if not set(text.split(",")) <= {"roi_grid", "average_pool"}:
        raise argparse.ArgumentTypeError(f"unknown pooling strategy in {text!r}")
    return text.split(",")


def _number(cast, ok, rule: str):
    """An argparse type: a finite int or float for which ok(value) holds."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
        if not (ok(value) and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    return parse


def _int_from(lo: int):
    """An int in [lo, 2**63), the range of a seed."""
    return _number(int, lambda v: lo <= v < config.SEED_LIMIT, f"in [{lo}, 2**63)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvlite",
        description="Deterministic point-voxel 3D detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenes=True):
        p.add_argument("--config", help="key=value config file (default: "
                                        "built-in KITTI-scale profile)")
        p.add_argument("--seed", type=_int_from(0), help="master seed override")
        if scenes:
            p.add_argument("--scenes", required=True,
                           help="scene file or directory of .pvscn files")

    p = sub.add_parser("synth", help="generate synthetic scenes")
    add_common(p, scenes=False)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=_int_from(1), default=1)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("run", help="run the full pipeline on scenes")
    add_common(p)
    p.add_argument("--out", required=True, help="detection output directory")
    p.add_argument("--params", action="append",
                   help="trained head parameter file (repeatable)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("train-heads", help="SGD on one trainable head")
    add_common(p)
    p.add_argument("--which", choices=("pkw", "refine"), required=True)
    p.add_argument("--iters", type=_int_from(1), default=500)
    p.add_argument("--lr", type=_number(float, lambda v: v > 0.0, "finite and > 0"),
                   default=0.01)
    p.add_argument("--out", required=True, help="parameter output file")
    p.add_argument("--params", action="append",
                   help="pre-trained params to start from (repeatable)")
    p.set_defaults(fn=cmd_train_heads)

    p = sub.add_parser("eval", help="average precision report")
    p.add_argument("--scenes", required=True)
    p.add_argument("--detections", required=True,
                   help="directory of per-scene detection files")
    p.add_argument("--iou-thresh", default=0.7,
                   type=_number(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))
    p.add_argument("--iou-kind", choices=("bev", "3d"), default="bev")
    p.add_argument("--mode", choices=("R11", "R40"), default="R40")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="compare RoI pooling strategies")
    add_common(p)
    p.add_argument("--strategies", type=_strategy_list,
                   default="roi_grid,average_pool")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("check", help="run the invariant self-test suite")
    p.add_argument("--inject-fault", choices=checks.FAULTS,
                   help="perturb a kernel to exercise failure reporting")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (synth.PlacementError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
