"""Command-line interface.

Subcommands: gen-data, train-teacher, distill, ablate (attention | heads |
aux | lambda | cascade), export-attn, gradcheck, routing-check. The first
five accept --config (plain `key = value` file), --seed, --out-dir; the two
checks build their own mini systems and take only --seed (default 0).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import ExperimentConfig, load_config
from .heatmap import export_attention, write_ppm
from .instances import compute_stats
from .train import (ABLATIONS, decode_conditions, distill_student, heldout_scenes, load_system,
                    sweep, train_scene, train_teacher)
from . import verify


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="plain-text key = value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", default="runs", help="artifact directory (default: runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condkd",
                                     description="instance-conditional distillation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="materialize the training scenes, stats, and previews")
    _add_common(p)
    p.add_argument("--count", type=int, default=64, help="number of scenes (default 64)")

    p = sub.add_parser("train-teacher", help="detection-only teacher pretraining")
    _add_common(p)

    p = sub.add_parser("distill", help="train a student against a teacher checkpoint")
    _add_common(p)
    p.add_argument("--teacher", help="teacher checkpoint (default <out-dir>/teacher.ckpt)")
    p.add_argument("--run-name", default="distill")

    p = sub.add_parser("ablate", help="run an ablation sweep")
    p.add_argument("which", choices=tuple(ABLATIONS))
    _add_common(p)
    p.add_argument("--teacher", help="teacher checkpoint (default <out-dir>/teacher.ckpt)")
    p.add_argument("--seeds", default="0", help="comma-separated run seeds (default: 0)")

    p = sub.add_parser("export-attn", help="write attention heatmaps for one instance")
    _add_common(p)
    p.add_argument("--teacher", help="teacher checkpoint (default <out-dir>/teacher.ckpt)")
    p.add_argument("--student", required=True, help="distilled checkpoint with decoder weights")
    p.add_argument("--scene", type=int, default=0, help="held-out scene index")
    p.add_argument("--instance", type=int, default=0)
    p.add_argument("--head", type=int, default=0)

    for name, text in (("gradcheck", "finite-difference checks: ops + composed loss"),
                       ("routing-check", "gradient routing audit")):
        sub.add_parser(name, help=text).add_argument(
            "--seed", type=int, default=0, help="mini-system seed (default 0)")

    return parser


def _config(args) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def _load_teacher_state(args):
    path = args.teacher or os.path.join(args.out_dir, "teacher.ckpt")
    if not os.path.exists(path):
        raise CheckpointError(f"teacher checkpoint not found: {path} (run train-teacher first)")
    return load_checkpoint(path)


def _seeds(raw: str) -> tuple[int, ...]:
    """`--seeds` as distinct ints; an empty list or a repeated seed would
    train nothing or die on the run name it already wrote."""
    try:
        seeds = tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise ValueError(f"--seeds {raw!r}: expected comma-separated integers") from None
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"--seeds {raw!r}: need at least one seed and no seed twice")
    return seeds


def cmd_gen_data(args) -> int:
    cfg = _config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    scenes = [train_scene(cfg, i) for i in range(args.count)]
    s = cfg.image_size
    with open(os.path.join(args.out_dir, "scenes.csv"), "w") as f:
        f.write("scene,category,x1,y1,x2,y2\n")
        for i, scene in enumerate(scenes):
            for inst in scene.instances:
                x1, y1, x2, y2 = (int(round(c * s)) for c in inst.corners())
                f.write(f"{i},{inst.category},{x1},{y1},{x2},{y2}\n")
    stats = compute_stats([sc.instances for sc in scenes], cfg.num_classes, s, s)
    with open(os.path.join(args.out_dir, "stats.txt"), "w") as f:
        f.write(f"scenes: {len(scenes)}\ninstances: {stats.total}\n")
        for c in range(cfg.num_classes):
            f.write(f"class {c}: count={int(stats.class_freq[c])} "
                    f"freq={stats.class_freq[c] / stats.total:.4f} "
                    f"w={stats.mean_w[c]:.2f}+-{stats.std_w[c]:.2f}px "
                    f"h={stats.mean_h[c]:.2f}+-{stats.std_h[c]:.2f}px\n")
    for i, scene in enumerate(scenes[:4]):
        rgb = np.round(np.clip(scene.image.data, 0.0, 1.0) * 255.0).astype(np.uint8)
        write_ppm(os.path.join(args.out_dir, f"scene{i}.ppm"), rgb)
    print(f"wrote {len(scenes)} scenes to {args.out_dir} ({stats.total} instances)")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _config(args)
    result = train_teacher(cfg, args.out_dir)
    print(f"teacher toy-AP@0.5 = {result.toy_ap:.4f} -> {result.checkpoint}")
    return 0


def cmd_distill(args) -> int:
    cfg = _config(args)
    result = distill_student(cfg, _load_teacher_state(args), args.out_dir, args.run_name)
    print(f"{result.name}: toy-AP@0.5 = {result.toy_ap:.4f} "
          f"(variant={cfg.attention_variant}, lam={cfg.lam}, inherit={cfg.inherit})")
    return 0


def cmd_ablate(args) -> int:
    seeds = _seeds(args.seeds)
    cfg = _config(args)
    results = sweep(cfg, _load_teacher_state(args), args.out_dir, *ABLATIONS[args.which], seeds)
    print(f"{args.which} ablation ({len(results)} runs):")
    for r in results:
        print(f"  {r.name:<24s} toy-AP@0.5 = {r.toy_ap:.4f}")
    return 0


def cmd_export_attn(args) -> int:
    cfg = _config(args)
    sys_ = load_system(cfg, _load_teacher_state(args), load_checkpoint(args.student))
    scenes = heldout_scenes(cfg)
    if not 0 <= args.scene < len(scenes):
        raise ValueError(f"scene index {args.scene} out of range [0, {len(scenes)})")
    scene = scenes[args.scene]
    _, flat, _, k = decode_conditions(cfg, sys_, scene.image, scene.instances,
                                      np.random.default_rng((cfg.seed, 30)))
    os.makedirs(args.out_dir, exist_ok=True)
    prefix = os.path.join(args.out_dir,
                          f"attn_scene{args.scene}_inst{args.instance}_head{args.head}")
    paths = export_attention(k, flat, args.instance, args.head, prefix)
    print("\n".join(paths))
    return 0


def cmd_gradcheck(args) -> int:
    ops = verify.gradcheck_ops(seed=args.seed)
    print(ops)
    composed = verify.gradcheck_composed(seed=args.seed)
    print(composed)
    return 0 if (ops.passed and composed.passed) else 1


def cmd_routing_check(args) -> int:
    report = verify.routing_audit(seed=args.seed)
    print(report)
    return 0 if report.passed else 1


def cli_main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "gen-data": cmd_gen_data,
        "train-teacher": cmd_train_teacher,
        "distill": cmd_distill,
        "ablate": cmd_ablate,
        "export-attn": cmd_export_attn,
        "gradcheck": cmd_gradcheck,
        "routing-check": cmd_routing_check,
    }
    try:
        return handlers[args.command](args)
    except (CheckpointError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
