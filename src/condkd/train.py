"""Training harness: teacher pretraining, conditional distillation, and the
ablation sweeps, all fully deterministic from the experiment config.

Every run draws its scenes from a per-seed stream (seed, 1, i) and evaluates
on a held-out stream (seed, 2, i), so runs that share a seed consume
bit-identical data regardless of variant, and no training scene ever leaks
into evaluation. Teacher and student train through one loop (`_train`); its
forked processes each compute one contiguous block of every batch
(`SceneSteps`), and distillation's condition stream catches up on the
other blocks' draws, bit-identically.
"""

from __future__ import annotations

import mmap
import os
import traceback
from dataclasses import dataclass, replace

import numpy as np

from . import BLAS_ONE_THREAD
from . import tensor as T
from .checkpoint import CheckpointError, group_state, load_group, save_checkpoint
from .config import ATTENTION_VARIANTS, ExperimentConfig
from .decoder import ConditionalDecoder, Knowledge
from .evaluate import evaluate_toy_ap
from .instances import (build_conditions, compute_stats, condition_width, encode_set, make_query,
                        skip_conditions)
from .losses import AuxHeads, aux_loss, distill_loss, total_loss
from .nn import Mlp3, MomentumSGD
from .pyramid import (STRIDES, FlatPyramid, ToyDetector, det_loss, flatten_pyramid,
                      inherit_parameters)
from .scenes import Scene, SceneStream, generate_scene, instance_count, scene_instances
from .tensor import ParamGroup, Tensor

METRICS_HEADER = "run,iter,loss_det,loss_aux_idf,loss_aux_reg,loss_distill,toy_ap"
LOSS_COLUMNS = ("loss_det", "loss_aux_idf", "loss_aux_reg", "loss_distill")
LOG_EVERY = 100


def _fmt(x) -> str:
    """Shortest round-trip decimal; keeps the CSV bit-deterministic."""
    return repr(float(x)) if x is not None else ""


class DuplicateRunError(ValueError):
    """The out-dir's metrics.csv already holds rows for the run's name."""


class MetricsWriter:
    """Append-only CSV with the pinned header, shared by the runs of one
    directory, and only by them; each writer appends the rows of one run,
    whose name must be new to the file."""

    def __init__(self, out_dir: str, run: str):
        os.makedirs(out_dir, exist_ok=True)
        self.path, self.run = os.path.join(out_dir, "metrics.csv"), run
        if not os.path.exists(self.path):
            with open(self.path, "w") as f:
                f.write(METRICS_HEADER + "\n")
            return
        with open(self.path) as f:
            head, *rows = f.read().splitlines() or [""]
        if head != METRICS_HEADER:
            raise ValueError(f"{self.path}: line 1 is {head!r}, not the metrics header")
        if any(line.split(",", 1)[0] == run for line in rows):
            raise DuplicateRunError(f"{self.path} already has rows for run {run!r}: "
                                    "pick another --run-name or --out-dir")

    def row(self, it: int, det, idf, reg, dis, ap=None) -> None:
        cells = [self.run, str(it), _fmt(det), _fmt(idf), _fmt(reg), _fmt(dis), _fmt(ap)]
        with open(self.path, "a") as f:
            f.write(",".join(cells) + "\n")


@dataclass
class RunResult:
    name: str
    toy_ap: float
    final: dict  # last-iteration mean loss components
    checkpoint: str | None


def train_scene(cfg: ExperimentConfig, i: int) -> Scene:
    return generate_scene(cfg, (cfg.seed, 1, i))


def heldout_scenes(cfg: ExperimentConfig) -> SceneStream:
    return SceneStream(cfg, (cfg.seed, 2), cfg.eval_scenes)


# -- scene-parallel steps ------------------------------------------------------


class SceneWorkerError(RuntimeError):
    """A scene worker raised; the message carries the worker's traceback."""


def _process_count(batch_size: int) -> int:
    """Processes a training step splits its scenes across: one per usable
    CPU, at most one per scene; just one when BLAS may run several threads
    (`condkd.BLAS_ONE_THREAD` is false), which would oversubscribe the cores."""
    if not BLAS_ONE_THREAD:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, batch_size))


class SceneSteps:
    """The training step of one loop, its B scenes split across P processes
    in contiguous blocks: the process of rank r computes the scenes
    floor(rB/P) <= j < floor((r+1)B/P). The calling process is rank 0, so
    its block comes first and is the smallest. Each process calls
    ``scene(it, j)`` for its block's scenes only, in increasing (it, j)
    order; the callback returns the scene's unscaled objective and its
    LOSS_COLUMNS values.

    Each scene's objective times 1/B is backpropagated alone into the
    groups' zeroed ``grad`` buffers, private to the process. The caller sums
    its own block's gradients into one private array as it goes; a worker
    copies each of its scenes' gradients to that scene's slot of one shared
    mapping, which thus holds B - floor(B/P) slots, none at one process.
    ``step`` then adds the slots to the caller's sum, and the loss rows
    (then times 1/B), left to right in scene order, so the means depend
    neither on the process count nor on who computed which scene.
    The groups' ``data`` live in the same mapping while the loop runs (an
    in-place optimizer step reaches every process before its next
    iteration); leaving the ``with`` block moves them back to private
    memory, room trimmed, and drops every view of the mapping.

    The workers are forked (POSIX only) at the first ``step``, so a loop of
    zero iterations forks nothing. A worker leaves only through
    ``os._exit``: on EOF of its pipe, or after it has sent the traceback of
    an exception, which the caller's ``step`` raises as a
    ``SceneWorkerError``. Leaving the ``with`` block closes the pipes and
    reaps every worker.
    """

    def __init__(self, groups: list[ParamGroup], batch_size: int, scene):
        self.groups, self.batch, self.scene = groups, batch_size, scene
        self.workers: list[tuple[int, int, int]] = []  # pid, "go" write end, "done" read end
        self.slots = None  # [B - own x total parameter size] shared slots, once started

    def __enter__(self) -> "SceneSteps":
        return self

    def __exit__(self, *exc) -> None:
        workers, self.workers = self.workers, []
        for _, go, done in workers:
            os.close(go)
            os.close(done)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)
        if self.slots is not None:
            for g in self.groups:
                g.trim()
            self.slots = self.losses = self.acc = None

    def _start(self) -> None:
        b, bounds = self.batch, np.cumsum([0] + [g.data.size for g in self.groups])
        self.spans = [(g, int(lo), int(hi)) for g, lo, hi in zip(self.groups, bounds, bounds[1:])]
        procs = _process_count(b)
        self.own = b // procs
        self.block = range(self.own)  # the caller's; a worker's is set at its fork
        n, w, k = int(bounds[-1]), len(LOSS_COLUMNS), b - self.own
        shared = np.frombuffer(mmap.mmap(-1, 8 * ((1 + k) * n + b * w)), np.float64)
        for g, lo, hi in self.spans:
            g.bind(shared[lo:hi])
        self.slots = shared[n:(1 + k) * n].reshape(k, n)  # scene j's is slot j - own
        self.losses = shared[(1 + k) * n:].reshape(b, w)
        self.acc = np.empty(n)  # the caller's block sum, private
        for rank in range(1, procs):
            go_r, go_w = os.pipe()
            done_r, done_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (go_r, go_w, done_r, done_w):
                    os.close(fd)
                raise
            if pid == 0:
                self.block = range(rank * b // procs, (rank + 1) * b // procs)
                self._serve(go_r, done_w, (go_w, done_r))
            os.close(go_r)
            os.close(done_w)
            self.workers.append((pid, go_w, done_r))

    def _serve(self, go: int, done: int, parent_ends) -> None:
        """A worker's life: one walk over its scenes per iteration number
        read from `go`, until EOF. Never returns."""
        try:
            for fd in parent_ends + tuple(fd for _, w, r in self.workers for fd in (w, r)):
                os.close(fd)
            while msg := os.read(go, 8):
                self._run(int.from_bytes(msg, "little"))
                os.write(done, b"\0")
        except BaseException:  # interrupts too: a worker never unwinds into the caller
            try:
                os.write(done, traceback.format_exc().encode())
            except OSError:  # the caller has closed its end
                pass
        finally:
            os._exit(0)

    def _run(self, it: int) -> None:
        for j in self.block:
            self._compute(it, j)

    def _compute(self, it: int, j: int) -> None:
        """Scene j; its graph is freed on return, before the next is built."""
        root, values = self.scene(it, j)
        for g in self.groups:
            g.zero_grad()
        T.backward(root * (1.0 / self.batch))
        out = self.acc if j < self.own else self.slots[j - self.own]
        for g, lo, hi in self.spans:
            if 0 < j < self.own:  # the caller's later scenes add to its first
                out[lo:hi] += g.grad
            else:
                out[lo:hi] = g.grad
        self.losses[j] = values

    def step(self, it: int) -> list[float]:
        """Iteration `it` on every process: leaves the batch mean of the
        scenes' gradients in each group's `grad` and returns the batch means
        of their loss values, in LOSS_COLUMNS order."""
        if self.slots is None:
            self._start()
        for _, go, _ in self.workers:
            os.write(go, it.to_bytes(8, "little"))
        self._run(it)
        for pid, _, done in self.workers:
            reply = os.read(done, 1 << 16)
            if reply == b"\0":
                continue
            while more := os.read(done, 1 << 16):
                reply += more
            raise SceneWorkerError(
                f"scene worker {pid} failed at iteration {it}:\n{reply.decode()}" if reply
                else f"scene worker {pid} exited during iteration {it}")
        for slot in self.slots:
            self.acc += slot
        for g, lo, hi in self.spans:
            g.grad[...] = self.acc[lo:hi]
        means = self.losses[0].copy()
        for row in self.losses[1:]:
            means += row
        return (means * (1.0 / self.batch)).tolist()


# -- teacher -----------------------------------------------------------------

_META_FIELDS = ("image_size", "num_classes", "feat_dim", "pos_dim")


def _teacher_meta(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    meta = {f"__cfg__.{k}": np.array(float(getattr(cfg, k))) for k in _META_FIELDS}
    meta["__cfg__.strides"] = np.array(STRIDES, dtype=float)
    meta["__cfg__.teacher_widths"] = np.array(cfg.teacher_widths, dtype=float)
    return meta


def check_teacher_state(cfg: ExperimentConfig, state: dict[str, np.ndarray]) -> None:
    """Reject a checkpoint whose recorded geometry disagrees with cfg."""
    want = _teacher_meta(cfg)
    for key, val in want.items():
        if key not in state:
            raise CheckpointError(f"teacher checkpoint lacks {key}")
        if state[key].shape != val.shape or np.any(state[key] != val):
            raise CheckpointError(
                f"teacher checkpoint mismatch on {key.removeprefix('__cfg__.')}: "
                f"checkpoint {state[key].tolist()} vs config {val.tolist()}")


def strip_meta(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v for k, v in state.items() if not k.startswith("__cfg__.")}


def _train(cfg: ExperimentConfig, metrics: MetricsWriter, model: ToyDetector,
           opts: list[MomentumSGD], iters: int, scene, label: str) -> tuple[dict, float]:
    """The loop both trainers run: `iters` steps of the optimizers on the
    batch mean of the objective `scene` returns (see SceneSteps), each after
    a check that the four mean loss values are finite; a row every LOG_EVERY
    iterations, one with the held-out AP of `model` every `cfg.eval_every`,
    and a final one. Returns the last means and that AP."""
    final = dict.fromkeys(LOSS_COLUMNS, 0.0)

    def log(it: int, ap=None) -> None:
        metrics.row(it, *final.values(), ap)

    with SceneSteps([o.group for o in opts], cfg.batch_size, scene) as steps:
        for it in range(iters):
            final = dict(zip(LOSS_COLUMNS, steps.step(it)))
            for column, value in final.items():
                if not np.isfinite(value):
                    raise RuntimeError(f"{label} diverged: {column} {value} at iteration {it}, "
                                       f"seed {cfg.seed}")
            for opt in opts:
                opt.step()
            if it % LOG_EVERY == 0:
                log(it)
            if cfg.eval_every and it and it % cfg.eval_every == 0:
                log(it, evaluate_toy_ap(model, heldout_scenes(cfg)))
    ap = evaluate_toy_ap(model, heldout_scenes(cfg))
    log(iters, ap)
    return final, ap


def train_teacher(cfg: ExperimentConfig, out_dir: str, run_name: str = "teacher") -> RunResult:
    """Detection-only pretraining; saves `<out_dir>/teacher.ckpt` with the
    geometry fields embedded so distillation can validate compatibility."""
    metrics = MetricsWriter(out_dir, run_name)
    group = ParamGroup("teacher")
    teacher = ToyDetector(cfg, cfg.teacher_widths, group, np.random.default_rng((cfg.seed, 10)))
    opt = MomentumSGD(group, cfg.lr_teacher, cfg.momentum, cfg.weight_decay)

    def scene(it: int, j: int):
        s = train_scene(cfg, it * cfg.batch_size + j)
        det = det_loss(teacher.det_head_forward(teacher.backbone_forward(s.image)),
                       s.instances, cfg)
        return det, (det.item(), 0.0, 0.0, 0.0)

    final, ap = _train(cfg, metrics, teacher, [opt], cfg.teacher_iters, scene,
                       "teacher training")
    path = os.path.join(out_dir, "teacher.ckpt")
    save_checkpoint(path, group_state(group) | _teacher_meta(cfg))
    return RunResult(run_name, ap, final, path)


# -- distillation ------------------------------------------------------------


TRAINED_GROUPS = ("student", "decoder", "aux")


@dataclass
class System:
    """Everything one distillation run needs, grouped for routing audits."""

    groups: dict[str, ParamGroup]
    teacher: ToyDetector
    student: ToyDetector
    decoder: ConditionalDecoder
    aux: AuxHeads
    f_q: Mlp3


def build_system(cfg: ExperimentConfig) -> System:
    """Fresh weights for every group; the teacher group is frozen."""
    groups = {name: ParamGroup(name) for name in ("teacher", "student", "decoder", "aux")}
    groups["teacher"].freeze()  # before its tensors exist: no gradient storage at all
    teacher = ToyDetector(cfg, cfg.teacher_widths, groups["teacher"],
                          np.random.default_rng((cfg.seed, 11)))
    student = ToyDetector(cfg, cfg.student_widths, groups["student"],
                          np.random.default_rng((cfg.seed, 12)))
    decoder = ConditionalDecoder(cfg.feat_dim, cfg.heads, cfg.pos_dim + 2,
                                 groups["decoder"], np.random.default_rng((cfg.seed, 13)),
                                 cfg.depth)
    f_q = Mlp3(condition_width(cfg), cfg.feat_dim, cfg.feat_dim, groups["decoder"],
               np.random.default_rng((cfg.seed, 14)), "f_q")
    aux = AuxHeads(cfg.feat_dim, groups["aux"], np.random.default_rng((cfg.seed, 15)))
    for g in groups.values():
        g.trim()
    return System(groups, teacher, student, decoder, aux, f_q)


def load_system(cfg: ExperimentConfig, teacher_state: dict,
                student_state: dict | None = None) -> System:
    """build_system with the checked teacher checkpoint loaded, and, given a
    state that system_state produced, the trained groups too."""
    check_teacher_state(cfg, teacher_state)
    sys = build_system(cfg)
    load_group(sys.groups["teacher"], strip_meta(teacher_state))
    if student_state is not None:
        for name in TRAINED_GROUPS:
            prefix = f"{name}."
            load_group(sys.groups[name], {k.removeprefix(prefix): v for k, v in
                                          student_state.items() if k.startswith(prefix)})
    return sys


def system_state(sys: System) -> dict[str, np.ndarray]:
    """The trained groups' weights, each name prefixed with its group's."""
    return {f"{name}.{k}": v for name in TRAINED_GROUPS
            for k, v in group_state(sys.groups[name]).items()}


def baseline_mask_row(variant: str, flat: FlatPyramid, instances) -> np.ndarray:
    """One shared [L] weight row for the attention-free distillation variants.

    All rows sum to 1 so every variant feeds the identical loss formula. When
    a geometric variant selects no cell at all (every box slips between cell
    centers), it degrades to uniform.
    """
    n = flat.num_rows
    if variant == "none":
        return np.full(n, 1.0 / n)
    if variant == "activation":
        a = np.abs(flat.A.data).mean(axis=-1)
        e = np.exp(a - a.max())
        return e / e.sum()
    if variant not in ("foreground", "fine_grained"):
        raise ValueError(f"unknown attention variant {variant!r}")
    # [L x 1] cell columns against [N] box corners give [L x N] cell-box pairs
    cx, cy = flat.layout.centers[:, :1], flat.layout.centers[:, 1:]
    boxes = np.array([inst.corners() for inst in instances if inst.is_real]).reshape(-1, 4)
    x1, y1, x2, y2 = boxes.T
    if variant == "foreground":
        row = ((x1 < cx) & (cx < x2) & (y1 < cy) & (cy < y2)).any(axis=1).astype(float)
    else:
        # membership of a cell in a box = fraction of the cell's s x s square
        # the box covers; per-cell max over instances keeps small boxes visible
        s = flat.layout.sides[:, None]
        gx1, gy1 = cx - s / 2, cy - s / 2
        ox = np.maximum(0.0, np.minimum(x2, gx1 + s) - np.maximum(x1, gx1))
        oy = np.maximum(0.0, np.minimum(y2, gy1 + s) - np.maximum(y1, gy1))
        row = ((ox * oy) / (s * s)).max(axis=1, initial=0.0)
    return row / row.sum() if row.sum() > 0 else np.full(n, 1.0 / n)


def substitute_masks(k: Knowledge, variant: str, flat: FlatPyramid, instances,
                     n_rows: int) -> Knowledge:
    if variant == "icd":
        return k
    row = baseline_mask_row(variant, flat, instances)
    fixed = T.constant(np.broadcast_to(row, (k.num_heads, n_rows, row.size)))
    return Knowledge(masks=fixed, values=k.values)


def decode_conditions(cfg: ExperimentConfig, sys: System, image: Tensor, conds,
                      rng: np.random.Generator):
    """Each condition as a query against the teacher's pyramid of `image`;
    returns the encoded conditions, that flat pyramid and the decoder output."""
    cset = encode_set(conds, cfg, rng)
    queries = make_query(cset.vectors, sys.f_q)
    t_flat = flatten_pyramid(sys.teacher.backbone_forward(image), cfg.image_size, cfg.pos_dim)
    g, knowledge = sys.decoder.decode(t_flat, queries)
    return cset, t_flat, g, knowledge


def scene_losses(cfg: ExperimentConfig, sys: System, scene: Scene, stats,
                 cond_rng: np.random.Generator, distill_active: bool,
                 distill_detach: bool = True):
    """Forward one scene through teacher, decoder, and student; returns the
    four loss components (distill is a constant 0 when inactive).

    distill_detach=False removes the stop-gradients; only the verification
    tools use it, to expose the full graph to finite differences and to the
    routing mutation check."""
    conds = build_conditions(scene.instances, stats, cfg.fake_ratio, cond_rng)
    cset, t_flat, g, knowledge = decode_conditions(cfg, sys, scene.image, conds, cond_rng)
    idf, loc = aux_loss(g, cset, sys.aux, use_idf=cfg.use_idf, use_loc=cfg.use_loc)
    s_levels = sys.student.backbone_forward(scene.image)
    det = det_loss(sys.student.det_head_forward(s_levels), scene.instances, cfg)
    if distill_active:
        s_flat = flatten_pyramid(s_levels, cfg.image_size, cfg.pos_dim)
        s_values = sys.decoder.student_values(s_flat, detach_weights=distill_detach)
        k_used = substitute_masks(knowledge, cfg.attention_variant, t_flat,
                                  scene.instances, len(conds))
        dis = distill_loss(k_used, s_values, cset.flags, detach_inputs=distill_detach)
    else:
        dis = T.constant(0.0)
    return det, idf, loc, dis


def dataset_stats(cfg: ExperimentConfig):
    """Instance statistics of the first stats_scenes training scenes."""
    reals = [scene_instances(cfg, (cfg.seed, 1, i)) for i in range(cfg.stats_scenes)]
    return compute_stats(reals, cfg.num_classes, cfg.image_size, cfg.image_size)


def distill_student(cfg: ExperimentConfig, teacher_state: dict, out_dir: str,
                    run_name: str = "distill") -> RunResult:
    """The joint loop: every iteration trains the decoder/aux heads with the
    auxiliary losses and the student with detection (+ distillation after
    warm-up, when lam is nonzero)."""
    metrics = MetricsWriter(out_dir, run_name)
    sys = load_system(cfg, teacher_state)
    if cfg.inherit:
        inherit_parameters(sys.student, sys.teacher)
    opts = [MomentumSGD(sys.groups[name], lr, cfg.momentum, cfg.weight_decay) for name, lr in
            zip(TRAINED_GROUPS, (cfg.lr_student, cfg.lr_decoder, cfg.lr_decoder))]
    stats = dataset_stats(cfg)
    cond_rng = np.random.default_rng((cfg.seed, 20))
    b, passed = cfg.batch_size, 0

    def scene(it: int, j: int):
        nonlocal passed  # the first scene cond_rng has not passed
        i = it * b + j
        for k in range(passed, i):  # other ranks' scenes: only their cond_rng draws
            skip_conditions(instance_count(np.random.default_rng((cfg.seed, 1, k))), stats, cfg,
                            cond_rng)
        passed = i + 1
        active = cfg.lam != 0.0 and it >= cfg.warmup_iters
        parts = scene_losses(cfg, sys, train_scene(cfg, i), stats, cond_rng, active)
        return total_loss(*parts, cfg.lam).total, tuple(p.item() for p in parts)

    final, ap = _train(cfg, metrics, sys.student, opts, cfg.student_iters, scene,
                       "distillation")
    path = os.path.join(out_dir, f"{run_name}.ckpt")
    save_checkpoint(path, system_state(sys))
    return RunResult(run_name, ap, final, path)


# -- ablations ---------------------------------------------------------------

# `condkd ablate` choice -> (run-name prefix, (label, config overrides) per variant)
ABLATIONS = {
    "attention": ("attn", tuple((v, {"attention_variant": v}) for v in ATTENTION_VARIANTS)),
    "heads": ("heads", tuple((str(m), {"heads": m}) for m in (1, 4, 8))),
    "aux": ("aux", (
        ("idf", dict(use_idf=True, use_loc=False, use_scale=False)),
        ("loc", dict(use_idf=False, use_loc=True, use_scale=False)),
        ("loc_scale", dict(use_idf=False, use_loc=True, use_scale=True)),
        ("full", dict(use_idf=True, use_loc=True, use_scale=True)),
    )),
    "lambda": ("lambda", tuple((_fmt(lam), {"lam": lam}) for lam in (0.0, 2.0, 6.0, 12.0))),
    "cascade": ("cascade", tuple((str(d), {"depth": d}) for d in (1, 2, 4))),
}


def sweep(cfg: ExperimentConfig, teacher_state: dict, out_dir: str, prefix: str,
          variants, seeds) -> list[RunResult]:
    """One distillation per (variant, seed), variant-major, named
    `{prefix}-{label}-s{seed}`; runs that share a seed share their data."""
    return [distill_student(replace(cfg, seed=seed, **overrides), teacher_state, out_dir,
                            run_name=f"{prefix}-{label}-s{seed}")
            for label, overrides in variants for seed in seeds]


def ablate_attention(cfg: ExperimentConfig, teacher_state: dict, out_dir: str,
                     seeds=(0, 1, 2, 3, 4)) -> list[RunResult]:
    return sweep(cfg, teacher_state, out_dir, *ABLATIONS["attention"], seeds)
