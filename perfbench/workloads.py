"""The benchmark workloads, driven through condkd's public functions.

Each workload is a closed loop with one caller: the runner calls ``call(k)``
for k = 0, 1, ... until its time is up, and times each call. A call is one
operation (one training run, one sweep, one routing audit or one
finite-difference check). ``check`` then verifies that call's outputs,
outside the timed region.

Training and audit calls k and k' of one run use different seeds derived
from the run seed, so no call repeats another call's work; the only repeated
work is what the workload itself repeats (the same-seed variants of
``sweep``). The rerun invariant is checked once per run by an untimed rerun
of the first call that succeeded.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import replace

import numpy as np

from condkd import checkpoint, tensor, train, verify
from condkd.config import ATTENTION_VARIANTS, ExperimentConfig

# Desk-scale sizes per workload, in training iterations per call. A
# distillation run also pays fixed per-run costs (build_system, dataset_stats,
# held-out eval, checkpoint): about 0.2 s, or 2% of a 64-iteration call.
# Students leave the untrained regime (~138 eval candidates per scene) within
# 10 iterations; see perfbench/README.md for what the eval then costs.
TEACHER_ITERS = 20  # teacher pretraining call
DISTILL_ITERS = 64  # joint distillation call, distillation active from iteration 0
SWEEP_ITERS = 10  # per variant: short runs, so per-run costs weigh as in a sweep
SETUP_EVAL_SCENES = 4  # held-out scenes the setup evaluates its teacher on

LOSS_COLUMNS = ("loss_det", "loss_aux_idf", "loss_aux_reg", "loss_distill")


def call_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_rows(out_dir: str, run: str | None = None) -> list[dict]:
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    return [r for r in rows if run is None or r["run"] == run]


def check_rows(rows: list[dict]) -> list[str]:
    """Every logged loss finite, and the final row carries an AP in [0, 1]."""
    problems = []
    if not rows:
        return ["metrics.csv has no rows"]
    for r in rows:
        for col in LOSS_COLUMNS:
            if not math.isfinite(float(r[col])):
                problems.append(f"{r['run']} iter {r['iter']}: {col} = {r[col]}")
    ap = rows[-1]["toy_ap"]
    if ap == "" or not 0.0 <= float(ap) <= 1.0:
        problems.append(f"{rows[-1]['run']}: final toy_ap {ap!r} outside [0, 1]")
    return problems


def check_checkpoint(path: str, prefixes: tuple[str, ...]) -> list[str]:
    state = checkpoint.load_checkpoint(path)
    problems = []
    for p in prefixes:
        if not any(k.startswith(p) for k in state):
            problems.append(f"{os.path.basename(path)}: no tensors under {p!r}")
    bad = [k for k, v in state.items() if not np.all(np.isfinite(v))]
    if bad:
        problems.append(f"{os.path.basename(path)}: non-finite tensors {bad[:3]}")
    return problems


def compare_runs(a_dir: str, b_dir: str, run: str, ckpt: str) -> list[str]:
    """The rerun invariant: identical metrics.csv rows and checkpoint bytes."""
    problems = []
    if read_rows(a_dir, run) != read_rows(b_dir, run):
        problems.append(f"rerun of {run}: metrics.csv rows differ")
    if sha256(os.path.join(a_dir, ckpt)) != sha256(os.path.join(b_dir, ckpt)):
        problems.append(f"rerun of {run}: {ckpt} sha256 differs")
    return problems


class Workload:
    """Base: ``setup`` builds everything the timed calls need and returns a
    digest of what it built (setup is repeated, and must repeat exactly)."""

    name = ""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.tracer = None  # set by the runner for the traced phase
        self.tag = ""  # the traced phase replays calls into directories of its own

    def path(self, *parts) -> str:
        return os.path.join(self.work_dir, *parts)

    def call_dir(self, k: int) -> str:
        return self.path(f"call{self.tag}-{k}")

    def setup(self, i: int) -> str:
        raise NotImplementedError

    def call(self, k: int):
        """Run operation k; returns (units of work, output handle)."""
        raise NotImplementedError

    def check(self, k: int, out) -> list[str]:
        raise NotImplementedError

    def final_checks(self, k: int | None) -> dict[str, list[str]]:
        """Untimed whole-run checks, each counted as one operation; ``k`` is
        the first call that succeeded, or None."""
        return {}


class _FromTeacher(Workload):
    """Setup shared by distill and sweep: build a teacher, save it through
    ``train_teacher`` and load the checkpoint back. The teacher is not
    trained: distillation costs the same for any teacher weights, and
    desk-scale teacher training diverges on some seeds (see README.md)."""

    def setup(self, i: int) -> str:
        cfg = ExperimentConfig(teacher_iters=0, eval_scenes=SETUP_EVAL_SCENES, seed=self.seed)
        out = self.path(f"setup-{i}")
        res = train.train_teacher(cfg, out)
        self.teacher_state = checkpoint.load_checkpoint(res.checkpoint)
        return sha256(res.checkpoint)


class Teacher(Workload):
    name = "teacher"

    def setup(self, i: int) -> str:
        self.cfg = ExperimentConfig(teacher_iters=TEACHER_ITERS)
        return repr(self.cfg)

    def _run(self, k: int, out: str):
        return train.train_teacher(replace(self.cfg, seed=call_seed(self.seed, k)), out)

    def call(self, k: int):
        out = self.call_dir(k)
        return TEACHER_ITERS, (out, self._run(k, out))

    def check(self, k: int, out) -> list[str]:
        out_dir, res = out
        rows = read_rows(out_dir, res.name)
        problems = check_rows(rows)
        first, last = float(rows[0]["loss_det"]), float(rows[-1]["loss_det"])
        if not last < first:
            problems.append(f"teacher loss did not fall: {first!r} -> {last!r}")
        problems += check_checkpoint(res.checkpoint, ("backbone.", "head."))
        try:
            train.check_teacher_state(self.cfg, checkpoint.load_checkpoint(res.checkpoint))
        except checkpoint.CheckpointError as e:
            problems.append(f"teacher checkpoint rejected: {e}")
        return problems

    def final_checks(self, k: int | None) -> dict[str, list[str]]:
        if k is None:
            return {}
        rerun = self.path(f"rerun-{k}")
        self._run(k, rerun)
        return {"rerun": compare_runs(self.call_dir(k), rerun, "teacher", "teacher.ckpt")}


class Distill(_FromTeacher):
    name = "distill"

    def _cfg(self, k: int) -> ExperimentConfig:
        return ExperimentConfig(student_iters=DISTILL_ITERS, warmup_iters=0,
                                seed=call_seed(self.seed, k))

    def call(self, k: int):
        out = self.call_dir(k)
        return DISTILL_ITERS, (out, train.distill_student(self._cfg(k), self.teacher_state, out))

    def check(self, k: int, out) -> list[str]:
        out_dir, res = out
        problems = check_rows(read_rows(out_dir, res.name))
        if not res.final["loss_distill"] > 0.0:
            problems.append(f"distillation inactive: loss_distill {res.final['loss_distill']!r}")
        return problems + check_checkpoint(res.checkpoint, ("student.", "decoder.", "aux."))

    def final_checks(self, k: int | None) -> dict[str, list[str]]:
        if k is None:
            return {}
        rerun = self.path(f"rerun-{k}")
        train.distill_student(self._cfg(k), self.teacher_state, rerun)
        return {"rerun": compare_runs(self.call_dir(k), rerun, "distill", "distill.ckpt")}


class Sweep(_FromTeacher):
    name = "sweep"

    def _cfg(self, k: int) -> ExperimentConfig:
        return ExperimentConfig(student_iters=SWEEP_ITERS, warmup_iters=0,
                                seed=call_seed(self.seed, k))

    def call(self, k: int):
        out = self.call_dir(k)
        seed = call_seed(self.seed, k)
        res = train.ablate_attention(self._cfg(k), self.teacher_state, out, seeds=(seed,))
        return SWEEP_ITERS * len(ATTENTION_VARIANTS), (out, res)

    def check(self, k: int, out) -> list[str]:
        out_dir, results = out
        seed = call_seed(self.seed, k)
        want = [f"attn-{v}-s{seed}" for v in ATTENTION_VARIANTS]
        if [r.name for r in results] != want:
            return [f"sweep produced runs {[r.name for r in results]}, expected {want}"]
        problems = []
        for r in results:
            problems += check_rows(read_rows(out_dir, r.name))
            problems += check_checkpoint(r.checkpoint, ("student.", "decoder.", "aux."))
        return problems

    def final_checks(self, k: int | None) -> dict[str, list[str]]:
        # a standalone icd run must reproduce the sweep's icd run byte for byte
        if k is None:
            return {}
        rerun = self.path(f"rerun-{k}")
        name = f"attn-icd-s{call_seed(self.seed, k)}"
        train.distill_student(self._cfg(k), self.teacher_state, rerun, run_name=name)
        return {"rerun": compare_runs(self.call_dir(k), rerun, name, f"{name}.ckpt")}


class _Verify(Workload):
    """Shared by the verify workloads: a call passes when its report does."""

    def check(self, k: int, report) -> list[str]:
        return [] if report.passed else [str(report)]


class Gradcheck(_Verify):
    """Finite differences of the composed objective on ``verify.mini_config``,
    one trainable parameter tensor per call, cycling in a fixed order."""

    name = "gradcheck"

    def setup(self, i: int) -> str:
        cfg = verify.mini_config(seed=self.seed)
        system = train.build_system(cfg)
        system.groups["teacher"].freeze()
        stats = train.dataset_stats(cfg)
        self.params = [(f"{g}.{n}", p) for g in ("student", "decoder", "aux")
                       for n, p in system.groups[g].named()]
        self.evals = 0

        def objective():
            # the objective verify.gradcheck_composed checks
            self.evals += 1
            tr = self.tracer
            before = tr.counts.get("nodes_built", 0) if tr else 0
            total = verify._composed_total(cfg, system, stats, detach=False).total
            if tr:
                tr.count("fd.evals")
                tr.count("fd.nodes_built", tr.counts.get("nodes_built", 0) - before)
            return total

        self.objective = objective
        return hashlib.sha256(b"".join(p.data.tobytes() for _, p in self.params)).hexdigest()

    def call(self, k: int):
        name, p = self.params[k % len(self.params)]
        before = self.evals
        report = tensor.finite_diff_check(self.objective, {name: p})
        return self.evals - before, report

    def final_checks(self, k: int | None) -> dict[str, list[str]]:
        audit = verify.routing_audit(self.seed)
        return {"routing_audit": [] if audit.passed else [str(audit)]}


class RoutingAudit(_Verify):
    """``verify.routing_audit``: the nine-cell (loss x group) gradient audit,
    each call on a fresh mini system of its own seed."""

    name = "routing_audit"

    def setup(self, i: int) -> str:
        return repr(verify.mini_config(seed=self.seed))

    def call(self, k: int):
        return 1, verify.routing_audit(call_seed(self.seed, k))


WORKLOADS = {w.name: w for w in (Distill, Teacher, Sweep, Gradcheck, RoutingAudit)}
