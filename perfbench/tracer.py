"""Span tracer for the condkd benchmark.

Spans are recorded from outside the program: ``install`` swaps the names the
callers look up (module attributes and class methods) for timing wrappers and
``uninstall`` puts the originals back. ``condkd.train`` binds most of its
collaborators at import time (``from .losses import aux_loss``), so the
wrapper goes on ``condkd.train.aux_loss``; wrapping ``condkd.losses.aux_loss``
would record nothing.

Layer spans are also kept as (name, parent) records, so their nesting can be
checked. Autodiff op spans are far more numerous, so they are only
aggregated. Every span credits its duration to its parent, which gives each
span a self time.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time

# The op kinds reported per kind; read from ``node.vjp.__qualname__`` in the
# backward graph and from the op function name in the forward pass.
OP_KINDS = ("matmul", "add", "mul", "gather_flat", "gather_rows", "reshape",
            "transpose", "concat", "softmax", "tmean", "relu", "pad_hw")

ROOT = "bench.op"

# Per-layer metrics: (name, unit, better). The prediction each one carries is
# documented in perfbench/README.md.
LAYER_METRICS = [
    ("tensor.graph_nodes_per_it", "count", "lower"),
    ("tensor.backward_s_per_it", "s", "lower"),
    *[(f"tensor.op.{k}.{m}", u, "lower") for k in OP_KINDS
      for m, u in (("count", "count"), ("fwd_s", "s"), ("vjp_s", "s"))],
    ("nn.optimizer_step_s_per_it", "s", "lower"),
    ("scenes.generate_s_per_it", "s", "lower"),
    ("scenes.unique_share", "share", "higher"),
    ("instances.encode_s_per_it", "s", "lower"),
    ("instances.conditions_per_scene", "count", "lower"),
    ("pyramid.teacher_backbone_s_per_it", "s", "lower"),
    ("pyramid.student_backbone_s_per_it", "s", "lower"),
    ("pyramid.det_head_s_per_it", "s", "lower"),
    ("pyramid.det_loss_s_per_it", "s", "lower"),
    ("pyramid.flatten_s_per_it", "s", "lower"),
    ("pyramid.teacher_forward_unique_share", "share", "higher"),
    ("decoder.decode_s_per_it", "s", "lower"),
    ("decoder.student_values_s_per_it", "s", "lower"),
    ("losses.aux_s_per_it", "s", "lower"),
    ("losses.distill_s_per_it", "s", "lower"),
    ("train.run_setup_s", "s", "lower"),
    ("train.mask_row_s_per_it", "s", "lower"),
    ("evaluate.scenes_per_s", "1/s", "higher"),
    ("evaluate.candidates_per_scene", "count", "lower"),
    ("evaluate.nms_s", "s", "lower"),
    ("evaluate.graph_nodes_per_scene", "count", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("verify.graph_nodes_per_fd_eval", "count", "lower"),
    ("trace.attributed_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
]

# The layer spans, by layer; selftest.py checks which of them each workload
# fires.
SPANS_BY_LAYER = {
    "tensor": ("tensor.backward",),
    "nn": ("nn.optimizer_step",),
    "scenes": ("scenes.generate",),
    "instances": ("instances.build_conditions", "instances.encode_set", "instances.make_query"),
    "pyramid": ("pyramid.teacher_backbone", "pyramid.student_backbone", "pyramid.det_head",
                "pyramid.det_loss", "pyramid.flatten"),
    "decoder": ("decoder.decode", "decoder.student_values"),
    "losses": ("losses.aux", "losses.distill"),
    "train": ("train.run", "train.build_system", "train.dataset_stats", "train.load_teacher",
              "train.mask_row"),
    "evaluate": ("evaluate.toy_ap", "evaluate.forward", "evaluate.nms"),
    "checkpoint": ("checkpoint.save",),
}

# Time left in these spans' own code is glue no layer span covers; the
# trace.* spans are the tracer's own work inside the traced calls.
_GLUE_SPANS = (ROOT, "train.run")
_TRACING_SPANS = ("trace.graph_walk", "trace.digest")
_SETUP_SPANS = ("train.build_system", "train.dataset_stats", "train.load_teacher")
_ENCODE_SPANS = SPANS_BY_LAYER["instances"]


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Span stack, aggregates and counters for one traced phase."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, record index]
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.records: list[tuple[str, int]] = []  # layer spans: name, parent index
        self.counts: dict[str, float] = {}
        self.vjp_s = {k: 0.0 for k in OP_KINDS}
        self.eval_depth = 0
        self._seen_scenes: set = set()
        self._seen_teacher: set = set()
        self._frozen_digests: dict[int, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, record: bool = True) -> None:
        idx = -1
        if record:
            parent = self.stack[-1][3] if self.stack else -1
            idx = len(self.records)
            self.records.append((name, parent))
        self.stack.append([name, time.perf_counter(), 0.0, idx])

    def exit(self) -> float:
        name, start, child, _ = self.stack.pop()
        dur = time.perf_counter() - start
        a = self.agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_op(self) -> None:
        self._seen_scenes.clear()
        self._seen_teacher.clear()
        self._frozen_digests.clear()
        self.enter(ROOT)

    def end_op(self) -> None:
        self.count("scenes.distinct", len(self._seen_scenes))
        self.count("teacher_forward.distinct", len(self._seen_teacher))
        self.exit()

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, make, gated: bool = True) -> None:
        """Replace ``owner.attr`` by ``make(original)``, active only while an
        operation is being traced (the benchmark's own checks run between
        operations and stay out of the trace). Hot wrappers pass
        ``gated=False`` and test ``self.stack`` themselves."""
        orig = getattr(owner, attr)
        traced = make(orig)
        if gated:
            stack = self.stack

            def gate(*a, **k):
                return traced(*a, **k) if stack else orig(*a, **k)
        else:
            gate = traced
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(gate))

    def _span(self, name: str, after=None):
        """Factory for a plain span wrapper; ``after(args, kwargs, result)``
        may count what the call did."""
        tr = self

        def make(fn):
            def w(*a, **k):
                tr.enter(name)
                try:
                    out = fn(*a, **k)
                finally:
                    tr.exit()
                if after is not None:
                    after(a, k, out)
                return out
            return w
        return make

    def install(self, condkd) -> None:
        """Wrap the names condkd's callers look up. ``condkd`` is the package
        namespace with the submodules imported."""
        T, train, ev = condkd.tensor, condkd.train, condkd.evaluate
        tr = self
        stack, clock, counts = self.stack, time.perf_counter, self.counts

        for kind in OP_KINDS:
            def make_op(fn, key=f"tensor.op.{kind}"):
                def w(*a, **k):
                    if not stack:
                        return fn(*a, **k)
                    stack.append([key, clock(), 0.0, -1])
                    try:
                        return fn(*a, **k)
                    finally:
                        tr.exit()
                return w
            self._patch(T, kind, make_op, gated=False)

        def make_from_op(fn):
            def w(data, inputs, vjp):
                out = fn(data, inputs, vjp)
                if stack and out.node is not None:
                    counts["nodes_built"] = counts.get("nodes_built", 0) + 1
                return out
            return w
        self._patch(T, "_from_op", make_from_op, gated=False)

        def make_backward(fn):
            def w(loss):
                tr.enter("trace.graph_walk", record=False)
                tr._instrument_graph(loss)
                tr.exit()
                tr.enter("tensor.backward")
                try:
                    return fn(loss)
                finally:
                    tr.exit()
            return w
        self._patch(T, "backward", make_backward)

        self._patch(condkd.nn.MomentumSGD, "step", self._span("nn.optimizer_step"))

        def after_scene(a, k, scene):
            tr.count("scenes.generated")
            tr._seen_scenes.add(tuple(scene.seed))
        self._patch(train, "generate_scene", self._span("scenes.generate", after_scene))

        def after_conds(a, k, conds):
            tr.count("conditions", len(conds))
            tr.count("condition_sets")
        self._patch(train, "build_conditions", self._span("instances.build_conditions", after_conds))
        self._patch(train, "encode_set", self._span("instances.encode_set"))
        self._patch(train, "make_query", self._span("instances.make_query"))

        def make_backbone(fn):
            def w(det, image):
                if tr.eval_depth:
                    name = "evaluate.forward"
                elif det.group.name == "teacher":
                    name = "pyramid.teacher_backbone"
                    tr.count("teacher_forward.calls")
                    tr.enter("trace.digest", record=False)
                    tr._seen_teacher.add((_digest(image.data), tr._weights_digest(det.group)))
                    tr.exit()
                else:
                    name = "pyramid.student_backbone"
                tr.enter(name)
                try:
                    return fn(det, image)
                finally:
                    tr.exit()
            return w
        self._patch(condkd.pyramid.ToyDetector, "backbone_forward", make_backbone)

        def make_head(fn):
            def w(det, pyr):
                tr.enter("evaluate.forward" if tr.eval_depth else "pyramid.det_head")
                try:
                    return fn(det, pyr)
                finally:
                    tr.exit()
            return w
        self._patch(condkd.pyramid.ToyDetector, "det_head_forward", make_head)
        self._patch(train, "det_loss", self._span("pyramid.det_loss"))
        self._patch(train, "flatten_pyramid", self._span("pyramid.flatten"))

        self._patch(condkd.decoder.ConditionalDecoder, "decode", self._span("decoder.decode"))
        self._patch(condkd.decoder.ConditionalDecoder, "student_values",
                    self._span("decoder.student_values"))
        self._patch(train, "aux_loss", self._span("losses.aux"))
        self._patch(train, "distill_loss", self._span("losses.distill"))

        for fn_name in ("train_teacher", "distill_student"):
            self._patch(train, fn_name, self._span("train.run"))
        self._patch(train, "build_system", self._span("train.build_system"))
        self._patch(train, "dataset_stats", self._span("train.dataset_stats"))
        for fn_name in ("check_teacher_state", "load_group"):
            self._patch(train, fn_name, self._span("train.load_teacher"))
        self._patch(train, "baseline_mask_row", self._span("train.mask_row"))

        def make_eval(fn):
            def w(det, scenes, *a, **k):
                tr.count("eval.scenes", len(scenes))
                before = tr.counts.get("nodes_built", 0)
                tr.eval_depth += 1
                tr.enter("evaluate.toy_ap")
                try:
                    return fn(det, scenes, *a, **k)
                finally:
                    tr.exit()
                    tr.eval_depth -= 1
                    tr.count("eval.nodes_built", tr.counts.get("nodes_built", 0) - before)
            return w
        self._patch(train, "evaluate_toy_ap", make_eval)

        def after_nms(a, k, kept):
            tr.count("eval.candidates", len(a[0]))
        self._patch(ev, "greedy_nms", self._span("evaluate.nms", after_nms))

        def after_save(a, k, out):
            tr.count("checkpoint.bytes", os.path.getsize(a[0]))
        self._patch(train, "save_checkpoint", self._span("checkpoint.save", after_save))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _weights_digest(self, group) -> bytes:
        """Digest of a group's weights; a frozen group cannot change within
        one operation, so its digest is computed once per operation."""
        params = group.tensors()
        if any(p.requires_grad for p in params):
            return _digest(*(p.data for p in params))
        key = id(group)  # the cache holds the group, so the id is not reused
        if key not in self._frozen_digests:
            self._frozen_digests[key] = (group, _digest(*(p.data for p in params)))
        return self._frozen_digests[key][1]

    def _instrument_graph(self, loss) -> None:
        """Walk the graph handed to backward: count nodes, and time the
        vector-Jacobian closures of the reported op kinds."""
        tr = self
        seen = set()
        stack = [loss]
        nodes = 0
        while stack:
            t = stack.pop()
            node = t.node
            if node is None or id(t) in seen:
                continue
            seen.add(id(t))
            nodes += 1
            kind = node.vjp.__qualname__.split(".", 1)[0]
            if kind in tr.vjp_s:
                node.vjp = _timed_vjp(tr, kind, node.vjp)
            stack.extend(node.inputs)
        self.count("nodes_walked", nodes)

    # -- results -------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def metrics(self, units: float, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics; ``units`` is the work done in the traced phase
        (training iterations, or objective evaluations on gradcheck)."""
        c = self.counts.get
        per = 1.0 / units if units else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "tensor.graph_nodes_per_it": c("nodes_walked", 0) * per,
            "tensor.backward_s_per_it": self.total("tensor.backward") * per,
        }
        for k in OP_KINDS:
            key = f"tensor.op.{k}"
            out[f"{key}.count"] = self.calls(key) * per
            out[f"{key}.fwd_s"] = self.total(key) * per
            out[f"{key}.vjp_s"] = self.vjp_s[k] * per
        runs = self.calls("train.run")
        tracing = sum(map(self.total, _TRACING_SPANS))
        evals = self.calls("evaluate.toy_ap")
        scenes = c("eval.scenes", 0)
        out.update({
            "nn.optimizer_step_s_per_it": self.total("nn.optimizer_step") * per,
            "scenes.generate_s_per_it": self.total("scenes.generate") * per,
            "scenes.unique_share": ratio(c("scenes.distinct", 0), c("scenes.generated", 0)),
            "instances.encode_s_per_it": sum(self.total(s) for s in _ENCODE_SPANS) * per,
            "instances.conditions_per_scene": ratio(c("conditions", 0), c("condition_sets", 0)),
            "pyramid.teacher_backbone_s_per_it": self.total("pyramid.teacher_backbone") * per,
            "pyramid.student_backbone_s_per_it": self.total("pyramid.student_backbone") * per,
            "pyramid.det_head_s_per_it": self.total("pyramid.det_head") * per,
            "pyramid.det_loss_s_per_it": self.total("pyramid.det_loss") * per,
            "pyramid.flatten_s_per_it": self.total("pyramid.flatten") * per,
            "pyramid.teacher_forward_unique_share":
                ratio(c("teacher_forward.distinct", 0), c("teacher_forward.calls", 0)),
            "decoder.decode_s_per_it": self.total("decoder.decode") * per,
            "decoder.student_values_s_per_it": self.total("decoder.student_values") * per,
            "losses.aux_s_per_it": self.total("losses.aux") * per,
            "losses.distill_s_per_it": self.total("losses.distill") * per,
            "train.run_setup_s": ratio(sum(self.total(s) for s in _SETUP_SPANS), runs),
            "train.mask_row_s_per_it": self.total("train.mask_row") * per,
            "evaluate.scenes_per_s": ratio(scenes, self.total("evaluate.toy_ap")),
            "evaluate.candidates_per_scene": ratio(c("eval.candidates", 0), scenes),
            "evaluate.nms_s": ratio(self.total("evaluate.nms"), evals),
            "evaluate.graph_nodes_per_scene": ratio(c("eval.nodes_built", 0), scenes),
            "checkpoint.save_s": ratio(self.total("checkpoint.save"), self.calls("checkpoint.save")),
            "checkpoint.bytes": ratio(c("checkpoint.bytes", 0), self.calls("checkpoint.save")),
            "verify.graph_nodes_per_fd_eval": ratio(c("fd.nodes_built", 0), c("fd.evals", 0)),
            "trace.attributed_share": 1.0 - ratio(sum(map(self.self_time, _GLUE_SPANS)),
                                                  self.total(ROOT) - tracing),
            "trace.overhead_share": overhead_share,
        })
        return out

    def self_times(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s) for every span, largest self first."""
        rows = [(n, int(a[0]), a[1], a[2]) for n, a in self.agg.items()]
        rows += [(f"tensor.vjp.{k}", 0, v, v) for k, v in self.vjp_s.items() if v]
        return sorted(rows, key=lambda r: -r[3])


def _timed_vjp(tr: Tracer, kind: str, vjp):
    def timed(g):
        start = time.perf_counter()
        try:
            return vjp(g)
        finally:
            dt = time.perf_counter() - start
            tr.vjp_s[kind] += dt
            if tr.stack:
                tr.stack[-1][2] += dt
    return timed
