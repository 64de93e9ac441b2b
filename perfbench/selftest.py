"""Self-test of the benchmark's wiring, one shrunken traced call per workload.

    python3 perfbench/selftest.py

Checks that every declared span fires on the workloads where its layer does
work and stays silent where it does not (decoder, instances and losses on
``teacher``), that model forwards inside held-out evaluation are not booked
to the training spans, that uninstalling the tracer restores every wrapped
name, that the metric names the benchmark emits are the ones BENCHMARK.json
declares, and that a short untraced run, measured in child processes,
passes its checks. Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS before numpy is imported

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def main() -> int:
    condkd, _ = run.import_condkd()
    import tracer as tr_mod
    import workloads

    # shrink every call; the wiring does not depend on run length
    workloads.TEACHER_ITERS = 2
    workloads.DISTILL_ITERS = 2
    workloads.SWEEP_ITERS = 2

    layers = tr_mod.SPANS_BY_LAYER
    every = {s for spans in layers.values() for s in spans}
    composed_spans = (set(layers["instances"]) | set(layers["pyramid"]) | set(layers["decoder"])
                       | set(layers["losses"]) | {"tensor.backward", "scenes.generate"})
    expected = {
        "distill": every - {"train.mask_row"},
        "sweep": every,
        "teacher": (every - set(layers["instances"]) - set(layers["decoder"])
                    - set(layers["losses"])
                    - {"pyramid.student_backbone", "pyramid.flatten", "train.build_system",
                       "train.dataset_stats", "train.load_teacher", "train.mask_row"}),
        "gradcheck": composed_spans,
        "routing_audit": composed_spans,
    }
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in (
        (condkd.train, "aux_loss"), (condkd.tensor, "matmul"), (condkd.tensor, "backward"),
        (condkd.pyramid.ToyDetector, "backbone_forward"), (condkd.evaluate, "greedy_nms"))}

    bench = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    emitted = [name for name, _, _ in tr_mod.LAYER_METRICS]
    expect(declared == emitted, "BENCHMARK.json per_layer names match the traced metrics")
    expect([m["name"] for m in bench["end_to_end"]] == ["work_per_s", "setup_s", "peak_rss_mb"],
           "BENCHMARK.json end_to_end names match the untraced metrics")
    expect(set(w["name"] for w in bench["workloads"]) <= set(run.WORKLOAD_NAMES),
           "BENCHMARK.json declares only workloads run.py defines")

    for name, want in expected.items():
        print(f"{name}:")
        work = run.CHECKOUT / ".perfbench_work" / f"selftest-{name}"
        wl = workloads.WORKLOADS[name](str(work), 1)
        wl.setup(0)
        tracer = tr_mod.Tracer()
        tracer.install(condkd)
        wl.tracer = tracer
        try:
            ph = run.run_phase(wl, 0.0, tracer)
        finally:
            tracer.uninstall()
        expect(ph.failed == 0, "the shrunken call succeeds and passes its checks")
        # NMS runs only when some score clears the threshold, which a
        # shrunken call may or may not reach
        fired = {n for n in every if tracer.calls(n)} - {"evaluate.nms"}
        want = want - {"evaluate.nms"}
        for span in sorted(want - fired):
            expect(False, f"{span} fires")
        for span in sorted(fired - want):
            expect(False, f"{span} stays silent")
        expect(fired == want, f"{len(want)} declared spans fire, the other {len(every - want)} do not")
        inside_eval = set()
        for span, parent in tracer.records:
            while parent >= 0:
                if tracer.records[parent][0] == "evaluate.toy_ap":
                    inside_eval.add(span)
                    break
                parent = tracer.records[parent][1]
        expect(inside_eval <= {"evaluate.forward", "evaluate.nms"},
               f"only evaluate spans open inside held-out evaluation (saw {sorted(inside_eval)})")
        metrics = tracer.metrics(ph.units, 0.0)
        expect(list(metrics) == emitted, "every per-layer metric is reported")
        if name == "gradcheck":
            expect(metrics["verify.graph_nodes_per_fd_eval"] > 0, "FD probes build graph nodes")
        else:
            expect(metrics["tensor.graph_nodes_per_it"] > 0, "backward walks a graph")
        if name == "teacher":
            silent = [m for m in metrics if m.split(".")[0] in ("decoder", "instances", "losses")]
            expect(all(metrics[m] == 0 for m in silent), "decoder/instances/losses metrics are zero")
        shutil.rmtree(work, ignore_errors=True)

    expect(all(getattr(o, a) is f for (o, a), f in originals.items()),
           "uninstall restores every wrapped name")

    print("untraced run:")
    proc = subprocess.run([sys.executable, run.__file__, "--workload", "routing_audit",
                           "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                          stdout=subprocess.PIPE, text=True, cwd=run.CHECKOUT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
           "a short run through child processes passes its checks")
    expect(list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]],
           "it reports the declared end-to-end metrics")
    try:
        (run.CHECKOUT / ".perfbench_work").rmdir()
    except OSError:
        pass
    print("PASS" if not FAILURES else f"FAIL ({len(FAILURES)})")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
