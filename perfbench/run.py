"""condkd benchmark: one workload per run, BLAS pinned to one thread.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 50 --trace 0

Run from a checkout that holds ``src/condkd``; the package is imported from
there and nowhere else. With ``--trace 0`` the run prints the end-to-end
metrics. It measures in a series of fresh processes, one after the other,
each of which imports, sets up and runs calls for a slice of the time: on a
shared host much of a process's speed is drawn once and kept for its life
(two processes running side by side held 67-74 and 84-92 routing audits/s),
so a run averages over several draws. With ``--trace 1`` the run is one process that
spends half its time untraced and half traced and prints the per-layer
metrics, including the tracing overhead. Before the final JSON line it
prints the environment and a human-readable table. The exit code is 1 when
an output check failed, 2 when the package is missing.
"""

import os

# Pin BLAS before anything can import numpy: the workloads are single-caller
# loops of small matrices, and a second BLAS thread only adds noise.
_PINNED_EARLY = "numpy" not in __import__("sys").modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # traced runs: setups repeated in the one process
SLICES = 10  # untraced runs: each process measures for 1/SLICES of --seconds
CHILD_TIMEOUT_S = 90
WORKLOAD_NAMES = ("distill", "teacher", "sweep", "gradcheck", "routing_audit")
# what one unit of work_per_s is, per workload
UNIT_NAMES = {"distill": "it_per_s", "teacher": "it_per_s", "sweep": "it_per_s",
              "gradcheck": "fd_evals_per_s", "routing_audit": "audits_per_s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by an untraced run for the processes it starts
    ap.add_argument("--child", choices=("slice", "final"), help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--first-call", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--setup-index", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_condkd():
    """Import condkd from the checkout's src/; returns (package, seconds)."""
    src = CHECKOUT / "src"
    if not (src / "condkd" / "__init__.py").is_file():
        raise FileNotFoundError(f"no condkd package under {src}")
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import condkd
    import condkd.train  # noqa: F401  (pulls in every layer the workloads touch)
    import condkd.verify  # noqa: F401
    return condkd, time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_pinned_before_numpy_import": _PINNED_EARLY,
        "isolation": "none: cores are shared and CPU frequency is not fixed",
    }


def tail(samples: list[float], higher_is_better: bool):
    """The worst-side percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, None
    ordered = sorted(samples, reverse=higher_is_better)  # best first
    return ordered[n - 11], 100.0 * (n - 10) / n


class Phase:
    """One closed-loop measuring phase.

    An operation fails when the program raises (condkd raises on a diverged
    loss) or when a check of its outputs fails. Only the second kind makes
    the run incorrect: the first is an error the program reported, the second
    a wrong result it returned."""

    def __init__(self):
        self.rates: list[float] = []
        self.units = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_ok: int | None = None
        self.seconds = 0.0


def run_phase(wl, seconds: float, tracer=None, first: int = 0) -> Phase:
    """Calls first, first + 1, ... until ``seconds`` have passed (at least one)."""
    ph = Phase()
    start = time.perf_counter()
    k = first
    while ph.attempted == 0 or time.perf_counter() - start < seconds:
        ph.attempted += 1
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            units, out = wl.call(k)
        except Exception:  # counted as a failed operation; the loop goes on
            if tracer:
                while tracer.stack:
                    tracer.exit()
            ph.failed += 1
            print(f"operation {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
            k += 1
            continue
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        try:
            problems = wl.check(k, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            ph.failed += 1
            ph.wrong += 1
            print(f"operation {k} failed its output check:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
        else:
            ph.rates.append(units / dt)
            ph.units += units
            if ph.first_ok is None:
                ph.first_ok = k
        k += 1
    ph.seconds = time.perf_counter() - start
    return ph


def print_table(rows) -> None:
    """rows: (name, unit, value, samples, higher is better)."""
    print(f"  {'metric':<30s} {'unit':<5s} {'value':>12s} {'median':>12s} {'tail':>12s} "
          f"{'pct':>6s} {'n':>5s}")
    for name, unit, value, samples, higher in rows:
        med = statistics.median(samples) if samples else float("nan")
        t, pct = tail(samples, higher)
        t_s = f"{t:12.4f}" if t is not None else f"{'-':>12s}"
        p_s = f"p{pct:4.1f}" if pct is not None else f"{'-':>6s}"
        print(f"  {name:<30s} {unit:<5s} {value:12.4f} {med:12.4f} {t_s} {p_s} {len(samples):5d}")


def load_workload(args, work: Path):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](str(work), args.seed)


def child_main(args, import_s: float) -> int:
    """One process of an untraced run: set up once, then either measure calls
    for ``--seconds`` or run the end-of-run checks. Prints one JSON line."""
    wl = load_workload(args, Path(args.work))
    t0 = time.perf_counter()
    digest = wl.setup(args.setup_index)
    out = {"env": environment(), "import_s": import_s, "setup_s": time.perf_counter() - t0,
           "digest": digest}
    if args.child == "slice":
        ph = run_phase(wl, args.seconds, first=args.first_call)
        out.update(rates=ph.rates, units=ph.units, seconds=ph.seconds, attempted=ph.attempted,
                   failed=ph.failed, wrong=ph.wrong, first_ok=ph.first_ok)
    else:
        out["checks"] = wl.final_checks(args.first_call)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def start_child(args, work: Path, mode: str, seconds: float, first: int, index: int):
    """Run one child process to its end; returns its JSON result, or None if it
    crashed. Its stderr (failure reports) passes through."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0",
           "--child", mode, "--work", str(work), "--first-call", str(first),
           "--setup-index", str(index)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=CHECKOUT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed the child and waited for it
        print(f"{mode} process timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{mode} process exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"{mode} process printed no result", file=sys.stderr)
        return None


def untraced_run(args, work: Path) -> int:
    """Measure in fresh processes, one after another, until their calls have
    taken ``--seconds``; then check the run in one more."""
    slices, finals = [], []
    attempted = failed = wrong = 0
    timed, k = 0.0, 0
    while not slices or timed < args.seconds:
        r = start_child(args, work, "slice", args.seconds / SLICES, k, len(slices))
        if r is None:
            attempted, failed, wrong = attempted + 1, failed + 1, wrong + 1
            break
        slices.append(r)
        timed += r["seconds"]
        k += r["attempted"]
        attempted += r["attempted"]
        failed += r["failed"]
        wrong += r["wrong"]
    first_ok = next((r["first_ok"] for r in slices if r["first_ok"] is not None), None)
    if first_ok is not None:
        r = start_child(args, work, "final", args.seconds, first_ok, len(slices))
        if r is None:
            attempted, failed, wrong = attempted + 1, failed + 1, wrong + 1
        else:
            finals.append(r)
            for check, problems in r["checks"].items():
                attempted += 1
                if problems:
                    failed += 1
                    wrong += 1
                    print(f"check {check} failed:\n  " + "\n  ".join(problems),
                          file=sys.stderr)
    procs = slices + finals
    if procs:
        attempted += 1
        if len({r["digest"] for r in procs}) != 1:
            failed += 1
            wrong += 1
            print("setup is not repeatable across processes", file=sys.stderr)

    # each process's median call rate, averaged over processes: a process
    # keeps the speed it drew, so a median over processes would pick one draw
    per_proc = [statistics.median(r["rates"]) for r in slices if r["rates"]]
    work_per_s = statistics.fmean(per_proc) if per_proc else 0.0
    setups = [r["import_s"] + r["setup_s"] for r in procs]
    setup_s = statistics.median(setups) if setups else 0.0
    rss = [r["peak_rss_mb"] for r in procs]
    peak_rss_mb = max(rss) if rss else 0.0
    correct = wrong == 0 and bool(per_proc)

    if procs:
        print("env " + json.dumps(procs[0]["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace 0: "
          f"{len(procs)} processes, {attempted} operations, {failed} failed "
          f"(failed_share {failed / attempted:.4f})")
    print_table([
        (f"work_per_s ({UNIT_NAMES[args.workload]})", "1/s", work_per_s,
         [x for r in slices for x in r["rates"]], True),
        ("setup_s", "s", setup_s, setups, False),
        ("peak_rss_mb", "MB", peak_rss_mb, rss, False),
    ])
    print(f"  work_per_s per process: {' '.join(f'{x:.4f}' for x in per_proc)}")
    metrics = {
        "work_per_s": {"value": work_per_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def traced_run(args, work: Path, condkd, import_s: float) -> int:
    """One process: half the time untraced, then the same calls traced."""
    from tracer import LAYER_METRICS, ROOT, Tracer

    env = environment()
    attempted = failed = wrong = 0
    wl = load_workload(args, work)
    setup_times, digests = [], set()
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        digests.add(wl.setup(i))
        setup_times.append(time.perf_counter() - t0)
    attempted += 1
    if len(digests) != 1:
        failed += 1
        wrong += 1
        print(f"setup is not repeatable: {len(digests)} distinct results", file=sys.stderr)

    plain = run_phase(wl, args.seconds / 2)
    # the traced half replays the untraced half's calls, so the two rates
    # compare the same work
    tracer = Tracer()
    tracer.install(condkd)
    wl.tracer, wl.tag = tracer, "-traced"
    try:
        traced = run_phase(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
        wl.tracer, wl.tag = None, ""
    for ph in (plain, traced):
        attempted += ph.attempted
        failed += ph.failed
        wrong += ph.wrong
    for check, problems in wl.final_checks(plain.first_ok).items():
        attempted += 1
        if problems:
            failed += 1
            wrong += 1
            print(f"check {check} failed:\n  " + "\n  ".join(problems), file=sys.stderr)

    work_per_s = statistics.median(plain.rates) if plain.rates else 0.0
    traced_per_s = statistics.median(traced.rates) if traced.rates else 0.0
    overhead = 1.0 - traced_per_s / work_per_s if work_per_s else 0.0
    correct = wrong == 0 and bool(plain.rates)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace 1: "
          f"{attempted} operations, {failed} failed (failed_share {failed / attempted:.4f})")
    print_table([
        (f"work_per_s ({UNIT_NAMES[args.workload]})", "1/s", work_per_s, plain.rates, True),
        ("setup_s", "s", import_s + statistics.median(setup_times),
         [import_s + t for t in setup_times], False),
    ])
    layer = tracer.metrics(traced.units, overhead)
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    print(f"  untraced {work_per_s:.4f}/s, traced {traced_per_s:.4f}/s, overhead {overhead:.4f}")
    total = tracer.total(ROOT)
    print(f"  self time by span over {total:.3f} s of traced calls:")
    for name, calls, tot, self_s in tracer.self_times()[:24]:
        share = self_s / total if total else 0.0
        print(f"    {name:<36s} {calls:8d} {tot:10.4f} {self_s:10.4f} {share:7.1%}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        condkd, import_s = import_condkd()
        return child_main(args, import_s)
    # a terminated run unwinds, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (CHECKOUT / "src" / "condkd" / "__init__.py").is_file():
        print(f"perfbench: no condkd package under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            try:
                condkd, import_s = import_condkd()
            except ImportError as e:
                print(f"perfbench: cannot import condkd from this checkout: {e}",
                      file=sys.stderr)
                return 2
            return traced_run(args, work, condkd, import_s)
        return untraced_run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
