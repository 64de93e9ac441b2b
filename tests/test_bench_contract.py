"""The names the benchmark harness under perfbench/ looks up in condkd.

perfbench/tracer.py times the program by swapping module attributes and
class methods for wrappers, and perfbench's workloads call a few functions
directly. Renaming or deleting any of them breaks the benchmark, which the
unit tests would otherwise not notice. The harness's own self-test runs
here too, so a change that breaks its wiring fails the suite."""

import subprocess
import sys
from pathlib import Path

import condkd
from condkd import train, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install(condkd)
    try:
        patched = list(t._patches)
        assert patched
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def test_workload_entry_points_exist():
    for fn in (train.ablate_attention, verify._composed_total, train.check_teacher_state):
        assert callable(fn)


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "PASS", done.stdout
