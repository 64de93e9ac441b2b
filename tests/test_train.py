"""Training harness: teacher loop, distillation loop, baseline masks,
ablation sweeps, and run-level determinism."""

import itertools
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from condkd import tensor as T
from condkd import train as tr
from condkd.checkpoint import CheckpointError, group_state, load_checkpoint
from condkd.config import ExperimentConfig
from condkd.decoder import Knowledge
from condkd.instances import build_conditions, encode_set, skip_conditions
from condkd.pyramid import ToyDetector, assign_cells, flatten_pyramid, inherit_parameters
from condkd.scenes import instance_count, scene_instances
from condkd.tensor import ParamGroup
from condkd.verify import mini_config

from helpers import loop_mask_row, pixel_instance


def read_csv(out_dir):
    with open(os.path.join(out_dir, "metrics.csv")) as f:
        return f.read().splitlines()


class TestMetricsWriter:
    def test_header_written_once_across_writers(self, tmp_path):
        d = str(tmp_path)
        tr.MetricsWriter(d, "a").row(0, 1.0, 0.0, 0.0, 0.0)
        tr.MetricsWriter(d, "b").row(1, 2.0, 0.0, 0.0, 0.0)
        lines = read_csv(d)
        assert lines[0] == tr.METRICS_HEADER
        assert sum(1 for l in lines if l == tr.METRICS_HEADER) == 1
        assert len(lines) == 3

    def test_floats_round_trip_exactly(self, tmp_path):
        d = str(tmp_path)
        tr.MetricsWriter(d, "r").row(3, 1.0 / 3.0, 0.1, 0.2, 0.3, 2.0 / 7.0)
        cells = read_csv(d)[1].split(",")
        assert float(cells[2]) == 1.0 / 3.0
        assert float(cells[6]) == 2.0 / 7.0

    def test_missing_ap_leaves_empty_cell(self, tmp_path):
        d = str(tmp_path)
        tr.MetricsWriter(d, "r").row(0, 1.0, 0.0, 0.0, 0.0)
        line = read_csv(d)[1]
        assert line.endswith(",")
        assert len(line.split(",")) == 7

    @pytest.mark.parametrize("text", ["", "step,loss\n1,2\n", "\n" + tr.METRICS_HEADER + "\n"],
                             ids=["empty", "other-header", "header-on-line-2"])
    def test_a_file_it_did_not_write_is_refused(self, text, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        line1 = (text.splitlines() or [""])[0]
        with pytest.raises(ValueError, match=f"metrics.csv: line 1 is {line1!r}"):
            tr.MetricsWriter(str(tmp_path), "r")
        assert path.read_text() == text

    def test_run_name_with_rows_already_is_rejected(self, tmp_path):
        d = str(tmp_path)
        tr.MetricsWriter(d, "r").row(0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(tr.DuplicateRunError, match="'r'"):
            tr.MetricsWriter(d, "r")
        tr.MetricsWriter(d, "r2")  # a prefix match is not a duplicate
        assert len(read_csv(d)) == 2

    def test_rerun_into_the_same_out_dir_fails_before_training(self, tmp_path, monkeypatch):
        cfg = mini_config()
        teacher = load_checkpoint(tr.train_teacher(cfg, str(tmp_path)).checkpoint)
        tr.distill_student(cfg, teacher, str(tmp_path), run_name="d")
        before = read_csv(str(tmp_path))
        monkeypatch.setattr(tr, "MomentumSGD", None)  # every run builds its optimizer first
        with pytest.raises(tr.DuplicateRunError):
            tr.train_teacher(cfg, str(tmp_path))
        with pytest.raises(tr.DuplicateRunError):
            tr.distill_student(cfg, teacher, str(tmp_path), run_name="d")
        assert read_csv(str(tmp_path)) == before


class TestTrainTeacher:
    def test_zero_iterations_saves_initialization(self, tmp_path):
        cfg = mini_config()
        result = tr.train_teacher(cfg, str(tmp_path))
        state = tr.strip_meta(load_checkpoint(result.checkpoint))
        group = ParamGroup("teacher")
        ToyDetector(cfg, cfg.teacher_widths, group, np.random.default_rng((cfg.seed, 10)))
        fresh = group_state(group)
        assert set(state) == set(fresh)
        for name, arr in fresh.items():
            np.testing.assert_array_equal(state[name], arr)

    def test_metadata_embedded_in_checkpoint(self, tmp_path):
        cfg = mini_config()
        state = load_checkpoint(tr.train_teacher(cfg, str(tmp_path)).checkpoint)
        assert state["__cfg__.image_size"] == 16.0
        assert state["__cfg__.strides"].tolist() == [8.0, 16.0]
        assert state["__cfg__.teacher_widths"].tolist() == [2.0, 3.0, 4.0, 4.0]

    def test_final_row_carries_held_out_ap(self, tmp_path):
        cfg = mini_config(teacher_iters=2)
        result = tr.train_teacher(cfg, str(tmp_path))
        last = read_csv(str(tmp_path))[-1].split(",")
        assert last[0] == "teacher" and int(last[1]) == 2
        assert float(last[6]) == result.toy_ap

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_seed(self, tmp_path):
        cfg = mini_config(teacher_iters=50, lr_teacher=1e6)
        with pytest.raises(RuntimeError, match=r"diverged.*seed 0"):
            tr.train_teacher(cfg, str(tmp_path))


class TestCappedBoxExponent:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_desk_distill_against_an_untrained_teacher_finishes(self, tmp_path):
        # without pyramid.EXP_CAP this call raised "loss nan at iteration 30"
        teacher = tr.train_teacher(ExperimentConfig(teacher_iters=0, eval_scenes=1, seed=7103),
                                   str(tmp_path / "teacher"))
        cfg = ExperimentConfig(student_iters=64, warmup_iters=0, seed=7103003)
        result = tr.distill_student(cfg, load_checkpoint(teacher.checkpoint), str(tmp_path))
        assert all(np.isfinite(v) for v in result.final.values()), result.final


class TestBoundedUpdates:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_student_against_an_untrained_teacher_stays_bounded(self, tmp_path):
        # without nn.MAX_GRAD_NORM this call raised "loss_det nan at iteration 10"
        teacher = tr.train_teacher(ExperimentConfig(teacher_iters=0, eval_scenes=4, seed=19302),
                                   str(tmp_path / "teacher"))
        cfg = ExperimentConfig(student_iters=64, warmup_iters=0, seed=19302029)
        result = tr.distill_student(cfg, load_checkpoint(teacher.checkpoint), str(tmp_path))
        assert all(np.isfinite(v) for v in result.final.values()), result.final
        weights = [v for k, v in load_checkpoint(result.checkpoint).items()
                   if k.startswith("student.")]
        assert max(np.abs(w).max() for w in weights) < 100


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    """Untrained mini teacher checkpoint for the compatibility checks."""
    d = str(tmp_path_factory.mktemp("t"))
    return load_checkpoint(tr.train_teacher(mini_config(), d).checkpoint)


class TestCheckTeacherState:
    def test_matching_config_passes(self, state):
        tr.check_teacher_state(mini_config(), state)

    def test_feat_dim_mismatch_rejected(self, state):
        with pytest.raises(CheckpointError, match="feat_dim"):
            tr.check_teacher_state(mini_config(feat_dim=16), state)

    def test_stride_mismatch_rejected(self, state):
        # a config cannot hold other strides, so the checkpoint records them
        foreign = state | {"__cfg__.strides": np.array([4.0, 8.0])}
        with pytest.raises(CheckpointError, match="strides"):
            tr.check_teacher_state(mini_config(), foreign)

    def test_missing_metadata_rejected(self, state):
        partial = {k: v for k, v in state.items() if k != "__cfg__.feat_dim"}
        with pytest.raises(CheckpointError, match="lacks"):
            tr.check_teacher_state(mini_config(), partial)

    def test_distill_refuses_foreign_teacher(self, state, tmp_path):
        with pytest.raises(CheckpointError):
            tr.distill_student(mini_config(num_classes=3), state, str(tmp_path))


@pytest.fixture(scope="module")
def mini_teacher(tmp_path_factory):
    """A briefly trained mini teacher shared by the distillation tests."""
    d = str(tmp_path_factory.mktemp("teacher"))
    result = tr.train_teacher(mini_config(teacher_iters=6), d)
    return load_checkpoint(result.checkpoint)


class TestDeterminism:
    def test_teacher_reruns_bit_identical(self, tmp_path):
        cfg = mini_config(teacher_iters=4)
        paths = []
        for sub in ("a", "b"):
            d = os.path.join(str(tmp_path), sub)
            paths.append(tr.train_teacher(cfg, d).checkpoint)
        with open(paths[0], "rb") as f0, open(paths[1], "rb") as f1:
            assert f0.read() == f1.read()
        assert read_csv(os.path.dirname(paths[0])) == read_csv(os.path.dirname(paths[1]))

    def test_distill_reruns_bit_identical(self, mini_teacher, tmp_path):
        cfg = mini_config(student_iters=3, warmup_iters=1)
        paths = []
        for sub in ("a", "b"):
            d = os.path.join(str(tmp_path), sub)
            paths.append(tr.distill_student(cfg, mini_teacher, d).checkpoint)
        with open(paths[0], "rb") as f0, open(paths[1], "rb") as f1:
            assert f0.read() == f1.read()
        assert read_csv(os.path.dirname(paths[0])) == read_csv(os.path.dirname(paths[1]))


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# batch 8 at desk scale, short enough for a unit test
DESK_SHORT = dict(teacher_iters=3, student_iters=3, warmup_iters=1, eval_scenes=2,
                  stats_scenes=16)


class TestSceneParallel:
    """Each step's scenes split across forked processes: the same bytes at
    any process count, and no process outlives the loop."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A loop that waits on a worker forever fails here instead of hanging."""
        def expire(signum, frame):
            raise TimeoutError("test exceeded 120 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def procs(self, monkeypatch):
        """force(n) sets the process count to n and returns the pids forked
        since the test began."""
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)

        def force(n):
            monkeypatch.setattr(tr, "_process_count", lambda b: min(n, b))
            return forked
        return force

    @pytest.mark.parametrize("cfg", [mini_config(batch_size=8, teacher_iters=4, student_iters=3,
                                                 warmup_iters=1),
                                     ExperimentConfig(**DESK_SHORT)], ids=["mini", "desk"])
    def test_bytes_do_not_depend_on_the_process_count(self, cfg, procs, tmp_path):
        # at 3 processes rank 1 computes scenes 2, 3 and 4 of 8, so the skips
        # of scenes 5, 6 and 7 carry over into the next iteration
        runs = {}
        for n in (1, 2, 3):
            forked = procs(n)
            before = len(forked)
            d = str(tmp_path / f"p{n}")
            teacher = tr.train_teacher(cfg, d)
            if n == 1:  # both distill from the same teacher
                teacher_state = load_checkpoint(teacher.checkpoint)
            student = tr.distill_student(cfg, teacher_state, d)
            runs[n] = (teacher.checkpoint, student.checkpoint, os.path.join(d, "metrics.csv"))
            assert len(forked) - before == 2 * (n - 1)  # n - 1 workers per loop
            assert_no_child_process()
        for n in (2, 3):
            for one, many in zip(runs[1], runs[n]):
                assert read_bytes(one) == read_bytes(many), (n, os.path.basename(one))

    def test_a_loop_of_zero_iterations_forks_nothing(self, procs, tmp_path):
        forked = procs(2)
        teacher = tr.train_teacher(mini_config(), str(tmp_path))
        tr.distill_student(mini_config(), load_checkpoint(teacher.checkpoint), str(tmp_path))
        assert forked == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_and_leaves_no_process(self, procs, tmp_path):
        forked = procs(2)
        cfg = mini_config(teacher_iters=50, lr_teacher=1e6)
        with pytest.raises(RuntimeError, match=r"diverged.*seed 0"):
            tr.train_teacher(cfg, str(tmp_path))
        assert len(forked) == 1
        assert_no_child_process()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("loop, column", [("teacher", "loss_det"),
                                              ("distill", "loss_aux_idf")])
    def test_a_divergence_names_its_column(self, loop, column, n, procs, mini_teacher, tmp_path,
                                           monkeypatch):
        # at batch 2, scene 3 is iteration 1's second: at 2 processes the worker's
        forked = procs(n)
        current, train_scene, det_loss, aux_loss = [None], tr.train_scene, tr.det_loss, tr.aux_loss

        def tracked_scene(cfg, i):
            current[0] = i
            return train_scene(cfg, i)

        def nan_det(*a, **k):
            det = det_loss(*a, **k)
            return det * float("nan") if current[0] == 3 else det

        def inf_idf(*a, **k):
            idf, loc = aux_loss(*a, **k)
            return (idf * float("inf") if current[0] == 3 else idf), loc

        monkeypatch.setattr(tr, "train_scene", tracked_scene)
        cfg = mini_config(teacher_iters=3, student_iters=3, seed=5)
        with pytest.raises(RuntimeError, match=f"diverged: {column} .* at iteration 1, seed 5$"):
            if loop == "teacher":
                monkeypatch.setattr(tr, "det_loss", nan_det)
                tr.train_teacher(cfg, str(tmp_path))
            else:
                monkeypatch.setattr(tr, "aux_loss", inf_idf)
                tr.distill_student(cfg, mini_teacher, str(tmp_path))
        assert len(forked) == n - 1
        assert_no_child_process()

    @pytest.mark.parametrize("loop", ["teacher", "distill"])
    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_exception_in_a_scene_is_raised_and_leaves_no_process(
            self, loop, where, procs, mini_teacher, tmp_path, monkeypatch):
        forked = procs(2)
        parent, det_loss = os.getpid(), tr.det_loss

        def failing(*a, **k):
            if (os.getpid() != parent) == (where == "worker"):
                raise ValueError(f"boom in the {where}")
            return det_loss(*a, **k)

        monkeypatch.setattr(tr, "det_loss", failing)
        cfg = mini_config(teacher_iters=3, student_iters=3)
        expected = tr.SceneWorkerError if where == "worker" else ValueError
        with pytest.raises(expected, match=f"boom in the {where}"):
            if loop == "teacher":
                tr.train_teacher(cfg, str(tmp_path))
            else:
                tr.distill_student(cfg, mini_teacher, str(tmp_path))
        assert len(forked) == 1
        assert_no_child_process()

    def test_worker_that_dies_is_reported(self, procs, tmp_path, monkeypatch):
        procs(2)
        parent, det_loss = os.getpid(), tr.det_loss

        def dying(*a, **k):
            if os.getpid() != parent:
                os._exit(3)
            return det_loss(*a, **k)

        monkeypatch.setattr(tr, "det_loss", dying)
        with pytest.raises(tr.SceneWorkerError, match="exited during iteration 0"):
            tr.train_teacher(mini_config(teacher_iters=2), str(tmp_path))
        assert_no_child_process()

    def test_failed_fork_leaks_no_descriptor(self, procs, tmp_path, monkeypatch):
        procs(2)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/dev/fd"))
        with pytest.raises(BlockingIOError):
            tr.train_teacher(mini_config(teacher_iters=2), str(tmp_path))
        assert len(os.listdir("/dev/fd")) == before

    def test_parameters_stay_views_of_their_group_buffers(self, procs, mini_teacher):
        procs(2)
        cfg = mini_config()
        built = tr.build_system(cfg)
        sys = tr.load_system(cfg, mini_teacher, tr.system_state(built))
        inherit_parameters(sys.student, sys.teacher)
        groups = [sys.groups[name] for name in tr.TRAINED_GROUPS]
        weight = sys.student.conv1.weight  # the student group's first tensor

        def assert_views():
            for g in groups:
                for p in g.tensors():
                    assert np.shares_memory(p.data, g.data) and np.shares_memory(p.grad, g.grad)

        for s in (built, sys):
            assert s.groups["teacher"].grad is None
            assert not any(p.requires_grad for p in s.groups["teacher"].tensors())
        assert_views()

        def scene(it, j):
            loss = T.tsum(T.mul(weight, weight))
            return loss, (loss.item(), 0.0, 0.0, 0.0)

        with tr.SceneSteps(groups, cfg.batch_size, scene) as steps:
            steps.step(0)
            shared = steps.losses.base
            assert all(g.data.base is shared for g in groups)
        assert_no_child_process()
        assert_views()
        assert not any(np.shares_memory(g.data, shared) for g in groups)
        np.testing.assert_allclose(weight.grad, 2.0 * weight.data, rtol=1e-15)  # the batch mean
        weight.data[0, 0] = 5.0
        assert groups[0].data[0] == 5.0

    @pytest.fixture
    def slowed(self, monkeypatch, tmp_path):
        """slow(side) makes each det_loss call of the caller or of the worker
        sleep 50 ms, and logs the side of every call; computed() returns and
        clears the log's counts per side. A loop calls det_loss once per
        scene it computes."""
        log, parent, det_loss = tmp_path / "computed", os.getpid(), tr.det_loss

        def slow(side):
            def det(*a, **k):
                me = "caller" if os.getpid() == parent else "worker"
                with open(log, "a") as f:
                    f.write(me[0])
                if me == side:
                    time.sleep(0.05)
                return det_loss(*a, **k)
            monkeypatch.setattr(tr, "det_loss", det)

        def computed():
            text = log.read_text()
            log.unlink()
            return {"caller": text.count("c"), "worker": text.count("w")}
        return slow, computed

    @pytest.mark.parametrize("slow", ["caller", "worker"])
    def test_uneven_splits_give_the_same_bytes(self, slow, procs, slowed, tmp_path):
        cfg = mini_config(batch_size=8, teacher_iters=3, student_iters=3, warmup_iters=1)
        one, two = str(tmp_path / "p1"), str(tmp_path / "p2")
        procs(1)
        teacher = load_checkpoint(tr.train_teacher(cfg, one).checkpoint)
        tr.distill_student(cfg, teacher, one)
        forked = procs(2)
        make_slow, computed = slowed
        make_slow(slow)
        tr.train_teacher(cfg, two)
        split = [computed()]
        tr.distill_student(cfg, teacher, two)
        split.append(computed())
        for loop in split:  # each side its block, however slow
            assert loop == {"caller": 3 * 4, "worker": 3 * 4}, loop
        assert len(forked) == 2
        assert_no_child_process()
        for name in ("teacher.ckpt", "distill.ckpt", "metrics.csv"):
            assert read_bytes(os.path.join(one, name)) == read_bytes(os.path.join(two, name)), name

    def test_more_processes_than_cores_compute_each_scene_once(self, procs, tmp_path):
        n = len(os.sched_getaffinity(0)) + 2
        b = 2 * n + 1  # blocks of 2 and 3 scenes
        forked = procs(n)
        log = tmp_path / "computed"
        group = ParamGroup("student")
        weight = group.add("w", np.ones(3))

        def scene(it, j):
            with open(log, "a") as f:
                f.write(f"{it},{j},{os.getpid()}\n")
            loss = T.tsum(T.mul(weight, weight))
            return loss, (float(j), 1.0 / (j + 1), 0.0, 0.0)

        def scene_order_mean(values):
            acc = values[0]
            for v in values[1:]:
                acc += v
            return acc * (1.0 / len(values))

        want = [scene_order_mean([float(j) for j in range(b)]),
                scene_order_mean([1.0 / (j + 1) for j in range(b)]), 0.0, 0.0]
        with tr.SceneSteps([group], b, scene) as steps:
            for it in range(20):
                assert steps.step(it) == want
        assert len(forked) == n - 1
        assert_no_child_process()
        ranks = [os.getpid()] + forked  # the caller is rank 0, workers in fork order
        calls = [tuple(map(int, line.split(","))) for line in log.read_text().splitlines()]
        block = [(r * b // n, (r + 1) * b // n) for r in range(n)]  # rank r's scenes
        assert block[0] == (0, 2)  # the caller's block is the first and the smallest
        owner = [r for r, (lo, hi) in enumerate(block) for _ in range(lo, hi)]
        assert sorted(calls) == [(it, j, ranks[owner[j]]) for it in range(20) for j in range(b)]
        for rank, pid in enumerate(ranks):  # only its own scenes, in increasing (it, j) order
            assert [c[:2] for c in calls if c[2] == pid] == [
                (it, j) for it in range(20) for j in range(*block[rank])], rank

    @pytest.mark.parametrize("n, slots", [(1, 0), (2, 4), (3, 6)])
    def test_the_mapping_holds_slots_only_for_other_ranks_scenes(self, n, slots, procs):
        # the caller sums its own block, the first floor(8/n) scenes, in
        # private memory; the mapping holds the parameters, one slot per
        # other rank's scene and the 8 loss rows, and dies with the loop
        procs(n)
        group = ParamGroup("student")
        weight = group.add("w", np.arange(1.0, 6.0))

        def scene(it, j):
            loss = T.tsum(T.mul(weight, weight)) * float(j + 1)
            return loss, (loss.item(), 0.0, 0.0, 0.0)

        with tr.SceneSteps([group], 8, scene) as steps:
            steps.step(0)
            mapping = weakref.ref(steps.losses.base.base.obj)
            assert len(mapping()) == 8 * ((1 + slots) * 5 + 8 * len(tr.LOSS_COLUMNS))
            assert steps.slots.shape == (slots, 5)
            assert np.shares_memory(group.data, steps.losses.base)
        assert_no_child_process()
        assert mapping() is None
        # scene j's gradient is 2(j + 1)w / 8, so the batch's is 9w
        np.testing.assert_allclose(weight.grad, 9.0 * weight.data, rtol=1e-15)

    def test_a_scene_graph_is_freed_before_the_next_is_built(self, procs):
        # two live graphs at once would raise a loop's peak memory
        procs(1)
        group = ParamGroup("student")
        weight = group.add("w", np.ones(3))
        inner = []

        def scene(it, j):
            assert all(r() is None for r in inner), (it, j)
            product = T.mul(weight, weight)
            inner.append(weakref.ref(product.data))  # held only by the scene's graph
            loss = T.tsum(product)
            return loss, (loss.item(), 0.0, 0.0, 0.0)

        with tr.SceneSteps([group], 4, scene) as steps:
            steps.step(0)
            steps.step(1)
        assert len(inner) == 8

    def test_groups_hold_no_spare_room(self, procs, mini_teacher):
        def assert_trimmed(groups):
            for g in groups:
                data_room, grad_room = g._room
                assert data_room.size == g.data.size, g
                assert (grad_room is None) == (g.grad is None), g
                assert grad_room is None or grad_room.size == g.data.size, g

        cfg = mini_config()
        assert_trimmed(tr.build_system(ExperimentConfig()).groups.values())
        assert_trimmed(tr.load_system(cfg, mini_teacher).groups.values())
        procs(2)
        group = ParamGroup("student")
        weight = group.add("w", np.ones(3))
        assert group._room[0].size > group.data.size

        def scene(it, j):
            loss = T.tsum(T.mul(weight, weight))
            return loss, (loss.item(), 0.0, 0.0, 0.0)

        with tr.SceneSteps([group], cfg.batch_size, scene) as steps:
            steps.step(0)
        assert_no_child_process()
        assert_trimmed([group])
        np.testing.assert_array_equal(weight.grad, 2.0 * weight.data)  # the batch mean

    @pytest.mark.parametrize("prelude, pin, forks", [
        ("import numpy", False, False), ("", False, True), ("import numpy", True, True)],
        ids=["numpy-first", "condkd-first", "numpy-first-pinned"])
    def test_one_process_unless_blas_is_pinned(self, prelude, pin, forks):
        # numpy's BLAS reads its thread count once, at numpy's first import,
        # so condkd can pin it only when it is imported first
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env |= {v: "1" for v in blas_vars} if pin else {}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tr.__file__))
        code = f"{prelude}\nfrom condkd import train\nprint(train._process_count(8))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert int(out) == (min(len(os.sched_getaffinity(0)), 8) if forks else 1)


class TestDrawOnlySkip:
    @pytest.mark.parametrize("overrides", [{}, {"jitter": 0.0}, {"fake_ratio": 0},
                                           {"use_scale": False}],
                             ids=["default", "jitter0", "fake_ratio0", "no_scale"])
    @pytest.mark.parametrize("make", [mini_config, ExperimentConfig], ids=["mini", "desk"])
    def test_skip_leaves_the_stream_where_the_real_draws_do(self, make, overrides):
        cfg = make(stats_scenes=16, **overrides)
        stats = tr.dataset_stats(cfg)
        real, skip = (np.random.default_rng((cfg.seed, 20)) for _ in range(2))
        for i in range(1000):
            conds = build_conditions(scene_instances(cfg, (cfg.seed, 1, i)), stats,
                                     cfg.fake_ratio, real)
            encode_set(conds, cfg, real)
            n_real = instance_count(np.random.default_rng((cfg.seed, 1, i)))
            skip_conditions(n_real, stats, cfg, skip)
            assert skip.bit_generator.state == real.bit_generator.state, i


class TestLambdaZero:
    def test_zero_lam_matches_never_activated_distillation(self, mini_teacher, tmp_path):
        a = tr.distill_student(mini_config(student_iters=4, lam=0.0),
                               mini_teacher, os.path.join(str(tmp_path), "a"), "x")
        b = tr.distill_student(mini_config(student_iters=4, lam=8.0, warmup_iters=4),
                               mini_teacher, os.path.join(str(tmp_path), "b"), "x")
        with open(a.checkpoint, "rb") as fa, open(b.checkpoint, "rb") as fb:
            assert fa.read() == fb.read()
        assert a.toy_ap == b.toy_ap

    def test_distillation_changes_student_after_warmup(self, mini_teacher, tmp_path):
        a = tr.distill_student(mini_config(student_iters=4, lam=0.0),
                               mini_teacher, os.path.join(str(tmp_path), "a"), "x")
        c = tr.distill_student(mini_config(student_iters=4, lam=8.0, warmup_iters=2),
                               mini_teacher, os.path.join(str(tmp_path), "c"), "x")
        sa = load_checkpoint(a.checkpoint)
        sc = load_checkpoint(c.checkpoint)
        assert any(not np.array_equal(sa[k], sc[k]) for k in sa if k.startswith("student."))


def teacher_flat(cfg):
    """The flat teacher pyramid of cfg's training scene 0, and that scene."""
    scene = tr.train_scene(cfg, 0)
    return scene, flatten_pyramid(tr.build_system(cfg).teacher.backbone_forward(scene.image),
                                  cfg.image_size, cfg.pos_dim)


@pytest.fixture(scope="module")
def mini_flat():
    """Teacher features for one mini scene: 5 rows (2x2 at stride 8, 1x1 at 16)."""
    cfg = mini_config()
    return (cfg, *teacher_flat(cfg))


class TestBaselineMasks:
    @pytest.mark.parametrize("variant", ["none", "foreground", "fine_grained", "activation"])
    def test_rows_are_probabilities(self, mini_flat, variant):
        cfg, scene, flat = mini_flat
        row = tr.baseline_mask_row(variant, flat, scene.instances)
        assert row.shape == (flat.num_rows,)
        assert np.all(row >= 0.0)
        assert abs(row.sum() - 1.0) < 1e-12

    def test_none_is_uniform(self, mini_flat):
        cfg, scene, flat = mini_flat
        row = tr.baseline_mask_row("none", flat, scene.instances)
        np.testing.assert_array_equal(row, np.full(5, 0.2))

    def test_activation_is_softmax_of_mean_abs_feature(self, mini_flat):
        cfg, scene, flat = mini_flat
        row = tr.baseline_mask_row("activation", flat, scene.instances)
        a = np.abs(flat.A.data).mean(axis=-1)
        want = np.exp(a - a.max())
        np.testing.assert_allclose(row, want / want.sum(), rtol=0, atol=1e-15)

    def test_foreground_uniform_over_covered_cell_centers(self, mini_flat):
        cfg, _, flat = mini_flat
        # left half of the 16px image: stride-8 centers x=0.25 fall inside,
        # x=0.75 outside, and the stride-16 center sits on the edge (excluded)
        inst = [pixel_instance(0, 0, 0, 8, 16)]
        row = tr.baseline_mask_row("foreground", flat, inst)
        np.testing.assert_array_equal(row, [0.5, 0.0, 0.5, 0.0, 0.0])

    def test_foreground_ignores_fake_instances(self, mini_flat):
        cfg, _, flat = mini_flat
        inst = [pixel_instance(0, 0, 0, 8, 16),
                pixel_instance(0, 8, 0, 16, 16, is_real=False)]
        row = tr.baseline_mask_row("foreground", flat, inst)
        np.testing.assert_array_equal(row, [0.5, 0.0, 0.5, 0.0, 0.0])

    def test_fine_grained_weights_by_cell_coverage(self, mini_flat):
        cfg, _, flat = mini_flat
        inst = [pixel_instance(0, 0, 0, 8, 16)]
        row = tr.baseline_mask_row("fine_grained", flat, inst)
        # stride-8 col 0 fully covered, col 1 untouched, stride-16 cell half
        np.testing.assert_allclose(row, np.array([1, 0, 1, 0, 0.5]) / 2.5,
                                   rtol=0, atol=1e-15)

    def test_geometric_variants_fall_back_to_uniform(self, mini_flat):
        cfg, _, flat = mini_flat
        for variant in ("foreground", "fine_grained"):
            row = tr.baseline_mask_row(variant, flat, [])
            np.testing.assert_array_equal(row, np.full(5, 0.2))

    @pytest.mark.parametrize("variant", ["foreground", "fine_grained"])
    @pytest.mark.parametrize("cfg", [mini_config(), ExperimentConfig()], ids=["16px", "64px"])
    def test_rows_match_the_cell_loop_bit_for_bit(self, cfg, variant):
        # stride / image size is a power of two at both sizes, so the layout's
        # centres and the loop's per-cell products are exact and must agree
        _, flat = teacher_flat(cfg)
        for i in range(60):
            insts = scene_instances(cfg, (cfg.seed, 1, i))
            want = loop_mask_row(variant, insts, cfg.image_size)
            assert tr.baseline_mask_row(variant, flat, insts).tobytes() == want.tobytes(), i

    def test_foreground_cells_are_the_detection_positives_at_48px(self):
        # 8/48 and 16/48 are not dyadic: two expressions for a centre differ in
        # the last bit and flip the strict inside test on pixel-aligned edges
        cfg = mini_config(image_size=48)
        _, flat = teacher_flat(cfg)
        for i in range(40):
            insts = scene_instances(cfg, (cfg.seed, 1, i))
            pos = assign_cells(flat.layout.centers, insts)[0] >= 0
            row = tr.baseline_mask_row("foreground", flat, insts)
            np.testing.assert_array_equal(row > 0, pos if pos.any() else np.ones_like(pos))

    def test_unknown_variant_rejected(self, mini_flat):
        cfg, scene, flat = mini_flat
        with pytest.raises(ValueError, match="variant"):
            tr.baseline_mask_row("uniform", flat, scene.instances)


def graph_nodes(loss):
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.node.inputs)
    return len(seen)


class TestGraphSize:
    def test_desk_scene_graph_has_the_same_size_at_every_head_count(self, tmp_path, monkeypatch):
        # the roots SceneSteps backpropagates in one desk distillation iteration
        monkeypatch.setattr(tr, "_process_count", lambda b: 1)
        backward, counts = T.backward, {}

        def counting_backward(root):
            counts[heads].append(graph_nodes(root))
            backward(root)

        cfg = ExperimentConfig(student_iters=1, warmup_iters=0, eval_scenes=1, stats_scenes=16)
        teacher = tr.train_teacher(replace(cfg, teacher_iters=0), str(tmp_path))
        monkeypatch.setattr(T, "backward", counting_backward)
        for heads in (1, 4, 8):
            counts[heads] = []
            tr.distill_student(replace(cfg, heads=heads), load_checkpoint(teacher.checkpoint),
                               str(tmp_path), run_name=f"heads-{heads}")
        assert counts == {heads: [85] * cfg.batch_size for heads in (1, 4, 8)}, counts


class TestSubstituteMasks:
    def make_knowledge(self, rows, cols, heads=2):
        rng = np.random.default_rng(7)
        return Knowledge(masks=T.constant(rng.random((heads, rows, cols))),
                         values=T.constant(rng.normal(size=(cols, 4 * heads))))

    def test_icd_returns_same_object(self, mini_flat):
        cfg, scene, flat = mini_flat
        k = self.make_knowledge(3, flat.num_rows)
        assert tr.substitute_masks(k, "icd", flat, scene.instances, 3) is k

    def test_baseline_replaces_masks_keeps_values(self, mini_flat):
        cfg, scene, flat = mini_flat
        k = self.make_knowledge(3, flat.num_rows)
        sub = tr.substitute_masks(k, "none", flat, scene.instances, 3)
        assert sub.num_heads == k.num_heads
        np.testing.assert_array_equal(sub.masks.data, np.full((2, 3, 5), 0.2))
        assert sub.values is k.values
        assert not sub.masks.requires_grad


class TestInherit:
    def test_head_copied_mismatched_backbone_kept(self, mini_teacher, tmp_path):
        cfg = mini_config(inherit=True)
        result = tr.distill_student(cfg, mini_teacher, str(tmp_path))
        saved = load_checkpoint(result.checkpoint)
        np.testing.assert_array_equal(saved["student.head.out.w"],
                                      mini_teacher["head.out.w"])
        np.testing.assert_array_equal(saved["student.head.conv.w"],
                                      mini_teacher["head.conv.w"])
        # conv2 widths differ (2->2 vs 3->2 channels), so it must stay fresh
        assert saved["student.backbone.conv2.w"].shape != mini_teacher["backbone.conv2.w"].shape

    def test_disabled_by_default(self, mini_teacher, tmp_path):
        result = tr.distill_student(mini_config(), mini_teacher, str(tmp_path))
        saved = load_checkpoint(result.checkpoint)
        assert not np.array_equal(saved["student.head.out.w"], mini_teacher["head.out.w"])


class TestStreams:
    def test_train_and_heldout_scenes_disjoint(self):
        cfg = mini_config()
        train = [tr.train_scene(cfg, i).image.data for i in range(4)]
        held = [s.image.data for s in tr.heldout_scenes(cfg)]
        for t in train:
            assert not any(np.array_equal(t, h) for h in held)

    def test_shared_seed_shares_data_across_variants(self):
        a = mini_config(attention_variant="icd")
        b = mini_config(attention_variant="none")
        np.testing.assert_array_equal(tr.train_scene(a, 3).image.data,
                                      tr.train_scene(b, 3).image.data)


@pytest.fixture(scope="module")
def quick():
    return mini_config(student_iters=2, warmup_iters=0, eval_scenes=2, stats_scenes=8)


class TestAblationRunners:
    def test_attention_runner_names_and_rows(self, quick, mini_teacher, tmp_path):
        results = tr.ablate_attention(quick, mini_teacher, str(tmp_path), seeds=(0,))
        assert [r.name for r in results] == [
            "attn-icd-s0", "attn-none-s0", "attn-foreground-s0", "attn-fine_grained-s0",
            "attn-activation-s0"]
        body = "\n".join(read_csv(str(tmp_path)))
        for r in results:
            assert r.name in body
            assert 0.0 <= r.toy_ap <= 1.0
            assert os.path.exists(r.checkpoint)

    def test_heads_runner_names(self, quick, mini_teacher, tmp_path):
        results = tr.sweep(quick, mini_teacher, str(tmp_path), *tr.ABLATIONS["heads"], (0,))
        assert [r.name for r in results] == ["heads-1-s0", "heads-4-s0", "heads-8-s0"]
        # the override reaches the run: every head count starts from the same
        # query projection and trains it to a different one
        f_q = [load_checkpoint(r.checkpoint)["decoder.dec0.f_q.w"] for r in results]
        assert all(np.any(a != b) for a, b in itertools.combinations(f_q, 2))

    def test_aux_runner_covers_subtask_grid(self, quick, mini_teacher, tmp_path):
        results = tr.sweep(quick, mini_teacher, str(tmp_path), *tr.ABLATIONS["aux"], (1,))
        assert [r.name for r in results] == [
            "aux-idf-s1", "aux-loc-s1", "aux-loc_scale-s1", "aux-full-s1"]

    def test_lambda_runner_names_hold_exact_values(self, quick, mini_teacher, tmp_path):
        results = tr.sweep(quick, mini_teacher, str(tmp_path), *tr.ABLATIONS["lambda"], (0,))
        assert [r.name for r in results] == [
            "lambda-0.0-s0", "lambda-2.0-s0", "lambda-6.0-s0", "lambda-12.0-s0"]
        assert results[0].final["loss_distill"] == 0.0  # lam 0 never distills

    def test_cascade_runner_depths(self, quick, mini_teacher, tmp_path):
        results = tr.sweep(quick, mini_teacher, str(tmp_path), *tr.ABLATIONS["cascade"], (0,))
        assert [r.name for r in results] == ["cascade-1-s0", "cascade-2-s0", "cascade-4-s0"]
        assert any(k.startswith("decoder.dec3.") for k in load_checkpoint(results[-1].checkpoint))

    def test_sweep_is_variant_major_and_matches_single_runs(self, quick, mini_teacher, tmp_path):
        variants = [("a", {"lam": 0.0}), ("b", {"heads": 1})]
        results = tr.sweep(quick, mini_teacher, str(tmp_path / "sweep"), "x", variants, (0, 1))
        assert [r.name for r in results] == ["x-a-s0", "x-a-s1", "x-b-s0", "x-b-s1"]
        single = tr.distill_student(replace(quick, heads=1, seed=1), mini_teacher,
                                    str(tmp_path / "single"), "x-b-s1")
        with open(results[-1].checkpoint, "rb") as fa, open(single.checkpoint, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("trainer", ["teacher", "distill"])
    def test_eval_every_emits_intermediate_ap(self, trainer, quick, mini_teacher, tmp_path):
        cfg = replace(quick, teacher_iters=4, student_iters=4, eval_every=3)
        if trainer == "teacher":
            tr.train_teacher(cfg, str(tmp_path), "ev")
        else:
            tr.distill_student(cfg, mini_teacher, str(tmp_path), "ev")
        rows = [l.split(",") for l in read_csv(str(tmp_path))[1:]]
        mid = [r for r in rows if r[0] == "ev" and r[1] == "3" and r[6]]
        assert len(mid) == 1
        assert 0.0 <= float(mid[0][6]) <= 1.0
