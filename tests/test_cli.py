"""Exit codes, artifact paths, and wiring of every CLI subcommand."""

import os
import subprocess
import sys

import numpy as np
import pytest

from condkd import cli, scenes
from condkd.checkpoint import load_checkpoint
from condkd.config import load_config
from condkd.heatmap import quantize_mask
from condkd.train import decode_conditions, heldout_scenes, load_system, train_scene

from helpers import read_pgm

MINI_CFG = """
# mini geometry keeps the runs fast
image_size = 16
num_classes = 2
feat_dim = 8
heads = 2
pos_dim = 4
enc_pos_dim = 4
enc_scale_dim = 4
max_log2 = 4
fake_ratio = 2
stats_scenes = 8
eval_scenes = 2
batch_size = 2
teacher_iters = 3
student_iters = 1
warmup_iters = 0
teacher_widths = 2, 3, 4, 4
student_widths = 2, 2, 3, 3
"""


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(MINI_CFG)
    return str(path)


@pytest.fixture(scope="module")
def trained(cfg_file, tmp_path_factory):
    """Run teacher + distill once; several subcommand tests reuse the artifacts."""
    d = str(tmp_path_factory.mktemp("runs"))
    assert cli.cli_main(["train-teacher", "--config", cfg_file, "--out-dir", d]) == 0
    assert cli.cli_main(["distill", "--config", cfg_file, "--out-dir", d]) == 0
    return d


class TestUsageErrors:
    def test_no_subcommand_fails(self, capsys):
        assert cli.cli_main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_fails(self, capsys):
        assert cli.cli_main(["frobnicate"]) == 2

    def test_unknown_flag_fails(self, capsys):
        assert cli.cli_main(["gen-data", "--bogus"]) == 2

    def test_bad_ablation_name_fails(self, capsys):
        assert cli.cli_main(["ablate", "everything"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.cli_main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_unknown_config_key_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("image_sized = 16\n")
        assert cli.cli_main(["gen-data", "--config", str(bad),
                             "--out-dir", str(tmp_path)]) == 1
        assert "image_sized" in capsys.readouterr().err


    def test_config_value_the_pyramid_cannot_tile_fails_before_any_output(self, tmp_path,
                                                                           capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINI_CFG.replace("image_size = 16", "image_size = 40"))
        out = tmp_path / "out"
        assert cli.cli_main(["train-teacher", "--config", str(bad), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "image_size must be a multiple of 16, got 40" in err
        assert not (out / "metrics.csv").exists()

class TestGenData:
    def test_writes_csv_stats_and_previews(self, cfg_file, tmp_path, capsys):
        d = str(tmp_path)
        assert cli.cli_main(["gen-data", "--config", cfg_file, "--out-dir", d,
                             "--count", "6"]) == 0
        lines = (tmp_path / "scenes.csv").read_text().splitlines()
        assert lines[0] == "scene,category,x1,y1,x2,y2"
        assert len(lines) > 6
        assert "class 0" in (tmp_path / "stats.txt").read_text()
        previews = sorted(p.name for p in tmp_path.glob("scene*.ppm"))
        assert previews == ["scene0.ppm", "scene1.ppm", "scene2.ppm", "scene3.ppm"]
        # the rows and the preview are those of the scenes training reads; the
        # preview is the [H, W, 3] image itself, row-major RGB
        cfg = load_config(cfg_file)
        first = train_scene(cfg, 0)
        assert [l for l in lines[1:] if l.startswith("0,")] == [
            f"0,{inst.category}," + ",".join(str(round(c * cfg.image_size)) for c in inst.corners())
            for inst in first.instances]
        image = first.image.data
        header = b"P6\n16 16\n255\n"
        blob = (tmp_path / "scene0.ppm").read_bytes()
        assert blob[:len(header)] == header
        want = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
        assert blob[len(header):] == want.tobytes()

    def test_seed_flag_changes_scenes(self, cfg_file, tmp_path):
        for s in ("0", "1"):
            assert cli.cli_main(["gen-data", "--config", cfg_file, "--seed", s,
                                 "--out-dir", str(tmp_path / s), "--count", "3"]) == 0
        a = (tmp_path / "0" / "scenes.csv").read_text()
        b = (tmp_path / "1" / "scenes.csv").read_text()
        assert a != b


class TestTrainingCommands:
    def test_teacher_then_distill_artifacts(self, trained):
        assert os.path.exists(os.path.join(trained, "teacher.ckpt"))
        assert os.path.exists(os.path.join(trained, "distill.ckpt"))
        assert os.path.exists(os.path.join(trained, "metrics.csv"))

    def test_distill_without_teacher_fails(self, cfg_file, tmp_path, capsys):
        assert cli.cli_main(["distill", "--config", cfg_file,
                             "--out-dir", str(tmp_path)]) == 1
        assert "train-teacher" in capsys.readouterr().err

    def test_ablate_runs_named_sweep(self, cfg_file, trained, tmp_path, capsys):
        d = str(tmp_path)
        code = cli.cli_main(["ablate", "heads", "--config", cfg_file, "--out-dir", d,
                             "--teacher", os.path.join(trained, "teacher.ckpt"),
                             "--seeds", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "heads-1-s0" in out and "heads-4-s0" in out and "heads-8-s0" in out

    def test_ablate_seeds_parsing(self, cfg_file, trained, tmp_path, capsys):
        d = str(tmp_path)
        code = cli.cli_main(["ablate", "cascade", "--config", cfg_file, "--out-dir", d,
                             "--teacher", os.path.join(trained, "teacher.ckpt"),
                             "--seeds", "2,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cascade-1-s2" in out and "cascade-1-s3" in out

    @pytest.mark.parametrize("seeds", ["", ",", "0,0", "1, 2,1"])
    def test_ablate_rejects_empty_or_repeated_seeds_before_training(
            self, cfg_file, trained, tmp_path, capsys, seeds):
        d = str(tmp_path)
        code = cli.cli_main(["ablate", "cascade", "--config", cfg_file, "--out-dir", d,
                             "--teacher", os.path.join(trained, "teacher.ckpt"),
                             "--seeds", seeds])
        assert code == 1
        assert f"--seeds {seeds!r}" in capsys.readouterr().err
        assert os.listdir(d) == []


class TestExportAttn:
    def test_writes_heatmaps(self, cfg_file, trained, capsys, monkeypatch):
        student = os.path.join(trained, "distill.ckpt")
        built, generate = [], scenes.generate_scene
        monkeypatch.setattr(scenes, "generate_scene",
                            lambda spec, seed: built.append(seed) or generate(spec, seed))
        code = cli.cli_main(["export-attn", "--config", cfg_file, "--out-dir", trained,
                             "--student", student,
                             "--scene", "0", "--instance", "0", "--head", "1"])
        assert code == 0
        assert [seed[1:] for seed in built] == [(2, 0)]  # the asked-for held-out scene only
        paths = capsys.readouterr().out.splitlines()
        assert len(paths) == 4
        for p in paths:
            assert os.path.exists(p)
            assert p.endswith((".pgm", ".ppm"))
        # each level's PGM shows instance 0's head-1 mask row from the same checkpoint
        cfg = load_config(cfg_file)
        sys_ = load_system(cfg, load_checkpoint(os.path.join(trained, "teacher.ckpt")),
                           load_checkpoint(student))
        scene = heldout_scenes(cfg)[0]
        _, flat, _, k = decode_conditions(cfg, sys_, scene.image, scene.instances,
                                          np.random.default_rng((cfg.seed, 30)))
        row, offset = k.masks.data[1, 0], 0
        for level, (h, w) in enumerate(flat.layout.shapes):
            seg = row[offset:offset + h * w].reshape(h, w)
            offset += h * w
            heat = read_pgm(paths[2 * level])
            assert np.argmax(heat) == np.argmax(seg)
            np.testing.assert_array_equal(heat, quantize_mask(seg))

    def test_scene_out_of_range_fails(self, cfg_file, trained, capsys):
        code = cli.cli_main(["export-attn", "--config", cfg_file, "--out-dir", trained,
                             "--student", os.path.join(trained, "distill.ckpt"),
                             "--scene", "99"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err


class TestVerificationCommands:
    def test_routing_check_passes(self, capsys):
        assert cli.cli_main(["routing-check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_exit_reflects_reports(self, monkeypatch, capsys):
        class Stub:
            def __init__(self, ok):
                self.passed = ok

            def __str__(self):
                return f"stub passed={self.passed}"

        monkeypatch.setattr(cli.verify, "gradcheck_ops", lambda seed: Stub(True))
        monkeypatch.setattr(cli.verify, "gradcheck_composed", lambda seed: Stub(True))
        assert cli.cli_main(["gradcheck"]) == 0
        monkeypatch.setattr(cli.verify, "gradcheck_composed", lambda seed: Stub(False))
        assert cli.cli_main(["gradcheck"]) == 1

    @pytest.mark.parametrize("argv", [["routing-check", "--config", "x"],
                                      ["gradcheck", "--out-dir", "y"]])
    def test_checks_reject_options_they_would_ignore(self, argv, capsys):
        assert cli.cli_main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _package_env(**overrides):
    """The environment for a subprocess that imports condkd: pytest's
    `pythonpath` setting does not reach it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return os.environ | {"PYTHONPATH": path} | overrides


def test_console_script_help():
    out = subprocess.run([sys.executable, "-m", "condkd.cli", "--help"],
                         capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0
    assert "routing-check" in out.stdout


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")])
def test_import_pins_blas_unless_set(preset, want):
    env = {k: v for k, v in _package_env(**preset).items()
           if k not in BLAS_VARS or k in preset}
    probe = f"import os, condkd; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == want.split()
