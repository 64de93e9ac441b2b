"""Experiment config: validation, file parsing, coercion, and the import
graph that lets every module read it."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import condkd
from condkd.config import ExperimentConfig, build_config, load_config, parse_config_file
from condkd.pyramid import STRIDES


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.feat_dim % cfg.heads == 0
        assert cfg.teacher_iters >= 3 * cfg.student_iters

    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="divide"):
            ExperimentConfig(heads=5)

    def test_variant_whitelist(self):
        with pytest.raises(ValueError, match="attention_variant"):
            ExperimentConfig(attention_variant="learned")

    def test_depth_and_ratio_bounds(self):
        with pytest.raises(ValueError, match="depth"):
            ExperimentConfig(depth=0)
        with pytest.raises(ValueError, match="fake_ratio"):
            ExperimentConfig(fake_ratio=-1)

    @pytest.mark.parametrize("key, value", [
        ("heads", 0), ("heads", -4), ("num_classes", 0), ("stats_scenes", 0), ("eval_scenes", 0),
        ("batch_size", 0), ("jitter", float("nan")), ("teacher_iters", -1), ("eval_every", -1),
        ("pos_dim", 6), ("pos_dim", 7), ("enc_pos_dim", 5), ("enc_scale_dim", 3),
        ("feat_dim", 0), ("max_log2", 0), ("teacher_widths", (16, 32, 48)),
        ("teacher_widths", ()), ("student_widths", (8, 16, 24, 24, 24)),
        ("student_widths", (8, 16, 0, 24)), ("lam", float("nan")), ("lam", float("inf")),
        ("lr_student", float("nan")), ("lr_decoder", -0.01), ("momentum", 1.5),
        ("weight_decay", -1.0), ("noise_sigma", -0.1), ("image_size", 40),
        ("image_size", 60)])
    def test_out_of_range_values_fail_at_construction_naming_their_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ExperimentConfig(**{key: value})
        text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        with pytest.raises(ValueError, match=f"^{key} must be"):  # as a file gives it
            build_config({key: text})

    @pytest.mark.parametrize("key, value", [("lr_teacher", 1e6), ("lr_student", 0.0),
                                            ("momentum", 0.0), ("image_size", 48)])
    def test_edge_values_stay_valid(self, key, value):
        assert getattr(ExperimentConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("strides", [(4, 8), (16, 8), (8,), (8, 16, 32)])
    def test_strides_other_than_the_wired_pair_rejected(self, strides):
        # the pyramid levels are fixed at pyramid.STRIDES, so no strides value
        # can be configured: the key is unknown to the file and the dataclass
        assert STRIDES == (8, 16)
        with pytest.raises(ValueError, match="unknown config keys.*strides"):
            build_config({"strides": " ".join(map(str, strides))})
        with pytest.raises(TypeError, match="strides"):
            ExperimentConfig(strides=strides)

    def test_value_stop_gradient_is_not_configurable(self):
        # the stop-gradient on the student's value projection is fixed
        with pytest.raises(ValueError, match="unknown config keys.*detach_fv"):
            build_config({"detach_fv": "false"})
        with pytest.raises(TypeError, match="detach_fv"):
            ExperimentConfig(detach_fv=False)


class TestFileParsing:
    def test_comments_blanks_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "lam = 4.0   # trailing comment\n"
            "heads = 8\n"
            "lam = 2.0\n")
        assert parse_config_file(str(path)) == {"lam": "2.0", "heads": "8"}

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lam 4.0\n")
        with pytest.raises(ValueError, match="c.cfg:1"):
            parse_config_file(str(path))


class TestBuild:
    def test_coercion_across_types(self):
        cfg = build_config({"lam": "2.5", "heads": "8", "inherit": "true",
                            "student_widths": "4, 8 12,16", "attention_variant": "none"})
        assert cfg.lam == 2.5 and cfg.heads == 8 and cfg.inherit is True
        assert cfg.student_widths == (4, 8, 12, 16)
        assert cfg.attention_variant == "none"

    def test_boolean_spellings(self):
        assert build_config({"inherit": "YES"}).inherit is True
        assert build_config({"inherit": "0"}).inherit is False
        with pytest.raises(ValueError, match="boolean"):
            build_config({"inherit": "maybe"})

    @pytest.mark.parametrize("key,raw,bad", [("heads", "four", "four"), ("lam", "eight", "eight"),
                                             ("inherit", "maybe", "maybe"),
                                             ("teacher_widths", "16, 32, x, 48", "x")],
                             ids=["int", "float", "bool", "tuple"])
    def test_malformed_value_names_its_key(self, key, raw, bad):
        with pytest.raises(ValueError, match=f"config key '{key}': .*'{bad}'"):
            build_config({key: raw})

    def test_load_config_names_the_file_of_a_malformed_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("heads = four\n")
        with pytest.raises(ValueError, match=r"c\.cfg: config key 'heads': .*'four'"):
            load_config(str(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys.*bogus"):
            build_config({"bogus": "1"})

    def test_missing_keys_use_defaults_and_log(self, caplog):
        with caplog.at_level(logging.INFO, logger="condkd"):
            cfg = build_config({"lam": "1.0"})
        assert cfg.lam == 1.0
        assert cfg.heads == ExperimentConfig().heads
        assert any("defaults used" in r.message for r in caplog.records)

    def test_load_config_override_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lam = 4.0\nheads = 8\n")
        cfg = load_config(str(path), overrides={"lam": 1.25})
        assert cfg.lam == 1.25 and cfg.heads == 8


def test_every_module_imports_first_in_a_fresh_interpreter():
    # the modules that read ExperimentConfig import it for annotations only;
    # a runtime import of config from below it would be a cycle, which breaks
    # only when the importer is the first condkd module a process loads
    src = Path(condkd.__file__).resolve().parent
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert "config" in modules and "scenes" in modules
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    for module in modules:
        proc = subprocess.run([sys.executable, "-c", f"import condkd.{module}"], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"import condkd.{module} first:\n{proc.stderr}"
