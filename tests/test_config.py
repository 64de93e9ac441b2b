"""Experiment config: validation, file parsing, coercion, derived specs."""

import logging

import pytest

from condkd.config import ExperimentConfig, build_config, load_config, parse_config_file


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

    @pytest.mark.parametrize("strides", [(4, 8), (16, 8), (8,), (8, 16, 32)])
    def test_strides_other_than_the_wired_pair_rejected(self, strides):
        with pytest.raises(ValueError, match="strides"):
            ExperimentConfig(strides=strides)
        with pytest.raises(ValueError, match="strides"):
            build_config({"strides": " ".join(map(str, strides))})


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
                            "strides": "8, 16", "attention_variant": "none"})
        assert cfg.lam == 2.5 and cfg.heads == 8 and cfg.inherit is True
        assert cfg.strides == (8, 16)
        assert cfg.attention_variant == "none"

    def test_boolean_spellings(self):
        assert build_config({"inherit": "YES"}).inherit is True
        assert build_config({"inherit": "0"}).inherit is False
        with pytest.raises(ValueError, match="boolean"):
            build_config({"inherit": "maybe"})

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


class TestDerivedSpecs:
    def test_detector_configs_share_everything_but_widths(self):
        cfg = ExperimentConfig()
        t, s = cfg.teacher_config(), cfg.student_config()
        assert t.widths == cfg.teacher_widths and s.widths == cfg.student_widths
        assert t.image_size == s.image_size == cfg.image_size
        assert t.feat_dim == s.feat_dim == cfg.feat_dim

    def test_encoder_spec_tracks_config(self):
        cfg = ExperimentConfig(jitter=0.2, enc_pos_dim=8)
        spec = cfg.encoder_spec()
        assert spec.jitter == 0.2 and spec.pos_dim == 8
        assert spec.num_classes == cfg.num_classes

    def test_scene_spec_extends_palette_to_class_count(self):
        cfg = ExperimentConfig(num_classes=5)
        spec = cfg.scene_spec()
        assert len(spec.size_means) == 5
        assert spec.size_means[3] == spec.size_means[0]
