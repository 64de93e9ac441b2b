"""Self-verification entry points: op-level gradient checks, the routing
audit, and the mini config they run on. The composed-loss finite-difference
sweep is exercised by the acceptance suite (it dominates the runtime)."""

import pytest

from condkd.config import ExperimentConfig
from condkd.losses import _ZERO_CELLS
from condkd.verify import gradcheck_ops, mini_config, routing_audit


class TestMiniConfig:
    def test_is_a_valid_config_with_zero_budgets(self):
        cfg = mini_config()
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.teacher_iters == 0 and cfg.student_iters == 0
        assert cfg.feat_dim % cfg.heads == 0

    def test_overrides_reach_the_config(self):
        cfg = mini_config(seed=7, heads=4)
        assert cfg.seed == 7
        assert cfg.heads == 4

    def test_invalid_override_is_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            mini_config(heads=3)


class TestGradcheckOps:
    def test_every_op_case_passes(self):
        report = gradcheck_ops(seed=0)
        assert report.passed, str(report)
        assert report.worst < report.tol

    def test_one_entry_per_op(self):
        report = gradcheck_ops(seed=0)
        names = [e.param for e in report.entries]
        assert len(names) == len(set(names)) == 30
        assert "matmul" in names and "layernorm_pf" in names
        assert {"linear", "linear_heads", "mlp", "conv2d", "scaled_scores", "attend",
                "weighted_row_mse"} <= set(names)


class TestRoutingAudit:
    def test_correct_wiring_passes(self):
        report = routing_audit(seed=0)
        assert report.passed
        assert not report.violations
        assert report.teacher_frozen
        for cell in (("det", "student"), ("aux", "decoder"), ("aux", "aux"),
                     ("distill", "student")):
            assert report.cells[cell] > 0.0, (cell, str(report))
        assert "PASS" in str(report)

    def test_blocked_cells_are_exactly_zero(self):
        report = routing_audit(seed=0)
        for cell in _ZERO_CELLS:
            assert report.cells[cell] == 0.0

    def test_removing_stop_gradients_fails_the_audit(self):
        report = routing_audit(seed=0, mutated=True)
        assert not report.passed
        leaked = {p for l, g, p, _ in report.violations if l == "distill" and g == "decoder"}
        # the live value projections leak, and so does the masks' own path
        assert any("f_v" in p for p in leaked), str(report)
        assert any("f_v" not in p for p in leaked), str(report)
        assert "FAIL" in str(report)
