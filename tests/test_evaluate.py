"""Box IoU, NMS, 11-point AP, and end-to-end prediction decoding."""

import numpy as np
import pytest

from condkd import scenes as sc
from condkd import tensor as T
from condkd.config import ExperimentConfig
from condkd.evaluate import (
    Detection,
    ap_from_detections,
    box_iou,
    decode_predictions,
    eleven_point_ap,
    evaluate_toy_ap,
    greedy_nms,
)
from condkd.instances import make_instance
from condkd.pyramid import ToyDetector
from condkd.scenes import SceneStream
from condkd.tensor import ParamGroup

TINY = ExperimentConfig(image_size=16, num_classes=2, feat_dim=4)


def tiny_detector():
    return ToyDetector(TINY, (2, 2, 3, 3), ParamGroup("teacher"), np.random.default_rng(0))


class TestBoxIou:
    def test_identical_boxes(self):
        assert box_iou((0, 0, 1, 1), (0, 0, 1, 1)) == 1.0

    def test_disjoint_boxes(self):
        assert box_iou((0, 0, 0.4, 0.4), (0.5, 0.5, 1, 1)) == 0.0

    def test_half_overlap(self):
        assert abs(box_iou((0, 0, 1, 1), (0, 0, 0.5, 1)) - 0.5) < 1e-12


class TestNms:
    def test_keeps_higher_score_of_heavy_overlap(self):
        a = Detection(0, (0, 0, 1, 1), 0.9)
        b = Detection(0, (0.02, 0, 1, 1), 0.8)
        assert greedy_nms([b, a]) == [a]

    def test_keeps_separated_boxes(self):
        a = Detection(0, (0, 0, 0.4, 0.4), 0.9)
        b = Detection(0, (0.6, 0.6, 1, 1), 0.8)
        assert greedy_nms([a, b]) == [a, b]

    def test_empty(self):
        assert greedy_nms([]) == []


class TestElevenPointAp:
    def test_perfect_detections(self):
        assert eleven_point_ap(np.array([1.0, 1.0]), 2) == 1.0

    def test_no_detections(self):
        assert eleven_point_ap(np.array([]), 2) == 0.0

    def test_one_of_two_found(self):
        # recall tops out at 0.5 with precision 1: six of the eleven recall
        # points {0.0 .. 0.5} see precision 1, the rest see 0
        assert abs(eleven_point_ap(np.array([1.0]), 2) - 6.0 / 11.0) < 1e-12

    def test_interleaved_false_positive(self):
        # [TP, FP, TP] over 2 GT: precision at full recall is 2/3
        want = (6 * 1.0 + 5 * (2.0 / 3.0)) / 11.0
        assert abs(eleven_point_ap(np.array([1.0, 0.0, 1.0]), 2) - want) < 1e-12

    def test_duplicate_detection_is_a_false_positive(self):
        assert abs(eleven_point_ap(np.array([1.0, 0.0]), 2) - 6.0 / 11.0) < 1e-12


def one_box(category, x1, y1, x2, y2, image=64):
    """The instances of a scene holding one pixel-aligned box."""
    return [make_instance(category, (x1 + x2) / 2 / image, (y1 + y2) / 2 / image,
                          (x2 - x1) / image, (y2 - y1) / image, image, image)]


class TestApFromDetections:
    def test_exact_predictions_score_one(self):
        truth = [one_box(0, 8, 8, 24, 24), one_box(1, 4, 4, 30, 40)]
        dets = [[Detection(0, truth[0][0].corners(), 0.9)],
                [Detection(1, truth[1][0].corners(), 0.8)]]
        assert ap_from_detections(dets, truth, 3) == 1.0

    def test_no_predictions_score_zero(self):
        assert ap_from_detections([[]], [one_box(0, 8, 8, 24, 24)], 3) == 0.0

    def test_detection_cannot_match_across_scenes(self):
        truth = [one_box(0, 8, 8, 24, 24), one_box(0, 8, 8, 24, 24)]
        box = truth[0][0].corners()
        dets = [[Detection(0, box, 0.9), Detection(0, box, 0.8)], []]
        # second duplicate in scene 0 is a FP; scene 1's box is never found
        assert abs(ap_from_detections(dets, truth, 3) - 6.0 / 11.0) < 1e-12

    def test_wrong_class_never_matches(self):
        truth = [one_box(0, 8, 8, 24, 24)]
        dets = [[Detection(1, truth[0][0].corners(), 0.9)]]
        assert ap_from_detections(dets, truth, 3) == 0.0

    def test_classes_without_gt_are_excluded_from_the_mean(self):
        truth = [one_box(2, 8, 8, 24, 24)]
        dets = [[Detection(2, truth[0][0].corners(), 0.9)]]
        assert ap_from_detections(dets, truth, 3) == 1.0

    def test_loose_match_threshold_accepts_shifted_box(self):
        truth = [one_box(0, 8, 8, 24, 24)]
        x1, y1, x2, y2 = truth[0][0].corners()
        shifted = (x1 + 0.02, y1, x2 + 0.02, y2)
        dets = [[Detection(0, shifted, 0.9)]]
        assert ap_from_detections(dets, truth, 3, match_iou=0.5) == 1.0
        assert ap_from_detections(dets, truth, 3, match_iou=0.95) == 0.0


class TestDecodePredictions:
    def test_fresh_detector_emits_nothing(self):
        # zero-initialized biases put every class probability at exactly 0.5,
        # below the strict threshold
        det = tiny_detector()
        for lin in (det.head_out,):
            lin.weight.data[...] = 0.0
        img = T.constant(np.random.default_rng(1).normal(size=(16, 16, 3)))
        assert decode_predictions(det, img) == []

    def test_forced_logit_produces_box_at_cell_center(self):
        det = tiny_detector()
        det.head_out.weight.data[...] = 0.0
        det.head_out.bias.data[...] = [4.0, -4.0, 0.0, 0.0, 0.0, 0.0]
        img = T.constant(np.zeros((16, 16, 3)))
        dets = decode_predictions(det, img)
        assert dets and all(d.category == 0 for d in dets)
        # ltrb = exp(0) * stride/image on every side
        d = dets[0]
        w = d.box[2] - d.box[0]
        assert w == pytest.approx(2 * 8 / 16)

    def test_end_to_end_ap_on_fresh_detector_is_zero(self, monkeypatch):
        monkeypatch.setattr(sc, "SIZE_MEANS", (10.0, 8.0, 12.0))  # boxes sized for 32 px
        monkeypatch.setattr(sc, "SIZE_STDS", (2.0, 1.5, 2.0))
        cfg = ExperimentConfig(image_size=32, feat_dim=8)
        scenes = SceneStream(cfg, (2,), 3)
        det = ToyDetector(cfg, (4, 6, 8, 8), ParamGroup("teacher"), np.random.default_rng(3))
        det.head_out.weight.data[...] = 0.0
        assert evaluate_toy_ap(det, scenes) == 0.0

    def test_requires_scenes(self):
        det = tiny_detector()
        with pytest.raises(ValueError, match="scene"):
            evaluate_toy_ap(det, [])
