"""Toy detection metric: decode dense predictions, greedy NMS, and 11-point
interpolated average precision, averaged over classes that have ground truth.

Absolute values are not comparable across datasets or to COCO-style mAP; the
harness only ever compares them between runs on identical scene sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pyramid import ToyDetector, layout
from .scenes import Scene

SCORE_THRESH = 0.5  # a class score above this makes a cell a candidate
NMS_IOU = 0.5  # greedy NMS drops overlaps strictly above this


@dataclass
class Detection:
    category: int
    box: tuple[float, float, float, float]  # x1, y1, x2, y2 normalized
    score: float


def box_iou(a, b) -> float:
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def greedy_nms(dets: list[Detection]) -> list[Detection]:
    """Keep highest-scoring boxes, dropping overlaps strictly above NMS_IOU."""
    kept: list[Detection] = []
    for d in sorted(dets, key=lambda d: -d.score):
        if all(box_iou(d.box, k.box) <= NMS_IOU for k in kept):
            kept.append(d)
    return kept


def decode_predictions(det: ToyDetector, image) -> list[Detection]:
    """Dense head outputs to boxes: sigmoid class scores above SCORE_THRESH
    become candidates at their cell center, then per-class NMS."""
    preds = det.det_head_forward(det.backbone_forward(image))
    centers = layout(det.cfg.image_size).centers
    logits = np.concatenate([lg.data for _, lg, _ in preds.levels])
    sides = np.concatenate([lt.data for _, _, lt in preds.levels])
    probs = 1.0 / (1.0 + np.exp(-logits))
    out: list[Detection] = []
    for r, c in zip(*np.nonzero(probs > SCORE_THRESH)):
        cx, cy = centers[r]
        l, t, rr, b = sides[r]
        out.append(Detection(int(c), (cx - l, cy - t, cx + rr, cy + b), float(probs[r, c])))
    merged: list[Detection] = []
    for c in sorted({d.category for d in out}):
        merged.extend(greedy_nms([d for d in out if d.category == c]))
    return merged


def eleven_point_ap(matched: np.ndarray, num_gt: int) -> float:
    """AP over recall points {0.0, 0.1, ..., 1.0}; `matched` holds the
    true-positive flags of detections already sorted by descending score."""
    if num_gt == 0:
        return 0.0
    if matched.size == 0:
        return 0.0
    tp = np.cumsum(matched)
    fp = np.cumsum(1 - matched)
    recall = tp / num_gt
    precision = tp / (tp + fp)
    total = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        mask = recall >= r - 1e-12
        total += precision[mask].max() if mask.any() else 0.0
    return total / 11.0


def ap_from_detections(per_scene: list[list[Detection]], scenes: list[Scene],
                       num_classes: int, match_iou: float = 0.5) -> float:
    """Mean per-class 11-point AP over classes with at least one GT box.

    Detections match greedily in descending score order, each GT box at most
    once, at IoU >= match_iou within their own scene."""
    aps = []
    for c in range(num_classes):
        gt = [(i, inst) for i, s in enumerate(scenes)
              for inst in s.instances if inst.category == c]
        if not gt:
            continue
        dets = [(d.score, i, d.box) for i, ds in enumerate(per_scene)
                for d in ds if d.category == c]
        dets.sort(key=lambda t: -t[0])
        taken = set()
        matched = np.zeros(len(dets))
        for k, (_, scene_i, box) in enumerate(dets):
            best, best_j = 0.0, -1
            for j, (gt_i, inst) in enumerate(gt):
                if gt_i != scene_i or j in taken:
                    continue
                v = box_iou(box, inst.corners())
                if v > best:
                    best, best_j = v, j
            if best_j >= 0 and best >= match_iou:
                taken.add(best_j)
                matched[k] = 1.0
        aps.append(eleven_point_ap(matched, len(gt)))
    return float(np.mean(aps)) if aps else 0.0


def evaluate_toy_ap(det: ToyDetector, scenes: list[Scene]) -> float:
    """toy-AP@0.5 of `det` on `scenes`."""
    if not scenes:
        raise ValueError("need at least one scene to evaluate")
    per_scene = [decode_predictions(det, s.image) for s in scenes]
    return ap_from_detections(per_scene, scenes, det.cfg.num_classes)
