"""Detection evaluation: greedy IoU matching and difficulty-binned AP.

Protocol: ground truth is classified into Easy/Moderate/Hard; at evaluation
level L a ground-truth box is *required* when its difficulty is <= L and it
is not DontCare, otherwise it is *ignore*. Detections are matched greedily in
descending score order against the unmatched ground truth with the highest
IoU at or above the threshold, preferring required over ignore boxes. A match
to a required box is a true positive; a match to an ignore box counts neither
way; everything else is a false positive.

AP defaults to the classic 11-point interpolation (mean over recalls
0, 0.1, ..., 1.0 of the maximum precision at or beyond each recall); the
all-point variant integrates the precision envelope over recall instead. A
level with zero required ground truth reports no AP at all rather than 0.0,
distinguishing "nothing to find" from "found nothing".

Every ordering is total (score ties break on box left coordinate, then top),
so results are identical across platforms and worker counts.

Detections, ground truth and results are named tuples: a crowded run builds
thousands of them, and the stage starts up without the ``dataclasses``
machinery.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .errors import ConfigError, ValidationError
from .kitti_labels import CAR_TYPE, DONTCARE_TYPE, Difficulty, classify_difficulty, read_label_dir

DEFAULT_IOU_THRESHOLD = 0.7
LEVELS = (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD)

Box = tuple[float, float, float, float]


class Outcome(enum.Enum):
    TP = "TP"
    FP = "FP"
    IGNORED = "Ignored"


class Detection(NamedTuple):
    box: Box
    score: float


class GroundTruth(NamedTuple):
    box: Box
    difficulty: Difficulty
    dontcare: bool = False

    def required(self, level: Difficulty) -> bool:
        return not self.dontcare and self.difficulty <= level


class LevelResult(NamedTuple):
    ap: Optional[float]
    tp: int
    fp: int
    fn: int
    gt_count: int
    pr_points: list[tuple[float, float]]  # (recall, precision) per counted detection


class EvalReport(NamedTuple):
    iou_threshold: float
    method: str
    levels: dict[Difficulty, LevelResult]


def iou(a: Box, b: Box) -> float:
    """Intersection over union with continuous areas; 0 when disjoint. Boxes
    arrive as :func:`~matrixgt.kitti_labels.parse_labels_text` checked them:
    well-ordered, with a finite positive area."""
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def _score_order(det: Detection) -> tuple:
    """Descending score, ties by box left then top: the order detections are
    matched in and PR points are taken in."""
    return (-det.score, det.box[0], det.box[1])


def match_frame(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_thr: float,
    required: Optional[dict[Difficulty, list[bool]]] = None,
) -> dict[Difficulty, list[tuple[Detection, Outcome]]]:
    """Greedy single-match assignment for one frame at every level: each
    detection with its outcome, in descending-score order. ``required`` is
    :func:`_required_by_level` of ``gts`` where the caller has it already.

    The overlaps are computed once and shared by the levels. A pair whose
    boxes are disjoint on either axis has IoU 0.0, which no threshold in
    (0, 1] accepts, so :func:`iou` runs only for pairs that overlap on both."""
    if required is None:
        required = _required_by_level(gts)
    ordered = sorted(dets, key=_score_order)
    boxes = [g.box for g in gts]
    candidates = []  # per detection: (gt index, IoU) at or above the threshold, index ascending
    for det in ordered:
        box = det.box
        left, top, right, bottom = box
        row = []
        for j, other in enumerate(boxes):
            if other[0] < right and left < other[2] and other[1] < bottom and top < other[3]:
                overlap = iou(box, other)
                if overlap >= iou_thr:
                    row.append((j, overlap))
        candidates.append(row)
    return {level: _greedy_outcomes(ordered, candidates, required[level]) for level in LEVELS}


def _required_by_level(gts: Sequence[GroundTruth]) -> dict[Difficulty, list[bool]]:
    """Per level, whether each ground-truth box is required at it."""
    return {level: [g.required(level) for g in gts] for level in LEVELS}


def _greedy_outcomes(
    ordered: Sequence[Detection], candidates: Sequence[list[tuple[int, float]]], required: Sequence[bool]
) -> list[tuple[Detection, Outcome]]:
    """One level's greedy pass: each detection takes the unmatched box of
    highest IoU, required before ignore, the lowest index on ties."""
    matched = [False] * len(required)
    outcomes = []
    for det, row in zip(ordered, candidates):
        best_required = -1
        best_required_iou = 0.0
        best_ignore = -1
        best_ignore_iou = 0.0
        for j, overlap in row:
            if matched[j]:
                continue
            if required[j]:
                if overlap > best_required_iou:
                    best_required, best_required_iou = j, overlap
            elif overlap > best_ignore_iou:
                best_ignore, best_ignore_iou = j, overlap
        if best_required >= 0:
            matched[best_required] = True
            outcomes.append((det, Outcome.TP))
        elif best_ignore >= 0:
            matched[best_ignore] = True
            outcomes.append((det, Outcome.IGNORED))
        else:
            outcomes.append((det, Outcome.FP))
    return outcomes


def precision_recall_points(
    outcomes: Sequence[tuple[Detection, Outcome]], gt_count: int
) -> list[tuple[float, float]]:
    """Cumulative (recall, precision) after each counted detection, in global
    descending-score order; ignored detections do not contribute points."""
    counted = sorted(
        ((d, o) for d, o in outcomes if o is not Outcome.IGNORED),
        key=lambda pair: _score_order(pair[0]),
    )
    points = []
    tp = fp = 0
    for _, outcome in counted:
        if outcome is Outcome.TP:
            tp += 1
        else:
            fp += 1
        recall = tp / gt_count if gt_count > 0 else 0.0
        points.append((recall, tp / (tp + fp)))
    return points


def average_precision(points: Sequence[tuple[float, float]], gt_count: int, method: str) -> Optional[float]:
    """AP of a :func:`precision_recall_points` curve by 11-point or all-point
    interpolation; None when there is no required ground truth."""
    if gt_count == 0:
        return None
    if method == "11pt":
        total = 0.0
        for i in range(11):
            r = i / 10.0
            total += max((p for rec, p in points if rec >= r), default=0.0)
        return total / 11.0
    if method == "all":
        # integrate the monotone precision envelope over recall; envelope[i]
        # is the best precision at or after point i, one reverse running max
        envelope = list(accumulate((p for _, p in reversed(points)), max))[::-1]
        total = 0.0
        prev_recall = 0.0
        for (recall, _), best in zip(points, envelope):
            if recall == prev_recall:
                continue
            total += (recall - prev_recall) * best
            prev_recall = recall
        return total
    raise ValueError(f"unknown AP method {method!r}; use '11pt' or 'all'")


def evaluate(
    det_dir: str | Path,
    gt_dir: str | Path,
    iou_thr: float = DEFAULT_IOU_THRESHOLD,
    method: str = "11pt",
) -> EvalReport:
    """Evaluate a detection label directory against a ground-truth directory."""
    if not (0.0 < iou_thr <= 1.0):
        raise ConfigError(f"IoU threshold must be in (0, 1], got {iou_thr}")
    det_labels = read_label_dir(det_dir)
    gt_labels = read_label_dir(gt_dir)
    if set(det_labels) != set(gt_labels):
        missing_det = sorted(set(gt_labels) - set(det_labels))
        missing_gt = sorted(set(det_labels) - set(gt_labels))
        raise ValidationError(
            f"frame sets differ: missing in det dir {missing_det}, missing in gt dir {missing_gt}"
        )

    pooled: dict[Difficulty, list[tuple[Detection, Outcome]]] = {level: [] for level in LEVELS}
    gt_counts = dict.fromkeys(LEVELS, 0)
    for frame_id in sorted(gt_labels):
        dets = [
            Detection(label.bbox, 1.0 if label.score is None else label.score)
            for label in det_labels[frame_id]
            if label.type == CAR_TYPE
        ]
        gts = [
            GroundTruth(label.bbox, classify_difficulty(label))
            if label.type == CAR_TYPE
            else GroundTruth(label.bbox, Difficulty.UNKNOWN, dontcare=True)
            for label in gt_labels[frame_id]
            if label.type in (CAR_TYPE, DONTCARE_TYPE)
        ]
        required = _required_by_level(gts)  # decided once per box and level, for matching and counts
        for level, outcomes in match_frame(dets, gts, iou_thr, required).items():
            pooled[level].extend(outcomes)
            gt_counts[level] += sum(required[level])

    levels = {}
    for level, outcomes in pooled.items():
        gt_count = gt_counts[level]
        tp = sum(1 for _, o in outcomes if o is Outcome.TP)
        points = precision_recall_points(outcomes, gt_count)  # one point per TP or FP
        levels[level] = LevelResult(
            ap=average_precision(points, gt_count, method),
            tp=tp,
            fp=len(points) - tp,
            fn=gt_count - tp,
            gt_count=gt_count,
            pr_points=points,
        )
    return EvalReport(iou_threshold=iou_thr, method=method, levels=levels)


def format_ap(ap: Optional[float]) -> str:
    return "n/a" if ap is None else f"{ap:.6f}"


def report_text(report: EvalReport) -> str:
    lines = [
        f"IoU threshold: {report.iou_threshold:g}   AP method: {report.method}",
        f"{'Level':<10}{'AP':>10}{'TP':>8}{'FP':>8}{'FN':>8}{'GT':>8}",
    ]
    for level, result in report.levels.items():
        lines.append(
            f"{level.label:<10}{format_ap(result.ap):>10}"
            f"{result.tp:>8}{result.fp:>8}{result.fn:>8}{result.gt_count:>8}"
        )
    return "\n".join(lines) + "\n"


def report_csv(report: EvalReport) -> str:
    lines = ["level,ap,tp,fp,fn,gt_count"]
    for level, result in report.levels.items():
        lines.append(
            f"{level.label},{format_ap(result.ap)},{result.tp},{result.fp},{result.fn},{result.gt_count}"
        )
    return "\n".join(lines) + "\n"
