import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import brute_ap_11pt, brute_ap_all, brute_match_frame

from matrixgt import evaluator as ev
from matrixgt import kitti_labels as kl
from matrixgt.errors import ValidationError
from matrixgt.kitti_labels import Difficulty


def det(box, score=1.0):
    return ev.Detection(box=box, score=score)


def gt(box, difficulty=Difficulty.EASY, dontcare=False):
    return ev.GroundTruth(box=box, difficulty=difficulty, dontcare=dontcare)


def ap(outcomes, gt_count, method="11pt"):
    return ev.average_precision(ev.precision_recall_points(outcomes, gt_count), gt_count, method)


class TestIoU:
    def test_identical(self):
        assert ev.iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert ev.iou((0, 0, 10, 10), (20, 0, 30, 10)) == 0.0

    def test_third_overlap(self):
        assert ev.iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_third_overlap_against_grid_counting_oracle(self):
        a, b = (0.0, 0.0, 10.0, 10.0), (5.0, 0.0, 15.0, 10.0)
        step = 0.01
        inter = union = 0
        y = step / 2
        while y < 10.0:
            x = step / 2
            while x < 15.0:
                in_a = a[0] <= x <= a[2] and a[1] <= y <= a[3]
                in_b = b[0] <= x <= b[2] and b[1] <= y <= b[3]
                inter += in_a and in_b
                union += in_a or in_b
                x += step
            y += step
        assert ev.iou(a, b) == pytest.approx(inter / union, abs=1e-3)


class TestMatchFrame:
    def test_single_tp(self):
        outcomes = ev.match_frame([det((0, 0, 10, 10))], [gt((1, 0, 11, 10))], 0.7)[Difficulty.EASY]
        assert outcomes[0][1] is ev.Outcome.TP

    def test_second_detection_is_fp(self):
        dets = [det((0, 0, 10, 10), score=0.9), det((0.5, 0, 10.5, 10), score=0.8)]
        outcomes = ev.match_frame(dets, [gt((0, 0, 10, 10))], 0.7)[Difficulty.EASY]
        assert [o for _, o in outcomes] == [ev.Outcome.TP, ev.Outcome.FP]

    def test_harder_gt_ignored_at_easy(self):
        by_level = ev.match_frame([det((0, 0, 10, 10))], [gt((0, 0, 10, 10), difficulty=Difficulty.HARD)], 0.7)
        assert by_level[Difficulty.EASY][0][1] is ev.Outcome.IGNORED
        assert by_level[Difficulty.HARD][0][1] is ev.Outcome.TP

    def test_dontcare_ignored_everywhere(self):
        by_level = ev.match_frame([det((0, 0, 10, 10))], [gt((0, 0, 10, 10), dontcare=True)], 0.7)
        assert list(by_level) == [Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD]
        for outcomes in by_level.values():
            assert outcomes[0][1] is ev.Outcome.IGNORED

    def test_prefers_required_over_ignore(self):
        gts = [gt((0, 0, 10, 10), dontcare=True), gt((0.5, 0, 10.5, 10))]
        # the top detection overlaps the DontCare box best but takes the
        # required one, which leaves the DontCare box to the second detection
        dets = [det((0, 0, 10, 10), score=0.9), det((0, 0, 10, 10), score=0.5)]
        outcomes = ev.match_frame(dets, gts, 0.7)[Difficulty.EASY]
        assert [o for _, o in outcomes] == [ev.Outcome.TP, ev.Outcome.IGNORED]

    def test_low_iou_is_fp(self):
        outcomes = ev.match_frame([det((0, 0, 10, 10))], [gt((8, 0, 18, 10))], 0.7)[Difficulty.EASY]
        assert outcomes[0][1] is ev.Outcome.FP

    def test_score_order_drives_matching(self):
        dets = [det((0.5, 0, 10.5, 10), score=0.5), det((0, 0, 10, 10), score=0.9)]
        outcomes = ev.match_frame(dets, [gt((0, 0, 10, 10))], 0.7)[Difficulty.EASY]
        assert outcomes[0][0].score == 0.9 and outcomes[0][1] is ev.Outcome.TP
        assert outcomes[1][1] is ev.Outcome.FP

    def test_shared_edge_never_matches(self):
        # IoU of boxes that only share an edge is 0.0, below every threshold
        gts = [gt((10, 0, 20, 10)), gt((0, 10, 10, 20))]
        for thr in (5e-324, 0.7, 1.0):
            for outcomes in ev.match_frame([det((0, 0, 10, 10))], gts, thr).values():
                assert [o for _, o in outcomes] == [ev.Outcome.FP]

    def test_equal_iou_tie_takes_lowest_index(self):
        # the top detection overlaps both boxes with the same IoU (9/11) and
        # takes gts[0]; the second detection then only meets gts[1], whose
        # IoU with it (2/3) is below the threshold
        dets = [det((0, 0, 10, 10), score=0.9), det((1, 0, 11, 10), score=0.8)]
        gts = [gt((1, 0, 11, 10)), gt((-1, 0, 9, 10))]
        outcomes = ev.match_frame(dets, gts, 0.7)[Difficulty.EASY]
        assert [o for _, o in outcomes] == [ev.Outcome.TP, ev.Outcome.FP]
        outcomes = ev.match_frame(dets, gts[::-1], 0.7)[Difficulty.EASY]
        assert [o for _, o in outcomes] == [ev.Outcome.TP, ev.Outcome.TP]


class TestAveragePrecision:
    def test_single_tp(self):
        outcomes = [(det((0, 0, 10, 10), 1.0), ev.Outcome.TP)]
        assert ap(outcomes, 1) == 1.0

    def test_zero_detections(self):
        assert ap([], 3) == 0.0

    def test_absent_when_no_required_gt(self):
        assert ap([], 0) is None

    def test_tp_then_fp_is_perfect_11pt(self):
        outcomes = [
            (det((0, 0, 10, 10), 0.9), ev.Outcome.TP),
            (det((20, 0, 30, 10), 0.8), ev.Outcome.FP),
        ]
        assert ap(outcomes, 1, method="11pt") == 1.0
        assert ap(outcomes, 1, method="all") == 1.0

    def test_fp_then_tp(self):
        outcomes = [
            (det((20, 0, 30, 10), 0.9), ev.Outcome.FP),
            (det((0, 0, 10, 10), 0.8), ev.Outcome.TP),
        ]
        # PR points: (0, 0.0), (1.0, 0.5) -> every recall level sees max 0.5
        assert ap(outcomes, 1, method="11pt") == pytest.approx(0.5)
        assert ap(outcomes, 1, method="all") == pytest.approx(0.5)

    def test_ignored_outcomes_excluded(self):
        outcomes = [
            (det((50, 0, 60, 10), 0.95), ev.Outcome.IGNORED),
            (det((0, 0, 10, 10), 0.9), ev.Outcome.TP),
        ]
        assert ap(outcomes, 1) == 1.0

    def test_score_transform_invariance(self):
        random.seed(4)
        outcomes = []
        for k in range(30):
            kind = ev.Outcome.TP if random.random() < 0.6 else ev.Outcome.FP
            outcomes.append((det((k, 0, k + 10, 10), random.random()), kind))
        n_required = sum(1 for _, o in outcomes if o is ev.Outcome.TP) + 3
        base = ap(outcomes, n_required)
        squashed = [(det(d.box, d.score**3 + 1.0), o) for d, o in outcomes]
        assert ap(squashed, n_required) == pytest.approx(base, abs=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ap([], 1, method="area")

    def test_adding_detection_never_decreases_prefix_tps(self):
        gts = [gt((0, 0, 10, 10)), gt((30, 0, 40, 10))]
        base_dets = [det((0, 0, 10, 10), score=0.9)]
        extra = det((30, 0, 40, 10), score=0.5)  # sorts after every base det
        base_outcomes = ev.match_frame(base_dets, gts, 0.7)[Difficulty.EASY]
        more_outcomes = ev.match_frame(base_dets + [extra], gts, 0.7)[Difficulty.EASY]
        # the shared prefix keeps its outcomes; gt count is unaffected by dets
        assert more_outcomes[: len(base_outcomes)] == base_outcomes
        assert sum(1 for g in gts if g.required(Difficulty.EASY)) == 2

    def test_agrees_with_brute_force_random(self):
        rng = random.Random(99)
        for _ in range(200):
            n_gt = rng.randint(1, 8)
            rows = []
            outcomes = []
            for k in range(rng.randint(0, 10)):
                is_tp = rng.random() < 0.5
                score = round(rng.random(), 2)  # deliberate ties
                box = (rng.uniform(0, 50), rng.uniform(0, 50), 60.0 + k, 60.0 + k)
                rows.append((score, box[0], box[1], is_tp))
                outcomes.append((det(box, score), ev.Outcome.TP if is_tp else ev.Outcome.FP))
            expected = brute_ap_11pt(rows, n_gt)
            assert ap(outcomes, n_gt) == pytest.approx(expected, abs=1e-12)

    def test_all_point_matches_quadratic_reference_bit_for_bit(self):
        rng = random.Random(2024)
        for _ in range(300):
            n_gt = rng.randint(1, 40)
            outcomes = [
                (det((k, 0, k + 10, 10), round(rng.random(), 1)),
                 ev.Outcome.TP if rng.random() < 0.4 else ev.Outcome.FP)
                for k in range(rng.randint(0, 60))
            ]
            # FPs repeat the previous recall, so every curve with one has ties
            points = ev.precision_recall_points(outcomes, n_gt)
            assert ev.average_precision(points, n_gt, "all") == brute_ap_all(points)
            # arbitrary curves: runs of tied recalls, precision free to rise
            recall, raw = 0.0, []
            for _ in range(rng.randint(1, 50)):
                recall += rng.choice((0.0, 0.0, rng.random() / 10))
                raw.append((recall, rng.random()))
            assert ev.average_precision(raw, n_gt, "all") == brute_ap_all(raw)


class TestMatchAgainstBruteForce:
    def test_random_micro_frames(self):
        rng = random.Random(2024)
        for trial in range(300):
            thr = (0.7, 1.0, 5e-324)[trial % 3]
            gts = []
            for _ in range(rng.randint(0, 6)):
                if gts and rng.random() < 0.15:
                    box = rng.choice(gts).box  # a duplicate ground-truth box
                else:
                    left, top = rng.uniform(0, 80), rng.uniform(0, 80)
                    box = (left, top, left + rng.uniform(5, 30), top + rng.uniform(5, 30))
                gts.append(gt(box, difficulty=Difficulty(rng.randint(0, 3)), dontcare=rng.random() < 0.15))
            dets = []
            for _ in range(rng.randint(0, 6)):
                roll = rng.random()
                if gts and roll < 0.2:
                    box = rng.choice(gts).box  # IoU exactly 1.0
                elif gts and roll < 0.35:
                    left, top, right, bottom = rng.choice(gts).box
                    box = (right, top, right + rng.uniform(5, 30), bottom)  # shares the right edge exactly
                elif gts and roll < 0.7:
                    seed_box = rng.choice(gts).box
                    jitter = rng.uniform(-3, 3)
                    box = (seed_box[0] + jitter, seed_box[1], seed_box[2] + jitter, seed_box[3])
                else:
                    left, top = rng.uniform(0, 80), rng.uniform(0, 80)
                    box = (left, top, left + rng.uniform(5, 30), top + rng.uniform(5, 30))
                dets.append(det(box, score=round(rng.random(), 2)))
            by_level = ev.match_frame(dets, gts, thr)
            assert list(by_level) == [Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD]
            for level, outcomes in by_level.items():
                reference = brute_match_frame(
                    [{"box": d.box, "score": d.score} for d in dets],
                    [{"box": g.box, "difficulty": int(g.difficulty), "dontcare": g.dontcare} for g in gts],
                    thr,
                    int(level),
                )
                assert [d for d, _ in outcomes] == [dets[i] for i, _ in reference]
                assert [o.value for _, o in outcomes] == [o for _, o in reference]


class TestEvaluateDirectories:
    def _write(self, directory, frames):
        directory.mkdir(parents=True, exist_ok=True)
        for frame_idx, labels in frames.items():
            kl.write_labels(labels, kl.label_path(directory, frame_idx))

    def _car(self, box, height=None, score=None):
        left, top, right, bottom = box
        return kl.KittiLabel(
            type="Car", truncated=0.0, occluded=0, alpha=0.0, bbox=box,
            dimensions=(1.5, 1.8, 4.2), location=(0.0, 1.6, 20.0), rotation_y=0.0, score=score,
        )

    def test_iou_runs_once_per_pair_overlapping_on_both_axes(self, tmp_path, monkeypatch):
        dontcare = kl.KittiLabel(
            type="DontCare", truncated=-1.0, occluded=-1, alpha=-10.0, bbox=(0, 0, 40, 30),
            dimensions=(-1.0, -1.0, -1.0), location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0,
        )
        gt_frames = {
            0: [self._car((100, 100, 180, 160)), self._car((300, 120, 360, 150)), dontcare],
            1: [self._car((50, 50, 120, 110))],
        }
        det_frames = {
            0: [
                self._car((105, 100, 185, 160), score=0.9),  # overlaps the first car
                self._car((180, 100, 240, 160), score=0.8),  # shares its right edge
                self._car((300, 150, 360, 200), score=0.7),  # shares the second car's bottom edge
                self._car((20, 10, 60, 40), score=0.6),  # overlaps the DontCare box
                self._car((500, 300, 560, 350), score=0.5),  # disjoint on both axes
            ],
            1: [
                self._car((60, 55, 130, 115), score=0.9),  # overlaps
                self._car((200, 50, 260, 110), score=0.8),  # overlaps on y only
                self._car((50, 200, 120, 260), score=0.7),  # overlaps on x only
            ],
        }
        self._write(tmp_path / "gt", gt_frames)
        self._write(tmp_path / "det", det_frames)
        calls = []
        real_iou = ev.iou

        def counted_iou(a, b):
            calls.append((a, b))
            return real_iou(a, b)

        monkeypatch.setattr(ev, "iou", counted_iou)
        ev.evaluate(tmp_path / "det", tmp_path / "gt")

        def overlaps(a, b):
            return min(a[2], b[2]) > max(a[0], b[0]) and min(a[3], b[3]) > max(a[1], b[1])

        pairs = [
            (d.bbox, g.bbox) for frame in gt_frames for d in det_frames[frame] for g in gt_frames[frame]
        ]
        expected = [(d, g) for d, g in pairs if overlaps(d, g)]
        assert len(expected) == 3 and len(pairs) == 18
        assert sorted(calls) == sorted(expected)

    def test_self_evaluation_is_perfect(self, tmp_path):
        frames = {
            0: [self._car((100, 100, 180, 160)), self._car((300, 120, 360, 150))],
            1: [self._car((50, 50, 120, 110))],
        }
        self._write(tmp_path / "gt", frames)
        report = ev.evaluate(tmp_path / "gt", tmp_path / "gt")
        for result in report.levels.values():
            if result.gt_count:
                assert result.ap == 1.0
                assert result.fp == 0 and result.fn == 0

    def test_empty_det_dir_zero_ap(self, tmp_path):
        self._write(tmp_path / "gt", {0: [self._car((100, 100, 180, 160))]})
        self._write(tmp_path / "det", {0: []})
        report = ev.evaluate(tmp_path / "det", tmp_path / "gt")
        assert report.levels[Difficulty.EASY].ap == 0.0
        assert report.levels[Difficulty.EASY].fn == 1

    def test_ap_absent_without_required_gt(self, tmp_path):
        # 20 px tall box classifies as UNKNOWN: no required GT anywhere
        self._write(tmp_path / "gt", {0: [self._car((100, 100, 130, 120))]})
        self._write(tmp_path / "det", {0: []})
        report = ev.evaluate(tmp_path / "det", tmp_path / "gt")
        for result in report.levels.values():
            assert result.ap is None and result.gt_count == 0

    def test_frame_set_mismatch(self, tmp_path):
        self._write(tmp_path / "gt", {0: [], 1: []})
        self._write(tmp_path / "det", {0: []})
        with pytest.raises(ValidationError, match="000001"):
            ev.evaluate(tmp_path / "det", tmp_path / "gt")

    def test_difficulty_binning_in_report(self, tmp_path):
        easy = self._car((100, 100, 180, 160))  # h=60
        moderate = kl.KittiLabel(type="Car", truncated=0.2, occluded=1, alpha=0.0,
                                 bbox=(10, 10, 60, 45), dimensions=(1.5, 1.8, 4.2),
                                 location=(0.0, 1.6, 30.0), rotation_y=0.0)  # h=35
        self._write(tmp_path / "gt", {0: [easy, moderate]})
        self._write(tmp_path / "det", {0: [easy, moderate]})
        report = ev.evaluate(tmp_path / "det", tmp_path / "gt")
        assert report.levels[Difficulty.EASY].gt_count == 1
        assert report.levels[Difficulty.MODERATE].gt_count == 2
        assert report.levels[Difficulty.HARD].gt_count == 2
        assert all(r.ap == 1.0 for r in report.levels.values())

    def test_report_text_and_csv(self, tmp_path):
        self._write(tmp_path / "gt", {0: [self._car((100, 100, 180, 160))]})
        report = ev.evaluate(tmp_path / "gt", tmp_path / "gt", iou_thr=0.5)
        text = ev.report_text(report)
        assert "0.5" in text and "Easy" in text
        csv = ev.report_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "level,ap,tp,fp,fn,gt_count"
        assert lines[1].startswith("Easy,1.000000,1,0,0,1")

    def test_csv_na_for_absent_ap(self, tmp_path):
        self._write(tmp_path / "gt", {0: []})
        report = ev.evaluate(tmp_path / "gt", tmp_path / "gt")
        assert "Easy,n/a,0,0,0,0" in ev.report_csv(report)


def test_import_leaves_numpy_unloaded():
    """The evaluator is pure Python, so the evaluate stage need not load numpy."""
    env = {**os.environ, "PYTHONPATH": str(Path(ev.__file__).parents[1])}
    code = "import sys, matrixgt.evaluator; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
