import numpy as np
import pytest

from matrixgt import dataset_stats as stats
from matrixgt import kitti_labels as kl
from matrixgt.errors import ConfigError
from matrixgt.rng import Xorshift64Star


def car_at(cx, cy, w=20.0, h=30.0, occluded=0):
    return kl.KittiLabel(
        type="Car", truncated=0.0, occluded=occluded, alpha=0.0,
        bbox=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
        dimensions=(1.5, 1.8, 4.2), location=(0.0, 1.6, 20.0), rotation_y=0.0,
    )


def dontcare(cx, cy):
    return kl.KittiLabel(
        type="DontCare", truncated=-1.0, occluded=-1, alpha=-10.0,
        bbox=(cx - 5, cy - 5, cx + 5, cy + 5),
        dimensions=(-1.0, -1.0, -1.0), location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0,
    )


def write_frames(directory, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for frame_idx, labels in frames.items():
        kl.write_labels(labels, kl.label_path(directory, frame_idx))


class TestHeatmap:
    def test_center_cell(self, tmp_path):
        write_frames(tmp_path, {0: [car_at(320.0, 240.0)]})
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(3, 3))
        assert counts[1][1] == 1
        assert sum(map(sum, counts)) == 1

    def test_empty_dataset(self, tmp_path):
        write_frames(tmp_path, {0: [], 1: []})
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(4, 4))
        assert counts == [[0] * 4 for _ in range(4)]

    def test_dontcare_excluded(self, tmp_path):
        write_frames(tmp_path, {0: [car_at(100, 100), dontcare(500, 400)]})
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(2, 2))
        assert sum(map(sum, counts)) == 1

    def test_boundary_goes_to_lower_cell(self, tmp_path):
        # centroid exactly on the 320 px boundary of a 2-column grid
        write_frames(tmp_path, {0: [car_at(320.0, 100.0)]})
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(2, 1))
        assert counts == [[1, 0]]

    def test_outside_centroid_clamped_and_tallied(self, tmp_path):
        write_frames(tmp_path, {0: [car_at(700.0, 240.0), car_at(-30.0, 240.0)]})
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(4, 2))
        assert sum(row[3] for row in counts) == 1 and sum(row[0] for row in counts) == 1
        assert sum(map(sum, counts)) == 2

    def test_huge_finite_centroid_clamps_to_border_cell(self, tmp_path):
        # the centroid is finite, but centroid * cols overflows a float
        huge = car_at(0.0, 240.0)._replace(bbox=(7e307, 200.0, 9e307, 201.0))
        write_frames(tmp_path, {0: [huge]})
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(4, 2))
        assert counts == [[0, 0, 0, 1], [0, 0, 0, 0]]

    def test_conservation(self, tmp_path):
        rng = Xorshift64Star(5)
        frames = {}
        boxes = 0
        for frame_idx in range(12):
            labels = [car_at(rng.uniform(20, 620), rng.uniform(20, 460)) for _ in range(rng.randint(0, 6))]
            boxes += len(labels)
            frames[frame_idx] = labels
        write_frames(tmp_path, frames)
        counts = stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480))
        assert sum(map(sum, counts)) == boxes

    def test_uniform_multinomial_3sigma(self, tmp_path):
        rng = Xorshift64Star(20260809)
        frames = {}
        per_frame = 100
        for frame_idx in range(100):
            frames[frame_idx] = [
                car_at(rng.uniform(0.0, 640.0), rng.uniform(0.0, 480.0)) for _ in range(per_frame)
            ]
        write_frames(tmp_path, frames)
        counts = np.array(stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(4, 4)))
        n = 100 * per_frame
        p = 1.0 / 16.0
        sigma = (n * p * (1 - p)) ** 0.5
        assert counts.sum() == n
        assert np.all(np.abs(counts - n * p) <= 3.0 * sigma)

    def test_invalid_grid(self, tmp_path):
        write_frames(tmp_path, {0: []})
        with pytest.raises(ConfigError):
            stats.centroid_heatmap(kl.read_label_dir(tmp_path), (640, 480), grid=(0, 3))


class TestHistogram:
    def test_examples(self, tmp_path):
        write_frames(tmp_path, {
            0: [car_at(100, 100), car_at(200, 100)],
            1: [car_at(100, 100), car_at(200, 100)],
            2: [car_at(100, 100), car_at(200, 100), car_at(300, 100)],
        })
        assert stats.detections_histogram(kl.read_label_dir(tmp_path)) == {2: 2, 3: 1}

    def test_empty_dataset(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        assert stats.detections_histogram(kl.read_label_dir(tmp_path)) == {}

    def test_zero_label_frames_counted(self, tmp_path):
        write_frames(tmp_path, {0: [], 1: [car_at(50, 50)]})
        assert stats.detections_histogram(kl.read_label_dir(tmp_path)) == {0: 1, 1: 1}

    def test_partition_law(self, tmp_path):
        rng = Xorshift64Star(11)
        frames = {i: [car_at(rng.uniform(20, 620), 240)] * rng.randint(0, 4) for i in range(9)}
        write_frames(tmp_path, frames)
        histogram = stats.detections_histogram(kl.read_label_dir(tmp_path))
        assert sum(histogram.values()) == 9


class TestSummary:
    def test_empty(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        summary = stats.dataset_summary(kl.read_label_dir(tmp_path))
        assert summary.frames == 0 and summary.car_boxes == 0
        assert summary.mean_boxes_per_frame == 0.0

    def test_counts_and_difficulty_partition(self, tmp_path):
        write_frames(tmp_path, {
            0: [car_at(100, 100, h=60.0), car_at(300, 100, h=30.0, occluded=1)],
            1: [car_at(100, 100, h=10.0), dontcare(50, 50)],
        })
        summary = stats.dataset_summary(kl.read_label_dir(tmp_path))
        assert summary.frames == 2
        assert summary.car_boxes == 3
        assert sum(summary.difficulty_counts.values()) == 3
        assert summary.difficulty_counts[kl.Difficulty.EASY] == 1
        assert summary.difficulty_counts[kl.Difficulty.MODERATE] == 1
        assert summary.difficulty_counts[kl.Difficulty.UNKNOWN] == 1
        assert summary.mean_boxes_per_frame == pytest.approx(1.5)


class TestOutputs:
    def test_write_stats_files(self, tmp_path):
        labels = tmp_path / "labels"
        write_frames(labels, {0: [car_at(320, 240)], 1: []})
        out = tmp_path / "stats"
        stats.write_stats(labels, out, image_size=(640, 480), grid=(4, 3))
        assert (out / "heatmap.pgm").read_bytes().startswith(b"P5\n4 3\n255\n")
        csv = (out / "heatmap.csv").read_text().strip().splitlines()
        assert csv[0] == "row,col,count"
        assert len(csv) == 1 + 12
        assert (out / "detections_hist.csv").read_text() == "n,frames\n0,1\n1,1\n"
        summary = (out / "summary.txt").read_text()
        assert "frames=2" in summary and "car_boxes=1" in summary

    def test_rerun_byte_identical(self, tmp_path):
        labels = tmp_path / "labels"
        write_frames(labels, {0: [car_at(100, 200), car_at(500, 300)]})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        stats.write_stats(labels, out_a, image_size=(640, 480))
        stats.write_stats(labels, out_b, image_size=(640, 480))
        for name in ("heatmap.pgm", "heatmap.csv", "detections_hist.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_heatmap_pgm_normalization(self):
        assert stats.heatmap_pgm([[3, 1]]) == b"P5\n2 1\n255\n" + bytes([255, 85])

    def test_zero_heatmap_pgm(self):
        assert stats.heatmap_pgm([[0, 0]]).endswith(bytes([0, 0]))
