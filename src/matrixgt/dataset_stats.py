"""Dataset-property analyses: centroid heatmaps, per-frame detection
histograms, and size summaries over the labels of a KITTI label directory,
keyed by frame as :func:`kitti_labels.read_label_dir` returns them.

Counts are the testable artifact here, so the heatmap ships as raw CSV counts
alongside a max-normalized 8-bit PGM render; both obey the conservation law
that cell counts sum to the number of binned boxes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kitti_labels import CAR_TYPE, Difficulty, KittiLabel, checked_bbox, classify_difficulty, read_label_dir

DEFAULT_GRID = (48, 27)  # (cols, rows), 16:9-friendly


@dataclass
class HeatmapGrid:
    cols: int
    rows: int
    image_width: int
    image_height: int
    counts: np.ndarray  # (rows, cols) int64
    clamped: int  # centroids outside the image, clamped to border cells

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class DatasetSummary:
    frames: int
    car_boxes: int
    difficulty_counts: dict[Difficulty, int]
    mean_boxes_per_frame: float


def _cell_index(coord: float, extent: float, cells: int) -> int:
    """Containing cell with boundary coordinates assigned to the lower-index
    cell; out-of-range coordinates clamp to the border cells."""
    scaled = coord * cells / extent
    idx = int(np.ceil(scaled)) - 1
    return min(max(idx, 0), cells - 1)


def centroid_heatmap(
    labels_by_frame: dict[str, list[KittiLabel]],
    image_size: tuple[int, int],
    grid: tuple[int, int] = DEFAULT_GRID,
) -> HeatmapGrid:
    """Bin every Car box centroid into a cols x rows grid over the image."""
    cols, rows = grid
    if cols < 1 or rows < 1:
        raise ConfigError(f"grid dimensions must be >= 1, got {cols}x{rows}")
    width, height = image_size
    if width < 1 or height < 1:
        raise ConfigError(f"image dimensions must be >= 1, got {width}x{height}")
    counts = np.zeros((rows, cols), dtype=np.int64)
    clamped = 0
    for labels in labels_by_frame.values():
        for label in labels:
            if label.type != CAR_TYPE:
                continue
            left, top, right, bottom = label.bbox
            cx = (left + right) / 2.0
            cy = (top + bottom) / 2.0
            if not (0.0 <= cx <= width and 0.0 <= cy <= height):
                clamped += 1
            counts[_cell_index(cy, height, rows), _cell_index(cx, width, cols)] += 1
    return HeatmapGrid(cols, rows, width, height, counts, clamped)


def detections_histogram(labels_by_frame: dict[str, list[KittiLabel]]) -> dict[int, int]:
    """Mapping detections-per-frame -> frame count (zero-car frames at bin 0)."""
    histogram: Counter[int] = Counter()
    for labels in labels_by_frame.values():
        histogram[sum(1 for label in labels if label.type == CAR_TYPE)] += 1
    return dict(sorted(histogram.items()))


def dataset_summary(labels_by_frame: dict[str, list[KittiLabel]]) -> DatasetSummary:
    difficulty_counts = {level: 0 for level in Difficulty}
    car_boxes = 0
    for frame_id, labels in labels_by_frame.items():
        for label in labels:
            if label.type != CAR_TYPE:
                continue
            checked_bbox(frame_id, label)
            car_boxes += 1
            difficulty_counts[classify_difficulty(label)] += 1
    frames = len(labels_by_frame)
    return DatasetSummary(
        frames=frames,
        car_boxes=car_boxes,
        difficulty_counts=difficulty_counts,
        mean_boxes_per_frame=car_boxes / frames if frames else 0.0,
    )


def pgm_bytes(gray: np.ndarray) -> bytes:
    """Binary PGM (P5) encoding of an (H, W) uint8 image."""
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"PGM image must be 2D uint8, got {gray.shape} {gray.dtype}")
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(gray).tobytes()


def heatmap_pgm(heatmap: HeatmapGrid) -> bytes:
    peak = int(heatmap.counts.max())
    if peak == 0:
        gray = np.zeros_like(heatmap.counts, dtype=np.uint8)
    else:
        gray = (heatmap.counts * 255 // peak).astype(np.uint8)
    return pgm_bytes(gray)


def heatmap_csv(heatmap: HeatmapGrid) -> str:
    lines = ["row,col,count"]
    for row in range(heatmap.rows):
        for col in range(heatmap.cols):
            lines.append(f"{row},{col},{heatmap.counts[row, col]}")
    return "\n".join(lines) + "\n"


def histogram_csv(histogram: dict[int, int]) -> str:
    lines = ["n,frames"]
    lines.extend(f"{n},{frames}" for n, frames in sorted(histogram.items()))
    return "\n".join(lines) + "\n"


def summary_text(summary: DatasetSummary) -> str:
    lines = [
        f"frames={summary.frames}",
        f"car_boxes={summary.car_boxes}",
    ]
    lines.extend(
        f"{level.label.lower()}={summary.difficulty_counts[level]}" for level in Difficulty
    )
    lines.append(f"mean_boxes_per_frame={summary.mean_boxes_per_frame:.4f}")
    return "\n".join(lines) + "\n"


def write_stats(
    labels_dir: str | Path,
    out_dir: str | Path,
    image_size: tuple[int, int],
    grid: tuple[int, int] = DEFAULT_GRID,
) -> None:
    """Write heatmap.pgm, heatmap.csv, detections_hist.csv, and summary.txt.

    Everything is computed, and every Car box checked, before the first file
    is written, so a rejected label directory leaves no partial output.
    """
    labels_by_frame = read_label_dir(labels_dir)
    heatmap = centroid_heatmap(labels_by_frame, image_size, grid)
    histogram = detections_histogram(labels_by_frame)
    summary = dataset_summary(labels_by_frame)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "heatmap.pgm").write_bytes(heatmap_pgm(heatmap))
    (out / "heatmap.csv").write_text(heatmap_csv(heatmap))
    (out / "detections_hist.csv").write_text(histogram_csv(histogram))
    (out / "summary.txt").write_text(summary_text(summary))
