"""Dataset-property analyses: centroid heatmaps, per-frame detection
histograms, and size summaries over the labels of a KITTI label directory,
keyed by frame as :func:`kitti_labels.read_label_dir` returns them.

Counts are the testable artifact here, so the heatmap is plain rows of counts
(``counts[row][col]``), shipped as raw CSV counts alongside a max-normalized
8-bit PGM render; both obey the conservation law that cell counts sum to the
number of binned boxes. The stage is pure Python, and its summary is a
named tuple, so it starts up without numpy or ``dataclasses``.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, write_bytes, write_text
from .kitti_labels import CAR_TYPE, Difficulty, KittiLabel, classify_difficulty, read_label_dir

DEFAULT_GRID = (48, 27)  # (cols, rows), 16:9-friendly
MAX_GRID_CELLS = 2**20  # a larger grid is rejected before its rows are allocated


class DatasetSummary(NamedTuple):
    frames: int
    car_boxes: int
    difficulty_counts: dict[Difficulty, int]
    mean_boxes_per_frame: float


def _cell_index(coord: float, extent: float, cells: int) -> int:
    """Containing cell with boundary coordinates assigned to the lower-index
    cell; out-of-range coordinates clamp to the border cells (before the
    ceiling, so a huge finite coordinate cannot overflow it)."""
    scaled = min(max(coord * cells / extent, 0.0), cells)
    return max(math.ceil(scaled) - 1, 0)


def centroid_heatmap(
    labels_by_frame: dict[str, list[KittiLabel]],
    image_size: tuple[int, int],
    grid: tuple[int, int] = DEFAULT_GRID,
) -> list[list[int]]:
    """Counts of Car box centroids on a cols x rows grid over the image, as
    ``counts[row][col]``; centroids outside the image count in border cells."""
    cols, rows = grid
    if cols < 1 or rows < 1:
        raise ConfigError(f"grid dimensions must be >= 1, got {cols}x{rows}")
    if cols * rows > MAX_GRID_CELLS:
        raise ConfigError(f"grid {cols}x{rows} has more than {MAX_GRID_CELLS} cells")
    width, height = image_size
    if width < 1 or height < 1:
        raise ConfigError(f"image dimensions must be >= 1, got {width}x{height}")
    counts = [[0] * cols for _ in range(rows)]
    for labels in labels_by_frame.values():
        for label in labels:
            if label.type != CAR_TYPE:
                continue
            left, top, right, bottom = label.bbox
            cx = (left + right) / 2.0
            cy = (top + bottom) / 2.0
            counts[_cell_index(cy, height, rows)][_cell_index(cx, width, cols)] += 1
    return counts


def detections_histogram(labels_by_frame: dict[str, list[KittiLabel]]) -> dict[int, int]:
    """Mapping detections-per-frame -> frame count (zero-car frames at bin 0)."""
    histogram: Counter[int] = Counter()
    for labels in labels_by_frame.values():
        histogram[sum(1 for label in labels if label.type == CAR_TYPE)] += 1
    return dict(sorted(histogram.items()))


def dataset_summary(labels_by_frame: dict[str, list[KittiLabel]]) -> DatasetSummary:
    difficulty_counts = {level: 0 for level in Difficulty}
    car_boxes = 0
    for labels in labels_by_frame.values():
        for label in labels:
            if label.type != CAR_TYPE:
                continue
            car_boxes += 1
            difficulty_counts[classify_difficulty(label)] += 1
    frames = len(labels_by_frame)
    return DatasetSummary(
        frames=frames,
        car_boxes=car_boxes,
        difficulty_counts=difficulty_counts,
        mean_boxes_per_frame=car_boxes / frames if frames else 0.0,
    )


def heatmap_pgm(counts: list[list[int]]) -> bytes:
    """Binary PGM (P5) of the counts, scaled so the peak cell is 255."""
    peak = max(map(max, counts))
    header = f"P5\n{len(counts[0])} {len(counts)}\n255\n".encode("ascii")
    return header + bytes(count * 255 // peak if peak else 0 for row in counts for count in row)


def heatmap_csv(counts: list[list[int]]) -> str:
    lines = ["row,col,count"]
    lines.extend(f"{r},{c},{count}" for r, row in enumerate(counts) for c, count in enumerate(row))
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

    Every label is checked as its directory is read, before anything is
    computed, so a rejected label directory leaves no partial output.
    """
    labels_by_frame = read_label_dir(labels_dir)
    heatmap = centroid_heatmap(labels_by_frame, image_size, grid)
    histogram = detections_histogram(labels_by_frame)
    summary = dataset_summary(labels_by_frame)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_bytes(out / "heatmap.pgm", heatmap_pgm(heatmap))
    write_text(out / "heatmap.csv", heatmap_csv(heatmap))
    write_text(out / "detections_hist.csv", histogram_csv(histogram))
    write_text(out / "summary.txt", summary_text(summary))
