"""Bit-exact KITTI label text I/O and Easy/Moderate/Hard classification.

One label per line::

    type truncated occluded alpha left top right bottom h w l x y z rotation_y [score]

Floats carry exactly 2 decimals (score: 4), fields are space-separated, and
parse/write round-trip byte-exactly on conforming files. Boxes without 3D
information use the conventional sentinels: alpha and rotation_y -10,
dimensions -1, location -1000.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import FormatError, ValidationError, read_text

if TYPE_CHECKING:
    from .annotator import TightAnnotation

CAR_TYPE = "Car"
DONTCARE_TYPE = "DontCare"

SENTINEL_ALPHA = -10.0
SENTINEL_DIMENSION = -1.0
SENTINEL_LOCATION = -1000.0


class Difficulty(enum.IntEnum):
    """Evaluation strata, ordered easiest first; UNKNOWN fails every stratum."""

    EASY = 0
    MODERATE = 1
    HARD = 2
    UNKNOWN = 3

    @property
    def label(self) -> str:
        return self.name.title()


# Per-level gates, easiest first: (level, minimum box height in pixels,
# maximum truncation fraction, maximum occlusion level)
DIFFICULTY_GATES = (
    (Difficulty.EASY, 40.0, 0.15, 0),
    (Difficulty.MODERATE, 25.0, 0.30, 1),
    (Difficulty.HARD, 25.0, 0.50, 2),
)


@dataclass
class KittiLabel:
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple[float, float, float, float]  # (left, top, right, bottom)
    dimensions: tuple[float, float, float]  # (height, width, length), meters
    location: tuple[float, float, float]  # (x, y, z), camera meters
    rotation_y: float
    score: Optional[float] = None


def checked_bbox(frame_id: str, label: KittiLabel) -> tuple[float, float, float, float]:
    """A label's box, rejected when it encloses no area (IoU and difficulty
    are undefined for it) or when its centroid, or twice its area (an IoU's
    union adds two areas), overflows a float."""
    left, top, right, bottom = label.bbox
    area = (right - left) * (bottom - top)
    if not (left < right and top < bottom and area > 0.0):
        raise ValidationError(f"frame {frame_id}: {label.type} box {label.bbox} has no area")
    if not (math.isfinite(left + right) and math.isfinite(top + bottom) and math.isfinite(2.0 * area)):
        raise ValidationError(f"frame {frame_id}: {label.type} box {label.bbox} overflows its area or centroid")
    return label.bbox


def classify_difficulty(label: KittiLabel) -> Difficulty:
    """Easiest level whose height/truncation/occlusion gates all pass."""
    left, top, right, bottom = label.bbox
    if not (left < right and top < bottom):
        raise ValueError(f"malformed bbox {label.bbox}")
    height = bottom - top
    for level, min_height_px, max_truncation, max_occlusion in DIFFICULTY_GATES:
        if height >= min_height_px and label.truncated <= max_truncation and label.occluded <= max_occlusion:
            return level
    return Difficulty.UNKNOWN


def normalize_angle(angle: float) -> float:
    """Wrap an angle into [-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def from_annotation(annotation: TightAnnotation) -> KittiLabel:
    """Convert a tight annotation to a Car label.

    Annotations backed by an engine record carry its 3D pose; the observation
    angle is rotation_y - atan2(x, z). Orphans get sentinel 3D fields.
    """
    if annotation.location_cam is not None and annotation.size is not None and annotation.yaw is not None:
        x, _, z = annotation.location_cam
        length, width, height = annotation.size
        alpha = normalize_angle(annotation.yaw - math.atan2(x, z))
        dimensions = (height, width, length)
        location = annotation.location_cam
        rotation_y = annotation.yaw
    else:
        alpha = SENTINEL_ALPHA
        dimensions = (SENTINEL_DIMENSION,) * 3
        location = (SENTINEL_LOCATION,) * 3
        rotation_y = SENTINEL_ALPHA
    return KittiLabel(
        type=CAR_TYPE,
        truncated=annotation.truncation,
        occluded=annotation.occlusion_level,
        alpha=alpha,
        bbox=annotation.tight_box,
        dimensions=dimensions,
        location=location,
        rotation_y=rotation_y,
    )


def format_label(label: KittiLabel) -> str:
    left, top, right, bottom = label.bbox
    h, w, length = label.dimensions
    x, y, z = label.location
    parts = [
        label.type,
        f"{label.truncated:.2f}",
        str(label.occluded),
        f"{label.alpha:.2f}",
        f"{left:.2f}",
        f"{top:.2f}",
        f"{right:.2f}",
        f"{bottom:.2f}",
        f"{h:.2f}",
        f"{w:.2f}",
        f"{length:.2f}",
        f"{x:.2f}",
        f"{y:.2f}",
        f"{z:.2f}",
        f"{label.rotation_y:.2f}",
    ]
    if label.score is not None:
        parts.append(f"{label.score:.4f}")
    return " ".join(parts)


def labels_to_text(labels: Sequence[KittiLabel]) -> str:
    return "".join(format_label(label) + "\n" for label in labels)


def parse_labels_text(text: str, origin: str = "labels") -> list[KittiLabel]:
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) not in (15, 16):
            raise FormatError(f"{origin} line {lineno}: expected 15 or 16 fields, got {len(parts)}")
        try:
            truncated = float(parts[1])
            occluded = int(parts[2])
            nums = list(map(float, parts[3:]))
        except ValueError as exc:
            raise FormatError(f"{origin} line {lineno}: {exc}") from None
        if not (math.isfinite(truncated) and all(map(math.isfinite, nums))):
            raise FormatError(f"{origin} line {lineno}: non-finite number")
        labels.append(
            KittiLabel(
                type=parts[0],
                truncated=truncated,
                occluded=occluded,
                alpha=nums[0],
                bbox=(nums[1], nums[2], nums[3], nums[4]),
                dimensions=(nums[5], nums[6], nums[7]),
                location=(nums[8], nums[9], nums[10]),
                rotation_y=nums[11],
                score=nums[12] if len(parts) == 16 else None,
            )
        )
    return labels


def write_labels(labels: Sequence[KittiLabel], destination: str | Path) -> None:
    Path(destination).write_text(labels_to_text(labels))


def parse_labels(source: str | Path) -> list[KittiLabel]:
    path = Path(source)
    return parse_labels_text(read_text(path, FormatError), origin=path.name)


def label_path(labels_dir: str | Path, frame_idx: int) -> Path:
    return Path(labels_dir) / f"{frame_idx:06d}.txt"


def read_label_dir(labels_dir: str | Path) -> dict[str, list[KittiLabel]]:
    """All label files of a directory keyed by frame stem, sorted; a path
    that is not a directory is an error, not an empty label set."""
    directory = Path(labels_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"no label directory at {directory}")
    out: dict[str, list[KittiLabel]] = {}
    for path in sorted(directory.glob("*.txt")):
        out[path.stem] = parse_labels(path)
    return out
