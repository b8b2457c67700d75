"""Bit-exact KITTI label text I/O and Easy/Moderate/Hard classification.

One label per line::

    type truncated occluded alpha left top right bottom h w l x y z rotation_y [score]

Floats carry exactly 2 decimals (score: 4), fields are space-separated, and
parse/write round-trip byte-exactly on conforming files. Boxes without 3D
information use the conventional sentinels: alpha and rotation_y -10,
dimensions -1, location -1000. A Car's truncation lies in [0, 1] and its
occlusion level is 0, 1, 2 or 3; other types may carry KITTI's -1 sentinels.
KITTI has no box sentinel, so every box, whatever its type, must enclose an
area. Labels are checked once, as they are parsed, and by no stage after.

A label directory holds one ``<frame>.txt`` per frame. :func:`read_label_dir`
lists it once and opens each file once; labels are named tuples, built
positionally in one pass over a file's lines.
"""

from __future__ import annotations

import enum
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import FormatError, ValidationError, read_text, write_text

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


class KittiLabel(NamedTuple):
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple[float, float, float, float]  # (left, top, right, bottom)
    dimensions: tuple[float, float, float]  # (height, width, length), meters
    location: tuple[float, float, float]  # (x, y, z), camera meters
    rotation_y: float
    score: Optional[float] = None


def classify_difficulty(label: KittiLabel) -> Difficulty:
    """Easiest level whose height/truncation/occlusion gates all pass."""
    height = label.bbox[3] - label.bbox[1]
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
    """Labels of a file's text; ``origin`` names the file in errors. A line
    with the wrong field count, a number that does not parse or is not
    finite, or a Car truncation or occlusion outside its domain raises
    :class:`FormatError`. A box with no area (IoU and difficulty are undefined
    for it), or whose centroid or doubled area (an IoU's union adds two areas)
    overflows a float, raises :class:`ValidationError`. Both name the line."""
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        count = len(parts)
        if count != 15 and count != 16:
            if not parts:
                continue
            raise FormatError(f"{origin} line {lineno}: expected 15 or 16 fields, got {count}")
        try:
            truncated = float(parts[1])
            occluded = int(parts[2])
            nums = list(map(float, parts[3:]))
        except ValueError as exc:
            raise FormatError(f"{origin} line {lineno}: {exc}") from None
        if not (math.isfinite(truncated) and all(map(math.isfinite, nums))):
            raise FormatError(f"{origin} line {lineno}: non-finite number")
        kind = parts[0]
        if kind == CAR_TYPE:
            if not 0.0 <= truncated <= 1.0:
                raise FormatError(f"{origin} line {lineno}: Car truncation {parts[1]} is outside [0, 1]")
            if not 0 <= occluded <= 3:
                raise FormatError(f"{origin} line {lineno}: Car occlusion {parts[2]} is not 0, 1, 2 or 3")
        left, top, right, bottom = bbox = nums[1], nums[2], nums[3], nums[4]
        area = (right - left) * (bottom - top)
        if not (left < right and top < bottom and area > 0.0):
            raise ValidationError(f"{origin} line {lineno}: {kind} box {bbox} has no area")
        if not (math.isfinite(left + right) and math.isfinite(top + bottom) and math.isfinite(2.0 * area)):
            raise ValidationError(f"{origin} line {lineno}: {kind} box {bbox} overflows its area or centroid")
        labels.append(
            KittiLabel(
                kind,
                truncated,
                occluded,
                nums[0],
                bbox,
                (nums[5], nums[6], nums[7]),
                (nums[8], nums[9], nums[10]),
                nums[11],
                nums[12] if count == 16 else None,
            )
        )
    return labels


def write_labels(labels: Sequence[KittiLabel], destination: str | Path) -> None:
    write_text(destination, labels_to_text(labels))


def label_path(labels_dir: str | Path, frame_idx: int) -> Path:
    return Path(labels_dir) / f"{frame_idx:06d}.txt"


def read_label_dir(labels_dir: str | Path) -> dict[str, list[KittiLabel]]:
    """The labels of every ``*.txt`` entry of a directory (hidden names
    included, case-sensitive), keyed by frame (the name without ``.txt``,
    as ``Path.stem`` gives it) in name order. A path that is not a
    directory is an error, not an empty label set, and so is an entry that
    is not a regular file. Errors name a file as ``<labels_dir>/<name>``."""
    directory = Path(labels_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"no label directory at {directory}")
    base = str(directory)
    # file names in errors read as Path joins them: "x.txt" in ".", "d/x.txt" in "d"
    prefix = "" if base == "." else os.path.join(base, "")
    out: dict[str, list[KittiLabel]] = {}
    for name in sorted(name for name in os.listdir(base) if name.endswith(".txt")):
        # ".txt" alone has no suffix, so its stem is the whole name
        path = prefix + name
        out[name[:-4] if len(name) > 4 else name] = parse_labels_text(read_text(path, FormatError), path)
    return out
