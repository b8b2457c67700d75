"""Referee labels from the withheld instance oracle.

Labels are assembled with the annotator's own helpers, so both sides compute
hulls, truncation and occlusion on one path. This module imports the
annotator and never the reverse, which keeps annotation blind to the oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .annotator import orphan_annotation, pixel_hull, record_annotation
from .errors import ValidationError
from .kitti_labels import KittiLabel, from_annotation
from .raster_codec import Raster, stencil_class_ids
from .scene_sim import EngineRecord, ObjectClass


def oracle_frame_labels(
    instance: Raster,
    stencil: Raster,
    records: Sequence[EngineRecord],
    image_size: tuple[int, int],
) -> list[KittiLabel]:
    """One frame's labels: each visible vehicle's box is the exact hull of its
    oracle pixels. Vehicles without an engine record (beyond its registration
    range) get the annotator's orphan labels; fully occluded objects emit
    nothing. Raises :class:`ValidationError` when a raster's size differs from
    ``image_size``, the (width, height) truncation is measured against."""
    for name, raster in (("instance", instance), ("stencil", stencil)):
        if (raster.width, raster.height) != tuple(image_size):
            raise ValidationError(
                f"{name} raster is {raster.width}x{raster.height}, image size is {image_size[0]}x{image_size[1]}"
            )
    inst = instance.data
    class_codes = stencil_class_ids(stencil)
    by_id = {r.object_id: r for r in records}
    pixel_counts = np.bincount(inst.ravel())
    labels = []
    for object_id in (np.flatnonzero(pixel_counts[1:]) + 1).tolist():
        record = by_id.get(object_id)
        if record is not None and record.cls != ObjectClass.VEHICLE:
            continue
        mask = inst == object_id
        # an unrecorded id takes the class of its first pixel in row-major order
        if record is None and int(class_codes.flat[mask.argmax()]) != ObjectClass.VEHICLE:
            continue
        # the hull of the occupied rows and columns is the hull of the pixels
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask[rows[0] : rows[-1] + 1].any(axis=0))
        hull = pixel_hull(rows, cols)
        visible_px = int(pixel_counts[object_id])
        if record is not None:
            annotation = record_annotation(record, hull, visible_px, image_size)
        else:
            annotation = orphan_annotation(hull, visible_px)
        labels.append(from_annotation(annotation))
    return labels
