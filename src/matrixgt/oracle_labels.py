"""Referee labels from the withheld instance oracle.

Labels are assembled with the annotator's own helpers, so both sides compute
hulls, truncation and occlusion on one path. This module imports the
annotator and never the reverse, which keeps annotation blind to the oracle.

A frame costs one sort plus work proportional to its objects. The sorted
instance ids give every present id, ascending, with its pixel count. A
recorded vehicle's pixels are looked for only inside its coarse box's pixel
window, and the window is trusted when it holds all of them; otherwise, and
for an id without a record, the id is compared over the whole image.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .annotator import orphan_annotation, pixel_hull, record_annotation
from .kitti_labels import KittiLabel, from_annotation
from .raster_codec import Raster
from .scene_sim import EngineRecord, ObjectClass, pixel_window


def _new_sort_buffers(pixel_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized id buffer (U16) and change-point buffer (bool) for a
    frame of ``pixel_count`` pixels."""
    return np.empty(pixel_count, dtype=np.uint16), np.empty(pixel_count - 1, dtype=bool)


# One pair of sort buffers per process and frame size, reused from frame to
# frame as scene_sim._frame_buffers is: a fresh sort per frame faults its
# pages in again every time.
_sort_buffers = functools.lru_cache(maxsize=1)(_new_sort_buffers)


def _present_ids(inst: np.ndarray) -> tuple[list[int], list[int]]:
    """Ids other than 0 present in ``inst``, ascending, and their pixel counts."""
    ids, changes = _sort_buffers(inst.size)
    np.copyto(ids, inst.reshape(-1))
    ids.sort()
    np.not_equal(ids[1:], ids[:-1], out=changes)
    # run starts; the first run counts too, since a frame may have no 0 pixel
    bounds = np.concatenate(([0], np.flatnonzero(changes) + 1, [ids.size]))
    present = ids[bounds[:-1]].tolist()
    counts = np.diff(bounds).tolist()
    if present[0] == 0:
        return present[1:], counts[1:]
    return present, counts


def _object_mask(
    inst: np.ndarray, object_id: int, visible_px: int, window: Optional[tuple[int, int, int, int]]
) -> tuple[np.ndarray, int, int]:
    """``(mask, x0, y0)``: the pixels of ``object_id`` within a window whose
    top-left pixel is (x0, y0). That is ``window`` when it holds all
    ``visible_px`` of them, otherwise the whole image."""
    if window is not None:
        x0, y0, x1, y1 = window
        mask = inst[y0:y1, x0:x1] == object_id
        if np.count_nonzero(mask) == visible_px:
            return mask, x0, y0
    return inst == object_id, 0, 0


def oracle_frame_labels(
    instance: Raster,
    stencil: Raster,
    records: Sequence[EngineRecord],
    image_size: tuple[int, int],
) -> list[KittiLabel]:
    """One frame's labels: each visible vehicle's box is the exact hull of its
    oracle pixels. Vehicles without an engine record (beyond its registration
    range) get the annotator's orphan labels; fully occluded objects emit
    nothing. The rasters are as ``read_frame_buffers`` returns and checks
    them, of ``image_size``: the (width, height) truncation is measured in."""
    inst = instance.data
    width, height = image_size
    by_id = {r.object_id: r for r in records}
    labels = []
    for object_id, visible_px in zip(*_present_ids(inst)):
        record = by_id.get(object_id)
        if record is not None and record.cls != ObjectClass.VEHICLE:
            continue
        window = None if record is None else pixel_window(record.coarse_box, width, height)
        mask, x0, y0 = _object_mask(inst, object_id, visible_px, window)
        # an unrecorded id takes the class of its first pixel in row-major order
        if record is None and int(stencil.data.flat[mask.argmax()]) & 0x0F != ObjectClass.VEHICLE:
            continue
        # the hull of the occupied rows and columns is the hull of the pixels
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask[rows[0] : rows[-1] + 1].any(axis=0))
        hull = pixel_hull(rows + y0, cols + x0)
        if record is not None:
            annotation = record_annotation(record, hull, visible_px, image_size)
        else:
            annotation = orphan_annotation(hull, visible_px)
        labels.append(from_annotation(annotation))
    return labels
