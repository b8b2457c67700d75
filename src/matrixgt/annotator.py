"""Tight 2D vehicle boxes from stencil + depth buffers and loose engine boxes.

The refinement never reads the per-pixel instance oracle; everything derives
from buffers an engine capture would actually expose:

1. vehicle-class pixels are lifted from the stencil,
2. connected components stand in for contour detection (touching vehicles
   merge into one component, the failure the depth step untangles),
3. the mean linearized depth over a record's candidate pixels seeds
4. an iterated band filter keeping pixels within ``rho`` relative depth of
   the running mean, whose surviving pixel hull is the tight box, and
5. leftover vehicle pixels unclaimed by any record become orphan detections
   (objects rendered but absent from the engine's records).

Candidate pixels for a record are the mask pixels whose centers fall inside
the record's coarse box dilated by a couple of pixels; the iterated filter
only ever shrinks that set, so tight boxes stay inside the dilated box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import EngineRecord, ObjectClass, box_area, box_intersection_area, pixel_window
from .errors import ConfigError
from .raster_codec import DepthCodecParams, Raster, linearize_depth, stencil_class_ids

FULLY_VISIBLE_FRACTION = 0.8
PARTLY_VISIBLE_FRACTION = 0.5

BAND_ITERATIONS = 2  # trimmed-mean passes of the depth-band filter
MIN_COMPONENT_PX = 16  # smallest surviving annotation / orphan
COARSE_BOX_MARGIN_PX = 2  # dilation when gathering candidate pixels


@dataclass(frozen=True)
class RefinementParams:
    """The depth-band refinement's one setting (``annotate --rho``); the pass
    count, speck size and window margin are the module constants above."""

    rho: float = 0.10  # relative depth tolerance |z - mu| <= rho * mu

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must be in (0, 1), got {self.rho}")


@dataclass
class TightAnnotation:
    """A refined vehicle box; ``source_id`` 0 marks an orphan detection."""

    source_id: int
    tight_box: tuple[float, float, float, float]
    visible_px: int
    truncation: float
    occlusion_level: int
    size: Optional[tuple[float, float, float]] = None
    location_cam: Optional[tuple[float, float, float]] = None
    yaw: Optional[float] = None


def vehicle_mask(stencil: Raster) -> np.ndarray:
    """Boolean mask of pixels whose stencil class code is the vehicle code
    (flag bits ignored)."""
    return stencil_class_ids(stencil) == int(ObjectClass.VEHICLE)


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """Partition set pixels into maximal 8-connected components.

    Two-scan labeling over row runs (He, Chao & Suzuki 2008): set pixels
    split into row runs, and runs in adjacent rows merge when their column
    spans touch or overlap diagonally. A run finds the runs it touches in the
    row above by two binary searches over keys ``row * (width + 1) + column``
    of every run's start and end, which ascend across rows: shifted up a
    row, its span touches the runs from the first whose end key reaches its
    start key to the last whose start key lies within its end key. Each
    component is an ascending array of row-major pixel indices. The list is
    ordered by the (top, left) corner of each component's pixel hull, ties
    in first-pixel order.
    """
    width = mask.shape[1]
    pixels = np.flatnonzero(mask)
    if not len(pixels):
        return []
    # a run starts where the pixel index jumps or wraps onto a new row
    starts = np.flatnonzero((np.diff(pixels, prepend=-2) != 1) | (pixels % width == 0))
    lengths = np.diff(starts, append=len(pixels))
    rows, x0s = np.divmod(pixels[starts], width)
    up = width + 1  # one past the last end column, so no two rows share a key
    start_keys = rows * up + x0s
    end_keys = start_keys + lengths
    # 8-connectivity: runs [a, b) and [c, d) in adjacent rows touch when
    # a <= d and c <= b (one-column diagonal tolerance)
    firsts = np.searchsorted(end_keys, start_keys - up).tolist()
    lasts = np.searchsorted(start_keys, end_keys - up, side="right").tolist()
    parent = list(range(len(starts)))

    def root(run: int) -> int:
        while parent[run] != run:
            parent[run] = run = parent[parent[run]]  # path halving
        return run

    for run, (first, last) in enumerate(zip(firsts, lasts)):
        for above in range(first, last):
            a, b = root(run), root(above)
            parent[max(a, b)] = min(a, b)  # a set's root is its lowest run
    # grouping by root, the lowest run, keeps first-pixel order
    labels = np.repeat([root(run) for run in range(len(parent))], lengths)
    order = np.argsort(labels, kind="stable")
    components = np.split(pixels[order], np.flatnonzero(np.diff(labels[order])) + 1)
    components.sort(key=lambda c: (int(c[0]) // width, int((c % width).min())))
    return components


def pixel_hull(ys: np.ndarray, xs: np.ndarray) -> tuple[float, float, float, float]:
    """Tight (left, top, right, bottom) box around pixels at rows ys, columns xs."""
    return float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1)


def estimate_truncation(
    coarse_box: tuple[float, float, float, float], image_size: tuple[int, int]
) -> float:
    """Part of the un-clipped box lying outside the image: 1 - clipped/full."""
    area = box_area(coarse_box)
    inside = box_intersection_area(coarse_box, (0.0, 0.0, *image_size))
    return min(1.0, max(0.0, 1.0 - inside / area))


def estimate_occlusion(
    visible_px: int, coarse_box: tuple[float, float, float, float], image_size: tuple[int, int]
) -> int:
    """Visibility level from the visible-pixel fraction of the clipped box:
    0 fully visible (>= 0.8), 1 partly occluded (>= 0.5), else 2."""
    clipped = box_intersection_area(coarse_box, (0.0, 0.0, *image_size))
    if clipped <= 0.0:
        return 2
    fraction = visible_px / clipped
    if fraction >= FULLY_VISIBLE_FRACTION:
        return 0
    if fraction >= PARTLY_VISIBLE_FRACTION:
        return 1
    return 2


def record_annotation(
    record: EngineRecord,
    hull: tuple[float, float, float, float],
    visible_px: int,
    image_size: tuple[int, int],
) -> TightAnnotation:
    """Record-backed annotation: truncation and occlusion against the record's
    un-clipped coarse box, 3D pose copied from the record."""
    return TightAnnotation(
        source_id=record.object_id,
        tight_box=hull,
        visible_px=visible_px,
        truncation=estimate_truncation(record.coarse_box, image_size),
        occlusion_level=estimate_occlusion(visible_px, record.coarse_box, image_size),
        size=record.size,
        location_cam=record.location_cam,
        yaw=record.yaw,
    )


def orphan_annotation(hull: tuple[float, float, float, float], visible_px: int) -> TightAnnotation:
    """Annotation of vehicle pixels no engine record accounts for: no 3D
    fields, occlusion level 2, and truncation 0 because a pixel hull lies
    inside the image."""
    return TightAnnotation(source_id=0, tight_box=hull, visible_px=visible_px, truncation=0.0, occlusion_level=2)


def refine_tight_box(
    record: EngineRecord,
    mask: np.ndarray,
    depth: Raster,
    params: RefinementParams = RefinementParams(),
    depth_params: DepthCodecParams = DepthCodecParams(),
) -> Optional[tuple[TightAnnotation, tuple[int, int, int, int], np.ndarray]]:
    """Refine one engine record into ``(annotation, (x0, y0, x1, y1), kept)``,
    or None on rejection; ``kept`` is the boolean mask of the pixels the
    annotation claims within the window [x0, x1) x [y0, y1).

    Candidate pixels are the mask pixels inside the dilated coarse box, and
    depth is linearized only over that window; the mean depth over the
    candidates seeds the iterated band filter |z - mu| <= rho * mu,
    each pass shrinking the kept set and re-centering mu. Rejection (fully
    occluded, off-screen, or sub-threshold survivor count) is a normal
    outcome, not an error.
    """
    if record.cls is not ObjectClass.VEHICLE:
        raise ValueError(f"refinement only applies to vehicle records, got {record.cls.label}")
    height, width = mask.shape
    window = pixel_window(record.coarse_box, width, height, COARSE_BOX_MARGIN_PX)
    if window is None:
        return None
    x0, y0, x1, y1 = window
    candidates = mask[y0:y1, x0:x1]
    if not candidates.any():
        return None
    z = linearize_depth(depth.data[y0:y1, x0:x1].astype(np.float64), depth_params)
    # each pass re-selects from the candidate set with the refreshed mean, so
    # a mean seeded off-center (merged contours) converges onto the dominant
    # depth cluster instead of eroding it
    mu = float(z[candidates].mean())
    kept = candidates
    for _ in range(BAND_ITERATIONS):
        kept = candidates & (np.abs(z - mu) <= params.rho * mu)
        if not kept.any():
            return None
        mu = float(z[kept].mean())
    visible = int(kept.sum())
    if visible < MIN_COMPONENT_PX:
        return None
    ys, xs = np.nonzero(kept)
    annotation = record_annotation(record, pixel_hull(ys + y0, xs + x0), visible, (width, height))
    return annotation, window, kept


def recover_orphans(residual: np.ndarray) -> list[TightAnnotation]:
    """Promote residual vehicle pixels, those no accepted annotation kept, to
    orphan annotations (rendered objects the engine never registered).

    Connected components smaller than ``MIN_COMPONENT_PX`` are dropped as
    specks.
    """
    width = residual.shape[1]
    return [
        orphan_annotation(pixel_hull(*np.divmod(pixels, width)), len(pixels))
        for pixels in connected_components(residual)
        if len(pixels) >= MIN_COMPONENT_PX
    ]


def annotate_frame(
    stencil: Raster,
    depth: Raster,
    records: Sequence[EngineRecord],
    params: RefinementParams = RefinementParams(),
    depth_params: DepthCodecParams = DepthCodecParams(),
) -> list[TightAnnotation]:
    """Full per-frame pipeline: mask, per-record refinement, orphan recovery.

    Consumes only (stencil, depth, records, params); the instance oracle is
    never an input. Output order: refined records by source_id, then orphans
    by image position. The buffers are as ``read_frame_buffers`` returns
    and checks them.
    """
    mask = vehicle_mask(stencil)
    residual = mask.copy()
    accepted = []
    for record in sorted(records, key=lambda r: r.object_id):
        if record.cls is not ObjectClass.VEHICLE:
            continue
        refined = refine_tight_box(record, mask, depth, params, depth_params)
        if refined is not None:
            annotation, (x0, y0, x1, y1), kept = refined
            residual[y0:y1, x0:x1] &= ~kept
            accepted.append(annotation)
    return accepted + recover_orphans(residual)
