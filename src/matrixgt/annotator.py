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

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .raster_codec import DepthCodecParams, Raster, linearize_depth, stencil_class_ids
from .scene_sim import EngineRecord, ObjectClass, box_area, box_intersection_area

Run = tuple[int, int, int]  # (row, x_start, x_end_exclusive)

FULLY_VISIBLE_FRACTION = 0.8
PARTLY_VISIBLE_FRACTION = 0.5


@dataclass(frozen=True)
class RefinementParams:
    """Knobs of the depth-band refinement."""

    rho: float = 0.10  # relative depth tolerance |z - mu| <= rho * mu
    iterations: int = 2  # trimmed-mean passes
    min_component_px: int = 16  # smallest surviving annotation / orphan
    coarse_box_margin_px: int = 2  # dilation when gathering candidate pixels

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must be in (0, 1), got {self.rho}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.min_component_px < 1:
            raise ConfigError(f"min_component_px must be >= 1, got {self.min_component_px}")
        if self.coarse_box_margin_px < 0:
            raise ConfigError(f"coarse_box_margin_px must be >= 0, got {self.coarse_box_margin_px}")


@dataclass(frozen=True)
class Component:
    """One maximal 8-connected region of a binary mask, stored as row runs."""

    runs: tuple[Run, ...]
    pixel_count: int
    bbox: tuple[float, float, float, float]  # pixel hull (left, top, right, bottom)

    def mask(self, height: int, width: int) -> np.ndarray:
        mask = np.zeros((height, width), dtype=bool)
        for y, x0, x1 in self.runs:
            mask[y, x0:x1] = True
        return mask


@dataclass
class TightAnnotation:
    """A refined vehicle box; ``source_id`` 0 marks an orphan detection."""

    source_id: int
    tight_box: tuple[float, float, float, float]
    visible_px: int
    truncation: float
    occlusion_level: int
    range_m: float
    size: Optional[tuple[float, float, float]] = None
    location_cam: Optional[tuple[float, float, float]] = None
    yaw: Optional[float] = None
    kept_runs: tuple[Run, ...] = field(default=(), repr=False)


def vehicle_mask(stencil: Raster) -> np.ndarray:
    """Boolean mask of pixels whose stencil class code is the vehicle code
    (flag bits ignored)."""
    return stencil_class_ids(stencil) == int(ObjectClass.VEHICLE)


def mask_to_runs(mask: np.ndarray, row_offset: int = 0, col_offset: int = 0) -> tuple[Run, ...]:
    """Maximal horizontal runs of a boolean mask, sorted by (row, start)."""
    runs: list[Run] = []
    for y in np.flatnonzero(mask.any(axis=1)):
        idx = np.flatnonzero(mask[y])
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = idx[np.concatenate(([0], breaks + 1))]
        ends = idx[np.concatenate((breaks, [len(idx) - 1]))] + 1
        runs.extend((int(y) + row_offset, int(s) + col_offset, int(e) + col_offset) for s, e in zip(starts, ends))
    return tuple(runs)


def _runs_bbox(runs: Sequence[Run]) -> tuple[float, float, float, float]:
    left = min(x0 for _, x0, _ in runs)
    right = max(x1 for _, _, x1 in runs)
    top = min(y for y, _, _ in runs)
    bottom = max(y for y, _, _ in runs) + 1
    return float(left), float(top), float(right), float(bottom)


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def connected_components(mask: np.ndarray) -> list[Component]:
    """Partition set pixels into maximal 8-connected components.

    Run-based two-pass labeling: rows decompose into runs, runs in adjacent
    rows union when their column spans touch or overlap diagonally. Output is
    ordered by the (top, left) corner of each component's bounding box.
    """
    all_runs = mask_to_runs(mask)
    dsu = _DisjointSet(len(all_runs))
    prev_row: list[tuple[int, Run]] = []
    i = 0
    while i < len(all_runs):
        y = all_runs[i][0]
        j = i
        while j < len(all_runs) and all_runs[j][0] == y:
            j += 1
        current = [(k, all_runs[k]) for k in range(i, j)]
        if prev_row and prev_row[0][1][0] == y - 1:
            # 8-connectivity: runs [a, b) and [c, d) in adjacent rows touch
            # when a <= d and c <= b (one-column diagonal tolerance)
            p = 0
            for k, (_, x0, x1) in current:
                while p < len(prev_row) and prev_row[p][1][2] < x0:
                    p += 1
                q = p
                while q < len(prev_row) and prev_row[q][1][1] <= x1:
                    dsu.union(k, prev_row[q][0])
                    q += 1
        prev_row = current
        i = j

    groups: dict[int, list[Run]] = {}
    for k, run in enumerate(all_runs):
        groups.setdefault(dsu.find(k), []).append(run)
    components = []
    for runs in groups.values():
        runs_t = tuple(runs)
        count = sum(x1 - x0 for _, x0, x1 in runs_t)
        components.append(Component(runs=runs_t, pixel_count=count, bbox=_runs_bbox(runs_t)))
    components.sort(key=lambda c: (c.bbox[1], c.bbox[0]))
    return components


def mean_region_depth(region: np.ndarray, depth: Raster, params: DepthCodecParams) -> float:
    """Arithmetic mean of linearized depth over a boolean region mask."""
    if not region.any():
        raise ValueError("empty region has no mean depth")
    d = depth.data[region].astype(np.float64)
    return float(np.mean(linearize_depth(d, params)))


def pixel_hull(ys: np.ndarray, xs: np.ndarray) -> tuple[float, float, float, float]:
    """Tight (left, top, right, bottom) box around pixels at rows ys, columns xs."""
    return float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1)


def estimate_truncation(
    coarse_box: tuple[float, float, float, float], image_size: tuple[int, int]
) -> float:
    """Fraction of the un-clipped box lying outside the image: 1 - clipped/full."""
    area = box_area(coarse_box)
    if area <= 0.0:
        raise ValueError(f"zero-area box {coarse_box}")
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
    kept_runs: tuple[Run, ...] = (),
) -> TightAnnotation:
    """Record-backed annotation: truncation and occlusion against the record's
    un-clipped coarse box, range and 3D pose copied from the record."""
    return TightAnnotation(
        source_id=record.object_id,
        tight_box=hull,
        visible_px=visible_px,
        truncation=estimate_truncation(record.coarse_box, image_size),
        occlusion_level=estimate_occlusion(visible_px, record.coarse_box, image_size),
        range_m=record.range_m,
        size=record.size,
        location_cam=record.location_cam,
        yaw=record.yaw,
        kept_runs=kept_runs,
    )


def _pixel_window(
    box: tuple[float, float, float, float], margin: int, width: int, height: int
) -> Optional[tuple[int, int, int, int]]:
    """Integer pixel window [x0, x1) x [y0, y1) of pixels whose centers lie in
    the box dilated by ``margin`` pixels, clipped to the image."""
    left, top, right, bottom = box
    x0 = max(0, int(np.ceil(left - margin - 0.5)))
    x1 = min(width, int(np.floor(right + margin - 0.5)) + 1)
    y0 = max(0, int(np.ceil(top - margin - 0.5)))
    y1 = min(height, int(np.floor(bottom + margin - 0.5)) + 1)
    if x0 >= x1 or y0 >= y1:
        return None
    return x0, y0, x1, y1


def refine_tight_box(
    record: EngineRecord,
    mask: np.ndarray,
    depth: Raster,
    params: RefinementParams = RefinementParams(),
    depth_params: DepthCodecParams = DepthCodecParams(),
) -> Optional[TightAnnotation]:
    """Refine one engine record into a tight annotation, or None on rejection.

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
    window = _pixel_window(record.coarse_box, params.coarse_box_margin_px, width, height)
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
    for _ in range(params.iterations):
        kept = candidates & (np.abs(z - mu) <= params.rho * mu)
        if not kept.any():
            return None
        mu = float(z[kept].mean())
    visible = int(kept.sum())
    if visible < params.min_component_px:
        return None
    ys, xs = np.nonzero(kept)
    return record_annotation(
        record,
        pixel_hull(ys + y0, xs + x0),
        visible,
        (width, height),
        kept_runs=mask_to_runs(kept, row_offset=y0, col_offset=x0),
    )


def recover_orphans(
    mask: np.ndarray,
    accepted: Sequence[TightAnnotation],
    depth: Raster,
    params: RefinementParams = RefinementParams(),
    depth_params: DepthCodecParams = DepthCodecParams(),
) -> list[TightAnnotation]:
    """Promote vehicle pixels unclaimed by any accepted annotation to orphan
    annotations (rendered objects the engine never registered).

    Components smaller than ``min_component_px`` are dropped as specks.
    Orphans carry the component's mean depth as range, no 3D fields, and
    occlusion level 2.
    """
    height, width = mask.shape
    residual = mask.copy()
    for annotation in accepted:
        for y, rx0, rx1 in annotation.kept_runs:
            residual[y, rx0:rx1] = False
    orphans = []
    for component in connected_components(residual):
        if component.pixel_count < params.min_component_px:
            continue
        region = component.mask(height, width)
        orphans.append(
            TightAnnotation(
                source_id=0,
                tight_box=component.bbox,
                visible_px=component.pixel_count,
                truncation=estimate_truncation(component.bbox, (width, height)),
                occlusion_level=2,
                range_m=mean_region_depth(region, depth, depth_params),
                kept_runs=component.runs,
            )
        )
    return orphans


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
    by image position.
    """
    if (stencil.width, stencil.height) != (depth.width, depth.height):
        raise FormatError(
            f"buffer dimension mismatch: stencil {stencil.width}x{stencil.height}, "
            f"depth {depth.width}x{depth.height}"
        )
    mask = vehicle_mask(stencil)
    accepted = []
    for record in sorted(records, key=lambda r: r.object_id):
        if record.cls is not ObjectClass.VEHICLE:
            continue
        annotation = refine_tight_box(record, mask, depth, params, depth_params)
        if annotation is not None:
            accepted.append(annotation)
    return accepted + recover_orphans(mask, accepted, depth, params, depth_params)
