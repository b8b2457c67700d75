"""Deterministic procedural scene generator and software rasterizer.

Stands in for the game engine plus capture plugins: every frame yields the
same buffer kinds a capture rig would download from the GPU (log-encoded
depth, packed class stencil, loose projected boxes) plus a withheld per-pixel
instance oracle that only tests and the oracle-labels command may read. This
module owns scene sampling, rendering and the write path of a frame; the
files, their types and their checks are the dataset contract in
:mod:`matrixgt.dataset`, which also holds the camera and cuboid conventions.

Rendering conventions:

* A pixel is covered when its center (ix + 0.5, iy + 0.5) lies inside the
  projected triangle; ties exactly on shared edges go to the top-left rule,
  so adjacent triangles never double-cover or leave gaps.
* Depth is interpolated as 1/z barycentrically in screen space (exact for
  planar faces), z-buffered with strict less-than, then log-encoded into an
  F32 raster. Uncovered pixels encode exactly 1.0 (the far plane).
* A frame's front faces are drawn by one flat numpy pass over every
  triangle's own pixel window, in batches of bounded size, and z-tested
  object by object in draw order (see :func:`_draw_triangles`).
* All sampling flows from ``ScenarioConfig.seed`` through the pinned
  xorshift64* stream for (seed, frame_idx); nothing reads platform RNGs.

Objects with any cuboid corner at or behind the near plane are skipped
entirely (not rendered, not recorded) with one warning per frame; the
placement region keeps generated scenes clear of the near plane, so this only
triggers on hand-crafted scenes.

Every frame draws into one cached set of frame buffers per process, keyed
by the camera and the scene's lowest-id object, which a scenario's frames
share: its ground slab. A set is a stencil, an instance and an encoded depth
plane, 7 B/px, and that object's layer, drawn once when the set is made and
kept as the float64 z and the encoded depth of the rows it drew (12 B a
pixel of those rows); its stencil and instance follow from that z. Every
window that the planes are reset, z-tested or encoded in is a band of whole
rows. A frame restores the layer over the rows that the frame before it
drew, then z-tests its later objects in a float64 scratch of the rows they
draw, seeded from the layer's z, so no full-frame depth buffer is kept.
:func:`write_scenario_frame` writes the files straight from the planes;
:func:`render_frame` returns copies of them, so its bundle owns its buffers.
"""

from __future__ import annotations

# The package's modules come first. A stage that runs with no bytecode cached
# compiles each of them as it is imported, and a module compiled after numpy
# is loaded raises the process's peak memory more than one compiled before.
from .dataset import (
    GROUND_OBJECT_ID, CameraModel, EngineRecord, ObjectClass, ScenarioConfig, SceneObject, _as_written,
    _ground_object, _hull, _project_corners, _proper_box, box_area, box_intersection_area, coarse_box, frame_paths,
    inflate_box, meta_text, pixel_window,
)
# kept for perfbench/replay.py, which reaches them through this module; they
# go when the replay is retired (ROADMAP item 2)
from .dataset import MANIFEST_NAME, list_frame_indices, load_scenario, manifest_text, read_frame_buffers, read_manifest
from .errors import BehindCameraError, ConfigError, write_bytes, write_text
from .raster_codec import DepthCodecParams, Raster, encode_log_depth, write_raster
from .rng import Xorshift64Star, mix64

import bisect
import functools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

# Objects rest 1 cm above the ground slab so vehicle bottoms never z-fight
# the ground's top face.
GROUND_CLEARANCE_M = 0.01

_PLACEMENT_ATTEMPTS = 400


@dataclass
class FrameBundle:
    """One captured frame: buffers, withheld instance oracle, engine records."""

    frame_id: int
    color: Optional[np.ndarray]  # (H, W, 3) uint8 or None
    depth: Raster  # F32, log-encoded
    stencil: Raster  # U8, packed class/flags
    instance_oracle: Raster  # U16, 0 = no object
    records: list[EngineRecord]


# Quads of corner indices (see dataset._CORNER_SIGNS) in perimeter order,
# wound so that (b - a) x (c - a) points out of the cuboid. Every triangle
# below inherits that outward winding, which lets the renderer cull back faces
# from the sign of the projected area alone (see _draw_triangles);
# scene_screen_triangles still yields all 12 triangles.
_FACE_QUADS = (
    (0, 1, 3, 2),  # -x
    (4, 6, 7, 5),  # +x
    (0, 4, 5, 1),  # -y (top; y grows downward)
    (2, 3, 7, 6),  # +y (bottom)
    (0, 2, 6, 4),  # -z (near)
    (1, 5, 7, 3),  # +z (far)
)

_FACE_TRIANGLES = tuple(
    tri for (a, b, c, d) in _FACE_QUADS for tri in ((a, b, c), (a, c, d))
)


# --- triangle rasterization core -------------------------------------------

Vertex = tuple[float, float, float]  # projected (x, y, 1/z): screen position, inverse camera depth
Triangle = tuple[Vertex, Vertex, Vertex]
Drawn = tuple[slice, np.ndarray, np.ndarray]  # a band of rows, their z, the mask of the pixels hit
Layer = tuple[slice, np.ndarray, np.ndarray]  # a band of rows, their z, their encoded depth


def _object_triangles(
    obj: SceneObject, corners: tuple[list[float], list[float], list[float]]
) -> list[tuple[Triangle, int, int]]:
    """The 12 triangles of one object, from its :func:`_project_corners`
    ``corners``, in enumeration order, as yielded by
    :func:`scene_screen_triangles`."""
    u, v, z = corners
    verts = list(zip(u, v, [1.0 / depth for depth in z]))
    code = int(obj.cls)
    return [((verts[a], verts[b], verts[c]), code, obj.object_id) for a, b, c in _FACE_TRIANGLES]


def scene_screen_triangles(
    camera: CameraModel, scene: Iterable[SceneObject]
) -> Iterator[tuple[Triangle, int, int]]:
    """Projected triangles of all renderable objects, in deterministic draw
    order (object_id ascending, fixed face/triangle enumeration).

    Yields ``(triangle, class_code, object_id)``, the triangle as three
    ``(x, y, 1/z)`` vertices. Objects with any corner at or behind the near
    plane are skipped and logged.
    """
    for obj in sorted(scene, key=lambda o: o.object_id):
        try:
            corners = _project_corners(camera, obj)
        except BehindCameraError as exc:
            log.warning("%s, skipped", exc)
            continue
        yield from _object_triangles(obj, corners)


# The flat pass evaluates at most this many pixels at a time. Its arrays grow
# with the batch: unbounded, they would grow with the largest triangle (each
# top-face triangle of the ground slab covers ~154k px at 640x480) and raise
# the process's peak memory, which the heap then keeps. A smaller batch takes
# more numpy calls per pixel, a larger one holds more memory per frame.
_BATCH_PIXELS = 1 << 12


def _draw_triangles(
    stencil: np.ndarray,
    instance: np.ndarray,
    triangles: Iterable[tuple[Triangle, int, int]],
    layer: Optional[Layer] = None,
) -> Optional[Drawn]:
    """Z-test ``triangles``, ``(triangle, class_code, object_id)`` as
    :func:`_object_triangles` gives them, in the given order, one object's
    triangles together. The band of rows that holds every pixel the call
    may change, those of the front faces' windows, comes first. The z-test
    runs in a float64 depth scratch of that band, which starts as
    ``layer``'s z where the two bands overlap and inf elsewhere; whole rows,
    so that a pixel has one flat index in the scratch and in the rows of
    the C-contiguous full-frame ``stencil`` and ``instance``, where a hit
    writes its class and id. Returns the band, the scratch and the mask of
    the scratch's pixels that were hit, or None if no front face has a
    pixel.

    Back faces are skipped. With the outward winding of ``_FACE_TRIANGLES`` a
    triangle faces the camera exactly when its projected signed area is
    negative (y-down screen). Rendered cuboids are closed and convex and the
    camera is always outside them (an object with a corner at or behind the
    near plane is never rendered), so a back face lies behind a front face of
    the same cuboid at every pixel it covers and can never win the z-test.

    A pixel center is covered when it passes the three edge functions
    ``w = (bx-ax)*(py-ay) - (by-ay)*(px-ax)`` of the triangle wound positively
    (y-down) under the top-left tie rule: ``w > 0`` inside, and ``w == 0``
    only on top edges (dy == 0, dx > 0) and left edges (dy < 0), so adjacent
    triangles never double-cover or leave gaps. Its depth interpolates 1/z
    barycentrically, ``z = ((w0+w1)+w2) / ((w0*i0 + w1*i1) + w2*i2)``.

    All front faces are evaluated in one flat pass, each over exactly its own
    :func:`pixel_window`: their window rows are laid end to end in draw
    order, an edge function is a per-row term minus a per-column term, and
    each pixel gathers the two of its row and column. The pass runs in
    batches of at most ``_BATCH_PIXELS`` positions and z-tests object by
    object in draw order: a pixel takes an object's least ``z`` over its
    triangles where that is strictly less than the scratch's. So a NaN never
    hits, an earlier object keeps a tie, and an object split across two
    batches gives what a triangle-by-triangle loop gives.
    """
    height, width = stencil.shape
    faces, runs = [], []  # a front face's vertices and window; (first face, class, id) per object
    for tri, class_code, object_id in triangles:
        (x0, y0, i0), (x1, y1, i1), (x2, y2, i2) = tri
        area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        if area >= 0.0:  # a back face, or no area
            continue
        window = pixel_window((min(x0, x1, x2), min(y0, y1, y2), max(x0, x1, x2), max(y0, y1, y2)), width, height)
        if window is None:
            continue
        if area < 0.0:  # wound positively, unless the area is NaN
            x1, y1, i1, x2, y2, i2 = x2, y2, i2, x1, y1, i1
        if not runs or runs[-1][2] != object_id:
            runs.append((len(faces), class_code, object_id))
        faces.append((x0, x1, x2, y0, y1, y2, i0, i1, i2, *window))
    if not faces:
        return None

    table = np.array(faces).T
    x, y, inverse = table[:9].reshape(3, 3, -1)
    wx0, wy0, wx1, wy1 = table[9:].astype(np.intp)
    rows = slice(int(wy0.min()), int(wy1.max()))
    z_rows = np.full((rows.stop - rows.start, width), np.inf)
    if layer:
        mine, its = _overlap(rows, layer[0])
        z_rows[mine] = layer[1][its]
    # edge k runs from vertex k+1, (ax, ay), to vertex k+2
    ax, ay = x[[1, 2, 0]], y[[1, 2, 0]]
    dx, dy = x[[2, 0, 1]] - ax, y[[2, 0, 1]] - ay
    heights, widths = wy1 - wy0, wx1 - wx0
    # numpy's methods rather than its functions, which wrap them in Python:
    # a frame makes a few hundred such calls
    first_column = widths.cumsum() - widths
    ys = (wy0 - (heights.cumsum() - heights)).repeat(heights) + np.arange(heights.sum())
    xs = (wx0 - first_column).repeat(widths) + np.arange(widths.sum())
    per_row = np.concatenate((dx, ay, inverse, (dy < 0.0) | ((dy == 0.0) & (dx > 0.0)))).repeat(heights, axis=1)
    row_terms, row_inverse, row_top_left = per_row[:3] * ((ys + 0.5) - per_row[3:6]), per_row[6:9], per_row[9:] != 0.0
    per_column = np.concatenate((dy, ax)).repeat(widths, axis=1)
    column_terms = per_column[:3] * ((xs + 0.5) - per_column[3:])
    # position q in row r is column column_offset[r] + q of the column terms
    # and pixel pixel_offset[r] + q of the flattened rows from the band's first
    row_length = widths.repeat(heights)
    row_start = row_length.cumsum() - row_length
    column_offset = first_column.repeat(heights) - row_start
    pixel_offset = (ys - rows.start) * width + wx0.repeat(heights) - row_start
    row_end = (row_start + row_length).tolist()
    run_start = ((heights * widths).cumsum() - heights * widths)[[first for first, _, _ in runs]].tolist()

    hits = np.zeros(z_rows.shape, dtype=bool)
    zflat, hits_flat = z_rows.reshape(-1), hits.reshape(-1)
    stencil_flat, instance_flat = (arr.reshape(-1)[rows.start * width :] for arr in (stencil, instance))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, row_end[-1], _BATCH_PIXELS):
            stop = min(start + _BATCH_PIXELS, row_end[-1])
            # rows first .. last - 1 have this many positions each in the batch
            first, last = bisect.bisect_right(row_end, start), bisect.bisect_left(row_end, stop) + 1
            lengths = row_length[first:last].copy()
            lengths[0] = row_end[first] - start
            lengths[-1] -= row_end[last - 1] - stop
            columns = column_offset[first:last].repeat(lengths) + np.arange(start, stop)
            w = row_terms[:, first:last].repeat(lengths, axis=1)
            w -= column_terms.take(columns, axis=1)
            covered = (w >= 0.0).all(axis=0)
            ties = w == 0.0
            if ties.any():  # w == 0 passes only top and left edges
                covered &= ~(ties & ~row_top_left[:, first:last].repeat(lengths, axis=1)).any(axis=0)
            (at,) = covered.nonzero()
            row_at = np.arange(first, last).repeat(lengths)[at]
            w = w.take(at, axis=1)
            z = w[0] + w[1] + w[2]
            w *= row_inverse.take(row_at, axis=1)
            z /= w[0] + w[1] + w[2]
            pixels = pixel_offset[row_at] + at + start

            # the objects with positions in the batch, and where in it each begins
            lo, hi = bisect.bisect_right(run_start, start), bisect.bisect_left(run_start, stop)
            cuts = [0, *at.searchsorted(np.subtract(run_start[lo:hi], start)).tolist(), at.size]
            for (_, class_code, object_id), a, b in zip(runs[lo - 1 : hi], cuts, cuts[1:]):
                zz, pp = z[a:b], pixels[a:b]
                hit = zz < zflat[pp]
                pp = pp[hit]
                if pp.size:
                    np.minimum.at(zflat, pp, zz[hit])
                    hits_flat[pp] = True
                    stencil_flat[pp] = class_code
                    instance_flat[pp] = object_id
    return rows, z_rows, hits


_SKY_RGB = (96, 144, 200)


def _object_rgb(object_id: int, cls: ObjectClass) -> tuple[int, int, int]:
    if cls is ObjectClass.GROUND:
        return (104, 100, 94)
    h = mix64(object_id)
    base = 96 if cls is ObjectClass.VEHICLE else 48
    return (base + (h & 0x7F), base + ((h >> 8) & 0x7F), base + ((h >> 16) & 0x7F))


def _render_color(instance: np.ndarray, scene: Sequence[SceneObject]) -> np.ndarray:
    lut = np.zeros((max((o.object_id for o in scene), default=0) + 1, 3), dtype=np.uint8)
    lut[0] = _SKY_RGB
    for obj in scene:
        lut[obj.object_id] = _object_rgb(obj.object_id, obj.cls)
    return lut[instance]


_EMPTY = (0, 0, 1.0)  # an undrawn pixel's stencil, instance and encoded depth


def _overlap(a: slice, b: slice) -> tuple[slice, slice]:
    """The rows that the row bands ``a`` and ``b`` share, as indices into an
    array of ``a``'s rows and into one of ``b``'s; both empty if they share
    none."""
    lo = max(a.start, b.start)
    hi = max(lo, min(a.stop, b.stop))
    return slice(lo - a.start, hi - a.start), slice(lo - b.start, hi - b.start)


# The depth encoding runs over this many pixels of a band at a time, so that
# its temporaries stay small however large the band.
_ENCODE_PIXELS = 1 << 15


def _encode_drawn(encoded: np.ndarray, drawn: Optional[Drawn], params: DepthCodecParams) -> None:
    """Log-encode into ``encoded`` the pixels that ``drawn``, what
    :func:`_draw_triangles` returned, hit. The encoding is elementwise, so
    every other pixel keeps its encoding."""
    if drawn is None:
        return
    rows, z, hit = drawn
    out = encoded[rows]
    step = max(1, _ENCODE_PIXELS // z.shape[1])
    for start in range(0, z.shape[0], step):
        band = slice(start, start + step)
        out[band][hit[band]] = encode_log_depth(z[band][hit[band]], params)


class _FrameBuffers:
    """The stencil (U8), instance (U16) and encoded depth (F32) ``arrays``
    that frames of one camera and lowest-id object ``first`` draw into,
    7 B/px, and that object's ``layer``: the rows it drew alone into the
    empty planes when the set was made, their float64 z (that draw's depth
    scratch) and their encoded depth, read-only; None if it drew nothing.
    Its stencil and instance are its class code and id where that z is not
    inf. The planes hold the layer outside ``dirty``, the rows that the last
    frame drew into."""

    def __init__(self, camera: CameraModel, first: SceneObject):
        self.arrays = tuple(np.empty((camera.height, camera.width), dtype=t) for t in (np.uint8, np.uint16, np.float32))
        for arr, empty in zip(self.arrays, _EMPTY):
            arr.fill(empty)
        self.first = first
        self.layer: Optional[Layer] = None
        self.dirty: Optional[slice] = None
        try:
            corners = _project_corners(camera, first)
        except BehindCameraError:
            return  # every frame that draws it warns of it
        drawn = self.draw(_object_triangles(first, corners), camera.depth_params)
        if drawn:
            rows, z, _ = drawn
            self.layer = rows, z, self.arrays[2][rows].copy()
            for arr in self.layer[1:]:
                arr.flags.writeable = False
        self.dirty = None  # the planes hold exactly the layer

    def _reset(self, rows: slice) -> None:
        """Restore the layer's pixels in ``rows`` of the planes; a call of its
        own, so that its mask is freed before the frame draws."""
        planes = [arr[rows] for arr in self.arrays]
        for plane, empty in zip(planes, _EMPTY):
            plane[...] = empty
        if self.layer:
            mine, its = _overlap(rows, self.layer[0])
            stencil, instance, encoded = (plane[mine] for plane in planes)
            z, cached = (arr[its] for arr in self.layer[1:])
            drawn = z != np.inf
            np.multiply(drawn, np.uint8(self.first.cls), out=stencil)
            np.multiply(drawn, np.uint16(self.first.object_id), out=instance)
            encoded[...] = cached

    def draw(self, triangles: Iterable[tuple[Triangle, int, int]], params: DepthCodecParams) -> Optional[Drawn]:
        """Reset the dirty rows, then draw and encode ``triangles`` over the
        layer. Every row is dirty until that is done, so a frame that fails
        part-way leaves the next a full reset."""
        rows, self.dirty = self.dirty, slice(0, self.arrays[0].shape[0])
        if rows is not None:
            self._reset(rows)
        stencil, instance, encoded = self.arrays
        drawn = _draw_triangles(stencil, instance, triangles, self.layer)
        _encode_drawn(encoded, drawn, params)
        self.dirty = drawn[0] if drawn else None
        return drawn


# The one set of frame buffers per process (each pool worker has its own): a
# scenario's frames share its camera and ground slab. Reusing it keeps the heap
# from being handed back to the OS and faulted in again every frame.
_frame_buffers = functools.lru_cache(maxsize=1)(_FrameBuffers)


def _render_into(
    camera: CameraModel,
    scene: Sequence[SceneObject],
    frame_id: int,
    *,
    inflate_pct: float,
    record_max_range_m: float,
    emit_color: bool,
) -> FrameBundle:
    """Draw ``scene`` over the layer of the cached frame buffers of
    ``camera`` and the scene's lowest-id object, and bundle them. Each object
    is projected once here: its corners give both its triangles and its
    record's coarse box.

    The bundle's rasters are read-only views of the cached buffers, so they
    hold what this call drew only until the buffers are drawn into again.
    """
    if not scene:
        raise ValueError("scene must be nonempty")
    ordered = sorted(scene, key=lambda o: o.object_id)
    projected = []
    for obj in ordered:
        try:
            projected.append((obj, _project_corners(camera, obj)))
        except BehindCameraError as exc:
            log.warning("%s, skipped", exc)
    buffers = _frame_buffers(camera, ordered[0])
    # the first object's pixels are the layer's; a skipped one draws none
    later = projected[1:] if projected and projected[0][0] is ordered[0] else projected
    buffers.draw((t for obj, corners in later for t in _object_triangles(obj, corners)), camera.depth_params)
    stencil, instance, encoded = buffers.arrays

    records = []
    for obj, corners in projected:
        range_m = math.hypot(*obj.center)
        if record_max_range_m > 0.0 and range_m > record_max_range_m:
            continue
        records.append(
            EngineRecord(
                object_id=obj.object_id,
                cls=obj.cls,
                coarse_box=inflate_box(_hull(corners), inflate_pct),
                range_m=range_m,
                size=obj.size,
                yaw=obj.yaw,
                location_cam=obj.center,
            )
        )

    color = _render_color(instance, scene) if emit_color else None
    return FrameBundle(
        frame_id=frame_id,
        color=color,
        depth=Raster(encoded.view()),
        stencil=Raster(stencil.view()),
        instance_oracle=Raster(instance.view()),
        records=records,
    )


def render_frame(
    camera: CameraModel,
    scene: Sequence[SceneObject],
    frame_id: int,
    *,
    inflate_pct: float = 0.0,
    record_max_range_m: float = 0.0,
    emit_color: bool = True,
) -> FrameBundle:
    """Z-buffered rasterization of a scene into a FrameBundle.

    Every covered pixel holds the log-encoded depth of the nearest surface,
    that surface's stencil class code, and its object id in the instance
    oracle. Uncovered pixels: depth exactly 1.0, stencil 0, instance 0.
    Records carry one EngineRecord per object in front of the near plane
    (optionally inflated by ``inflate_pct`` to reproduce loose engine boxes),
    except objects beyond ``record_max_range_m`` when that limit is set.

    The scene is drawn into the same cached buffers as
    :func:`write_scenario_frame`'s, and the bundle gets read-only copies of
    them: it owns its buffers, shared with no other frame or cache.
    """
    bundle = _render_into(
        camera,
        scene,
        frame_id,
        inflate_pct=inflate_pct,
        record_max_range_m=record_max_range_m,
        emit_color=emit_color,
    )
    bundle.depth, bundle.stencil, bundle.instance_oracle = (
        Raster(raster.data.copy()) for raster in (bundle.depth, bundle.stencil, bundle.instance_oracle)
    )
    return bundle


# --- procedural scene generation -------------------------------------------


def _placement_ok(config: ScenarioConfig, box, z, placed: list[tuple[tuple, float]]) -> bool:
    for other_box, other_z in placed:
        inter = box_intersection_area(box, other_box)
        if inter <= 0.0:
            continue
        if config.min_depth_gap_m > 0.0 and abs(z - other_z) < config.min_depth_gap_m:
            return False
        if inter / min(box_area(box), box_area(other_box)) > config.max_overlap_frac:
            return False
    return True


def _place(
    rng: Xorshift64Star,
    config: ScenarioConfig,
    camera: CameraModel,
    cls: ObjectClass,
    object_id: int,
    placed: list[tuple[tuple, float]],
) -> SceneObject:
    """Rejection-sample one object; after the attempt budget the last candidate
    in front of the near plane wins so the object count stays exact
    (constraints are best-effort). A candidate whose inflated coarse box has
    no area as a meta file writes it counts as one behind the near plane: it
    could get no engine record. Raises :class:`ConfigError` when no candidate clears
    both."""
    fallback = None
    for _ in range(_PLACEMENT_ATTEMPTS):
        if cls is ObjectClass.VEHICLE:
            length = rng.uniform(config.vehicle_length_min, config.vehicle_length_max)
            width = rng.uniform(config.vehicle_width_min, config.vehicle_width_max)
            height = rng.uniform(config.vehicle_height_min, config.vehicle_height_max)
            yaw_limit = math.radians(config.vehicle_yaw_max_deg)
        else:
            length = rng.uniform(config.distractor_size_min, config.distractor_size_max)
            width = rng.uniform(config.distractor_size_min, config.distractor_size_max)
            height = rng.uniform(config.distractor_size_min, config.distractor_size_max)
            yaw_limit = math.pi
        yaw = rng.uniform(-yaw_limit, yaw_limit)
        x = rng.uniform(config.region_x_min, config.region_x_max)
        z = rng.uniform(config.region_z_min, config.region_z_max)
        y = config.camera_height_m - height / 2.0 - GROUND_CLEARANCE_M
        candidate = SceneObject(object_id, cls, (x, y, z), (length, width, height), yaw)
        try:
            # constrain the boxes the annotator will actually see (inflated)
            box = inflate_box(coarse_box(camera, candidate), config.coarse_box_inflate_pct)
        except BehindCameraError:
            continue
        if not _proper_box(_as_written(box)):
            continue
        if _placement_ok(config, box, z, placed):
            placed.append((box, z))
            return candidate
        fallback = candidate, box, z
    if fallback is None:
        raise ConfigError(
            f"placement region z in [{config.region_z_min}, {config.region_z_max}] m put all "
            f"{_PLACEMENT_ATTEMPTS} candidates for object {object_id} at or behind the near plane "
            f"(near_m={config.near_m}) or gave them a coarse box with no area"
        )
    log.warning("placement constraints not met for object %d, accepting last candidate", object_id)
    candidate, box, z = fallback
    placed.append((box, z))
    return candidate


def generate_scene(config: ScenarioConfig, frame_idx: int) -> list[SceneObject]:
    """Deterministic scene for (config.seed, frame_idx): ground slab plus
    sampled vehicles and distractors inside the placement region."""
    if not (0 <= frame_idx < config.frames):
        raise ValueError(f"frame_idx {frame_idx} outside [0, {config.frames})")
    rng = Xorshift64Star.for_frame(config.seed, frame_idx)
    camera = config.camera()
    objects = [_ground_object(config)]
    placed: list[tuple[tuple, float]] = []
    n_vehicles = rng.randint(config.vehicle_count_min, config.vehicle_count_max)
    n_distractors = rng.randint(config.distractor_count_min, config.distractor_count_max)
    next_id = GROUND_OBJECT_ID + 1
    for _ in range(n_vehicles):
        objects.append(_place(rng, config, camera, ObjectClass.VEHICLE, next_id, placed))
        next_id += 1
    for _ in range(n_distractors):
        objects.append(_place(rng, config, camera, ObjectClass.DISTRACTOR, next_id, placed))
        next_id += 1
    return objects


def ppm_header(rgb: np.ndarray) -> bytes:
    """Header of the binary PPM (P6) file of an (H, W, 3) uint8 image; its
    pixels follow in row-major order."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"PPM image must be (H, W, 3) uint8, got {rgb.shape} {rgb.dtype}")
    return f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")


def write_frame_files(bundle: FrameBundle, dataset_dir: str | Path) -> None:
    paths = frame_paths(dataset_dir, bundle.frame_id)
    write_raster(bundle.depth, paths["depth"])
    write_raster(bundle.stencil, paths["stencil"])
    write_raster(bundle.instance_oracle, paths["instance"])
    write_text(paths["meta"], meta_text(bundle.records))
    if bundle.color is not None:
        write_bytes(paths["color"], ppm_header(bundle.color), np.ascontiguousarray(bundle.color))


def write_scenario_frame(config: ScenarioConfig, frame_idx: int, dataset_dir: str | Path) -> None:
    """Generate, render and write one frame of a scenario.

    The same files as :func:`write_frame_files` of :func:`render_frame` with
    the scenario's knobs, but written straight from this process's cached
    frame buffers rather than from copies; nothing that views them outlives
    the call.
    """
    bundle = _render_into(
        config.camera(),
        generate_scene(config, frame_idx),
        frame_idx,
        inflate_pct=config.coarse_box_inflate_pct,
        record_max_range_m=config.record_max_range_m,
        emit_color=config.emit_color,
    )
    write_frame_files(bundle, dataset_dir)
