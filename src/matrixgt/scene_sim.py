"""Deterministic procedural scene generator and software rasterizer.

Stands in for the game engine plus capture plugins: every frame yields the
same buffer kinds a capture rig would download from the GPU (log-encoded
depth, packed class stencil, loose projected boxes) plus a withheld per-pixel
instance oracle that only tests and the oracle-labels command may read.

Conventions, fixed for the whole pipeline:

* Camera space equals world space: x right, y down, z forward, camera at the
  origin. The ground plane sits at y = camera_height_m.
* Objects are cuboids. ``size`` is (length, width, height): length along the
  object's local x (heading), width along local z, height vertical. ``yaw``
  rotates about the vertical axis; yaw = 0 puts the length parallel to the
  image x axis.
* A pixel is covered when its center (ix + 0.5, iy + 0.5) lies inside the
  projected triangle; ties exactly on shared edges go to the top-left rule,
  so adjacent triangles never double-cover or leave gaps.
* Depth is interpolated as 1/z barycentrically in screen space (exact for
  planar faces), z-buffered with strict less-than, then log-encoded into an
  F32 raster. Uncovered pixels encode exactly 1.0 (the far plane).
* All sampling flows from ``ScenarioConfig.seed`` through the pinned
  xorshift64* stream for (seed, frame_idx); nothing reads platform RNGs.

Objects with any cuboid corner at or behind the near plane are skipped
entirely (not rendered, not recorded) with one warning per frame; the
placement region keeps generated scenes clear of the near plane, so this only
triggers on hand-crafted scenes.

Frame buffers have one owner each. :func:`render_frame` allocates fresh ones,
copies the whole cached first-object layer into them and hands them to the
returned bundle. :func:`write_scenario_frame` draws into one set per process
that every frame reuses, and writes the files from it before the call
returns; the set remembers which layer it holds and the window that its last
frame drew into, and the next frame resets only that window. The cached
first-object layer is read-only and only ever copied from.

Cuboid corners are computed in Python floats, with one rounding per fused
multiply-add and no BLAS, so their bits do not depend on the host's CPU.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import BehindCameraError, ConfigError, FormatError, ValidationError, read_text
from .raster_codec import (
    DepthCodecParams,
    Raster,
    encode_log_depth,
    read_raster,
    write_raster,
)
from .rng import Xorshift64Star, mix64

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
# frame files are named by a six-digit index, and generate lists every frame
# before it writes one
MAX_FRAMES = 1_000_000
# a frame's buffers take ~32 bytes per pixel in each process that draws or
# reads it, so the image is capped at 2^24 pixels (~0.5 GB at the cap)
MAX_IMAGE_PIXELS = 1 << 24

GROUND_OBJECT_ID = 1
GROUND_THICKNESS_M = 0.02
GROUND_NEAR_Z_M = 1.0
GROUND_LATERAL_MARGIN_M = 20.0
GROUND_FORWARD_MARGIN_M = 40.0

# Objects rest 1 cm above the ground slab so vehicle bottoms never z-fight
# the ground's top face.
GROUND_CLEARANCE_M = 0.01

_PLACEMENT_ATTEMPTS = 400


class ObjectClass(enum.IntEnum):
    """Scene object classes; the value doubles as the stencil class code."""

    GROUND = 1
    VEHICLE = 2
    DISTRACTOR = 3

    @property
    def label(self) -> str:
        return self.name.title()


_CLASS_BY_LABEL = {c.label.lower(): c for c in ObjectClass}
_MAX_CLASS_CODE = max(ObjectClass)  # stencil class codes are 0 (no object) and the class values


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: u = fx*x/z + cx, v = fy*y/z + cy."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    depth_params: DepthCodecParams

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"image size must be >= 1, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ConfigError(f"principal point ({self.cx}, {self.cy}) outside {self.width}x{self.height} image")


@dataclass(frozen=True)
class SceneObject:
    """One cuboid in the scene; ``center`` is the cuboid centroid."""

    object_id: int
    cls: ObjectClass
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # (length, width, height)
    yaw: float

    def __post_init__(self):
        if self.object_id <= 0:
            raise ValueError(f"object_id must be positive, got {self.object_id}")
        if any(s <= 0 for s in self.size):
            raise ValueError(f"size components must be positive, got {self.size}")


@dataclass(frozen=True)
class EngineRecord:
    """What the engine hands the annotator per object: class, loose 2D box, 3D pose."""

    object_id: int
    cls: ObjectClass
    coarse_box: tuple[float, float, float, float]  # (left, top, right, bottom), un-clipped
    range_m: float
    size: tuple[float, float, float]
    yaw: float
    location_cam: tuple[float, float, float]

    def __post_init__(self):
        if not _proper_box(self.coarse_box):
            raise ValueError(f"coarse_box must be well-ordered with positive area, got {self.coarse_box}")
        if not 0.0 < self.range_m < math.inf:
            raise ValueError(f"range_m must be positive and finite, got {self.range_m}")
        if not all(s > 0 for s in self.size):
            raise ValueError(f"size components must be positive, got {self.size}")


@dataclass
class FrameBundle:
    """One captured frame: buffers, withheld instance oracle, engine records."""

    frame_id: int
    color: Optional[np.ndarray]  # (H, W, 3) uint8 or None
    depth: Raster  # F32, log-encoded
    stencil: Raster  # U8, packed class/flags
    instance_oracle: Raster  # U16, 0 = no object
    records: list[EngineRecord]


@dataclass
class ScenarioConfig:
    """Everything a dataset generation run depends on; serialized key=value."""

    seed: int
    frames: int
    width: int = 640
    height: int = 480
    fx: float = 700.0
    fy: float = 700.0
    cx: float = 320.0
    cy: float = 240.0
    near_m: float = 0.15
    far_m: float = 600.0
    camera_height_m: float = 1.6
    vehicle_count_min: int = 3
    vehicle_count_max: int = 8
    distractor_count_min: int = 0
    distractor_count_max: int = 2
    vehicle_length_min: float = 3.8
    vehicle_length_max: float = 5.0
    vehicle_width_min: float = 1.7
    vehicle_width_max: float = 2.0
    vehicle_height_min: float = 1.4
    vehicle_height_max: float = 2.2
    vehicle_yaw_max_deg: float = 180.0  # vehicles sample yaw in +-this range
    distractor_size_min: float = 0.6
    distractor_size_max: float = 2.0
    region_x_min: float = -14.0
    region_x_max: float = 14.0
    region_z_min: float = 25.0
    region_z_max: float = 45.0
    min_depth_gap_m: float = 0.0
    max_overlap_frac: float = 1.0
    coarse_box_inflate_pct: float = 0.10
    record_max_range_m: float = 0.0  # 0 = unlimited; beyond it objects render but get no record
    emit_color: bool = True

    def validate(self) -> None:
        for field in dataclass_fields(self):
            value = getattr(self, field.name)
            # NaN passes every range comparison below, so it is caught first
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if not (1 <= self.frames <= MAX_FRAMES):
            raise ConfigError(f"frames must be in [1, {MAX_FRAMES}], got {self.frames}")
        for name in ("vehicle_count", "distractor_count"):
            lo, hi = getattr(self, name + "_min"), getattr(self, name + "_max")
            if lo < 0 or hi < lo:
                raise ConfigError(f"empty or negative {name} range [{lo}, {hi}]")
        for name in ("vehicle_length", "vehicle_width", "vehicle_height", "distractor_size"):
            lo, hi = getattr(self, name + "_min"), getattr(self, name + "_max")
            if lo <= 0 or hi < lo:
                raise ConfigError(f"empty or non-positive {name} range [{lo}, {hi}]")
        if self.region_x_max < self.region_x_min or self.region_z_max < self.region_z_min:
            raise ConfigError("empty placement region")
        if self.region_z_min <= 0:
            raise ConfigError(f"placement region must be in front of the camera, got z_min={self.region_z_min}")
        if self.min_depth_gap_m < 0:
            raise ConfigError(f"min_depth_gap_m must be >= 0, got {self.min_depth_gap_m}")
        if not (0.0 < self.max_overlap_frac <= 1.0):
            raise ConfigError(f"max_overlap_frac must be in (0, 1], got {self.max_overlap_frac}")
        if self.coarse_box_inflate_pct < 0:
            raise ConfigError(f"coarse_box_inflate_pct must be >= 0, got {self.coarse_box_inflate_pct}")
        if self.record_max_range_m < 0:
            raise ConfigError(f"record_max_range_m must be >= 0, got {self.record_max_range_m}")
        if self.camera_height_m <= 0:
            raise ConfigError(f"camera_height_m must be positive, got {self.camera_height_m}")
        if not (0.0 < self.vehicle_yaw_max_deg <= 180.0):
            raise ConfigError(f"vehicle_yaw_max_deg must be in (0, 180], got {self.vehicle_yaw_max_deg}")
        camera = self.camera()  # camera/codec field validation
        if self.width * self.height > MAX_IMAGE_PIXELS:
            raise ConfigError(
                f"image must have at most {MAX_IMAGE_PIXELS} pixels, got {self.width}x{self.height}"
            )
        try:  # every frame records the ground slab, so its box must fit a meta file
            ground = inflate_box(coarse_box(camera, _ground_object(self)), self.coarse_box_inflate_pct)
        except BehindCameraError:
            return  # skipped with a warning on every frame, as any such object
        if not _proper_box(ground):
            raise ConfigError(f"the ground slab projects to the box {ground}, which has no finite positive area")

    def camera(self) -> CameraModel:
        return CameraModel(
            fx=self.fx,
            fy=self.fy,
            cx=self.cx,
            cy=self.cy,
            width=self.width,
            height=self.height,
            depth_params=DepthCodecParams(self.near_m, self.far_m),
        )


# --- projection and cuboid geometry ---------------------------------------

# Corner index i = 4*(sx>0) + 2*(sy>0) + (sz>0) over local signs
# (sx*l/2, sy*h/2, sz*w/2).
_CORNER_SIGNS = tuple((sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1))

# Per corner, the index of its (sx, sz) pair in _fma_signs' order, which
# picks its x and z, and of its sy, which picks its y.
_XZ_INDEX = tuple(2 * (sx > 0) + (sz > 0) for sx, _, sz in _CORNER_SIGNS)
_Y_INDEX = tuple(int(sy > 0) for _, sy, _ in _CORNER_SIGNS)

# Quads in perimeter order, wound so that (b - a) x (c - a) points out of the
# cuboid. Every triangle below inherits that outward winding, which lets the
# renderer cull back faces from the sign of the projected area alone (see
# _rasterize_into); scene_screen_triangles still yields all 12 triangles.
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

# Dekker's product: p + e == x*y exactly for p = fl(x*y), with each factor cut
# into two halves by Veltkamp's splitter 2^27 + 1. It holds while no split
# overflows and the low part e does not underflow, which these bounds ensure.
_VELTKAMP_SPLITTER = 134217729.0
_SPLIT_MAX = 2.0**995
_PRODUCT_MIN = 2.0**-968
_PRODUCT_MAX = 2.0**1000


def _fma_signs(m: float, y: float, a: float) -> tuple[float, float, float, float]:
    """``fma(+-m, y, +-a)`` in the order (-m, -a), (+m, -a), (-m, +a), (+m, +a).

    ``fma(x, y, a)`` is ``x*y + a`` rounded once, as a hardware fused
    multiply-add gives it (Python 3.11 has no ``math.fma``). Dekker's product
    gives ``m*y`` exactly as ``p + e``, and ``math.fsum`` rounds ``p + e + a``
    correctly. Where Dekker's product is not exact (a zero factor, a factor too
    large to split, a product that overflows or whose low part underflows) or
    ``fsum`` overflows part-way, :func:`_exact_fma` gives the value instead.
    """
    p = m * y
    if abs(m) < _SPLIT_MAX and abs(y) < _SPLIT_MAX and _PRODUCT_MIN <= abs(p) < _PRODUCT_MAX:
        t = m * _VELTKAMP_SPLITTER
        mh = t - (t - m)
        ml = m - mh
        t = y * _VELTKAMP_SPLITTER
        yh = t - (t - y)
        yl = y - yh
        e = ((mh * yh - p) + mh * yl + ml * yh) + ml * yl
        try:
            return (math.fsum((-p, -e, -a)), math.fsum((p, e, -a)),
                    math.fsum((-p, -e, a)), math.fsum((p, e, a)))
        except OverflowError:  # a partial sum overflowed; the exact value may not
            pass
    return tuple(_exact_fma(sm * m, y, sa * a) for sa in (-1.0, 1.0) for sm in (-1.0, 1.0))


def _exact_fma(x: float, y: float, a: float) -> float:
    """``x*y + a`` rounded once; +-inf where it overflows, and IEEE 754's
    special values and signed zeros elsewhere. A zero factor (the sine of a
    yaw of 0, as the ground slab's) or a non-finite one makes ``x*y`` exact;
    other operands round the exact rational value."""
    if not (x and y and math.isfinite(x) and math.isfinite(y)):
        return x * y + a  # the product is exact: +-0, +-inf or nan
    if not math.isfinite(a):
        return a
    from fractions import Fraction  # imported only on this rare path: it loads decimal

    exact = Fraction(x) * Fraction(y) + Fraction(a)
    if not exact:
        return x * y + a  # x*y is exact here, so this sum gives zero's IEEE sign
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _cuboid_corners(obj: SceneObject) -> tuple[list[float], list[float], list[float]]:
    """Camera-space ``x``, ``y`` and ``z`` of the 8 corners of an object's
    oriented cuboid, each a list in corner index order.

    With local ``(a, b, d) = (sx*l/2, sy*h/2, sz*w/2)`` and ``c, s`` the
    cosine and sine of the yaw, a corner is ``x = fma(d, s, a*c) + ox``,
    ``y = b + oy`` and ``z = fma(d, c, a*(-s)) + oz``. These are the bits that
    an FMA kernel gives for the rotation ``half @ rot.T`` (rows of
    ``rot``: ``(c, 0, s)``, ``(0, 1, 0)``, ``(-s, 0, c)``), here on every host
    and without BLAS. ``x`` and ``z`` depend only on the ``(sx, sz)`` signs.
    """
    length, width, height = obj.size
    a, b, d = length / 2.0, height / 2.0, width / 2.0
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    ox, oy, oz = obj.center
    xs = [x + ox for x in _fma_signs(d, s, a * c)]
    zs = [z + oz for z in _fma_signs(d, c, a * -s)]
    ys = (-b + oy, b + oy)
    return [xs[k] for k in _XZ_INDEX], [ys[k] for k in _Y_INDEX], [zs[k] for k in _XZ_INDEX]


def _project_corners(camera: CameraModel, obj: SceneObject) -> tuple[list[float], list[float], list[float]]:
    """Pixel coordinates ``(u, v)`` and camera depth ``z`` of the 8 cuboid
    corners, each a list in corner index order.

    Raises :class:`BehindCameraError` if any corner sits at or behind the near
    plane; such objects are neither rendered nor recorded. The check comes
    before any division, so every divisor is positive.
    """
    xs, ys, zs = _cuboid_corners(obj)
    z_min = min(zs)
    if z_min <= camera.depth_params.near_m:
        raise BehindCameraError(f"object {obj.object_id} has a corner at z={z_min:.3f} <= near plane")
    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    u = [fx * x / z + cx for x, z in zip(xs, zs)]
    v = [fy * y / z + cy for y, z in zip(ys, zs)]
    return u, v, zs


def coarse_box(camera: CameraModel, obj: SceneObject) -> tuple[float, float, float, float]:
    """Axis-aligned hull of the 8 projected cuboid corners, NOT clipped to the
    image (truncation is measured from the un-clipped box).

    Raises :class:`BehindCameraError` if any corner sits at or behind the near
    plane; callers skip such objects from the records.
    """
    return _hull(_project_corners(camera, obj))


def _hull(corners: tuple[list[float], list[float], list[float]]) -> tuple[float, float, float, float]:
    u, v, _ = corners
    return min(u), min(v), max(u), max(v)


def inflate_box(
    box: tuple[float, float, float, float], pct: float
) -> tuple[float, float, float, float]:
    """Grow a box's width and height by ``pct`` about its center."""
    left, top, right, bottom = box
    dx = (right - left) * pct / 2.0
    dy = (bottom - top) * pct / 2.0
    return left - dx, top - dy, right + dx, bottom + dy


def _proper_box(box) -> bool:
    """Whether a (left, top, right, bottom) box is well-ordered with a
    finite positive area, as an :class:`EngineRecord`'s coarse box must be."""
    left, top, right, bottom = box
    return left < right and top < bottom and 0.0 < box_area(box) < math.inf


def box_area(box) -> float:
    return (box[2] - box[0]) * (box[3] - box[1])


def box_intersection_area(a, b) -> float:
    """Intersection area of two (left, top, right, bottom) boxes; 0 when disjoint."""
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return w * h if (w > 0 and h > 0) else 0.0


def pixel_window(box, width: int, height: int, margin: float = 0) -> Optional[tuple[int, int, int, int]]:
    """``(x0, y0, x1, y1)``: the window [x0, x1) x [y0, y1) of the pixels whose
    centers lie in ``box`` dilated by ``margin``, clipped to the image; None
    if empty. Bounds are compared with the image before they are rounded, so
    an infinite or NaN bound gives an empty or full span rather than an error."""
    left, top, right, bottom = box
    lo, hi = left - margin - 0.5, right + margin - 0.5
    x0 = math.ceil(lo) if 0.0 < lo < width else (width if lo >= width else 0)
    x1 = math.floor(hi) + 1 if -1.0 < hi < width - 1 else (0 if hi <= -1.0 else width)
    lo, hi = top - margin - 0.5, bottom + margin - 0.5
    y0 = math.ceil(lo) if 0.0 < lo < height else (height if lo >= height else 0)
    y1 = math.floor(hi) + 1 if -1.0 < hi < height - 1 else (0 if hi <= -1.0 else height)
    return (x0, y0, x1, y1) if x0 < x1 and y0 < y1 else None


# --- triangle rasterization core -------------------------------------------

Vertex = tuple[float, float, float]  # projected (x, y, 1/z): screen position, inverse camera depth
Triangle = tuple[Vertex, Vertex, Vertex]


def _edge_accepts(w: np.ndarray, ax: float, ay: float, bx: float, by: float) -> np.ndarray:
    """Half-plane test with the top-left tie rule for edge a->b of a
    positively oriented triangle (y-down): w > 0 inside, w == 0 counts only on
    top edges (dy == 0, dx > 0) and left edges (dy < 0)."""
    dy = by - ay
    if dy < 0.0 or (dy == 0.0 and bx - ax > 0.0):
        return w >= 0.0
    return w > 0.0


def triangle_coverage_depth(tri: Triangle, px: np.ndarray, py: np.ndarray):
    """Coverage and camera-space depth of one projected triangle at pixel centers.

    ``tri`` is three ``(x, y, 1/z)`` vertices: screen coordinates and the
    inverse camera depth. ``px``/``py`` are broadcastable float64 arrays of
    pixel-center coordinates. Returns ``(covered, z)`` arrays, or None for
    degenerate (zero-area) triangles. Either winding is accepted: the vertex
    order is normalized to positive orientation first, so a triangle and its
    mirror-wound copy give the same values. Depth comes from barycentric
    interpolation of 1/z, which is exact for planar faces; ``z`` is
    meaningful only where ``covered``.

    This function is the single arithmetic path for rasterization: the
    renderer evaluates it per front-facing triangle over the triangle's
    bounding box clamped to the image, and brute-force checkers may evaluate
    it for every triangle over the full image and take a minimum; both see
    bit-identical values per pixel.
    """
    (x0, y0, i0), (x1, y1, i1), (x2, y2, i2) = tri
    area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if area == 0.0:
        return None
    if area < 0.0:
        x1, y1, i1, x2, y2, i2 = x2, y2, i2, x1, y1, i1
    w0 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    w1 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)
    w2 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
    covered = _edge_accepts(w0, x1, y1, x2, y2)
    covered &= _edge_accepts(w1, x2, y2, x0, y0)
    covered &= _edge_accepts(w2, x0, y0, x1, y1)
    # z = ((w0 + w1) + w2) / (((w0 * i0) + (w1 * i1)) + (w2 * i2)), evaluated
    # in place in exactly that order, reusing the edge-function buffers.
    z = w0 + w1
    z += w2
    w0 *= i0
    w1 *= i1
    w0 += w1
    w2 *= i2
    w0 += w2
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= w0
    return covered, z


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


def _rasterize_into(
    zbuf: np.ndarray,
    stencil: np.ndarray,
    instance: np.ndarray,
    tri: Triangle,
    class_code: int,
    object_id: int,
) -> None:
    """Z-test one triangle into the frame buffers, skipping back faces.

    With the outward winding of ``_FACE_TRIANGLES`` a triangle faces the
    camera exactly when its projected signed area is negative (y-down
    screen). Rendered cuboids are closed and convex and the camera is always
    outside them (an object with a corner at or behind the near plane is never
    rendered), so a back face lies behind a front face of the same cuboid at
    every pixel it covers and can never win the strict less-than z-test.

    Pixels are evaluated over the triangle's :func:`pixel_window`; coverage
    itself is decided only by ``triangle_coverage_depth``.
    """
    (ax, ay, _), (bx, by, _), (cx, cy, _) = tri
    if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) >= 0.0:
        return
    height, width = zbuf.shape
    window = pixel_window((min(ax, bx, cx), min(ay, by, cy), max(ax, bx, cx), max(ay, by, cy)), width, height)
    if window is None:
        return
    x0, y0, x1, y1 = window
    px = np.arange(x0, x1, dtype=np.float64) + 0.5
    py = (np.arange(y0, y1, dtype=np.float64) + 0.5)[:, None]
    result = triangle_coverage_depth(tri, px, py)
    if result is None:
        return
    covered, z = result
    zwin = zbuf[y0:y1, x0:x1]
    hit = z < zwin
    hit &= covered
    if not hit.any():
        return
    np.copyto(zwin, z, where=hit)
    np.copyto(stencil[y0:y1, x0:x1], class_code, where=hit)
    np.copyto(instance[y0:y1, x0:x1], object_id, where=hit)


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


@functools.lru_cache(maxsize=1)
def _first_object_layer(
    camera: CameraModel, obj: SceneObject
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``obj`` drawn alone into empty buffers: read-only zbuf, stencil,
    instance and encoded depth. An object at or behind the near plane is not
    drawn; :func:`_render_into` logs its skip on every frame.

    Every frame starts from these pixels (see :func:`_render_into`). A scenario
    draws its ground slab first in every frame, so one entry serves a whole
    run; the arrays depend only on the two frozen, hashable arguments.
    """
    layer = zbuf, stencil, instance, encoded = _new_frame_buffers(camera.height, camera.width)
    for arr, empty in zip(layer, (np.inf, 0, 0, 1.0)):
        arr.fill(empty)
    try:
        triangles = _object_triangles(obj, _project_corners(camera, obj))
    except BehindCameraError:
        triangles = []
    for triangle in triangles:
        _rasterize_into(zbuf, stencil, instance, *triangle)
    covered = np.isfinite(zbuf)
    encoded[covered] = encode_log_depth(zbuf[covered], camera.depth_params)
    for arr in layer:
        arr.flags.writeable = False
    return layer


def _new_frame_buffers(height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialized zbuf (float64), stencil (U8), instance (U16) and encoded
    depth (F32) arrays for one frame."""
    shape = (height, width)
    return (
        np.empty(shape, dtype=np.float64),
        np.empty(shape, dtype=np.uint8),
        np.empty(shape, dtype=np.uint16),
        np.empty(shape, dtype=np.float32),
    )


Window = tuple[slice, slice]  # rows, columns


class _FrameBuffers:
    """One frame's ``arrays`` (as made by :func:`_new_frame_buffers`) and what
    they hold: the pixels of ``layer``, a :func:`_first_object_layer`,
    everywhere outside ``window``, which the last frame drew into on top of
    it. A fresh set holds no layer, so its first frame copies all of one.
    """

    def __init__(self, height: int, width: int):
        self.arrays = _new_frame_buffers(height, width)
        self.layer: Optional[tuple[np.ndarray, ...]] = None
        self.window: Optional[Window] = None


# The frame buffers that write_scenario_frame draws every frame into: one set
# per process (each pool worker has its own) and image size. Reusing them keeps
# the heap from being handed back to the OS and faulted in again every frame,
# and a frame restores only the window that the one before it drew into.
_frame_buffers = functools.lru_cache(maxsize=1)(_FrameBuffers)


def _draw_window(hulls: Iterable[tuple[float, float, float, float]], width: int, height: int) -> Optional[Window]:
    """The smallest window holding every pixel that :func:`_rasterize_into`
    may draw for objects with these corner hulls, or None if it is empty: the
    union of the hulls' pixel windows. A triangle's vertices are corners, so
    its window lies in its object's.
    """
    windows = [w for w in (pixel_window(hull, width, height) for hull in hulls) if w is not None]
    if not windows:
        return None
    x0s, y0s, x1s, y1s = zip(*windows)
    return slice(min(y0s), max(y1s)), slice(min(x0s), max(x1s))


def _render_into(
    buffers: _FrameBuffers,
    camera: CameraModel,
    scene: Sequence[SceneObject],
    frame_id: int,
    *,
    inflate_pct: float,
    record_max_range_m: float,
    emit_color: bool,
) -> FrameBundle:
    """Draw ``scene`` into the caller's ``buffers`` (for the camera's image
    size) and bundle them.

    Each object is projected once: its corners give both its triangles and
    its record's coarse box. The lowest-id object's pixels come from the
    cached :func:`_first_object_layer`. The buffers are reset to that layer
    only inside the window that their last frame drew into, or everywhere if
    they last held another layer or none; this frame's window is recorded
    before anything is drawn, so a frame that fails part-way leaves a correct
    record for the next.

    The bundle's rasters are read-only views of ``buffers``, so they hold what
    this call drew only until the buffers are drawn into again.
    """
    if not scene:
        raise ValueError("scene must be nonempty")
    ordered = sorted(scene, key=lambda o: o.object_id)
    layer = _first_object_layer(camera, ordered[0])
    projected, later = [], []
    for i, obj in enumerate(ordered):
        try:
            corners = _project_corners(camera, obj)
        except BehindCameraError as exc:
            log.warning("%s, skipped", exc)
            continue
        projected.append((obj, corners, _hull(corners)))
        if i > 0:  # the first object's pixels come from the cached layer
            later.append(projected[-1])
    window = _draw_window((hull for _, _, hull in later), camera.width, camera.height)

    restore = buffers.window if buffers.layer is layer else (slice(None), slice(None))
    if restore is not None:
        for dst, src in zip(buffers.arrays, layer):
            np.copyto(dst[restore], src[restore])
    buffers.layer, buffers.window = layer, window
    zbuf, stencil, instance, encoded = buffers.arrays
    for obj, corners, _ in later:
        for triangle in _object_triangles(obj, corners):
            _rasterize_into(zbuf, stencil, instance, *triangle)

    records = []
    for obj, _, hull in projected:
        range_m = float(np.linalg.norm(obj.center))
        if record_max_range_m > 0.0 and range_m > record_max_range_m:
            continue
        records.append(
            EngineRecord(
                object_id=obj.object_id,
                cls=obj.cls,
                coarse_box=inflate_box(hull, inflate_pct),
                range_m=range_m,
                size=obj.size,
                yaw=obj.yaw,
                location_cam=obj.center,
            )
        )

    if window is not None:
        # a hit lowers z strictly, so this marks exactly the pixels drawn after
        # the first object, all inside the window; the encoding is elementwise,
        # so all others keep theirs
        zwin = zbuf[window]
        drawn = zwin != layer[0][window]
        encoded[window][drawn] = encode_log_depth(zwin[drawn], camera.depth_params)

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

    The bundle owns its buffers: they are allocated for this call, read-only,
    and shared with no other frame or cache.
    """
    return _render_into(
        _FrameBuffers(camera.height, camera.width),
        camera,
        scene,
        frame_id,
        inflate_pct=inflate_pct,
        record_max_range_m=record_max_range_m,
        emit_color=emit_color,
    )


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


def _ground_object(config: ScenarioConfig) -> SceneObject:
    gx0 = config.region_x_min - GROUND_LATERAL_MARGIN_M
    gx1 = config.region_x_max + GROUND_LATERAL_MARGIN_M
    gz0 = GROUND_NEAR_Z_M
    gz1 = config.region_z_max + GROUND_FORWARD_MARGIN_M
    return SceneObject(
        object_id=GROUND_OBJECT_ID,
        cls=ObjectClass.GROUND,
        center=((gx0 + gx1) / 2.0, config.camera_height_m + GROUND_THICKNESS_M / 2.0, (gz0 + gz1) / 2.0),
        size=(gx1 - gx0, gz1 - gz0, GROUND_THICKNESS_M),
        yaw=0.0,
    )


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
    no area (tiny sizes) counts as one behind the near plane: it could get no
    engine record. Raises :class:`ConfigError` when no candidate clears
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
        if not _proper_box(box):
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
    config.validate()
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


# --- scenario and manifest text --------------------------------------------


def _parse_kv_lines(text: str, origin: str = "scenario") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin} line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin} line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"{origin} line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


_BOOL_VALUES = {"0": False, "1": True, "false": False, "true": True}


def _convert(key: str, value: str, target_type: type):
    try:
        if target_type is bool:
            return _BOOL_VALUES[value.lower()]
        return target_type(value)
    except (ValueError, KeyError):
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {target_type.__name__}") from None


def scenario_from_mapping(pairs: dict[str, str]) -> ScenarioConfig:
    field_types = {f.name: f.type for f in dataclass_fields(ScenarioConfig)}
    type_map = {"int": int, "float": float, "bool": bool}
    kwargs = {}
    for key, value in pairs.items():
        if key not in field_types:
            raise ConfigError(f"unknown scenario key {key!r}")
        kwargs[key] = _convert(key, value, type_map[field_types[key]])
    for required in ("seed", "frames"):
        if required not in kwargs:
            raise ConfigError(f"scenario missing required key {required!r}")
    config = ScenarioConfig(**kwargs)
    config.validate()
    return config


def parse_scenario_text(text: str) -> ScenarioConfig:
    return scenario_from_mapping(_parse_kv_lines(text))


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario_text(read_text(path, ConfigError))


def scenario_to_text(config: ScenarioConfig) -> str:
    lines = []
    for field in dataclass_fields(ScenarioConfig):
        value = getattr(config, field.name)
        if isinstance(value, bool):
            value = int(value)
        lines.append(f"{field.name}={value!r}" if isinstance(value, float) else f"{field.name}={value}")
    return "\n".join(lines) + "\n"


def manifest_text(config: ScenarioConfig) -> str:
    return f"format_version={FORMAT_VERSION}\n" + scenario_to_text(config)


def read_manifest(path: str | Path) -> ScenarioConfig:
    return replace(_parse_manifest(read_text(path, FormatError), path))  # a copy of the cached config


@functools.lru_cache(maxsize=1)  # every frame read checks its rasters against the manifest
def _parse_manifest(text: str, path: str | Path) -> ScenarioConfig:
    pairs = _parse_kv_lines(text, origin="manifest")
    version = pairs.pop("format_version", None)
    if version != str(FORMAT_VERSION):
        raise FormatError(f"manifest {path}: unsupported format_version {version!r}")
    return scenario_from_mapping(pairs)


# --- dataset directory layout ----------------------------------------------

MANIFEST_NAME = "manifest.txt"


_FRAME_FILES = {
    "color": "color.ppm",
    "depth": "depth.mrb",
    "stencil": "stencil.mrb",
    "instance": "instance.mrb",
    "meta": "meta.txt",
}


def frame_paths(dataset_dir: str | Path, frame_idx: int) -> dict[str, Path]:
    return {key: Path(dataset_dir) / f"{frame_idx:06d}_{name}" for key, name in _FRAME_FILES.items()}


def list_frame_indices(dataset_dir: str | Path) -> list[int]:
    """Frame indices of a dataset directory, 0 .. frames - 1 from its manifest.

    Frame files left over from an earlier, longer run are not part of the
    dataset; a listed frame whose files are missing fails when it is read.
    """
    return list(range(read_manifest(Path(dataset_dir) / MANIFEST_NAME).frames))


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """Binary PPM (P6) encoding of an (H, W, 3) uint8 image."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"PPM image must be (H, W, 3) uint8, got {rgb.shape} {rgb.dtype}")
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(rgb).tobytes()


# pi at the four decimals meta files carry, so that a yaw of +-pi reads back
_META_YAW_MAX = 3.1416


def meta_text(records: Sequence[EngineRecord]) -> str:
    """One line per record: id class left top right bottom range_m h w l x y z yaw."""
    lines = []
    for r in records:
        left, top, right, bottom = r.coarse_box
        length, width, height = r.size
        x, y, z = r.location_cam
        lines.append(
            f"{r.object_id} {r.cls.label} "
            f"{left:.4f} {top:.4f} {right:.4f} {bottom:.4f} {r.range_m:.4f} "
            f"{height:.4f} {width:.4f} {length:.4f} {x:.4f} {y:.4f} {z:.4f} {r.yaw:.4f}"
        )
    return "".join(line + "\n" for line in lines)


def parse_meta_text(text: str) -> list[EngineRecord]:
    records = []
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 14:
            raise FormatError(f"meta line {lineno}: expected 14 fields, got {len(parts)}")
        try:
            object_id = int(parts[0])
            # instance rasters are U16 and 0 marks pixels of no object
            if not 1 <= object_id <= 0xFFFF:
                raise ValueError(f"object id {object_id} outside 1..65535")
            if object_id in seen_ids:
                raise ValueError(f"object id {object_id} seen earlier in the file")
            cls = _CLASS_BY_LABEL[parts[1].lower()]
            nums = [float(p) for p in parts[2:]]
            if not all(map(math.isfinite, nums)):
                raise ValueError("non-finite number")
            left, top, right, bottom, range_m, height, width, length, x, y, z, yaw = nums
            if abs(yaw) > _META_YAW_MAX:
                raise ValueError(f"yaw {yaw} outside [-{_META_YAW_MAX}, {_META_YAW_MAX}]")
            record = EngineRecord(
                object_id=object_id,
                cls=cls,
                coarse_box=(left, top, right, bottom),
                range_m=range_m,
                size=(length, width, height),
                yaw=yaw,
                location_cam=(x, y, z),
            )
        except (ValueError, KeyError) as exc:
            raise FormatError(f"meta line {lineno}: {exc}") from None
        seen_ids.add(object_id)
        records.append(record)
    return records


def write_frame_files(bundle: FrameBundle, dataset_dir: str | Path) -> None:
    paths = frame_paths(dataset_dir, bundle.frame_id)
    write_raster(bundle.depth, paths["depth"])
    write_raster(bundle.stencil, paths["stencil"])
    write_raster(bundle.instance_oracle, paths["instance"])
    paths["meta"].write_text(meta_text(bundle.records))
    if bundle.color is not None:
        paths["color"].write_bytes(ppm_bytes(bundle.color))


def write_scenario_frame(config: ScenarioConfig, frame_idx: int, dataset_dir: str | Path) -> None:
    """Generate, render and write one frame of a scenario.

    The same files as :func:`write_frame_files` of :func:`render_frame` with
    the scenario's knobs, but drawn into this process's reused frame buffers
    rather than fresh ones; nothing that views them outlives the call.
    """
    bundle = _render_into(
        _frame_buffers(config.height, config.width),
        config.camera(),
        generate_scene(config, frame_idx),
        frame_idx,
        inflate_pct=config.coarse_box_inflate_pct,
        record_max_range_m=config.record_max_range_m,
        emit_color=config.emit_color,
    )
    write_frame_files(bundle, dataset_dir)


def read_frame_buffers(
    dataset_dir: str | Path, frame_idx: int, *, with_instance: bool = False
) -> tuple[Optional[Raster], Raster, list[EngineRecord], Optional[Raster]]:
    """Load (depth, stencil, records, instance) for one frame. This is the one
    check of a frame, so the stages check nothing of it again: a raster whose
    size is not the manifest's raises :class:`ValidationError` (exit 4); F32
    depth outside [0, 1], a stencil class code (low nibble) that is not 0 or
    an :class:`ObjectClass` value, a wrong sample kind or a bad meta record
    raise :class:`FormatError` (exit 2). Both name the file.

    The annotation path never sets ``with_instance`` and gets no instance
    raster, which is reserved for tests and oracle labels. With it, depth is
    neither read nor returned, since oracle labels do not use it.
    """
    manifest = Path(dataset_dir) / MANIFEST_NAME
    config = _parse_manifest(read_text(manifest, FormatError), manifest)
    size = config.width, config.height
    paths = frame_paths(dataset_dir, frame_idx)
    depth = None if with_instance else _read_raster_of_kind(paths["depth"], "F32", size)
    stencil = _read_raster_of_kind(paths["stencil"], "U8", size)
    # a byte bounds its low nibble, so only flag bits need the mask
    if stencil.data.max() > _MAX_CLASS_CODE and (stencil.data & 0x0F).max() > _MAX_CLASS_CODE:
        raise FormatError(f"{paths['stencil']}: class codes must be 0..{_MAX_CLASS_CODE}")
    text = read_text(paths["meta"], FormatError)
    try:
        records = parse_meta_text(text)
    except FormatError as exc:
        raise FormatError(f"{paths['meta']}: {exc}") from None
    instance = _read_raster_of_kind(paths["instance"], "U16", size) if with_instance else None
    return depth, stencil, records, instance


def _read_raster_of_kind(path: Path, kind: str, size: tuple[int, int]) -> Raster:
    try:
        raster = read_raster(path)
    except FormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    if raster.sample_kind != kind:
        raise FormatError(f"{path}: expected {kind} samples, got {raster.sample_kind}")
    if (raster.width, raster.height) != size:
        raise ValidationError(f"{path}: {raster.width}x{raster.height} raster, manifest says {size[0]}x{size[1]}")
    return raster
