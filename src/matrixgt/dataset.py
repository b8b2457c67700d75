"""The dataset contract: what a dataset directory holds, the types and text
formats of its files, and how a frame is checked when it is read.

A dataset directory holds ``manifest.txt`` (``format_version``, then the
:class:`ScenarioConfig` as key=value lines) and, per frame ``i``, the files
``{i:06d}_depth.mrb`` (F32 log-encoded depth), ``_stencil.mrb`` (U8 packed
class codes), ``_instance.mrb`` (U16 instance oracle), ``_meta.txt`` (one
:class:`EngineRecord` a line) and, when the scenario emits color,
``_color.ppm``. The manifest is written after every frame, an older one
having been removed before the first, and its ``frames`` numbers them
0 .. frames - 1.

This module owns the types those files carry, the corner and box geometry
that a scenario's own check needs, the manifest and meta text formats and
the one check of a frame on read (:func:`read_frame_buffers`). It imports
nothing of the renderer, so the stages that only read a dataset never load
it; ``scene_sim`` renders the frames and writes their files.

Conventions, fixed for the whole pipeline:

* Camera space equals world space: x right, y down, z forward, camera at the
  origin. The ground plane sits at y = camera_height_m.
* Objects are cuboids. ``size`` is (length, width, height): length along the
  object's local x (heading), width along local z, height vertical. ``yaw``
  rotates about the vertical axis; yaw = 0 puts the length parallel to the
  image x axis.

Cuboid corners are computed with one rounding per fused multiply-add, each
rounded from its exact integer fraction by CPython's correctly rounded
``int / int``, and no BLAS, so their bits do not depend on the host's CPU.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Optional, Sequence

from .errors import BehindCameraError, ConfigError, FormatError, ValidationError, read_text
from .raster_codec import DepthCodecParams, Raster, read_raster

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
    """What the engine hands the annotator per object: class, loose 2D box, 3D pose.

    ``range_m`` is the distance of the object's center from the camera. It
    has no upper bound: no stage reads it back from a meta file, and the
    scenario's ``record_max_range_m`` is applied when a frame is rendered,
    from the object's center, so a large value read back changes nothing."""

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a dataset generation run depends on; serialized key=value.
    Frozen and valid by construction: building one (``replace`` too) raises
    :class:`ConfigError` for an invalid field; unpickling checks nothing."""

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

    def __post_init__(self):
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
        # object ids are U16 instance values, and 0 marks pixels of no object
        if GROUND_OBJECT_ID + self.vehicle_count_max + self.distractor_count_max > 0xFFFF:
            raise ConfigError(f"vehicle_count_max + distractor_count_max exceeds {0xFFFF - GROUND_OBJECT_ID}")
        for name in ("vehicle_length", "vehicle_width", "vehicle_height", "distractor_size"):
            lo, hi = getattr(self, name + "_min"), getattr(self, name + "_max")
            if lo < _META_RESOLUTION or hi < lo:
                raise ConfigError(f"empty {name} range [{lo}, {hi}] or sizes below {_META_RESOLUTION} m")
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
        if not _proper_box(_as_written(ground)):
            raise ConfigError(f"the ground slab's box {ground} has no finite positive area at four decimals")

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

def _fma_signs(m: float, y: float, a: float) -> tuple[float, float, float, float]:
    """``fma(+-m, y, +-a)`` in the order (-m, -a), (+m, -a), (-m, +a), (+m, +a).

    ``fma(x, y, a)`` is ``x*y + a`` rounded once, as a hardware fused
    multiply-add gives it (Python 3.11 has no ``math.fma``). A finite double
    is an integer over a power of two, so for finite operands ``x*y + a`` is
    one exact integer fraction, and CPython's ``int / int`` rounds it
    correctly; it raises ``OverflowError`` only where the rounded value
    overflows, which is +-inf. The tests check these bits against an oracle
    that rounds through decimal text instead.
    """
    if not (math.isfinite(m) and math.isfinite(y)):
        return tuple(sm * m * y + sa * a for sa in (-1.0, 1.0) for sm in (-1.0, 1.0))  # x*y is +-inf or nan
    if not math.isfinite(a):
        return -a, -a, a, a  # so is the exact sum
    (mn, md), (yn, yd), (an, ad) = m.as_integer_ratio(), y.as_integer_ratio(), a.as_integer_ratio()
    product, addend, denominator = mn * yn * ad, an * md * yd, md * yd * ad
    out = []
    for sa in (-1, 1):
        for sm in (-1, 1):
            numerator = sm * product + sa * addend
            try:
                # an exact zero takes its IEEE sign from the float sum, x*y being exact
                out.append(numerator / denominator if numerator else sm * m * y + sa * a)
            except OverflowError:
                out.append(math.inf if numerator > 0 else -math.inf)
    return tuple(out)


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


# --- scenario and manifest text -------------------------------------------


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
    return ScenarioConfig(**kwargs)


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
    return _parse_manifest(read_text(path, FormatError), path)


@functools.lru_cache(maxsize=1)  # every frame read checks its rasters against the manifest
def _parse_manifest(text: str, path: str | Path) -> ScenarioConfig:
    pairs = _parse_kv_lines(text, origin="manifest")
    version = pairs.pop("format_version", None)
    if version != str(FORMAT_VERSION):
        raise FormatError(f"manifest {path}: unsupported format_version {version!r}")
    return scenario_from_mapping(pairs)


# --- dataset directory layout ---------------------------------------------

MANIFEST_NAME = "manifest.txt"


_FRAME_FILES = {
    "color": "color.ppm",
    "depth": "depth.mrb",
    "stencil": "stencil.mrb",
    "instance": "instance.mrb",
    "meta": "meta.txt",
}


def frame_paths(dataset_dir: str | Path, frame_idx: int, keys: Sequence[str] = tuple(_FRAME_FILES)) -> dict[str, Path]:
    directory = Path(dataset_dir)
    return {key: directory / f"{frame_idx:06d}_{_FRAME_FILES[key]}" for key in keys}


def list_frame_indices(dataset_dir: str | Path) -> list[int]:
    """Frame indices of a dataset directory, 0 .. frames - 1 from its manifest.

    Frame files left over from an earlier, longer run are not part of the
    dataset; a listed frame whose files are missing fails when it is read.
    """
    return list(range(read_manifest(Path(dataset_dir) / MANIFEST_NAME).frames))


# --- engine records text --------------------------------------------------

_META_RESOLUTION = 0.0001  # meta files carry four decimals
# pi at those four decimals, so that a yaw of +-pi reads back
_META_YAW_MAX = 3.1416


def _as_written(values: Sequence[float]) -> tuple[float, ...]:
    """``values`` as a meta file writes them and its reader reads them back."""
    return tuple(float(f"{v:.4f}") for v in values)


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


# --- reading a frame ------------------------------------------------------


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
    config = read_manifest(Path(dataset_dir) / MANIFEST_NAME)
    size = config.width, config.height
    # only the three files this read opens are named
    paths = frame_paths(dataset_dir, frame_idx, ("instance" if with_instance else "depth", "stencil", "meta"))
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
        raise FormatError(f"{path}: {exc}") from None
    if raster.sample_kind != kind:
        raise FormatError(f"{path}: expected {kind} samples, got {raster.sample_kind}")
    if (raster.width, raster.height) != size:
        raise ValidationError(f"{path}: {raster.width}x{raster.height} raster, manifest says {size[0]}x{size[1]}")
    return raster
