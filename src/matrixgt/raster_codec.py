"""Engine-style buffer codecs and the MRB raster file format.

Three buffer kinds flow through the pipeline, all carried by :class:`Raster`:

* log-encoded depth (F32): the engine stores ``ln(z/near) / ln(far/near)``
  instead of metric depth, concentrating precision at range; it must be
  linearized before any metric use.
* packed stencil (U8): low 4 bits hold an object class code, high 4 bits
  hold flags.
* instance ids (U16): the withheld per-pixel oracle, tests only.

MRB is this repository's raw raster container (little-endian throughout)::

    magic "MRXB" | version u8 = 1 | sample_kind u8 (0=U8, 1=U16, 2=F32)
    | width u32 | height u32 | payload width*height samples, row-major,
    top-left origin

No compression, no padding, extension ".mrb". Two writes of equal rasters are
byte-identical, which is what makes golden-file tests trivial.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, read_bytes, write_bytes

MRB_MAGIC = b"MRXB"
MRB_VERSION = 1

DEFAULT_NEAR_M = 0.15
DEFAULT_FAR_M = 600.0

_KIND_TO_CODE = {"U8": 0, "U16": 1, "F32": 2}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}
_KIND_TO_DTYPE = {"U8": np.dtype("<u1"), "U16": np.dtype("<u2"), "F32": np.dtype("<f4")}
_NATIVE_TO_KIND = {np.dtype(np.uint8): "U8", np.dtype(np.uint16): "U16", np.dtype(np.float32): "F32"}


@dataclass(frozen=True)
class DepthCodecParams:
    """Near/far range of the logarithmic depth encoding, in meters."""

    near_m: float = DEFAULT_NEAR_M
    far_m: float = DEFAULT_FAR_M

    def __post_init__(self):
        if not (0.0 < self.near_m < self.far_m) or not math.isfinite(self.far_m):
            raise ConfigError(
                f"invalid depth codec params: need 0 < near < far, got near={self.near_m}, far={self.far_m}"
            )


class Raster:
    """Immutable width x height grid of U8, U16, or F32 samples.

    Wraps a C-contiguous 2D numpy array (row-major, top-left origin) without
    copying it, and marks it read-only. F32 samples (encoded depth) lie in
    [0, 1], -0.0 excluded. Only for
    arrays that nothing else writes to while the raster lives: a fresh buffer
    its maker hands over, a view of immutable ``bytes``, or a view of a reused
    buffer whose owner drops the raster before it writes to the buffer again.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data)
        if arr.ndim != 2:
            raise ValueError(f"raster data must be 2D (height, width), got shape {arr.shape}")
        kind = _NATIVE_TO_KIND.get(arr.dtype)
        if kind is None:
            raise ValueError(f"unsupported raster dtype {arr.dtype}; use uint8, uint16, or float32")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {arr.shape[1]}x{arr.shape[0]}")
        # one reduction, no temporary: as unsigned integers the bits of +0.0 .. 1.0
        # are 0 .. 0x3F800000, and larger floats, +inf, NaN and sign bits lie above
        if kind == "F32" and arr.view(np.uint32).max() > 0x3F800000:
            raise ValueError("F32 raster holds non-finite samples or samples outside [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Raster is immutable")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def sample_kind(self) -> str:
        return _NATIVE_TO_KIND[self.data.dtype]


def encode_log_depth(z, params: DepthCodecParams):
    """Encode metric depth to the unit-interval log value d = ln(z/near)/ln(far/near).

    ``z`` values are clamped into [near, far] before encoding; accepts scalars
    or numpy arrays. Strictly increasing in z on the valid range. An array is
    encoded in the clamped copy, the one temporary, with the same operations
    in the same order as the formula, so the bits are the formula's.
    """
    d = np.asarray(np.clip(z, params.near_m, params.far_m))  # a scalar clamps to a scalar
    np.divide(d, params.near_m, out=d)
    np.log(d, out=d)
    np.divide(d, math.log(params.far_m / params.near_m), out=d)
    return float(d) if d.ndim == 0 else d


def linearize_depth(d, params: DepthCodecParams):
    """Invert :func:`encode_log_depth`: z = near * (far/near)**d.

    ``d`` is clamped into [0, 1]; accepts scalars or numpy arrays.
    """
    d = np.clip(d, 0.0, 1.0)
    z = params.near_m * (params.far_m / params.near_m) ** np.asarray(d, dtype=np.float64)
    return float(z) if z.ndim == 0 else z


def stencil_class_ids(stencil: Raster) -> np.ndarray:
    """Vectorized class-code plane of a packed U8 stencil raster."""
    return stencil.data & 0x0F


def raster_from_bytes(blob: bytes) -> Raster:
    """Parse an MRB byte stream as :func:`write_raster` writes it (exact inverse).

    The raster's data is a read-only view of ``blob``, not a copy.
    """
    blob = bytes(blob)  # the same object when it is bytes already; a view needs immutable bytes
    if len(blob) < 4 or blob[:4] != MRB_MAGIC:
        raise FormatError(f"bad MRB magic: expected {MRB_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 14:
        raise FormatError(f"MRB header truncated: {len(blob)} bytes")
    version, kind_code, width, height = struct.unpack("<BBII", blob[4:14])
    if version != MRB_VERSION:
        raise FormatError(f"unsupported MRB version {version}")
    kind = _CODE_TO_KIND.get(kind_code)
    if kind is None:
        raise FormatError(f"unknown MRB sample_kind code {kind_code}")
    if width < 1 or height < 1:
        raise FormatError(f"invalid MRB dimensions {width}x{height}")
    dtype = _KIND_TO_DTYPE[kind]
    expected = width * height * dtype.itemsize
    got = len(blob) - 14
    if got < expected:
        raise FormatError(
            f"MRB payload truncated: need {expected} bytes for {width}x{height} {kind}, got {got}"
        )
    if got > expected:
        raise FormatError(f"MRB trailing data: {got - expected} extra bytes")
    samples = np.frombuffer(blob, dtype=dtype, offset=14).reshape(height, width)
    try:
        return Raster(samples)
    except ValueError as exc:  # the only check left is the F32 sample domain
        raise FormatError(f"MRB payload: {exc}") from None


def write_raster(raster: Raster, destination: str | Path) -> None:
    """Write a raster to an MRB file.

    The payload goes to the file straight from the raster's buffer, with no
    joined copy of the stream.
    """
    kind = raster.sample_kind
    write_bytes(
        destination,
        MRB_MAGIC + struct.pack("<BBII", MRB_VERSION, _KIND_TO_CODE[kind], raster.width, raster.height),
        # a no-op view on little-endian hosts; the data is C-contiguous already
        raster.data.astype(_KIND_TO_DTYPE[kind], copy=False),
    )


def read_raster(source: str | Path) -> Raster:
    """Read an MRB file."""
    return raster_from_bytes(read_bytes(source))
