import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixgt.errors import ConfigError, FormatError, MatrixGTError, TruncatedFileError
from matrixgt.raster_codec import (
    MRB_MAGIC,
    DepthCodecParams,
    Raster,
    encode_log_depth,
    linearize_depth,
    raster_from_bytes,
    read_raster,
    stencil_class_ids,
    write_raster,
)


@st.composite
def _mrb_blobs(draw):
    """MRB-like byte streams: mostly well-formed headers, payloads of about the
    promised length, F32 samples that include NaN and infinities."""
    version = draw(st.sampled_from([1] * 6 + [0, 2]))
    code = draw(st.sampled_from([0, 1, 2, 2, 2, 3]))
    width = draw(st.integers(min_value=0, max_value=4) | st.integers(min_value=0, max_value=2**32 - 1))
    height = draw(st.integers(min_value=0, max_value=4))
    count = min(width * height, 16) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    if code == 2:
        samples = draw(st.lists(st.floats(width=32), min_size=max(count, 0), max_size=max(count, 0)))
        payload = np.array(samples, dtype="<f4").tobytes()
    else:
        payload = draw(st.binary(min_size=max(count, 0) * (1 + code), max_size=max(count, 0) * (1 + code)))
    payload += draw(st.sampled_from([b""] * 6 + [b"\x00"]))
    return MRB_MAGIC + struct.pack("<BBII", version, code, width, height) + payload


class TestDepthCodec:
    def test_boundaries(self, codec):
        assert encode_log_depth(codec.near_m, codec) == 0.0
        assert encode_log_depth(codec.far_m, codec) == 1.0
        assert linearize_depth(0.0, codec) == pytest.approx(codec.near_m, rel=1e-12)
        assert linearize_depth(1.0, codec) == pytest.approx(codec.far_m, rel=1e-12)

    def test_encode_30m_matches_arbitrary_precision_value(self, codec):
        # mpmath oracle: log(30/0.15)/log(600/0.15) = 0.63880945936596304675...
        got = encode_log_depth(30.0, codec)
        assert got == pytest.approx(0.638809459365963, abs=1e-14)
        assert got == pytest.approx(math.log(200.0) / math.log(4000.0), abs=0)
        assert got == pytest.approx(0.63882, abs=2e-5)

    def test_linearize_inverse_of_encode_example(self, codec):
        assert linearize_depth(0.63882, codec) == pytest.approx(30.0, abs=5e-3)
        assert linearize_depth(encode_log_depth(30.0, codec), codec) == pytest.approx(30.0, rel=1e-12)

    def test_clamping(self, codec):
        assert encode_log_depth(0.01, codec) == 0.0
        assert encode_log_depth(1e9, codec) == 1.0
        assert linearize_depth(-0.5, codec) == pytest.approx(codec.near_m)
        assert linearize_depth(1.5, codec) == pytest.approx(codec.far_m)

    def test_round_trip_tolerance_log_spaced(self, codec):
        z = np.geomspace(codec.near_m, codec.far_m, 10_000)
        back = linearize_depth(encode_log_depth(z, codec), codec)
        assert np.max(np.abs(back - z) / z) <= 1e-5

    @given(st.floats(min_value=0.151, max_value=599.0))
    def test_monotone(self, z):
        codec = DepthCodecParams(0.15, 600.0)
        assert encode_log_depth(z, codec) < encode_log_depth(z * 1.001, codec)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            DepthCodecParams(0.0, 10.0)
        with pytest.raises(ConfigError):
            DepthCodecParams(5.0, 5.0)
        with pytest.raises(ConfigError):
            DepthCodecParams(-1.0, 2.0)

    def test_linearize_depth_clamps_arrays(self, codec):
        data = np.array([[0.5, 1.0], [1.25, -0.5]], dtype=np.float32)
        z = linearize_depth(data.astype(np.float64), codec)
        assert z[0, 1] == pytest.approx(codec.far_m)
        assert z[1, 0] == pytest.approx(codec.far_m)
        assert z[1, 1] == pytest.approx(codec.near_m)


class TestStencil:
    def test_class_plane(self):
        stencil = Raster(np.array([[0x52, 0x00], [0x13, 0x02]], dtype=np.uint8))
        assert stencil_class_ids(stencil).tolist() == [[2, 0], [3, 2]]
        # every byte decodes to its low nibble; the high-nibble flags never leak
        every_byte = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert stencil_class_ids(Raster(every_byte)).tolist() == (every_byte & 0x0F).tolist()


class TestRasterType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Raster(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(ValueError):
            Raster(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            Raster(np.zeros(6, dtype=np.uint8))
        with pytest.raises(ValueError):
            Raster(np.array([[np.nan]], dtype=np.float32))
        with pytest.raises(ValueError):
            Raster(np.array([[np.inf]], dtype=np.float32))

    def test_f32_samples_lie_in_the_unit_interval(self):
        """F32 rasters hold encoded depth: +0.0 .. 1.0 and nothing else."""
        tiny = np.float32(1e-45)  # the smallest subnormal
        for value in (0.0, tiny, 0.5, np.nextafter(np.float32(1.0), np.float32(0.0)), 1.0):
            Raster(np.array([[0.25, value]], dtype=np.float32))
        for value in (-0.0, -tiny, -1.0, np.nextafter(np.float32(1.0), np.float32(2.0)), 3e38, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                Raster(np.array([[0.25, value]], dtype=np.float32))
        # every sign, exponent and a spread of mantissas, against plain float logic
        bits = np.random.default_rng(5).integers(0, 2**32, size=4096, dtype=np.uint64).astype(np.uint32)
        for value in bits.view(np.float32):
            inside = bool(0.0 <= value <= 1.0) and not np.signbit(value)
            try:
                Raster(np.array([[value]], dtype=np.float32))
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == inside, value

    def test_immutable(self):
        raster = Raster(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            raster.data[0, 0] = 1
        with pytest.raises(AttributeError):
            raster.data = np.zeros((2, 3), dtype=np.uint8)

    def test_constructor_wraps_without_a_copy_and_keeps_the_checks(self):
        data = np.arange(6, dtype=np.uint16).reshape(2, 3)
        raster = Raster(data)
        assert np.shares_memory(raster.data, data) and not data.flags.writeable
        assert raster == Raster(np.arange(6, dtype=np.uint16).reshape(2, 3))
        bad = (
            np.zeros((2, 2), dtype=np.int32),
            np.zeros((0, 4), dtype=np.uint8),
            np.zeros(6, dtype=np.uint8),
            np.array([[np.nan]], dtype=np.float32),
        )
        for data in bad:
            with pytest.raises(ValueError):
                Raster(data)

    def test_equality_and_kind(self):
        a = Raster(np.array([[1, 2]], dtype=np.uint16))
        b = Raster(np.array([[1, 2]], dtype=np.uint16))
        c = Raster(np.array([[1, 3]], dtype=np.uint16))
        assert a == b and a != c
        assert a.sample_kind == "U16" and a.width == 2 and a.height == 1


def _written(raster, path):
    """The bytes :func:`write_raster` puts in the file at ``path``."""
    write_raster(raster, path)
    return path.read_bytes()


class TestMRB:
    def test_golden_1x1_u8(self, tmp_path):
        blob = _written(Raster(np.array([[7]], dtype=np.uint8)), tmp_path / "r.mrb")
        assert blob == bytes.fromhex("4D 52 58 42 01 00 01 00 00 00 01 00 00 00 07".replace(" ", ""))

    def test_golden_2x1_u8(self, tmp_path):
        blob = _written(Raster(np.array([[1, 2]], dtype=np.uint8)), tmp_path / "r.mrb")
        assert blob == bytes.fromhex("4D5258420100020000000100000001" + "02")

    def test_golden_u16_little_endian(self, tmp_path):
        blob = _written(Raster(np.array([[0x0102]], dtype=np.uint16)), tmp_path / "r.mrb")
        assert blob[14:] == bytes([0x02, 0x01])

    def test_golden_f32_little_endian(self, tmp_path):
        blob = _written(Raster(np.array([[1.0]], dtype=np.float32)), tmp_path / "r.mrb")
        assert blob[14:] == bytes([0x00, 0x00, 0x80, 0x3F])

    def test_round_trip_via_stream_and_path(self, tmp_path):
        raster = Raster(np.linspace(0.0, 1.0, 12, dtype=np.float32).reshape(3, 4))
        path = tmp_path / "r.mrb"
        write_raster(raster, path)
        assert read_raster(path) == raster

    def test_writes_are_byte_identical(self, tmp_path):
        raster = Raster(np.arange(6, dtype=np.uint16).reshape(2, 3))
        copy = Raster(raster.data.copy())
        assert _written(raster, tmp_path / "a.mrb") == _written(copy, tmp_path / "b.mrb")

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.sampled_from(["U8", "U16", "F32"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_random(self, tmp_path_factory, width, height, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "U8":
            data = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        elif kind == "U16":
            data = rng.integers(0, 65536, size=(height, width), dtype=np.uint16)
        else:
            data = rng.random(size=(height, width)).astype(np.float32)
        raster = Raster(data)
        path = tmp_path_factory.getbasetemp() / "round_trip.mrb"
        write_raster(raster, path)
        assert read_raster(path) == raster

    def test_read_data_is_read_only_and_detached_from_a_mutable_blob(self, tmp_path):
        raster = Raster(np.linspace(0.0, 1.0, 12, dtype=np.float32).reshape(3, 4))
        blob = bytearray(_written(raster, tmp_path / "r.mrb"))
        loaded = raster_from_bytes(blob)
        assert not loaded.data.flags.writeable
        with pytest.raises(ValueError):
            loaded.data[0, 0] = 1.0
        blob[14:18] = np.array([7.0], dtype="<f4").tobytes()
        assert loaded == raster

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            raster_from_bytes(bytes([0, 0, 0, 0]) + bytes(11))

    def test_bad_kind_code(self, tmp_path):
        blob = bytearray(_written(Raster(np.array([[7]], dtype=np.uint8)), tmp_path / "r.mrb"))
        blob[5] = 9
        with pytest.raises(FormatError, match="sample_kind"):
            raster_from_bytes(bytes(blob))

    def test_bad_version(self, tmp_path):
        blob = bytearray(_written(Raster(np.array([[7]], dtype=np.uint8)), tmp_path / "r.mrb"))
        blob[4] = 2
        with pytest.raises(FormatError, match="version"):
            raster_from_bytes(bytes(blob))

    def test_truncated_payload(self, tmp_path):
        # valid header claiming 4x4 U8 with 10 payload bytes
        good = _written(Raster(np.zeros((4, 4), dtype=np.uint8)), tmp_path / "r.mrb")
        with pytest.raises(TruncatedFileError, match="truncated"):
            raster_from_bytes(good[: 14 + 10])

    def test_trailing_bytes_rejected(self, tmp_path):
        good = _written(Raster(np.array([[7]], dtype=np.uint8)), tmp_path / "r.mrb")
        with pytest.raises(FormatError, match="trailing"):
            raster_from_bytes(good + b"\x00")

    def test_non_finite_f32_payload_is_format_error(self, tmp_path):
        blob = bytearray(_written(Raster(np.zeros((2, 3), dtype=np.float32)), tmp_path / "r.mrb"))
        blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        with pytest.raises(FormatError, match="non-finite"):
            raster_from_bytes(bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=64), _mrb_blobs()))
    def test_fuzzed_bytes_raise_only_matrixgt_errors(self, tmp_path_factory, blob):
        try:
            raster = raster_from_bytes(blob)
        except MatrixGTError:
            return
        assert _written(raster, tmp_path_factory.getbasetemp() / "fuzzed.mrb") == blob

    def test_missing_file_propagates_with_path(self, tmp_path):
        with pytest.raises(OSError, match="nope.mrb"):
            read_raster(tmp_path / "nope.mrb")
