import dataclasses
import decimal
import logging
import math
import os
import random
import struct
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE_SCENARIO, CROWD_KEYS, make_ground, make_vehicle, render_scenario_frame
from oracles import brute_force_buffers, brute_force_depth, cuboid_corners, ray_cast_depth, triangle_coverage_depth

from matrixgt import cli
from matrixgt import dataset as ds
from matrixgt import scene_sim as ss
from matrixgt.errors import BehindCameraError, ConfigError, FormatError, MatrixGTError, ValidationError
from matrixgt.raster_codec import DepthCodecParams, Raster, encode_log_depth, linearize_depth, read_raster, write_raster


class TestCoarseBox:
    def test_unit_cube_example(self, spec_camera):
        cube = ds.SceneObject(1, ds.ObjectClass.VEHICLE, (0.0, 0.0, 10.0), (1.0, 1.0, 1.0), 0.0)
        box = ds.coarse_box(spec_camera, cube)
        expected = 100.0 * 0.5 / 9.5
        assert box == pytest.approx((320 - expected, 240 - expected, 320 + expected, 240 + expected))
        # u = fx * x / z + cx for the near corner at (0.5, y, 9.5)
        assert box[2] == pytest.approx(325.2631578947368, abs=1e-12)

    def test_on_axis_symmetry(self, spec_camera):
        # a cube centred on the optical axis projects symmetrically about (cx, cy)
        for z in (2.0, 25.0, 300.0):
            cube = ds.SceneObject(1, ds.ObjectClass.VEHICLE, (0.0, 0.0, z), (2.0, 2.0, 2.0), 0.0)
            left, top, right, bottom = ds.coarse_box(spec_camera, cube)
            assert (left + right) / 2 == pytest.approx(320.0, abs=1e-9)
            assert (top + bottom) / 2 == pytest.approx(240.0, abs=1e-9)

    def test_unclipped_beyond_image(self, spec_camera):
        cube = ds.SceneObject(1, ds.ObjectClass.VEHICLE, (35.0, 0.0, 10.0), (1.0, 1.0, 1.0), 0.0)
        box = ds.coarse_box(spec_camera, cube)
        assert box[2] > spec_camera.width

    def test_corner_behind_near_plane(self, spec_camera):
        # near corner inside the near plane, on the camera plane, behind it,
        # and a cube wholly behind the camera
        for z in (0.6, 0.5, 0.4, -1.0):
            cube = ds.SceneObject(1, ds.ObjectClass.VEHICLE, (0.0, 0.0, z), (1.0, 1.0, 1.0), 0.0)
            with pytest.raises(BehindCameraError):
                ds.coarse_box(spec_camera, cube)

    def test_inflate_box(self):
        assert ds.inflate_box((10.0, 20.0, 30.0, 40.0), 0.10) == pytest.approx((9.0, 19.0, 31.0, 41.0))


def _decimal_fma(x, y, a):
    """``x*y + a`` rounded once from its exact value, as IEEE 754 rounds a
    fused multiply-add of finite operands.

    The exact value is a decimal (every double is one, and 3000 digits hold
    any such sum exactly; ``Inexact`` is trapped to prove it), and its text
    is rounded by ``float``'s correctly rounded string conversion, which
    gives +-inf or a signed zero without raising. So no integer or rational
    division is involved, as there is in the code under test."""
    with decimal.localcontext() as context:
        context.prec = 3000
        context.traps[decimal.Inexact] = True
        exact = decimal.Decimal(x) * decimal.Decimal(y) + decimal.Decimal(a)
    if exact == 0:
        # an exact zero is +0, unless a zero product and a zero addend are both negative
        product_negative = (math.copysign(1.0, x) < 0) != (math.copysign(1.0, y) < 0)
        both_negative = (x == 0 or y == 0) and product_negative and a == 0 and math.copysign(1.0, a) < 0
        return -0.0 if both_negative else 0.0
    return float(str(exact))


def _oracle_corners(obj):
    """x, y, z of an object's corners by the fma formula, each fma rounded
    from its exact rational value (once per (sx, sz) pair, which is all that
    x and z depend on)."""
    length, width, height = obj.size
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    ox, oy, oz = obj.center
    xz = {}
    for sx in (-1, 1):
        for sz in (-1, 1):
            a, d = sx * (length / 2.0), sz * (width / 2.0)
            xz[sx, sz] = (_decimal_fma(d, s, a * c) + ox, _decimal_fma(d, c, a * -s) + oz)
    xs = [xz[sx, sz][0] for sx, _, sz in ds._CORNER_SIGNS]
    ys = [sy * (height / 2.0) + oy for _, sy, _ in ds._CORNER_SIGNS]
    zs = [xz[sx, sz][1] for sx, _, sz in ds._CORNER_SIGNS]
    return xs, ys, zs


def _bits(values):
    return [float(v).hex() for v in values]


_SPECIAL_YAWS = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1e-300, -1e-300, 5e-324, -5e-324,
                 1e-170, 2.0**-500)


def _random_objects(seed, count, size_exponents):
    """Objects with log-uniform sizes over ``size_exponents`` (powers of ten)
    and yaws that are uniform or one of ``_SPECIAL_YAWS``."""
    rng = random.Random(seed)
    lo, hi = size_exponents
    for _ in range(count):
        yaw = rng.uniform(-math.pi, math.pi) if rng.random() < 0.5 else rng.choice(_SPECIAL_YAWS)
        size = tuple(10.0 ** rng.uniform(lo, hi) for _ in range(3))
        center = (rng.uniform(-30.0, 30.0), rng.uniform(-2.0, 2.0), rng.uniform(-10.0, 90.0))
        yield ds.SceneObject(2, ds.ObjectClass.VEHICLE, center, size, yaw)


def _random_double(rng):
    """A finite double from a uniformly random bit pattern: any exponent,
    subnormals included."""
    while True:
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            return value


def _outputs_under_blas_kernels(script, coretypes):
    """The standard output of ``script`` in a child process under OpenBLAS's
    default kernel, then under each of ``coretypes``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("OPENBLAS_")}
    env.update(PYTHONPATH=str(Path(ss.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    return [
        subprocess.run([sys.executable, "-c", script], env={**env, **extra}, check=True,
                       capture_output=True, text=True).stdout
        for extra in ({}, *({"OPENBLAS_CORETYPE": coretype} for coretype in coretypes))
    ]


class TestScalarCorners:
    def test_corners_equal_an_exact_oracle_of_the_fma_formula(self):
        for obj in _random_objects(seed=1, count=20_000, size_exponents=(-300, 300)):
            got = ds._cuboid_corners(obj)
            want = _oracle_corners(obj)
            for got_axis, want_axis in zip(got, want):
                assert _bits(got_axis) == _bits(want_axis), obj

    def test_emulated_fma_equals_an_exact_oracle(self):
        rng = random.Random(2)
        max_double = sys.float_info.max
        cases = [
            (max_double, 2.0, -max_double),  # the product overflows, the sum does not
            (max_double, 1.5, 0.0),  # the sum overflows: +-inf
            (1e150, 1e150, max_double),  # a finite product and addend whose exact sum overflows
            (2.0**1000, 2.0**-1000, 1.0),  # a huge factor and a tiny one
            (1e-200, 1e-200, 0.0),  # the product underflows to 0
            (5e-324, 0.5, 0.0),  # a tie below the smallest subnormal
            (5e-324, 0.75, -0.0),
            (2.0**-500, 2.0**-480, 2.0**-1060),  # a subnormal addend far below the product
            (-0.0, 3.0, -0.0),
            (0.0, -3.0, 0.0),
            (3.0, 1.0 / 3.0, -1.0),  # cancellation: the product's rounding error decides
            (max_double, 1.0, 2.0**970),  # a tie half an ulp above the largest double: +-inf
            (max_double, -1.0, 2.0**918 - 2.0**970),  # just short of that tie: -+max_double
        ]
        for _ in range(6000):
            m, y = _random_double(rng), _random_double(rng)
            kind = rng.randrange(3)
            if kind == 0:
                a = _random_double(rng)
            elif kind == 1:
                # near-cancellation, where a product rounded first would differ
                a = -(m * y) * (1.0 + rng.uniform(-1e-12, 1e-12)) if math.isfinite(m * y) else 1.0
            else:
                # small operands, whose product and low part are subnormal
                m, y, a = (math.ldexp(rng.random(), rng.randrange(-600, -450)) for _ in range(3))
            cases.append((m, y, a))
        for m, y, a in cases:
            got = ds._fma_signs(m, y, a)
            want = [_decimal_fma(sm * m, y, sa * a) for sa in (-1.0, 1.0) for sm in (-1.0, 1.0)]
            assert _bits(got) == _bits(want), (m, y, a)
        assert ds._fma_signs(max_double, 1.5, 0.0) == (-math.inf, math.inf, -math.inf, math.inf)

    def test_corners_within_one_ulp_of_the_numpy_reference(self):
        for obj in _random_objects(seed=3, count=2000, size_exponents=(-3, 3)):
            want = cuboid_corners(obj)
            for axis, got in enumerate(ds._cuboid_corners(obj)):
                for g, w in zip(got, want[:, axis].tolist()):
                    assert abs(g - w) <= math.ulp(w), obj

    def test_extreme_objects_raise_only_the_near_plane_error(self, spec_camera):
        # sizes up to the largest double, and centers far out: sums overflow
        # to inf where numpy gave inf, and no division comes before the check
        projected = 0
        for exponents in ((-300, 300), (300, 308.25)):
            for obj in _random_objects(seed=4, count=2000, size_exponents=exponents):
                obj = dataclasses.replace(obj, center=(obj.center[0] * 1e306, obj.center[1], obj.center[2] * 1e306))
                try:
                    u, v, z = ds._project_corners(spec_camera, obj)
                except BehindCameraError:
                    continue
                assert min(z) > spec_camera.depth_params.near_m
                projected += 1
        assert projected > 1000

    def test_projection_bits_do_not_depend_on_the_blas_kernel(self):
        script = (
            "import hashlib, math, random\n"
            "from matrixgt import dataset as ds\n"
            "from matrixgt.raster_codec import DepthCodecParams\n"
            "camera = ds.CameraModel(700.0, 700.0, 320.0, 240.0, 640, 480, DepthCodecParams(0.15, 600.0))\n"
            "rng = random.Random(7)\n"
            "digest = hashlib.sha256()\n"
            "for _ in range(2000):\n"
            "    center = (rng.uniform(-20, 20), rng.uniform(-1, 1.5), rng.uniform(10, 80))\n"
            "    size = (rng.uniform(3.8, 5.0), rng.uniform(1.7, 2.0), rng.uniform(1.4, 2.2))\n"
            "    obj = ds.SceneObject(2, ds.ObjectClass.VEHICLE, center, size, rng.uniform(-math.pi, math.pi))\n"
            "    for coords in ds._project_corners(camera, obj):\n"
            "        digest.update(' '.join(float(c).hex() for c in coords).encode())\n"
            "print(digest.hexdigest())\n"
        )
        digests = _outputs_under_blas_kernels(script, ("Nehalem",))  # Nehalem kernels have no FMA
        assert digests[0] == digests[1] != ""

    def test_record_ranges_do_not_depend_on_the_blas_kernel(self):
        # a tiny image, so that the records, not the pixels, take the time
        script = (
            "import hashlib, random\n"
            "from matrixgt import dataset as ds, scene_sim as ss\n"
            "from matrixgt.raster_codec import DepthCodecParams\n"
            "camera = ds.CameraModel(8.0, 8.0, 4.0, 3.0, 8, 6, DepthCodecParams(0.15, 600.0))\n"
            "rng = random.Random(7)\n"
            "scene = [ds.SceneObject(i, ds.ObjectClass.VEHICLE, (rng.uniform(-20, 20), rng.uniform(-1, 1.5),\n"
            "                        rng.uniform(10, 80)), (4.0, 1.8, 1.5), 0.0) for i in range(1, 2001)]\n"
            "records = ss.render_frame(camera, scene, 0, emit_color=False).records\n"
            "print(len(records), hashlib.sha256(' '.join(r.range_m.hex() for r in records).encode()).hexdigest())\n"
        )
        digests = _outputs_under_blas_kernels(script, ("Nehalem", "Prescott"))
        assert digests[0].startswith("2000 ") and digests[0] == digests[1] == digests[2]

    def test_a_zero_factor_needs_no_rational_arithmetic(self, tmp_path):
        # a zero factor makes the product exact, signed zeros included
        for m, y in ((0.0, 3.0), (-0.0, 3.0), (2.5, 0.0), (2.5, -0.0), (0.0, -0.0), (5e-324, 0.0), (0.0, 1e308)):
            for a in (0.0, -0.0, 1.25, -7.5, 5e-324, sys.float_info.max):
                want = [_decimal_fma(sm * m, y, sa * a) for sa in (-1.0, 1.0) for sm in (-1.0, 1.0)]
                assert _bits(ds._fma_signs(m, y, a)) == _bits(want), (m, y, a)
                assert _bits(ds._fma_signs(y, m, a)) == _bits(want), (y, m, a)
        # the ground slab has yaw 0, so a sine of 0: generating frames rounds
        # every fma from exact integers, and loads neither fractions nor decimal
        scenario = tmp_path / "acceptance.txt"
        scenario.write_text(ACCEPTANCE_SCENARIO)
        script = (
            "import sys\n"
            "from matrixgt import dataset as ds\n"
            "from matrixgt import scene_sim as ss\n"
            f"config = ds.load_scenario({str(scenario)!r})\n"
            "for frame in range(3):\n"
            f"    ss.write_scenario_frame(config, frame, {str(tmp_path)!r})\n"
            "print('fractions' in sys.modules, 'decimal' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ss.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
        assert result.stdout.split() == ["False", "False"]
        assert ds.frame_paths(tmp_path, 2)["meta"].exists()


class TestSceneGeneration:
    def _config(self, **overrides):
        base = dict(seed=1, frames=4, width=160, height=120, fx=170.0, fy=170.0, cx=80.0, cy=60.0,
                    vehicle_count_min=3, vehicle_count_max=3, distractor_count_min=0,
                    distractor_count_max=0, region_x_min=-6.0, region_x_max=6.0,
                    region_z_min=10.0, region_z_max=30.0, emit_color=False)
        base.update(overrides)
        return ds.ScenarioConfig(**base)

    def test_determinism(self):
        config = self._config()
        assert ss.generate_scene(config, 0) == ss.generate_scene(config, 0)

    def test_exact_vehicle_count(self):
        scene = ss.generate_scene(self._config(), 0)
        vehicles = [o for o in scene if o.cls is ds.ObjectClass.VEHICLE]
        assert len(vehicles) == 3

    def test_seeds_differ(self):
        a = ss.generate_scene(self._config(seed=1), 0)
        b = ss.generate_scene(self._config(seed=2), 0)
        assert a != b

    def test_frames_differ(self):
        config = self._config()
        assert ss.generate_scene(config, 0) != ss.generate_scene(config, 1)

    def test_ground_always_present(self):
        scene = ss.generate_scene(self._config(), 0)
        assert scene[0].cls is ds.ObjectClass.GROUND
        assert scene[0].object_id == ds.GROUND_OBJECT_ID

    def test_objects_inside_region(self):
        config = self._config()
        for frame in range(config.frames):
            for obj in ss.generate_scene(config, frame):
                if obj.cls is ds.ObjectClass.GROUND:
                    continue
                assert config.region_x_min <= obj.center[0] <= config.region_x_max
                assert config.region_z_min <= obj.center[2] <= config.region_z_max
                assert obj.center[2] > 0

    def test_depth_gap_respected(self):
        config = self._config(vehicle_count_min=4, vehicle_count_max=4, min_depth_gap_m=5.0,
                              region_x_min=-8.0, region_x_max=8.0, region_z_min=8.0, region_z_max=40.0)
        camera = config.camera()
        for frame in range(config.frames):
            objs = [o for o in ss.generate_scene(config, frame) if o.cls is not ds.ObjectClass.GROUND]
            boxes = [ds.inflate_box(ds.coarse_box(camera, o), config.coarse_box_inflate_pct) for o in objs]
            for i in range(len(objs)):
                for j in range(i + 1, len(objs)):
                    a, b = boxes[i], boxes[j]
                    overlap = (min(a[2], b[2]) > max(a[0], b[0])) and (min(a[3], b[3]) > max(a[1], b[1]))
                    if overlap:
                        assert abs(objs[i].center[2] - objs[j].center[2]) >= 5.0

    def test_ground_slab_must_project_to_a_finite_box(self):
        # every frame records the ground slab, so its box must fit a meta file
        for key in ("fx", "fy"):
            with pytest.raises(ConfigError, match="ground slab"):
                self._config(**{key: 1e308})
        # a slab behind the near plane is skipped on every frame, as before
        config = self._config(near_m=1.5, vehicle_count_min=0, vehicle_count_max=0)
        assert [r.cls for r in render_scenario_frame(config, 0).records] == []
        # no coarse box may have an infinite area, so none reaches a meta file
        assert not ds._proper_box((-math.inf, 0.0, 1.0, 1.0))
        assert not ds._proper_box((-1e308, -1e308, 1e308, 1e308))
        assert ds._proper_box((-1e150, -1e150, 1e150, 1e150))

    def test_degenerate_config_rejected(self):
        with pytest.raises(ConfigError):
            self._config(vehicle_count_min=5, vehicle_count_max=3)
        with pytest.raises(ConfigError):
            self._config(region_x_min=3.0, region_x_max=-3.0)
        with pytest.raises(ConfigError):
            self._config(frames=0)
        with pytest.raises(ConfigError):
            self._config(vehicle_length_min=0.0)

    def test_config_cannot_be_made_invalid_or_changed(self):
        config = self._config()
        with pytest.raises(ConfigError, match="frames"):
            dataclasses.replace(config, frames=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.frames = 0
        assert config.frames == 4

    def test_object_ids_fit_the_u16_instance_raster(self):
        # ids run from the ground's 1 up; 0 marks pixels of no object
        text = "seed=1\nframes=1\nvehicle_count_min=0\ndistractor_count_min=0\n"
        config = ds.parse_scenario_text(text + "vehicle_count_max=65000\ndistractor_count_max=534\n")
        assert ds.GROUND_OBJECT_ID + config.vehicle_count_max + config.distractor_count_max == 0xFFFF
        with pytest.raises(ConfigError, match="distractor_count_max"):
            ds.parse_scenario_text(text + "vehicle_count_max=65000\ndistractor_count_max=535\n")
        with pytest.raises(ConfigError, match="distractor_count_max"):
            ds.parse_scenario_text(text + "vehicle_count_max=70000\n")


class TestRenderFrame:
    def test_single_cube_oracle_pixels_and_depth(self, small_camera, codec):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.0, z=10.0, length=1.0, width=1.0, height=1.0)]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        inst = bundle.instance_oracle.data
        assert (inst == 2).any()
        z = linearize_depth(bundle.depth.data.astype(np.float64), codec)
        cube_depths = z[inst == 2]
        assert cube_depths.min() >= 9.5 - 1e-3
        assert cube_depths.max() <= 10.5 + 1e-3

    def test_containment_in_coarse_box(self, small_camera):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=1.0, z=12.0, yaw=0.5)]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        record = [r for r in bundle.records if r.object_id == 2][0]
        ys, xs = np.nonzero(bundle.instance_oracle.data == 2)
        left, top, right, bottom = record.coarse_box
        assert (xs + 0.5 >= left - 1e-9).all() and (xs + 0.5 <= right + 1e-9).all()
        assert (ys + 0.5 >= top - 1e-9).all() and (ys + 0.5 <= bottom + 1e-9).all()

    def test_full_occlusion(self, small_camera):
        # far cube fully hidden behind a larger near cube on the same axis
        scene = [
            make_vehicle(2, x=0.0, z=8.0, length=3.0, width=3.0, height=2.5, ground_y=2.8),
            make_vehicle(3, x=0.0, z=30.0, length=1.0, width=1.0, height=1.0, ground_y=2.0),
        ]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        assert not (bundle.instance_oracle.data == 3).any()

    def test_background_contract(self, small_camera, codec):
        scene = [make_vehicle(2, x=0.0, z=10.0, length=1.0, width=1.0, height=1.0)]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        empty = bundle.instance_oracle.data == 0
        assert empty.any()
        assert (bundle.stencil.data[empty] == 0).all()
        assert (bundle.depth.data[empty] == 1.0).all()
        z = linearize_depth(bundle.depth.data.astype(np.float64), codec)
        assert z[empty].max() == pytest.approx(codec.far_m, rel=1e-6)

    def test_class_consistency(self, small_camera):
        scene = [
            make_ground(z_far=40.0),
            make_vehicle(2, x=-1.5, z=9.0),
            ds.SceneObject(3, ds.ObjectClass.DISTRACTOR, (2.0, 1.0, 11.0), (1.0, 1.0, 0.8), 0.3),
        ]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        inst = bundle.instance_oracle.data
        classes = bundle.stencil.data & 0x0F
        for obj in scene:
            covered = inst == obj.object_id
            if covered.any():
                assert (classes[covered] == int(obj.cls)).all()

    def test_zbuffer_equals_brute_force(self, small_camera, codec):
        config = ds.ScenarioConfig(seed=77, frames=3, width=64, height=64, fx=70.0, fy=70.0,
                                   cx=32.0, cy=32.0, vehicle_count_min=2, vehicle_count_max=4,
                                   distractor_count_min=0, distractor_count_max=1,
                                   region_x_min=-6.0, region_x_max=6.0, region_z_min=5.0,
                                   region_z_max=20.0, emit_color=False)
        camera = config.camera()
        for frame in range(config.frames):
            scene = ss.generate_scene(config, frame)
            bundle = render_scenario_frame(config, frame)
            zref = brute_force_depth(camera, scene)
            encoded = np.ones(zref.shape)
            covered = np.isfinite(zref)
            encoded[covered] = encode_log_depth(zref[covered], codec)
            assert np.array_equal(bundle.depth.data, encoded.astype(np.float32))

    def test_zbuffer_against_ray_oracle(self, small_camera, codec):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=-1.0, z=9.0, yaw=0.4),
                 make_vehicle(3, x=2.0, z=14.0, yaw=-0.2)]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        zray = ray_cast_depth(small_camera, scene)
        zray = np.clip(np.where(np.isfinite(zray), zray, codec.far_m), codec.near_m, codec.far_m)
        z = linearize_depth(bundle.depth.data.astype(np.float64), codec)
        assert np.max(np.abs(z - zray)) <= 1e-4

    def test_empty_scene_rejected(self, small_camera):
        with pytest.raises(ValueError):
            ss.render_frame(small_camera, [], 0)

    def test_record_skipped_behind_near_plane(self, small_camera, caplog):
        scene = [make_vehicle(2, x=0.0, z=10.0), make_vehicle(3, x=0.0, z=0.5, length=2.0)]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        assert [r.object_id for r in bundle.records] == [2]

    def test_record_max_range_filters_records_not_pixels(self, small_camera):
        scene = [make_vehicle(2, x=0.0, z=10.0), make_vehicle(3, x=8.0, z=25.0)]
        bundle = ss.render_frame(small_camera, scene, 0, record_max_range_m=15.0, emit_color=False)
        assert [r.object_id for r in bundle.records] == [2]
        assert (bundle.instance_oracle.data == 3).any()

    def test_coarse_box_inflation_recorded(self, small_camera):
        scene = [make_vehicle(2, x=0.0, z=10.0)]
        plain = ss.render_frame(small_camera, scene, 0, inflate_pct=0.0, emit_color=False)
        loose = ss.render_frame(small_camera, scene, 0, inflate_pct=0.10, emit_color=False)
        pb, lb = plain.records[0].coarse_box, loose.records[0].coarse_box
        assert lb[0] < pb[0] and lb[1] < pb[1] and lb[2] > pb[2] and lb[3] > pb[3]
        assert (lb[2] - lb[0]) == pytest.approx((pb[2] - pb[0]) * 1.10)
        # every record's box is the public coarse box, inflated, bit for bit
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.5, z=9.0, yaw=0.3), make_vehicle(3, x=-1.0, z=14.0)]
        for pct in (0.0, 0.10):
            bundle = ss.render_frame(small_camera, scene, 0, inflate_pct=pct, emit_color=False)
            assert [r.object_id for r in bundle.records] == [1, 2, 3]
            for record, obj in zip(bundle.records, scene):
                assert record.coarse_box == ds.inflate_box(ds.coarse_box(small_camera, obj), pct)

    def test_one_projection_per_object_on_a_warm_frame(self, small_camera, monkeypatch):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.5, z=9.0), make_vehicle(3, x=-1.0, z=14.0),
                 make_vehicle(4, x=0.0, z=0.5, length=2.0)]  # 4 is skipped at the near plane
        ss.render_frame(small_camera, scene, 0, emit_color=False)  # caches the first object's layer
        project, projected = ds._project_corners, []

        def counting(camera, obj):
            projected.append(obj.object_id)
            return project(camera, obj)

        monkeypatch.setattr(ss, "_project_corners", counting)
        ss.render_frame(small_camera, scene, 1, emit_color=False)
        assert projected == [1, 2, 3, 4]

    def test_color_optional_and_deterministic(self, small_camera):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.0, z=10.0)]
        with_color = ss.render_frame(small_camera, scene, 0, emit_color=True)
        without = ss.render_frame(small_camera, scene, 0, emit_color=False)
        assert with_color.color is not None and without.color is None
        again = ss.render_frame(small_camera, scene, 0, emit_color=True)
        assert np.array_equal(with_color.color, again.color)


class TestTopLeftRule:
    def test_shared_edge_partition(self):
        # two triangles sharing a diagonal cover every pixel exactly once
        px = np.arange(16, dtype=np.float64) + 0.5
        py = (np.arange(16, dtype=np.float64) + 0.5)[:, None]
        quad = [(2.0, 2.0, 0.1), (13.0, 2.0, 0.1), (13.0, 13.0, 0.1), (2.0, 13.0, 0.1)]
        tri_a = (quad[0], quad[1], quad[2])
        tri_b = (quad[0], quad[2], quad[3])
        cov_a, _ = triangle_coverage_depth(tri_a, px, py)
        cov_b, _ = triangle_coverage_depth(tri_b, px, py)
        assert not (cov_a & cov_b).any()
        # pixel centers on the shared diagonal land in exactly one triangle
        diag = np.eye(16, dtype=bool)[4:12, 4:12]
        union = (cov_a | cov_b)[4:12, 4:12]
        assert union[diag].all()

    def test_horizontal_shared_edge(self):
        px = np.arange(12, dtype=np.float64) + 0.5
        py = (np.arange(12, dtype=np.float64) + 0.5)[:, None]
        upper = ((1.0, 1.0, 0.1), (10.0, 1.0, 0.1), (5.0, 6.5, 0.1))
        lower = ((1.0, 11.0, 0.1), (10.0, 11.0, 0.1), (5.0, 6.5, 0.1))
        # edge y = 6.5 passes exactly through pixel centers of row 6
        cov_u, _ = triangle_coverage_depth(upper, px, py)
        cov_l, _ = triangle_coverage_depth(lower, px, py)
        assert not (cov_u & cov_l).any()

    def test_degenerate_triangle_skipped(self):
        px = np.arange(4, dtype=np.float64) + 0.5
        py = (np.arange(4, dtype=np.float64) + 0.5)[:, None]
        tri = ((0.0, 0.0, 0.1), (2.0, 2.0, 0.1), (1.0, 1.0, 0.1))
        assert triangle_coverage_depth(tri, px, py) is None


_WIN_W, _WIN_H = 64, 48


def _random_triangles(seed, count):
    """Seeded triangles from four families: vertices up to 1e5 px off-screen,
    vertices on or near the image, slivers, and small triangles straddling
    the image border. Yields triangles of three ``(x, y, 1/z)`` vertices."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        family = k % 4
        if family == 0:
            pts = rng.uniform(-1e5, 1e5, size=(3, 2))
            pts[rng.random(3) < 0.5] = rng.uniform(-8.0, 72.0, size=2)
        elif family == 1:
            pts = rng.uniform(-8.0, 72.0, size=(3, 2))
        elif family == 2:
            a = rng.uniform(-8.0, 72.0, size=2)
            b = a + rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(1.0, 5.0)
            pts = np.array([a, b, a + rng.random() * (b - a) + rng.uniform(-0.2, 0.2, size=2)])
        else:
            size = np.array([_WIN_W, _WIN_H], dtype=np.float64)
            anchor = rng.uniform(0.0, size)
            axis = rng.integers(2)
            anchor[axis] = rng.choice([0.0, size[axis]])
            pts = anchor + rng.uniform(-3.0, 3.0, size=(3, 2))
        invz = rng.uniform(1.0 / 600.0, 1.0 / 0.15, size=3)
        yield tuple(zip(*pts.T.tolist(), invz.tolist()))


def _mirrored(tri):
    a, b, c = tri
    return a, c, b


def _front_facing(tri):
    """The triangle wound so its screen signed area is negative (y-down),
    the orientation the renderer keeps."""
    (x0, y0, _), (x1, y1, _), (x2, y2, _) = tri
    return _mirrored(tri) if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0.0 else tri


def _boxes(rng, count):
    """(left, top, right, bottom) boxes around a 9x7 image: tiny, huge, on
    half-pixel and whole-pixel boundaries, inverted, and infinite ones."""
    specials = [-math.inf, math.inf, -1e308, 1e308, -0.5, 0.5, 8.5, 9.5, 6.5, 7.5, -0.0, 0.0, 3.0, 3.5]
    for _ in range(count):
        coords = [rng.choice(specials) if rng.random() < 0.25 else rng.uniform(-3.0, 12.0) for _ in range(4)]
        if rng.random() < 0.5:
            coords = [round(c * 2) / 2 if abs(c) < 1e300 else c for c in coords]
        yield tuple(coords)


class TestPixelWindow:
    """``pixel_window`` is the one rule for "pixels whose centers lie in a
    box": the rasterizer's triangle windows, whose union is the frame's draw
    window, the annotator's candidate windows and the oracle's search
    windows."""

    def test_equals_a_per_pixel_scan(self):
        rng = random.Random(13)
        width, height = 9, 7
        for box in _boxes(rng, 6000):
            margin = rng.choice((0, 0, 2, 0.5))
            got = ds.pixel_window(box, width, height, margin)
            left, top, right, bottom = box
            xs = [ix for ix in range(width) if left - margin - 0.5 <= ix <= right + margin - 0.5]
            ys = [iy for iy in range(height) if top - margin - 0.5 <= iy <= bottom + margin - 0.5]
            want = (xs[0], ys[0], xs[-1] + 1, ys[-1] + 1) if xs and ys else None
            assert got == want, (box, margin)

    def test_nan_bounds_give_a_window_inside_the_image(self):
        for box in ((math.nan, 0.0, 5.0, 5.0), (0.0, 0.0, math.nan, 5.0), (math.nan,) * 4):
            window = ds.pixel_window(box, 9, 7)
            assert window is None or (0 <= window[0] < window[2] <= 9 and 0 <= window[1] < window[3] <= 7)


def _blank_buffers():
    return (
        np.full((_WIN_H, _WIN_W), np.inf),
        np.zeros((_WIN_H, _WIN_W), dtype=np.uint8),
        np.zeros((_WIN_H, _WIN_W), dtype=np.uint16),
    )


def _drawn(triangles):
    """The renderer's zbuf, stencil and instance of ``triangles`` drawn onto
    blank buffers, its depth scratch placed in a full-frame zbuf."""
    zbuf, stencil, instance = _blank_buffers()
    drawn = ss._draw_triangles(stencil, instance, triangles)
    if drawn is not None:
        rows, z, hit = drawn
        assert z.shape == (rows.stop - rows.start, _WIN_W)
        assert np.array_equal(hit, z != np.inf)  # with no layer, a hit is a pixel with a z
        zbuf[rows] = z
    return zbuf, stencil, instance


def _rasterized(tri):
    return _drawn([(tri, 2, 7)])


def _window_pixels(tri):
    xs, ys, _ = zip(*tri)
    window = ds.pixel_window((min(xs), min(ys), max(xs), max(ys)), _WIN_W, _WIN_H)
    return 0 if window is None else (window[2] - window[0]) * (window[3] - window[1])


def _full_image_reference(triangles):
    """Each of ``(triangle, class_code, object_id)`` in turn over the whole
    image, z-tested strictly less than what the ones before it drew."""
    zbuf, stencil, instance = _blank_buffers()
    px = np.arange(_WIN_W, dtype=np.float64) + 0.5
    py = (np.arange(_WIN_H, dtype=np.float64) + 0.5)[:, None]
    for tri, code, object_id in triangles:
        result = triangle_coverage_depth(tri, px, py)
        if result is not None:
            covered, z = result
            hit = covered & (z < zbuf)
            zbuf[hit], stencil[hit], instance[hit] = z[hit], code, object_id
    return zbuf, stencil, instance


def _assert_equals_cull_free_reference(camera, scene, bundle):
    zref, codes, ids = brute_force_buffers(camera, scene)
    encoded = np.ones(zref.shape)
    covered = np.isfinite(zref)
    encoded[covered] = encode_log_depth(zref[covered], camera.depth_params)
    assert np.array_equal(bundle.depth.data, encoded.astype(np.float32))
    assert np.array_equal(bundle.stencil.data, codes)
    assert np.array_equal(bundle.instance_oracle.data, ids)


# (center z, width) of a grid object: its near and far faces at power-of-two depths
_GRID_DEPTHS = ((3.0, 2.0), (6.0, 4.0), (12.0, 8.0), (24.0, 16.0))
_EIGHTHS = st.integers(-96, 96).map(lambda k: k / 8.0)
_GRID_SIZES = st.integers(1, 96).map(lambda k: k / 8.0)


def _flat_pass_camera(width, height, focal, cx, cy):
    return ds.CameraModel(fx=focal, fy=focal, cx=cx, cy=cy, width=width, height=height,
                          depth_params=DepthCodecParams(0.15, 600.0))


@st.composite
def _flat_pass_scenes(draw):
    """A camera and a few cuboids. Grid objects have yaw 0, sizes and centers
    on a 1/8 grid and faces at power-of-two depths, and the focal length is a
    power of two: their corners project exactly onto pixel centers or
    corners, their edges are axis-aligned, and the tie rule decides which
    pixels they cover. Two grid objects with the same depths tie exactly
    where they overlap. Free objects take any pose, some far outside the
    image. A big scene has a 128x96 image and a last object that fills it,
    so its triangles are larger than a batch."""
    big = draw(st.booleans())
    width, height = (128, 96) if big else (draw(st.integers(8, 40)), draw(st.integers(6, 30)))
    half = st.sampled_from((0.0, 0.5))
    cx, cy = draw(st.integers(0, width - 1)) + draw(half), draw(st.integers(0, height - 1)) + draw(half)
    camera = _flat_pass_camera(width, height, draw(st.sampled_from((32.0, 64.0))), cx, cy)
    scene = []
    for object_id in range(1, draw(st.integers(1, 4)) + 1):
        cls = draw(st.sampled_from(list(ds.ObjectClass)))
        if draw(st.booleans()):
            center_z, depth = draw(st.sampled_from(_GRID_DEPTHS))
            center = (draw(_EIGHTHS), draw(_EIGHTHS), center_z)
            size, yaw = (draw(_GRID_SIZES), depth, draw(_GRID_SIZES)), 0.0
        else:
            span = draw(st.sampled_from((6.0, 3000.0)))
            center = (draw(st.floats(-span, span)), draw(st.floats(-span, span)), draw(st.floats(2.0, 40.0)))
            size = tuple(draw(st.floats(0.05, 8.0)) for _ in range(3))
            yaw = draw(st.floats(-math.pi, math.pi))
        scene.append(ds.SceneObject(object_id, cls, center, size, yaw))
    if big:
        scene.append(ds.SceneObject(len(scene) + 1, ds.ObjectClass.VEHICLE, (0.0, 0.0, 3.0), (40.0, 2.0, 40.0), 0.0))
    return camera, scene


class TestRasterizeInto:
    @settings(max_examples=150, deadline=None)
    @given(_flat_pass_scenes())
    @example((_flat_pass_camera(40, 30, 64.0, 20.5, 15.5), [
        ds.SceneObject(1, ds.ObjectClass.GROUND, (0.0, 0.5, 12.0), (6.0, 8.0, 1.0), 0.0),
        # two objects whose near faces coincide at z = 8 where they overlap:
        # the lower id must win there
        ds.SceneObject(2, ds.ObjectClass.VEHICLE, (-0.25, 0.0, 12.0), (1.5, 8.0, 1.25), 0.0),
        ds.SceneObject(3, ds.ObjectClass.DISTRACTOR, (0.5, -0.125, 12.0), (1.5, 8.0, 1.0), 0.0),
        # corners far outside the image
        ds.SceneObject(4, ds.ObjectClass.VEHICLE, (-900.0, 0.3, 5.0), (1799.0, 1.0, 0.4), 0.2),
    ]))
    @example((_flat_pass_camera(128, 96, 32.0, 64.0, 48.0), [
        ds.SceneObject(1, ds.ObjectClass.GROUND, (0.0, 1.5, 12.0), (30.0, 8.0, 0.5), 0.0),
        ds.SceneObject(2, ds.ObjectClass.VEHICLE, (0.5, 0.0, 6.0), (2.0, 4.0, 1.0), 0.0),
        # each of its near face's triangles spans the whole image, more than a batch
        ds.SceneObject(3, ds.ObjectClass.VEHICLE, (0.0, 0.0, 3.0), (40.0, 2.0, 40.0), 0.0),
    ]))
    def test_flat_pass_equals_the_brute_force_oracle(self, case):
        """The renderer's flat pass against every triangle evaluated over the
        whole image, bit for bit."""
        camera, scene = case
        bundle = ss.render_frame(camera, scene, 0, emit_color=False)
        _assert_equals_cull_free_reference(camera, scene, bundle)

    def test_the_big_scenes_split_a_triangle_across_batches(self):
        """The object that fills a big scene's image covers it with its near
        face alone. Each of that face's two triangles has the face's box, so
        each is evaluated over every pixel of the image, more than a batch."""
        camera = _flat_pass_camera(128, 96, 32.0, 64.0, 48.0)
        filler = ds.SceneObject(1, ds.ObjectClass.VEHICLE, (0.0, 0.0, 3.0), (40.0, 2.0, 40.0), 0.0)
        bundle = ss.render_frame(camera, [filler], 0, emit_color=False)
        assert (bundle.instance_oracle.data == 1).all()
        assert np.allclose(linearize_depth(bundle.depth.data.astype(np.float64), camera.depth_params), 2.0)
        assert camera.width * camera.height > ss._BATCH_PIXELS

    def test_clipped_window_matches_full_image_evaluation(self):
        drawn = 0
        for tri in _random_triangles(seed=11, count=4000):
            tri = _front_facing(tri)
            got = _rasterized(tri)
            want = _full_image_reference([(tri, 2, 7)])
            for got_plane, want_plane in zip(got, want):
                assert got_plane.tobytes() == want_plane.tobytes(), tri
            drawn += bool(want[2].any())
        assert drawn > 1500  # most cases cover pixels

    def test_objects_of_overlapping_triangles_equal_a_sequential_z_test(self):
        """Objects of one to four front faces that overlap one another and
        themselves, drawn in one flat pass and one triangle at a time. A
        frame's windows hold more pixels than a batch, so batches end inside
        objects and inside windows."""
        rng = random.Random(21)
        triangles = [_front_facing(tri) for tri in _random_triangles(seed=21, count=2400)]
        split = 0
        while triangles:
            frame = []
            for object_id in range(1, rng.randint(2, 6) + 1):
                count = rng.randint(1, 4)
                frame += [(tri, object_id % 3 + 1, object_id) for tri in triangles[:count]]
                del triangles[:count]
            for got_plane, want_plane in zip(_drawn(frame), _full_image_reference(frame)):
                assert got_plane.tobytes() == want_plane.tobytes(), frame
            split += sum(_window_pixels(tri) for tri, _, _ in frame) > ss._BATCH_PIXELS
        assert split > 50

    def test_back_faces_draw_nothing(self):
        for tri in _random_triangles(seed=12, count=400):
            back = _mirrored(_front_facing(tri))
            for got_plane, blank_plane in zip(_rasterized(back), _blank_buffers()):
                assert got_plane.tobytes() == blank_plane.tobytes(), back

    def test_interpenetrating_yawed_cuboids_match_cull_free_reference(self, small_camera):
        scene = [
            make_ground(z_far=40.0),
            ds.SceneObject(2, ds.ObjectClass.VEHICLE, (0.0, 0.6, 8.0), (4.0, 1.8, 1.5), 0.0),
            # crosses vehicle 2 at another yaw
            ds.SceneObject(3, ds.ObjectClass.VEHICLE, (0.3, 0.5, 8.2), (4.0, 1.8, 1.5), 1.1),
            # pokes out of vehicle 2's near corner
            ds.SceneObject(4, ds.ObjectClass.DISTRACTOR, (1.6, 0.7, 7.3), (1.2, 1.0, 1.2), 0.7),
            # close, running off the left and bottom image edges
            ds.SceneObject(5, ds.ObjectClass.VEHICLE, (-2.6, 0.55, 3.0), (3.0, 2.0, 1.6), 0.3),
        ]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        assert set(np.unique(bundle.instance_oracle.data)) == {0, 1, 2, 3, 4, 5}
        _assert_equals_cull_free_reference(small_camera, scene, bundle)

    def test_generated_overlapping_scenes_match_cull_free_reference(self):
        # no overlap or depth-gap constraint, any yaw, a crowded region close
        # to the camera: objects interpenetrate and run off the image edges
        config = ds.ScenarioConfig(seed=5, frames=6, width=96, height=72, fx=80.0, fy=80.0,
                                   cx=48.0, cy=36.0, vehicle_count_min=5, vehicle_count_max=8,
                                   distractor_count_min=1, distractor_count_max=3,
                                   region_x_min=-5.0, region_x_max=5.0, region_z_min=4.0,
                                   region_z_max=12.0, min_depth_gap_m=0.0, max_overlap_frac=1.0,
                                   vehicle_yaw_max_deg=180.0, emit_color=False)
        camera = config.camera()
        for frame in range(config.frames):
            scene = ss.generate_scene(config, frame)
            _assert_equals_cull_free_reference(camera, scene, render_scenario_frame(config, frame))

    def test_every_triangle_still_enumerated(self, small_camera):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.0, z=10.0)]
        assert sum(1 for _ in ss.scene_screen_triangles(small_camera, scene)) == 24


def _planes(bundle):
    return bundle.depth.data, bundle.stencil.data, bundle.instance_oracle.data


def _scenario_buffers(config):
    """The cached frame buffers of a scenario's camera and ground slab; a
    hit, if they are the ones cached."""
    return ss._frame_buffers(config.camera(), ss.generate_scene(config, 0)[0])


def _render_cached(camera, scene, frame):
    """A frame drawn as write_scenario_frame draws it: its bundle views the
    cached buffers."""
    return ss._render_into(camera, scene, frame, inflate_pct=0.0, record_max_range_m=0.0, emit_color=False)


class TestFirstObjectCache:
    """Frames draw into one cached set of buffers, keyed by (camera, lowest-id
    object). The set draws that object once, when it is made, and keeps its
    depth scratch and encoded depth over the rows that it drew."""

    def test_one_computation_per_scenario(self, tmp_path):
        config = ds.ScenarioConfig(seed=9, frames=5, width=96, height=72, fx=80.0, fy=80.0, cx=48.0,
                                   cy=36.0, region_x_min=-5.0, region_x_max=5.0, region_z_min=8.0,
                                   region_z_max=20.0, emit_color=False)
        ss._frame_buffers.cache_clear()
        for frame in range(config.frames):
            render_scenario_frame(config, frame)
            ss.write_scenario_frame(config, frame, tmp_path)
        assert ss._frame_buffers.cache_info().misses == 1
        cached = _scenario_buffers(config)
        assert ss._frame_buffers.cache_info().misses == 1
        assert cached.first == ss.generate_scene(config, 0)[0]
        assert cached.first.object_id == ds.GROUND_OBJECT_ID

    def test_alternating_cameras_and_first_objects_match_references(self, small_camera, codec):
        other_camera = ds.CameraModel(fx=200.0, fy=210.0, cx=150.0, cy=100.0, width=300, height=200,
                                      depth_params=codec)
        ground_first = [make_ground(z_far=40.0), make_vehicle(2, x=0.5, z=9.0, yaw=0.3),
                        make_vehicle(3, x=-1.0, z=14.0)]
        # the same slab as make_ground's, drawn after two vehicles
        vehicle_first = [make_vehicle(2, x=0.0, z=8.0, yaw=0.4), make_vehicle(3, x=0.8, z=11.0),
                         ds.SceneObject(4, ds.ObjectClass.GROUND, (0.0, 1.41, 20.5), (60.0, 39.0, 0.02), 0.0)]
        moved_first = [make_vehicle(2, x=-0.6, z=8.0, yaw=0.4), *vehicle_first[1:]]
        scenes = (ground_first, vehicle_first, moved_first, ground_first)
        cameras = (small_camera, other_camera)
        # the camera changes with the first object kept, and the other way round
        cases = [(camera, scene) for scene in scenes for camera in cameras]
        cases += [(camera, scene) for camera in cameras for scene in scenes]
        for camera, scene in cases:
            bundle = ss.render_frame(camera, scene, 0, emit_color=False)
            _assert_equals_cull_free_reference(camera, scene, bundle)
            reused = [plane.copy() for plane in _planes(_render_cached(camera, scene, 0))]
            ss._frame_buffers.cache_clear()
            fresh = ss.render_frame(camera, scene, 0, emit_color=False)
            for got, again, want in zip(_planes(bundle), reused, _planes(fresh)):
                assert got.tobytes() == want.tobytes() == again.tobytes()

    def test_a_narrow_layer_window_and_later_objects_outside_it(self, small_camera):
        """A first object whose pixels span neither the full width nor the
        full height, and later objects that draw on both sides of them, inside
        them and across their edge, frame after frame into one set of
        buffers."""
        first = make_vehicle(1, x=0.0, z=10.0)
        later = [
            [make_vehicle(2, x=-4.0, z=12.0), make_vehicle(3, x=1.5, z=9.0, yaw=0.5)],  # left; across the edge
            [make_vehicle(4, x=4.0, z=8.0)],  # right, outside
            [],  # nothing drawn after the first object
            [make_vehicle(5, x=0.3, z=14.0, height=3.0)],  # behind the first object, above it
            [make_ground(z_far=40.0), make_vehicle(3, x=-1.5, z=9.0, yaw=-0.5)],
        ]
        ss._frame_buffers.cache_clear()
        outside = 0
        for frame, objects in enumerate(later * 2):
            scene = [first, *[dataclasses.replace(o, object_id=o.object_id + 1) for o in objects]]
            bundle = _render_cached(small_camera, scene, frame)
            _assert_equals_cull_free_reference(small_camera, scene, bundle)
            rows, z, _ = ss._frame_buffers(small_camera, first).layer
            (columns,) = np.nonzero((z != np.inf).any(axis=0))
            assert 0 < columns[0] and columns[-1] < small_camera.width - 1
            assert 0 < rows.start and rows.stop < small_camera.height
            in_layer = np.zeros((small_camera.height, small_camera.width), dtype=bool)
            in_layer[rows, columns[0] : columns[-1] + 1] = True
            outside += np.count_nonzero(bundle.instance_oracle.data[~in_layer] > 1)
            fresh = ss.render_frame(small_camera, scene, frame, emit_color=False)
            for got, want in zip(_planes(bundle), _planes(fresh)):
                assert got.tobytes() == want.tobytes(), frame
        assert outside > 0
        assert ss._frame_buffers.cache_info().misses == 1

    def test_near_plane_warning_on_every_frame(self, small_camera, caplog):
        """One warning per frame for a skipped object, whether it is the
        cached first object or a later one."""
        near = dict(x=0.0, z=0.5, length=2.0)
        cases = [
            ([make_vehicle(2, **near), make_vehicle(3, x=0.0, z=10.0)], 2, 3),
            ([make_vehicle(2, x=0.0, z=10.0), make_vehicle(3, **near)], 3, 2),
        ]
        for scene, skipped, drawn in cases:
            ss._frame_buffers.cache_clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger=ss.log.name):
                bundles = [ss.render_frame(small_camera, scene, frame, emit_color=False) for frame in (0, 1)]
            assert ss._frame_buffers.cache_info().misses == 1
            assert (ss._frame_buffers(small_camera, scene[0]).layer is None) == (skipped == 2)
            warned = [m for m in caplog.messages if m.startswith(f"object {skipped} ")]
            assert len(warned) == 2 and all("has a corner" in m and m.endswith(", skipped") for m in warned)
            for bundle in bundles:
                assert set(np.unique(bundle.instance_oracle.data)) == {0, drawn}
                assert [r.object_id for r in bundle.records] == [drawn]
                _assert_equals_cull_free_reference(small_camera, scene, bundle)

    def test_frame_buffers_are_read_only_and_never_shared(self, small_camera, tmp_path):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.5, z=9.0)]
        first = ss.render_frame(small_camera, scene, 0, emit_color=False)
        expected = [plane.copy() for plane in _planes(first)]
        for plane in _planes(first):
            with pytest.raises(ValueError):
                plane[0, 0] = 0
        # even with the lock lifted by hand, a write reaches neither the
        # cached buffers nor the next frame
        for plane in _planes(first):
            plane.flags.writeable = True
            plane[...] = 7
        again = ss.render_frame(small_camera, scene, 1, emit_color=False)
        for got, want in zip(_planes(again), expected):
            assert got.tobytes() == want.tobytes()
        cached = ss._frame_buffers(small_camera, scene[0])
        rows, *arrays = cached.layer  # z and encoded depth; stencil and instance follow from z
        for arr in arrays:
            assert arr.shape == (rows.stop - rows.start, small_camera.width)
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, plane) for plane in (*_planes(first), *_planes(again)))
        for plane in cached.arrays:
            assert not any(np.shares_memory(plane, other) for other in (*_planes(first), *_planes(again)))
        # nor with the planes that generate writes from
        config = _acceptance_config(width=96, height=72, fx=105.0, fy=105.0, cx=48.0, cy=36.0)
        ss.write_scenario_frame(config, 0, tmp_path)
        cached = _scenario_buffers(config)
        for arr in cached.layer[1:]:
            assert not any(np.shares_memory(arr, plane) for plane in cached.arrays)

    def test_peak_memory_is_one_frame_of_buffers_and_the_cached_window(self, tmp_path):
        """The traced peak over a process's first three acceptance frames: one
        set of frame planes at 7 B/px, the cached layer at 12 B a pixel of its
        rows, the largest depth scratch that a later draw z-tested in, and at
        most 1 MB of temporaries. A fresh process, so that no buffer or layer
        is cached yet."""
        code = (
            "import sys, tracemalloc\n"
            "from matrixgt import dataset as ds, scene_sim as ss\n"
            "config = ds.parse_scenario_text(sys.stdin.read())\n"
            "draw, scratch = ss._draw_triangles, [0]\n"
            "def spy(stencil, instance, triangles, layer=None):\n"
            "    drawn = draw(stencil, instance, triangles, layer)\n"
            "    if drawn is not None and layer is not None:  # a later draw, over the ground\n"
            "        scratch[0] = max(scratch[0], drawn[1].nbytes)\n"
            "    return drawn\n"
            "ss._draw_triangles = spy\n"
            "tracemalloc.start()\n"
            "for frame in range(3):\n"
            "    ss.write_scenario_frame(config, frame, sys.argv[1])\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "layer = ss._frame_buffers(config.camera(), ss.generate_scene(config, 0)[0]).layer\n"
            "print(peak, sum(a.nbytes for a in layer[1:]), scratch[0])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ss.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], input=ACCEPTANCE_SCENARIO,
                                env=env, capture_output=True, text=True, check=True)
        peak, cached, scratch = map(int, result.stdout.split())
        config = ds.parse_scenario_text(ACCEPTANCE_SCENARIO)
        assert cached == 12 * config.width * 230  # the ground slab's rows 250-479
        assert 0 < scratch <= 8 * config.width * 60  # later objects draw in a few dozen rows
        budget = 7 * config.width * config.height + cached + scratch + 1_000_000
        assert peak <= budget, f"traced peak {peak} B, budget {budget} B"

    def test_window_z_edge_cases_into_one_set_of_buffers(self, small_camera):
        """Later objects whose rows are the whole image or lie wholly outside
        the layer's, and first objects that draw nothing, frame after frame
        into the cached buffers, against fresh buffers and the cull-free
        reference."""
        ground, offscreen = make_ground(z_far=40.0), make_vehicle(1, x=-500.0, z=10.0)
        near = make_vehicle(2, x=0.0, z=3.0, length=12.0, height=6.0)  # covers the whole image
        floating = ds.SceneObject(3, ds.ObjectClass.DISTRACTOR, (0.5, -3.0, 20.0), (1.0, 1.0, 1.0), 0.3)
        scenes = {
            "near": [ground, near],
            "above": [ground, floating],
            "plain": [ground, make_vehicle(2, x=1.0, z=12.0)],
            "none first": [offscreen, make_vehicle(2, x=1.0, z=12.0), floating],
            "none first, near": [offscreen, near],
        }
        order = ["near", "above", "plain", "near", "none first", "none first, near", "none first", "above",
                 "near", "plain", "above", "none first, near"]
        for frame, name in enumerate(order):
            scene = scenes[name]
            bundle = _render_cached(small_camera, scene, frame)
            cached = ss._frame_buffers(small_camera, scene[0])
            if name.startswith("none first"):
                assert cached.layer is None
            else:
                rows, z, _ = cached.layer
                assert rows.start > 0 and (z[:, [0, -1]] != np.inf).any(axis=0).all()  # the full width
            if name.endswith("near"):
                assert cached.dirty == slice(0, small_camera.height)
            if name == "above":
                assert cached.dirty.stop <= cached.layer[0].start
            _assert_equals_cull_free_reference(small_camera, scene, bundle)
            reused = [plane.copy() for plane in _planes(bundle)]
            fresh = ss.render_frame(small_camera, scene, frame, emit_color=False)
            for got, want in zip(reused, _planes(fresh)):
                assert got.tobytes() == want.tobytes(), (frame, name)


def _acceptance_config(**overrides):
    config = ds.parse_scenario_text(ACCEPTANCE_SCENARIO)
    return dataclasses.replace(config, **{"frames": 3, **overrides})


# the ground slab (from z = 1 m) lies behind the 1.5 m near plane and vehicles
# are placed at it, so frames skip the first object and some records
_NEAR_PLANE_KEYS = dict(width=160, height=120, fx=120.0, fy=120.0, cx=80.0, cy=60.0, near_m=1.5,
                        region_x_min=-3.0, region_x_max=3.0, region_z_min=3.0, region_z_max=9.0,
                        min_depth_gap_m=0.0, max_overlap_frac=1.0)


def _frame_files(directory, frame):
    return {key: path.read_bytes() for key, path in ds.frame_paths(directory, frame).items() if path.exists()}


class TestReusedFrameBuffers:
    """write_scenario_frame draws every frame into one set of buffers per
    process and image size, and writes the files straight from them."""

    @pytest.mark.parametrize("emit_color", [False, True])
    @pytest.mark.parametrize("shape", ["acceptance", "crowd", "near-plane"])
    def test_files_equal_render_frame_and_write_frame_files(self, shape, emit_color, tmp_path):
        keys = {"acceptance": {}, "crowd": CROWD_KEYS, "near-plane": _NEAR_PLANE_KEYS}[shape]
        config = _acceptance_config(emit_color=emit_color, **keys)
        (tmp_path / "streamed").mkdir()
        (tmp_path / "fresh").mkdir()
        for frame in range(config.frames):
            ss.write_scenario_frame(config, frame, tmp_path / "streamed")
            ss.write_frame_files(render_scenario_frame(config, frame), tmp_path / "fresh")
            streamed = _frame_files(tmp_path / "streamed", frame)
            assert set(streamed) == {"depth", "stencil", "instance", "meta"} | ({"color"} if emit_color else set())
            assert streamed == _frame_files(tmp_path / "fresh", frame)

    def test_near_plane_shape_skips_the_first_object(self, caplog):
        config = _acceptance_config(**_NEAR_PLANE_KEYS)
        with caplog.at_level(logging.WARNING, logger=ss.log.name):
            bundle = render_scenario_frame(config, 0)
        assert any(m.startswith(f"object {ds.GROUND_OBJECT_ID} has a corner") for m in caplog.messages)
        assert ds.GROUND_OBJECT_ID not in bundle.instance_oracle.data

    def test_alternating_image_sizes_match_a_fresh_process(self, tmp_path, monkeypatch):
        """Frames of several scenarios draw into this process's cached buffers
        in turn. A frame resets only the rows that the frame before it drew,
        unless its camera or first object differs, which makes a new set.
        Every written frame must equal the same frame from a fresh process."""
        size_a = dict(width=96, height=72, fx=105.0, fy=105.0, cx=48.0, cy=36.0)
        configs = {
            "a": _acceptance_config(**size_a),
            "b": _acceptance_config(width=64, height=48, fx=70.0, fy=70.0, cx=32.0, cy=24.0),
            # the size of "a" again, another scenario and camera
            "c": _acceptance_config(seed=5, width=96, height=72, fx=90.0, fy=90.0, cx=40.0, cy=30.0),
            # a's ground and camera with no later object: a frame that draws nothing
            "none": _acceptance_config(**size_a, vehicle_count_min=0, vehicle_count_max=0,
                                       distractor_count_min=0, distractor_count_max=0),
            # the ground slab lies behind the near plane and is skipped
            "near": _acceptance_config(**size_a, near_m=1.5),
            # a's camera with a wider ground slab: another first object
            "ground": _acceptance_config(**size_a, seed=7, region_x_min=-30.0),
        }
        # the frame after the failed one draws nothing, so pixels that the
        # failed frame left outside the reset window would show
        steps = ["a0", "a1", "none0", "a2", "ground0", "ground1", "a0", "c0", "near0", "near1", "b0", "b1",
                 "c1", "none1", "FAIL a1", "none2", "a2", "ground2", "near2", "b2", "c2", "a1"]
        for name in configs:
            (tmp_path / "in-process" / name).mkdir(parents=True)
        draw, calls = ss._draw_triangles, []

        def failing_once_drawn(stencil, instance, triangles, layer=None):
            triangles = list(triangles)
            if all(object_id == ds.GROUND_OBJECT_ID for _, _, object_id in triangles):
                return draw(stencil, instance, triangles, layer)  # a first-object layer
            # fail part-way: after the first half of the frame's triangles drew
            draw(stencil, instance, triangles[: len(triangles) // 2], layer)
            calls.append((instance > ds.GROUND_OBJECT_ID).any())
            raise RuntimeError("rasterizer failed")

        for step in steps:
            name, frame = step.split()[-1][:-1], int(step[-1])
            if step.startswith("FAIL"):
                with monkeypatch.context() as patch:
                    patch.setattr(ss, "_draw_triangles", failing_once_drawn)
                    with pytest.raises(RuntimeError, match="rasterizer failed"):
                        ss.write_scenario_frame(configs[name], frame, tmp_path / "in-process" / name)
                assert calls == [True]  # it failed with pixels drawn past the ground slab
                continue
            ss.write_scenario_frame(configs[name], frame, tmp_path / "in-process" / name)
        env = {**os.environ, "PYTHONPATH": str(Path(ss.__file__).parents[1])}
        for name, config in configs.items():
            scenario = tmp_path / f"{name}.txt"
            scenario.write_text(ds.scenario_to_text(config))
            subprocess.run([sys.executable, "-m", "matrixgt", "generate", "--scenario", str(scenario),
                            "--out", str(tmp_path / "fresh" / name)], check=True, env=env, capture_output=True)
            for frame in range(3):
                assert _frame_files(tmp_path / "in-process" / name, frame) == _frame_files(
                    tmp_path / "fresh" / name, frame), (name, frame)

    def test_render_frame_bundle_survives_streamed_frames(self, tmp_path):
        """render_frame draws into the cached set that the scenario's streamed
        frames then draw into, and its bundle holds copies: they share no
        memory with the set and keep their bytes, through frames of the same
        camera and of another one."""
        config = _acceptance_config(width=96, height=72, fx=105.0, fy=105.0, cx=48.0, cy=36.0, frames=5)
        other = dataclasses.replace(config, fx=90.0, fy=90.0)
        ss._frame_buffers.cache_clear()
        bundle = render_scenario_frame(config, 0)
        expected = [plane.copy() for plane in _planes(bundle)]
        for frame in range(config.frames):
            ss.write_scenario_frame(config, frame, tmp_path)
        assert ss._frame_buffers.cache_info().misses == 1
        cached = _scenario_buffers(config)
        for plane, want in zip(_planes(bundle), expected):
            assert plane.tobytes() == want.tobytes()
            assert not any(np.shares_memory(plane, arr) for arr in (*cached.arrays, *cached.layer[1:]))
        for frame in range(other.frames):
            ss.write_scenario_frame(other, frame, tmp_path)
        assert ss._frame_buffers.cache_info().misses == 2
        for plane, want in zip(_planes(bundle), expected):
            assert plane.tobytes() == want.tobytes()

    def test_non_finite_depth_is_rejected_before_it_is_written(self, tmp_path, monkeypatch):
        buffer = np.zeros((2, 3), dtype=np.float32)
        buffer[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Raster(buffer.view())
        config = _acceptance_config(width=96, height=72, fx=105.0, fy=105.0, cx=48.0, cy=36.0)
        render_scenario_frame(config, 0)  # caches the first-object layer before the patch
        monkeypatch.setattr(ss, "encode_log_depth", lambda z, params: np.full_like(z, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            ss.write_scenario_frame(config, 0, tmp_path)
        assert not ds.frame_paths(tmp_path, 0)["depth"].exists()


_SCENARIO_BASE = {"seed": "1", "frames": "2", "width": "48", "height": "36", "fx": "50.0", "fy": "50.0",
                  "cx": "24.0", "cy": "18.0"}
_SCENARIO_TOKENS = ["0", "1", "-1", "2.5", "1_0", "\u0661", "nan", "NaN", "inf", "-inf", "1e999", "-1e999",
                    "true", "x", ""]


@st.composite
def _scenario_texts(draw):
    """A small valid scenario with up to three keys set to junk, non-finite
    or out-of-range values; sometimes a key dropped, unknown or repeated."""
    pairs = dict(_SCENARIO_BASE)
    keys = [f.name for f in dataclass_fields(ds.ScenarioConfig)]
    values = st.floats().map(repr) | st.integers(min_value=-3, max_value=700).map(str) | st.sampled_from(_SCENARIO_TOKENS)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        pairs[key] = draw(values)
    lines = [f"{key}={value}" for key, value in pairs.items()]
    if draw(st.booleans()):
        lines.pop(draw(st.integers(min_value=0, max_value=len(lines) - 1)))
    lines += draw(st.lists(st.sampled_from(["bogus=1", "seed=3", "# note", "", "frames"]), max_size=1))
    return "\n".join(lines) + "\n"


def _parsed_or_none(parse, source):
    try:
        return parse(source)
    except MatrixGTError:
        return None


class TestScenarioText:
    def test_round_trip(self):
        config = ds.ScenarioConfig(seed=123, frames=7, min_depth_gap_m=2.5, emit_color=False)
        parsed = ds.parse_scenario_text(ds.scenario_to_text(config))
        assert parsed == config

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ds.parse_scenario_text("frames=3\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            ds.parse_scenario_text("seed=1\nframes=2\nbogus=3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="frames"):
            ds.parse_scenario_text("seed=1\nframes=two\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ds.parse_scenario_text("seed=1\nseed=2\nframes=1\n")

    def test_comments_and_blanks(self):
        config = ds.parse_scenario_text("# hello\n\nseed=4\nframes=2\n")
        assert config.seed == 4 and config.frames == 2

    def test_manifest_round_trip(self, tmp_path):
        config = ds.ScenarioConfig(seed=5, frames=2)
        path = tmp_path / "manifest.txt"
        path.write_text(ds.manifest_text(config))
        assert ds.read_manifest(path) == config
        # configs cannot change, so every read of one file shares one
        assert ds.read_manifest(path) is ds.read_manifest(path)

    def test_frames_capped_at_a_million(self, tmp_path):
        # frame files carry a six-digit index
        assert ds.parse_scenario_text("seed=1\nframes=1000000\n").frames == 1_000_000
        with pytest.raises(ConfigError, match="frames"):
            ds.parse_scenario_text("seed=1\nframes=1000001\n")
        path = tmp_path / "manifest.txt"
        path.write_text(f"format_version={ds.FORMAT_VERSION}\nseed=1\nframes=1000001\n")
        with pytest.raises(ConfigError, match="frames"):
            ds.read_manifest(path)

    def test_image_capped_at_2_24_pixels(self, tmp_path):
        # checked before any frame buffer is allocated
        text = "seed=1\nframes=1\ncx=1\ncy=1\n"
        assert ds.parse_scenario_text(text + "width=4096\nheight=4096\n").width == 4096
        with pytest.raises(ConfigError, match="pixels"):
            ds.parse_scenario_text(text + "width=4096\nheight=4097\n")
        path = tmp_path / "manifest.txt"
        path.write_text(f"format_version={ds.FORMAT_VERSION}\n" + text + "width=100000\nheight=100000\n")
        with pytest.raises(ConfigError, match="pixels"):
            ds.read_manifest(path)

    def test_manifest_bad_version(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("format_version=99\nseed=1\nframes=1\n")
        with pytest.raises(FormatError, match="format_version"):
            ds.read_manifest(path)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=200), _scenario_texts()))
    def test_fuzzed_scenario_and_manifest_raise_only_matrixgt_errors(self, tmp_path_factory, text):
        manifest = tmp_path_factory.getbasetemp() / "fuzzed_manifest.txt"
        manifest.write_text(f"format_version={ds.FORMAT_VERSION}\n" + text)
        scenario = _parsed_or_none(ds.parse_scenario_text, text)
        assert _parsed_or_none(ds.read_manifest, manifest) == scenario
        if scenario is not None:
            values = [getattr(scenario, f.name) for f in dataclass_fields(ds.ScenarioConfig)]
            assert all(math.isfinite(v) for v in values if isinstance(v, float))
            assert ds.parse_scenario_text(ds.scenario_to_text(scenario)) == scenario


_META_TOKENS = ["1", "-1", "65535", "1_0", "\u0661", "2.5", "nan", "inf", "-inf", "1e999", "vehicle", "x", "0x1f", ""]


@st.composite
def _meta_lines(draw):
    """Meta-like lines: an id, a class and twelve numbers, any of which may be
    junk, non-finite or out of range; sometimes a field too many or too few."""
    numbers = st.floats(min_value=-1e3, max_value=1e3).map(repr) | st.floats().map(repr) | st.sampled_from(_META_TOKENS)
    fields = [
        draw(st.integers(min_value=-2, max_value=70000).map(str) | st.sampled_from(_META_TOKENS)),
        draw(st.sampled_from(["Vehicle", "ground", "DISTRACTOR", "Spaceship", "1"])),
        *(draw(numbers) for _ in range(12)),
    ]
    extra = draw(st.sampled_from([0, 0, 0, 1, -1]))
    return " ".join(fields + ["0"] if extra > 0 else fields[: len(fields) + extra])


class TestMetaText:
    def test_round_trip(self, small_camera):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=1.0, z=9.0, yaw=0.25)]
        bundle = ss.render_frame(small_camera, scene, 0, inflate_pct=0.1, emit_color=False)
        parsed = ds.parse_meta_text(ds.meta_text(bundle.records))
        assert len(parsed) == len(bundle.records)
        for original, loaded in zip(bundle.records, parsed):
            assert loaded.object_id == original.object_id
            assert loaded.cls == original.cls
            assert loaded.coarse_box == pytest.approx(original.coarse_box, abs=5e-5)
            assert loaded.range_m == pytest.approx(original.range_m, abs=5e-5)
            assert loaded.size == pytest.approx(original.size, abs=5e-5)
            assert loaded.yaw == pytest.approx(original.yaw, abs=5e-5)

    def test_yaw_of_plus_or_minus_pi_round_trips(self, small_camera):
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=-1.0, z=9.0, yaw=math.pi),
                 make_vehicle(3, x=1.5, z=12.0, yaw=-math.pi)]
        records = ss.render_frame(small_camera, scene, 0, emit_color=False).records
        text = ds.meta_text(records)
        parsed = ds.parse_meta_text(text)
        assert [r.yaw for r in parsed] == [0.0, 3.1416, -3.1416]
        assert ds.meta_text(parsed) == text

    def test_field_count_error(self):
        with pytest.raises(FormatError, match="line 1"):
            ds.parse_meta_text("1 Vehicle 0 0 1 1\n")

    def test_bad_class_error(self):
        line = "1 Spaceship " + " ".join(["1.0"] * 12)
        with pytest.raises(FormatError, match="line 1"):
            ds.parse_meta_text(line + "\n")

    @pytest.mark.parametrize(
        "field, value",
        [(2, "nan"), (4, "inf"), (6, "-1"), (6, "0"), (7, "inf"), (13, "-inf"), (2, "9"), (3, "1e999"),
         (0, "0"), (0, "-5"), (0, "70000"), (0, "7"), (13, "3.1417"), (13, "-3.1417"), (13, "1e308"),
         (7, "0"), (8, "-1.8"), (9, "0"), (9, "-0")],
    )
    def test_bad_number_or_record_names_the_line(self, field, value):
        # line 2 repeats line 1 under another id; ids must be 1..65535 and unique
        parts = "8 Vehicle 1 2 8 9 30 1.5 1.8 4.0 0 1 30 0.1".split()
        parts[field] = value
        text = "7 Vehicle 1 2 8 9 30 1.5 1.8 4.0 0 1 30 0.1\n" + " ".join(parts) + "\n"
        with pytest.raises(FormatError, match="meta line 2"):
            ds.parse_meta_text(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=200), st.lists(_meta_lines(), max_size=4).map("\n".join)))
    def test_fuzzed_text_raises_only_matrixgt_errors(self, text):
        try:
            records = ds.parse_meta_text(text)
        except MatrixGTError:
            return
        for record in records:
            numbers = (*record.coarse_box, record.range_m, *record.size, *record.location_cam, record.yaw)
            assert all(np.isfinite(numbers)) and record.range_m > 0
            assert 1 <= record.object_id <= 65535
        assert len({r.object_id for r in records}) == len(records)


class TestDatasetFiles:
    def _tiny_config(self, **overrides):
        base = dict(seed=3, frames=2, width=48, height=36, fx=50.0, fy=50.0, cx=24.0, cy=18.0,
                    vehicle_count_min=1, vehicle_count_max=2, distractor_count_min=0,
                    distractor_count_max=0, region_x_min=-3.0, region_x_max=3.0,
                    region_z_min=6.0, region_z_max=15.0, emit_color=True)
        base.update(overrides)
        return ds.ScenarioConfig(**base)

    def test_ppm_golden(self, tmp_path):
        rgb = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)
        assert ss.ppm_header(rgb) == b"P6\n2 1\n255\n"
        with pytest.raises(ValueError):
            ss.ppm_header(rgb[..., :2])
        # a reversed view, so the written pixels must come from a contiguous copy
        bundle = ss.FrameBundle(frame_id=0, color=rgb[:, ::-1], depth=Raster(np.zeros((1, 2), np.float32)),
                                stencil=Raster(np.zeros((1, 2), np.uint8)),
                                instance_oracle=Raster(np.zeros((1, 2), np.uint16)), records=[])
        ss.write_frame_files(bundle, tmp_path)
        assert ds.frame_paths(tmp_path, 0)["color"].read_bytes() == b"P6\n2 1\n255\n" + bytes([4, 5, 6, 1, 2, 3])

    def test_frame_buffers_reader(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(ds.scenario_to_text(self._tiny_config()))
        out = tmp_path / "ds"
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        depth, stencil, records, instance = ds.read_frame_buffers(out, 0)
        assert instance is None
        assert depth.sample_kind == "F32" and stencil.sample_kind == "U8"
        assert all(r.object_id >= 1 for r in records)
        _, _, _, instance = ds.read_frame_buffers(out, 0, with_instance=True)
        assert instance is not None and instance.sample_kind == "U16"

    def _generated(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(ds.scenario_to_text(self._tiny_config(frames=1)))
        out = tmp_path / "ds"
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        return out, ds.frame_paths(out, 0)

    def test_reader_checks_raster_sizes_against_the_manifest(self, tmp_path):
        out, paths = self._generated(tmp_path)
        for key in ("depth", "stencil", "instance"):
            original = paths[key].read_bytes()
            data = read_raster(paths[key]).data
            for resized in (data[:, :-1], data[:-1], data[:4, :4], np.hstack([data, data[:, :1]])):
                write_raster(Raster(resized), paths[key])
                with pytest.raises(ValidationError, match=f"{paths[key].name}: .* raster, manifest says 48x36"):
                    ds.read_frame_buffers(out, 0, with_instance=key == "instance")
            paths[key].write_bytes(original)
        ds.read_frame_buffers(out, 0, with_instance=True)
        # rasters that agree with each other still disagree with the manifest
        manifest = out / ds.MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace("width=48\n", "width=47\n"))
        for with_instance in (False, True):
            with pytest.raises(ValidationError, match="48x36 raster, manifest says 47x36"):
                ds.read_frame_buffers(out, 0, with_instance=with_instance)

    def test_reader_checks_stencil_class_codes(self, tmp_path):
        out, paths = self._generated(tmp_path)
        data = read_raster(paths["stencil"]).data
        for byte in range(256):
            stencil = data.copy()
            stencil[-1, -1] = byte  # flag bits in the high nibble are allowed
            write_raster(Raster(stencil), paths["stencil"])
            if byte & 0x0F <= max(ds.ObjectClass):
                ds.read_frame_buffers(out, 0, with_instance=True)
            else:
                with pytest.raises(FormatError, match="stencil.mrb: class codes"):
                    ds.read_frame_buffers(out, 0, with_instance=True)
