import numpy as np
import pytest

from matrixgt import dataset as ds
from matrixgt import scene_sim as ss
from matrixgt.raster_codec import DepthCodecParams


@pytest.fixture
def codec():
    return DepthCodecParams(near_m=0.15, far_m=600.0)


@pytest.fixture
def spec_camera(codec):
    """Camera used by the projection examples: fx=fy=100, 640x480."""
    return ds.CameraModel(fx=100.0, fy=100.0, cx=320.0, cy=240.0, width=640, height=480, depth_params=codec)


def make_ground(ground_y=1.4, x_extent=60.0, z_near=1.0, z_far=60.0):
    return ds.SceneObject(
        object_id=ds.GROUND_OBJECT_ID,
        cls=ds.ObjectClass.GROUND,
        center=(0.0, ground_y + 0.01, (z_near + z_far) / 2.0),
        size=(x_extent, z_far - z_near, 0.02),
        yaw=0.0,
    )


def make_vehicle(object_id, x, z, length=4.2, width=1.8, height=1.5, yaw=0.0, ground_y=1.4):
    return ds.SceneObject(
        object_id=object_id,
        cls=ds.ObjectClass.VEHICLE,
        center=(x, ground_y - height / 2.0 - 0.01, z),
        size=(length, width, height),
        yaw=yaw,
    )


def render_scenario_frame(config, frame_idx):
    """``render_frame`` of one generated scenario frame with the scenario's
    knobs: the bundle that ``generate`` writes for it."""
    return ss.render_frame(
        config.camera(),
        ss.generate_scene(config, frame_idx),
        frame_idx,
        inflate_pct=config.coarse_box_inflate_pct,
        record_max_range_m=config.record_max_range_m,
        emit_color=config.emit_color,
    )


@pytest.fixture
def small_camera(codec):
    return ds.CameraModel(fx=260.0, fy=260.0, cx=160.0, cy=120.0, width=320, height=240, depth_params=codec)


@pytest.fixture
def occlusion_scene(small_camera):
    """Two overlapping vehicles at 8 m / 16 m whose silhouettes merge into a
    single stencil component; the depth band separates them cleanly
    (gap 8 m > 2 * rho * 16 m)."""
    ground_y = 1.4
    scene = [
        make_ground(ground_y=ground_y),
        make_vehicle(2, x=-0.4, z=8.0, length=3.6, width=1.6, height=1.4, ground_y=ground_y),
        make_vehicle(3, x=4.9, z=16.0, length=4.0, width=1.7, height=1.8, ground_y=ground_y),
    ]
    return small_camera, scene


def oracle_hulls(instance_raster):
    """Pixel hull per object id from the withheld instance oracle."""
    inst = instance_raster.data
    hulls = {}
    for object_id in np.unique(inst):
        if object_id == 0:
            continue
        ys, xs = np.nonzero(inst == object_id)
        hulls[int(object_id)] = (float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1))
    return hulls


ACCEPTANCE_SCENARIO = """\
# end-to-end oracle-agreement scenario
seed=20260809
frames=200
width=640
height=480
fx=700.0
fy=700.0
cx=320.0
cy=240.0
camera_height_m=1.6
vehicle_count_min=3
vehicle_count_max=8
distractor_count_min=0
distractor_count_max=2
vehicle_length_min=3.8
vehicle_length_max=4.6
vehicle_width_min=1.7
vehicle_width_max=2.0
vehicle_height_min=1.4
vehicle_height_max=2.2
vehicle_yaw_max_deg=14.0
region_x_min=-24.0
region_x_max=24.0
region_z_min=26.0
region_z_max=68.0
min_depth_gap_m=14.0
max_overlap_frac=0.25
coarse_box_inflate_pct=0.10
emit_color=0
"""

# the benchmark's crowd shape, as overrides of ACCEPTANCE_SCENARIO: 320x240,
# many overlapping objects, a record range
CROWD_KEYS = dict(width=320, height=240, fx=350.0, fy=350.0, cx=160.0, cy=120.0, vehicle_count_min=14,
                  vehicle_count_max=22, distractor_count_max=4, region_z_min=12.0, region_z_max=80.0,
                  min_depth_gap_m=0.0, max_overlap_frac=1.0, record_max_range_m=60.0)
