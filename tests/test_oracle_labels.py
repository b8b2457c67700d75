"""Oracle labels against an independent reference built from plain loops.

The reference finds each object's pixels by visiting every pixel in row-major
order, takes hulls from ``conftest.oracle_hulls`` and decides each id's class
from its record, or for an unrecorded id from the stencil class at its first
pixel. Frames are random: ids up to 65535, scattered and rectangular objects,
single pixels, objects on every image border, occluded ids that vanish,
frames without a background pixel, and records of every class with and
without pixels, whose coarse boxes hold all, some or none of their pixels.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np

from conftest import ACCEPTANCE_SCENARIO, oracle_hulls, render_scenario_frame

from matrixgt import oracle_labels
from matrixgt import scene_sim as ss
from matrixgt.annotator import TightAnnotation, record_annotation
from matrixgt.kitti_labels import from_annotation
from matrixgt.raster_codec import Raster
from matrixgt.scene_sim import EngineRecord, ObjectClass

CLASSES = (ObjectClass.GROUND, ObjectClass.VEHICLE, ObjectClass.DISTRACTOR)


def _record(rng, object_id, cls, width, height):
    left = float(rng.uniform(-width, width))
    top = float(rng.uniform(-height, height))
    return EngineRecord(
        object_id=object_id,
        cls=cls,
        coarse_box=(left, top, left + float(rng.uniform(0.5, 2 * width)), top + float(rng.uniform(0.5, 2 * height))),
        range_m=float(rng.uniform(1.0, 80.0)),
        size=(4.0, 1.8, 1.5),
        yaw=float(rng.uniform(-0.3, 0.3)),
        location_cam=(float(rng.uniform(-5, 5)), 1.0, float(rng.uniform(5, 60))),
    )


def _paint(rng, inst, object_id):
    """Paint one object; later objects occlude earlier ones, sometimes entirely."""
    height, width = inst.shape
    kind = ("pixel", "rect", "scatter", "border")[rng.integers(4)]
    if kind == "pixel":
        inst[rng.integers(height), rng.integers(width)] = object_id
        return
    if kind == "scatter":
        inst[rng.random(inst.shape) < rng.uniform(0.02, 0.3)] = object_id
        return
    y0, y1 = sorted(int(v) for v in rng.integers(0, height + 1, size=2))
    x0, x1 = sorted(int(v) for v in rng.integers(0, width + 1, size=2))
    if kind == "border":  # stretch to one image edge
        side = rng.integers(4)
        if side == 0:
            y0 = 0
        elif side == 1:
            x0 = 0
        elif side == 2:
            y1 = height
        else:
            x1 = width
    y0, x0 = min(y0, height - 1), min(x0, width - 1)
    inst[y0 : max(y1, y0 + 1), x0 : max(x1, x0 + 1)] = object_id


def random_frame(rng):
    height, width = (int(v) for v in rng.integers(1, 25, size=2))
    inst = np.zeros((height, width), dtype=np.uint16)
    count = int(rng.integers(0, 9))
    ids = [int(v) for v in rng.choice(np.arange(1, 65536), size=count, replace=False)]
    if count and rng.random() < 0.3 and 65535 not in ids:
        ids[-1] = 65535
    if count and rng.random() < 0.1:  # no background pixel left
        inst[:] = ids[0]
    for object_id in ids:
        _paint(rng, inst, object_id)
    # every pixel gets a random class code and random flag bits
    codes = rng.choice([int(c) for c in CLASSES], size=inst.shape)
    stencil = (rng.integers(0, 16, size=inst.shape) << 4 | codes).astype(np.uint8)
    records = [_record(rng, object_id, CLASSES[rng.integers(3)], width, height)
               for object_id in ids if rng.random() < 0.6]
    absent = [object_id for object_id in range(1, 40) if object_id not in ids]
    records += [_record(rng, object_id, CLASSES[rng.integers(3)], width, height)
                for object_id in rng.choice(absent, size=int(rng.integers(0, 3)), replace=False).tolist()]
    rng.shuffle(records)
    return Raster(inst), Raster(stencil), records, (width, height)


def _centers_in_box(box, y, x):
    """Whether the center of pixel (y, x) lies in ``box``."""
    left, top, right, bottom = box
    return left <= x + 0.5 <= right and top <= y + 0.5 <= bottom


def reference_annotations(instance, stencil, records, image_size, seen):
    """Expected annotations of the vehicle ids, ascending, from plain loops;
    ``seen`` counts the cases the frame covers."""
    inst, packed = instance.data, stencil.data
    pixels = {}
    for y in range(inst.shape[0]):
        for x in range(inst.shape[1]):
            if inst[y, x]:
                pixels.setdefault(int(inst[y, x]), []).append((y, x))
    seen["no background pixel"] += sum(map(len, pixels.values())) == inst.size
    hulls = oracle_hulls(instance)
    assert sorted(hulls) == sorted(pixels)
    by_id = {r.object_id: r for r in records}
    seen["recorded absent"] += sum(object_id not in pixels for object_id in by_id)
    expected = []
    for object_id in sorted(pixels):
        record = by_id.get(object_id)
        first_y, first_x = pixels[object_id][0]
        cls = record.cls if record is not None else int(packed[first_y, first_x]) & 0x0F
        seen[("recorded " if record is not None else "unrecorded ") + ObjectClass(cls).name] += 1
        if cls != ObjectClass.VEHICLE:
            continue
        hull, visible = hulls[object_id], len(pixels[object_id])
        left, top, right, bottom = hull
        seen["single pixel"] += visible == 1
        seen["id 65535"] += object_id == 65535
        seen["left edge"] += left == 0
        seen["top edge"] += top == 0
        seen["right edge"] += right == image_size[0]
        seen["bottom edge"] += bottom == image_size[1]
        if record is not None:
            held = all(_centers_in_box(record.coarse_box, y, x) for y, x in pixels[object_id])
            seen["window holds all pixels" if held else "window misses pixels"] += 1
            expected.append(record_annotation(record, hull, visible, image_size))
        else:
            expected.append(TightAnnotation(
                source_id=0, tight_box=hull, visible_px=visible, truncation=0.0, occlusion_level=2
            ))
    return expected


def test_oracle_labels_match_plain_loop_reference(monkeypatch):
    built = []

    def spy(annotation):
        built.append(annotation)
        return from_annotation(annotation)

    monkeypatch.setattr(oracle_labels, "from_annotation", spy)
    rng = np.random.default_rng(20261018)
    seen = Counter()
    for _ in range(400):
        instance, stencil, records, image_size = random_frame(rng)
        expected = reference_annotations(instance, stencil, records, image_size, seen)
        built.clear()
        labels = oracle_labels.oracle_frame_labels(instance, stencil, records, image_size)
        # hull, visible pixel count, class decision (which ids appear) and order
        got = [(a.source_id, a.tight_box, a.visible_px) for a in built]
        assert got == [(a.source_id, a.tight_box, a.visible_px) for a in expected]
        assert labels == [from_annotation(a) for a in expected]
    for case in ("recorded VEHICLE", "recorded GROUND", "recorded DISTRACTOR", "recorded absent",
                 "unrecorded VEHICLE", "unrecorded GROUND", "unrecorded DISTRACTOR", "single pixel",
                 "id 65535", "left edge", "top edge", "right edge", "bottom edge",
                 "window holds all pixels", "window misses pixels", "no background pixel"):
        assert seen[case] >= 5, (case, seen)


class _ComparisonLog(np.ndarray):
    """Instance plane that logs the id and shape of each comparison, its
    slices included."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __eq__(self, other):
        self.log.append((int(other), self.shape))
        return np.asarray(self) == other


class _Raster:
    def __init__(self, data):
        self.height, self.width = data.shape
        self.data = data


def _logged(inst):
    logged = inst.view(_ComparisonLog)
    logged.log = []
    return logged


def _window_shape(box, width, height):
    """(rows, columns) of the pixels whose centers lie in ``box``, from plain loops."""
    left, top, right, bottom = box
    rows = [y for y in range(height) if top <= y + 0.5 <= bottom]
    cols = [x for x in range(width) if left <= x + 0.5 <= right]
    return (len(rows), len(cols)) if rows and cols else None


def _labels(inst, stencil, records):
    height, width = inst.shape
    return oracle_labels.oracle_frame_labels(Raster(inst), Raster(stencil), records, (width, height))


def test_recorded_non_vehicle_gets_no_mask():
    """A recorded non-vehicle (the ground slab) is never compared with; a
    recorded vehicle is compared only over its coarse box's window whenever
    that window holds all of its pixels, and over the whole image otherwise."""
    inst = np.ones((6, 8), dtype=np.uint16)
    inst[2:4, 3:5] = 7
    stencil = Raster(np.full(inst.shape, int(ObjectClass.VEHICLE), dtype=np.uint8))
    rng = np.random.default_rng(1)
    outcomes = Counter()
    for _ in range(60):
        logged = _logged(inst)
        records = [_record(rng, 1, ObjectClass.GROUND, 8, 6), _record(rng, 7, ObjectClass.VEHICLE, 8, 6)]
        labels = oracle_labels.oracle_frame_labels(_Raster(logged), stencil, records, (8, 6))
        assert [label.bbox for label in labels] == [(3.0, 2.0, 5.0, 4.0)]
        box = records[1].coarse_box
        window = _window_shape(box, 8, 6)
        if window is None:
            expected = [(7, (6, 8))]
        elif all(_centers_in_box(box, y, x) for y in (2, 3) for x in (3, 4)):
            expected = [(7, window)]
        else:
            expected = [(7, window), (7, (6, 8))]
        assert logged.log == expected, box
        outcomes[len(expected) == 1 and window is not None] += 1
    assert outcomes[True] >= 3 and outcomes[False] >= 3, outcomes


def test_generated_vehicles_compared_only_inside_their_windows():
    """A generated coarse box holds all of its object's pixels, so no recorded
    vehicle of a rendered frame is compared over the whole image."""
    config = ss.parse_scenario_text(ACCEPTANCE_SCENARIO)
    compared = 0
    for frame_idx in range(4):
        frame = render_scenario_frame(config, frame_idx)
        vehicles = {r.object_id for r in frame.records if r.cls == ObjectClass.VEHICLE}
        logged = _logged(frame.instance_oracle.data)
        size = (config.width, config.height)
        labels = oracle_labels.oracle_frame_labels(_Raster(logged), frame.stencil, frame.records, size)
        assert labels == oracle_labels.oracle_frame_labels(frame.instance_oracle, frame.stencil, frame.records, size)
        for object_id, shape in logged.log:
            assert object_id in vehicles
            assert shape != (config.height, config.width), (frame_idx, object_id)
        compared += len(logged.log)
    assert compared >= 10


def test_coarse_box_holding_part_of_an_object_gets_its_full_hull():
    inst = np.zeros((6, 8), dtype=np.uint16)
    inst[1:5, 2:7] = 7
    inst[3, 4] = 0
    stencil = np.full(inst.shape, int(ObjectClass.VEHICLE), dtype=np.uint8)
    rng = np.random.default_rng(3)
    record = replace(_record(rng, 7, ObjectClass.VEHICLE, 8, 6), coarse_box=(2.0, 1.0, 4.0, 3.0))
    expected = record_annotation(record, (2.0, 1.0, 7.0, 5.0), 19, (8, 6))
    assert _labels(inst, stencil, [record]) == [from_annotation(expected)]


def test_frame_without_background_pixel():
    inst = np.full((4, 5), 9, dtype=np.uint16)
    inst[1:3, 0:2] = 3
    stencil = np.full(inst.shape, int(ObjectClass.VEHICLE), dtype=np.uint8)
    rng = np.random.default_rng(5)
    record = _record(rng, 9, ObjectClass.VEHICLE, 5, 4)
    labels = _labels(inst, stencil, [record])
    assert labels == [
        from_annotation(TightAnnotation(source_id=0, tight_box=(0.0, 1.0, 2.0, 3.0), visible_px=4,
                                        truncation=0.0, occlusion_level=2)),
        from_annotation(record_annotation(record, (0.0, 0.0, 5.0, 4.0), 16, (5, 4))),
    ]


def test_one_pixel_frame():
    stencil = np.full((1, 1), int(ObjectClass.VEHICLE), dtype=np.uint8)
    orphan = TightAnnotation(source_id=0, tight_box=(0.0, 0.0, 1.0, 1.0), visible_px=1,
                             truncation=0.0, occlusion_level=2)
    assert _labels(np.full((1, 1), 5, dtype=np.uint16), stencil, []) == [from_annotation(orphan)]
    assert _labels(np.zeros((1, 1), dtype=np.uint16), stencil, []) == []
    record = _record(np.random.default_rng(7), 5, ObjectClass.VEHICLE, 1, 1)
    expected = record_annotation(record, (0.0, 0.0, 1.0, 1.0), 1, (1, 1))
    assert _labels(np.full((1, 1), 5, dtype=np.uint16), stencil, [record]) == [from_annotation(expected)]


def test_frame_sizes_in_turn_match_a_fresh_process():
    """Sort buffers reused across frame sizes give what a fresh process gives."""
    config = ss.parse_scenario_text(ACCEPTANCE_SCENARIO)
    inst = np.zeros((6, 8), dtype=np.uint16)
    inst[1:4, 2:6] = 4
    inst[3:6, 5:8] = 6
    stencil = np.full(inst.shape, int(ObjectClass.VEHICLE), dtype=np.uint8)
    small = (Raster(inst), Raster(stencil), [_record(np.random.default_rng(13), 4, ObjectClass.VEHICLE, 8, 6)], (8, 6))
    calls = []
    for frame_idx in (0, 1):
        frame = render_scenario_frame(config, frame_idx)
        calls.append((frame.instance_oracle, frame.stencil, frame.records, (config.width, config.height)))
    calls.insert(1, small)
    fresh = []
    for call in calls:
        oracle_labels._sort_buffers.cache_clear()
        fresh.append(oracle_labels.oracle_frame_labels(*call))
    assert [oracle_labels.oracle_frame_labels(*call) for call in calls] == fresh


def test_repeat_frame_allocates_no_frame_sized_buffer():
    """The second 640x480 frame reuses the first one's sort buffers; no
    full-image mask or copy is built for a recorded vehicle."""
    config = ss.parse_scenario_text(ACCEPTANCE_SCENARIO)
    frame = render_scenario_frame(config, 0)
    args = (frame.instance_oracle, frame.stencil, frame.records, (config.width, config.height))
    oracle_labels.oracle_frame_labels(*args)
    tracemalloc.start()
    try:
        oracle_labels.oracle_frame_labels(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
