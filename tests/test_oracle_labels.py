"""Oracle labels against an independent reference built from plain loops.

The reference finds each object's pixels by visiting every pixel in row-major
order, takes hulls from ``conftest.oracle_hulls`` and decides each id's class
from its record, or for an unrecorded id from the stencil class at its first
pixel. Frames are random: ids up to 65535, scattered and rectangular objects,
single pixels, objects on every image border, occluded ids that vanish, and
records of every class with and without pixels.
"""

from collections import Counter

import numpy as np

from conftest import oracle_hulls

from matrixgt import oracle_labels
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


def reference_annotations(instance, stencil, records, image_size, seen):
    """Expected annotations of the vehicle ids, ascending, from plain loops;
    ``seen`` counts the cases the frame covers."""
    inst, packed = instance.data, stencil.data
    pixels = {}
    for y in range(inst.shape[0]):
        for x in range(inst.shape[1]):
            if inst[y, x]:
                pixels.setdefault(int(inst[y, x]), []).append((y, x))
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
                 "id 65535", "left edge", "top edge", "right edge", "bottom edge"):
        assert seen[case] >= 5, (case, seen)


class _ComparisonLog(np.ndarray):
    """Instance plane that logs each id it is compared with."""

    def __eq__(self, other):
        self.log.append(int(other))
        return np.asarray(self) == other


class _Raster:
    def __init__(self, data):
        self.height, self.width = data.shape
        self.data = data


def test_recorded_non_vehicle_gets_no_mask():
    """A recorded non-vehicle (the ground slab) is skipped before any mask is built."""
    inst = np.ones((6, 8), dtype=np.uint16)
    inst[2:4, 3:5] = 7
    logged = inst.view(_ComparisonLog)
    logged.log = []
    stencil = Raster(np.full(inst.shape, int(ObjectClass.VEHICLE), dtype=np.uint8))
    rng = np.random.default_rng(1)
    records = [_record(rng, 1, ObjectClass.GROUND, 8, 6), _record(rng, 7, ObjectClass.VEHICLE, 8, 6)]
    labels = oracle_labels.oracle_frame_labels(_Raster(logged), stencil, records, (8, 6))
    assert [label.bbox for label in labels] == [(3.0, 2.0, 5.0, 4.0)]
    assert logged.log == [7]

