import numpy as np
import pytest

from conftest import make_ground, make_vehicle, oracle_hulls

from matrixgt import annotator as an
from matrixgt import scene_sim as ss
from matrixgt.errors import ConfigError
from matrixgt.evaluator import iou
from matrixgt.kitti_labels import format_label, from_annotation
from matrixgt.oracle_labels import oracle_frame_labels
from matrixgt.raster_codec import Raster, encode_log_depth


def encoded_depth_raster(depths_m, codec):
    return Raster(encode_log_depth(np.asarray(depths_m, dtype=np.float64), codec).astype(np.float32))


def hull(pixels, width):
    return an.pixel_hull(*np.divmod(pixels, width))


def window_pixels(window, kept):
    """Image (row, column) pairs of a window-relative ``kept`` mask."""
    x0, y0, _, _ = window
    ys, xs = np.nonzero(kept)
    return set(zip((ys + y0).tolist(), (xs + x0).tolist()))


class TestVehicleMask:
    def test_all_background(self):
        mask = an.vehicle_mask(Raster(np.zeros((4, 4), dtype=np.uint8)))
        assert not mask.any()

    def test_single_vehicle_pixel(self):
        stencil = np.zeros((3, 3), dtype=np.uint8)
        stencil[1, 2] = 0x02
        mask = an.vehicle_mask(Raster(stencil))
        assert mask.sum() == 1 and mask[1, 2]

    def test_flags_ignored(self):
        stencil = np.array([[0x52, 0x12, 0x03, 0x01]], dtype=np.uint8)
        assert an.vehicle_mask(Raster(stencil)).tolist() == [[True, True, False, False]]


class TestConnectedComponents:
    def test_touching_rectangles_merge(self):
        mask = np.zeros((8, 12), dtype=bool)
        mask[2:5, 1:5] = True
        mask[2:5, 5:9] = True  # shares an edge with the first block
        assert len(an.connected_components(mask)) == 1

    def test_separated_rectangles(self):
        mask = np.zeros((8, 12), dtype=bool)
        mask[2:5, 1:5] = True
        mask[2:5, 7:11] = True
        comps = an.connected_components(mask)
        assert len(comps) == 2
        assert hull(comps[0], 12)[0] < hull(comps[1], 12)[0]

    def test_full_frame(self):
        mask = np.ones((6, 7), dtype=bool)
        comps = an.connected_components(mask)
        assert len(comps) == 1
        assert len(comps[0]) == 42
        assert hull(comps[0], 7) == (0.0, 0.0, 7.0, 6.0)

    def test_diagonal_is_connected(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        assert len(an.connected_components(mask)) == 1

    def test_diagonal_free_gap_separates(self):
        # one empty column between blocks: no 8-neighbour contact
        mask = np.zeros((4, 7), dtype=bool)
        mask[1:3, 0:3] = True
        mask[1:3, 4:7] = True
        assert len(an.connected_components(mask)) == 2

    def test_ordering_by_top_then_left(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[6:8, 1:3] = True
        mask[1:3, 5:8] = True
        mask[1:3, 0:2] = True
        boxes = [hull(c, 10) for c in an.connected_components(mask)]
        assert boxes == sorted(boxes, key=lambda b: (b[1], b[0]))

    def test_shared_corner_keeps_first_pixel_order(self):
        # both hulls start at (top 0, left 0); the component holding pixel 0
        # comes first although it has more pixels and the smaller hull
        first = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
        second = [(0, 4), (1, 4), (2, 4), (3, 3), (4, 2), (5, 1), (5, 0)]
        mask = np.zeros((6, 7), dtype=bool)
        for y, x in first + second:
            mask[y, x] = True
        comps = an.connected_components(mask)
        assert [hull(c, 7)[:2] for c in comps] == [(0.0, 0.0), (0.0, 0.0)]
        assert [c.tolist() for c in comps] == [
            sorted(y * 7 + x for y, x in first),
            sorted(y * 7 + x for y, x in second),
        ]

    def test_components_partition_the_mask(self):
        rng = np.random.default_rng(7)
        mask = rng.random((20, 30)) < 0.35
        comps = an.connected_components(mask)
        union = np.zeros(mask.size, dtype=bool)
        total = 0
        for comp in comps:
            assert np.all(np.diff(comp) > 0)  # ascending, no repeats
            assert not union[comp].any()  # disjoint
            union[comp] = True
            total += len(comp)
        assert np.array_equal(union.reshape(mask.shape), mask)
        assert total == mask.sum()

    def test_empty_mask(self):
        assert an.connected_components(np.zeros((3, 3), dtype=bool)) == []

    def test_partition_matches_scipy_label(self):
        # test-only cross-check; scipy is not a dependency of the package
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(11)
        for trial in range(40):
            height, width = rng.integers(1, 40, size=2)
            mask = rng.random((height, width)) < rng.uniform(0.1, 0.7)
            labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
            expected = {frozenset(np.flatnonzero(labels == k)) for k in range(1, count + 1)}
            comps = an.connected_components(mask)
            got = {frozenset(c.tolist()) for c in comps}
            assert len(comps) == count, trial
            assert got == expected, trial

    def test_order_matches_scipy_reference(self):
        # scipy numbers labels in first-pixel order; a stable sort by the
        # hull's (top, left) corner gives the documented output order
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(20260809)
        for trial in range(1000):
            height, width = rng.integers(1, 33, size=2)
            mask = rng.random((height, width)) < rng.uniform(0.02, 0.8)
            labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
            flat = labels.ravel()
            expected = [np.flatnonzero(flat == k) for k in range(1, count + 1)]
            expected.sort(key=lambda c: (c[0] // width, (c % width).min()))
            got = an.connected_components(mask)
            assert len(got) == count, trial
            for g, e in zip(got, expected):
                assert np.array_equal(g, e), trial


class TestTruncationOcclusion:
    def test_truncation_examples(self):
        size = (640, 480)
        assert an.estimate_truncation((10, 10, 110, 60), size) == 0.0
        assert an.estimate_truncation((590, 10, 690, 60), size) == pytest.approx(0.5)
        assert an.estimate_truncation((700, 10, 800, 60), size) == 1.0

    def test_truncation_zero_area_rejected(self):
        with pytest.raises(ValueError):
            an.estimate_truncation((5.0, 5.0, 5.0, 10.0), (640, 480))

    def test_occlusion_levels(self):
        box = (0.0, 0.0, 10.0, 10.0)  # clipped area 100
        size = (640, 480)
        assert an.estimate_occlusion(100, box, size) == 0
        assert an.estimate_occlusion(80, box, size) == 0
        assert an.estimate_occlusion(60, box, size) == 1
        assert an.estimate_occlusion(50, box, size) == 1
        assert an.estimate_occlusion(20, box, size) == 2

    def test_occlusion_empty_clipped_box(self):
        assert an.estimate_occlusion(10, (700.0, 10.0, 750.0, 60.0), (640, 480)) == 2


class TestRefineTightBox:
    def test_isolated_vehicle_exact_hull(self, small_camera):
        scene = [make_ground(z_far=60.0), make_vehicle(2, x=0.5, z=30.0, yaw=0.3)]
        bundle = ss.render_frame(small_camera, scene, 0, inflate_pct=0.10, emit_color=False)
        record = [r for r in bundle.records if r.object_id == 2][0]
        mask = an.vehicle_mask(bundle.stencil)
        refined = an.refine_tight_box(record, mask, bundle.depth)
        assert refined is not None
        annotation, window, kept = refined
        assert annotation.tight_box == oracle_hulls(bundle.instance_oracle)[2]
        assert len(window_pixels(window, kept)) == annotation.visible_px
        assert annotation.truncation == 0.0
        # occlusion estimate matches the shared formula (oracle labels use it too)
        assert annotation.occlusion_level == an.estimate_occlusion(
            annotation.visible_px, record.coarse_box, (320, 240)
        )
        assert annotation.size == record.size

    def test_occlusion_scene_separates_merged_component(self, occlusion_scene):
        camera, scene = occlusion_scene
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        mask = an.vehicle_mask(bundle.stencil)
        assert len(an.connected_components(mask)) == 1  # the merged-contour failure
        hulls = oracle_hulls(bundle.instance_oracle)
        annotations = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records)
        assert sorted(a.source_id for a in annotations) == [2, 3]
        for annotation in annotations:
            assert iou(annotation.tight_box, hulls[annotation.source_id]) >= 0.9

    def test_record_without_vehicle_pixels_rejected(self, small_camera, codec):
        record = ss.EngineRecord(5, ss.ObjectClass.VEHICLE, (10, 10, 40, 40), 12.0,
                                 (4.0, 1.8, 1.5), 0.0, (0.0, 0.5, 12.0))
        mask = np.zeros((240, 320), dtype=bool)
        depth = encoded_depth_raster(np.full((240, 320), 12.0), codec)
        assert an.refine_tight_box(record, mask, depth) is None

    def test_survivor_below_min_component_rejected(self, codec, monkeypatch):
        mask = np.zeros((20, 20), dtype=bool)
        mask[5:7, 5:7] = True  # 4 px
        depth = encoded_depth_raster(np.full((20, 20), 10.0), codec)
        record = ss.EngineRecord(1, ss.ObjectClass.VEHICLE, (3, 3, 10, 10), 10.0,
                                 (1.0, 1.0, 1.0), 0.0, (0.0, 0.0, 10.0))
        assert an.refine_tight_box(record, mask, depth) is None  # 4 px < MIN_COMPONENT_PX
        monkeypatch.setattr(an, "MIN_COMPONENT_PX", 4)
        refined = an.refine_tight_box(record, mask, depth)
        assert refined is not None and refined[0].visible_px == 4

    def test_non_vehicle_record_rejected(self, codec):
        record = ss.EngineRecord(1, ss.ObjectClass.DISTRACTOR, (0, 0, 5, 5), 8.0,
                                 (1.0, 1.0, 1.0), 0.0, (0.0, 0.0, 8.0))
        depth = encoded_depth_raster(np.full((10, 10), 8.0), codec)
        with pytest.raises(ValueError):
            an.refine_tight_box(record, np.ones((10, 10), dtype=bool), depth)

    def test_depth_band_excludes_far_cluster(self, codec):
        # two depth clusters inside one box: 10 m dominates (seed mean lands in
        # its band), the 14 m intruder columns are cut
        depths = np.full((10, 20), 10.0)
        depths[:, 16:] = 14.0
        mask = np.ones((10, 20), dtype=bool)
        depth = encoded_depth_raster(depths, codec)
        record = ss.EngineRecord(1, ss.ObjectClass.VEHICLE, (0, 0, 20, 10), 10.0,
                                 (4.0, 1.8, 1.5), 0.0, (0.0, 0.5, 10.0))
        refined = an.refine_tight_box(record, mask, depth, an.RefinementParams(rho=0.10))
        assert refined is not None
        assert refined[0].tight_box == (0.0, 0.0, 16.0, 10.0)

    def test_rho_monotone_at_first_iteration(self, occlusion_scene, monkeypatch):
        monkeypatch.setattr(an, "BAND_ITERATIONS", 1)
        monkeypatch.setattr(an, "MIN_COMPONENT_PX", 1)
        camera, scene = occlusion_scene
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        mask = an.vehicle_mask(bundle.stencil)
        record = [r for r in bundle.records if r.object_id == 3][0]
        previous = None
        for rho in (0.02, 0.05, 0.10, 0.20, 0.40):
            refined = an.refine_tight_box(record, mask, bundle.depth, an.RefinementParams(rho=rho))
            kept = set()
            if refined is not None:
                kept = window_pixels(*refined[1:])
            if previous is not None:
                assert previous <= kept
            previous = kept

    def test_tightness_inside_dilated_box(self, occlusion_scene):
        camera, scene = occlusion_scene
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        mask = an.vehicle_mask(bundle.stencil)
        margin = an.COARSE_BOX_MARGIN_PX
        for record in bundle.records:
            if record.cls is not ss.ObjectClass.VEHICLE:
                continue
            refined = an.refine_tight_box(record, mask, bundle.depth)
            if refined is None:
                continue
            annotation, window, kept = refined
            left, top, right, bottom = record.coarse_box
            for y, x in window_pixels(window, kept):
                assert y + 0.5 >= top - margin and y + 0.5 <= bottom + margin
                assert x + 0.5 >= left - margin and x + 0.5 <= right + margin
            tb = annotation.tight_box
            assert tb[0] >= 0 and tb[1] >= 0 and tb[2] <= camera.width and tb[3] <= camera.height

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            an.RefinementParams(rho=0.0)
        with pytest.raises(ConfigError):
            an.RefinementParams(rho=1.5)


class TestRecoverOrphans:
    def test_unregistered_vehicle_becomes_orphan(self, small_camera):
        # vehicle 2 sits dead-frontal so only its constant-depth face is
        # visible and its refinement claims every own pixel
        scene = [make_ground(z_far=60.0), make_vehicle(2, x=0.0, z=10.0), make_vehicle(3, x=8.0, z=25.0)]
        bundle = ss.render_frame(small_camera, scene, 0, record_max_range_m=15.0, emit_color=False)
        assert [r.object_id for r in bundle.records if r.cls is ss.ObjectClass.VEHICLE] == [2]
        annotations = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records)
        orphans = [a for a in annotations if a.source_id == 0]
        assert len(orphans) == 1
        hull = oracle_hulls(bundle.instance_oracle)[3]
        assert orphans[0].tight_box == hull
        assert orphans[0].occlusion_level == 2
        assert orphans[0].size is None and orphans[0].yaw is None
        # the oracle labels unrecorded vehicle 3 through the same orphan builder
        oracle = oracle_frame_labels(bundle.instance_oracle, bundle.stencil, bundle.records, (320, 240))
        assert [label.bbox for label in oracle] == [oracle_hulls(bundle.instance_oracle)[2], hull]
        assert format_label(from_annotation(orphans[0])) == format_label(oracle[1])

    def test_all_pixels_claimed_no_orphans(self, small_camera):
        scene = [make_ground(z_far=60.0), make_vehicle(2, x=0.0, z=12.0)]
        bundle = ss.render_frame(small_camera, scene, 0, inflate_pct=0.1, emit_color=False)
        annotations = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records)
        assert [a.source_id for a in annotations] == [2]

    def test_speck_dropped(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[3:4, 3:6] = True  # 3 px < MIN_COMPONENT_PX
        assert an.recover_orphans(mask) == []


class TestAnnotateFrame:
    def test_zero_vehicles(self, small_camera):
        scene = [make_ground(z_far=40.0)]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        assert an.annotate_frame(bundle.stencil, bundle.depth, bundle.records) == []

    def test_five_nonoverlapping_vehicles(self, codec):
        camera = ss.CameraModel(fx=420.0, fy=420.0, cx=320.0, cy=240.0, width=640, height=480,
                                depth_params=codec)
        scene = [make_ground(z_far=80.0)]
        for k, x in enumerate((-12.0, -6.0, 0.0, 6.0, 12.0)):
            scene.append(make_vehicle(2 + k, x=x, z=26.0 + 3.0 * k, yaw=0.15 * k))
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        annotations = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records)
        assert [a.source_id for a in annotations] == [2, 3, 4, 5, 6]
        hulls = oracle_hulls(bundle.instance_oracle)
        for annotation in annotations:
            assert iou(annotation.tight_box, hulls[annotation.source_id]) >= 0.98

    def test_coverage_partition(self, occlusion_scene):
        camera, scene = occlusion_scene
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        mask = an.vehicle_mask(bundle.stencil)
        params = an.RefinementParams()
        annotations = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records, params)
        claimed = np.zeros_like(mask)
        refined = []
        for record in sorted(bundle.records, key=lambda r: r.object_id):
            if record.cls is not ss.ObjectClass.VEHICLE:
                continue
            result = an.refine_tight_box(record, mask, bundle.depth, params)
            if result is not None:
                annotation, (x0, y0, x1, y1), kept = result
                assert not (claimed[y0:y1, x0:x1] & kept).any()  # exactly-one ownership
                claimed[y0:y1, x0:x1] |= kept
                refined.append(annotation)
        assert [a for a in annotations if a.source_id != 0] == refined
        # each orphan owns one whole component of the unclaimed pixels
        orphans = [c for c in an.connected_components(mask & ~claimed) if len(c) >= an.MIN_COMPONENT_PX]
        assert [(a.visible_px, a.tight_box) for a in annotations if a.source_id == 0] == [
            (len(c), hull(c, mask.shape[1])) for c in orphans
        ]
        for pixels in orphans:
            claimed.flat[pixels] = True
        specks = mask & ~claimed
        # leftover pixels must all sit in dropped specks
        for comp in an.connected_components(specks):
            assert len(comp) < an.MIN_COMPONENT_PX

    def test_deterministic_order_and_output(self, occlusion_scene):
        camera, scene = occlusion_scene
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        a = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records)
        b = an.annotate_frame(bundle.stencil, bundle.depth, bundle.records)
        assert a == b
        sources = [x.source_id for x in a if x.source_id > 0]
        assert sources == sorted(sources)
