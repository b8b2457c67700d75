"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen. The end-to-end dataset (200 frames, 640x480) is built once per
session and shared by the criteria that need it.
"""

import hashlib
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_SCENARIO, oracle_hulls, render_scenario_frame
from oracles import brute_ap_11pt, brute_force_depth, brute_match_frame, ray_cast_depth
from test_cli import dir_digest

from matrixgt import annotator as an
from matrixgt import cli
from matrixgt import dataset as ds
from matrixgt import dataset_stats as stats
from matrixgt import evaluator as ev
from matrixgt import kitti_labels as kl
from matrixgt import scene_sim as ss
from matrixgt.kitti_labels import Difficulty
from matrixgt.raster_codec import Raster, encode_log_depth, linearize_depth, stencil_class_ids
from matrixgt.rng import Xorshift64Star


def _verdict(num, description, body):
    try:
        detail = body() or ""
    except BaseException:
        print(f"ACCEPTANCE {num} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{description}]: PASS {detail}".rstrip())


@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    """Full single-threaded pipeline on the 200-frame scenario."""
    root = tmp_path_factory.mktemp("e2e")
    scenario = root / "scenario.txt"
    scenario.write_text(ACCEPTANCE_SCENARIO)
    dataset = root / "dataset"
    # the names that the benchmark's per-frame digests hash (see test_outputs_match_the_benchmark_pins)
    det = root / "det"
    gt = root / "gt"
    timings = {}
    start = time.perf_counter()
    assert cli.main(["generate", "--scenario", str(scenario), "--out", str(dataset), "--workers", "1"]) == 0
    timings["generate"] = time.perf_counter() - start
    step = time.perf_counter()
    assert cli.main(["annotate", "--in", str(dataset), "--out", str(det), "--workers", "1"]) == 0
    timings["annotate"] = time.perf_counter() - step
    step = time.perf_counter()
    assert cli.main(["oracle-labels", "--in", str(dataset), "--out", str(gt)]) == 0
    timings["oracle"] = time.perf_counter() - step
    step = time.perf_counter()
    report = ev.evaluate(det, gt, iou_thr=0.7)
    timings["evaluate"] = time.perf_counter() - step
    timings["total"] = time.perf_counter() - start
    return {"dataset": dataset, "det": det, "gt": gt, "report": report, "timings": timings}


def test_criterion_1_codec_exactness(codec):
    def body():
        start = time.perf_counter()
        z = np.geomspace(codec.near_m, codec.far_m, 10_000)
        round_trip = linearize_depth(encode_log_depth(z, codec), codec)
        worst = float(np.max(np.abs(round_trip - z) / z))
        assert worst <= 1e-5, f"depth round trip relative error {worst}"
        # through float32 storage the error stays inside the budget too
        stored = encode_log_depth(z, codec).astype(np.float32).astype(np.float64)
        worst_f32 = float(np.max(np.abs(linearize_depth(stored, codec) - z) / z))
        assert worst_f32 <= 1e-5, f"f32 round trip relative error {worst_f32}"
        every_byte = np.arange(256, dtype=np.uint8).reshape(16, 16)
        classes = stencil_class_ids(Raster(every_byte))
        assert np.array_equal(classes, every_byte & 0x0F), "stencil class decode"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
        return f"(max rel err {worst:.2e}, f32 {worst_f32:.2e}, {elapsed * 1e3:.0f} ms)"

    _verdict(1, "codec exactness", body)


def test_criterion_2_rasterizer_oracles():
    def body():
        start = time.perf_counter()
        config = ds.ScenarioConfig(
            seed=424242, frames=20, width=64, height=64, fx=70.0, fy=70.0, cx=32.0, cy=32.0,
            vehicle_count_min=2, vehicle_count_max=4, distractor_count_min=0, distractor_count_max=1,
            vehicle_length_min=1.5, vehicle_length_max=3.5, vehicle_width_min=1.2,
            vehicle_width_max=2.0, vehicle_height_min=1.0, vehicle_height_max=2.0,
            region_x_min=-6.0, region_x_max=6.0, region_z_min=5.0, region_z_max=20.0,
            emit_color=False,
        )
        camera = config.camera()
        codec = camera.depth_params
        worst_ray = 0.0
        for frame in range(config.frames):
            scene = ss.generate_scene(config, frame)
            bundle = render_scenario_frame(config, frame)
            # same-arithmetic-path brute force: bit-exact
            zref = brute_force_depth(camera, scene)
            encoded = np.ones(zref.shape)
            covered = np.isfinite(zref)
            encoded[covered] = encode_log_depth(zref[covered], codec)
            assert np.array_equal(bundle.depth.data, encoded.astype(np.float32)), f"frame {frame}"
            # independent geometric oracle: within 1e-4 m
            zray = ray_cast_depth(camera, scene)
            zray = np.clip(np.where(np.isfinite(zray), zray, codec.far_m), codec.near_m, codec.far_m)
            zlin = linearize_depth(bundle.depth.data.astype(np.float64), codec)
            gap = float(np.max(np.abs(zlin - zray)))
            worst_ray = max(worst_ray, gap)
            assert gap <= 1e-4, f"frame {frame}: ray oracle gap {gap}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
        return f"(20 scenes exact, ray oracle max gap {worst_ray:.2e} m, {elapsed:.2f}s)"

    _verdict(2, "rasterizer z-buffer oracle", body)


def test_criterion_3_occlusion_disambiguation(occlusion_scene):
    def body():
        camera, scene = occlusion_scene
        depths = sorted(o.center[2] for o in scene if o.cls is ds.ObjectClass.VEHICLE)
        assert depths == [8.0, 16.0]
        bundle = ss.render_frame(camera, scene, 0, inflate_pct=0.10, emit_color=False)
        mask = an.vehicle_mask(bundle.stencil)
        merged = an.connected_components(mask)
        assert len(merged) == 1, f"expected the merged-contour failure, got {len(merged)} components"
        annotations = an.annotate_frame(
            bundle.stencil, bundle.depth, bundle.records, an.RefinementParams(rho=0.10)
        )
        assert len(annotations) == 2, f"expected exactly 2 boxes, got {len(annotations)}"
        assert sorted(a.source_id for a in annotations) == [2, 3]
        hulls = oracle_hulls(bundle.instance_oracle)
        overlaps = {a.source_id: ev.iou(a.tight_box, hulls[a.source_id]) for a in annotations}
        for source_id, value in overlaps.items():
            assert value >= 0.9, f"object {source_id}: IoU {value:.3f}"
        return f"(IoU {overlaps[2]:.3f} / {overlaps[3]:.3f}, 1 merged component)"

    _verdict(3, "occlusion disambiguation", body)


def test_criterion_4_end_to_end_oracle_agreement(e2e):
    def body():
        report = e2e["report"]
        for level in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD):
            result = report.levels[level]
            assert result.gt_count > 0, f"{level.label}: no required ground truth"
            assert result.ap is not None and result.ap >= 0.95, (
                f"{level.label}: AP {result.ap} (tp={result.tp} fp={result.fp} fn={result.fn})"
            )
        total = e2e["timings"]["total"]
        assert total < 120.0, f"single-threaded runtime {total:.1f}s"
        aps = " ".join(
            f"{lvl.label}={report.levels[lvl].ap:.4f}"
            for lvl in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD)
        )
        return f"({aps}, {total:.1f}s)"

    _verdict(4, "end-to-end oracle agreement", body)


def test_criterion_5_evaluator_oracle_equivalence(e2e, tmp_path):
    def body():
        rng = random.Random(555)
        worst = 0.0
        for _ in range(500):
            pooled = {level: [] for level in ev.LEVELS}
            pooled_rows = {level: [] for level in ev.LEVELS}
            required = dict.fromkeys(ev.LEVELS, 0)
            for _ in range(rng.randint(1, 5)):
                gts = []
                for _ in range(rng.randint(0, 6)):
                    left, top = rng.uniform(0, 80), rng.uniform(0, 80)
                    gts.append(
                        ev.GroundTruth(
                            (left, top, left + rng.uniform(5, 30), top + rng.uniform(5, 30)),
                            Difficulty(rng.randint(0, 3)),
                            dontcare=rng.random() < 0.15,
                        )
                    )
                dets = []
                for _ in range(rng.randint(0, 6)):
                    if gts and rng.random() < 0.7:
                        seed_box = rng.choice(gts).box
                        jitter = rng.uniform(-3, 3)
                        box = (seed_box[0] + jitter, seed_box[1], seed_box[2] + jitter, seed_box[3])
                    else:
                        left, top = rng.uniform(0, 80), rng.uniform(0, 80)
                        box = (left, top, left + rng.uniform(5, 30), top + rng.uniform(5, 30))
                    dets.append(ev.Detection(box, round(rng.random(), 2)))
                for level, outcomes in ev.match_frame(dets, gts, 0.7).items():
                    required[level] += sum(1 for g in gts if g.required(level))
                    reference = brute_match_frame(
                        [{"box": d.box, "score": d.score} for d in dets],
                        [{"box": g.box, "difficulty": int(g.difficulty), "dontcare": g.dontcare} for g in gts],
                        0.7,
                        int(level),
                    )
                    assert [o.value for _, o in outcomes] == [o for _, o in reference]
                    pooled[level].extend(outcomes)
                    for d, o in outcomes:
                        if o is not ev.Outcome.IGNORED:
                            pooled_rows[level].append((d.score, d.box[0], d.box[1], o is ev.Outcome.TP))
            for level in ev.LEVELS:
                n = required[level]
                mine = ev.average_precision(ev.precision_recall_points(pooled[level], n), n, "11pt")
                reference_ap = brute_ap_11pt(pooled_rows[level], n)
                if n == 0:
                    assert mine is None and reference_ap is None
                else:
                    gap = abs(mine - reference_ap)
                    worst = max(worst, gap)
                    assert gap <= 1e-9, f"AP disagreement {gap}"
        # exact self-evaluation on the real pipeline labels
        report = ev.evaluate(e2e["det"], e2e["det"], iou_thr=0.7)
        for level, result in report.levels.items():
            if result.gt_count:
                assert result.ap == 1.0, f"self-eval {level.label}: {result.ap}"
        return f"(500 instances at 3 levels, worst AP gap {worst:.1e}, self-eval exact 1.0)"

    _verdict(5, "evaluator oracle equivalence", body)


def test_criterion_6_difficulty_table():
    def body():
        cases = [
            (40.0, 0.00, 0, Difficulty.EASY),
            (30.0, 0.20, 1, Difficulty.MODERATE),
            (26.0, 0.45, 2, Difficulty.HARD),
            (20.0, 0.00, 0, Difficulty.UNKNOWN),
        ]
        for height, truncated, occluded, expected in cases:
            label = kl.KittiLabel(
                type="Car", truncated=truncated, occluded=occluded, alpha=0.0,
                bbox=(100.0, 100.0, 140.0, 100.0 + height),
                dimensions=(1.5, 1.8, 4.2), location=(0.0, 1.6, 20.0), rotation_y=0.0,
            )
            got = kl.classify_difficulty(label)
            assert got == expected, f"h={height} trunc={truncated} occ={occluded}: {got}"
        return "(4/4 rows)"

    _verdict(6, "difficulty table", body)


def test_criterion_7_determinism(tmp_path):
    def body():
        scenario_text = (
            "seed=90210\nframes=12\nwidth=320\nheight=240\n"
            "fx=350.0\nfy=350.0\ncx=160.0\ncy=120.0\n"
            "vehicle_count_min=2\nvehicle_count_max=5\n"
            "distractor_count_min=0\ndistractor_count_max=2\n"
            "region_x_min=-10.0\nregion_x_max=10.0\n"
            "region_z_min=12.0\nregion_z_max=40.0\n"
            "min_depth_gap_m=6.0\nemit_color=1\n"
        )
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(scenario_text)
        digests = {}
        for tag, workers in (("a", "1"), ("b", "1"), ("w8", "8")):
            dataset = tmp_path / f"dataset_{tag}"
            labels = tmp_path / f"labels_{tag}"
            assert cli.main(["generate", "--scenario", str(scenario), "--out", str(dataset),
                             "--workers", workers]) == 0
            assert cli.main(["annotate", "--in", str(dataset), "--out", str(labels),
                             "--workers", workers]) == 0
            digests[tag] = (dir_digest(dataset), dir_digest(labels))
        assert digests["a"] == digests["b"], "re-run changed bytes"
        assert digests["a"] == digests["w8"], "worker count changed bytes"
        return f"(dataset {digests['a'][0][:12]}…, labels {digests['a'][1][:12]}…)"

    _verdict(7, "determinism across runs and worker counts", body)


def test_criterion_8_statistics_conservation(e2e, tmp_path):
    def body():
        det = e2e["det"]
        car_boxes = sum(
            1 for labels in kl.read_label_dir(det).values() for l in labels if l.type == "Car"
        )
        heatmap_total = sum(map(sum, stats.centroid_heatmap(kl.read_label_dir(det), (640, 480))))
        assert heatmap_total == car_boxes, f"heatmap total {heatmap_total} != {car_boxes}"
        histogram = stats.detections_histogram(kl.read_label_dir(det))
        assert sum(histogram.values()) == 200
        # synthetic uniform centroids: multinomial 3-sigma bound per 4x4 cell
        rng = Xorshift64Star(20260809)
        synth = tmp_path / "synthetic_labels"
        synth.mkdir()
        n = 10_000
        per_frame = 100
        for frame in range(n // per_frame):
            labels = []
            for _ in range(per_frame):
                cx, cy = rng.uniform(0.0, 640.0), rng.uniform(0.0, 480.0)
                labels.append(
                    kl.KittiLabel(
                        type="Car", truncated=0.0, occluded=0, alpha=0.0,
                        bbox=(cx - 4.0, cy - 4.0, cx + 4.0, cy + 4.0),
                        dimensions=(1.5, 1.8, 4.2), location=(0.0, 1.6, 20.0), rotation_y=0.0,
                    )
                )
            kl.write_labels(labels, kl.label_path(synth, frame))
        counts = np.array(stats.centroid_heatmap(kl.read_label_dir(synth), (640, 480), grid=(4, 4)))
        assert counts.sum() == n
        expected = n / 16.0
        sigma = (n * (1 / 16) * (15 / 16)) ** 0.5
        deviation = float(np.max(np.abs(counts - expected)))
        assert deviation <= 3.0 * sigma, f"worst cell deviation {deviation} > 3 sigma {3 * sigma:.1f}"
        return f"(totals {car_boxes}/{200}, worst cell dev {deviation:.0f} <= {3 * sigma:.0f})"

    _verdict(8, "statistics conservation", body)


def _benchmark_module(name):
    """``perfbench/<name>.py``, loaded from its file so that the pins, the
    digest and the workloads have one copy each."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _assert_frames_match_the_pins(run, pins_file, frames):
    """Every frame's dataset files and both label files of ``run`` carry the
    bytes that ``perfbench/pins/<pins_file>`` pins for its first ``frames``
    frames. The digest hashes each file under its directory's name, hence
    the directory names ``dataset``, ``det`` and ``gt``."""
    checks = _benchmark_module("checks")
    pins = checks.load_pins(Path(checks.__file__).parent / "pins" / pins_file)[:frames]
    assert len(pins) == frames
    digests = checks.frame_digests(run["dataset"], run["det"], run["gt"], frames)
    differing = [frame for frame, (got, want) in enumerate(zip(digests, pins)) if got != want]
    assert not differing, (
        f"frame {differing[0]} is the first of {len(differing)} frames whose dataset or label "
        f"files differ from perfbench/pins/{pins_file}"
    )


def test_outputs_match_the_benchmark_pins(e2e):
    """All 200 acceptance frames carry the bytes that the benchmark pins, so a
    change of output bytes fails tier-1."""
    _assert_frames_match_the_pins(e2e, "acceptance.json", 200)


@pytest.fixture(scope="session")
def crowd_prefix(tmp_path_factory):
    """The first 20 frames of the benchmark's crowd workload at its default
    seed, through the CLI at two workers, so that the pool's forked workers
    render them."""
    root = tmp_path_factory.mktemp("crowd")
    keys = {"seed": "20260809", **_benchmark_module("workloads").CROWD_KEYS, "frames": "20"}
    scenario = root / "scenario.txt"
    scenario.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
    run = {name: root / name for name in ("dataset", "det", "gt")}
    for argv in (["generate", "--scenario", str(scenario), "--out", str(run["dataset"])],
                 ["annotate", "--in", str(run["dataset"]), "--out", str(run["det"])],
                 ["oracle-labels", "--in", str(run["dataset"]), "--out", str(run["gt"])]):
        assert cli.main([*argv, "--workers", "2"]) == 0
    return run


def test_crowd_prefix_matches_the_benchmark_pins(crowd_prefix):
    _assert_frames_match_the_pins(crowd_prefix, "crowd-qvga.json", 20)


# evaluate's and stats' outputs, as the benchmark runs them: (AP method, image size) per run
_REPORT_RUNS = {"acceptance": ("11pt", "640x480"), "crowd-prefix": ("all", "320x240")}
REPORT_PINS = Path(__file__).parent / "report_pins.json"


def test_report_and_stats_bytes_match_their_pins(e2e, crowd_prefix, tmp_path):
    """The sha256 of ``evaluate``'s two reports and of ``stats``' four files,
    for the acceptance run and the crowd prefix, are pinned in
    ``report_pins.json``. They change only with an intended change of bytes,
    together with the benchmark's frame pins."""
    pins = json.loads(REPORT_PINS.read_text())
    for name, run in (("acceptance", e2e), ("crowd-prefix", crowd_prefix)):
        ap_method, image = _REPORT_RUNS[name]
        report, stats_dir = tmp_path / name / "report", tmp_path / name / "stats"
        assert cli.main(["evaluate", "--det", str(run["det"]), "--gt", str(run["gt"]), "--ap", ap_method,
                         "--out", str(report)]) == 0
        assert cli.main(["stats", "--labels", str(run["det"]), "--out", str(stats_dir), "--image", image]) == 0
        got = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for directory in (report, stats_dir) for path in sorted(directory.iterdir())}
        assert sorted(got) == sorted(pins[name]), name
        differing = [file for file, digest in pins[name].items() if got[file] != digest]
        assert not differing, (
            f"{name}: {differing[0]} is the first of {len(differing)} files that differ from {REPORT_PINS.name}"
        )
