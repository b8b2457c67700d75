"""In-process replay of the five CLI stages, with spans around each layer call.

Each stage follows the body of the matching ``cli.cmd_*`` function and calls
the same public module functions in the same order, so its output files must
be byte-identical to the CLI run's (the benchmark checks this). Per-frame
tasks go through a process pool exactly when and how ``cli._run_tasks`` uses
one; a worker hands its spans back with the task result.

Probes are extra calls that time or count a layer which the stage reaches
only from inside another layer: full-frame depth linearization and component
labelling inside ``annotate_frame``, triangles inside ``render_frame``, and
label directory reads inside ``evaluate``. They are child spans of the frame
or stage they belong to, so they never add to another layer's self time;
their cost is part of ``trace.overhead_frac``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from matrixgt import annotator, cli, dataset_stats, evaluator, kitti_labels, scene_sim
from matrixgt.raster_codec import DepthCodecParams, linearize_depth

from tracing import Span, Tracer, self_times_ns, timing_summary

# per-frame layer spans reported as p50/p95/n, keyed by metric name
FRAME_LAYERS = {
    "scene_sim.generate_scene_ms": "scene_sim.generate_scene",
    "scene_sim.render_frame_ms": "scene_sim.render_frame",
    "scene_sim.write_frame_files_ms": "scene_sim.write_frame_files",
    "scene_sim.read_frame_buffers_ms": "scene_sim.read_frame_buffers",
    "raster_codec.linearize_depth_ms": "probe.raster_codec.linearize_depth",
    "annotator.annotate_frame_ms": "annotator.annotate_frame",
    "annotator.connected_components_ms": "probe.annotator.connected_components",
    "cli.oracle_frame_labels_ms": "cli.oracle_frame_labels",
    "kitti_labels.write_labels_ms": "kitti_labels.write_labels",
}


@dataclass
class ReplayResult:
    tracer: Tracer
    counts: dict[str, float]
    workers: int


def _run_tasks(task_fn: Callable, tasks: list, workers: int) -> list:
    """``cli._run_tasks``, keeping each task's result."""
    if workers <= 1 or len(tasks) <= 1:
        return [task_fn(task) for task in tasks]
    chunksize = max(1, len(tasks) // (workers * 4))
    # default start method, as in cli._run_tasks, so the pool behaves the same
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task_fn, tasks, chunksize=chunksize))


def _collect(tracer: Tracer, counts: dict[str, float], results: list) -> None:
    for spans, task_counts in results:
        tracer.adopt(spans)
        for key, value in task_counts.items():
            counts[key] = counts.get(key, 0) + value


def _generate_task(task) -> tuple[list[Span], dict]:
    config, frame, out = task
    t = Tracer()
    with t.span("generate.frame", frame):
        with t.span("scene_sim.generate_scene", frame):
            scene = scene_sim.generate_scene(config, frame)
        with t.span("scene_sim.render_frame", frame):
            bundle = scene_sim.render_frame(
                config.camera(),
                scene,
                frame,
                inflate_pct=config.coarse_box_inflate_pct,
                record_max_range_m=config.record_max_range_m,
                emit_color=config.emit_color,
            )
        with t.span("scene_sim.write_frame_files", frame):
            scene_sim.write_frame_files(bundle, out)
        with t.span("probe.scene_sim.scene_screen_triangles", frame):
            triangles = sum(1 for _ in scene_sim.scene_screen_triangles(config.camera(), scene))
    written = sum(p.stat().st_size for p in scene_sim.frame_paths(out, frame).values() if p.exists())
    return t.spans, {"triangles": triangles, "bytes_written": written}


def _annotate_task(task) -> tuple[list[Span], dict]:
    dataset_dir, labels_dir, frame, params, depth_params = task
    t = Tracer()
    with t.span("annotate.frame", frame):
        with t.span("scene_sim.read_frame_buffers", frame):
            depth, stencil, records, _ = scene_sim.read_frame_buffers(dataset_dir, frame)
        with t.span("annotator.annotate_frame", frame):
            annotations = annotator.annotate_frame(stencil, depth, records, params, depth_params)
        labels = [kitti_labels.from_annotation(a) for a in annotations]
        with t.span("kitti_labels.write_labels", frame):
            kitti_labels.write_labels(labels, kitti_labels.label_path(labels_dir, frame))
        with t.span("probe.raster_codec.linearize_depth", frame):
            linearize_depth(depth.data.astype(np.float64), depth_params)
        mask = annotator.vehicle_mask(stencil)
        with t.span("probe.annotator.connected_components", frame):
            annotator.connected_components(mask)
    paths = scene_sim.frame_paths(dataset_dir, frame)
    return t.spans, {
        "vehicle_records": sum(r.cls is scene_sim.ObjectClass.VEHICLE for r in records),
        "accepted": sum(a.source_id != 0 for a in annotations),
        "orphans": sum(a.source_id == 0 for a in annotations),
        "labels": len(labels),
        "bytes_read": sum(paths[k].stat().st_size for k in ("depth", "stencil", "meta")),
    }


def _oracle_task(task) -> tuple[list[Span], dict]:
    dataset_dir, labels_dir, frame, image_size = task
    t = Tracer()
    with t.span("oracle.frame", frame):
        with t.span("scene_sim.read_frame_buffers", frame):
            depth, stencil, records, instance = scene_sim.read_frame_buffers(
                dataset_dir, frame, with_instance=True
            )
        with t.span("cli.oracle_frame_labels", frame):
            labels = cli.oracle_frame_labels(instance, stencil, records, image_size)
        with t.span("kitti_labels.write_labels", frame):
            kitti_labels.write_labels(labels, kitti_labels.label_path(labels_dir, frame))
    paths = scene_sim.frame_paths(dataset_dir, frame)
    return t.spans, {"bytes_read": sum(paths[k].stat().st_size for k in ("depth", "stencil", "meta", "instance"))}


def replay(scenario: Path, dirs: dict[str, Path], workers: int, ap_method: str) -> ReplayResult:
    """Run generate, annotate, oracle-labels, evaluate and stats in process."""
    tracer = Tracer()
    counts: dict[str, float] = {}
    dataset, det, gt = dirs["dataset"], dirs["det"], dirs["gt"]

    with tracer.span("stage.generate"):
        config = scene_sim.load_scenario(scenario)
        dataset.mkdir(parents=True, exist_ok=True)
        tasks = [(config, i, dataset) for i in range(config.frames)]
        _collect(tracer, counts, _run_tasks(_generate_task, tasks, workers))
        (dataset / scene_sim.MANIFEST_NAME).write_text(scene_sim.manifest_text(config))

    with tracer.span("stage.annotate"):
        config = scene_sim.read_manifest(dataset / scene_sim.MANIFEST_NAME)
        depth_params = DepthCodecParams(config.near_m, config.far_m)
        params = annotator.RefinementParams()
        det.mkdir(parents=True, exist_ok=True)
        tasks = [(dataset, det, i, params, depth_params) for i in scene_sim.list_frame_indices(dataset)]
        _collect(tracer, counts, _run_tasks(_annotate_task, tasks, workers))

    with tracer.span("stage.oracle"):
        config = scene_sim.read_manifest(dataset / scene_sim.MANIFEST_NAME)
        gt.mkdir(parents=True, exist_ok=True)
        image_size = (config.width, config.height)
        tasks = [(dataset, gt, i, image_size) for i in scene_sim.list_frame_indices(dataset)]
        _collect(tracer, counts, _run_tasks(_oracle_task, tasks, 1))  # cli runs it on one worker

    with tracer.span("stage.evaluate"):
        with tracer.span("evaluator.evaluate"):
            report = evaluator.evaluate(det, gt, iou_thr=evaluator.DEFAULT_IOU_THRESHOLD, method=ap_method)
        text = evaluator.report_text(report)
        dirs["report"].mkdir(parents=True, exist_ok=True)
        (dirs["report"] / "report.txt").write_text(text)
        (dirs["report"] / "report.csv").write_text(evaluator.report_csv(report))
        with tracer.span("probe.kitti_labels.read_label_dir"):
            det_labels = kitti_labels.read_label_dir(det)
        with tracer.span("probe.kitti_labels.read_label_dir"):
            gt_labels = kitti_labels.read_label_dir(gt)
    levels = len(report.levels)
    counts["ap_easy"] = report.levels[kitti_labels.Difficulty.EASY].ap or 0.0
    counts["pooled_outcomes"] = sum(len(r.pr_points) for r in report.levels.values())
    counts["iou_pairs"] = levels * sum(
        sum(lb.type == kitti_labels.CAR_TYPE for lb in det_labels[frame])
        * sum(lb.type in (kitti_labels.CAR_TYPE, kitti_labels.DONTCARE_TYPE) for lb in gt_labels[frame])
        for frame in gt_labels
    )

    with tracer.span("stage.stats"):
        with tracer.span("dataset_stats.write_stats"):
            dataset_stats.write_stats(
                det, dirs["stats"], image_size=(config.width, config.height), grid=dataset_stats.DEFAULT_GRID
            )
    counts["frames"] = config.frames
    return ReplayResult(tracer, counts, workers)


def stage_walls_s(tracer: Tracer) -> dict[str, float]:
    return {
        s.name[len("stage."):]: s.duration_ns / 1e9 for s in tracer.spans if s.name.startswith("stage.")
    }


def layer_metrics(result: ReplayResult) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced replay, from self times and counts."""
    spans = result.tracer.spans
    self_ms: dict[str, list[float]] = {}
    for s, own in zip(spans, self_times_ns(spans)):
        self_ms.setdefault(s.name, []).append(own / 1e6)
    c, frames = result.counts, result.counts["frames"]
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span_name in FRAME_LAYERS.items():
        metrics.update(timing_summary(metric, self_ms[span_name]))

    # serial per-frame task time over what the pool could give the two
    # stages that fan out (stage wall x workers)
    walls = stage_walls_s(result.tracer)
    fanned_out = ("generate", "annotate")
    task_s = sum(s.duration_ns for s in spans if s.name in {f"{st}.frame" for st in fanned_out}) / 1e9
    capacity_s = sum(walls[st] for st in fanned_out) * result.workers
    reads_ms = self_ms["probe.kitti_labels.read_label_dir"]

    metrics.update(
        {
            "scene_sim.triangles_per_frame": (c["triangles"] / frames, "count"),
            "raster_codec.bytes_written_per_frame": (c["bytes_written"] / frames, "bytes"),
            "raster_codec.bytes_read_per_frame": (c["bytes_read"] / frames, "bytes"),
            "annotator.vehicle_records_per_frame": (c["vehicle_records"] / frames, "count"),
            "annotator.accept_ratio": (c["accepted"] / max(1, c["vehicle_records"]), "frac"),
            "annotator.orphans_per_frame": (c["orphans"] / frames, "count"),
            "cli.pool_efficiency": (task_s / capacity_s, "frac"),
            "kitti_labels.labels_per_frame": (c["labels"] / frames, "count"),
            "kitti_labels.read_label_dir_ms": (sum(reads_ms) / len(reads_ms), "ms"),
            "evaluator.evaluate_ms": (self_ms["evaluator.evaluate"][0], "ms"),
            "evaluator.ap_easy": (c["ap_easy"], "AP"),
            "evaluator.iou_pairs": (c["iou_pairs"], "count"),
            "evaluator.pooled_outcomes": (c["pooled_outcomes"], "count"),
            "dataset_stats.write_stats_ms": (self_ms["dataset_stats.write_stats"][0], "ms"),
        }
    )
    return metrics
