"""Command-line pipeline orchestration over dataset directories.

Subcommands::

    matrixgt generate      --scenario S --out D [--workers N]
    matrixgt annotate      --in D --out L [--rho R] [--workers N]
    matrixgt oracle-labels --in D --out L [--workers N]
    matrixgt evaluate      --det L1 --gt L2 [--iou T] [--ap 11pt|all] [--out D]
    matrixgt stats         --labels L --out D [--grid CxR] [--image WxH]

Exit codes: 0 success, 2 configuration/parse error, 3 I/O error,
4 validation error. All subcommands are idempotent and produce byte-identical
outputs regardless of worker count; ``MATRIXGT_WORKERS`` is the fallback when
``--workers`` is absent, and 0 means one worker per CPU that the process may
run on. A stage never starts more workers than that, or than it has frames.
On more than one worker a stage forks one process per worker, and each
claims one frame at a time, in frame order, until none is left; chunks of
frames appear only past 1,024 frames. A failing stage reports the lowest
failing frame's error, as one worker would; it may stop before later frames
run. A worker killed by a signal fails the stage with exit 3.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

# Each command imports the stage modules it runs, inside the command or its
# task, so a stage starts up with only what it needs.
from .errors import ConfigError, FormatError, ValidationError, write_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def __getattr__(name: str):
    # ``cli.oracle_frame_labels`` stays importable for callers that reach the
    # oracle through this module, without loading it at start-up
    if name == "oracle_frame_labels":
        from .oracle_labels import oracle_frame_labels

        return oracle_frame_labels
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve_workers(requested: Optional[int]) -> int:
    if requested is None:
        env = os.environ.get("MATRIXGT_WORKERS")
        try:
            requested = int(env) if env else 1
        except ValueError:
            raise ConfigError(f"MATRIXGT_WORKERS must be an integer, got {env!r}") from None
    if requested < 0:
        raise ConfigError(f"worker count must be >= 0, got {requested}")
    if requested == 0:
        return _usable_cpus()
    return requested


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_tasks(task_fn, tasks: list, workers: int) -> None:
    """Execute independent per-frame tasks; results land in per-frame files, so
    scheduling order never affects output bytes."""
    # every worker is forked at once, so no more than there are tasks, or
    # CPUs to run them
    workers = min(workers, len(tasks), _usable_cpus())
    if workers <= 1:
        for task in tasks:
            task_fn(task)
        return
    # imported only here, so that one-worker stages do not compile it
    from . import fork_runner

    fork_runner.run(task_fn, tasks, workers)


# --- generate ----------------------------------------------------------------


def _generate_task(task) -> None:
    from . import scene_sim

    scene_sim.write_scenario_frame(*task)


def cmd_generate(args) -> int:
    # scene_sim first, so that it is compiled before numpy loads, which costs
    # less peak memory (see the note on scene_sim's imports)
    from . import scene_sim
    from . import dataset

    config = dataset.load_scenario(args.scenario)
    workers = _resolve_workers(args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # an older run's manifest goes before the first frame, so that a run cut
    # short leaves none to pass its mix of frames for a dataset; one that is
    # not a regular file stays, and the write below fails on it
    manifest = out / dataset.MANIFEST_NAME
    if manifest.is_file():
        manifest.unlink()
    _run_tasks(_generate_task, [(config, i, out) for i in range(config.frames)], workers)
    write_text(manifest, dataset.manifest_text(config))
    return EXIT_OK


# --- annotate ----------------------------------------------------------------


def _annotate_task(task) -> None:
    from . import annotator, dataset, kitti_labels

    dataset_dir, labels_dir, frame_idx, params, depth_params = task
    depth, stencil, records, _ = dataset.read_frame_buffers(dataset_dir, frame_idx)
    annotations = annotator.annotate_frame(stencil, depth, records, params, depth_params)
    labels = [kitti_labels.from_annotation(a) for a in annotations]
    kitti_labels.write_labels(labels, kitti_labels.label_path(labels_dir, frame_idx))


def cmd_annotate(args) -> int:
    # dataset first, as scene_sim in cmd_generate: annotator loads numpy
    # before the package modules it imports
    from . import dataset
    from . import annotator

    dataset_dir = Path(args.input_dir)
    config = dataset.read_manifest(dataset_dir / dataset.MANIFEST_NAME)
    depth_params = config.camera().depth_params
    params = (
        annotator.RefinementParams(rho=args.rho)
        if args.rho is not None
        else annotator.RefinementParams()
    )
    workers = _resolve_workers(args.workers)
    labels_dir = Path(args.out)
    labels_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (dataset_dir, labels_dir, i, params, depth_params)
        for i in dataset.list_frame_indices(dataset_dir)
    ]
    _run_tasks(_annotate_task, tasks, workers)
    return EXIT_OK


# --- oracle-labels -----------------------------------------------------------


def _oracle_task(task) -> None:
    from . import dataset, kitti_labels
    from .oracle_labels import oracle_frame_labels

    dataset_dir, labels_dir, frame_idx, image_size = task
    _, stencil, records, instance = dataset.read_frame_buffers(dataset_dir, frame_idx, with_instance=True)
    labels = oracle_frame_labels(instance, stencil, records, image_size)
    kitti_labels.write_labels(labels, kitti_labels.label_path(labels_dir, frame_idx))


def cmd_oracle_labels(args) -> int:
    from . import dataset

    dataset_dir = Path(args.input_dir)
    config = dataset.read_manifest(dataset_dir / dataset.MANIFEST_NAME)
    workers = _resolve_workers(args.workers)
    labels_dir = Path(args.out)
    labels_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (dataset_dir, labels_dir, i, (config.width, config.height))
        for i in dataset.list_frame_indices(dataset_dir)
    ]
    _run_tasks(_oracle_task, tasks, workers)
    return EXIT_OK


# --- evaluate ----------------------------------------------------------------


def cmd_evaluate(args) -> int:
    from . import evaluator

    iou_thr = evaluator.DEFAULT_IOU_THRESHOLD if args.iou is None else args.iou
    report = evaluator.evaluate(args.det, args.gt, iou_thr=iou_thr, method=args.ap)
    text = evaluator.report_text(report)
    sys.stdout.write(text)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "report.txt", text)
    write_text(out / "report.csv", evaluator.report_csv(report))
    return EXIT_OK


# --- stats -------------------------------------------------------------------


def _parse_pair(value: str, what: str) -> tuple[int, int]:
    try:
        a, b = map(int, value.lower().split("x"))
    except ValueError:  # a part that is not an integer, or not exactly two parts
        raise ConfigError(f"cannot parse {what} {value!r}; expected e.g. 48x27") from None
    return a, b


def cmd_stats(args) -> int:
    from . import dataset_stats

    grid = _parse_pair(args.grid, "--grid")
    image = _parse_pair(args.image, "--image")
    dataset_stats.write_stats(args.labels, args.out, image_size=image, grid=grid)
    return EXIT_OK


# --- parser and entry point ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrixgt",
        description="Synthetic ground-truth pipeline: generate, annotate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render a dataset directory from a scenario file")
    p.add_argument("--scenario", required=True, help="key=value scenario file")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--workers", type=int, default=None, help="worker processes (0 = auto)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("annotate", help="refine engine boxes into KITTI labels")
    p.add_argument("--in", dest="input_dir", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="label output directory")
    p.add_argument("--rho", type=float, default=None, help="relative depth tolerance")
    p.add_argument("--workers", type=int, default=None, help="worker processes (0 = auto)")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("oracle-labels", help="perfect labels from the withheld instance oracle")
    p.add_argument("--in", dest="input_dir", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="label output directory")
    p.add_argument("--workers", type=int, default=None, help="worker processes (0 = auto)")
    p.set_defaults(func=cmd_oracle_labels)

    p = sub.add_parser("evaluate", help="difficulty-binned AP of detections vs ground truth")
    p.add_argument("--det", required=True, help="detection labels directory")
    p.add_argument("--gt", required=True, help="ground-truth labels directory")
    p.add_argument("--iou", type=float, default=None)
    p.add_argument("--ap", choices=("11pt", "all"), default="11pt")
    p.add_argument("--out", default=".", help="directory for report.txt / report.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="heatmap, histogram, and summary of a label directory")
    p.add_argument("--labels", required=True, help="labels directory")
    p.add_argument("--out", required=True, help="stats output directory")
    p.add_argument("--grid", default="48x27", help="heatmap grid as CxR")
    p.add_argument("--image", default="640x480", help="image dimensions as WxH")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError) as exc:
        print(f"matrixgt: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"matrixgt: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"matrixgt: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
