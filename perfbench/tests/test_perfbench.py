"""Self-tests of the benchmark's helpers: run with
``python3 -m pytest perfbench/tests`` from the repository root."""

import ast
import json
import os
import time
from pathlib import Path

import pytest

import checks
import hostprobe
import replay
import run
from tracing import Span, Tracer, percentile, self_times_ns, timing_summary
from workloads import ACCEPTANCE_KEYS, DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_percentile_is_nearest_rank():
    values = list(range(200, 0, -1))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190  # ten samples lie beyond it
    assert percentile([7.0], 95) == 7.0
    assert percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_timing_summary_reports_p50_p95_and_sample_count():
    summary = timing_summary("layer_ms", [float(v) for v in range(1, 21)])
    assert summary == {
        "layer_ms.p50": (10.0, "ms"),
        "layer_ms.p95": (19.0, "ms"),
        "layer_ms.n": (20, "count"),
    }


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        Span("parent", 0, 100, None, None),
        Span("a", 10, 30, 0, None),
        Span("b", 20, 50, 0, None),  # overlaps a: [10, 50) is covered once
        Span("c", 90, 120, 0, None),  # runs past the parent: only [90, 100) counts
        Span("grandchild", 12, 18, 1, None),
    ]
    assert self_times_ns(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_tracer_nests_spans_and_adopts_worker_spans():
    worker = Tracer()
    with worker.span("frame", 3):
        with worker.span("layer", 3):
            pass
    t = Tracer()
    with t.span("stage"):
        t.adopt(worker.spans)
    assert [(s.name, s.parent, s.frame) for s in t.spans] == [
        ("stage", None, None),
        ("frame", 0, 3),
        ("layer", 1, 3),
    ]
    assert all(s.end_ns >= s.start_ns for s in t.spans)


def test_tally_counts_attempted_and_failed():
    tally = checks.Tally()
    assert tally.failed_frac == 0.0
    assert tally.check(True, "stage ok")
    assert not tally.check(False, "frame 1: missing file")
    tally.check(True, "frame 2")
    tally.check(False, "evaluate: AP below floor")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert tally.failures == ["frame 1: missing file", "evaluate: AP below floor"]


def test_frame_digest_and_file_set_checks(tmp_path):
    dataset, det, gt = (tmp_path / d for d in ("dataset", "det", "gt"))
    for d in (dataset, det, gt):
        d.mkdir()
    paths = checks.frame_paths(dataset, det, gt, 0)
    for p in paths:
        p.write_bytes(p.name.encode())
    digest = checks.frame_digest(paths)
    assert digest is not None and len(digest) == 32
    paths[-1].write_bytes(b"changed")
    assert checks.frame_digest(paths) != digest
    paths[0].unlink()
    assert checks.frame_digest(paths) is None

    (det / "000000.txt.tmp").write_text("")
    assert checks.extra_files(det, checks.label_names(1)) == ["000000.txt.tmp"]
    assert checks.extra_files(dataset, checks.dataset_names(1)) == []


def test_ap_floor(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text("level,ap,tp,fp,fn,gt_count\nEasy,0.975758,1,0,0,1\nModerate,n/a,0,0,0,0\nHard,0.96,1,0,0,1\n")
    aps = checks.read_ap(report)
    assert aps == {"Easy": 0.975758, "Moderate": None, "Hard": 0.96}
    assert not checks.ap_meets_floor(aps, 0.95)
    assert checks.ap_meets_floor(aps, None)
    aps["Moderate"] = 0.951
    assert checks.ap_meets_floor(aps, 0.95)


def test_acceptance_workload_matches_the_test_suite_scenario():
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    text = next(
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "ACCEPTANCE_SCENARIO"
    )
    pairs = dict(line.split("=", 1) for line in text.splitlines() if line and not line.startswith("#"))
    assert pairs.pop("seed") == str(DEFAULT_SEED)
    assert pairs == ACCEPTANCE_KEYS
    assert WORKLOADS["acceptance-w1"].scenario_text(5).startswith("seed=5\n")


def test_pins_cover_every_frame():
    for w in WORKLOADS.values():
        pins = checks.load_pins(run.PINS_DIR / w.pins)
        assert len(pins) == w.frames


def _synthetic_replay() -> replay.ReplayResult:
    t = Tracer()
    for stage in run.STAGES:
        with t.span(f"stage.{stage}"):
            if stage in ("generate", "annotate", "oracle"):
                with t.span(f"{stage}.frame", 0):
                    for name in set(replay.FRAME_LAYERS.values()) | {"probe.kitti_labels.read_label_dir"}:
                        with t.span(name, 0):
                            pass
            with t.span("evaluator.evaluate"), t.span("dataset_stats.write_stats"):
                pass
    keys = ("triangles", "bytes_written", "bytes_read", "vehicle_records", "accepted", "orphans", "labels")
    counts = {k: 1 for k in keys} | {"frames": 1, "iou_pairs": 1, "pooled_outcomes": 1, "ap_easy": 0.5}
    return replay.ReplayResult(t, counts, workers=1)


def test_host_clock_scales_a_step_by_the_probes_around_it():
    clock = run.HostClock()
    clock.probes = [run.REFERENCE_PROBE_S, 3 * run.REFERENCE_PROBE_S, 2 * run.REFERENCE_PROBE_S]
    # the host ran at half the reference speed between probes 0 and 1
    assert clock.ref_s(run.Sample(4.0, 0)) == pytest.approx(2.0)
    assert clock.ref_s(run.ChildRun(0, 5.0, 0.0, 0.0, 0, 0.0, probe=1)) == pytest.approx(2.0)
    with pytest.raises(IndexError):
        clock.ref_s(run.Sample(1.0, 2))  # no probe after it


def test_run_children_runs_them_at_once_and_reports_each(tmp_path):
    args = "import sys, time; time.sleep(0.5); sys.exit({})"
    commands = [(["-c", args.format(code)], tmp_path / f"{code}.log", os.devnull) for code in (0, 3)]
    start = time.perf_counter()
    runs = run.run_children(commands, {})
    took = time.perf_counter() - start
    assert [r.exit_code for r in runs] == [0, 3]
    assert all(0.5 <= r.wall_s <= took for r in runs)
    assert took < 1.0  # one after the other would take at least 1 s


def test_host_probe_checksum_is_current():
    assert hostprobe.main() == run.HOST_PROBE_OUTPUT


def test_bench_env_scrubs_and_pins():
    env = run.bench_env({"PATH": "/bin", "MATRIXGT_WORKERS": "4", "MALLOC_ARENA_MAX": "1", "OPENBLAS_NUM_THREADS": "8"})
    assert env == {"PATH": "/bin", **run.PINNED_ENV}
    assert run.bench_env(env) == env


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS["acceptance-w1"]
    clock = run.HostClock()
    clock.probes = [0.2] * (len(run.STAGES) + 2)
    runs = [(s, run.ChildRun(0, 1.0, 0.5, 0.1, 100, 40.0, probe=i + 1)) for i, s in enumerate(run.STAGES)]
    cli = run.Pass(runs, {"Easy": 1.0, "Moderate": 1.0, "Hard": 1.0}, 1000)
    e2e = run.end_to_end(w, [run.Sample(0.3, 0)], [cli], checks.Tally(), clock)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}

    layers = replay.layer_metrics(_synthetic_replay())
    layers.update(run.process_metrics(w, cli, 0.3, clock))
    layers["trace.overhead_frac"] = (0.0, "frac")
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
