import errno
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE_SCENARIO, CROWD_KEYS, make_ground, make_vehicle, oracle_hulls

from matrixgt import cli
from matrixgt import dataset as ds
from matrixgt import fork_runner
from matrixgt import kitti_labels as kl
from matrixgt import scene_sim as ss
from matrixgt.raster_codec import Raster, read_raster, write_raster

TINY_SCENARIO = """\
seed=31
frames=4
width=96
height=72
fx=100.0
fy=100.0
cx=48.0
cy=36.0
vehicle_count_min=1
vehicle_count_max=2
distractor_count_min=0
distractor_count_max=1
region_x_min=-4.0
region_x_max=4.0
region_z_min=8.0
region_z_max=20.0
emit_color=1
"""


def dir_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def tiny_dataset(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(TINY_SCENARIO)
    dataset = tmp_path / "ds"
    assert cli.main(["generate", "--scenario", str(scenario), "--out", str(dataset)]) == 0
    return dataset


class TestGenerate:
    def test_writes_all_files(self, tiny_dataset):
        assert (tiny_dataset / "manifest.txt").exists()
        for frame in range(4):
            for key, path in ds.frame_paths(tiny_dataset, frame).items():
                assert path.exists(), (frame, key)

    def test_byte_identical_reruns(self, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text(TINY_SCENARIO)
        digests = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli.main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
            digests.append(dir_digest(out))
        assert digests[0] == digests[1]

    def test_workers_do_not_change_bytes(self, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text(TINY_SCENARIO)
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(out1), "--workers", "1"]) == 0
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(out8), "--workers", "8"]) == 0
        assert dir_digest(out1) == dir_digest(out8)

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.txt"
        scenario.write_text("frames=2\n")
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_scenario_file_exits_3(self, tmp_path):
        assert cli.main(["generate", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 3

    def test_frame_count_matches(self, tiny_dataset):
        assert ds.list_frame_indices(tiny_dataset) == [0, 1, 2, 3]

    def test_an_interrupted_run_leaves_no_older_manifest(self, tmp_path, monkeypatch, capsys):
        """A run cut short over an older dataset has removed that dataset's
        manifest before its first frame, so no later stage reads the mix of
        new and old frames as one dataset."""
        out = tmp_path / "ds"
        older = tmp_path / "older.txt"
        older.write_text(_with_key(TINY_SCENARIO, "frames", "5"))
        assert cli.main(["generate", "--scenario", str(older), "--out", str(out)]) == 0
        old_first = ds.frame_paths(out, 0)["meta"].read_bytes()
        newer = tmp_path / "newer.txt"
        newer.write_text(_with_key(TINY_SCENARIO, "seed", "32"))
        write = ss.write_scenario_frame

        def interrupted(config, frame_idx, dataset_dir):
            if frame_idx == 2:
                raise KeyboardInterrupt
            write(config, frame_idx, dataset_dir)

        monkeypatch.setattr(ss, "write_scenario_frame", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["generate", "--scenario", str(newer), "--out", str(out), "--workers", "1"])
        assert not (out / ds.MANIFEST_NAME).exists()
        assert ds.frame_paths(out, 0)["meta"].read_bytes() != old_first  # frames 0-1 new, 2-4 old
        assert ds.frame_paths(out, 4)["meta"].exists()
        assert cli.main(["annotate", "--in", str(out), "--out", str(tmp_path / "det")]) == cli.EXIT_IO
        assert ds.MANIFEST_NAME in capsys.readouterr().err


class TestAnnotate:
    def test_one_label_file_per_frame(self, tiny_dataset, tmp_path):
        labels = tmp_path / "labels"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)]) == 0
        assert sorted(p.name for p in labels.glob("*.txt")) == [f"00000{i}.txt" for i in range(4)]

    def test_worker_counts_identical(self, tiny_dataset, tmp_path):
        out1, out8 = tmp_path / "l1", tmp_path / "l8"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(out1), "--workers", "1"]) == 0
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(out8), "--workers", "8"]) == 0
        assert dir_digest(out1) == dir_digest(out8)

    def test_oracle_blindness_instance_files_deleted(self, tiny_dataset, tmp_path):
        with_instance = tmp_path / "with"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(with_instance)]) == 0
        for frame in range(4):
            ds.frame_paths(tiny_dataset, frame)["instance"].unlink()
        without = tmp_path / "without"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(without)]) == 0
        assert dir_digest(with_instance) == dir_digest(without)

    def test_missing_buffer_exits_3_naming_frame(self, tiny_dataset, tmp_path, capsys):
        ds.frame_paths(tiny_dataset, 2)["depth"].unlink()
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(tmp_path / "l")]) == 3
        assert "000002" in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, tiny_dataset, tmp_path):
        (tiny_dataset / "manifest.txt").unlink()
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(tmp_path / "l")]) == 3

    def test_rho_flag_changes_output_determinism_kept(self, tiny_dataset, tmp_path):
        default = tmp_path / "default"
        wide = tmp_path / "wide"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(default)]) == 0
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(wide), "--rho", "0.4"]) == 0
        again = tmp_path / "again"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(again), "--rho", "0.4"]) == 0
        assert dir_digest(wide) == dir_digest(again)


class TestOracleLabels:
    def test_single_cube_hull(self, tmp_path, small_camera):
        dataset = tmp_path / "ds"
        dataset.mkdir()
        scene = [make_ground(z_far=40.0), make_vehicle(2, x=0.0, z=10.0)]
        bundle = ss.render_frame(small_camera, scene, 0, inflate_pct=0.1, emit_color=False)
        ss.write_frame_files(bundle, dataset)
        config = ds.ScenarioConfig(seed=1, frames=1, width=320, height=240, fx=260.0, fy=260.0,
                                   cx=160.0, cy=120.0, region_z_min=5.0, region_z_max=20.0,
                                   emit_color=False)
        (dataset / "manifest.txt").write_text(ds.manifest_text(config))
        labels_dir = tmp_path / "gt"
        assert cli.main(["oracle-labels", "--in", str(dataset), "--out", str(labels_dir)]) == 0
        (labels,) = kl.read_label_dir(labels_dir).values()
        assert len(labels) == 1
        assert labels[0].bbox == oracle_hulls(bundle.instance_oracle)[2]
        assert labels[0].type == "Car"

    def test_fully_occluded_object_emits_nothing(self, tmp_path, small_camera):
        dataset = tmp_path / "ds"
        dataset.mkdir()
        scene = [
            make_vehicle(2, x=0.0, z=8.0, length=3.0, width=3.0, height=2.5, ground_y=2.8),
            make_vehicle(3, x=0.0, z=30.0, length=1.0, width=1.0, height=1.0, ground_y=2.0),
        ]
        bundle = ss.render_frame(small_camera, scene, 0, emit_color=False)
        ss.write_frame_files(bundle, dataset)
        config = ds.ScenarioConfig(seed=1, frames=1, width=320, height=240, fx=260.0, fy=260.0,
                                   cx=160.0, cy=120.0, region_z_min=5.0, region_z_max=35.0,
                                   emit_color=False)
        (dataset / "manifest.txt").write_text(ds.manifest_text(config))
        labels_dir = tmp_path / "gt"
        assert cli.main(["oracle-labels", "--in", str(dataset), "--out", str(labels_dir)]) == 0
        (labels,) = kl.read_label_dir(labels_dir).values()
        assert len(labels) == 1  # only the visible near vehicle

    def test_label_count_equals_visible_vehicles(self, tiny_dataset, tmp_path):
        labels_dir = tmp_path / "gt"
        assert cli.main(["oracle-labels", "--in", str(tiny_dataset), "--out", str(labels_dir)]) == 0
        labels_by_frame = kl.read_label_dir(labels_dir)
        for frame in range(4):
            _, stencil, records, instance = ds.read_frame_buffers(tiny_dataset, frame, with_instance=True)
            vehicle_ids = {r.object_id for r in records if r.cls is ds.ObjectClass.VEHICLE}
            visible = {int(v) for v in np.unique(instance.data) if v != 0 and int(v) in vehicle_ids}
            assert len(labels_by_frame[f"{frame:06d}"]) == len(visible)

    def test_worker_counts_identical(self, tiny_dataset, tmp_path, monkeypatch):
        run_tasks, seen = cli._run_tasks, []

        def spy(task_fn, tasks, workers):
            seen.append(workers)
            run_tasks(task_fn, tasks, workers)

        monkeypatch.setattr(cli, "_run_tasks", spy)
        monkeypatch.setenv("MATRIXGT_WORKERS", "1")
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert cli.main(["oracle-labels", "--in", str(tiny_dataset), "--out", str(out1), "--workers", "1"]) == 0
        assert cli.main(["oracle-labels", "--in", str(tiny_dataset), "--out", str(out2), "--workers", "2"]) == 0
        assert seen == [1, 2]  # the flag wins over MATRIXGT_WORKERS
        assert dir_digest(out1) == dir_digest(out2)

    def test_depth_is_not_read(self, tiny_dataset, tmp_path):
        before = tmp_path / "before"
        assert cli.main(["oracle-labels", "--in", str(tiny_dataset), "--out", str(before)]) == 0
        ds.frame_paths(tiny_dataset, 0)["depth"].unlink()
        after = tmp_path / "after"
        assert cli.main(["oracle-labels", "--in", str(tiny_dataset), "--out", str(after)]) == 0
        assert dir_digest(after) == dir_digest(before)
        # the annotator still needs it
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(tmp_path / "det")]) == 3


def test_stages_take_frames_from_the_manifest(tiny_dataset, tmp_path, capsys):
    # a shorter second run into the same directory leaves frames 2 and 3 behind
    scenario = tmp_path / "short.txt"
    scenario.write_text(TINY_SCENARIO.replace("frames=4", "frames=2"))
    assert cli.main(["generate", "--scenario", str(scenario), "--out", str(tiny_dataset)]) == 0
    for command in ("annotate", "oracle-labels"):
        out = tmp_path / command
        assert cli.main([command, "--in", str(tiny_dataset), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["000000.txt", "000001.txt"]
    # a listed frame without its meta file is an i/o error, not a skipped frame
    meta = ds.frame_paths(tiny_dataset, 1)["meta"]
    meta.unlink()
    for command in ("annotate", "oracle-labels"):
        assert cli.main([command, "--in", str(tiny_dataset), "--out", str(tmp_path / "again")]) == 3
        assert str(meta) in capsys.readouterr().err


class TestEvaluate:
    def test_self_evaluation_and_reports(self, tiny_dataset, tmp_path, capsys):
        labels = tmp_path / "labels"
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)]) == 0
        out = tmp_path / "report"
        assert cli.main(["evaluate", "--det", str(labels), "--gt", str(labels), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Easy" in stdout
        csv = (out / "report.csv").read_text()
        assert csv.startswith("level,ap,tp,fp,fn,gt_count")
        assert (out / "report.txt").exists()

    def test_iou_flag_in_header(self, tiny_dataset, tmp_path, capsys):
        labels = tmp_path / "labels"
        cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)])
        assert cli.main(["evaluate", "--det", str(labels), "--gt", str(labels),
                         "--iou", "0.5", "--out", str(tmp_path / "r")]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_mismatched_frame_sets_exit_4(self, tiny_dataset, tmp_path):
        labels = tmp_path / "labels"
        cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)])
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "000000.txt").write_text((labels / "000000.txt").read_text())
        assert cli.main(["evaluate", "--det", str(partial), "--gt", str(labels),
                         "--out", str(tmp_path / "r")]) == 4

    def test_missing_label_dirs_exit_3(self, tmp_path, capsys):
        assert cli.main(["evaluate", "--det", str(tmp_path / "nope"), "--gt", str(tmp_path / "nope2"),
                         "--out", str(tmp_path / "r")]) == 3
        assert "nope" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unlistable_label_dir_exits_3(self, tmp_path, monkeypatch, capsys):
        """A label directory that cannot be listed is an I/O error, not an
        empty label set. Listing is refused here by a stand-in for
        ``os.listdir``, since permission bits do not stop every user."""
        argv = _evaluate_argv(tmp_path)
        listdir = os.listdir

        def refuse_det(path="."):
            if Path(path) == tmp_path / "det":
                raise PermissionError(13, "Permission denied", str(path))
            return listdir(path)

        monkeypatch.setattr(os, "listdir", refuse_det)
        assert cli.main(argv) == 3
        assert "Permission denied" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_ap_method_flag(self, tiny_dataset, tmp_path, capsys):
        labels = tmp_path / "labels"
        cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)])
        assert cli.main(["evaluate", "--det", str(labels), "--gt", str(labels),
                         "--ap", "all", "--out", str(tmp_path / "r")]) == 0
        assert "all" in capsys.readouterr().out


class TestStats:
    def test_outputs_and_totals(self, tiny_dataset, tmp_path):
        labels = tmp_path / "labels"
        cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)])
        out = tmp_path / "stats"
        assert cli.main(["stats", "--labels", str(labels), "--out", str(out),
                         "--grid", "4x3", "--image", "96x72"]) == 0
        hist = (out / "detections_hist.csv").read_text().strip().splitlines()[1:]
        assert sum(int(line.split(",")[1]) for line in hist) == 4
        total_cars = sum(
            1 for frame in kl.read_label_dir(labels).values() for lab in frame if lab.type == "Car"
        )
        heatmap_total = sum(
            int(line.split(",")[2])
            for line in (out / "heatmap.csv").read_text().strip().splitlines()[1:]
        )
        assert heatmap_total == total_cars

    def test_rerun_byte_identical(self, tiny_dataset, tmp_path):
        labels = tmp_path / "labels"
        cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(labels)])
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["stats", "--labels", str(labels), "--out", str(out), "--image", "96x72"]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_empty_labels_dir(self, tmp_path):
        labels = tmp_path / "labels"
        labels.mkdir()
        out = tmp_path / "stats"
        assert cli.main(["stats", "--labels", str(labels), "--out", str(out)]) == 0
        assert "frames=0" in (out / "summary.txt").read_text()

    def test_missing_labels_dir_exits_3(self, tmp_path, capsys):
        assert cli.main(["stats", "--labels", str(tmp_path / "nope"), "--out", str(tmp_path / "s")]) == 3
        assert "nope" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_bad_grid_exits_2(self, tmp_path):
        labels = tmp_path / "labels"
        labels.mkdir()
        assert cli.main(["stats", "--labels", str(labels), "--out", str(tmp_path / "s"),
                         "--grid", "nonsense"]) == 2

    def test_label_parse_failure_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        (labels / "000000.txt").write_text("Car 1 2\n")
        assert cli.main(["stats", "--labels", str(labels), "--out", str(tmp_path / "s")]) == 2
        assert "000000" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "matrixgt", "--help"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0
        assert "generate" in result.stdout

    @pytest.mark.parametrize("stage, module, unused", [
        ("evaluate", "matrixgt.evaluator", ["matrixgt.dataset_stats", "dataclasses", "inspect"]),
        ("stats", "matrixgt.dataset_stats", ["dataclasses", "inspect"]),
    ], ids=["evaluate", "stats"])
    def test_pure_python_stage_leaves_numpy_unloaded(self, stage, module, unused, tmp_path):
        """evaluate and stats import only the pure-Python stage module they
        run, and neither numpy nor dataclasses (nor the inspect module that
        dataclasses loads); -X importtime lists every module the child
        process imports."""
        argv = {"evaluate": _evaluate_argv, "stats": _stats_argv}[stage](tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "matrixgt", *argv],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")]
        assert module in imported
        assert not [name for name in unused if name in imported]
        assert not [name for name in imported if name.split(".")[0] == "numpy"]

    @pytest.mark.parametrize("stage", ["annotate", "oracle-labels"])
    def test_reading_stage_leaves_the_renderer_unloaded(self, stage, tiny_dataset, tmp_path):
        """annotate and oracle-labels read a dataset through the dataset
        module alone: neither loads the renderer, its random streams, the
        logging it warns through or any rational arithmetic."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "matrixgt", stage,
             "--in", str(tiny_dataset), "--out", str(tmp_path / "labels")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "matrixgt.dataset" in imported
        unwanted = ("matrixgt.scene_sim", "matrixgt.rng", "logging", "fractions", "decimal")
        assert not [name for name in unwanted if name in imported]

    def test_import_loads_no_stage_module(self):
        """``import matrixgt.cli``, which every stage starts with, compiles no
        stage module nor the fork runner, and loads neither numpy nor
        dataclasses."""
        code = "import sys\nimport matrixgt.cli\nprint(' '.join(sys.modules))\n"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        loaded = {name for module in result.stdout.split() for name in (module, module.split(".")[0])}
        unwanted = {"matrixgt.dataset", "matrixgt.evaluator", "matrixgt.fork_runner", "matrixgt.scene_sim", "numpy",
                    "dataclasses"}
        assert not loaded & unwanted, sorted(loaded & unwanted)

    def test_oracle_frame_labels_resolves_through_cli(self):
        from matrixgt import oracle_labels

        assert cli.oracle_frame_labels is oracle_labels.oracle_frame_labels
        with pytest.raises(AttributeError):
            cli.no_such_name

    def test_env_var_worker_fallback(self, tiny_dataset, tmp_path, monkeypatch):
        run_tasks = cli._run_tasks
        seen = []

        def spy(task_fn, tasks, workers):
            seen.append(workers)
            run_tasks(task_fn, tasks, workers)

        monkeypatch.setattr(cli, "_run_tasks", spy)
        digests = {}
        for env in ("2", None):
            if env is None:
                monkeypatch.delenv("MATRIXGT_WORKERS")
            else:
                monkeypatch.setenv("MATRIXGT_WORKERS", env)
            for command in ("annotate", "oracle-labels"):
                out = tmp_path / f"{command}-{env}"
                assert cli.main([command, "--in", str(tiny_dataset), "--out", str(out)]) == 0
                digests[command, env] = dir_digest(out)
        assert seen == [2, 2, 1, 1]
        for command in ("annotate", "oracle-labels"):
            assert digests[command, "2"] == digests[command, None]

    def test_pool_is_capped_at_the_task_count(self, monkeypatch):
        """Every worker is forked at once, so no more are asked for than there
        are tasks or CPUs that this process may use. The forked runner here
        is a stand-in that runs the tasks in this process and starts none, on
        two CPUs."""
        asked = []

        def serial_runner(task_fn, tasks, workers):
            asked.append(workers)
            for task in tasks:
                task_fn(task)

        monkeypatch.setattr(fork_runner, "run", serial_runner)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = []
        cli._run_tasks(done.append, [0, 1, 2], 64)
        cli._run_tasks(done.append, [3, 4, 5], 2)
        cli._run_tasks(done.append, [6], 64)
        cli._run_tasks(done.append, list(range(7, 47)), 99999999999999999999)
        assert asked == [2, 2, 2]
        assert done == list(range(47))
        assert cli._resolve_workers(0) == 2

    @pytest.mark.parametrize("tasks", [1, 300, 1024, 1025, 1_000_000])
    def test_chunk_queue_fits_in_one_pipe_write(self, tasks):
        """The forked runner writes the token of every chunk before its first
        fork, so the whole queue must fit in PIPE_BUF bytes, the least a pipe
        holds, up to the most frames a scenario allows. A chunk is one task
        while every task's token fits."""
        read_fd, write_fd = os.pipe()
        room = os.fpathconf(read_fd, "PC_PIPE_BUF")
        os.close(read_fd)
        os.close(write_fd)
        chunksize, queue = fork_runner.chunk_queue(tasks, room)
        assert len(queue) <= room
        size = fork_runner.TOKEN_BYTES
        starts = [int.from_bytes(queue[i:i + size], "little") for i in range(0, len(queue), size)]
        assert starts == list(range(0, tasks, chunksize))
        assert (chunksize == 1) == (tasks <= room // size)


def _assert_every_child_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedRunner:
    """``cli._run_tasks`` on more than one worker: forked children that claim
    tasks from a pipe one at a time, in task order; chunks of tasks appear
    only past 1,024 tasks. Two CPUs are stubbed in where a test needs the
    pool, so it forks on any host."""

    @pytest.mark.parametrize("stage", ["annotate", "oracle-labels"])
    def test_broken_frames_fail_alike_on_one_and_two_workers(self, stage, tmp_path, monkeypatch, capsys):
        """With frames 3 and 7 broken, one worker stops at frame 3. Two
        workers may meet frame 7 first, and still report frame 3's error."""
        scenario = tmp_path / "s.txt"
        scenario.write_text(TINY_SCENARIO.replace("frames=4", "frames=8"))
        dataset = tmp_path / "ds"
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(dataset)]) == 0
        stencil = ds.frame_paths(dataset, 3)["stencil"]
        stencil.write_bytes(stencil.read_bytes()[:-100])
        ds.frame_paths(dataset, 7)["meta"].write_text("not a record\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        verdicts = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MATRIXGT_WORKERS", workers)
            flags = ["--workers", "1"] if stage == "annotate" and workers == "1" else []
            code = cli.main([stage, "--in", str(dataset), "--out", str(tmp_path / workers), *flags])
            verdicts.append((code, capsys.readouterr().err))
        assert verdicts[0] == verdicts[1]
        code, err = verdicts[0]
        assert code == 2
        assert err.startswith("matrixgt: error: ") and "000003_stencil.mrb" in err, err
        _assert_every_child_reaped()

    def test_a_worker_killed_by_a_signal_fails_the_run(self, tiny_dataset, tmp_path, monkeypatch, capsys):
        """The run raises, and a stage fails with exit 3."""
        import signal

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def task(frame):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match=f"signal {int(signal.SIGKILL)}"):
            cli._run_tasks(task, list(range(8)), 2)
        monkeypatch.setattr(cli, "_annotate_task", task)
        assert cli.main(["annotate", "--in", str(tiny_dataset), "--out", str(tmp_path / "l"), "--workers", "2"]) == 3
        assert "worker process" in capsys.readouterr().err
        _assert_every_child_reaped()

    def test_a_child_never_returns_into_the_caller(self, monkeypatch):
        """A task that raises ``SystemExit`` in a child ends that child, not
        the run of this test."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def task(frame):
            if os.getpid() != parent:
                raise SystemExit(0)

        with pytest.raises(ChildProcessError, match="exit status 1"):
            cli._run_tasks(task, list(range(8)), 2)
        assert os.getpid() == parent
        _assert_every_child_reaped()

    def test_an_error_that_cannot_be_pickled_still_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        class Unpicklable(Exception):  # a local class cannot be pickled
            pass

        class TwoArguments(Exception):  # pickles, but cannot be unpickled
            def __init__(self, frame, why):
                super().__init__(f"frame {frame}: {why}")

        def task(frame):
            if frame == 5:
                raise Unpicklable("frame 5 is bad")
            if frame == 6:
                raise TwoArguments(frame, "bad too")

        with pytest.raises(RuntimeError, match="Unpicklable: frame 5 is bad"):
            cli._run_tasks(task, list(range(8)), 2)
        with pytest.raises(RuntimeError, match="TwoArguments: frame 6: bad too"):
            cli._run_tasks(task, list(range(6, 8)), 2)
        _assert_every_child_reaped()

    def test_an_interrupt_while_waiting_kills_and_reaps_the_workers(self, monkeypatch):
        """Ctrl-C (or a SIGTERM handler's ``SystemExit``) in the waiting
        process ends the run at once, with no worker left running."""
        import signal
        import time

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)  # a fork does not inherit the timer
            with pytest.raises(KeyboardInterrupt):
                cli._run_tasks(lambda frame: time.sleep(60), list(range(4)), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        _assert_every_child_reaped()

    @pytest.mark.skipif(cli._usable_cpus() < 2, reason="a pooled stage needs 2 usable CPUs to fork")
    def test_pooled_stage_loads_no_process_pool(self, tiny_dataset, tmp_path):
        """annotate on two workers forks them itself: neither multiprocessing
        nor concurrent.futures is loaded (-X importtime lists every module
        the stage and its workers import)."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "MATRIXGT_WORKERS": "2"}
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "matrixgt", "annotate",
             "--in", str(tiny_dataset), "--out", str(tmp_path / "labels")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "matrixgt.annotator" in imported
        assert not [name for name in imported if name.split(".")[0] in ("multiprocessing", "concurrent")]
        assert len(list((tmp_path / "labels").iterdir())) == 4


CAR_LINE = "Car 0.00 0 -10.00 10.00 10.00 50.00 60.00 -1.00 -1.00 -1.00 -1000.00 -1000.00 -1000.00 -10.00\n"


def _label_dir(root, name, line=CAR_LINE):
    directory = root / name
    directory.mkdir()
    (directory / "000000.txt").write_text(line)
    return directory


def _evaluate_argv(root, det_line=CAR_LINE, gt_line=CAR_LINE, iou="0.7"):
    det = _label_dir(root, "det", det_line)
    gt = _label_dir(root, "gt", gt_line)
    return ["evaluate", "--det", str(det), "--gt", str(gt), "--iou", iou, "--out", str(root / "r")]


def _stats_argv(root, *flags, line=CAR_LINE):
    return ["stats", "--labels", str(_label_dir(root, "l", line)), "--out", str(root / "s"), *flags]


def _generate_argv(root, scenario_text=TINY_SCENARIO):
    scenario = root / "s.txt"
    scenario.write_text(scenario_text)
    return ["generate", "--scenario", str(scenario), "--out", str(root / "ds")]


def _oracle_argv_wrong_manifest_size(root):
    # rasters are 96x72; the manifest claims another image size
    assert cli.main(_generate_argv(root)) == 0
    manifest = root / "ds" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("width=96\n", "width=120\n"))
    return ["oracle-labels", "--in", str(root / "ds"), "--out", str(root / "gt")]


ZERO_AREA_CAR_LINE = CAR_LINE.replace("50.00 60.00", "10.00 60.00")
# finite coordinates whose centroid (left + right) and area overflow a float
OVERFLOW_CAR_LINE = CAR_LINE.replace("10.00 10.00 50.00 60.00", "1e308 10.00 1.7e308 60.00")
# a well-ordered box whose area underflows to 0.0
UNDERFLOW_CAR_LINE = CAR_LINE.replace("10.00 10.00 50.00 60.00", "0 0 1e-200 1e-200")


def _corrupted_dataset_argv(command, corrupt):
    """Generate the tiny dataset, apply ``corrupt(frame 0 paths)``, then run ``command`` on it."""

    def make_argv(root):
        assert cli.main(_generate_argv(root)) == 0
        corrupt(ds.frame_paths(root / "ds", 0))
        return [command, "--in", str(root / "ds"), "--out", str(root / "out")]

    return make_argv


def _with_key(text, key, value):
    """key=value text with ``key`` set to ``value``, replaced or appended."""
    lines = [line for line in text.splitlines() if not line.startswith(key + "=")]
    return "\n".join(lines + [f"{key}={value}"]) + "\n"


def _scenario_key_argv(key, value):
    return lambda root: _generate_argv(root, _with_key(TINY_SCENARIO, key, value))


def _scenario_keys_argv(**pairs):
    """Generate with each of ``pairs`` set as a scenario key."""
    text = TINY_SCENARIO
    for key, value in pairs.items():
        text = _with_key(text, key, value)
    return lambda root: _generate_argv(root, text)


def _scenario_sizes_argv(value):
    """Generate with every vehicle and distractor size bound set to ``value``."""
    text = TINY_SCENARIO
    for name in ("vehicle_length", "vehicle_width", "vehicle_height", "distractor_size"):
        text = _with_key(_with_key(text, name + "_min", value), name + "_max", value)
    return lambda root: _generate_argv(root, text)


def _manifest_key(key, value):
    def corrupt(paths):
        manifest = paths["meta"].parent / ds.MANIFEST_NAME
        manifest.write_text(_with_key(manifest.read_text(), key, value))

    return corrupt


def _nan_depth_sample(paths):
    blob = bytearray(paths["depth"].read_bytes())
    blob[14:18] = np.array([np.nan], dtype="<f4").tobytes()
    paths["depth"].write_bytes(bytes(blob))


def _recast(key, dtype):
    """Rewrite a frame raster with another sample kind. Integer samples cast
    to F32 are scaled into [0, 1], the only F32 domain, so that only the
    sample kind is wrong."""

    def corrupt(paths):
        data = read_raster(paths[key]).data
        if np.dtype(dtype).kind == "f" and data.dtype.kind == "u":
            data = data / np.iinfo(data.dtype).max
        write_raster(Raster(data.astype(dtype)), paths[key])

    return corrupt


_MRB_DTYPES = {0: "<u1", 1: "<u2", 2: "<f4"}  # by the sample-kind byte of the header


def _fill_raster(key, value):
    """Set every sample of a frame raster to ``value``. The payload is written
    directly, so values that no Raster holds reach the reader."""

    def corrupt(paths):
        blob = paths[key].read_bytes()
        samples = np.frombuffer(blob, dtype=_MRB_DTYPES[blob[5]], offset=14)
        paths[key].write_bytes(blob[:14] + np.full_like(samples, value).tobytes())

    return corrupt


def _crop(*keys):
    """Cut frame rasters down to their top-left 4x4 pixels."""

    def corrupt(paths):
        for key in keys:
            write_raster(Raster(read_raster(paths[key]).data[:4, :4]), paths[key])

    return corrupt


def _meta_field(index, value):
    """Set field ``index`` (or a slice of fields) of the first meta record."""

    def corrupt(paths):
        first, *rest = paths["meta"].read_text().splitlines(keepends=True)
        parts = first.split()
        parts[index] = value
        paths["meta"].write_text(" ".join(parts) + "\n" + "".join(rest))

    return corrupt


def _meta_vehicle_box_area_underflows(paths):
    # the second record of frame 0 is a visible vehicle; its box becomes
    # well-ordered with an area that underflows to 0.0
    first, second, *rest = paths["meta"].read_text().splitlines(keepends=True)
    parts = second.split()
    parts[2:6] = ["0", "0", "1e-200", "1e-200"]
    paths["meta"].write_text(first + " ".join(parts) + "\n" + "".join(rest))


def _meta_not_utf8(paths):
    paths["meta"].write_bytes(b"\xff\xfe" + paths["meta"].read_bytes())


def _meta_duplicate_id(paths):
    first, second, *rest = paths["meta"].read_text().splitlines(keepends=True)
    second = " ".join([first.split()[0], *second.split()[1:]]) + "\n"
    paths["meta"].write_text(first + second + "".join(rest))


def _not_utf8(path):
    """Prefix a text file with a byte that no UTF-8 text starts with."""
    path.write_bytes(b"\xe9" + path.read_bytes())


def _manifest_not_utf8(paths):
    _not_utf8(paths["meta"].parent / ds.MANIFEST_NAME)


def _scenario_not_utf8_argv(root):
    argv = _generate_argv(root, "# caf\u00e9\n" + TINY_SCENARIO)
    (root / "s.txt").write_bytes((root / "s.txt").read_text().encode("latin-1"))
    return argv


def _evaluate_argv_label_not_utf8(root):
    argv = _evaluate_argv(root)
    _not_utf8(root / "det" / "000000.txt")
    return argv


def _stats_argv_label_not_utf8(root):
    argv = _stats_argv(root)
    _not_utf8(root / "l" / "000000.txt")
    return argv


def _evaluate_argv_gt_label_not_utf8(root):
    argv = _evaluate_argv(root)
    _not_utf8(root / "gt" / "000000.txt")
    return argv


# a Car with a negative truncation and an occlusion level below -1
OUT_OF_RANGE_CAR_LINE = CAR_LINE.replace("Car 0.00 0", "Car -0.50 -7")


def _with_label_entry(make_argv, labels, make_entry):
    """``make_argv``, with ``make_entry(path)`` making ``000001.txt`` in the
    ``labels`` directory."""

    def argv(root):
        result = make_argv(root)
        make_entry(root / labels / "000001.txt")
        return result

    return argv


def _dangling_symlink(path):
    path.symlink_to(path.parent / "no-such-file")


def _with_labels_path_a_file(make_argv, labels):
    """``make_argv``, with the ``labels`` directory replaced by a regular file."""

    def argv(root):
        result = make_argv(root)
        shutil.rmtree(root / labels)
        (root / labels).write_text(CAR_LINE)
        return result

    return argv


BAD_INPUTS = {
    # (environment, argv builder, expected exit code)
    "workers-env-not-integer": ({"MATRIXGT_WORKERS": "abc"}, _generate_argv, 2),
    "stats-image-0x0": ({}, lambda root: _stats_argv(root, "--image", "0x0"), 2),
    "stats-image-three-parts": ({}, lambda root: _stats_argv(root, "--image", "640x480x3"), 2),
    "stats-grid-three-parts": ({}, lambda root: _stats_argv(root, "--grid", "48x27x9"), 2),
    "stats-grid-over-cell-cap": ({}, lambda root: _stats_argv(root, "--grid", "1025x1025"), 2),
    "evaluate-iou-above-1": ({}, lambda root: _evaluate_argv(root, iou="5"), 2),
    "evaluate-iou-0": ({}, lambda root: _evaluate_argv(root, iou="0"), 2),
    "zero-area-det-box": ({}, lambda root: _evaluate_argv(root, det_line=ZERO_AREA_CAR_LINE), 4),
    "zero-area-gt-box": ({}, lambda root: _evaluate_argv(root, gt_line=ZERO_AREA_CAR_LINE), 4),
    "stats-zero-area-car-box": ({}, lambda root: _stats_argv(root, line=ZERO_AREA_CAR_LINE), 4),
    "evaluate-car-box-overflows": (
        {}, lambda root: _evaluate_argv(root, det_line=OVERFLOW_CAR_LINE, gt_line=OVERFLOW_CAR_LINE), 4
    ),
    "stats-car-box-overflows": ({}, lambda root: _stats_argv(root, line=OVERFLOW_CAR_LINE), 4),
    "evaluate-det-car-box-area-underflows": ({}, lambda root: _evaluate_argv(root, det_line=UNDERFLOW_CAR_LINE), 4),
    "evaluate-gt-car-box-area-underflows": ({}, lambda root: _evaluate_argv(root, gt_line=UNDERFLOW_CAR_LINE), 4),
    "stats-car-box-area-underflows": ({}, lambda root: _stats_argv(root, line=UNDERFLOW_CAR_LINE), 4),
    "placement-region-crosses-near-plane": (
        {},
        lambda root: _generate_argv(
            root, TINY_SCENARIO.replace("region_z_min=8.0", "region_z_min=0.2").replace(
                "region_z_max=20.0", "region_z_max=0.3")
        ),
        2,
    ),
    # sizes below the meta files' resolution, or every candidate lies partly
    # behind the near plane
    "generate-sizes-give-zero-area-boxes": ({}, _scenario_sizes_argv("1e-300"), 2),
    "generate-height-written-as-0": (
        {}, _scenario_keys_argv(vehicle_height_min="1e-9", vehicle_height_max="1e-9"), 2
    ),
    # a ground slab box whose top and bottom are written as the same four decimals
    "generate-ground-box-flat-as-written": ({}, _scenario_keys_argv(fx="1e10", fy="1e-10"), 2),
    "generate-sizes-reach-behind-near-plane": ({}, _scenario_sizes_argv("1e305"), 2),
    "oracle-manifest-size-differs-from-rasters": ({}, _oracle_argv_wrong_manifest_size, 4),
    "nan-truncation": (
        {},
        lambda root: _evaluate_argv(root, gt_line=CAR_LINE.replace("Car 0.00", "Car nan")),
        2,
    ),
    # raster sample kinds and values
    "annotate-nan-depth-sample": ({}, _corrupted_dataset_argv("annotate", _nan_depth_sample), 2),
    "annotate-u16-stencil": ({}, _corrupted_dataset_argv("annotate", _recast("stencil", np.uint16)), 2),
    "oracle-u16-stencil": ({}, _corrupted_dataset_argv("oracle-labels", _recast("stencil", np.uint16)), 2),
    "oracle-f32-instance": ({}, _corrupted_dataset_argv("oracle-labels", _recast("instance", np.float32)), 2),
    "annotate-f32-stencil": ({}, _corrupted_dataset_argv("annotate", _recast("stencil", np.float32)), 2),
    "annotate-u8-depth": ({}, _corrupted_dataset_argv("annotate", _recast("depth", np.uint8)), 2),
    # meta records: fields 2-5 are the coarse box, 6 the range, 7 the height
    "annotate-meta-nan-coarse-box": ({}, _corrupted_dataset_argv("annotate", _meta_field(2, "nan")), 2),
    "oracle-meta-nan-coarse-box": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(2, "nan")), 2),
    "annotate-meta-negative-range": ({}, _corrupted_dataset_argv("annotate", _meta_field(6, "-1")), 2),
    "oracle-meta-negative-range": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(6, "-1")), 2),
    "annotate-meta-inf-height": ({}, _corrupted_dataset_argv("annotate", _meta_field(7, "inf")), 2),
    # field 13 is the yaw, which must lie in [-pi, pi] at the file's four decimals
    "annotate-meta-yaw-above-pi": ({}, _corrupted_dataset_argv("annotate", _meta_field(13, "1e308")), 2),
    "oracle-meta-yaw-above-pi": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(13, "1e308")), 2),
    "oracle-meta-inf-height": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(7, "inf")), 2),
    "annotate-meta-not-utf8": ({}, _corrupted_dataset_argv("annotate", _meta_not_utf8), 2),
    "annotate-meta-box-area-underflows": (
        {}, _corrupted_dataset_argv("annotate", _meta_vehicle_box_area_underflows), 2
    ),
    "oracle-meta-box-area-underflows": (
        {}, _corrupted_dataset_argv("oracle-labels", _meta_vehicle_box_area_underflows), 2
    ),
    # text inputs that are not UTF-8
    "generate-scenario-not-utf8": ({}, _scenario_not_utf8_argv, 2),
    "annotate-manifest-not-utf8": ({}, _corrupted_dataset_argv("annotate", _manifest_not_utf8), 2),
    "oracle-manifest-not-utf8": ({}, _corrupted_dataset_argv("oracle-labels", _manifest_not_utf8), 2),
    "evaluate-label-not-utf8": ({}, _evaluate_argv_label_not_utf8, 2),
    "stats-label-not-utf8": ({}, _stats_argv_label_not_utf8, 2),
    "evaluate-gt-label-not-utf8": ({}, _evaluate_argv_gt_label_not_utf8, 2),
    # a Car's truncation lies in [0, 1] and its occlusion level is 0..3
    "evaluate-det-car-out-of-range": ({}, lambda root: _evaluate_argv(root, det_line=OUT_OF_RANGE_CAR_LINE), 2),
    "evaluate-gt-car-out-of-range": ({}, lambda root: _evaluate_argv(root, gt_line=OUT_OF_RANGE_CAR_LINE), 2),
    "stats-car-out-of-range": ({}, lambda root: _stats_argv(root, line=OUT_OF_RANGE_CAR_LINE), 2),
    "evaluate-gt-car-truncation-above-1": (
        {}, lambda root: _evaluate_argv(root, gt_line=CAR_LINE.replace("Car 0.00 0", "Car 1.50 0")), 2
    ),
    "stats-car-occlusion-4": ({}, lambda root: _stats_argv(root, line=CAR_LINE.replace("Car 0.00 0", "Car 0.00 4")), 2),
    # a *.txt entry that is not a readable file, and a label path that is a file
    "evaluate-label-entry-is-a-directory": ({}, _with_label_entry(_evaluate_argv, "det", Path.mkdir), 3),
    "stats-label-entry-is-a-directory": ({}, _with_label_entry(_stats_argv, "l", Path.mkdir), 3),
    "evaluate-label-entry-is-a-dangling-symlink": ({}, _with_label_entry(_evaluate_argv, "gt", _dangling_symlink), 3),
    "stats-label-entry-is-a-dangling-symlink": ({}, _with_label_entry(_stats_argv, "l", _dangling_symlink), 3),
    "evaluate-det-path-is-a-file": ({}, _with_labels_path_a_file(_evaluate_argv, "det"), 3),
    "stats-labels-path-is-a-file": ({}, _with_labels_path_a_file(_stats_argv, "l"), 3),
    # meta object ids: 1..65535 (U16 instance ids, 0 is no object), each once per file
    "annotate-meta-id-0": ({}, _corrupted_dataset_argv("annotate", _meta_field(0, "0")), 2),
    "oracle-meta-id-0": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(0, "0")), 2),
    "annotate-meta-id-negative": ({}, _corrupted_dataset_argv("annotate", _meta_field(0, "-5")), 2),
    "oracle-meta-id-negative": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(0, "-5")), 2),
    "annotate-meta-id-above-u16": ({}, _corrupted_dataset_argv("annotate", _meta_field(0, "70000")), 2),
    "oracle-meta-id-above-u16": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(0, "70000")), 2),
    "annotate-meta-duplicate-id": ({}, _corrupted_dataset_argv("annotate", _meta_duplicate_id), 2),
    "oracle-meta-duplicate-id": ({}, _corrupted_dataset_argv("oracle-labels", _meta_duplicate_id), 2),
    # non-finite scenario and manifest numbers; NaN passes every range comparison
    "scenario-nan-fx": ({}, _scenario_key_argv("fx", "nan"), 2),
    "scenario-nan-camera-height": ({}, _scenario_key_argv("camera_height_m", "nan"), 2),
    "scenario-nan-vehicle-length-min": ({}, _scenario_key_argv("vehicle_length_min", "nan"), 2),
    "scenario-nan-region-x-min": ({}, _scenario_key_argv("region_x_min", "nan"), 2),
    "scenario-inf-region-z-max": ({}, _scenario_key_argv("region_z_max", "inf"), 2),
    "scenario-nan-record-max-range": ({}, _scenario_key_argv("record_max_range_m", "nan"), 2),
    "scenario-nan-min-depth-gap": ({}, _scenario_key_argv("min_depth_gap_m", "nan"), 2),
    "scenario-inf-coarse-box-inflate": ({}, _scenario_key_argv("coarse_box_inflate_pct", "inf"), 2),
    # frame files carry a six-digit index, so frames is capped at 10^6
    "generate-frames-above-cap": ({}, _scenario_key_argv("frames", "1000001"), 2),
    "annotate-manifest-frames-above-cap": (
        {}, _corrupted_dataset_argv("annotate", _manifest_key("frames", "1000001")), 2
    ),
    # frame buffers take ~32 bytes per pixel, so images are capped at 2^24 pixels
    "generate-image-above-pixel-cap": (
        {}, lambda root: _generate_argv(root, _with_key(_with_key(TINY_SCENARIO, "width", "100000"), "height", "100000")), 2
    ),
    "annotate-manifest-image-above-pixel-cap": (
        {}, _corrupted_dataset_argv("annotate", _manifest_key("width", "233017")), 2
    ),
    "oracle-manifest-image-above-pixel-cap": (
        {}, _corrupted_dataset_argv("oracle-labels", _manifest_key("width", "233017")), 2
    ),
    "annotate-manifest-nan-fx": ({}, _corrupted_dataset_argv("annotate", _manifest_key("fx", "nan")), 2),
    "oracle-manifest-nan-camera-height": (
        {}, _corrupted_dataset_argv("oracle-labels", _manifest_key("camera_height_m", "nan")), 2
    ),
    # a frame's rasters are checked on read, once, against the manifest and the
    # domain generate writes: a size that differs exits 4, a value outside it 2
    "annotate-stencil-and-depth-4x4": ({}, _corrupted_dataset_argv("annotate", _crop("stencil", "depth")), 4),
    "annotate-stencil-4x4": ({}, _corrupted_dataset_argv("annotate", _crop("stencil")), 4),
    "oracle-stencil-4x4": ({}, _corrupted_dataset_argv("oracle-labels", _crop("stencil")), 4),
    "annotate-depth-minus-5": ({}, _corrupted_dataset_argv("annotate", _fill_raster("depth", -5.0)), 2),
    "annotate-depth-3e38": ({}, _corrupted_dataset_argv("annotate", _fill_raster("depth", 3e38)), 2),
    "annotate-stencil-0xff": ({}, _corrupted_dataset_argv("annotate", _fill_raster("stencil", 0xFF)), 2),
    "oracle-stencil-0xff": ({}, _corrupted_dataset_argv("oracle-labels", _fill_raster("stencil", 0xFF)), 2),
    # fields 7-9 are the height, width and length
    "annotate-meta-size-0": ({}, _corrupted_dataset_argv("annotate", _meta_field(slice(7, 10), ["0"] * 3)), 2),
    "oracle-meta-size-0": ({}, _corrupted_dataset_argv("oracle-labels", _meta_field(slice(7, 10), ["0"] * 3)), 2),
    # a focal length this large projects the ground slab and every object to
    # infinite boxes, which no meta file may hold
    "generate-fx-1e308": ({}, _scenario_key_argv("fx", "1e308"), 2),
    # object ids are U16 instance values, so a frame holds at most 65535 objects
    "generate-vehicle-count-above-u16-ids": ({}, _scenario_key_argv("vehicle_count_max", "70000"), 2),
    "generate-fx-1e308-ground-only": (
        {},
        lambda root: _generate_argv(root, _with_key(_with_key(_with_key(_with_key(
            TINY_SCENARIO, "fx", "1e308"), "vehicle_count_min", "0"), "vehicle_count_max", "0"),
            "distractor_count_max", "0")),
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_without_traceback(case, tmp_path, monkeypatch, capsys):
    env, make_argv, code = BAD_INPUTS[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(make_argv(tmp_path)) == code
    prefix = "matrixgt: i/o error:" if code == cli.EXIT_IO else "matrixgt: error:"
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("pairs", [
    dict(region_x_min="-1e300", region_x_max="1e300"),
    dict(vehicle_height_min="1e300", vehicle_height_max="1e300"),
    dict(camera_height_m="1e300"),
], ids=["region-x-1e300", "vehicle-height-1e300", "camera-height-1e300"])
def test_huge_finite_scenario_values_run_every_reading_stage(pairs, tmp_path):
    """Finite centers whose distance from the camera squared overflows: the
    records' range is still finite, so generate, annotate and oracle-labels
    all exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "MATRIXGT_WORKERS": "1"}
    argv = _scenario_keys_argv(frames="2", **pairs)(tmp_path)
    for command in (argv, ["annotate", "--in", str(tmp_path / "ds"), "--out", str(tmp_path / "det")],
                    ["oracle-labels", "--in", str(tmp_path / "ds"), "--out", str(tmp_path / "gt")]):
        result = subprocess.run([sys.executable, "-m", "matrixgt", *command], capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0 and "Traceback" not in result.stderr, (command, result.stderr)


def _fifo_in_place_of(path):
    path.unlink(missing_ok=True)
    os.mkfifo(path)
    return path


def _frame_file_a_fifo(command, kind):
    """``command`` on the tiny dataset, with frame 1's ``kind`` file a FIFO."""

    def make(root):
        assert cli.main(_generate_argv(root)) == 0
        path = _fifo_in_place_of(ds.frame_paths(root / "ds", 1)[kind])
        return [command, "--in", str(root / "ds"), "--out", str(root / "out")], path

    return make


def _evaluate_det_label_a_fifo(root):
    argv = _evaluate_argv(root)
    return argv, _fifo_in_place_of(root / "det" / "000000.txt")


def _stats_label_a_device(root):
    argv = _stats_argv(root)
    path = root / "l" / "000000.txt"
    path.unlink()
    path.symlink_to("/dev/zero")
    return argv, path


def _generate_scenario_a_fifo(root):
    argv = _generate_argv(root)
    return argv, _fifo_in_place_of(root / "s.txt")


# (builder of argv and of the input made a FIFO or a device)
NON_REGULAR_INPUTS = {
    "evaluate-det-label-is-a-fifo": _evaluate_det_label_a_fifo,
    "annotate-meta-is-a-fifo": _frame_file_a_fifo("annotate", "meta"),
    "stats-label-is-a-symlink-to-a-device": _stats_label_a_device,
    "oracle-instance-is-a-fifo": _frame_file_a_fifo("oracle-labels", "instance"),
    "generate-scenario-is-a-fifo": _generate_scenario_a_fifo,
}


def _exits_3_naming(argv, path):
    """Run a stage in a child process with a timeout and 1 GiB of address
    space, so a stall or an endless read fails the test instead of stalling
    the suite or filling the host's memory; it must exit 3 naming ``path``."""
    import resource

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "MATRIXGT_WORKERS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "matrixgt", *argv], capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert result.returncode == cli.EXIT_IO, result.stderr
    assert result.stderr.startswith("matrixgt: i/o error:") and str(path) in result.stderr, result.stderr


@pytest.mark.parametrize("case", sorted(NON_REGULAR_INPUTS))
def test_an_input_that_is_not_a_regular_file_exits_3(case, tmp_path):
    """Opening a FIFO waits for a writer and a device such as /dev/zero never
    ends, so a stage reads only regular files and exits 3, naming the path,
    for anything else."""
    _exits_3_naming(*NON_REGULAR_INPUTS[case](tmp_path))


def _output_a_fifo(make_argv, output):
    """``make_argv``'s stage, with the file ``output(root)`` already there as
    a FIFO that nothing reads."""

    def make(root):
        argv = make_argv(root)
        path = output(root)
        path.parent.mkdir(parents=True, exist_ok=True)
        os.mkfifo(path)
        return argv, path

    return make


def _annotate_argv(root):
    assert cli.main(_generate_argv(root)) == 0
    return ["annotate", "--in", str(root / "ds"), "--out", str(root / "L")]


def _oracle_label_a_device(root):
    assert cli.main(_generate_argv(root)) == 0
    path = root / "gt" / "000000.txt"
    path.parent.mkdir()
    path.symlink_to("/dev/null")
    return ["oracle-labels", "--in", str(root / "ds"), "--out", str(root / "gt")], path


# (builder of argv and of the output that is a FIFO or a device)
NON_REGULAR_OUTPUTS = {
    "annotate-label-is-a-fifo": _output_a_fifo(_annotate_argv, lambda root: root / "L" / "000000.txt"),
    "evaluate-report-is-a-fifo": _output_a_fifo(_evaluate_argv, lambda root: root / "r" / "report.txt"),
    "stats-summary-is-a-fifo": _output_a_fifo(_stats_argv, lambda root: root / "s" / "summary.txt"),
    "generate-meta-is-a-fifo": _output_a_fifo(_generate_argv, lambda root: ds.frame_paths(root / "ds", 0)["meta"]),
    # a regular manifest is removed before the first frame; this one is left, and the last write fails
    "generate-manifest-is-a-fifo": _output_a_fifo(_generate_argv, lambda root: root / "ds" / ds.MANIFEST_NAME),
    "oracle-label-is-a-symlink-to-a-device": _oracle_label_a_device,
}


@pytest.mark.parametrize("case", sorted(NON_REGULAR_OUTPUTS))
def test_an_output_that_is_not_a_regular_file_exits_3(case, tmp_path):
    """Opening a FIFO for writing waits for a reader, and a device takes what
    it is given, so a stage writes only regular files and exits 3, naming the
    path, for anything else."""
    _exits_3_naming(*NON_REGULAR_OUTPUTS[case](tmp_path))


@pytest.mark.parametrize("stage, limit, cut", [
    ("generate", 1_000_000, "000000_depth.mrb"),  # its 640x480 depth raster holds 1,228,814 bytes
    ("annotate", 100, "000000.txt"),
    ("oracle-labels", 100, "000000.txt"),
])
def test_a_failed_write_names_its_file_and_leaves_no_cut_file(stage, limit, cut, tmp_path):
    """A stage whose write fails part-way, here at a file size limit that acts
    only on its child process, exits 3 naming the file and removes it, so no
    cut file is left to pass for a whole one."""
    import resource

    scenario = tmp_path / "scenario.txt"
    scenario.write_text(ACCEPTANCE_SCENARIO.replace("frames=200", "frames=2"))
    dataset, out = tmp_path / "ds", tmp_path / "out"
    if stage == "generate":
        argv = ["generate", "--scenario", str(scenario), "--out", str(out)]
    else:
        assert cli.main(["generate", "--scenario", str(scenario), "--out", str(dataset)]) == 0
        argv = [stage, "--in", str(dataset), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "MATRIXGT_WORKERS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "matrixgt", *argv], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert result.returncode == cli.EXIT_IO, result.stderr
    assert result.stderr == f"matrixgt: i/o error: [Errno {errno.EFBIG}] File too large: {str(out / cut)!r}\n"
    assert list(out.iterdir()) == []  # frame 0 failed first, and its cut file is gone


# KITTI has no box sentinel, so a box with no area, or whose centroid or area
# overflows, is rejected whatever the label's type
DEFECTIVE_BOX_LINES = {
    "zero-area-car": ZERO_AREA_CAR_LINE,
    "inverted-dontcare": "DontCare -1 -1 -10 50 60 10 10 -1 -1 -1 -1000 -1000 -1000 -10\n",
    "dontcare-centroid-overflows": "DontCare -1 -1 -10 1e308 10 1.7e308 60 -1 -1 -1 -1000 -1000 -1000 -10\n",
    "car-area-underflows": UNDERFLOW_CAR_LINE,
    "inverted-van": CAR_LINE.replace("Car", "Van").replace("10.00 10.00 50.00 60.00", "50.00 10.00 10.00 60.00"),
}
LABEL_READERS = {
    # (argv builder for a label line, directory that holds it)
    "evaluate-det": (lambda root, line: _evaluate_argv(root, det_line=line), "det"),
    "evaluate-gt": (lambda root, line: _evaluate_argv(root, gt_line=line), "gt"),
    "stats": (lambda root, line: _stats_argv(root, line=line), "l"),
}


@pytest.mark.parametrize("line", sorted(DEFECTIVE_BOX_LINES))
@pytest.mark.parametrize("reader", sorted(LABEL_READERS))
def test_one_label_one_verdict(reader, line, tmp_path, capsys):
    """Every stage that reads labels gives a defective box one exit code, 4,
    and a message naming the file as opened and the line."""
    make_argv, directory = LABEL_READERS[reader]
    assert cli.main(make_argv(tmp_path, DEFECTIVE_BOX_LINES[line])) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"matrixgt: error: {tmp_path / directory / '000000.txt'} line 1: ")


@pytest.mark.parametrize("side", ["det", "gt"])
def test_evaluate_label_parse_errors_name_the_directory(side, tmp_path, capsys):
    argv = _evaluate_argv(tmp_path, **{f"{side}_line": CAR_LINE.replace("Car 0.00", "Car nan")})
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"matrixgt: error: {tmp_path / side / '000000.txt'} line 1: ")


# --- whole stages over one mutated file ----------------------------------------

_FUZZ_FRAMES = 2
_FUZZ_FILES = ("depth", "stencil", "instance", "meta", "manifest")
_FUZZ_TOKENS = ["0", "-0", "-1", "1", "2.5", "65535", "65536", "1e308", "-1e308", "1e-300", "nan", "inf", "3.1416",
                "3.1417", "Vehicle", "Ground", "Distractor", "x", ""]
_FUZZ_SAMPLES = {
    "depth": [0.0, -0.0, 1.0, 0.5, -5.0, 1.0000001, 3e38, float("nan"), float("inf")],
    "stencil": [0, 1, 2, 3, 4, 15, 0x12, 0xF3, 0xFF],
    "instance": [0, 1, 2, 3, 7, 65535],
}


@st.composite
def _mutations(draw):
    """One change to one file of a valid dataset, as a plain tuple:
    ``(kind, frame, file, *arguments)``."""
    kind = draw(st.sampled_from(["flip", "truncate", "meta-field", "sample", "resize"]))
    frame = draw(st.integers(0, _FUZZ_FRAMES - 1))
    if kind in ("flip", "truncate"):
        return kind, frame, draw(st.sampled_from(_FUZZ_FILES)), draw(st.integers(0, 2**31)), draw(st.integers(0, 7))
    if kind == "meta-field":
        return kind, frame, "meta", draw(st.integers(0, 9)), draw(st.integers(0, 13)), draw(st.sampled_from(_FUZZ_TOKENS))
    key = draw(st.sampled_from(sorted(_FUZZ_SAMPLES)))
    if kind == "sample":
        return kind, frame, key, draw(st.integers(0, 2**31)), draw(st.sampled_from(_FUZZ_SAMPLES[key]))
    return kind, frame, key, draw(st.integers(1, 120)), draw(st.integers(1, 90))


def _mutate(dataset, mutation):
    kind, frame, key, *args = mutation
    path = dataset / ds.MANIFEST_NAME if key == "manifest" else ds.frame_paths(dataset, frame)[key]
    blob = bytearray(path.read_bytes())
    if kind == "flip":
        position, bit = args
        blob[position % len(blob)] ^= 1 << bit
    elif kind == "truncate":
        del blob[args[0] % len(blob):]
    elif kind == "meta-field":
        line, field, token = args
        lines = blob.decode().splitlines()
        parts = lines[line % len(lines)].split()
        parts[field] = token
        lines[line % len(lines)] = " ".join(parts)
        blob = bytearray("\n".join(lines).encode() + b"\n")
    else:
        samples = np.frombuffer(bytes(blob), dtype=_MRB_DTYPES[blob[5]], offset=14).copy()
        if kind == "sample":
            position, value = args
            samples[position % samples.size] = value
            blob[14:] = samples.tobytes()
        else:  # tile or cut the raster to width x height
            width, height = args
            rows = samples.reshape(struct.unpack("<I", blob[10:14])[0], -1)
            resized = np.tile(rows, (height // rows.shape[0] + 1, width // rows.shape[1] + 1))[:height, :width]
            blob = blob[:6] + struct.pack("<II", width, height) + resized.tobytes()
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scenario = root / "s.txt"
    scenario.write_text(TINY_SCENARIO.replace("frames=4", f"frames={_FUZZ_FRAMES}"))
    assert cli.main(["generate", "--scenario", str(scenario), "--out", str(root / "ds")]) == 0
    return root / "ds"


@settings(max_examples=80, deadline=None)
@given(_mutations())
def test_stages_on_a_mutated_dataset_keep_the_exit_code_contract(fuzz_dataset, tmp_path_factory, mutation):
    """annotate, oracle-labels, evaluate and stats on a dataset with one file
    changed: every exit code is in the contract (an exception fails the
    test), a file that both label stages read gives both one exit code, and
    a stage that succeeds writes the same bytes when run again."""
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    dataset = root / "ds"
    shutil.copytree(fuzz_dataset, dataset)
    _mutate(dataset, mutation)
    stages = {
        "annotate": lambda out: ["annotate", "--in", str(dataset), "--out", str(out)],
        "oracle-labels": lambda out: ["oracle-labels", "--in", str(dataset), "--out", str(out)],
        "evaluate": lambda out: ["evaluate", "--det", str(root / "annotate"), "--gt", str(root / "oracle-labels"),
                                 "--out", str(out)],
        "stats": lambda out: ["stats", "--labels", str(root / "annotate"), "--out", str(out), "--image", "96x72"],
    }
    codes = {}
    for stage, argv in stages.items():
        codes[stage] = cli.main(argv(root / stage))
        assert codes[stage] in (0, 2, 3, 4), (stage, codes[stage])
        if codes[stage] == 0:
            assert cli.main(argv(root / f"{stage}-again")) == 0, stage
            assert dir_digest(root / stage) == dir_digest(root / f"{stage}-again"), stage
    if mutation[2] in ("stencil", "meta", "manifest"):
        assert codes["annotate"] == codes["oracle-labels"], codes
    shutil.rmtree(root)


# --- same bytes at every numpy SIMD dispatch level ---------------------------

# numpy reads NPY_DISABLE_CPU_FEATURES once per process, at import
SIMD_CAPS = {
    "uncapped": "",
    "no-avx512": "X86_V4",
    "no-avx2": "X86_V4 X86_V3 AVX2 FMA3 F16C AVX",
}

# the three reading and writing stages on each scenario, then the hash of a
# float64 log, whose rounding depends on the SIMD code numpy dispatches to
_SIMD_CHILD = """\
import hashlib, sys
from pathlib import Path
import numpy as np
from matrixgt import cli
root, out = Path(sys.argv[1]), Path(sys.argv[2])
for scenario in sorted(root.glob("*.txt")):
    run = out / scenario.stem
    for argv in (["generate", "--scenario", str(scenario), "--out", str(run / "ds")],
                 ["annotate", "--in", str(run / "ds"), "--out", str(run / "det")],
                 ["oracle-labels", "--in", str(run / "ds"), "--out", str(run / "gt")]):
        if cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed on {scenario.name}")
print(hashlib.sha256(np.log(np.linspace(1e-3, 1e3, 1 << 20)).tobytes()).hexdigest())
"""


def _first_differing_file(a, b):
    files = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    return next(
        (f for f in files if not ((a / f).is_file() and (b / f).is_file() and (a / f).read_bytes() == (b / f).read_bytes())),
        None,
    )


def test_bytes_are_the_same_at_every_numpy_simd_dispatch_level(tmp_path):
    """``generate``, ``annotate`` and ``oracle-labels`` write the same bytes
    whether numpy may dispatch to AVX-512, only up to AVX, or to neither, on
    a few frames of the acceptance and the crowd shape. Each cap runs in its
    own child process. A sentinel in the same child, a float64 ``np.log``
    whose hash moves with the SIMD code that computes it, shows that a cap
    took effect; if no cap moved it, the host has nothing to cap and the test
    skips rather than pass vacuously.

    Out of reach here: non-x86 hosts, whose numpy dispatches other code, and
    the libm behind Python's own ``math`` functions, which no numpy setting
    changes."""
    crowd = ACCEPTANCE_SCENARIO
    for key, value in CROWD_KEYS.items():
        crowd = _with_key(crowd, key, value)
    for name, text in (("acceptance", ACCEPTANCE_SCENARIO), ("crowd", crowd)):
        (tmp_path / f"{name}.txt").write_text(_with_key(text, "frames", 8))
    sentinel = {}
    for cap, features in SIMD_CAPS.items():
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "MATRIXGT_WORKERS": "1",
               "OPENBLAS_NUM_THREADS": "1", "NPY_DISABLE_CPU_FEATURES": features}
        result = subprocess.run([sys.executable, "-c", _SIMD_CHILD, str(tmp_path), str(tmp_path / cap)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, (cap, result.stderr)
        sentinel[cap] = result.stdout.strip()
        assert dir_digest(tmp_path / cap) == dir_digest(tmp_path / "uncapped"), (
            f"{cap}: {_first_differing_file(tmp_path / 'uncapped', tmp_path / cap)} differs from the uncapped run")
    if all(sentinel[cap] == sentinel["uncapped"] for cap in SIMD_CAPS):
        pytest.skip("NPY_DISABLE_CPU_FEATURES moved no float64 log on this host, so no cap took effect")


def test_benchmark_replay_writes_what_the_cli_writes(tmp_path, monkeypatch):
    """``perfbench/replay.py`` runs the stages in process for ``--trace 1`` and
    requires the CLI's bytes. This guard keeps a change to the package from
    breaking that unseen, until the replay is retired."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import replay

    scenario = tmp_path / "s.txt"
    scenario.write_text(TINY_SCENARIO)
    want, got = tmp_path / "cli", tmp_path / "replay"
    d = {name: want / name for name in ("dataset", "det", "gt", "report", "stats")}
    for argv in (
        ["generate", "--scenario", str(scenario), "--out", str(d["dataset"])],
        ["annotate", "--in", str(d["dataset"]), "--out", str(d["det"])],
        ["oracle-labels", "--in", str(d["dataset"]), "--out", str(d["gt"])],
        ["evaluate", "--det", str(d["det"]), "--gt", str(d["gt"]), "--ap", "11pt", "--out", str(d["report"])],
        ["stats", "--labels", str(d["det"]), "--out", str(d["stats"]), "--image", "96x72"],
    ):
        assert cli.main(argv) == 0, argv[0]
    replay.replay(scenario, {name: got / name for name in d}, 1, "11pt")
    for name in d:
        assert dir_digest(got / name) == dir_digest(want / name), name
