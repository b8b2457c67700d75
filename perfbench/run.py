#!/usr/bin/env python3
"""Pipeline benchmark for matrixgt.

Runs the five stages a user runs, ``generate -> annotate -> oracle-labels ->
evaluate -> stats``, each as one ``python -m matrixgt`` child process, back
to back from this process: a closed loop with one client, because matrixgt
is a batch tool. Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics: passes over the stages are
repeated while the next one is expected to end within ``--seconds``, and each
stage reports its median time at reference host speed (see ``HostClock``).
``--trace 1`` runs the pipeline once through the CLI
(process metrics and reference outputs), then replays it in process with
spans around each layer call (``replay.py``) and reports per-layer metrics;
the replay's outputs must be byte-identical to the CLI's.

Every output is checked (``checks.py``). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.perfbench/`` in the repository root and each run's
dataset is deleted before the next run starts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_DIR = WORK / "run"
BENCH_SPEC = ROOT / "BENCHMARK.json"
PINS_DIR = Path(__file__).resolve().parent / "pins"

HOST_PROBE = Path(__file__).resolve().parent / "hostprobe.py"
HOST_PROBE_OUTPUT = "2740214075.058316"  # its checksum (a self-test keeps it current)

STAGES = ("generate", "annotate", "oracle", "evaluate", "stats")
SETUP_REPEATS = 5
MB = 1e6
# hostprobe.py's wall time on the 2-CPU host this benchmark was written on,
# when that host was quiet: the speed that reported times are scaled to
REFERENCE_PROBE_S = 0.200
# matrixgt makes no BLAS calls, but numpy's OpenBLAS starts a spinning thread
# per CPU at import, which competes with the stage (and with the pool's
# workers) for the CPUs
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _scrubbed(key: str) -> bool:
    # glibc malloc settings change how often generate page-faults, and
    # MATRIXGT_* changes what the CLI does, so none may leak into a run
    return key.startswith(("MATRIXGT_", "MALLOC_", "OPENBLAS_")) or key == "GLIBC_TUNABLES"


def bench_env(base: dict[str, str]) -> dict[str, str]:
    """``base`` without the scrubbed variables, with the pinned ones."""
    return {k: v for k, v in base.items() if not _scrubbed(k)} | PINNED_ENV


def stage_env(workers: int) -> dict[str, str]:
    env = bench_env(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    env["MATRIXGT_WORKERS"] = str(workers)
    return env


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    user_s: float
    sys_s: float
    minflt: int
    maxrss_mb: float
    probe: int = -1  # index of the host probe run just before it (HostClock)


def run_children(commands: list[tuple[list[str], Path, str]], env: dict[str, str]) -> list[ChildRun]:
    """Start ``python <args>`` for every (args, log, out) at once, standard
    output to ``out`` and standard error to ``log``, and wait for all. A
    child's wall time runs from the common start to its end; its own rusage
    comes from wait4 and covers the pool workers it waited for."""
    pids: list[int] = []
    runs: list[ChildRun] = []
    start = time.perf_counter()
    try:
        for args, log, out in commands:
            actions = [
                (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            ]
            # its own process group, so that its pool workers can be stopped with it
            pids.append(os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions, setpgroup=0))
        for pid in pids:
            _, status, ru = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            runs.append(
                ChildRun(
                    os.waitstatus_to_exitcode(status),
                    wall,
                    ru.ru_utime,
                    ru.ru_stime,
                    ru.ru_minflt,
                    ru.ru_maxrss * 1024 / MB,
                )
            )
    except BaseException:  # SIGINT, or SIGTERM through the handler in main()
        for pid in pids[len(runs):]:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return runs


def run_child(args: list[str], env: dict[str, str], log: Path) -> ChildRun:
    return run_children([(args, log, os.devnull)], env)[0]


@dataclass
class Sample:
    wall_s: float
    probe: int  # index of the host probe run just before it


class HostClock:
    """How fast the shared host runs, beside every timed step.

    The host's speed drifts by up to 1.5x from one minute to the next, and
    CPU time drifts with it. So before every timed step ``timed`` runs a
    fixed reference job (``hostprobe.py``) as a child, and the caller runs
    ``probe`` once more at the end, so that each step lies between two. A
    probe runs one copy of the job per worker of the workload at once, so
    that it loads the CPUs a stage's pool loads, and lasts until all end. A
    step's time at reference host speed is its wall time times
    ``REFERENCE_PROBE_S`` over the mean of those two probes' wall times.
    """

    def __init__(self, copies: int = 1) -> None:
        self.copies = copies
        self.probes: list[float] = []

    def probe(self) -> int:
        """Run the reference job; return its index."""
        files = [(WORK / f"hostprobe-{i}.log", WORK / f"hostprobe-{i}.out") for i in range(self.copies)]
        runs = run_children([([str(HOST_PROBE)], log, str(out)) for log, out in files], bench_env(dict(os.environ)))
        for child, (log, out) in zip(runs, files):
            if child.exit_code != 0 or out.read_text().strip() != HOST_PROBE_OUTPUT:
                raise SystemExit(f"perfbench: the host probe failed (see {log})")
        self.probes.append(max(child.wall_s for child in runs))
        return len(self.probes) - 1

    def timed(self, args: list[str], env: dict[str, str], log: Path) -> ChildRun:
        probe = self.probe()
        child = run_child(args, env, log)
        child.probe = probe
        return child

    def scale(self, step: ChildRun | Sample) -> float:
        before, after = self.probes[step.probe], self.probes[step.probe + 1]
        return REFERENCE_PROBE_S * 2 / (before + after)

    def ref_s(self, step: ChildRun | Sample) -> float:
        return step.wall_s * self.scale(step)


# output directory of each stage, named as the replay names them
OUT_DIRS = {"generate": "dataset", "annotate": "det", "oracle": "gt", "evaluate": "report", "stats": "stats"}
# What a measuring run may repeat, largest first: the whole pipeline, the
# stages downstream of generate on its dataset, and a tail of evaluate alone.
# evaluate is short and mostly interpreter start, so it needs many samples.
PASSES = (STAGES, STAGES[1:], ("evaluate",) * 3)
PER_FRAME_STAGES = {"generate", "annotate", "oracle"}


def stage_dirs() -> dict[str, Path]:
    return {name: RUN_DIR / name for name in OUT_DIRS.values()}


def stage_args(stage: str, w: Workload, dirs: dict[str, Path]) -> list[str]:
    d = {k: str(v) for k, v in dirs.items()}
    width, height = w.image
    return ["-m", "matrixgt"] + {
        "generate": ["generate", "--scenario", str(RUN_DIR / "scenario.txt"), "--out", d["dataset"]],
        "annotate": ["annotate", "--in", d["dataset"], "--out", d["det"]],
        "oracle": ["oracle-labels", "--in", d["dataset"], "--out", d["gt"]],
        "evaluate": ["evaluate", "--det", d["det"], "--gt", d["gt"], "--ap", w.ap_method, "--out", d["report"]],
        "stats": ["stats", "--labels", d["det"], "--out", d["stats"], "--image", f"{width}x{height}"],
    }[stage]


def set_up(w: Workload, seed: int, clock: HostClock) -> tuple[Sample, float]:
    """Fresh run directory, scenario file, and a child that imports the CLI.
    Returns the set-up time and the child's start plus import seconds."""
    probe = clock.probe()
    start = time.perf_counter()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir(parents=True)
    (RUN_DIR / "scenario.txt").write_text(w.scenario_text(seed))
    child = run_child(["-c", "import matrixgt.cli"], stage_env(w.workers), WORK / "import.log")
    if child.exit_code != 0:
        raise SystemExit(f"perfbench: cannot import matrixgt.cli (see {WORK / 'import.log'})")
    return Sample(time.perf_counter() - start, probe), child.wall_s


@dataclass
class Pass:
    runs: list[tuple[str, ChildRun]]  # (stage, run) in order
    aps: dict[str, float | None]
    dataset_bytes: int


def flush(directory: Path) -> None:
    """fsync every file a stage wrote. Otherwise the kernel writes the
    dataset back about 30 s later, inside whichever stage runs then."""
    if not directory.is_dir():
        return
    for path in directory.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def cli_pass(
    w: Workload, stages: tuple[str, ...], label: str, pins: list[str] | None, tally: checks.Tally, clock: HostClock
) -> Pass:
    """Run the given CLI stages in order into the run directory and check
    what they wrote."""
    dirs = stage_dirs()
    for stage in stages:
        shutil.rmtree(dirs[OUT_DIRS[stage]], ignore_errors=True)
    env = stage_env(w.workers)
    runs = []
    for stage in stages:
        runs.append((stage, clock.timed(stage_args(stage, w, dirs), env, WORK / f"{stage}.log")))
        flush(dirs[OUT_DIRS[stage]])

    report = dirs["report"] / "report.csv"
    aps = checks.read_ap(report) if "evaluate" in stages and report.exists() else {}
    for stage, run in runs:
        expected = {
            "generate": checks.dataset_names(w.frames),
            "annotate": checks.label_names(w.frames),
            "oracle": checks.label_names(w.frames),
        }.get(stage)
        extras = checks.extra_files(dirs[OUT_DIRS[stage]], expected) if expected else []
        ok = run.exit_code == 0 and not extras
        detail = f"exit {run.exit_code}" + (f", extra files {extras[:3]}" if extras else "")
        if stage == "evaluate":
            ok = ok and bool(aps) and checks.ap_meets_floor(aps, w.ap_floor)
            detail += f", AP {aps}"
        tally.check(ok, f"{label} {stage}: {detail}")

    if PER_FRAME_STAGES.intersection(stages):
        digests = checks.frame_digests(dirs["dataset"], dirs["det"], dirs["gt"], w.frames)
        for i, digest in enumerate(digests):
            if digest is None:
                tally.check(False, f"{label} frame {i}: missing file")
            else:
                tally.check(pins is None or digest == pins[i], f"{label} frame {i}: digest {digest} differs from pin")
    dataset_bytes = sum(p.stat().st_size for p in dirs["dataset"].glob("*")) if "generate" in stages else 0
    print(f"  {label}: " + ", ".join(f"{s} {r.wall_s:.3f} s" for s, r in runs), flush=True)
    return Pass(runs, aps, dataset_bytes)


def measure(w: Workload, seconds: float, pins: list[str] | None, tally: checks.Tally, clock: HostClock) -> list[Pass]:
    """Run the whole pipeline once, then, while the next pass is expected to
    end within ``seconds``, alternate an evaluate tail with the longest pass
    that fits."""
    passes: list[Pass] = []
    latest: dict[str, float] = {}  # last wall time of each stage
    overhead = 0.0  # time a pass spends outside its stages (probes, checks, cleanup)
    start = time.perf_counter()
    stages = PASSES[0]
    while True:
        began = time.perf_counter()
        p = cli_pass(w, stages, f"pass {len(passes) + 1}", pins, tally, clock)
        passes.append(p)
        latest.update({s: r.wall_s for s, r in p.runs})
        overhead = time.perf_counter() - began - sum(r.wall_s for _, r in p.runs)
        remaining = seconds - (time.perf_counter() - start)
        fits = [ps for ps in PASSES if sum(latest[s] for s in ps) + overhead <= remaining]
        if not fits:
            return passes
        # a tail after every longer pass spreads evaluate's samples over the
        # run instead of bunching them at its end
        stages = fits[-1] if stages != PASSES[-1] else fits[0]


def end_to_end(
    w: Workload, setups: list[Sample], passes: list[Pass], tally: checks.Tally, clock: HostClock
) -> dict:
    ref = {s: statistics.median(clock.ref_s(r) for p in passes for st, r in p.runs if st == s) for s in STAGES}
    first = passes[0]
    print("  stage medians at reference host speed: " + ", ".join(f"{s} {t:.3f} s" for s, t in ref.items()))
    return {
        "setup_s": (statistics.median(clock.ref_s(s) for s in setups), "s"),
        "pipeline_s": (sum(ref.values()), "s"),
        "evaluate_s": (ref["evaluate"], "s"),
        "peak_rss_mb": (max(r.maxrss_mb for p in passes for _, r in p.runs), "MB"),
        "dataset_mb_per_frame": (first.dataset_bytes / MB / w.frames, "MB"),
        "ap_moderate": (first.aps.get("Moderate") or 0.0, "AP"),
        "ap_hard": (first.aps.get("Hard") or 0.0, "AP"),
        "ok_frac": (1.0 - tally.failed_frac, "frac"),
    }


def process_metrics(w: Workload, cli: Pass, import_s: float, clock: HostClock) -> dict:
    out = {"python.import_s": (import_s, "s"), "host.probe_s": (statistics.median(clock.probes), "s")}
    for stage, child in cli.runs:
        out[f"{stage}.ref_s"] = (clock.ref_s(child), "s")
        out[f"{stage}.user_s"] = (child.user_s, "s")
        out[f"{stage}.sys_s"] = (child.sys_s, "s")
        out[f"{stage}.minflt_per_frame"] = (child.minflt / w.frames, "count")
        out[f"{stage}.maxrss_mb"] = (child.maxrss_mb, "MB")
    return out


def traced(w: Workload, cli: Pass, import_s: float, tally: checks.Tally, clock: HostClock) -> dict:
    """Replay the stages in process and check them against the CLI outputs."""
    # imported only now: a child spawned after numpy and matrixgt are loaded
    # here would report this process's peak RSS as its own
    import replay

    dirs = stage_dirs()
    reference = {name: checks.tree_digests(d) for name, d in dirs.items()}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
    probe = clock.probe()
    result = replay.replay(RUN_DIR / "scenario.txt", dirs, w.workers, w.ap_method)
    clock.probe()  # the probe after the replay
    for name, d in dirs.items():
        same = reference[name] == checks.tree_digests(d)
        tally.check(same, f"replay {name}: outputs {'match' if same else 'differ from'} the CLI run")
    result.tracer.write(WORK / f"trace-{w.name}.json")

    metrics = replay.layer_metrics(result)
    metrics.update(process_metrics(w, cli, import_s, clock))
    # both sides at reference host speed, so that host drift between the
    # CLI pass and the replay does not show as overhead
    untraced_s = sum((c.wall_s - import_s) * clock.scale(c) for _, c in cli.runs)
    traced_s = clock.ref_s(Sample(sum(replay.stage_walls_s(result.tracer).values()), probe))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return metrics


def stolen_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs since boot
    (the steal column of /proc/stat). Wall times grow by what it takes."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    fs_type, mount = "unknown", ""
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1]
            if str(WORK).startswith(point.rstrip("/") + "/") and len(point) > len(mount):
                fs_type, mount = fields[2], point
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),  # importing it would grow this process
        "commit": commit,
        "output_fs": fs_type,
        "cache_state": "not controlled (page cache and CPU frequency left as found)",
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[checks.Tally, dict]:
    pins = checks.load_pins(PINS_DIR / w.pins) if seed == DEFAULT_SEED else None
    tally = checks.Tally()
    clock = HostClock(w.workers)
    setups = [set_up(w, seed, clock) for _ in range(SETUP_REPEATS)]
    import_s = statistics.median(i for _, i in setups)
    try:
        if trace:
            cli = cli_pass(w, STAGES, "cli", pins, tally, clock)
            return tally, traced(w, cli, import_s, tally, clock)
        passes = measure(w, seconds, pins, tally, clock)
        clock.probe()  # the probe after the last stage
        return tally, end_to_end(w, [s for s, _ in setups], passes, tally, clock)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)


def expected_units(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCH_SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh benchmark process. A child reports the peak
    RSS of the process it was spawned from as its own, so the process that
    spawns stage children must not have run a replay (numpy, matrixgt)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv], stdout=subprocess.PIPE, text=True) as child:
            try:
                lines = child.communicate()[0].splitlines()
            except BaseException:
                child.terminate()  # lets it stop its own stage child first
                child.wait()
                raise
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perfbench: workload {name} printed no result")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56.0)  # BENCHMARK.json run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = bench_env(dict(os.environ))
    if env != dict(os.environ):
        # the in-process replay must run in the same environment
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if not (SRC / "matrixgt" / "cli.py").is_file():
        print(f"perfbench: no matrixgt source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    shutil.rmtree(RUN_DIR, ignore_errors=True)  # a dataset left by an interrupted run

    w = WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))
    print(f"workload {w.name}: seed {args.seed}, workers {w.workers}, ap {w.ap_method}, trace {args.trace}")
    stolen = stolen_s()
    tally, metrics = run_workload(w, args.seed, args.seconds, bool(args.trace))
    print(f"  host: {stolen_s() - stolen:.2f} s of CPU time stolen by the hypervisor during the run")
    if {k: u for k, (_, u) in metrics.items()} != expected_units(bool(args.trace)):
        raise SystemExit(f"perfbench: metrics of {w.name} do not match {BENCH_SPEC.name}")
    for failure in tally.failures:
        print(f"  FAIL {failure}")
    print(f"  checks: {tally.attempted} attempted, {tally.failed} failed, failed_frac {tally.failed_frac:g}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
