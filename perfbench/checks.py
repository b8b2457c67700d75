"""Correctness checks on a pipeline's outputs and the count of failed operations.

An attempted operation is one stage invocation or one frame's expected
output. A stage invocation fails on a non-zero exit, on a file in its output
directory that no frame or manifest accounts for, and (evaluate, where the
workload has a floor) on an AP below the floor. A frame fails when one of its
dataset or label files is missing or, for the default seed, when its digest
differs from the pinned one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence

DATASET_SUFFIXES = ("_depth.mrb", "_instance.mrb", "_meta.txt", "_stencil.mrb")
MANIFEST_NAME = "manifest.txt"
AP_LEVELS = ("Easy", "Moderate", "Hard")


class Tally:
    """Attempted operations and the ones that failed, with a reason each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def dataset_names(frames: int) -> set[str]:
    names = {f"{i:06d}{suffix}" for i in range(frames) for suffix in DATASET_SUFFIXES}
    return names | {MANIFEST_NAME}


def label_names(frames: int) -> set[str]:
    return {f"{i:06d}.txt" for i in range(frames)}


def extra_files(directory: Path, expected: set[str]) -> list[str]:
    if not directory.is_dir():
        return []
    return sorted(p.name for p in directory.iterdir() if p.name not in expected)


def frame_paths(dataset: Path, det: Path, gt: Path, frame: int) -> list[Path]:
    """The files one frame's digest covers, in digest order."""
    stem = f"{frame:06d}"
    return [dataset / (stem + s) for s in DATASET_SUFFIXES] + [det / f"{stem}.txt", gt / f"{stem}.txt"]


def frame_digest(paths: Sequence[Path]) -> Optional[str]:
    """Digest over the frame's files, or None when one is missing."""
    h = hashlib.sha256()
    for path in paths:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        h.update(f"{path.parent.name}/{path.name}:{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()[:32]


def frame_digests(dataset: Path, det: Path, gt: Path, frames: int) -> list[Optional[str]]:
    return [frame_digest(frame_paths(dataset, det, gt, i)) for i in range(frames)]


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def read_ap(report_csv: Path) -> dict[str, Optional[float]]:
    """Per-level AP from evaluate's report.csv (None for ``n/a``)."""
    out: dict[str, Optional[float]] = {}
    for line in report_csv.read_text().splitlines()[1:]:
        level, ap = line.split(",")[:2]
        out[level] = None if ap == "n/a" else float(ap)
    return out


def ap_meets_floor(aps: dict[str, Optional[float]], floor: Optional[float]) -> bool:
    if floor is None:
        return True
    return all(aps.get(level) is not None and aps[level] >= floor for level in AP_LEVELS)


def load_pins(path: Path) -> list[str]:
    return json.loads(path.read_text())["frames"]
