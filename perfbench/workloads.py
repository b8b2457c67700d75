"""The benchmark's workloads: scenario text, worker count, AP method, checks.

The seed is a benchmark argument; the program only ever sees the scenario
file written from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 20260809

# tests/conftest.py::ACCEPTANCE_SCENARIO without its seed line, key for key
# (a self-test keeps the two in step).
ACCEPTANCE_KEYS = {
    "frames": "200",
    "width": "640",
    "height": "480",
    "fx": "700.0",
    "fy": "700.0",
    "cx": "320.0",
    "cy": "240.0",
    "camera_height_m": "1.6",
    "vehicle_count_min": "3",
    "vehicle_count_max": "8",
    "distractor_count_min": "0",
    "distractor_count_max": "2",
    "vehicle_length_min": "3.8",
    "vehicle_length_max": "4.6",
    "vehicle_width_min": "1.7",
    "vehicle_width_max": "2.0",
    "vehicle_height_min": "1.4",
    "vehicle_height_max": "2.2",
    "vehicle_yaw_max_deg": "14.0",
    "region_x_min": "-24.0",
    "region_x_max": "24.0",
    "region_z_min": "26.0",
    "region_z_max": "68.0",
    "min_depth_gap_m": "14.0",
    "max_overlap_frac": "0.25",
    "coarse_box_inflate_pct": "0.10",
    "emit_color": "0",
}

CROWD_KEYS = {
    **ACCEPTANCE_KEYS,
    "frames": "300",
    "width": "320",
    "height": "240",
    "fx": "350.0",
    "fy": "350.0",
    "cx": "160.0",
    "cy": "120.0",
    "vehicle_count_min": "14",
    "vehicle_count_max": "22",
    "distractor_count_max": "4",
    "region_z_min": "12.0",
    "region_z_max": "80.0",
    "min_depth_gap_m": "0.0",
    "max_overlap_frac": "1.0",
    "record_max_range_m": "60.0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict
    workers: int
    ap_method: str
    pins: str  # file under pins/ with the per-frame digests of the default seed
    ap_floor: Optional[float]  # acceptance criterion 4, where it applies

    @property
    def frames(self) -> int:
        return int(self.keys["frames"])

    @property
    def image(self) -> tuple[int, int]:
        return int(self.keys["width"]), int(self.keys["height"])

    def scenario_text(self, seed: int) -> str:
        pairs = {"seed": str(seed), **self.keys}
        return "".join(f"{k}={v}\n" for k, v in pairs.items())


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


# Serial, per-pixel-bound acceptance against parallel, per-object-bound
# crowd. Two workloads leave each run long enough to be steady on a shared
# host. The crowd pins were taken at one worker, so checking them at a worker
# per CPU also checks worker-count invariance.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance-w1",
            "north-star 200-frame 640x480 acceptance scenario at one worker; per-pixel work dominates",
            ACCEPTANCE_KEYS,
            workers=1,
            ap_method="11pt",
            pins="acceptance.json",
            ap_floor=0.95,
        ),
        Workload(
            "crowd-qvga-par",
            "300 crowded 320x240 frames, a worker per CPU; per-object work dominates and the CLI fans out to a process pool",
            CROWD_KEYS,
            workers=cpu_count(),
            ap_method="all",
            pins="crowd-qvga.json",
            ap_floor=None,
        ),
    )
}
