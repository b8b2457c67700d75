"""Independent reference implementations the tests check the package against.

Everything here is deliberately written in a different style from the package
(plain loops, dicts, ray casting) so the two sides can only agree by being
correct, except `brute_force_depth`, which by design shares the per-triangle
arithmetic path and exercises only the z-buffer bookkeeping.
"""

import math

import numpy as np

from matrixgt import scene_sim as ss


def cuboid_corners(obj):
    """The 8 corners of an object's oriented cuboid in camera space, shape
    (8, 3), as a matrix product through numpy (and so BLAS)."""
    length, width, height = obj.size
    half = np.array(ss._CORNER_SIGNS, dtype=np.float64) * np.array([length / 2.0, height / 2.0, width / 2.0])
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return half @ rot.T + np.asarray(obj.center, dtype=np.float64)


def brute_force_buffers(camera, scene):
    """Nearest-surface depth, class code and object id per pixel via
    full-image evaluation of every triangle, back faces included, and an
    explicit strict-less minimum in draw order; shares the
    projection/coverage arithmetic with the renderer, so agreement must be
    bit-exact."""
    height, width = camera.height, camera.width
    px = np.arange(width, dtype=np.float64) + 0.5
    py = (np.arange(height, dtype=np.float64) + 0.5)[:, None]
    zmin = np.full((height, width), np.inf)
    codes = np.zeros((height, width), dtype=np.uint8)
    ids = np.zeros((height, width), dtype=np.uint16)
    for tri, code, oid in ss.scene_screen_triangles(camera, scene):
        result = ss.triangle_coverage_depth(tri, px, py)
        if result is None:
            continue
        covered, z = result
        better = covered & (z < zmin)
        zmin[better] = z[better]
        codes[better] = code
        ids[better] = oid
    return zmin, codes, ids


def brute_force_depth(camera, scene):
    """Depth plane of :func:`brute_force_buffers`."""
    return brute_force_buffers(camera, scene)[0]


def ray_cast_depth(camera, scene):
    """Fully independent geometric oracle: ray/plane intersection per face
    with image-space barycentric containment. Far pixels stay at +inf."""
    height, width = camera.height, camera.width
    near = camera.depth_params.near_m
    zmin = np.full((height, width), np.inf)
    ex = np.arange(width) + 0.5
    ey = (np.arange(height) + 0.5)[:, None]
    for obj in sorted(scene, key=lambda o: o.object_id):
        corners = cuboid_corners(obj)
        if corners[:, 2].min() <= near:
            continue
        for tri in ss._FACE_TRIANGLES:
            p0, p1, p2 = corners[list(tri)]
            normal = np.cross(p1 - p0, p2 - p0)
            # ray direction ((u-cx)/fx, (v-cy)/fy, 1); z of the hit equals t
            du = (ex - camera.cx) / camera.fx
            dv = (ey - camera.cy) / camera.fy
            denom = normal[0] * du + normal[1] * dv + normal[2]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = float(normal @ p0) / denom
            q = [
                (camera.fx * p[0] / p[2] + camera.cx, camera.fy * p[1] / p[2] + camera.cy)
                for p in (p0, p1, p2)
            ]
            d1 = (q[1][0] - q[0][0], q[1][1] - q[0][1])
            d2 = (q[2][0] - q[0][0], q[2][1] - q[0][1])
            det = d1[0] * d2[1] - d1[1] * d2[0]
            if det == 0.0:
                continue
            rx = ex - q[0][0]
            ry = ey - q[0][1]
            beta = (rx * d2[1] - ry * d2[0]) / det
            gamma = (ry * d1[0] - rx * d1[1]) / det
            inside = (beta >= 0) & (gamma >= 0) & (beta + gamma <= 1) & np.isfinite(t) & (t > near)
            better = inside & (t < zmin)
            zmin[better] = t[better]
    return zmin


def brute_match_frame(dets, gts, iou_thr, level):
    """Reference greedy matcher over plain dicts.

    dets: list of {"box": (l, t, r, b), "score": s}
    gts: list of {"box": ..., "difficulty": int, "dontcare": bool}
    Returns outcomes aligned with the score-sorted detections.
    """

    def area(box):
        return (box[2] - box[0]) * (box[3] - box[1])

    def overlap(a, b):
        w = min(a[2], b[2]) - max(a[0], b[0])
        h = min(a[3], b[3]) - max(a[1], b[1])
        if w <= 0 or h <= 0:
            return 0.0
        return (w * h) / (area(a) + area(b) - w * h)

    order = sorted(range(len(dets)), key=lambda i: (-dets[i]["score"], dets[i]["box"][0], dets[i]["box"][1]))
    taken = set()
    outcomes = []
    for i in order:
        required_best = None
        ignore_best = None
        for j, gt in enumerate(gts):
            if j in taken:
                continue
            v = overlap(dets[i]["box"], gt["box"])
            if v < iou_thr:
                continue
            required = (not gt["dontcare"]) and gt["difficulty"] <= level
            if required:
                if required_best is None or v > required_best[1]:
                    required_best = (j, v)
            elif ignore_best is None or v > ignore_best[1]:
                ignore_best = (j, v)
        if required_best is not None:
            taken.add(required_best[0])
            outcomes.append((i, "TP"))
        elif ignore_best is not None:
            taken.add(ignore_best[0])
            outcomes.append((i, "Ignored"))
        else:
            outcomes.append((i, "FP"))
    return outcomes


def brute_ap_all(points):
    """Reference all-point AP of a (recall, precision) curve: at each recall
    step, the step width times the best precision at or after that point,
    summed in curve order."""
    total = 0.0
    prev_recall = 0.0
    for i in range(len(points)):
        recall = points[i][0]
        if recall == prev_recall:
            continue
        best = max(precision for _, precision in points[i:])
        total += (recall - prev_recall) * best
        prev_recall = recall
    return total


def brute_ap_11pt(counted, gt_count):
    """Reference 11-point AP from (score, left, top, is_tp) tuples of counted
    (non-ignored) detections."""
    if gt_count == 0:
        return None
    rows = sorted(counted, key=lambda r: (-r[0], r[1], r[2]))
    tp = 0
    fp = 0
    points = []
    for row in rows:
        if row[3]:
            tp += 1
        else:
            fp += 1
        points.append((tp / gt_count, tp / (tp + fp)))
    total = 0.0
    for i in range(11):
        threshold = i / 10.0
        best = 0.0
        for recall, precision in points:
            if recall >= threshold and precision > best:
                best = precision
        total += best
    return total / 11.0
