"""Independent reference implementations the tests check the package against.

Everything here is deliberately written in a different style from the package
(plain loops, dicts, ray casting) so the two sides can only agree by being
correct. `triangle_coverage_depth` is the exception in style: it spells out
the renderer's per-pixel arithmetic one triangle at a time over whole arrays,
so that `brute_force_buffers` must agree with the renderer bit for bit. That
oracle takes its triangles from `scene_sim.scene_screen_triangles`, so it
shares the renderer's corner projection and triangulation; only its per-pixel
arithmetic is written independently. `ray_cast_depth` computes corners and
hits on its own, and shares only the corner order and the face tables.
"""

import math
import re
from pathlib import Path

import numpy as np

from matrixgt import dataset as ds
from matrixgt import scene_sim as ss


def cuboid_corners(obj):
    """The 8 corners of an object's oriented cuboid in camera space, shape
    (8, 3), as a matrix product through numpy (and so BLAS)."""
    length, width, height = obj.size
    half = np.array(ds._CORNER_SIGNS, dtype=np.float64) * np.array([length / 2.0, height / 2.0, width / 2.0])
    c, s = math.cos(obj.yaw), math.sin(obj.yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return half @ rot.T + np.asarray(obj.center, dtype=np.float64)


def _edge_accepts(w, ax, ay, bx, by):
    """Half-plane test with the top-left tie rule for edge a->b of a
    positively oriented triangle (y-down): w > 0 inside, w == 0 counts only on
    top edges (dy == 0, dx > 0) and left edges (dy < 0)."""
    dy = by - ay
    if dy < 0.0 or (dy == 0.0 and bx - ax > 0.0):
        return w >= 0.0
    return w > 0.0


def triangle_coverage_depth(tri, px, py):
    """Coverage and camera-space depth of one projected triangle at pixel centers.

    ``tri`` is three ``(x, y, 1/z)`` vertices: screen coordinates and the
    inverse camera depth. ``px``/``py`` are broadcastable float64 arrays of
    pixel-center coordinates. Returns ``(covered, z)`` arrays, or None for
    degenerate (zero-area) triangles. Either winding is accepted: the vertex
    order is normalized to positive orientation first, so a triangle and its
    mirror-wound copy give the same values. Depth comes from barycentric
    interpolation of 1/z, which is exact for planar faces; ``z`` is
    meaningful only where ``covered``.

    Each edge function is ``(x2-x1)*(py-y1) - (y2-y1)*(px-x1)``, a per-row
    term minus a per-column term, and ``z`` is
    ``((w0+w1)+w2) / ((w0*i0 + w1*i1) + w2*i2)``: the operations and their
    order that the renderer's flat pass performs per pixel, so both give
    bit-identical values wherever both evaluate a pixel.
    """
    (x0, y0, i0), (x1, y1, i1), (x2, y2, i2) = tri
    area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if area == 0.0:
        return None
    if area < 0.0:
        x1, y1, i1, x2, y2, i2 = x2, y2, i2, x1, y1, i1
    w0 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    w1 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)
    w2 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
    covered = _edge_accepts(w0, x1, y1, x2, y2)
    covered &= _edge_accepts(w1, x2, y2, x0, y0)
    covered &= _edge_accepts(w2, x0, y0, x1, y1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = ((w0 + w1) + w2) / ((w0 * i0 + w1 * i1) + w2 * i2)
    return covered, z


def brute_force_buffers(camera, scene):
    """Nearest-surface depth, class code and object id per pixel via
    full-image evaluation of every triangle, back faces included, and an
    explicit strict-less minimum in draw order; the per-pixel arithmetic of
    :func:`triangle_coverage_depth` is the renderer's, so agreement must be
    bit-exact."""
    height, width = camera.height, camera.width
    px = np.arange(width, dtype=np.float64) + 0.5
    py = (np.arange(height, dtype=np.float64) + 0.5)[:, None]
    zmin = np.full((height, width), np.inf)
    codes = np.zeros((height, width), dtype=np.uint8)
    ids = np.zeros((height, width), dtype=np.uint16)
    for tri, code, oid in ss.scene_screen_triangles(camera, scene):
        result = triangle_coverage_depth(tri, px, py)
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


# every line boundary str.splitlines knows; "\r\n" is one boundary
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


class ReferenceLabelError(ValueError):
    """A label text the reference rejects, with the 1-based line it rejects
    and, when read from a directory, the file's path."""

    def __init__(self, lineno, name=None):
        super().__init__(f"{name} line {lineno}")
        self.lineno = lineno
        self.name = name


class ReferenceBoxError(ReferenceLabelError):
    """A well-formed label line whose box the reference rejects."""


def _box_rejected(box):
    """Whether a box of finite floats encloses no area, or whose centroid or
    doubled area overflows: width and height must be positive, their product
    must not underflow to zero, and ``math.fsum``, which raises where a sum
    of finite floats overflows, must add both coordinate pairs and the area
    to itself."""
    left, top, right, bottom = box
    width = right - left
    height = bottom - top
    if width <= 0 or height <= 0 or width * height == 0:
        return True
    try:
        return any(math.isinf(math.fsum(pair)) for pair in ((left, right), (top, bottom), (width * height,) * 2))
    except OverflowError:
        return True


def reference_parse_labels(text):
    """The labels of a KITTI label text as dicts keyed by field name, split
    with regular expressions instead of ``str.splitlines``/``str.split``.
    The first line with a field count other than 15 or 16, a field that is
    not a number, a NaN or infinity, or a Car truncation outside [0, 1] or
    occlusion outside 0..3 raises :class:`ReferenceLabelError`; then a box
    that :func:`_box_rejected` raises :class:`ReferenceBoxError`."""
    labels = []
    for index, line in enumerate(_LINE_BREAK.split(text)):
        fields = re.findall(r"\S+", line)
        if not fields:
            continue
        try:
            if len(fields) not in (15, 16):
                raise ValueError
            truncated = float(fields[1])
            occluded = int(fields[2])
            numbers = [float(field) for field in fields[3:]]
        except ValueError:
            raise ReferenceLabelError(index + 1) from None
        for value in [truncated] + numbers:
            if value != value or value in (math.inf, -math.inf):
                raise ReferenceLabelError(index + 1)
        if fields[0] == "Car" and not (0.0 <= truncated <= 1.0 and occluded in (0, 1, 2, 3)):
            raise ReferenceLabelError(index + 1)
        if _box_rejected(numbers[1:5]):
            raise ReferenceBoxError(index + 1)
        labels.append({
            "type": fields[0],
            "truncated": truncated,
            "occluded": occluded,
            "alpha": numbers[0],
            "bbox": tuple(numbers[1:5]),
            "dimensions": tuple(numbers[5:8]),
            "location": tuple(numbers[8:11]),
            "rotation_y": numbers[11],
            "score": numbers[12] if len(numbers) == 13 else None,
        })
    return labels


def reference_read_label_dir(directory):
    """Labels of a directory as ``pathlib`` globs and sorts its ``*.txt``
    entries, keyed by ``Path.stem``; an error names the file by its path."""
    labels = {}
    for path in sorted(Path(directory).glob("*.txt")):
        try:
            labels[path.stem] = reference_parse_labels(path.read_text(encoding="utf-8"))
        except ReferenceLabelError as exc:
            raise type(exc)(exc.lineno, str(path)) from None
    return labels
