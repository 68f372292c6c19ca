"""Box algebra for paired-box tracking.

Boxes are center-parameterized (cx, cy, w, h); corner form is computed on
demand. A PairedBox holds the same object's boxes in two adjacent frames
and flattens to 8 scalars. Overlap measures come in the plain 2D flavor
and a paired ("3D") flavor that sums areas over both frames.

Suppression (``nms2d``, ``nms3d``) works on row arrays and is lazy: it
computes corners and areas once, and each kept row clears only the later
rows it overlaps, so its cost grows with rows x kept and no n x n overlap
matrix is built.

Degenerate (zero-area) boxes are legal inputs; every ratio involving an
empty union or enclosure is defined to 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BBox",
    "PairedBox",
    "iou",
    "giou",
    "iou3d",
    "giou3d",
    "nms2d",
    "nms3d",
    "iou_matrix",
    "iou3d_matrix",
    "overlap",
]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with center (cx, cy), width w and height h, in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def corners(self) -> tuple[float, float, float, float]:
        """Return (x1, y1, x2, y2) with x1 <= x2 and y1 <= y2."""
        return (
            self.cx - 0.5 * self.w,
            self.cy - 0.5 * self.h,
            self.cx + 0.5 * self.w,
            self.cy + 0.5 * self.h,
        )

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "BBox":
        return cls(0.5 * (x1 + x2), 0.5 * (y1 + y2), x2 - x1, y2 - y1)

    @property
    def area(self) -> float:
        return max(self.w, 0.0) * max(self.h, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True)
class PairedBox:
    """Same-identity boxes in two adjacent frames; the 8-scalar sample unit."""

    prev: BBox
    cur: BBox

    def flatten(self) -> np.ndarray:
        """Flatten to [prev.cx, prev.cy, prev.w, prev.h, cur.cx, cur.cy, cur.w, cur.h]."""
        return np.concatenate([self.prev.as_array(), self.cur.as_array()])

    @classmethod
    def from_flat(cls, row: Sequence[float]) -> "PairedBox":
        r = np.asarray(row, dtype=np.float64)
        if r.shape != (8,):
            raise ValueError(f"paired box row must have 8 scalars, got shape {r.shape}")
        return cls(BBox(*r[:4]), BBox(*r[4:]))


def _corner_area(box: BBox) -> float:
    # Derived from corner form so intersections never exceed it in float.
    x1, y1, x2, y2 = box.corners()
    return max(x2 - x1, 0.0) * max(y2 - y1, 0.0)


def _intersection_area(a: BBox, b: BBox) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def _enclosing_area(a: BBox, b: BBox) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    return (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    inter = _intersection_area(a, b)
    union = _corner_area(a) + _corner_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU: iou minus (enclosure - union) / enclosure; in (-1, 1]."""
    inter = _intersection_area(a, b)
    union = _corner_area(a) + _corner_area(b) - inter
    enclosing = _enclosing_area(a, b)
    if enclosing <= 0.0:
        return 0.0
    if union <= 0.0:
        return -(enclosing - union) / enclosing
    return inter / union - (enclosing - union) / enclosing


def _paired_union(d: PairedBox, g: PairedBox) -> float:
    return (
        _corner_area(d.prev) + _corner_area(g.prev) - _intersection_area(d.prev, g.prev)
        + _corner_area(d.cur) + _corner_area(g.cur) - _intersection_area(d.cur, g.cur)
    )


def iou3d(d: PairedBox, g: PairedBox) -> float:
    """Paired-box IoU: summed per-frame intersection over summed per-frame union."""
    inter = _intersection_area(d.prev, g.prev) + _intersection_area(d.cur, g.cur)
    union = _paired_union(d, g)
    if union <= 0.0:
        return 0.0
    return inter / union


def giou3d(d: PairedBox, g: PairedBox) -> float:
    """Paired-box GIoU.

    The penalty wraps the summed per-frame difference in a single absolute
    value: |sum_i (enclosure_i - union_i)| / |sum_i enclosure_i|, where i
    ranges over the two frames.
    """
    enclosure = _enclosing_area(d.prev, g.prev) + _enclosing_area(d.cur, g.cur)
    if enclosure <= 0.0:
        return 0.0
    union = _paired_union(d, g)
    return iou3d(d, g) - abs(enclosure - union) / abs(enclosure)


def _nms(
    rows: np.ndarray, scores: Sequence[float], threshold: float, width: int
) -> list[int]:
    """Lazy greedy suppression shared by nms2d/nms3d.

    Rows are ``width``-wide center-form boxes split into 4-wide members, as
    in ``overlap``. Candidates are visited in descending score order (ties
    broken by lower original index); one is removed iff its overlap with an
    already-kept higher-scored candidate exceeds the threshold (strict).
    Corners and member areas are computed once; each kept row then clears
    the later rows it overlaps, so the cost grows with rows x kept instead
    of rows squared. The overlap repeats ``overlap``'s arithmetic (candidate
    area + kept area - intersection, summed over members, then divided), so
    every decision matches the full-matrix greedy loop bit for bit.
    """
    if len(rows) != len(scores):
        raise ValueError("rows and scores must have equal length")
    if not len(rows):
        return []
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1:] != (width,):
        raise ValueError(f"need (n, {width}) rows, got shape {rows.shape}")
    n = rows.shape[0]
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    # Sorted rows; lo/hi hold (x, y) per member side by side: (n, 2 * members).
    boxes = rows[order].reshape(n, -1, 4)
    half = boxes[..., 2:] * 0.5
    lo = (boxes[..., :2] - half).reshape(n, -1)
    hi = (boxes[..., :2] + half).reshape(n, -1)
    side = np.clip(hi - lo, 0, None)
    area = side[:, 0::2] * side[:, 1::2]

    alive = np.ones(n, dtype=bool)
    kept: list[int] = []
    i = 0
    while True:
        kept.append(int(order[i]))
        rest = slice(i + 1, None)
        wh = np.minimum(hi[rest], hi[i]) - np.maximum(lo[rest], lo[i])
        np.maximum(wh, 0.0, out=wh)
        inter_m = wh[:, 0::2] * wh[:, 1::2]
        union_m = area[rest] + area[i] - inter_m
        inter, union = inter_m[:, 0], union_m[:, 0]
        for m in range(1, inter_m.shape[1]):
            inter = inter + inter_m[:, m]
            union = union + union_m[:, m]
        ratio = np.zeros_like(inter)
        np.divide(inter, union, out=ratio, where=union > 0)
        later = alive[rest]
        later &= ratio <= threshold
        if not later.any():
            return kept
        i += 1 + int(later.argmax())


def nms2d(boxes: np.ndarray, scores: Sequence[float], threshold: float) -> list[int]:
    """Greedy 2D non-maximum suppression on center-form rows (n, 4);
    returns kept indices in score order."""
    return _nms(boxes, scores, threshold, 4)


def nms3d(pairs: np.ndarray, scores: Sequence[float], threshold: float) -> list[int]:
    """Greedy paired-box suppression on iou3d over flattened pairs (n, 8);
    returns kept indices in score order."""
    return _nms(pairs, scores, threshold, 8)


# Vectorized counterparts on raw arrays. Rows are center-form boxes (n, 4)
# or flattened pairs (n, 8); used by the denoisers on full proposal
# batches.


def overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU between broadcast-aligned rows of center-form arrays.

    Each row is split into 4-wide boxes; intersection and union are summed
    over those members before dividing, so 4-wide rows give plain IoU and
    8-wide rows paired-box IoU. Shapes (n, w) and (n, w) give (n,), and
    (n, 1, w) against (1, m, w) gives the (n, m) matrix. 0 where the union
    is empty.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a.reshape(a.shape[:-1] + (a.shape[-1] // 4, 4))
    b = b.reshape(b.shape[:-1] + (b.shape[-1] // 4, 4))
    half_a, half_b = a[..., 2:] * 0.5, b[..., 2:] * 0.5
    lo_a, hi_a = a[..., :2] - half_a, a[..., :2] + half_a
    lo_b, hi_b = b[..., :2] - half_b, b[..., :2] + half_b
    wh = np.clip(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    side_a = np.clip(hi_a - lo_a, 0, None)
    side_b = np.clip(hi_b - lo_b, 0, None)
    union = side_a[..., 0] * side_a[..., 1] + side_b[..., 0] * side_b[..., 1] - inter
    inter = inter.sum(axis=-1)
    union = union.sum(axis=-1)
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between center-form box arrays of shape (n, 4) and (m, 4)."""
    return overlap(np.asarray(a)[:, None, :], np.asarray(b)[None, :, :])


def iou3d_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise paired-box IoU between flattened-pair arrays (n, 8) and (m, 8)."""
    return overlap(np.asarray(a)[:, None, :], np.asarray(b)[None, :, :])
