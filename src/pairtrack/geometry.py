"""Box algebra for paired-box tracking.

Boxes are center-parameterized (cx, cy, w, h); corner form is computed on
demand. A PairedBox holds the same object's boxes in two adjacent frames
and flattens to 8 scalars. Overlap measures come in the plain 2D flavor
and a paired ("3D") flavor that sums areas over both frames.

One vectorized kernel, ``overlap``, computes every array-valued overlap:
row-aligned, as the ``iou_matrix``/``iou3d_matrix`` matrices, and inside
suppression. It computes corners and areas once per side and broadcasts
only the intersection and union.

Suppression (``nms2d``, ``nms3d``) works on row arrays: it ranks the rows
once and settles them in fixed-size chunks, each with one ``overlap``
matrix of the chunk's rows and one ``overlap`` of the rows it keeps
against the rows still pending. No n x n matrix is built.

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


# Ranked rows settled per suppression step: enough that few steps are
# needed, few enough that the step's own overlap matrix stays small.
_CHUNK = 64


def _nms(
    rows: np.ndarray, scores: Sequence[float], threshold: float, width: int
) -> list[int]:
    """Greedy suppression shared by nms2d/nms3d.

    Rows are ``width``-wide center-form boxes, as in ``overlap``.
    Candidates are visited in descending score order (ties broken by lower
    original index); one is removed iff its overlap with an already-kept
    higher-scored candidate exceeds the threshold (strict). The ranked rows
    still pending are settled ``_CHUNK`` at a time: one ``overlap`` matrix
    of the chunk runs the greedy pass inside it, and one ``overlap`` of the
    rows it keeps against the later pending rows removes those they
    suppress. Every ratio is the one ``overlap`` gives for that pair, and
    ``overlap`` is symmetric, so the decisions match the full-matrix greedy
    loop bit for bit while no n x n matrix is built.
    """
    if len(rows) != len(scores):
        raise ValueError("rows and scores must have equal length")
    if not len(rows):
        return []
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1:] != (width,):
        raise ValueError(f"need (n, {width}) rows, got shape {rows.shape}")
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    ranked = rows[order]
    pending = np.arange(len(ranked))
    kept: list[np.ndarray] = []
    while pending.size:
        at, pending = pending[:_CHUNK], pending[_CHUNK:]
        chunk = ranked[at]
        ok = overlap(chunk[:, None], chunk[None]) <= threshold
        np.fill_diagonal(ok, True)
        alive = np.ones(len(at), dtype=bool)
        # A row alive at its turn clears every kept row, and ok is
        # symmetric, so and-ing its whole row leaves earlier rows as they are.
        for i in range(len(at)):
            if alive[i]:
                alive &= ok[i]
        kept.append(at[alive])
        if pending.size:
            clear = overlap(chunk[alive][:, None], ranked[None, pending]) <= threshold
            pending = pending[clear.all(axis=0)]
    return order[np.concatenate(kept)].tolist()


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


def _members(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corners and areas of the 4-wide members of center-form rows (..., w),
    member axis first: lo and hi (k, 2, ...) hold (x, y), area is (k, ...)."""
    lead = x.ndim - 1
    boxes = x.reshape(x.shape[:-1] + (x.shape[-1] // 4, 4))
    boxes = np.ascontiguousarray(boxes.transpose(lead, lead + 1, *range(lead)))
    half = boxes[:, 2:] * 0.5
    lo = boxes[:, :2] - half
    hi = boxes[:, :2] + half
    side = np.maximum(hi - lo, 0.0)
    return lo, hi, side[:, 0] * side[:, 1]


def overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU between broadcast-aligned rows of center-form arrays.

    Each row is split into 4-wide boxes; intersection and union are summed
    over those members before dividing, so 4-wide rows give plain IoU and
    8-wide rows paired-box IoU. Shapes (n, w) and (n, w) give (n,), and
    (n, 1, w) against (1, m, w) gives the (n, m) matrix. 0 where the union
    is empty.

    Corners and member areas are computed once per side in its own shape;
    only the per-member intersection and union are broadcast. The result
    is symmetric: overlap(a, b) equals overlap(b, a) bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"rows must have equal width, got {a.shape} and {b.shape}")
    # The member and coordinate axes go first, so align the row axes here.
    nd = max(a.ndim, b.ndim)
    lo_a, hi_a, area_a = _members(a.reshape((1,) * (nd - a.ndim) + a.shape))
    lo_b, hi_b, area_b = _members(b.reshape((1,) * (nd - b.ndim) + b.shape))
    inter = union = None
    for m in range(len(area_a)):
        wh = np.minimum(hi_a[m], hi_b[m])
        wh -= np.maximum(lo_a[m], lo_b[m])
        np.maximum(wh, 0.0, out=wh)
        inter_m = wh[0] * wh[1]
        union_m = area_a[m] + area_b[m]
        union_m -= inter_m
        if inter is None:
            inter, union = inter_m, union_m
        else:
            inter += inter_m
            union += union_m
    out = np.zeros(np.shape(inter))
    np.divide(inter, union, out=out, where=union > 0)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between center-form box arrays of shape (n, 4) and (m, 4)."""
    return overlap(np.asarray(a)[:, None, :], np.asarray(b)[None, :, :])


def iou3d_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise paired-box IoU between flattened-pair arrays (n, 8) and (m, 8)."""
    return overlap(np.asarray(a)[:, None, :], np.asarray(b)[None, :, :])
