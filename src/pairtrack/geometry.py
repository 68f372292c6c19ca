"""Box algebra for paired-box tracking.

Boxes are center-form rows (cx, cy, w, h); corners are computed on demand.
A paired box, the same object's boxes in two adjacent frames, is one
8-wide row: the previous-frame box, then the current-frame one.

Two vectorized kernels share one pass over the rows' 4-wide members,
which computes corners and areas once per side and broadcasts only the
per-member terms:

- ``overlap`` is IoU. Intersection and union are summed over the members
  before dividing, so 4-wide rows give plain IoU and 8-wide rows the
  paired-box ("3D") IoU. It backs ``iou_matrix`` and suppression.
- ``giou`` adds the enclosing box: IoU minus |E - U| / E, where E and U
  are the enclosure and union areas summed over the members. The single
  absolute value wraps the summed difference, not each frame's. 4-wide
  rows give plain GIoU (arXiv 1902.09630) and 8-wide rows the paired-box
  GIoU of the DiffusionTrack loss.

``overlap_ceiling`` bounds, from member areas alone, the best ``overlap``
a row can reach against any of a set of targets, so a caller can settle
rows that overlap nothing well without building their row of the matrix.

Suppression (``nms2d``, ``nms3d``) works on row arrays: it ranks the rows
once and settles them in fixed-size chunks, each with one ``overlap``
matrix of the chunk's rows and one ``overlap`` of the rows it keeps
against the rows still pending. No n x n matrix is built.

Degenerate (zero-area) boxes are legal inputs. IoU is 0 where the summed
union is empty, and GIoU is 0 where the summed enclosure is <= 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "giou",
    "nms2d",
    "nms3d",
    "iou_matrix",
    "overlap",
    "overlap_ceiling",
]


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
    """Greedy paired-box suppression on paired-box IoU over flattened pairs (n, 8);
    returns kept indices in score order."""
    return _nms(pairs, scores, threshold, 8)


# The kernels. Rows are center-form boxes (n, 4) or flattened pairs (n, 8).


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


def _sums(a: np.ndarray, b: np.ndarray):
    """Members of broadcast-aligned center-form rows ``a`` and ``b`` (as
    ``_members`` gives them), with the intersection and union areas summed
    over the members."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"rows must have equal width, got {a.shape} and {b.shape}")
    # The member and coordinate axes go first, so align the row axes here.
    nd = max(a.ndim, b.ndim)
    side_a = _members(a.reshape((1,) * (nd - a.ndim) + a.shape))
    side_b = _members(b.reshape((1,) * (nd - b.ndim) + b.shape))
    (lo_a, hi_a, area_a), (lo_b, hi_b, area_b) = side_a, side_b
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
    return side_a, side_b, inter, union


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
    _, _, inter, union = _sums(a, b)
    out = np.zeros(np.shape(inter))
    np.divide(inter, union, out=out, where=union > 0)
    return out


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU between broadcast-aligned rows of center-form arrays.

    Shapes and the IoU term are ``overlap``'s. The penalty is
    |E - U| / E, with the enclosing-box areas E and the union areas U
    each summed over the rows' 4-wide members: 4-wide rows give plain GIoU
    in (-1, 1], and 8-wide rows the paired-box GIoU, whose one absolute
    value wraps the difference summed over both frames. 0 where E <= 0.
    Symmetric bit for bit, like ``overlap``.
    """
    (lo_a, hi_a, _), (lo_b, hi_b, _), inter, union = _sums(a, b)
    enclosure = None
    for m in range(len(lo_a)):
        wh = np.maximum(hi_a[m], hi_b[m])
        wh -= np.minimum(lo_a[m], lo_b[m])
        enclosure_m = wh[0] * wh[1]
        enclosure = enclosure_m if enclosure is None else enclosure + enclosure_m
    iou = np.zeros(np.shape(inter))
    np.divide(inter, union, out=iou, where=union > 0)
    penalty = np.zeros(np.shape(enclosure))
    np.divide(np.abs(enclosure - union), enclosure, out=penalty, where=enclosure > 0)
    return np.where(enclosure > 0, iou - penalty, 0.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between center-form row arrays (n, w) and (m, w): boxes
    (w = 4) give plain IoU, flattened pairs (w = 8) paired-box IoU."""
    return overlap(np.asarray(a)[:, None, :], np.asarray(b)[None, :, :])


def overlap_ceiling(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Upper bound on each row's best ``overlap`` against any target.

    Rows (n, w) and targets (m, w) are center-form, w a multiple of 4. With
    A_m a row's member areas and B_tm target t's, both computed as
    ``_members`` computes them, the bound is

        sum_m min(A_m, max_t B_tm) / sum_m A_m.

    Why it bounds the exact ratio: a member's intersection is at most the
    smaller of the two member areas, and its union is at least the row's
    own member area, so inter / union <= sum_m min(A_m, B_tm) / sum_m A_m.

    Why it holds for the computed ``overlap`` too: rounding is monotone, so
    a computed intersection width never exceeds either box's computed
    width, and a computed intersection never exceeds either computed member
    area, the same areas that enter the bound. Past that point only the
    sums, the union subtraction (its result is at least half of A + B, so
    cancellation costs at most one bit) and the divisions remain, each off
    by a few units in the last place, relative. A caller comparing the
    bound with a threshold keeps a relative margin far above that.

    No bound (inf) is given for a row with a non-finite value or zero total
    area. Targets with non-finite areas give NaN, which compares false, and
    an empty target set bounds every other row at 0.
    """
    rows = np.asarray(rows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if rows.shape[-1] != targets.shape[-1]:
        raise ValueError(
            f"rows must have equal width, got {rows.shape} and {targets.shape}")
    _, _, area = _members(rows)
    _, _, target_area = _members(targets)
    top = target_area.max(axis=1, initial=0.0)[:, None]
    total = area.sum(axis=0)
    ceiling = np.full(total.shape, np.inf)
    ok = (total > 0) & np.isfinite(rows).all(axis=-1)
    np.divide(np.minimum(area, top).sum(axis=0), total, out=ceiling, where=ok)
    return ceiling
