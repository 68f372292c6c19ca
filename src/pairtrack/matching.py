"""Hungarian assignment and the paired-box detection objective.

``linear_sum_assignment`` is the package's one assignment solver; the
tracker's association, ``metrics.evaluate`` and ``detection_loss`` call it. It
returns what ``scipy.optimize.linear_sum_assignment`` returns, index for
index, including how ties break, and scipy serves only as the tests'
reference. Two paths, picked from the input:

- A certificate. On the side with fewer rows (the transpose when there
  are more rows than columns), if no two rows' first minima share a
  column, giving each row its first minimum costs the sum of the row
  minima, which no assignment undercuts. scipy's solver picks the same
  columns: each row's search starts from zero duals, so its reduced costs
  are its costs exactly, and of the columns tied at the minimum it takes
  the lowest-numbered free one, which is the first minimum. No search is
  needed.
- Otherwise, a line-by-line port of scipy's shortest augmenting path
  solver (Crouse 2016, ``rectangular_lsap.cpp``): the same scan order of
  the remaining columns, the same preference for a free column on a tie
  for the lowest path cost, the same float operation order and the same
  dual updates, so a tie such as the all-zero rows of an IoU matrix
  resolves as scipy resolves it. It loops over Python lists, which at the
  tracker's sizes runs faster than a vectorised NumPy port.

The objective combines three terms over Hungarian-matched
(prediction, ground-truth) pairs: focal classification on the fused score
sqrt(class_score * association_score) per frame, L1 regression in
image-normalized coordinates, and the paired-box GIoU complement. Term
weights are (2, 5, 2) and the sum is normalized by the positive-match
count. Unmatched predictions contribute background focal terms only.
Predictions are the rows of a ``CandidateBatch``; ground truth is a (k, 8)
array of flattened pixel pairs in the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import CandidateBatch
from .geometry import giou

__all__ = [
    "LossBreakdown",
    "linear_sum_assignment",
    "focal_loss",
    "match_cost",
    "detection_loss",
    "LAMBDA_CLS",
    "LAMBDA_REG",
    "LAMBDA_GIOU",
]

LAMBDA_CLS = 2.0
LAMBDA_REG = 5.0
LAMBDA_GIOU = 2.0

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
_EPS = 1e-7


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment on an (n, m) matrix of finite costs.

    Returns the row indices and their columns, min(n, m) of each, with
    the rows ascending: the arrays ``scipy.optimize.linear_sum_assignment``
    returns for the same matrix. A NaN or infinite cost raises
    ``ValueError``; an empty matrix gives two empty arrays.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"need a 2-D cost matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    if cost.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    transpose = cost.shape[1] < cost.shape[0]
    c = cost.T if transpose else cost
    cols = c.argmin(axis=1)
    taken = np.zeros(c.shape[1], dtype=bool)
    taken[cols] = True
    if np.count_nonzero(taken) < len(c):
        cols = _shortest_augmenting_paths(c.tolist())
    if transpose:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(len(c)), cols


def _shortest_augmenting_paths(cost: list[list[float]]) -> np.ndarray:
    """Column of each row of a finite cost matrix with no more rows than
    columns, exactly as scipy's ``rectangular_lsap.cpp`` assigns it."""
    nr, nc = len(cost), len(cost[0])
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Dijkstra from cur_row over reduced costs to the nearest free
        # column. Filling ``remaining`` in reverse makes a constant matrix
        # come out as the identity, as in scipy.
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        sr = [False] * nr
        sc = [False] * nc
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            sr[i] = True
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie for the lowest cost, prefer a column that ends
                # the path.
                s = shortest[j]
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in range(nr):
            if sr[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - shortest[j]

        # Flip the matching along the path back to cur_row.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return np.array(col4row, dtype=np.intp)


def focal_loss(p, y: int, alpha: float = FOCAL_ALPHA, gamma: float = FOCAL_GAMMA):
    """Standard focal loss for a binary label on probability ``p``, a
    scalar or an array of them."""
    p = np.clip(p, _EPS, 1.0 - _EPS)
    if y == 1:
        return -alpha * (1.0 - p) ** gamma * np.log(p)
    return -(1.0 - alpha) * p ** gamma * np.log(1.0 - p)


def _fused_scores(preds: CandidateBatch) -> tuple[np.ndarray, np.ndarray]:
    s = np.maximum(preds.assoc, 0.0)
    return (
        np.sqrt(np.maximum(preds.cls_prev, 0.0) * s),
        np.sqrt(np.maximum(preds.cls_cur, 0.0) * s),
    )


def _l1_normalized(
    pairs: np.ndarray, gts: np.ndarray, image_size: tuple[int, int]
) -> np.ndarray:
    """L1 distance between broadcast-aligned (..., 8) pixel rows,
    image-normalized."""
    w, h = image_size
    norm = np.tile([w, h, w, h], 2)
    diff = pairs / norm - gts / norm
    return np.abs(diff, out=diff).sum(axis=-1)


def _gt_rows(gts: np.ndarray) -> np.ndarray:
    """Ground truth as a float (k, 8) array; any other shape raises."""
    gts = np.asarray(gts, dtype=np.float64)
    if gts.shape[1:] != (8,):
        raise ValueError(f"need (k, 8) ground-truth rows, got shape {gts.shape}")
    return gts


def match_cost(
    preds: CandidateBatch, gts: np.ndarray, image_size: tuple[int, int] = (1, 1)
) -> np.ndarray:
    """(n, k) assignment cost of each prediction row against each (k, 8)
    ground-truth row, mirroring the loss terms; lower is better."""
    gts = _gt_rows(gts)
    fp, fc = _fused_scores(preds)
    cls_cost = focal_loss(fp, 1) + focal_loss(fc, 1)
    pairs, targets = preds.pairs[:, None], gts[None]
    reg_cost = _l1_normalized(pairs, targets, image_size)
    giou_cost = 1.0 - giou(pairs, targets)
    return (LAMBDA_CLS * cls_cost[:, None] + LAMBDA_REG * reg_cost
            + LAMBDA_GIOU * giou_cost)


@dataclass(frozen=True)
class LossBreakdown:
    """Raw term sums plus the weighted, positive-normalized total, and the
    matched (prediction, ground truth) index rows, (n_pos, 2), ascending
    by prediction."""

    cls: float
    reg: float
    giou_term: float
    total: float
    n_pos: int
    pairs: np.ndarray


def detection_loss(
    preds: CandidateBatch,
    gts: np.ndarray,
    image_size: tuple[int, int] = (1, 1),
) -> LossBreakdown:
    """Forward evaluation of the three-term training objective against
    (k, 8) ground-truth rows.

    Ground-truth class scores are 1 (single-class tracking). Unmatched
    predictions enter the classification sum as background (label 0) on
    their fused scores; unmatched ground truth contributes nothing here.
    """
    gts = _gt_rows(gts)
    fp, fc = _fused_scores(preds)
    pi, gi = linear_sum_assignment(match_cost(preds, gts, image_size))
    bg = np.ones(len(preds), dtype=bool)
    bg[pi] = False

    cls = float(np.sum(focal_loss(fp[pi], 1) + focal_loss(fc[pi], 1))
                + np.sum(focal_loss(fp[bg], 0) + focal_loss(fc[bg], 0)))
    reg = float(np.sum(_l1_normalized(preds.pairs[pi], gts[gi], image_size)))
    giou_term = float(np.sum(1.0 - giou(preds.pairs[pi], gts[gi])))

    n_pos = max(len(pi), 1)
    total = (LAMBDA_CLS * cls + LAMBDA_REG * reg + LAMBDA_GIOU * giou_term) / n_pos
    return LossBreakdown(cls, reg, giou_term, total, n_pos, np.column_stack([pi, gi]))
