"""Hungarian assignment and the paired-box detection objective.

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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .denoiser import CandidateBatch
from .geometry import giou

__all__ = [
    "MatchSet",
    "LossBreakdown",
    "hungarian",
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


@dataclass(frozen=True)
class MatchSet:
    """Injective assignment between predictions and ground-truth entries."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_gts: tuple[int, ...]

    @property
    def n_pos(self) -> int:
        return len(self.pairs)


def hungarian(cost: np.ndarray) -> MatchSet:
    """Minimum-cost assignment on an n x m matrix of finite costs."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        n, m = cost.shape if cost.ndim == 2 else (0, 0)
        return MatchSet((), tuple(range(n)), tuple(range(m)))
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    matched_r = set(rows.tolist())
    matched_c = set(cols.tolist())
    return MatchSet(
        pairs,
        tuple(i for i in range(cost.shape[0]) if i not in matched_r),
        tuple(j for j in range(cost.shape[1]) if j not in matched_c),
    )


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
    """Raw term sums plus the weighted, positive-normalized total."""

    cls: float
    reg: float
    giou_term: float
    total: float
    n_pos: int
    matches: MatchSet


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
    matches = hungarian(match_cost(preds, gts, image_size))
    pi, gi = np.array(matches.pairs, dtype=np.intp).reshape(-1, 2).T
    bg = np.array(matches.unmatched_predictions, dtype=np.intp)

    cls = float(np.sum(focal_loss(fp[pi], 1) + focal_loss(fc[pi], 1))
                + np.sum(focal_loss(fp[bg], 0) + focal_loss(fc[bg], 0)))
    reg = float(np.sum(_l1_normalized(preds.pairs[pi], gts[gi], image_size)))
    giou_term = float(np.sum(1.0 - giou(preds.pairs[pi], gts[gi])))

    n_pos = max(matches.n_pos, 1)
    total = (LAMBDA_CLS * cls + LAMBDA_REG * reg + LAMBDA_GIOU * giou_term) / n_pos
    return LossBreakdown(cls, reg, giou_term, total, n_pos, matches)
