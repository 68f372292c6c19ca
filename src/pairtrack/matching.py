"""Hungarian assignment and the paired-box detection objective.

The objective combines three terms over Hungarian-matched
(prediction, ground-truth) pairs: focal classification on the fused score
sqrt(class_score * association_score) per frame, L1 regression in
image-normalized coordinates, and the paired-box GIoU complement. Term
weights are (2, 5, 2) and the sum is normalized by the positive-match
count. Unmatched predictions contribute background focal terms only.
Predictions are the rows of a ``CandidateBatch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .denoiser import CandidateBatch
from .geometry import PairedBox, giou3d

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
    pairs: np.ndarray, gt: PairedBox, image_size: tuple[int, int]
) -> np.ndarray:
    """L1 distance of (..., 8) pixel rows to ``gt``, image-normalized."""
    w, h = image_size
    norm = np.tile([w, h, w, h], 2)
    return np.abs(pairs / norm - gt.flatten() / norm).sum(axis=-1)


def match_cost(
    preds: CandidateBatch, gt: PairedBox, image_size: tuple[int, int] = (1, 1)
) -> np.ndarray:
    """Assignment cost of each prediction row against ``gt``, mirroring the
    loss terms; lower is better."""
    fp, fc = _fused_scores(preds)
    cls_cost = focal_loss(fp, 1) + focal_loss(fc, 1)
    reg_cost = _l1_normalized(preds.pairs, gt, image_size)
    giou_cost = 1.0 - np.array(
        [giou3d(PairedBox.from_flat(row), gt) for row in preds.pairs]
    )
    return LAMBDA_CLS * cls_cost + LAMBDA_REG * reg_cost + LAMBDA_GIOU * giou_cost


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
    gts: Sequence[PairedBox],
    image_size: tuple[int, int] = (1, 1),
) -> LossBreakdown:
    """Forward evaluation of the three-term training objective.

    Ground-truth class scores are 1 (single-class tracking). Unmatched
    predictions enter the classification sum as background (label 0) on
    their fused scores; unmatched ground truth contributes nothing here.
    """
    fp, fc = _fused_scores(preds)
    if not gts:
        matches = MatchSet((), tuple(range(len(preds))), ())
        cls = float(np.sum(focal_loss(fp, 0) + focal_loss(fc, 0)))
        total = LAMBDA_CLS * cls / 1.0
        return LossBreakdown(cls, 0.0, 0.0, total, 1, matches)

    cost = np.stack([match_cost(preds, g, image_size) for g in gts], axis=1)
    matches = hungarian(cost)

    cls = reg = giou_term = 0.0
    for pi, gi in matches.pairs:
        cls += focal_loss(fp[pi], 1) + focal_loss(fc[pi], 1)
        reg += _l1_normalized(preds.pairs[pi], gts[gi], image_size)
        giou_term += 1.0 - giou3d(PairedBox.from_flat(preds.pairs[pi]), gts[gi])
    for pi in matches.unmatched_predictions:
        cls += focal_loss(fp[pi], 0) + focal_loss(fc[pi], 0)

    n_pos = max(matches.n_pos, 1)
    total = (LAMBDA_CLS * cls + LAMBDA_REG * reg + LAMBDA_GIOU * giou_term) / n_pos
    return LossBreakdown(cls, reg, giou_term, total, n_pos, matches)
