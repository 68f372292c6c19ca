"""CLEAR-style tracking evaluation: MOTA, FP/FN, identity switches,
fragmentations, plus IDF1 from a global trajectory matching.

Per frame, correspondences from the previous frame are kept whenever both
ends still exist and overlap at the gate; the remainder is matched by
Hungarian assignment on IoU. A pair overlaps at the gate when its IoU is
positive and at least the gate, so disjoint boxes never match, even at a
gate of 0. IDF1 matches ground-truth and result trajectories one to one
on their gated overlap counts. Both assignments are
``matching.linear_sum_assignment``, which certifies most of these small
matrices at once and falls back to an exact shortest augmenting path
search on ties. A switch is counted when a ground-truth
trajectory's matched identity differs from the last one it ever had; a
fragmentation when a previously matched trajectory resumes being matched
after a gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import iou_matrix
from .matching import linear_sum_assignment
from .simulator import SceneGroundTruth
from .tracker import TrackingResult

__all__ = ["MetricsReport", "evaluate"]


@dataclass(frozen=True)
class MetricsReport:
    mota: float
    idf1: float
    idsw: int
    frag: int
    fp: int
    fn: int
    gt_count: int

    def to_text(self) -> str:
        lines = [
            f"MOTA = {self.mota:.4f}",
            f"IDF1 = {self.idf1:.4f}",
            f"IDSW = {self.idsw}",
            f"Frag = {self.frag}",
            f"FP = {self.fp}",
            f"FN = {self.fn}",
            f"GT = {self.gt_count}",
        ]
        return "\n".join(lines)

    @staticmethod
    def csv_header() -> str:
        return "mota,idf1,idsw,frag,fp,fn,gt_count"

    def to_csv_row(self) -> str:
        return (
            f"{self.mota:.6f},{self.idf1:.6f},{self.idsw},{self.frag},"
            f"{self.fp},{self.fn},{self.gt_count}"
        )


def evaluate(
    gt: SceneGroundTruth, result: TrackingResult, iou_gate: float = 0.5
) -> MetricsReport:
    """Score a tracking result against ground truth (visible entries only).

    Each frame lists every ground-truth id and every result id at most
    once, as ``scene_from_gt``, ``parse_results`` and both trackers
    guarantee; a carried-over correspondence therefore never competes with
    another for its result row. ``iou_gate`` must lie in [0, 1].
    """
    if not 0.0 <= iou_gate <= 1.0:
        raise ValueError(f"iou_gate must be in [0, 1], got {iou_gate!r}")
    frames = sorted(set(gt.frames) | set(result.frame_numbers()))

    fp = fn = idsw = frag = 0
    gt_count = 0
    prev_match: dict[int, int] = {}      # gt id -> pred id in the last frame
    last_pred: dict[int, int] = {}       # gt id -> last matched pred id ever

    # Trajectory overlap counts for the global identity matching.
    gt_lengths: dict[int, int] = {}
    pred_lengths: dict[int, int] = {}
    overlap_counts: dict[tuple[int, int], int] = {}

    for frame in frames:
        gt_ids, gt_boxes = gt.visible(frame)
        gt_ids = gt_ids.tolist()
        pred_ids, pred_boxes, _ = result.rows(frame)
        pred_ids = pred_ids.tolist()

        gt_count += len(gt_ids)
        for g in gt_ids:
            gt_lengths[g] = gt_lengths.get(g, 0) + 1
        for p in pred_ids:
            pred_lengths[p] = pred_lengths.get(p, 0) + 1

        overlaps = iou_matrix(gt_boxes, pred_boxes)
        gated = (overlaps >= iou_gate) & (overlaps > 0.0)
        for gi, pi in zip(*np.nonzero(gated)):
            key = (gt_ids[gi], pred_ids[pi])
            overlap_counts[key] = overlap_counts.get(key, 0) + 1

        # Keep last frame's correspondences that still hold at the gate.
        matches: dict[int, int] = {}
        pred_index = {p: i for i, p in enumerate(pred_ids)}
        for gi, g in enumerate(gt_ids):
            p = prev_match.get(g)
            if p is not None and p in pred_index and gated[gi, pred_index[p]]:
                matches[g] = p

        free_gt = [gi for gi, g in enumerate(gt_ids) if g not in matches]
        carried = set(matches.values())
        free_pred = [pi for pi, p in enumerate(pred_ids) if p not in carried]
        if free_gt and free_pred:
            sub = np.ix_(free_gt, free_pred)
            rows, cols = linear_sum_assignment(1.0 - overlaps[sub])
            hit = gated[sub][rows, cols]
            for r, c in zip(rows[hit], cols[hit]):
                matches[gt_ids[free_gt[r]]] = pred_ids[free_pred[c]]

        for g, p in matches.items():
            if g in last_pred and last_pred[g] != p:
                idsw += 1
            if g in last_pred and g not in prev_match:
                frag += 1
            last_pred[g] = p
        fn += len(gt_ids) - len(matches)
        fp += len(pred_ids) - len(matches)

        prev_match = matches

    mota = float("nan") if gt_count == 0 else 1.0 - (fn + fp + idsw) / gt_count
    idf1 = _idf1(gt_lengths, pred_lengths, overlap_counts)
    return MetricsReport(
        mota=mota, idf1=idf1, idsw=idsw, frag=frag, fp=fp, fn=fn, gt_count=gt_count
    )


def _idf1(
    gt_lengths: dict[int, int],
    pred_lengths: dict[int, int],
    overlap_counts: dict[tuple[int, int], int],
) -> float:
    gt_total = sum(gt_lengths.values())
    pred_total = sum(pred_lengths.values())
    if gt_total + pred_total == 0:
        return 0.0
    gt_ids = sorted(gt_lengths)
    pred_ids = sorted(pred_lengths)
    if gt_ids and pred_ids:
        gt_index = {g: i for i, g in enumerate(gt_ids)}
        pred_index = {p: i for i, p in enumerate(pred_ids)}
        counts = np.zeros((len(gt_ids), len(pred_ids)))
        for (g, p), c in overlap_counts.items():
            counts[gt_index[g], pred_index[p]] = c
        rows, cols = linear_sum_assignment(-counts)
        idtp = counts[rows, cols].sum()
    else:
        idtp = 0.0
    return float(2.0 * idtp / (gt_total + pred_total))
