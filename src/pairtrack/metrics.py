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
fragmentation when a trajectory goes from matched to missed and back to
matched over the frames where it is visible, as CLEAR MOT defines it: a
frame where the object is occluded breaks no match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import id_set
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
    gt_frames = [gt.visible(f) for f in frames]
    pred_frames = [result.rows(f) for f in frames]
    no_ids = np.zeros(0, dtype=np.int64)
    gt_ids = id_set(no_ids, *(ids for ids, _ in gt_frames))
    pred_ids = id_set(no_ids, *(r.ids for r in pred_frames))

    # Over ground-truth indices: the result index matched in the last frame
    # and the last one ever matched (-1 for none), whether it was missed
    # while visible since its last match, and the gated overlap counts with
    # each result trajectory for the identity matching.
    prev = np.full(len(gt_ids), -1)
    last = np.full(len(gt_ids), -1)
    missed = np.zeros(len(gt_ids), dtype=bool)
    counts = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    # Result index -> its row in the current frame. The extra last entry
    # stays -1, so a ground truth with no previous match finds no row.
    row_of = np.full(len(pred_ids) + 1, -1)

    fp = fn = idsw = frag = 0
    gt_count = pred_count = 0
    for (ids, gt_boxes), res in zip(gt_frames, pred_frames):
        gi = gt_ids.searchsorted(ids)
        pi = pred_ids.searchsorted(res.ids)
        gt_count += len(gi)
        pred_count += len(pi)
        overlaps = iou_matrix(gt_boxes, res.boxes)
        gated = (overlaps >= iou_gate) & (overlaps > 0.0)
        counts[gi[:, None], pi] += gated

        # Keep last frame's correspondences that still hold at the gate.
        row_of[pi] = np.arange(len(pi))
        held = row_of[prev[gi]]
        row_of[pi] = -1
        mg = (held >= 0).nonzero()[0]
        mg = mg[gated[mg, held[mg]]]
        mp = held[mg]

        # Match the rest, when both sides have rows left.
        if len(mg) < min(len(gi), len(pi)):
            free_g = np.ones(len(gi), dtype=bool)
            free_g[mg] = False
            free_p = np.ones(len(pi), dtype=bool)
            free_p[mp] = False
            fg, fr = free_g.nonzero()[0], free_p.nonzero()[0]
            r, c = linear_sum_assignment(1.0 - overlaps[fg[:, None], fr])
            hit = gated[fg[r], fr[c]]
            mg = np.concatenate([mg, fg[r[hit]]])
            mp = np.concatenate([mp, fr[c[hit]]])

        g, p = gi[mg], pi[mp]
        was = last[g]
        idsw += int(np.count_nonzero((was >= 0) & (was != p)))
        frag += int(np.count_nonzero(missed[g]))
        missed[gi] = last[gi] >= 0
        missed[g] = False
        last[g] = p
        prev.fill(-1)
        prev[g] = p
        fn += len(gi) - len(g)
        fp += len(pi) - len(g)

    mota = float("nan") if gt_count == 0 else 1.0 - (fn + fp + idsw) / gt_count
    rows, cols = linear_sum_assignment(-counts)
    total = gt_count + pred_count
    idf1 = float(2.0 * counts[rows, cols].sum() / total) if total else 0.0
    return MetricsReport(
        mota=mota, idf1=idf1, idsw=idsw, frag=frag, fp=fp, fn=fn, gt_count=gt_count
    )
