"""Pluggable denoisers that refine noisy paired boxes into candidates.

A denoiser's one method, ``denoise_batch``, maps a batch of noisy paired
boxes plus a timestep and frame context to a ``DenoisedBatch`` holding one
row per input row: a cleaned paired box, per-frame class scores and an
association score. Denoisers take and return pixel-space boxes; the
diffusion's signal space and its scale stay inside
``diffusion.ddim_refine``, which converts on the way in and out. The
refinement loop turns the final batch into a ``CandidateBatch``, whose rows
the gates select and the tracker reads, still as arrays.
Two implementations ship here:

* ``OracleDenoiser`` snaps rows toward ground truth with configurable
  fidelity, standing in for a trained head in tests and simulations.
* ``DetectionSnapDenoiser`` snaps rows onto external per-frame detections.

All denoisers are deterministic functions of their inputs and safe to call
concurrently once constructed. ``OracleDenoiser`` keeps one memo entry, the
ground-truth targets of the last context it saw, and reuses it only for
that same (frozen) context object; a call that misses rebuilds the targets,
so concurrent calls cost more but still return the same outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .geometry import iou_matrix, overlap, overlap_ceiling

__all__ = [
    "FrameContext",
    "ProposalOrigin",
    "CandidateBatch",
    "DenoisedBatch",
    "Denoiser",
    "OracleDenoiser",
    "DetectionSnapDenoiser",
]


@dataclass(frozen=True)
class FrameContext:
    """Everything a concrete denoiser may condition on for one frame pair.

    Ground truth is (ids (k,), center-form boxes (k, 4)) per frame, ids
    ascending and each listed once, as ``SceneGroundTruth.visible`` gives
    it; detections are one (n, 5) array per frame of center-form pixel
    boxes and confidences (cx, cy, w, h, conf). ``conditional`` marks a
    baseline pair built from priors, where only the current frame member
    is denoised and the previous member acts as the condition. Contexts are
    frozen; derive a variant with ``dataclasses.replace``.
    """

    image_size: tuple[int, int]
    gt_prev: tuple[np.ndarray, np.ndarray] | None = None
    gt_cur: tuple[np.ndarray, np.ndarray] | None = None
    det_prev: np.ndarray | None = None
    det_cur: np.ndarray | None = None
    conditional: bool = False


class ProposalOrigin:
    """Where a proposal row came from: a prior box or padding."""

    PRIOR = 0
    PADDED = 1


@dataclass
class CandidateBatch:
    """Refined proposals as arrays, pixel space; row i is proposal slot i
    until ``take`` selects rows, which keep their scores and origins."""

    pairs: np.ndarray      # (n, 8), pixel space
    cls_prev: np.ndarray   # (n,)
    cls_cur: np.ndarray    # (n,)
    assoc: np.ndarray      # (n,)
    origin: np.ndarray     # (n,), ProposalOrigin values

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def take(self, rows) -> "CandidateBatch":
        """The given rows, in the given order."""
        return CandidateBatch(
            self.pairs[rows], self.cls_prev[rows], self.cls_cur[rows],
            self.assoc[rows], self.origin[rows],
        )


@dataclass
class DenoisedBatch:
    """Array view of a denoiser output: one row per input row, in order."""

    pairs: np.ndarray      # (n, 8), pixel space
    cls_prev: np.ndarray   # (n,)
    cls_cur: np.ndarray    # (n,)
    assoc: np.ndarray      # (n,)


class Denoiser(Protocol):
    """Interface contract: one pixel-space row out per pixel-space row in."""

    def denoise_batch(self, boxes: np.ndarray, s: int, ctx: FrameContext) -> DenoisedBatch:
        """Refine pixel-space paired boxes ``boxes`` (n, 8) at timestep ``s``."""
        ...


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_BOXES = np.zeros((0, 4))


def id_set(*ids: np.ndarray) -> np.ndarray:
    """The distinct entries of one or more id arrays, ascending, as NumPy's
    ``union1d`` and ``unique`` return them. Those import ``numpy.ma`` on
    first call; a sort and an adjacent-difference mask import nothing."""
    ids = np.sort(np.concatenate(ids))
    if not ids.size:
        return ids
    return ids[np.concatenate([[True], ids[1:] != ids[:-1]])]


def _member(ids: np.ndarray, union: np.ndarray) -> np.ndarray:
    """Mask over the ascending ``union`` of the entries found in ``ids``, an
    ascending subset of it."""
    found = np.zeros(union.size, dtype=bool)
    found[np.searchsorted(union, ids)] = True
    return found


# Score model of the ground-truth oracle (test instrumentation).
# FAR_FLOOR: below this paired-box overlap a row counts as off-target unless
# one of its centers lies inside a ground-truth box. FAR_SCORE is the
# association score assigned to off-target rows and must sit below the
# tracker's confidence gate. MISSING_PENALTY multiplies the score when the
# snapped identity is absent in one of the two frames, whose class score is
# MISSING_CLS. BASIN_FLOOR: rows whose best overlap is weaker than this snap
# by center distance instead, so oversized noise boxes don't all pile onto
# whichever object happens to be largest. TIE_MARGIN scales a small
# confidence bonus for rows whose input already covered the target,
# mirroring a trained head's preference for good proposals. SCORE_FLOOR sets
# how much of the association score is presence (landing on a target at
# all) versus geometric tightness; a head mostly scores presence, so the
# floor sits high. SNAP_CAP bounds the emitted box's residual from its
# target at SNAP_CAP * diagonal / fidelity, emulating how a regression head
# lands near the object no matter how far the proposal started. The bound
# loosens as fidelity falls and vanishes at fidelity 0, where the output
# must equal the input.
FAR_FLOOR = 0.05
FAR_SCORE = 0.05
MISSING_PENALTY = 0.2
MISSING_CLS = 0.1
BASIN_FLOOR = 0.2
TIE_MARGIN = 0.05
SCORE_FLOOR = 0.75
SNAP_CAP = 0.035

# Snap model of the detection denoiser. A member whose best overlap with any
# detection is at or below SNAP_FLOOR matches none of them: it keeps its
# input box and gets class score 0, so the detection gate drops its row. With
# no floor, members that overlap nothing all tie at 0 and snap onto the same
# detection, pairing two different objects across the frames.
SNAP_FLOOR = 0.1

# Relative margin by which a row's overlap ceiling must lie below BASIN_FLOOR
# for the row to count as weak without its row of the snap matrix. The
# ceiling and the computed overlaps are each off by at most a few units in
# the last place (about 1e-16), far inside it.
_CEILING_MARGIN = 1e-6


class OracleDenoiser:
    """Snaps rows to the nearest ground-truth pair with configurable fidelity.

    Each input row picks the ground-truth pair maximizing paired-box IoU
    (ties to the lower identity). A row whose best overlap is below
    ``BASIN_FLOOR`` picks the pair with the nearest center instead, the
    closer of its two members deciding. Most noise rows are known to be
    that weak from areas alone: where ``geometry.overlap_ceiling`` puts a
    row's best overlap below ``BASIN_FLOOR`` by a relative margin of 1e-6,
    the row snaps by distance without its row of the overlap matrix, and
    the outputs are the same bits as with it. The emitted pair is
    ``fidelity * gt + (1 - fidelity) * input``. Scores scale with fidelity
    and with how well the emitted pair lands on its target; rows whose
    output stays off every target are scored below any usable confidence
    gate, as is everything when no ground truth exists in either frame.

    The targets depend on the frame context alone, and ``ddim_refine``
    passes one context to every step of a pair, so they are built once per
    pair: the instance keeps the last context object it saw with its
    targets, and reuses them only for that same object.
    """

    def __init__(self, fidelity: float):
        if not 0.0 <= fidelity <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        self.fidelity = fidelity
        self._memo: tuple[FrameContext, tuple | None] | None = None

    @staticmethod
    def _targets(ctx: FrameContext):
        """Build per-identity target pairs from the two frames' ground truth.

        One (prev box, cur box) row per identity of either frame, ids
        ascending. Identities visible in only one frame reuse that frame's
        box for the missing slot and are flagged so their scores can be
        reduced.
        """
        empty = (_NO_IDS, _NO_BOXES)
        (ids_p, boxes_p), (ids_c, boxes_c) = ctx.gt_prev or empty, ctx.gt_cur or empty
        ids = id_set(ids_p, ids_c)
        if not ids.size:
            return None
        in_prev, in_cur = _member(ids_p, ids), _member(ids_c, ids)
        rows = np.empty((ids.size, 8))
        rows[in_prev, :4] = boxes_p
        rows[in_cur, 4:] = boxes_c
        rows[~in_prev, :4] = rows[~in_prev, 4:]
        rows[~in_cur, 4:] = rows[~in_cur, :4]
        return rows, in_prev, in_cur

    def denoise_batch(self, boxes: np.ndarray, s: int, ctx: FrameContext) -> DenoisedBatch:
        boxes = np.asarray(boxes, dtype=np.float64)
        n = boxes.shape[0]
        memo = self._memo
        if memo is None or memo[0] is not ctx:
            memo = self._memo = (ctx, self._targets(ctx))
        targets = memo[1]
        if targets is None:
            low = np.full(n, FAR_SCORE)
            return DenoisedBatch(boxes.copy(), low.copy(), low.copy(), low.copy())
        gt_pix, in_prev, in_cur = targets

        # A conditional pair is a baseline head's: the previous member is the
        # condition and is left untouched, and identity is decided by the
        # current member alone.
        offsets = (4,) if ctx.conditional else (0, 4)
        cols = slice(offsets[0], 8)
        rows, gt_rows = boxes[:, cols], gt_pix[:, cols]
        # Weakly overlapping rows (oversized or far noise boxes) snap by
        # center distance; pure area-argmax would starve small objects. A
        # row whose overlap ceiling is already below BASIN_FLOOR is weak
        # without its row of the matrix; only the rest get one.
        weak = overlap_ceiling(rows, gt_rows) < BASIN_FLOOR * (
            1.0 - _CEILING_MARGIN)
        snap = np.zeros(n, dtype=np.intp)
        rest = np.flatnonzero(~weak)
        if rest.size:
            overlaps = iou_matrix(rows[rest], gt_rows)
            best = np.argmax(overlaps, axis=1)
            snap[rest] = best
            weak[rest] = overlaps[np.arange(rest.size), best] < BASIN_FLOOR
        if np.any(weak):
            # The closer of the members decides: a noise pair is pulled onto
            # whichever object either member sits nearest. Squared distances
            # take one sqrt after the minimum, the same bits as comparing
            # norms, since sqrt is monotone and correctly rounded.
            picked = boxes[weak]
            sq = None
            for off in offsets:
                dx = picked[:, off, None] - gt_pix[:, off]
                dy = picked[:, off + 1, None] - gt_pix[:, off + 1]
                d = dx * dx + dy * dy
                sq = d if sq is None else np.minimum(sq, d)
            snap[weak] = np.argmin(np.sqrt(sq), axis=1)

        target_pix = gt_pix[snap]
        f = self.fidelity
        # Blended members on the (n, 2, 4) member view: the current one
        # alone for a conditional pair, both otherwise.
        members = slice(1, 2) if ctx.conditional else slice(0, 2)
        out_pix = boxes.copy()
        out_pix.reshape(n, 2, 4)[:, members] = (
            f * target_pix.reshape(n, 2, 4)[:, members]
            + (1.0 - f) * boxes.reshape(n, 2, 4)[:, members]
        )
        if f > 0.0:
            out_pix = self._cap_residual(out_pix, target_pix, members)

        # Fit of the emitted pair against its own target drives the scores;
        # a small input-fit bonus ranks well-placed proposals above noise
        # rows that merely get pulled onto the same target. fit_in is bit for
        # bit the (row, snap) entry of the snap matrix.
        fit_out = overlap(out_pix, target_pix)
        fit_in = overlap(rows, target_pix[:, cols])
        assoc = (
            f
            * (SCORE_FLOOR + (1.0 - SCORE_FLOOR) * fit_out)
            * (1.0 - TIE_MARGIN * (1.0 - fit_in))
        )
        both = in_prev[snap] & in_cur[snap]
        assoc = np.where(both, assoc, assoc * MISSING_PENALTY)

        # fit_out is bit for bit the (row, snap) entry of the output's full
        # overlap matrix, so a row at or above FAR_FLOOR on its own target
        # overlaps a target and cannot be off-target; only the rest are
        # tested against every target.
        off_target = np.zeros(n, dtype=bool)
        miss = np.flatnonzero(fit_out < FAR_FLOOR)
        if miss.size:
            off_target[miss] = self._off_target(out_pix[miss], gt_pix)
        assoc = np.where(off_target, FAR_SCORE, assoc)

        cls_prev = np.where(in_prev[snap], f, MISSING_CLS)
        cls_cur = np.where(in_cur[snap], f, MISSING_CLS)
        cls_prev = np.where(off_target, FAR_SCORE, cls_prev)
        cls_cur = np.where(off_target, FAR_SCORE, cls_cur)
        return DenoisedBatch(out_pix, cls_prev, cls_cur, np.clip(assoc, 0.0, 1.0))

    def _cap_residual(
        self, out_pix: np.ndarray, target_pix: np.ndarray, members: slice
    ) -> np.ndarray:
        """Pull emitted boxes to within the snap radius of their target.

        ``members`` selects members of the (n, 2, 4) view of both arrays;
        every selected member is capped in the same element-wise pass.
        """
        n = out_pix.shape[0]
        out = out_pix.copy()
        o = out.reshape(n, 2, 4)[:, members]
        t = target_pix.reshape(n, 2, 4)[:, members]
        radius = SNAP_CAP * np.hypot(t[..., 2], t[..., 3]) / self.fidelity
        delta_c = o[..., :2] - t[..., :2]
        # sqrt of the summed squares, as np.linalg.norm computes it.
        dx, dy = delta_c[..., 0], delta_c[..., 1]
        norm = np.sqrt(dx * dx + dy * dy)
        shrink = np.where(norm > radius, radius / np.maximum(norm, 1e-12), 1.0)
        o[..., :2] = t[..., :2] + delta_c * shrink[..., None]
        delta_s = o[..., 2:] - t[..., 2:]
        o[..., 2:] = t[..., 2:] + np.clip(
            delta_s, -radius[..., None], radius[..., None]
        )
        return out

    def _off_target(self, out_pix: np.ndarray, gt_pix: np.ndarray) -> np.ndarray:
        """True for rows whose output overlaps no target and whose centers
        fall outside every target's extent in both frames."""
        best = iou_matrix(out_pix, gt_pix).max(axis=1)
        inside_any = np.zeros(out_pix.shape[0], dtype=bool)
        for off in (0, 4):
            cx, cy = out_pix[:, off], out_pix[:, off + 1]
            gx1 = gt_pix[:, off] - gt_pix[:, off + 2] / 2
            gx2 = gt_pix[:, off] + gt_pix[:, off + 2] / 2
            gy1 = gt_pix[:, off + 1] - gt_pix[:, off + 3] / 2
            gy2 = gt_pix[:, off + 1] + gt_pix[:, off + 3] / 2
            inside = (
                (cx[:, None] >= gx1[None, :]) & (cx[:, None] <= gx2[None, :])
                & (cy[:, None] >= gy1[None, :]) & (cy[:, None] <= gy2[None, :])
            )
            inside_any |= inside.any(axis=1)
        return (best < FAR_FLOOR) & ~inside_any


class DetectionSnapDenoiser:
    """Snaps each row member onto the best-overlapping external detection.

    Previous members snap to frame t-1 detections, current members to
    frame t detections (independently, ties broken by higher confidence
    then lower index). Class scores copy the detection confidences; a
    member whose best overlap is at or below ``SNAP_FLOOR`` keeps its input
    box with class score 0. The association score blends the snapped
    pair's geometric consistency, the row-aligned ``overlap`` of its
    previous and current members, with min(conf_prev, conf_cur).
    """

    @staticmethod
    def _snap_frame(boxes_pix: np.ndarray, dets: np.ndarray):
        """Each member's snapped box, class score and detection index; -1
        for a member left at its input box."""
        det_arr, confs = dets[:, :4], dets[:, 4]
        overlaps = iou_matrix(boxes_pix, det_arr)
        best = overlaps.max(axis=1)
        # Highest overlap, then highest confidence among the detections
        # sharing it, then the lowest index (argmax takes the first).
        top = overlaps == best[:, None]
        pick = np.argmax(np.where(top, confs[None, :], -np.inf), axis=1)
        near = best > SNAP_FLOOR
        return (
            np.where(near[:, None], det_arr[pick], boxes_pix),
            np.where(near, confs[pick], 0.0),
            np.where(near, pick, -1),
        )

    def denoise_batch(self, boxes: np.ndarray, s: int, ctx: FrameContext) -> DenoisedBatch:
        boxes = np.asarray(boxes, dtype=np.float64)
        n = boxes.shape[0]
        out_pix = boxes.copy()
        cls_prev = np.zeros(n)
        cls_cur = np.zeros(n)

        have_prev = ctx.det_prev is not None and len(ctx.det_prev) > 0
        have_cur = ctx.det_cur is not None and len(ctx.det_cur) > 0
        if have_prev and not ctx.conditional:
            snapped, confs, _ = self._snap_frame(boxes[:, :4], ctx.det_prev)
            out_pix[:, :4] = snapped
            cls_prev = confs
        elif ctx.conditional:
            cls_prev = np.ones(n)
        if have_cur:
            snapped, confs, _ = self._snap_frame(boxes[:, 4:], ctx.det_cur)
            out_pix[:, 4:] = snapped
            cls_cur = confs

        if (have_prev or ctx.conditional) and have_cur:
            consistency = overlap(out_pix[:, :4], out_pix[:, 4:])
            assoc = 0.5 * (consistency + np.minimum(cls_prev, cls_cur))
        else:
            assoc = np.zeros(n)
        return DenoisedBatch(out_pix, cls_prev, cls_cur, np.clip(assoc, 0.0, 1.0))
