"""End-to-end orchestration of proposal construction, refinement, gating
and the tracker, over frame pairs of a scene or a detection stream.

Two variants share every downstream component. The diffusion variant
builds prior-plus-padded proposals and corrupts both pair members; the
baseline repeats prior boxes only, corrupts just the current-frame member
and runs a single conditional refinement. A baseline pair without priors
has only padded noise and so no previous-frame member to condition on: it
is corrupted and refined whole, unconditionally, like a diffusion pair.
The variant flag touches nothing past candidate construction: the gate
survivors reach the tracker as rows of a ``CandidateBatch``, each with its
proposal's origin, which decides how the tracker uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .denoiser import CandidateBatch, Denoiser, FrameContext, ProposalOrigin
from .diffusion import (
    ALPHA_BAR,
    PaddingStrategy,
    PerturbationSchedule,
    build_inference_proposals,
    corrupt_proposals,
    corruption_alpha,
    ddim_refine,
    perturbation_timestep,
)
from .geometry import nms2d, nms3d
from .simulator import SceneGroundTruth, mean_motion
from .tracker import Tracker, TrackerConfig, TrackingResult

__all__ = [
    "Variant",
    "PipelineConfig",
    "run_pair",
    "run_sequence",
    "DetectionStream",
]

# Per-frame detections: one (n, 5) array of center-form pixel boxes and
# confidences (cx, cy, w, h, conf) per frame.
DetectionStream = dict[int, np.ndarray]
_NO_DETECTIONS = np.zeros((0, 5))

# Motion assumed before two frames of tracked history exist (and whenever the
# previous two frames share no tracked identity); ``perturbation_timestep``
# maps it to the pair's noise level.
INITIAL_MOTION = 0.25


class Variant(Enum):
    """The baseline refines once, so ``PipelineConfig`` rejects it with
    ``steps`` other than 1. It repeats a prior in every slot whatever
    ``proportion`` says; the field's default, 0.25, keeps it unchecked."""

    DIFFUSION = "diffusion"
    BASELINE = "baseline"


@dataclass(frozen=True)
class PipelineConfig:
    n_test: int = 500
    steps: int = 1
    proportion: float = 0.25
    padding: PaddingStrategy = PaddingStrategy.CAT_GAUSSIAN
    perturbation: PerturbationSchedule = PerturbationSchedule.LOGARITHMIC
    variant: Variant = Variant.DIFFUSION
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    def __post_init__(self):
        for name in ("n_test", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 <= self.proportion <= 1.0:
            raise ValueError(f"proportion must be in [0, 1], got {self.proportion!r}")
        if self.variant is Variant.BASELINE and self.steps != 1:
            raise ValueError(
                f"steps must be 1 with variant baseline, got {self.steps!r}")

    def schedule(self) -> np.ndarray:
        """``diffusion.ALPHA_BAR``, the one schedule's table. Nothing in the
        package calls this: ``perfbench`` calls it at set-up, and it goes
        once the benchmark stops calling it."""
        return ALPHA_BAR


def _gate_and_suppress(
    batch: CandidateBatch, cfg: PipelineConfig
) -> CandidateBatch:
    """Confidence gate, paired suppression, the per-frame 2D suppression
    and the detection gate on row indices; returns the survivor rows in
    proposal order."""
    tr = cfg.tracker
    rows = np.flatnonzero(batch.assoc > tr.conf_threshold)
    if not rows.size:
        return batch.take(rows)
    rows = rows[nms3d(batch.pairs[rows], batch.assoc[rows], tr.nms3d_threshold)]
    rows = rows[nms2d(batch.pairs[rows, 4:], batch.cls_cur[rows], tr.nms2d_threshold)]
    det = (batch.cls_prev[rows] > tr.det_threshold) & (
        batch.cls_cur[rows] > tr.det_threshold
    )
    return batch.take(np.sort(rows[det]))


def run_pair(
    ctx: FrameContext,
    priors: np.ndarray,
    cfg: PipelineConfig,
    denoiser: Denoiser,
    rng: np.random.Generator,
    motion_x: float,
) -> tuple[CandidateBatch, int]:
    """Produce gated candidates for one frame pair from (k, 4) center-form
    prior boxes.

    Returns the surviving rows (in proposal order, origins intact) and how
    many of them are prior-derived.
    """
    t = perturbation_timestep(motion_x, cfg.perturbation)
    alpha = corruption_alpha(t)

    baseline = cfg.variant is Variant.BASELINE
    props = build_inference_proposals(
        priors, cfg.n_test, 1.0 if baseline else cfg.proportion, cfg.padding,
        rng, ctx.image_size,
    )
    if baseline and props.n_prior_slots:
        # The previous-frame member stays the condition.
        props = corrupt_proposals(props, alpha, rng, columns=slice(4, 8))
        ctx = replace(ctx, conditional=True)
    else:
        props = corrupt_proposals(props, alpha, rng)

    batch = ddim_refine(props, t, cfg.steps, denoiser, ctx)
    kept = _gate_and_suppress(batch, cfg)
    return kept, int(np.count_nonzero(kept.origin == ProposalOrigin.PRIOR))


def _tracked_motion(result: TrackingResult, frame_prev: int) -> float:
    """``mean_motion`` of ids tracked across the previous two frames;
    ``INITIAL_MOTION`` covers missing history."""
    a, b = result.rows(frame_prev - 1), result.rows(frame_prev)
    return mean_motion((a.ids, a.boxes), (b.ids, b.boxes), INITIAL_MOTION)


def run_sequence(
    cfg: PipelineConfig,
    denoiser: Denoiser,
    scene: SceneGroundTruth | None = None,
    detections: DetectionStream | None = None,
    image_size: tuple[int, int] | None = None,
    seed: int = 0,
) -> TrackingResult:
    """Track a whole sequence, feeding each frame's output boxes forward.

    ``scene`` provides ground truth for oracle denoisers; ``detections``
    provides per-frame external boxes, which then also serve as the prior
    source. With neither priors come from the tracker's own output.
    """
    if scene is None and detections is None:
        raise ValueError("need a scene or a detection stream")
    if scene is not None:
        n_frames = scene.n_frames
        image_size = scene.image_size
    else:
        n_frames = max(detections) if detections else 0
        if image_size is None:
            raise ValueError("image_size required with a detection stream")
    if n_frames < 2:
        raise ValueError("need at least 2 frames")

    rng = np.random.default_rng([seed, 0])
    tracker = Tracker(cfg.tracker)
    result = TrackingResult()

    for frame in range(2, n_frames + 1):
        if detections is not None:
            det_prev = detections.get(frame - 1, _NO_DETECTIONS)
            det_cur = detections.get(frame, _NO_DETECTIONS)
            priors = det_prev[:, :4]
        else:
            det_prev = det_cur = None
            priors = tracker.prior_boxes()

        ctx = FrameContext(
            image_size=image_size,
            gt_prev=scene.visible(frame - 1) if scene is not None else None,
            gt_cur=scene.visible(frame) if scene is not None else None,
            det_prev=det_prev,
            det_cur=det_cur,
        )
        motion_x = _tracked_motion(result, frame - 1)
        cands, _ = run_pair(ctx, priors, cfg, denoiser, rng, motion_x)
        prev_rows, cur_rows = tracker.step(frame, cands)
        result.add(frame - 1, prev_rows)
        result.add(frame, cur_rows)
    return result
