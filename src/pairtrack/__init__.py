"""Paired-box denoising-diffusion engine for multi-object tracking.

Boxes from two adjacent frames form one 8-scalar sample; tracking is the
act of refining a batch of noisy paired boxes into per-object candidates
and feeding them through a Kalman-backed track lifecycle.
"""

from .denoiser import (
    CandidateBatch,
    DetectionSnapDenoiser,
    FrameContext,
    OracleDenoiser,
)
from .diffusion import PaddingStrategy, PerturbationSchedule
from .geometry import giou, nms2d, nms3d
from .metrics import MetricsReport, evaluate
from .pipeline import PipelineConfig, Variant, run_pair, run_sequence
from .simulator import (
    CrowdedMotion,
    LinearMotion,
    NonLinearMotion,
    SceneGroundTruth,
    SceneSpec,
    generate,
)
from .tracker import Tracker, TrackerConfig, TrackingResult

__version__ = "0.1.0"

__all__ = [
    "giou",
    "nms2d",
    "nms3d",
    "PaddingStrategy",
    "PerturbationSchedule",
    "CandidateBatch",
    "FrameContext",
    "OracleDenoiser",
    "DetectionSnapDenoiser",
    "Tracker",
    "TrackerConfig",
    "TrackingResult",
    "SceneSpec",
    "SceneGroundTruth",
    "LinearMotion",
    "NonLinearMotion",
    "CrowdedMotion",
    "generate",
    "MetricsReport",
    "evaluate",
    "PipelineConfig",
    "Variant",
    "run_pair",
    "run_sequence",
]
