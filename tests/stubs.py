"""Denoiser stubs shared by the test modules."""

from __future__ import annotations

import numpy as np

from pairtrack.denoiser import DenoisedBatch, FrameContext


class IdentityDenoiser:
    """Echoes its pixel-space input with unit scores."""

    def denoise_batch(self, boxes: np.ndarray, s: int, ctx: FrameContext) -> DenoisedBatch:
        boxes = np.asarray(boxes, dtype=np.float64)
        n = boxes.shape[0]
        ones = np.ones(n)
        return DenoisedBatch(boxes.copy(), ones.copy(), ones.copy(), ones.copy())
