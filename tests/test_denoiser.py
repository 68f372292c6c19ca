"""Identity, oracle and detection-snap denoiser tests."""

from __future__ import annotations

import numpy as np
import pytest

from pairtrack.denoiser import (
    DetectionSnapDenoiser,
    FrameContext,
    IdentityDenoiser,
    OracleDenoiser,
)
from pairtrack.geometry import BBox, PairedBox, iou3d

IMAGE = (1000, 800)


class TestIdentityDenoiser:
    def test_echoes_input(self):
        z = np.linspace(-1, 1, 24).reshape(3, 8)
        ctx = FrameContext(1, 2, IMAGE)
        out = IdentityDenoiser().denoise_batch(z, 10, ctx)
        assert np.allclose(out.pairs, z)
        assert np.all(out.assoc == 1.0)

    @pytest.mark.parametrize("n", [1, 500, 1000])
    def test_row_count_preserved(self, n):
        z = np.zeros((n, 8))
        ctx = FrameContext(1, 2, IMAGE)
        out = IdentityDenoiser().denoise_batch(z, 0, ctx)
        assert out.pairs.shape == (n, 8) and out.assoc.shape == (n,)


class TestOracleDenoiser:
    def ctx(self, conditional=False):
        gt_prev = [(1, BBox(200, 200, 60, 100)), (2, BBox(600, 400, 80, 80))]
        gt_cur = [(1, BBox(210, 205, 60, 100)), (2, BBox(590, 400, 80, 80))]
        return FrameContext(
            1, 2, IMAGE, gt_prev=gt_prev, gt_cur=gt_cur, conditional=conditional
        )

    def test_fidelity_one_snaps_exactly(self):
        ctx = self.ctx()
        boxes = np.array(
            [
                [205, 195, 50, 90, 215, 210, 70, 110],
                [610, 390, 70, 70, 580, 410, 90, 90],
            ],
            dtype=float,
        )
        out = OracleDenoiser(1.0).denoise_batch(boxes, 100, ctx)
        assert np.allclose(out.pairs[0], [200, 200, 60, 100, 210, 205, 60, 100])
        assert np.allclose(out.pairs[1], [600, 400, 80, 80, 590, 400, 80, 80])
        assert out.assoc[0] >= 0.95  # near-unit score, modulated by input fit
        assert out.cls_prev[0] == pytest.approx(1.0)

    def test_fidelity_zero_echoes_with_low_scores(self):
        ctx = self.ctx()
        boxes = np.array([[205, 195, 50, 90, 215, 210, 70, 110]], dtype=float)
        out = OracleDenoiser(0.0).denoise_batch(boxes, 100, ctx)
        assert np.allclose(out.pairs[0], [205, 195, 50, 90, 215, 210, 70, 110])
        assert out.assoc[0] < 0.25

    def test_each_snaps_to_nearest(self):
        # Brute-force nearest-target check on a small batch.
        ctx = self.ctx()
        rng = np.random.default_rng(4)
        rows = rng.uniform(
            [100, 100, 30, 30, 100, 100, 30, 30],
            [900, 700, 120, 120, 900, 700, 120, 120],
            size=(40, 8),
        )
        targets = [
            PairedBox(BBox(200, 200, 60, 100), BBox(210, 205, 60, 100)),
            PairedBox(BBox(600, 400, 80, 80), BBox(590, 400, 80, 80)),
        ]
        out = OracleDenoiser(1.0).denoise_batch(rows, 100, ctx)
        for i, row in enumerate(rows):
            row_pair = PairedBox.from_flat(row)
            overlaps = [iou3d(row_pair, t) for t in targets]
            if max(overlaps) > 0:
                expected = targets[int(np.argmax(overlaps))]
                assert np.allclose(out.pairs[i], expected.flatten())

    def test_missing_in_one_frame_penalized(self):
        gt_prev = [(1, BBox(200, 200, 60, 100))]
        gt_cur = []  # identity 1 vanished in the current frame
        ctx = FrameContext(1, 2, IMAGE, gt_prev=gt_prev, gt_cur=gt_cur)
        boxes = np.array([[200, 200, 60, 100, 200, 200, 60, 100]], dtype=float)
        out = OracleDenoiser(1.0).denoise_batch(boxes, 50, ctx)
        assert out.assoc[0] < 0.25
        assert out.cls_cur[0] < 0.25

    def test_empty_gt_all_below_gate(self):
        ctx = FrameContext(1, 2, IMAGE, gt_prev=[], gt_cur=[])
        boxes = np.full((5, 8), 300.0)
        out = OracleDenoiser(1.0).denoise_batch(boxes, 50, ctx)
        assert np.all(out.assoc < 0.25)

    def test_low_fidelity_far_rows_below_gate(self):
        # With weak fidelity an output row stuck far from every target is
        # marked off-target.
        ctx = self.ctx()
        boxes = np.array([[950, 50, 10, 10, 950, 60, 10, 10]], dtype=float)
        out = OracleDenoiser(0.1).denoise_batch(boxes, 50, ctx)
        assert out.assoc[0] < 0.25

    def test_detection_mode_prev_equals_cur(self):
        gt = [(1, BBox(300, 300, 60, 60))]
        ctx = FrameContext(5, 5, IMAGE, gt_prev=gt, gt_cur=gt)
        boxes = np.array([[280, 280, 50, 50, 320, 320, 70, 70]], dtype=float)
        out = OracleDenoiser(1.0).denoise_batch(boxes, 0, ctx)
        pix = out.pairs[0]
        assert np.allclose(pix[:4], pix[4:])

    def test_conditional_mode_keeps_prev_member(self):
        ctx = self.ctx(conditional=True)
        boxes = np.array([[205, 195, 50, 90, 215, 210, 70, 110]], dtype=float)
        out = OracleDenoiser(1.0).denoise_batch(boxes, 100, ctx)
        pix = out.pairs[0]
        assert np.allclose(pix[:4], [205, 195, 50, 90])  # condition untouched
        assert np.allclose(pix[4:], [210, 205, 60, 100])  # snapped

    def test_deterministic(self):
        ctx = self.ctx()
        boxes = np.random.default_rng(1).uniform(100, 700, (10, 8))
        a = OracleDenoiser(0.8).denoise_batch(boxes, 30, ctx)
        b = OracleDenoiser(0.8).denoise_batch(boxes, 30, ctx)
        assert np.allclose(a.pairs, b.pairs)
        assert np.array_equal(a.assoc, b.assoc)

    def test_fidelity_range_checked(self):
        with pytest.raises(ValueError):
            OracleDenoiser(1.5)


class TestDetectionSnapDenoiser:
    def test_single_detection_pair(self):
        ctx = FrameContext(
            1, 2, IMAGE,
            det_prev=[(BBox(300, 300, 60, 60), 0.9)],
            det_cur=[(BBox(320, 300, 60, 60), 0.8)],
        )
        boxes = np.tile([500.0, 500, 80, 80, 500, 500, 80, 80], (3, 1))
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        for i in range(3):
            pix = out.pairs[i]
            assert np.allclose(pix[:4], [300, 300, 60, 60])
            assert np.allclose(pix[4:], [320, 300, 60, 60])
            assert out.cls_prev[i] == pytest.approx(0.9)
            assert out.cls_cur[i] == pytest.approx(0.8)

    def test_stationary_full_confidence(self):
        b = BBox(300, 300, 60, 60)
        ctx = FrameContext(1, 2, IMAGE, det_prev=[(b, 1.0)], det_cur=[(b, 1.0)])
        boxes = np.array([[300, 300, 60, 60, 300, 300, 60, 60]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        assert out.assoc[0] == pytest.approx(1.0)

    def test_crossing_objects_resolved_by_overlap(self):
        # A at x=200 moving right, B at x=600 moving left; proposals near
        # A's prior must produce the (A_prev, A_cur) pairing.
        a_prev, a_cur = BBox(200, 300, 60, 60), BBox(260, 300, 60, 60)
        b_prev, b_cur = BBox(600, 300, 60, 60), BBox(540, 300, 60, 60)
        ctx = FrameContext(
            1, 2, IMAGE,
            det_prev=[(a_prev, 0.9), (b_prev, 0.9)],
            det_cur=[(a_cur, 0.9), (b_cur, 0.9)],
        )
        boxes = np.array([[210, 300, 60, 60, 230, 300, 60, 60]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        pix = out.pairs[0]
        assert np.allclose(pix[:4], a_prev.as_array())
        assert np.allclose(pix[4:], a_cur.as_array())

    def test_no_detections_zero_scores(self):
        ctx = FrameContext(1, 2, IMAGE, det_prev=[], det_cur=[])
        boxes = np.array([[100, 100, 50, 50, 100, 100, 50, 50]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        assert out.assoc[0] == 0.0
        assert np.allclose(out.pairs[0], [100, 100, 50, 50, 100, 100, 50, 50])
