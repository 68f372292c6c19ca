"""End-to-end pipeline behavior at desk scale."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairtrack
from pairtrack import pipeline
from pairtrack.denoiser import (
    CandidateBatch,
    FrameContext,
    OracleDenoiser,
    ProposalOrigin,
)
from pairtrack.geometry import overlap
from pairtrack.metrics import evaluate
from pairtrack.pipeline import (
    PipelineConfig,
    Variant,
    _gate_and_suppress,
    run_pair,
    run_sequence,
)
from pairtrack.simulator import (
    GtFrame,
    LinearMotion,
    NonLinearMotion,
    SceneSpec,
    generate,
)
from pairtrack.tracker import Tracker, TrackerConfig

PRIOR = ProposalOrigin.PRIOR
PADDED = ProposalOrigin.PADDED


def small_scene(seed=1, n=4, duration=10, occlusion=0.0):
    return generate(
        SceneSpec(
            n_objects=n, duration=duration, motion=LinearMotion(),
            occlusion_rate=occlusion, seed=seed,
        )
    )


class TestRunPair:
    def setup(self):
        pass

    def test_perfect_oracle_recovers_gt(self):
        scene = small_scene()
        cfg = PipelineConfig(n_test=100)
        ctx = FrameContext(
            scene.image_size,
            gt_prev=scene.visible(1), gt_cur=scene.visible(2),
        )
        cands, n_prior = run_pair(
            ctx, [], cfg, OracleDenoiser(1.0),
            np.random.default_rng(0), 0.25,
        )
        assert n_prior == 0
        assert len(cands) == 4
        _, gt_cur = scene.visible(2)
        for cur in cands.pairs[:, 4:]:
            assert any(np.allclose(cur, b, atol=1e-6) for b in gt_cur)

    def test_gating_soundness(self):
        scene = small_scene()
        cfg = PipelineConfig(n_test=64)
        ctx = FrameContext(
            scene.image_size,
            gt_prev=scene.visible(1), gt_cur=scene.visible(2),
        )
        cands, _ = run_pair(
            ctx, scene.visible_boxes(1), cfg, OracleDenoiser(0.9),
            np.random.default_rng(3), 0.3,
        )
        assert all(a > cfg.tracker.conf_threshold for a in cands.assoc)
        assert len(cands) <= cfg.n_test

    def test_gate_drops_everything(self):
        # Rows at the confidence gate go whatever their origin; the tracker
        # trusts this gate and applies none of its own.
        cfg = PipelineConfig()
        batch = CandidateBatch(
            pairs=np.tile([5.0, 5.0, 10.0, 10.0] * 2, (3, 1)),
            cls_prev=np.ones(3),
            cls_cur=np.ones(3),
            assoc=np.full(3, cfg.tracker.conf_threshold),
            origin=np.array([PRIOR, PRIOR, PADDED], dtype=np.int8),
        )
        assert len(_gate_and_suppress(batch, cfg)) == 0

    def test_survivors_keep_proposal_order(self):
        cfg = PipelineConfig()
        pairs = np.array([[100.0 * k, 100.0, 20.0, 20.0] * 2 for k in range(1, 5)])
        batch = CandidateBatch(
            pairs=pairs,
            cls_prev=np.ones(4),
            cls_cur=np.ones(4),
            assoc=np.array([0.3, 0.9, 0.1, 0.8]),
            origin=np.array([PADDED, PRIOR, PRIOR, PADDED], dtype=np.int8),
        )
        kept = _gate_and_suppress(batch, cfg)
        assert np.array_equal(kept.pairs, pairs[[0, 1, 3]])
        assert kept.assoc.tolist() == [0.3, 0.9, 0.8]
        assert kept.origin.tolist() == [PADDED, PRIOR, PADDED]

    @pytest.mark.parametrize("dup_prev", [
        (110, 100, 20, 20),  # the whole pair repeated: nms3d removes it
        (600, 600, 20, 20),  # only the current box repeated: nms2d does
    ])
    def test_padded_duplicate_of_prior_row_suppressed(self, dup_prev):
        # The tracker runs no duplicate filter of its own: a padded row
        # repeating a prior-derived row's current box must go here. The
        # weak newcomer passes; the tracker's init threshold rejects it.
        rows = [
            (110, 100, 20, 20, 120, 100, 20, 20),
            (300, 310, 20, 20, 300, 320, 20, 20),
            dup_prev + (120, 100, 20, 20),
            (500, 500, 20, 20, 500, 500, 20, 20),
        ]
        batch = CandidateBatch(
            pairs=np.array(rows, dtype=np.float64),
            cls_prev=np.full(4, 0.9),
            cls_cur=np.full(4, 0.9),
            assoc=np.array([0.9, 0.85, 0.8, 0.65]),
            origin=np.array([PRIOR, PRIOR, PADDED, PADDED], dtype=np.int8),
        )
        kept = _gate_and_suppress(batch, PipelineConfig())
        assert np.array_equal(kept.pairs, batch.pairs[[0, 1, 3]])
        assert kept.origin.tolist() == [PRIOR, PRIOR, PADDED]

    def test_fallback_without_priors(self):
        scene = small_scene()
        cfg = PipelineConfig(n_test=50, proportion=0.5)
        cands, n_prior = run_pair(
            FrameContext(scene.image_size, gt_prev=scene.visible(1),
                         gt_cur=scene.visible(2)),
            [], cfg, OracleDenoiser(0.9),
            np.random.default_rng(0), 0.25,
        )
        assert n_prior == 0
        assert isinstance(cands, CandidateBatch)

    def test_detection_mode_prev_equals_cur(self):
        scene = small_scene()
        gt = scene.visible(3)
        ctx = FrameContext(scene.image_size, gt_prev=gt, gt_cur=gt)
        cfg = PipelineConfig(n_test=64)
        cands, _ = run_pair(
            ctx, scene.visible_boxes(3), cfg, OracleDenoiser(1.0),
            np.random.default_rng(0), 0.25,
        )
        assert cands
        for pair in cands.pairs:
            assert np.allclose(pair[:4], pair[4:], atol=1e-6)

    def test_baseline_uses_conditional_refinement(self):
        scene = small_scene()
        cfg = PipelineConfig(n_test=32, variant=Variant.BASELINE)
        seen = {}

        class Spy:
            def denoise_batch(self, z, s, ctx):
                seen["conditional"] = ctx.conditional
                return OracleDenoiser(1.0).denoise_batch(z, s, ctx)

        run_pair(
            FrameContext(scene.image_size, gt_prev=scene.visible(1),
                         gt_cur=scene.visible(2)),
            scene.visible_boxes(1), cfg, Spy(),
            np.random.default_rng(0), 0.25,
        )
        assert seen["conditional"] is True

    def test_baseline_without_priors_refines_unconditionally(self):
        # Padded noise rows have no previous-frame member to condition on.
        scene = small_scene()
        cfg = PipelineConfig(n_test=32, variant=Variant.BASELINE)
        seen = {}

        class Spy:
            def denoise_batch(self, z, s, ctx):
                seen["conditional"] = ctx.conditional
                return OracleDenoiser(1.0).denoise_batch(z, s, ctx)

        run_pair(
            FrameContext(scene.image_size, gt_prev=scene.visible(1),
                         gt_cur=scene.visible(2)),
            [], cfg, Spy(), np.random.default_rng(0), 0.25,
        )
        assert seen["conditional"] is False


# Lattice boxes (corners on the 1/4 grid, sizes 0 to 1.5) in a small area:
# overlaps are frequent, some boxes have zero size, and ratios repeat. Left
# and top indices run 0..8, width and height indices 0..6; a box is drawn as
# one index into the table.
lattice_box = st.sampled_from(tuple(
    ((x + w / 2) / 4, (y + h / 2) / 4, w / 4, h / 4)
    for x in range(9) for y in range(9) for w in range(7) for h in range(7)
))
# Few distinct values, so ties are common; some fall below the gates.
tied = st.sampled_from([0.2, 0.5, 0.8, 0.8, 0.9, 0.9])


class TestSuppressionContract:
    """``Tracker.step`` filters no duplicates: the gate must leave no two
    survivors whose current boxes overlap by more than
    ``nms2d_threshold``, also past one 64-row suppression chunk."""

    @given(rows=st.lists(
               st.tuples(lattice_box, lattice_box, tied, tied, tied,
                         st.sampled_from([PRIOR, PADDED])),
               min_size=65, max_size=150),
           nms3d_threshold=st.sampled_from([0.3, 0.6, 1.0]),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_survivors_current_boxes_within_threshold(
        self, rows, nms3d_threshold, data
    ):
        prev, cur, assoc, cls_prev, cls_cur, origin = map(np.array, zip(*rows))
        # A fixed threshold, or a realized overlap of two current boxes,
        # exactly (both may survive) or one float below (they may not).
        mat = overlap(cur[:, None], cur[None])
        realized = mat[~np.eye(len(mat), dtype=bool)]
        on = data.draw(st.sampled_from(sorted(set(realized[realized > 0].tolist()))
                                       or [0.7]))
        threshold = data.draw(st.sampled_from(
            [0.0, 0.5, 0.7, 1.0, on, float(np.nextafter(on, 0.0))]
        ))
        batch = CandidateBatch(
            pairs=np.hstack([prev, cur]), cls_prev=cls_prev, cls_cur=cls_cur,
            assoc=assoc, origin=origin.astype(np.int8),
        )
        cfg = PipelineConfig(tracker=TrackerConfig(
            nms3d_threshold=nms3d_threshold, nms2d_threshold=threshold
        ))
        kept = _gate_and_suppress(batch, cfg)
        kept_cur = kept.pairs[:, 4:]
        pairwise = overlap(kept_cur[:, None], kept_cur[None])
        np.fill_diagonal(pairwise, 0.0)
        assert (pairwise <= threshold).all()


class TestRunSequence:
    def test_step_receives_run_pair_survivors(self, monkeypatch):
        # A caller counting run_pair's output and Tracker.step's input relies
        # on this: the step gets exactly the survivors, and n_prior counts
        # the prior-derived rows among them.
        pair_out, step_in = [], []
        real_run_pair, real_step = pipeline.run_pair, Tracker.step

        def spy_run_pair(*args, **kwargs):
            out = real_run_pair(*args, **kwargs)
            pair_out.append(out)
            return out

        def spy_step(self, frame, batch):
            step_in.append(batch)
            return real_step(self, frame, batch)

        monkeypatch.setattr(pipeline, "run_pair", spy_run_pair)
        monkeypatch.setattr(Tracker, "step", spy_step)
        scene = small_scene(duration=8, occlusion=0.3)
        run_sequence(
            PipelineConfig(n_test=64), OracleDenoiser(0.9), scene=scene, seed=2
        )
        assert len(pair_out) == len(step_in) == scene.n_frames - 1
        for (kept, n_prior), batch in zip(pair_out, step_in):
            assert len(kept) == len(batch)
            assert n_prior == np.count_nonzero(batch.origin == PRIOR)
        assert any(n_prior for _, n_prior in pair_out)

    def test_two_frame_scene(self):
        scene = small_scene(duration=2)
        res = run_sequence(
            PipelineConfig(n_test=100), OracleDenoiser(1.0), scene=scene, seed=0
        )
        report = evaluate(scene, res)
        assert report.mota == 1.0
        assert report.idsw == 0

    def test_deterministic(self):
        scene = small_scene(duration=8)
        cfg = PipelineConfig(n_test=64)
        a = run_sequence(cfg, OracleDenoiser(0.9), scene=scene, seed=5)
        b = run_sequence(cfg, OracleDenoiser(0.9), scene=scene, seed=5)
        assert sorted(a.frame_numbers()) == sorted(b.frame_numbers())
        for f in a.frame_numbers():
            ra, rb = a.rows(f), b.rows(f)
            assert ra.ids.tolist() == rb.ids.tolist()
            assert ra.boxes.tolist() == rb.boxes.tolist()

    def test_requires_source(self):
        with pytest.raises(ValueError):
            run_sequence(PipelineConfig(), OracleDenoiser(1.0))

    def test_detection_stream_mode(self):
        scene = small_scene(duration=6)
        detections = {}
        for f in range(1, 7):
            boxes = scene.visible_boxes(f)
            detections[f] = np.column_stack([boxes, np.full(len(boxes), 0.95)])
        from pairtrack.denoiser import DetectionSnapDenoiser

        res = run_sequence(
            PipelineConfig(n_test=64),
            DetectionSnapDenoiser(),
            detections=detections,
            image_size=scene.image_size,
            seed=0,
        )
        report = evaluate(scene, res)
        assert report.mota > 0.8

    def test_clean_detections_do_not_collapse(self):
        # Without the snap floor, members overlapping no detection all
        # snapped onto the same one, pairing two objects: this run read
        # MOTA 0.30 with 359 identity switches.
        from pairtrack.denoiser import DetectionSnapDenoiser

        scene = generate(SceneSpec(n_objects=30, duration=50, motion=NonLinearMotion(),
                                   occlusion_rate=0.3, seed=200))
        detections = {}
        for f in range(1, scene.n_frames + 1):
            boxes = scene.visible_boxes(f)
            detections[f] = np.column_stack([boxes, np.full(len(boxes), 0.9)])
        res = run_sequence(PipelineConfig(n_test=500), DetectionSnapDenoiser(),
                           detections=detections, image_size=scene.image_size, seed=0)
        report = evaluate(scene, res)
        assert report.mota > 0.95
        assert report.idsw <= 5

    def test_variants_share_downstream(self):
        # The two variants must differ only in candidate construction: on a
        # benign linear scene both track everything.
        scene = small_scene(duration=10, n=3)
        for variant in Variant:
            cfg = PipelineConfig(n_test=64, variant=variant)
            res = run_sequence(cfg, OracleDenoiser(1.0), scene=scene, seed=0)
            report = evaluate(scene, res)
            assert report.mota == 1.0, variant

    def test_occlusion_resumes_identity(self):
        # An object hidden for a contiguous span must come back with the
        # same identity through the lost-track reassociation path.
        scene = small_scene(seed=3, n=3, duration=14)
        victim = 2
        for f in (6, 7):
            gt = scene.frames[f]
            scene.frames[f] = GtFrame(gt.ids, gt.boxes, gt.visible & (gt.ids != victim))
        res = run_sequence(
            PipelineConfig(n_test=128), OracleDenoiser(1.0), scene=scene, seed=0
        )
        report = evaluate(scene, res)
        assert report.idsw == 0
        ids_before = set(res.rows(5).ids.tolist())
        ids_after = set(res.rows(10).ids.tolist())
        assert ids_before == ids_after


def test_tracking_path_leaves_numpy_ma_unloaded(tmp_path):
    # NumPy's ``unique`` and ``union1d`` import ``numpy.ma``, over a megabyte
    # of memory, on first call. Tracking, writing and scoring a sequence
    # must not; modules that the imports load are left out, so the test
    # holds for a NumPy that imports ``numpy.ma`` eagerly.
    code = textwrap.dedent(f"""
        import sys
        import pairtrack as pt
        import pairtrack.harness.io
        before = set(sys.modules)
        scene = pt.generate(pt.SceneSpec(
            n_objects=6, duration=8, motion=pt.CrowdedMotion(0.35),
            occlusion_rate=0.5, seed=4))
        result = pt.run_sequence(pt.PipelineConfig(n_test=64),
                                 pt.OracleDenoiser(0.9), scene=scene, seed=1)
        pairtrack.harness.io.write_results(result, {str(tmp_path / "r.txt")!r})
        pt.evaluate(scene, result)
        print(*sorted(set(sys.modules) - before))
    """)
    src = str(Path(pairtrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert (tmp_path / "r.txt").stat().st_size > 0
    assert not [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")]
