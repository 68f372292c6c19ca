"""CLEAR and IDF1 evaluation tests with hand-executed instances."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize

from pairtrack.geometry import iou_matrix
from pairtrack.metrics import MetricsReport, evaluate
from pairtrack.simulator import (
    CrowdedMotion, GtFrame, LinearMotion, NonLinearMotion, SceneGroundTruth,
    SceneSpec, generate,
)
from pairtrack.tracker import FrameRows, TrackingResult

A = (100, 100, 20, 20)
B = (300, 300, 20, 20)

Box = tuple[float, float, float, float]


def scene(frames: dict[int, list[tuple[int, Box, bool]]]) -> SceneGroundTruth:
    """Rows (id, center-form box, visible) per frame, ids ascending."""
    return SceneGroundTruth(
        image_size=(1000, 1000),
        n_frames=max(frames),
        frames={
            f: GtFrame(
                np.array([i for i, _, _ in rows], dtype=np.int64),
                np.array([b for _, b, _ in rows], dtype=np.float64).reshape(-1, 4),
                np.array([v for _, _, v in rows], dtype=bool),
            )
            for f, rows in frames.items()
        },
    )


def rows(*rows: tuple[int, Box, float]) -> FrameRows:
    """Result rows (id, center-form box, score) as arrays."""
    return FrameRows(
        np.array([i for i, _, _ in rows], dtype=np.int64),
        np.array([b for _, b, _ in rows], dtype=np.float64).reshape(-1, 4),
        np.array([s for _, _, s in rows], dtype=np.float64),
    )


def result(frames: dict[int, list[tuple[int, Box]]]) -> TrackingResult:
    out = TrackingResult()
    for f, frame_rows in frames.items():
        out.add(f, rows(*((i, b, 1.0) for i, b in frame_rows)))
    return out


def two_track_scene() -> SceneGroundTruth:
    return scene(
        {
            1: [(1, A, True), (2, B, True)],
            2: [(1, A, True), (2, B, True)],
            3: [(1, A, True), (2, B, True)],
        }
    )


class TestHandInstance:
    def test_six_box_instance(self):
        # Predictions: id 10 covers A at frames 1-2, then id 30 takes over
        # at frame 3 (one switch); id 20 covers B at frames 1 and 3 with a
        # gap at 2 (one miss, one fragmentation, no switch).
        gt = two_track_scene()
        res = result(
            {
                1: [(10, A), (20, B)],
                2: [(10, A)],
                3: [(30, A), (20, B)],
            }
        )
        report = evaluate(gt, res)
        assert report.gt_count == 6
        assert report.fn == 1
        assert report.fp == 0
        assert report.idsw == 1
        assert report.frag == 1
        assert report.mota == pytest.approx(2 / 3, abs=1e-12)
        # IDF1 by hand: overlaps A-10 = 2, A-30 = 1, B-20 = 2; best global
        # matching takes A-10 and B-20, IDTP = 4 over 6 gt + 5 pred boxes.
        assert report.idf1 == pytest.approx(8 / 11, abs=1e-12)

    def test_perfect_relabeled_result(self):
        gt = two_track_scene()
        res = result(
            {
                1: [(7, A), (9, B)],
                2: [(7, A), (9, B)],
                3: [(7, A), (9, B)],
            }
        )
        report = evaluate(gt, res)
        assert report.mota == 1.0
        assert report.idf1 == 1.0
        assert report.idsw == 0
        assert report.frag == 0

    def test_empty_result(self):
        gt = two_track_scene()
        report = evaluate(gt, TrackingResult())
        assert report.mota == 0.0
        assert report.idf1 == 0.0
        assert report.fn == 6

    def test_empty_gt_error_value(self):
        gt = scene({1: [], 2: []})
        res = result({1: [(1, A)]})
        report = evaluate(gt, res)
        assert math.isnan(report.mota)
        assert report.fp == 1


class TestProperties:
    def test_relabeling_invariance(self):
        gt = two_track_scene()
        base = result(
            {
                1: [(10, A), (20, B)],
                2: [(10, A)],
                3: [(30, A), (20, B)],
            }
        )
        ref = evaluate(gt, base)
        rng = np.random.default_rng(0)
        ids = [10, 20, 30]
        for _ in range(100):
            perm = rng.permutation(1000)[:3] + 1
            mapping = dict(zip(ids, (int(p) for p in perm)))
            relabeled = TrackingResult()
            for f in base.frame_numbers():
                tids, boxes, scores = base.rows(f)
                relabeled.add(f, FrameRows(
                    np.array([mapping[i] for i in tids.tolist()]), boxes, scores))
            out = evaluate(gt, relabeled)
            assert out.mota == pytest.approx(ref.mota, abs=1e-12)
            assert out.idsw == ref.idsw
            assert out.idf1 == pytest.approx(ref.idf1, abs=1e-12)

    def test_pure_fp_decreases_mota(self):
        gt = two_track_scene()
        clean = result(
            {f: [(1, A), (2, B)] for f in (1, 2, 3)}
        )
        noisy = result(
            {
                1: [(1, A), (2, B), (99, (700, 700, 20, 20))],
                2: [(1, A), (2, B)],
                3: [(1, A), (2, B)],
            }
        )
        assert evaluate(gt, noisy).mota < evaluate(gt, clean).mota

    def test_frag_zero_for_contiguous(self):
        gt = two_track_scene()
        res = result(
            {
                1: [(1, A)],
                2: [(1, A), (2, B)],
                3: [(1, A), (2, B)],
            }
        )
        report = evaluate(gt, res)
        assert report.frag == 0

    def test_occlusion_gap_is_no_fragmentation(self):
        # Every visible box copied with its own id: occlusions break the
        # ground truth's spans, but the result never misses a visible box.
        gt = generate(SceneSpec(n_objects=6, duration=20, occlusion_rate=1.0,
                                seed=3))
        res = TrackingResult()
        for frame in gt.frames:
            ids, boxes = gt.visible(frame)
            res.add(frame, FrameRows(ids, boxes, np.ones(len(ids))))
        report = evaluate(gt, res)
        assert (report.mota, report.idf1, report.fn) == (1.0, 1.0, 0)
        assert report.frag == 0

    def test_miss_across_an_occlusion_is_one_fragmentation(self):
        # Matched, visible but missed, occluded, matched: the miss still
        # counts once the occlusion ends.
        gt = scene({
            1: [(1, A, True)], 2: [(1, A, True)], 3: [(1, A, False)],
            4: [(1, A, True)],
        })
        res = result({1: [(1, A)], 4: [(1, A)]})
        assert evaluate(gt, res).frag == 1

    def test_invisible_gt_ignored(self):
        gt = scene(
            {
                1: [(1, A, True), (2, B, False)],
                2: [(1, A, True), (2, B, True)],
            }
        )
        res = result({1: [(5, A)], 2: [(5, A), (6, B)]})
        report = evaluate(gt, res)
        assert report.gt_count == 3
        assert report.fn == 0
        assert report.mota == 1.0

    def test_gate_strictness(self):
        # Overlap below 0.5 must not match: shifted box with iou ~ 0.33.
        gt = scene({1: [(1, A, True)]})
        shifted = (110, 100, 20, 20)
        res = result({1: [(1, shifted)]})
        report = evaluate(gt, res)
        assert report.fn == 1 and report.fp == 1

    def test_zero_gate_never_matches_disjoint_boxes(self):
        gt = scene({1: [(1, (20, 20, 10, 10), True)]})
        res = result({1: [(1, (80, 80, 10, 10))]})
        for gate in (0.0, 0.5):
            report = evaluate(gt, res, iou_gate=gate)
            assert (report.mota, report.idf1) == (-1.0, 0.0)

    def test_zero_gate_drops_a_carried_match_that_moved_away(self):
        # Frame 1 matches; at frame 2 the result box no longer overlaps, so
        # neither the carry-over, the remainder nor the IDF1 counts may
        # pair them.
        gt = scene({1: [(1, A, True)], 2: [(1, A, True)]})
        res = result({1: [(1, A)], 2: [(1, B)]})
        for gate in (0.0, 0.5):
            report = evaluate(gt, res, iou_gate=gate)
            assert (report.fp, report.fn, report.idsw) == (1, 1, 0)
            assert report.idf1 == 0.5

    @pytest.mark.parametrize("gate", [-0.1, 1.5, math.nan])
    def test_gate_outside_unit_interval_rejected(self, gate):
        with pytest.raises(ValueError, match="iou_gate"):
            evaluate(two_track_scene(), result({}), iou_gate=gate)

    def test_serialization(self):
        gt = two_track_scene()
        res = result({f: [(1, A), (2, B)] for f in (1, 2, 3)})
        report = evaluate(gt, res)
        text = report.to_text()
        assert "MOTA = 1.0000" in text
        assert MetricsReport.csv_header().startswith("mota,")
        assert report.to_csv_row().split(",")[0] == "1.000000"


class TestPreviousCorrespondencePreference:
    def test_sticky_match_prevents_spurious_switch(self):
        # Two predictions hover over one GT; the one matched first must be
        # preferred in later frames even if the other overlaps slightly more.
        gt = scene({f: [(1, A, True)] for f in (1, 2, 3)})
        near = (101, 100, 20, 20)
        res = result({
            1: [(5, A)],
            2: [(5, near), (6, A)],
            3: [(5, near), (6, A)],
        })
        report = evaluate(gt, res)
        assert report.idsw == 0
        assert report.fp == 2  # the unmatched hoverer at frames 2 and 3


def _noisy_result(gt: SceneGroundTruth, seed: int) -> TrackingResult:
    """Visible ground truth with dropped rows, jitter, a mid-sequence id
    swap of identities 1 and 2, and false positives."""
    rng = np.random.default_rng(seed)
    out = TrackingResult()
    for frame in range(1, gt.n_frames + 1):
        ids, boxes = gt.visible(frame)
        for g, (cx, cy, w, h) in zip(ids.tolist(), boxes.tolist()):
            if rng.random() < 0.1:
                continue
            tid = 100 + g
            if frame > gt.n_frames // 2 and g in (1, 2):
                tid = 103 - g
            jx, jy = rng.normal(0.0, 3.0, 2)
            out.add(frame, rows((tid, (cx + jx, cy + jy, w, h), 1.0)))
        if rng.random() < 0.3:
            cx, cy = rng.uniform(100, 500, 2)
            out.add(frame, rows((900 + frame, (cx, cy, 40.0, 80.0), 0.5)))
    return out


class TestSeededOccludedScene:
    def test_report_pinned_field_for_field(self):
        # Pinned from the row-by-row array building that evaluate replaced;
        # every field, floats included, must stay exactly equal. frag was 32
        # while an occluded frame counted as a miss.
        spec = SceneSpec(n_objects=12, duration=30, motion=CrowdedMotion(0.35),
                         occlusion_rate=0.4, seed=8)
        gt = generate(spec)
        report = evaluate(gt, _noisy_result(gt, 3))
        assert report == MetricsReport(
            mota=0.855457227138643, idf1=0.8580152671755725, idsw=2, frag=27,
            fp=12, fn=35, gt_count=339,
        )


def reference_evaluate(gt: SceneGroundTruth, result: TrackingResult,
                       iou_gate: float) -> MetricsReport:
    """The same scoring as a loop over per-frame dicts keyed by raw ids,
    with scipy's solver for both assignments."""
    frames = sorted(set(gt.frames) | set(result.frame_numbers()))
    fp = fn = idsw = frag = gt_count = pred_count = 0
    prev, last, missed, counts = {}, {}, set(), {}
    for frame in frames:
        gt_ids, gt_boxes = gt.visible(frame)
        gt_ids = gt_ids.tolist()
        res = result.rows(frame)
        pred_ids = res.ids.tolist()
        gt_count += len(gt_ids)
        pred_count += len(pred_ids)
        overlaps = iou_matrix(gt_boxes, res.boxes)
        gated = (overlaps >= iou_gate) & (overlaps > 0.0)
        for i, j in zip(*np.nonzero(gated)):
            key = (gt_ids[i], pred_ids[j])
            counts[key] = counts.get(key, 0) + 1
        col = {p: j for j, p in enumerate(pred_ids)}
        matches = {g: prev[g] for i, g in enumerate(gt_ids)
                   if prev.get(g) in col and gated[i, col[prev[g]]]}
        free_g = [i for i, g in enumerate(gt_ids) if g not in matches]
        free_p = [j for j, p in enumerate(pred_ids)
                  if p not in matches.values()]
        if free_g and free_p:
            sub = np.ix_(free_g, free_p)
            for r, c in zip(*scipy.optimize.linear_sum_assignment(1.0 - overlaps[sub])):
                if gated[sub][r, c]:
                    matches[gt_ids[free_g[r]]] = pred_ids[free_p[c]]
        for g in gt_ids:
            if g in matches:
                idsw += g in last and last[g] != matches[g]
                frag += g in missed
                missed.discard(g)
                last[g] = matches[g]
            elif g in last:
                missed.add(g)
        fn += len(gt_ids) - len(matches)
        fp += len(pred_ids) - len(matches)
        prev = matches
    mota = float("nan") if gt_count == 0 else 1.0 - (fn + fp + idsw) / gt_count
    g_ids = sorted({g for g, _ in counts})
    p_ids = sorted({p for _, p in counts})
    matrix = np.zeros((len(g_ids), len(p_ids)))
    for (g, p), c in counts.items():
        matrix[g_ids.index(g), p_ids.index(p)] = c
    rows, cols = scipy.optimize.linear_sum_assignment(-matrix)
    total = gt_count + pred_count
    idf1 = float(2.0 * matrix[rows, cols].sum() / total) if total else 0.0
    return MetricsReport(mota=mota, idf1=idf1, idsw=idsw, frag=frag, fp=fp,
                         fn=fn, gt_count=gt_count)


def _scrambled_result(gt: SceneGroundTruth, rng) -> TrackingResult:
    """Dropped rows, jitter (sometimes far), random relabels onto a few
    shared ids, and false positives."""
    out = TrackingResult()
    for frame in range(1, gt.n_frames + 1):
        ids, boxes = gt.visible(frame)
        kept = {}
        for g, (cx, cy, w, h) in zip(ids.tolist(), boxes.tolist()):
            if rng.random() < 0.2:
                continue
            tid = 100 + int(rng.integers(1, 6)) if rng.random() < 0.15 else 100 + g
            sd = 30.0 if rng.random() < 0.1 else 4.0
            jx, jy = rng.normal(0.0, sd, 2)
            kept.setdefault(tid, (cx + jx, cy + jy, w, h))
        while rng.random() < 0.4:
            kept.setdefault(900 + int(rng.integers(0, 20)),
                            (*rng.uniform(100, 900, 2), 40.0, 60.0))
        out.add(frame, rows(*((t, b, 1.0) for t, b in kept.items())))
    return out


class TestAgainstDictReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_report_equals_reference(self, seed):
        rng = np.random.default_rng(seed)
        motion = (LinearMotion(), NonLinearMotion(), CrowdedMotion(0.35))[seed % 3]
        spec = SceneSpec(n_objects=6, duration=15, motion=motion,
                         occlusion_rate=0.4, seed=100 + seed)
        gt = generate(spec)
        res = _scrambled_result(gt, rng)
        for gate in (0.0, 0.3, 0.5, 1.0):
            assert evaluate(gt, res, gate) == reference_evaluate(gt, res, gate)
