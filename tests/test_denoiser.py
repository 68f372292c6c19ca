"""Oracle and detection-snap denoiser tests, and the identity stub's."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrack import denoiser
from pairtrack.denoiser import (
    _CEILING_MARGIN,
    BASIN_FLOOR,
    FAR_SCORE,
    MISSING_CLS,
    MISSING_PENALTY,
    SCORE_FLOOR,
    SNAP_FLOOR,
    TIE_MARGIN,
    DetectionSnapDenoiser,
    FrameContext,
    OracleDenoiser,
    id_set,
)
from pairtrack.diffusion import (
    PaddingStrategy,
    build_inference_proposals,
    ddim_refine,
)
from pairtrack.geometry import iou_matrix, overlap
from pairtrack.tracker import TrackerConfig
from stubs import IdentityDenoiser

IMAGE = (1000, 800)


def gt(*rows):
    """Ground truth (ids, boxes) of (id, (cx, cy, w, h)) rows, ids ascending."""
    return (np.array([i for i, _ in rows], dtype=np.int64),
            np.array([b for _, b in rows], dtype=np.float64).reshape(-1, 4))


class TestIdentityDenoiser:
    def test_echoes_input(self):
        z = np.linspace(-1, 1, 24).reshape(3, 8)
        ctx = FrameContext(IMAGE)
        out = IdentityDenoiser().denoise_batch(z, 10, ctx)
        assert np.allclose(out.pairs, z)
        assert np.all(out.assoc == 1.0)

    @pytest.mark.parametrize("n", [1, 500, 1000])
    def test_row_count_preserved(self, n):
        z = np.zeros((n, 8))
        ctx = FrameContext(IMAGE)
        out = IdentityDenoiser().denoise_batch(z, 0, ctx)
        assert out.pairs.shape == (n, 8) and out.assoc.shape == (n,)


class TestOracleDenoiser:
    def ctx(self, conditional=False):
        gt_prev = gt((1, (200, 200, 60, 100)), (2, (600, 400, 80, 80)))
        gt_cur = gt((1, (210, 205, 60, 100)), (2, (590, 400, 80, 80)))
        return FrameContext(
            IMAGE, gt_prev=gt_prev, gt_cur=gt_cur, conditional=conditional
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
        targets = np.array([
            [200, 200, 60, 100, 210, 205, 60, 100],
            [600, 400, 80, 80, 590, 400, 80, 80],
        ], dtype=np.float64)
        out = OracleDenoiser(1.0).denoise_batch(rows, 100, ctx)
        for i, row in enumerate(rows):
            overlaps = [overlap(row, t) for t in targets]
            if max(overlaps) > 0:
                expected = targets[int(np.argmax(overlaps))]
                assert np.allclose(out.pairs[i], expected)

    def test_missing_in_one_frame_penalized(self):
        gt_prev = gt((1, (200, 200, 60, 100)))
        gt_cur = gt()  # identity 1 vanished in the current frame
        ctx = FrameContext(IMAGE, gt_prev=gt_prev, gt_cur=gt_cur)
        boxes = np.array([[200, 200, 60, 100, 200, 200, 60, 100]], dtype=float)
        out = OracleDenoiser(1.0).denoise_batch(boxes, 50, ctx)
        assert out.assoc[0] < 0.25
        assert out.cls_cur[0] < 0.25

    def test_empty_gt_all_below_gate(self):
        ctx = FrameContext(IMAGE, gt_prev=gt(), gt_cur=gt())
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
        both = gt((1, (300, 300, 60, 60)))
        ctx = FrameContext(IMAGE, gt_prev=both, gt_cur=both)
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

    def test_targets_built_once_per_pair(self, monkeypatch):
        # ddim_refine hands every step the same context object.
        built = []
        targets = OracleDenoiser._targets
        monkeypatch.setattr(
            OracleDenoiser, "_targets",
            staticmethod(lambda ctx: built.append(ctx) or targets(ctx)),
        )
        rng = np.random.default_rng(0)
        props = build_inference_proposals(
            np.array([[200.0, 200, 60, 100]]), 20, 0.25, PaddingStrategy.CAT_GAUSSIAN,
            rng, IMAGE,
        )
        ctx = self.ctx()
        ddim_refine(props, 500, 4, OracleDenoiser(0.9), ctx)
        assert len(built) == 1 and built[0] is ctx


@pytest.mark.parametrize("prev, cur", [
    ([], []), ([7, 2, 5], []), ([], [4, -1]), ([1, 3, 5, 3], [5, 4, 3]),
    ([2, 1], [9, 8, 9]),
], ids=["empty", "prev_only", "cur_only", "overlapping", "disjoint"])
def test_id_set_equals_numpy_sets(prev, cur):
    # The oracle's targets take the union of two frames' ids; ``evaluate``
    # the distinct ids of every frame.
    prev, cur = np.array(prev, dtype=np.int64), np.array(cur, dtype=np.int64)
    for got, want in ((id_set(prev, cur), np.union1d(prev, cur)),
                      (id_set(prev, cur, prev), np.unique(np.r_[prev, cur, prev])),
                      (id_set(cur), np.unique(cur))):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


def _ctx_from_rows(gt_rows, conditional=False):
    """A context whose ground truth holds one identity per (8,) row."""
    gt_prev = gt(*((i, r[:4]) for i, r in enumerate(gt_rows)))
    gt_cur = gt(*((i, r[4:]) for i, r in enumerate(gt_rows)))
    return FrameContext(IMAGE, gt_prev=gt_prev, gt_cur=gt_cur,
                        conditional=conditional)


coord = st.floats(0.0, 1000.0, allow_nan=False)
size = st.floats(1.0, 200.0, allow_nan=False)
gt_box = st.tuples(coord, coord, size, size)
gt_rows = st.lists(st.tuples(gt_box, gt_box).map(lambda t: t[0] + t[1]),
                   min_size=1, max_size=6)


class TestOraclePrunedOffTarget:
    """Only rows below FAR_FLOOR on their own target are tested against every
    target; the decision must equal the full-matrix rule on every row."""

    @given(
        gt=gt_rows,
        near=st.lists(st.tuples(st.integers(0, 5), st.lists(
            st.floats(-30.0, 30.0, allow_nan=False), min_size=8, max_size=8)),
            max_size=12),
        far=st.lists(st.tuples(st.floats(1500.0, 3000.0), st.floats(1500.0, 3000.0),
                               size, size), max_size=8),
        inside=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 1.0),
                                  st.floats(0.0, 1.0), st.floats(0.0, 2.0)),
                        max_size=8),
        fidelity=st.sampled_from([0.0, 0.02, 0.3, 0.9]),
        conditional=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_matrix_rule(self, gt, near, far, inside, fidelity,
                                      conditional):
        gt_pix = np.array(gt, dtype=np.float64)
        k = len(gt)
        rows = []
        # Jittered copies of a target.
        for j, jitter in near:
            rows.append(gt_pix[j % k] + np.array(jitter))
        # Far from every target, in both members.
        for cx, cy, w, h in far:
            rows.append([cx, cy, w, h, cx, cy, w, h])
        # Tiny (or zero-size) boxes whose centres sit inside a target: the
        # overlap is below FAR_FLOOR, yet the row is on target.
        for j, u, v, side in inside:
            t = gt_pix[j % k]
            cx0, cy0 = t[0] + (u - 0.5) * t[2], t[1] + (v - 0.5) * t[3]
            cx1, cy1 = t[4] + (u - 0.5) * t[6], t[5] + (v - 0.5) * t[7]
            rows.append([cx0, cy0, side, side, cx1, cy1, side, side])
        boxes = np.array(rows, dtype=np.float64).reshape(-1, 8)
        dn = OracleDenoiser(fidelity)
        out = dn.denoise_batch(boxes, 10, _ctx_from_rows(gt, conditional))
        # f and MISSING_CLS differ from FAR_SCORE, so FAR_SCORE in cls_prev
        # marks exactly the off-target rows.
        flagged = out.cls_prev == FAR_SCORE
        expected = dn._off_target(out.pairs, gt_pix)
        assert np.array_equal(flagged, expected)
        assert np.array_equal(out.cls_cur == FAR_SCORE, expected)

    @given(gt=gt_rows, rows=st.lists(st.tuples(gt_box, gt_box).map(
        lambda t: t[0] + t[1]), max_size=20), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_own_target_fit_is_the_matrix_entry(self, gt, rows, data):
        # The premise of the pruning: the row-aligned fit against a row's
        # own target is bit for bit that entry of the full matrix.
        gt_pix = np.array(gt, dtype=np.float64)
        out = np.array(rows, dtype=np.float64).reshape(-1, 8)
        snap = np.array(data.draw(st.lists(
            st.integers(0, len(gt) - 1), min_size=len(rows), max_size=len(rows))),
            dtype=int)
        full = iou_matrix(out, gt_pix)
        assert np.array_equal(overlap(out, gt_pix[snap]),
                              full[np.arange(len(rows)), snap])


def _full_matrix_denoise(dn, boxes, ctx):
    """Reference: the oracle with every row's snap-matrix row. Each row takes
    the argmax of its matrix row; a row whose max is below BASIN_FLOOR
    snaps to the target whose center, by two norms, lies nearest."""
    gt_pix, in_prev, in_cur = dn._targets(ctx)
    n = boxes.shape[0]
    if ctx.conditional:
        overlaps = iou_matrix(boxes[:, 4:], gt_pix[:, 4:])
    else:
        overlaps = iou_matrix(boxes, gt_pix)
    snap = np.argmax(overlaps, axis=1)
    weak = overlaps.max(axis=1) < BASIN_FLOOR
    if np.any(weak):
        centers = boxes[weak][:, [0, 1, 4, 5]]
        gt_centers = gt_pix[:, [0, 1, 4, 5]]
        dist = np.linalg.norm(centers[:, None, 2:] - gt_centers[None, :, 2:], axis=2)
        if not ctx.conditional:
            dist = np.minimum(np.linalg.norm(
                centers[:, None, :2] - gt_centers[None, :, :2], axis=2), dist)
        snap[weak] = np.argmin(dist, axis=1)
    target_pix = gt_pix[snap]
    f = dn.fidelity
    members = slice(1, 2) if ctx.conditional else slice(0, 2)
    out_pix = boxes.copy()
    out_pix.reshape(n, 2, 4)[:, members] = (
        f * target_pix.reshape(n, 2, 4)[:, members]
        + (1.0 - f) * boxes.reshape(n, 2, 4)[:, members]
    )
    if f > 0.0:
        out_pix = dn._cap_residual(out_pix, target_pix, members)
    fit_out = overlap(out_pix, target_pix)
    fit_in = overlaps[np.arange(n), snap]
    assoc = (
        f
        * (SCORE_FLOOR + (1.0 - SCORE_FLOOR) * fit_out)
        * (1.0 - TIE_MARGIN * (1.0 - fit_in))
    )
    assoc = np.where(in_prev[snap] & in_cur[snap], assoc, assoc * MISSING_PENALTY)
    off_target = dn._off_target(out_pix, gt_pix)
    assoc = np.where(off_target, FAR_SCORE, assoc)
    cls_prev = np.where(in_prev[snap], f, MISSING_CLS)
    cls_cur = np.where(in_cur[snap], f, MISSING_CLS)
    cls_prev = np.where(off_target, FAR_SCORE, cls_prev)
    cls_cur = np.where(off_target, FAR_SCORE, cls_cur)
    return out_pix, cls_prev, cls_cur, np.clip(assoc, 0.0, 1.0)


# Targets may be degenerate here: zero sizes are drawn too. Nested targets,
# smaller ones inside a drawn one, put a small target's center nearest to
# rows that overlap the big one well.
maybe_size = st.one_of(st.just(0.0), size)
target_rows = st.lists(
    st.tuples(coord, coord, maybe_size, maybe_size, coord, coord, maybe_size,
              maybe_size), min_size=1, max_size=6)
nested = st.lists(st.tuples(st.integers(0, 5), st.floats(-0.4, 0.4),
                            st.floats(-0.4, 0.4), st.floats(0.1, 0.6)), max_size=3)
# Row kinds: (kind, target index, three draws whose meaning depends on kind).
row_kind = st.tuples(
    st.sampled_from(["padding", "jitter", "toward", "zero", "edge"]),
    st.integers(0, 5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.integers(-4, 4),
)


def _with_nested(gt, inner):
    gt = np.array(gt, dtype=np.float64)
    for j, ox, oy, shrink in inner:
        t = gt[j % len(gt)].copy()
        t[[0, 4]] += ox * t[[2, 6]]
        t[[1, 5]] += oy * t[[3, 7]]
        t[[2, 3, 6, 7]] *= shrink
        gt = np.vstack([gt, t])
    return gt


def _row(kind, gt_pix, j, u, v, k):
    """One input row of the given kind near target row ``j``."""
    t = gt_pix[j % len(gt_pix)]
    if kind == "padding":
        # About half the image wide, anywhere near it, like padded noise.
        cx, cy = 500.0 + 800.0 * u, 400.0 + 600.0 * v
        w, h = 500.0 * (1.5 + u), 400.0 * (1.5 + v)
        return np.array([cx, cy, w, h, cx + 20.0 * v, cy - 20.0 * u, w, h])
    if kind == "jitter":
        return t + 30.0 * np.array([u, v, u * v, -v, v, u, -u, u * v])
    if kind == "toward":
        # Target j moved part of the way toward another target's centers.
        other = gt_pix[k % len(gt_pix)]
        row = t.copy()
        row[[0, 1, 4, 5]] += (0.5 + 0.5 * abs(u)) * (other - t)[[0, 1, 4, 5]]
        return row
    if kind == "zero":
        return np.array([t[0] + 50.0 * u, t[1] + 50.0 * v, 0.0, 10.0,
                         t[4] + 50.0 * v, t[5] + 50.0 * u, 10.0 * abs(u), 0.0])
    # The target grown about its centers until its own overlap, its overlap
    # ceiling when it is the largest target, sits within a few units in the
    # last place of BASIN_FLOOR or of the certification threshold.
    level = BASIN_FLOOR * (1.0 - _CEILING_MARGIN) if u < 0 else BASIN_FLOOR
    row = t.copy()
    row[[2, 3, 6, 7]] *= np.sqrt(1.0 / level)
    for _ in range(abs(k)):
        row[2] = np.nextafter(row[2], np.inf if k > 0 else -np.inf)
    return row


class TestCertifiedWeakRows:
    """Rows certified weak from the overlap ceiling skip the snap matrix;
    every output must equal the full-matrix oracle's bit for bit."""

    @given(gt=target_rows, inner=nested,
           kinds=st.lists(row_kind, min_size=1, max_size=24),
           fidelity=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           conditional=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_matrix_oracle(self, gt, inner, kinds, fidelity,
                                        conditional):
        gt_pix = _with_nested(gt, inner)
        dn = OracleDenoiser(fidelity)
        boxes = np.array([
            _row(kind, gt_pix, j, u, v, k) for kind, j, u, v, k in kinds
        ])
        ctx = _ctx_from_rows(gt_pix, conditional)
        out = dn.denoise_batch(boxes, 10, ctx)
        want = _full_matrix_denoise(dn, boxes, ctx)
        for got, ref in zip((out.pairs, out.cls_prev, out.cls_cur, out.assoc), want):
            assert np.array_equal(got, ref)


def _cap_residual_per_member(out_pix, target_pix, members, snap_cap, fidelity):
    """Reference: the member-by-member residual cap (offsets 0 and/or 4)."""
    out = out_pix.copy()
    for off in members:
        tw = target_pix[:, off + 2]
        th = target_pix[:, off + 3]
        radius = snap_cap * np.hypot(tw, th) / fidelity
        delta_c = out[:, off : off + 2] - target_pix[:, off : off + 2]
        norm = np.linalg.norm(delta_c, axis=1)
        shrink = np.where(norm > radius, radius / np.maximum(norm, 1e-12), 1.0)
        out[:, off : off + 2] = (
            target_pix[:, off : off + 2] + delta_c * shrink[:, None]
        )
        delta_s = out[:, off + 2 : off + 4] - target_pix[:, off + 2 : off + 4]
        out[:, off + 2 : off + 4] = target_pix[:, off + 2 : off + 4] + np.clip(
            delta_s, -radius[:, None], radius[:, None]
        )
    return out


class TestCapResidual:
    value = st.floats(-2000.0, 2000.0, allow_nan=False)
    row = st.lists(value, min_size=8, max_size=8)

    @given(
        pairs=st.lists(st.tuples(row, row), max_size=40),
        conditional=st.booleans(),
        fidelity=st.floats(0.01, 1.0),
        snap_cap=st.sampled_from([0.0, 0.035, 0.5]),
        exact=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_per_member_loop(self, pairs, conditional, fidelity,
                                             snap_cap, exact):
        out = np.array([p[0] for p in pairs], dtype=np.float64).reshape(-1, 8)
        target = np.array([p[1] for p in pairs], dtype=np.float64).reshape(-1, 8)
        if exact:
            out[::2] = target[::2]  # zero residual: norm 0, shrink 1
        dn = OracleDenoiser(fidelity)
        members, offsets = (slice(1, 2), (4,)) if conditional else (slice(0, 2), (0, 4))
        saved = denoiser.SNAP_CAP
        denoiser.SNAP_CAP = snap_cap
        try:
            got = dn._cap_residual(out, target, members)
        finally:
            denoiser.SNAP_CAP = saved
        want = _cap_residual_per_member(out, target, offsets, snap_cap, fidelity)
        assert np.array_equal(got, want)


class TestTargetMemo:
    @given(
        a=gt_rows, b=gt_rows,
        rows=st.lists(st.tuples(gt_box, gt_box).map(lambda t: t[0] + t[1]),
                      min_size=1, max_size=10),
        conditional=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_alternating_contexts_match_fresh_instances(self, a, b, rows,
                                                        conditional):
        boxes = np.array(rows, dtype=np.float64)
        ctx_a = _ctx_from_rows(a, conditional)
        ctx_b = _ctx_from_rows(b, conditional)
        shared = OracleDenoiser(0.9)
        for ctx in (ctx_a, ctx_b, ctx_a):
            got = shared.denoise_batch(boxes, 10, ctx)
            want = OracleDenoiser(0.9).denoise_batch(boxes, 10, ctx)
            for field in ("pairs", "cls_prev", "cls_cur", "assoc"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_equal_but_distinct_context_rebuilds(self):
        # A memo hit needs the same object; an equal copy is rebuilt, not
        # reused, and gives the same output.
        gt = [(200.0, 200.0, 60.0, 100.0, 210.0, 205.0, 60.0, 100.0)]
        boxes = np.array(gt)
        dn = OracleDenoiser(0.9)
        ctx = _ctx_from_rows(gt)
        first = dn.denoise_batch(boxes, 10, ctx)
        copy = dataclasses.replace(ctx)
        again = dn.denoise_batch(boxes, 10, copy)
        assert dn._memo[0] is copy
        assert np.array_equal(first.pairs, again.pairs)

    def test_concurrent_calls_on_one_instance(self):
        # Threads share one instance and alternate contexts, so the memo
        # is replaced under them; every output must still match a fresh
        # instance's.
        rng = np.random.default_rng(5)
        contexts = [_ctx_from_rows(rng.uniform(50, 900, (k, 8))) for k in (1, 3, 5, 7)]
        boxes = rng.uniform(50, 900, (60, 8))
        want = [OracleDenoiser(0.9).denoise_batch(boxes, 10, c).pairs for c in contexts]
        shared = OracleDenoiser(0.9)
        bad = []

        def work(offset):
            for i in range(40):
                j = (i + offset) % len(contexts)
                got = shared.denoise_batch(boxes, 10, contexts[j]).pairs
                if not np.array_equal(got, want[j]):
                    bad.append(j)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_frame_context_is_frozen(self):
        ctx = FrameContext(IMAGE, gt_prev=gt(), gt_cur=gt())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.gt_cur = gt((1, (10, 10, 5, 5)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.conditional = True


snap_coord = st.floats(0.0, 300.0, allow_nan=False)
snap_size = st.floats(5.0, 150.0, allow_nan=False)
snap_box = st.tuples(snap_coord, snap_coord, snap_size, snap_size)
snap_dets = st.lists(st.tuples(snap_box, st.floats(0.01, 1.0)).map(
    lambda t: t[0] + (t[1],)), max_size=6)


class TestDetectionSnapDenoiser:
    def test_single_detection_pair(self):
        ctx = FrameContext(
            IMAGE,
            det_prev=np.array([[300.0, 300, 60, 60, 0.9]]),
            det_cur=np.array([[320.0, 300, 60, 60, 0.8]]),
        )
        boxes = np.tile([310.0, 310, 80, 80, 330, 290, 80, 80], (3, 1))
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        for i in range(3):
            pix = out.pairs[i]
            assert np.allclose(pix[:4], [300, 300, 60, 60])
            assert np.allclose(pix[4:], [320, 300, 60, 60])
            assert out.cls_prev[i] == pytest.approx(0.9)
            assert out.cls_cur[i] == pytest.approx(0.8)

    def test_member_overlapping_no_detection_keeps_its_box(self):
        # Frame t misses the object; its only detection is a neighbour the
        # current member does not overlap. The member must not snap onto
        # it, and the row must fail the detection gate.
        ctx = FrameContext(
            IMAGE,
            det_prev=np.array([[20.0, 20, 10, 10, 0.9]]),
            det_cur=np.array([[80.0, 80, 10, 10, 0.9]]),
        )
        boxes = np.array([[20.0, 20, 10, 10, 20, 20, 10, 10]])
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        assert out.pairs[0].tolist() == boxes[0].tolist()
        assert out.cls_prev.tolist() == [0.9]
        assert out.cls_cur.tolist() == [0.0]
        assert out.cls_cur[0] <= TrackerConfig().det_threshold

    @given(
        det_prev=snap_dets, det_cur=snap_dets,
        rows=st.lists(st.tuples(snap_box, snap_box).map(lambda t: t[0] + t[1]),
                      min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_scored_members_equal_a_detection_above_the_floor(
        self, det_prev, det_cur, rows
    ):
        dets = [np.array(d, dtype=float).reshape(-1, 5) for d in (det_prev, det_cur)]
        boxes = np.array(rows)
        out = DetectionSnapDenoiser().denoise_batch(
            boxes, 0, FrameContext(IMAGE, det_prev=dets[0], det_cur=dets[1]))
        for member, frame_dets, cls in ((slice(0, 4), dets[0], out.cls_prev),
                                        (slice(4, 8), dets[1], out.cls_cur)):
            ov = iou_matrix(boxes[:, member], frame_dets[:, :4])
            for i in range(len(boxes)):
                if cls[i] > 0:
                    hits = np.flatnonzero(
                        (frame_dets[:, :4] == out.pairs[i, member]).all(axis=1)
                        & (frame_dets[:, 4] == cls[i]) & (ov[i] > SNAP_FLOOR))
                    assert hits.size
                else:
                    assert cls[i] == 0.0
                    assert out.pairs[i, member].tolist() == boxes[i, member].tolist()

    def test_stationary_full_confidence(self):
        b = np.array([[300.0, 300, 60, 60, 1.0]])
        ctx = FrameContext(IMAGE, det_prev=b, det_cur=b)
        boxes = np.array([[300, 300, 60, 60, 300, 300, 60, 60]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        assert out.assoc[0] == pytest.approx(1.0)

    def test_crossing_objects_resolved_by_overlap(self):
        # A at x=200 moving right, B at x=600 moving left; proposals near
        # A's prior must produce the (A_prev, A_cur) pairing.
        a_prev, a_cur = [200.0, 300, 60, 60], [260.0, 300, 60, 60]
        b_prev, b_cur = [600.0, 300, 60, 60], [540.0, 300, 60, 60]
        ctx = FrameContext(
            IMAGE,
            det_prev=np.array([a_prev + [0.9], b_prev + [0.9]]),
            det_cur=np.array([a_cur + [0.9], b_cur + [0.9]]),
        )
        boxes = np.array([[210, 300, 60, 60, 230, 300, 60, 60]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        pix = out.pairs[0]
        assert np.allclose(pix[:4], a_prev)
        assert np.allclose(pix[4:], a_cur)

    def test_no_detections_zero_scores(self):
        ctx = FrameContext(IMAGE, det_prev=np.zeros((0, 5)),
                           det_cur=np.zeros((0, 5)))
        boxes = np.array([[100, 100, 50, 50, 100, 100, 50, 50]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        assert out.assoc[0] == 0.0
        assert np.allclose(out.pairs[0], [100, 100, 50, 50, 100, 100, 50, 50])

    def test_equal_overlap_prefers_higher_confidence(self):
        # Two identical detections: the 0.5005 one must win over the 0.5
        # one at index 0, however small the confidence gap.
        b = [300.0, 300, 60, 60]
        ctx = FrameContext(IMAGE, det_prev=np.array([b + [1.0]]),
                           det_cur=np.array([b + [0.5], b + [0.5005]]))
        boxes = np.array([[300, 300, 60, 60, 305, 300, 60, 60]], dtype=float)
        out = DetectionSnapDenoiser().denoise_batch(boxes, 0, ctx)
        assert out.cls_cur.tolist() == [0.5005]

    def test_equal_overlap_and_confidence_prefers_lower_index(self):
        boxes = np.array([[300, 300, 60, 60]], dtype=float)
        _, confs, pick = DetectionSnapDenoiser._snap_frame(
            boxes, np.array([[300.0, 300, 60, 60, 0.7]] * 3))
        assert pick.tolist() == [0] and confs.tolist() == [0.7]

    def test_higher_overlap_wins_by_less_than_1e9(self):
        # The overlaps differ by less than 1e-9; the closer detection wins
        # even though the other has the higher confidence.
        close = [300.0, 300.0, 60.0, 60.0]
        shifted = [300.0 + 1e-8, 300.0, 60.0, 60.0]
        boxes = np.array([close])
        ov = iou_matrix(boxes, np.array([close, shifted]))[0]
        assert 0.0 < ov[0] - ov[1] < 1e-9
        _, confs, pick = DetectionSnapDenoiser._snap_frame(
            boxes, np.array([shifted + [0.9], close + [0.1]]))
        assert pick.tolist() == [1] and confs.tolist() == [0.1]
