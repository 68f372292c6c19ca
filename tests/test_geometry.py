"""Geometry tests against a rasterized-area counting oracle.

The oracle draws boxes on a coarse lattice (corners at multiples of 1/4)
and counts sub-cells of size 1/8 whose centers fall inside. Cell centers
never touch a lattice-aligned edge, so the counts reproduce areas exactly
and ratio comparisons are float-tight.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrack.denoiser import _CEILING_MARGIN, BASIN_FLOOR
from pairtrack.geometry import (
    giou,
    iou_matrix,
    nms2d,
    nms3d,
    overlap,
    overlap_ceiling,
)
from pairtrack.tracker import BBox

CELL = 0.125


def from_corners(x1: float, y1: float, x2: float, y2: float) -> BBox:
    return BBox(0.5 * (x1 + x2), 0.5 * (y1 + y2), x2 - x1, y2 - y1)


def corners(box: BBox) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) with x1 <= x2 and y1 <= y2."""
    return (box.cx - 0.5 * box.w, box.cy - 0.5 * box.h,
            box.cx + 0.5 * box.w, box.cy + 0.5 * box.h)


def lattice_box(rng: np.random.Generator, lo=0.0, hi=8.0, max_size=4.0) -> BBox:
    """Random box with all corner coordinates on the 1/4 lattice."""
    quarter = 0.25
    x1 = rng.integers(int(lo / quarter), int((hi - quarter) / quarter)) * quarter
    y1 = rng.integers(int(lo / quarter), int((hi - quarter) / quarter)) * quarter
    w = rng.integers(1, int(max_size / quarter) + 1) * quarter
    h = rng.integers(1, int(max_size / quarter) + 1) * quarter
    return from_corners(x1, y1, x1 + w, y1 + h)


def _cell_centers(extent):
    x1, y1, x2, y2 = extent
    xs = np.arange(x1 + CELL / 2, x2, CELL)
    ys = np.arange(y1 + CELL / 2, y2, CELL)
    return np.meshgrid(xs, ys, indexing="ij")


def _inside(box: BBox, gx, gy):
    x1, y1, x2, y2 = corners(box)
    return (gx > x1) & (gx < x2) & (gy > y1) & (gy < y2)


def raster_areas(a: BBox, b: BBox) -> tuple[float, float, float]:
    """(intersection, union, enclosing) areas by cell counting."""
    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    extent = (min(ax1, bx1), min(ay1, by1), max(ax2, bx2), max(ay2, by2))
    gx, gy = _cell_centers(extent)
    in_a = _inside(a, gx, gy)
    in_b = _inside(b, gx, gy)
    cell_area = CELL * CELL
    inter = np.count_nonzero(in_a & in_b) * cell_area
    union = np.count_nonzero(in_a | in_b) * cell_area
    enclosing = gx.size * cell_area
    return inter, union, enclosing


def raster_iou(a: BBox, b: BBox) -> float:
    inter, union, _ = raster_areas(a, b)
    return 0.0 if union == 0 else inter / union


def raster_giou(a: BBox, b: BBox) -> float:
    inter, union, enclosing = raster_areas(a, b)
    if enclosing == 0:
        return 0.0
    base = 0.0 if union == 0 else inter / union
    return base - (enclosing - union) / enclosing


def raster_iou3d(d: tuple[BBox, BBox], g: tuple[BBox, BBox]) -> float:
    """Paired-box IoU of (prev, cur) boxes by cell counting."""
    ip, up, _ = raster_areas(d[0], g[0])
    ic, uc, _ = raster_areas(d[1], g[1])
    return 0.0 if up + uc == 0 else (ip + ic) / (up + uc)


def raster_giou3d(d: tuple[BBox, BBox], g: tuple[BBox, BBox]) -> float:
    ip, up, ep = raster_areas(d[0], g[0])
    ic, uc, ec = raster_areas(d[1], g[1])
    if ep + ec == 0:
        return 0.0
    base = 0.0 if up + uc == 0 else (ip + ic) / (up + uc)
    return base - abs((ep + ec) - (up + uc)) / abs(ep + ec)


def row(*boxes: BBox) -> np.ndarray:
    """One center-form row: a box gives 4 scalars, a (prev, cur) pair 8."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes],
                    dtype=np.float64).reshape(-1)


class TestIoU:
    def test_identical_unit_squares(self):
        a = row(BBox(0.5, 0.5, 1, 1))
        assert overlap(a, a) == 1.0

    def test_disjoint(self):
        assert overlap(row(BBox(0.5, 0.5, 1, 1)), row(BBox(5, 5, 1, 1))) == 0.0

    def test_known_overlap(self):
        # corners (0,0,2,2) vs (1,1,3,3): inter 1, union 7
        a = from_corners(0, 0, 2, 2)
        b = from_corners(1, 1, 3, 3)
        assert overlap(row(a), row(b)) == pytest.approx(1 / 7, abs=1e-12)
        assert raster_iou(a, b) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_zero(self):
        z = row(BBox(1, 1, 0, 0))
        assert overlap(z, z) == 0.0


class TestGIoU:
    def test_identical(self):
        a = row(BBox(3, 4, 2, 5))
        assert giou(a, a) == 1.0

    def test_known_value(self):
        # 1/7 - 2/9: enclosing 9, union 7
        a = from_corners(0, 0, 2, 2)
        b = from_corners(1, 1, 3, 3)
        assert giou(row(a), row(b)) == pytest.approx(1 / 7 - 2 / 9, abs=1e-12)
        assert raster_giou(a, b) == pytest.approx(1 / 7 - 2 / 9, abs=1e-12)

    def test_far_separated_sign(self):
        v = giou(row(BBox(0.5, 0.5, 1, 1)), row(BBox(10.5, 0.5, 1, 1)))
        assert -1.0 < v < 0.0

    def test_empty_enclosure_is_zero(self):
        # Zero-size boxes: 0 where the enclosure is empty, and -1 where only
        # the union is (the enclosure of two distinct points has area).
        point = BBox(1, 1, 0, 0)
        assert giou(row(point), row(point)) == 0.0
        assert giou(row(point), row(BBox(3, 2, 0, 0))) == -1.0
        assert giou(row(point, point), row(point, point)) == 0.0


class TestIoU3D:
    def test_identical_pairs(self):
        p = row(BBox(1, 1, 2, 2), BBox(2, 1, 2, 2))
        assert overlap(p, p) == 1.0

    def test_half_overlap(self):
        # prev identical unit squares, cur disjoint: (1+0)/(1+2) = 1/3
        d = row(BBox(0.5, 0.5, 1, 1), BBox(0.5, 0.5, 1, 1))
        g = row(BBox(0.5, 0.5, 1, 1), BBox(3.5, 0.5, 1, 1))
        assert overlap(d, g) == pytest.approx(1 / 3, abs=1e-12)

    def test_both_disjoint(self):
        d = row(BBox(0.5, 0.5, 1, 1), BBox(0.5, 0.5, 1, 1))
        g = row(BBox(5, 5, 1, 1), BBox(7, 7, 1, 1))
        assert overlap(d, g) == 0.0


class TestGIoU3D:
    def test_identical(self):
        p = row(BBox(1, 1, 2, 2), BBox(2, 1, 2, 2))
        assert giou(p, p) == 1.0

    def test_collapses_to_2d(self):
        # prev == cur in both pairs: equals the 2D giou of the shared boxes
        a = from_corners(0, 0, 2, 2)
        b = from_corners(1, 1, 3, 3)
        assert giou(row(a, a), row(b, b)) == pytest.approx(
            giou(row(a), row(b)), abs=1e-12
        )

    def test_known_value(self):
        # prev identical unit squares; cur unit squares offset by 2:
        # iou3d = 1/3, penalty = |(1+3) - (1+2)| / (1+3) = 1/4
        d = (BBox(0.5, 0.5, 1, 1), BBox(0.5, 0.5, 1, 1))
        g = (BBox(0.5, 0.5, 1, 1), BBox(2.5, 0.5, 1, 1))
        assert giou(row(*d), row(*g)) == pytest.approx(1 / 3 - 1 / 4, abs=1e-12)
        assert raster_giou3d(d, g) == pytest.approx(1 / 3 - 1 / 4, abs=1e-12)


class TestRasterOracle:
    """Random-lattice agreement between the kernels and cell counting, one
    row-aligned kernel call per width."""

    def test_iou_and_giou_agree(self):
        rng = np.random.default_rng(7)
        cases = [(lattice_box(rng), lattice_box(rng)) for _ in range(300)]
        a = np.stack([row(d) for d, _ in cases])
        b = np.stack([row(g) for _, g in cases])
        ious, gious = overlap(a, b), giou(a, b)
        for i, (d, g) in enumerate(cases):
            assert ious[i] == pytest.approx(raster_iou(d, g), abs=1e-3)
            assert gious[i] == pytest.approx(raster_giou(d, g), abs=1e-3)

    def test_paired_agree(self):
        rng = np.random.default_rng(11)
        cases = [((lattice_box(rng), lattice_box(rng)),
                  (lattice_box(rng), lattice_box(rng))) for _ in range(300)]
        a = np.stack([row(*d) for d, _ in cases])
        b = np.stack([row(*g) for _, g in cases])
        ious, gious = overlap(a, b), giou(a, b)
        for i, (d, g) in enumerate(cases):
            assert ious[i] == pytest.approx(raster_iou3d(d, g), abs=1e-3)
            assert gious[i] == pytest.approx(raster_giou3d(d, g), abs=1e-3)


finite_box = st.builds(
    BBox,
    cx=st.floats(-50, 50),
    cy=st.floats(-50, 50),
    w=st.floats(0.1, 20),
    h=st.floats(0.1, 20),
)


class TestProperties:
    @given(a=finite_box, b=finite_box)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bound(self, a, b):
        a, b = row(a), row(b)
        assert overlap(a, b) == pytest.approx(overlap(b, a), abs=1e-12)
        assert giou(a, b) == pytest.approx(giou(b, a), abs=1e-12)
        assert giou(a, b) <= overlap(a, b) + 1e-12
        assert 0.0 <= overlap(a, b) <= 1.0
        assert -1.0 < giou(a, b) <= 1.0

    @given(a=finite_box, b=finite_box, c=finite_box, d=finite_box)
    @settings(max_examples=100, deadline=None)
    def test_paired_symmetry(self, a, b, c, d):
        p, q = row(a, b), row(c, d)
        assert overlap(p, q) == pytest.approx(overlap(q, p), abs=1e-12)
        assert giou(p, q) == pytest.approx(giou(q, p), abs=1e-12)
        assert giou(p, q) <= overlap(p, q) + 1e-12

    @given(
        a=finite_box,
        b=finite_box,
        dx=st.floats(-100, 100),
        dy=st.floats(-100, 100),
        scale=st.floats(0.1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_and_scale_invariance(self, a, b, dx, dy, scale):
        shift = lambda v: row(BBox(v.cx + dx, v.cy + dy, v.w, v.h))
        grow = lambda v: row(BBox(v.cx * scale, v.cy * scale, v.w * scale, v.h * scale))
        for kernel in (overlap, giou):
            ref = kernel(row(a), row(b))
            assert ref == pytest.approx(kernel(shift(a), shift(b)), abs=1e-9)
            assert ref == pytest.approx(kernel(grow(a), grow(b)), abs=1e-9)

    @given(a=finite_box)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, a):
        assert giou(row(a), row(a)) == pytest.approx(1.0, abs=1e-12)
        p = row(a, a)
        assert giou(p, p) == pytest.approx(1.0, abs=1e-12)


def _rows(boxes) -> np.ndarray:
    """Stack boxes, or (prev, cur) tuples of them, into the arrays
    suppression takes."""
    return np.stack([row(*b) if isinstance(b, tuple) else row(b) for b in boxes])


class TestNMS:
    def test_identical_boxes_suppressed(self):
        a = BBox(1, 1, 2, 2)
        kept = nms2d(_rows([a, a]), [0.9, 0.8], 0.6)
        assert kept == [0]

    def test_disjoint_kept(self):
        kept = nms2d(_rows([BBox(1, 1, 1, 1), BBox(5, 5, 1, 1)]), [0.9, 0.8], 0.6)
        assert kept == [0, 1]

    def test_threshold_strict(self):
        # iou exactly 0.65 > 0.6 suppresses; build from lattice areas:
        # (0,0,20,13) vs (0,0,20,20) roughly; construct iou = 13/20 = 0.65
        a = from_corners(0, 0, 20, 20)
        b = from_corners(0, 0, 20, 13)  # inter 260, union 400
        assert overlap(row(a), row(b)) == pytest.approx(0.65, abs=1e-12)
        assert nms2d(_rows([a, b]), [0.9, 0.8], 0.6) == [0]
        # at threshold equal to overlap the pair survives (strict inequality)
        assert nms2d(_rows([a, b]), [0.9, 0.8], 0.65) == [0, 1]

    def test_score_tie_keeps_lower_index(self):
        a = BBox(1, 1, 2, 2)
        kept = nms2d(_rows([a, a, BBox(9, 9, 2, 2)]), [0.8, 0.8, 0.8], 0.5)
        assert kept == [0, 2]

    def test_empty(self):
        assert nms2d(np.zeros((0, 4)), [], 0.5) == []
        assert nms3d(np.zeros((0, 8)), [], 0.5) == []

    def test_nms3d_pairs(self):
        p = (BBox(1, 1, 2, 2), BBox(2, 1, 2, 2))
        kept = nms3d(_rows([p, p]), [0.9, 0.5], 0.6)
        assert kept == [0]

    def test_nms3d_single_frame_overlap_kept(self):
        # overlap in one frame only: iou3d = (4+0)/(4+8) = 1/3 < 0.6
        a = (BBox(1, 1, 2, 2), BBox(1, 1, 2, 2))
        b = (BBox(1, 1, 2, 2), BBox(9, 9, 2, 2))
        assert overlap(row(*a), row(*b)) == pytest.approx(1 / 3, abs=1e-12)
        assert nms3d(_rows([a, b]), [0.9, 0.8], 0.6) == [0, 1]

    def test_no_kept_pair_exceeds_threshold(self):
        rng = np.random.default_rng(3)
        boxes = [lattice_box(rng, hi=6.0, max_size=3.0) for _ in range(40)]
        scores = rng.uniform(0, 1, size=40).tolist()
        rows = _rows(boxes)
        kept = nms2d(rows, scores, 0.4)
        for i in kept:
            for j in kept:
                if i != j:
                    assert overlap(rows[i], rows[j]) <= 0.4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nms2d(np.zeros((2, 4)), [0.5], 0.5)
        with pytest.raises(ValueError):
            nms3d(np.zeros((1, 8)), [0.5, 0.4], 0.5)

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="8"):
            nms3d(np.zeros((2, 4)), [0.5, 0.4], 0.5)
        with pytest.raises(ValueError, match="4"):
            nms2d(np.zeros((2, 8)), [0.5, 0.4], 0.5)


def _greedy_reference(mat: np.ndarray, scores, threshold: float) -> list[int]:
    """Full-matrix greedy suppression: visit rows by descending score (ties to
    the lower index) and keep a row iff its overlap with every kept row is
    at most the threshold."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    kept: list[int] = []
    for i in order:
        if all(mat[i, j] <= threshold for j in kept):
            kept.append(int(i))
    return kept


# Lattice boxes (corners on the 1/4 grid, sizes 0 to 1.5) in a small area:
# overlaps are frequent, some boxes have zero size, and overlap ratios
# repeat. Left and top indices run 0..8, width and height indices 0..6. A
# row is drawn as one index into the table, a quarter of the draws that
# drawing its four indices apart takes.
LATTICE = tuple(
    ((x + w / 2) / 4, (y + h / 2) / 4, w / 4, h / 4)
    for x in range(9) for y in range(9) for w in range(7) for h in range(7)
)
lattice_row = st.sampled_from(LATTICE)
# Few distinct values, so ties are common.
tied_score = st.sampled_from([0.1, 0.5, 0.5, 0.8, 0.9])


def _draw_threshold(data, mat: np.ndarray) -> float:
    """A fixed threshold, or one of the realized overlaps of two distinct
    rows, exactly (the pair must survive) or one float below (it must not)."""
    off_diagonal = mat[~np.eye(len(mat), dtype=bool)]
    realized = sorted(set(off_diagonal[off_diagonal > 0].tolist()))
    fixed = st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.7, 1.0])
    if not realized:
        return data.draw(fixed)
    on = data.draw(st.sampled_from(realized))
    return data.draw(st.sampled_from([on, float(np.nextafter(on, 0.0))]) | fixed)


def _check_nms2d(rows, data):
    boxes = np.array([r for r, _ in rows]).reshape(-1, 4)
    scores = [s for _, s in rows]
    mat = iou_matrix(boxes, boxes)
    threshold = _draw_threshold(data, mat)
    assert nms2d(boxes, scores, threshold) == _greedy_reference(mat, scores, threshold)


def _check_nms3d(rows, data):
    pairs = np.array([a + b for a, b, _ in rows]).reshape(-1, 8)
    scores = [s for _, _, s in rows]
    mat = iou_matrix(pairs, pairs)
    threshold = _draw_threshold(data, mat)
    assert nms3d(pairs, scores, threshold) == _greedy_reference(mat, scores, threshold)


class TestLazyNMSEquivalence:
    """Suppression returns exactly what the full-matrix loop returns, on
    inputs that fit in one suppression chunk."""

    @given(rows=st.lists(st.tuples(lattice_row, tied_score), max_size=30),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_nms2d_matches_matrix_greedy(self, rows, data):
        _check_nms2d(rows, data)

    @given(rows=st.lists(st.tuples(lattice_row, lattice_row, tied_score), max_size=30),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_nms3d_matches_matrix_greedy(self, rows, data):
        _check_nms3d(rows, data)


class TestChunkedNMSEquivalence:
    """Inputs longer than one suppression chunk (64 rows), drawn from the
    small lattice so that rows in later chunks are suppressed by rows kept
    in earlier ones."""

    @given(rows=st.lists(st.tuples(lattice_row, tied_score), min_size=65, max_size=200),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nms2d_matches_matrix_greedy(self, rows, data):
        _check_nms2d(rows, data)

    @given(rows=st.lists(st.tuples(lattice_row, lattice_row, tied_score),
                         min_size=65, max_size=200),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nms3d_matches_matrix_greedy(self, rows, data):
        _check_nms3d(rows, data)


class TestMatrices:
    """Each ``iou_matrix`` entry is the kernel's value for that one pair of
    rows, and the exact cell count of the raster oracle."""

    def test_matches_scalar(self):
        rng = np.random.default_rng(5)
        boxes = [lattice_box(rng) for _ in range(12)]
        arr = _rows(boxes)
        mat = iou_matrix(arr, arr)
        for i in range(12):
            for j in range(12):
                assert mat[i, j] == overlap(arr[i], arr[j])
                assert mat[i, j] == pytest.approx(raster_iou(boxes[i], boxes[j]),
                                                  abs=1e-12)

    def test_iou3d_matrix_matches_scalar(self):
        rng = np.random.default_rng(6)
        pairs = [(lattice_box(rng), lattice_box(rng)) for _ in range(10)]
        arr = _rows(pairs)
        mat = iou_matrix(arr, arr)
        for i in range(10):
            for j in range(10):
                assert mat[i, j] == overlap(arr[i], arr[j])
                assert mat[i, j] == pytest.approx(raster_iou3d(pairs[i], pairs[j]),
                                                  abs=1e-12)


# Center-form rows whose widths and heights may be exactly zero.
box_row = st.tuples(
    st.floats(-50, 50), st.floats(-50, 50),
    st.one_of(st.just(0.0), st.floats(0.0, 20)),
    st.one_of(st.just(0.0), st.floats(0.0, 20)),
)


class TestOverlapKernel:
    """Row-aligned kernels against their matrix forms and their one-pair
    calls, zero-size boxes included."""

    @staticmethod
    def check(a, b):
        for kernel in (overlap, giou):
            got = kernel(a, b)
            assert got.shape == (len(a),)
            assert np.array_equal(got, np.diagonal(kernel(a[:, None], b[None])))
            for i in range(len(a)):
                assert got[i] == kernel(a[i], b[i])
        assert np.all(giou(a, b) <= overlap(a, b))

    @given(rows=st.lists(st.tuples(box_row, box_row), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_plain_rows(self, rows):
        self.check(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))

    @given(rows=st.lists(st.tuples(box_row, box_row, box_row, box_row),
                         min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_paired_rows(self, rows):
        self.check(np.array([r[0] + r[1] for r in rows]),
                   np.array([r[2] + r[3] for r in rows]))


def _broadcast_reference(a, b) -> tuple[np.ndarray, np.ndarray]:
    """IoU and GIoU by the broadcast-first formula, kept apart from the
    kernels as their reference: corners, clips and areas are computed on
    the broadcast (..., members, 2) shape and the members summed with
    ``sum``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a.reshape(a.shape[:-1] + (a.shape[-1] // 4, 4))
    b = b.reshape(b.shape[:-1] + (b.shape[-1] // 4, 4))
    half_a, half_b = a[..., 2:] * 0.5, b[..., 2:] * 0.5
    lo_a, hi_a = a[..., :2] - half_a, a[..., :2] + half_a
    lo_b, hi_b = b[..., :2] - half_b, b[..., :2] + half_b
    wh = np.clip(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    side_a = np.clip(hi_a - lo_a, 0, None)
    side_b = np.clip(hi_b - lo_b, 0, None)
    union = side_a[..., 0] * side_a[..., 1] + side_b[..., 0] * side_b[..., 1] - inter
    hull = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    enclosure = (hull[..., 0] * hull[..., 1]).sum(axis=-1)
    inter = inter.sum(axis=-1)
    union = union.sum(axis=-1)
    iou = np.zeros_like(inter)
    np.divide(inter, union, out=iou, where=union > 0)
    penalty = np.zeros_like(enclosure)
    np.divide(np.abs(enclosure - union), enclosure, out=penalty, where=enclosure > 0)
    return iou, np.where(enclosure > 0, iou - penalty, 0.0)


# Free boxes (zero sizes included), free boxes packed into a small area,
# or lattice boxes; the last two overlap often.
any_box = st.one_of(
    box_row,
    st.tuples(st.floats(0, 4), st.floats(0, 4), st.floats(0, 3), st.floats(0, 3)),
    lattice_row,
)


def _draw_rows(data, n: int, width: int) -> np.ndarray:
    rows = data.draw(st.lists(st.tuples(*[any_box] * (width // 4)),
                              min_size=n, max_size=n))
    return np.array([sum(r, ()) for r in rows], dtype=np.float64).reshape(n, width)


class TestKernelAgainstBroadcastReference:
    """The member-first kernels equal the broadcast-first formulas bit for
    bit, empty operands included."""

    @given(width=st.sampled_from([4, 8]), n=st.integers(0, 8),
           m=st.integers(0, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matrix_form(self, width, n, m, data):
        a, b = _draw_rows(data, n, width), _draw_rows(data, m, width)
        ref_iou, ref_giou = _broadcast_reference(a[:, None], b[None])
        got = iou_matrix(a, b)
        assert got.shape == (n, m)
        assert np.array_equal(got, ref_iou)
        assert np.array_equal(giou(a[:, None], b[None]), ref_giou)

    @given(width=st.sampled_from([4, 8]), n=st.integers(0, 12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_aligned_form(self, width, n, data):
        a, b = _draw_rows(data, n, width), _draw_rows(data, n, width)
        one = _draw_rows(data, 1, width)[0]
        for other in (b, one):
            ref_iou, ref_giou = _broadcast_reference(a, other)
            got = overlap(a, other)
            assert got.shape == (n,)
            assert np.array_equal(got, ref_iou)
            assert np.array_equal(giou(a, other), ref_giou)

    def test_empty_operands(self):
        for width in (4, 8):
            none, some = np.zeros((0, width)), np.ones((3, width))
            assert iou_matrix(none, some).shape == (0, 3)
            assert iou_matrix(some, none).shape == (3, 0)
            assert iou_matrix(none, none).shape == (0, 0)
            assert overlap(none, none).shape == (0,)
            assert giou(none[:, None], some[None]).shape == (0, 3)
            assert giou(none, none).shape == (0,)

    def test_width_mismatch_rejected(self):
        for kernel in (overlap, giou):
            with pytest.raises(ValueError, match="width"):
                kernel(np.zeros((2, 4)), np.zeros((2, 8)))


# Boxes anywhere within 1e6, zero sizes included.
far_box = st.tuples(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
)


class TestOverlapCeiling:
    """overlap_ceiling bounds each row's best overlap over the targets, so a
    row the oracle certifies weak from it is below BASIN_FLOOR."""

    @given(width=st.sampled_from([4, 8]), m=st.integers(1, 6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bounds_the_best_overlap(self, width, m, data):
        box = st.one_of(far_box, any_box)
        targets = np.array(data.draw(st.lists(
            st.tuples(*[box] * (width // 4)).map(lambda r: sum(r, ())),
            min_size=m, max_size=m)), dtype=np.float64)
        rows = []
        for kind in data.draw(st.lists(st.sampled_from(["free", "around"]),
                                       min_size=1, max_size=10)):
            if kind == "free":
                rows.append(sum(data.draw(st.tuples(*[box] * (width // 4))), ()))
            else:
                # A target grown about its center (and shifted): the overlap
                # is then close to the ceiling.
                t = targets[data.draw(st.integers(0, m - 1))].reshape(-1, 4)
                grow = data.draw(st.floats(1.0, 4.0))
                shift = data.draw(st.floats(-0.5, 0.5))
                rows.append(np.concatenate(
                    [t[:, :2] + shift * t[:, 2:], t[:, 2:] * grow], axis=1
                ).ravel())
        rows = np.array(rows, dtype=np.float64).reshape(-1, width)
        ceiling = overlap_ceiling(rows, targets)
        best = iou_matrix(rows, targets).max(axis=1)
        bounded = np.isfinite(ceiling)
        assert np.all(best[bounded] <= ceiling[bounded] * (1.0 + 1e-12))
        certified = ceiling < BASIN_FLOOR * (1.0 - _CEILING_MARGIN)
        assert np.all(best[certified] < BASIN_FLOOR)

    def test_unbounded_rows(self):
        targets = np.array([[10.0, 10.0, 4.0, 4.0]])
        rows = np.array([
            [0.0, 0.0, 0.0, 5.0],        # zero area
            [0.0, 0.0, np.inf, 5.0],     # non-finite
            [np.nan, 0.0, 50.0, 50.0],
            [10.0, 10.0, 40.0, 40.0],    # area 100x the target's
        ])
        got = overlap_ceiling(rows, targets)
        assert np.all(np.isinf(got[:3]))
        assert got[3] == 16.0 / 1600.0

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            overlap_ceiling(np.zeros((2, 4)), np.zeros((2, 8)))
