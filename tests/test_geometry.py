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

from pairtrack.geometry import (
    BBox,
    PairedBox,
    giou,
    giou3d,
    iou,
    iou3d,
    iou3d_matrix,
    iou_matrix,
    nms2d,
    nms3d,
    overlap,
)

CELL = 0.125


def lattice_box(rng: np.random.Generator, lo=0.0, hi=8.0, max_size=4.0) -> BBox:
    """Random box with all corner coordinates on the 1/4 lattice."""
    quarter = 0.25
    x1 = rng.integers(int(lo / quarter), int((hi - quarter) / quarter)) * quarter
    y1 = rng.integers(int(lo / quarter), int((hi - quarter) / quarter)) * quarter
    w = rng.integers(1, int(max_size / quarter) + 1) * quarter
    h = rng.integers(1, int(max_size / quarter) + 1) * quarter
    return BBox.from_corners(x1, y1, x1 + w, y1 + h)


def _cell_centers(extent):
    x1, y1, x2, y2 = extent
    xs = np.arange(x1 + CELL / 2, x2, CELL)
    ys = np.arange(y1 + CELL / 2, y2, CELL)
    return np.meshgrid(xs, ys, indexing="ij")


def _inside(box: BBox, gx, gy):
    x1, y1, x2, y2 = box.corners()
    return (gx > x1) & (gx < x2) & (gy > y1) & (gy < y2)


def raster_areas(a: BBox, b: BBox) -> tuple[float, float, float]:
    """(intersection, union, enclosing) areas by cell counting."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
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


def raster_iou3d(d: PairedBox, g: PairedBox) -> float:
    ip, up, _ = raster_areas(d.prev, g.prev)
    ic, uc, _ = raster_areas(d.cur, g.cur)
    return 0.0 if up + uc == 0 else (ip + ic) / (up + uc)


def raster_giou3d(d: PairedBox, g: PairedBox) -> float:
    ip, up, ep = raster_areas(d.prev, g.prev)
    ic, uc, ec = raster_areas(d.cur, g.cur)
    if ep + ec == 0:
        return 0.0
    base = 0.0 if up + uc == 0 else (ip + ic) / (up + uc)
    return base - abs((ep + ec) - (up + uc)) / abs(ep + ec)


class TestIoU:
    def test_identical_unit_squares(self):
        a = BBox(0.5, 0.5, 1, 1)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0.5, 0.5, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_known_overlap(self):
        # corners (0,0,2,2) vs (1,1,3,3): inter 1, union 7
        a = BBox.from_corners(0, 0, 2, 2)
        b = BBox.from_corners(1, 1, 3, 3)
        assert iou(a, b) == pytest.approx(1 / 7, abs=1e-12)
        assert raster_iou(a, b) == pytest.approx(1 / 7, abs=1e-12)

    def test_degenerate_zero(self):
        z = BBox(1, 1, 0, 0)
        assert iou(z, z) == 0.0


class TestGIoU:
    def test_identical(self):
        a = BBox(3, 4, 2, 5)
        assert giou(a, a) == 1.0

    def test_known_value(self):
        # 1/7 - 2/9: enclosing 9, union 7
        a = BBox.from_corners(0, 0, 2, 2)
        b = BBox.from_corners(1, 1, 3, 3)
        assert giou(a, b) == pytest.approx(1 / 7 - 2 / 9, abs=1e-12)
        assert raster_giou(a, b) == pytest.approx(1 / 7 - 2 / 9, abs=1e-12)

    def test_far_separated_sign(self):
        a = BBox(0.5, 0.5, 1, 1)
        b = BBox(10.5, 0.5, 1, 1)
        v = giou(a, b)
        assert -1.0 < v < 0.0


class TestIoU3D:
    def test_identical_pairs(self):
        p = PairedBox(BBox(1, 1, 2, 2), BBox(2, 1, 2, 2))
        assert iou3d(p, p) == 1.0

    def test_half_overlap(self):
        # prev identical unit squares, cur disjoint: (1+0)/(1+2) = 1/3
        d = PairedBox(BBox(0.5, 0.5, 1, 1), BBox(0.5, 0.5, 1, 1))
        g = PairedBox(BBox(0.5, 0.5, 1, 1), BBox(3.5, 0.5, 1, 1))
        assert iou3d(d, g) == pytest.approx(1 / 3, abs=1e-12)

    def test_both_disjoint(self):
        d = PairedBox(BBox(0.5, 0.5, 1, 1), BBox(0.5, 0.5, 1, 1))
        g = PairedBox(BBox(5, 5, 1, 1), BBox(7, 7, 1, 1))
        assert iou3d(d, g) == 0.0


class TestGIoU3D:
    def test_identical(self):
        p = PairedBox(BBox(1, 1, 2, 2), BBox(2, 1, 2, 2))
        assert giou3d(p, p) == 1.0

    def test_collapses_to_2d(self):
        # prev == cur in both pairs: equals the 2D giou of the shared boxes
        a = BBox.from_corners(0, 0, 2, 2)
        b = BBox.from_corners(1, 1, 3, 3)
        assert giou3d(PairedBox(a, a), PairedBox(b, b)) == pytest.approx(
            giou(a, b), abs=1e-12
        )

    def test_known_value(self):
        # prev identical unit squares; cur unit squares offset by 2:
        # iou3d = 1/3, penalty = |(1+3) - (1+2)| / (1+3) = 1/4
        d = PairedBox(BBox(0.5, 0.5, 1, 1), BBox(0.5, 0.5, 1, 1))
        g = PairedBox(BBox(0.5, 0.5, 1, 1), BBox(2.5, 0.5, 1, 1))
        assert giou3d(d, g) == pytest.approx(1 / 3 - 1 / 4, abs=1e-12)
        assert raster_giou3d(d, g) == pytest.approx(1 / 3 - 1 / 4, abs=1e-12)


class TestRasterOracle:
    """Random-lattice agreement between the closed forms and cell counting."""

    def test_iou_and_giou_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = lattice_box(rng), lattice_box(rng)
            assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)
            assert giou(a, b) == pytest.approx(raster_giou(a, b), abs=1e-3)

    def test_paired_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = PairedBox(lattice_box(rng), lattice_box(rng))
            g = PairedBox(lattice_box(rng), lattice_box(rng))
            assert iou3d(d, g) == pytest.approx(raster_iou3d(d, g), abs=1e-3)
            assert giou3d(d, g) == pytest.approx(raster_giou3d(d, g), abs=1e-3)


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
        assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)
        assert giou(a, b) == pytest.approx(giou(b, a), abs=1e-12)
        assert giou(a, b) <= iou(a, b) + 1e-12
        assert 0.0 <= iou(a, b) <= 1.0
        assert -1.0 < giou(a, b) <= 1.0

    @given(a=finite_box, b=finite_box, c=finite_box, d=finite_box)
    @settings(max_examples=100, deadline=None)
    def test_paired_symmetry(self, a, b, c, d):
        p, q = PairedBox(a, b), PairedBox(c, d)
        assert iou3d(p, q) == pytest.approx(iou3d(q, p), abs=1e-12)
        assert giou3d(p, q) == pytest.approx(giou3d(q, p), abs=1e-12)
        assert giou3d(p, q) <= iou3d(p, q) + 1e-12

    @given(
        a=finite_box,
        b=finite_box,
        dx=st.floats(-100, 100),
        dy=st.floats(-100, 100),
        scale=st.floats(0.1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_and_scale_invariance(self, a, b, dx, dy, scale):
        shift = lambda v: BBox(v.cx + dx, v.cy + dy, v.w, v.h)
        grow = lambda v: BBox(v.cx * scale, v.cy * scale, v.w * scale, v.h * scale)
        for ref, moved in ((iou, iou), (giou, giou)):
            assert ref(a, b) == pytest.approx(moved(shift(a), shift(b)), abs=1e-9)
            assert ref(a, b) == pytest.approx(moved(grow(a), grow(b)), abs=1e-9)

    @given(a=finite_box)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, a):
        assert giou(a, a) == pytest.approx(1.0, abs=1e-12)
        p = PairedBox(a, a)
        assert giou3d(p, p) == pytest.approx(1.0, abs=1e-12)


def _rows(boxes) -> np.ndarray:
    """Stack BBox or PairedBox objects into the arrays suppression takes."""
    return np.stack([b.flatten() if isinstance(b, PairedBox) else b.as_array()
                     for b in boxes])


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
        a = BBox.from_corners(0, 0, 20, 20)
        b = BBox.from_corners(0, 0, 20, 13)  # inter 260, union 400
        assert iou(a, b) == pytest.approx(0.65, abs=1e-12)
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
        p = PairedBox(BBox(1, 1, 2, 2), BBox(2, 1, 2, 2))
        kept = nms3d(_rows([p, p]), [0.9, 0.5], 0.6)
        assert kept == [0]

    def test_nms3d_single_frame_overlap_kept(self):
        # overlap in one frame only: iou3d = (4+0)/(4+8) = 1/3 < 0.6
        a = PairedBox(BBox(1, 1, 2, 2), BBox(1, 1, 2, 2))
        b = PairedBox(BBox(1, 1, 2, 2), BBox(9, 9, 2, 2))
        assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert nms3d(_rows([a, b]), [0.9, 0.8], 0.6) == [0, 1]

    def test_no_kept_pair_exceeds_threshold(self):
        rng = np.random.default_rng(3)
        boxes = [lattice_box(rng, hi=6.0, max_size=3.0) for _ in range(40)]
        scores = rng.uniform(0, 1, size=40).tolist()
        kept = nms2d(_rows(boxes), scores, 0.4)
        for i in kept:
            for j in kept:
                if i != j:
                    assert iou(boxes[i], boxes[j]) <= 0.4

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
# repeat.
lattice_row = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 6), st.integers(0, 6)
).map(lambda r: [(r[0] + r[2] / 2) / 4, (r[1] + r[3] / 2) / 4, r[2] / 4, r[3] / 4])
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
    mat = iou3d_matrix(pairs, pairs)
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
    def test_matches_scalar(self):
        rng = np.random.default_rng(5)
        boxes = [lattice_box(rng) for _ in range(12)]
        arr = np.stack([b.as_array() for b in boxes])
        mat = iou_matrix(arr, arr)
        for i in range(12):
            for j in range(12):
                assert mat[i, j] == pytest.approx(iou(boxes[i], boxes[j]), abs=1e-12)

    def test_iou3d_matrix_matches_scalar(self):
        rng = np.random.default_rng(6)
        pairs = [PairedBox(lattice_box(rng), lattice_box(rng)) for _ in range(10)]
        arr = np.stack([p.flatten() for p in pairs])
        mat = iou3d_matrix(arr, arr)
        for i in range(10):
            for j in range(10):
                assert mat[i, j] == pytest.approx(iou3d(pairs[i], pairs[j]), abs=1e-12)


# Center-form rows whose widths and heights may be exactly zero.
box_row = st.tuples(
    st.floats(-50, 50), st.floats(-50, 50),
    st.one_of(st.just(0.0), st.floats(0.0, 20)),
    st.one_of(st.just(0.0), st.floats(0.0, 20)),
)


class TestOverlapKernel:
    """Row-aligned overlap against the matrix kernels and the scalar forms."""

    @given(rows=st.lists(st.tuples(box_row, box_row), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_plain_rows(self, rows):
        a = np.array([r[0] for r in rows])
        b = np.array([r[1] for r in rows])
        got = overlap(a, b)
        assert got.shape == (len(rows),)
        assert np.array_equal(got, np.diagonal(iou_matrix(a, b)))
        for i, (ra, rb) in enumerate(rows):
            assert got[i] == pytest.approx(iou(BBox(*ra), BBox(*rb)), abs=1e-12)

    @given(rows=st.lists(st.tuples(box_row, box_row, box_row, box_row),
                         min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_paired_rows(self, rows):
        a = np.array([r[0] + r[1] for r in rows])
        b = np.array([r[2] + r[3] for r in rows])
        got = overlap(a, b)
        assert got.shape == (len(rows),)
        assert np.array_equal(got, np.diagonal(iou3d_matrix(a, b)))
        for i, r in enumerate(rows):
            d = PairedBox(BBox(*r[0]), BBox(*r[1]))
            g = PairedBox(BBox(*r[2]), BBox(*r[3]))
            assert got[i] == pytest.approx(iou3d(d, g), abs=1e-12)


def _broadcast_overlap(a, b) -> np.ndarray:
    """The broadcast-first overlap formula, kept apart from the kernel as
    its reference: corners, clips and areas are computed on the broadcast
    (..., members, 2) shape and the members summed with ``sum``."""
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
    inter = inter.sum(axis=-1)
    union = union.sum(axis=-1)
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


# Free boxes (zero sizes included), free boxes packed into a small area,
# or lattice boxes; the last two overlap often.
any_box = st.one_of(
    box_row,
    st.tuples(st.floats(0, 4), st.floats(0, 4), st.floats(0, 3), st.floats(0, 3)),
    lattice_row.map(tuple),
)


def _draw_rows(data, n: int, width: int) -> np.ndarray:
    rows = data.draw(st.lists(st.tuples(*[any_box] * (width // 4)),
                              min_size=n, max_size=n))
    return np.array([sum(r, ()) for r in rows], dtype=np.float64).reshape(n, width)


class TestKernelAgainstBroadcastReference:
    """The member-first kernel equals the broadcast-first formula bit for
    bit, empty operands included."""

    @given(width=st.sampled_from([4, 8]), n=st.integers(0, 8),
           m=st.integers(0, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matrix_form(self, width, n, m, data):
        a, b = _draw_rows(data, n, width), _draw_rows(data, m, width)
        got = (iou_matrix if width == 4 else iou3d_matrix)(a, b)
        assert got.shape == (n, m)
        assert np.array_equal(got, _broadcast_overlap(a[:, None], b[None]))

    @given(width=st.sampled_from([4, 8]), n=st.integers(0, 12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_aligned_form(self, width, n, data):
        a, b = _draw_rows(data, n, width), _draw_rows(data, n, width)
        got = overlap(a, b)
        assert got.shape == (n,)
        assert np.array_equal(got, _broadcast_overlap(a, b))
        one = _draw_rows(data, 1, width)[0]
        assert np.array_equal(overlap(a, one), _broadcast_overlap(a, one))

    def test_empty_operands(self):
        for width, matrix in ((4, iou_matrix), (8, iou3d_matrix)):
            assert matrix(np.zeros((0, width)), np.ones((3, width))).shape == (0, 3)
            assert matrix(np.ones((3, width)), np.zeros((0, width))).shape == (3, 0)
            assert matrix(np.zeros((0, width)), np.zeros((0, width))).shape == (0, 0)
            assert overlap(np.zeros((0, width)), np.zeros((0, width))).shape == (0,)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            overlap(np.zeros((2, 4)), np.zeros((2, 8)))


class TestFlatten:
    def test_roundtrip(self):
        p = PairedBox(BBox(1, 2, 3, 4), BBox(5, 6, 7, 8))
        assert PairedBox.from_flat(p.flatten()) == p

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            PairedBox.from_flat([1, 2, 3])
