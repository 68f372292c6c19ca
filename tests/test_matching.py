"""Assignment and loss tests against brute-force and hand-worked oracles,
and the assignment solver against scipy's, its reference."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pairtrack
from pairtrack import matching
from pairtrack.denoiser import CandidateBatch, ProposalOrigin
from pairtrack.geometry import iou_matrix
from pairtrack.matching import (
    LAMBDA_CLS,
    LAMBDA_GIOU,
    LAMBDA_REG,
    detection_loss,
    focal_loss,
    linear_sum_assignment,
    match_cost,
)


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Enumerate all injective assignments of the smaller side."""
    n, m = cost.shape
    if n == 0 or m == 0:
        return 0.0
    if n <= m:
        return min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    return min(
        sum(cost[p[j], j] for j in range(m))
        for p in itertools.permutations(range(n), m)
    )


def assignment(cost) -> list[tuple[int, int]]:
    """The solver's (row, column) pairs, rows ascending."""
    rows, cols = linear_sum_assignment(np.asarray(cost, dtype=float))
    return list(zip(rows.tolist(), cols.tolist()))


class TestHungarian:
    def test_two_by_two(self):
        pairs = assignment([[1.0, 2.0], [3.0, 0.0]])
        assert set(pairs) == {(0, 0), (1, 1)}
        assert len(pairs) == 2

    def test_diagonal(self):
        cost = np.ones((4, 4)) - np.eye(4)
        assert set(assignment(cost)) == {(i, i) for i in range(4)}

    def test_empty(self):
        assert assignment(np.zeros((0, 0))) == []
        assert assignment(np.zeros((0, 3))) == []

    def test_rectangular_unmatched(self):
        # Columns 0 and 2 stay unmatched; so do rows 0 and 2 of the
        # transpose.
        assert assignment([[1.0, 0.0, 5.0]]) == [(0, 1)]
        assert assignment([[1.0], [0.0], [5.0]]) == [(1, 0)]

    def test_matches_brute_force_integer(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.integers(0, 100, size=(n, m)).astype(float)
            total = sum(cost[i, j] for i, j in assignment(cost))
            assert total == brute_force_min_cost(cost)

    def test_matches_brute_force_float(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cost = rng.uniform(0, 10, size=(n, m))
            total = sum(cost[i, j] for i, j in assignment(cost))
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)


side = st.integers(0, 8)
# Center-form boxes on a coarse lattice: repeated boxes give exactly tied
# overlaps, and the far boxes overlap nothing, so their rows of
# 1 - iou_matrix are all ones.
LATTICE = [(cx, cy, w, h) for cx in (2.0, 3.0, 4.5) for cy in (2.0, 3.5)
           for w, h in ((2.0, 2.0), (3.0, 1.0))] + [(50.0, 50.0, 2.0, 2.0),
                                                    (80.0, 20.0, 1.0, 3.0)]
lattice_boxes = st.lists(st.sampled_from(LATTICE), max_size=8)


def assert_same_as_scipy(cost: np.ndarray) -> None:
    rows, cols = linear_sum_assignment(cost)
    ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
    assert rows.tolist() == ref_rows.tolist()
    assert cols.tolist() == ref_cols.tolist()


class TestLinearSumAssignment:
    """Index for index what ``scipy.optimize.linear_sum_assignment``
    returns, tie-breaks included."""

    @given(st.data(), side, side)
    @settings(max_examples=300, deadline=None)
    def test_tied_integer_costs(self, data, n, m):
        # Costs in [0, 3] tie within rows and share column minima, which
        # sends many draws (half of uniform ones) through the fallback.
        cost = data.draw(arrays(np.float64, (n, m), elements=st.integers(0, 3)))
        assert_same_as_scipy(cost)

    @given(st.data(), side, side)
    @settings(max_examples=200, deadline=None)
    def test_float_costs(self, data, n, m):
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        cost = data.draw(arrays(np.float64, (n, m), elements=finite))
        assert_same_as_scipy(cost)

    @given(tracks=lattice_boxes, boxes=lattice_boxes)
    @settings(max_examples=200, deadline=None)
    def test_iou_costs(self, tracks, boxes):
        cost = 1.0 - iou_matrix(np.array(tracks).reshape(-1, 4),
                                np.array(boxes).reshape(-1, 4))
        assert_same_as_scipy(cost)

    def test_certified_case_skips_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(matching, "_shortest_augmenting_paths",
                            lambda c: calls.append(c))
        # Tall, so the certificate runs on the transpose: each column's
        # first minimum is in a row of its own.
        rows, cols = linear_sum_assignment([[5.0, 0.5], [0.1, 2.0], [1.0, 1.0]])
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
        # A tie within a row still certifies: the first minimum is the
        # column scipy's search takes.
        rows, cols = linear_sum_assignment([[1.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
        assert calls == []

    def test_shared_column_minimum_searches(self, monkeypatch):
        calls = []
        search = matching._shortest_augmenting_paths
        monkeypatch.setattr(matching, "_shortest_augmenting_paths",
                            lambda c: calls.append(c) or search(c))
        # Both rows are cheapest in column 0; the optimum sends row 0 to
        # column 1 (total 1 against 2).
        rows, cols = linear_sum_assignment([[0.0, 1.0], [0.0, 2.0]])
        assert len(calls) == 1
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            linear_sum_assignment([[0.0, 1.0], [bad, 2.0]])


def test_package_import_loads_no_scipy():
    # scipy is the tests' reference only; importing the package and its
    # command line must not load it.
    code = ("import sys, pairtrack, pairtrack.harness.io, pairtrack.harness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(pairtrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


class TestFocalLoss:
    def test_known_value(self):
        # 0.25 * 0.1^2 * (-ln 0.9)
        assert focal_loss(0.9, 1) == pytest.approx(
            0.25 * 0.01 * -math.log(0.9), rel=1e-12
        )

    def test_confident_positive_vanishes(self):
        assert focal_loss(1.0, 1) < 1e-9
        assert focal_loss(0.999999, 1) < 1e-9

    def test_negative_branch_weighting(self):
        pos = focal_loss(0.5, 1)
        neg = focal_loss(0.5, 0)
        assert pos == pytest.approx(0.25 * 0.25 * -math.log(0.5), rel=1e-12)
        assert neg == pytest.approx(0.75 * 0.25 * -math.log(0.5), rel=1e-12)

    def test_clamped_at_edges(self):
        assert math.isfinite(focal_loss(0.0, 1))
        assert math.isfinite(focal_loss(1.0, 0))
        assert focal_loss(0.0, 1) >= 0


def candidate(pair: np.ndarray, cls_prev, cls_cur, assoc) -> CandidateBatch:
    """One prediction, an (8,) pixel row, as a one-row batch."""
    return CandidateBatch(
        pairs=np.asarray(pair, dtype=np.float64)[None],
        cls_prev=np.array([cls_prev], dtype=np.float64),
        cls_cur=np.array([cls_cur], dtype=np.float64),
        assoc=np.array([assoc], dtype=np.float64),
        origin=np.array([ProposalOrigin.PADDED], dtype=np.int8),
    )


def stacked(preds: list[CandidateBatch]) -> CandidateBatch:
    return CandidateBatch(*(
        np.concatenate([getattr(p, name) for p in preds])
        for name in ("pairs", "cls_prev", "cls_cur", "assoc", "origin")
    ))


def perfect_candidate(gt: np.ndarray) -> CandidateBatch:
    return candidate(pair=gt, cls_prev=1.0, cls_cur=1.0, assoc=1.0)


def gt_pair(cx=100.0, cy=100.0, w=40.0, h=40.0, dx=10.0) -> np.ndarray:
    """A ground-truth pair as an (8,) pixel row: previous box, current box."""
    return np.array([cx, cy, w, h, cx + dx, cy, w, h])


class TestMatchCost:
    def test_perfect_is_minimal(self):
        gt = gt_pair()
        perfect = perfect_candidate(gt)
        off = candidate(
            pair=gt_pair(cx=130.0), cls_prev=0.8, cls_cur=0.7, assoc=0.6
        )
        assert (match_cost(perfect, gt[None], (1000, 1000))
                < match_cost(off, gt[None], (1000, 1000)))

    def test_overlapping_beats_disjoint(self):
        gt = gt_pair()
        near = candidate(pair=gt_pair(cx=105.0), cls_prev=0.9, cls_cur=0.9, assoc=0.9)
        far = candidate(pair=gt_pair(cx=800.0), cls_prev=0.9, cls_cur=0.9, assoc=0.9)
        assert (match_cost(near, gt[None], (1000, 1000))
                < match_cost(far, gt[None], (1000, 1000)))

    def test_hand_value(self):
        # Single pred/GT with all three terms evaluated by direct arithmetic.
        gt = np.array([[0.3, 0.3, 0.2, 0.2, 0.35, 0.3, 0.2, 0.2]])
        pred = candidate(
            pair=[0.32, 0.3, 0.2, 0.2, 0.35, 0.32, 0.2, 0.2],
            cls_prev=0.9,
            cls_cur=0.8,
            assoc=0.81,
        )
        fused_prev = math.sqrt(0.9 * 0.81)
        fused_cur = math.sqrt(0.8 * 0.81)
        cls = focal_loss(fused_prev, 1) + focal_loss(fused_cur, 1)
        reg = 0.02 + 0.02
        # Each frame: offset 0.02 along one axis, inter 0.18 * 0.2, union
        # and enclosure both 0.22 * 0.2, so the penalty vanishes.
        giou_term = 1.0 - (2 * 0.18 * 0.2) / (2 * 0.22 * 0.2)
        expected = LAMBDA_CLS * cls + LAMBDA_REG * reg + LAMBDA_GIOU * giou_term
        cost = match_cost(pred, gt, (1, 1))
        assert cost.shape == (1, 1)
        assert cost[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matrix_of_single_pair_costs(self):
        # Entry (i, j) is row i's cost against ground-truth row j alone.
        rng = np.random.default_rng(3)
        gts = np.stack([gt_pair(cx=float(c)) for c in rng.uniform(100, 900, 4)])
        preds = stacked([
            candidate(pair=gt_pair(cx=float(c)), cls_prev=0.9, cls_cur=0.7,
                      assoc=0.8)
            for c in rng.uniform(100, 900, 5)
        ])
        cost = match_cost(preds, gts, (1000, 1000))
        assert cost.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                one = match_cost(preds.take(np.array([i])), gts[j:j + 1], (1000, 1000))
                assert cost[i, j] == one[0, 0]

    def test_ground_truth_shape_checked(self):
        pred = perfect_candidate(gt_pair())
        for bad in (gt_pair(), np.zeros((2, 4)), np.zeros((1, 2, 8))):
            with pytest.raises(ValueError, match=r"\(k, 8\)"):
                match_cost(pred, bad)
            with pytest.raises(ValueError, match=r"\(k, 8\)"):
                detection_loss(pred, bad)


class TestDetectionLoss:
    IMG = (1000, 1000)

    def test_perfect_predictions(self):
        gts = np.stack([gt_pair(), gt_pair(cx=500.0, cy=400.0)])
        preds = stacked([perfect_candidate(g) for g in gts])
        out = detection_loss(preds, gts, self.IMG)
        assert out.reg == 0.0
        assert out.giou_term == pytest.approx(0.0, abs=1e-12)
        assert out.cls < 1e-3
        assert out.n_pos == 2

    def test_fused_score_formula(self):
        # C = 1, S = 0.25 -> fused 0.5 enters the positive focal term.
        gt = gt_pair()
        pred = candidate(pair=gt, cls_prev=1.0, cls_cur=1.0, assoc=0.25)
        out = detection_loss(pred, gt[None], self.IMG)
        expected_cls = 2 * focal_loss(0.5, 1)
        assert out.cls == pytest.approx(expected_cls, rel=1e-12)

    def test_single_pair_hand_computed(self):
        gt = np.array([300, 300, 200, 200, 350, 300, 200, 200], dtype=np.float64)
        pred = candidate(
            pair=[320, 300, 200, 200, 350, 320, 200, 200],
            cls_prev=0.9,
            cls_cur=0.8,
            assoc=0.81,
        )
        out = detection_loss(pred, gt[None], self.IMG)

        cls = focal_loss(math.sqrt(0.9 * 0.81), 1) + focal_loss(math.sqrt(0.8 * 0.81), 1)
        reg = (20 / 1000) + (20 / 1000)
        # paired giou by direct evaluation: both frames share geometry
        # prev: boxes offset 20px in x, 200x200 -> inter 180*200, union
        # 2*40000-36000=44000, enclosing 220*200=44000
        # cur: offset 20px in y, symmetric.
        inter = 180 * 200 * 2
        union = 44000 * 2
        enclosing = 44000 * 2
        iou3 = inter / union
        giou3 = iou3 - abs(enclosing - union) / enclosing
        giou_term = 1.0 - giou3
        expected_total = (LAMBDA_CLS * cls + LAMBDA_REG * reg + LAMBDA_GIOU * giou_term)
        assert out.total == pytest.approx(expected_total, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        gts = np.stack([
            gt_pair(cx=float(rng.uniform(100, 900)), cy=float(rng.uniform(100, 900)))
            for _ in range(6)
        ])
        preds = stacked([
            candidate(
                pair=gt_pair(
                    cx=float(rng.uniform(100, 900)), cy=float(rng.uniform(100, 900))
                ),
                cls_prev=float(rng.uniform(0.2, 1)),
                cls_cur=float(rng.uniform(0.2, 1)),
                assoc=float(rng.uniform(0.2, 1)),
            )
            for _ in range(8)
        ])
        base = detection_loss(preds, gts, self.IMG)
        for seed in range(5):
            r = np.random.default_rng(seed)
            pp = preds.take(r.permutation(len(preds)))
            gg = gts[r.permutation(len(gts))]
            out = detection_loss(pp, gg, self.IMG)
            assert out.total == pytest.approx(base.total, abs=1e-9)
            assert out.cls == pytest.approx(base.cls, abs=1e-9)
            assert out.reg == pytest.approx(base.reg, abs=1e-9)

    def test_seeded_case_pinned(self):
        # 40 rows against 6 ground-truth pairs, a third of the rows random.
        # The pins were recorded with a per-row scalar paired GIoU, before
        # the array kernel replaced it.
        rng = np.random.default_rng(21)
        gts = np.column_stack([rng.uniform(100, 900, (6, 2)),
                               rng.uniform(30, 90, (6, 2))])
        gts = np.hstack([gts, gts + rng.normal(0, 6, (6, 4))])
        pairs = gts[rng.integers(0, 6, 40)] + rng.normal(0, 12, (40, 8))
        pairs[::3] = rng.uniform(50, 950, (14, 8))
        preds = CandidateBatch(
            pairs=pairs,
            cls_prev=rng.uniform(0, 1, 40),
            cls_cur=rng.uniform(0, 1, 40),
            assoc=rng.uniform(0, 1, 40),
            origin=np.full(40, ProposalOrigin.PADDED, dtype=np.int8),
        )
        out = detection_loss(preds, gts, self.IMG)
        assert out.pairs.tolist() == [[2, 0], [17, 5], [25, 2], [28, 4], [29, 3],
                                      [35, 1]]
        assert out.n_pos == 6
        assert out.total == pytest.approx(5.88483245434606, abs=1e-9)
        assert out.cls == pytest.approx(13.713002225477553, abs=1e-9)
        assert out.reg == pytest.approx(0.3788475823768376, abs=1e-9)
        assert out.giou_term == pytest.approx(2.994376181618533, abs=1e-9)

    def test_empty_gt_background_only(self):
        pred = candidate(pair=gt_pair(), cls_prev=0.5, cls_cur=0.5, assoc=0.5)
        out = detection_loss(pred, np.zeros((0, 8)), self.IMG)
        assert out.reg == 0.0 and out.giou_term == 0.0
        assert out.cls > 0
        assert out.n_pos == 1

    def test_monotone_in_l1(self):
        gt = gt_pair()
        totals = []
        for shift in (0.0, 5.0, 10.0, 20.0):
            pred = candidate(
                pair=gt_pair(cx=100.0 + shift), cls_prev=1.0, cls_cur=1.0, assoc=1.0
            )
            totals.append(detection_loss(pred, gt[None], self.IMG).total)
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_total_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            gts = gt_pair(cx=float(rng.uniform(100, 900)))[None]
            preds = stacked([
                candidate(
                    pair=gt_pair(cx=float(rng.uniform(100, 900))),
                    cls_prev=float(rng.uniform(0, 1)),
                    cls_cur=float(rng.uniform(0, 1)),
                    assoc=float(rng.uniform(0, 1)),
                )
                for _ in range(3)
            ])
            assert detection_loss(preds, gts, self.IMG).total >= 0.0
