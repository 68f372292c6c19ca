"""Lifecycle tests, including a fully hand-traced multi-frame scenario."""

from __future__ import annotations

import numpy as np
import pytest

from pairtrack.denoiser import Candidate, ProposalOrigin
from pairtrack.geometry import BBox, PairedBox, iou
from pairtrack.tracker import (
    GreedyIoUTracker,
    KalmanBoxFilter,
    Track,
    TrackStatus,
    Tracker,
    TrackerConfig,
    associate,
    filter_duplicates,
    split_candidates,
)


PRIOR = ProposalOrigin.PRIOR
PADDED = ProposalOrigin.PADDED


def cand(index, origin, prev, cur, assoc, cls_prev=0.9, cls_cur=0.9):
    return Candidate(
        pair=PairedBox(BBox(*prev), BBox(*cur)),
        cls_prev=cls_prev,
        cls_cur=cls_cur,
        assoc=assoc,
        index=index,
        origin=origin,
    )


class TestKalman:
    def test_zero_velocity_stationary(self):
        kf = KalmanBoxFilter()
        mean, cov = kf.initiate(np.array([100.0, 200.0, 0.5, 40.0]))
        mean, cov = kf.predict(mean, cov)
        assert np.allclose(mean[:4], [100, 200, 0.5, 40])

    def test_velocity_shifts_center(self):
        kf = KalmanBoxFilter()
        mean, cov = kf.initiate(np.array([100.0, 200.0, 0.5, 40.0]))
        mean[4] = 5.0
        mean, cov = kf.predict(mean, cov)
        assert mean[0] == pytest.approx(105.0)
        assert mean[1] == pytest.approx(200.0)

    def test_double_step_matrix_identity(self):
        kf = KalmanBoxFilter()
        double = kf.motion_mat @ kf.motion_mat
        interval2 = np.eye(8)
        for i in range(4):
            interval2[i, 4 + i] = 2.0
        assert np.allclose(double, interval2)
        mean, _ = kf.initiate(np.array([10.0, 20.0, 1.0, 30.0]))
        mean[4:6] = [3.0, -2.0]
        stepped = kf.motion_mat @ (kf.motion_mat @ mean)
        assert np.allclose(stepped, interval2 @ mean)

    def test_update_pulls_toward_measurement(self):
        kf = KalmanBoxFilter()
        mean, cov = kf.initiate(np.array([100.0, 100.0, 1.0, 40.0]))
        mean, cov = kf.predict(mean, cov)
        mean, cov = kf.update(mean, cov, np.array([110.0, 100.0, 1.0, 40.0]))
        assert 100.0 < mean[0] <= 110.0


class TestSplitCandidates:
    CFG = TrackerConfig()

    def test_all_association(self):
        cands = [cand(i, PRIOR, (100, 100, 20, 20), (110, 100, 20, 20), 0.9)
                 for i in range(4)]
        assoc, d_new = split_candidates(cands, self.CFG)
        assert len(assoc) == 4 and d_new == []

    def test_gate_drops_everything(self):
        cands = [cand(i, PRIOR if i <= 1 else PADDED, (0, 0, 10, 10),
                      (0, 0, 10, 10), 0.25) for i in range(3)]
        assoc, d_new = split_candidates(cands, self.CFG)
        assert assoc == [] and d_new == []

    def test_mixed_routing(self):
        cands = [
            cand(3, PRIOR, (10, 10, 5, 5), (12, 10, 5, 5), 0.9),
            cand(12, PADDED, (80, 80, 5, 5), (82, 80, 5, 5), 0.8),
        ]
        assoc, d_new = split_candidates(cands, self.CFG)
        assert len(assoc) == 1 and len(d_new) == 1
        assert d_new[0].index == 12

    def test_boundary_index_goes_to_association(self):
        # The boundary is the origin, not the slot: a prior-derived row past
        # a 10-row prior block still associates, and a padded row at slot 10
        # is a discovery.
        cands = [
            cand(40, PRIOR, (10, 10, 5, 5), (12, 10, 5, 5), 0.9),
            cand(10, PADDED, (80, 80, 5, 5), (82, 80, 5, 5), 0.9),
        ]
        assoc, d_new = split_candidates(cands, self.CFG)
        assert [c.pair.prev for c in assoc] == [BBox(10, 10, 5, 5)]
        assert [c.index for c in d_new] == [10]

    def test_zero_assoc_slots_all_new(self):
        cands = [cand(0, PADDED, (10, 10, 5, 5), (12, 10, 5, 5), 0.9)]
        assoc, d_new = split_candidates(cands, self.CFG)
        assert assoc == [] and len(d_new) == 1


class TestAssociate:
    def make_track(self, tid, box):
        return Track.start(tid, 2, BBox(*box), BBox(*box), 0.9)

    def test_exact_overlap_matches(self):
        t = self.make_track(1, (100, 100, 20, 20))
        matches, un_t, un_b = associate([t], [BBox(100, 100, 20, 20)], 0.3)
        assert matches == [(0, 0)] and un_t == [] and un_b == []

    def test_no_overlap_no_match(self):
        t = self.make_track(1, (100, 100, 20, 20))
        matches, un_t, un_b = associate([t], [BBox(500, 500, 20, 20)], 0.3)
        assert matches == [] and un_t == [0] and un_b == [0]

    def test_crossed_overlaps_maximize_total(self):
        t1 = self.make_track(1, (100, 100, 20, 20))
        t2 = self.make_track(2, (112, 100, 20, 20))
        b1, b2 = BBox(104, 100, 20, 20), BBox(114, 100, 20, 20)
        matches, _, _ = associate([t1, t2], [b1, b2], 0.1)
        straight = iou(t1.last_box, b1) + iou(t2.last_box, b2)
        crossed = iou(t1.last_box, b2) + iou(t2.last_box, b1)
        expected = {(0, 0), (1, 1)} if straight >= crossed else {(0, 1), (1, 0)}
        assert set(matches) == expected

    def test_empty_inputs(self):
        assert associate([], [], 0.3) == ([], [], [])


class TestFilterDuplicates:
    def test_duplicate_removed(self):
        c = cand(9, PADDED, (50, 50, 10, 10), (100, 100, 20, 20), 0.9)
        kept = filter_duplicates([c], [(BBox(100, 100, 20, 20), 0.9)], 0.7)
        assert kept == []

    def test_disjoint_kept(self):
        c = cand(9, PADDED, (50, 50, 10, 10), (300, 300, 20, 20), 0.9)
        kept = filter_duplicates([c], [(BBox(100, 100, 20, 20), 0.9)], 0.7)
        assert kept == [c]

    def test_boundary_exactly_at_threshold_kept(self):
        # iou((0,0,20,20), (0,0,20,14)) = 280/400 = 0.7 exactly
        a = BBox.from_corners(0, 0, 20, 20)
        b = BBox.from_corners(0, 0, 20, 14)
        assert iou(a, b) == pytest.approx(0.7, abs=1e-12)
        c = Candidate(pair=PairedBox(BBox(50, 50, 5, 5), b), cls_prev=1,
                      cls_cur=1, assoc=0.9, index=3)
        kept = filter_duplicates([c], [(a, 0.9)], 0.7)
        assert kept == [c]


def rows_by_frame(emitted):
    out = {}
    for frame, row in emitted:
        out.setdefault(frame, []).append(row)
    return out


class TestTrackerStep:
    def test_empty_candidates_tracks_become_lost(self):
        tracker = Tracker()
        tracker.step(2, [cand(0, PADDED, (100, 100, 20, 20), (110, 100, 20, 20),
                              0.9)])
        emitted = tracker.step(3, [])
        assert emitted == []
        assert tracker.activated == []
        assert len(tracker.lost) == 1

    def test_steady_object_keeps_one_id(self):
        tracker = Tracker()
        boxes = [(100 + 10 * k, 100, 20, 20) for k in range(6)]
        ids = set()
        for k in range(1, 6):
            origin = PADDED if k == 1 else PRIOR
            emitted = tracker.step(
                k + 1,
                [cand(0, origin, boxes[k - 1], boxes[k], 0.9)],
            )
            for _, row in emitted:
                ids.add(row.track_id)
        assert ids == {1}

    def test_monotone_frame_required(self):
        tracker = Tracker()
        tracker.step(2, [])
        with pytest.raises(ValueError):
            tracker.step(2, [])

    def test_ids_monotone_increasing(self):
        tracker = Tracker()
        tracker.step(
            2,
            [
                cand(0, PADDED, (100, 100, 20, 20), (100, 100, 20, 20), 0.9),
                cand(1, PADDED, (300, 300, 20, 20), (300, 300, 20, 20), 0.9),
            ],
        )
        first_ids = {t.track_id for t in tracker.activated}
        tracker.step(
            3,
            [cand(5, PADDED, (600, 600, 20, 20), (600, 600, 20, 20), 0.9)],
        )
        new_ids = {t.track_id for t in tracker.activated} - first_ids
        assert all(n > max(first_ids) for n in new_ids)

    def test_state_partition(self):
        tracker = Tracker()
        tracker.step(2, [cand(0, PADDED, (100, 100, 20, 20), (110, 100, 20, 20),
                              0.9)])
        tracker.step(3, [])
        act = {id(t) for t in tracker.activated}
        lost = {id(t) for t in tracker.lost}
        assert act.isdisjoint(lost)

    def test_no_duplicate_ids_per_frame(self):
        tracker = Tracker()
        all_rows = {}
        rng = np.random.default_rng(0)
        for k in range(2, 8):
            cands = [
                cand(i + 5, PADDED, tuple(rng.uniform(50, 900, 2)) + (20, 20),
                     tuple(rng.uniform(50, 900, 2)) + (20, 20), 0.9)
                for i in range(3)
            ]
            for frame, row in tracker.step(k, cands):
                all_rows.setdefault(frame, []).append(row.track_id)
        for frame, ids in all_rows.items():
            assert len(ids) == len(set(ids)), frame

    def test_unmatched_association_row_starts_track(self):
        # A prior-derived row with no track to continue (the first pair of a
        # detection stream) is still a sighting and starts a track.
        tracker = Tracker()
        emitted = rows_by_frame(tracker.step(
            2, [cand(0, PRIOR, (100, 100, 20, 20), (110, 100, 20, 20), 0.9)]
        ))
        assert len(tracker.activated) == 1
        assert [r.box for r in emitted[1]] == [BBox(100, 100, 20, 20)]
        assert [r.box for r in emitted[2]] == [BBox(110, 100, 20, 20)]
        assert emitted[1][0].track_id == emitted[2][0].track_id


class TestHandTracedScenario:
    """Scripted four-pair run whose outcome is traced by hand.

    Two objects from the start; a duplicate discovery and an under-threshold
    newcomer are rejected; object A goes unseen for two frame pairs, then
    reappears at its constant-velocity position and must resume its id.
    """

    def test_full_trace(self):
        tracker = Tracker()

        # pair (1,2): bootstrap, both objects discovered
        emitted = rows_by_frame(
            tracker.step(
                2,
                [
                    cand(0, PADDED, (100, 100, 20, 20), (110, 100, 20, 20), 0.9),
                    cand(1, PADDED, (300, 300, 20, 20), (300, 310, 20, 20), 0.85),
                ],
            )
        )
        assert {r.track_id for r in emitted[1]} == {1, 2}
        assert {r.track_id for r in emitted[2]} == {1, 2}
        by_id = {r.track_id: r.box for r in emitted[2]}
        assert by_id[1] == BBox(110, 100, 20, 20)
        assert by_id[2] == BBox(300, 310, 20, 20)

        # pair (2,3): both advance; a duplicate of A and a weak newcomer
        # arrive in padded rows and are both rejected.
        emitted = rows_by_frame(
            tracker.step(
                3,
                [
                    cand(0, PRIOR, (110, 100, 20, 20), (120, 100, 20, 20), 0.9),
                    cand(1, PRIOR, (300, 310, 20, 20), (300, 320, 20, 20), 0.85),
                    cand(5, PADDED, (110, 100, 20, 20), (120, 100, 20, 20), 0.8),
                    cand(7, PADDED, (500, 500, 20, 20), (500, 500, 20, 20), 0.65),
                ],
            )
        )
        assert sorted(r.track_id for r in emitted[3]) == [1, 2]
        assert len(tracker.activated) == 2  # duplicate filtered, weak one gated

        # pair (3,4): A occluded; B advances; A transitions to lost
        emitted = rows_by_frame(
            tracker.step(
                4,
                [cand(1, PRIOR, (300, 320, 20, 20), (300, 330, 20, 20), 0.85)],
            )
        )
        assert [r.track_id for r in emitted[4]] == [2]
        assert [t.track_id for t in tracker.lost] == [1]

        # pair (4,5): A still occluded
        emitted = rows_by_frame(
            tracker.step(
                5,
                [cand(0, PRIOR, (300, 330, 20, 20), (300, 340, 20, 20), 0.85)],
            )
        )
        assert [r.track_id for r in emitted[5]] == [2]

        # pair (5,6): A reappears exactly where constant velocity predicts
        # (x moved +10 per frame: 120 @3 -> 150 @6); id 1 must resume,
        # including the gap-filling frame-5 row.
        emitted = rows_by_frame(
            tracker.step(
                6,
                [
                    cand(0, PRIOR, (300, 340, 20, 20), (300, 350, 20, 20), 0.85),
                    cand(3, PADDED, (140, 100, 20, 20), (150, 100, 20, 20), 0.8),
                ],
            )
        )
        assert sorted(r.track_id for r in emitted[6]) == [1, 2]
        assert [r.track_id for r in emitted[5]] == [1]
        assert emitted[5][0].box == BBox(140, 100, 20, 20)
        assert tracker.lost == []
        assert {t.track_id for t in tracker.activated} == {1, 2}


class TestGreedyReference:
    def test_tracks_steady_objects(self):
        g = GreedyIoUTracker()
        ids = set()
        for k in range(1, 6):
            rows = g.update(
                k,
                [
                    (BBox(100 + 5 * k, 100, 20, 20), 0.9),
                    (BBox(300, 300 + 5 * k, 20, 20), 0.8),
                ],
            )
            ids |= {r.track_id for r in rows}
            assert len(rows) == 2
        assert ids == {1, 2}

    def test_new_id_after_jump(self):
        g = GreedyIoUTracker(max_lost_age=0)
        first = g.update(1, [(BBox(100, 100, 20, 20), 0.9)])
        g.update(2, [])
        second = g.update(3, [(BBox(100, 100, 20, 20), 0.9)])
        assert second[0].track_id != first[0].track_id
