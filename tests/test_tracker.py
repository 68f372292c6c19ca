"""Lifecycle tests, including a fully hand-traced multi-frame scenario."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrack.denoiser import CandidateBatch, ProposalOrigin
from pairtrack.geometry import iou_matrix
from pairtrack.tracker import (
    BBox,
    GreedyIoUTracker,
    Tracker,
    TrackerConfig,
    TrackingResult,
    associate,
    kalman_initiate,
    kalman_predict,
    kalman_update,
)


PRIOR = ProposalOrigin.PRIOR
PADDED = ProposalOrigin.PADDED


def cand(origin, prev, cur, assoc):
    """One survivor row: its origin, (cx, cy, w, h) boxes and score."""
    return origin, tuple(prev) + tuple(cur), assoc


def batch(cands):
    """Survivor rows as the batch ``Tracker.step`` receives, in list order."""
    n = len(cands)
    origin, pairs, assoc = zip(*cands) if cands else ((), (), ())
    return CandidateBatch(
        pairs=np.array(pairs, dtype=np.float64).reshape(n, 8),
        cls_prev=np.full(n, 0.9),
        cls_cur=np.full(n, 0.9),
        assoc=np.array(assoc, dtype=np.float64),
        origin=np.array(origin, dtype=np.int8),
    )


def boxes(*rows):
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


class TestKalman:
    def test_zero_velocity_stationary(self):
        mean, cov = kalman_initiate(boxes((100.0, 200.0, 0.5, 40.0)))
        mean, cov = kalman_predict(mean, cov)
        assert np.allclose(mean[0, :4], [100, 200, 0.5, 40])

    def test_velocity_shifts_center(self):
        mean, cov = kalman_initiate(boxes((100.0, 200.0, 0.5, 40.0)))
        mean[0, 4] = 5.0
        mean, cov = kalman_predict(mean, cov)
        assert mean[0, 0] == pytest.approx(105.0)
        assert mean[0, 1] == pytest.approx(200.0)

    def test_two_predicts_move_center_by_twice_velocity(self):
        mean, cov = kalman_initiate(boxes((10.0, 20.0, 1.0, 30.0)))
        mean[0, 4:6] = [3.0, -2.0]
        stepped, _ = kalman_predict(*kalman_predict(mean, cov))
        assert stepped[0, :4].tolist() == [16.0, 16.0, 1.0, 30.0]
        assert np.array_equal(stepped[0, 4:], mean[0, 4:])

    def test_update_pulls_toward_measurement(self):
        mean, cov = kalman_initiate(boxes((100.0, 100.0, 1.0, 40.0)))
        mean, cov = kalman_predict(mean, cov)
        mean, cov = kalman_update(mean, cov, boxes((110.0, 100.0, 1.0, 40.0)))
        assert 100.0 < mean[0, 0] <= 110.0


# Kalman stacks as a tracker holds them: started from (cx, cy, aspect,
# height) measurements, given a velocity and predicted a few frames on.
_xyah = st.tuples(st.floats(0, 2000), st.floats(0, 2000), st.floats(0.1, 5),
                  st.floats(1e-6, 500))


@st.composite
def _kalman_stacks(draw):
    k = draw(st.integers(1, 12))
    means, covs = kalman_initiate(np.array(draw(st.lists(_xyah, min_size=k,
                                                         max_size=k))))
    means[:, 4:6] = draw(st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
                                  min_size=k, max_size=k))
    for _ in range(draw(st.integers(0, 3))):
        means, covs = kalman_predict(means, covs)
    meas = np.array(draw(st.lists(_xyah, min_size=k, max_size=k)))
    return means, covs, meas


class TestStackedKalman:
    """A stacked step treats each row as a stack of one would."""

    @staticmethod
    def check_rowwise(step, means, covs, *args):
        got_means, got_covs = step(means, covs, *args)
        for i in range(len(means)):
            one_mean, one_cov = step(means[i:i + 1], covs[i:i + 1],
                                     *(a[i:i + 1] for a in args))
            assert np.array_equal(got_means[i], one_mean[0]), i
            assert np.array_equal(got_covs[i], one_cov[0]), i

    @given(stack=_kalman_stacks())
    @settings(max_examples=100, deadline=None)
    def test_predict_rowwise(self, stack):
        means, covs, _ = stack
        self.check_rowwise(kalman_predict, means, covs)

    @given(stack=_kalman_stacks())
    @settings(max_examples=100, deadline=None)
    def test_update_rowwise(self, stack):
        self.check_rowwise(kalman_update, *stack)

    @given(stack=_kalman_stacks())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_per_track_filter(self, stack):
        # Each block-form row, expanded to its 8x8 covariance, is the full
        # filter's state bit for bit.
        means, covs, meas = stack
        init_means, init_covs = kalman_initiate(meas)
        pred_means, pred_covs = kalman_predict(means, covs)
        upd_means, upd_covs = kalman_update(means, covs, meas)
        for i in range(len(means)):
            full = _full_cov(covs[i])
            mean, cov = _per_track_initiate(meas[i])
            assert np.array_equal(init_means[i], mean), i
            assert np.array_equal(_full_cov(init_covs[i]), cov), i
            mean, cov = _per_track_predict(means[i], full)
            assert np.array_equal(pred_means[i], mean), i
            assert np.array_equal(_full_cov(pred_covs[i]), cov), i
            mean, cov = _per_track_update(means[i], full, meas[i])
            assert np.array_equal(upd_means[i], mean), i
            assert np.array_equal(_full_cov(upd_covs[i]), cov), i


def _full_cov(blocks):
    """The 8x8 covariance of one track's (4, 4) pp, pv, vp, vv blocks."""
    cov = np.zeros((8, 8))
    pos, vel = np.arange(4), np.arange(4, 8)
    cov[pos, pos], cov[pos, vel], cov[vel, pos], cov[vel, vel] = blocks
    return cov


# The one-track 8x8 filter the block-form steps replaced, kept as their
# reference with its own motion matrix.
_MOTION_MAT = np.eye(8)
_MOTION_MAT[:4, 4:] = np.eye(4)


def _per_track_initiate(meas):
    pos, vel = 2 * (1 / 20) * meas[3], 10 * (1 / 160) * meas[3]
    mean = np.zeros(8)
    mean[:4] = meas
    return mean, np.diag(np.square([pos, pos, 1e-2, pos, vel, vel, 1e-5, vel]))


def _per_track_predict(mean, cov):
    pos, vel = 1 / 20 * mean[3], 1 / 160 * mean[3]
    std = [pos, pos, 1e-2, pos, vel, vel, 1e-5, vel]
    return _MOTION_MAT @ mean, (
        _MOTION_MAT @ cov @ _MOTION_MAT.T + np.diag(np.square(std))
    )


def _per_track_update(mean, cov, meas):
    pos = 1 / 20 * mean[3]
    update_mat = np.eye(4, 8)
    std = [pos, pos, 1e-1, pos]
    projected_cov = update_mat @ cov @ update_mat.T + np.diag(np.square(std))
    gain = np.linalg.solve(projected_cov.T, (cov @ update_mat.T).T).T
    mean = mean + gain @ (meas - update_mat @ mean)
    return mean, cov - gain @ projected_cov @ gain.T


def tracked(*pairs):
    """A tracker that started one track per (prev, cur) padded row at frame 2."""
    tracker = Tracker()
    tracker.step(2, batch([cand(PADDED, prev, cur, 0.9) for prev, cur in pairs]))
    return tracker


class TestSplitCandidates:
    """``Tracker.step`` splits its rows into association rows and
    discoveries by origin, whatever their slot."""

    def test_all_association(self):
        starts = [((100 * k, 100, 20, 20), (100 * k + 10, 100, 20, 20))
                  for k in range(1, 5)]
        tracker = tracked(*starts)
        cands = [cand(PRIOR, cur, (cur[0] + 10,) + cur[1:], 0.9)
                 for _, cur in starts]
        emitted = step_rows(tracker, 3, batch(cands))
        assert sorted(r.track_id for r in emitted[3]) == [1, 2, 3, 4]
        assert 2 not in emitted
        by_id = {r.track_id: r.box for r in emitted[3]}
        assert by_id == {k: BBox(100 * k + 20, 100, 20, 20) for k in range(1, 5)}

    def test_mixed_routing(self):
        tracker = tracked(((100, 100, 20, 20), (110, 100, 20, 20)))
        emitted = step_rows(tracker, 3, batch([
            cand(PRIOR, (110, 100, 20, 20), (120, 100, 20, 20), 0.9),
            cand(PADDED, (600, 600, 20, 20), (610, 600, 20, 20), 0.8),
        ]))
        by_id = {r.track_id: r.box for r in emitted[3]}
        assert by_id == {1: BBox(120, 100, 20, 20), 2: BBox(610, 600, 20, 20)}
        assert [r.track_id for r in emitted[2]] == [2]

    def test_boundary_index_goes_to_association(self):
        # The boundary is the origin, not the slot: a prior-derived row after
        # a padded one still associates, and a padded row in the leading slot
        # whose previous member matches the track is a discovery.
        tracker = tracked(((100, 100, 20, 20), (110, 100, 20, 20)))
        emitted = step_rows(tracker, 3, batch([
            cand(PADDED, (110, 100, 20, 20), (400, 400, 20, 20), 0.9),
            cand(PRIOR, (110, 100, 20, 20), (120, 100, 20, 20), 0.9),
        ]))
        by_id = {r.track_id: r.box for r in emitted[3]}
        assert by_id == {1: BBox(120, 100, 20, 20), 2: BBox(400, 400, 20, 20)}

    def test_padded_row_never_advances(self):
        tracker = tracked(((100, 100, 20, 20), (110, 100, 20, 20)))
        emitted = step_rows(tracker, 3, batch([
            cand(PADDED, (110, 100, 20, 20), (400, 400, 20, 20), 0.9),
        ]))
        assert [r.track_id for r in emitted[3]] == [2]
        assert tracker.lost.tolist() == [1]

    def test_zero_assoc_slots_all_new(self):
        tracker = Tracker()
        emitted = step_rows(tracker, 2, batch([
            cand(PADDED, (10, 10, 5, 5), (12, 10, 5, 5), 0.9),
        ]))
        assert len(tracker.activated) == 1
        assert [r.box for r in emitted[1]] == [BBox(10, 10, 5, 5)]
        assert [r.box for r in emitted[2]] == [BBox(12, 10, 5, 5)]


class TestAssociate:
    def test_exact_overlap_matches(self):
        matches, un_t, un_b = associate(
            boxes((100, 100, 20, 20)), boxes((100, 100, 20, 20)), 0.3
        )
        assert matches.tolist() == [[0, 0]]
        assert un_t.tolist() == [] and un_b.tolist() == []

    def test_no_overlap_no_match(self):
        matches, un_t, un_b = associate(
            boxes((100, 100, 20, 20)), boxes((500, 500, 20, 20)), 0.3
        )
        assert matches.tolist() == [] and un_t.tolist() == [0]
        assert un_b.tolist() == [0]

    def test_zero_threshold_never_matches_disjoint(self):
        matches, un_t, un_b = associate(
            boxes((20, 20, 10, 10)), boxes((80, 80, 10, 10)), 0.0
        )
        assert matches.tolist() == [] and un_t.tolist() == [0]
        assert un_b.tolist() == [0]

    def test_crossed_overlaps_maximize_total(self):
        tracks = boxes((100, 100, 20, 20), (112, 100, 20, 20))
        dets = boxes((104, 100, 20, 20), (114, 100, 20, 20))
        matches, _, _ = associate(tracks, dets, 0.1)
        fit = iou_matrix(tracks, dets)
        straight = fit[0, 0] + fit[1, 1]
        crossed = fit[0, 1] + fit[1, 0]
        expected = {(0, 0), (1, 1)} if straight >= crossed else {(0, 1), (1, 0)}
        assert set(map(tuple, matches.tolist())) == expected

    def test_empty_inputs(self):
        out = associate(np.zeros((0, 4)), np.zeros((0, 4)), 0.3)
        assert [a.tolist() for a in out] == [[], [], []]


def step_rows(tracker, frame, rows):
    """Step the tracker; its emitted rows per frame, as ``ResultRow``s."""
    prev, cur = tracker.step(frame, rows)
    result = TrackingResult()
    result.add(frame - 1, prev)
    result.add(frame, cur)
    return result.frames


class TestTrackerStep:
    def test_empty_candidates_tracks_become_lost(self):
        tracker = Tracker()
        tracker.step(2, batch([cand(PADDED, (100, 100, 20, 20),
                                    (110, 100, 20, 20), 0.9)]))
        prev, cur = tracker.step(3, batch([]))
        assert prev.ids.tolist() == cur.ids.tolist() == []
        assert prev.boxes.shape == cur.boxes.shape == (0, 4)
        assert tracker.activated.tolist() == []
        assert len(tracker.lost) == 1

    def test_emitted_rows_outlive_later_steps(self):
        # The table's arrays are updated in place; a step's rows must not be
        # views of them.
        tracker = Tracker()
        tracker.step(2, batch([cand(PADDED, (100, 100, 20, 20),
                                    (110, 100, 20, 20), 0.9)]))
        _, cur = tracker.step(3, batch([cand(PRIOR, (110, 100, 20, 20),
                                             (120, 100, 20, 20), 0.9)]))
        before = [a.copy() for a in cur]
        tracker.step(4, batch([]))
        tracker.step(5, batch([cand(PADDED, (140, 100, 20, 20),
                                    (150, 100, 20, 20), 0.8)]))
        assert all(np.array_equal(a, b) for a, b in zip(cur, before))

    def test_steady_object_keeps_one_id(self):
        tracker = Tracker()
        boxes = [(100 + 10 * k, 100, 20, 20) for k in range(6)]
        ids = set()
        for k in range(1, 6):
            origin = PADDED if k == 1 else PRIOR
            emitted = tracker.step(
                k + 1,
                batch([cand(origin, boxes[k - 1], boxes[k], 0.9)]),
            )
            for rows in emitted:
                ids |= set(rows.ids.tolist())
        assert ids == {1}

    def test_monotone_frame_required(self):
        tracker = Tracker()
        tracker.step(2, batch([]))
        with pytest.raises(ValueError):
            tracker.step(2, batch([]))

    def test_ids_monotone_increasing(self):
        tracker = Tracker()
        tracker.step(
            2,
            batch([
                cand(PADDED, (100, 100, 20, 20), (100, 100, 20, 20), 0.9),
                cand(PADDED, (300, 300, 20, 20), (300, 300, 20, 20), 0.9),
            ]),
        )
        first_ids = set(tracker.activated.tolist())
        tracker.step(
            3,
            batch([cand(PADDED, (600, 600, 20, 20), (600, 600, 20, 20), 0.9)]),
        )
        new_ids = set(tracker.activated.tolist()) - first_ids
        assert all(n > max(first_ids) for n in new_ids)

    def test_state_partition(self):
        tracker = Tracker()
        tracker.step(2, batch([cand(PADDED, (100, 100, 20, 20),
                                    (110, 100, 20, 20), 0.9)]))
        tracker.step(3, batch([]))
        act = set(tracker.activated.tolist())
        lost = set(tracker.lost.tolist())
        assert act.isdisjoint(lost)

    def test_no_duplicate_ids_per_frame(self):
        tracker = Tracker()
        all_rows = {}
        rng = np.random.default_rng(0)
        for k in range(2, 8):
            cands = [
                cand(PADDED, tuple(rng.uniform(50, 900, 2)) + (20, 20),
                     tuple(rng.uniform(50, 900, 2)) + (20, 20), 0.9)
                for i in range(3)
            ]
            for frame, rows in zip((k - 1, k), tracker.step(k, batch(cands))):
                all_rows.setdefault(frame, []).extend(rows.ids.tolist())
        for frame, ids in all_rows.items():
            assert len(ids) == len(set(ids)), frame

    def test_unmatched_association_row_starts_track(self):
        # A prior-derived row with no track to continue (the first pair of a
        # detection stream) is still a sighting and starts a track.
        tracker = Tracker()
        emitted = step_rows(tracker, 2, batch([
            cand(PRIOR, (100, 100, 20, 20), (110, 100, 20, 20), 0.9),
        ]))
        assert len(tracker.activated) == 1
        assert [r.box for r in emitted[1]] == [BBox(100, 100, 20, 20)]
        assert [r.box for r in emitted[2]] == [BBox(110, 100, 20, 20)]
        assert emitted[1][0].track_id == emitted[2][0].track_id


# Survivor runs on a small lattice. A row often continues a box of the
# previous step's rows, moved a little or not at all, so tracks advance,
# go unmatched, get lost and are resumed; sizes may be zero, as clamped
# denoiser output can be.
_coord = st.integers(0, 5).map(lambda v: 20.0 * v)
_size = st.sampled_from([0.0, 20.0, 40.0])
_box = st.tuples(_coord, _coord, _size, _size)
_shift = st.sampled_from([-10.0, 0.0, 10.0])


@st.composite
def _survivor_runs(draw):
    frame, last_curs, steps = 1, [], []
    for _ in range(draw(st.integers(1, 12))):
        frame += draw(st.integers(1, 2))
        rows = []
        for _ in range(draw(st.integers(0, 6))):
            if last_curs and draw(st.integers(0, 3)):
                prev = draw(st.sampled_from(last_curs))
            else:
                prev = draw(_box)
            if draw(st.booleans()):
                cur = (prev[0] + draw(_shift), prev[1] + draw(_shift)) + prev[2:]
            else:
                cur = draw(_box)
            origin = draw(st.sampled_from([PRIOR, PADDED]))
            rows.append(cand(origin, prev, cur, draw(st.sampled_from([0.5, 0.9]))))
        last_curs = [tuple(pair[4:]) for _, pair, _ in rows] or last_curs
        steps.append((frame, rows))
    return steps


class TestStepProperties:
    @given(steps=_survivor_runs())
    @settings(max_examples=100, deadline=None)
    # A track left unmatched by association and resumed by a discovery in
    # the same pair; a zero-height track predicted forward unmatched.
    @example(steps=[
        (2, [cand(PADDED, (20, 20, 20, 20), (30, 20, 20, 20), 0.9)]),
        (3, [cand(PADDED, (30, 20, 20, 20), (40, 20, 20, 20), 0.9)]),
    ])
    @example(steps=[
        (2, [cand(PADDED, (40, 40, 20, 0), (40, 40, 20, 0), 0.9)]),
        (3, [cand(PADDED, (80, 80, 20, 20), (80, 80, 20, 20), 0.9)]),
    ])
    def test_lifecycle_invariants(self, steps):
        tracker = Tracker()
        ids_at: dict[int, list[int]] = {}
        for frame, rows in steps:
            for f, out in zip((frame - 1, frame), tracker.step(frame, batch(rows))):
                ids_at.setdefault(f, []).extend(out.ids.tolist())
                assert np.isfinite(out.boxes).all()
                assert np.isfinite(out.scores).all()
            # Lost tracks' predicted boxes are never emitted, but they are
            # matched against later discoveries.
            assert np.isfinite(tracker._tracks.boxes).all()
            active = tracker.activated.tolist()
            lost = tracker.lost.tolist()
            assert set(active).isdisjoint(lost)
            assert len(set(active)) == len(active)
        for f, ids in ids_at.items():
            assert len(ids) == len(set(ids)), f

    @given(steps=_survivor_runs())
    @settings(max_examples=50, deadline=None)
    def test_state_sizes_match_emitted_rows(self, steps):
        # perfbench's tracing hook reports len(tracker.activated) and
        # len(tracker.lost) after each step as the active and lost counts.
        tracker = Tracker()
        for frame, rows in steps:
            _, cur = tracker.step(frame, batch(rows))
            assert len(tracker.activated) == len(cur.ids)
            n_lost = len(tracker.lost)
            assert isinstance(n_lost, int)
            assert n_lost == len(set(tracker.lost.tolist()))
            assert set(tracker.lost.tolist()).isdisjoint(tracker.activated.tolist())

    @given(steps=_survivor_runs(), back=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_frame_must_increase(self, steps, back):
        tracker = Tracker()
        for frame, rows in steps:
            tracker.step(frame, batch(rows))
        with pytest.raises(ValueError):
            tracker.step(frame - back, batch(rows))


class TestHandTracedScenario:
    """Scripted four-pair run whose outcome is traced by hand.

    Two objects from the start; an under-threshold newcomer is rejected;
    object A goes unseen for two frame pairs, then reappears at its
    constant-velocity position and must resume its id. (A padded duplicate
    of A never reaches the tracker: ``pipeline._gate_and_suppress`` removes
    it, see ``tests/test_pipeline.py``.)
    """

    def test_full_trace(self):
        tracker = Tracker()

        # pair (1,2): bootstrap, both objects discovered
        emitted = step_rows(
            tracker, 2,
            batch([
                cand(PADDED, (100, 100, 20, 20), (110, 100, 20, 20), 0.9),
                cand(PADDED, (300, 300, 20, 20), (300, 310, 20, 20), 0.85),
            ]),
        )
        assert {r.track_id for r in emitted[1]} == {1, 2}
        assert {r.track_id for r in emitted[2]} == {1, 2}
        by_id = {r.track_id: r.box for r in emitted[2]}
        assert by_id[1] == BBox(110, 100, 20, 20)
        assert by_id[2] == BBox(300, 310, 20, 20)

        # pair (2,3): both advance; a weak newcomer arrives in a padded row
        # and is rejected.
        emitted = step_rows(
            tracker, 3,
            batch([
                cand(PRIOR, (110, 100, 20, 20), (120, 100, 20, 20), 0.9),
                cand(PRIOR, (300, 310, 20, 20), (300, 320, 20, 20), 0.85),
                cand(PADDED, (500, 500, 20, 20), (500, 500, 20, 20), 0.65),
            ]),
        )
        assert sorted(r.track_id for r in emitted[3]) == [1, 2]
        assert len(tracker.activated) == 2  # weak one gated

        # pair (3,4): A occluded; B advances; A transitions to lost
        emitted = step_rows(
            tracker, 4,
            batch([cand(PRIOR, (300, 320, 20, 20), (300, 330, 20, 20), 0.85)]),
        )
        assert [r.track_id for r in emitted[4]] == [2]
        assert tracker.lost.tolist() == [1]

        # pair (4,5): A still occluded
        emitted = step_rows(
            tracker, 5,
            batch([cand(PRIOR, (300, 330, 20, 20), (300, 340, 20, 20), 0.85)]),
        )
        assert [r.track_id for r in emitted[5]] == [2]

        # pair (5,6): A reappears exactly where constant velocity predicts
        # (x moved +10 per frame: 120 @3 -> 150 @6); id 1 must resume,
        # including the gap-filling frame-5 row.
        emitted = step_rows(
            tracker, 6,
            batch([
                cand(PRIOR, (300, 340, 20, 20), (300, 350, 20, 20), 0.85),
                cand(PADDED, (140, 100, 20, 20), (150, 100, 20, 20), 0.8),
            ]),
        )
        assert sorted(r.track_id for r in emitted[6]) == [1, 2]
        assert [r.track_id for r in emitted[5]] == [1]
        assert emitted[5][0].box == BBox(140, 100, 20, 20)
        assert tracker.lost.tolist() == []
        assert set(tracker.activated.tolist()) == {1, 2}


class TestGreedyReference:
    def test_tracks_steady_objects(self):
        g = GreedyIoUTracker()
        ids = set()
        for k in range(1, 6):
            rows = g.update(
                k,
                np.array([
                    [100 + 5 * k, 100, 20, 20, 0.9],
                    [300, 300 + 5 * k, 20, 20, 0.8],
                ]),
            )
            ids |= set(rows.ids.tolist())
            assert len(rows.ids) == 2
        assert ids == {1, 2}

    def test_new_id_after_jump(self):
        g = GreedyIoUTracker(TrackerConfig(max_lost_age=0))
        first = g.update(1, np.array([[100.0, 100, 20, 20, 0.9]]))
        g.update(2, np.zeros((0, 5)))
        second = g.update(3, np.array([[100.0, 100, 20, 20, 0.9]]))
        assert second.ids[0] != first.ids[0]

    def test_visits_by_descending_confidence_ties_in_input_order(self):
        dets = np.array([[100.0 * k, 100, 20, 20, c]
                         for k, c in enumerate([0.5, 0.9, 0.5, 0.7], start=1)])
        rows = GreedyIoUTracker().update(1, dets)
        assert rows.boxes[:, 0].tolist() == [200.0, 400.0, 100.0, 300.0]
        assert rows.scores.tolist() == [0.9, 0.7, 0.5, 0.5]

    def test_equal_overlap_goes_to_later_track(self):
        g = GreedyIoUTracker()
        g.update(1, np.array([[100.0, 100, 20, 20, 0.9], [120.0, 100, 20, 20, 0.8]]))
        # Midway between the two tracks: overlap 1/3 with each, bit for bit.
        det = np.array([[110.0, 100, 20, 20, 0.9]])
        fit = iou_matrix(det[:, :4], boxes((100, 100, 20, 20), (120, 100, 20, 20)))
        assert fit[0, 0] == fit[0, 1] == pytest.approx(1 / 3, abs=1e-12)
        assert g.update(2, det).ids.tolist() == [2]

    def test_overlap_at_threshold_claims(self):
        # Corners (0,0,20,20) and (0,0,20,14): overlap 280/400 = 0.7 exactly.
        first = np.array([[10.0, 10, 20, 20, 0.9]])
        second = np.array([[10.0, 7, 20, 14, 0.9]])
        assert iou_matrix(first[:, :4], second[:, :4])[0, 0] == 0.7
        at = GreedyIoUTracker(TrackerConfig(iou_match_threshold=0.7))
        above = GreedyIoUTracker(
            TrackerConfig(iou_match_threshold=float(np.nextafter(0.7, 1.0))))
        for g in (at, above):
            g.update(1, first)
        assert at.update(2, second).ids.tolist() == [1]
        assert above.update(2, second).ids.tolist() == [2]

    def test_zero_threshold_never_claims_a_disjoint_track(self):
        g = GreedyIoUTracker(TrackerConfig(iou_match_threshold=0.0))
        assert g.update(1, np.array([[20.0, 20, 10, 10, 0.9]])).ids.tolist() == [1]
        assert g.update(2, np.array([[80.0, 80, 10, 10, 0.9]])).ids.tolist() == [2]

    def test_track_born_this_frame_not_claimed(self):
        g = GreedyIoUTracker()
        g.update(1, np.array([[500.0, 500, 20, 20, 0.9]]))
        rows = g.update(2, np.array([[100.0, 100, 20, 20, 0.9],
                                     [100.0, 100, 20, 20, 0.8]]))
        assert rows.ids.tolist() == [2, 3]
