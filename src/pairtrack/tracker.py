"""Track lifecycle: routing, association, duplicate filtering, Kalman
reassociation of lost tracks, initialization and identity bookkeeping.

Candidates arrive per frame pair as the rows of a ``CandidateBatch`` that
the pipeline's gates and suppression let through, each marked with the
origin of its proposal row. Prior-derived rows form an aligned
(previous box, current box) array that advances existing tracks; padded
rows surface new objects and feed lost-track reassociation. A
prior-derived row that continues no track is a sighting all the same and
joins the padded rows, as a confident unmatched box starts a track in
ByteTrack. Rows stay arrays through association; a ``BBox`` is built only
where a track is advanced, resumed or started, since each emits a result
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .denoiser import CandidateBatch, ProposalOrigin
from .geometry import BBox, PairedBox, iou, iou_matrix

__all__ = [
    "TrackerConfig",
    "TrackStatus",
    "Track",
    "Tracker",
    "TrackingResult",
    "ResultRow",
    "KalmanBoxFilter",
    "associate",
    "filter_duplicates",
    "GreedyIoUTracker",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Thresholds and limits of the lifecycle algorithm.

    ``init_score_threshold`` gates new tracks and defaults to the
    detection score threshold.
    """

    conf_threshold: float = 0.25
    det_threshold: float = 0.7
    nms3d_threshold: float = 0.6
    nms2d_threshold: float = 0.7
    init_score_threshold: float = 0.7
    iou_match_threshold: float = 0.3
    max_lost_age: int = 30

    def __post_init__(self):
        for name in ("conf_threshold", "det_threshold", "nms3d_threshold",
                     "nms2d_threshold", "init_score_threshold",
                     "iou_match_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.max_lost_age < 0:
            raise ValueError(f"max_lost_age must be >= 0, got {self.max_lost_age!r}")


class TrackStatus(Enum):
    ACTIVATED = "activated"
    LOST = "lost"


class KalmanBoxFilter:
    """Constant-velocity filter on (cx, cy, aspect, height) and velocities."""

    def __init__(self):
        ndim = 4
        self.motion_mat = np.eye(2 * ndim)
        for i in range(ndim):
            self.motion_mat[i, ndim + i] = 1.0
        self.update_mat = np.eye(ndim, 2 * ndim)
        self.std_weight_position = 1.0 / 20
        self.std_weight_velocity = 1.0 / 160

    def initiate(self, measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = np.zeros(8)
        mean[:4] = measurement
        h = measurement[3]
        std = [
            2 * self.std_weight_position * h,
            2 * self.std_weight_position * h,
            1e-2,
            2 * self.std_weight_position * h,
            10 * self.std_weight_velocity * h,
            10 * self.std_weight_velocity * h,
            1e-5,
            10 * self.std_weight_velocity * h,
        ]
        return mean, np.diag(np.square(std))

    def predict(self, mean: np.ndarray, cov: np.ndarray):
        h = mean[3]
        std = [
            self.std_weight_position * h,
            self.std_weight_position * h,
            1e-2,
            self.std_weight_position * h,
            self.std_weight_velocity * h,
            self.std_weight_velocity * h,
            1e-5,
            self.std_weight_velocity * h,
        ]
        motion_cov = np.diag(np.square(std))
        mean = self.motion_mat @ mean
        cov = self.motion_mat @ cov @ self.motion_mat.T + motion_cov
        return mean, cov

    def update(self, mean: np.ndarray, cov: np.ndarray, measurement: np.ndarray):
        h = mean[3]
        std = [
            self.std_weight_position * h,
            self.std_weight_position * h,
            1e-1,
            self.std_weight_position * h,
        ]
        innovation_cov = np.diag(np.square(std))
        projected_mean = self.update_mat @ mean
        projected_cov = self.update_mat @ cov @ self.update_mat.T + innovation_cov
        gain = np.linalg.solve(
            projected_cov.T, (cov @ self.update_mat.T).T
        ).T
        innovation = measurement - projected_mean
        mean = mean + gain @ innovation
        cov = cov - gain @ projected_cov @ gain.T
        return mean, cov


def _box_to_xyah(box: BBox) -> np.ndarray:
    h = box.h if box.h > 1e-6 else 1e-6
    return np.array([box.cx, box.cy, box.w / h, h])


def _xyah_to_box(state: np.ndarray) -> BBox:
    cx, cy, a, h = state[:4]
    return BBox(float(cx), float(cy), float(a * h), float(h))


_SHARED_KALMAN = KalmanBoxFilter()


@dataclass(eq=False)
class Track:
    """One identity with its motion state and per-frame box history."""

    track_id: int
    status: TrackStatus
    last_box: BBox
    score: float
    mean: np.ndarray
    covariance: np.ndarray
    history: list[tuple[int, BBox]] = field(default_factory=list)
    lost_age: int = 0

    @classmethod
    def start(cls, track_id: int, frame: int, pair_prev: BBox, pair_cur: BBox,
              score: float) -> "Track":
        mean, cov = _SHARED_KALMAN.initiate(_box_to_xyah(pair_cur))
        # The pair is two sightings of the object; seed the velocity from it.
        mean[4] = pair_cur.cx - pair_prev.cx
        mean[5] = pair_cur.cy - pair_prev.cy
        return cls(
            track_id=track_id,
            status=TrackStatus.ACTIVATED,
            last_box=pair_cur,
            score=score,
            mean=mean,
            covariance=cov,
            history=[(frame - 1, pair_prev), (frame, pair_cur)],
        )

    def advance(self, frame: int, box: BBox, score: float) -> None:
        self.mean, self.covariance = _SHARED_KALMAN.predict(self.mean, self.covariance)
        self.mean, self.covariance = _SHARED_KALMAN.update(
            self.mean, self.covariance, _box_to_xyah(box)
        )
        self.last_box = box
        self.score = score
        self.status = TrackStatus.ACTIVATED
        self.lost_age = 0
        self.history.append((frame, box))

    def reactivate(self, frame: int, pair_prev: BBox, pair_cur: BBox,
                   score: float) -> list[tuple[int, BBox]]:
        """Resume a lost track from a rediscovered pair.

        Returns the history rows added, including the gap-filling previous
        frame sighting when the track has no entry there yet.
        """
        added = []
        if not self.history or self.history[-1][0] < frame - 1:
            self.history.append((frame - 1, pair_prev))
            added.append((frame - 1, pair_prev))
        self.mean, self.covariance = _SHARED_KALMAN.update(
            self.mean, self.covariance, _box_to_xyah(pair_cur)
        )
        self.last_box = pair_cur
        self.score = score
        self.status = TrackStatus.ACTIVATED
        self.lost_age = 0
        self.history.append((frame, pair_cur))
        added.append((frame, pair_cur))
        return added

    def mark_lost(self) -> None:
        self.status = TrackStatus.LOST
        self.lost_age = max(self.lost_age, 1)

    def predict(self) -> None:
        """Propagate the constant-velocity state one frame ahead."""
        self.mean, self.covariance = _SHARED_KALMAN.predict(self.mean, self.covariance)
        self.last_box = _xyah_to_box(self.mean)


@dataclass
class ResultRow:
    track_id: int
    box: BBox
    score: float


@dataclass
class TrackingResult:
    """Per-frame identity-labeled output boxes."""

    frames: dict[int, list[ResultRow]] = field(default_factory=dict)

    def add(self, frame: int, row: ResultRow) -> None:
        self.frames.setdefault(frame, []).append(row)


def associate(
    tracks: Sequence[Track], boxes: np.ndarray, iou_threshold: float
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Hungarian matching of tracks to (m, 4) boxes on IoU, gated at the
    threshold.

    Returns (matches as (track_idx, box_idx) pairs, unmatched track
    indices, unmatched box indices).
    """
    if not tracks or not len(boxes):
        return [], list(range(len(tracks))), list(range(len(boxes)))
    track_arr = np.stack([t.last_box.as_array() for t in tracks])
    overlaps = iou_matrix(track_arr, boxes)
    rows, cols = linear_sum_assignment(1.0 - overlaps)
    matches, un_t, un_b = [], set(range(len(tracks))), set(range(len(boxes)))
    for r, c in zip(rows, cols):
        if overlaps[r, c] >= iou_threshold:
            matches.append((int(r), int(c)))
            un_t.discard(int(r))
            un_b.discard(int(c))
    return matches, sorted(un_t), sorted(un_b)


def filter_duplicates(
    new_cur: np.ndarray, assoc_cur: np.ndarray, nms2d_threshold: float
) -> np.ndarray:
    """Keep mask over discoveries' current (k, 4) boxes: False where one
    duplicates an association row's current box.

    Removal requires overlap strictly above the threshold; a discovery
    sitting exactly at it survives.
    """
    if not len(new_cur) or not len(assoc_cur):
        return np.ones(len(new_cur), dtype=bool)
    return iou_matrix(new_cur, assoc_cur).max(axis=1) <= nms2d_threshold


class Tracker:
    """Single-owner stateful lifecycle machine; one step call per frame."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.activated: list[Track] = []
        self.lost: list[Track] = []
        self.last_frame: int | None = None
        self._next_id = 1

    def prior_boxes(self) -> list[BBox]:
        """Current-frame boxes of the activated tracks, for proposal reuse."""
        return [t.last_box for t in self.activated]

    def step(
        self, frame: int, batch: CandidateBatch
    ) -> list[tuple[int, ResultRow]]:
        """Process the candidate rows of the frame pair (frame - 1, frame).

        Prior-derived rows advance the activated tracks whose boxes their
        previous-frame members match. Those that match none join the padded
        discoveries, ahead of them, to resume lost tracks or start new ones.

        Returns (frame, row) tuples: one row per activated track at this
        frame, plus retroactive previous-frame rows for tracks born or
        resumed from a pair whose earlier sighting was not yet recorded.
        """
        cfg = self.cfg
        if self.last_frame is not None and frame <= self.last_frame:
            raise ValueError(f"frame {frame} not after {self.last_frame}")
        self.last_frame = frame

        pairs = batch.pairs
        prior = batch.origin == ProposalOrigin.PRIOR
        assoc_rows = np.flatnonzero(prior)
        new_rows = np.flatnonzero(~prior)

        # Association of activated tracks against the previous-frame boxes.
        matches, un_tracks, un_rows = associate(
            self.activated, pairs[assoc_rows, :4], cfg.iou_match_threshold
        )
        emitted: list[tuple[int, ResultRow]] = []
        for ti, ri in matches:
            row = assoc_rows[ri]
            self.activated[ti].advance(
                frame, BBox(*pairs[row, 4:]), float(batch.assoc[row])
            )
        act_remain = [self.activated[i] for i in un_tracks]

        keep = filter_duplicates(
            pairs[new_rows, 4:], pairs[assoc_rows, 4:], cfg.nms2d_threshold
        )
        d_new = np.concatenate([assoc_rows[un_rows], new_rows[keep]])

        # Roll every unmatched track's motion state to this frame, then let
        # them reclaim discoveries at the predicted spots. Tracks that went
        # unmatched just now take part too: their object may simply have
        # surfaced through a padded row, or moved off its prior, this frame.
        pool = self.lost + act_remain
        for t in pool:
            t.predict()
        lost_matches, un_pool, un_new = associate(
            pool, pairs[d_new, 4:], cfg.iou_match_threshold
        )
        reactivated: list[Track] = []
        for ti, ri in lost_matches:
            row = d_new[ri]
            pair = PairedBox.from_flat(pairs[row])
            track = pool[ti]
            added = track.reactivate(
                frame, pair.prev, pair.cur, float(batch.assoc[row])
            )
            for f, box in added[:-1]:
                emitted.append((f, ResultRow(track.track_id, box, track.score)))
            reactivated.append(track)
        pool_remain = [pool[i] for i in un_pool]

        # Reconcile the two state sets, with age and retirement bookkeeping.
        kept = [t for t in self.activated if t not in act_remain]
        self.activated = kept + reactivated
        for t in pool_remain:
            if t.status is TrackStatus.LOST:
                t.lost_age += 1
            else:
                t.mark_lost()
        self.lost = [t for t in pool_remain if t.lost_age <= cfg.max_lost_age]

        # Initialize new tracks from the remaining discoveries.
        for row in d_new[un_new]:
            score = float(batch.assoc[row])
            if score > cfg.init_score_threshold:
                pair = PairedBox.from_flat(pairs[row])
                track = Track.start(self._next_id, frame, pair.prev, pair.cur, score)
                self._next_id += 1
                self.activated.append(track)
                emitted.append(
                    (frame - 1, ResultRow(track.track_id, pair.prev, score))
                )

        for t in self.activated:
            emitted.append((frame, ResultRow(t.track_id, t.last_box, t.score)))
        return emitted


class GreedyIoUTracker:
    """Plain greedy IoU tracker over per-frame detections (reference only).

    Each detection, in descending score order, claims the unmatched track
    with the highest overlap above the threshold; leftovers become new
    tracks. Exists to contrast robustness against the diffusion pipeline.
    """

    def __init__(self, iou_threshold: float = 0.3, max_lost_age: int = 30):
        self.iou_threshold = iou_threshold
        self.max_lost_age = max_lost_age
        self._tracks: list[dict] = []
        self._next_id = 1

    def update(self, frame: int, detections: Sequence[tuple[BBox, float]]
               ) -> list[ResultRow]:
        order = sorted(
            range(len(detections)), key=lambda i: -detections[i][1]
        )
        free = {id(t) for t in self._tracks}
        rows: list[ResultRow] = []
        for di in order:
            box, score = detections[di]
            best, best_iou = None, self.iou_threshold
            for t in self._tracks:
                if id(t) not in free:
                    continue
                overlap = iou(t["box"], box)
                if overlap >= best_iou:
                    best, best_iou = t, overlap
            if best is not None:
                free.discard(id(best))
                best.update(box=box, age=0, score=score)
            else:
                best = {"id": self._next_id, "box": box, "age": 0, "score": score}
                self._next_id += 1
                self._tracks.append(best)
            rows.append(ResultRow(best["id"], box, score))
        for t in self._tracks:
            if id(t) in free:
                t["age"] += 1
        self._tracks = [t for t in self._tracks if t["age"] <= self.max_lost_age]
        return rows

