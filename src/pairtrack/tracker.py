"""Track lifecycle: routing, association, Kalman reassociation of lost
tracks, initialization and identity bookkeeping.

Candidates arrive per frame pair as the rows of a ``CandidateBatch`` that
the pipeline's gates and suppression let through, each marked with the
origin of its proposal row. Only the pipeline's gate reads
``nms2d_threshold``: it leaves no two rows whose current boxes overlap by
more than that, and the tracker filters no duplicates of its own.
Prior-derived rows form an aligned (previous box, current box) array that
advances existing tracks; padded rows surface new objects and feed
lost-track reassociation. A prior-derived row that continues no track is
a sighting all the same and joins the padded rows, as a confident
unmatched box starts a track in ByteTrack.

The tracker's state is one table of arrays with a row per track: id,
Kalman mean (8,) and covariance, last box, score, lost age and the last
frame a row was emitted for. The covariance is kept as its four 2x2
(position, velocity) blocks, one per coordinate, in a (4, 4) row: the
other entries of the 8x8 matrix stay zero. Activated rows come first and
have lost age 0; lost rows follow. The constant-velocity Kalman filter
runs on stacks of rows, as ByteTrack's ``multi_predict`` does: each step
predicts every track at once and updates every matched track at once,
with elementwise arithmetic and no matrix products or solves. A step emits
its result rows as arrays (``FrameRows``), and ``TrackingResult`` keeps
one such table per frame; ``prior_boxes`` hands on a slice of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .denoiser import CandidateBatch, ProposalOrigin
from .geometry import iou_matrix
from .matching import linear_sum_assignment

__all__ = [
    "TrackerConfig",
    "Tracker",
    "TrackingResult",
    "FrameRows",
    "ResultRow",
    "BBox",
    "kalman_initiate",
    "kalman_predict",
    "kalman_update",
    "associate",
    "GreedyIoUTracker",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Thresholds of the candidate gates and of the track lifecycle.

    ``pipeline._gate_and_suppress`` reads ``conf_threshold`` (the
    association-score gate), ``nms3d_threshold`` (paired suppression),
    ``nms2d_threshold`` (per-frame suppression) and ``det_threshold`` (the
    detection gate on both pair members); only the gate reads
    ``nms2d_threshold``. ``Tracker.step`` reads ``iou_match_threshold``
    (both association rounds), ``init_score_threshold`` (new tracks; it
    defaults to the detection threshold) and ``max_lost_age`` (retirement
    of lost tracks).
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


# Constant-velocity Kalman filter on (cx, cy, aspect, height) and their
# velocities, over stacks of tracks. Each coordinate moves and is measured
# on its own, so a track's 8x8 covariance holds only the four 2x2 (position,
# velocity) blocks of its coordinates: covariances are (k, 4, 4), with the
# pp, pv, vp and vv entries along axis 1 and the coordinates along axis 2.
# The steps repeat the 8x8 filter's non-zero arithmetic in its order, so
# they give its means and covariances bit for bit.
_POS, _VEL = 1.0 / 20, 1.0 / 160


def _noise_var(h: np.ndarray, per_height: float, aspect: float) -> np.ndarray:
    """Variances (k, 4) of noise with standard deviation ``h * per_height``
    on each coordinate but the aspect ratio, which takes ``aspect``."""
    std = np.repeat((h * per_height)[:, None], 4, axis=1)
    std[:, 2] = aspect
    return np.square(std)


def kalman_initiate(meas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States of new tracks at rest from (k, 4) xyah measurements."""
    means = np.zeros((len(meas), 8))
    means[:, :4] = meas
    covs = np.zeros((len(meas), 4, 4))
    covs[:, 0] = _noise_var(meas[:, 3], 2 * _POS, 1e-2)
    covs[:, 3] = _noise_var(meas[:, 3], 10 * _VEL, 1e-5)
    return means, covs


def kalman_predict(
    means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate every state one frame ahead: F P F^T plus the motion noise,
    F adding each velocity to its position."""
    pos, vel, h = means[:, :4], means[:, 4:], means[:, 3]
    pp, pv, vp, vv = covs.swapaxes(0, 1)
    covs = np.stack([(pp + vp) + (pv + vv) + _noise_var(h, _POS, 1e-2),
                     pv + vv, vp + vv, vv + _noise_var(h, _VEL, 1e-5)], axis=1)
    return np.concatenate([pos + vel, vel], axis=1), covs


def kalman_update(
    means: np.ndarray, covs: np.ndarray, meas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Correct every state with its row of the (k, 4) xyah measurements,
    which observe the positions.

    The innovation covariance is diagonal, so the gain is each
    coordinate's (pp, vp) column times the reciprocal of its innovation
    variance, as LAPACK's solve computes it for a diagonal system.
    """
    pp, pv, vp, vv = covs.swapaxes(0, 1)
    s = pp + _noise_var(means[:, 3], _POS, 1e-1)
    inv = 1.0 / s
    gain_p, gain_v = pp * inv, vp * inv
    innovation = meas - means[:, :4]
    means = np.concatenate([means[:, :4] + gain_p * innovation,
                            means[:, 4:] + gain_v * innovation], axis=1)
    gs_p, gs_v = gain_p * s, gain_v * s
    covs = np.stack([pp - gs_p * gain_p, pv - gs_p * gain_v,
                     vp - gs_v * gain_p, vv - gs_v * gain_v], axis=1)
    return means, covs


def _xyah(boxes: np.ndarray) -> np.ndarray:
    """(k, 4) center-form boxes as measurements (cx, cy, w / h, h), the
    height floored at 1e-6."""
    h = np.where(boxes[:, 3] > 1e-6, boxes[:, 3], 1e-6)
    return np.column_stack([boxes[:, 0], boxes[:, 1], boxes[:, 2] / h, h])


def _state_boxes(means: np.ndarray) -> np.ndarray:
    """Center-form (k, 4) boxes of the states' positions."""
    return np.column_stack(
        [means[:, 0], means[:, 1], means[:, 2] * means[:, 3], means[:, 3]]
    )


@dataclass
class _Tracks:
    """The track table: row i of every column belongs to one track.

    ``covs[i]`` holds track i's covariance blocks: rows pp, pv, vp and vv,
    columns cx, cy, aspect and height.
    """

    ids: np.ndarray       # (k,)
    means: np.ndarray     # (k, 8)
    covs: np.ndarray      # (k, 4, 4) covariance blocks
    boxes: np.ndarray     # (k, 4) emitted while activated, predicted while lost
    scores: np.ndarray    # (k,)
    lost_age: np.ndarray  # (k,) frames since lost; 0 while activated
    last_emitted: np.ndarray  # (k,) last frame a row was emitted for

    @classmethod
    def start(cls, first_id: int, frame: int, pairs: np.ndarray,
              scores: np.ndarray) -> "_Tracks":
        """Activated rows for new tracks from (k, 8) pairs."""
        k = len(pairs)
        means, covs = kalman_initiate(_xyah(pairs[:, 4:]))
        # The pair is two sightings of the object; seed the velocity from it.
        means[:, 4:6] = pairs[:, 4:6] - pairs[:, :2]
        return cls(np.arange(first_id, first_id + k), means, covs,
                   pairs[:, 4:], scores, np.zeros(k, dtype=int),
                   np.full(k, frame))

    def take(self, rows: np.ndarray) -> "_Tracks":
        return _Tracks(*(getattr(self, f.name)[rows] for f in fields(self)))

    def concat(self, other: "_Tracks") -> "_Tracks":
        return _Tracks(*(
            np.concatenate([getattr(self, f.name), getattr(other, f.name)])
            for f in fields(self)
        ))


class FrameRows(NamedTuple):
    """Result rows of one frame: ids (k,), center-form boxes (k, 4) and
    scores (k,)."""

    ids: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray


_NO_ROWS = FrameRows(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0))


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box with center (cx, cy), width w and height h, in
    pixels: the box of one ``ResultRow``."""

    cx: float
    cy: float
    w: float
    h: float


@dataclass(slots=True)
class ResultRow:
    """One result row as an object, for the ``TrackingResult.frames`` view."""

    track_id: int
    box: BBox
    score: float


class TrackingResult:
    """Per-frame identity-labeled output rows, kept as one ``FrameRows``
    table per frame.

    ``add`` concatenates a frame's new rows onto its table, so a frame's
    rows are the rows added for it, in the order they were added (the
    tracker emits each id at most once per frame). Frames appear in the
    order of their first non-empty ``add``. ``rows`` only looks a table up.
    """

    def __init__(self):
        self._rows: dict[int, FrameRows] = {}
        self._view: dict[int, list[ResultRow]] | None = None

    def add(self, frame: int, rows: FrameRows) -> None:
        """Append ``rows`` to the frame's rows; an empty set adds nothing."""
        if len(rows.ids):
            held = self._rows.get(frame)
            if held is not None:
                rows = FrameRows(*map(np.concatenate, zip(held, rows)))
            self._rows[frame] = rows
            self._view = None

    def frame_numbers(self):
        """The frames holding at least one row."""
        return self._rows.keys()

    def rows(self, frame: int) -> FrameRows:
        """The frame's table (empty when it has no rows)."""
        return self._rows.get(frame, _NO_ROWS)

    @property
    def frames(self) -> dict[int, list[ResultRow]]:
        """The rows as ``ResultRow`` objects per frame, for callers that
        read rows one at a time. Built on first read and kept until the
        next ``add``; edits to it do not reach the arrays."""
        if self._view is None:
            self._view = {f: _objects(rows) for f, rows in self._rows.items()}
        return self._view


def _objects(rows: FrameRows) -> list[ResultRow]:
    return [
        ResultRow(tid, BBox(*box), score)
        for tid, box, score in zip(
            rows.ids.tolist(), rows.boxes.tolist(), rows.scores.tolist()
        )
    ]


def associate(
    track_boxes: np.ndarray, boxes: np.ndarray, iou_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hungarian matching of (k, 4) track boxes to (m, 4) boxes on IoU,
    gated at the threshold.

    The assignment minimises the summed 1 - IoU with
    ``matching.linear_sum_assignment``; in most calls no two tracks share
    their nearest box, which takes its certified path. A matched pair is kept
    when its overlap is positive and at least the threshold, so boxes that
    do not overlap never match, even at a threshold of 0.

    Returns the matches as a (j, 2) array of (track index, box index) rows
    in ascending track order, then the unmatched track indices and the
    unmatched box indices, each ascending.
    """
    n, m = len(track_boxes), len(boxes)
    matches = np.zeros((0, 2), dtype=np.intp)
    if n and m:
        overlaps = iou_matrix(track_boxes, boxes)
        rows, cols = linear_sum_assignment(1.0 - overlaps)
        matched = overlaps[rows, cols]
        hit = (matched >= iou_threshold) & (matched > 0.0)
        matches = np.column_stack([rows[hit], cols[hit]])
    free_t = np.ones(n, dtype=bool)
    free_t[matches[:, 0]] = False
    free_b = np.ones(m, dtype=bool)
    free_b[matches[:, 1]] = False
    return matches, np.flatnonzero(free_t), np.flatnonzero(free_b)


class Tracker:
    """Single-owner stateful lifecycle machine; one step call per frame."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self._tracks = _Tracks.start(1, 0, np.zeros((0, 8)), np.zeros(0))  # empty
        self.last_frame: int | None = None
        self._next_id = 1

    @property
    def activated(self) -> np.ndarray:
        """Ids of the activated tracks, in lifecycle order."""
        return self._tracks.ids[self._tracks.lost_age == 0]

    @property
    def lost(self) -> np.ndarray:
        """Ids of the lost tracks, in lifecycle order."""
        return self._tracks.ids[self._tracks.lost_age > 0]

    def prior_boxes(self) -> np.ndarray:
        """Current-frame (k, 4) boxes of the activated tracks, for proposal
        reuse."""
        t = self._tracks
        return t.boxes[t.lost_age == 0]

    def step(
        self, frame: int, batch: CandidateBatch
    ) -> tuple[FrameRows, FrameRows]:
        """Process the candidate rows of the frame pair (frame - 1, frame).

        Prior-derived rows advance the activated tracks whose boxes their
        previous-frame members match. Those that match none join the padded
        discoveries, ahead of them, to resume lost tracks or start new ones.
        It relies on the rows' current boxes being suppressed at
        ``nms2d_threshold`` already, as ``pipeline._gate_and_suppress``
        leaves them: a padded row repeating another row is not dropped here.

        Returns the rows for frame - 1, then those for this frame. The
        previous-frame rows are retroactive ones for tracks born or resumed
        from a pair whose earlier sighting was not yet recorded; this frame
        gets one row per activated track, in lifecycle order.
        """
        cfg = self.cfg
        if self.last_frame is not None and frame <= self.last_frame:
            raise ValueError(f"frame {frame} not after {self.last_frame}")
        self.last_frame = frame

        pairs = batch.pairs
        prior = batch.origin == ProposalOrigin.PRIOR
        assoc_rows = np.flatnonzero(prior)
        new_rows = np.flatnonzero(~prior)
        tracks = self._tracks
        n_tracks = len(tracks.ids)
        n_act = int(np.count_nonzero(tracks.lost_age == 0))

        # Association of activated tracks against the previous-frame boxes.
        matches, un_act, un_rows = associate(
            tracks.boxes[:n_act], pairs[assoc_rows, :4], cfg.iou_match_threshold
        )
        d_new = np.concatenate([assoc_rows[un_rows], new_rows])

        # Roll every track's motion state to this frame. The unmatched ones
        # then reclaim discoveries at their predicted spots: the lost tracks,
        # and the activated tracks that went unmatched just now, since their
        # object may simply have surfaced through a padded row, or moved off
        # its prior, this frame.
        tracks.means, tracks.covs = kalman_predict(tracks.means, tracks.covs)
        pool = np.concatenate([np.arange(n_act, n_tracks), un_act])
        tracks.boxes[pool] = _state_boxes(tracks.means[pool])
        resumed, un_pool, un_new = associate(
            tracks.boxes[pool], pairs[d_new, 4:], cfg.iou_match_threshold
        )

        # One update for the advanced tracks, then the resumed ones; each
        # takes its row's current box and score.
        hit = np.concatenate([matches[:, 0], pool[resumed[:, 0]]])
        rows = np.concatenate([assoc_rows[matches[:, 1]], d_new[resumed[:, 1]]])
        tracks.means[hit], tracks.covs[hit] = kalman_update(
            tracks.means[hit], tracks.covs[hit], _xyah(pairs[rows, 4:])
        )
        tracks.boxes[hit] = pairs[rows, 4:]
        tracks.scores[hit] = batch.assoc[rows]
        # A resumed track with no row at the previous frame gets one there.
        gap = tracks.last_emitted[hit] < frame - 1
        gap[:len(matches)] = False
        tracks.last_emitted[hit] = frame
        tracks.lost_age[hit] = 0
        # Unmatched tracks age; those lost for too long retire.
        lost = pool[un_pool]
        tracks.lost_age[lost] += 1
        lost = lost[tracks.lost_age[lost] <= cfg.max_lost_age]

        # Initialize new tracks from the remaining discoveries.
        born = d_new[un_new]
        born = born[batch.assoc[born] > cfg.init_score_threshold]
        new = _Tracks.start(self._next_id, frame, pairs[born], batch.assoc[born])
        self._next_id += len(born)
        prev_rows = np.concatenate([rows[gap], born])
        prev_ids = np.concatenate([tracks.ids[hit[gap]], new.ids])

        # Advanced, resumed and born rows are the activated ones, in the order
        # ``prior_boxes`` hands them on as proposal priors; lost rows follow.
        order = np.concatenate([hit, n_tracks + np.arange(len(born)), lost])
        self._tracks = tracks = tracks.concat(new).take(order)
        act = slice(0, len(hit) + len(born))
        prev_out = FrameRows(prev_ids, pairs[prev_rows, :4], batch.assoc[prev_rows])
        # Copies: the next step updates the table's arrays in place.
        cur_out = FrameRows(tracks.ids[act].copy(), tracks.boxes[act].copy(),
                            tracks.scores[act].copy())
        return prev_out, cur_out


class GreedyIoUTracker:
    """Plain greedy IoU tracker over per-frame detections (reference only).

    Each detection, in descending score order (ties in input order),
    claims the free track with the highest overlap, the later track on
    equal overlap, when that overlap is positive and at or above the
    threshold: as in ``associate``, disjoint boxes never match. Leftovers
    become new tracks, which no detection of the same frame can claim. A
    frame's detections are one (n, 5) array of (cx, cy, w, h, conf) rows.
    Exists to contrast robustness against the diffusion pipeline.
    """

    def __init__(self, iou_threshold: float = 0.3, max_lost_age: int = 30):
        self.iou_threshold = iou_threshold
        self.max_lost_age = max_lost_age
        self._ids = np.zeros(0, dtype=np.int64)
        self._boxes = np.zeros((0, 4))
        self._age = np.zeros(0, dtype=np.int64)
        self._next_id = 1

    def update(self, frame: int, detections: np.ndarray) -> FrameRows:
        """The frame's rows, one per detection, in the order visited."""
        boxes = detections[:, :4]
        # Against the tracks of the frame's start only: a track born this
        # frame is never free to claim.
        fit = iou_matrix(boxes, self._boxes)
        owner = np.full(len(self._ids), -1)
        last = len(self._ids) - 1
        order = np.argsort(-detections[:, 4], kind="stable")
        ids = np.zeros(len(detections), dtype=np.int64)
        for di in order:
            free_fit = np.where(owner < 0, fit[di], -np.inf)
            # Over the reversed row, argmax takes the later of equal overlaps.
            j = last - int(np.argmax(free_fit[::-1])) if last >= 0 else -1
            if j >= 0 and free_fit[j] >= self.iou_threshold and free_fit[j] > 0.0:
                owner[j] = di
                ids[di] = self._ids[j]
            else:
                ids[di] = self._next_id
                self._next_id += 1
        hit = owner >= 0
        self._boxes[hit] = boxes[owner[hit]]
        self._age[hit] = 0
        self._age[~hit] += 1
        born = order[np.isin(order, owner, invert=True)]
        self._ids = np.concatenate([self._ids, ids[born]])
        self._boxes = np.concatenate([self._boxes, boxes[born]])
        self._age = np.concatenate([self._age, np.zeros(len(born), dtype=np.int64)])
        keep = self._age <= self.max_lost_age
        self._ids, self._boxes, self._age = (
            self._ids[keep], self._boxes[keep], self._age[keep]
        )
        return FrameRows(ids[order], boxes[order], detections[order, 4])
