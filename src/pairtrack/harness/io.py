"""MOTChallenge text interchange.

Rows are comma-separated ``frame,id,bb_left,bb_top,bb_width,bb_height,
conf,...``: ground-truth rows carry a class id and a visibility column,
detection and result rows carry ``-1`` world coordinates. Frames are
1-based; files may list frames out of order (sorted on load). Boxes are
converted between the corner-origin file format and center-form on the
way in and out. Parsed rows hold a ``BBox`` each; ``scene_from_gt``,
``parse_results`` and ``detections_from_rows`` turn them into per-frame
arrays: a scene's ``GtFrame``s, a result's ``FrameRows`` and the
pipeline's detection stream, one (n, 5) array of (cx, cy, w, h, conf) per
frame.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ..geometry import BBox
from ..simulator import GtFrame, SceneGroundTruth
from ..tracker import FrameRows, TrackingResult

__all__ = [
    "MotRow",
    "MotFormatError",
    "parse_motchallenge",
    "write_gt",
    "write_results",
    "parse_results",
    "scene_from_gt",
    "detections_from_rows",
    "write_seqinfo",
    "parse_seqinfo",
]


class MotFormatError(ValueError):
    """Malformed interchange file; message carries the line number."""


@dataclass(frozen=True)
class MotRow:
    frame: int
    track_id: int
    box: BBox
    conf: float
    cls: int = 1
    visibility: float = 1.0


def parse_motchallenge(path: str | Path) -> dict[int, list[MotRow]]:
    """Parse a GT, detection or result file into per-frame rows.

    Every numeric field must be finite and box sizes non-negative (zero is
    legal); anything else raises ``MotFormatError`` naming the line.
    """
    frames: dict[int, list[MotRow]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise MotFormatError(
                    f"{path}: line {lineno}: expected >= 7 comma-separated "
                    f"fields, got {len(parts)}"
                )
            try:
                frame = int(float(parts[0]))
                track_id = int(float(parts[1]))
                left, top, w, h = (float(v) for v in parts[2:6])
                conf = float(parts[6])
                cls = int(float(parts[7])) if len(parts) > 7 else 1
                vis = float(parts[8]) if len(parts) > 8 else 1.0
            except (ValueError, OverflowError) as exc:
                raise MotFormatError(
                    f"{path}: line {lineno}: {exc}"
                ) from exc
            if not all(map(math.isfinite, (left, top, w, h, conf, vis))):
                raise MotFormatError(f"{path}: line {lineno}: non-finite field")
            if w < 0 or h < 0:
                raise MotFormatError(
                    f"{path}: line {lineno}: negative box size {w} x {h}"
                )
            box = BBox(left + w / 2.0, top + h / 2.0, w, h)
            frames.setdefault(frame, []).append(
                MotRow(frame, track_id, box, conf, cls, vis)
            )
    return {f: frames[f] for f in sorted(frames)}


# One GT line: frame, id, corner-form box, then conf 1, class 1 and the
# visibility flag.
_GT_LINE = "%s,%s,%.6f,%.6f,%.6f,%.6f,1,1,%.1f\n"


def _write_rows(path, line: str, frames: list[int], parts: list) -> None:
    """Write one ``line`` per row with one ``%`` format, ordered by (frame,
    id); rows sharing both keep their order.

    ``parts`` holds, for each of ``frames``, its (ids (k,), center-form
    boxes (k, 4), last column (k,)) arrays. Values are formatted from
    ``.tolist()`` values, so ids print as ints.
    """
    if parts:
        ids, boxes, last = map(np.concatenate, zip(*parts))
    else:
        ids, boxes, last = np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0)
    sizes = [len(p[0]) for p in parts]
    frame_col = np.repeat(np.asarray(frames, dtype=np.int64), sizes)
    order = np.lexsort((ids, frame_col))
    boxes = boxes[order]
    left_top = boxes[:, :2] - 0.5 * boxes[:, 2:]
    columns = (frame_col[order], ids[order], left_top[:, 0], left_top[:, 1],
               boxes[:, 2], boxes[:, 3], last[order])
    values = chain.from_iterable(zip(*(c.tolist() for c in columns)))
    with open(path, "w") as fh:
        fh.write(line * len(ids) % tuple(values))


def write_gt(scene: SceneGroundTruth, path: str | Path) -> None:
    """Write a scene as GT rows ordered by (frame, id); visibility encodes
    the occlusion flag."""
    frames = sorted(scene.frames)
    _write_rows(path, _GT_LINE, frames, [
        (gt.ids, gt.boxes, gt.visible.astype(np.float64))
        for gt in map(scene.frames.get, frames)
    ])


def _id_order(rs: list[MotRow], where: str) -> tuple[np.ndarray, np.ndarray]:
    """The track ids of one frame's rows and the stable order that sorts
    them; an id listed twice raises ``MotFormatError`` naming ``where`` and
    the id."""
    ids = np.array([r.track_id for r in rs], dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    twice = ranked[1:][ranked[1:] == ranked[:-1]]
    if twice.size:
        raise MotFormatError(f"{where}: track id {twice[0]} listed twice")
    return ids, order


def scene_from_gt(
    rows: dict[int, list[MotRow]], image_size: tuple[int, int]
) -> SceneGroundTruth:
    """A scene from parsed GT rows; a row with visibility above 0.5 is
    visible. A frame listing one track id twice raises ``MotFormatError``
    naming the frame and the id."""
    frames = {}
    for f, rs in rows.items():
        ids, order = _id_order(rs, f"frame {f}")
        boxes = np.array([(r.box.cx, r.box.cy, r.box.w, r.box.h) for r in rs],
                         dtype=np.float64).reshape(-1, 4)
        visible = np.array([r.visibility > 0.5 for r in rs], dtype=bool)
        frames[f] = GtFrame(ids[order], boxes[order], visible[order])
    n_frames = max(frames) if frames else 0
    return SceneGroundTruth(image_size=image_size, n_frames=n_frames, frames=frames)


def detections_from_rows(
    rows: dict[int, list[MotRow]]
) -> dict[int, np.ndarray]:
    """Per-frame (n, 5) arrays of (cx, cy, w, h, conf), every frame key
    kept (an empty frame gives (0, 5)).

    Rows with a visibility in [0, 0.5], which ``scene_from_gt`` counts as
    occluded, are dropped; detection files carry ``-1`` there and keep
    every row. A confidence outside [0, 1], which the snap denoiser would
    pass on as a score, raises ``MotFormatError`` naming the frame and the
    value.
    """
    for f, rs in rows.items():
        for r in rs:
            if not 0.0 <= r.conf <= 1.0:
                raise MotFormatError(f"frame {f}: confidence {r.conf} outside [0, 1]")
    return {
        f: np.array(
            [(r.box.cx, r.box.cy, r.box.w, r.box.h, r.conf)
             for r in rs if not 0.0 <= r.visibility <= 0.5],
            dtype=np.float64,
        ).reshape(-1, 5)
        for f, rs in rows.items()
    }


# One result line: frame, id, corner-form box, score and the three -1
# world coordinates.
_RESULT_LINE = "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1\n"


def write_results(result: TrackingResult, path: str | Path) -> None:
    """Emit result rows, deterministically ordered by (frame, id), with one
    ``%`` format over every row's values."""
    frames = sorted(result.frame_numbers())
    _write_rows(path, _RESULT_LINE, frames, [result.rows(f) for f in frames])


def parse_results(path: str | Path) -> TrackingResult:
    """A result file's rows, per frame in file order. A frame listing one
    track id twice raises ``MotFormatError`` naming the file, the frame and
    the id."""
    result = TrackingResult()
    for frame, rs in parse_motchallenge(path).items():
        result.add(frame, FrameRows(
            _id_order(rs, f"{path}: frame {frame}")[0],
            np.array([(r.box.cx, r.box.cy, r.box.w, r.box.h) for r in rs],
                     dtype=np.float64),
            np.array([r.conf for r in rs], dtype=np.float64),
        ))
    return result


def write_seqinfo(
    path: str | Path, image_size: tuple[int, int], n_frames: int,
    name: str = "synthetic",
) -> None:
    with open(path, "w") as fh:
        fh.write(
            "[Sequence]\n"
            f"name={name}\n"
            f"imWidth={image_size[0]}\n"
            f"imHeight={image_size[1]}\n"
            f"seqLength={n_frames}\n"
        )


def parse_seqinfo(path: str | Path) -> tuple[tuple[int, int], int]:
    """Returns ((width, height), sequence length)."""
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise MotFormatError(f"{path}: {exc}") from exc
    if not cp.has_section("Sequence"):
        raise MotFormatError(f"{path}: no [Sequence] section")
    sec = cp["Sequence"]
    missing = [k for k in ("imWidth", "imHeight", "seqLength") if k not in sec]
    if missing:
        raise MotFormatError(f"{path}: [Sequence] lacks {', '.join(missing)}")
    size = (int(sec["imWidth"]), int(sec["imHeight"]))
    if min(size) <= 0:
        raise MotFormatError(
            f"{path}: imWidth and imHeight must be > 0, got {size[0]}x{size[1]}"
        )
    return size, int(sec["seqLength"])
