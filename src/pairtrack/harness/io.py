"""MOTChallenge text interchange.

Rows are comma-separated ``frame,id,bb_left,bb_top,bb_width,bb_height,
conf,...``: ground-truth rows carry a class id and a visibility column,
detection and result rows carry ``-1`` world coordinates. Frames are
1-based; files may list frames out of order (sorted on load). Boxes are
converted between the corner-origin file format and center-form on the
way in and out. This module alone knows the row format: a parsed file is
one ``MotFrame`` of arrays per frame, and ``scene_from_gt``,
``parse_results`` and ``detections_from_rows`` select from those arrays a
scene's ``GtFrame``s, a result's ``FrameRows`` and the pipeline's
detection stream, one (n, 5) array of (cx, cy, w, h, conf) per frame.
"""

from __future__ import annotations

import configparser
import math
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..simulator import GtFrame, SceneGroundTruth
from ..tracker import FrameRows, TrackingResult

__all__ = [
    "MotFrame",
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


class MotFrame(NamedTuple):
    """One frame's rows in file order: ids (k,) int64, center-form boxes
    (k, 4), confidences (k,), classes (k,) int64 and visibilities (k,)."""

    ids: np.ndarray
    boxes: np.ndarray
    conf: np.ndarray
    cls: np.ndarray
    vis: np.ndarray


def parse_motchallenge(path: str | Path) -> dict[int, MotFrame]:
    """Parse a GT, detection or result file into per-frame arrays, frames
    ascending and rows in file order within a frame.

    Every numeric field must be finite and box sizes non-negative (zero is
    legal). Frame, id and class fields must be 64-bit integers (``1.0``
    is one) and frames at least 1; ids may be negative (detection files
    write ``-1``). Anything else raises ``MotFormatError`` naming the
    line, and no array is built before every line has passed.
    """
    frames: dict[int, list[list[float]]] = {}
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
                # A row without class or visibility columns takes 1 for each.
                row = [float(v) for v in parts[:9]] + [1.0, 1.0][len(parts) - 7:]
                whole = (int(row[0]), int(row[1]), int(row[7]))
            except (ValueError, OverflowError) as exc:
                raise MotFormatError(
                    f"{path}: line {lineno}: {exc}"
                ) from exc
            if not all(map(math.isfinite, row)):
                raise MotFormatError(f"{path}: line {lineno}: non-finite field")
            if row[4] < 0 or row[5] < 0:
                raise MotFormatError(
                    f"{path}: line {lineno}: negative box size {row[4]} x {row[5]}"
                )
            if (whole != (row[0], row[1], row[7]) or whole[0] < 1
                    or max(map(abs, whole)) >= 2**63):
                raise MotFormatError(
                    f"{path}: line {lineno}: frame, id and class must be 64-bit "
                    f"integers and the frame >= 1, got {row[0]}, {row[1]}, {row[7]}"
                )
            frames.setdefault(whole[0], []).append(row)
    parsed = {}
    for f in sorted(frames):
        _, ids, left, top, w, h, conf, cls, vis = np.array(frames[f]).T
        boxes = np.column_stack([left + w / 2.0, top + h / 2.0, w, h])
        ids, cls = ids.astype(np.int64), cls.astype(np.int64)
        parsed[f] = MotFrame(ids, boxes, conf, cls, vis)
    return parsed


# One GT line: frame, id, corner-form box, then conf 1, class 1 and the
# visibility flag.
_GT_LINE = "%s,%s,%.6f,%.6f,%.6f,%.6f,1,1,%.1f\n"
# Rows per ``%`` format. One format over a whole sequence holds all its
# values in one tuple: 24.5k of them, about 1.5 MB, in a 100-object crowd.
_CHUNK_ROWS = 512


def _write_rows(path, line: str, frames: list[int], parts: list) -> None:
    """Write one ``line`` per row, ``_CHUNK_ROWS`` rows to a ``%`` format,
    ordered by (frame, id); rows sharing both keep their order.

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
    with open(path, "w") as fh:
        for start in range(0, len(ids), _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            values = chain.from_iterable(zip(*chunk))
            fh.write(line * len(chunk[0]) % tuple(values))


def write_gt(scene: SceneGroundTruth, path: str | Path) -> None:
    """Write a scene as GT rows ordered by (frame, id); visibility encodes
    the occlusion flag."""
    frames = sorted(scene.frames)
    _write_rows(path, _GT_LINE, frames, [
        (gt.ids, gt.boxes, gt.visible.astype(np.float64))
        for gt in map(scene.frames.get, frames)
    ])


def _id_order(ids: np.ndarray, where: str) -> np.ndarray:
    """The stable order that sorts one frame's track ids; an id listed
    twice raises ``MotFormatError`` naming ``where`` and the id."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    twice = ranked[1:][ranked[1:] == ranked[:-1]]
    if twice.size:
        raise MotFormatError(f"{where}: track id {twice[0]} listed twice")
    return order


def scene_from_gt(
    rows: dict[int, MotFrame], image_size: tuple[int, int]
) -> SceneGroundTruth:
    """A scene from a parsed GT file; a row with visibility above 0.5 is
    visible. A frame listing one track id twice raises ``MotFormatError``
    naming the frame and the id."""
    frames = {}
    for f, rs in rows.items():
        order = _id_order(rs.ids, f"frame {f}")
        frames[f] = GtFrame(rs.ids[order], rs.boxes[order], rs.vis[order] > 0.5)
    n_frames = max(frames) if frames else 0
    return SceneGroundTruth(image_size=image_size, n_frames=n_frames, frames=frames)


def detections_from_rows(rows: dict[int, MotFrame]) -> dict[int, np.ndarray]:
    """Per-frame (n, 5) arrays of (cx, cy, w, h, conf), every frame key
    kept (an empty frame gives (0, 5)).

    Rows with a visibility in [0, 0.5], which ``scene_from_gt`` counts as
    occluded, are dropped; detection files carry ``-1`` there and keep
    every row. A confidence outside [0, 1], which the snap denoiser would
    pass on as a score, raises ``MotFormatError`` naming the frame and the
    value of the first such row, frames ascending.
    """
    conf = np.concatenate([np.zeros(0), *(rs.conf for rs in rows.values())])
    bad = np.flatnonzero(~((0.0 <= conf) & (conf <= 1.0)))
    if bad.size:
        frame = np.repeat(list(rows), [len(rs.conf) for rs in rows.values()])[bad[0]]
        raise MotFormatError(f"frame {frame}: confidence {conf[bad[0]]} outside [0, 1]")
    return {
        f: np.column_stack([rs.boxes, rs.conf])[~((0.0 <= rs.vis) & (rs.vis <= 0.5))]
        for f, rs in rows.items()
    }


# One result line: frame, id, corner-form box, score and the three -1
# world coordinates.
_RESULT_LINE = "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1\n"


def write_results(result: TrackingResult, path: str | Path) -> None:
    """Emit result rows, deterministically ordered by (frame, id)."""
    frames = sorted(result.frame_numbers())
    _write_rows(path, _RESULT_LINE, frames, [result.rows(f) for f in frames])


def parse_results(path: str | Path) -> TrackingResult:
    """A result file's rows, per frame in file order. A frame listing one
    track id twice raises ``MotFormatError`` naming the file, the frame and
    the id."""
    result = TrackingResult()
    for frame, rs in parse_motchallenge(path).items():
        _id_order(rs.ids, f"{path}: frame {frame}")
        result.add(frame, FrameRows(rs.ids, rs.boxes, rs.conf))
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
    keys = ("imWidth", "imHeight", "seqLength")
    missing = [k for k in keys if k not in sec]
    if missing:
        raise MotFormatError(f"{path}: [Sequence] lacks {', '.join(missing)}")
    values = []
    for key in keys:
        try:
            values.append(int(sec[key]))
        except ValueError:
            raise MotFormatError(
                f"{path}: [Sequence] {key} must be an integer, got {sec[key]!r}"
            ) from None
    width, height, length = values
    if min(width, height) <= 0:
        raise MotFormatError(
            f"{path}: imWidth and imHeight must be > 0, got {width}x{height}"
        )
    return (width, height), length
