"""The columnar scene and result records, and the object view kept for
callers that read result rows one at a time."""

from __future__ import annotations

import re

import numpy as np
import pytest

import pairtrack as pt
from pairtrack.harness.io import (
    MotFormatError,
    parse_results,
    write_gt,
    write_results,
)
from pairtrack.simulator import GtFrame
from pairtrack.tracker import BBox, FrameRows, ResultRow, TrackingResult


def _scene():
    spec = pt.SceneSpec(n_objects=6, duration=8, motion=pt.CrowdedMotion(0.35),
                        occlusion_rate=0.5, seed=4)
    return pt.generate(spec)


def _tracked(scene):
    return pt.run_sequence(pt.PipelineConfig(n_test=64), pt.OracleDenoiser(0.9),
                           scene=scene, seed=1)


def test_scene_rebuilt_from_its_frames_is_equal(tmp_path):
    # As a benchmark warm-up does: a new scene from the records of another.
    scene = _scene()
    copy = pt.SceneGroundTruth(
        image_size=scene.image_size, n_frames=scene.n_frames,
        frames={f: scene.frames[f] for f in range(1, scene.n_frames + 1)},
    )
    assert copy == scene
    write_gt(scene, tmp_path / "a.txt")
    write_gt(copy, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    write_results(_tracked(scene), tmp_path / "a.txt")
    write_results(_tracked(copy), tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_frame_records_compare_as_bools():
    scene = _scene()
    a, b = scene.frames[1], scene.frames[2]
    same = GtFrame(a.ids.copy(), a.boxes.copy(), a.visible.copy())
    assert (a == same) is True and (a != same) is False
    assert (a == b) is False and (a != b) is True
    fewer = GtFrame(a.ids[:2], a.boxes[:2], a.visible[:2])
    assert (a == fewer) is False and (a != fewer) is True
    hidden = GtFrame(a.ids, a.boxes, ~a.visible)
    assert (a == hidden) is False
    assert a != "not a frame"


def test_generated_frames_are_ascending_and_read_only():
    scene = _scene()
    for gt in scene.frames.values():
        assert gt.ids.dtype == np.int64 and gt.boxes.shape == (6, 4)
        assert gt.visible.dtype == bool
        assert np.all(np.diff(gt.ids) > 0)
        with pytest.raises(ValueError):
            gt.boxes[0, 0] = 0.0


def test_visible_slices_the_frame():
    scene = _scene()
    for f, gt in scene.frames.items():
        ids, boxes = scene.visible(f)
        assert ids.tolist() == gt.ids[gt.visible].tolist()
        assert np.array_equal(boxes, gt.boxes[gt.visible])
        assert np.array_equal(scene.visible_boxes(f), boxes)
    ids, boxes = scene.visible(scene.n_frames + 1)
    assert ids.shape == (0,) and boxes.shape == (0, 4)


def test_view_rows_equal_the_arrays():
    result = _tracked(_scene())
    view = result.frames
    assert list(view) == list(result.frame_numbers())
    for f, rows in view.items():
        ids, boxes, scores = result.rows(f)
        assert [r.track_id for r in rows] == ids.tolist()
        assert all(type(r.track_id) is int for r in rows)
        assert [r.box for r in rows] == [BBox(*b) for b in boxes.tolist()]
        assert [r.score for r in rows] == scores.tolist()


def test_view_cached_until_next_add():
    result = TrackingResult()
    result.add(1, FrameRows(np.array([3]), np.array([[1.0, 2, 3, 4]]),
                            np.array([0.5])))
    view = result.frames
    assert result.frames is view
    # Edits to the view stay in the view, and reading the arrays keeps it.
    view[1].append(view[1][0])
    assert result.frames[1] == [ResultRow(3, BBox(1.0, 2, 3, 4), 0.5)] * 2
    assert result.rows(1).ids.tolist() == [3]
    assert result.frames is view
    result.add(1, FrameRows(np.array([1]), np.array([[5.0, 6, 7, 8]]),
                            np.array([0.25])))
    assert result.frames is not view
    assert [r.track_id for r in result.frames[1]] == [3, 1]
    # An add after a read appends in add order.
    ids, boxes, scores = result.rows(1)
    assert ids.tolist() == [3, 1] and scores.tolist() == [0.5, 0.25]
    assert boxes.tolist() == [[1.0, 2, 3, 4], [5.0, 6, 7, 8]]


def test_rows_reads_without_side_effects():
    result = TrackingResult()
    for tid in (3, 1, 2):
        result.add(1, FrameRows(np.array([tid]), np.full((1, 4), float(tid)),
                                np.array([tid / 4])))
    # Each add joins the frame's one table.
    assert all(type(rows) is FrameRows for rows in result._rows.values())
    stored = result._rows[1]
    first, second = result.rows(1), result.rows(1)
    assert first is second is stored is result._rows[1]
    assert first.ids.tolist() == [3, 1, 2]
    assert first.boxes[:, 0].tolist() == [3.0, 1.0, 2.0]
    # A frame with no rows reads empty and is not stored.
    assert len(result.rows(2).ids) == 0
    assert list(result.frame_numbers()) == [1]


def test_records_have_slots():
    scene = _scene()
    row = _tracked(scene).frames[2][0]
    for record in (scene.frames[1], row, row.box):
        assert "__slots__" in type(record).__dict__
        assert not hasattr(record, "__dict__")
    # Slots keep the frame's array equality.
    a = scene.frames[1]
    assert a == GtFrame(a.ids.copy(), a.boxes.copy(), a.visible.copy())
    assert a != GtFrame(a.ids, a.boxes + 1.0, a.visible)


def test_empty_rows_add_no_frame():
    result = TrackingResult()
    result.add(4, FrameRows(np.zeros(0, dtype=np.int64), np.zeros((0, 4)),
                            np.zeros(0)))
    assert list(result.frame_numbers()) == [] and result.frames == {}
    assert result.rows(4).boxes.shape == (0, 4)


def test_written_results_read_back_to_the_same_bytes(tmp_path):
    result = _tracked(_scene())
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_results(result, first)
    write_results(parse_results(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().count("\n") == sum(
        len(result.rows(f).ids) for f in result.frame_numbers())


def _one_format(result):
    """The result file as one ``%`` format over every row's values, rows
    in (frame, id) order."""
    values = []
    for f in sorted(result.frame_numbers()):
        ids, boxes, scores = result.rows(f)
        for i in np.argsort(ids, kind="stable").tolist():
            cx, cy, w, h = boxes[i].tolist()
            values += [f, ids[i].item(), cx - 0.5 * w, cy - 0.5 * h, w, h,
                       scores[i].item()]
    line = "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1\n"
    return line * (len(values) // 7) % tuple(values)


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1543])
def test_chunked_results_equal_one_format(tmp_path, n):
    # The writer formats 512 rows at a time; its bytes are those of one
    # format over all rows, whatever the row count.
    rng = np.random.default_rng(n)
    result = TrackingResult()
    for start in range(0, n, 37):
        k = min(37, n - start)
        result.add(10_000 - start, FrameRows(
            rng.permutation(np.arange(1, 100))[:k],
            rng.uniform([0, 0, 1, 1], [1920, 1080, 200, 300], (k, 4)),
            rng.uniform(0, 1, k)))
    write_results(result, tmp_path / "r.txt")
    text = (tmp_path / "r.txt").read_text()
    assert text.count("\n") == n
    assert text == _one_format(result)


def test_result_id_listed_twice_in_a_frame_rejected(tmp_path):
    # Both rows would count toward the id's trajectory and lift IDF1 above 1.
    path = tmp_path / "r.txt"
    path.write_text("1,7,0,0,10,10,0.9,-1,-1,-1\n"
                    "2,7,1,0,10,10,0.9,-1,-1,-1\n"
                    "2,3,40,0,10,10,0.9,-1,-1,-1\n"
                    "2,7,1,0,10,10,0.9,-1,-1,-1\n")
    with pytest.raises(MotFormatError, match=re.escape(
            f"{path}: frame 2: track id 7 listed twice")):
        parse_results(path)


def test_pipeline_writer_and_metrics_never_read_the_view(tmp_path, monkeypatch):
    def no_view(self):
        raise AssertionError("the object view was read")

    monkeypatch.setattr(TrackingResult, "frames", property(no_view))
    scene = _scene()
    result = _tracked(scene)
    write_results(result, tmp_path / "r.txt")
    pt.evaluate(scene, result)
    pt.evaluate(scene, parse_results(tmp_path / "r.txt"))
