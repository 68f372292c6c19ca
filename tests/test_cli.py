"""Command-line round trips through ``harness.cli.main``."""

from __future__ import annotations

import csv

from pairtrack.harness.cli import main
from pairtrack.harness.io import parse_motchallenge


def test_simulate_track_det_eval(tmp_path):
    # Ground-truth rows of an unoccluded scene serve as a perfect detection
    # file; the snap denoiser must turn them back into identities.
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene_dir), "--objects", "6",
                 "--frames", "20", "--motion", "linear", "--seed", "3"]) == 0
    gt = scene_dir / "gt.txt"
    result = tmp_path / "result.txt"
    assert main(["track", "--det", str(gt), "--seqinfo",
                 str(scene_dir / "seqinfo.ini"), "--out", str(result),
                 "--n-test", "64", "--seed", "0"]) == 0
    assert result.read_text().strip()

    report = tmp_path / "report.csv"
    assert main(["eval", "--gt", str(gt), "--result", str(result),
                 "--csv", str(report)]) == 0
    with open(report) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["mota"]) > 0.9


def _simulate(tmp_path):
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene_dir), "--objects", "3",
                 "--frames", "5", "--seed", "1"]) == 0
    return scene_dir


def test_non_positive_image_size_is_usage_error(tmp_path, capsys):
    scene_dir = _simulate(tmp_path)
    result = tmp_path / "result.txt"
    for raw in ("0x1080", "1920x-5"):
        assert main(["track", "--gt", str(scene_dir / "gt.txt"),
                     "--image-size", raw, "--out", str(result)]) == 1
        assert "usage error" in capsys.readouterr().err
    assert not result.exists()


def test_non_positive_seqinfo_size_is_data_error(tmp_path, capsys):
    scene_dir = _simulate(tmp_path)
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text(
        "[Sequence]\nname=s\nimWidth=1920\nimHeight=0\nseqLength=5\n"
    )
    result = tmp_path / "result.txt"
    assert main(["track", "--gt", str(scene_dir / "gt.txt"),
                 "--seqinfo", str(seqinfo), "--out", str(result)]) == 2
    assert "data error" in capsys.readouterr().err
    assert not result.exists()


def test_seqinfo_without_sequence_section_is_data_error(tmp_path, capsys):
    scene_dir = _simulate(tmp_path)
    result = tmp_path / "result.txt"
    bad = tmp_path / "bad.ini"
    for text, missing in (("[Seq]\n", "[Sequence]"),
                          ("[Sequence]\nimWidth=100\nimHeight=100\n", "seqLength")):
        bad.write_text(text)
        assert main(["track", "--gt", str(scene_dir / "gt.txt"),
                     "--seqinfo", str(bad), "--out", str(result)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and missing in err
    assert not result.exists()


def _track_det_rows(tmp_path, rows):
    det = tmp_path / "d.txt"
    det.write_text("".join(r + "\n" for r in rows))
    result = tmp_path / "result.txt"
    code = main(["track", "--det", str(det), "--image-size", "100x100",
                 "--out", str(result)])
    return code, det, result


def test_non_finite_detection_field_is_data_error(tmp_path, capsys):
    code, det, result = _track_det_rows(tmp_path, [
        "1,-1,10,10,20,20,0.9,-1,-1,-1",
        "2,-1,10,10,nan,20,0.9,-1,-1,-1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{det}: line 2" in err
    assert not result.exists()


def test_negative_detection_size_is_data_error(tmp_path, capsys):
    code, det, result = _track_det_rows(tmp_path, [
        "1,-1,10,10,20,-5,0.9,-1,-1,-1",
        "2,-1,10,10,20,20,0.9,-1,-1,-1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{det}: line 1" in err
    assert not result.exists()


def test_zero_size_detection_is_legal(tmp_path):
    det = tmp_path / "d.txt"
    det.write_text("1,-1,10,10,0,0,0.9,-1,-1,-1\n")
    (row,) = parse_motchallenge(det)[1]
    assert (row.box.w, row.box.h) == (0.0, 0.0)
