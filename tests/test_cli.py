"""Command-line round trips through ``harness.cli.main``."""

from __future__ import annotations

import csv

from pairtrack.harness.cli import main


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
