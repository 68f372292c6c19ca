"""Command-line round trips through ``harness.cli.main``."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict, replace
from datetime import datetime, timedelta

import pytest

from pairtrack.diffusion import PaddingStrategy, PerturbationSchedule
from pairtrack.harness.cli import _write_manifest, main
from pairtrack.harness.config import resolve_run_config
from pairtrack.harness.io import (
    MotFormatError,
    detections_from_rows,
    parse_motchallenge,
    parse_seqinfo,
    scene_from_gt,
)
from pairtrack.pipeline import PipelineConfig, Variant
from pairtrack.tracker import TrackerConfig


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


@pytest.mark.parametrize("command, grid, header", [
    ("ablate", ["--proportions", "0,0.5", "--paddings", "repeat,gaussian",
                "--perturbations", "constant"],
     "proportion,padding,perturbation,seed,mota,idf1,idsw,frag"),
    ("sweep", ["--boxes", "16,32", "--step-counts", "1,2", "--n-seeds", "1"],
     "boxes,steps,seeds,mota,latency_per_pair_s"),
    ("robustness", ["--alphas", "0,0.1,0.2,0.3", "--n-seeds", "1"],
     "alpha,seeds,diffusion_mota,greedy_mota"),
], ids=["ablate", "sweep", "robustness"])
def test_experiment_writes_its_grid_and_manifest(tmp_path, command, grid, header):
    # Each grid has four cells: one CSV row per cell under the header.
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene_dir), "--objects", "3",
                 "--frames", "5", "--seed", "1"]) == 0
    out = tmp_path / f"{command}.csv"
    argv = [command, "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
            "--n-test", "16", "--seed", "0", *grid]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 4
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["extra"]["argv"] == argv
    # Robustness runs the snap denoiser, so it has no oracle fidelity.
    assert ("fidelity" in manifest["extra"]) == (command != "robustness")


def test_robustness_takes_no_fidelity(tmp_path, capsys):
    scene_dir = _simulate(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["robustness", "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
                 "--fidelity", "0.5"]) == 1
    assert "--fidelity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", [["--det"], ["--denoiser", "snap", "--gt"]],
                         ids=["det", "gt_snap"])
def test_snap_track_takes_no_fidelity(tmp_path, capsys, source):
    # The snap denoiser never reads a fidelity: the flag changed no result
    # byte, yet the manifest recorded it.
    scene_dir = _simulate(tmp_path)
    out = tmp_path / "r.txt"
    argv = ["track", *source, str(scene_dir / "gt.txt"), "--out", str(out),
            "--n-test", "16", "--seed", "1"]
    assert main(argv + ["--fidelity", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--fidelity" in err
    assert list(tmp_path.iterdir()) == [scene_dir]
    assert main(argv) == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["extra"] == {"denoiser": "snap", "image_size": [1920, 1080]}


def test_oracle_track_needs_gt_before_reading(tmp_path, capsys):
    # The usage error came only after the detection file was read, so a
    # bad file hid it behind a data error.
    det = tmp_path / "d.txt"
    det.write_text("1,-1,10,10,20,20,1.5,-1,-1,-1\n")
    assert main(["track", "--det", str(det), "--denoiser", "oracle", "--out",
                 str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--gt" in err
    assert list(tmp_path.iterdir()) == [det]


@pytest.mark.parametrize("command", ["sweep", "robustness"])
def test_n_seeds_below_one_is_usage_error(tmp_path, capsys, command):
    # Zero seeds exited 0 with a CSV row of nan means.
    scene_dir = _simulate(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
                 "--n-seeds", "0"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--n-seeds" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("ablate", "--proportions"), ("ablate", "--paddings"),
    ("ablate", "--perturbations"), ("sweep", "--boxes"),
    ("sweep", "--step-counts"), ("robustness", "--alphas"),
])
def test_empty_grid_is_usage_error(tmp_path, capsys, command, flag):
    # A grid that parsed to no values exited 0 with a 0-byte CSV.
    scene_dir = _simulate(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
                 flag, " , "]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not out.exists() and not out.with_suffix(".manifest.json").exists()


def test_spaced_grid_lists_write_the_same_csv(tmp_path):
    # The enum grids exited 2 on "repeat, gaussian" while the number grids
    # took their spaces.
    scene_dir = _simulate(tmp_path)
    csvs = []
    for sep in (",", ", "):
        out = tmp_path / f"ablate{len(csvs)}.csv"
        assert main(["ablate", "--gt", str(scene_dir / "gt.txt"), "--out",
                     str(out), "--n-test", "16", "--seed", "0",
                     "--proportions", sep.join(["0", "0.5"]),
                     "--paddings", sep.join(["repeat", "gaussian"]),
                     "--perturbations", sep.join(["constant", "linear"])]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 1 + 8


@pytest.mark.parametrize("flags, code, err", [
    (["--motion", "nonlinear", "--crossover-rate", "1", "--objects", "3"], 0, ""),
    (["--motion", "crowded", "--density", "0"], 1, "--density"),
    (["--motion", "nonlinear", "--crossover-rate", "1.5"], 1, "--crossover-rate"),
    (["--objects", "-1"], 1, "--objects"),
    (["--objects", "0", "--frames", "3"], 1, "--objects"),
    (["--motion", "nonlinear", "--turn-rate", "nan"], 1, "--turn-rate"),
    (["--speed-min", "5", "--speed-max", "-2"], 1, "--speed-max"),
    (["--speed-min", "nan"], 1, "--speed-min"),
    (["--frames", "1"], 1, "--frames"),
    (["--image-size", "20x20", "--objects", "3", "--frames", "5"], 2,
     "box_width and aspect"),
], ids=["odd_crossover", "density_0", "crossover_above_1", "negative_objects",
        "zero_objects", "turn_rate_nan", "speed_reversed", "speed_nan",
        "one_frame", "box_larger_than_image"])
def test_simulate_checks_its_motion_fields(tmp_path, capsys, flags, code, err):
    # Each of these crashed with a traceback, named no field or flag, or
    # wrote a scene that ``track`` rejects (no rows, or nan boxes) or that
    # spills out of its image. A bad flag is a usage error naming the flag;
    # a box drawn larger than the image is a data error.
    assert main(["simulate", "--out", str(tmp_path), *flags, "--seed", "1"]) == code
    assert err in capsys.readouterr().err
    assert (tmp_path / "gt.txt").exists() == (code == 0)
    if code:
        assert list(tmp_path.iterdir()) == []


def test_det_on_gt_file_skips_occluded_rows(tmp_path):
    # A ground-truth file given as detections feeds only its visible rows,
    # the ones the snap denoiser sees when the same file is given as --gt.
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene_dir), "--objects", "6",
                 "--frames", "20", "--occlusion", "0.6", "--seed", "3"]) == 0
    gt = scene_dir / "gt.txt"
    via_det, via_gt = tmp_path / "det.txt", tmp_path / "gt.txt"
    assert main(["track", "--det", str(gt), "--out", str(via_det),
                 "--n-test", "100", "--seed", "1"]) == 0
    assert main(["track", "--gt", str(gt), "--denoiser", "snap", "--out",
                 str(via_gt), "--n-test", "100", "--seed", "1"]) == 0
    assert via_det.read_bytes() == via_gt.read_bytes()


def test_detection_rows_keep_unknown_visibility(tmp_path):
    # det.txt rows carry -1 in the visibility column; a frame whose rows are
    # all occluded keeps its (empty) key.
    det = tmp_path / "d.txt"
    det.write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n"
                   "1,3,50,50,20,20,1,1,0.5\n"
                   "2,3,52,50,20,20,1,1,0.0\n"
                   "3,3,54,50,20,20,1,1,0.6\n")
    dets = detections_from_rows(parse_motchallenge(det))
    assert sorted(dets) == [1, 2, 3]
    assert dets[1][:, 4].tolist() == [0.9]
    assert dets[2].shape == (0, 5)
    assert dets[3][:, 0].tolist() == [64.0]


_MANIFEST_KEYS = {"artifact_version", "command", "config", "extra", "inputs",
                  "outputs", "seed", "timestamp"}
_DEFAULT_TRACKER = {"conf_threshold": 0.25, "det_threshold": 0.7,
                    "nms3d_threshold": 0.6, "nms2d_threshold": 0.7,
                    "init_score_threshold": 0.7, "iou_match_threshold": 0.3,
                    "max_lost_age": 30}


def _read_manifest(path):
    manifest = json.loads(path.read_text())
    assert set(manifest) == _MANIFEST_KEYS
    assert manifest["artifact_version"] == "0.1.0"
    assert datetime.fromisoformat(manifest["timestamp"]).utcoffset() == timedelta(0)
    return manifest


def test_manifests_record_each_run(tmp_path):
    # Every manifest holds the same eight keys; a pipeline config is
    # recorded with its enums as their values and the tracker nested.
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene_dir), "--objects", "3",
                 "--frames", "5", "--motion", "nonlinear", "--image-size",
                 "640x480", "--seed", "4"]) == 0
    manifest = _read_manifest(scene_dir / "manifest.json")
    gt = scene_dir / "gt.txt"
    assert manifest["command"] == "simulate" and manifest["seed"] == 4
    assert manifest["config"] == {
        "objects": 3, "frames": 5, "motion": "nonlinear", "turn_rate": 0.5,
        "crossover_rate": 0.5, "density": 0.35, "occlusion": 0.0,
        "speed": [2.0, 8.0], "image_size": [640, 480],
    }
    assert manifest["inputs"] == {} and manifest["extra"] == {}
    assert manifest["outputs"] == {"gt": str(gt),
                                   "seqinfo": str(scene_dir / "seqinfo.ini")}

    config = tmp_path / "c.ini"
    config.write_text("[pipeline]\nsteps = 2\npadding = uniform\n"
                      "[tracker]\nmax_lost_age = 7\n[oracle]\nfidelity = 0.5\n")
    result = tmp_path / "result.txt"
    assert main(["track", "--gt", str(gt), "--config", str(config), "--out",
                 str(result), "--n-test", "32", "--variant", "baseline",
                 "--seed", "5"]) == 0
    manifest = _read_manifest(result.with_suffix(".manifest.json"))
    assert manifest["command"] == "track" and manifest["seed"] == 5
    assert manifest["config"] == {
        "n_test": 32, "steps": 2, "proportion": 0.25, "padding": "uniform",
        "perturbation": "logarithmic", "variant": "baseline",
        "tracker": {**_DEFAULT_TRACKER, "max_lost_age": 7},
    }
    assert manifest["inputs"] == {"gt": str(gt), "det": ""}
    assert manifest["outputs"] == {"result": str(result)}
    assert manifest["extra"] == {"denoiser": "oracle", "fidelity": 0.5,
                                 "image_size": [640, 480]}

    out = tmp_path / "ablate.csv"
    argv = ["ablate", "--gt", str(gt), "--out", str(out), "--n-test", "16",
            "--seed", "6", "--proportions", "0.5", "--paddings", "repeat",
            "--perturbations", "constant"]
    assert main(argv) == 0
    manifest = _read_manifest(out.with_suffix(".manifest.json"))
    assert manifest["command"] == "ablate" and manifest["seed"] == 6
    assert manifest["config"] == {
        "n_test": 16, "steps": 1, "proportion": 0.25, "padding": "gaussian",
        "perturbation": "logarithmic", "variant": "diffusion",
        "tracker": _DEFAULT_TRACKER,
    }
    assert manifest["inputs"] == {"gt": str(gt)}
    assert manifest["outputs"] == {"csv": str(out)}
    assert manifest["extra"] == {"fidelity": 0.9, "argv": argv}


def test_track_det_reads_sidecar_seqinfo(tmp_path):
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--out", str(scene_dir), "--objects", "3",
                 "--frames", "5", "--image-size", "640x480", "--seed", "1"]) == 0
    result = tmp_path / "result.txt"
    assert main(["track", "--det", str(scene_dir / "gt.txt"), "--out",
                 str(result), "--n-test", "32", "--seed", "1"]) == 0
    manifest = json.loads(result.with_suffix(".manifest.json").read_text())
    assert manifest["extra"]["image_size"] == [640, 480]


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


@pytest.mark.parametrize("key, value", [
    ("imWidth", "abc"), ("imHeight", "100.5"), ("seqLength", "five"),
])
def test_non_integer_seqinfo_value_names_file_and_key(tmp_path, capsys, key,
                                                      value):
    # A bare int() failure named neither the file nor the key.
    scene_dir = _simulate(tmp_path)
    fields = {"imWidth": "1920", "imHeight": "1080", "seqLength": "5", key: value}
    seqinfo = tmp_path / "seqinfo.ini"
    seqinfo.write_text("[Sequence]\n" + "".join(
        f"{k}={v}\n" for k, v in fields.items()))
    result = tmp_path / "result.txt"
    assert main(["track", "--gt", str(scene_dir / "gt.txt"),
                 "--seqinfo", str(seqinfo), "--out", str(result)]) == 2
    err = capsys.readouterr().err
    assert f"data error: {seqinfo}: [Sequence] {key}" in err
    assert repr(value) in err
    assert not result.exists()
    with pytest.raises(MotFormatError, match=key):
        parse_seqinfo(seqinfo)


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
    (box,) = parse_motchallenge(det)[1].boxes
    assert (box[2], box[3]) == (0.0, 0.0)


def _track_with_config(tmp_path, text):
    scene_dir = _simulate(tmp_path)
    config = tmp_path / "c.ini"
    config.write_text(text)
    result = tmp_path / "result.txt"
    code = main(["track", "--gt", str(scene_dir / "gt.txt"), "--config",
                 str(config), "--out", str(result), "--n-test", "32"])
    return code, config, result


@pytest.mark.parametrize("section, key, value", [
    ("pipeline", "signal_scale", "1.0"),
    ("pipeline", "timesteps", "500"),
    ("pipeline", "default_motion", "0.1"),
    ("oracle", "snap_cap", "0.2"),
    ("oracle", "far_floor", "0.1"),
], ids=["signal_scale", "timesteps", "default_motion", "snap_cap", "far_floor"])
def test_retired_pipeline_key_is_data_error(tmp_path, capsys, section, key, value):
    # The signal scale belongs to the diffusion loop; a file that still
    # sets it must not run with a scale the denoisers never see. The
    # perturbation schedule maps motion to round(1000 * f(x)), so a shorter
    # noise schedule would corrupt far harder than the motion asks for. The
    # initial motion and the oracle's score model are fixed values now, and
    # a file that sets one must not run as if it had taken effect.
    code, config, result = _track_with_config(
        tmp_path, f"[{section}]\n{key} = {value}\n"
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and key in err and str(config) in err
    assert not result.exists()


def test_unknown_config_section_is_data_error(tmp_path, capsys):
    code, config, result = _track_with_config(tmp_path, "[pipleine]\nn_test = 10\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "pipleine" in err and str(config) in err
    assert not result.exists()


def test_config_without_section_header_is_data_error(tmp_path, capsys):
    code, config, result = _track_with_config(tmp_path, "n_test = 5\n")
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(config) in err
    assert not result.exists()


def test_bad_config_value_names_file_section_key_and_value(tmp_path, capsys):
    for section, key, value in [("pipeline", "n_test", "abc"),
                                ("pipeline", "padding", "zigzag"),
                                ("tracker", "det_threshold", "high")]:
        code, config, result = _track_with_config(
            tmp_path, f"[{section}]\n{key} = {value}\n"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(config) in err
        assert f"[{section}] {key} = '{value}'" in err
        assert not result.exists()


def test_out_of_range_config_value_names_key(tmp_path, capsys):
    scene_dir = _simulate(tmp_path)
    config = tmp_path / "c.ini"
    result = tmp_path / "result.txt"
    for section, key, value in [("tracker", "conf_threshold", "1.5"),
                                ("tracker", "iou_match_threshold", "-0.1"),
                                ("tracker", "max_lost_age", "-1"),
                                ("pipeline", "n_test", "0"),
                                ("pipeline", "steps", "0"),
                                ("pipeline", "proportion", "1.5")]:
        config.write_text(f"[{section}]\n{key} = {value}\n")
        code = main(["track", "--gt", str(scene_dir / "gt.txt"), "--config",
                     str(config), "--out", str(result)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(config) in err
        assert f"[{section}] {key} = '{value}'" in err
        assert not result.exists()
    # The same value as a flag is a usage error naming the flag.
    assert main(["track", "--gt", str(scene_dir / "gt.txt"), "--out",
                 str(result), "--n-test", "0"]) == 1
    assert "usage error: bad --n-test 0: n_test" in capsys.readouterr().err
    assert not result.exists()


def test_out_of_range_oracle_fidelity_key_names_file(tmp_path, capsys):
    scene_dir = _simulate(tmp_path)
    config = tmp_path / "c.ini"
    config.write_text("[oracle]\nfidelity = 2\n")
    out = tmp_path / "out.csv"
    assert main(["ablate", "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
                 "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{config}: [oracle] fidelity = '2'" in err
    assert not out.exists()


_RANGED = [("--n-test", "0", "0"), ("--steps", "0", "0"),
           ("--proportion", "1.5", "1.5"), ("--proportion", "nan", "nan"),
           ("--fidelity", "2", "2.0")]


@pytest.mark.parametrize("command, flag, value, shown", [
    pytest.param(command, *case, id=f"{command}{case[0]}-{case[1]}")
    for command in ("track", "ablate", "sweep", "robustness")
    for case in _RANGED if (command, case[0]) != ("robustness", "--fidelity")
])
def test_out_of_range_pipeline_flag_is_usage_error(tmp_path, capsys, command,
                                                   flag, value, shown):
    # These exited 2 naming the field (n_test, steps, proportion), or, for
    # --fidelity, neither the flag nor the value. Robustness takes no
    # --fidelity.
    scene_dir = _simulate(tmp_path)
    out = tmp_path / ("r.txt" if command == "track" else "out.csv")
    assert main([command, "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
                 flag, value]) == 1
    assert f"usage error: bad {flag} {shown}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [scene_dir]


def test_config_range_bounds_are_inclusive():
    TrackerConfig(conf_threshold=0.0, det_threshold=1.0, max_lost_age=0)
    PipelineConfig(n_test=1, steps=1, proportion=0.0)
    PipelineConfig(proportion=1.0)


def test_manifest_records_oracle_config(tmp_path):
    # Fidelity is the oracle's one setting: the default, or the file's.
    for text, fidelity in (("", 0.9), ("[oracle]\nfidelity = 0.5\n", 0.5)):
        code, _, result = _track_with_config(tmp_path, text)
        assert code == 0
        manifest = json.loads(result.with_suffix(".manifest.json").read_text())
        assert manifest["extra"]["fidelity"] == fidelity
        assert "oracle" not in manifest["extra"]


def test_out_of_range_detection_confidence_is_data_error(tmp_path, capsys):
    code, det, result = _track_det_rows(tmp_path, [
        "1,-1,10,10,20,20,0.9,-1,-1,-1",
        "2,-1,10,10,20,20,5.0,-1,-1,-1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"{det}: frame 2" in err and "5.0" in err
    assert not result.exists()


def test_reader_rejects_out_of_range_confidence(tmp_path):
    # A library caller meets a bad confidence where the file is read, not
    # inside the first pair that scores with it.
    det = tmp_path / "d.txt"
    det.write_text("1,-1,10,10,20,20,0.9,-1,-1,-1\n"
                   "2,-1,10,10,20,20,5.0,-1,-1,-1\n")
    rows = parse_motchallenge(det)
    with pytest.raises(MotFormatError, match=r"frame 2: confidence 5\.0 outside"):
        detections_from_rows(rows)


def test_duplicate_gt_id_in_a_frame_is_data_error(tmp_path, capsys):
    # Scored against itself this file gave MOTA 0.5 and IDF1 1.0, and the
    # oracle kept the second box; ids must be unique within a frame.
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,10,10,20,20,1,1,1.0\n"
                  "1,2,50,50,20,20,1,1,1.0\n"
                  "2,1,12,10,20,20,1,1,1.0\n"
                  "2,1,60,60,20,20,1,1,1.0\n")
    with pytest.raises(MotFormatError, match=r"frame 2: track id 1 listed twice"):
        scene_from_gt(parse_motchallenge(gt), (100, 100))
    result = tmp_path / "result.txt"
    for argv in (["track", "--gt", str(gt), "--image-size", "100x100",
                  "--out", str(result)],
                 ["eval", "--gt", str(gt), "--result", str(gt)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"{gt}: frame 2: track id 1" in err
    assert not result.exists()


def test_duplicate_result_id_in_a_frame_is_data_error(tmp_path, capsys):
    # Scored, this pair of files gave IDF1 1.3333 and exit 0: both copies of
    # each row counted toward track 1's trajectory.
    gt = tmp_path / "g.txt"
    gt.write_text("1,1,10,10,20,20,1,1,1.0\n"
                  "2,1,12,10,20,20,1,1,1.0\n")
    result = tmp_path / "r.txt"
    result.write_text("1,1,10,10,20,20,0.9,-1,-1,-1\n" * 2
                      + "2,1,12,10,20,20,0.9,-1,-1,-1\n" * 2)
    assert main(["eval", "--gt", str(gt), "--result", str(result)]) == 2
    captured = capsys.readouterr()
    assert "IDF1" not in captured.out
    assert f"data error: {result}: frame 1: track id 1 listed twice" in captured.err


_BAD_FIELDS = "frame, id and class must be 64-bit integers and the frame >= 1, got"


@pytest.mark.parametrize("line, reason", [
    ("0,1,10,10,20,20,1,1,1.0", f"{_BAD_FIELDS} 0.0, 1.0, 1.0"),
    ("-3,1,10,10,20,20,1,1,1.0", f"{_BAD_FIELDS} -3.0, 1.0, 1.0"),
    ("1.5,1,10,10,20,20,1,1,1.0", f"{_BAD_FIELDS} 1.5, 1.0, 1.0"),
    ("1,1.6,10,10,20,20,1,1,1.0", f"{_BAD_FIELDS} 1.0, 1.6, 1.0"),
    ("1,1,10,10,20,20,1,2.5,1.0", f"{_BAD_FIELDS} 1.0, 1.0, 2.5"),
    ("1,1e19,10,10,20,20,1,1,1.0", f"{_BAD_FIELDS} 1.0, 1e+19, 1.0"),
])
def test_reader_rejects_bad_frame_id_and_class(tmp_path, line, reason):
    # These fields were truncated to ints: a frame-0 row was scored as a
    # miss and a false positive, and id 1.6 was read as id 1.
    path = tmp_path / "g.txt"
    path.write_text("1,2,10,10,20,20,1,1,1.0\n" + line + "\n")
    with pytest.raises(MotFormatError, match=re.escape(f"{path}: line 2: {reason}")):
        parse_motchallenge(path)


def test_reader_keeps_integral_floats_and_negative_ids(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("2.0,-1,10,10,20,20,0.9,-1,-1,-1\n"
                    "1,7.0,10,10,20,20,0.5,3.0,1.0\n")
    frames = parse_motchallenge(path)
    assert list(frames) == [1, 2]
    assert frames[1].ids.tolist() == [7] and frames[1].cls.tolist() == [3]
    assert frames[2].ids.tolist() == [-1] and frames[2].cls.tolist() == [-1]


def test_bad_frame_or_id_field_is_data_error(tmp_path, capsys):
    # Each of these runs used to exit 0: eval of frame-0 rows printed MOTA
    # 0.6000 with FP 3 and FN 3, and track wrote a result.
    scene_dir = _simulate(tmp_path)
    lines = (scene_dir / "gt.txt").read_text().splitlines(keepends=True)
    frame_zero = tmp_path / "frame0.txt"
    frame_zero.write_text("".join(
        "0" + ln[1:] if ln.startswith("1,") else ln for ln in lines))
    id_fraction = tmp_path / "id.txt"
    id_fraction.write_text(lines[0].replace(",1,", ",1.6,", 1) + "".join(lines[1:]))
    negative = tmp_path / "neg.txt"
    negative.write_text("-3" + lines[0][1:] + "".join(lines[1:]))
    result = tmp_path / "result.txt"
    for bad, argv in ((frame_zero, ["eval", "--result", str(scene_dir / "gt.txt")]),
                      (id_fraction, ["eval", "--result", str(scene_dir / "gt.txt")]),
                      (negative, ["track", "--image-size", "1920x1080",
                                  "--out", str(result)])):
        assert main([*argv, "--gt", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "MOTA" not in captured.out
        assert f"data error: {bad}: line 1: " in captured.err
    assert not result.exists()


def test_config_round_trip(tmp_path):
    # A manifest's config written back as a config file resolves to the same
    # configs: every field is a key, and every key reads back its type.
    cfg = PipelineConfig(
        n_test=64, steps=2, proportion=0.5, padding=PaddingStrategy.CAT_UNIFORM,
        perturbation=PerturbationSchedule.LINEAR,
        variant=Variant.BASELINE,
        tracker=TrackerConfig(conf_threshold=0.3, max_lost_age=7),
    )
    path = tmp_path / "run.manifest.json"
    _write_manifest(path, "track", 0, asdict(cfg))
    snap = json.loads(path.read_text())["config"]
    values = {
        "pipeline": {k: str(v) for k, v in snap.items() if k != "tracker"},
        "tracker": {k: str(v) for k, v in snap["tracker"].items()},
        "oracle": {"fidelity": "0.5"},
    }
    assert resolve_run_config(values) == (cfg, 0.5)
    overridden, fidelity = resolve_run_config(values, n_test=16, padding="full")
    assert overridden == replace(cfg, n_test=16, padding=PaddingStrategy.CAT_FULL)
    assert fidelity == 0.5


def test_pairtrack_seed_sets_the_default_seed(tmp_path, capsys, monkeypatch):
    # A value int() rejects exited 2 with int()'s message, naming neither
    # the variable nor the setting.
    monkeypatch.setenv("PAIRTRACK_SEED", "7")
    assert main(["simulate", "--out", str(tmp_path / "a"), "--objects", "3",
                 "--frames", "5"]) == 0
    assert _read_manifest(tmp_path / "a" / "manifest.json")["seed"] == 7
    monkeypatch.setenv("PAIRTRACK_SEED", "abc")
    assert main(["simulate", "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "PAIRTRACK_SEED" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("seed_flag, env, source", [
    (["--seed", "-1"], None, "--seed"),
    ([], "-3", "PAIRTRACK_SEED"),
], ids=["flag", "env"])
def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch, seed_flag,
                                      env, source):
    # Both exited 2 with numpy's "expected non-negative integer".
    if env is not None:
        monkeypatch.setenv("PAIRTRACK_SEED", env)
    out = tmp_path / "scene"
    assert main(["simulate", "--out", str(out), *seed_flag]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and source in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, flag", [
    ("simulate", ["--occlusion", "1.5"], "--occlusion"),
    ("simulate", ["--occlusion", "nan"], "--occlusion"),
    ("sweep", ["--boxes", "100,0"], "--boxes"),
    ("sweep", ["--boxes", "1.5"], "--boxes"),
    ("sweep", ["--step-counts", "0"], "--step-counts"),
    ("ablate", ["--proportions", "0,1.5"], "--proportions"),
    ("robustness", ["--alphas", "0,1.5"], "--alphas"),
], ids=["occlusion_above_1", "occlusion_nan", "boxes_0", "boxes_fraction",
        "step_counts_0", "proportion_above_1", "alpha_above_1"])
def test_out_of_range_scene_or_grid_flag_is_usage_error(tmp_path, capsys, command,
                                                        flags, flag):
    # The scene and pipeline checks exited 2 naming the field (occlusion_rate,
    # n_test, steps), not the flag.
    if command == "simulate":
        out = tmp_path / "scene"
        argv = ["simulate", "--out", str(out), "--seed", "1", *flags]
    else:
        scene_dir = _simulate(tmp_path)
        out = tmp_path / "out.csv"
        argv = [command, "--gt", str(scene_dir / "gt.txt"), "--out", str(out),
                "--n-test", "16", *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not out.exists()
