"""Tests of the benchmark runner itself, at tiny scene sizes."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer, instrument, pair_windows, self_times  # noqa: E402
from workloads import WORKLOADS, build_inputs, import_pairtrack  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pt():
    return import_pairtrack()


def tiny(name, mota_floor=0.0):
    """A few objects over a few frames; short scenes score low MOTA."""
    return dataclasses.replace(
        WORKLOADS[name], n_objects=5, n_frames=6, n_test=40, sequences=2,
        mota_floor=mota_floor,
    )


def test_spec_names_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_unit(pt, name, tmp_path):
    wl = tiny(name)
    plain = run.measure(pt, wl, 3, seconds=0, setup_repeats=1, out_dir=tmp_path)
    traced = run.measure_traced(pt, wl, 3, out_dir=tmp_path)
    assert traced["hashes_match"]
    assert traced["result_sha256"]["untraced"] == plain["result_sha256"]
    for report, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        line = json.loads(run.result_line(report))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


def _pass_hash(pt, wl, seed, path):
    ops = run.run_pass(pt, wl, build_inputs(pt, wl, seed), path, None)
    assert all(op.error is None for op in ops)
    return run.pass_sha256(ops)


def test_seed_fixes_inputs_and_hash(pt, tmp_path):
    wl = tiny("crowd_occ_n100_s1")
    path = tmp_path / "result.txt"
    assert _pass_hash(pt, wl, 5, path) == _pass_hash(pt, wl, 5, path)
    a, b = build_inputs(pt, wl, 5), build_inputs(pt, wl, 6)
    assert a.seeds != b.seeds
    assert a.scenes[0].frames[1] != b.scenes[0].frames[1]
    assert _pass_hash(pt, wl, 5, path) != _pass_hash(pt, wl, 6, path)


def test_pair_self_times_fit_in_pair(pt, tmp_path):
    wl = tiny("nonlinear_occ_n500_s4")
    originals = (pt.pipeline.nms3d, pt.tracker.Tracker.step,
                 pt.OracleDenoiser.denoise_batch, pt.generate)
    tracer = Tracer()
    with instrument(tracer, pt):
        inputs = build_inputs(pt, wl, 7)
        for index in range(wl.sequences):
            run.run_operation(pt, wl, inputs, index, tmp_path / "result.txt",
                              None, tracer)
    assert originals == (pt.pipeline.nms3d, pt.tracker.Tracker.step,
                         pt.OracleDenoiser.denoise_batch, pt.generate)

    own = self_times(tracer.spans)
    per_pair = defaultdict(float)
    for s in tracer.spans:
        if s.pair is not None:
            per_pair[s.pair] += own[s.id]
    windows = pair_windows(tracer.spans)
    assert len(windows) == wl.pairs_per_pass
    assert set(per_pair) == set(windows)
    for pair, (start, end) in windows.items():
        assert per_pair[pair] <= end - start + 1e-9
    assert min(own.values()) >= -1e-9


def _duplicate_id(result):
    rows = result.frames[min(result.frames)]
    rows.append(rows[0])


def _non_finite(result):
    rows = result.frames[max(result.frames)]
    box = rows[0].box
    rows[0] = dataclasses.replace(rows[0], box=dataclasses.replace(box, w=math.nan))


def _raise(result):
    raise RuntimeError("injected")


def _inject(pt, monkeypatch, inject):
    real = pt.pipeline.run_sequence

    def bad_run_sequence(*args, **kwargs):
        result = real(*args, **kwargs)
        inject(result)
        return result

    monkeypatch.setattr(pt.pipeline, "run_sequence", bad_run_sequence)


@pytest.mark.parametrize("inject, reason", [
    (_non_finite, "non-finite"),
    (_raise, "raised RuntimeError"),
])
def test_bad_operation_fails(pt, tmp_path, monkeypatch, inject, reason):
    _inject(pt, monkeypatch, inject)
    wl = tiny("crowd_occ_n100_s1")
    ops = run.run_pass(pt, wl, build_inputs(pt, wl, 3), tmp_path / "r.txt", None)
    assert all(reason in op.error for op in ops)


def test_mota_below_floor_fails(pt, tmp_path):
    wl = tiny("crowd_occ_n100_s1", mota_floor=1.01)
    ops = run.run_pass(pt, wl, build_inputs(pt, wl, 3), tmp_path / "r.txt", None)
    assert all("below floor" in op.error for op in ops)


def test_duplicate_id_counted_as_failed(pt, tmp_path, monkeypatch):
    _inject(pt, monkeypatch, _duplicate_id)
    wl = tiny("crowd_occ_n100_s1")
    report = run.measure(pt, wl, 3, seconds=0, setup_repeats=1, out_dir=tmp_path)
    assert report["failed"] == report["attempted"] == wl.sequences
    assert not report["correct"]
    assert "repeated" in report["failures"][0]
    assert json.loads(run.result_line(report))["failed"] == wl.sequences


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd_occ_n100_s1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
