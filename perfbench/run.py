"""Benchmark runner for pairtrack: oracle-denoiser tracking workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload nonlinear_occ_n500_s4 --seed 1 --seconds 50 --trace 0

One operation is one sequence tracked with ``pipeline.run_sequence``,
written with ``harness.io.write_results`` and scored with
``metrics.evaluate``. A run tracks every sequence of its pass once, then
cycles through the pass again until ``--seconds`` have passed; a repeated
sequence must reproduce its first result byte for byte. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` tracks each sequence once
untraced and once traced and reports the per-layer metrics. The full
report goes to ``perfbench/out/``; the last line of standard output is the
result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer, instrument, layer_metrics, step_clock
from workloads import (
    ROOT, WORKLOADS, Inputs, Workload, build_inputs, import_pairtrack,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WARMUP_FRAMES = 6
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    """One attempted operation; ``error`` is None when it succeeded."""

    index: int
    pairs: int = 0
    wall: float = 0.0
    intervals: tuple[float, ...] = ()
    sha256: str = ""
    text: str = ""
    report: object = None
    rows: int = 0
    error: str | None = None


def check_result(result, report, floor: float) -> str | None:
    """Why a tracked sequence counts as failed, or None when it is valid."""
    for frame, rows in result.frames.items():
        ids = [r.track_id for r in rows]
        if len(ids) != len(set(ids)):
            return f"track id repeated in frame {frame}"
        for r in rows:
            b = r.box
            if not all(math.isfinite(v) for v in (b.cx, b.cy, b.w, b.h)):
                return f"non-finite box for track {r.track_id} in frame {frame}"
    if not report.mota >= floor:
        return f"MOTA {report.mota:.4f} below floor {floor}"
    return None


def run_operation(pt, wl: Workload, inputs: Inputs, index: int, path: Path,
                  marks: list[float] | None, tracer: Tracer | None = None) -> Op:
    """Track, write and score sequence ``index`` of the pass.

    ``marks`` receives step-return timestamps from ``step_clock``; the
    first pair's interval starts at the ``run_sequence`` call.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    scene, seed = inputs.scenes[index], inputs.seeds[index]
    op = Op(index)
    if marks is not None:
        marks.clear()
    t0 = perf_counter()
    try:
        with span("operation"):
            with span("pipeline.run_sequence"):
                result = pt.pipeline.run_sequence(
                    inputs.cfg, inputs.denoiser, scene=scene, seed=seed)
            with span("harness.io.write_results"):
                pt.harness.io.write_results(result, path)
            with span("metrics.evaluate"):
                report = pt.metrics.evaluate(scene, result)
        op.wall = perf_counter() - t0
        op.text = path.read_text()
    except Exception as exc:  # a raising operation is a failed one
        op.error = f"raised {type(exc).__name__}: {exc}"
        return op
    op.pairs = scene.n_frames - 1
    op.report = report
    op.rows = sum(len(rows) for rows in result.frames.values())
    op.sha256 = hashlib.sha256(op.text.encode()).hexdigest()
    if marks is not None:
        stamps = [t0, *marks]
        op.intervals = tuple(b - a for a, b in zip(stamps, stamps[1:]))
        if len(op.intervals) != op.pairs:
            op.error = f"{len(op.intervals)} step returns for {op.pairs} pairs"
            return op
    op.error = check_result(result, report, wl.mota_floor)
    return op


def warm_up(pt, inputs: Inputs, path: Path) -> None:
    """Track the first frames of the first scene once, untimed, so lazy
    imports and first-call costs land outside the measurement."""
    scene = inputs.scenes[0]
    frames = min(WARMUP_FRAMES, scene.n_frames)
    short = pt.SceneGroundTruth(
        image_size=scene.image_size, n_frames=frames,
        frames={f: scene.frames[f] for f in range(1, frames + 1)},
    )
    result = pt.pipeline.run_sequence(inputs.cfg, inputs.denoiser,
                                      scene=short, seed=inputs.seeds[0])
    pt.harness.io.write_results(result, path)
    pt.metrics.evaluate(short, result)


def run_pass(pt, wl, inputs, path, marks, seconds=0.0) -> list[Op]:
    """Every sequence once, then round again until ``seconds`` have passed.
    A sequence starts only while more than half the last one's wall time is
    left, so a run ends within about half a sequence of ``seconds``. A
    repeat whose result differs from the first pass fails."""
    n = len(inputs.scenes)
    ops: list[Op] = []
    deadline = perf_counter() + seconds
    while len(ops) < n or perf_counter() + ops[-1].wall / 2 < deadline:
        op = run_operation(pt, wl, inputs, len(ops) % n, path, marks)
        if len(ops) >= n:
            op.text = ""  # the first pass keeps the texts for the run's hash
            if op.error is None and op.sha256 != ops[op.index].sha256:
                op.error = "result differs from the first pass"
        ops.append(op)
    return ops


def pass_sha256(ops: list[Op]) -> str:
    """SHA-256 of the pass's MOT result texts, concatenated in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.text.encode())
    return h.hexdigest()


def pooled_accuracy(ops: list[Op]) -> tuple[float, float]:
    """MOTA and IDF1 pooled over sequences: MOTA from summed error counts,
    IDF1 from summed identity true positives (recovered per sequence as
    idf1 * (gt boxes + result rows) / 2)."""
    scored = [op for op in ops if op.report is not None]
    gt = sum(op.report.gt_count for op in scored)
    if not gt:
        return 0.0, 0.0
    errors = sum(op.report.fn + op.report.fp + op.report.idsw for op in scored)
    idtp = sum(op.report.idf1 * (op.report.gt_count + op.rows) / 2 for op in scored)
    boxes = sum(op.report.gt_count + op.rows for op in scored) / 2
    return 1.0 - errors / gt, idtp / boxes


def setup_samples(wl: Workload, seed: int, repeats: int) -> list[float]:
    """Set-up seconds from ``repeats`` fresh interpreters, one at a time."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _git_sha(root: Path) -> str | None:
    """HEAD's commit from the .git directory, when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _tree_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def provenance(pt, wl: Workload, seed: int, ops: list[Op]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _tree_sha256(ROOT / "src"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pairtrack": pt.__version__,
        "blas": blas.get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload_seed": seed,
        "sequences_per_pass": wl.sequences,
        "pairs_per_pass": wl.pairs_per_pass,
        "sequences_run": len(ops),
        "pairs_run": sum(op.pairs for op in ops),
    }


def _pairs_per_s(ops: list[Op]) -> float:
    """Pairs completed over the wall time of track + write + score."""
    good = [op for op in ops if op.error is None]
    wall = sum(op.wall for op in good)
    return sum(op.pairs for op in good) / wall if wall else 0.0


def _failures(ops: list[Op]) -> list[str]:
    return [f"sequence {op.index}: {op.error}" for op in ops if op.error]


def measure(pt, wl: Workload, seed: int, seconds: float,
            setup_repeats: int = SETUP_REPEATS, out_dir: Path = OUT) -> dict:
    """The untraced run: end-to-end metrics and the result hash."""
    setup = setup_samples(wl, seed, setup_repeats)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{wl.name}-seed{seed}-result.txt"
    inputs = build_inputs(pt, wl, seed)
    warm_up(pt, inputs, path)
    marks: list[float] = []
    with step_clock(pt, marks):
        ops = run_pass(pt, wl, inputs, path, marks, seconds=seconds)

    first = ops[: wl.sequences]
    good = [op for op in ops if op.error is None]
    intervals_ms = [x * 1e3 for op in good for x in op.intervals]
    if len(intervals_ms) >= 2:
        p50 = statistics.median(intervals_ms)
        p90 = statistics.quantiles(intervals_ms, n=10)[8]
    else:
        p50 = p90 = 0.0
    mota, idf1 = pooled_accuracy(first)
    metrics = {
        "pairs_per_s": (_pairs_per_s(ops), "pairs/s"),
        "pair_ms_p50": (p50, "ms"),
        "pair_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mota": (mota, "ratio"),
        "idf1": (idf1, "ratio"),
    }
    failed = sum(op.error is not None for op in ops)
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": 0,
        "provenance": provenance(pt, wl, seed, ops),
        "attempted": len(ops), "failed": failed, "failures": _failures(ops),
        "correct": failed == 0,
        "result_sha256": pass_sha256(first),
        "latency_samples": len(intervals_ms),
        "samples_above_p90": sum(x > p90 for x in intervals_ms),
        "setup_samples_s": setup,
        "sequences": [
            {"seed": s, "sha256": op.sha256,
             "mota": op.report.mota if op.report else None,
             "idf1": op.report.idf1 if op.report else None}
            for s, op in zip(inputs.seeds, first)
        ],
        "metrics": metrics,
    }


def measure_traced(pt, wl: Workload, seed: int, out_dir: Path = OUT) -> dict:
    """Each sequence once untraced, then once traced, in turn, so both
    see the same machine state; the two result hashes must match. Spans
    are written out when the run ends."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{wl.name}-seed{seed}-result.txt"
    tracer = Tracer()
    with instrument(tracer, pt):
        inputs = build_inputs(pt, wl, seed)
    warm_up(pt, inputs, path)
    marks: list[float] = []
    plain, traced = [], []
    for index in range(wl.sequences):
        with step_clock(pt, marks):
            plain.append(run_operation(pt, wl, inputs, index, path, marks))
        with instrument(tracer, pt):
            traced.append(run_operation(pt, wl, inputs, index, path, None, tracer))
    tracer.write(out_dir / f"{wl.name}-seed{seed}-spans.jsonl")

    metrics = layer_metrics(tracer.spans)
    plain_rate, traced_rate = _pairs_per_s(plain), _pairs_per_s(traced)
    overhead = (plain_rate / traced_rate - 1.0) * 100 if traced_rate else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    ops = plain + traced
    failed = sum(op.error is not None for op in ops)
    hashes = {"untraced": pass_sha256(plain), "traced": pass_sha256(traced)}
    return {
        "workload": wl.name, "seed": seed, "trace": 1,
        "provenance": provenance(pt, wl, seed, ops),
        "attempted": len(ops), "failed": failed, "failures": _failures(ops),
        "result_sha256": hashes,
        "hashes_match": hashes["untraced"] == hashes["traced"],
        "correct": failed == 0 and hashes["untraced"] == hashes["traced"],
        "spans": len(tracer.spans),
        "metrics": metrics,
    }


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    # The load is one single-threaded process; pin BLAS before numpy loads.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    try:
        pt = import_pairtrack()
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if args.trace:
        report = measure_traced(pt, wl, args.seed)
    else:
        report = measure(pt, wl, args.seed, args.seconds)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}, indent=2))
    for metric, (value, unit) in report["metrics"].items():
        print(f"{metric:32s} {value:14.4f} {unit}")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
