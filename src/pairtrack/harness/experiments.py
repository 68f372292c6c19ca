"""Experiment drivers: ablation grids, box/step sweeps and detection-noise
robustness, each returning plain row dicts ready for CSV emission."""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..denoiser import Denoiser
from ..diffusion import PaddingStrategy, PerturbationSchedule
from ..metrics import evaluate
from ..pipeline import DetectionStream, PipelineConfig, run_sequence
from ..simulator import SceneGroundTruth, perturb_boxes
from ..tracker import GreedyIoUTracker, TrackerConfig, TrackingResult

__all__ = ["ablate", "sweep", "robustness", "greedy_track", "detection_stream",
           "write_csv"]


def write_csv(rows: Sequence[dict], path: str | Path) -> None:
    rows = list(rows)
    if not rows:
        Path(path).write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _run_once(scene: SceneGroundTruth, cfg: PipelineConfig, denoiser: Denoiser,
              seed: int, stream: DetectionStream | None = None):
    """The report and the seconds per frame pair of one tracked ``scene``,
    its priors taken from ``stream`` when one is given."""
    started = time.perf_counter()
    result = run_sequence(cfg, denoiser, scene=scene, detections=stream, seed=seed)
    elapsed = time.perf_counter() - started
    report = evaluate(scene, result)
    latency = elapsed / max(scene.n_frames - 1, 1)
    return report, latency


def ablate(
    scene: SceneGroundTruth,
    base_cfg: PipelineConfig,
    denoiser: Denoiser,
    proportions: Iterable[float],
    paddings: Iterable[PaddingStrategy],
    perturbations: Iterable[PerturbationSchedule],
    seed: int = 0,
) -> list[dict]:
    """One row per configuration in the full cross product of the three
    ablation factors."""
    rows = []
    for proportion in proportions:
        for padding in paddings:
            for perturbation in perturbations:
                cfg = replace(
                    base_cfg,
                    proportion=proportion,
                    padding=padding,
                    perturbation=perturbation,
                )
                report, _ = _run_once(scene, cfg, denoiser, seed)
                rows.append(
                    {
                        "proportion": proportion,
                        "padding": padding.value,
                        "perturbation": perturbation.value,
                        "seed": seed,
                        "mota": round(report.mota, 6),
                        "idf1": round(report.idf1, 6),
                        "idsw": report.idsw,
                        "frag": report.frag,
                    }
                )
    return rows


def sweep(
    scene: SceneGroundTruth,
    base_cfg: PipelineConfig,
    denoiser: Denoiser,
    box_counts: Iterable[int],
    step_counts: Iterable[int],
    seeds: Iterable[int],
) -> list[dict]:
    """Box-count x step-count grid with wall-clock latency per frame pair."""
    rows = []
    for n_test in box_counts:
        for steps in step_counts:
            cfg = replace(base_cfg, n_test=n_test, steps=steps)
            motas, latencies = [], []
            for seed in seeds:
                report, latency = _run_once(scene, cfg, denoiser, seed)
                motas.append(report.mota)
                latencies.append(latency)
            rows.append(
                {
                    "boxes": n_test,
                    "steps": steps,
                    "seeds": len(motas),
                    "mota": round(float(np.mean(motas)), 6),
                    "latency_per_pair_s": round(float(np.mean(latencies)), 6),
                }
            )
    return rows


def detection_stream(
    scene: SceneGroundTruth,
    alpha: float = 0.0,
    rng: np.random.Generator | None = None,
) -> DetectionStream:
    """Each frame's visible ground-truth boxes as detections of confidence
    1, blended toward noise by ``perturb_boxes``. Alpha 0 draws nothing, so
    it needs no ``rng`` and gives the boxes unchanged; a larger alpha
    without one is a ``ValueError``."""
    if alpha > 0.0 and rng is None:
        raise ValueError(f"alpha {alpha} needs an rng to draw the noise from")
    stream = {}
    for frame in range(1, scene.n_frames + 1):
        boxes = perturb_boxes(scene.visible_boxes(frame), alpha, rng, scene.image_size)
        stream[frame] = np.column_stack([boxes, np.ones(len(boxes))])
    return stream


def greedy_track(
    detections: DetectionStream, n_frames: int, cfg: TrackerConfig
) -> TrackingResult:
    """Run the bundled greedy-IoU reference tracker over a detection stream."""
    tracker = GreedyIoUTracker(cfg)
    result = TrackingResult()
    for frame in range(1, n_frames + 1):
        boxes = detections.get(frame, np.zeros((0, 5)))
        result.add(frame, tracker.update(frame, boxes))
    return result


def robustness(
    scene: SceneGroundTruth,
    base_cfg: PipelineConfig,
    denoiser: Denoiser,
    alphas: Iterable[float],
    seeds: Iterable[int],
) -> list[dict]:
    """MOTA versus detection noise for the diffusion pipeline and for the
    greedy-IoU reference, under one tracker config. Both trackers get the
    same detection stream, built once per (seed, alpha)."""
    rows = []
    seeds = list(seeds)
    for alpha in alphas:
        diff_motas, greedy_motas = [], []
        for seed in seeds:
            stream = detection_stream(scene, alpha, np.random.default_rng([seed, 2]))
            report, _ = _run_once(scene, base_cfg, denoiser, seed, stream)
            diff_motas.append(report.mota)
            greedy = greedy_track(stream, scene.n_frames, base_cfg.tracker)
            greedy_motas.append(evaluate(scene, greedy).mota)
        rows.append(
            {
                "alpha": alpha,
                "seeds": len(seeds),
                "diffusion_mota": round(float(np.mean(diff_motas)), 6),
                "greedy_mota": round(float(np.mean(greedy_motas)), 6),
            }
        )
    return rows
