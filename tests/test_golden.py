"""Golden result files: byte-identical tracks from two seeded oracle scenes.

The hashes pin the exact bytes ``write_results`` emits, so a change meant
to speed the engine up without changing its tracks shows here at once. A
change that alters tracks on purpose must update them and say why.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import pairtrack as pt
from pairtrack.harness import experiments
from pairtrack.harness.experiments import (
    ablate,
    detection_stream,
    robustness,
    sweep,
)
from pairtrack.harness.io import (
    detections_from_rows,
    parse_motchallenge,
    scene_from_gt,
    write_gt,
    write_results,
)

GOLDEN = {
    # NonLinearMotion, 10 objects x 20 frames, 30% occlusion, scene seed 5;
    # diffusion, n_test=500, four DDIM steps, run seed 1.
    "diffusion_n500_s4": (
        "2cc5dc0d169e221bc0dea54471393c79e4dd90c8bf0b86b20b990f5a180d78ae", 193,
    ),
    # CrowdedMotion(0.35), 10 objects x 20 frames, 30% occlusion, scene
    # seed 6; baseline (conditional pairs), n_test=100, one step, run seed 2.
    "baseline_n100_s1": (
        "fb940a4f9576ea450c4194a8e1e516e14d1bd6ebc92958bdd2804704d1c28852", 182,
    ),
}

# ``evaluate`` of each GOLDEN run against its own scene, every field exact.
# The diffusion run's frag was 2 while an occluded frame counted as a miss.
GOLDEN_REPORTS = {
    "diffusion_n500_s4": pt.MetricsReport(
        mota=0.9846938775510204, idf1=0.9922879177377892, idsw=0, frag=1, fp=0,
        fn=3, gt_count=196,
    ),
    "baseline_n100_s1": pt.MetricsReport(
        mota=0.9191919191919192, idf1=0.9578947368421052, idsw=0, frag=0, fp=0,
        fn=16, gt_count=198,
    ),
}


def _scene_and_config(name):
    if name == "diffusion_n500_s4":
        spec = pt.SceneSpec(n_objects=10, duration=20, motion=pt.NonLinearMotion(),
                            occlusion_rate=0.3, seed=5)
        return pt.generate(spec), pt.PipelineConfig(n_test=500, steps=4), 1
    spec = pt.SceneSpec(n_objects=10, duration=20, motion=pt.CrowdedMotion(0.35),
                        occlusion_rate=0.3, seed=6)
    cfg = pt.PipelineConfig(n_test=100, steps=1, variant=pt.Variant.BASELINE)
    return pt.generate(spec), cfg, 2


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_file_bytes_pinned(name, tmp_path):
    scene, cfg, seed = _scene_and_config(name)
    result = pt.run_sequence(cfg, pt.OracleDenoiser(0.9), scene=scene, seed=seed)
    assert _digest(result, tmp_path) == GOLDEN[name]
    assert pt.evaluate(scene, result) == GOLDEN_REPORTS[name]


def test_crowd_gt_file_bytes_pinned(tmp_path):
    # The baseline GOLDEN scene: CrowdedMotion(0.35), 10 objects x 20 frames,
    # 30% occlusion, scene seed 6, written as a GT file.
    scene, _, _ = _scene_and_config("baseline_n100_s1")
    write_gt(scene, tmp_path / "gt.txt")
    data = (tmp_path / "gt.txt").read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data.splitlines())) == (
        "7fec82d5a288bbd2fc4cec83962a95187f790322cee600c9ba880a464e2329ef", 200,
    )


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "occluded"])
def test_written_gt_reads_back_to_the_same_bytes(name, tmp_path):
    if name == "occluded":
        scene = pt.generate(pt.SceneSpec(
            n_objects=6, duration=8, motion=pt.CrowdedMotion(0.35),
            occlusion_rate=0.6, seed=4,
        ))
    else:
        scene, _, _ = _scene_and_config(name)
    assert not all(gt.visible.all() for gt in scene.frames.values())
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_gt(scene, first)
    write_gt(scene_from_gt(parse_motchallenge(first), scene.image_size), second)
    assert first.read_bytes() == second.read_bytes()


def _digest(result, tmp_path):
    """SHA-256 and row count of the result file ``write_results`` emits."""
    path = tmp_path / "result.txt"
    write_results(result, path)
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data.splitlines())


def test_snap_run_from_written_gt_pinned(tmp_path):
    # NonLinearMotion, 8 objects x 15 frames, 30% occlusion, scene seed 3,
    # written as a GT file and read back as detections (occluded rows
    # dropped); snap denoiser, n_test=100, two steps, run seed 4. Pinned
    # with the snap floor: MOTA 0.903 and 3 IDSW, against 0.735 and 17 when
    # members snapped onto detections they did not overlap.
    spec = pt.SceneSpec(n_objects=8, duration=15, motion=pt.NonLinearMotion(),
                        occlusion_rate=0.3, seed=3)
    scene = pt.generate(spec)
    write_gt(scene, tmp_path / "gt.txt")
    assert hashlib.sha256((tmp_path / "gt.txt").read_bytes()).hexdigest() == (
        "4c2503269435454a5367cfdcff545f054c5524540663c57bf7611d27bf5bec15"
    )
    detections = detections_from_rows(parse_motchallenge(tmp_path / "gt.txt"))
    result = pt.run_sequence(
        pt.PipelineConfig(n_test=100, steps=2), pt.DetectionSnapDenoiser(),
        detections=detections, image_size=scene.image_size, seed=4,
    )
    assert _digest(result, tmp_path) == (
        "7e55f9257248c945a6e84367af930136fa57658856a2f8ff51ca5a4a05d2194b", 105,
    )


def _linear_scene():
    # LinearMotion, 5 objects x 12 frames, 30% occlusion, scene seed 2.
    return pt.generate(pt.SceneSpec(n_objects=5, duration=12,
                                    occlusion_rate=0.3, seed=2))


def test_robustness_rows_pinned():
    # n_test=50, seeds 0 and 1. Both arms track one detection stream per
    # (seed, alpha); the diffusion arm read 0.973684, 0.973684, 0.973684
    # and 0.964912 while it ran the oracle on perturbed priors instead.
    rows = robustness(_linear_scene(), pt.PipelineConfig(n_test=50),
                      pt.DetectionSnapDenoiser(), alphas=[0.0, 0.02, 0.05, 0.5],
                      seeds=[0, 1])
    assert rows == [
        {"alpha": 0.0, "seeds": 2, "diffusion_mota": 0.929825, "greedy_mota": 1.0},
        {"alpha": 0.02, "seeds": 2, "diffusion_mota": 0.684211,
         "greedy_mota": 0.701754},
        {"alpha": 0.05, "seeds": 2, "diffusion_mota": -0.614035,
         "greedy_mota": -0.684211},
        {"alpha": 0.5, "seeds": 2, "diffusion_mota": -0.684211, "greedy_mota": -1.0},
    ]


def test_robustness_feeds_one_stream_to_both_trackers(monkeypatch):
    # The diffusion arm ran the oracle on ground truth with perturbed
    # priors, while only the greedy arm saw perturbed detections.
    scene = _linear_scene()
    diffusion_calls, greedy_calls = [], []
    real_run, real_greedy = experiments.run_sequence, experiments.greedy_track
    cfg = pt.PipelineConfig(n_test=20)

    def run_spy(run_cfg, denoiser, **kwargs):
        diffusion_calls.append((denoiser, kwargs))
        return real_run(run_cfg, denoiser, **kwargs)

    def greedy_spy(stream, n_frames, tracker_cfg):
        assert tracker_cfg is cfg.tracker
        greedy_calls.append(stream)
        return real_greedy(stream, n_frames, tracker_cfg)

    monkeypatch.setattr(experiments, "run_sequence", run_spy)
    monkeypatch.setattr(experiments, "greedy_track", greedy_spy)
    robustness(scene, cfg, pt.DetectionSnapDenoiser(), alphas=[0.0, 0.05],
               seeds=[0, 1])
    cells = [(alpha, seed) for alpha in (0.0, 0.05) for seed in (0, 1)]
    assert len(diffusion_calls) == len(greedy_calls) == len(cells)
    for (denoiser, kwargs), stream, (alpha, seed) in zip(
        diffusion_calls, greedy_calls, cells
    ):
        assert isinstance(denoiser, pt.DetectionSnapDenoiser)
        assert kwargs["detections"] is stream
        assert kwargs["seed"] == seed
        want = detection_stream(scene, alpha, np.random.default_rng([seed, 2]))
        assert stream.keys() == want.keys()
        assert all(np.array_equal(stream[f], want[f]) for f in want)


def test_noisy_detection_stream_needs_rng():
    scene = _linear_scene()
    with pytest.raises(ValueError, match="rng"):
        detection_stream(scene, 0.1)
    # Alpha 0 draws nothing and gives the visible boxes.
    clean = detection_stream(scene, 0.0)
    assert all(np.array_equal(clean[f][:, :4], scene.visible_boxes(f))
               for f in range(1, scene.n_frames + 1))


def test_ablate_rows_pinned():
    # n_test=50, fidelity 0.9, run seed 1.
    rows = ablate(
        _linear_scene(), pt.PipelineConfig(n_test=50), pt.OracleDenoiser(0.9),
        proportions=[0.0, 0.5],
        paddings=[pt.PaddingStrategy.REPEAT, pt.PaddingStrategy.CAT_GAUSSIAN],
        perturbations=[pt.PerturbationSchedule.CONSTANT,
                       pt.PerturbationSchedule.LOGARITHMIC],
        seed=1,
    )
    assert [(r["proportion"], r["padding"], r["perturbation"], r["seed"],
             r["mota"], r["idf1"], r["idsw"], r["frag"]) for r in rows] == [
        (0.0, "repeat", "constant", 1, 0.350877, 0.519481, 0, 0),
        (0.0, "repeat", "logarithmic", 1, 0.22807, 0.371429, 0, 1),
        (0.0, "gaussian", "constant", 1, 0.894737, 0.944444, 0, 2),
        (0.0, "gaussian", "logarithmic", 1, 0.982456, 0.99115, 0, 0),
        (0.5, "repeat", "constant", 1, 0.350877, 0.519481, 0, 0),
        (0.5, "repeat", "logarithmic", 1, 0.350877, 0.519481, 0, 0),
        (0.5, "gaussian", "constant", 1, 0.982456, 0.99115, 0, 0),
        (0.5, "gaussian", "logarithmic", 1, 0.982456, 0.99115, 0, 0),
    ]
    assert list(rows[0]) == ["proportion", "padding", "perturbation", "seed",
                             "mota", "idf1", "idsw", "frag"]


def test_sweep_rows_pinned():
    # Fidelity 0.9, seeds 0 and 1. The latency column is wall time, so only
    # its presence is checked.
    rows = sweep(_linear_scene(), pt.PipelineConfig(n_test=50),
                 pt.OracleDenoiser(0.9), box_counts=[20, 50], step_counts=[1, 2],
                 seeds=[0, 1])
    assert [list(r) for r in rows] == [
        ["boxes", "steps", "seeds", "mota", "latency_per_pair_s"]
    ] * 4
    assert [(r["boxes"], r["steps"], r["seeds"], r["mota"]) for r in rows] == [
        (20, 1, 2, 0.947368),
        (20, 2, 2, 0.938596),
        (50, 1, 2, 0.973684),
        (50, 2, 2, 0.973684),
    ]
