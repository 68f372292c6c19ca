"""Golden result files: byte-identical tracks from two seeded oracle scenes.

The hashes pin the exact bytes ``write_results`` emits, so a change meant
to speed the engine up without changing its tracks shows here at once. A
change that alters tracks on purpose must update them and say why.
"""

from __future__ import annotations

import hashlib

import pytest

import pairtrack as pt
from pairtrack.harness.io import write_results

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
    path = tmp_path / "result.txt"
    write_results(result, path)
    data = path.read_bytes()
    digest, n_rows = GOLDEN[name]
    assert len(data.splitlines()) == n_rows
    assert hashlib.sha256(data).hexdigest() == digest
