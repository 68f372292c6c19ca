"""Workload definitions and input generation for the pairtrack benchmark.

This module imports only the standard library at load time, so that the
set-up probe can time ``import pairtrack`` itself. Every input of a run is
derived from the workload name and the run's seed.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIDELITY = 0.9
MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class Workload:
    """One scene family tracked with an ``OracleDenoiser(FIDELITY)``.

    ``sequences`` scenes make one pass; a run tracks the whole pass once and
    then cycles through it again until its time is up. A sequence whose
    MOTA falls below ``mota_floor`` counts as a failed operation.
    """

    name: str
    motion: str                 # a pairtrack.simulator motion class
    motion_args: tuple[tuple[str, float], ...]
    n_objects: int
    n_frames: int
    occlusion: float
    n_test: int
    steps: int
    sequences: int
    mota_floor: float

    @property
    def pairs_per_pass(self) -> int:
        return self.sequences * (self.n_frames - 1)


# Each workload is sized so one pass takes about 20 s on a 2-core x86 box;
# the shares quoted are of one frame pair, measured with the traced run.
# Two workloads only, so that each run is long enough to average over the
# speed swings of a shared machine; the 500-row nms3d runs in the first.
WORKLOADS = {
    w.name: w
    for w in (
        # Four DDIM steps: the denoiser runs four times per pair (about
        # 60%) and the intermediate re-noising path of ddim_refine runs;
        # nms3d on ~500 rows takes about a third.
        Workload("nonlinear_occ_n500_s4", "NonLinearMotion", (),
                 n_objects=30, n_frames=50, occlusion=0.3, n_test=500, steps=4,
                 sequences=3, mota_floor=0.85),
        # 40 objects but round(0.25 * 100) = 25 association slots, with
        # occlusions: lost-track prediction and reactivation run on every
        # pair, and per-pair fixed overhead is a large share.
        Workload("crowd_occ_n100_s1", "CrowdedMotion", (("density", 0.35),),
                 n_objects=40, n_frames=100, occlusion=0.3, n_test=100, steps=1,
                 sequences=15, mota_floor=0.8),
    )
}


def scene_seed(workload: Workload, seed: int, index: int, attempt: int) -> int:
    """Seed of scene ``index``; distinct across workloads, seeds, positions
    and attempts."""
    key = f"{workload.name}:{seed}:{index}:{attempt}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def import_pairtrack(root: Path = ROOT):
    """Import ``pairtrack`` from ``root/src`` and nowhere else.

    Raises ``ImportError`` when the checkout holds no source tree, so the
    benchmark can never measure some other installed copy.
    """
    src = root / "src"
    if not (src / "pairtrack" / "__init__.py").is_file():
        raise ImportError(f"no pairtrack source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pt = importlib.import_module("pairtrack")
    importlib.import_module("pairtrack.harness.io")
    if Path(pt.__file__).resolve().parent != (src / "pairtrack").resolve():
        raise ImportError(f"pairtrack resolved to {pt.__file__}, not {src}")
    return pt


@dataclass
class Inputs:
    """Everything a run tracks: the scenes with their run seeds, the
    pipeline configuration and the denoiser. The schedule is built here
    only so that set-up time includes it; ``run_sequence`` builds its own."""

    scenes: list
    seeds: list[int]
    cfg: object
    denoiser: object
    schedule: object


def build_inputs(pt, workload: Workload, seed: int) -> Inputs:
    """Generate the run's scenes. A crowd the simulator rejects as not
    fitting the image is redrawn from the next attempt's seed, so every
    seed yields a full pass."""
    motion = getattr(pt, workload.motion)(**dict(workload.motion_args))
    scenes, seeds = [], []
    for index in range(workload.sequences):
        for attempt in range(MAX_ATTEMPTS):
            s = scene_seed(workload, seed, index, attempt)
            spec = pt.SceneSpec(
                n_objects=workload.n_objects, duration=workload.n_frames,
                motion=motion, occlusion_rate=workload.occlusion, seed=s,
            )
            try:
                scenes.append(pt.generate(spec))
            except ValueError as exc:
                if "cannot fit" not in str(exc):
                    raise
                continue
            seeds.append(s)
            break
        else:
            raise ValueError(f"no feasible scene for sequence {index} in "
                             f"{MAX_ATTEMPTS} attempts")
    cfg = pt.PipelineConfig(n_test=workload.n_test, steps=workload.steps)
    return Inputs(scenes, seeds, cfg, pt.OracleDenoiser(FIDELITY), cfg.schedule())
