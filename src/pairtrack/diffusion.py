"""Noise schedule and the inference-time proposal/refinement machinery.

Inference only refines: proposals are built from priors plus padding,
corrupted toward noise by a motion-dependent amount, and denoised by a
one-step or multi-step DDIM ladder over the cosine schedule. The schedule
is this module's: one table of ``TIMESTEPS`` steps, which no caller builds
or passes. ``single_step_noise`` is the forward Markov step that ``BETA``
defines; chaining it reproduces ``ALPHA_BAR``.

Box coordinates travel through three spaces: pixels, unit (normalized by
image size into [0, 1]) and signal ([-SIGNAL_SCALE, SIGNAL_SCALE]).
Padding is sampled in unit space; proposals, corruption and the DDIM update
live in signal space, which this module owns: denoisers see and return
pixels, and ``ddim_refine`` makes the only crossings to and from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .denoiser import (
    CandidateBatch,
    Denoiser,
    DenoisedBatch,
    FrameContext,
    ProposalOrigin,
)

__all__ = [
    "TIMESTEPS",
    "ALPHA_BAR",
    "BETA",
    "corruption_alpha",
    "single_step_noise",
    "PaddingStrategy",
    "PerturbationSchedule",
    "ProposalSet",
    "build_inference_proposals",
    "perturbation_timestep",
    "corrupt_proposals",
    "ddim_refine",
    "round_half_up",
    "pixel_to_signal",
    "signal_to_pixel",
]

SIGNAL_SCALE = 2.0


def round_half_up(value: float) -> int:
    """Round to nearest integer with halves going up; used for all counts."""
    return int(math.floor(value + 0.5))


def pixel_to_signal(boxes: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Map pixel-space (cx, cy, w, h) rows into the signal range.

    Accepts (n, 4) single boxes or (n, 8) flattened pairs.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    w, h = image_size
    norm = np.tile([w, h, w, h], boxes.shape[-1] // 4)
    return (boxes / norm * 2.0 - 1.0) * SIGNAL_SCALE


def signal_to_pixel(signal: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`pixel_to_signal`, with clamping to the valid range."""
    signal = np.clip(np.asarray(signal, dtype=np.float64), -SIGNAL_SCALE, SIGNAL_SCALE)
    w, h = image_size
    norm = np.tile([w, h, w, h], signal.shape[-1] // 4)
    return (signal / SIGNAL_SCALE + 1.0) / 2.0 * norm


TIMESTEPS = 1000


def _cosine_tables() -> tuple[np.ndarray, np.ndarray]:
    """Squared-cosine schedule; betas clipped to keep every step in (0, 1)."""
    offset = 0.008
    t = np.arange(TIMESTEPS + 1, dtype=np.float64)
    f = np.cos((t / TIMESTEPS + offset) / (1 + offset) * math.pi / 2) ** 2
    alpha_bar = f / f[0]
    beta = np.zeros(TIMESTEPS + 1)
    beta[1:] = np.clip(1.0 - alpha_bar[1:] / alpha_bar[:-1], 1e-8, 0.9995)
    # Rebuild the cumulative table from the clipped betas so the two stay
    # consistent and alpha_bar remains strictly positive and decreasing.
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta[1:])])
    for table in (alpha_bar, beta):
        table.flags.writeable = False
    return alpha_bar, beta


# The one forward process, which corruption follows and DDIM reverses:
# cumulative signal retention ``ALPHA_BAR`` has TIMESTEPS + 1 entries with
# ``ALPHA_BAR[0] == 1``; ``BETA`` is index-aligned with ``BETA[0] == 0`` as
# padding, so ``BETA[t]`` is the per-step variance of step t in 1..TIMESTEPS.
ALPHA_BAR, BETA = _cosine_tables()


def corruption_alpha(t: int) -> float:
    """The weight ``1 - sqrt(ALPHA_BAR[t])`` with which proposals at
    timestep t are blended toward noise."""
    return 1.0 - math.sqrt(ALPHA_BAR[t])


def single_step_noise(z: np.ndarray, t: int, noise: np.ndarray) -> np.ndarray:
    """One Markov step from timestep t-1 to t."""
    if not 1 <= t <= TIMESTEPS:
        raise ValueError(f"timestep {t} outside [1, {TIMESTEPS}]")
    b = BETA[t]
    return math.sqrt(1.0 - b) * np.asarray(z) + math.sqrt(b) * np.asarray(noise)


class PaddingStrategy(Enum):
    """How extra rows are produced when filling a batch to a fixed size."""

    REPEAT = "repeat"
    CAT_GAUSSIAN = "gaussian"
    CAT_POISSON = "poisson"
    CAT_UNIFORM = "uniform"
    CAT_FULL = "full"


# Unit-space sampling parameters for the padding distributions. The
# Gaussian follows the noise-to-box convention of mean 0.5, sigma 1/6
# (3 sigma spans the image); the Poisson is scaled to the same mean.
GAUSSIAN_PAD_MEAN = 0.5
GAUSSIAN_PAD_STD = 1.0 / 6.0
POISSON_PAD_LAM = 4.0


def _full_image_row() -> np.ndarray:
    return np.array([0.5, 0.5, 1.0, 1.0] * 2)


def _sample_pad_rows(
    n: int, strategy: PaddingStrategy, rng: np.random.Generator
) -> np.ndarray:
    if strategy is PaddingStrategy.CAT_GAUSSIAN:
        return rng.normal(GAUSSIAN_PAD_MEAN, GAUSSIAN_PAD_STD, size=(n, 8))
    if strategy is PaddingStrategy.CAT_POISSON:
        return rng.poisson(POISSON_PAD_LAM, size=(n, 8)) / (2.0 * POISSON_PAD_LAM)
    if strategy is PaddingStrategy.CAT_UNIFORM:
        return rng.uniform(0.0, 1.0, size=(n, 8))
    if strategy in (PaddingStrategy.CAT_FULL, PaddingStrategy.REPEAT):
        # REPEAT lands here only with no prior left to repeat.
        return np.tile(_full_image_row(), (n, 1))
    raise ValueError(f"{strategy} does not sample rows")


class PerturbationSchedule(Enum):
    """Maps average inter-frame motion x in [0, 1] to a timestep fraction."""

    CONSTANT = "constant"
    LINEAR = "linear"
    EXPONENTIAL = "exponential"
    LOGARITHMIC = "logarithmic"

    def fraction(self, x: float) -> float:
        if self is PerturbationSchedule.CONSTANT:
            return 0.4
        if self is PerturbationSchedule.LINEAR:
            return x
        if self is PerturbationSchedule.EXPONENTIAL:
            return (math.exp(x) - 1.0) / (math.e - 1.0)
        return math.log(x + 1.0) / math.log(2.0)


def perturbation_timestep(x: float, schedule: PerturbationSchedule) -> int:
    """t = round(TIMESTEPS * f(x)), clamped into [0, TIMESTEPS]."""
    x = min(max(x, 0.0), 1.0)
    t = round_half_up(TIMESTEPS * schedule.fraction(x))
    return min(max(t, 0), TIMESTEPS)


@dataclass(frozen=True)
class ProposalSet:
    """A fixed-size batch of paired-box proposals in signal space.

    ``origin`` marks each row as prior-derived or padded; prior rows always
    occupy the leading slots. With no priors every row is padded.
    """

    pairs: np.ndarray        # (n_test, 8), signal space
    origin: np.ndarray       # (n_test,), ProposalOrigin values

    @property
    def n_prior_slots(self) -> int:
        return int(np.count_nonzero(self.origin == ProposalOrigin.PRIOR))


def build_inference_proposals(
    priors: np.ndarray,
    n_test: int,
    proportion: float,
    strategy: PaddingStrategy,
    rng: np.random.Generator,
    image_size: tuple[int, int],
) -> ProposalSet:
    """Initialize a proposal batch from the previous frame's tracked boxes,
    a (k, 4) center-form pixel array (k may be 0).

    ``round_half_up(proportion * n_test)`` leading rows duplicate the prior
    boxes into both pair slots, distributed round-robin; the remainder is
    padded per strategy. With no priors available the whole batch is padded.
    """
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if not 0.0 <= proportion <= 1.0:
        raise ValueError("proportion must lie in [0, 1]")

    n_prior = round_half_up(proportion * n_test) if len(priors) else 0
    # Repeating priors keeps cycling them through the padded slots.
    n_tiled = n_test if strategy is PaddingStrategy.REPEAT and n_prior else n_prior

    rows = np.zeros((n_test, 8))
    if n_tiled:
        w, h = image_size
        arr = np.asarray(priors, dtype=np.float64) / [w, h, w, h]
        picks = arr[np.arange(n_tiled) % arr.shape[0]]
        rows[:n_tiled] = np.concatenate([picks, picks], axis=1)
    if n_test - n_tiled:
        rows[n_tiled:] = _sample_pad_rows(n_test - n_tiled, strategy, rng)

    origin = np.full(n_test, ProposalOrigin.PADDED, dtype=np.int8)
    origin[:n_prior] = ProposalOrigin.PRIOR
    signal = (rows * 2.0 - 1.0) * SIGNAL_SCALE
    return ProposalSet(pairs=signal, origin=origin)


def corrupt_proposals(
    proposals: ProposalSet,
    alpha: float,
    rng: np.random.Generator,
    columns: slice = slice(0, 8),
) -> ProposalSet:
    """Convex interpolation toward Gaussian noise: B = (1-a)*B + a*B_noise.

    Applied per coordinate in signal space to the pair ``columns`` only:
    ``slice(4, 8)`` corrupts the current-frame member and keeps the
    previous one as a condition. Alpha 0 is the identity map and draws no
    randomness.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0:
        return proposals
    mixed = proposals.pairs.copy()
    noise = rng.standard_normal(mixed[:, columns].shape)
    mixed[:, columns] = (1.0 - alpha) * mixed[:, columns] + alpha * noise
    return replace(proposals, pairs=mixed)


def _check_denoised(batch: DenoisedBatch, n: int) -> None:
    """Reject a denoiser output that breaks the one-row-per-proposal
    contract or would flow on as NaN or out-of-range scores."""
    if batch.pairs.shape[0] != n:
        raise ValueError("denoiser changed the row count")
    scores = (batch.cls_prev, batch.cls_cur, batch.assoc)
    if not all(np.isfinite(x).all() for x in (batch.pairs, *scores)):
        raise ValueError("denoiser returned non-finite values")
    if not all(((x >= 0.0) & (x <= 1.0)).all() for x in scores):
        raise ValueError("denoiser returned scores outside [0, 1]")


def ddim_refine(
    proposals: ProposalSet,
    timestep: int,
    steps: int,
    denoiser: Denoiser,
    ctx: FrameContext,
) -> CandidateBatch:
    """Iteratively denoise a proposal batch, corrupted to ``timestep``, into
    a pixel-space candidate batch.

    The timestep ladder descends from ``timestep`` to 0 in
    ``steps`` evenly spaced stages. Every stage hands the denoiser the sample
    in pixels and maps its clean-sample prediction back into the (clamped)
    signal range; intermediate stages re-noise it to the next rung with the
    deterministic (eta = 0) DDIM update. The final stage's predictions,
    mapped to pixels, become the returned arrays, row i for proposal slot i,
    with the proposals' origins. A denoiser output that changes the row
    count, holds non-finite values or scores outside [0, 1] raises
    ``ValueError``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = proposals.pairs.shape[0]
    ladder = np.rint(np.linspace(timestep, 0, steps + 1)).astype(int)
    z = proposals.pairs.copy()

    for stage in range(steps):
        s_cur = int(ladder[stage])
        batch = denoiser.denoise_batch(signal_to_pixel(z, ctx.image_size), s_cur, ctx)
        _check_denoised(batch, n)
        z0_hat = np.clip(
            pixel_to_signal(batch.pairs, ctx.image_size), -SIGNAL_SCALE, SIGNAL_SCALE
        )
        if stage == steps - 1:
            break
        s_next = int(ladder[stage + 1])
        a_cur = ALPHA_BAR[s_cur]
        a_next = ALPHA_BAR[s_next]
        if 1.0 - a_cur < 1e-12:
            eps = np.zeros_like(z)
        else:
            eps = (z - math.sqrt(a_cur) * z0_hat) / math.sqrt(1.0 - a_cur)
        z = math.sqrt(a_next) * z0_hat + math.sqrt(1.0 - a_next) * eps

    # The round trip through signal space clamps the output to the image.
    return CandidateBatch(
        pairs=signal_to_pixel(z0_hat, ctx.image_size),
        cls_prev=batch.cls_prev,
        cls_cur=batch.cls_cur,
        assoc=batch.assoc,
        origin=proposals.origin,
    )
