"""Schedule, proposal, corruption and refinement tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pairtrack.denoiser import (
    DenoisedBatch,
    FrameContext,
    OracleDenoiser,
)
from pairtrack.diffusion import (
    ALPHA_BAR,
    BETA,
    TIMESTEPS,
    PaddingStrategy,
    PerturbationSchedule,
    ProposalOrigin,
    build_inference_proposals,
    corrupt_proposals,
    corruption_alpha,
    ddim_refine,
    perturbation_timestep,
    pixel_to_signal,
    round_half_up,
    signal_to_pixel,
    single_step_noise,
)
from stubs import IdentityDenoiser

IMAGE = (1000, 1000)


class TestSignalMapping:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        boxes = rng.uniform(50, 700, size=(20, 8))
        sig = pixel_to_signal(boxes, IMAGE)
        back = signal_to_pixel(sig, IMAGE)
        assert np.allclose(back, boxes)

    def test_clamping(self):
        sig = np.full((1, 8), 99.0)
        out = signal_to_pixel(sig, IMAGE)
        w, h = IMAGE
        assert np.allclose(out[0, :4], [w, h, w, h])


class TestCosineSchedule:
    def test_endpoints_and_monotonicity(self):
        assert ALPHA_BAR.shape == BETA.shape == (TIMESTEPS + 1,)
        assert ALPHA_BAR[0] == pytest.approx(1.0, abs=1e-6)
        assert ALPHA_BAR[-1] < 1e-3
        assert np.all(np.diff(ALPHA_BAR) < 0)
        assert np.all(BETA[1:] > 0) and np.all(BETA[1:] < 1)
        assert not (ALPHA_BAR.flags.writeable or BETA.flags.writeable)

    def test_midpoint_value(self):
        # Independent evaluation of the squared-cosine form at t = 500.
        offset = 0.008
        f = lambda u: math.cos((u + offset) / (1 + offset) * math.pi / 2) ** 2
        assert ALPHA_BAR[500] == pytest.approx(f(0.5) / f(0.0), rel=1e-6)

    def test_corruption_alpha(self):
        alphas = [corruption_alpha(t) for t in range(TIMESTEPS + 1)]
        assert alphas[0] == 0.0 and alphas[-1] > 0.96
        assert alphas[500] == 1.0 - math.sqrt(ALPHA_BAR[500])
        assert all(b > a for a, b in zip(alphas, alphas[1:]))


class TestSingleStepNoise:
    def test_zero_noise_scaling(self):
        z = np.ones(5)
        out = single_step_noise(z, 10, np.zeros(5))
        assert np.allclose(out, math.sqrt(1.0 - BETA[10]))

    def test_small_beta_near_identity(self):
        z = np.ones(3)
        out = single_step_noise(z, 1, np.zeros(3))
        assert np.allclose(out, z, atol=1e-4)

    def test_range_check(self):
        for t in (0, TIMESTEPS + 1):
            with pytest.raises(ValueError):
                single_step_noise(np.zeros(1), t, np.zeros(1))

    def test_composition_matches_marginal(self):
        # Chaining Markov steps 1..t reproduces the variance-preserving
        # closed form's moments (the printed (1-abar) form deviates).
        rng = np.random.default_rng(0)
        t = 60
        n = 20_000
        z = np.full(n, 0.5)
        for step in range(1, t + 1):
            z = single_step_noise(z, step, rng.standard_normal(n))
        abar = ALPHA_BAR[t]
        assert z.mean() == pytest.approx(math.sqrt(abar) * 0.5, abs=0.01)
        assert z.std() == pytest.approx(math.sqrt(1.0 - abar), rel=0.05)


class TestBuildProposals:
    def priors(self, n):
        return np.array([(100 + 50 * i, 200, 40, 80) for i in range(n)], dtype=float)

    def test_proportion_split(self):
        rng = np.random.default_rng(0)
        p = build_inference_proposals(
            self.priors(10), 500, 0.25, PaddingStrategy.CAT_GAUSSIAN, rng, IMAGE
        )
        assert p.pairs.shape == (500, 8)
        assert p.n_prior_slots == 125
        assert np.count_nonzero(p.origin == ProposalOrigin.PADDED) == 375

    def test_zero_proportion(self):
        rng = np.random.default_rng(0)
        p = build_inference_proposals(
            self.priors(10), 500, 0.0, PaddingStrategy.CAT_GAUSSIAN, rng, IMAGE
        )
        assert p.n_prior_slots == 0

    def test_round_robin_balance(self):
        rng = np.random.default_rng(0)
        p = build_inference_proposals(
            self.priors(7), 500, 1.0, PaddingStrategy.CAT_GAUSSIAN, rng, IMAGE
        )
        assert p.n_prior_slots == 500
        # count rows matching each prior; counts differ by at most one
        w, h = IMAGE
        counts = []
        for b in self.priors(7):
            unit = b / [w, h, w, h]
            signal = (np.concatenate([unit, unit]) * 2 - 1) * 2.0
            counts.append(int(np.sum(np.all(np.isclose(p.pairs, signal), axis=1))))
        assert sum(counts) == 500
        assert max(counts) - min(counts) <= 1

    def test_prior_rows_duplicate_both_slots(self):
        rng = np.random.default_rng(0)
        p = build_inference_proposals(
            self.priors(3), 12, 0.5, PaddingStrategy.CAT_UNIFORM, rng, IMAGE
        )
        prior_rows = p.pairs[: p.n_prior_slots]
        assert np.allclose(prior_rows[:, :4], prior_rows[:, 4:])

    def test_fallback_no_priors(self):
        rng = np.random.default_rng(0)
        p = build_inference_proposals(
            [], 100, 0.5, PaddingStrategy.CAT_GAUSSIAN, rng, IMAGE
        )
        assert p.n_prior_slots == 0
        assert p.pairs.shape == (100, 8)

    def test_repeat_padding_cycles_priors(self):
        # REPEAT keeps cycling the priors through the padded slots; with no
        # prior slot to repeat it pads with full-image rows.
        w, h = IMAGE
        units = self.priors(3) / [w, h, w, h]
        p = build_inference_proposals(
            self.priors(3), 10, 0.5, PaddingStrategy.REPEAT,
            np.random.default_rng(0), IMAGE,
        )
        for i in range(10):
            unit = units[i % 3]
            assert np.allclose(p.pairs[i], (np.concatenate([unit, unit]) * 2 - 1) * 2.0)
        assert list(p.origin) == [ProposalOrigin.PRIOR] * 5 + [ProposalOrigin.PADDED] * 5
        p = build_inference_proposals(
            self.priors(3), 10, 0.0, PaddingStrategy.REPEAT,
            np.random.default_rng(0), IMAGE,
        )
        full = (np.array([0.5, 0.5, 1.0, 1.0] * 2) * 2 - 1) * 2.0
        assert np.allclose(p.pairs, full)

    def test_gaussian_padding_moments(self):
        # Padded rows follow the unit-space Gaussian of mean 0.5, sigma 1/6.
        p = build_inference_proposals(
            [], 20_000, 0.0, PaddingStrategy.CAT_GAUSSIAN,
            np.random.default_rng(2), IMAGE,
        )
        unit = (p.pairs.ravel() / 2.0 + 1.0) / 2.0
        assert unit.mean() == pytest.approx(0.5, rel=0.02)
        assert unit.std() == pytest.approx(1.0 / 6.0, rel=0.02)

    def test_counts_exact_over_grid(self):
        rng = np.random.default_rng(0)
        for proportion in (0.0, 0.1, 0.33, 0.5, 1.0):
            for strategy in PaddingStrategy:
                p = build_inference_proposals(
                    self.priors(4), 97, proportion, strategy, rng, IMAGE
                )
                assert p.pairs.shape == (97, 8)
                assert p.n_prior_slots == round_half_up(proportion * 97)

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_inference_proposals([], 0, 0.5, PaddingStrategy.CAT_FULL, rng, IMAGE)
        with pytest.raises(ValueError):
            build_inference_proposals([], 10, 1.5, PaddingStrategy.CAT_FULL, rng, IMAGE)


class TestPerturbationTimestep:
    def test_logarithmic_full_motion(self):
        assert perturbation_timestep(1.0, PerturbationSchedule.LOGARITHMIC) == 1000

    def test_constant(self):
        assert perturbation_timestep(0.0, PerturbationSchedule.CONSTANT) == 400
        assert perturbation_timestep(1.0, PerturbationSchedule.CONSTANT) == 400

    def test_logarithmic_half(self):
        assert perturbation_timestep(0.5, PerturbationSchedule.LOGARITHMIC) == 585

    def test_clamped(self):
        for sched in PerturbationSchedule:
            for x in (1.0, 2.0):
                assert 0 <= perturbation_timestep(x, sched) <= TIMESTEPS, sched

    def test_schedule_shapes(self):
        for sched in PerturbationSchedule:
            xs = np.linspace(0, 1, 101)
            ys = [sched.fraction(float(x)) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:])), sched
            assert sched.fraction(0.0) in (0.0, 0.4)
            if sched is not PerturbationSchedule.CONSTANT:
                assert sched.fraction(1.0) == pytest.approx(1.0, abs=1e-12)


class TestCorruptProposals:
    def make(self):
        rng = np.random.default_rng(0)
        return build_inference_proposals(
            np.array([[500.0, 500, 100, 100]]), 16, 0.5, PaddingStrategy.CAT_GAUSSIAN, rng, IMAGE
        )

    def test_alpha_zero_identity(self):
        p = self.make()
        out = corrupt_proposals(p, 0.0, np.random.default_rng(1))
        assert out is p

    def test_alpha_one_pure_noise(self):
        p = self.make()
        rng = np.random.default_rng(7)
        expected = np.random.default_rng(7).standard_normal(p.pairs.shape)
        out = corrupt_proposals(p, 1.0, rng)
        assert np.allclose(out.pairs, expected)

    def test_half_blend_linearity(self):
        p = self.make()
        zero = type(p)(
            pairs=np.zeros_like(p.pairs), origin=p.origin
        )
        noise = np.random.default_rng(3).standard_normal(p.pairs.shape)
        out = corrupt_proposals(zero, 0.5, np.random.default_rng(3))
        assert np.allclose(out.pairs, 0.5 * noise)

    def test_convex_combination(self):
        p = self.make()
        rng = np.random.default_rng(5)
        noise = np.random.default_rng(5).standard_normal(p.pairs.shape)
        out = corrupt_proposals(p, 0.3, rng)
        lo = np.minimum(p.pairs, noise) - 1e-12
        hi = np.maximum(p.pairs, noise) + 1e-12
        assert np.all(out.pairs >= lo) and np.all(out.pairs <= hi)

    def test_member_columns_keep_the_other_member(self):
        # The baseline corrupts only the current-frame member: the previous
        # one keeps its bits, and the draws are (n, 4).
        p = self.make()
        noise = np.random.default_rng(9).standard_normal((p.pairs.shape[0], 4))
        out = corrupt_proposals(p, 0.3, np.random.default_rng(9), slice(4, 8))
        assert np.array_equal(out.pairs[:, :4], p.pairs[:, :4])
        assert np.array_equal(out.pairs[:, 4:], 0.7 * p.pairs[:, 4:] + 0.3 * noise)


class _ConstantDenoiser:
    """Always predicts the same clean pixel-space batch, regardless of input;
    ``scores`` overrides the unit class and association scores by field name."""

    def __init__(self, pairs, **scores):
        self.pairs = pairs
        self.scores = scores

    def denoise_batch(self, z, s, ctx):
        n = len(self.pairs)
        fields = {k: np.ones(n) for k in ("cls_prev", "cls_cur", "assoc")}
        fields.update({k: np.array(v, dtype=float) for k, v in self.scores.items()})
        return DenoisedBatch(pairs=self.pairs.copy(), **fields)


class TestDdimRefine:
    T = 500

    def setup_method(self):
        self.ctx = FrameContext(image_size=IMAGE)

    def proposals(self, n=8):
        rng = np.random.default_rng(0)
        p = build_inference_proposals(
            np.array([[500.0, 500, 100, 100]]), n, 0.5, PaddingStrategy.CAT_GAUSSIAN,
            rng, IMAGE,
        )
        return corrupt_proposals(p, 0.4, rng)

    def test_single_step_equals_one_shot(self):
        p = self.proposals()
        one = ddim_refine(p, self.T, 1, IdentityDenoiser(), self.ctx)
        direct = IdentityDenoiser().denoise_batch(p.pairs, self.T, self.ctx)
        expected = np.clip(direct.pairs, -2.0, 2.0)
        got = one.pairs
        w, h = IMAGE
        unit = (expected / 2.0 + 1) / 2 * np.tile([w, h, w, h], 2)
        assert np.allclose(got, unit)

    def test_idempotent_denoiser_fixed_point(self):
        target = np.tile(np.linspace(250, 750, 8), (4, 1))  # pixels
        den = _ConstantDenoiser(target)
        p = self.proposals(n=4)
        for steps in (1, 2, 4, 7):
            out = ddim_refine(p, self.T, steps, den, self.ctx)
            assert np.allclose(out.pairs, target), steps

    def test_denoiser_sees_pixels(self):
        # The signal space stays inside the loop: every stage hands the
        # denoiser its sample mapped to pixels.
        seen = []

        class Spy(IdentityDenoiser):
            def denoise_batch(self, boxes, s, ctx):
                seen.append(boxes)
                return super().denoise_batch(boxes, s, ctx)

        p = self.proposals(n=6)
        ddim_refine(p, self.T, 2, Spy(), self.ctx)
        assert len(seen) == 2
        assert np.array_equal(seen[0], signal_to_pixel(p.pairs, IMAGE))
        assert np.all((seen[1] >= 0.0) & (seen[1] <= 1000.0))

    def test_ladder_starts_at_the_given_timestep(self):
        seen = []

        class Spy(IdentityDenoiser):
            def denoise_batch(self, boxes, s, ctx):
                seen.append(s)
                return super().denoise_batch(boxes, s, ctx)

        p = self.proposals(n=4)
        for t, steps, ladder in ((700, 4, [700, 525, 350, 175]), (585, 1, [585])):
            seen.clear()
            ddim_refine(p, t, steps, Spy(), self.ctx)
            assert seen == ladder

    def test_perfect_oracle_reaches_gt_any_steps(self):
        ids = np.array([1, 2])
        gt_prev = np.array([[300.0, 300, 60, 120], [700, 650, 80, 80]])
        gt_cur = np.array([[310.0, 305, 60, 120], [690, 650, 80, 80]])
        ctx = FrameContext(IMAGE, gt_prev=(ids, gt_prev), gt_cur=(ids, gt_cur))
        oracle = OracleDenoiser(fidelity=1.0)
        p = self.proposals(n=32)
        gt_rows = np.concatenate([gt_prev, gt_cur], axis=1)
        for steps in (1, 4):
            cands = ddim_refine(p, 700, steps, oracle, ctx)
            got = cands.pairs
            dists = np.abs(got[:, None, :] - gt_rows[None, :, :]).max(axis=2).min(axis=1)
            assert np.all(dists < 1e-6), steps

    def test_order_preserved_and_indices(self):
        p = self.proposals(n=16)
        out = ddim_refine(p, self.T, 2, IdentityDenoiser(), self.ctx)
        assert len(out) == 16
        assert np.array_equal(out.origin, p.origin)

    def test_candidates_built_for_requested_rows(self):
        p = self.proposals(n=6)
        out = ddim_refine(p, self.T, 1, IdentityDenoiser(), self.ctx)
        rows = [4, 1]
        sub = out.take(rows)
        assert len(sub) == 2
        assert np.array_equal(sub.pairs, out.pairs[rows])
        assert np.array_equal(sub.origin, p.origin[rows])
        for scores in (sub.cls_prev, sub.cls_cur, sub.assoc):
            assert scores.tolist() == [1.0, 1.0]

    def test_steps_zero_rejected(self):
        with pytest.raises(ValueError):
            ddim_refine(self.proposals(), self.T, 0, IdentityDenoiser(), self.ctx)

    def test_row_count_change_rejected(self):
        # A denoiser that drops a row breaks the one-output-per-proposal
        # contract and must not pass silently.
        p = self.proposals(n=5)
        den = _ConstantDenoiser(np.zeros((4, 8)))
        with pytest.raises(ValueError, match="row count"):
            ddim_refine(p, self.T, 1, den, self.ctx)

    def test_non_finite_output_rejected(self):
        # NaN boxes or scores from a denoiser must not flow on into the gates.
        p = self.proposals(n=4)
        pairs = np.zeros((4, 8))
        pairs[2, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ddim_refine(p, self.T, 1, _ConstantDenoiser(pairs), self.ctx)
        score = [1.0, np.nan, 1.0, 1.0]
        for field in ("cls_prev", "cls_cur", "assoc"):
            den = _ConstantDenoiser(np.zeros((4, 8)), **{field: score})
            with pytest.raises(ValueError, match="non-finite"):
                ddim_refine(p, self.T, 2, den, self.ctx)

    def test_score_outside_unit_interval_rejected(self):
        p = self.proposals(n=4)
        for field in ("cls_prev", "cls_cur", "assoc"):
            for bad in (-0.1, 1.5):
                score = [0.5, bad, 0.5, 0.5]
                den = _ConstantDenoiser(np.zeros((4, 8)), **{field: score})
                with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                    ddim_refine(p, self.T, 1, den, self.ctx)
