"""Scene generator and perturbation tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pairtrack.simulator import (
    CrowdedMotion,
    GtFrame,
    LinearMotion,
    NonLinearMotion,
    SceneGroundTruth,
    SceneSpec,
    generate,
    mean_motion,
    perturb_boxes,
)


class TestGenerate:
    def test_deterministic(self):
        spec = SceneSpec(n_objects=5, duration=20, seed=7)
        a, b = generate(spec), generate(spec)
        assert list(a.frames) == list(b.frames)
        for f in a.frames:
            assert a.frames[f] == b.frames[f]

    def test_linear_constant_velocity(self):
        spec = SceneSpec(n_objects=1, duration=15, seed=3)
        scene = generate(spec)
        centers = np.array([scene.frames[f].boxes[0, :2] for f in range(1, 16)])
        steps = np.diff(centers, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-9)

    def test_boxes_inside_image(self):
        for motion in (
            LinearMotion(),
            NonLinearMotion(turn_rate=0.8, crossover_rate=1.0),
            CrowdedMotion(density=0.5),
        ):
            spec = SceneSpec(n_objects=8, duration=30, motion=motion, seed=11)
            scene = generate(spec)
            w, h = spec.image_size
            for f, gt in scene.frames.items():
                for cx, cy, bw, bh in gt.boxes.tolist():
                    x1, y1 = cx - 0.5 * bw, cy - 0.5 * bh
                    x2, y2 = cx + 0.5 * bw, cy + 0.5 * bh
                    assert x1 >= -1e-6 and y1 >= -1e-6
                    assert x2 <= w + 1e-6 and y2 <= h + 1e-6

    def test_ids_unique_per_frame(self):
        scene = generate(SceneSpec(n_objects=6, duration=10, seed=0))
        for gt in scene.frames.values():
            ids = gt.ids.tolist()
            assert len(ids) == len(set(ids))
            assert ids == sorted(ids)

    def test_no_occlusion_all_visible(self):
        scene = generate(SceneSpec(n_objects=6, duration=10, occlusion_rate=0.0, seed=2))
        assert all(gt.visible.all() for gt in scene.frames.values())

    def test_occlusion_spans_contiguous(self):
        scene = generate(
            SceneSpec(n_objects=10, duration=30, occlusion_rate=1.0, seed=5)
        )
        hidden_any = False
        for i in range(1, 11):
            flags = [
                bool(scene.frames[f].visible[scene.frames[f].ids == i][0])
                for f in range(1, 31)
            ]
            gaps = 0
            for a, b in zip(flags, flags[1:]):
                if a and not b:
                    gaps += 1
            hidden_any |= not all(flags)
            assert gaps <= 1  # one contiguous invisible span at most
        assert hidden_any

    def test_crossover_paths_intersect(self):
        spec = SceneSpec(
            n_objects=2,
            duration=40,
            motion=NonLinearMotion(turn_rate=0.3, crossover_rate=1.0),
            seed=9,
        )
        scene = generate(spec)
        min_dist = np.inf
        for f in range(1, 41):
            a, b = scene.frames[f].boxes[:2]
            min_dist = min(min_dist, np.hypot(a[0] - b[0], a[1] - b[1]))
        max_size = max(gt.boxes[:, 2:].max() for gt in scene.frames.values())
        assert min_dist < max_size

    def test_crowded_infeasible_rejected(self):
        spec = SceneSpec(
            n_objects=400,
            duration=5,
            image_size=(640, 480),
            motion=CrowdedMotion(density=0.2),
            seed=0,
        )
        with pytest.raises(ValueError):
            generate(spec)

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError):
            generate(SceneSpec(n_objects=1, duration=1))

    @pytest.mark.parametrize("n", [3, 7])
    def test_full_crossover_of_an_odd_count(self, n):
        # round(1.5) = 2 pairs asked for four objects of three; the odd one
        # out now moves on its own.
        spec = SceneSpec(n_objects=n, duration=10,
                         motion=NonLinearMotion(crossover_rate=1.0), seed=2)
        scene = generate(spec)
        assert scene.frames[1].ids.tolist() == list(range(1, n + 1))

    @pytest.mark.parametrize("n_objects, motion, field", [
        (4, NonLinearMotion(crossover_rate=-0.1), "crossover_rate"),
        (4, NonLinearMotion(crossover_rate=1.5), "crossover_rate"),
        (4, CrowdedMotion(density=0.0), "density"),
        (4, CrowdedMotion(density=-1.0), "density"),
        (-1, LinearMotion(), "n_objects"),
        (4, NonLinearMotion(turn_rate=math.nan), "turn_rate"),
        (4, NonLinearMotion(turn_rate=math.inf), "turn_rate"),
    ], ids=["crossover_below_0", "crossover_above_1", "density_0",
            "density_negative", "negative_objects", "turn_rate_nan",
            "turn_rate_inf"])
    def test_out_of_range_field_rejected(self, n_objects, motion, field):
        with pytest.raises(ValueError, match=field):
            generate(SceneSpec(n_objects=n_objects, duration=5, motion=motion))

    @pytest.mark.parametrize("field, bounds", [
        ("speed", (5.0, -2.0)),
        ("speed", (math.nan, 8.0)),
        ("speed", (2.0, math.inf)),
        ("box_width", (90.0, 40.0)),
        ("box_width", (40.0, math.nan)),
        ("aspect", (2.4, 1.6)),
        ("aspect", (-math.inf, 2.4)),
    ], ids=["speed_reversed", "speed_nan", "speed_inf", "box_width_reversed",
            "box_width_nan", "aspect_reversed", "aspect_inf"])
    def test_bad_range_rejected(self, field, bounds):
        # numpy raised on these with "high - low < 0" or an OverflowError,
        # naming no field.
        with pytest.raises(ValueError, match=field):
            generate(SceneSpec(n_objects=4, duration=5, **{field: bounds}))

    def test_equal_bounds_accepted(self):
        spec = SceneSpec(n_objects=2, duration=5, speed=(3.0, 3.0),
                         box_width=(50.0, 50.0), aspect=(2.0, 2.0))
        assert generate(spec).frames[5].boxes[:, 2].tolist() == [50.0, 50.0]


class TestPerturbBoxes:
    IMG = (1000, 1000)

    def frames(self):
        rng = np.random.default_rng(0)
        return {
            f: np.column_stack([rng.uniform(200, 800, (10, 2)),
                                np.tile([50.0, 80.0], (10, 1))])
            for f in range(1, 6)
        }

    def test_alpha_zero_identity(self):
        boxes = self.frames()[1]
        out = perturb_boxes(boxes, 0.0, np.random.default_rng(1), self.IMG)
        assert out is boxes

    def test_empty_set_draws_nothing(self):
        rng = np.random.default_rng(1)
        empty = np.zeros((0, 4))
        assert perturb_boxes(empty, 0.5, rng, self.IMG) is empty
        assert rng.random() == np.random.default_rng(1).random()

    def test_alpha_one_pure_noise(self):
        frames = self.frames()
        rng = np.random.default_rng(1)
        expected_rng = np.random.default_rng(1)
        for f in sorted(frames):
            got = perturb_boxes(frames[f], 1.0, rng, self.IMG)
            noise = expected_rng.normal(0.5, 1 / 6, size=frames[f].shape)
            assert np.allclose(got, noise * 1000.0)

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            perturb_boxes(self.frames()[1], 1.5, np.random.default_rng(1), self.IMG)

    def test_mean_displacement_scales_with_alpha(self):
        rng = np.random.default_rng(3)
        boxes = np.tile([400.0, 600, 60, 90], (20000, 1))
        alpha = 0.2
        got = perturb_boxes(boxes, alpha, rng, self.IMG) / 1000.0
        base = boxes[0] / 1000.0
        measured = np.abs(got - base).mean(axis=0)
        noise = np.random.default_rng(99).normal(0.5, 1 / 6, size=(200000, 4))
        expected = alpha * np.abs(noise - base).mean(axis=0)
        assert np.allclose(measured, expected, rtol=0.05)


class TestAverageMotion:
    @staticmethod
    def frame(boxes, vis):
        ids = np.arange(1, len(boxes) + 1, dtype=np.int64)
        return GtFrame(ids, np.array(boxes, dtype=np.float64), np.array(vis))

    def make_scene(self, prev_boxes, cur_boxes, vis=None):
        vis = vis or [True] * len(prev_boxes)
        frames = {1: self.frame(prev_boxes, vis), 2: self.frame(cur_boxes, vis)}
        return SceneGroundTruth(image_size=(1000, 1000), n_frames=2, frames=frames)

    @staticmethod
    def motion(scene):
        """``mean_motion`` of the ids visible in both frames 1 and 2."""
        return mean_motion(scene.visible(1), scene.visible(2), 0.0)

    def test_static_zero(self):
        b = (100, 100, 30, 40)
        scene = self.make_scene([b], [b])
        assert self.motion(scene) == 0.0

    def test_full_diagonal_clamped(self):
        scene = self.make_scene(
            [(100, 100, 30, 40)], [(200, 200, 30, 40)]
        )
        assert self.motion(scene) == 1.0

    def test_hand_computed_two_objects(self):
        # displacements 5 and 10 against diagonal 50 -> mean of 0.1 and 0.2
        prev = [(100, 100, 30, 40), (500, 500, 30, 40)]
        cur = [(103, 104, 30, 40), (506, 508, 30, 40)]
        scene = self.make_scene(prev, cur)
        assert self.motion(scene) == pytest.approx(0.15, abs=1e-12)

    def test_no_covisible_zero(self):
        scene = self.make_scene(
            [(100, 100, 30, 40)], [(200, 200, 30, 40)], vis=[True]
        )
        scene.frames[1] = self.frame([(100, 100, 30, 40)], [False])
        assert self.motion(scene) == 0.0
