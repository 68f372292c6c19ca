"""Synthetic scene generation and detection perturbation.

Scenes are deterministic given their seed: per-frame identity-labeled
boxes with visibility flags, one ``GtFrame`` of arrays per frame. Three
motion families cover the benchmark regimes: straight constant-velocity
motion, non-linear curving motion with scheduled identity crossovers, and
dense crowds packed into a small region. Occlusions hide objects for
contiguous spans without deleting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import GAUSSIAN_PAD_MEAN, GAUSSIAN_PAD_STD

__all__ = [
    "LinearMotion",
    "NonLinearMotion",
    "CrowdedMotion",
    "SceneSpec",
    "GtFrame",
    "SceneGroundTruth",
    "generate",
    "perturb_boxes",
    "mean_motion",
]


@dataclass(frozen=True)
class LinearMotion:
    pass


@dataclass(frozen=True)
class NonLinearMotion:
    """Sinusoidal turning; ``crossover_rate`` of the objects are paired up
    and steered through a shared crossing point mid-sequence."""

    turn_rate: float = 0.5
    crossover_rate: float = 0.5


@dataclass(frozen=True)
class CrowdedMotion:
    """Slow linear motion packed into a region sized so the boxes cover
    ``density`` of it."""

    density: float = 0.5


@dataclass(frozen=True)
class SceneSpec:
    n_objects: int
    duration: int
    image_size: tuple[int, int] = (1920, 1080)
    motion: LinearMotion | NonLinearMotion | CrowdedMotion = field(
        default_factory=LinearMotion
    )
    occlusion_rate: float = 0.0
    box_width: tuple[float, float] = (40.0, 90.0)
    aspect: tuple[float, float] = (1.6, 2.4)  # height = width * aspect
    speed: tuple[float, float] = (2.0, 8.0)  # pixels per frame
    seed: int = 0


@dataclass(frozen=True, eq=False, slots=True)
class GtFrame:
    """One frame's ground truth: ids (k,) int64 in ascending order, each
    listed once, center-form boxes (k, 4) float64 and visibility (k,) bool.

    Two frames are equal when their arrays are equal element for element.
    """

    ids: np.ndarray
    boxes: np.ndarray
    visible: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, GtFrame):
            return NotImplemented
        return bool(
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.boxes, other.boxes)
            and np.array_equal(self.visible, other.visible)
        )

    __hash__ = None


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_BOXES = np.zeros((0, 4))


@dataclass
class SceneGroundTruth:
    """Per-frame identity-labeled boxes; frames are 1-based."""

    image_size: tuple[int, int]
    n_frames: int
    frames: dict[int, GtFrame]

    def visible(self, frame: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids (k,) and center-form boxes (k, 4) of the frame's visible
        objects, ids ascending; empty for a frame without ground truth."""
        gt = self.frames.get(frame)
        if gt is None:
            return _NO_IDS, _NO_BOXES
        return gt.ids[gt.visible], gt.boxes[gt.visible]

    def visible_boxes(self, frame: int) -> np.ndarray:
        """Center-form (k, 4) array of the frame's visible boxes."""
        return self.visible(frame)[1]


def _clamp_center(c: np.ndarray, w: float, h: float, image: tuple[int, int]):
    iw, ih = image
    c[:, 0] = np.clip(c[:, 0], w / 2, iw - w / 2)
    c[:, 1] = np.clip(c[:, 1], h / 2, ih - h / 2)
    return c


def _feasible_linear_path(
    rng: np.random.Generator,
    w: float,
    h: float,
    image: tuple[int, int],
    duration: int,
    speed_range: tuple[float, float],
    region: tuple[float, float, float, float] | None = None,
) -> np.ndarray:
    """Start point plus constant velocity keeping the box inside the image
    (or a sub-region) for the whole duration."""
    x1, y1, x2, y2 = region if region else (0.0, 0.0, float(image[0]), float(image[1]))
    x1, x2 = x1 + w / 2, x2 - w / 2
    y1, y2 = y1 + h / 2, y2 - h / 2
    span = duration - 1
    for attempt in range(64):
        speed = rng.uniform(*speed_range) / (1 + attempt * 0.25)
        theta = rng.uniform(0, 2 * math.pi)
        vx, vy = speed * math.cos(theta), speed * math.sin(theta)
        lo_x = x1 + max(0.0, -vx * span)
        hi_x = x2 - max(0.0, vx * span)
        lo_y = y1 + max(0.0, -vy * span)
        hi_y = y2 - max(0.0, vy * span)
        if lo_x <= hi_x and lo_y <= hi_y:
            start = np.array([rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y)])
            t = np.arange(duration)[:, None]
            return start[None, :] + t * np.array([vx, vy])[None, :]
    # Degenerate geometry: stand still at the region center.
    start = np.array([(x1 + x2) / 2, (y1 + y2) / 2])
    return np.tile(start, (duration, 1))


def _linear_centers(spec: SceneSpec, rng, sizes) -> list[np.ndarray]:
    return [
        _feasible_linear_path(rng, w, h, spec.image_size, spec.duration, spec.speed)
        for w, h in sizes
    ]


def _nonlinear_centers(spec: SceneSpec, rng, sizes) -> list[np.ndarray]:
    motion: NonLinearMotion = spec.motion
    if not 0.0 <= motion.crossover_rate <= 1.0:
        raise ValueError(
            f"crossover_rate must lie in [0, 1], got {motion.crossover_rate!r}")
    if not math.isfinite(motion.turn_rate):
        raise ValueError(f"turn_rate must be finite, got {motion.turn_rate!r}")
    iw, ih = spec.image_size
    duration = spec.duration
    t = np.arange(duration, dtype=np.float64)

    n = spec.n_objects
    # round(1.5) is 2, so an odd count would ask for one pair too many.
    n_pairs = min(int(round(motion.crossover_rate * n / 2)), n // 2)
    paired = list(range(2 * n_pairs))
    centers: list[np.ndarray | None] = [None] * n

    for p in range(n_pairs):
        i, j = paired[2 * p], paired[2 * p + 1]
        # Both objects pass through a shared point at the crossing frame.
        cross = np.array(
            [rng.uniform(0.3 * iw, 0.7 * iw), rng.uniform(0.3 * ih, 0.7 * ih)]
        )
        t_cross = rng.uniform(0.35, 0.65) * (duration - 1)
        theta = rng.uniform(0, 2 * math.pi)
        speed = rng.uniform(*spec.speed)
        for obj, direction in ((i, theta), (j, theta + math.pi / 2)):
            v = speed * np.array([math.cos(direction), math.sin(direction)])
            path = cross[None, :] + (t - t_cross)[:, None] * v[None, :]
            centers[obj] = path

    for i in range(n):
        if centers[i] is None:
            w, h = sizes[i]
            centers[i] = _feasible_linear_path(
                rng, w, h, spec.image_size, duration, spec.speed
            )

    # Sinusoidal wobble perpendicular to the travel direction.
    for i in range(n):
        amp = motion.turn_rate * rng.uniform(10.0, 40.0)
        freq = rng.uniform(0.5, 1.5) * 2 * math.pi / max(duration, 2)
        phase = rng.uniform(0, 2 * math.pi)
        direction = centers[i][-1] - centers[i][0]
        norm = np.linalg.norm(direction)
        perp = (
            np.array([-direction[1], direction[0]]) / norm
            if norm > 1e-9
            else np.array([0.0, 1.0])
        )
        wobble = amp * np.sin(freq * t + phase)
        centers[i] = centers[i] + wobble[:, None] * perp[None, :]

    for i in range(n):
        w, h = sizes[i]
        centers[i] = _clamp_center(centers[i], w, h, spec.image_size)
    return centers


def _crowded_centers(spec: SceneSpec, rng, sizes) -> list[np.ndarray]:
    motion: CrowdedMotion = spec.motion
    if not motion.density > 0.0:
        raise ValueError(f"density must be > 0, got {motion.density!r}")
    iw, ih = spec.image_size
    total_area = float(sum(w * h for w, h in sizes))
    region_area = total_area / motion.density
    side = math.sqrt(region_area)
    if side > min(iw, ih):
        raise ValueError(
            f"crowd of {spec.n_objects} boxes cannot fit at density {motion.density}"
        )
    x0 = (iw - side) / 2
    y0 = (ih - side) / 2
    region = (x0, y0, x0 + side, y0 + side)
    slow = (spec.speed[0] * 0.5, spec.speed[1] * 0.5)
    return [
        _feasible_linear_path(
            rng, w, h, spec.image_size, spec.duration, slow, region=region
        )
        for w, h in sizes
    ]


def generate(spec: SceneSpec) -> SceneGroundTruth:
    """Deterministically generate a scene from its spec."""
    if spec.duration < 2:
        raise ValueError("duration must be >= 2")
    if spec.n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {spec.n_objects!r}")
    if not 0.0 <= spec.occlusion_rate <= 1.0:
        raise ValueError("occlusion_rate must lie in [0, 1]")
    for name in ("speed", "box_width", "aspect"):
        lo, hi = getattr(spec, name)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"{name} must be a finite range with low <= high, "
                             f"got ({lo!r}, {hi!r})")
    rng = np.random.default_rng(spec.seed)
    sizes = [
        (w, w * rng.uniform(*spec.aspect))
        for w in rng.uniform(*spec.box_width, size=spec.n_objects)
    ]
    iw, ih = spec.image_size
    for w, h in sizes:
        if w > iw or h > ih:
            raise ValueError(f"a {w:.1f} x {h:.1f} box drawn from box_width and "
                             f"aspect is larger than the {iw}x{ih} image")

    if isinstance(spec.motion, LinearMotion):
        centers = _linear_centers(spec, rng, sizes)
    elif isinstance(spec.motion, NonLinearMotion):
        centers = _nonlinear_centers(spec, rng, sizes)
    elif isinstance(spec.motion, CrowdedMotion):
        centers = _crowded_centers(spec, rng, sizes)
    else:
        raise TypeError(f"unknown motion spec {spec.motion!r}")

    visible = np.ones((spec.n_objects, spec.duration), dtype=bool)
    for i in range(spec.n_objects):
        if rng.random() < spec.occlusion_rate and spec.duration > 4:
            span = int(rng.integers(2, 5))
            start = int(rng.integers(1, max(spec.duration - span, 2)))
            visible[i, start : start + span] = False

    # (duration, n, 4) boxes and (duration, n) flags, frame-major; every
    # frame's record holds read-only views of them.
    n = spec.n_objects
    boxes = np.empty((spec.duration, n, 4))
    boxes[:, :, :2] = np.reshape(centers, (n, spec.duration, 2)).transpose(1, 0, 2)
    boxes[:, :, 2:] = np.reshape(sizes, (n, 2))
    visible = np.ascontiguousarray(visible.T)
    ids = np.arange(1, n + 1, dtype=np.int64)
    for arr in (boxes, visible, ids):
        arr.flags.writeable = False
    frames = {
        k + 1: GtFrame(ids, boxes[k], visible[k]) for k in range(spec.duration)
    }
    return SceneGroundTruth(
        image_size=spec.image_size, n_frames=spec.duration, frames=frames
    )


def perturb_boxes(
    boxes: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    image_size: tuple[int, int],
) -> np.ndarray:
    """Blend each row of center-form (n, 4) boxes toward Gaussian noise:
    B = (1-a)*B + a*B_noise.

    Runs in [0, 1]-normalized image coordinates so alpha is scale-free;
    the noise matches the Gaussian padding distribution. Alpha 0 and an
    empty set return the input unchanged without consuming randomness.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0 or not len(boxes):
        return boxes
    w, h = image_size
    norm = np.array([w, h, w, h], dtype=np.float64)
    arr = np.asarray(boxes, dtype=np.float64) / norm
    noise = rng.normal(GAUSSIAN_PAD_MEAN, GAUSSIAN_PAD_STD, size=arr.shape)
    return ((1.0 - alpha) * arr + alpha * noise) * norm


def mean_motion(
    prev: tuple[np.ndarray, np.ndarray],
    cur: tuple[np.ndarray, np.ndarray],
    default: float,
) -> float:
    """Mean center displacement of the identities present in both frames,
    normalized by the current box diagonal and clamped to [0, 1].

    Each frame is (ids (k,), center-form boxes (k, 4)), every id listed
    once. Identities are visited in ascending order; ``default`` is
    returned when no identity with a non-empty box is shared. The ratios
    are taken with ``math.hypot`` one identity at a time: ``np.hypot`` may
    differ from it in the last bit.
    """
    (ids_a, boxes_a), (ids_b, boxes_b) = prev, cur
    _, at_a, at_b = np.intersect1d(
        ids_a, ids_b, assume_unique=True, return_indices=True
    )
    ratios = []
    for (ax, ay, _, _), (bx, by, bw, bh) in zip(
        boxes_a[at_a].tolist(), boxes_b[at_b].tolist()
    ):
        diag = math.hypot(bw, bh)
        if diag <= 0:
            continue
        ratios.append(math.hypot(bx - ax, by - ay) / diag)
    if not ratios:
        return default
    return float(min(max(np.mean(ratios), 0.0), 1.0))

