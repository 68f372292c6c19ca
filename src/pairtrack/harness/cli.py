"""Command-line entry point.

Subcommands: simulate, track, eval, ablate, sweep, robustness. Exit codes:
0 success, 1 usage error, 2 data error. The default seed comes from
PAIRTRACK_SEED when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from ..denoiser import DetectionSnapDenoiser, OracleDenoiser
from ..diffusion import PaddingStrategy, PerturbationSchedule
from ..metrics import evaluate
from ..pipeline import Variant, run_sequence
from ..simulator import (
    CrowdedMotion,
    LinearMotion,
    NonLinearMotion,
    SceneSpec,
    generate,
)
from .config import check_value, load_config_file, resolve_run_config
from .experiments import ablate, detection_stream, robustness, sweep, write_csv
from .io import (
    MotFormatError,
    detections_from_rows,
    parse_motchallenge,
    parse_results,
    parse_seqinfo,
    scene_from_gt,
    write_gt,
    write_results,
    write_seqinfo,
)

__all__ = ["main"]

_DEFAULT_IMAGE_SIZE = (1920, 1080)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _seed(args) -> int:
    """--seed, then PAIRTRACK_SEED, then 0; a negative seed is a usage
    error naming its source."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        raw = os.environ.get("PAIRTRACK_SEED", "0")
        try:
            seed, source = int(raw), "PAIRTRACK_SEED"
        except ValueError:
            raise UsageError(
                f"PAIRTRACK_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise UsageError(f"{source} must be >= 0, got {seed}")
    return seed


def _json_value(value):
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} {value!r} has no JSON form")


def _write_manifest(path, command: str, seed: int, config: dict, *,
                    inputs=None, outputs=None, extra=None) -> None:
    """Write one run's JSON record, enough to repeat the run."""
    record = {
        "artifact_version": "0.1.0",
        "command": command,
        "config": config,
        "extra": extra or {},
        "inputs": inputs or {},
        "outputs": outputs or {},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(record, indent=2, sort_keys=True, default=_json_value)
    Path(path).write_text(text + "\n")


def _add_common_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--steps", type=int)
    p.add_argument("--proportion", type=float)
    p.add_argument("--padding", choices=[s.value for s in PaddingStrategy])
    p.add_argument(
        "--perturbation", choices=[s.value for s in PerturbationSchedule]
    )
    p.add_argument("--variant", choices=[v.value for v in Variant])
    p.add_argument("--seed", type=int, default=None)


def _add_experiment(sub, name: str, help: str) -> argparse.ArgumentParser:
    """An experiment subcommand with the flags every experiment takes; the
    caller adds its grid."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True, help="CSV output")
    p.add_argument("--seqinfo")
    p.add_argument("--image-size")
    _add_common_pipeline_flags(p)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="pairtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic scene")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--objects", type=int, default=8)
    sim.add_argument("--frames", type=int, default=30)
    sim.add_argument(
        "--motion", choices=["linear", "nonlinear", "crowded"], default="linear"
    )
    sim.add_argument("--turn-rate", type=float, default=0.5)
    sim.add_argument("--crossover-rate", type=float, default=0.5)
    sim.add_argument("--density", type=float, default=0.35)
    sim.add_argument("--occlusion", type=float, default=0.0)
    sim.add_argument("--speed-min", type=float, default=2.0)
    sim.add_argument("--speed-max", type=float, default=8.0)
    sim.add_argument("--image-size", default="1920x1080")
    sim.add_argument("--seed", type=int, default=None)

    trk = sub.add_parser("track", help="run the pipeline over a sequence")
    src = trk.add_mutually_exclusive_group(required=True)
    src.add_argument("--gt", help="ground-truth file (oracle denoiser)")
    src.add_argument("--det", help="detection file (snap denoiser)")
    trk.add_argument("--seqinfo", help="seqinfo.ini with image size")
    trk.add_argument("--image-size", help="WxH when no seqinfo is given")
    trk.add_argument("--out", required=True, help="result file")
    trk.add_argument(
        "--denoiser", choices=["oracle", "snap"], default=None,
        help="defaults to oracle with --gt, snap with --det",
    )
    _add_common_pipeline_flags(trk)

    ev = sub.add_parser("eval", help="score a result against ground truth")
    ev.add_argument("--gt", required=True)
    ev.add_argument("--result", required=True)
    ev.add_argument("--csv", help="append a CSV row here")

    ab = _add_experiment(sub, "ablate", "factor-grid ablations")
    ab.add_argument("--proportions", default="0,0.25,0.5,0.75,1.0")
    ab.add_argument("--paddings", default="repeat,gaussian,poisson,uniform,full")
    ab.add_argument(
        "--perturbations", default="constant,linear,exponential,logarithmic"
    )

    sw = _add_experiment(sub, "sweep", "box-count x step-count grid")
    sw.add_argument("--boxes", default="100,500")
    sw.add_argument("--step-counts", default="1,2,4")
    sw.add_argument("--n-seeds", type=int, default=3)

    rb = _add_experiment(sub, "robustness", "MOTA vs detection noise")
    rb.add_argument("--alphas", default="0,0.1,0.2,0.3,0.4,0.5")
    rb.add_argument("--n-seeds", type=int, default=5)

    # Robustness runs the snap denoiser, so only these take the oracle's.
    for p in (trk, ab, sw):
        p.add_argument("--fidelity", type=float, help="oracle denoiser fidelity")

    return parser


def _parse_image_size(raw: str) -> tuple[int, int]:
    try:
        w, h = raw.lower().split("x")
        size = int(w), int(h)
    except ValueError as exc:
        raise UsageError(f"bad --image-size {raw!r}, expected WxH") from exc
    if min(size) <= 0:
        raise UsageError(f"bad --image-size {raw!r}, width and height must be > 0")
    return size


def _resolve_image_size(args) -> tuple[int, int]:
    """--seqinfo, then --image-size, then a seqinfo.ini beside the input
    file, then ``_DEFAULT_IMAGE_SIZE``."""
    if args.seqinfo:
        return parse_seqinfo(args.seqinfo)[0]
    if args.image_size:
        return _parse_image_size(args.image_size)
    sidecar = Path(args.gt or args.det).parent / "seqinfo.ini"
    if sidecar.exists():
        return parse_seqinfo(sidecar)[0]
    return _DEFAULT_IMAGE_SIZE


# The numeric run flags, each with the config section and key it sets.
_RANGED_FLAGS = (
    ("--n-test", "pipeline", "n_test"),
    ("--steps", "pipeline", "steps"),
    ("--proportion", "pipeline", "proportion"),
    ("--fidelity", "oracle", "fidelity"),
)


def _check_ranged_flags(args) -> None:
    """A value its config rejects is a usage error naming the flag."""
    for flag, section, key in _RANGED_FLAGS:
        value = getattr(args, key, None)
        if value is None:
            continue
        try:
            check_value(section, key, value)
        except ValueError as exc:
            raise UsageError(f"bad {flag} {value!r}: {exc}") from None


def _cmd_simulate(args) -> int:
    if args.objects < 1:
        raise UsageError(f"--objects must be >= 1, got {args.objects}")
    if args.frames < 2:
        raise UsageError(f"--frames must be >= 2, got {args.frames}")
    if not 0.0 <= args.occlusion <= 1.0:
        raise UsageError(f"--occlusion must lie in [0, 1], got {args.occlusion}")
    low, high = args.speed_min, args.speed_max
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise UsageError("--speed-min and --speed-max must be finite with "
                         f"--speed-min <= --speed-max, got {low} and {high}")
    seed = _seed(args)
    image_size = _parse_image_size(args.image_size)
    if args.motion == "linear":
        motion = LinearMotion()
    elif args.motion == "nonlinear":
        if not 0.0 <= args.crossover_rate <= 1.0:
            raise UsageError(
                f"--crossover-rate must lie in [0, 1], got {args.crossover_rate}")
        if not math.isfinite(args.turn_rate):
            raise UsageError(f"--turn-rate must be finite, got {args.turn_rate}")
        motion = NonLinearMotion(
            turn_rate=args.turn_rate, crossover_rate=args.crossover_rate
        )
    else:
        if not args.density > 0.0:
            raise UsageError(f"--density must be > 0, got {args.density}")
        motion = CrowdedMotion(density=args.density)
    spec = SceneSpec(
        n_objects=args.objects,
        duration=args.frames,
        image_size=image_size,
        motion=motion,
        occlusion_rate=args.occlusion,
        speed=(args.speed_min, args.speed_max),
        seed=seed,
    )
    scene = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_gt(scene, out / "gt.txt")
    write_seqinfo(out / "seqinfo.ini", image_size, scene.n_frames)
    _write_manifest(
        out / "manifest.json", "simulate", seed,
        {
            "objects": args.objects,
            "frames": args.frames,
            "motion": args.motion,
            "turn_rate": args.turn_rate,
            "crossover_rate": args.crossover_rate,
            "density": args.density,
            "occlusion": args.occlusion,
            "speed": [args.speed_min, args.speed_max],
            "image_size": list(image_size),
        },
        outputs={"gt": str(out / "gt.txt"), "seqinfo": str(out / "seqinfo.ini")},
    )
    print(f"wrote {out / 'gt.txt'} ({scene.n_frames} frames)")
    return 0


def _read_mot(path, convert, *args):
    """``convert`` applied to a MOTChallenge file's frames; a bad file
    raises ``MotFormatError`` naming it."""
    rows = parse_motchallenge(path)
    try:
        return convert(rows, *args)
    except MotFormatError as exc:
        raise MotFormatError(f"{path}: {exc}") from exc


def _cmd_track(args) -> int:
    denoiser_kind = args.denoiser or ("oracle" if args.gt else "snap")
    if denoiser_kind == "oracle" and not args.gt:
        raise UsageError("the oracle denoiser needs --gt")
    if denoiser_kind == "snap" and args.fidelity is not None:
        raise UsageError("--fidelity sets the oracle denoiser; the snap "
                         "denoiser takes none")
    _check_ranged_flags(args)
    image_size = _resolve_image_size(args)
    seed = _seed(args)
    cfg, fidelity = resolve_run_config(load_config_file(args.config), **vars(args))

    scene = None
    detections = None
    if args.gt:
        scene = _read_mot(args.gt, scene_from_gt, image_size)
    else:
        detections = _read_mot(args.det, detections_from_rows)
    extra = {"denoiser": denoiser_kind, "image_size": list(image_size)}
    if denoiser_kind == "oracle":
        denoiser = OracleDenoiser(fidelity)
        extra["fidelity"] = fidelity
    else:
        denoiser = DetectionSnapDenoiser()
        if detections is None:
            detections = detection_stream(scene)

    result = run_sequence(
        cfg, denoiser, scene=scene, detections=detections,
        image_size=image_size, seed=seed,
    )
    write_results(result, args.out)
    _write_manifest(
        Path(args.out).with_suffix(".manifest.json"), "track", seed,
        dataclasses.asdict(cfg),
        inputs={"gt": args.gt or "", "det": args.det or ""},
        outputs={"result": args.out},
        extra=extra,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    scene = _read_mot(args.gt, scene_from_gt, _DEFAULT_IMAGE_SIZE)
    result = parse_results(args.result)
    report = evaluate(scene, result)
    print(report.to_text())
    if args.csv:
        new = not Path(args.csv).exists()
        with open(args.csv, "a") as fh:
            if new:
                fh.write(report.csv_header() + "\n")
            fh.write(report.to_csv_row() + "\n")
    return 0


def _parse_list(args, flag: str, kind, check=lambda value: None) -> list:
    """The comma-separated values of a grid flag. An empty grid, or a value
    that ``kind`` or ``check`` rejects with ``ValueError``, is a usage
    error naming the flag."""
    raw = getattr(args, flag.lstrip("-").replace("-", "_"))
    try:
        values = [kind(v.strip()) for v in raw.split(",") if v.strip()]
        for value in values:
            check(value)
    except ValueError as exc:
        raise UsageError(f"bad {flag} {raw!r}: {exc}") from None
    if not values:
        raise UsageError(f"{flag} needs at least one value, got {raw!r}")
    return values


def _seeds(first: int, n: int) -> range:
    if n < 1:
        raise UsageError(f"--n-seeds must be >= 1, got {n}")
    return range(first, first + n)


def _unit_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")


def _cmd_experiment(args) -> int:
    _check_ranged_flags(args)
    seed = _seed(args)
    cfg, fidelity = resolve_run_config(load_config_file(args.config), **vars(args))
    scene = _read_mot(args.gt, scene_from_gt, _resolve_image_size(args))

    def field(name):  # raises ValueError where PipelineConfig rejects the value
        return lambda value: dataclasses.replace(cfg, **{name: value})

    if args.command == "ablate":
        run, grid = ablate, {
            "fidelity": fidelity,
            "proportions": _parse_list(args, "--proportions", float,
                                       field("proportion")),
            "paddings": _parse_list(args, "--paddings", PaddingStrategy),
            "perturbations": _parse_list(args, "--perturbations", PerturbationSchedule),
            "seed": seed,
        }
    elif args.command == "sweep":
        run, grid = sweep, {
            "fidelity": fidelity,
            "box_counts": _parse_list(args, "--boxes", int, field("n_test")),
            "step_counts": _parse_list(args, "--step-counts", int, field("steps")),
            "seeds": _seeds(seed, args.n_seeds),
        }
    else:
        run, grid = robustness, {"alphas": _parse_list(args, "--alphas", float,
                                                       _unit_alpha),
                                 "seeds": _seeds(seed, args.n_seeds)}
    rows = run(scene, cfg, **grid)
    write_csv(rows, args.out)
    extra = {"argv": args.argv}
    if "fidelity" in grid:
        extra["fidelity"] = fidelity
    _write_manifest(
        Path(args.out).with_suffix(".manifest.json"), args.command, seed,
        dataclasses.asdict(cfg),
        inputs={"gt": args.gt},
        outputs={"csv": args.out},
        extra=extra,
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "track": _cmd_track,
    "eval": _cmd_eval,
    "ablate": _cmd_experiment,
    "sweep": _cmd_experiment,
    "robustness": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = argv
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MotFormatError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
