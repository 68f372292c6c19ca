"""CLI, configuration, MOTChallenge file I/O and experiment drivers."""

from .io import (
    MotFrame,
    detections_from_rows,
    parse_motchallenge,
    parse_results,
    parse_seqinfo,
    scene_from_gt,
    write_gt,
    write_results,
    write_seqinfo,
)
from .manifest import RunManifest, write_manifest

__all__ = [
    "MotFrame",
    "parse_motchallenge",
    "parse_results",
    "parse_seqinfo",
    "scene_from_gt",
    "detections_from_rows",
    "write_gt",
    "write_results",
    "write_seqinfo",
    "RunManifest",
    "write_manifest",
]
