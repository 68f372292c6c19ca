"""Run manifests: one JSON record per run, sufficient to reproduce it."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

ARTIFACT_VERSION = "0.1.0"

__all__ = ["RunManifest", "write_manifest", "ARTIFACT_VERSION"]


@dataclass
class RunManifest:
    command: str
    seed: int
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    timestamp: str = ""
    artifact_version: str = ARTIFACT_VERSION

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()


def write_manifest(manifest: RunManifest, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path
