"""Flat sectioned key-value configuration with layered precedence.

Resolution order for every knob: CLI flag > config-file key > built-in
default. Files are INI-style with one section per component config, whose
fields (plus the oracle's ``fidelity``) are the only keys; any other section
or key is an error rather than silently ignored::

    [pipeline]
    n_test = 500
    steps = 1
    proportion = 0.25
    padding = gaussian
    perturbation = logarithmic
    variant = diffusion

    [tracker]
    conf_threshold = 0.25
    det_threshold = 0.7

    [oracle]
    fidelity = 0.9
    snap_cap = 0.035
"""

from __future__ import annotations

import configparser
import dataclasses
from enum import Enum
from pathlib import Path
from typing import Any, get_type_hints

from ..denoiser import OracleConfig
from ..pipeline import PipelineConfig
from ..tracker import TrackerConfig

__all__ = ["load_config_file", "resolve_pipeline_config", "resolve_oracle",
           "config_snapshot"]


def _fields(cls) -> dict[str, Any]:
    """Field name -> type of a config dataclass, nested configs left out."""
    hints = get_type_hints(cls)
    return {k: t for k, t in hints.items() if not dataclasses.is_dataclass(t)}


_SCHEMA = {
    "pipeline": _fields(PipelineConfig),
    "tracker": _fields(TrackerConfig),
    "oracle": {"fidelity": float, **_fields(OracleConfig)},
}


def load_config_file(path: str | Path | None) -> dict[str, dict[str, str]]:
    """Read an INI config into raw string sections; empty without a path."""
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    values = {section: dict(cp[section]) for section in cp.sections()}
    for section, keys in values.items():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ValueError(f"{path}: [{section}] unknown key {key!r}")
    return values


def _coerce(kind: Any, raw: str):
    if issubclass(kind, Enum):
        return kind(raw.strip().lower())
    return kind(raw)


def _layer(section: str, file_values: dict | None, overrides: dict) -> dict:
    """Typed keyword arguments for one section's config, file then overrides."""
    file_section = (file_values or {}).get(section, {})
    out = {}
    for name, kind in _SCHEMA[section].items():
        if name in file_section:
            out[name] = _coerce(kind, file_section[name])
        value = overrides.get(name)
        if value is not None:
            out[name] = value if not isinstance(value, str) else _coerce(kind, value)
    return out


def resolve_pipeline_config(
    file_values: dict[str, dict[str, str]] | None = None,
    **overrides,
) -> PipelineConfig:
    """Build a pipeline config from defaults, file values, then overrides."""
    pipeline_kwargs = _layer("pipeline", file_values, overrides)
    tracker_kwargs = _layer("tracker", file_values, overrides)
    return PipelineConfig(
        tracker=TrackerConfig(**tracker_kwargs), **pipeline_kwargs
    )


def resolve_oracle(
    file_values: dict[str, dict[str, str]] | None = None,
    **overrides,
) -> tuple[float, OracleConfig]:
    """Oracle fidelity plus score-model parameters from the same layers."""
    kwargs = _layer("oracle", file_values, overrides)
    fidelity = kwargs.pop("fidelity", 0.9)
    return fidelity, OracleConfig(**kwargs)


def config_snapshot(cfg) -> dict:
    """Flatten a config dataclass into JSON-ready primitives for a manifest."""

    def plain(value):
        if dataclasses.is_dataclass(value):
            return {
                f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        if isinstance(value, Enum):
            return value.value
        return value

    return plain(cfg)
