"""Flat sectioned key-value configuration with layered precedence.

Resolution order for every knob: CLI flag > config-file key > built-in
default. Files are INI-style with one section per component config, whose
fields are the only keys, and an ``[oracle]`` section whose one key is
``fidelity``; any other section or key, a value its field's type cannot
take or its config rejects, or a file ``configparser`` cannot read is a
``ValueError`` naming the file rather than silently ignored::

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
"""

from __future__ import annotations

import configparser
import dataclasses
from enum import Enum
from pathlib import Path
from typing import Any, get_type_hints

from ..denoiser import OracleDenoiser
from ..pipeline import PipelineConfig
from ..tracker import TrackerConfig

__all__ = ["check_value", "load_config_file", "resolve_run_config"]


def _fields(cls) -> dict[str, Any]:
    """Field name -> type of a config dataclass, nested configs left out."""
    hints = get_type_hints(cls)
    return {k: t for k, t in hints.items() if not dataclasses.is_dataclass(t)}


_SCHEMA = {
    "pipeline": _fields(PipelineConfig),
    "tracker": _fields(TrackerConfig),
    "oracle": {"fidelity": float},
}


def load_config_file(path: str | Path | None) -> dict[str, dict[str, Any]]:
    """Read an INI config into sections of typed values; empty without a
    path."""
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
        raw = {section: dict(cp[section]) for section in cp.sections()}
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not read:
        raise FileNotFoundError(path)
    values: dict[str, dict[str, Any]] = {}
    for section, keys in raw.items():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]")
        values[section] = {}
        for key, text in keys.items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"{path}: [{section}] unknown key {key!r}")
            try:
                value = _coerce(_SCHEMA[section][key], text)
                check_value(key, value)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: [{section}] {key} = {text!r}: {exc}"
                ) from exc
            values[section][key] = value
    return values


def check_value(key: str, value) -> None:
    """Raise the ``ValueError`` of the config whose section holds ``key``
    when it rejects ``value``; a key that no section holds is left alone."""
    if key in _SCHEMA["oracle"]:
        OracleDenoiser(value)
    elif key in _SCHEMA["pipeline"]:
        PipelineConfig(**{key: value})
    elif key in _SCHEMA["tracker"]:
        TrackerConfig(**{key: value})


def _coerce(kind: Any, raw: str):
    if issubclass(kind, Enum):
        return kind(raw.strip().lower())
    return kind(raw)


def resolve_run_config(
    file_values: dict[str, dict[str, Any]] | None = None,
    **overrides,
) -> tuple[PipelineConfig, float]:
    """A run's pipeline config and oracle fidelity.

    Every section is layered the same way: an override that is not None
    wins over a file key, which wins over the default. String values get
    their field's type; overrides that name no field are ignored.
    """
    sections = {}
    for section, fields in _SCHEMA.items():
        file_section = (file_values or {}).get(section, {})
        sections[section] = {}
        for name, kind in fields.items():
            value = overrides.get(name)
            if value is None:
                value = file_section.get(name)
            if isinstance(value, str):
                value = _coerce(kind, value)
            if value is not None:
                sections[section][name] = value
    cfg = PipelineConfig(
        tracker=TrackerConfig(**sections["tracker"]), **sections["pipeline"]
    )
    return cfg, sections["oracle"].get("fidelity", 0.9)
