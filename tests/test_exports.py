"""Every public name a ``pairtrack`` module exports must resolve."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import pairtrack

MODULES = ["pairtrack"] + [
    m.name for m in pkgutil.walk_packages(pairtrack.__path__, "pairtrack.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    assert len(set(exported)) == len(exported)


def test_scalar_geometry_exported():
    for name in ("giou", "giou3d", "iou3d"):
        assert name in pairtrack.__all__
        assert name in pairtrack.geometry.__all__


def test_signal_space_owned_by_diffusion():
    # Denoisers see pixels; only the DDIM loop's module maps to and from
    # the signal space.
    for name in ("pixel_to_signal", "signal_to_pixel"):
        owners = [
            m for m in MODULES
            if name in getattr(importlib.import_module(m), "__all__", [])
        ]
        assert owners == ["pairtrack.diffusion"], name
