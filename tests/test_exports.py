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


def test_array_giou_exported():
    # One array GIoU kernel serves plain and paired rows; the scalar box
    # geometry it replaced is gone.
    assert "giou" in pairtrack.__all__
    assert "giou" in pairtrack.geometry.__all__
    for name in ("PairedBox", "iou", "iou3d", "giou3d", "iou3d_matrix"):
        assert name not in pairtrack.__all__
        assert not hasattr(pairtrack.geometry, name)


def test_box_record_left_to_the_result_view():
    # ``BBox`` is only the box of a ``TrackingResult.frames`` row.
    assert "BBox" not in pairtrack.__all__
    assert not hasattr(pairtrack, "BBox")
    assert "BBox" not in pairtrack.geometry.__all__
    assert not hasattr(pairtrack.geometry, "BBox")
    assert "BBox" in pairtrack.tracker.__all__


def test_signal_space_owned_by_diffusion():
    # Denoisers see pixels; only the DDIM loop's module maps to and from
    # the signal space.
    for name in ("pixel_to_signal", "signal_to_pixel"):
        owners = [
            m for m in MODULES
            if name in getattr(importlib.import_module(m), "__all__", [])
        ]
        assert owners == ["pairtrack.diffusion"], name


def test_schedule_owned_by_diffusion():
    # One schedule, built once in the DDIM loop's module: no caller builds,
    # passes or sizes one.
    for name in ("TIMESTEPS", "ALPHA_BAR", "BETA"):
        owners = [
            m for m in MODULES
            if name in getattr(importlib.import_module(m), "__all__", [])
        ]
        assert owners == ["pairtrack.diffusion"], name
    for m in MODULES:
        exported = getattr(importlib.import_module(m), "__all__", [])
        assert not {"NoiseSchedule", "cosine_schedule"} & set(exported), m
