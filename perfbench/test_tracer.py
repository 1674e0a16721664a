"""Tests of the span recorder: self-time arithmetic and clean uninstall.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer, span_table  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    t = span_table(
        name_id=np.array([0, 1, 2, 3]),
        parent=np.array([-1, 0, 0, 2]),
        start=np.array([0.0, 1.0, 4.0, 5.0]),
        end=np.array([10.0, 3.0, 8.0, 6.0]),
    )
    assert t["self"].tolist() == [4.0, 2.0, 3.0, 1.0]
    assert t["root"].tolist() == [0, 0, 0, 0]
    assert t["self"].sum() == t["dur"][0]


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def middle(x):
        return inner.leaf(x) * 2

    class Box:
        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            return Box(self.v + other.v)

        __radd__ = __add__

        @classmethod
        def make(cls, v):
            return cls(v)

    inner.leaf, inner.Box = leaf, Box
    outer.leaf, outer.middle = leaf, middle  # as after `from .inner import leaf`
    for mod in (pkg, inner, outer):
        sys.modules[mod.__name__] = mod
    return inner, outer, Box


def test_wrappers_nest_and_uninstall_restores_every_binding():
    inner, outer, Box = _fake_package()
    originals = (inner.leaf, outer.leaf, outer.middle, dict(vars(Box)))
    tracer = Tracer()
    try:
        tracer.install_function(inner, "leaf", "inner.leaf")
        tracer.install_function(outer, "middle", "outer.middle")
        for attr in ("__add__", "__radd__", "make"):
            tracer.install_method(Box, attr, f"inner.Box.{attr}")
        assert outer.leaf is inner.leaf is not originals[0]

        with tracer.span("stage.test"):
            assert outer.middle(1) == 4
            assert (Box.make(1) + Box(2)).v == 3
    finally:
        tracer.uninstall()
        for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
            del sys.modules[name]

    assert (inner.leaf, outer.leaf, outer.middle) == originals[:3]
    assert inner.leaf is originals[0] and outer.leaf is originals[0]
    assert all(vars(Box)[k] is v for k, v in originals[3].items())

    t = tracer.arrays()
    names = [tracer.names[i] for i in t["name_id"]]
    assert names == ["stage.test", "outer.middle", "inner.leaf", "inner.Box.make",
                     "inner.Box.__add__"]
    assert t["parent"].tolist() == [-1, 0, 1, 0, 0]
    assert abs(t["self"].sum() - t["dur"][0]) < 1e-12


def test_layer_install_restores_sidkit():
    import layers
    import sidkit
    from sidkit import (alignment, autodiff, catalog, cli, collision, quantizer, retrieval,
                        sidmetrics)

    modules = (sidkit, alignment, autodiff, catalog, cli, collision, quantizer, retrieval,
               sidmetrics)
    before = [dict(vars(m)) for m in modules]
    classes = [cls for cls, _, _ in layers.METHODS]
    before_cls = [dict(vars(cls)) for cls in classes]

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.load_item_catalog is catalog.load_item_catalog
        assert cli.load_item_catalog is not before[4]["load_item_catalog"]
        assert retrieval.flat_tokens_to_sid is not before[7]["flat_tokens_to_sid"]
    finally:
        tracer.uninstall()

    for m, snapshot in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in snapshot.items()), m.__name__
    for cls, snapshot in zip(classes, before_cls):
        assert all(vars(cls)[k] is v for k, v in snapshot.items()), cls.__name__
