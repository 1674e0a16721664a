"""In-memory spans around sidkit's public functions, installed from outside.

A :class:`Tracer` records one span per call of each wrapped function: its
name, start, end and the span that was open when it began (its parent).
Spans live in flat arrays until the run ends, then :meth:`Tracer.save`
writes them out.  Self time is a span's duration minus the durations of its
direct children; calls in this package are single-threaded, so children
never overlap and that difference is exactly the uncovered part.

Wrappers replace every binding of a function inside the ``sidkit`` package,
so a name imported with ``from .catalog import load_item_catalog`` is
patched where ``sidkit.cli`` looks it up, not only in ``sidkit.catalog``.
Methods are replaced on their class.  :meth:`Tracer.uninstall` puts every
original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

HOOK = "trace.hook"


class Tracer:
    """Span recorder.  Span names are ``<layer>.<function>``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._begin(self._nid(name))
        try:
            yield
        finally:
            self._finish(i)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` with a span around each call.

        ``hook(tracer, args, kwargs, result)`` runs after the call and is
        itself recorded as a ``trace.hook`` span, so its cost is charged to
        the tracer and not to the caller's self time.
        """
        nid = self._nid(name)
        hook_nid = self._nid(HOOK)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if hook is not None:
                j = begin(hook_nid)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    finish(j)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install_function(self, module, attr: str, name: str, hook=None) -> None:
        """Wrap ``module.attr`` and every other binding of it in its package."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, hook)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install_method(self, cls: type, attr: str, name: str, hook=None) -> None:
        """Wrap a method, classmethod or staticmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, hook))
        else:
            wrapped = self.wrap(name, raw, hook)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with durations, self times and root spans."""
        return span_table(
            np.asarray(self.name_id, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.start, dtype=np.float64),
            np.asarray(self.end, dtype=np.float64),
        )

    def save(self, path: Path) -> None:
        t = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=t["name_id"],
            parent=t["parent"],
            start=t["start"],
            end=t["end"],
        )


def span_table(name_id, parent, start, end) -> dict[str, np.ndarray]:
    """Add ``dur``, ``self`` (duration minus direct children) and ``root``."""
    dur = end - start
    n = dur.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    root = np.where(has_parent, parent, np.arange(n))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    return {
        "name_id": name_id,
        "parent": parent,
        "start": start,
        "end": end,
        "dur": dur,
        "self": dur - child[:n],
        "root": root,
    }
