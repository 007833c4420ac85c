"""Span tracer for the benchmark's traced run.

``Tracer.patch`` wraps the public functions and the public methods of public
classes of the given modules. Every call of a wrapper records one span: its
name, start, end, parent span and operation id, kept in flat in-memory arrays.
Per-layer call counts, inclusive time and self time are derived from those
spans afterwards (``Tracer.layers``) and the spans can be written out
(``Tracer.save``).

Nothing in the traced package changes on disk. A wrapper is installed by
rebinding every reference to the original object that a module holds: the
defining module, every module that imported the name with ``from ... import``,
and module-level dicts such as a runner or fixture table. ``Patches.uninstall``
puts the originals back, so code run between traced operations is untouched.

The tracer assumes a single thread, like the benchmark itself.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from types import FunctionType, ModuleType
from typing import Callable

# Per-call attributes recorded next to a span, keyed by layer name:
# attribute name -> function of the call's bound arguments.
Attr = Callable[[dict], float]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = -1
        self._next = 0
        self._stack = [-1]
        self.span = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[str, list[float]] = {}

    def wrap(self, name: str, fn: Callable, attrs: dict[str, Attr] | None = None) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        depth = [0]
        stack = self._stack
        perf = time.perf_counter
        sig = inspect.signature(fn) if attrs else None
        rec = {key: self.attrs.setdefault(f"{name}.{key}", []) for key in attrs or ()}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, get in attrs.items():
                    rec[key].append(float(get(bound)))
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            depth[0] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                depth[0] -= 1
                stack.pop()
                self.span.append(sid)
                self.name.append(name_id)
                self.parent.append(parent)
                self.op_id.append(self.op)
                # outermost call of this name: counts toward inclusive time
                self.outer.append(depth[0] == 0)
                self.start.append(t0)
                self.end.append(t1)

        return traced

    def patch(self, modules: list[ModuleType], prefix: str,
              attrs: dict[str, dict[str, Attr]] | None = None) -> "Patches":
        """Plan wrappers for the public callables defined in ``modules``.

        Layer names drop ``prefix`` from the module name, so
        ``ambrose.chart_calculus.fd_array`` becomes ``chart_calculus.fd_array``.
        """
        attrs = attrs or {}
        wrapped: dict[int, Callable] = {}
        edits: list[tuple[object, str, object, object]] = []

        def layer(mod: ModuleType, qual: str) -> str:
            return f"{mod.__name__.removeprefix(prefix)}.{qual}"

        for mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    name = layer(mod, attr)
                    wrapped[id(obj)] = self.wrap(name, obj, attrs.get(name))
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = layer(mod, f"{attr}.{meth}")
                        if isinstance(raw, FunctionType):
                            new = self.wrap(name, raw, attrs.get(name))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            new = type(raw)(self.wrap(name, raw.__func__, attrs.get(name)))
                        else:
                            continue
                        edits.append((obj, meth, raw, new))
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped:
                    edits.append((mod, attr, obj, wrapped[id(obj)]))
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        new = _swap(val, wrapped)
                        if new is not val:
                            edits.append((obj, key, val, new))
        return Patches(edits)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds (outermost calls only, so a
        recursive layer is not counted twice) and self seconds (span time not
        covered by child spans)."""
        import numpy as np

        span = np.frombuffer(self.span, np.int64)
        name = np.frombuffer(self.name, np.int64)
        parent = np.frombuffer(self.parent, np.int64)
        outer = np.frombuffer(self.outer, np.int8).astype(bool)
        dur = np.frombuffer(self.end, float) - np.frombuffer(self.start, float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=self._next)
        self_s = dur - child[span]
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        incl = np.bincount(name, weights=np.where(outer, dur, 0.0), minlength=size)
        own = np.bincount(name, weights=self_s, minlength=size)
        return {
            n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the spans as a compressed ``.npz`` with a ``names`` table."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            span=np.frombuffer(self.span, np.int64),
            name=np.frombuffer(self.name, np.int64),
            parent=np.frombuffer(self.parent, np.int64),
            op=np.frombuffer(self.op_id, np.int64),
            start=np.frombuffer(self.start, float),
            end=np.frombuffer(self.end, float),
        )


def _swap(val, wrapped: dict[int, Callable]):
    """``val`` with wrapped callables substituted, or ``val`` itself."""
    if id(val) in wrapped:
        return wrapped[id(val)]
    if isinstance(val, tuple) and any(id(v) in wrapped for v in val):
        return tuple(wrapped.get(id(v), v) for v in val)
    return val


class Patches:
    """A reversible set of rebindings; install before a traced operation."""

    def __init__(self, edits: list[tuple[object, str, object, object]]) -> None:
        self.edits = edits

    def install(self) -> None:
        for owner, key, _, new in self.edits:
            _set(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old, _ in reversed(self.edits):
            _set(owner, key, old)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
