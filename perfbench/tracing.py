"""Span recorder installed from outside around metafib's layers.

``Tracer.install`` replaces each layer module's public functions, the
``SequenceTable`` and ``TruncatedSeries`` methods and every
``verify.IDENTITIES`` check with a wrapper that records one span per call:
name, layer, start, end, parent span and the op that caused it.  Spans are
kept in flat arrays while the traced pass runs; self time is computed from
them afterwards.  ``uninstall`` restores every original object, so untraced
passes run the package unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("sequences", "trees", "words", "series", "compositions", "codes",
          "oeis", "verify", "cli")
TRACED_CLASSES = {"sequences": ("SequenceTable",),
                  "series": ("TruncatedSeries",)}
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__eq__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str):
        nid = self._register(name, layer)
        stack = self._stack
        start, end, name_col = self.start, self.end, self.name_id
        parent_col, op_col = self.parent, self.op
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            op_col.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer of metafib; it must already be imported."""
        for layer in LAYERS:
            mod = sys.modules[f"metafib.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._patch(mod, attr, self.wrap(obj, f"{layer}.{attr}", layer))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                self._install_class(getattr(mod, cls_name), layer)
        verify = sys.modules["metafib.verify"]
        original = list(verify.IDENTITIES)
        verify.IDENTITIES[:] = [
            (title, self.wrap(check, "verify." + check.__name__.lstrip("_"), "verify"))
            for title, check in original
        ]
        self._restore.append((verify.IDENTITIES, slice(None), original))

    def _install_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(obj, name, layer))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(obj.__func__, name, layer)))
            elif isinstance(obj, property):
                self._patch(cls, attr, property(self.wrap(obj.fget, name, layer)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def summarize(self) -> dict:
        """Per-name and per-layer calls, inclusive time and self time."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_s = [0.0] * k
        for i in range(n):
            nid = name_id[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            self_s[nid] += dur - child[i]
        names, layers = {}, {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = self.layer_of[nid]
            names[name] = {"layer": layer, "calls": calls[nid],
                           "total_s": total[nid], "self_s": self_s[nid]}
            layers[layer]["calls"] += calls[nid]
            layers[layer]["self_s"] += self_s[nid]
        return {"spans": n, "names": names, "layers": layers}

    def write_spans(self, path) -> None:
        """Dump the spans: an 8-byte header length, a JSON header with the
        name table, then each column as raw native-endian array data."""
        header = {"names": self.names, "layers": self.layer_of, "count": len(self.start),
                  "columns": [["name_id", "i"], ["parent", "q"], ["op", "i"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for column in (self.name_id, self.parent, self.op, self.start, self.end):
                column.tofile(fh)
