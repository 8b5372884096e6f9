"""Spans around the public functions of asymloss's layers, recorded from outside.

``Tracer.install()`` replaces every public module-level function of each
layer module, and every public method of the distribution classes, with a
wrapper that records a span: name, start, end and parent.  The wrapper is
bound wherever the package holds a reference to the function, including
names imported into other modules, so calls between layers are seen.
Generator functions get one span per item they yield.

Spans are kept in flat arrays in memory and written out once, at the end
of a run.  A span's self time is its duration minus that of its child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "solver", "loss_model", "inequalities", "distributions", "montecarlo", "specfun")

# Work items a span handled, for the per-layer rates.
_ITEMS = {
    "cli.read_error_csv": lambda args, result: len(result),
    "inequalities.sweep": lambda args, result: len(result),
    "distributions.fit_empirical": lambda args, result: int(np.size(args[0])),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self._stack = [-1]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.items.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        items = _ITEMS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.items[idx] = len(item)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if items is not None:
                self.items[idx] = items(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the layers of the imported asymloss package."""
        from asymloss import ErrorDistribution

        replaced = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"asymloss.{layer}")
            except ImportError:
                continue  # a layer folded into another leaves its metrics at 0
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replaced[id(value)] = self.wrap(f"{layer}.{attr}", value)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and issubclass(value, ErrorDistribution)
                ):
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth, self.wrap(f"{layer}.{meth}", fn))
        for name, module in list(sys.modules.items()):
            if name == "asymloss" or name.startswith("asymloss."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])

    def reset(self):
        """Drop the spans recorded so far (between operations only)."""
        for buf in (self.name_id, self.parent, self.start, self.end, self.items):
            del buf[:]

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id),
            parent=np.array(self.parent),
            start=np.array(self.start),
            end=np.array(self.end),
            items=np.array(self.items),
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self.name_id)

    def summary(self, upto=None):
        """Per span name: count, total and self seconds, items; per layer: self
        seconds, and count and seconds of the calls entering it from outside.

        ``upto`` keeps only the spans recorded before that many, a boundary
        between operations taken with ``len(tracer)``.
        """
        cut = slice(0, len(self) if upto is None else upto)
        nid = np.array(self.name_id[cut])
        parent = np.array(self.parent[cut])
        dur = np.array(self.end[cut]) - np.array(self.start[cut])
        items = np.array(self.items[cut])
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child

        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int32)
        layer = layer_of_name[nid]
        entry = np.where(has_parent, layer[np.maximum(parent, 0)], -1) != layer

        def total(keys, weights, size):
            return np.bincount(keys, weights=weights, minlength=size)

        spans = {
            name: {"count": int(c), "seconds": float(s), "self_seconds": float(o), "items": int(i)}
            for name, c, s, o, i in zip(
                self.names,
                total(nid, None, n_names),
                total(nid, dur, n_names),
                total(nid, own, n_names),
                total(nid, items.astype(float), n_names),
            )
        }
        n_layers = len(LAYERS)
        layers = {
            name: {"self_seconds": float(o), "entries": int(c), "entry_seconds": float(s)}
            for name, o, c, s in zip(
                LAYERS,
                total(layer, own, n_layers),
                total(layer[entry], None, n_layers),
                total(layer[entry], dur[entry], n_layers),
            )
        }
        return {"spans": spans, "layers": layers, "n_spans": int(nid.size)}
