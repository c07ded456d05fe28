"""Spans around calls into the package's modules, recorded from outside.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, in each layer module that binds it: `symbolpipe` imports
`fejer_riesz_factor` by name, so `symbolpipe.fejer_riesz_factor` is the
attribute wrapped for that caller. It also puts a counting proxy in place of
`certify.np`, so the Hermitian matrices the Agler engines hand to
`eigvalsh` are counted. `uninstall` restores every original. Spans stay in
memory until the benchmark writes them out.
"""
from __future__ import annotations

import functools
import inspect
import math
import time

import numpy as np

# Recursive functions that get one span for the outermost call only; their
# inner calls run unwrapped.
OUTERMOST_ONLY = {"cli.render_json"}
# Not wrapped: Polynomial.__call__ runs poly_eval about a hundred times per
# measure_scan operation, and a span each would distort the layer shares.
UNWRAPPED = {"polyrat.poly_eval"}


class _LinalgProxy:
    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def eigvalsh(self, a, *args, **kwargs):
        shape = np.shape(a)
        if len(shape) >= 2:
            # math.prod, as np.prod would add microseconds to every call
            batch = math.prod(shape[:-2])
            self._tracer.eig_calls += batch
            self._tracer.eig_n3 += batch * shape[-1] ** 3
        return np.linalg.eigvalsh(a, *args, **kwargs)


class _NumpyProxy:
    def __init__(self, tracer):
        self.linalg = _LinalgProxy(tracer)

    def __getattr__(self, name):
        value = getattr(np, name)
        setattr(self, name, value)      # later lookups skip __getattr__
        return value


class Tracer:
    """Span store: each span is [op, name, parent, start, end]; parent is
    the index of the enclosing span, or -1."""

    def __init__(self, modules: dict):
        self.modules = modules          # short layer name -> module object
        self.spans: list = []
        self.stack: list = []
        self.eig_calls = 0
        self.eig_n3 = 0
        self.op = -1
        self._patches: list = []     # (module, attribute, original, wrapper)

    # -------------------------------------------------------------- spans
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([self.op, name,
                           self.stack[-1] if self.stack else -1,
                           time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, module, attr: str):
        begin, end = self.begin, self.end
        if name in OUTERMOST_ONLY:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = begin(name)
                setattr(module, attr, fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    setattr(module, attr, wrapper)
                    end(idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(idx)
        return wrapper

    # ------------------------------------------------------------ patching
    def install(self):
        if not self._patches:
            for layer, defining in self.modules.items():
                for attr, fn in vars(defining).items():
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != defining.__name__
                            or f"{layer}.{attr}" in UNWRAPPED):
                        continue
                    for caller in self.modules.values():
                        if vars(caller).get(attr) is fn:
                            self._patches.append((caller, attr, fn, self._wrap(
                                f"{layer}.{attr}", fn, caller, attr)))
            certify = self.modules["certify"]
            self._patches.append((certify, "np", certify.np, _NumpyProxy(self)))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
