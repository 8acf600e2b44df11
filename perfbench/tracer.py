"""Timing wrappers installed from outside around spde_lab's public functions.

Nothing inside the program changes: ``Tracer.install`` replaces every binding
of each public function and public method of the traced modules with a
wrapper that counts calls and accumulates busy and self time, and
``Tracer.remove`` puts the original objects back.  Modules import functions
by name (``rkhs.solve_forward``, ``markov.element_from_h``, the package's own
re-exports), so every module attribute and module-level dict entry that holds
an original is rebound, not only the defining one.

Hot calls (one per path and time step) are aggregated into counters instead
of spans: per wrapped name the tracer keeps calls, busy seconds (outermost
calls only, so recursion is not counted twice) and self seconds (busy minus
the time covered by nested wrapped calls).  The worker keeps one span per op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

PACKAGE = "spde_lab"
LAYERS = ("simulate", "lattice", "markov", "pde", "rkhs", "spectral", "cli")

# The cli command handlers are reached only through main's dispatch table;
# their self time (config plumbing, hashing, report and CSV writing) is
# counted in cli.main, which is how the benchmark's metrics name it.
UNWRAPPED_PREFIXES = {"cli": ("cmd_",)}


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, busy_s, self_s, depth]
        self.paused = False    # gates and reference checks run untraced
        self._stack = []       # child time of each open wrapped call
        self._owner = threading.get_ident()
        self._patches = []     # (container, key, original value)
        self._wrapper_ids = set()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        """Counting wrapper.  Timing is kept for the installing thread only:
        the benchmark runs the program with its default (serial) threading,
        and calls from other threads are counted without time."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if get_ident() != tracer._owner:
                stats[0] += 1
                return fn(*args, **kwargs)
            stack.append(0.0)
            stats[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stats[3] -= 1
                stats[0] += 1
                if not stats[3]:  # outermost call of this name
                    stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        self._wrapper_ids.add(id(wrapper))
        return wrapper

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the traced layers."""
        replace = {}  # id(original) -> (original, wrapper); keeps originals alive
        class_patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            skip = UNWRAPPED_PREFIXES.get(layer, ())
            for attr, val in vars(mod).items():
                if attr.startswith("_") or attr.startswith(skip):
                    continue
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    replace[id(val)] = (val, self._wrap(f"{layer}.{attr}", val))
                elif inspect.isclass(val):
                    for meth, raw in list(vars(val).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, staticmethod):
                            w = staticmethod(self._wrap(
                                f"{layer}.{attr}.{meth}", raw.__func__))
                        elif inspect.isfunction(raw):
                            w = self._wrap(f"{layer}.{attr}.{meth}", raw)
                        else:  # properties, cached properties, class constants
                            continue
                        class_patches.append((val, meth, raw, w))
        for cls, meth, raw, w in class_patches:
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, w)
        for box in _bindings():
            for key, val in list(box.items()):
                if id(val) in replace:
                    self._patches.append((box, key, val))
                    box[key] = replace[id(val)][1]

    def remove(self) -> None:
        """Restore every patched binding; raise if a wrapper is left behind."""
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()
        for box in _bindings():
            for key, val in box.items():
                if id(val) in self._wrapper_ids:
                    raise RuntimeError(f"wrapper left on binding {key!r}")
                if inspect.isclass(val):
                    for meth, raw in vars(val).items():
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if id(fn) in self._wrapper_ids:
                            raise RuntimeError(
                                f"wrapper left on {val.__qualname__}.{meth}")

    def snapshot(self) -> dict:
        """Counters of every wrapped name, uncalled ones included, so a
        missing name means the program no longer has that function."""
        return {name: {"calls": c, "busy_s": b, "self_s": s}
                for name, (c, b, s, _) in sorted(self.stats.items())}


def _bindings() -> list:
    """Namespaces of the package's modules plus their module-level dicts."""
    boxes = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        ns = vars(mod)
        boxes.append(ns)
        boxes.extend(v for k, v in ns.items()
                     if isinstance(v, dict) and not k.startswith("__"))
    return boxes
