"""Deterministic NumPy-dispatch counter for the simulator's slot loop.

At the cell sizes the paper studies (N = 20-40) a slot costs one to two
hundred NumPy calls of a microsecond or so each, so "NumPy calls per
slot" is the work counter that tracks slot-loop speed without
wall-clock noise.  :func:`count_numpy_calls` swaps the ``np`` global of
every loaded ``repro`` module for a counting proxy and, through
``sys.setprofile``, counts ndarray method calls made from ``repro``
code:

* ufuncs (``np.add(...)``) and ufunc methods (``np.add.reduceat``) count
  one each;
* NumPy functions (``np.flatnonzero``, ``np.asarray``, ...) count one
  each — calls NumPy makes internally are not counted;
* ndarray methods (``x.any()``, ``x.sum()``, ``x.copy()``) count one each;
* types (``np.float64``, ``np.ndarray``, ``np.errstate``), submodules
  and constants (``np.inf``) pass through uncounted.

Usage::

    with count_numpy_calls() as counts:
        Simulation(cfg, sched, wl).run()
    counts.total, counts.by_module

The counts depend only on the code path, never on timing, so tests can
pin them.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from contextlib import contextmanager

import numpy

__all__ = ["DispatchCounts", "count_numpy_calls"]


class DispatchCounts:
    """Per-module call tallies of one counting window."""

    def __init__(self):
        self.by_module: Counter = Counter()
        #: ``"module:function"`` of the calling frame -> calls.
        self.by_site: Counter = Counter()

    @property
    def total(self) -> int:
        return sum(self.by_module.values())


class _CountingUfunc:
    """A ufunc whose calls and method calls (``reduce``, ...) are counted."""

    __slots__ = ("_uf", "_hit", "_methods")

    def __init__(self, uf, hit):
        self._uf = uf
        self._hit = hit
        self._methods = {}

    def __call__(self, *args, **kwargs):
        self._hit()
        return self._uf(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._uf, name)
        if not callable(attr):
            return attr
        wrapped = self._methods.get(name)
        if wrapped is None:
            hit = self._hit

            def wrapped(*args, **kwargs):
                hit()
                return attr(*args, **kwargs)

            self._methods[name] = wrapped
        return wrapped


class _CountingNumpy(types.ModuleType):
    """Stand-in for one module's ``np`` global."""

    def __init__(self, module_name: str, counts: DispatchCounts):
        super().__init__("numpy")
        self._module_name = module_name
        self._counts = counts
        self._cache = {}

    def _hit(self) -> None:
        counts = self._counts
        counts.by_module[self._module_name] += 1
        # Frames: _hit <- the counting wrapper <- the calling repro code.
        caller = sys._getframe(2).f_code.co_name
        counts.by_site[f"{self._module_name}:{caller}"] += 1

    def __getattr__(self, name):
        cache = self.__dict__["_cache"]
        try:
            return cache[name]
        except KeyError:
            pass
        attr = getattr(numpy, name)
        if isinstance(attr, numpy.ufunc):
            out = _CountingUfunc(attr, self._hit)
        elif isinstance(attr, (type, types.ModuleType)) or not callable(attr):
            out = attr
        else:
            hit = self._hit

            def out(*args, _fn=attr, **kwargs):
                hit()
                return _fn(*args, **kwargs)

        cache[name] = out
        return out


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if (
            module is not None
            and (name == "repro" or name.startswith("repro."))
            and getattr(module, "np", None) is numpy
        ):
            yield name, module


@contextmanager
def count_numpy_calls():
    """Count the NumPy calls ``repro`` code makes inside the block."""
    counts = DispatchCounts()
    swapped = []
    for name, module in _repro_modules():
        module.np = _CountingNumpy(name, counts)
        swapped.append(module)
    ndarray = numpy.ndarray

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), ndarray):
            name = frame.f_globals.get("__name__", "")
            if name == "repro" or name.startswith("repro."):
                counts.by_module[name] += 1
                counts.by_site[f"{name}:{frame.f_code.co_name}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)
        for module in swapped:
            module.np = numpy
