"""Argument coercion and read-only views for the per-slot hot path."""

from __future__ import annotations

import numpy as np

__all__ = ["as_array", "read_only"]


def as_array(x, dtype=None) -> np.ndarray:
    """``np.asarray(x, dtype)``, without the call when ``x`` already is one.

    An exact ``ndarray`` of the wanted dtype (any dtype when ``dtype`` is
    ``None``) is returned as is; anything else goes through
    ``np.asarray``.
    """
    if type(x) is np.ndarray and (dtype is None or x.dtype == dtype):
        return x
    return np.asarray(x, dtype=dtype)


def read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that cannot be written through."""
    view = a.view()
    view.flags.writeable = False
    return view
