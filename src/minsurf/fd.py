"""Finite-difference kernels on uniform 1-D axes.

Interior points use centered stencils; boundary points fall back to
one-sided stencils of the same nominal order so whole-grid fields stay
usable, but identity checks should exclude a boundary collar (see
``interior_mask``).  Order 4 exists for the few checks whose tolerances
sit below what order 2 can reach on practical grids.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def spacing(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 5:
        raise InvalidInputError("axis must be 1-D with at least 5 samples")
    h = np.diff(x)
    if not np.allclose(h, h[0], rtol=1e-10, atol=0.0):
        raise InvalidInputError("axis must be uniformly spaced")
    return float(h[0])


def _moved(f, axis, order):
    """``f`` with ``axis`` first, once ``order`` is known to be 2 or 4."""
    if order not in (2, 4):
        raise InvalidInputError("order must be 2 or 4")
    return np.moveaxis(np.asarray(f, dtype=float), axis, 0)


def d1(f, h, axis=0, order=2):
    """First derivative along ``axis`` with uniform spacing ``h``."""
    g = _moved(f, axis, order)
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    out[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
    out[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    if order == 4:  # order-2 rows stay in the boundary collar
        out[2:-2] = (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def d2(f, h, axis=0, order=2):
    """Second derivative along ``axis`` with uniform spacing ``h``."""
    g = _moved(f, axis, order)
    out = np.empty_like(g)
    h2 = h * h
    out[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h2
    out[0] = (2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]) / h2
    out[-1] = (2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]) / h2
    if order == 4:  # order-2 rows stay in the boundary collar
        out[2:-2] = (-g[4:] + 16.0 * g[3:-1] - 30.0 * g[2:-2]
                     + 16.0 * g[1:-3] - g[:-4]) / (12.0 * h2)
    return np.moveaxis(out, 0, axis)


def interior_mask(shape2d, collar=2):
    """Boolean mask selecting points at least ``collar`` samples from the edge."""
    ns, nt = shape2d
    mask = np.zeros((ns, nt), dtype=bool)
    if ns > 2 * collar and nt > 2 * collar:
        mask[collar:ns - collar, collar:nt - collar] = True
    return mask
