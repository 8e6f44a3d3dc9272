"""Shared fixtures."""

from types import SimpleNamespace

import numpy as np
import pytest

from minsurf.surfcalc import SurfacePatch, integrate_tangential_field, path_integrate


def _transposed(a):
    return np.swapaxes(a, 0, 1)


def _column_first_sums(edges_s, edges_t, base):
    """``path_integrate`` with the base column walked first, over full-grid
    edges (ns-1, nt, ...) and (ns, nt-1, ...)."""
    i0, j0 = base
    return _transposed(path_integrate(_transposed(edges_t), edges_s[:, j0], (j0, i0)))


def _column_first_potential(patch, h, base):
    """``integrate_tangential_field`` with the base column walked first."""
    i0, j0 = base
    flipped = SurfacePatch(patch.t, patch.s, _transposed(patch.r))
    return _transposed(integrate_tangential_field(flipped, _transposed(h), base=(j0, i0)))


@pytest.fixture
def column_first():
    """The other path order, the base column and then the rows: the one
    row-first rule on the transposed grid (edges, patch and field with their
    grid axes swapped, the base swapped), transposed back."""
    return SimpleNamespace(sums=_column_first_sums, potential=_column_first_potential)
