"""Finite-difference kernels: stencil exactness and the shared boundary rows."""

import numpy as np
import pytest

from minsurf.errors import InvalidInputError
from minsurf.fd import d1, d2

X = np.linspace(-1.0, 2.0, 13)
H = X[1] - X[0]


@pytest.mark.parametrize("deriv", [d1, d2])
@pytest.mark.parametrize("shape, axis", [((9,), 0), ((9, 4), 0), ((4, 9, 3), 1)])
def test_order_4_keeps_the_order_2_boundary_rows(deriv, shape, axis):
    f = np.random.default_rng(3).normal(size=shape)
    rows = [0, 1, -2, -1]
    two = np.take(deriv(f, 0.1, axis=axis, order=2), rows, axis=axis)
    four = np.take(deriv(f, 0.1, axis=axis, order=4), rows, axis=axis)
    assert np.array_equal(two, four)


def test_stencils_are_exact_on_polynomials():
    quad, cubic, quartic = X**2 - X, X**3 - 2.0 * X, X**4 + X**3
    np.testing.assert_allclose(d1(quad, H), 2.0 * X - 1.0, atol=1e-12)
    np.testing.assert_allclose(d2(cubic, H), 6.0 * X, atol=1e-10)
    np.testing.assert_allclose(d1(quartic, H, order=4)[2:-2],
                               (4.0 * X**3 + 3.0 * X**2)[2:-2], atol=1e-11)
    np.testing.assert_allclose(d2(quartic, H, order=4)[2:-2],
                               (12.0 * X**2 + 6.0 * X)[2:-2], atol=1e-9)


@pytest.mark.parametrize("deriv", [d1, d2])
def test_bad_order_rejected_before_the_field_is_read(deriv):
    with pytest.raises(InvalidInputError, match="order must be 2 or 4"):
        deriv(object(), 1.0, order=3)
