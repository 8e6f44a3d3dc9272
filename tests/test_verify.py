"""Reductions the verification suite keeps in place of whole fields."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minsurf.verify import _Range

# signed zeros, subnormals and values near the float64 limits, where a
# difference of two finite fields can round to +-inf
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
         1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_running_range_is_the_largest_pairwise_difference(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    count = data.draw(st.integers(2, 6))
    fields = [data.draw(hnp.arrays(np.float64, shape, elements=FINITE))
              for _ in range(count)]
    before = [f.copy() for f in fields]
    bounds = _Range()
    for f in fields:
        bounds.add(f)
    with np.errstate(over="ignore"):
        spread = bounds.hi - bounds.lo
        pairwise = np.max([np.abs(a - b) for a, b in
                           itertools.combinations(fields, 2)], axis=0)
    assert np.array_equal(spread, pairwise)
    assert all(np.array_equal(f, g) for f, g in zip(fields, before))
