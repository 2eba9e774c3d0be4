"""Property tests on random stochastic algebras from (1,1) to (4,4).

Hypothesis draws the algebra type, its seed and the test points; the
profile in conftest.py fixes the examples, so every run tests the same ones.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_newton import (  # noqa: E402
    assert_records_match,
    reference_records,
    sample_points,
    simplex_points,
)

from gonosim import idempotent_correspondence, random_stochastic, solve_fixed_points_numeric  # noqa: E402
from gonosim.fixed_points import _records  # noqa: E402

algebras = st.builds(
    random_stochastic, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)
)
seeds = st.integers(0, 2**32 - 1)


@given(algebras, seeds)
def test_records_equal_the_reference_record_by_record(spec, seed):
    rng = np.random.default_rng(seed)
    P = sample_points(spec, rng)
    assert_records_match(_records(P, spec, "W"), reference_records(P, spec, "W"))
    Q = simplex_points(spec, rng)
    assert_records_match(_records(Q, spec, "V"), reference_records(Q, spec, "V"))


@given(algebras)
def test_half_of_every_W_root_is_idempotent(spec):
    # z = W(z) if and only if (z/2)^2 = z/2; idempotent_correspondence
    # raises NotIdempotent on a defect above 1e-10
    for rec in solve_fixed_points_numeric(spec, "W", grid=2):
        half = idempotent_correspondence(rec, spec)
        assert np.array_equal(half.vector, rec.point.vector / 2.0)
