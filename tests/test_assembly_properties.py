"""Property tests: the dense assembly equals the point oracle at scattered points."""

import numpy as np
import pytest

from spde_lab import (SpaceTimeLattice, SpectralMeasure, assemble_covariance,
                      covariance_oracle)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LATTICES = {
    1: SpaceTimeLattice(1, (8.0,), (16,), 1.0, 8),
    2: SpaceTimeLattice(2, (8.0, 4.0), (8, 8), 1.0, 8),
}
MEASURES = {
    1: [SpectralMeasure("white", 0.0, 1), SpectralMeasure("bessel", 2.0, 1),
        SpectralMeasure("bessel", 3.0, 1), SpectralMeasure("riesz", 0.5, 1),
        SpectralMeasure("heat_kernel", 0.01, 1)],
    2: [SpectralMeasure("bessel", 4.0, 2), SpectralMeasure("riesz", 1.0, 2),
        SpectralMeasure("heat_kernel", 0.01, 2)],
}


@st.composite
def cases(draw):
    dim = draw(st.sampled_from(sorted(LATTICES)))
    lat = LATTICES[dim]
    measure = draw(st.sampled_from(MEASURES[dim]))
    # a few distinct times shared by many points, as on a space-time grid
    times = draw(st.lists(st.floats(0.0, lat.t_max), min_size=1, max_size=3))
    point = st.tuples(st.sampled_from(times),
                      st.tuples(*(st.floats(0.0, L) for L in lat.extent)))
    points = draw(st.lists(point, min_size=2, max_size=10))
    return lat, measure, points


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                     database=None)
@hypothesis.given(cases())
def test_assembly_equals_oracle_and_is_exactly_symmetric(case):
    lat, measure, points = case
    C = assemble_covariance(measure, lat, points)
    oracle = np.array([[covariance_oracle(measure, lat, p, q) for q in points]
                       for p in points])
    np.testing.assert_array_equal(C.values, C.values.T)
    # entries that cancel to ~0 are compared against the matrix scale
    np.testing.assert_allclose(C.values, oracle, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(oracle)))
