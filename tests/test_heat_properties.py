"""Property tests: the spectral transform, the heat march and the sampler
satisfy their exact discrete identities on random 1-D and 2-D lattices."""

from unittest import mock

import numpy as np
import pytest

from spde_lab import (Field, NoiseModel, Representation, SpaceTimeLattice,
                      SpectralMeasure, element_from_h, forward_transform,
                      heat_column, inner0, inverse_transform, l2_inner, l2_norm,
                      mc_representer_field, norm0, representer, simulate_u,
                      solve_backward, solve_forward)
from spde_lab import simulate
from spde_lab.lattice import spectral_transform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
settings = hypothesis.settings(derandomize=True, max_examples=40, deadline=None,
                               database=None)


@st.composite
def lattices(draw):
    dim = draw(st.sampled_from([1, 2]))
    sizes = [4, 8, 16, 32] if dim == 1 else [2, 4, 8]
    return SpaceTimeLattice(
        dim,
        tuple(draw(st.floats(0.5, 20.0)) for _ in range(dim)),
        tuple(draw(st.sampled_from(sizes)) for _ in range(dim)),
        draw(st.floats(0.05, 2.0)),
        draw(st.integers(1, 12)))


def _field(lat, rng, space_time=True, zero_final=False):
    """A real white physical field; optionally with a vanishing final slice."""
    values = rng.standard_normal(lat.shape if space_time else lat.n_space)
    if zero_final:
        values[-1] = 0.0
    return Field(lat, Representation.PHYSICAL, values)


@settings
@hypothesis.given(lattices(), st.booleans(), st.integers(0, 2**32 - 1))
def test_transform_round_trip_and_parseval(lat, space_time, seed):
    f = _field(lat, np.random.default_rng(seed), space_time)
    F = forward_transform(f)
    np.testing.assert_allclose(inverse_transform(F).values, f.values,
                               rtol=0, atol=1e-13 * np.max(np.abs(f.values)))
    phys = np.sum(np.abs(f.values) ** 2) * lat.cell_volume
    freq = np.sum(np.abs(F.values) ** 2) * lat.freq_cell_volume
    assert freq == pytest.approx(phys, rel=1e-12)


@settings
@hypothesis.given(lattices(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_stack_transform_equals_per_field_transform(lat, count, seed):
    """Transforming a stack gives each field's transform byte for byte."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count,) + lat.shape)
    forward = spectral_transform(stack, lat)
    inverse = spectral_transform(forward, lat, inverse=True)
    for i in range(count):
        f = Field(lat, Representation.PHYSICAL, stack[i])
        assert forward[i].tobytes() == forward_transform(f).values.tobytes()
        F = Field(lat, Representation.FREQUENCY, forward[i])
        assert inverse[i].tobytes() == inverse_transform(F).values.tobytes()


@settings
@hypothesis.given(lattices(), st.integers(0, 2**32 - 1))
def test_forward_backward_adjointness(lat, seed):
    """<solve_forward(p), e>_L2 = <p, solve_backward(e)>_L2 when the final
    slices vanish."""
    rng = np.random.default_rng(seed)
    p, e = _field(lat, rng, zero_final=True), _field(lat, rng, zero_final=True)
    lhs = l2_inner(solve_forward(p), e)
    rhs = l2_inner(p, solve_backward(e))
    scale = max(l2_norm(p), 1e-300) * max(l2_norm(e), 1e-300) * lat.t_max
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings
@hypothesis.given(lattices(), st.sampled_from([("white", 0.0), ("bessel", 2.0),
                                               ("bessel", 4.0)]),
                  st.integers(0, 2**32 - 1))
def test_element_from_h_inverts_representer(lat, family_alpha, seed):
    """element_from_h(representer(phi).h) recovers phi up to round-off.

    The final slice of phi never enters h, so it is taken to vanish.  The
    inversion divides by w g per mode, so round-off of h, at most t_max max g
    relative to phi, grows by up to 1 / min(w g)."""
    measure = SpectralMeasure(family_alpha[0], family_alpha[1], lat.dim)
    phi = _field(lat, np.random.default_rng(seed), zero_final=True)
    back = element_from_h(representer(phi, measure, check=False).h, measure)
    err = np.max(np.abs(back.phi.values - phi.values)) / np.max(np.abs(phi.values))
    g = measure.density(lat.xi_squared)
    assert err <= 1e-13 * lat.t_max * np.max(g) / np.min(lat.duhamel_weight * g)


@settings
@hypothesis.given(lattices(), st.sampled_from([("white", 0.0), ("bessel", 2.0),
                                               ("bessel", 4.0), ("riesz", 0.5)]),
                  st.integers(0, 2**32 - 1), st.data())
def test_heat_column_reproduces_representer(lat, family_alpha, seed, data):
    """inner0(phi, heat_column(p)) equals representer(phi).h at the grid point p."""
    measure = SpectralMeasure(family_alpha[0], family_alpha[1], lat.dim)
    phi = _field(lat, np.random.default_rng(seed))
    point = (data.draw(st.integers(0, lat.n_time)),
             tuple(data.draw(st.integers(0, n - 1)) for n in lat.n_space))
    col = heat_column(lat, point)
    direct = inner0(phi, col, measure)
    solver = representer(phi, measure, check=False).h.values[(point[0],) + point[1]]
    scale = max(norm0(phi, measure) * norm0(col, measure), 1e-300)
    assert abs(direct - solver) <= 1e-13 * scale


@settings
@hypothesis.given(lattices(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_sampler_chunking_changes_no_byte(lat, n_paths, seed):
    """simulate_u and mc_representer_field give the same bytes for one path
    per chunk, a ragged split into chunks of 3 paths, the default chunk and
    one chunk."""
    model = NoiseModel(SpectralMeasure("bessel", 2.0, lat.dim), lat)
    phi = _field(lat, np.random.default_rng(seed))
    three_paths = 3 * lat.n_time * 2 * int(np.prod(lat.n_space)) * 16
    runs = []
    for chunk_bytes in (1, three_paths, simulate.CHUNK_BYTES, 1 << 24):
        with mock.patch.object(simulate, "CHUNK_BYTES", chunk_bytes):
            paths = simulate_u(model.measure, lat, seed, n_paths).values
            rf = mc_representer_field(model, phi, seed, n_paths)
        runs.append([a.tobytes() for a in (paths, rf["estimate"], rf["stderr"])])
    assert runs[0] == runs[1] == runs[2] == runs[3]
