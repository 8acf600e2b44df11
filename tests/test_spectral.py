"""Spectral measures: densities, kernels, and the existence condition."""

import importlib.machinery
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from spde_lab import (
    SpaceTimeLattice,
    SpectralMeasure,
    dalang_condition,
    density_integrable,
    heat_kernel_closed_form,
    kernel_eval,
    truncation_tail,
)
from spde_lab import spectral
from spde_lab.errors import DalangConditionError
from spde_lab.spectral import _sphere_area, periodized_heat_kernel


def test_white_density_is_one_everywhere():
    m = SpectralMeasure("white", 1.0, 3)
    xi2 = np.linspace(0.0, 50.0, 101)
    np.testing.assert_array_equal(m.density(xi2), np.ones_like(xi2))


def test_bessel_density_formula():
    m = SpectralMeasure("bessel", 2.0, 1)
    xi2 = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(m.density(xi2), 1.0 / (1.0 + xi2), rtol=1e-15)


def test_riesz_density_formula_and_zero_sentinel():
    m = SpectralMeasure("riesz", 0.5, 1)
    xi2 = np.array([1.0, 4.0])
    np.testing.assert_allclose(m.density(xi2), xi2 ** (-0.25), rtol=1e-15)
    # |xi|^{-alpha} is integrable at the origin; the lattice sum drops the
    # single xi=0 node, encoded as a zero sentinel.
    assert m.density(np.array([0.0]))[0] == 0.0


def test_heat_kernel_density_formula():
    m = SpectralMeasure("heat_kernel", 0.7, 2)
    xi2 = np.array([0.0, 2.0, 9.0])
    np.testing.assert_allclose(m.density(xi2),
                               np.exp(-4.0 * math.pi**2 * 0.7 * xi2),
                               rtol=1e-15)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SpectralMeasure("riesz", 1.5, 1)  # needs 0 < alpha < dim
    with pytest.raises(ValueError):
        SpectralMeasure("bessel", -1.0, 1)
    with pytest.raises(ValueError):
        SpectralMeasure("white", 1.0, 0)
    with pytest.raises(ValueError, match="dim must be a positive integer, got True"):
        SpectralMeasure("bessel", 2.0, True)  # as a lattice dim, a bool is refused
    # formal mode relaxes the Riesz range check but records the caveat
    m = SpectralMeasure("riesz", 1.5, 1, formal=True)
    assert m.formal


def test_measure_keeps_an_integer_dim_and_refuses_text():
    m = SpectralMeasure("bessel", 2.0, 2.0)
    assert type(m.dim) is int and m.dim == 2
    assert type(SpectralMeasure("bessel", 2.0, np.int64(3)).dim) is int
    with pytest.raises(ValueError, match="dim must be a positive integer, got '2'"):
        SpectralMeasure("bessel", 2.0, "2")
    with pytest.raises(ValueError, match="alpha must be a number, got alpha='2.0'"):
        SpectralMeasure("bessel", "2.0", 2)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("family, formal", [
    ("white", False), ("riesz", False), ("riesz", True), ("bessel", False),
    ("heat_kernel", False)], ids=["white", "riesz", "riesz_formal", "bessel", "heat_kernel"])
def test_non_finite_alpha_is_refused(family, formal, alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        SpectralMeasure(family, alpha, 1, formal)


def test_dalang_condition_decisions():
    # integrand g(|xi|^2)/(1+|xi|^2) integrable over R^d:
    assert dalang_condition(SpectralMeasure("white", 1.0, 1))
    assert not dalang_condition(SpectralMeasure("white", 1.0, 2))
    assert dalang_condition(SpectralMeasure("bessel", 2.0, 3))
    assert not dalang_condition(SpectralMeasure("bessel", 1.0, 4))
    assert dalang_condition(SpectralMeasure("riesz", 0.5, 1))
    assert not dalang_condition(SpectralMeasure("riesz", 1.0, 5, formal=True))
    assert dalang_condition(SpectralMeasure("heat_kernel", 0.5, 7))


def test_dalang_matches_direct_quadrature_d1():
    """The closed decision agrees with brute-force radial quadrature in d=1."""
    for fam, alpha in [("bessel", 2.0), ("riesz", 0.5)]:
        m = SpectralMeasure(fam, alpha, 1)

        def integrand(r, meas=m):
            return float(meas.density(np.array([r * r]))[0]) / (1.0 + r * r)

        val, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
        assert np.isfinite(val) and dalang_condition(m)


def test_kernel_eval_matches_closed_form_heat():
    lat = SpaceTimeLattice(1, (8.0,), (128,), 1.0, 4)
    m = SpectralMeasure("heat_kernel", 0.02, 1)
    quad_vals = kernel_eval(m, lat).values.real
    closed = heat_kernel_closed_form(m, lat)
    # lattice quadrature = closed form up to Nyquist truncation of a Gaussian
    np.testing.assert_allclose(quad_vals, closed, atol=1e-8 * closed.max())


@pytest.mark.parametrize("lat", [
    SpaceTimeLattice(1, (8.0,), (32,), 1.0, 4),
    SpaceTimeLattice(2, (8.0, 6.0), (16, 8), 1.0, 4),
], ids=["1d", "2d"])
def test_heat_kernel_on_a_stack_of_times_matches_one_call_per_time(lat):
    """A (K, 1, ...) stack of times gives each time's bytes of a scalar-time
    call, on t = k/128 (where numpy's array power rounds some prefactors one
    ulp apart from libm's) and at t <= 0, where the kernel is 0."""
    d = lat.dim
    sources = [np.array([1.0, 3.7, 7.5]) * L / 8.0 for L in lat.extent]
    diffs = [x.reshape((-1,) + (1,) * d) - y for x, y in zip(sources, lat.space_axes())]
    times = np.arange(-3, 129) / 128.0
    stack = periodized_heat_kernel(times.reshape((-1,) + (1,) * (d + 1)),
                                   [x[None] for x in diffs], lat.extent)
    assert stack.shape == (times.size, 3) + lat.n_space
    for t, G in zip(times, stack):
        assert G.tobytes() == periodized_heat_kernel(np.asarray(t), diffs, lat.extent).tobytes()
    assert not stack[times <= 0].any()


def test_kernel_eval_is_real_and_even():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 4)
    m = SpectralMeasure("bessel", 2.0, 1)
    vals = kernel_eval(m, lat).values
    assert np.max(np.abs(vals.imag)) < 1e-14 * np.max(np.abs(vals.real))
    v = vals.real
    np.testing.assert_allclose(v[1:], v[1:][::-1], rtol=1e-12)


def test_kernel_eval_bessel_positive_peak_at_origin():
    lat = SpaceTimeLattice(1, (16.0,), (256,), 1.0, 4)
    m = SpectralMeasure("bessel", 2.0, 1)
    v = kernel_eval(m, lat).values.real
    assert v[0] == pytest.approx(v.max())
    # monotone decay over the first quarter of the torus
    quarter = v[: len(v) // 4]
    assert np.all(np.diff(quarter) < 0)


def test_kernel_eval_warns_for_distributional_kernels():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 4)
    with pytest.warns(RuntimeWarning):
        kernel_eval(SpectralMeasure("white", 1.0, 1), lat)


def test_truncation_tail_decreases_with_radius():
    m = SpectralMeasure("bessel", 2.0, 1)
    tails = [truncation_tail(m, r) for r in (4.0, 8.0, 16.0, 32.0)]
    assert all(t > 0 for t in tails)
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_truncation_tail_divergent_measure_is_inf():
    assert truncation_tail(SpectralMeasure("white", 1.0, 2), 8.0) == math.inf


_TAIL_RADII = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family, alphas", [
    ("white", (0.0,)), ("heat_kernel", (0.01, 1.0)),
    ("bessel", (0.5, 1.0, 2.0, 3.5)), ("riesz", (0.25, 0.5, 0.9)),
], ids=["white", "heat_kernel", "bessel", "riesz"])
def test_truncation_tail_has_the_bytes_of_quad(family, alphas, dim):
    """The direct QUADPACK call is scipy.integrate.quad on [radius, inf) with
    limit=200, bit for bit; if scipy changes the private routine this fails.
    Riesz alphas are fractions of dim, so each lies in (0, dim)."""
    for alpha, radius in itertools.product(alphas, _TAIL_RADII):
        m = SpectralMeasure(family, alpha * dim if family == "riesz" else alpha, dim)
        tail = truncation_tail(m, radius)
        if not dalang_condition(m):
            assert tail == math.inf
            continue

        def integrand(r):
            return r ** (dim - 1) * m.density(r * r) / (1.0 + r * r)

        ref = _sphere_area(dim) * integrate.quad(integrand, radius, np.inf, limit=200)[0]
        assert tail.hex() == ref.hex(), (m, radius)


def test_truncation_tail_warns_on_a_quadpack_error_code(monkeypatch):
    """A nonzero ier warns and names the code, and the value is still
    returned, as quad's IntegrationWarning did; ier = 0 is silent."""
    calls = []

    def qagie(*args):
        calls.append(args[1:])
        return 0.25, 1e-3, ier

    monkeypatch.setattr(spectral, "_scipy_extension",
                        lambda *name: SimpleNamespace(_qagie=qagie))
    m = SpectralMeasure("bessel", 2.0, 1)
    ier = 5
    with pytest.warns(RuntimeWarning, match="ier=5"):
        assert truncation_tail(m, 8.0) == _sphere_area(1) * 0.25
    ier = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert truncation_tail(m, 8.0) == _sphere_area(1) * 0.25
    assert calls == [(8.0, 1, (), 0, 1.49e-8, 1.49e-8, 200)] * 2


def test_missing_quadpack_module_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match=r"scipy\.integrate\._quadpack"):
        spectral._scipy_extension.__wrapped__("integrate", "_quadpack")


def test_density_integrable_flag():
    assert density_integrable(SpectralMeasure("heat_kernel", 0.5, 2))
    assert density_integrable(SpectralMeasure("bessel", 3.0, 2))
    assert not density_integrable(SpectralMeasure("bessel", 2.0, 2))
    assert not density_integrable(SpectralMeasure("white", 1.0, 1))


def test_dalang_error_type_available():
    with pytest.raises(DalangConditionError):
        raise DalangConditionError("spectral density fails the existence test")
