"""Fractional operators: multiplier algebra, inversion, isometry, localization."""

import numpy as np
import pytest

from spde_lab import (
    Field,
    Representation,
    SpaceTimeLattice,
    SpectralMeasure,
    apply_multiplier,
    bessel_potential,
    inner0,
    l2_inner,
    l2_norm,
    laplacian_power,
    localization_check,
    mixed_time_space_norm,
    norm0,
    operator_J,
    q_exponent,
    radial_cutoff,
    random_band_limited,
    remove_mean,
    riesz_derivative,
    riesz_potential,
    spatial_bump,
)


def _lat(n=64, nt=8, L=8.0):
    return SpaceTimeLattice(1, (L,), (n,), 1.0, nt)


def _random(lat, seed):
    return random_band_limited(lat, np.random.default_rng(seed))


def test_symbols():
    r = np.array([0.0, 1.0, 4.0])
    np.testing.assert_allclose(bessel_potential(2.0)(r), 1.0 / (1.0 + r))
    np.testing.assert_allclose(riesz_derivative(2.0)(r), r)
    np.testing.assert_allclose(riesz_potential(2.0)(r),
                               np.array([0.0, 1.0, 0.25]))
    np.testing.assert_allclose(laplacian_power(2)(r), r ** 2)


def test_riesz_derivative_symbol_equals_laplacian_power():
    """D^{2k} and (-Lap)^k have identical lattice symbols, by construction."""
    lat = _lat()
    r = lat.xi_squared
    for k in (1, 2, 3):
        np.testing.assert_array_equal(riesz_derivative(2 * k)(r),
                                      laplacian_power(k)(r))


def test_derivative_inverts_potential_on_mean_zero():
    lat = _lat()
    f = remove_mean(_random(lat, 0))
    for k in (1, 2):
        g = apply_multiplier(apply_multiplier(f, riesz_potential(2 * k)),
                             riesz_derivative(2 * k))
        np.testing.assert_allclose(g.values, f.values,
                                   atol=1e-10 * np.max(np.abs(f.values)))


def test_composition_equals_product_of_symbols():
    lat = _lat()
    f = _random(lat, 1)
    a, b = bessel_potential(1.0), laplacian_power(1)
    lhs = apply_multiplier(apply_multiplier(f, b), a)

    def ab_symbol(r):
        return a(r) * b(r)

    rhs = apply_multiplier(f, ab_symbol)
    np.testing.assert_allclose(lhs.values, rhs.values,
                               atol=1e-12 * np.max(np.abs(f.values)))


def test_operators_commute():
    lat = _lat()
    f = _random(lat, 2)
    a, b = riesz_derivative(1.0), bessel_potential(2.0)
    lhs = apply_multiplier(apply_multiplier(f, b), a)
    rhs = apply_multiplier(apply_multiplier(f, a), b)
    np.testing.assert_allclose(lhs.values, rhs.values,
                               atol=1e-12 * np.max(np.abs(f.values)))


def test_remove_mean_kills_constants():
    lat = _lat(n=16, nt=4)
    vals = np.full((5, 16), 3.7, dtype=np.complex128)
    f = Field(lat, Representation.PHYSICAL, vals)
    g = remove_mean(f)
    assert np.max(np.abs(g.values)) < 1e-13


def test_operator_J_requires_riesz_4k():
    lat = _lat()
    f = _random(lat, 3)
    with pytest.raises(ValueError):
        operator_J(f, SpectralMeasure("bessel", 4.0, 1))
    with pytest.raises(ValueError):
        operator_J(f, SpectralMeasure("riesz", 0.5, 1))
    # alpha = 4 in d=1 is a formal measure: symbol-level use is allowed
    operator_J(f, SpectralMeasure("riesz", 4.0, 1, formal=True))


def test_J_zero_is_zero():
    lat = _lat()
    z = Field(lat, Representation.PHYSICAL, np.zeros(lat.shape, dtype=np.complex128))
    m = SpectralMeasure("riesz", 4.0, 1, formal=True)
    out = operator_J(z, m)
    assert not np.any(out.values)


def test_J_isometry_onto_l2():
    """||J phi||_L2 = ||phi||_0 and <J phi, J eta>_L2 = <phi, eta>_0 to 1e-10."""
    lat = _lat()
    m = SpectralMeasure("riesz", 4.0, 1, formal=True)
    phi = _random(lat, 4)
    eta = _random(lat, 5)
    j_phi = operator_J(phi, m)
    j_eta = operator_J(eta, m)
    assert l2_norm(j_phi) == pytest.approx(norm0(phi, m), rel=1e-10)
    assert l2_inner(j_phi, j_eta).real == pytest.approx(
        inner0(phi, eta, m).real, rel=1e-10)


def test_localization_gap_small_and_halving():
    gaps = []
    for n in (256, 512):
        lat = SpaceTimeLattice(1, (8.0,), (n,), 1.0, 4)
        mu = spatial_bump(lat, (2.0,), (0.5,))
        nu = spatial_bump(lat, (6.0,), (0.5,), amplitude=0.7)
        kappa = Field(lat, mu.representation, mu.values + nu.values)
        chi = radial_cutoff(lat, (2.0,), 1.2, 2.2)
        gaps.append(localization_check(kappa, chi, k=1)["gap"])
    assert gaps[0] < 5e-4
    assert gaps[0] / gaps[1] >= 2.0


def test_localization_chi_identically_one_gives_zero():
    lat = SpaceTimeLattice(1, (8.0,), (128,), 1.0, 4)
    kappa = spatial_bump(lat, (4.0,), (0.8,))
    chi = Field(lat, Representation.PHYSICAL, np.ones(128, dtype=np.complex128))
    rep = localization_check(kappa, chi, k=1)
    assert rep["gap"] == 0.0


def test_localization_rejects_overlapping_transition():
    lat = SpaceTimeLattice(1, (8.0,), (128,), 1.0, 4)
    kappa = spatial_bump(lat, (2.0,), (1.5,))
    chi = radial_cutoff(lat, (2.0,), 0.5, 1.0)  # transition inside supp kappa
    with pytest.raises(ValueError, match="cutoff transition region overlaps the field support"):
        localization_check(kappa, chi, k=1)


def _with_far_value(chi, value):
    """chi with ``value`` at x = 4.5, where chi and kappa below are both 0."""
    vals = chi.values.copy()
    vals[72] = value
    return Field(chi.lattice, chi.representation, vals)


@pytest.mark.parametrize("bad, message", [
    (lambda chi: radial_cutoff(SpaceTimeLattice(1, (8.0,), (64,), 1.0, 4), (2.0,), 1.2, 2.2),
     "cutoff lives on a different lattice"),
    (lambda chi: Field(chi.lattice, Representation.PHYSICAL, np.ones(chi.lattice.shape)),
     "cutoff must be a space-only field"),
    (lambda chi: _with_far_value(chi, 1.5), r"cutoff values must lie in \[0, 1\]"),
    (lambda chi: _with_far_value(chi, -0.5), r"cutoff values must lie in \[0, 1\]"),
    (lambda chi: _with_far_value(chi, np.nan), "field holds a non-finite value"),
    (lambda chi: _with_far_value(chi, 0.5j), "field is not real"),
], ids=["other_lattice", "space_time", "above_one", "below_zero", "nan", "complex"])
def test_localization_refuses_a_bad_cutoff(bad, message):
    """The cutoff rule holds away from the support too: chi is real and in [0, 1]."""
    lat = SpaceTimeLattice(1, (8.0,), (128,), 1.0, 4)
    kappa = spatial_bump(lat, (2.0,), (0.5,))
    chi = radial_cutoff(lat, (2.0,), 1.2, 2.2)
    localization_check(kappa, chi, k=1)
    with pytest.raises(ValueError, match=message):
        localization_check(kappa, bad(chi), k=1)


def test_q_exponent():
    assert q_exponent(5, 1) == pytest.approx(10.0)  # 1/q = 1/2 - 2/5
    with pytest.raises(ValueError):
        q_exponent(4, 1)  # needs 2k < dim/2


def test_mixed_time_space_norm_reduces_to_l2_at_q2():
    lat = _lat()
    f = _random(lat, 6)
    assert mixed_time_space_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-12)
