"""Representer chains, reproducing identities, duality, and Sobolev norms."""

import numpy as np
import pytest

from spde_lab import (
    Field,
    InvariantViolation,
    Representation,
    RkhsElement,
    SpaceTimeLattice,
    SpectralMeasure,
    duality_check,
    element_from_h,
    forward_transform,
    heat_column,
    inner0,
    krylov_norm,
    markov_guarantee,
    norm0,
    norm_equivalence_study,
    random_band_limited,
    representer,
    rkhs_inner,
)
from spde_lab import rkhs
from spde_lab.lattice import spectral_transform


def _lat(n=32, nt=16, L=2.0 * np.pi, T=1.0):
    return SpaceTimeLattice(1, (L,), (n,), T, nt)


def _mode_field(lat, fn):
    x = lat.space_axes()[0]
    vals = np.repeat(fn(x)[None, :], lat.n_time + 1, axis=0)
    return Field(lat, Representation.PHYSICAL, vals.astype(np.complex128))


def test_representer_white_single_mode_closed_form():
    """White noise, phi = sin(x): h(t,x) = (1 - e^{-t}) sin(x) exactly at
    grid times (step-held forcing integrates exactly)."""
    lat = _lat()
    phi = _mode_field(lat, np.sin)
    elem = representer(phi, SpectralMeasure("white", 1.0, 1))
    t = lat.times()
    expected = (1.0 - np.exp(-t))[:, None] * np.sin(lat.space_axes()[0])[None, :]
    np.testing.assert_allclose(elem.h.values.real, expected, atol=1e-12)


def test_representer_bessel_halves_single_mode():
    """Bessel order 2 weights the xi = +-1 mode by 1/2: h is half as big."""
    lat = _lat()
    phi = _mode_field(lat, np.sin)
    elem = representer(phi, SpectralMeasure("bessel", 2.0, 1))
    t = lat.times()
    expected = 0.5 * (1.0 - np.exp(-t))[:, None] * np.sin(lat.space_axes()[0])[None, :]
    np.testing.assert_allclose(elem.h.values.real, expected, atol=1e-12)


def test_representer_probe_report_tiny():
    lat = _lat()
    phi = random_band_limited(lat, np.random.default_rng(0))
    elem = representer(phi, SpectralMeasure("bessel", 2.0, 1))
    assert elem.probe_report["max_rel_err"] <= 1e-8


def test_probe_check_transforms_each_field_once(monkeypatch):
    """The chain makes 2 forward transforms; the 8-probe check adds one for
    phi and one per reproducing column, and none inside the pairings."""
    from spde_lab import lattice
    lat = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 64)
    phi = random_band_limited(lat, np.random.default_rng(0))
    measure = SpectralMeasure("bessel", 2.0, 1)
    forward = []
    transform = lattice.spectral_transform

    def counting(values, lat_, inverse=False):
        forward.append(not inverse)
        return transform(values, lat_, inverse)

    monkeypatch.setattr(lattice, "spectral_transform", counting)
    representer(phi, measure, check=False)
    assert sum(forward) == 2
    forward.clear()
    elem = representer(phi, measure, check=True)
    assert sum(forward) <= 11
    assert elem.probe_report["max_rel_err"] <= 1e-8


@pytest.mark.parametrize("check", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("to_rep", [lambda f: f, forward_transform],
                         ids=["physical", "frequency"])
def test_representer_refuses_a_complex_test_field(to_rep, check):
    """The physical values must be real whatever representation phi comes in."""
    lat = _lat(n=16, nt=8)
    rng = np.random.default_rng(2)
    phi = Field(lat, Representation.PHYSICAL, random_band_limited(lat, rng).values
                + 1j * random_band_limited(lat, rng).values)
    with pytest.raises(ValueError, match="test field must be real"):
        representer(to_rep(phi), SpectralMeasure("bessel", 2.0, 1), check=check)


def test_representer_linear():
    lat = _lat()
    rng = np.random.default_rng(1)
    f = random_band_limited(lat, rng)
    g = random_band_limited(lat, rng)
    m = SpectralMeasure("bessel", 2.0, 1)
    combo = Field(lat, f.representation, 2.0 * f.values - 3.0 * g.values)
    lhs = representer(combo, m, check=False).h.values
    rhs = (2.0 * representer(f, m, check=False).h.values
           - 3.0 * representer(g, m, check=False).h.values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))


def test_element_from_h_round_trip():
    """phi -> h -> phi recovers the test field exactly (Bessel density > 0)."""
    lat = _lat()
    phi = random_band_limited(lat, np.random.default_rng(2))
    m = SpectralMeasure("bessel", 2.0, 1)
    elem = representer(phi, m)
    back = element_from_h(elem.h, m)
    np.testing.assert_allclose(back.phi.real_values(), phi.real_values(),
                               atol=1e-10 * np.max(np.abs(phi.values)))
    assert back.norm() == pytest.approx(norm0(phi, m), rel=1e-10)


def test_element_from_h_rejects_nonzero_initial_slice():
    lat = _lat()
    vals = np.ones((lat.n_time + 1, lat.n_space[0]), dtype=np.complex128)
    h = Field(lat, Representation.PHYSICAL, vals)
    with pytest.raises(ValueError):
        element_from_h(h, SpectralMeasure("bessel", 2.0, 1))


@pytest.mark.parametrize("lat", [
    SpaceTimeLattice(1, (8.0,), (32,), 1.0, 17),
    SpaceTimeLattice(2, (8.0, 8.0), (16, 16), 1.0, 8),
], ids=["1d", "2d"])
def test_element_from_h_rejects_ill_conditioned_chain(lat):
    """Heat-kernel densities fall to ~1e-300, so dividing by w g would turn
    the round-off of h into phi values near 1e248 or NaN; the inversion
    refuses instead, naming the measure and the conditioning."""
    m = SpectralMeasure("heat_kernel", 1.0, lat.dim)
    h = representer(random_band_limited(lat, np.random.default_rng(3)), m,
                    check=False).h
    with pytest.raises(ValueError, match=r"heat_kernel .*alpha=1\.0.*conditioning"):
        element_from_h(h, m)


def test_heat_column_reproducing_identity():
    """inner0(phi, column@p) equals h_phi at p for every probe, to 1e-10."""
    lat = _lat()
    m = SpectralMeasure("bessel", 2.0, 1)
    phi = random_band_limited(lat, np.random.default_rng(3))
    elem = representer(phi, m)
    scale = np.max(np.abs(elem.h.values.real))
    for point in [(4, (0,)), (16, (7,)), (9, (31,))]:
        col = heat_column(lat, point, kind="reproducing")
        val = inner0(phi, col, m).real
        h_val = elem.h.values.real[point[0], point[1][0]]
        assert abs(val - h_val) <= 1e-10 * scale


def _recursion_column(lat, m, idx, kind):
    """Reference column: the per-mode profile a^(m-1-k) by backward recursion."""
    if kind == "reproducing":
        weight = lat.loading
    else:
        weight = np.sqrt(lat.variance_weight / lat.dt)
    F = np.zeros(lat.shape, dtype=np.complex128)
    if m > 0:
        F[m - 1] = (2.0 * np.pi) ** (-lat.dim / 2.0) * np.conj(lat.point_phase(idx)) * weight
        for k in range(m - 2, -1, -1):
            F[k] = lat.decay * F[k + 1]
    return spectral_transform(F, lat, inverse=True)


@pytest.mark.parametrize("lat", [
    _lat(n=16, nt=12),
    SpaceTimeLattice(2, (4.0, 6.0), (8, 4), 0.5, 6),
    SpaceTimeLattice(3, (2.0, 3.0, 4.0), (4, 2, 4), 0.3, 4),
], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("kind", ["reproducing", "covariance"])
def test_heat_column_equals_backward_recursion(lat, kind):
    """The marched column has the reference recursion's bytes at every time."""
    idx = tuple(n // 2 - 1 for n in lat.n_space)
    for m in range(lat.n_time + 1):
        col = heat_column(lat, (m, idx), kind=kind)
        assert col.values.tobytes() == _recursion_column(lat, m, idx, kind).tobytes()


def test_heat_column_covariance_gram():
    """inner0 of two covariance-kind columns equals E u(p) u(q) exactly."""
    from spde_lab.markov import covariance_oracle

    lat = _lat()
    m = SpectralMeasure("bessel", 2.0, 1)
    p_idx, q_idx = (8, (3,)), (16, (20,))
    col_p = heat_column(lat, p_idx, kind="covariance")
    col_q = heat_column(lat, q_idx, kind="covariance")
    val = inner0(col_p, col_q, m).real
    dx = lat.extent[0] / lat.n_space[0]
    p = (p_idx[0] * lat.dt, (p_idx[1][0] * dx,))
    q = (q_idx[0] * lat.dt, (q_idx[1][0] * dx,))
    exact = covariance_oracle(m, lat, p, q)
    assert val == pytest.approx(exact, rel=1e-10)


def test_rkhs_inner_measure_mismatch():
    lat = _lat()
    phi = random_band_limited(lat, np.random.default_rng(4))
    a = representer(phi, SpectralMeasure("bessel", 2.0, 1), check=False)
    b = representer(phi, SpectralMeasure("white", 1.0, 1), check=False)
    with pytest.raises(ValueError):
        rkhs_inner(a, b)


def test_duality_gap_small():
    lat = _lat(n=32, nt=16)
    m = SpectralMeasure("bessel", 2.0, 1)
    rng = np.random.default_rng(5)
    for _ in range(4):
        a = representer(random_band_limited(lat, rng), m, check=False)
        eta = random_band_limited(lat, rng)
        rep = duality_check(a, eta)
        assert rep["gap"] <= 1e-8


def test_krylov_norm_requires_even_bessel():
    lat = _lat()
    phi = random_band_limited(lat, np.random.default_rng(6))
    with pytest.raises(ValueError):
        krylov_norm(representer(phi, SpectralMeasure("white", 1.0, 1), check=False))
    with pytest.raises(ValueError):
        krylov_norm(representer(phi, SpectralMeasure("bessel", 1.0, 1), check=False))
    for family in ("bessel", "riesz"):
        with pytest.raises(ValueError):
            krylov_norm(representer(phi, SpectralMeasure(family, 1e-13, 1), check=False))
    val = krylov_norm(representer(phi, SpectralMeasure("bessel", 2.0, 1), check=False))
    assert np.isfinite(val) and val > 0


def test_krylov_norm_homogeneous():
    lat = _lat()
    m = SpectralMeasure("bessel", 2.0, 1)
    phi = random_band_limited(lat, np.random.default_rng(7))
    phi2 = Field(lat, phi.representation, 2.0 * phi.values)
    a, a2 = representer(phi, m, check=False), representer(phi2, m, check=False)
    assert krylov_norm(a2) == pytest.approx(2.0 * krylov_norm(a), rel=1e-12)


def test_krylov_norm_single_mode_closed_form():
    """One spatial mode: both terms reduce to scalar recursions computed here
    directly from the mode amplitude (an independent arithmetic oracle)."""
    lat = _lat()
    m = SpectralMeasure("bessel", 2.0, 1)
    phi = _mode_field(lat, np.sin)
    a = representer(phi, m, check=False)
    # mode xi = +-1: F phi = -+ i sqrt(pi/2) delta; phi1 = phi / 2
    # h(t) = (1 - e^{-t})/2 sin x; Lap h = -h; H^1 weight sqrt(2)
    t = lat.times()[: lat.n_time]
    dt = lat.dt
    mode_l2 = np.pi  # ||sin||^2 over (0, 2 pi)
    lap_sq = np.sum(dt * ((1.0 - np.exp(-t)) / 2.0) ** 2) * mode_l2 * 2.0
    force_sq = np.sum(dt * np.full_like(t, 0.25)) * mode_l2 * 2.0
    expected = np.sqrt(lap_sq) + np.sqrt(force_sq)
    assert krylov_norm(a) == pytest.approx(expected, rel=1e-10)


def test_markov_guarantee_flags():
    assert markov_guarantee(SpectralMeasure("white", 1.0, 1))
    assert markov_guarantee(SpectralMeasure("bessel", 2.0, 1))
    assert markov_guarantee(SpectralMeasure("bessel", 4.0, 1))
    assert not markov_guarantee(SpectralMeasure("bessel", 3.0, 1))
    assert not markov_guarantee(SpectralMeasure("bessel", 1.0, 1))
    assert not markov_guarantee(SpectralMeasure("bessel", 1e-13, 1))  # k = 0
    assert markov_guarantee(SpectralMeasure("riesz", 4.0, 1, formal=True))
    assert not markov_guarantee(SpectralMeasure("riesz", 0.5, 1))
    assert not markov_guarantee(SpectralMeasure("riesz", 1e-13, 1))  # k = 0
    assert not markov_guarantee(SpectralMeasure("heat_kernel", 1.0, 1))


def test_element_markov_guarantee_is_read_from_its_measure():
    lat = _lat(n=16, nt=8)
    elem = representer(random_band_limited(lat, np.random.default_rng(0)),
                       SpectralMeasure("bessel", 2.0, 1), check=False)
    assert elem.markov_guarantee
    odd = RkhsElement(elem.h, elem.phi1, elem.phi, SpectralMeasure("bessel", 3.0, 1))
    assert not odd.markov_guarantee


def test_norm_equivalence_study_contract():
    lat = SpaceTimeLattice(1, (8.0,), (16,), 1.0, 16)
    with pytest.raises(ValueError):
        norm_equivalence_study(100, SpectralMeasure("white", 1.0, 1), lat)
    with pytest.raises(ValueError):
        norm_equivalence_study(100, SpectralMeasure("bessel", 3.0, 1), lat)
    with pytest.raises(ValueError):
        norm_equivalence_study(50, SpectralMeasure("bessel", 2.0, 1), lat)
    rep = norm_equivalence_study(100, SpectralMeasure("bessel", 2.0, 1), lat, seed=3)
    assert rep["ratio_min"] > 0
    assert rep["spread"] == pytest.approx(rep["ratio_max"] / rep["ratio_min"])
    assert rep["spread"] <= 20.0


def _reference_study_ratios(samples, measure, lat, seed):
    """The per-sample loop the chunked study replaces."""
    rng = np.random.default_rng(seed)
    ratios = np.zeros(samples)
    for i in range(samples):
        a = representer(random_band_limited(lat, rng), measure, check=False)
        denom = a.norm()
        ratios[i] = krylov_norm(a) / denom if denom > 0 else np.nan
    return ratios


@pytest.mark.parametrize("lat, measure", [
    (SpaceTimeLattice(1, (8.0,), (32,), 1.0, 64), SpectralMeasure("bessel", 2.0, 1)),
    (SpaceTimeLattice(2, (8.0, 4.0), (8, 16), 1.0, 8), SpectralMeasure("bessel", 4.0, 2)),
], ids=["1d", "2d_bessel4"])
def test_norm_equivalence_matches_per_sample_reference(lat, measure, monkeypatch):
    """One sample per chunk, the default chunk and one chunk all give the
    per-sample loop's ratios and report byte for byte."""
    samples, seed = 150, 11
    ref = _reference_study_ratios(samples, measure, lat, seed)
    ref_report = {"ratio_min": float(np.nanmin(ref)), "ratio_max": float(np.nanmax(ref)),
                  "samples": samples, "spread_bound": 20.0}
    ref_report["spread"] = ref_report["ratio_max"] / ref_report["ratio_min"]
    captured = []
    nanmin = np.nanmin  # the study reduces its ratio array with np.nanmin first
    monkeypatch.setattr(np, "nanmin", lambda a: captured.append(a.copy()) or nanmin(a))
    for chunk_bytes in (1, rkhs.CHUNK_BYTES, 1 << 40):
        monkeypatch.setattr(rkhs, "CHUNK_BYTES", chunk_bytes)
        report = norm_equivalence_study(samples, measure, lat, seed=seed)
        assert captured.pop().tobytes() == ref.tobytes()
        assert repr(report) == repr(ref_report)
