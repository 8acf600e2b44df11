"""Lattice, fields, transforms, and the covariance pairing."""

import hashlib
import inspect
import itertools
import json
import struct

import numpy as np
import pytest

import spde_lab
from spde_lab import (
    Field,
    NoiseModel,
    Representation,
    SpaceTimeLattice,
    SpectralMeasure,
    apply_multiplier,
    bessel_potential,
    duality_check,
    element_from_h,
    forward_transform,
    fourier_bound_check,
    inner0,
    inverse_transform,
    krylov_norm,
    kunsch_decomposition,
    kunsch_orthogonality,
    l2_inner,
    l2_norm,
    localization_check,
    mc_isometry_batch,
    mc_representer_field,
    mixed_time_space_norm,
    norm0,
    operator_J,
    radial_cutoff,
    random_band_limited,
    read_field,
    refine_field,
    remove_mean,
    representer,
    solve_backward,
    solve_forward,
    space_time_bump,
    spatial_bump,
    support_mask,
    write_field,
)
from spde_lab.lattice import decode_field


def _lat(dim=1, n=32, nt=16, L=8.0, T=1.0):
    return SpaceTimeLattice(dim, (L,) * dim, (n,) * dim, T, nt)


def test_lattice_derived_quantities():
    lat = _lat(n=32, nt=16, L=8.0, T=2.0)
    assert lat.dt == pytest.approx(0.125)
    assert lat.cell_volume == pytest.approx(0.25)
    assert lat.freq_cell_volume == pytest.approx(2.0 * np.pi / 8.0)
    assert lat.times().shape == (17,)
    assert lat.times()[0] == 0.0 and lat.times()[-1] == 2.0
    assert lat.xi_squared.shape == (32,)
    # angular frequencies: xi_k = 2 pi k / L in FFT order
    xi = lat.xi_axes()[0]
    assert xi[0] == 0.0
    assert xi[1] == pytest.approx(2.0 * np.pi / 8.0)
    assert lat.nyquist_radius == pytest.approx(2.0 * np.pi / 8.0 * 16)


@pytest.mark.parametrize("extent, t_max", [(float("nan"), 1.0), (8.0, float("inf")),
                                           (8.0, float("nan"))],
                         ids=["extent_nan", "t_max_inf", "t_max_nan"])
def test_lattice_rejects_non_finite_sizes(extent, t_max):
    with pytest.raises(ValueError, match="must be finite"):
        SpaceTimeLattice(1, (extent,), (8,), t_max, 4)


@pytest.mark.parametrize("n_space, n_time", [((8.7,), 4), ((8.0,), 4), ((8,), 2.5)],
                         ids=["n_space_fraction", "n_space_float", "n_time_fraction"])
def test_lattice_rejects_non_integer_sizes(n_space, n_time):
    with pytest.raises(ValueError, match="must be integers"):
        SpaceTimeLattice(1, (8.0,), n_space, 1.0, n_time)


@pytest.mark.parametrize("args", [(True, (8.0,), (16,), 1.0, 8), (1, (8.0,), (True,), 1.0, 8),
                                  (1, (8.0,), (16,), 1.0, True)],
                         ids=["dim", "n_space", "n_time"])
def test_lattice_rejects_bool_sizes(args):
    """True is an Integral, so it would pass as 1 and serialize as true."""
    with pytest.raises(ValueError, match="must be integers"):
        SpaceTimeLattice(*args)


def test_lattice_dict_holds_plain_numbers():
    """A lattice built from numpy scalars normalizes them, so its dict writes
    plain JSON numbers."""
    lat = SpaceTimeLattice(np.int64(1), (np.float32(8.0),), (np.int64(16),),
                           np.float64(1.0), np.int32(8))
    assert json.dumps(lat.to_dict()) == ('{"dim": 1, "extent": [8.0], "n_space": [16], '
                                         '"t_max": 1.0, "n_time": 8}')


def test_lattice_from_dict_rejects_non_integer_n_time():
    d = SpaceTimeLattice(1, (8.0,), (8,), 1.0, 4).to_dict()
    with pytest.raises(ValueError, match="must be integers"):
        SpaceTimeLattice.from_dict({**d, "n_time": 4.9})


def test_lattice_serialization_round_trip():
    lat = SpaceTimeLattice(2, (4.0, 6.0), (8, 16), 0.5, 10)
    assert SpaceTimeLattice.from_dict(lat.to_dict()) == lat


def test_transform_round_trip_is_exact():
    lat = _lat()
    rng = np.random.default_rng(0)
    f = random_band_limited(lat, rng)
    back = inverse_transform(forward_transform(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-13)


def test_transforms_return_a_field_already_in_their_target_representation():
    f = random_band_limited(_lat(n=16, nt=8), np.random.default_rng(0))
    F = forward_transform(f)
    assert forward_transform(F) is F and inverse_transform(f) is f


_REP_LAT = _lat(n=16, nt=8)
_REP_MEASURE = SpectralMeasure("bessel", 2.0, 1)
_REP_PHI = random_band_limited(_REP_LAT, np.random.default_rng(5))
_REP_PSI = random_band_limited(_REP_LAT, np.random.default_rng(11))
_RIESZ4 = SpectralMeasure("riesz", 4.0, 1, formal=True)
# locality geometries: two bumps 0.4 L apart with a cutoff that is 1 on the
# first and 0 on the second (as in criteria c07 and c10)
_KUNSCH_LAT = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
_H_BUMP, _G_BUMP = (space_time_bump(_KUNSCH_LAT, 0.25, 0.15, (c,), (1.28,), amplitude=amp)
                    for c, amp in ((4.8, 1.0), (11.2, 0.7)))
_KUNSCH_ZETA = element_from_h(
    Field(_KUNSCH_LAT, Representation.PHYSICAL, _H_BUMP.values + _G_BUMP.values), _REP_MEASURE)
_KUNSCH_CHI = radial_cutoff(_KUNSCH_LAT, (4.8,), 2.0, 4.0)
_LOC_LAT = SpaceTimeLattice(1, (8.0,), (128,), 1.0, 4)
_LOC_KAPPA = Field(_LOC_LAT, Representation.PHYSICAL,
                   spatial_bump(_LOC_LAT, (2.0,), (0.5,)).values
                   + spatial_bump(_LOC_LAT, (6.0,), (0.5,), amplitude=0.7).values)
_LOC_CHI = radial_cutoff(_LOC_LAT, (2.0,), 1.2, 2.2)
_ETA_LAT = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 32)
_ETA = space_time_bump(_ETA_LAT, 0.5, 0.15, (4.0,), (1.0,))

# How the two runs of a case must agree.  EXACT: the entry transforms its
# input forward and no further, so a frequency input changes no byte.  In the
# other cases one run passes a transform round trip, which moves the result
# by round-off: RELATIVE for a scalar, ABSOLUTE for a relative statistic or
# an O(1) field, which a round trip moves by ~1e-15.
EXACT, RELATIVE, ABSOLUTE = None, dict(rtol=1e-12, atol=0), dict(rtol=0, atol=1e-13)

# (id, entry, agreement): entry(to) calls one public function with ``to``
# applied to a physical input, once with to = inverse_transform (the input as
# it is) and once with to = forward_transform.  An id names the function, with
# a "-argument" suffix when a case covers one of several Field arguments.
_EITHER_REPRESENTATION = [
    ("mc_isometry_batch", lambda to: [[r["mc_var"], r["exact"]] for r in mc_isometry_batch(
        NoiseModel(_REP_MEASURE, _REP_LAT), [to(_REP_PHI), _REP_PSI], 3, 16)], EXACT),
    ("mc_representer_field", lambda to: mc_representer_field(
        NoiseModel(_REP_MEASURE, _REP_LAT), to(_REP_PHI), 3, 16)["estimate"], EXACT),
    ("inner0", lambda to: inner0(to(_REP_PHI), _REP_PSI, _REP_MEASURE), EXACT),
    ("l2_inner", lambda to: l2_inner(to(_REP_PHI), _REP_PSI), RELATIVE),
    ("solve_forward", lambda to: solve_forward(to(_REP_PHI)).values, EXACT),
    ("solve_backward", lambda to: solve_backward(to(_REP_PHI)).values, EXACT),
    ("apply_multiplier", lambda to: inverse_transform(
        apply_multiplier(to(_REP_PHI), bessel_potential(2.0))).values, EXACT),
    ("refine_field", lambda to: refine_field(to(_REP_PHI)).values, EXACT),
    ("element_from_h", lambda to: element_from_h(to(_REP_PHI), _REP_MEASURE).phi.values, EXACT),
    ("krylov_norm_of_representer", lambda to: krylov_norm(
        representer(to(_REP_PHI), _REP_MEASURE)), RELATIVE),
    ("representer", lambda to: representer(to(_REP_PHI), _REP_MEASURE).h.values, ABSOLUTE),
    ("norm0", lambda to: norm0(to(_REP_PHI), _REP_MEASURE), EXACT),
    ("l2_norm", lambda to: l2_norm(to(_REP_PHI)), RELATIVE),
    ("operator_J", lambda to: inverse_transform(operator_J(to(_REP_PHI), _RIESZ4)).values,
     EXACT),
    ("remove_mean", lambda to: inverse_transform(remove_mean(to(_REP_PHI))).values, EXACT),
    ("mixed_time_space_norm", lambda to: mixed_time_space_norm(to(_REP_PHI), 3.0), RELATIVE),
    ("fourier_bound_check", lambda to: [
        (r := fourier_bound_check(to(_ETA)))["n_hat"], r["n_hat_refined"]], EXACT),
    ("duality_check", lambda to: [(r := duality_check(
        representer(_REP_PSI, _REP_MEASURE), to(_REP_PHI)))["lhs"], r["rhs"]], RELATIVE),
    ("kunsch_orthogonality", lambda to: [(r := kunsch_orthogonality(
        _REP_MEASURE, to(_H_BUMP), _G_BUMP))["normalized_inner"], r["separation_cells"]],
     EXACT),
    ("kunsch_decomposition", lambda to: [(r := kunsch_decomposition(
        _REP_MEASURE, _KUNSCH_ZETA, to(_KUNSCH_CHI)))["residual"], r["cross_normalized"]],
     ABSOLUTE),
    ("localization_check-kappa", lambda to: localization_check(
        to(_LOC_KAPPA), _LOC_CHI, 1)["gap"], ABSOLUTE),
    ("localization_check-chi", lambda to: localization_check(
        _LOC_KAPPA, to(_LOC_CHI), 1)["gap"], ABSOLUTE),
    ("support_mask", lambda to: support_mask(to(_H_BUMP)), EXACT),
    ("Field.real_values", lambda to: to(_REP_PHI).real_values(), ABSOLUTE),
]


@pytest.mark.parametrize("entry, agreement", [case[1:] for case in _EITHER_REPRESENTATION],
                         ids=[case[0] for case in _EITHER_REPRESENTATION])
def test_entry_points_accept_either_representation(entry, agreement):
    a, b = (np.asarray(entry(to)) for to in (inverse_transform, forward_transform))
    if agreement is EXACT:
        assert a.tobytes() == b.tobytes()
    else:
        np.testing.assert_allclose(b, a, **agreement)


def test_every_field_entry_point_has_an_either_representation_case():
    """Each public function taking a Field has a case above; the transforms
    and ``write_field`` are exempt: they convert or store a representation."""
    takes_field = {name for name in spde_lab.__all__
                   if inspect.isfunction(fn := getattr(spde_lab, name))
                   and any(p.annotation is Field for p
                           in inspect.signature(fn, eval_str=True).parameters.values())}
    covered = {case[0].split("-")[0] for case in _EITHER_REPRESENTATION}
    exempt = {"forward_transform", "inverse_transform", "write_field"}
    assert takes_field - exempt - covered == set()
    assert exempt <= takes_field


def test_parseval_identity():
    """Spatial Plancherel: sum |f|^2 dx^d == sum |Ff|^2 dxi^d, exactly."""
    lat = _lat()
    rng = np.random.default_rng(1)
    f = random_band_limited(lat, rng)
    F = forward_transform(f)
    phys = np.sum(np.abs(f.values) ** 2) * lat.cell_volume
    freq = np.sum(np.abs(F.values) ** 2) * lat.freq_cell_volume
    assert freq == pytest.approx(phys, rel=1e-14)


def test_single_mode_transform_amplitude():
    """cos(xi_1 x) transforms to paired spikes of amplitude sqrt(pi/2)*L/(2 pi)... —
    verified against the quadrature definition directly."""
    lat = _lat(n=64, L=2.0 * np.pi)
    x = lat.space_axes()[0]
    vals = np.repeat(np.cos(3.0 * x)[None, :], lat.n_time + 1, axis=0)
    f = Field(lat, Representation.PHYSICAL, vals.astype(np.complex128))
    F = forward_transform(f).values[0]
    # direct quadrature: (2 pi)^(-1/2) sum_x cos(3x) e^{-i xi x} dx
    xi = lat.xi_axes()[0]
    direct = (2.0 * np.pi) ** (-0.5) * lat.cell_volume * np.array(
        [np.sum(np.cos(3.0 * x) * np.exp(-1j * w * x)) for w in xi])
    np.testing.assert_allclose(F, direct, atol=1e-12)


def test_inner0_white_equals_l2():
    """With the flat density the covariance pairing is the space-time L2 pairing."""
    lat = _lat()
    rng = np.random.default_rng(2)
    f = random_band_limited(lat, rng)
    g = random_band_limited(lat, rng)
    white = SpectralMeasure("white", 1.0, 1)
    assert inner0(f, g, white) == pytest.approx(l2_inner(f, g), rel=1e-12)
    assert norm0(f, white) == pytest.approx(l2_norm(f), rel=1e-12)


def test_inner0_uses_left_endpoint_time_rule():
    """The final time slice must not contribute to the pairing."""
    lat = _lat()
    rng = np.random.default_rng(3)
    f = random_band_limited(lat, rng)
    g = Field(lat, f.representation, f.values.copy())
    bumped = g.values.copy()
    bumped[-1] += 7.0  # corrupt only the t = T slice
    g = Field(lat, g.representation, bumped)
    white = SpectralMeasure("white", 1.0, 1)
    assert inner0(f, g, white) == pytest.approx(inner0(f, f, white), rel=1e-12)


def test_inner0_sesquilinear_and_positive():
    lat = _lat()
    rng = np.random.default_rng(4)
    f = random_band_limited(lat, rng)
    g = random_band_limited(lat, rng)
    m = SpectralMeasure("bessel", 2.0, 1)
    s = inner0(f, g, m)
    assert inner0(g, f, m) == pytest.approx(np.conj(s), rel=1e-12)
    assert inner0(f, f, m).real >= 0.0
    assert abs(inner0(f, f, m).imag) < 1e-12 * abs(inner0(f, f, m).real)


def test_riesz_zero_mode_sentinel_in_pairing():
    """Constant-in-space fields have zero Riesz seminorm (zero mode dropped)."""
    lat = _lat()
    t = lat.times()
    env = np.sin(np.pi * t / lat.t_max) ** 2
    vals = np.repeat(env[:, None], lat.n_space[0], axis=1)
    f = Field(lat, Representation.PHYSICAL, vals.astype(np.complex128))
    m = SpectralMeasure("riesz", 0.5, 1)
    assert norm0(f, m) == 0.0


def test_random_band_limited_is_real_banded_and_time_compact():
    lat = _lat(n=64)
    rng = np.random.default_rng(5)
    f = random_band_limited(lat, rng)
    assert np.max(np.abs(f.values.imag)) < 1e-12
    F = forward_transform(f).values
    k = np.fft.fftfreq(64, d=1.0 / 64)
    outside = np.abs(k) > 0.25 * 64
    assert np.max(np.abs(F[:, outside])) < 1e-12 * np.max(np.abs(F))
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(f.values[0])) < 1e-14 * scale
    assert np.max(np.abs(f.values[-1])) < 1e-14 * scale


def test_refine_field_preserves_band_limited_content():
    lat = _lat(n=32, nt=16)
    rng = np.random.default_rng(6)
    f = random_band_limited(lat, rng)
    fine = refine_field(f)
    assert fine.lattice.n_space == (64,)
    assert fine.lattice.n_time == 32
    # trig interpolation is exact on the shared (even-index) sites
    np.testing.assert_allclose(fine.values[::2, ::2], f.values, atol=1e-12)


def test_field_container_round_trip(tmp_path):
    lat = _lat(n=16, nt=8)
    rng = np.random.default_rng(7)
    f = random_band_limited(lat, rng)
    p = tmp_path / "f.fld"
    write_field(f, p)
    g = read_field(p)
    assert g.lattice == lat
    assert g.space_time == f.space_time and g.representation is f.representation
    np.testing.assert_array_equal(g.values, f.values)


def test_field_container_rewrite_keeps_bytes(tmp_path):
    """write -> decode -> write gives the same bytes, -0.0 included (the t = 0
    slice of this field holds -0.0)."""
    f = random_band_limited(SpaceTimeLattice(2, (4.0, 2.0), (8, 4), 1.0, 3),
                            np.random.default_rng(7))
    blob = write_field(f, tmp_path / "f.fld")
    g = decode_field(blob)
    assert np.signbit(f.values.real).tobytes() == np.signbit(g.values.real).tobytes()
    assert write_field(g, tmp_path / "g.fld") == blob
    g.values[0, 0, 0] = 1.0  # decoded values are a writable copy


def test_field_container_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.fld"
    p.write_bytes(b"NOTAFLD0" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_field(p)


def test_field_container_rejects_truncated_file(tmp_path):
    lat = _lat(n=16, nt=8)
    p = tmp_path / "f.fld"
    write_field(random_band_limited(lat, np.random.default_rng(7)), p)
    full = p.read_bytes()
    for cut in (12, 20, 63, 64 + 16):  # header for dim 1 is 64 bytes
        p.write_bytes(full[:cut])
        with pytest.raises(ValueError, match="truncated field container"):
            read_field(p)


def test_field_container_rejects_unknown_codes(tmp_path):
    lat = _lat(n=16, nt=8)
    p = tmp_path / "f.fld"
    write_field(random_band_limited(lat, np.random.default_rng(7)), p)
    full = p.read_bytes()
    for offset, code in itertools.product((48, 56), (7, 2, -1)):  # dim 1 rep/layout codes
        p.write_bytes(full[:offset] + code.to_bytes(8, "little", signed=True)
                      + full[offset + 8:])
        with pytest.raises(ValueError, match="unknown representation/layout"):
            read_field(p)


def test_write_field_returns_the_bytes_written(tmp_path):
    f = random_band_limited(_lat(n=16, nt=8), np.random.default_rng(7))
    p = tmp_path / "f.fld"
    blob = write_field(f, p)
    assert blob == p.read_bytes()
    assert decode_field(blob).values.tobytes() == read_field(p).values.tobytes()


def _space_only_header(n_sites: int, extent=8.0, t_max=1.0) -> bytes:
    """A 1-D space-only physical container header declaring ``n_sites``."""
    return struct.pack("<8sqqqddqq", b"SPDEFLD1", 1, n_sites, 1, extent, t_max, 0, 0)


def test_field_container_rejects_oversized_declared_count(tmp_path):
    """96 bytes that declare 2^62 sites are rejected before any read."""
    p = tmp_path / "f.fld"
    p.write_bytes(_space_only_header(2 ** 62) + bytes(32))
    with pytest.raises(ValueError, match="truncated field container"):
        read_field(p)


def test_field_container_rejects_non_finite_lattice():
    """96 bytes whose lattice has extent NaN and t_max inf decode to no field."""
    blob = _space_only_header(2, extent=float("nan"), t_max=float("inf")) + bytes(32)
    assert len(blob) == 96
    with pytest.raises(ValueError, match="must be finite"):
        decode_field(blob)


def test_field_container_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "f.fld"
    p.write_bytes(_space_only_header(2) + bytes(32 + 8))
    with pytest.raises(ValueError, match="8 bytes after its payload"):
        read_field(p)
    assert decode_field(p.read_bytes()[:-8]).values.shape == (2,)


def test_step_tables_match_closed_forms():
    lat = SpaceTimeLattice(2, (8.0, 4.0), (16, 8), 1.0, 10)
    dt = lat.dt
    np.testing.assert_array_equal(lat.decay, np.exp(-lat.xi_squared * dt))
    nz = lat.xi_squared > 0
    lam, a = lat.xi_squared[nz], lat.decay[nz]
    np.testing.assert_allclose(lat.duhamel_weight[nz], (1 - a) / lam, rtol=1e-12)
    np.testing.assert_allclose(lat.variance_weight[nz], (1 - a ** 2) / (2 * lam),
                               rtol=1e-12)
    assert lat.duhamel_weight[0, 0] == dt and lat.variance_weight[0, 0] == dt
    np.testing.assert_allclose(lat.loading[nz], (1 - a) / (lam * dt), rtol=1e-12)
    assert lat.loading[0, 0] == 1.0
    assert np.all(lat.innovation >= 0.0)
    gap, t_min = np.array([0.0, 0.3, 0.7]), np.array([0.2, 0.0, 0.3])
    tf = lat.time_factor(gap.reshape(-1, 1, 1), t_min.reshape(-1, 1, 1))
    exact = (np.exp(-lam * gap[:, None]) - np.exp(-lam * (gap + 2 * t_min)[:, None])) / (2 * lam)
    np.testing.assert_allclose(tf[:, nz], exact, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(tf[:, 0, 0], t_min)


def test_point_phase_is_plane_wave_at_grid_point():
    lat = SpaceTimeLattice(2, (8.0, 4.0), (16, 8), 1.0, 4)
    j = (5, 19)  # wraps to site (5, 3)
    x = (5 * 8.0 / 16, 3 * 4.0 / 8)
    xi0, xi1 = np.meshgrid(*lat.xi_axes(), indexing="ij")
    np.testing.assert_allclose(lat.point_phase(j),
                               np.exp(1j * (xi0 * x[0] + xi1 * x[1])), atol=1e-13)


def test_grid_point_wraps_space_indices():
    lat = SpaceTimeLattice(2, (8.0, 4.0), (16, 8), 1.0, 4)
    assert lat.grid_point(3, (5, 19)) == (3 * 0.25, (5 * 8.0 / 16, 3 * 4.0 / 8))
    assert lat.grid_point(0, (-1, 0)) == (0.0, (15 * 8.0 / 16, 0.0))


def test_field_shape_validation():
    lat = _lat(n=16, nt=8)
    with pytest.raises(ValueError):
        Field(lat, Representation.PHYSICAL, np.zeros((3, 16), dtype=np.complex128))


@pytest.mark.parametrize("shape", [(8, 16), (9, 8), (8,), (16, 9), (9, 16, 1), ()])
def test_field_refuses_a_shape_of_neither_layout(shape):
    with pytest.raises(ValueError, match="is neither the lattice's space shape"):
        Field(_lat(n=16, nt=8), Representation.PHYSICAL, np.zeros(shape))


def test_field_layout_is_its_shape():
    lat = _lat(dim=2, n=4, nt=8)
    assert lat.shape == (9, 4, 4)
    assert Field(lat, Representation.PHYSICAL, np.zeros(lat.shape)).space_time
    assert not Field(lat, Representation.FREQUENCY, np.zeros(lat.n_space)).space_time


# sha256 of write_field's bytes for a space-only frequency field and a
# space-time physical field on a 2-D lattice (numpy 2.4, x86-64)
@pytest.mark.parametrize("make, digest", [
    (lambda lat: forward_transform(spatial_bump(lat, (2.0, 1.0), (1.5, 0.8))),
     "f9f6dd98a8ee99ebc521c8464696b6e541b7777b7301421b91f61bfdeb7284fe"),
    (lambda lat: random_band_limited(lat, np.random.default_rng(7)),
     "29e74b71f2e8d65e71715ed49f5a50c0785c476e8d37d58b81ac75256bcedee7"),
], ids=["space_only", "space_time"])
def test_field_container_bytes_match_pinned_digest(tmp_path, make, digest):
    f = make(SpaceTimeLattice(2, (4.0, 2.0), (8, 4), 1.0, 3))
    blob = write_field(f, tmp_path / "f.fld")
    assert hashlib.sha256(blob).hexdigest() == digest
    g = decode_field(blob)
    assert g.space_time == f.space_time
    np.testing.assert_array_equal(g.values, f.values)


def test_real_values_guard():
    lat = _lat(n=16, nt=8)
    vals = np.zeros((9, 16), dtype=np.complex128)
    vals[2, 3] = 1j
    f = Field(lat, Representation.PHYSICAL, vals)
    with pytest.raises(ValueError):
        f.real_values()


@pytest.mark.parametrize("to", [inverse_transform, forward_transform],
                         ids=["physical", "frequency"])
@pytest.mark.parametrize("bad", [np.nan, 1j * np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                         ids=["nan_real", "nan_imag", "inf_real", "neg_inf_real", "inf_imag"])
@pytest.mark.parametrize("space_time", [True, False], ids=["space_time", "space_only"])
def test_nan_field_is_refused(to, bad, space_time):
    """An inf or NaN in either part makes real_values and support_mask refuse
    the field in either representation, not return values or a support."""
    lat = _lat(n=16, nt=8)
    vals = np.zeros(lat.shape if space_time else lat.n_space, dtype=np.complex128)
    vals[..., 3] = 1.0
    vals[..., 5] = bad
    with np.errstate(invalid="ignore"):  # the FFT of an inf is NaN-filled
        f = to(Field(lat, Representation.PHYSICAL, vals))
    with pytest.raises(ValueError, match="field holds a non-finite value"):
        f.real_values()
    with pytest.raises(ValueError, match="field holds a non-finite value"):
        support_mask(f)


def _bad_test_fields(lat):
    """One test field per refusal, each bad in one way only."""
    rng = np.random.default_rng(3)
    nan = random_band_limited(lat, rng)
    nan.values[2, 5] = np.nan
    other = SpaceTimeLattice(2, (8.0, 8.0), (16, 16), lat.t_max, lat.n_time)
    return {
        "nan": (nan, "field holds a non-finite value"),
        "complex": (Field(lat, Representation.PHYSICAL, random_band_limited(lat, rng).values
                          + 1j * random_band_limited(lat, rng).values),
                    "test field must be real"),
        "space_only": (Field(lat, Representation.PHYSICAL, np.ones(lat.n_space)),
                       "test field must be a space-time field"),
        "other_lattice": (random_band_limited(other, rng),
                          "test field lives on a different lattice"),
    }


_TEST_FIELD_ENTRIES = {
    "representer_unchecked": lambda model, phi: representer(phi, model.measure, check=False),
    "representer_checked": lambda model, phi: representer(phi, model.measure, check=True),
    "mc_isometry_batch": lambda model, phi: mc_isometry_batch(model, [phi], 0, 4),
    "mc_representer_field": lambda model, phi: mc_representer_field(model, phi, 0, 4),
}


@pytest.mark.parametrize("case", ["nan", "complex", "space_only", "other_lattice"])
@pytest.mark.parametrize("entry", sorted(_TEST_FIELD_ENTRIES))
def test_every_test_field_entry_point_refuses_a_bad_test_field(entry, case):
    """One check of the test field behind every entry point: a NaN phi is a
    ValueError, never an isometry row with z_score 0.0, and a complex phi is
    refused, not paired by its real part against its complex norm."""
    lat = _lat(n=16, nt=8)
    model = NoiseModel(SpectralMeasure("bessel", 2.0, 1), lat)
    phi, message = _bad_test_fields(lat)[case]
    if case == "other_lattice" and entry.startswith("representer"):
        # representer works on phi's own lattice: the measure's dimension is checked
        message = "measure dim 1 != lattice dim 2"
    with pytest.raises(ValueError, match=message):
        _TEST_FIELD_ENTRIES[entry](model, phi)
