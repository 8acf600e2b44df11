"""Covariance oracle, region screening, and locality experiments."""

import ctypes
import dataclasses
import importlib.machinery
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from spde_lab import (
    Field,
    Representation,
    SpaceTimeLattice,
    SpectralMeasure,
    assemble_covariance,
    band_width_study,
    column_gram_check,
    conditional_cov_screen,
    covariance_oracle,
    element_from_h,
    kunsch_decomposition,
    kunsch_orthogonality,
    radial_cutoff,
    region_partition,
    space_time_bump,
)
from spde_lab.errors import InvariantViolation
from spde_lab.markov import RegionPartition, _one_blas_thread, _spatial_separation_cells
from spde_lab.spectral import _scipy_extension


def _lat(n=16, nt=8, L=8.0, T=1.0):
    return SpaceTimeLattice(1, (L,), (n,), T, nt)


# -- covariance oracle ---------------------------------------------------------


def test_oracle_zero_at_initial_time():
    lat = _lat()
    m = SpectralMeasure("white", 1.0, 1)
    assert covariance_oracle(m, lat, (0.0, (1.0,)), (0.5, (2.0,))) == 0.0


def test_oracle_symmetric_and_stationary():
    lat = _lat()
    m = SpectralMeasure("bessel", 2.0, 1)
    p, q = (0.25, (1.5,)), (0.75, (5.0,))
    assert covariance_oracle(m, lat, p, q) == pytest.approx(
        covariance_oracle(m, lat, q, p), rel=1e-14)
    # spatially homogeneous: only x - y matters
    shift = 2.5
    p2 = (p[0], (p[1][0] + shift,))
    q2 = (q[0], (q[1][0] + shift,))
    assert covariance_oracle(m, lat, p2, q2) == pytest.approx(
        covariance_oracle(m, lat, p, q), rel=1e-12)


def test_oracle_variance_monotone_in_time():
    lat = _lat()
    m = SpectralMeasure("white", 1.0, 1)
    x = (3.0,)
    vals = [covariance_oracle(m, lat, (t, x), (t, x))
            for t in (0.125, 0.25, 0.5, 1.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_oracle_rejects_times_outside_horizon():
    lat = _lat()
    m = SpectralMeasure("white", 1.0, 1)
    with pytest.raises(ValueError):
        covariance_oracle(m, lat, (2.0, (0.0,)), (0.5, (0.0,)))


# -- dense assembly ------------------------------------------------------------


def test_assemble_matches_oracle_entrywise():
    points = [(0.25, (0.5,)), (0.5, (2.0,)), (0.5, (6.5,)),
              (0.75, (4.0,)), (1.0, (1.0,)), (1.0, (7.5,))]
    cases = [(_lat(), SpectralMeasure("bessel", 2.0, 1), points),
             (SpaceTimeLattice(2, (8.0, 4.0), (8, 8), 1.0, 8),
              SpectralMeasure("bessel", 4.0, 2),
              [(t, (x, 0.5 * x + 1.0)) for t, (x,) in points])]
    for lat, m, pts in cases:
        C = assemble_covariance(m, lat, pts)
        assert C.values.shape == (6, 6)
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                assert C.values[i, j] == pytest.approx(
                    covariance_oracle(m, lat, p, q), rel=1e-10, abs=1e-14)
        assert C.meta["min_eig"] >= -1e-10 * C.meta["trace"]


def test_assemble_handles_duplicated_points():
    lat = _lat()
    m = SpectralMeasure("white", 1.0, 1)
    points = [(0.5, (2.0,)), (0.5, (2.0,)), (1.0, (6.0,))]
    C = assemble_covariance(m, lat, points)
    np.testing.assert_allclose(C.values[0], C.values[1], rtol=0, atol=0)


def test_assemble_point_budget_and_horizon():
    lat = _lat()
    m = SpectralMeasure("white", 1.0, 1)
    with pytest.raises(ValueError):
        assemble_covariance(m, lat, [(0.5, (0.0,))] * 4097)
    with pytest.raises(ValueError, match="needs 1 to 4096 points, got 0"):
        assemble_covariance(m, lat, [])
    with pytest.raises(ValueError):
        assemble_covariance(m, lat, [(1.5, (0.0,))])


def test_psd_eigensolve_runs_with_only_the_matrix_alive(monkeypatch):
    """At the PSD gate's eigh call the assembly holds R and little else: the
    features and time weights are released first (P = 512, N = 256)."""
    lat = SpaceTimeLattice(1, (4.0,), (256,), 1.0, 64)
    points = [(m / 64, (j / 8,)) for m in range(1, 65, 4) for j in range(32)]
    alive, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: alive.append(
        tracemalloc.get_traced_memory()[0]) or eigh(a))
    tracemalloc.start()
    try:
        C = assemble_covariance(SpectralMeasure("bessel", 2.0, 1), lat, points)
    finally:
        tracemalloc.stop()
    assert C.values.shape == (512, 512) and len(alive) == 1
    assert alive[0] <= C.values.nbytes + 0.25 * 2 ** 20


def test_column_gram_matches_oracle():
    lat = _lat(n=32, nt=16)
    m = SpectralMeasure("bessel", 2.0, 1)
    for p_idx, q_idx in [((4, (3,)), (12, (20,))),
                         ((8, (10,)), (8, (10,))),
                         ((16, (0,)), (2, (31,)))]:
        rep = column_gram_check(m, lat, p_idx, q_idx)
        assert rep["rel_gap"] <= 1e-8


@pytest.mark.parametrize("m", [SpectralMeasure("bessel", 4.0, 2),
                               SpectralMeasure("riesz", 1.0, 2),
                               SpectralMeasure("heat_kernel", 0.01, 2)],
                         ids=lambda m: m.family.value)
def test_column_gram_matches_oracle_2d(m):
    lat = SpaceTimeLattice(2, (8.0, 8.0), (8, 8), 1.0, 8)
    for p_idx, q_idx in [((2, (1, 6)), (6, (5, 3))), ((8, (0, 7)), (8, (0, 7)))]:
        rep = column_gram_check(m, lat, p_idx, q_idx)
        assert rep["rel_gap"] <= 1e-8


# -- region partition and screening --------------------------------------------


def test_region_partition_membership():
    lat = _lat(n=8, nt=8)  # dx = 1, dt = 0.125
    rect = ((0.25, 0.75), (2.0, 6.0))  # index units: time (2, 6), space (2, 6)
    points = [(0.5, (4.0,)),    # margins 2 cells -> inside at width 1
              (0.5, (2.5,)),    # 0.5 cells from the space edge -> band
              (0.5, (0.5,)),    # 1.5 cells outside -> outside
              (0.125, (4.0,))]  # exactly 1 cell outside in time -> band
    part = region_partition(lat, points, rect, band_width=1)
    assert list(part.inside) == [0]
    assert sorted(part.band) == [1, 3]
    assert list(part.outside) == [2]


def test_region_partition_disjoint_cover():
    lat = _lat()
    rng = np.random.default_rng(0)
    points = [(float(rng.uniform(0, lat.t_max)),
               (float(rng.uniform(0, lat.extent[0])),)) for _ in range(60)]
    part = region_partition(lat, points, ((0.25, 0.75), (2.0, 6.0)), 1.0)
    idx = np.concatenate([part.inside, part.band, part.outside])
    assert sorted(idx.tolist()) == list(range(60))
    with pytest.raises(ValueError):
        region_partition(lat, points, ((0.25, 0.75), (2.0, 6.0)), 0.0)


def _signed_distance_loop(lat, points, rect):
    """Per-point reference: signed Chebyshev distance in cell units."""
    cells = [lat.dt] + [lat.extent[ax] / lat.n_space[ax] for ax in range(lat.dim)]
    rect_idx = [(lo / c, hi / c) for (lo, hi), c in zip(rect, cells)]
    signed = []
    for t, x in points:
        coords = [t / cells[0]] + [x[ax] / cells[1 + ax] for ax in range(lat.dim)]
        margins = [min(c - lo, hi - c) for c, (lo, hi) in zip(coords, rect_idx)]
        deficits = [max(lo - c, c - hi, 0.0) for c, (lo, hi) in zip(coords, rect_idx)]
        signed.append(min(margins) if all(m > 0 for m in margins)
                      else -max(deficits))
    return np.array(signed)


def test_region_partition_matches_pointwise_rule():
    rng = np.random.default_rng(5)
    for lat, rect in [(_lat(), ((0.25, 0.75), (2.0, 6.0))),
                      (SpaceTimeLattice(2, (8.0, 4.0), (16, 8), 1.0, 8),
                       ((0.25, 0.75), (2.0, 6.0), (1.0, 2.5)))]:
        points = [(float(rng.uniform(0, lat.t_max)),
                   tuple(float(rng.uniform(0, L)) for L in lat.extent))
                  for _ in range(300)]
        signed = _signed_distance_loop(lat, points, rect)
        for width in (0.5, 1.0, 2.5):
            part = region_partition(lat, points, rect, width)
            assert part.inside.tolist() == np.nonzero(signed > width)[0].tolist()
            assert part.band.tolist() == np.nonzero(np.abs(signed) <= width)[0].tolist()
            assert part.outside.tolist() == np.nonzero(signed < -width)[0].tolist()
    with pytest.raises(ValueError):
        region_partition(_lat(), points[:3], rect, 1.0)  # 2-D rect on a 1-D lattice


def _grid_points(lat):
    dx = lat.extent[0] / lat.n_space[0]
    return [(m * lat.dt, (j * dx,))
            for m in range(1, lat.n_time + 1) for j in range(lat.n_space[0])]


def test_screen_symmetric_under_relabel():
    lat = _lat(n=8, nt=8, L=4.0, T=0.5)
    m = SpectralMeasure("bessel", 2.0, 1)
    C = assemble_covariance(m, lat, _grid_points(lat))
    part = region_partition(lat, C.points, ((0.125, 0.375), (1.0, 3.0)), 1.0)
    swapped = RegionPartition(part.rect, part.band_width,
                              part.outside, part.band, part.inside)
    a = conditional_cov_screen(C, part)["max_abs_cond_corr"]
    b = conditional_cov_screen(C, swapped)["max_abs_cond_corr"]
    assert a == pytest.approx(b, rel=1e-8)


def test_screen_empty_band_and_empty_outside():
    lat = _lat(n=8, nt=8, L=4.0, T=0.5)
    m = SpectralMeasure("bessel", 2.0, 1)
    C = assemble_covariance(m, lat, _grid_points(lat))
    part = region_partition(lat, C.points, ((0.125, 0.375), (1.0, 3.0)), 1.0)
    with pytest.raises(ValueError):
        conditional_cov_screen(C, RegionPartition(
            part.rect, 1.0, part.inside, np.array([], dtype=int), part.outside))
    rep = conditional_cov_screen(C, RegionPartition(
        part.rect, 1.0, part.inside,
        np.concatenate([part.band, part.outside]), np.array([], dtype=int)))
    assert rep["max_abs_cond_corr"] == 0.0


# -- the band screen's direct LAPACK calls and its BLAS thread pin -------------


def _screen_setup():
    lat = _lat(n=8, nt=8, L=4.0, T=0.5)
    C = assemble_covariance(SpectralMeasure("bessel", 2.0, 1), lat, _grid_points(lat))
    return C, region_partition(lat, C.points, ((0.125, 0.375), (1.0, 3.0)), 1.0)


def _with_band_value(C, part, value):
    """A copy of C whose first band diagonal entry is ``value``."""
    S = C.values.copy()
    S[part.band[0], part.band[0]] = value
    return dataclasses.replace(C, values=S)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
def test_direct_lapack_calls_have_the_bytes_of_cho_factor_and_cho_solve(n):
    """The screen calls dpotrf/dpotrs with cho_factor(lower=True)'s and
    cho_solve's arguments, so it gets their bytes; if scipy changes either
    wrapper this fails."""
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n + 3))
    A, B = M @ M.T + 1e-3 * np.eye(n), rng.standard_normal((n, 5))
    lapack = _scipy_extension("linalg", "_flapack")
    chol, info = lapack.dpotrf(A, lower=1, clean=0, overwrite_a=0)
    ref = cho_factor(A, lower=True)
    assert info == 0 and chol.tobytes() == ref[0].tobytes()
    inplace = np.array(A, order="F")  # the screen factors its Fortran copy in place
    factor = lapack.dpotrf(inplace, lower=1, clean=0, overwrite_a=1)[0]
    assert np.shares_memory(factor, inplace) and factor.tobytes() == chol.tobytes()
    x, info = lapack.dpotrs(chol, B, lower=1, overwrite_b=0)
    assert info == 0 and x.tobytes() == cho_solve(ref, B).tobytes()


def test_screen_matches_the_cho_factor_reference():
    """The whole screen report equals one built on cho_factor/cho_solve under
    the same one-thread pin, float for float."""
    C, part = _screen_setup()
    S, (I, B, O) = C.values, (part.inside, part.band, part.outside)
    with _one_blas_thread("numpy", "scipy"):
        S_bb = S[np.ix_(B, B)].copy()
        ridge = 1e-10 * float(np.trace(S_bb))
        S_bb[np.diag_indices_from(S_bb)] += ridge
        chol = cho_factor(S_bb, lower=True)
        K_bi, K_bo = cho_solve(chol, S[np.ix_(B, I)]), cho_solve(chol, S[np.ix_(B, O)])
        cond_io = S[np.ix_(I, O)] - S[np.ix_(I, B)] @ K_bo
        var_i = S[I, I] - np.sum(S[np.ix_(I, B)].T * K_bi, axis=0)
        var_o = S[O, O] - np.sum(S[np.ix_(O, B)].T * K_bo, axis=0)
        floor = 1e-12 * float(np.max(np.diag(S)))
        corr = np.abs(cond_io) / np.sqrt(np.outer(np.maximum(var_i, floor),
                                                  np.maximum(var_o, floor)))
    rep = conditional_cov_screen(C, part)
    assert rep["ridge"] == ridge and rep["max_abs_cond_corr"] == float(corr.max())


def test_screen_refuses_an_indefinite_or_non_finite_band_block():
    C, part = _screen_setup()
    with pytest.raises(InvariantViolation, match=r"band block not factorizable: 1-th "
                       r"leading minor of the array is not positive definite"):
        conditional_cov_screen(_with_band_value(C, part, -1.0), part)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            conditional_cov_screen(_with_band_value(C, part, bad), part)


def test_missing_flapack_module_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        _scipy_extension.__wrapped__("linalg", "_flapack")


def test_a_later_scipy_linalg_import_reuses_the_loaded_lapack_module():
    """In a fresh interpreter: the screen's LAPACK module loads without
    scipy.linalg, and importing scipy.linalg afterwards reuses it."""
    child = ("import sys; from spde_lab.spectral import _scipy_extension as load; "
             "m = load('linalg', '_flapack'); print('scipy.linalg' in sys.modules); "
             "import scipy.linalg.lapack as lapack; print(lapack._flapack is m)")
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def _loaded_openblas():
    """{"numpy"/"scipy": (get, set)} of the thread count of each OpenBLAS
    mapped into this process, found through /proc/self/maps rather than the
    code's own search; numpy's is the build whose symbols end in 64_."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "libscipy_openblas" in line})
    except OSError:
        pytest.skip("no /proc/self/maps")
    libs = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        libs["numpy" if suffix else "scipy"] = (get, set_)
    return libs


def test_markov_pins_one_blas_thread_and_restores_the_counts(monkeypatch):
    """assemble_covariance runs on one thread of numpy's OpenBLAS and leaves
    scipy's alone; the band screen runs on one thread of both.  Each gives
    the previous counts back, also when the screen raises."""
    _scipy_extension("linalg", "_flapack")  # maps scipy's OpenBLAS
    C, part = _screen_setup()
    libs = _loaded_openblas()
    assert sorted(libs) == ["numpy", "scipy"]

    def counts():
        return {name: get() for name, (get, _) in libs.items()}

    saved, seen = counts(), []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, real=real: (seen.append(counts()), real(a))[1])
    try:
        for _, set_ in libs.values():
            set_(2)
        assemble_covariance(C.measure, C.lattice, C.points[:4])
        conditional_cov_screen(C, part)
        with pytest.raises(InvariantViolation):
            conditional_cov_screen(_with_band_value(C, part, -1.0), part)
        with pytest.raises(ValueError):
            conditional_cov_screen(_with_band_value(C, part, math.nan), part)
        after = counts()
    finally:
        for name, (_, set_) in libs.items():
            set_(saved[name])
    assert seen == [{"numpy": 1, "scipy": 2}, {"numpy": 1, "scipy": 1}]
    assert after == {"numpy": 2, "scipy": 2}


def test_band_width_study_contract():
    obs = _lat(n=8, nt=8, L=4.0, T=0.5)
    quad = SpaceTimeLattice(1, obs.extent, (32,), obs.t_max, obs.n_time)
    m = SpectralMeasure("bessel", 2.0, 1)
    C = assemble_covariance(m, quad, _grid_points(obs))
    rect = ((0.125, 0.375), (1.0, 3.0))
    study = band_width_study(C, rect, [1, 2], partition_lattice=obs)
    assert len(study["rows"]) == 2
    # band widths are measured in observation cells, not quadrature cells
    for w, row in zip([1, 2], study["rows"]):
        ref = region_partition(obs, C.points, rect, w).sizes
        assert {k: row[k] for k in ("inside", "band", "outside")} == ref
    assert study["non_increasing"]
    with pytest.raises(ValueError):
        band_width_study(C, rect, [], partition_lattice=obs)
    with pytest.raises(TypeError, match="partition_lattice"):  # no fallback to C.lattice
        band_width_study(C, rect, [1, 2])


# -- locality experiments -------------------------------------------------------


def _bump_pair(lat, sep_frac=0.4, amp2=1.0):
    L = lat.extent[0]
    kw = dict(t_center=0.25, t_width=0.15, width=(0.08 * L,))
    h = space_time_bump(lat, center=(0.3 * L,), **kw)
    g = space_time_bump(lat, center=((0.3 + sep_frac) * L,), amplitude=amp2, **kw)
    return h, g


def _pairwise_separation(mask_a, mask_b):
    """Reference: the minimum over all site pairs of the torus Chebyshev distance."""
    a, b = np.argwhere(mask_a), np.argwhere(mask_b)
    if a.size == 0 or b.size == 0:
        return math.inf
    diff = np.abs(a[:, None, :] - b[None, :, :])
    diff = np.minimum(diff, np.array(mask_a.shape) - diff)
    return float(diff.max(axis=2).min())


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 8)])
def test_spatial_separation_matches_the_pairwise_reference(dim, n):
    lat = SpaceTimeLattice(dim, (8.0,) * dim, (n,) * dim, 1.0, 2)
    rng = np.random.default_rng(dim)
    for density in (0.002, 0.01, 0.05, 0.3):
        for shape in (lat.n_space, lat.shape):  # a space-time field: any slice counts
            masks = rng.random((2,) + shape) < density
            a, b = (Field(lat, Representation.PHYSICAL, m) for m in masks)
            if len(shape) > dim:
                masks = masks.any(axis=1)
            assert _spatial_separation_cells(a, b) == _pairwise_separation(*masks)


def test_kunsch_orthogonality_local_measure_small():
    # fine enough that the even-order discretization floor sits below the
    # genuine fractional-order plateau
    lat = SpaceTimeLattice(1, (16.0,), (256,), 0.5, 32)
    h, g = _bump_pair(lat)
    rep = kunsch_orthogonality(SpectralMeasure("bessel", 2.0, 1), h, g)
    assert rep["markov_guarantee"]
    assert rep["normalized_inner"] <= 1e-4
    frac = kunsch_orthogonality(SpectralMeasure("bessel", 1.0, 1), h, g)
    assert not frac["markov_guarantee"]
    assert frac["normalized_inner"] > rep["normalized_inner"]


def test_kunsch_orthogonality_sign_and_translation():
    lat = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
    m = SpectralMeasure("bessel", 2.0, 1)
    h, g = _bump_pair(lat)
    base = kunsch_orthogonality(m, h, g)
    g_neg = Field(lat, g.representation, -g.values)
    flipped = kunsch_orthogonality(m, h, g_neg)
    assert flipped["raw_inner"] == pytest.approx(-base["raw_inner"], rel=1e-12)
    # shift both bumps by a whole number of cells: pairing is unchanged
    dx = lat.extent[0] / lat.n_space[0]
    kw = dict(t_center=0.25, t_width=0.15, width=(0.08 * 16.0,))
    h2 = space_time_bump(lat, center=(0.3 * 16.0 + 5 * dx,), **kw)
    g2 = space_time_bump(lat, center=(0.7 * 16.0 + 5 * dx,), **kw)
    shifted = kunsch_orthogonality(m, h2, g2)
    assert shifted["normalized_inner"] == pytest.approx(
        base["normalized_inner"], rel=1e-10, abs=1e-18)


def test_kunsch_orthogonality_rejects_close_supports():
    lat = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
    h, g = _bump_pair(lat, sep_frac=0.18)
    with pytest.raises(ValueError):
        kunsch_orthogonality(SpectralMeasure("bessel", 2.0, 1), h, g)


def test_kunsch_decomposition_trivial_cutoff():
    lat = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
    m = SpectralMeasure("bessel", 2.0, 1)
    h, _ = _bump_pair(lat)
    zeta = element_from_h(h, m)
    ones = Field(lat, Representation.PHYSICAL, np.ones(lat.n_space, dtype=np.complex128))
    rep = kunsch_decomposition(m, zeta, ones)
    assert rep["residual"] <= 1e-12
    assert rep["norm2_g"] <= 1e-12 * rep["norm2_zeta"]


def test_kunsch_decomposition_split_bumps():
    lat = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
    m = SpectralMeasure("bessel", 2.0, 1)
    h, g = _bump_pair(lat, amp2=0.7)
    combined = Field(lat, Representation.PHYSICAL, h.values + g.values)
    zeta = element_from_h(combined, m)
    chi = radial_cutoff(lat, center=(0.3 * 16.0,), inner_radius=2.0,
                        outer_radius=4.0)
    rep = kunsch_decomposition(m, zeta, chi)
    assert rep["residual"] <= 1e-2
    assert rep["cross_normalized"] <= 1e-2
    assert np.isfinite(rep["krylov_norm_h"])


def test_kunsch_decomposition_rejects_bad_cutoffs():
    lat = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
    m = SpectralMeasure("bessel", 2.0, 1)
    h, _ = _bump_pair(lat)
    zeta = element_from_h(h, m)
    with pytest.raises(ValueError):  # space-time layout
        kunsch_decomposition(m, zeta, Field(
            lat, Representation.PHYSICAL, np.ones(lat.shape, dtype=np.complex128)))
    with pytest.raises(ValueError):  # values outside [0, 1]
        kunsch_decomposition(m, zeta, Field(
            lat, Representation.PHYSICAL, 2.0 * np.ones(lat.n_space, dtype=np.complex128)))
    with pytest.raises(ValueError):  # transition region touches the support
        kunsch_decomposition(m, zeta, radial_cutoff(
            lat, center=(0.3 * 16.0,), inner_radius=0.5, outer_radius=8.0))


@pytest.mark.parametrize("base, value", [(0.0, 1e-10), (1.0, 1.0 - 1e-10)],
                         ids=["near_zero", "near_one"])
def test_kunsch_decomposition_refuses_a_transition_within_1e9_of_constant(base, value):
    """The one transition tolerance is 1e-12: a cutoff 1e-10 away from 0 or 1
    at one site of the support is a transition there."""
    lat = SpaceTimeLattice(1, (16.0,), (64,), 0.5, 16)
    m = SpectralMeasure("bessel", 2.0, 1)
    h, _ = _bump_pair(lat)
    zeta = element_from_h(h, m)
    vals = np.full(lat.n_space, base)
    kunsch_decomposition(m, zeta, Field(lat, Representation.PHYSICAL, vals))
    vals[19] = value  # x = 4.75, the bump center
    with pytest.raises(ValueError, match="cutoff transition region overlaps the field support"):
        kunsch_decomposition(m, zeta, Field(lat, Representation.PHYSICAL, vals))
