"""Numerical germ-Markov probes: covariance structure and locality experiments.

The zero-initial-data solution field is Gaussian with covariance

    R((t,x),(s,y)) = (2 pi)^-d sum_xi g(|xi|^2) dxi^d cos(xi.(x-y))
                     * (exp(-|t-s| |xi|^2) - exp(-(t+s) |xi|^2)) / (2 |xi|^2),

(time factor t ^ s at the zero mode), which matches the sampled process
exactly at grid times.  On top of it sit three experiments:

- conditional-covariance screening: condition interior and exterior point
  sets on a boundary band and measure the largest residual correlation;
- orthogonality of representer elements built from disjointly supported
  bumps (locality of the Dirichlet form for even-order Bessel measures);
- decomposition stability: cutting one element into two by a smooth spatial
  cutoff and checking Pythagoras for the pair.

All Markov-type assertions here are comparative (even order vs. fractional
control) and refinement-monotone; a finite lattice is never exactly Markov.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .bumps import _cutoff_values, support_mask
from .errors import InvariantViolation
from .lattice import (Field, Representation, SpaceTimeLattice, _grid_density,
                      _physical_points, inverse_transform)
from .rkhs import (RkhsElement, _even_bessel, element_from_h, heat_column, krylov_norm,
                   rkhs_inner, rkhs_inner_raw)
from .spectral import SpectralMeasure, _scipy_extension


@contextlib.contextmanager
def _one_blas_thread(*packages):
    """Run on one thread of the OpenBLAS that each package's compiled LAPACK
    module calls (numpy's symbols end in 64_), restoring the old counts after,
    on exceptions too: OpenBLAS's Cholesky and eigensolvers round differently
    at different thread counts (its gemm does not).  A module that does not
    link one is an error."""
    libs = []
    for package in packages:
        module, suffix = ((_umath_linalg, "64_") if package == "numpy"
                          else (_scipy_extension("linalg", "_flapack"), ""))
        lib = ctypes.CDLL(module.__file__)  # already loaded: its OpenBLAS is found too
        get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}")
                     for op in ("get", "set"))
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        libs.append((get, set_))
    old = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(libs, old):
            set_(n)


def covariance_oracle(measure: SpectralMeasure, lattice: SpaceTimeLattice,
                      p, q) -> float:
    """E u(p) u(q) for p = (t, (x...)), q = (s, (y...)), coordinates physical."""
    (t, s), (x, y) = _physical_points(lattice, (p, q))
    phase = lattice.phase(x - y)
    g = _grid_density(measure, lattice)
    c = (2.0 * np.pi) ** (-lattice.dim)
    return float(c * lattice.freq_cell_volume
                 * np.sum(g * np.cos(phase) * lattice.time_factor(abs(t - s), min(t, s))))


@dataclass
class CovarianceMatrix:
    """Dense covariance over a finite point set, validated PSD."""

    points: list              # [(t, (x...)), ...]
    values: np.ndarray        # (P, P) symmetric PSD
    measure: SpectralMeasure
    lattice: SpaceTimeLattice
    meta: dict = field(default_factory=dict)


@_one_blas_thread("numpy")
def assemble_covariance(measure: SpectralMeasure, lattice: SpaceTimeLattice,
                        points) -> CovarianceMatrix:
    """Full covariance matrix over ``points`` via the frequency-sum oracle.

    R = F diag(v) F^T over Fourier features F = [cos(xi.x), sin(xi.x)], modes
    in descending |xi|^2 (low modes carry most weight, so they come last);
    v = c g tf(|xi|^2; t, s) depends on the times only, so each distinct time
    is one matrix product, in any dimension, and (R + R^T)/2 is exactly
    symmetric.  Eigenvalues below -1e-10 * trace abort (quadrature
    inconsistency); a tiny negative tail inside that tolerance is clipped to
    zero (PSD projection) and recorded in ``meta``.
    """
    points = list(points)
    t_arr, x_arr = _physical_points(lattice, points)  # (P,), (P, d)
    P = len(points)
    if not 1 <= P <= 4096:
        raise ValueError(f"dense covariance needs 1 to 4096 points, got {P}")

    # sum low modes last: they carry most weight
    order = np.argsort(lattice.xi_squared.ravel())[::-1]
    # take keeps C order: a fancy column index returns a Fortran-ordered copy
    ph = lattice.phase(x_arr).reshape(P, -1).take(order, axis=1)  # (P, N)
    F = np.concatenate([np.cos(ph), np.sin(ph)], axis=1)  # (P, 2N)
    w = ((2.0 * np.pi) ** (-lattice.dim) * lattice.freq_cell_volume
         * _grid_density(measure, lattice).ravel()[order])

    times, time_of = np.unique(t_arr, return_inverse=True)
    col = (-1,) + (1,) * lattice.dim
    R = np.empty((P, P))
    for a, t in enumerate(times):
        tf = lattice.time_factor(np.abs(t - times).reshape(col),
                                 np.minimum(t, times).reshape(col))
        V = w * tf.reshape(len(times), -1)[:, order]  # (times, N)
        V = np.concatenate([V, V], axis=1)
        rows = time_of == a
        R[rows] = F[rows] @ (F * V[time_of]).T
    del ph, F, V  # the eigensolve below runs with only R alive
    R += R.T  # (R + R^T)/2 in place, exactly symmetric
    R *= 0.5

    trace = float(np.trace(R))
    eigvals, eigvecs = np.linalg.eigh(R)
    min_eig = float(eigvals[0])
    tol = 1e-10 * max(trace, 1e-300)
    if min_eig < -tol:
        raise InvariantViolation(
            f"covariance matrix indefinite: min eigenvalue {min_eig:.3e} "
            f"below -1e-10 * trace = {-tol:.3e}")
    projected = False
    if min_eig < 0.0:
        clipped = np.maximum(eigvals, 0.0)
        R = (eigvecs * clipped) @ eigvecs.T
        R += R.T
        R *= 0.5
        projected = True
    return CovarianceMatrix(points, R, measure, lattice,
                            {"min_eig": min_eig, "trace": trace,
                             "psd_projected": projected})


@dataclass
class RegionPartition:
    """Inside / boundary-band / outside split of a point set.

    The region is an open axis-aligned rectangle in (t, x); distances are
    signed Chebyshev distances to its boundary measured in lattice-cell
    units per axis (positive inside).  The band collects every point within
    ``band_width`` of the boundary, from either side.
    """

    rect: tuple               # ((lo, hi) per axis, index units, time first)
    band_width: float
    inside: np.ndarray
    band: np.ndarray
    outside: np.ndarray

    @property
    def sizes(self) -> dict:
        return {"inside": int(self.inside.size), "band": int(self.band.size),
                "outside": int(self.outside.size)}


def region_partition(lattice: SpaceTimeLattice, points, rect_physical,
                     band_width: float) -> RegionPartition:
    """Partition ``points`` around the rectangle given in physical (t, x) coords.

    ``rect_physical`` is ((t_lo, t_hi), (x_lo, x_hi) per spatial axis);
    ``band_width`` is in cell units.
    """
    if band_width <= 0:
        raise ValueError("band width must be positive")
    cells = [lattice.dt] + [L / n for L, n in zip(lattice.extent, lattice.n_space)]
    if len(rect_physical) != len(cells):
        raise ValueError("rect needs one (lo, hi) pair for time and each axis")
    rect_idx = tuple((lo / cell, hi / cell)
                     for (lo, hi), cell in zip(rect_physical, cells))
    lo, hi = np.array(rect_idx).T
    t, x = _physical_points(lattice, points)
    coords = np.column_stack([t, x]) / cells
    margins = np.minimum(coords - lo, hi - coords)
    deficits = np.maximum(np.maximum(lo - coords, coords - hi), 0.0)
    signed = np.where(np.all(margins > 0, axis=1), margins.min(axis=1),
                      -deficits.max(axis=1))
    inside = np.nonzero(signed > band_width)[0]
    band = np.nonzero(np.abs(signed) <= band_width)[0]
    outside = np.nonzero(signed < -band_width)[0]
    return RegionPartition(rect_idx, band_width, inside, band, outside)


@_one_blas_thread("numpy", "scipy")
def conditional_cov_screen(C: CovarianceMatrix, part: RegionPartition) -> dict:
    """Largest |conditional correlation| between inside and outside given the band.

    Computes S_IO - S_IB S_BB^{-1} S_BO with ridge 1e-10 * trace(S_BB) on the
    band block (covariances of smooth kernels are severely ill-conditioned),
    normalized by the conditional standard deviations on both sides.  The
    statistic is symmetric under swapping inside and outside.
    """
    if part.band.size == 0:
        raise ValueError("band set is empty")
    report = {"band_width": part.band_width, **part.sizes}
    if part.inside.size == 0 or part.outside.size == 0:
        report.update({"max_abs_cond_corr": 0.0, "ridge": 0.0})
        return report
    S = C.values
    I, B, O = part.inside, part.band, part.outside
    S_bb, S_ib = S[np.ix_(B, B)], S[np.ix_(I, B)]
    ridge = 1e-10 * float(np.trace(S_bb))
    # the ridged copy is Fortran-ordered, so dpotrf factors it in place
    ridged = np.array(S_bb, order="F")
    ridged[np.diag_indices_from(ridged)] += ridge
    # cho_factor(ridged, lower=True) and cho_solve's LAPACK calls and checks
    lapack = _scipy_extension("linalg", "_flapack")
    chol, info = lapack.dpotrf(np.asarray_chkfinite(ridged), lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise InvariantViolation(f"band block not factorizable: {info}-th leading "
                                 "minor of the array is not positive definite")
    K_bi, K_bo = (lapack.dpotrs(chol, np.asarray_chkfinite(S[np.ix_(B, J)]),
                                lower=1, overwrite_b=0)[0] for J in (I, O))
    cond_io = S[np.ix_(I, O)] - S_ib @ K_bo
    var_i = S[I, I] - np.sum(S_ib.T * K_bi, axis=0)
    var_o = S[O, O] - np.sum(S[np.ix_(O, B)].T * K_bo, axis=0)
    floor = 1e-12 * float(np.max(np.diag(S)))
    denom = np.sqrt(np.outer(np.maximum(var_i, floor), np.maximum(var_o, floor)))
    corr = np.abs(cond_io) / denom
    bb_eigs = np.linalg.eigvalsh(S_bb)
    report.update({
        "max_abs_cond_corr": float(corr.max()),
        "ridge": ridge,
        "band_condition_number": float(bb_eigs[-1] / max(bb_eigs[0] + ridge, 1e-300)),
    })
    return report


def band_width_study(C: CovarianceMatrix, rect_physical, widths,
                     partition_lattice: SpaceTimeLattice) -> dict:
    """Screening statistic across band widths on one assembled matrix.

    ``partition_lattice`` sets the cell units in which band widths are
    measured: the observation grid of the points, which is coarser than
    ``C.lattice`` whenever the covariance was assembled on a finer
    quadrature lattice.
    """
    widths = list(widths)
    if not widths:
        raise ValueError("band width list is empty")
    rows = []
    for w in widths:
        part = region_partition(partition_lattice, C.points, rect_physical, w)
        rows.append(conditional_cov_screen(C, part))
    stats = [r["max_abs_cond_corr"] for r in rows]
    return {"rows": rows,
            "non_increasing": bool(all(b <= a * (1 + 1e-12) for a, b
                                       in zip(stats, stats[1:])))}


# -- locality experiments ------------------------------------------------------


def _spatial_separation_cells(a: Field, b: Field) -> float:
    """Minimum toroidal Chebyshev distance (cells) between spatial supports:
    the number of periodic one-cell dilations of a's support until it meets b's."""
    reach, target = support_mask(a), support_mask(b)
    for sep in range(max(reach.shape) // 2 + 1):  # no torus distance exceeds n // 2
        if np.any(reach & target):
            return float(sep)
        for ax in range(reach.ndim):
            reach = reach | np.roll(reach, 1, ax) | np.roll(reach, -1, ax)
    return math.inf


def kunsch_orthogonality(measure: SpectralMeasure, h_bump: Field,
                         g_bump: Field) -> dict:
    """Normalized covariance pairing of elements built from disjoint bumps.

    Each bump is promoted to a representer element by the exact chain
    inversion (phi1 = dh/dt - Lap h discretely, then the inverse density
    multiplier).  Returns |<phi_h, phi_g>_0| / (||phi_h||_0 ||phi_g||_0),
    which vanishes in the continuum for measures whose Dirichlet form is
    local (even-order Bessel), and stays finite for fractional orders.  The
    bump supports must lie at least 8 cells apart.
    """
    if h_bump.lattice != g_bump.lattice:
        raise ValueError("bumps must share one lattice")
    sep = _spatial_separation_cells(h_bump, g_bump)
    if sep < 8:
        raise ValueError(f"bump supports are {sep:.1f} cells apart; need >= 8")
    a = element_from_h(h_bump, measure)
    b = element_from_h(g_bump, measure)
    raw = rkhs_inner(a, b)
    na, nb = a.norm(), b.norm()
    return {"normalized_inner": abs(raw) / (na * nb),
            "raw_inner": raw, "norm_h": na, "norm_g": nb,
            "separation_cells": sep,
            "markov_guarantee": a.markov_guarantee}


def kunsch_decomposition(measure: SpectralMeasure, zeta: RkhsElement,
                         chi: Field) -> dict:
    """Split zeta.h by a smooth spatial cutoff and test Pythagoras.

    ``chi`` must be constant (0 or 1) on the support of zeta.h: its
    transition region may not touch the field.  The parts h = chi * zeta.h
    and g = (1 - chi) * zeta.h are rebuilt as elements; the report carries
    the normalized cross inner product, the relative Pythagoras residual
    | ||zeta||^2 - ||h||^2 - ||g||^2 | / ||zeta||^2, and the even-order
    parabolic norm of the cut part (finite by construction).
    """
    chi_vals = _cutoff_values(chi, zeta.h)
    zeta_h = inverse_transform(zeta.h)
    lat = zeta_h.lattice
    h_vals = zeta_h.values * chi_vals[None]
    h_part = Field(lat, Representation.PHYSICAL, h_vals)
    g_part = Field(lat, Representation.PHYSICAL, zeta_h.values - h_vals)
    a = element_from_h(h_part, measure)
    b = element_from_h(g_part, measure)
    nz2 = rkhs_inner(zeta, zeta)
    na2 = rkhs_inner(a, a)
    nb2 = rkhs_inner(b, b)
    cross = rkhs_inner(a, b)
    kn = float("nan")
    if _even_bessel(measure):
        kn = krylov_norm(a)
        if not math.isfinite(kn):
            raise InvariantViolation("parabolic norm of the cut part is not finite")
    residual = abs(nz2 - na2 - nb2) / max(nz2, 1e-300)
    return {"residual": residual,
            "cross_normalized": abs(cross) / max(math.sqrt(na2 * nb2), 1e-300),
            "norm2_zeta": nz2, "norm2_h": na2, "norm2_g": nb2,
            "krylov_norm_h": kn}


def column_gram_check(measure: SpectralMeasure, lattice: SpaceTimeLattice,
                      p_idx, q_idx) -> dict:
    """Self-consistency: oracle R(p,q) vs the pairing of two covariance columns.

    ``p_idx``/``q_idx`` are grid points (time_index, space_index_tuple); the
    two numbers agree to round-off by construction of the covariance-kind
    column weights.
    """
    col_p = heat_column(lattice, p_idx, kind="covariance")
    col_q = heat_column(lattice, q_idx, kind="covariance")
    gram = rkhs_inner_raw(col_p, col_q, measure)
    oracle = covariance_oracle(measure, lattice, lattice.grid_point(*p_idx),
                               lattice.grid_point(*q_idx))
    scale = max(abs(oracle), abs(gram), 1e-300)
    return {"gram": gram, "oracle": oracle,
            "rel_gap": abs(gram - oracle) / scale}
