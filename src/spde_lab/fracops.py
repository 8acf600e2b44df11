"""Fractional Laplacian-type operators as radial Fourier multipliers.

Each operator is its symbol, a function of r = |xi|^2 on the angular
frequency grid, applied with ``apply_multiplier(f, symbol)``:

    bessel_potential(gamma)   (1 + r)^(-gamma/2)      # (1 - Lap)^(-gamma/2)
    riesz_potential(beta)     r^(-beta/2), 0 at xi=0  # I^beta
    riesz_derivative(beta)    r^(beta/2)              # D^beta
    laplacian_power(k)        r^k                     # (-Lap)^k

riesz_derivative(2k) is the two-sided inverse of riesz_potential(2k) on
mean-zero fields (both kill the zero mode).  operator_J implements the
unitary J from the covariance pairing of a Riesz measure of order 4k into
plain space-time L2: F(J phi) = |xi|^(-2k) F(phi), which satisfies
||J phi||_L2 = ||phi||_0 exactly on the lattice.
"""

from __future__ import annotations

import numpy as np

from .lattice import Field, Representation, apply_multiplier, inverse_transform, l2_norm
from .rkhs import markov_guarantee
from .spectral import Family, SpectralMeasure
from .bumps import _cutoff_values


def bessel_potential(gamma: float):
    return lambda r: (1.0 + np.asarray(r, dtype=float)) ** (-gamma / 2.0)


def riesz_potential(beta: float):
    """Symbol r^(-beta/2) with the zero-mode sentinel 0."""
    if beta <= 0:
        raise ValueError("riesz_potential requires a positive order")

    def symbol(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(r > 0.0, r ** (-beta / 2.0), 0.0)
    return symbol


def riesz_derivative(beta: float):
    if beta <= 0:
        raise ValueError("riesz_derivative requires a positive order")

    def symbol(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.0, r ** (beta / 2.0), 0.0)
    return symbol


def laplacian_power(k: int):
    if k < 0 or int(k) != k:
        raise ValueError("laplacian_power requires a nonnegative integer order")
    return lambda r: np.asarray(r, dtype=float) ** int(k)


def remove_mean(f: Field) -> Field:
    """Project out the spatial zero mode (per time slice)."""
    def sym(r):
        out = np.ones_like(np.asarray(r, dtype=float))
        out.flat[0] = 0.0  # FFT-order grid has xi = 0 at the flat origin
        return out
    return apply_multiplier(f, sym)


def operator_J(phi: Field, m: SpectralMeasure) -> Field:
    """The unitary J from the Riesz covariance pairing into space-time L2.

    Requires a Riesz measure with alpha = 4k, k >= 1 (``markov_guarantee``).
    A non-formal Riesz measure has alpha < dim, so it meets the
    Sobolev-embedding constraint 2 < dim/(2k); a formal one (``m.formal``)
    is symbol-level use on a low-dimensional lattice.
    F(J phi) = |xi|^(-2k) F(phi); the zero mode is annihilated, matching the
    zero-mode convention of the pairing.
    """
    if m.family is not Family.RIESZ:
        raise ValueError("operator_J is defined for Riesz measures only")
    if not markov_guarantee(m):
        raise ValueError(f"operator_J requires alpha = 4k for integer k >= 1, got alpha={m.alpha}")
    return apply_multiplier(phi, riesz_potential(2 * round(m.alpha / 4)))


def localization_check(kappa: Field, chi: Field, k: int) -> dict:
    """Commutator defect of the 2k-th Riesz derivative against a cutoff.

    For kappa = mu + nu with separated supports and chi a smooth cutoff that
    is 1 on supp(mu) and 0 near supp(nu), the continuum identity
    D^(2k)(chi * kappa) = chi * D^(2k) kappa restricted to supp-compatible
    regions holds; on the lattice the relative gap

        ||D^(2k)(chi kappa) - chi D^(2k) kappa||_L2 / ||D^(2k) kappa||_L2

    is a pure discretization floor that shrinks under refinement.  Raises if
    chi breaks the cutoff rule of ``bumps._cutoff_values``: its transition
    region (where it is neither 0 nor 1) may not touch the support of kappa,
    or the identity has no reason to hold.
    """
    if kappa.space_time:
        raise ValueError("localization_check expects space-only fields")
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    chi_vals = _cutoff_values(chi, kappa)
    kappa = inverse_transform(kappa)
    lat = kappa.lattice
    op = riesz_derivative(2 * k)
    d_kappa = apply_multiplier(kappa, op)
    lhs = apply_multiplier(Field(lat, Representation.PHYSICAL, chi_vals * kappa.values), op)
    diff = Field(lat, Representation.PHYSICAL, lhs.values - chi_vals * d_kappa.values)
    denom = l2_norm(d_kappa)
    gap = l2_norm(diff) / denom if denom > 0 else 0.0
    return {"gap": float(gap), "k": int(k), "denom": float(denom)}


def q_exponent(dim: int, k: int) -> float:
    """The companion integrability exponent q with 1/q = 1/2 - 2k/dim.

    Only meaningful when 2k < dim/2 (the genuine-embedding regime)."""
    inv = 0.5 - 2.0 * k / dim
    if inv <= 0:
        raise ValueError(f"1/q = 1/2 - 2k/dim must be positive; got dim={dim}, k={k}")
    return 1.0 / inv


def mixed_time_space_norm(f: Field, q: float) -> float:
    """( sum_t dt * ( sum_x |f|^q dx^d )^(2/q) )^(1/2), left endpoint in time."""
    if not f.space_time:
        raise ValueError("mixed norm is defined for space-time fields")
    if q <= 0:
        raise ValueError("q must be positive")
    lat = f.lattice
    vals = np.abs(inverse_transform(f).values[:-1])
    spatial = np.sum(vals**q, axis=tuple(range(1, lat.dim + 1))) * lat.cell_volume
    return float(np.sqrt(np.sum(spatial ** (2.0 / q)) * lat.dt))
