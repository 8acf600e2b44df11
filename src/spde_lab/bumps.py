"""Smooth compactly supported bumps and cutoffs on periodic lattices.

These are the C-infinity mollifier-style profiles used as test data by the
orthogonality, localization and convergence studies: exactly zero outside
their stated support, infinitely differentiable inside, so their spectral
tails decay faster than any power and discretization floors shrink rapidly
under grid refinement.
"""

from __future__ import annotations

import numpy as np

from .lattice import Field, Representation, SpaceTimeLattice, _finite_physical


def mollifier(r) -> np.ndarray:
    """exp(1 - 1/(1 - r^2)) for |r| < 1, zero outside; peak value 1 at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mask = np.abs(r) < 1.0
    rm = r[mask]
    out[mask] = np.exp(1.0 - 1.0 / (1.0 - rm * rm))
    return out


def smooth_step(u) -> np.ndarray:
    """C-infinity transition: 0 for u <= 0, 1 for u >= 1, monotone between."""
    u = np.asarray(u, dtype=float)
    def half(v):
        out = np.zeros_like(v)
        mask = v > 0.0
        out[mask] = np.exp(-1.0 / v[mask])
        return out
    a = half(u)
    b = half(1.0 - u)
    return a / (a + b)


def _radial2(lattice: SpaceTimeLattice, center, width) -> np.ndarray:
    """Squared scaled torus distance sum_ax ((x - c)_wrapped / w)^2."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (lattice.dim,):
        raise ValueError(f"bump center {center.tolist()} needs {lattice.dim} coordinates "
                         f"for a {lattice.dim}-D lattice")
    width = np.broadcast_to(np.asarray(width, dtype=float), (lattice.dim,))
    return sum((((x - c + L / 2.0) % L - L / 2.0) / w) ** 2 for x, c, L, w
               in zip(lattice.space_axes(), center, lattice.extent, width))


def spatial_bump(lattice: SpaceTimeLattice, center, width, amplitude: float = 1.0) -> Field:
    """Space-only mollifier bump supported in the ellipsoid of semi-axes ``width``."""
    vals = amplitude * mollifier(np.sqrt(_radial2(lattice, center, width)))
    return Field(lattice, Representation.PHYSICAL, vals.astype(np.complex128))


def time_profile(lattice: SpaceTimeLattice, t_center: float, t_width: float) -> np.ndarray:
    """Mollifier profile over the time slices, zero outside (t_center +- t_width)."""
    t = lattice.times()
    return mollifier((t - t_center) / t_width)


def space_time_bump(lattice: SpaceTimeLattice, t_center: float, t_width: float,
                    center, width, amplitude: float = 1.0) -> Field:
    """Product bump: mollifier in time times mollifier ellipsoid in space."""
    prof = time_profile(lattice, t_center, t_width)
    space = amplitude * mollifier(np.sqrt(_radial2(lattice, center, width)))
    vals = prof.reshape((-1,) + (1,) * lattice.dim) * space
    return Field(lattice, Representation.PHYSICAL, vals.astype(np.complex128))


def radial_cutoff(lattice: SpaceTimeLattice, center, inner_radius: float,
                  outer_radius: float) -> Field:
    """Space-only cutoff: 1 inside radius ``inner_radius`` of ``center``,
    0 outside ``outer_radius``, C-infinity transition between."""
    if not 0.0 < inner_radius < outer_radius:
        raise ValueError("need 0 < inner_radius < outer_radius")
    r = np.sqrt(_radial2(lattice, center, 1.0))
    vals = 1.0 - smooth_step((r - inner_radius) / (outer_radius - inner_radius))
    return Field(lattice, Representation.PHYSICAL, vals.astype(np.complex128))


def support_mask(f: Field) -> np.ndarray:
    """Spatial support of ``f``, shape ``lattice.n_space``: the sites where the
    physical |value| exceeds 1e-12 times the field maximum in some time slice.
    A field holding an inf or NaN has no support and is refused."""
    a = np.abs(_finite_physical(f))
    if f.space_time:
        a = a.max(axis=0)
    return a > 1e-12 * a.max()


def _cutoff_values(chi: Field, f: Field) -> np.ndarray:
    """Real physical values of a cutoff ``chi`` that is constant on the support of ``f``.

    The locality rule of ``kunsch_decomposition`` and ``localization_check``:
    chi is space-only, on f's lattice, real, in [0, 1], and 0 or 1 on
    ``support_mask(f)``, each to 1e-12, so its transition region misses f.
    """
    if chi.space_time:
        raise ValueError("cutoff must be a space-only field")
    if chi.lattice != f.lattice:
        raise ValueError("cutoff lives on a different lattice")
    vals = chi.real_values()
    if not np.all((vals >= -1e-12) & (vals <= 1 + 1e-12)):
        raise ValueError("cutoff values must lie in [0, 1]")
    if np.any((vals > 1e-12) & (vals < 1 - 1e-12) & support_mask(f)):
        raise ValueError("cutoff transition region overlaps the field support")
    return vals
