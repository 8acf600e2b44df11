"""Representer elements h(t,x) = E[M(phi) u(t,x)] and their Hilbert structure.

Every element carries a three-field chain

    phi  --(density multiplier g)-->  phi1  --(forward heat solve)-->  h,

with F phi1 = g(|xi|^2) F phi, h = solve_forward(phi1), h(0,.) = 0.  The inner
product of two elements is the covariance pairing of their phi fields,
rkhs_inner(a, b) = inner0(a.phi, b.phi), under which the map phi -> h is an
isometry onto its image.  For the Bessel family the chain is the potential
(1 - Lap)^{-alpha/2}; for the Riesz family it is the composition of two Riesz
potentials (net symbol |xi|^{-alpha}, zero mode dropped); for white noise
phi1 = phi.

Families and orders with a germ-Markov guarantee (local Dirichlet form):
Bessel with alpha a positive even integer, Riesz with alpha a positive
multiple of four, and white noise.  Any other measure still yields a valid
element but is flagged ``markov_guarantee=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvariantViolation
from .lattice import (Field, Layout, Representation, SpaceTimeLattice,
                      apply_multiplier, as_frequency, band_limit,
                      forward_transform, inner0, inverse_transform, l2_inner,
                      l2_norm, norm0, pair_stacks, spectral_transform)
from .pde import march_forward, solve_backward, solve_forward
from .spectral import Family, SpectralMeasure


def markov_guarantee(measure: SpectralMeasure) -> bool:
    """True when the measure's Dirichlet form is a local differential operator."""
    a = measure.alpha
    if measure.family is Family.WHITE:
        return True
    if measure.family is Family.BESSEL:
        return a > 0 and abs(a / 2 - round(a / 2)) < 1e-12
    if measure.family is Family.RIESZ:
        return a > 0 and abs(a / 4 - round(a / 4)) < 1e-12
    return False


@dataclass
class RkhsElement:
    """Immutable chain (phi, phi1, h) over one measure; see module docstring."""

    h: Field
    phi1: Field
    phi: Field
    measure: SpectralMeasure
    markov_guarantee: bool
    probe_report: Optional[dict] = None

    def norm(self) -> float:
        return norm0(self.phi, self.measure)


def _phi_from_phi1(phi1: Field, measure: SpectralMeasure) -> Field:
    """Inverse density multiplier; Riesz zero mode (where g = 0) is dropped."""
    def inv(r):
        g = measure.density(r)
        return np.where(g > 0.0, 1.0 / np.where(g > 0.0, g, 1.0), 0.0)
    return apply_multiplier(phi1, inv)


def _default_probes(lattice: SpaceTimeLattice):
    """8 deterministic probe points spread over the space-time grid."""
    n_t = lattice.n_time
    times = [max(1, n_t // 4), max(1, n_t // 2), max(1, (3 * n_t) // 4), n_t]
    points = []
    for i, m in enumerate(times):
        for frac in (0.25, 0.625):
            idx = tuple(int((frac + 0.05 * i) * n) % n for n in lattice.n_space)
            points.append((m, idx))
    return points


def representer(phi: Field, measure: SpectralMeasure, check: bool = True) -> RkhsElement:
    """Build the element with h(t,x) = E[M(phi) u(t,x)] for a real test field.

    When ``check`` is set, h is re-evaluated at 8 probe points by direct
    spectral quadrature against the discretized heat column (an independent
    code path from the marching solver); relative disagreement beyond 1e-8
    raises InvariantViolation.
    """
    if phi.layout is not Layout.SPACE_TIME:
        raise ValueError("representer expects a space-time test field")
    phys = phi.values if phi.representation is Representation.PHYSICAL else None
    if phys is not None and float(np.abs(phys.imag).max()) > 1e-12 * max(
            1.0, float(np.abs(phys).max())):
        raise ValueError("test field must be real")
    phi1 = apply_multiplier(phi, measure.density)
    h = solve_forward(phi1)
    report = None
    if check:
        report = _probe_check(phi, h, measure)
    return RkhsElement(h, phi1, phi, measure, markov_guarantee(measure), report)


def _probe_check(phi: Field, h: Field, measure: SpectralMeasure) -> dict:
    lat = phi.lattice
    h_vals = h.real_values()
    scale = float(np.abs(h_vals).max())
    worst = 0.0
    probes = []
    for m, idx in _default_probes(lat):
        col = heat_column(lat, (m, idx), kind="reproducing")
        direct = rkhs_inner_raw(phi, col, measure)
        solver = float(h_vals[(m,) + idx])
        err = abs(direct - solver) / scale if scale > 0 else 0.0
        worst = max(worst, err)
        probes.append({"point": [m, list(idx)], "direct": direct,
                       "solver": solver, "rel_err": err})
    if worst > 1e-8:
        raise InvariantViolation(
            f"representer probe disagreement {worst:.3e} > 1e-8 between "
            "spectral quadrature and the marching solver")
    return {"max_rel_err": worst, "probes": probes, "tolerance": 1e-8}


def element_from_h(h: Field, measure: SpectralMeasure) -> RkhsElement:
    """Recover the chain from a given h with h(0,.) = 0.

    The forcing is read off by exact inversion of the per-mode Duhamel
    recursion, F phi1(t_k) = (F h(t_{k+1}) - a F h(t_k)) / w — the discrete
    form of phi1 = dh/dt - Lap h — so solve_forward(phi1) reproduces h to
    round-off.  phi follows by the inverse density multiplier (Riesz zero
    mode dropped).
    """
    if h.layout is not Layout.SPACE_TIME:
        raise ValueError("element_from_h expects a space-time field")
    lat = h.lattice
    H = as_frequency(h).values
    scale = float(np.abs(H).max())
    if scale > 0 and float(np.abs(H[0]).max()) > 1e-10 * scale:
        raise ValueError("h must vanish at t = 0")
    F1 = np.zeros_like(H)
    F1[:-1] = (H[1:] - lat.decay * H[:-1]) / lat.duhamel_weight
    phi1 = inverse_transform(Field(lat, Representation.FREQUENCY,
                                   Layout.SPACE_TIME, F1))
    phi = _phi_from_phi1(phi1, measure)
    return RkhsElement(h, phi1, phi, measure, markov_guarantee(measure), None)


def heat_column(lattice: SpaceTimeLattice, point,
                kind: str = "reproducing") -> Field:
    """Discretized heat-kernel column g_{t,x} for the grid point (m, j).

    The column is a space-time test field; it does not depend on the
    spectral measure, which enters only through the pairing inner0.

    Both kinds share the per-mode profile exp(-i xi . x) a^{m-1-k} on steps
    k < m and differ only in a scalar weight per mode:

    - ``reproducing``: weight w/dt, making inner0(phi, column) equal the
      marching-solver value h_phi(t_m, x_j) exactly (step-exact reproducing
      identity);
    - ``covariance``: weight sqrt((1 - a^2)/(2 |xi|^2 dt)) (1 at the zero
      mode), making inner0(col_p, col_q) equal the process covariance
      E u(p) u(q) exactly at grid times.

    The two agree to O((|xi|^2 dt)^2) per mode; they are distinct exact
    discretizations of the same continuum column.
    """
    if kind not in ("reproducing", "covariance"):
        raise ValueError(f"unknown heat-column kind: {kind!r}")
    m, idx = point
    m = int(m)
    if not 0 <= m <= lattice.n_time:
        raise ValueError("time index out of range")
    if kind == "reproducing":
        weight = lattice.duhamel_weight / lattice.dt
    else:
        weight = np.sqrt(lattice.variance_weight / lattice.dt)
    phase = np.conj(lattice.point_phase(idx))
    c_d = (2.0 * np.pi) ** (-lattice.dim / 2.0)
    F = np.zeros((lattice.n_time + 1,) + lattice.n_space, dtype=np.complex128)
    if m > 0:
        # decay powers a^(m-1-k) for k = 0..m-1, computed by backward recursion
        F[m - 1] = c_d * phase * weight
        for k in range(m - 2, -1, -1):
            F[k] = lattice.decay * F[k + 1]
    return inverse_transform(Field(lattice, Representation.FREQUENCY,
                                   Layout.SPACE_TIME, F))


def rkhs_inner_raw(phi_a: Field, phi_b: Field, measure: SpectralMeasure) -> float:
    """inner0 pairing with an imaginary-part sanity bound.

    The bound is relative to the product of norms (the bilinear scale), so it
    stays meaningful for nearly orthogonal pairs whose value is round-off.
    """
    val = inner0(phi_a, phi_b, measure)
    scale = max(norm0(phi_a, measure) * norm0(phi_b, measure), 1e-300)
    if abs(val.imag) > 1e-10 * scale:
        raise InvariantViolation(
            f"inner product has imaginary part {val.imag:.3e} (fields not real)")
    return float(val.real)


def rkhs_inner(a: RkhsElement, b: RkhsElement) -> float:
    """<a, b> = inner0(a.phi, b.phi) under the shared measure."""
    if a.measure != b.measure:
        raise ValueError("elements carry different measures")
    if a.phi.lattice != b.phi.lattice:
        raise ValueError("elements live on different lattices")
    return rkhs_inner_raw(a.phi, b.phi, a.measure)


def duality_check(a: RkhsElement, eta: Field) -> dict:
    """Integration-by-parts identity <h, eta>_L2 = inner0(phi, psi).

    psi = solve_backward(eta) solves the adjoint problem; for forcing data
    vanishing at the final time the two sides agree to round-off, and the
    report's normalized gap must stay below 1e-8 for band-limited data.
    """
    psi = solve_backward(eta)
    lhs = l2_inner(a.h, eta)
    rhs = inner0(a.phi, psi, a.measure)
    scale = max(l2_norm(a.h) * l2_norm(eta), 1e-300)
    gap = abs(lhs - rhs) / scale
    return {"lhs": float(lhs.real), "rhs": float(rhs.real),
            "gap": float(gap), "scale": float(scale)}


def _krylov_norms(H: np.ndarray, F1: np.ndarray, k: float,
                  lat: SpaceTimeLattice) -> np.ndarray:
    """||Lap h||_{L2(H^k)} + ||phi1||_{L2(H^k)} for stacks (c, n_time+1, *n_space)
    of the frequency values of h and phi1, by left-endpoint frequency sums."""
    w = (1.0 + lat.xi_squared) ** k
    total = 0.0
    for X, w_x in ((H, w * lat.xi_squared ** 2), (F1, w)):
        part = np.sum((np.abs(X[:, :-1]) ** 2) * w_x, axis=tuple(range(1, lat.dim + 2)))
        total = total + np.sqrt(np.maximum(part * lat.dt * lat.freq_cell_volume, 0.0))
    return total


def krylov_norm(a: RkhsElement) -> float:
    """Parabolic norm ||Lap h||_{L2(H^k)} + ||phi1||_{L2(H^k)}, k = alpha/2.

    Defined for the Bessel family with alpha a positive even integer, where
    the element lives in the heat-regularity space of order k + 2.
    """
    m = a.measure
    if m.family is not Family.BESSEL or not markov_guarantee(m):
        raise ValueError("krylov_norm requires a Bessel measure with even order")
    H, F1 = (forward_transform(f).values[None] for f in (a.h, a.phi1))
    return float(_krylov_norms(H, F1, m.alpha / 2.0, a.h.lattice)[0])


def w12_norm(a: RkhsElement) -> float:
    """Plain parabolic diagnostic (||h||^2 + ||dh/dt||^2 + ||Lap h||^2)^(1/2).

    The time derivative is the forward difference on the step grid; this is
    a monitored diagnostic, not an asserted equality.
    """
    lat = a.h.lattice
    H = forward_transform(a.h).values
    dH = (H[1:] - H[:-1]) / lat.dt
    w_lap = lat.xi_squared ** 2
    cell = lat.dt * lat.freq_cell_volume
    n_h = float(np.sum(np.abs(H[:-1]) ** 2)) * cell
    n_dt = float(np.sum(np.abs(dH) ** 2)) * cell
    n_xx = float(np.sum((np.abs(H[:-1]) ** 2) * w_lap)) * cell
    return math.sqrt(n_h + n_dt + n_xx)


# Bytes per complex (n_time+1) x n_space array of a norm-equivalence chunk:
# enough samples to spread the per-call cost, few enough to stay in cache.
CHUNK_BYTES = 256 * 1024


def norm_equivalence_study(samples: int, measure: SpectralMeasure,
                           lattice: SpaceTimeLattice, seed: int = 0,
                           spread_bound: float = 20.0) -> dict:
    """Empirical two-sided norm equivalence over random band-limited elements.

    For each sample, ratio = krylov_norm(a) / ||a|| (the covariance-pairing
    norm of phi).  Reports the min/max ratio; a spread beyond ``spread_bound``
    (a frozen regression constant, not a sharp theoretical value) raises
    InvariantViolation.

    The samples run in chunks along a leading sample axis.  The white noise
    is drawn in sample order and every operation keeps its per-sample order,
    so each ratio equals random_band_limited, representer and
    krylov_norm / norm for that sample byte for byte, whatever the chunk size.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for the spread estimate")
    if measure.family is not Family.BESSEL or not markov_guarantee(measure):
        raise ValueError("norm equivalence study needs a Bessel measure of even order")
    rng = np.random.default_rng(seed)
    shape = lattice.shape_for(Layout.SPACE_TIME)
    chunk = math.ceil(CHUNK_BYTES / (16 * math.prod(shape)))
    g = measure.density(lattice.xi_squared)
    ratios = np.zeros(samples)
    for start in range(0, samples, chunk):
        c = min(chunk, samples - start)
        phi = band_limit(rng.standard_normal((c,) + shape), lattice)
        Phi = spectral_transform(phi, lattice)
        F1 = spectral_transform(spectral_transform(Phi * g, lattice, inverse=True), lattice)
        h = spectral_transform(march_forward(F1, lattice), lattice, inverse=True)
        krylov = _krylov_norms(spectral_transform(h, lattice), F1, measure.alpha / 2.0, lattice)
        denom = np.sqrt(np.maximum(pair_stacks(Phi, Phi, measure, lattice).real, 0.0))
        ratios[start:start + c] = np.divide(krylov, denom, out=np.full(c, np.nan),
                                            where=denom > 0)
    report = {"ratio_min": float(np.nanmin(ratios)),
              "ratio_max": float(np.nanmax(ratios)),
              "samples": samples,
              "spread_bound": spread_bound}
    report["spread"] = report["ratio_max"] / report["ratio_min"]
    if report["spread"] > spread_bound:
        raise InvariantViolation(
            f"norm-equivalence spread {report['spread']:.3f} exceeds "
            f"{spread_bound}")
    return report
