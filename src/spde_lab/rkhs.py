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
element, whose ``markov_guarantee`` property reads False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvariantViolation
from .lattice import (Field, Representation, SpaceTimeLattice, _grid_density,
                      _test_field, apply_multiplier, band_limit, forward_transform, inner0,
                      inverse_transform, l2_inner, l2_norm, norm0, pair_stacks,
                      spectral_transform)
from .pde import CHUNK_BYTES, solve_backward, solve_forward
from .spectral import Family, SpectralMeasure


def markov_guarantee(measure: SpectralMeasure) -> bool:
    """True when the measure's Dirichlet form is a local differential operator:
    white noise, Bessel alpha = 2k or Riesz alpha = 4k for an integer k >= 1."""
    step = {Family.BESSEL: 2, Family.RIESZ: 4}.get(measure.family)
    if step is None:
        return measure.family is Family.WHITE
    k = measure.alpha / step
    return round(k) >= 1 and abs(k - round(k)) < 1e-12


@dataclass
class RkhsElement:
    """Immutable chain (phi, phi1, h) over one measure; see module docstring."""

    h: Field
    phi1: Field
    phi: Field
    measure: SpectralMeasure
    probe_report: Optional[dict] = None

    @property
    def markov_guarantee(self) -> bool:
        """The germ-Markov guarantee of the element's measure."""
        return markov_guarantee(self.measure)

    def norm(self) -> float:
        return norm0(self.phi, self.measure)


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
    _test_field(phi, phi.lattice)
    g = _grid_density(measure, phi.lattice)
    phi1 = apply_multiplier(phi, lambda _: g)
    h = solve_forward(phi1)
    report = None
    if check:
        report = _probe_check(phi, h, measure)
    return RkhsElement(h, phi1, phi, measure, report)


def _probe_check(phi: Field, h: Field, measure: SpectralMeasure) -> dict:
    lat = phi.lattice
    Phi = forward_transform(phi)
    h_vals = h.real_values()
    scale = float(np.abs(h_vals).max())
    worst = 0.0
    probes = []
    for m, idx in _default_probes(lat):
        col = forward_transform(heat_column(lat, (m, idx), kind="reproducing"))
        direct = rkhs_inner_raw(Phi, col, measure)
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
    round-off.  phi follows by the inverse density multiplier (the Riesz zero
    mode, where g = 0, is dropped).

    The two divisions amplify the round-off of h, at most t_max max g
    relative to phi, by up to 1 / min(w g) over the modes with g > 0.  When
    that conditioning exceeds 2^52 phi would be round-off alone, so it
    raises ValueError instead (heat-kernel densities do this).
    """
    if not h.space_time:
        raise ValueError("element_from_h expects a space-time field")
    lat = h.lattice
    g = _grid_density(measure, lat)
    cond = lat.t_max * float(g.max()) / float(
        np.min(lat.duhamel_weight * g, initial=np.inf, where=g > 0.0))
    if cond > 2.0 ** 52:
        raise ValueError(
            f"element_from_h: the chain of the {measure.family.value} measure with "
            f"alpha={measure.alpha} has conditioning {cond:.3e} > 2^52 on this "
            "lattice, so phi would be round-off")
    H = forward_transform(h).values
    scale = float(np.abs(H).max())
    if scale > 0 and float(np.abs(H[0]).max()) > 1e-10 * scale:
        raise ValueError("h must vanish at t = 0")
    F1 = np.zeros_like(H)
    F1[:-1] = (H[1:] - lat.decay * H[:-1]) / lat.duhamel_weight
    phi1 = inverse_transform(Field(lat, Representation.FREQUENCY, F1))
    inv_g = np.where(g > 0.0, 1.0 / np.where(g > 0.0, g, 1.0), 0.0)
    phi = apply_multiplier(phi1, lambda _: inv_g)
    return RkhsElement(h, phi1, phi, measure)


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
    lattice.grid_point(m, idx)  # raises on a bad index, time off the lattice included
    if kind == "reproducing":
        weight = lattice.loading
    else:
        weight = np.sqrt(lattice.variance_weight / lattice.dt)
    c_d = (2.0 * np.pi) ** (-lattice.dim / 2.0)
    impulse = np.zeros((1, lattice.n_time) + lattice.n_space, dtype=np.complex128)
    impulse[0, 0] = c_d * np.conj(lattice.point_phase(idx)) * weight
    F = np.zeros(lattice.shape, dtype=np.complex128)
    F[:m] = lattice.march(impulse)[0, m:0:-1]  # a^(m-1-k) times the impulse, k < m
    return inverse_transform(Field(lattice, Representation.FREQUENCY, F))


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


def _even_bessel(measure: SpectralMeasure) -> bool:
    """Bessel of even order alpha = 2k, k >= 1: its elements have a parabolic norm."""
    return measure.family is Family.BESSEL and markov_guarantee(measure)


def _krylov_weights(measure: SpectralMeasure, lat: SpaceTimeLattice) -> tuple:
    """The H^k weights (1 + |xi|^2)^k |xi|^4 of Lap h and (1 + |xi|^2)^k of
    phi1, k = alpha/2; refuses a measure that is not an even-order Bessel one."""
    if not _even_bessel(measure):
        raise ValueError("the parabolic norm needs a Bessel measure of even order")
    w = (1.0 + lat.xi_squared) ** (measure.alpha / 2.0)
    return w * lat.xi_squared ** 2, w


def _weighted_norms(X: np.ndarray, weight: np.ndarray, lat: SpaceTimeLattice,
                    work=None) -> np.ndarray:
    """One half of the parabolic norm, sqrt(sum_k |X|^2 weight dt dxi^d) by
    left-endpoint sums, for a stack (c, n_time+1, *n_space) of frequency
    values; terms go to ``work``."""
    terms = np.square(np.abs(X[:, :-1], out=work), out=work)
    part = np.sum(np.multiply(terms, weight, out=terms), axis=tuple(range(1, lat.dim + 2)))
    return np.sqrt(np.maximum(part * lat.dt * lat.freq_cell_volume, 0.0))


def krylov_norm(a: RkhsElement) -> float:
    """Parabolic norm ||Lap h||_{L2(H^k)} + ||phi1||_{L2(H^k)}, k = alpha/2.

    Defined for the Bessel family with alpha a positive even integer, where
    the element lives in the heat-regularity space of order k + 2.
    """
    lat = a.h.lattice
    w_h, w_f1 = _krylov_weights(a.measure, lat)
    H, F1 = (forward_transform(f).values[None] for f in (a.h, a.phi1))
    return float(_weighted_norms(H, w_h, lat)[0] + _weighted_norms(F1, w_f1, lat)[0])


# Largest accepted max/min norm ratio: a frozen regression constant, not a
# sharp theoretical value.
SPREAD_BOUND = 20.0


def norm_equivalence_study(samples: int, measure: SpectralMeasure,
                           lattice: SpaceTimeLattice, seed: int = 0) -> dict:
    """Empirical two-sided norm equivalence over random band-limited elements.

    For each sample, ratio = krylov_norm(a) / ||a|| (the covariance-pairing
    norm of phi).  Reports the min/max ratio; a spread beyond SPREAD_BOUND
    raises InvariantViolation.

    The samples run in chunks along a leading sample axis, CHUNK_BYTES of
    white-noise draws each, worked in place in two complex stacks: phi, then
    Phi and its covariance norm, F1 = F phi1 and its half of the parabolic
    norm, and last H and its half.  The stacks are laid out time-major,
    (n_time + 1, chunk, *n_space), and worked through sample-major views, so
    the march steps contiguous time slices; the pairing's products go to the
    spent first stack read sample-major and the norm terms to the spent
    draws, so every sum reduces one sample's contiguous block.  The white
    noise is drawn in sample order and every operation keeps its per-sample
    order, so each ratio equals random_band_limited, representer and
    krylov_norm / norm for that sample byte for byte, whatever the chunk size.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for the spread estimate")
    w_h, w_f1 = _krylov_weights(measure, lattice)
    rng = np.random.default_rng(seed)
    shape = lattice.shape
    chunk = min(samples, math.ceil(CHUNK_BYTES / (8 * math.prod(shape))))
    g = _grid_density(measure, lattice)
    ratios = np.zeros(samples)
    # buffers for every chunk: fresh ones (above glibc's mmap threshold) fault
    white, stacks = np.empty((chunk,) + shape), np.empty((2, shape[0], chunk) + shape[1:], complex)
    for start in range(0, samples, chunk):
        c = min(chunk, samples - start)
        A, B = np.swapaxes(stacks[:, :, :c], 1, 2)  # (c, n_time+1, *n_space) views
        terms = white[:c, :-1]  # the spent white noise holds the terms of the norm sums
        band_limit(rng.standard_normal(out=white[:c]), lattice, out=A)  # phi
        spectral_transform(A, lattice, out=B)
        # the spent stack A, read sample-major, takes the pairing's products
        products = stacks[0].reshape(-1)[:terms.size].reshape(terms.shape)
        denom = np.sqrt(np.maximum(pair_stacks(B, B, measure, lattice, products).real, 0.0))
        spectral_transform(np.multiply(B, g, out=B), lattice, inverse=True, out=B)  # phi1
        spectral_transform(B, lattice, out=B)
        f1_norms = _weighted_norms(B, w_f1, lattice, terms)
        lattice.march(np.multiply(lattice.duhamel_weight, B, out=A), out=B)
        spectral_transform(B, lattice, inverse=True, out=B)  # h, then its transform
        spectral_transform(B, lattice, out=B)
        krylov = _weighted_norms(B, w_h, lattice, terms) + f1_norms
        ratios[start:start + c] = np.divide(krylov, denom, out=np.full(c, np.nan),
                                            where=denom > 0)
    report = {"ratio_min": float(np.nanmin(ratios)),
              "ratio_max": float(np.nanmax(ratios)),
              "samples": samples,
              "spread_bound": SPREAD_BOUND}
    report["spread"] = report["ratio_max"] / report["ratio_min"]
    if report["spread"] > SPREAD_BOUND:
        raise InvariantViolation(
            f"norm-equivalence spread {report['spread']:.3f} exceeds "
            f"{SPREAD_BOUND}")
    return report
