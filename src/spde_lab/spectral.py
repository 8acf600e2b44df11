"""Radial spectral measures mu(dxi) = g(|xi|^2) dxi and their covariance kernels.

Four families are supported:

    white        g(r) = 1
    riesz        g(r) = r^(-alpha/2)            (0 < alpha < dim)
    bessel       g(r) = (1 + r)^(-alpha/2)      (alpha > 0)
    heat_kernel  g(r) = exp(-4 pi^2 alpha r)    (alpha > 0)

where r stands for |xi|^2.  The covariance kernel is the inverse Fourier
transform of the measure,

    f(x) = (2 pi)^(-d) * integral exp(i xi.x) g(|xi|^2) dxi,

evaluated here as an exact lattice sum over the discrete frequency grid
(kernel_eval), which equals the extent-periodization of the continuum kernel
truncated at the Nyquist cube.

A measure admits a function-valued solution of the forced heat equation iff
the Dalang integrability condition holds,

    integral (1 + |xi|^2)^(-1) mu(dxi) < infinity,

decided in closed form per family (dalang_condition).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy

from .lattice import Field, Representation, _grid_density, _number


class Family(str, Enum):
    WHITE = "white"
    RIESZ = "riesz"
    BESSEL = "bessel"
    HEAT_KERNEL = "heat_kernel"


@dataclass(frozen=True)
class SpectralMeasure:
    """A radial spectral measure g(|xi|^2) dxi on R^dim.

    ``alpha`` is ignored for the white family but must be finite for every
    family.  ``formal`` permits Riesz exponents alpha >= dim for
    symbol-level pipelines on low-dimensional lattices (the measure is then
    not a tempered measure near xi = 0; CLI reports and ensemble manifests
    record the ``formal`` flag).
    """

    family: Family
    alpha: float = 0.0
    dim: int = 1
    formal: bool = False

    def __post_init__(self):
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if not (_number(self.dim) and self.dim >= 1 and float(self.dim).is_integer()):
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        a = self.alpha
        if not _number(a):
            raise ValueError(f"alpha must be a number, got alpha={a!r}")
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got alpha={a}")
        if self.family is Family.RIESZ:
            if not self.formal and not (0.0 < a < self.dim):
                raise ValueError(
                    f"riesz measure requires 0 < alpha < dim, got alpha={a}, "
                    f"dim={self.dim} (pass formal=True for symbol-level use)"
                )
            if self.formal and a <= 0.0:
                raise ValueError("riesz exponent must be positive")
        elif self.family in (Family.BESSEL, Family.HEAT_KERNEL):
            if a <= 0.0:
                raise ValueError(f"{self.family.value} measure requires alpha > 0")

    # -- density -----------------------------------------------------------

    def density(self, xi_squared):
        """g evaluated on an array of squared frequencies |xi|^2.

        The Riesz density is singular at xi = 0; the zero mode is mapped to
        the sentinel value 0.0 (the convention every multiplier/quadrature in
        this package uses: the zero frequency carries no Riesz weight).
        """
        r = np.asarray(xi_squared, dtype=float)
        if self.family is Family.WHITE:
            return np.ones_like(r)
        if self.family is Family.BESSEL:
            return (1.0 + r) ** (-self.alpha / 2.0)
        if self.family is Family.HEAT_KERNEL:
            return np.exp(-4.0 * math.pi**2 * self.alpha * r)
        # riesz: |xi|^(-alpha) with zero-mode sentinel
        with np.errstate(divide="ignore"):
            out = np.where(r > 0.0, r ** (-self.alpha / 2.0), 0.0)
        return out


def dalang_condition(m: SpectralMeasure) -> bool:
    """Closed-form decision of integral (1+|xi|^2)^(-1) mu(dxi) < infinity.

    white: dim <= 1; riesz and bessel: alpha > dim - 2; heat_kernel: True.
    """
    if m.family is Family.WHITE:
        return m.dim <= 1
    if m.family in (Family.RIESZ, Family.BESSEL):
        return m.alpha > m.dim - 2
    return True


def _sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@functools.cache
def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled module ``scipy.<subpackage>.<name>``, loaded from its
    file alone: importing the subpackage for it would load far more, about 270
    modules for scipy.integrate (with scipy.special, scipy.optimize and
    scipy.sparse) and about 300 for scipy.linalg.  Not registered here, though
    CPython files a single-phase extension module in ``sys.modules`` itself,
    and a later import of the subpackage reuses it."""
    full = f"scipy.{subpackage}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(
        full, [os.path.join(p, subpackage) for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"cannot find {full}", name=full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def truncation_tail(m: SpectralMeasure, radius: float) -> float:
    """integral_{|xi| > radius} (1+|xi|^2)^(-1) mu(dxi); inf when divergent.

    This is the quantitative truncation error of restricting the measure to a
    lattice frequency grid with Nyquist radius ``radius``; reports embed it.
    The integral is QUADPACK's qagie on [radius, inf) with the arguments
    ``scipy.integrate.quad(integrand, radius, inf, limit=200)`` passes it, so
    it has quad's bytes; a nonzero ``ier`` warns, as quad does.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not dalang_condition(m):
        return float("inf")
    d = m.dim

    def integrand(r):
        return r ** (d - 1) * m.density(r * r) / (1.0 + r * r)

    # bound, inf = 1 (the interval [bound, inf)), args, full_output, epsabs,
    # epsrel, limit: quad's defaults and its limit=200
    qagie = _scipy_extension("integrate", "_quadpack")._qagie
    val, _, ier = qagie(integrand, radius, 1, (), 0, 1.49e-8, 1.49e-8, 200)
    if ier != 0:
        warnings.warn(f"QUADPACK qagie returned ier={ier} for the truncation tail "
                      f"beyond radius {radius}; the value may be inaccurate",
                      RuntimeWarning, stacklevel=2)
    return _sphere_area(d) * val


def density_integrable(m: SpectralMeasure) -> bool:
    """Whether integral g(|xi|^2) dxi < infinity (kernel is a bounded function).

    When false the kernel is a distribution; its lattice evaluation is still
    well-defined (finite frequency grid) but carries an aliasing caveat.
    """
    if m.family is Family.HEAT_KERNEL:
        return True
    if m.family is Family.BESSEL:
        return m.alpha > m.dim
    return False  # white and riesz tails are not integrable


def kernel_eval(m: SpectralMeasure, lattice):
    """Covariance kernel f sampled on the spatial lattice.

    f(x) = (2 pi)^(-d) sum_xi g(|xi|^2) exp(i xi.x) dxi-cell
         = ifftn(g on the frequency grid) / (spatial cell volume),

    which is real, even under x -> -x (periodic wraparound), and equals the
    extent-periodization of the continuum kernel truncated at Nyquist.
    Emits a warning when the density is not absolutely integrable (kernel only
    exists as a distribution; lattice values are periodization-limited).
    """
    g = _grid_density(m, lattice)
    if not density_integrable(m):
        warnings.warn(
            f"{m.family.value} density is not absolutely integrable: kernel values "
            "are aliasing-limited lattice periodizations",
            RuntimeWarning,
            stacklevel=2,
        )
    values = np.fft.ifftn(g) / lattice.cell_volume
    return Field(lattice, Representation.PHYSICAL, values.astype(np.complex128))


def periodized_heat_kernel(t: np.ndarray, diffs, extent) -> np.ndarray:
    """Extent-periodized heat kernel (4 pi t)^(-d/2) exp(-|x|^2/(4t)), t > 0,
    summed over the nearest image per axis (3^d shifts); 0 where t <= 0.

    ``t`` may have any shape that broadcasts against the offsets ``diffs``;
    a stack of times gives, time by time, the bytes of one call per time.
    """
    d = len(extent)
    out = np.zeros(np.broadcast_shapes(t.shape, *(x.shape for x in diffs)), dtype=float)
    term = np.empty_like(out)  # one buffer for every image's exponent and exp
    four_t = 4.0 * np.where(t > 0, t, 1.0)
    for shifts in np.ndindex(*(3,) * d):
        r2 = sum((x + (k - 1) * L) ** 2 for x, k, L in zip(diffs, shifts, extent))
        out += np.exp(np.divide(-r2, four_t, out=term), out=term)
    # libm pow per time, as for a scalar t: numpy's array power rounds some
    # times (e.g. t = k/128) one ulp apart from it; t <= 0 gets prefactor 0
    out *= np.array([(4.0 * np.pi * v) ** (-d / 2.0) if v > 0 else 0.0
                     for v in t.ravel().tolist()]).reshape(t.shape)
    return out


def heat_kernel_closed_form(m: SpectralMeasure, lattice) -> np.ndarray:
    """Closed-form heat-family kernel on the lattice, for cross-validation.

    Under this package's conventions the heat-family measure
    g = exp(-4 pi^2 alpha |xi|^2) has kernel

        f(x) = (2 pi)^(-d) (pi / (4 pi^2 alpha))^(d/2) exp(-|x|^2 / (16 pi^2 alpha)),

    the heat kernel at t = 4 pi^2 alpha, returned here as its periodization
    (three images per axis, enough at the tolerances used since the Gaussian
    tail is negligible for the lattices involved).
    """
    if m.family is not Family.HEAT_KERNEL:
        raise ValueError("closed form only available for the heat_kernel family")
    return periodized_heat_kernel(np.asarray(4.0 * math.pi**2 * m.alpha),
                                  lattice.space_axes(), lattice.extent)
