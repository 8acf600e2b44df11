"""Periodic space-time lattices, fields, transforms and covariance pairings.

Conventions (single source of truth for the whole package)
-----------------------------------------------------------
* Spatial grid: x_i = i * dx per axis, dx = extent / n, on the torus [0, L).
* Frequency grid: the DFT dual grid xi_k = 2 pi k / L in FFT order;
  frequency cell volume dxi^d = prod(2 pi / L_axis).
* Forward transform (physical -> frequency), matching
  F phi(xi) = (2 pi)^(-d/2) integral exp(-i xi.x) phi(x) dx:

      F = (2 pi)^(-d/2) * dx^d * fftn(values)

  and its inverse is (2 pi)^(d/2) * dx^(-d) * ifftn.  Parseval is exact on
  the lattice: sum |f|^2 dx^d = sum |F f|^2 dxi^d.
* Time grid: t_k = k * dt, k = 0..n_time, dt = t_max / n_time.  Space-time
  arrays have shape (n_time + 1, *n_space), time slowest (C order).
* All time integrals use the left-endpoint rule (slices 0..n_time-1 weighted
  dt), matching the Ito convention of the noise increments, so the discrete
  stochastic-integral isometry is exact in expectation.  The final slice
  carries no quadrature weight.
* The covariance pairing of the driving noise is the frequency-side sum

      <f, g>_0 = sum_k dt sum_xi F f(t_k, xi) conj(F g(t_k, xi))
                 * g_meas(|xi|^2) * dxi^d

  (Riesz zero mode carries weight 0).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np


class Representation(str, Enum):
    PHYSICAL = "physical"
    FREQUENCY = "frequency"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _number(x) -> bool:
    """Whether x is a real number, numpy's included: not text and not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _phi1(x: np.ndarray) -> np.ndarray:
    """phi_1(x) = (1 - e^{-x})/x for x >= 0, evaluated as -expm1(-x)/x; 1 at 0."""
    pos = x > 0.0
    return np.where(pos, -np.expm1(-x) / np.where(pos, x, 1.0), 1.0)


@dataclass(frozen=True)
class SpaceTimeLattice:
    """A periodic box [0, extent)^d crossed with the time interval [0, t_max]."""

    dim: int
    extent: tuple
    n_space: tuple
    t_max: float
    n_time: int

    def __post_init__(self):
        if not all(isinstance(n, Integral) and not isinstance(n, bool)
                   for n in (self.dim, self.n_time, *self.n_space)):
            raise ValueError(f"dim, n_space and n_time must be integers, got "
                             f"{self.dim!r}, {self.n_space!r}, {self.n_time!r}")
        if not all(map(_number, (*self.extent, self.t_max))):
            raise ValueError(f"extent and t_max must be numbers, got "
                             f"{self.extent!r}, {self.t_max!r}")
        for name, value in (("dim", int(self.dim)),
                            ("extent", tuple(float(L) for L in self.extent)),
                            ("n_space", tuple(int(n) for n in self.n_space)),
                            ("t_max", float(self.t_max)), ("n_time", int(self.n_time))):
            object.__setattr__(self, name, value)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.extent) != self.dim or len(self.n_space) != self.dim:
            raise ValueError("extent and n_space must have one entry per axis")
        if not all(math.isfinite(v) for v in self.extent + (self.t_max,)):
            raise ValueError(f"extent and t_max must be finite, got extent={self.extent}, "
                             f"t_max={self.t_max}")
        if any(L <= 0 for L in self.extent):
            raise ValueError("extents must be positive")
        if any(not _is_power_of_two(n) for n in self.n_space):
            raise ValueError(f"n_space entries must be powers of two, got {self.n_space}")
        if self.t_max <= 0 or self.n_time < 1:
            raise ValueError("t_max must be positive and n_time >= 1")

    # -- geometry ------------------------------------------------------------

    @property
    def dt(self) -> float:
        return self.t_max / self.n_time

    @cached_property
    def cell_volume(self) -> float:
        """Spatial cell volume dx^d."""
        return float(np.prod([L / n for L, n in zip(self.extent, self.n_space)]))

    @cached_property
    def freq_cell_volume(self) -> float:
        """Frequency cell volume prod(2 pi / L)."""
        return float(np.prod([2.0 * np.pi / L for L in self.extent]))

    def space_axes(self) -> tuple:
        """Per-axis coordinates x_i = i * dx on [0, L), shaped to broadcast."""
        return np.meshgrid(*(np.arange(n) * (L / n) for L, n in zip(self.extent, self.n_space)),
                           indexing="ij", sparse=True)

    def grid_point(self, time_index, space_index) -> tuple:
        """(t_m, x_j) for indices (m, j); x_j = (j mod n) L / n on each axis.

        Every index must be an integer (numpy integers included): a fractional
        index is refused, not truncated to a neighbouring grid point.  The
        time index must lie in [0, n_time]; space indices wrap."""
        if len(space_index) != self.dim:
            raise ValueError(f"space index {tuple(space_index)} has {len(space_index)} "
                             f"entries for a {self.dim}-D lattice")
        point = f"grid point ({time_index!r}, {tuple(space_index)!r})"
        if not all(isinstance(i, Integral) for i in (time_index, *space_index)):
            raise ValueError(f"{point} has a non-integer index")
        if not 0 <= time_index <= self.n_time:
            raise ValueError(f"{point} has a time index outside [0, {self.n_time}]")
        return (time_index * self.dt,
                tuple((int(j) % n) * L / n for j, n, L
                      in zip(space_index, self.n_space, self.extent)))

    def xi_axes(self) -> tuple:
        """Per-axis angular frequencies 2 pi k / L in FFT order, shaped to
        broadcast against the grid (axis ax has length n_ax on axis ax only)."""
        return np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
                             for L, n in zip(self.extent, self.n_space)),
                           indexing="ij", sparse=True)

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the full frequency grid, shape n_space."""
        return sum(xi ** 2 for xi in self.xi_axes())

    # -- per-mode heat-semigroup tables over one step -------------------------

    @cached_property
    def decay(self) -> np.ndarray:
        """a(xi) = exp(-|xi|^2 dt), in (0, 1]."""
        return np.exp(-self.xi_squared * self.dt)

    @cached_property
    def duhamel_weight(self) -> np.ndarray:
        """w(xi) = (1 - a)/|xi|^2 = dt phi_1(|xi|^2 dt), dt at the zero mode."""
        return self.dt * _phi1(self.xi_squared * self.dt)

    @cached_property
    def variance_weight(self) -> np.ndarray:
        """(1 - a^2)/(2 |xi|^2) = dt phi_1(2 |xi|^2 dt), dt at the zero mode.

        The variance gained by one step of the stochastic convolution, per
        unit spectral mass.
        """
        return self.dt * _phi1(2.0 * self.xi_squared * self.dt)

    @cached_property
    def loading(self) -> np.ndarray:
        """rho(xi) = w/dt = (1 - a)/(|xi|^2 dt), 1 at the zero mode: the
        loading of one step's convolution increment on its noise increment."""
        return self.duhamel_weight / self.dt

    @cached_property
    def innovation(self) -> np.ndarray:
        """(1 - a^2)/(2 |xi|^2 dt) - rho^2, clamped at 0 against round-off: the
        variance of that increment left after conditioning on the noise
        increment, per unit spectral mass and time."""
        return np.maximum(self.variance_weight / self.dt - self.loading ** 2, 0.0)

    def time_factor(self, gap, t_min) -> np.ndarray:
        """(exp(-lam |t-s|) - exp(-lam (t+s))) / (2 lam) on lam = |xi|^2, with
        the continuous value t^s at the zero mode.

        Takes gap = |t - s| and t_min = t ^ s, broadcast against n_space.
        """
        lam = self.xi_squared
        pos = lam > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            body = np.exp(-lam * gap) * (-np.expm1(-2.0 * lam * t_min)) / np.where(
                pos, 2.0 * lam, 1.0)
        return np.where(pos, body, t_min)

    def march(self, increments: np.ndarray, out=None) -> np.ndarray:
        """The per-mode march out(t_{k+1}) = a out(t_k) + increments(t_k) from
        out(t_0) = 0, for a stack (c, >= n_time, *n_space) of increments;
        returns (c, n_time + 1, *n_space), into ``out`` when given."""
        out = np.empty((len(increments),) + self.shape, increments.dtype) if out is None else out
        out[:, 0] = 0.0
        for k in range(self.n_time):
            np.multiply(self.decay, out[:, k], out=out[:, k + 1])
            out[:, k + 1] += increments[:, k]
        return out

    @cached_property
    def _band_tables(self) -> tuple:
        """band_limit's spatial mask |k_ax| <= n_ax / 4 and time envelope
        sin^2(pi t / t_max), shaped to broadcast against a space-time field."""
        mask = np.ones(self.n_space, dtype=bool)
        for low in np.meshgrid(*(np.abs(np.fft.fftfreq(n) * n) <= 0.25 * n
                                 for n in self.n_space), indexing="ij", sparse=True):
            mask &= low
        t = np.arange(self.n_time + 1) / self.n_time
        return mask, (np.sin(np.pi * t) ** 2).reshape((-1,) + (1,) * self.dim)

    def phase(self, x) -> np.ndarray:
        """xi . x = sum_ax xi_ax x_ax on the frequency grid for physical points
        x of shape (..., dim); returns shape (..., *n_space)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"points of shape {x.shape} for a {self.dim}-D lattice")
        x = np.moveaxis(x, -1, 0).reshape((self.dim,) + x.shape[:-1] + (1,) * self.dim)
        return sum(xi * x_ax for xi, x_ax in zip(self.xi_axes(), x))

    def point_phase(self, space_index) -> np.ndarray:
        """exp(i xi . x_j) on the frequency grid for the grid point with index j,
        as a product of per-axis plane waves."""
        _, x_j = self.grid_point(0, space_index)
        phase = np.ones(self.n_space, dtype=np.complex128)
        for xi, x in zip(self.xi_axes(), x_j):
            phase = phase * np.exp(1j * xi * x)
        return phase

    @property
    def nyquist_radius(self) -> float:
        """Radius of the largest ball inside the Nyquist cube."""
        return min(np.pi * n / L for n, L in zip(self.n_space, self.extent))

    def times(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * self.dt

    @property
    def shape(self) -> tuple:
        """(n_time + 1,) + n_space, the shape of a space-time field."""
        return (self.n_time + 1,) + self.n_space

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "SpaceTimeLattice":
        return SpaceTimeLattice(**{f.name: d[f.name] for f in fields(SpaceTimeLattice)})


def _length(x) -> int:
    """len(x), or -1 for an object without one, such as a bare number."""
    try:
        return len(x)
    except TypeError:
        return -1


def _physical_points(lattice: SpaceTimeLattice, points) -> tuple:
    """Times (P,) and coordinates (P, dim) of physical points (t, (x...)).

    Refuses the first point without a sequence of one coordinate per axis,
    or whose time is not in [0, t_max] (NaN included)."""
    times, coords = tuple(zip(*points)) or ((), ())
    counts = np.fromiter(map(_length, coords), int, len(coords))
    if (bad := np.flatnonzero(counts != lattice.dim)).size:
        i = bad[0]
        what = f"{counts[i]} coordinates" if counts[i] >= 0 else "no coordinate sequence"
        raise ValueError(f"point {(times[i], coords[i])} has {what} "
                         f"for a {lattice.dim}-D lattice")
    t = np.array(times, dtype=float)
    if (bad := np.flatnonzero(~((t >= 0.0) & (t <= lattice.t_max)))).size:
        i = bad[0]
        raise ValueError(f"point {(times[i], coords[i])} has a time outside "
                         f"[0, {lattice.t_max}]")
    return t, np.array(coords, dtype=float).reshape(len(t), lattice.dim)


@dataclass
class Field:
    """Values on a lattice, in physical or frequency representation.

    The shape of the values is the layout: ``lattice.n_space`` for a
    space-only field, ``lattice.shape`` for a space-time field, which holds
    n_time + 1 slices (t = 0 .. t_max inclusive).  Values are always
    complex128; physical-space fields of real data carry a round-off-level
    imaginary part at most.
    """

    lattice: SpaceTimeLattice
    representation: Representation
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape not in (self.lattice.n_space, self.lattice.shape):
            raise ValueError(
                f"field values shape {self.values.shape} is neither the lattice's "
                f"space shape {self.lattice.n_space} nor its space-time shape "
                f"{self.lattice.shape}")

    @property
    def space_time(self) -> bool:
        """Whether the field has a time axis (shape ``lattice.shape``)."""
        return self.values.ndim > self.lattice.dim

    def real_values(self) -> np.ndarray:
        """Real part of the physical values, asserting their imaginary part is
        round-off (1e-9 of the largest magnitude); an inf or NaN is refused."""
        vals = _finite_physical(self)
        scale = float(np.max(np.abs(vals))) or 1.0
        worst = float(np.max(np.abs(vals.imag)))
        if worst > 1e-9 * scale:
            raise ValueError(f"field is not real: max |imag| = {worst:.3e} (scale {scale:.3e})")
        return vals.real.copy()


def _finite_physical(f: Field) -> np.ndarray:
    """Physical values of ``f``; an inf or NaN in either part of its values,
    in either representation, is refused before any transform."""
    if not np.isfinite(f.values).all():
        raise ValueError("field holds a non-finite value")
    return inverse_transform(f).values


def _test_field(phi: Field, lattice: SpaceTimeLattice) -> None:
    """Refuses a test field that is not a finite space-time field on
    ``lattice`` with an imaginary part of at most 1e-12 max(1, max |phi|)."""
    if not phi.space_time:
        raise ValueError("test field must be a space-time field")
    if phi.lattice != lattice:
        raise ValueError("test field lives on a different lattice")
    phys = _finite_physical(phi)
    if float(np.abs(phys.imag).max()) > 1e-12 * max(1.0, float(np.abs(phys).max())):
        raise ValueError("test field must be real")


# -- transforms ---------------------------------------------------------------


def spectral_transform(values: np.ndarray, lattice: SpaceTimeLattice,
                       inverse: bool = False, out=None) -> np.ndarray:
    """Scaled spatial DFT over the trailing ``lattice.dim`` axes (see the module
    conventions), or its exact inverse, of a stack of fields; into ``out`` if given."""
    axes = tuple(range(-lattice.dim, 0))
    if inverse:
        out = np.fft.ifftn(values, axes=axes, out=out)
        out *= (2.0 * np.pi) ** (lattice.dim / 2.0) / lattice.cell_volume
    else:
        out = np.fft.fftn(values, axes=axes, out=out)
        out *= (2.0 * np.pi) ** (-lattice.dim / 2.0) * lattice.cell_volume
    return out


def forward_transform(f: Field) -> Field:
    """Physical -> frequency, (2 pi)^(-d/2) dx^d fftn per time slice; a
    frequency field is returned as it is."""
    if f.representation is Representation.FREQUENCY:
        return f
    return Field(f.lattice, Representation.FREQUENCY, spectral_transform(f.values, f.lattice))


def inverse_transform(f: Field) -> Field:
    """Frequency -> physical, exact inverse of forward_transform; a physical
    field is returned as it is."""
    if f.representation is Representation.PHYSICAL:
        return f
    return Field(f.lattice, Representation.PHYSICAL,
                 spectral_transform(f.values, f.lattice, inverse=True))


def apply_multiplier(f: Field, symbol) -> Field:
    """Apply a radial Fourier multiplier; returns a field in the input's representation.

    ``symbol`` is called on the |xi|^2 grid and must return finite values
    (NaN anywhere aborts).  Space-time fields are multiplied slice by slice
    (broadcast over the time axis).
    """
    lat = f.lattice
    sym = np.asarray(symbol(lat.xi_squared), dtype=np.complex128)
    if sym.shape != lat.n_space:
        sym = np.broadcast_to(sym, lat.n_space)
    if np.any(np.isnan(sym)):
        raise ValueError("multiplier symbol evaluated to NaN on the frequency grid")
    g = forward_transform(f)
    values = g.values * sym  # broadcasting covers the leading time axis
    out = Field(lat, Representation.FREQUENCY, values)
    return out if f.representation is Representation.FREQUENCY else inverse_transform(out)


# -- inner products -----------------------------------------------------------


def _check_pair(f: Field, g: Field, space_time: bool):
    if f.lattice != g.lattice:
        raise ValueError("fields live on different lattices")
    if not f.space_time == g.space_time == space_time:
        raise ValueError(f"expected {'space-time' if space_time else 'space-only'} fields")


def l2_inner(f: Field, g: Field) -> complex:
    """L2 pairing: sum_x f conj(g) dx^d for space-only fields; for space-time
    fields sum_k dt sum_x f conj(g) dx^d, left-endpoint in time."""
    _check_pair(f, g, f.space_time)
    lat = f.lattice
    a, b = inverse_transform(f).values, inverse_transform(g).values
    if not f.space_time:
        return complex(np.sum(a * np.conj(b)) * lat.cell_volume)
    return complex(np.sum(a[:-1] * np.conj(b[:-1])) * lat.cell_volume * lat.dt)


def l2_norm(f: Field) -> float:
    return float(np.sqrt(max(l2_inner(f, f).real, 0.0)))


def _grid_density(measure, lattice: SpaceTimeLattice) -> np.ndarray:
    """The measure's density g(|xi|^2) on the lattice's frequency grid; refuses
    a measure whose dimension is not the lattice's."""
    if measure.dim != lattice.dim:
        raise ValueError(f"measure dim {measure.dim} != lattice dim {lattice.dim}")
    return measure.density(lattice.xi_squared)


def pair_stacks(F: np.ndarray, G: np.ndarray, measure,
                lattice: SpaceTimeLattice, work=None) -> np.ndarray:
    """<f_i, g_i>_0 of inner0 for stacks (c, n_time+1, *n_space) of frequency
    values; ``work`` (complex, F[:, :-1]'s shape) takes the products if given."""
    w = _grid_density(measure, lattice) * lattice.freq_cell_volume
    terms = np.multiply(F[:, :-1], np.conj(G[:, :-1], out=work), out=work)
    terms *= w
    return np.sum(terms, axis=tuple(range(1, lattice.dim + 2))) * lattice.dt


def inner0(f: Field, g: Field, measure) -> complex:
    """Covariance pairing <f, g>_0 of the driving noise.

    Frequency-side sum with weights g_meas(|xi|^2) * dxi^d, left-endpoint in
    time.  Sesquilinear (linear in f, conjugate-linear in g); <f, f>_0 is
    real and nonnegative.
    """
    _check_pair(f, g, True)
    F = forward_transform(f).values[None]
    G = F if g is f else forward_transform(g).values[None]
    return complex(pair_stacks(F, G, measure, f.lattice)[0])


def norm0(f: Field, measure) -> float:
    """The seminorm induced by inner0 (a norm whenever the density is positive)."""
    return float(np.sqrt(max(inner0(f, f, measure).real, 0.0)))


# -- structured random fields (band-limited test data) ------------------------


def random_band_limited(lattice: SpaceTimeLattice, rng: np.random.Generator) -> Field:
    """A real random space-time field with spatial spectrum confined to
    |k| <= n/4 and a smooth time envelope vanishing at both endpoint slices
    (the discrete analogue of test functions compactly supported in (0, t_max)).
    """
    values = band_limit(rng.standard_normal(lattice.shape), lattice)
    return Field(lattice, Representation.PHYSICAL, values)


def band_limit(white: np.ndarray, lattice: SpaceTimeLattice, out=None) -> np.ndarray:
    """The values of random_band_limited for real draws ``white`` whose trailing
    axes are (n_time + 1, *n_space); into ``out`` (complex) if given."""
    mask, envelope = lattice._band_tables
    out = spectral_transform(white, lattice, out=out)
    out *= mask
    spectral_transform(out, lattice, inverse=True, out=out).imag = 0.0
    out *= envelope
    return out


def refine_field(f: Field) -> Field:
    """Resample a space-time field onto the lattice with twice the sites per
    axis and twice the steps: trigonometric interpolation in space, linear
    interpolation in time (assumes negligible Nyquist energy)."""
    if not f.space_time:
        raise ValueError("refine_field expects a space-time field")
    lat = f.lattice
    fine = SpaceTimeLattice(lat.dim, lat.extent, tuple(2 * n for n in lat.n_space),
                            lat.t_max, 2 * lat.n_time)
    # spatial zero-padding per slice: wavenumber k moves to index k mod 2n
    padded = np.zeros((lat.n_time + 1,) + fine.n_space, dtype=np.complex128)
    dest = [(np.fft.fftfreq(n) * n).astype(int) % (2 * n) for n in lat.n_space]
    padded[(slice(None),) + np.ix_(*dest)] = forward_transform(f).values
    spatial = spectral_transform(padded, fine, inverse=True)
    # linear time interpolation onto the refined slices
    t_coarse, t_fine = lat.times(), fine.times()
    idx = np.minimum((t_fine / lat.dt).astype(int), lat.n_time - 1)
    frac = (t_fine - t_coarse[idx]) / lat.dt
    shape = (-1,) + (1,) * lat.dim
    vals = (1.0 - frac).reshape(shape) * spatial[idx] + frac.reshape(shape) * spatial[idx + 1]
    return Field(fine, Representation.PHYSICAL, vals)


# -- binary container ---------------------------------------------------------

_MAGIC = b"SPDEFLD1"
_REP_CODE = {Representation.PHYSICAL: 0, Representation.FREQUENCY: 1}


def write_field(f: Field, path) -> bytes:
    """Serialize a field: fixed header + little-endian complex128 values (float64
    re/im pairs) in C order.

    Returns the bytes written.
    """
    lat = f.lattice
    header = struct.pack(f"<8sq{lat.dim}qq{lat.dim}ddqq", _MAGIC, lat.dim,
                         *lat.n_space, lat.n_time, *lat.extent, lat.t_max,
                         _REP_CODE[f.representation], int(f.space_time))
    blob = header + np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    Path(path).write_bytes(blob)
    return blob


def decode_field(blob: bytes) -> Field:
    """Parse the bytes of a field container written by ``write_field``.

    Checks the magic, the dimension, the header length, the lattice, the
    representation and layout codes, and that the length is exactly the
    header plus 16 bytes per value, before reading any value.
    """
    if blob[:8] != _MAGIC:
        raise ValueError(f"not a field container (bad magic {blob[:8]!r})")
    if len(blob) < 16:
        raise ValueError("truncated field container")
    (dim,) = struct.unpack_from("<q", blob, 8)
    if dim < 1:
        raise ValueError(f"field container has dimension {dim}")
    header = 48 + 16 * dim
    if len(blob) < header:
        raise ValueError("truncated field container")
    *n_space, n_time = struct.unpack_from(f"<{dim + 1}q", blob, 16)
    *extent, t_max = struct.unpack_from(f"<{dim + 1}d", blob, 24 + 8 * dim)
    rep_code, layout_code = struct.unpack_from("<2q", blob, 32 + 16 * dim)
    lat = SpaceTimeLattice(dim, extent, n_space, t_max, n_time)
    rep = {v: k for k, v in _REP_CODE.items()}.get(rep_code)
    if rep is None or layout_code not in (0, 1):
        raise ValueError(f"unknown representation/layout code "
                         f"{rep_code}/{layout_code} in field container")
    shape = (lat.n_space, lat.shape)[layout_code]
    expected = header + 16 * math.prod(shape)
    if len(blob) < expected:
        raise ValueError("truncated field container")
    if len(blob) > expected:
        raise ValueError(f"field container has {len(blob) - expected} bytes "
                         "after its payload")
    return Field(lat, rep, np.frombuffer(blob, "<c16", offset=header).reshape(shape).copy())


def read_field(path) -> Field:
    return decode_field(Path(path).read_bytes())
