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

import os
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Representation(str, Enum):
    PHYSICAL = "physical"
    FREQUENCY = "frequency"


class Layout(str, Enum):
    SPACE_ONLY = "space_only"
    SPACE_TIME = "space_time"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
        object.__setattr__(self, "extent", tuple(float(L) for L in self.extent))
        object.__setattr__(self, "n_space", tuple(int(n) for n in self.n_space))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.extent) != self.dim or len(self.n_space) != self.dim:
            raise ValueError("extent and n_space must have one entry per axis")
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

    def space_axes(self) -> list:
        """Per-axis coordinate arrays x_i = i * dx on [0, L)."""
        return [np.arange(n) * (L / n) for L, n in zip(self.extent, self.n_space)]

    def grid_point(self, time_index, space_index) -> tuple:
        """(t_m, x_j) for indices (m, j); x_j = (j mod n) L / n on each axis."""
        return (time_index * self.dt,
                tuple((int(j) % n) * L / n for j, n, L
                      in zip(space_index, self.n_space, self.extent)))

    def xi_axes(self) -> list:
        """Per-axis angular frequencies 2 pi k / L in FFT order."""
        return [
            2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
            for L, n in zip(self.extent, self.n_space)
        ]

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the full frequency grid, shape n_space."""
        axes = self.xi_axes()
        out = np.zeros(self.n_space, dtype=float)
        for ax, xi in enumerate(axes):
            shape = [1] * self.dim
            shape[ax] = -1
            out = out + xi.reshape(shape) ** 2
        return out

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

    def point_phase(self, space_index) -> np.ndarray:
        """exp(i xi . x_j) on the frequency grid for the grid point with index j."""
        _, x_j = self.grid_point(0, space_index)
        phase = np.ones(self.n_space, dtype=np.complex128)
        for ax, (xi, x) in enumerate(zip(self.xi_axes(), x_j)):
            shape = [1] * self.dim
            shape[ax] = -1
            phase = phase * np.exp(1j * xi * x).reshape(shape)
        return phase

    def xi_component(self, axis: int) -> np.ndarray:
        """xi_axis broadcast to the full frequency grid."""
        xi = self.xi_axes()[axis]
        shape = [1] * self.dim
        shape[axis] = -1
        return np.broadcast_to(xi.reshape(shape), self.n_space)

    @property
    def nyquist_radius(self) -> float:
        """Radius of the largest ball inside the Nyquist cube."""
        return min(np.pi * n / L for n, L in zip(self.n_space, self.extent))

    def times(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * self.dt

    def shape_for(self, layout: Layout) -> tuple:
        if layout is Layout.SPACE_ONLY:
            return self.n_space
        return (self.n_time + 1,) + self.n_space

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "extent": list(self.extent),
            "n_space": list(self.n_space),
            "t_max": float(self.t_max),
            "n_time": int(self.n_time),
        }

    @staticmethod
    def from_dict(d: dict) -> "SpaceTimeLattice":
        return SpaceTimeLattice(
            dim=int(d["dim"]),
            extent=tuple(d["extent"]),
            n_space=tuple(d["n_space"]),
            t_max=float(d["t_max"]),
            n_time=int(d["n_time"]),
        )


@dataclass
class Field:
    """Values on a lattice, in physical or frequency representation.

    Space-time fields hold n_time + 1 slices (t = 0 .. t_max inclusive).
    Values are always complex128; physical-space fields of real data carry a
    round-off-level imaginary part at most.
    """

    lattice: SpaceTimeLattice
    representation: Representation
    layout: Layout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        expected = self.lattice.shape_for(self.layout)
        if self.values.shape != expected:
            raise ValueError(
                f"field values shape {self.values.shape} does not match lattice "
                f"shape {expected} for layout {self.layout.value}"
            )

    def copy(self) -> "Field":
        return Field(self.lattice, self.representation, self.layout, self.values.copy())

    def real_values(self, tol: float = 1e-9) -> np.ndarray:
        """Real part, asserting the imaginary part is round-off."""
        scale = float(np.max(np.abs(self.values))) or 1.0
        worst = float(np.max(np.abs(self.values.imag)))
        if worst > tol * scale:
            raise ValueError(f"field is not real: max |imag| = {worst:.3e} (scale {scale:.3e})")
        return self.values.real.copy()


def zero_field(lattice: SpaceTimeLattice, layout: Layout,
               representation: Representation = Representation.PHYSICAL) -> Field:
    return Field(lattice, representation, layout,
                 np.zeros(lattice.shape_for(layout), dtype=np.complex128))


# -- transforms ---------------------------------------------------------------


def spectral_transform(values: np.ndarray, lattice: SpaceTimeLattice,
                       inverse: bool = False) -> np.ndarray:
    """Scaled spatial DFT over the trailing ``lattice.dim`` axes (see the module
    conventions), or its exact inverse; one call transforms a stack of fields."""
    axes = tuple(range(-lattice.dim, 0))
    if inverse:
        scale = (2.0 * np.pi) ** (lattice.dim / 2.0) / lattice.cell_volume
        return np.fft.ifftn(values, axes=axes) * scale
    scale = (2.0 * np.pi) ** (-lattice.dim / 2.0) * lattice.cell_volume
    return np.fft.fftn(values, axes=axes) * scale


def forward_transform(f: Field) -> Field:
    """Physical -> frequency, (2 pi)^(-d/2) dx^d fftn per time slice."""
    if f.representation is not Representation.PHYSICAL:
        raise ValueError("forward_transform expects a physical-representation field")
    return Field(f.lattice, Representation.FREQUENCY, f.layout,
                 spectral_transform(f.values, f.lattice))


def inverse_transform(f: Field) -> Field:
    """Frequency -> physical, exact inverse of forward_transform."""
    if f.representation is not Representation.FREQUENCY:
        raise ValueError("inverse_transform expects a frequency-representation field")
    return Field(f.lattice, Representation.PHYSICAL, f.layout,
                 spectral_transform(f.values, f.lattice, inverse=True))


def as_frequency(f: Field) -> Field:
    return f if f.representation is Representation.FREQUENCY else forward_transform(f)


def as_physical(f: Field) -> Field:
    return f if f.representation is Representation.PHYSICAL else inverse_transform(f)


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
    g = as_frequency(f)
    values = g.values * sym  # broadcasting covers the leading time axis
    out = Field(lat, Representation.FREQUENCY, f.layout, values)
    return out if f.representation is Representation.FREQUENCY else inverse_transform(out)


# -- inner products -----------------------------------------------------------


def _check_pair(f: Field, g: Field, layout: Layout):
    if f.lattice != g.lattice:
        raise ValueError("fields live on different lattices")
    if f.layout is not layout or g.layout is not layout:
        raise ValueError(f"expected {layout.value} fields")


def l2_inner_space(f: Field, g: Field) -> complex:
    """sum f conj(g) dx^d over the spatial lattice (space-only fields)."""
    _check_pair(f, g, Layout.SPACE_ONLY)
    a, b = as_physical(f), as_physical(g)
    return complex(np.sum(a.values * np.conj(b.values)) * f.lattice.cell_volume)


def l2_inner(f: Field, g: Field) -> complex:
    """Space-time L2 pairing, left-endpoint in time: sum_k dt sum_x f conj(g) dx^d."""
    _check_pair(f, g, Layout.SPACE_TIME)
    lat = f.lattice
    a, b = as_physical(f), as_physical(g)
    return complex(np.sum(a.values[:-1] * np.conj(b.values[:-1])) * lat.cell_volume * lat.dt)


def l2_norm(f: Field) -> float:
    if f.layout is Layout.SPACE_ONLY:
        return float(np.sqrt(max(l2_inner_space(f, f).real, 0.0)))
    return float(np.sqrt(max(l2_inner(f, f).real, 0.0)))


def pair_stacks(F: np.ndarray, G: np.ndarray, measure,
                lattice: SpaceTimeLattice) -> np.ndarray:
    """<f_i, g_i>_0 of inner0 for stacks (c, n_time+1, *n_space) of frequency values."""
    if measure.dim != lattice.dim:
        raise ValueError(f"measure dim {measure.dim} != lattice dim {lattice.dim}")
    w = measure.density(lattice.xi_squared) * lattice.freq_cell_volume
    axes = tuple(range(1, lattice.dim + 2))
    return np.sum(F[:, :-1] * np.conj(G[:, :-1]) * w, axis=axes) * lattice.dt


def inner0(f: Field, g: Field, measure) -> complex:
    """Covariance pairing <f, g>_0 of the driving noise.

    Frequency-side sum with weights g_meas(|xi|^2) * dxi^d, left-endpoint in
    time.  Sesquilinear (linear in f, conjugate-linear in g); <f, f>_0 is
    real and nonnegative.
    """
    _check_pair(f, g, Layout.SPACE_TIME)
    F = as_frequency(f).values[None]
    G = F if g is f else as_frequency(g).values[None]
    return complex(pair_stacks(F, G, measure, f.lattice)[0])


def norm0(f: Field, measure) -> float:
    """The seminorm induced by inner0 (a norm whenever the density is positive)."""
    return float(np.sqrt(max(inner0(f, f, measure).real, 0.0)))


# -- structured random fields (band-limited test data) ------------------------


def random_band_limited(lattice: SpaceTimeLattice, rng: np.random.Generator,
                        layout: Layout = Layout.SPACE_TIME,
                        band_fraction: float = 0.25,
                        interior_time: bool = True) -> Field:
    """A real random field with spatial spectrum confined to |k| <= band_fraction * n.

    Space-time fields get a smooth time envelope vanishing at both endpoint
    slices (the discrete analogue of test functions compactly supported in
    (0, t_max)).
    """
    values = band_limit(rng.standard_normal(lattice.shape_for(layout)), lattice,
                        band_fraction, layout is Layout.SPACE_TIME and interior_time)
    return Field(lattice, Representation.PHYSICAL, layout, values)


def band_limit(white: np.ndarray, lattice: SpaceTimeLattice,
               band_fraction: float = 0.25, envelope: bool = True) -> np.ndarray:
    """The values of random_band_limited for real draws ``white`` whose trailing
    axes are (n_time + 1, *n_space), or n_space without ``envelope``."""
    mask = np.ones(lattice.n_space, dtype=bool)
    for ax, n in enumerate(lattice.n_space):
        k = np.fft.fftfreq(n) * n  # integer wavenumbers
        shape_ax = [1] * lattice.dim
        shape_ax[ax] = -1
        mask &= np.abs(k.reshape(shape_ax)) <= band_fraction * n
    F = spectral_transform(white.astype(np.complex128), lattice)
    F *= mask
    out = spectral_transform(F, lattice, inverse=True).real.astype(np.complex128)
    if envelope:
        t = np.arange(lattice.n_time + 1) / lattice.n_time
        out *= (np.sin(np.pi * t) ** 2).reshape((-1,) + (1,) * lattice.dim)
    return out


def refine_field(f: Field, space_factor: int = 2, time_factor: int = 2) -> Field:
    """Resample onto a finer lattice: trigonometric interpolation in space,
    linear interpolation in time (assumes negligible Nyquist energy)."""
    lat = f.lattice
    fine = SpaceTimeLattice(
        dim=lat.dim,
        extent=lat.extent,
        n_space=tuple(n * space_factor for n in lat.n_space),
        t_max=lat.t_max,
        n_time=lat.n_time * time_factor,
    )
    g = as_physical(f)
    # spatial zero-padding per slice
    F = forward_transform(g).values
    pad_shape = fine.n_space if f.layout is Layout.SPACE_ONLY else (lat.n_time + 1,) + fine.n_space
    padded = np.zeros(pad_shape, dtype=np.complex128)
    src_idx = [np.fft.fftfreq(n) * n for n in lat.n_space]
    dest_slices = []
    for ax, n in enumerate(lat.n_space):
        k = src_idx[ax].astype(int)
        dest = np.where(k >= 0, k, k + fine.n_space[ax])
        dest_slices.append(dest)
    mesh = np.ix_(*dest_slices)
    if f.layout is Layout.SPACE_ONLY:
        padded[mesh] = F
        coarse_on_fine = inverse_transform(
            Field(fine, Representation.FREQUENCY, Layout.SPACE_ONLY, padded)
        ).values
        return Field(fine, Representation.PHYSICAL, Layout.SPACE_ONLY, coarse_on_fine)
    padded[(slice(None),) + mesh] = F
    interim = SpaceTimeLattice(lat.dim, lat.extent, fine.n_space, lat.t_max, lat.n_time)
    spatial = inverse_transform(
        Field(interim, Representation.FREQUENCY, Layout.SPACE_TIME, padded)
    ).values
    # linear time interpolation onto the refined slices
    t_coarse = np.arange(lat.n_time + 1) * lat.dt
    t_fine = np.arange(fine.n_time + 1) * fine.dt
    idx = np.minimum((t_fine / lat.dt).astype(int), lat.n_time - 1)
    frac = (t_fine - t_coarse[idx]) / lat.dt
    shape = (-1,) + (1,) * lat.dim
    vals = (1.0 - frac).reshape(shape) * spatial[idx] + frac.reshape(shape) * spatial[idx + 1]
    return Field(fine, Representation.PHYSICAL, Layout.SPACE_TIME, vals)


# -- binary container ---------------------------------------------------------

_MAGIC = b"SPDEFLD1"
_REP_CODE = {Representation.PHYSICAL: 0, Representation.FREQUENCY: 1}
_LAYOUT_CODE = {Layout.SPACE_ONLY: 0, Layout.SPACE_TIME: 1}


def write_field(f: Field, path) -> None:
    """Serialize a field: fixed header + little-endian float64 interleaved re/im."""
    lat = f.lattice
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<q", lat.dim))
        fh.write(struct.pack(f"<{lat.dim}q", *lat.n_space))
        fh.write(struct.pack("<q", lat.n_time))
        fh.write(struct.pack(f"<{lat.dim}d", *lat.extent))
        fh.write(struct.pack("<d", lat.t_max))
        fh.write(struct.pack("<q", _REP_CODE[f.representation]))
        fh.write(struct.pack("<q", _LAYOUT_CODE[f.layout]))
        flat = np.ascontiguousarray(f.values).ravel()
        inter = np.empty(2 * flat.size, dtype="<f8")
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not a field container (bad magic {magic!r})")
        if size < 16:
            raise ValueError("truncated field container")
        (dim,) = struct.unpack("<q", fh.read(8))
        if dim < 1:
            raise ValueError(f"field container has dimension {dim}")
        if size < 48 + 16 * dim:  # the header written by write_field
            raise ValueError("truncated field container")
        n_space = struct.unpack(f"<{dim}q", fh.read(8 * dim))
        (n_time,) = struct.unpack("<q", fh.read(8))
        extent = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        (t_max,) = struct.unpack("<d", fh.read(8))
        (rep_code,) = struct.unpack("<q", fh.read(8))
        (layout_code,) = struct.unpack("<q", fh.read(8))
        lat = SpaceTimeLattice(dim, extent, n_space, t_max, n_time)
        rep = {v: k for k, v in _REP_CODE.items()}.get(rep_code)
        layout = {v: k for k, v in _LAYOUT_CODE.items()}.get(layout_code)
        if rep is None or layout is None:
            raise ValueError(f"unknown representation/layout code "
                             f"{rep_code}/{layout_code} in field container")
        count = int(np.prod(lat.shape_for(layout)))
        raw = np.frombuffer(fh.read(16 * count), dtype="<f8")
        if raw.size != 2 * count:
            raise ValueError("truncated field container")
        values = (raw[0::2] + 1j * raw[1::2]).reshape(lat.shape_for(layout))
        return Field(lat, rep, layout, values)
